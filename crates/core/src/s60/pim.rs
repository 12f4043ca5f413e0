//! S60 PIM proxy bindings (Contacts, Calendar) — extension features for
//! the paper's future-work interfaces (§7).

use mobivine_proxydl::PlatformId;
use mobivine_s60::permissions::ApiPermission;
use mobivine_s60::S60Platform;

use crate::api::{CalendarProxy, ContactsProxy, ProxyBase};
use crate::error::ProxyError;
use crate::property::{PropertyBag, PropertyValue};
use crate::types::{CalendarRecord, ContactRecord};

/// The S60 binding of the uniform [`ContactsProxy`].
pub struct S60ContactsProxy {
    platform: S60Platform,
    properties: PropertyBag,
}

impl S60ContactsProxy {
    /// Creates a proxy bound to `platform`.
    pub fn new(platform: S60Platform) -> Self {
        Self {
            platform,
            properties: PropertyBag::standard("Contacts", &PlatformId::NokiaS60),
        }
    }
}

impl ProxyBase for S60ContactsProxy {
    fn set_property(&self, key: &str, value: PropertyValue) -> Result<(), ProxyError> {
        self.properties.set(key, value)
    }
}

impl ContactsProxy for S60ContactsProxy {
    fn find_contacts(&self, query: &str) -> Result<Vec<ContactRecord>, ProxyError> {
        self.platform.enforce(ApiPermission::ContactsRead)?;
        Ok(self
            .platform
            .device()
            .contacts()
            .find_by_name(query)
            .into_iter()
            .map(|c| ContactRecord {
                name: c.name,
                numbers: c.numbers,
            })
            .collect())
    }
}

/// The S60 binding of the uniform [`CalendarProxy`].
pub struct S60CalendarProxy {
    platform: S60Platform,
    properties: PropertyBag,
}

impl S60CalendarProxy {
    /// Creates a proxy bound to `platform`.
    pub fn new(platform: S60Platform) -> Self {
        Self {
            platform,
            properties: PropertyBag::standard("Calendar", &PlatformId::NokiaS60),
        }
    }
}

impl ProxyBase for S60CalendarProxy {
    fn set_property(&self, key: &str, value: PropertyValue) -> Result<(), ProxyError> {
        self.properties.set(key, value)
    }
}

impl CalendarProxy for S60CalendarProxy {
    fn entries_between(&self, from_ms: u64, to_ms: u64) -> Result<Vec<CalendarRecord>, ProxyError> {
        self.platform.enforce(ApiPermission::CalendarRead)?;
        Ok(self
            .platform
            .device()
            .calendar()
            .entries_between(from_ms, to_ms)
            .into_iter()
            .map(|e| CalendarRecord {
                title: e.title,
                start_ms: e.start_ms,
                end_ms: e.end_ms,
                location: e.location,
            })
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mobivine_device::Device;
    use mobivine_s60::permissions::{Disposition, PermissionPolicy};

    fn platform() -> S60Platform {
        let device = Device::builder().build();
        device
            .contacts()
            .add("Region Supervisor", &["+91-100"], &[]);
        device.calendar().add("Shift", 10, 20, "Depot").unwrap();
        S60Platform::new(device)
    }

    #[test]
    fn contacts_and_calendar_uniform_results() {
        let p = platform();
        let contacts = S60ContactsProxy::new(p.clone());
        assert_eq!(contacts.find_contacts("super").unwrap().len(), 1);
        let calendar = S60CalendarProxy::new(p);
        assert_eq!(calendar.entries_between(0, 100).unwrap()[0].title, "Shift");
    }

    #[test]
    fn denied_policy_is_security_error() {
        let policy = PermissionPolicy::new();
        policy.set(ApiPermission::ContactsRead, Disposition::Denied);
        policy.set(ApiPermission::CalendarRead, Disposition::Denied);
        let p = S60Platform::with_policy(Device::builder().build(), policy);
        assert_eq!(
            S60ContactsProxy::new(p.clone())
                .find_contacts("x")
                .unwrap_err()
                .kind(),
            crate::error::ProxyErrorKind::Security
        );
        assert_eq!(
            S60CalendarProxy::new(p)
                .entries_between(0, 1)
                .unwrap_err()
                .kind(),
            crate::error::ProxyErrorKind::Security
        );
    }
}
