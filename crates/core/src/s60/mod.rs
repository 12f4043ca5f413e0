//! Nokia S60 binding modules — the implementation plane for S60/J2ME.
//!
//! The heaviest de-fragmentation in the system lives here: JSR-179
//! proximity monitoring is **single-shot** (one `proximityEvent` on
//! entering, then the listener is removed; no exit events, no
//! expiration), while the uniform [`crate::api::LocationProxy`] promises
//! Android-style **repeated enter/exit alerts with a lifetime**. The
//! S60 location binding emulates the richer semantics with exactly the
//! machinery the paper's Fig. 2(b) shows application developers writing
//! by hand — a location listener watching for the exit boundary, prompt
//! re-registration of the proximity listener for the next entry, and a
//! timeout guard — except the proxy hides all of it.
//!
//! There is **no Call binding**: "Call proxy could not be created in
//! this case because the core functionality was not exposed on the S60
//! platform" (§4.1). The registry surfaces this as
//! [`crate::error::ProxyErrorKind::UnsupportedOnPlatform`].

use std::sync::Arc;

use mobivine_device::Device;
use mobivine_proxydl::PlatformId;
use mobivine_s60::S60Platform;

use crate::api::{CalendarProxy, ContactsProxy, HttpProxy, LocationProxy, SmsProxy};
use crate::registry::{BindingPlane, Bound, Mobivine, MobivineBuilder};

mod http;
mod location;
mod pim;
mod sms;

pub use http::S60HttpProxy;
pub use location::S60LocationProxy;
pub use pim::{S60CalendarProxy, S60ContactsProxy};
pub use sms::S60SmsProxy;

/// The S60 binding plane is the platform handle. It binds no Call: the
/// catalog declares none for S60, so the registry never asks.
impl BindingPlane for S60Platform {
    fn platform_id(&self) -> PlatformId {
        PlatformId::NokiaS60
    }

    fn device(&self) -> &Device {
        S60Platform::device(self)
    }

    fn location(&self) -> Bound<dyn LocationProxy> {
        Some(Ok(Arc::new(S60LocationProxy::new(self.clone()))))
    }

    fn sms(&self) -> Bound<dyn SmsProxy> {
        Some(Ok(Arc::new(S60SmsProxy::new(self.clone()))))
    }

    fn http(&self) -> Bound<dyn HttpProxy> {
        Some(Ok(Arc::new(S60HttpProxy::new(self.clone()))))
    }

    fn contacts(&self) -> Bound<dyn ContactsProxy> {
        Some(Ok(Arc::new(S60ContactsProxy::new(self.clone()))))
    }

    fn calendar(&self) -> Bound<dyn CalendarProxy> {
        Some(Ok(Arc::new(S60CalendarProxy::new(self.clone()))))
    }
}

impl MobivineBuilder {
    /// Targets an S60 platform.
    #[must_use]
    pub fn s60(self, platform: S60Platform) -> Self {
        self.platform(Arc::new(platform))
    }
}

impl Mobivine {
    /// A runtime with no layer on an S60 platform.
    pub fn for_s60(platform: S60Platform) -> Self {
        Self::bare(Arc::new(platform))
    }
}
