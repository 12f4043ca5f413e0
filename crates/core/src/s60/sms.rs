//! The S60 SMS proxy binding.
//!
//! Absorbs the JSR-120 ceremony — `Connector.open("sms://…")`, message
//! object creation, address/payload setters — behind the uniform
//! one-call `sendTextMessage`.

use std::sync::Arc;

use mobivine_proxydl::PlatformId;
use mobivine_s60::messaging::{MessageConnection, MessageType};
use mobivine_s60::S60Platform;

use crate::api::{ProxyBase, SmsProxy};
use crate::error::ProxyError;
use crate::property::{PropertyBag, PropertyValue};
use crate::types::{DeliveryListener, DeliveryOutcome};

/// The S60 binding of the uniform [`SmsProxy`]
/// (`com.ibm.S60.sms.SmsProxy` in the descriptor).
pub struct S60SmsProxy {
    platform: S60Platform,
    pub(crate) properties: PropertyBag,
}

impl S60SmsProxy {
    /// Creates a proxy bound to `platform`.
    pub fn new(platform: S60Platform) -> Self {
        Self {
            platform,
            properties: PropertyBag::standard("SMS", &PlatformId::NokiaS60),
        }
    }
}

impl ProxyBase for S60SmsProxy {
    fn set_property(&self, key: &str, value: PropertyValue) -> Result<(), ProxyError> {
        self.properties.set(key, value)
    }
}

impl SmsProxy for S60SmsProxy {
    fn send_text_message(
        &self,
        destination: &str,
        text: &str,
        delivery_listener: Option<Arc<dyn DeliveryListener>>,
    ) -> Result<u64, ProxyError> {
        if destination.is_empty() {
            return Err(ProxyError::new(
                crate::error::ProxyErrorKind::IllegalArgument,
                "destination address is empty",
            ));
        }
        if text.is_empty() {
            return Err(ProxyError::new(
                crate::error::ProxyErrorKind::IllegalArgument,
                "message body is empty",
            ));
        }
        let url = format!("sms://{destination}");
        let connection = MessageConnection::open_client(&self.platform, &url)?;
        let mut message = connection.new_message(MessageType::Text);
        message.set_payload_text(text);
        let id = match delivery_listener {
            Some(listener) => connection.send_with_status(&message, move |id, delivered| {
                let outcome = if delivered {
                    DeliveryOutcome::Delivered
                } else {
                    DeliveryOutcome::Failed
                };
                listener.delivery_event(id.value(), outcome);
            })?,
            None => connection.send_with_status(&message, |_, _| {})?,
        };
        Ok(id.value())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mobivine_device::Device;
    use mobivine_s60::permissions::{ApiPermission, Disposition, PermissionPolicy};
    use std::sync::Mutex as StdMutex;

    fn platform() -> S60Platform {
        S60Platform::new(Device::builder().msisdn("+91-agent").build())
    }

    #[test]
    fn one_call_send_reaches_recipient() {
        let platform = platform();
        platform.device().smsc().register_address("+91-sup");
        let proxy = S60SmsProxy::new(platform.clone());
        let id = proxy.send_text_message("+91-sup", "done", None).unwrap();
        assert!(id > 0);
        platform.device().advance_ms(1_000);
        let inbox = platform.device().smsc().inbox("+91-sup");
        assert_eq!(inbox[0].body, "done");
        assert_eq!(inbox[0].from, "+91-agent");
    }

    #[test]
    fn delivery_listener_uniform_with_android() {
        let platform = platform();
        platform.device().smsc().register_address("+91-sup");
        let proxy = S60SmsProxy::new(platform.clone());
        let outcomes = Arc::new(StdMutex::new(Vec::new()));
        let sink = Arc::clone(&outcomes);
        proxy
            .send_text_message(
                "+91-sup",
                "ping",
                Some(Arc::new(move |_id: u64, o: DeliveryOutcome| {
                    sink.lock().unwrap().push(o);
                })),
            )
            .unwrap();
        platform.device().advance_ms(1_000);
        assert_eq!(
            outcomes.lock().unwrap().as_slice(),
            &[DeliveryOutcome::Delivered]
        );
    }

    #[test]
    fn failure_outcome_for_unknown_recipient() {
        let platform = platform();
        let proxy = S60SmsProxy::new(platform.clone());
        let outcomes = Arc::new(StdMutex::new(Vec::new()));
        let sink = Arc::clone(&outcomes);
        proxy
            .send_text_message(
                "+ghost",
                "ping",
                Some(Arc::new(move |_id: u64, o: DeliveryOutcome| {
                    sink.lock().unwrap().push(o);
                })),
            )
            .unwrap();
        platform.device().advance_ms(1_000);
        assert_eq!(
            outcomes.lock().unwrap().as_slice(),
            &[DeliveryOutcome::Failed]
        );
    }

    #[test]
    fn argument_validation_is_uniform() {
        let proxy = S60SmsProxy::new(platform());
        assert_eq!(
            proxy.send_text_message("", "x", None).unwrap_err().kind(),
            crate::error::ProxyErrorKind::IllegalArgument
        );
        assert_eq!(
            proxy.send_text_message("+1", "", None).unwrap_err().kind(),
            crate::error::ProxyErrorKind::IllegalArgument
        );
    }

    #[test]
    fn denied_permission_is_uniform_security_error() {
        let policy = PermissionPolicy::new();
        policy.set(ApiPermission::SmsSend, Disposition::Denied);
        let platform = S60Platform::with_policy(Device::builder().build(), policy);
        let proxy = S60SmsProxy::new(platform);
        let err = proxy.send_text_message("+1", "x", None).unwrap_err();
        assert_eq!(err.kind(), crate::error::ProxyErrorKind::Security);
        assert_eq!(
            err.platform_exception(),
            Some("java.lang.SecurityException")
        );
    }
}
