//! Telephony: `SmsManager` and the `IPhone`-flavoured call interface.
//!
//! The paper implemented its Android SMS proxy on
//! `android.telephony.gsm.SmsManager` and its phone-call proxy on the
//! (then-internal) `android.telephony.IPhone` class (§4.1).

use std::fmt;
use std::sync::Arc;

use mobivine_device::call::{CallId, CallState};
use mobivine_device::sms::{DeliveryStatus, MessageId};

use crate::context::Context;
use crate::error::AndroidException;
use crate::permissions::Permission;

/// Outcome reported to an SMS sent/delivered callback.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SmsResult {
    /// The message reached the recipient.
    Delivered,
    /// The network failed to deliver the message.
    GenericFailure,
}

/// Callback type for delivery notifications (the role played by the
/// `sentIntent`/`deliveryIntent` pending intents on the real platform).
pub type SmsCallback = Box<dyn Fn(MessageId, SmsResult) + Send>;

/// `android.telephony.gsm.SmsManager`.
pub struct SmsManager {
    ctx: Context,
}

impl fmt::Debug for SmsManager {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SmsManager").finish()
    }
}

impl SmsManager {
    pub(crate) fn new(ctx: Context) -> Self {
        Self { ctx }
    }

    /// `sendTextMessage(destinationAddress, scAddress, text, sentIntent,
    /// deliveryIntent)` — submits a text message; the optional callback
    /// fires asynchronously with the delivery outcome.
    ///
    /// # Errors
    ///
    /// - [`AndroidException::Security`] without `SEND_SMS`.
    /// - [`AndroidException::IllegalArgument`] for an empty destination
    ///   or empty body (matching the real API's argument checks).
    pub fn send_text_message(
        &self,
        destination: &str,
        _sc_address: Option<&str>,
        text: &str,
        delivery_callback: Option<SmsCallback>,
    ) -> Result<MessageId, AndroidException> {
        self.ctx.enforce_permission(Permission::SendSms)?;
        if destination.is_empty() {
            return Err(AndroidException::IllegalArgument(
                "destination address is empty".to_owned(),
            ));
        }
        if text.is_empty() {
            return Err(AndroidException::IllegalArgument(
                "message body is empty".to_owned(),
            ));
        }
        let device = self.ctx.device();
        if !device.signal_strength().in_coverage() {
            return Err(AndroidException::Io(
                "radio off network: no signal".to_owned(),
            ));
        }
        device.power().draw("radio", 0.8);
        let report = delivery_callback.map(|cb| {
            Box::new(move |id: MessageId, status: DeliveryStatus, _at: u64| {
                let result = match status {
                    DeliveryStatus::Delivered => SmsResult::Delivered,
                    _ => SmsResult::GenericFailure,
                };
                cb(id, result);
            }) as Box<dyn Fn(MessageId, DeliveryStatus, u64) + Send>
        });
        let id = device
            .smsc()
            .submit(device.msisdn(), destination, text, device.now_ms(), report);
        Ok(id)
    }
}

/// The `IPhone`-style phone-call interface.
pub struct Phone {
    ctx: Context,
}

impl fmt::Debug for Phone {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Phone").finish()
    }
}

impl Phone {
    pub(crate) fn new(ctx: Context) -> Self {
        Self { ctx }
    }

    /// `call(number)` — starts dialing. The call progresses as virtual
    /// time advances; poll [`Phone::call_state`].
    ///
    /// # Errors
    ///
    /// - [`AndroidException::Security`] without `CALL_PHONE`.
    /// - [`AndroidException::IllegalArgument`] for an empty number.
    pub fn call(&self, number: &str) -> Result<CallId, AndroidException> {
        self.ctx.enforce_permission(Permission::CallPhone)?;
        if number.is_empty() {
            return Err(AndroidException::IllegalArgument(
                "phone number is empty".to_owned(),
            ));
        }
        let device = self.ctx.device();
        if !device.signal_strength().in_coverage() {
            return Err(AndroidException::Io(
                "radio off network: no signal".to_owned(),
            ));
        }
        device.power().draw("radio", 2.0);
        Ok(device.call_switch().dial(number, device.now_ms()))
    }

    /// Current state of a placed call.
    pub fn call_state(&self, id: CallId) -> Option<CallState> {
        self.ctx.device().call_switch().state(id)
    }

    /// `endCall`.
    ///
    /// # Errors
    ///
    /// Returns [`AndroidException::IllegalArgument`] if the call does not
    /// exist or is already terminated.
    pub fn end_call(&self, id: CallId) -> Result<(), AndroidException> {
        self.ctx
            .device()
            .call_switch()
            .hangup(id)
            .map_err(|e| AndroidException::IllegalArgument(e.to_string()))
    }
}

/// Convenience alias used by the native workforce app.
pub type SharedSmsManager = Arc<SmsManager>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::AndroidPlatform;
    use crate::permissions::PermissionSet;
    use crate::version::SdkVersion;
    use mobivine_device::call::DisconnectReason;
    use mobivine_device::Device;
    use std::sync::Mutex as StdMutex;

    fn platform() -> AndroidPlatform {
        AndroidPlatform::new(
            Device::builder().msisdn("+91-me").build(),
            SdkVersion::M5Rc15,
        )
    }

    #[test]
    fn sms_reaches_recipient_inbox() {
        let platform = platform();
        let device = platform.device().clone();
        device.smsc().register_address("+91-sup");
        let ctx = platform.new_context();
        ctx.sms_manager()
            .send_text_message("+91-sup", None, "task done", None)
            .unwrap();
        device.advance_ms(1_000);
        let inbox = device.smsc().inbox("+91-sup");
        assert_eq!(inbox.len(), 1);
        assert_eq!(inbox[0].body, "task done");
        assert_eq!(inbox[0].from, "+91-me");
    }

    #[test]
    fn sms_delivery_callback_fires() {
        let platform = platform();
        let device = platform.device().clone();
        device.smsc().register_address("+91-sup");
        let ctx = platform.new_context();
        let results = Arc::new(StdMutex::new(Vec::new()));
        let sink = Arc::clone(&results);
        ctx.sms_manager()
            .send_text_message(
                "+91-sup",
                None,
                "ping",
                Some(Box::new(move |_id, r| sink.lock().unwrap().push(r))),
            )
            .unwrap();
        device.advance_ms(1_000);
        assert_eq!(results.lock().unwrap().as_slice(), &[SmsResult::Delivered]);
    }

    #[test]
    fn sms_to_unknown_address_reports_failure() {
        let platform = platform();
        let device = platform.device().clone();
        let ctx = platform.new_context();
        let results = Arc::new(StdMutex::new(Vec::new()));
        let sink = Arc::clone(&results);
        ctx.sms_manager()
            .send_text_message(
                "+nobody",
                None,
                "ping",
                Some(Box::new(move |_id, r| sink.lock().unwrap().push(r))),
            )
            .unwrap();
        device.advance_ms(1_000);
        assert_eq!(
            results.lock().unwrap().as_slice(),
            &[SmsResult::GenericFailure]
        );
    }

    #[test]
    fn sms_argument_validation() {
        let ctx = platform().new_context();
        let sms = ctx.sms_manager();
        assert!(matches!(
            sms.send_text_message("", None, "x", None),
            Err(AndroidException::IllegalArgument(_))
        ));
        assert!(matches!(
            sms.send_text_message("+1", None, "", None),
            Err(AndroidException::IllegalArgument(_))
        ));
    }

    #[test]
    fn sms_requires_permission() {
        let platform = AndroidPlatform::with_permissions(
            Device::builder().build(),
            SdkVersion::M5Rc15,
            PermissionSet::new(),
        );
        let ctx = platform.new_context();
        assert!(matches!(
            ctx.sms_manager().send_text_message("+1", None, "x", None),
            Err(AndroidException::Security(_))
        ));
    }

    #[test]
    fn call_progresses_and_ends() {
        let platform = platform();
        let device = platform.device().clone();
        let ctx = platform.new_context();
        let phone = ctx.phone();
        let id = phone.call("+91-sup").unwrap();
        device.advance_ms(10_000);
        assert_eq!(phone.call_state(id), Some(CallState::Active));
        phone.end_call(id).unwrap();
        assert_eq!(
            phone.call_state(id),
            Some(CallState::Disconnected(DisconnectReason::LocalHangup))
        );
    }

    #[test]
    fn call_requires_permission_and_number() {
        let denied = AndroidPlatform::with_permissions(
            Device::builder().build(),
            SdkVersion::M5Rc15,
            PermissionSet::new(),
        );
        assert!(matches!(
            denied.new_context().phone().call("+1"),
            Err(AndroidException::Security(_))
        ));
        assert!(matches!(
            platform().new_context().phone().call(""),
            Err(AndroidException::IllegalArgument(_))
        ));
    }
}
