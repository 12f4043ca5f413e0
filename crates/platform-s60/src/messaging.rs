//! JSR-120-style wireless messaging.
//!
//! On S60 the paper's SMS proxy binds to `javax.wireless.messaging`
//! (§4.1): a `MessageConnection` is opened through the generic
//! `Connector.open("sms://…")` factory, a `TextMessage` object is
//! created, populated and sent. Contrast with Android's one-call
//! `SmsManager.sendTextMessage` — name, structure and error model all
//! differ.

use std::collections::VecDeque;
use std::fmt;
use std::sync::Arc;

use parking_lot::Mutex;

use mobivine_device::sms::{InboxMessage, InboxSubscription};

use crate::error::S60Exception;
use crate::permissions::ApiPermission;
use crate::platform::S60Platform;

/// Message type selector for
/// [`MessageConnection::new_message`] (JSR-120's
/// `MessageConnection.TEXT_MESSAGE`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MessageType {
    /// A text message.
    Text,
    /// A binary message (modelled but the paper's proxies only use
    /// text).
    Binary,
}

/// A JSR-120 text message under construction.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct TextMessage {
    address: Option<String>,
    payload: Option<String>,
}

impl TextMessage {
    /// `setAddress("sms://+number")`.
    pub fn set_address(&mut self, address: &str) {
        self.address = Some(address.to_owned());
    }

    /// `getAddress()`.
    pub fn address(&self) -> Option<&str> {
        self.address.as_deref()
    }

    /// `setPayloadText(text)`.
    pub fn set_payload_text(&mut self, text: &str) {
        self.payload = Some(text.to_owned());
    }

    /// `getPayloadText()`.
    pub fn payload_text(&self) -> Option<&str> {
        self.payload.as_deref()
    }
}

/// Listener for incoming messages (JSR-120 `MessageListener`).
pub trait MessageListener: Send + Sync {
    /// `notifyIncomingMessage(connection)` — a message is ready to be
    /// read with [`MessageConnection::receive`].
    fn notify_incoming_message(&self);
}

/// A JSR-120 message connection, client or server mode.
pub struct MessageConnection {
    platform: S60Platform,
    /// `sms://+number` the connection was opened on (client mode) or
    /// the local listening address (server mode).
    address: String,
    received: Arc<Mutex<VecDeque<InboxMessage>>>,
    listener: Arc<Mutex<Option<Arc<dyn MessageListener>>>>,
    /// The SMSC subscription feeding `received`, removed when the
    /// connection drops; `Some` exactly in server mode.
    subscription: Option<InboxSubscription>,
}

impl fmt::Debug for MessageConnection {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MessageConnection")
            .field("address", &self.address)
            .field("server_mode", &self.server_mode())
            .finish()
    }
}

/// Parses an `sms://` connector URL into the bare address.
fn parse_sms_url(url: &str) -> Result<&str, S60Exception> {
    url.strip_prefix("sms://")
        .filter(|rest| !rest.is_empty())
        .ok_or_else(|| S60Exception::IllegalArgument(format!("not an sms url: {url}")))
}

impl MessageConnection {
    /// `Connector.open("sms://+number")` — client mode, for sending to
    /// `+number`.
    ///
    /// # Errors
    ///
    /// - [`S60Exception::Security`] if sending is denied.
    /// - [`S60Exception::IllegalArgument`] for malformed URLs.
    pub fn open_client(platform: &S60Platform, url: &str) -> Result<Self, S60Exception> {
        platform.enforce(ApiPermission::SmsSend)?;
        let address = parse_sms_url(url)?;
        Ok(Self {
            platform: platform.clone(),
            address: address.to_owned(),
            received: Arc::new(Mutex::new(VecDeque::new())),
            listener: Arc::new(Mutex::new(None)),
            subscription: None,
        })
    }

    /// `Connector.open("sms://:port")`-style server connection bound to
    /// this device's own number; incoming messages are queued for
    /// [`MessageConnection::receive`] and announced to the registered
    /// [`MessageListener`], if any, until the connection drops.
    ///
    /// # Errors
    ///
    /// Returns [`S60Exception::Security`] if receiving is denied.
    pub fn open_server(platform: &S60Platform) -> Result<Self, S60Exception> {
        platform.enforce(ApiPermission::SmsReceive)?;
        let received = Arc::new(Mutex::new(VecDeque::new()));
        let listener: Arc<Mutex<Option<Arc<dyn MessageListener>>>> = Arc::new(Mutex::new(None));
        let sink = Arc::clone(&received);
        let notify = Arc::clone(&listener);
        let own = platform.device().msisdn().to_owned();
        let subscription = platform
            .device()
            .smsc()
            .add_inbox_listener(&own, move |msg| {
                sink.lock().push_back(msg.clone());
                let current = notify.lock().clone();
                if let Some(listener) = current {
                    listener.notify_incoming_message();
                }
            });
        Ok(Self {
            platform: platform.clone(),
            address: own,
            received,
            listener,
            subscription: Some(subscription),
        })
    }

    /// `setMessageListener(listener)` — registers (or with `None`
    /// clears) the incoming-message notifier on a server-mode
    /// connection.
    ///
    /// # Errors
    ///
    /// Returns [`S60Exception::Io`] on client-mode connections.
    pub fn set_message_listener(
        &self,
        listener: Option<Arc<dyn MessageListener>>,
    ) -> Result<(), S60Exception> {
        if !self.server_mode() {
            return Err(S60Exception::Io(
                "message listeners require a server-mode connection".to_owned(),
            ));
        }
        *self.listener.lock() = listener;
        Ok(())
    }

    fn server_mode(&self) -> bool {
        self.subscription.is_some()
    }

    /// The address this connection is bound to.
    pub fn address(&self) -> &str {
        &self.address
    }

    /// `newMessage(type)` — creates an empty message addressed to the
    /// connection's peer.
    pub fn new_message(&self, kind: MessageType) -> TextMessage {
        let mut message = TextMessage::default();
        if kind == MessageType::Text && !self.server_mode() {
            message.set_address(&format!("sms://{}", self.address));
        }
        message
    }

    /// `send(message)` — submits the message.
    ///
    /// # Errors
    ///
    /// - [`S60Exception::IllegalArgument`] if the message has no address
    ///   or no payload, or is sent on a server-mode connection.
    /// - [`S60Exception::Io`] is reserved for radio failures (delivery
    ///   failures surface via the SMSC's delivery status, matching the
    ///   fire-and-forget J2ME API).
    pub fn send(&self, message: &TextMessage) -> Result<(), S60Exception> {
        if self.server_mode() {
            return Err(S60Exception::IllegalArgument(
                "cannot send on a server-mode connection".to_owned(),
            ));
        }
        let address = message
            .address()
            .ok_or_else(|| S60Exception::IllegalArgument("message has no address".to_owned()))?;
        let payload = message
            .payload_text()
            .ok_or_else(|| S60Exception::IllegalArgument("message has no payload".to_owned()))?;
        let destination = parse_sms_url(address)?;
        let device = self.platform.device();
        if !device.signal_strength().in_coverage() {
            return Err(S60Exception::Io("no network coverage".to_owned()));
        }
        device.power().draw("radio", 0.8);
        device
            .smsc()
            .submit(device.msisdn(), destination, payload, device.now_ms(), None);
        Ok(())
    }

    /// Like [`MessageConnection::send`] but additionally requests a GSM
    /// **status report** for the message: `report` fires once with
    /// `true` (delivered) or `false` (failed) when the network reports
    /// back. Returns the submission id. (JSR-120 exposes status reports
    /// through the messaging connection; this models that path.)
    ///
    /// # Errors
    ///
    /// Same as [`MessageConnection::send`].
    pub fn send_with_status<F>(
        &self,
        message: &TextMessage,
        report: F,
    ) -> Result<mobivine_device::sms::MessageId, S60Exception>
    where
        F: Fn(mobivine_device::sms::MessageId, bool) + Send + 'static,
    {
        if self.server_mode() {
            return Err(S60Exception::IllegalArgument(
                "cannot send on a server-mode connection".to_owned(),
            ));
        }
        let address = message
            .address()
            .ok_or_else(|| S60Exception::IllegalArgument("message has no address".to_owned()))?;
        let payload = message
            .payload_text()
            .ok_or_else(|| S60Exception::IllegalArgument("message has no payload".to_owned()))?;
        let destination = parse_sms_url(address)?;
        let device = self.platform.device();
        if !device.signal_strength().in_coverage() {
            return Err(S60Exception::Io("no network coverage".to_owned()));
        }
        device.power().draw("radio", 0.8);
        let id = device.smsc().submit(
            device.msisdn(),
            destination,
            payload,
            device.now_ms(),
            Some(Box::new(move |id, status, _at| {
                report(
                    id,
                    status == mobivine_device::sms::DeliveryStatus::Delivered,
                );
            })),
        );
        Ok(id)
    }

    /// `receive()` — pops the oldest queued incoming message, if any.
    /// (The real API blocks; the simulation polls, which is also how the
    /// paper's WebView notification handler consumes notifications.)
    ///
    /// # Errors
    ///
    /// Returns [`S60Exception::Io`] when called on a client-mode
    /// connection.
    pub fn receive(&self) -> Result<Option<TextMessage>, S60Exception> {
        if !self.server_mode() {
            return Err(S60Exception::Io(
                "receive on a client-mode connection".to_owned(),
            ));
        }
        let Some(inbox_message) = self.received.lock().pop_front() else {
            return Ok(None);
        };
        let mut message = TextMessage::default();
        message.set_address(&format!("sms://{}", inbox_message.from));
        message.set_payload_text(&inbox_message.body);
        Ok(Some(message))
    }

    /// Number of queued incoming messages (server mode).
    pub fn pending(&self) -> usize {
        self.received.lock().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::permissions::{Disposition, PermissionPolicy};
    use mobivine_device::Device;

    fn platform() -> S60Platform {
        S60Platform::new(Device::builder().msisdn("+91-agent").build())
    }

    #[test]
    fn send_text_message_full_flow() {
        let platform = platform();
        platform.device().smsc().register_address("+91-sup");
        let conn = MessageConnection::open_client(&platform, "sms://+91-sup").unwrap();
        let mut msg = conn.new_message(MessageType::Text);
        assert_eq!(msg.address(), Some("sms://+91-sup"));
        msg.set_payload_text("reached the depot");
        conn.send(&msg).unwrap();
        platform.device().advance_ms(1_000);
        let inbox = platform.device().smsc().inbox("+91-sup");
        assert_eq!(inbox.len(), 1);
        assert_eq!(inbox[0].body, "reached the depot");
        assert_eq!(inbox[0].from, "+91-agent");
    }

    #[test]
    fn send_requires_payload_and_address() {
        let platform = platform();
        let conn = MessageConnection::open_client(&platform, "sms://+91-x").unwrap();
        let no_payload = conn.new_message(MessageType::Text);
        assert!(matches!(
            conn.send(&no_payload),
            Err(S60Exception::IllegalArgument(_))
        ));
        let mut no_address = TextMessage::default();
        no_address.set_payload_text("hi");
        assert!(matches!(
            conn.send(&no_address),
            Err(S60Exception::IllegalArgument(_))
        ));
    }

    #[test]
    fn malformed_url_rejected() {
        let platform = platform();
        assert!(matches!(
            MessageConnection::open_client(&platform, "mms://+91"),
            Err(S60Exception::IllegalArgument(_))
        ));
        assert!(matches!(
            MessageConnection::open_client(&platform, "sms://"),
            Err(S60Exception::IllegalArgument(_))
        ));
    }

    #[test]
    fn denied_send_permission_is_security_exception() {
        let policy = PermissionPolicy::new();
        policy.set(ApiPermission::SmsSend, Disposition::PromptDeny);
        let platform = S60Platform::with_policy(Device::builder().build(), policy);
        assert!(matches!(
            MessageConnection::open_client(&platform, "sms://+1"),
            Err(S60Exception::Security(_))
        ));
        assert_eq!(platform.policy().prompt_count(), 1);
    }

    #[test]
    fn server_connection_receives_incoming() {
        let platform = platform();
        let server = MessageConnection::open_server(&platform).unwrap();
        platform.device().smsc().submit(
            "+91-sup",
            "+91-agent",
            "new task: site 4",
            platform.device().now_ms(),
            None,
        );
        assert_eq!(server.pending(), 0);
        platform.device().advance_ms(1_000);
        assert_eq!(server.pending(), 1);
        let msg = server.receive().unwrap().unwrap();
        assert_eq!(msg.payload_text(), Some("new task: site 4"));
        assert_eq!(msg.address(), Some("sms://+91-sup"));
        assert!(server.receive().unwrap().is_none());
    }

    #[test]
    fn receive_returns_queued_messages_oldest_first() {
        let platform = platform();
        let server = MessageConnection::open_server(&platform).unwrap();
        let smsc = platform.device().smsc();
        smsc.submit("+91-sup", "+91-agent", "first", 0, None);
        smsc.submit("+91-hq", "+91-agent", "second", 1, None);
        platform.device().advance_ms(1_000);
        assert_eq!(server.pending(), 2);
        let first = server.receive().unwrap().unwrap();
        assert_eq!(first.payload_text(), Some("first"));
        assert_eq!(first.address(), Some("sms://+91-sup"));
        let second = server.receive().unwrap().unwrap();
        assert_eq!(second.payload_text(), Some("second"));
        assert_eq!(second.address(), Some("sms://+91-hq"));
        assert!(server.receive().unwrap().is_none());
    }

    #[test]
    fn message_listener_notified_on_arrival() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        struct Counter(AtomicUsize);
        impl MessageListener for Counter {
            fn notify_incoming_message(&self) {
                self.0.fetch_add(1, Ordering::SeqCst);
            }
        }
        let platform = platform();
        let server = MessageConnection::open_server(&platform).unwrap();
        let counter = Arc::new(Counter(AtomicUsize::new(0)));
        server
            .set_message_listener(Some(Arc::clone(&counter) as Arc<dyn MessageListener>))
            .unwrap();
        platform.device().smsc().submit(
            "+91-sup",
            "+91-agent",
            "ping",
            platform.device().now_ms(),
            None,
        );
        platform.device().advance_ms(1_000);
        assert_eq!(counter.0.load(Ordering::SeqCst), 1);
        // Clearing stops notifications; the queue still receives.
        server.set_message_listener(None).unwrap();
        platform.device().smsc().submit(
            "+91-sup",
            "+91-agent",
            "pong",
            platform.device().now_ms(),
            None,
        );
        platform.device().advance_ms(1_000);
        assert_eq!(counter.0.load(Ordering::SeqCst), 1);
        assert_eq!(server.pending(), 2);
        // Client-mode connections reject listeners.
        let client = MessageConnection::open_client(&platform, "sms://+1").unwrap();
        assert!(client.set_message_listener(None).is_err());
    }

    struct Counter(std::sync::atomic::AtomicUsize);

    impl MessageListener for Counter {
        fn notify_incoming_message(&self) {
            self.0.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
        }
    }

    #[test]
    fn a_dropped_server_connection_stops_receiving() {
        let platform = platform();
        let server = MessageConnection::open_server(&platform).unwrap();
        let counter = Arc::new(Counter(Default::default()));
        server
            .set_message_listener(Some(Arc::clone(&counter) as Arc<dyn MessageListener>))
            .unwrap();
        drop(server);
        let smsc = platform.device().smsc();
        for body in ["one", "two", "three"] {
            smsc.submit(
                "+91-sup",
                "+91-agent",
                body,
                platform.device().now_ms(),
                None,
            );
        }
        platform.device().advance_ms(1_000);
        assert_eq!(counter.0.load(std::sync::atomic::Ordering::SeqCst), 0);
        assert_eq!(
            smsc.inbox_len("+91-agent"),
            3,
            "the device inbox still receives"
        );
    }

    #[test]
    fn dropped_server_connections_release_their_listeners() {
        let platform = platform();
        let listeners: Vec<Arc<Counter>> = (0..1_000)
            .map(|_| {
                let server = MessageConnection::open_server(&platform).unwrap();
                let counter = Arc::new(Counter(Default::default()));
                server
                    .set_message_listener(Some(Arc::clone(&counter) as Arc<dyn MessageListener>))
                    .unwrap();
                counter
            })
            .collect();
        assert!(listeners.iter().all(|l| Arc::strong_count(l) == 1));
    }

    #[test]
    fn receive_on_client_is_io_error() {
        let platform = platform();
        let conn = MessageConnection::open_client(&platform, "sms://+91-x").unwrap();
        assert!(matches!(conn.receive(), Err(S60Exception::Io(_))));
    }

    #[test]
    fn send_on_server_is_illegal() {
        let platform = platform();
        let server = MessageConnection::open_server(&platform).unwrap();
        let mut msg = TextMessage::default();
        msg.set_address("sms://+1");
        msg.set_payload_text("x");
        assert!(matches!(
            server.send(&msg),
            Err(S60Exception::IllegalArgument(_))
        ));
    }
}
