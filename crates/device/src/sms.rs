//! SMSC (short message service center) simulator.
//!
//! Store-and-forward messaging between addresses (MSISDNs): submitted
//! messages are segmented per GSM 03.38 rules, delayed by a configurable
//! latency, optionally lost with a seeded probability, and delivered into
//! per-address inboxes. Submitters can request delivery reports — the
//! asynchronous notification path that the WebView proxy's Notification
//! Table (paper §4.1, Fig. 6) exists to bridge.

use std::collections::HashMap;
use std::fmt;
use std::sync::{Arc, OnceLock, Weak};

use mobivine_telemetry::span::{ambient, Plane};
use mobivine_telemetry::{Counter, Labels, MetricsRegistry};
use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::delta::{DeltaLog, DeltaReader, DeltaRecord, DeltaWriter};
use crate::event::EventQueue;
use crate::listeners::{self, Listener};

/// Maximum characters in a single-part GSM-7 message.
pub const GSM7_SINGLE_LIMIT: usize = 160;
/// Maximum characters per segment of a concatenated GSM-7 message.
pub const GSM7_CONCAT_LIMIT: usize = 153;
/// Maximum characters in a single-part UCS-2 message.
pub const UCS2_SINGLE_LIMIT: usize = 70;
/// Maximum characters per segment of a concatenated UCS-2 message.
pub const UCS2_CONCAT_LIMIT: usize = 67;

/// Character encoding chosen for a message.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SmsEncoding {
    /// GSM 7-bit default alphabet.
    Gsm7,
    /// UCS-2 (needed when any character falls outside the GSM alphabet).
    Ucs2,
}

/// Returns `true` if `c` is representable in the GSM 7-bit default
/// alphabet (simplified: printable ASCII plus the common extension and
/// Greek characters actually present in GSM 03.38).
pub fn is_gsm7_char(c: char) -> bool {
    matches!(c,
        'A'..='Z' | 'a'..='z' | '0'..='9'
        | ' ' | '\n' | '\r'
        | '@' | '£' | '$' | '¥' | 'è' | 'é' | 'ù' | 'ì' | 'ò' | 'Ç'
        | 'Ø' | 'ø' | 'Å' | 'å' | 'Δ' | '_' | 'Φ' | 'Γ' | 'Λ' | 'Ω'
        | 'Π' | 'Ψ' | 'Σ' | 'Θ' | 'Ξ' | 'Æ' | 'æ' | 'ß' | 'É'
        | '!' | '"' | '#' | '%' | '&' | '\'' | '(' | ')' | '*' | '+'
        | ',' | '-' | '.' | '/' | ':' | ';' | '<' | '=' | '>' | '?'
        | '¡' | 'Ä' | 'Ö' | 'Ñ' | 'Ü' | '§' | '¿' | 'ä' | 'ö' | 'ñ'
        | 'ü' | 'à'
        // Extension table (each costs two septets; we count them as one
        // character for segmentation simplicity, a common simplification).
        | '^' | '{' | '}' | '\\' | '[' | ']' | '~' | '|' | '€'
    )
}

/// The segmentation of a message body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Segments {
    /// Encoding the SMSC selected.
    pub encoding: SmsEncoding,
    /// The per-segment text parts, in order. Concatenating them
    /// reconstructs the original body.
    pub parts: Vec<String>,
}

impl Segments {
    /// Number of segments.
    pub fn count(&self) -> usize {
        self.parts.len()
    }
}

/// Splits `body` into SMS segments following GSM 03.38 limits.
///
/// # Example
///
/// ```
/// use mobivine_device::sms::{segment_message, SmsEncoding};
///
/// let short = segment_message("on my way");
/// assert_eq!(short.count(), 1);
/// assert_eq!(short.encoding, SmsEncoding::Gsm7);
///
/// let long = segment_message(&"x".repeat(200));
/// assert_eq!(long.count(), 2); // 153 + 47
/// ```
pub fn segment_message(body: &str) -> Segments {
    let (encoding, single, concat) = encoding_and_limits(body);
    let chars: Vec<char> = body.chars().collect();
    let parts = if chars.len() <= single {
        vec![body.to_owned()]
    } else {
        chars
            .chunks(concat)
            .map(|chunk| chunk.iter().collect())
            .collect()
    };
    Segments { encoding, parts }
}

/// The encoding `body` travels in, with that encoding's single-part and
/// per-segment character limits.
fn encoding_and_limits(body: &str) -> (SmsEncoding, usize, usize) {
    if body.chars().all(is_gsm7_char) {
        (SmsEncoding::Gsm7, GSM7_SINGLE_LIMIT, GSM7_CONCAT_LIMIT)
    } else {
        (SmsEncoding::Ucs2, UCS2_SINGLE_LIMIT, UCS2_CONCAT_LIMIT)
    }
}

/// `segment_message(body).count()`, without building the parts.
fn segment_count(body: &str) -> usize {
    let (_, single, concat) = encoding_and_limits(body);
    match body.chars().count() {
        chars if chars <= single => 1,
        chars => chars.div_ceil(concat),
    }
}

/// Identifier assigned by the SMSC to a submitted message.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct MessageId(u64);

impl MessageId {
    /// The raw numeric id (used by proxies that expose ids uniformly
    /// across platforms as plain integers).
    pub fn value(&self) -> u64 {
        self.0
    }
}

impl fmt::Display for MessageId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "msg-{}", self.0)
    }
}

/// Final status of a submitted message.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DeliveryStatus {
    /// Accepted, delivery pending.
    Pending,
    /// Delivered to the recipient inbox.
    Delivered,
    /// Lost in the network.
    Failed,
}

/// A message as seen in a recipient's inbox.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InboxMessage {
    /// SMSC message id.
    pub id: MessageId,
    /// Sender address.
    pub from: String,
    /// Recipient address.
    pub to: String,
    /// Reassembled body.
    pub body: String,
    /// Virtual delivery time.
    pub delivered_at_ms: u64,
    /// Number of segments the body travelled as.
    pub segment_count: usize,
}

/// Callback invoked when a delivery report arrives for a submitted
/// message: `(message id, status, report time)`.
pub type DeliveryReportFn = Box<dyn Fn(MessageId, DeliveryStatus, u64) + Send>;

/// Callback invoked when a message arrives at a registered address.
pub type InboxListenerFn = Box<dyn Fn(&InboxMessage) + Send>;

/// An inbox listener's subscription, returned by
/// [`Smsc::add_inbox_listener`]: the listener stays subscribed while
/// this lives and is removed when it drops.
#[must_use = "dropping the subscription removes the listener at once"]
pub struct InboxSubscription {
    state: Weak<Mutex<SmscState>>,
    address: u32,
    id: u64,
}

impl fmt::Debug for InboxSubscription {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("InboxSubscription")
            .field("id", &self.id)
            .finish()
    }
}

impl Drop for InboxSubscription {
    fn drop(&mut self) {
        let Some(state) = self.state.upgrade() else {
            return;
        };
        let mut guard = state.lock();
        let inner = &mut *guard;
        let listeners = &mut inner.addresses[self.address as usize].listeners;
        let removed = listeners::unsubscribe(listeners, &mut inner.unsubscribed, self.id);
        drop(guard);
        drop(removed);
    }
}

#[derive(Clone)]
struct SmsMetrics {
    submitted: Counter,
    delivered: Counter,
    lost: Counter,
}

/// One delivered message's header, as an [`Inbox`] stores it. The
/// recipient is the inbox's own address, the sender an interned address
/// id, and the body the next `body_len` bytes of the inbox's body arena.
/// Its segment count is not stored: it is [`segment_count`] of the body.
#[derive(Debug, Clone, Copy, Default)]
struct Header {
    id: u64,
    delivered_at_ms: u64,
    from: u32,
    body_len: u64,
}

impl DeltaRecord for Header {
    fn encode(&self, prev: &Self, out: &mut DeltaWriter<'_>) {
        out.int(prev.id, self.id);
        out.int(prev.delivered_at_ms, self.delivered_at_ms);
        out.int(u64::from(prev.from), u64::from(self.from));
        out.int(prev.body_len, self.body_len);
    }

    fn decode(prev: &Self, input: &mut DeltaReader<'_>) -> Self {
        Self {
            id: input.int(prev.id),
            delivered_at_ms: input.int(prev.delivered_at_ms),
            // Every delta was taken between two `u32` ids.
            from: input.int(u64::from(prev.from)) as u32,
            body_len: input.int(prev.body_len),
        }
    }
}

/// The messages delivered to one registered address, oldest first.
#[derive(Debug, Default)]
struct Inbox {
    headers: DeltaLog<Header>,
    /// Every message's body, concatenated in delivery order.
    bodies: String,
}

impl Inbox {
    fn push(&mut self, id: MessageId, from: u32, body: &str, at: u64) {
        self.bodies.push_str(body);
        self.headers.push(Header {
            id: id.0,
            delivered_at_ms: at,
            from,
            body_len: body.len() as u64,
        });
    }

    /// Every message's header and body, oldest first.
    fn messages(&self) -> impl Iterator<Item = (Header, &str)> {
        let mut start = 0;
        self.headers.iter().map(move |header| {
            let end = start + header.body_len as usize;
            let body = &self.bodies[start..end];
            start = end;
            (header, body)
        })
    }
}

/// An address the SMSC has seen, as a sender, a recipient or a
/// listener's subscription.
struct Address {
    name: Box<str>,
    /// `Some` once the address is registered to receive messages.
    inbox: Option<Inbox>,
    listeners: Vec<Listener<InboxListenerFn>>,
}

struct SmscState {
    next_id: u64,
    latency_ms: u64,
    loss_probability: f64,
    seed: u64,
    /// Indexed by interned address id.
    addresses: Vec<Address>,
    address_ids: HashMap<Box<str>, u32>,
    /// Indexed by message id − 1: ids are dense from 1.
    statuses: Vec<DeliveryStatus>,
    report_listeners: HashMap<MessageId, DeliveryReportFn>,
    next_listener_id: u64,
    /// Ids of subscriptions dropped while a delivery had their
    /// listeners out of the lock.
    unsubscribed: Vec<u64>,
}

impl SmscState {
    /// The id of `address`, interning it on first sight.
    fn intern(&mut self, address: &str) -> u32 {
        if let Some(&id) = self.address_ids.get(address) {
            return id;
        }
        let id = u32::try_from(self.addresses.len()).expect("fewer than 2^32 SMSC addresses");
        self.addresses.push(Address {
            name: address.into(),
            inbox: None,
            listeners: Vec::new(),
        });
        self.address_ids.insert(address.into(), id);
        id
    }

    fn address(&self, address: &str) -> Option<&Address> {
        let id = *self.address_ids.get(address)?;
        self.addresses.get(id as usize)
    }

    fn name(&self, id: u32) -> &str {
        &self.addresses[id as usize].name
    }
}

/// The store-and-forward message center.
///
/// Delivery happens when the owning [`crate::Device`]'s event queue is
/// pumped (i.e. when virtual time advances past submission latency).
///
/// Storage: every address is interned once, on first sight. A delivered
/// message is kept for the SMSC's lifetime in its recipient's inbox, as
/// a header in a [`DeltaLog`] (id, delivery time, sender id and body
/// length, each coded as its difference from the previous message's:
/// a few bytes) and its body in the inbox's body arena, which holds
/// every body of that inbox back to back. [`Smsc::inbox`] decodes the
/// headers in order and builds [`InboxMessage`]s on demand, recomputing
/// each segment count from the body; an inbox listener's message is
/// built only when a listener exists.
///
/// # Example
///
/// ```
/// use std::sync::Arc;
/// use mobivine_device::event::EventQueue;
/// use mobivine_device::sms::Smsc;
///
/// let events = Arc::new(EventQueue::new());
/// let smsc = Smsc::new(Arc::clone(&events), 42);
/// smsc.register_address("+911234");
/// smsc.submit("+919999", "+911234", "hello", 0, None);
/// events.run_until(smsc.latency_ms());
/// assert_eq!(smsc.inbox_len("+911234"), 1);
/// assert_eq!(smsc.inbox("+911234")[0].body, "hello");
/// ```
pub struct Smsc {
    events: Arc<EventQueue>,
    state: Arc<Mutex<SmscState>>,
    /// Shared with scheduled deliveries, which count their outcome.
    metrics: Arc<OnceLock<SmsMetrics>>,
}

impl fmt::Debug for Smsc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let state = self.state.lock();
        let registered = state.addresses.iter().filter(|a| a.inbox.is_some()).count();
        f.debug_struct("Smsc")
            .field("latency_ms", &state.latency_ms)
            .field("loss_probability", &state.loss_probability)
            .field("addresses", &registered)
            .finish()
    }
}

impl Smsc {
    /// Creates an SMSC pumping deliveries through `events`.
    pub fn new(events: Arc<EventQueue>, seed: u64) -> Self {
        Self {
            events,
            state: Arc::new(Mutex::new(SmscState {
                next_id: 1,
                latency_ms: 40,
                loss_probability: 0.0,
                seed,
                addresses: Vec::new(),
                address_ids: HashMap::new(),
                statuses: Vec::new(),
                report_listeners: HashMap::new(),
                next_listener_id: 0,
                unsubscribed: Vec::new(),
            })),
            metrics: Arc::new(OnceLock::new()),
        }
    }

    /// Connects this SMSC to a metrics registry. Until bound, the SMSC
    /// publishes nothing (standalone instances stay silent). A second
    /// binding is ignored.
    pub fn bind_metrics(&self, registry: Arc<MetricsRegistry>) {
        let _ = self.metrics.set(SmsMetrics {
            submitted: registry.counter("device_sms_submitted_total", &Labels::empty()),
            delivered: registry.counter("device_sms_delivered_total", &Labels::empty()),
            lost: registry.counter("device_sms_lost_total", &Labels::empty()),
        });
    }

    /// Network transit latency applied to each message (default 40 ms).
    pub fn latency_ms(&self) -> u64 {
        self.state.lock().latency_ms
    }

    /// Sets the network transit latency.
    pub fn set_latency_ms(&self, latency_ms: u64) {
        self.state.lock().latency_ms = latency_ms;
    }

    /// Sets the probability in `[0, 1]` that a submitted message is lost.
    pub fn set_loss_probability(&self, p: f64) {
        self.state.lock().loss_probability = p.clamp(0.0, 1.0);
    }

    /// Registers `address` so it can receive messages. Idempotent.
    pub fn register_address(&self, address: &str) {
        let mut state = self.state.lock();
        let id = state.intern(address);
        state.addresses[id as usize]
            .inbox
            .get_or_insert_with(Inbox::default);
    }

    /// Returns `true` if `address` has been registered.
    pub fn is_registered(&self, address: &str) -> bool {
        self.state
            .lock()
            .address(address)
            .is_some_and(|a| a.inbox.is_some())
    }

    /// Subscribes `listener` to message arrivals at `address` until the
    /// returned subscription drops.
    pub fn add_inbox_listener<F>(&self, address: &str, listener: F) -> InboxSubscription
    where
        F: Fn(&InboxMessage) + Send + 'static,
    {
        let mut state = self.state.lock();
        let address = state.intern(address);
        let id = state.next_listener_id;
        state.next_listener_id += 1;
        state.addresses[address as usize].listeners.push(Listener {
            id,
            call: Box::new(listener),
        });
        InboxSubscription {
            state: Arc::downgrade(&self.state),
            address,
            id,
        }
    }

    /// Snapshot of the inbox for `address`, oldest first (empty if
    /// unregistered).
    pub fn inbox(&self, address: &str) -> Vec<InboxMessage> {
        let state = self.state.lock();
        let Some((to, inbox)) = state
            .address(address)
            .and_then(|a| Some((&a.name, a.inbox.as_ref()?)))
        else {
            return Vec::new();
        };
        inbox
            .messages()
            .map(|(header, body)| InboxMessage {
                id: MessageId(header.id),
                from: state.name(header.from).to_owned(),
                to: to.to_string(),
                body: body.to_owned(),
                delivered_at_ms: header.delivered_at_ms,
                segment_count: segment_count(body),
            })
            .collect()
    }

    /// Number of messages in the inbox for `address` (0 if
    /// unregistered); `inbox(address).len()` without the snapshot.
    pub fn inbox_len(&self, address: &str) -> usize {
        self.state
            .lock()
            .address(address)
            .and_then(|a| a.inbox.as_ref())
            .map_or(0, |inbox| inbox.headers.len())
    }

    /// Current delivery status of a submitted message.
    pub fn status(&self, id: MessageId) -> Option<DeliveryStatus> {
        let state = self.state.lock();
        let index = id.0.checked_sub(1)?;
        state.statuses.get(usize::try_from(index).ok()?).copied()
    }

    /// Submits a message for delivery at `now_ms` (the current virtual
    /// time, passed in by the caller because the SMSC does not own the
    /// clock). Returns the assigned [`MessageId`].
    ///
    /// If `report` is provided it is invoked exactly once with the final
    /// [`DeliveryStatus`] when the message is delivered or lost. Whether
    /// `to` is registered is decided at delivery, not at submission.
    pub fn submit(
        &self,
        from: &str,
        to: &str,
        body: &str,
        now_ms: u64,
        report: Option<DeliveryReportFn>,
    ) -> MessageId {
        let mut span = ambient::child("device:sms.submit", Plane::Device, now_ms);
        if let Some(m) = self.metrics.get() {
            m.submitted.inc();
        }
        let segment_count = segment_count(body);
        if let Some(s) = span.as_mut() {
            s.attr("segments", segment_count as u64);
        }
        let (id, from, to, deliver_at, lost) = {
            let mut state = self.state.lock();
            let id = MessageId(state.next_id);
            state.next_id += 1;
            state.statuses.push(DeliveryStatus::Pending);
            if let Some(report) = report {
                state.report_listeners.insert(id, report);
            }
            let from = state.intern(from);
            let to = state.intern(to);
            let mut rng = StdRng::seed_from_u64(state.seed ^ id.0.rotate_left(23));
            let lost = rng.gen::<f64>() < state.loss_probability;
            (id, from, to, now_ms + state.latency_ms, lost)
        };
        let state = Arc::clone(&self.state);
        let metrics = Arc::clone(&self.metrics);
        let body: Box<str> = body.into();
        self.events
            .schedule_at(deliver_at, "sms-delivery", move |at| {
                let mut guard = state.lock();
                let final_status = if lost || guard.addresses[to as usize].inbox.is_none() {
                    DeliveryStatus::Failed
                } else {
                    DeliveryStatus::Delivered
                };
                if let Some(m) = metrics.get() {
                    match final_status {
                        DeliveryStatus::Delivered => m.delivered.inc(),
                        _ => m.lost.inc(),
                    }
                }
                let index = id.0.checked_sub(1).and_then(|i| usize::try_from(i).ok());
                if let Some(status) = index.and_then(|i| guard.statuses.get_mut(i)) {
                    *status = final_status;
                }
                let report = guard.report_listeners.remove(&id);
                if final_status == DeliveryStatus::Delivered {
                    let recipient = &mut guard.addresses[to as usize];
                    if let Some(inbox) = recipient.inbox.as_mut() {
                        inbox.push(id, from, &body, at);
                    }
                    // Take listeners out so callbacks run without the lock;
                    // only they need the message as an `InboxMessage`.
                    let listeners = std::mem::take(&mut recipient.listeners);
                    let message = (!listeners.is_empty()).then(|| InboxMessage {
                        id,
                        from: guard.name(from).to_owned(),
                        to: guard.name(to).to_owned(),
                        body: body.into_string(),
                        delivered_at_ms: at,
                        segment_count,
                    });
                    drop(guard);
                    if let Some(message) = message {
                        for l in &listeners {
                            (l.call)(&message);
                        }
                        let mut guard = state.lock();
                        let inner = &mut *guard;
                        let gone = listeners::put_back(
                            &mut inner.addresses[to as usize].listeners,
                            listeners,
                            &mut inner.unsubscribed,
                        );
                        drop(guard);
                        drop(gone);
                    }
                } else {
                    drop(guard);
                }
                if let Some(report) = report {
                    report(id, final_status, at);
                }
            });
        if let Some(s) = span {
            s.end(now_ms);
        }
        id
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Mutex as StdMutex;

    fn smsc() -> (Arc<EventQueue>, Smsc) {
        let events = Arc::new(EventQueue::new());
        let smsc = Smsc::new(Arc::clone(&events), 7);
        (events, smsc)
    }

    #[test]
    fn short_ascii_is_one_gsm7_segment() {
        let s = segment_message("meet at the depot");
        assert_eq!(s.encoding, SmsEncoding::Gsm7);
        assert_eq!(s.count(), 1);
    }

    #[test]
    fn exactly_160_chars_is_single_segment() {
        let s = segment_message(&"a".repeat(160));
        assert_eq!(s.count(), 1);
    }

    #[test]
    fn chars_161_forces_concatenation() {
        let s = segment_message(&"a".repeat(161));
        assert_eq!(s.count(), 2);
        assert_eq!(s.parts[0].len(), 153);
        assert_eq!(s.parts[1].len(), 8);
    }

    #[test]
    fn non_gsm_chars_force_ucs2() {
        let s = segment_message("位置 report");
        assert_eq!(s.encoding, SmsEncoding::Ucs2);
        assert_eq!(s.count(), 1);
    }

    #[test]
    fn long_ucs2_uses_67_char_segments() {
        let body: String = "日".repeat(71);
        let s = segment_message(&body);
        assert_eq!(s.encoding, SmsEncoding::Ucs2);
        assert_eq!(s.count(), 2);
        assert_eq!(s.parts[0].chars().count(), 67);
    }

    #[test]
    fn segments_reassemble_to_original() {
        let body = "The quick brown fox ".repeat(20);
        let s = segment_message(&body);
        assert_eq!(s.parts.concat(), body);
    }

    #[test]
    fn segment_count_agrees_with_segment_message() {
        for body in [
            String::new(),
            "a".repeat(160),
            "a".repeat(161),
            "a".repeat(306),
            "a".repeat(307),
            "日".repeat(70),
            "日".repeat(71),
            format!("{}€", "b".repeat(200)),
        ] {
            assert_eq!(
                segment_count(&body),
                segment_message(&body).count(),
                "{body}"
            );
        }
    }

    #[test]
    fn status_of_an_id_never_issued_is_none() {
        let (_events, smsc) = smsc();
        assert_eq!(smsc.status(MessageId(0)), None);
        assert_eq!(smsc.status(MessageId(1)), None);
        let id = smsc.submit("+1", "+2", "a", 0, None);
        assert_eq!(smsc.status(id), Some(DeliveryStatus::Pending));
        assert_eq!(smsc.status(MessageId(id.0 + 1)), None);
    }

    #[test]
    fn delivery_lands_in_inbox_after_latency() {
        let (events, smsc) = smsc();
        smsc.register_address("+91-agent");
        let id = smsc.submit("+91-boss", "+91-agent", "report in", 0, None);
        assert_eq!(smsc.status(id), Some(DeliveryStatus::Pending));
        events.run_until(smsc.latency_ms() - 1);
        assert!(smsc.inbox("+91-agent").is_empty());
        events.run_until(smsc.latency_ms());
        let inbox = smsc.inbox("+91-agent");
        assert_eq!(inbox.len(), 1);
        assert_eq!(inbox[0].body, "report in");
        assert_eq!(smsc.status(id), Some(DeliveryStatus::Delivered));
    }

    #[test]
    fn unregistered_recipient_fails() {
        let (events, smsc) = smsc();
        let id = smsc.submit("+1", "+nobody", "hi", 0, None);
        events.run_until(1_000);
        assert_eq!(smsc.status(id), Some(DeliveryStatus::Failed));
    }

    #[test]
    fn delivery_report_fires_once_with_final_status() {
        let (events, smsc) = smsc();
        smsc.register_address("+2");
        let reports = Arc::new(StdMutex::new(Vec::new()));
        let sink = Arc::clone(&reports);
        smsc.submit(
            "+1",
            "+2",
            "ping",
            0,
            Some(Box::new(move |id, status, at| {
                sink.lock().unwrap().push((id, status, at));
            })),
        );
        events.run_until(10_000);
        let reports = reports.lock().unwrap();
        assert_eq!(reports.len(), 1);
        assert_eq!(reports[0].1, DeliveryStatus::Delivered);
    }

    #[test]
    fn loss_probability_one_loses_everything() {
        let (events, smsc) = smsc();
        smsc.register_address("+2");
        smsc.set_loss_probability(1.0);
        let id = smsc.submit("+1", "+2", "gone", 0, None);
        events.run_until(1_000);
        assert_eq!(smsc.status(id), Some(DeliveryStatus::Failed));
        assert!(smsc.inbox("+2").is_empty());
    }

    #[test]
    fn inbox_listener_invoked_on_arrival() {
        let (events, smsc) = smsc();
        smsc.register_address("+2");
        let count = Arc::new(AtomicUsize::new(0));
        let c = Arc::clone(&count);
        let _subscription = smsc.add_inbox_listener("+2", move |_msg| {
            c.fetch_add(1, Ordering::SeqCst);
        });
        smsc.submit("+1", "+2", "one", 0, None);
        smsc.submit("+1", "+2", "two", 0, None);
        events.run_until(1_000);
        assert_eq!(count.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn message_ids_are_unique_and_increasing() {
        let (_events, smsc) = smsc();
        smsc.register_address("+2");
        let a = smsc.submit("+1", "+2", "a", 0, None);
        let b = smsc.submit("+1", "+2", "b", 0, None);
        assert!(b > a);
    }

    fn message(
        id: u64,
        from: &str,
        to: &str,
        body: &str,
        delivered_at_ms: u64,
        segment_count: usize,
    ) -> InboxMessage {
        InboxMessage {
            id: MessageId(id),
            from: from.to_owned(),
            to: to.to_owned(),
            body: body.to_owned(),
            delivered_at_ms,
            segment_count,
        }
    }

    /// The compact store hands back exactly the messages a store of
    /// whole `InboxMessage`s held: same ids, addresses, bodies, times
    /// and segment counts, in delivery order.
    #[test]
    fn inbox_snapshots_rebuild_every_delivered_message() {
        let (events, smsc) = smsc();
        smsc.register_address("+a");
        smsc.register_address("+b");
        let gsm_160 = "a".repeat(160);
        let gsm_161 = "b".repeat(161);
        let ucs2 = "位置".repeat(40);
        smsc.submit("+s1", "+a", "", 0, None);
        smsc.submit("+s2", "+a", &gsm_160, 0, None);
        smsc.submit("+s1", "+b", &gsm_161, 5, None);
        smsc.set_loss_probability(1.0);
        let lost = smsc.submit("+s2", "+a", "lost", 5, None);
        smsc.set_loss_probability(0.0);
        smsc.submit("+s2", "+a", &ucs2, 10, None);
        smsc.submit("+s1", "+late", "registered after submit", 10, None);
        let unregistered = smsc.submit("+s1", "+nobody", "x", 12, None);
        smsc.submit("+s2", "+b", "tail", 20, None);
        smsc.register_address("+late");
        events.run_until(1_000);

        assert_eq!(
            smsc.inbox("+a"),
            vec![
                message(1, "+s1", "+a", "", 40, 1),
                message(2, "+s2", "+a", &gsm_160, 40, 1),
                message(5, "+s2", "+a", &ucs2, 50, 2),
            ]
        );
        assert_eq!(
            smsc.inbox("+b"),
            vec![
                message(3, "+s1", "+b", &gsm_161, 45, 2),
                message(8, "+s2", "+b", "tail", 60, 1),
            ]
        );
        assert_eq!(
            smsc.inbox("+late"),
            vec![message(6, "+s1", "+late", "registered after submit", 50, 1)]
        );
        assert!(smsc.inbox("+nobody").is_empty());
        assert!(smsc.inbox("+s1").is_empty());
        assert_eq!(smsc.status(lost), Some(DeliveryStatus::Failed));
        assert_eq!(smsc.status(unregistered), Some(DeliveryStatus::Failed));
        for address in ["+a", "+b", "+late", "+nobody", "+s1", "+never-seen"] {
            assert_eq!(smsc.inbox_len(address), smsc.inbox(address).len());
        }
        assert!(!smsc.is_registered("+s1"));
        assert!(!smsc.is_registered("+nobody"));
    }

    #[test]
    fn listeners_see_the_message_the_inbox_holds() {
        let (events, smsc) = smsc();
        smsc.register_address("+a");
        let seen = Arc::new(StdMutex::new(Vec::new()));
        let sink = Arc::clone(&seen);
        let _subscription =
            smsc.add_inbox_listener("+a", move |msg| sink.lock().unwrap().push(msg.clone()));
        smsc.submit("+s1", "+a", "first", 0, None);
        smsc.submit("+s2", "+a", &"日".repeat(71), 3, None);
        smsc.submit("+s1", "+a", "", 7, None);
        events.run_until(1_000);
        let seen = seen.lock().unwrap();
        assert_eq!(seen.len(), 3);
        assert_eq!(*seen, smsc.inbox("+a"));
    }

    #[test]
    fn a_listener_added_by_a_listener_is_kept() {
        let (events, smsc) = smsc();
        let smsc = Arc::new(smsc);
        smsc.register_address("+a");
        let count = Arc::new(AtomicUsize::new(0));
        let added = Arc::new(StdMutex::new(Vec::new()));
        let (inner, c, keep) = (Arc::clone(&smsc), Arc::clone(&count), Arc::clone(&added));
        let _subscription = smsc.add_inbox_listener("+a", move |_| {
            let c = Arc::clone(&c);
            let subscription = inner.add_inbox_listener("+a", move |_| {
                c.fetch_add(1, Ordering::SeqCst);
            });
            keep.lock().unwrap().push(subscription);
        });
        smsc.submit("+s", "+a", "one", 0, None);
        events.run_until(1_000);
        smsc.submit("+s", "+a", "two", 1_000, None);
        events.run_until(2_000);
        assert_eq!(count.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn a_listener_that_drops_its_own_subscription_is_not_called_again() {
        let (events, smsc) = smsc();
        smsc.register_address("+a");
        let count = Arc::new(AtomicUsize::new(0));
        let own = Arc::new(StdMutex::new(None));
        let (c, slot) = (Arc::clone(&count), Arc::clone(&own));
        let subscription = smsc.add_inbox_listener("+a", move |_| {
            c.fetch_add(1, Ordering::SeqCst);
            drop(slot.lock().unwrap().take());
        });
        *own.lock().unwrap() = Some(subscription);
        // A second listener on the same address keeps its place.
        let others = Arc::new(AtomicUsize::new(0));
        let o = Arc::clone(&others);
        let _other = smsc.add_inbox_listener("+a", move |_| {
            o.fetch_add(1, Ordering::SeqCst);
        });
        for at in [0, 1_000, 2_000] {
            smsc.submit("+s", "+a", "ping", at, None);
            events.run_until(at + 1_000);
        }
        assert_eq!(count.load(Ordering::SeqCst), 1);
        assert_eq!(others.load(Ordering::SeqCst), 3);
        assert_eq!(Arc::strong_count(&count), 1, "the listener is freed");
    }

    #[test]
    fn segment_count_recorded_on_delivery() {
        let (events, smsc) = smsc();
        smsc.register_address("+2");
        smsc.submit("+1", "+2", &"z".repeat(200), 0, None);
        events.run_until(1_000);
        assert_eq!(smsc.inbox("+2")[0].segment_count, 2);
    }
}
