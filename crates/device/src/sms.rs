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
use std::sync::{Arc, OnceLock};

use mobivine_telemetry::span::{ambient, Plane};
use mobivine_telemetry::{Counter, Labels, MetricsRegistry};
use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::event::EventQueue;

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

#[derive(Clone)]
struct SmsMetrics {
    submitted: Counter,
    delivered: Counter,
    lost: Counter,
}

struct SmscState {
    next_id: u64,
    latency_ms: u64,
    loss_probability: f64,
    seed: u64,
    inboxes: HashMap<String, Vec<InboxMessage>>,
    inbox_listeners: HashMap<String, Vec<InboxListenerFn>>,
    /// Indexed by message id − 1: ids are dense from 1.
    statuses: Vec<DeliveryStatus>,
    report_listeners: HashMap<MessageId, DeliveryReportFn>,
}

/// The store-and-forward message center.
///
/// Delivery happens when the owning [`crate::Device`]'s event queue is
/// pumped (i.e. when virtual time advances past submission latency).
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
/// assert_eq!(smsc.inbox("+911234").len(), 1);
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
        f.debug_struct("Smsc")
            .field("latency_ms", &state.latency_ms)
            .field("loss_probability", &state.loss_probability)
            .field("addresses", &state.inboxes.len())
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
                inboxes: HashMap::new(),
                inbox_listeners: HashMap::new(),
                statuses: Vec::new(),
                report_listeners: HashMap::new(),
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
        self.state
            .lock()
            .inboxes
            .entry(address.to_owned())
            .or_default();
    }

    /// Returns `true` if `address` has been registered.
    pub fn is_registered(&self, address: &str) -> bool {
        self.state.lock().inboxes.contains_key(address)
    }

    /// Subscribes to message arrivals at `address`.
    pub fn add_inbox_listener<F>(&self, address: &str, listener: F)
    where
        F: Fn(&InboxMessage) + Send + 'static,
    {
        self.state
            .lock()
            .inbox_listeners
            .entry(address.to_owned())
            .or_default()
            .push(Box::new(listener));
    }

    /// Snapshot of the inbox for `address` (empty if unregistered).
    pub fn inbox(&self, address: &str) -> Vec<InboxMessage> {
        self.state
            .lock()
            .inboxes
            .get(address)
            .cloned()
            .unwrap_or_default()
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
    /// [`DeliveryStatus`] when the message is delivered or lost.
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
        let (id, deliver_at, lost) = {
            let mut state = self.state.lock();
            let id = MessageId(state.next_id);
            state.next_id += 1;
            state.statuses.push(DeliveryStatus::Pending);
            if let Some(report) = report {
                state.report_listeners.insert(id, report);
            }
            let mut rng = StdRng::seed_from_u64(state.seed ^ id.0.rotate_left(23));
            let lost = rng.gen::<f64>() < state.loss_probability;
            (id, now_ms + state.latency_ms, lost)
        };
        let state = Arc::clone(&self.state);
        let metrics = Arc::clone(&self.metrics);
        let from = from.to_owned();
        let to = to.to_owned();
        let body = body.to_owned();
        self.events
            .schedule_at(deliver_at, "sms-delivery", move |at| {
                let mut guard = state.lock();
                let final_status = if lost || !guard.inboxes.contains_key(&to) {
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
                    // Take listeners out so callbacks run without the lock;
                    // only they need a copy of the message.
                    let listeners = guard.inbox_listeners.remove(&to);
                    let message = InboxMessage {
                        id,
                        from,
                        to,
                        body,
                        delivered_at_ms: at,
                        segment_count,
                    };
                    let copy = listeners.as_ref().map(|_| message.clone());
                    // The inbox exists: delivery requires `contains_key`
                    // above, under the same lock.
                    if let Some(inbox) = guard.inboxes.get_mut(&message.to) {
                        inbox.push(message);
                    }
                    drop(guard);
                    if let Some((listeners, message)) = listeners.zip(copy) {
                        for l in &listeners {
                            l(&message);
                        }
                        state.lock().inbox_listeners.insert(message.to, listeners);
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
        smsc.add_inbox_listener("+2", move |_msg| {
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

    #[test]
    fn segment_count_recorded_on_delivery() {
        let (events, smsc) = smsc();
        smsc.register_address("+2");
        smsc.submit("+1", "+2", &"z".repeat(200), 0, None);
        events.run_until(1_000);
        assert_eq!(smsc.inbox("+2")[0].segment_count, 2);
    }
}
