//! Tail-based trace promotion out of the flight-recorder rings.
//!
//! The per-thread span rings ([`crate::span`]) retain only the most
//! recent history; this module decides — at the moment a trace's root
//! span closes, when the outcome is fully known — whether that trace
//! is *interesting* enough to keep forever. Interesting means: the
//! root carries an `error` attribute (any proxy error kind — a
//! timeout, a circuit rejection, an `Overloaded` shed, a
//! `DeadlineExceeded`, a retry exhaustion), the root is marked
//! `deadline=blown` (the call finished past its propagated budget), or
//! the root's duration crossed a per-operation latency threshold.
//! A promoted trace's resident records are copied, in the ring's
//! compact form, into a bounded [`IncidentStore`] before the ring can
//! overwrite them; [`IncidentStore::traces`] materializes them as
//! [`PromotedTrace`]s when they are read. The store keeps the
//! *earliest* incidents (keep-first), so the promoted set for a
//! deterministic run is itself deterministic and independent of how
//! work is split across workers: every trace is classified on the one
//! thread that recorded it, with the same virtual timestamps.
//!
//! Classification is allocation-free when the answer is "not
//! interesting" — the common case on a healthy hot path — so the
//! recorder can stay on in the zero-allocation traced configurations.
//! So is a promotion the store would drop: once the keep-first store is
//! full, the trace is counted and noted for its exemplar but not copied
//! out of the ring. The store allocates its list on the first kept
//! trace, so a healthy run that never promotes keeps none.

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use crate::metrics::Counter;
use crate::span::{validate_tree, CompactTrace, SpanId, SpanName, SpanRecord, TraceId, Tracer};

/// Default incident-store capacity: roomy enough that a brownout run
/// keeps one promoted trace per breached call, small enough that a
/// misbehaving fleet device stays bounded.
pub const DEFAULT_INCIDENT_CAPACITY: usize = 1024;

/// Why a trace was promoted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PromotionReason {
    /// The root span recorded an `error` attribute; the payload is the
    /// error-kind name (e.g. `Overloaded`, `DeadlineExceeded`), carried
    /// as the attribute's own symbol so promotion copies no string.
    Error(SpanName),
    /// The call completed past its propagated deadline budget
    /// (`deadline=blown` on the root span).
    DeadlineBlown,
    /// The root span's duration crossed a configured threshold.
    SlowCall {
        /// Observed root duration in virtual milliseconds.
        observed_ms: u64,
        /// The threshold that was crossed.
        threshold_ms: u64,
    },
}

impl PromotionReason {
    /// Small stable discriminant, used in checksums and digests.
    pub fn code(&self) -> u64 {
        match self {
            PromotionReason::Error(_) => 1,
            PromotionReason::DeadlineBlown => 2,
            PromotionReason::SlowCall { .. } => 3,
        }
    }
}

/// The root attribute naming a failed call's error kind.
pub(crate) const ERROR_ATTR: &str = "error";

/// The root attribute that reads `blown` when a call finished past its
/// deadline.
pub(crate) const DEADLINE_ATTR: &str = "deadline";

/// Declarative rules for what counts as an interesting trace.
///
/// Every policy promotes errored and deadline-blown traces. The default
/// has no latency thresholds; [`PromotionPolicy::latency_threshold`]
/// adds per-operation ones keyed by the **root span name** (e.g.
/// `proxy:Http.request`).
#[derive(Debug, Clone)]
pub struct PromotionPolicy {
    /// `(root span name, threshold in virtual ms)`; linear scan — the
    /// list is a handful of entries resolved against `&str` names, so
    /// classification never allocates.
    latency_thresholds: Vec<(String, u64)>,
    max_incidents: usize,
}

impl Default for PromotionPolicy {
    fn default() -> Self {
        Self {
            latency_thresholds: Vec::new(),
            max_incidents: DEFAULT_INCIDENT_CAPACITY,
        }
    }
}

impl PromotionPolicy {
    /// The default policy: errors and blown deadlines only.
    pub fn new() -> Self {
        Self::default()
    }

    /// Promotes traces whose root span named `root_name` ran for at
    /// least `threshold_ms` virtual milliseconds.
    pub fn latency_threshold(mut self, root_name: impl Into<String>, threshold_ms: u64) -> Self {
        self.latency_thresholds
            .push((root_name.into(), threshold_ms));
        self
    }

    /// Caps the incident store at `capacity` promoted traces
    /// (keep-first; minimum 1). Later promotions are counted as
    /// dropped.
    pub fn max_incidents(mut self, capacity: usize) -> Self {
        self.max_incidents = capacity.max(1);
        self
    }

    /// The configured incident-store capacity.
    pub fn incident_capacity(&self) -> usize {
        self.max_incidents
    }

    /// Whether a root carrying neither [`ERROR_ATTR`] nor
    /// [`DEADLINE_ATTR`] could still promote: only a latency threshold
    /// promotes on the root's name and duration alone.
    pub(crate) fn reads_durations(&self) -> bool {
        !self.latency_thresholds.is_empty()
    }

    /// Classifies a closing trace root given its name, its duration and
    /// a lookup of its first value under an attribute key, so the
    /// tracer classifies its compact records without materializing
    /// them. `None` — the common, healthy case — allocates nothing.
    pub(crate) fn classify(
        &self,
        name: &str,
        observed_ms: u64,
        attr: impl Fn(&str) -> Option<SpanName>,
    ) -> Option<PromotionReason> {
        if attr(DEADLINE_ATTR).is_some_and(|value| value == "blown") {
            return Some(PromotionReason::DeadlineBlown);
        }
        if let Some(kind) = attr(ERROR_ATTR) {
            return Some(PromotionReason::Error(kind));
        }
        for (candidate, threshold_ms) in &self.latency_thresholds {
            if candidate == name && observed_ms >= *threshold_ms {
                return Some(PromotionReason::SlowCall {
                    observed_ms,
                    threshold_ms: *threshold_ms,
                });
            }
        }
        None
    }
}

/// One promoted trace, as [`IncidentStore::traces`] materializes it:
/// the spans the ring held when the root closed.
#[derive(Debug, Clone, PartialEq)]
pub struct PromotedTrace {
    /// The trace's id.
    pub trace_id: TraceId,
    /// The root span's id.
    pub root_span: SpanId,
    /// The root span's operation name.
    pub root_name: SpanName,
    /// Why the trace was promoted.
    pub reason: PromotionReason,
    /// Root start, virtual milliseconds.
    pub start_ms: u64,
    /// Root end, virtual milliseconds.
    pub end_ms: u64,
    /// Whether the captured spans passed [`validate_tree`] — `false`
    /// means some children had already been evicted from the ring
    /// (retention smaller than the trace).
    pub complete: bool,
    /// Every captured span of the trace, oldest first (root last).
    pub spans: Vec<SpanRecord>,
}

impl PromotedTrace {
    /// Root duration in virtual milliseconds.
    pub fn duration_ms(&self) -> u64 {
        self.end_ms - self.start_ms
    }
}

/// Traces the store's list reserves on its first kept trace; a larger
/// store grows past it as it fills.
const FIRST_RESERVE: usize = 64;

/// A bounded keep-first store of promoted traces, each kept as the
/// ring's compact records until it is read.
#[derive(Debug)]
pub struct IncidentStore {
    capacity: usize,
    promoted: AtomicU64,
    dropped: AtomicU64,
    traces: Mutex<Vec<(TraceId, PromotionReason, CompactTrace)>>,
}

impl IncidentStore {
    /// An empty store keeping at most `capacity` traces (minimum 1).
    /// Nothing is allocated until the first trace is kept.
    pub fn new(capacity: usize) -> Self {
        Self {
            capacity: capacity.max(1),
            promoted: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
            traces: Mutex::new(Vec::new()),
        }
    }

    /// Counts one promotion and stores its trace if there is room;
    /// `None` is a promotion whose trace was not copied because the
    /// store was already full. Returns whether the trace was kept.
    fn push(
        &self,
        trace_id: TraceId,
        reason: PromotionReason,
        trace: Option<CompactTrace>,
    ) -> bool {
        self.promoted.fetch_add(1, Ordering::Relaxed);
        if let Some(trace) = trace {
            let mut traces = self.traces.lock();
            if traces.len() < self.capacity {
                if traces.capacity() == 0 {
                    traces.reserve_exact(self.capacity.min(FIRST_RESERVE));
                }
                traces.push((trace_id, reason, trace));
                return true;
            }
        }
        self.dropped.fetch_add(1, Ordering::Relaxed);
        false
    }

    /// The store's capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Traces promoted so far (kept + dropped).
    pub fn promoted_total(&self) -> u64 {
        self.promoted.load(Ordering::Relaxed)
    }

    /// Promotions that found the store full.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Number of traces currently kept.
    pub fn len(&self) -> usize {
        self.traces.lock().len()
    }

    /// Whether no trace has been kept.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The kept traces, in promotion order, each materialized from its
    /// compact records; `complete` is checked here.
    pub fn traces(&self) -> Vec<PromotedTrace> {
        let traces = self.traces.lock();
        traces
            .iter()
            .map(|(trace_id, reason, trace)| {
                let spans = trace.materialize();
                let root = spans.last().expect("a kept trace ends with its root");
                PromotedTrace {
                    trace_id: *trace_id,
                    root_span: root.span_id,
                    root_name: root.name.clone(),
                    reason: reason.clone(),
                    start_ms: root.start_ms,
                    end_ms: root.end_ms,
                    complete: validate_tree(&spans).is_ok(),
                    spans,
                }
            })
            .collect()
    }
}

/// Registry counters mirroring the flight recorder's health: installed
/// on a [`Tracer`] they surface eviction and promotion totals in the
/// Prometheus exposition instead of only the `Debug` impl.
#[derive(Debug, Clone)]
pub struct RecorderCounters {
    /// Spans overwritten by ring wrap-around
    /// (`telemetry_spans_evicted_total`).
    pub evicted: Counter,
    /// Traces promoted into the incident store
    /// (`telemetry_traces_promoted_total`).
    pub promoted: Counter,
    /// Promotions dropped because the store was full
    /// (`telemetry_promotions_dropped_total`).
    pub promoted_dropped: Counter,
}

/// The promotion engine a [`Tracer`] consults when a root span files:
/// a [`PromotionPolicy`] plus the [`IncidentStore`] promoted traces
/// land in.
#[derive(Debug, Clone)]
pub struct Recorder {
    policy: Arc<PromotionPolicy>,
    store: Arc<IncidentStore>,
}

impl Default for Recorder {
    fn default() -> Self {
        Self::new(PromotionPolicy::default())
    }
}

impl Recorder {
    /// A recorder with a fresh store sized by the policy's
    /// `max_incidents`.
    pub fn new(policy: PromotionPolicy) -> Self {
        let store = Arc::new(IncidentStore::new(policy.incident_capacity()));
        Self {
            policy: Arc::new(policy),
            store,
        }
    }

    /// The classification rules.
    pub fn policy(&self) -> &PromotionPolicy {
        &self.policy
    }

    /// The incident store.
    pub fn store(&self) -> &Arc<IncidentStore> {
        &self.store
    }

    /// Whether a trace promoted now could be kept. The store keeps the
    /// first traces and never removes one, so once it is full
    /// `Tracer::file` skips copying traces out of the ring: each
    /// promotion is still counted (as dropped) and still noted for
    /// [`take_promotion`].
    pub(crate) fn has_room(&self) -> bool {
        self.store.traces.lock().len() < self.store.capacity
    }

    /// Promotes trace `trace_id` (called by `Tracer::file` with the
    /// trace's compact records, root last, or `None` when the store had
    /// no room for them).
    pub(crate) fn promote(
        &self,
        tracer_id: u64,
        trace_id: TraceId,
        reason: PromotionReason,
        trace: Option<CompactTrace>,
        counters: Option<&RecorderCounters>,
    ) {
        let kept = self.store.push(trace_id, reason, trace);
        if let Some(counters) = counters {
            counters.promoted.inc();
            if !kept {
                counters.promoted_dropped.inc();
            }
        }
        note_promotion(tracer_id, trace_id);
    }
}

thread_local! {
    /// The most recent promotion on this thread: `(tracer id, trace
    /// id)`. Lets the traced decorator attach the promoted trace as a
    /// histogram exemplar immediately after the root span ends,
    /// without threading state through the call.
    static LAST_PROMOTION: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
}

fn note_promotion(tracer_id: u64, trace_id: TraceId) {
    LAST_PROMOTION.with(|cell| cell.set((tracer_id, trace_id.0)));
}

/// Consumes the trace id of the promotion that just happened on this
/// thread for `tracer`, if any. One read clears it — exactly one
/// exemplar per promotion.
pub fn take_promotion(tracer: &Tracer) -> Option<TraceId> {
    LAST_PROMOTION.with(|cell| {
        let (tracer_id, trace_id) = cell.get();
        if tracer_id == tracer.id() && trace_id != 0 {
            cell.set((0, 0));
            Some(TraceId(trace_id))
        } else {
            None
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::{ambient, Plane};

    fn recorder_tracer(retention: usize, policy: PromotionPolicy) -> Tracer {
        Tracer::with_recorder(retention, Recorder::new(policy))
    }

    #[test]
    fn errored_roots_promote_the_whole_tree() {
        let tracer = recorder_tracer(64, PromotionPolicy::default());
        let mut root = tracer.root("proxy:Location.getLocation", Plane::Proxy, 0);
        ambient::child("platform:gps", Plane::Platform, 2)
            .expect("ambient parent")
            .end(9);
        root.attr("error", "Timeout");
        root.end(10);
        // A healthy trace alongside it does not promote.
        tracer
            .root("proxy:Location.getLocation", Plane::Proxy, 20)
            .end(25);

        let store = tracer.incident_store().expect("recorder installed");
        assert_eq!(store.len(), 1);
        assert_eq!(store.promoted_total(), 1);
        let traces = store.traces();
        assert_eq!(traces[0].reason, PromotionReason::Error("Timeout".into()));
        assert_eq!(traces[0].spans.len(), 2);
        assert!(traces[0].complete, "tree validated");
        assert_eq!(traces[0].duration_ms(), 10);
        // The promotion is consumable exactly once per tracer.
        assert_eq!(take_promotion(&tracer), Some(traces[0].trace_id));
        assert_eq!(take_promotion(&tracer), None);
    }

    #[test]
    fn deadline_blown_outranks_error_and_latency() {
        let policy = PromotionPolicy::default().latency_threshold("op", 1);
        let tracer = recorder_tracer(8, policy);
        let mut root = tracer.root("op", Plane::Proxy, 0);
        root.attr("deadline", "blown");
        root.attr("error", "DeadlineExceeded");
        root.end(100);
        let traces = tracer.incident_store().unwrap().traces();
        assert_eq!(traces[0].reason, PromotionReason::DeadlineBlown);
    }

    #[test]
    fn latency_thresholds_match_by_root_name() {
        let policy = PromotionPolicy::default().latency_threshold("proxy:Http.request", 50);
        let tracer = recorder_tracer(8, policy);
        tracer.root("proxy:Http.request", Plane::Proxy, 0).end(49);
        tracer.root("proxy:Sms.send", Plane::Proxy, 0).end(500);
        tracer.root("proxy:Http.request", Plane::Proxy, 0).end(80);
        let traces = tracer.incident_store().unwrap().traces();
        assert_eq!(traces.len(), 1);
        assert_eq!(
            traces[0].reason,
            PromotionReason::SlowCall {
                observed_ms: 80,
                threshold_ms: 50
            }
        );
    }

    #[test]
    fn store_keeps_first_k_and_counts_drops() {
        let policy = PromotionPolicy::default().max_incidents(2);
        let tracer = recorder_tracer(8, policy);
        for i in 0..5u64 {
            let mut root = tracer.root("op", Plane::Proxy, i * 10);
            root.attr("error", "Timeout");
            root.end(i * 10 + 1);
        }
        let store = tracer.incident_store().unwrap();
        assert_eq!(store.len(), 2);
        assert_eq!(store.promoted_total(), 5);
        assert_eq!(store.dropped(), 3);
        let starts: Vec<u64> = store.traces().iter().map(|t| t.start_ms).collect();
        assert_eq!(starts, vec![0, 10], "earliest incidents win");
    }

    #[test]
    fn a_full_store_counts_promotions_without_collecting_them() {
        // The same five errored traces through a store that fills after
        // two and through one with room for all five.
        let run = |capacity: usize| {
            let policy = PromotionPolicy::default().max_incidents(capacity);
            let tracer = recorder_tracer(64, policy);
            let counters = RecorderCounters {
                evicted: Counter::default(),
                promoted: Counter::default(),
                promoted_dropped: Counter::default(),
            };
            tracer.install_counters(counters.clone());
            let mut exemplars = Vec::new();
            let mut at_fill = Vec::new();
            for i in 0..5u64 {
                let mut root = tracer.root("op", Plane::Proxy, i * 10);
                ambient::child("platform:gps", Plane::Platform, i * 10 + 1)
                    .expect("ambient parent")
                    .end(i * 10 + 2);
                root.attr("error", "Timeout");
                root.end(i * 10 + 3);
                exemplars.push(take_promotion(&tracer));
                if i + 1 == capacity as u64 {
                    at_fill = tracer.incident_store().unwrap().traces();
                }
            }
            (tracer, counters, exemplars, at_fill)
        };
        let (full, counters, exemplars, at_fill) = run(2);
        let (roomy, roomy_counters, roomy_exemplars, _) = run(5);
        let store = full.incident_store().unwrap();
        let roomy_store = roomy.incident_store().unwrap();

        assert_eq!(store.promoted_total(), 5);
        assert_eq!(store.dropped(), 3);
        assert_eq!(counters.promoted.value(), 5);
        assert_eq!(counters.promoted_dropped.value(), 3);
        assert_eq!(roomy_store.promoted_total(), 5);
        assert_eq!(roomy_counters.promoted.value(), 5);
        assert_eq!(roomy_counters.promoted_dropped.value(), 0);
        assert!(exemplars.iter().all(Option::is_some), "{exemplars:?}");
        assert_eq!(exemplars, roomy_exemplars, "one exemplar per promotion");
        assert_eq!(store.traces(), at_fill, "nothing kept after the fill");
        assert_eq!(store.traces()[..], roomy_store.traces()[..2]);
        assert_eq!(full.finished(), roomy.finished());
    }

    /// One errored trace whose spans use every kind of spill entry: a
    /// shared name, a fifth (numeric) attribute, a shared value, events
    /// past the inline slots and one too far from its start for an
    /// offset. `late` is a child of `bridge`, filed after it.
    fn spilling_trace(tracer: &Tracer) {
        let name: Arc<str> = Arc::from("bridge:Custom.call");
        let mut root = tracer.root(SpanName::Shared(Arc::clone(&name)), Plane::Proxy, 100);
        let mut bridge = ambient::child(SpanName::Shared(name), Plane::Bridge, 100).unwrap();
        bridge.event("early", 99);
        bridge.event("first", 100);
        for (key, value) in [("a", 1u64), ("b", 2), ("c", 3), ("d", 4), ("e", 5)] {
            bridge.attr(key, value);
        }
        bridge.attr("lsn", String::from("lsn:7"));
        bridge.event("second", 101);
        bridge.event("far", 100 + u64::from(u32::MAX) + 1);
        let parent = bridge.context();
        bridge.end(103);
        ambient::child_of(parent, "late", Plane::Platform, 104)
            .unwrap()
            .end(105);
        ambient::child("platform:gps", Plane::Platform, 106)
            .unwrap()
            .end(107);
        root.attr("status", 503u64);
        root.attr("error", "Timeout");
        root.end(108);
    }

    #[test]
    fn a_kept_trace_reads_back_as_the_ring_recorded_it() {
        let tracer = recorder_tracer(64, PromotionPolicy::default());
        spilling_trace(&tracer);
        let traces = tracer.incident_store().unwrap().traces();
        assert_eq!(traces.len(), 1);
        let trace = &traces[0];
        assert_eq!(trace.spans, tracer.finished());
        assert_eq!(trace.spans.len(), 4);
        assert!(trace.complete);
        assert_eq!(trace.root_name, "bridge:Custom.call");
        assert_eq!(trace.root_span, trace.spans[3].span_id);
        assert_eq!((trace.start_ms, trace.end_ms), (100, 108));
        assert_eq!(trace.reason, PromotionReason::Error("Timeout".into()));

        // A ring of two evicts `bridge` before the root closes, so the
        // copied `late` has no parent.
        let small = recorder_tracer(2, PromotionPolicy::default());
        spilling_trace(&small);
        let traces = small.incident_store().unwrap().traces();
        let names: Vec<&str> = traces[0].spans.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, ["late", "platform:gps", "bridge:Custom.call"]);
        assert!(!traces[0].complete, "late's parent was evicted");
    }

    #[test]
    fn promotion_beats_ring_eviction() {
        // Retention of 2 with a 3-span trace: the promotion still sees
        // whatever is resident, and marks itself incomplete when the
        // tree lost members.
        let tracer = recorder_tracer(2, PromotionPolicy::default());
        let mut root = tracer.root("op", Plane::Proxy, 0);
        ambient::child("a", Plane::Platform, 1).unwrap().end(2);
        ambient::child("b", Plane::Platform, 3).unwrap().end(4);
        ambient::child("c", Plane::Device, 5).unwrap().end(6);
        root.attr("error", "Timeout");
        root.end(7);
        let traces = tracer.incident_store().unwrap().traces();
        assert_eq!(traces.len(), 1);
        assert_eq!(traces[0].spans.len(), 3, "two resident children + root");
        assert!(traces[0].complete, "b and c still parent to the root");
        // With enough retention the whole tree survives.
        let roomy = recorder_tracer(16, PromotionPolicy::default());
        let mut root = roomy.root("op", Plane::Proxy, 0);
        ambient::child("a", Plane::Platform, 1).unwrap().end(2);
        root.attr("error", "Timeout");
        root.end(3);
        let traces = roomy.incident_store().unwrap().traces();
        assert!(traces[0].complete);
        assert_eq!(
            validate_tree(&traces[0].spans).unwrap(),
            traces[0].root_span
        );
    }
}
