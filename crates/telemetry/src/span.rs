//! Span tracing on virtual time.
//!
//! A [`Tracer`] mints [`ActiveSpan`]s; finished spans accumulate as
//! [`SpanRecord`]s inside the tracer, ready for export. Spans nest
//! through an **ambient stack**: creating a span pushes its context
//! onto a thread-local stack, so any lower layer — the resilience
//! engine, a platform middleware module, a device subsystem — can call
//! [`ambient::child`] and get a correctly parented span without the
//! call path threading tracer handles through every signature. When no
//! span is open the ambient constructors return `None` and
//! instrumentation costs one thread-local read.
//!
//! The recording path is allocation-free after warm-up: span names are
//! [`SpanName`] symbols (a `&'static str` or a shared `Arc<str>`
//! resolved once at wiring time), events are `&'static str`, attributes
//! and events live inline in an [`InlineList`] until they overflow, and
//! only frames opened through a [`Tracer`] hold a tracer handle (an
//! ambient child mints its id through its owner frame's). Finished
//! records are filed **per trace**: while the outermost open span is a
//! trace root, its descendants' records are moved, in finish order, into
//! a per-thread pending buffer (cleared, never freed, so it stops
//! allocating once it has held the longest trace), and when the root
//! closes the whole batch is moved into a per-thread bounded sink under
//! one sink lookup and one ring lock. A nested root, a
//! [`Tracer::child_of`] span or a span closed out of order files at
//! once, after the pending batch, so every ring still receives records
//! in finish order. There is no global `Mutex<Vec<_>>` that every worker
//! thread serialises through. Each sink is a **flight-recorder ring**:
//! it pre-allocates its full retention capacity on creation and, once
//! full, overwrites the oldest record in place (evictions are counted,
//! never silent), so 50k-device fleet runs with tracing on have bounded memory while the
//! most recent history is always resident. [`Tracer::finished`]
//! stitches the per-thread sinks back together in registration order,
//! oldest record first within each sink; a trace whose root is still
//! open is not visible there until the root closes.
//!
//! An optional [`Recorder`] installed with
//! [`Tracer::install_recorder`] adds **tail-based promotion**: when a
//! trace's root span files with an interesting outcome (error, blown
//! deadline, latency over a per-operation threshold) the whole trace
//! tree — the children were filed into the same thread's ring just
//! before it — is copied out into a bounded incident store before the
//! ring can overwrite it, unless the store is already full.
//!
//! All timestamps are `u64` virtual milliseconds supplied by the
//! caller (the simulated device clock in this workspace), never the
//! wall clock — traces replay bit-identically.

use std::cell::RefCell;
use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};
use std::marker::PhantomData;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use parking_lot::Mutex;

use crate::context::TraceContext;
use crate::recorder::{IncidentStore, Recorder, RecorderCounters};

/// Identifies one end-to-end trace (one logical operation).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TraceId(pub u64);

/// Identifies one span within a trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SpanId(pub u64);

/// The M-Proxy layer a span instruments — the paper's plane vocabulary
/// extended with the call-path layers around it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Plane {
    /// Application code above the uniform API.
    App,
    /// The M-Proxy semantic dispatch (the uniform method surface).
    Proxy,
    /// The resilience decorator (retries, circuit breaker, fallbacks).
    Resilience,
    /// The per-platform binding module.
    Binding,
    /// The WebView JavaScript↔Java bridge crossing.
    Bridge,
    /// The platform middleware (LocationManager, LocationProvider, …).
    Platform,
    /// The simulated device substrate (GPS engine, SMSC, network).
    Device,
}

impl Plane {
    /// Stable lowercase name, used as the Chrome trace-event category.
    pub fn as_str(self) -> &'static str {
        match self {
            Plane::App => "app",
            Plane::Proxy => "proxy",
            Plane::Resilience => "resilience",
            Plane::Binding => "binding",
            Plane::Bridge => "bridge",
            Plane::Platform => "platform",
            Plane::Device => "device",
        }
    }
}

impl fmt::Display for Plane {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A span name or attribute value that is free to copy on the hot
/// path: either a `&'static str` or a shared `Arc<str>` resolved once
/// at wiring time. Cloning never allocates.
#[derive(Clone)]
pub enum SpanName {
    /// A compile-time string.
    Static(&'static str),
    /// A runtime string interned behind an `Arc` (refcount bump to
    /// clone, no heap copy).
    Shared(Arc<str>),
}

impl SpanName {
    /// The underlying string.
    pub fn as_str(&self) -> &str {
        match self {
            SpanName::Static(s) => s,
            SpanName::Shared(s) => s,
        }
    }
}

impl std::ops::Deref for SpanName {
    type Target = str;

    fn deref(&self) -> &str {
        self.as_str()
    }
}

impl fmt::Display for SpanName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl fmt::Debug for SpanName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.as_str(), f)
    }
}

impl PartialEq for SpanName {
    fn eq(&self, other: &Self) -> bool {
        self.as_str() == other.as_str()
    }
}

impl Eq for SpanName {}

impl PartialEq<str> for SpanName {
    fn eq(&self, other: &str) -> bool {
        self.as_str() == other
    }
}

impl PartialEq<&str> for SpanName {
    fn eq(&self, other: &&str) -> bool {
        self.as_str() == *other
    }
}

impl From<&'static str> for SpanName {
    fn from(s: &'static str) -> Self {
        SpanName::Static(s)
    }
}

impl From<String> for SpanName {
    fn from(s: String) -> Self {
        SpanName::Shared(s.into())
    }
}

impl From<Arc<str>> for SpanName {
    fn from(s: Arc<str>) -> Self {
        SpanName::Shared(s)
    }
}

/// How many entries a span's attribute and event lists store without
/// touching the heap. Proxy and platform spans carry one or two
/// attributes (`platform`, plus `error` or `provider`) and layer spans
/// one or two events (`cache_hit`, `admitted`, `attempt`); only the
/// chatty device/net spans and retried calls overflow.
const INLINE: usize = 2;

/// An append-only list whose first two entries live inline; the
/// rest spill to a `Vec`. Pushing into a list that has not spilled never
/// allocates.
#[derive(Clone, Debug)]
pub struct InlineList<T> {
    inline: [Option<T>; INLINE],
    overflow: Vec<T>,
}

impl<T> Default for InlineList<T> {
    fn default() -> Self {
        Self {
            inline: [None, None],
            overflow: Vec::new(),
        }
    }
}

impl<T> InlineList<T> {
    /// Appends an entry.
    pub fn push(&mut self, item: T) {
        match self.inline.iter_mut().find(|slot| slot.is_none()) {
            Some(slot) => *slot = Some(item),
            None => self.overflow.push(item),
        }
    }

    /// Iterates the entries in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = &T> + '_ {
        self.inline.iter().flatten().chain(self.overflow.iter())
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.inline.iter().flatten().count() + self.overflow.len()
    }

    /// Whether there are no entries.
    pub fn is_empty(&self) -> bool {
        self.inline[0].is_none()
    }
}

impl<T: PartialEq> PartialEq for InlineList<T> {
    fn eq(&self, other: &Self) -> bool {
        self.iter().eq(other.iter())
    }
}

/// Key/value annotations with inline storage for the common case.
/// Keys are `&'static str` (attribute vocabularies are fixed at
/// compile time); values are [`SpanName`]s so static values cost
/// nothing and dynamic ones are a moved allocation, never a copy.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct AttrList {
    entries: InlineList<(&'static str, SpanName)>,
}

impl AttrList {
    /// Appends an annotation (duplicates are kept, like the previous
    /// `Vec<(String, String)>` representation).
    pub fn push(&mut self, key: &'static str, value: SpanName) {
        self.entries.push((key, value));
    }

    /// Iterates `(key, value)` in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, &str)> + '_ {
        self.entries.iter().map(|(k, v)| (*k, v.as_str()))
    }

    /// The first value recorded under `key`, if any.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.get_name(key).map(SpanName::as_str)
    }

    /// The first value recorded under `key` as the stored symbol, so a
    /// caller keeping it clones a pointer, not the string.
    pub fn get_name(&self, key: &str) -> Option<&SpanName> {
        self.entries.iter().find(|(k, _)| *k == key).map(|(_, v)| v)
    }

    /// Number of annotations.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether there are no annotations.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// A point-in-time annotation inside a span (a retry, a circuit
/// transition, …). Event vocabularies are fixed at compile time, so
/// recording one copies a pointer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanEvent {
    /// What happened.
    pub name: &'static str,
    /// When it happened, in virtual milliseconds.
    pub at_ms: u64,
}

/// A span's events: the first two inline, the rest spilled.
pub type EventList = InlineList<SpanEvent>;

/// A finished span.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRecord {
    /// The trace this span belongs to.
    pub trace_id: TraceId,
    /// This span's id.
    pub span_id: SpanId,
    /// The parent span, `None` for a trace root.
    pub parent_id: Option<SpanId>,
    /// Human-readable operation name, e.g. `proxy:Location.getLocation`.
    pub name: SpanName,
    /// The layer this span instruments.
    pub plane: Plane,
    /// Start, in virtual milliseconds.
    pub start_ms: u64,
    /// End, in virtual milliseconds (`>= start_ms`).
    pub end_ms: u64,
    /// Point events recorded while the span was open.
    pub events: EventList,
    /// Key/value annotations.
    pub attrs: AttrList,
}

/// Default per-thread span retention per tracer. See
/// [`Tracer::with_retention`] for the trade-off.
pub const DEFAULT_SPAN_RETENTION: usize = 4096;

/// One thread's flight-recorder ring of finished spans for one tracer.
struct SpanSink {
    ring: Mutex<Ring>,
}

/// A fixed-capacity overwrite-oldest ring. `slots` grows (within its
/// pre-allocated capacity) until full; after that `next` is the write
/// cursor and doubles as the index of the oldest resident record.
struct Ring {
    slots: Vec<SpanRecord>,
    next: usize,
    capacity: usize,
}

impl Ring {
    fn with_capacity(capacity: usize) -> Self {
        Self {
            slots: Vec::with_capacity(capacity),
            next: 0,
            capacity,
        }
    }

    /// Files one record, overwriting the oldest resident record when
    /// the ring is full. Returns `true` when a record was evicted. The
    /// evicted record is dropped in place — no reallocation either way.
    fn push(&mut self, record: SpanRecord) -> bool {
        if self.slots.len() < self.capacity {
            self.slots.push(record);
            false
        } else {
            self.slots[self.next] = record;
            self.next = (self.next + 1) % self.capacity;
            true
        }
    }

    /// Copies out every resident record, oldest first.
    fn snapshot_into(&self, out: &mut Vec<SpanRecord>) {
        out.extend_from_slice(&self.slots[self.next..]);
        out.extend_from_slice(&self.slots[..self.next]);
    }

    /// Copies out the resident records of one trace, oldest first.
    fn collect_trace(&self, trace_id: TraceId) -> Vec<SpanRecord> {
        self.slots[self.next..]
            .iter()
            .chain(self.slots[..self.next].iter())
            .filter(|record| record.trace_id == trace_id)
            .cloned()
            .collect()
    }

    /// Moves every resident record out (oldest first), leaving the
    /// ring empty but at full capacity.
    fn drain(&mut self) -> Vec<SpanRecord> {
        self.slots.rotate_left(self.next);
        self.next = 0;
        self.slots.split_off(0)
    }
}

struct TracerInner {
    /// Process-unique tracer identity; the key into each thread's
    /// local sink table.
    id: u64,
    next_id: AtomicU64,
    /// Per-sink ring capacity; each sink's buffer is allocated at this
    /// capacity once, so filing a record never reallocates.
    retention: usize,
    /// Spans overwritten because a full ring wrapped around.
    evicted: AtomicU64,
    /// Every sink ever registered, in registration order. Only locked
    /// on sink creation and on drain — never on the recording path.
    sinks: Mutex<Vec<Arc<SpanSink>>>,
    /// Tail-based promotion: classifies closing trace roots and keeps
    /// the interesting trace trees. Installed at most once.
    recorder: OnceLock<Recorder>,
    /// Registry counters mirroring the eviction/promotion totals, so
    /// the flight recorder's health shows up in a Prometheus scrape.
    counters: OnceLock<RecorderCounters>,
}

static NEXT_TRACER_ID: AtomicU64 = AtomicU64::new(1);

/// Hashes a tracer id with one multiply (Fibonacci hashing). Tracer ids
/// are sequential and process-local, so SipHash's flooding resistance
/// buys nothing on a lookup every span pays; the multiply spreads the
/// id over the high bits the table probes with.
#[derive(Default)]
struct TracerIdHasher(u64);

impl Hasher for TracerIdHasher {
    fn write(&mut self, bytes: &[u8]) {
        for byte in bytes {
            self.write_u64(self.0.rotate_left(8) ^ u64::from(*byte));
        }
    }

    fn write_u64(&mut self, id: u64) {
        self.0 = id.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

type SinkTable = HashMap<u64, Arc<SpanSink>, BuildHasherDefault<TracerIdHasher>>;

thread_local! {
    /// This thread's sink per tracer id. An entry appears the first
    /// time a thread files a span for a tracer and lives for the
    /// thread's lifetime.
    static LOCAL_SINKS: RefCell<SinkTable> = RefCell::new(SinkTable::default());
}

/// Mints spans and collects the finished records.
///
/// Cheap to clone (all clones share the same record sinks), `Send +
/// Sync`, and both id allocation and record filing are free of global
/// locks: each recording thread owns a bounded sink per tracer.
#[derive(Clone)]
pub struct Tracer {
    inner: Arc<TracerInner>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl fmt::Debug for Tracer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let finished: usize = self
            .inner
            .sinks
            .lock()
            .iter()
            .map(|sink| sink.ring.lock().slots.len())
            .sum();
        f.debug_struct("Tracer")
            .field("finished", &finished)
            .field("retention", &self.inner.retention)
            .field("evicted", &self.evicted_spans())
            .finish()
    }
}

impl Tracer {
    /// A fresh tracer with no finished spans and the default retention.
    pub fn new() -> Self {
        Self::with_retention(DEFAULT_SPAN_RETENTION)
    }

    /// A tracer whose per-thread sinks keep at most `retention`
    /// finished spans each (minimum 1). Each sink allocates its full
    /// capacity up front — recording never reallocates — so pick a
    /// small cap for fleet-scale runs (thousands of tracers) and a
    /// roomy one for single-device traces you intend to export whole.
    /// A full sink overwrites its oldest record (flight-recorder
    /// semantics); evictions are counted ([`Tracer::evicted_spans`]).
    pub fn with_retention(retention: usize) -> Self {
        Self {
            inner: Arc::new(TracerInner {
                id: NEXT_TRACER_ID.fetch_add(1, Ordering::Relaxed),
                next_id: AtomicU64::new(1),
                retention: retention.max(1),
                evicted: AtomicU64::new(0),
                sinks: Mutex::new(Vec::new()),
                recorder: OnceLock::new(),
                counters: OnceLock::new(),
            }),
        }
    }

    /// A tracer with tail-based promotion installed from the start.
    pub fn with_recorder(retention: usize, recorder: Recorder) -> Self {
        let tracer = Self::with_retention(retention);
        tracer.install_recorder(recorder);
        tracer
    }

    /// The per-thread sink capacity.
    pub fn retention(&self) -> usize {
        self.inner.retention
    }

    /// How many spans have been overwritten by newer records because a
    /// full ring wrapped around.
    pub fn evicted_spans(&self) -> u64 {
        self.inner.evicted.load(Ordering::Relaxed)
    }

    /// Installs the tail-based promotion recorder. The first install
    /// wins; returns `false` (and changes nothing) when a recorder is
    /// already present.
    pub fn install_recorder(&self, recorder: Recorder) -> bool {
        self.inner.recorder.set(recorder).is_ok()
    }

    /// Mirrors eviction/promotion totals into registry
    /// [`Counter`](crate::Counter)s
    /// (see [`RecorderCounters`]). The first install wins.
    pub fn install_counters(&self, counters: RecorderCounters) -> bool {
        self.inner.counters.set(counters).is_ok()
    }

    /// The installed promotion recorder, if any.
    pub fn recorder(&self) -> Option<&Recorder> {
        self.inner.recorder.get()
    }

    /// The incident store holding promoted traces, when a recorder is
    /// installed.
    pub fn incident_store(&self) -> Option<&Arc<IncidentStore>> {
        self.inner.recorder.get().map(Recorder::store)
    }

    /// The process-unique tracer identity (keys thread-local state).
    pub(crate) fn id(&self) -> u64 {
        self.inner.id
    }

    fn fresh_id(&self) -> u64 {
        self.inner.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Starts a new trace with a root span and pushes it onto the
    /// ambient stack.
    pub fn root(&self, name: impl Into<SpanName>, plane: Plane, now_ms: u64) -> ActiveSpan {
        let trace_id = TraceId(self.fresh_id());
        self.start(trace_id, None, name.into(), plane, now_ms)
    }

    /// Starts a span under an explicit parent context (same trace) and
    /// pushes it onto the ambient stack.
    pub fn child_of(
        &self,
        parent: TraceContext,
        name: impl Into<SpanName>,
        plane: Plane,
        now_ms: u64,
    ) -> ActiveSpan {
        self.start(
            parent.trace_id,
            Some(parent.span_id),
            name.into(),
            plane,
            now_ms,
        )
    }

    fn start(
        &self,
        trace_id: TraceId,
        parent_id: Option<SpanId>,
        name: SpanName,
        plane: Plane,
        now_ms: u64,
    ) -> ActiveSpan {
        let span_id = SpanId(self.fresh_id());
        let ctx = TraceContext { trace_id, span_id };
        ambient::push(self.clone(), ctx, parent_id.is_none());
        ActiveSpan::open(ctx, parent_id, name, plane, now_ms)
    }

    /// Moves a batch of finished records, in finish order, into this
    /// thread's ring for this tracer — one sink lookup and one ring
    /// lock for the whole batch — creating (and registering) the sink on
    /// first use. When the ring is full the oldest record is overwritten
    /// in place; evictions are summed into one add per counter. The
    /// batch is left empty with its capacity intact.
    ///
    /// Tail-based promotion happens here: a **root** record closing
    /// means its trace is complete — in this synchronous world every
    /// child was filed into the same thread-local ring before it, or
    /// precedes it in the batch — so the installed [`Recorder`]
    /// classifies the root and, if the outcome is interesting and the
    /// incident store still has room, the trace tree is copied out
    /// *before* the root is inserted (the collected set is exactly the
    /// resident children plus the root). A batch holds at most one root,
    /// its last record.
    fn file(&self, batch: &mut Vec<SpanRecord>) {
        let recorder = self.inner.recorder.get();
        let (evicted, promotion) = LOCAL_SINKS.with(|sinks| {
            let mut sinks = sinks.borrow_mut();
            let sink = sinks.entry(self.inner.id).or_insert_with(|| {
                let sink = Arc::new(SpanSink {
                    ring: Mutex::new(Ring::with_capacity(self.inner.retention)),
                });
                self.inner.sinks.lock().push(Arc::clone(&sink));
                sink
            });
            let mut ring = sink.ring.lock();
            let mut evicted = 0;
            let mut promotion = None;
            for record in batch.drain(..) {
                if let (None, Some(recorder)) = (record.parent_id, recorder) {
                    if let Some(reason) = recorder.policy().classify(&record) {
                        let spans = recorder.has_room().then(|| {
                            let mut spans = ring.collect_trace(record.trace_id);
                            spans.push(record.clone());
                            spans
                        });
                        promotion = Some((record.trace_id, reason, spans));
                    }
                }
                evicted += u64::from(ring.push(record));
            }
            (evicted, promotion)
        });
        let counters = self.inner.counters.get();
        if evicted > 0 {
            self.inner.evicted.fetch_add(evicted, Ordering::Relaxed);
            if let Some(counters) = counters {
                counters.evicted.add(evicted);
            }
        }
        if let (Some((trace_id, reason, spans)), Some(recorder)) = (promotion, recorder) {
            recorder.promote(self.inner.id, trace_id, reason, spans, counters);
        }
    }

    /// A copy of every finished span: oldest-first within each sink,
    /// sinks in registration order (on one thread that is plain finish
    /// order for the retained suffix).
    ///
    /// The descendants of a trace root that is still open are not
    /// filed yet: the recording thread batches them and files them when
    /// the root closes, so until then no caller — on any thread — sees
    /// them here. Nested roots and spans opened with
    /// [`Tracer::child_of`] are filed as they close.
    pub fn finished(&self) -> Vec<SpanRecord> {
        let sinks = self.inner.sinks.lock();
        let mut out = Vec::new();
        for sink in sinks.iter() {
            sink.ring.lock().snapshot_into(&mut out);
        }
        out
    }

    /// Drains the finished spans (oldest-first within each sink),
    /// leaving the tracer empty. The rings keep their capacity, so
    /// recording after a drain still does not reallocate.
    pub fn take_finished(&self) -> Vec<SpanRecord> {
        let sinks = self.inner.sinks.lock();
        let mut out = Vec::new();
        for sink in sinks.iter() {
            let mut drained = sink.ring.lock().drain();
            if out.is_empty() {
                out = drained;
            } else {
                out.append(&mut drained);
            }
        }
        out
    }
}

/// An open span. Finish it with [`ActiveSpan::end`]; dropping an
/// unfinished span closes it at its start time (zero duration) so the
/// record and the ambient stack stay consistent on early returns.
///
/// The span's tracer is found through its ambient stack frame, which is
/// thread-local, so a span is closed on the thread that opened it (it
/// is not `Send`).
pub struct ActiveSpan {
    /// `Some` while open; `finish` moves the record out into the sink,
    /// so closing a span copies nothing.
    record: Option<SpanRecord>,
    _same_thread: PhantomData<*const ()>,
}

impl ActiveSpan {
    /// A span opened under `ctx` whose frame is already on the ambient
    /// stack.
    fn open(
        ctx: TraceContext,
        parent_id: Option<SpanId>,
        name: SpanName,
        plane: Plane,
        now_ms: u64,
    ) -> Self {
        Self {
            record: Some(SpanRecord {
                trace_id: ctx.trace_id,
                span_id: ctx.span_id,
                parent_id,
                name,
                plane,
                start_ms: now_ms,
                end_ms: now_ms,
                events: EventList::default(),
                attrs: AttrList::default(),
            }),
            _same_thread: PhantomData,
        }
    }

    /// The open record. Infallible by construction: `record` is `Some`
    /// from `Tracer::span` until `finish`, and `finish` is reachable
    /// only through `end(self)` (which consumes the span) or `Drop` —
    /// no `&self` method can observe a closed span.
    fn record(&self) -> &SpanRecord {
        self.record.as_ref().expect("span is open until end/drop")
    }

    /// Mutable twin of [`Self::record`]; same invariant.
    fn record_mut(&mut self) -> &mut SpanRecord {
        self.record.as_mut().expect("span is open until end/drop")
    }

    /// The propagatable identity of this span.
    pub fn context(&self) -> TraceContext {
        let record = self.record();
        TraceContext {
            trace_id: record.trace_id,
            span_id: record.span_id,
        }
    }

    /// Records a point event at `at_ms` virtual time.
    pub fn event(&mut self, name: &'static str, at_ms: u64) {
        self.record_mut().events.push(SpanEvent { name, at_ms });
    }

    /// Attaches (or appends) a key/value annotation. Static values are
    /// free; pass owned `String`s for dynamic ones — they are moved,
    /// not copied.
    pub fn attr(&mut self, key: &'static str, value: impl Into<SpanName>) {
        self.record_mut().attrs.push(key, value.into());
    }

    /// Closes the span at `now_ms` and files the record with the
    /// tracer. Ends before the start are clamped to zero duration.
    pub fn end(mut self, now_ms: u64) {
        self.finish(now_ms);
    }

    fn finish(&mut self, now_ms: u64) {
        let Some(mut record) = self.record.take() else {
            return;
        };
        record.end_ms = now_ms.max(record.start_ms);
        ambient::close(record);
    }
}

impl Drop for ActiveSpan {
    fn drop(&mut self) {
        if let Some(record) = &self.record {
            let started = record.start_ms;
            self.finish(started);
        }
    }
}

/// The ambient span stack: implicit parenting for layers that are not
/// telemetry-aware in their signatures.
pub mod ambient {
    use std::cell::RefCell;

    use super::{ActiveSpan, Plane, SpanId, SpanName, SpanRecord, Tracer};
    use crate::context::TraceContext;

    /// One open span.
    struct Frame {
        ctx: TraceContext,
        /// The tracer handle, held only by frames opened through a
        /// [`Tracer`] (`root`, `child_of`); an ambient child borrows its
        /// owner's.
        tracer: Option<Tracer>,
        /// Index of the frame holding this span's tracer: its own index
        /// for a tracer-opened frame, its parent frame's owner for an
        /// ambient child. Always a frame at or below this one whose
        /// `tracer` is `Some`.
        owner: usize,
        /// Whether the span is a trace root (opened by [`Tracer::root`]).
        root: bool,
    }

    impl Frame {
        /// The tracer of a frame that is some frame's owner.
        fn tracer(&self) -> &Tracer {
            self.tracer
                .as_ref()
                .expect("an owner frame holds its tracer")
        }
    }

    /// This thread's open spans plus the finished records waiting for
    /// the outermost root to close.
    struct Ambient {
        stack: Vec<Frame>,
        /// Finished descendants of `stack[0]`, in finish order, filed
        /// into its tracer when it closes. Only non-empty while
        /// `stack[0]` is a trace root; cleared, never freed.
        pending: Vec<SpanRecord>,
    }

    thread_local! {
        static AMBIENT: RefCell<Ambient> = const {
            RefCell::new(Ambient {
                stack: Vec::new(),
                pending: Vec::new(),
            })
        };
    }

    /// Pushes the frame of a span opened through `tracer`.
    pub(super) fn push(tracer: Tracer, ctx: TraceContext, root: bool) {
        AMBIENT.with(|ambient| {
            let stack = &mut ambient.borrow_mut().stack;
            let owner = stack.len();
            stack.push(Frame {
                ctx,
                tracer: Some(tracer),
                owner,
                root,
            });
        });
    }

    /// Removes the frame of `record`'s span and files the record.
    ///
    /// While the outermost open span is a trace root, the records of
    /// the spans that file into its tracer through it are batched and
    /// filed together with the root when it closes. Everything else —
    /// a nested root, a [`Tracer::child_of`] span and its children, a
    /// span closed out of order — is filed at once, after the batch, so
    /// every ring still receives its records in finish order. A record
    /// whose frame is gone is dropped.
    pub(super) fn close(record: SpanRecord) {
        AMBIENT.with(|ambient| {
            let Ambient { stack, pending } = &mut *ambient.borrow_mut();
            let Some(idx) = stack
                .iter()
                .rposition(|frame| frame.ctx.span_id == record.span_id)
            else {
                return;
            };
            // The top frame, filing through the outermost frame, which
            // is a trace root: batch the record.
            if idx + 1 == stack.len() && stack[idx].owner == 0 && stack[0].root {
                let frame = stack.pop().expect("idx is the top frame");
                pending.push(record);
                if let Some(tracer) = frame.tracer {
                    // The outermost root itself: file the whole trace.
                    tracer.file(pending);
                }
                return;
            }
            if !pending.is_empty() {
                stack[0].tracer().file(pending);
            }
            let tracer = remove(stack, idx);
            pending.push(record);
            tracer.file(pending);
        });
    }

    /// Removes the frame at `idx` (not necessarily the top), returning
    /// the tracer its span files into. When that frame owned the tracer
    /// of frames still open above it, the first of them inherits it and
    /// becomes the owner of the rest.
    fn remove(stack: &mut Vec<Frame>, idx: usize) -> Tracer {
        let frame = stack.remove(idx);
        let tracer = match frame.tracer {
            Some(tracer) => tracer,
            None => stack[frame.owner].tracer().clone(),
        };
        let mut heir = None;
        for (i, above) in stack.iter_mut().enumerate().skip(idx) {
            if above.owner == idx {
                above.owner = *heir.get_or_insert_with(|| {
                    above.tracer = Some(tracer.clone());
                    i
                });
            } else if above.owner > idx {
                above.owner -= 1;
            }
        }
        tracer
    }

    /// The innermost open span's context on this thread, if any.
    pub fn current() -> Option<TraceContext> {
        AMBIENT.with(|ambient| ambient.borrow().stack.last().map(|frame| frame.ctx))
    }

    /// Opens a span under `parent` (the innermost open span's context
    /// when `None`) in the innermost open span's tracer, all under one
    /// borrow of the stack. The new frame holds no tracer handle: it
    /// records the innermost span's owner and mints its id there.
    fn open(
        parent: Option<TraceContext>,
        name: impl Into<SpanName>,
        plane: Plane,
        now_ms: u64,
    ) -> Option<ActiveSpan> {
        AMBIENT.with(|ambient| {
            let stack = &mut ambient.borrow_mut().stack;
            let top = stack.last()?;
            let parent = parent.unwrap_or(top.ctx);
            let owner = top.owner;
            let ctx = TraceContext {
                trace_id: parent.trace_id,
                span_id: SpanId(stack[owner].tracer().fresh_id()),
            };
            stack.push(Frame {
                ctx,
                tracer: None,
                owner,
                root: false,
            });
            Some(ActiveSpan::open(
                ctx,
                Some(parent.span_id),
                name.into(),
                plane,
                now_ms,
            ))
        })
    }

    /// Opens a child of the innermost open span, using its tracer.
    /// Returns `None` (and records nothing) when no span is open —
    /// instrumented code paths are free when telemetry is off. The
    /// name is only converted when a span is actually opened.
    pub fn child(name: impl Into<SpanName>, plane: Plane, now_ms: u64) -> Option<ActiveSpan> {
        open(None, name, plane, now_ms)
    }

    /// Opens a span under an **explicit** parent context (e.g. one that
    /// arrived over the WebView bridge as a `traceparent` string),
    /// recording into the innermost open span's tracer. Returns `None`
    /// when no tracer is ambient.
    pub fn child_of(
        parent: TraceContext,
        name: impl Into<SpanName>,
        plane: Plane,
        now_ms: u64,
    ) -> Option<ActiveSpan> {
        open(Some(parent), name, plane, now_ms)
    }
}

/// Checks that `spans` form one connected, singly-rooted tree on one
/// trace id with monotonic virtual timestamps (children start no
/// earlier than their parent and every span ends no earlier than it
/// starts). Returns the root's [`SpanId`].
///
/// # Errors
///
/// A human-readable description of the first structural violation.
pub fn validate_tree(spans: &[SpanRecord]) -> Result<SpanId, String> {
    if spans.is_empty() {
        return Err("no spans recorded".into());
    }
    let trace_id = spans[0].trace_id;
    let mut by_id = std::collections::HashMap::new();
    for span in spans {
        if span.trace_id != trace_id {
            return Err(format!(
                "span {:?} is on trace {:?}, expected {trace_id:?}",
                span.span_id, span.trace_id
            ));
        }
        if span.end_ms < span.start_ms {
            return Err(format!("span {} ends before it starts", span.name));
        }
        if by_id.insert(span.span_id, span).is_some() {
            return Err(format!("duplicate span id {:?}", span.span_id));
        }
    }
    let mut roots = Vec::new();
    for span in spans {
        match span.parent_id {
            None => roots.push(span.span_id),
            Some(parent_id) => {
                let parent = by_id.get(&parent_id).ok_or_else(|| {
                    format!("span {} has unknown parent {parent_id:?}", span.name)
                })?;
                if span.start_ms < parent.start_ms {
                    return Err(format!(
                        "span {} starts at {} before its parent {} at {}",
                        span.name, span.start_ms, parent.name, parent.start_ms
                    ));
                }
            }
        }
    }
    match roots.as_slice() {
        [root] => Ok(*root),
        [] => Err("no root span (parent cycle?)".into()),
        many => Err(format!("{} roots, expected exactly one", many.len())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_through_the_ambient_stack() {
        let tracer = Tracer::new();
        let mut root = tracer.root("app:op", Plane::App, 10);
        let child = ambient::child("proxy:op", Plane::Proxy, 20).expect("ambient parent");
        let grandchild = ambient::child("device:op", Plane::Device, 25).expect("ambient parent");
        grandchild.end(30);
        child.end(40);
        root.attr("k", "v");
        root.end(50);
        assert_eq!(ambient::current(), None);

        let spans = tracer.take_finished();
        assert_eq!(spans.len(), 3);
        let root_id = validate_tree(&spans).expect("single tree");
        let root = spans.iter().find(|s| s.span_id == root_id).unwrap();
        assert_eq!(root.name, "app:op");
        assert_eq!((root.start_ms, root.end_ms), (10, 50));
        let device = spans.iter().find(|s| s.plane == Plane::Device).unwrap();
        let proxy = spans.iter().find(|s| s.plane == Plane::Proxy).unwrap();
        assert_eq!(device.parent_id, Some(proxy.span_id));
        assert_eq!(proxy.parent_id, Some(root_id));
    }

    #[test]
    fn no_ambient_span_means_no_recording() {
        assert!(ambient::child("x", Plane::Device, 0).is_none());
        assert_eq!(ambient::current(), None);
    }

    #[test]
    fn dropping_an_unended_span_closes_it_at_start() {
        let tracer = Tracer::new();
        {
            let mut span = tracer.root("op", Plane::App, 7);
            span.event("boom", 7);
        }
        let spans = tracer.finished();
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].end_ms, 7);
        assert_eq!(ambient::current(), None);
    }

    #[test]
    fn end_clamps_to_start() {
        let tracer = Tracer::new();
        tracer.root("op", Plane::App, 100).end(50);
        assert_eq!(tracer.finished()[0].end_ms, 100);
    }

    #[test]
    fn validate_tree_rejects_orphans_and_multiple_roots() {
        let tracer = Tracer::new();
        tracer.root("a", Plane::App, 0).end(1);
        tracer.root("b", Plane::App, 0).end(1);
        let spans = tracer.take_finished();
        assert!(validate_tree(&spans).is_err(), "two different traces");
    }

    #[test]
    fn events_carry_virtual_timestamps() {
        let tracer = Tracer::new();
        let mut span = tracer.root("op", Plane::Resilience, 0);
        span.event("retry", 120);
        span.end(200);
        let record = &tracer.finished()[0];
        let events: Vec<SpanEvent> = record.events.iter().copied().collect();
        assert_eq!(
            events,
            [SpanEvent {
                name: "retry",
                at_ms: 120
            }]
        );
    }

    #[test]
    fn attrs_overflow_past_the_inline_slots_in_order() {
        let mut attrs = AttrList::default();
        assert!(attrs.is_empty());
        attrs.push("a", SpanName::Static("1"));
        attrs.push("b", SpanName::Static("2"));
        attrs.push("c", SpanName::from(String::from("3")));
        attrs.push("a", SpanName::Static("4"));
        assert_eq!(attrs.len(), 4);
        assert_eq!(attrs.get("a"), Some("1"), "first value wins for get");
        let collected: Vec<_> = attrs.iter().collect();
        assert_eq!(
            collected,
            vec![("a", "1"), ("b", "2"), ("c", "3"), ("a", "4")]
        );
    }

    #[test]
    fn dynamic_and_static_names_compare_by_content() {
        let owned = SpanName::from(String::from("proxy:op"));
        assert_eq!(owned, SpanName::Static("proxy:op"));
        assert_eq!(owned, "proxy:op");
        assert_eq!(owned.as_str(), "proxy:op");
        assert!(owned.contains("proxy"));
        assert_eq!(format!("{owned}"), "proxy:op");
    }

    #[test]
    fn retention_cap_overwrites_oldest_and_counts_evictions() {
        let tracer = Tracer::with_retention(3);
        assert_eq!(tracer.retention(), 3);
        for i in 0..5 {
            tracer.root("op", Plane::App, i).end(i + 1);
        }
        let kept = tracer.finished();
        assert_eq!(kept.len(), 3, "bounded by retention");
        // Flight-recorder semantics: the two *oldest* spans were
        // overwritten and the retained suffix reads oldest-first.
        let starts: Vec<u64> = kept.iter().map(|s| s.start_ms).collect();
        assert_eq!(starts, vec![2, 3, 4]);
        assert_eq!(tracer.evicted_spans(), 2);
        // Draining empties the ring: recording resumes at the front.
        assert_eq!(tracer.take_finished().len(), 3);
        tracer.root("op", Plane::App, 9).end(10);
        assert_eq!(tracer.finished().len(), 1);
        assert_eq!(tracer.evicted_spans(), 2, "no new evictions after drain");
    }

    #[test]
    fn wrapped_ring_drains_oldest_first_and_keeps_capacity() {
        let tracer = Tracer::with_retention(4);
        for i in 0..11 {
            tracer.root("op", Plane::App, i).end(i + 1);
        }
        assert_eq!(tracer.evicted_spans(), 7);
        let drained = tracer.take_finished();
        let starts: Vec<u64> = drained.iter().map(|s| s.start_ms).collect();
        assert_eq!(starts, vec![7, 8, 9, 10]);
        // The ring was reset, not shrunk: it fills and wraps again.
        for i in 20..25 {
            tracer.root("op", Plane::App, i).end(i + 1);
        }
        let starts: Vec<u64> = tracer.finished().iter().map(|s| s.start_ms).collect();
        assert_eq!(starts, vec![21, 22, 23, 24]);
        assert_eq!(tracer.evicted_spans(), 8);
    }

    fn names(spans: &[SpanRecord]) -> Vec<&str> {
        spans.iter().map(|span| span.name.as_str()).collect()
    }

    fn recording(retention: usize) -> Tracer {
        Tracer::with_recorder(retention, Recorder::default())
    }

    #[test]
    fn nested_roots_file_in_finish_order_into_their_own_rings() {
        let tracer = recording(64);
        let other = Tracer::new();
        let outer = tracer.root("outer", Plane::App, 0);
        ambient::child("a", Plane::Proxy, 1).unwrap().end(2);
        // A nested root on another tracer takes its children with it.
        let elsewhere = other.root("elsewhere", Plane::Proxy, 3);
        ambient::child("d", Plane::Device, 4).unwrap().end(5);
        elsewhere.end(6);
        ambient::child("c", Plane::Proxy, 7).unwrap().end(8);
        // A nested root on the same tracer, promoted on its own.
        let mut inner = tracer.root("inner", Plane::Proxy, 9);
        ambient::child("b", Plane::Device, 10).unwrap().end(11);
        inner.attr("error", "Timeout");
        inner.end(12);
        outer.end(13);

        assert_eq!(names(&tracer.finished()), ["a", "c", "b", "inner", "outer"]);
        assert_eq!(names(&other.finished()), ["d", "elsewhere"]);
        let traces = tracer.incident_store().unwrap().traces();
        assert_eq!(traces.len(), 1);
        assert_eq!(names(&traces[0].spans), ["b", "inner"]);
        assert!(traces[0].complete);
        assert_eq!(tracer.evicted_spans(), 0);
    }

    #[test]
    fn a_root_closed_before_its_children_hands_its_tracer_up() {
        let tracer = recording(64);
        let mut root = tracer.root("root", Plane::App, 0);
        ambient::child("x", Plane::Proxy, 1).unwrap().end(2);
        let a = ambient::child("a", Plane::Proxy, 3).unwrap();
        let b = ambient::child("b", Plane::Platform, 4).unwrap();
        root.attr("error", "Timeout");
        drop(root);
        // `a` now holds the tracer: a new child still mints its id there.
        let c = ambient::child("c", Plane::Device, 5).unwrap();
        c.end(6);
        b.end(7);
        a.end(8);
        assert_eq!(ambient::current(), None);

        let spans = tracer.finished();
        assert_eq!(names(&spans), ["x", "root", "c", "b", "a"]);
        let ids: Vec<u64> = spans.iter().map(|span| span.span_id.0).collect();
        assert_eq!(ids, [3, 2, 6, 5, 4], "ids minted in open order");
        assert!(spans.iter().all(|span| span.trace_id == spans[1].trace_id));
        let traces = tracer.incident_store().unwrap().traces();
        assert_eq!(traces.len(), 1);
        assert_eq!(names(&traces[0].spans), ["x", "root"]);
        assert!(traces[0].complete);
    }

    #[test]
    fn a_trace_longer_than_the_retention_promotes_its_resident_spans() {
        let tracer = recording(3);
        let mut root = tracer.root("root", Plane::Proxy, 0);
        let a = ambient::child("a", Plane::Bridge, 1).unwrap();
        let a_ctx = a.context();
        a.end(2);
        ambient::child_of(a_ctx, "late", Plane::Platform, 3)
            .unwrap()
            .end(4);
        ambient::child("b", Plane::Device, 5).unwrap().end(6);
        ambient::child("c", Plane::Device, 7).unwrap().end(8);
        root.attr("error", "Timeout");
        root.end(9);

        // Filed one at a time, `c` evicts `a` and the root evicts `late`.
        let traces = tracer.incident_store().unwrap().traces();
        assert_eq!(names(&traces[0].spans), ["late", "b", "c", "root"]);
        assert!(!traces[0].complete, "late's parent was evicted");
        assert_eq!(names(&tracer.finished()), ["b", "c", "root"]);
        assert_eq!(tracer.evicted_spans(), 2);
    }

    #[test]
    fn evicted_spans_match_the_eviction_counter_after_wrap_around() {
        let tracer = Tracer::with_retention(4);
        let counters = RecorderCounters {
            evicted: crate::Counter::default(),
            promoted: crate::Counter::default(),
            promoted_dropped: crate::Counter::default(),
        };
        tracer.install_counters(counters.clone());
        for trace in 0..5u64 {
            let root = tracer.root("root", Plane::App, trace * 10);
            for child in 1..=3 {
                let at = trace * 10 + child;
                ambient::child("child", Plane::Proxy, at).unwrap().end(at);
            }
            root.end(trace * 10 + 9);
        }
        assert_eq!(tracer.evicted_spans(), 16, "20 spans through a ring of 4");
        assert_eq!(counters.evicted.value(), 16);
        let starts: Vec<u64> = tracer.finished().iter().map(|s| s.start_ms).collect();
        assert_eq!(starts, [41, 42, 43, 40]);
    }

    #[test]
    fn an_open_traces_children_are_visible_once_its_root_closes() {
        let tracer = Tracer::new();
        let root = tracer.root("root", Plane::App, 0);
        ambient::child("child", Plane::Proxy, 1).unwrap().end(2);
        let from_another_thread =
            || std::thread::scope(|scope| scope.spawn(|| tracer.finished()).join().unwrap());
        assert!(from_another_thread().is_empty());
        assert!(tracer.finished().is_empty(), "nor on the recording thread");
        root.end(3);
        assert_eq!(names(&from_another_thread()), ["child", "root"]);
    }

    #[test]
    fn worker_threads_record_without_a_shared_sink() {
        let tracer = Tracer::new();
        std::thread::scope(|scope| {
            for worker in 0..4u64 {
                let tracer = tracer.clone();
                scope.spawn(move || {
                    for i in 0..50 {
                        let root = tracer.root("op", Plane::App, worker * 1_000 + i);
                        root.end(worker * 1_000 + i + 1);
                    }
                });
            }
        });
        let spans = tracer.finished();
        assert_eq!(spans.len(), 200, "every span landed in some sink");
        // Per-sink order is preserved: start times are monotonic within
        // each worker's contiguous block.
        let mut seen = 0;
        while seen < spans.len() {
            let base = spans[seen].start_ms;
            for offset in 0..50 {
                assert_eq!(spans[seen + offset].start_ms, base + offset as u64);
            }
            seen += 50;
        }
    }
}
