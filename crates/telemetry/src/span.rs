//! Span tracing on virtual time.
//!
//! A [`Tracer`] mints [`ActiveSpan`]s; finished spans accumulate inside
//! the tracer and come back out as [`SpanRecord`]s, ready for export.
//! Spans nest through an **ambient stack**: creating a span pushes its
//! context onto a thread-local stack, so any lower layer — the
//! resilience engine, a platform middleware module, a device subsystem
//! — can call [`ambient::child`] and get a correctly parented span
//! without the call path threading tracer handles through every
//! signature. When no span is open the ambient constructors return
//! `None` and instrumentation costs one thread-local read.
//!
//! **Two representations.** The recording path never builds a
//! [`SpanRecord`]. An open span, the per-thread pending batch and every
//! ring slot hold one fixed-size, `Copy` record of at most 128 bytes:
//! the ids (a parent of 0 means a root, because ids start at 1), the
//! start and end times, the plane, the name as a 16-bit symbol, four
//! inline attribute slots and two inline event slots. Every
//! `&'static str` a span carries — name, attribute keys, static values,
//! event names — is such a symbol; a number is stored as a `u64` and
//! rendered only at export ([`AttrValue`]). What does not fit — a
//! shared or owned string, a fifth attribute, a third event — goes to
//! the record's **spill**, which the ring keeps beside its slots and
//! frees only when it overwrites the record that owns it. A span whose
//! values are all static or numeric writes no spill, and overwriting it
//! runs no destructor. [`SpanRecord`]s are materialized from the
//! compact form only by [`Tracer::finished`], [`Tracer::take_finished`]
//! and [`IncidentStore::traces`].
//!
//! **Filing per trace.** Opening a span and closing it each take one
//! thread-local access: the thread's ambient stack, pending batch and
//! sink table live in one structure. While the outermost open span is
//! a trace root, the records of the spans that file into the same ring
//! are copied, in finish order, into the pending batch (cleared, never
//! freed), and when the root closes the whole batch is filed under one
//! ring lock. A nested root, or a span closed out of order, files at
//! once, after the batch, so every ring still receives records in
//! finish order. Each sink is a **flight-recorder ring**: it
//! pre-allocates its full retention capacity on creation and, once
//! full, overwrites the oldest record in place (evictions are counted,
//! never silent), so 50k-device fleet runs with tracing on have bounded
//! memory while the most recent history is always resident.
//! [`Tracer::finished`] stitches the per-thread sinks back together in
//! registration order, oldest record first within each sink; a trace
//! whose root is still open is not visible there until the root closes.
//! A thread's sink outlives its tracer only until the thread next opens
//! a sink for another tracer with no span open, which frees it.
//!
//! An optional [`Recorder`], given at construction by
//! [`Tracer::with_recorder`], adds **tail-based promotion**: when a
//! trace's root span files with an interesting outcome (error, blown
//! deadline, latency over a per-operation threshold) the whole trace
//! tree — the children were filed into the same thread's ring just
//! before it — is copied out, still as compact records with their spill
//! entries, into a bounded incident store before the ring can overwrite
//! it, unless the store is already full.
//!
//! All timestamps are `u64` virtual milliseconds supplied by the
//! caller (the simulated device clock in this workspace), never the
//! wall clock — traces replay bit-identically.

use std::collections::{vec_deque, VecDeque};
use std::fmt;
use std::hash::Hasher;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use parking_lot::Mutex;

use crate::context::TraceContext;
use crate::intern::Sym;
use crate::recorder::{IncidentStore, Recorder, RecorderCounters, DEADLINE_ATTR, ERROR_ATTR};

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

/// How many entries an [`InlineList`] stores without touching the heap.
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

/// A finished span's key/value annotations, in recording order. Keys
/// are `&'static str` (attribute vocabularies are fixed at compile
/// time); values are [`SpanName`]s: a static value or a shared string
/// is handed over as is, a number is rendered when the record is
/// materialized.
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

/// An attribute value as a span records it: a string symbol, or a
/// number rendered only when the span is exported.
#[derive(Debug, Clone, PartialEq)]
pub enum AttrValue {
    /// A static or shared string. A static one is stored as a symbol;
    /// a shared one goes to the span's spill.
    Str(SpanName),
    /// A number, rendered in decimal at export.
    Num(u64),
}

impl From<&'static str> for AttrValue {
    fn from(s: &'static str) -> Self {
        AttrValue::Str(SpanName::Static(s))
    }
}

impl From<String> for AttrValue {
    fn from(s: String) -> Self {
        AttrValue::Str(s.into())
    }
}

impl From<Arc<str>> for AttrValue {
    fn from(s: Arc<str>) -> Self {
        AttrValue::Str(SpanName::Shared(s))
    }
}

impl From<SpanName> for AttrValue {
    fn from(name: SpanName) -> Self {
        AttrValue::Str(name)
    }
}

impl From<u64> for AttrValue {
    fn from(n: u64) -> Self {
        AttrValue::Num(n)
    }
}

/// Attribute slots a record holds inline: the device net span carries
/// four (`method`, `host`, `path`, `status`), every other span one or
/// two.
const ATTR_SLOTS: usize = 4;

/// Event slots a record holds inline: layer spans record one or two
/// (`cache_hit`, `admitted`, `attempt`); a retried call spills.
const EVENT_SLOTS: usize = 2;

/// `Record::flags`: the name is the record's first spill entry.
const SHARED_NAME: u8 = 1;

/// `Record::flags`: an event went to the spill, so every later one does
/// too and the export keeps them in order.
const EVENTS_SPILLED: u8 = 2;

/// `Record::flags`: the record carries an attribute that trace
/// promotion reads (`error` or `deadline`). A root without one is not
/// classified unless the policy has latency thresholds.
const PROMOTION_ATTR: u8 = 4;

/// How an attribute slot stores its value.
#[derive(Clone, Copy, Default)]
enum ValueKind {
    /// The value is `sym`.
    #[default]
    Sym,
    /// The value is `word`, in decimal.
    Num,
    /// The value is the string in the record's spill entry `word`.
    Spilled,
}

/// One attribute: 16 bytes, no destructor.
#[derive(Clone, Copy, Default)]
struct Attr {
    key: Sym,
    sym: Sym,
    kind: ValueKind,
    word: u64,
}

/// One event: its name and its offset from the span's start.
#[derive(Clone, Copy, Default)]
struct Event {
    name: Sym,
    offset: u32,
}

/// A span as the recording path stores it: fixed-size and `Copy`, so
/// filing it is one copy and overwriting it in a ring runs no
/// destructor. Whatever does not fit is in the record's spill.
#[derive(Clone, Copy)]
struct Record {
    trace_id: u64,
    span_id: u64,
    /// 0 for a trace root: ids start at 1.
    parent_id: u64,
    start_ms: u64,
    end_ms: u64,
    attrs: [Attr; ATTR_SLOTS],
    events: [Event; EVENT_SLOTS],
    name: Sym,
    plane: Plane,
    attr_len: u8,
    event_len: u8,
    flags: u8,
    /// How many spill entries the record owns.
    spilled: u16,
}

impl Record {
    fn is_root(&self) -> bool {
        self.parent_id == 0
    }
}

/// A part of a span that does not fit its record.
#[derive(Clone)]
enum Spilled {
    /// A shared span name or string attribute value.
    Str(Arc<str>),
    /// An attribute past the inline slots.
    Attr(Attr),
    /// An event past the inline slots, or too far from the start for
    /// an offset: its name and time.
    Event(Sym, u64),
}

/// A record read together with its spill entries, in push order.
struct View<'a, I> {
    record: &'a Record,
    spill: I,
}

impl<'a, I: Iterator<Item = &'a Spilled> + Clone> View<'a, I> {
    /// The string in spill entry `index`.
    fn text(&self, index: u64) -> &'a Arc<str> {
        let entry = usize::try_from(index)
            .ok()
            .and_then(|index| self.spill.clone().nth(index));
        match entry {
            Some(Spilled::Str(s)) => s,
            _ => unreachable!("a spilled value indexes a string entry of its record"),
        }
    }

    fn name(&self) -> &'a str {
        if self.record.flags & SHARED_NAME != 0 {
            self.text(0)
        } else {
            self.record.name.as_str()
        }
    }

    fn value(&self, attr: &Attr) -> SpanName {
        match attr.kind {
            ValueKind::Sym => SpanName::Static(attr.sym.as_str()),
            ValueKind::Num => SpanName::from(attr.word.to_string()),
            ValueKind::Spilled => SpanName::Shared(Arc::clone(self.text(attr.word))),
        }
    }

    /// The attributes in the order they were recorded.
    fn attrs(&self) -> impl Iterator<Item = &'a Attr> {
        let record = self.record;
        let spilled = self.spill.clone().filter_map(|entry| match entry {
            Spilled::Attr(attr) => Some(attr),
            _ => None,
        });
        record.attrs[..usize::from(record.attr_len)]
            .iter()
            .chain(spilled)
    }

    /// The first value recorded under `key`.
    fn attr(&self, key: &str) -> Option<SpanName> {
        let attr = self.attrs().find(|attr| attr.key.as_str() == key)?;
        Some(self.value(attr))
    }

    /// The export form.
    fn materialize(&self) -> SpanRecord {
        let record = self.record;
        let name = if record.flags & SHARED_NAME != 0 {
            SpanName::Shared(Arc::clone(self.text(0)))
        } else {
            SpanName::Static(record.name.as_str())
        };
        let mut attrs = AttrList::default();
        for attr in self.attrs() {
            attrs.push(attr.key.as_str(), self.value(attr));
        }
        let mut events = EventList::default();
        for event in &record.events[..usize::from(record.event_len)] {
            events.push(SpanEvent {
                name: event.name.as_str(),
                at_ms: record.start_ms + u64::from(event.offset),
            });
        }
        for entry in self.spill.clone() {
            if let Spilled::Event(name, at_ms) = entry {
                events.push(SpanEvent {
                    name: name.as_str(),
                    at_ms: *at_ms,
                });
            }
        }
        SpanRecord {
            trace_id: TraceId(record.trace_id),
            span_id: SpanId(record.span_id),
            parent_id: (!record.is_root()).then_some(SpanId(record.parent_id)),
            name,
            plane: record.plane,
            start_ms: record.start_ms,
            end_ms: record.end_ms,
            events,
            attrs,
        }
    }
}

/// A promoted trace as the ring held it: its resident records, root
/// last, and their spill entries in the same order, each in one
/// exact-size buffer. It is materialized only when it is read.
pub(crate) struct CompactTrace {
    records: Box<[Record]>,
    spill: Box<[Spilled]>,
}

impl CompactTrace {
    /// The export form of every record, oldest first (root last).
    pub(crate) fn materialize(&self) -> Vec<SpanRecord> {
        let mut at = 0;
        self.records
            .iter()
            .map(|record| {
                let end = at + usize::from(record.spilled);
                let view = View {
                    record,
                    spill: self.spill[at..end].iter(),
                };
                at = end;
                view.materialize()
            })
            .collect()
    }
}

impl fmt::Debug for CompactTrace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CompactTrace")
            .field("records", &self.records.len())
            .field("spilled", &self.spill.len())
            .finish()
    }
}

/// A fixed-capacity overwrite-oldest ring. `slots` grows (within its
/// pre-allocated capacity) until full; after that `next` is the write
/// cursor and doubles as the index of the oldest resident record.
/// `spill` holds the resident records' spill entries in the same
/// order, so the oldest record's entries are always at its front.
struct Ring {
    slots: Vec<Record>,
    spill: VecDeque<Spilled>,
    next: usize,
    capacity: usize,
    /// Records overwritten because the ring wrapped around.
    evicted: u64,
}

impl Ring {
    fn with_capacity(capacity: usize) -> Self {
        Self {
            slots: Vec::with_capacity(capacity),
            spill: VecDeque::with_capacity(capacity),
            next: 0,
            capacity,
            evicted: 0,
        }
    }

    /// Files one record and its spill entries, overwriting the oldest
    /// resident record (and freeing its spill entries, if it has any)
    /// when the ring is full. Returns `true` when a record was evicted.
    fn push(&mut self, record: Record, spill: impl Iterator<Item = Spilled>) -> bool {
        let evicted = if self.slots.len() < self.capacity {
            self.slots.push(record);
            false
        } else {
            let slot = &mut self.slots[self.next];
            if slot.spilled > 0 {
                self.spill.drain(..usize::from(slot.spilled));
            }
            *slot = record;
            self.next += 1;
            if self.next == self.capacity {
                self.next = 0;
            }
            self.evicted += 1;
            true
        };
        if record.spilled > 0 {
            self.spill.extend(spill);
        }
        evicted
    }

    /// Every resident record with its spill entries, oldest first.
    fn views(&self) -> impl Iterator<Item = View<'_, vec_deque::Iter<'_, Spilled>>> {
        let mut at = 0;
        let (newer, older) = self.slots.split_at(self.next);
        older.iter().chain(newer).map(move |record| {
            let end = at + usize::from(record.spilled);
            let view = View {
                record,
                spill: self.spill.range(at..end),
            };
            at = end;
            view
        })
    }

    /// Materializes every resident record, oldest first.
    fn snapshot_into(&self, out: &mut Vec<SpanRecord>) {
        out.extend(self.views().map(|view| view.materialize()));
    }

    /// Copies the resident records of `root`'s trace, oldest first,
    /// then `root`, each with its spill entries (`root_spill` for the
    /// root): the trace as the ring holds it, in exact-size buffers.
    fn copy_trace(&self, root: &Record, root_spill: &[Spilled]) -> CompactTrace {
        let trace = || {
            self.views()
                .filter(|view| view.record.trace_id == root.trace_id)
        };
        let (records, spilled) = trace().fold((1, root_spill.len()), |(records, spilled), view| {
            (records + 1, spilled + usize::from(view.record.spilled))
        });
        let mut records = Vec::with_capacity(records);
        let mut spill = Vec::with_capacity(spilled);
        for view in trace() {
            records.push(*view.record);
            spill.extend(view.spill.cloned());
        }
        records.push(*root);
        spill.extend_from_slice(root_spill);
        CompactTrace {
            records: records.into_boxed_slice(),
            spill: spill.into_boxed_slice(),
        }
    }

    /// Materializes every resident record (oldest first) and empties
    /// the ring, which keeps its capacity.
    fn drain(&mut self) -> Vec<SpanRecord> {
        let mut out = Vec::with_capacity(self.slots.len());
        self.snapshot_into(&mut out);
        self.slots.clear();
        self.spill.clear();
        self.next = 0;
        out
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
    /// Every sink ever registered, in registration order. Only locked
    /// on sink creation and on drain — never on the recording path.
    sinks: Mutex<Vec<Arc<Mutex<Ring>>>>,
    /// Tail-based promotion: classifies closing trace roots and keeps
    /// the interesting trace trees. Fixed at construction.
    recorder: Option<Recorder>,
    /// Registry counters mirroring the eviction/promotion totals, so
    /// the flight recorder's health shows up in a Prometheus scrape.
    counters: OnceLock<RecorderCounters>,
}

static NEXT_TRACER_ID: AtomicU64 = AtomicU64::new(1);

/// Hashes a tracer id with one multiply (Fibonacci hashing). Tracer ids
/// are sequential and process-local, so SipHash's flooding resistance
/// buys nothing on a lookup every trace root pays; the multiply spreads
/// the id over the high bits the table probes with.
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
            .map(|ring| ring.lock().slots.len())
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
        Self::build(retention, None)
    }

    /// A tracer with tail-based promotion by `recorder`.
    pub fn with_recorder(retention: usize, recorder: Recorder) -> Self {
        Self::build(retention, Some(recorder))
    }

    fn build(retention: usize, recorder: Option<Recorder>) -> Self {
        Self {
            inner: Arc::new(TracerInner {
                id: NEXT_TRACER_ID.fetch_add(1, Ordering::Relaxed),
                next_id: AtomicU64::new(1),
                retention: retention.max(1),
                sinks: Mutex::new(Vec::new()),
                recorder,
                counters: OnceLock::new(),
            }),
        }
    }

    /// The per-thread sink capacity.
    pub fn retention(&self) -> usize {
        self.inner.retention
    }

    /// How many spans have been overwritten by newer records because a
    /// full ring wrapped around.
    pub fn evicted_spans(&self) -> u64 {
        let sinks = self.inner.sinks.lock();
        sinks.iter().map(|ring| ring.lock().evicted).sum()
    }

    /// Mirrors eviction/promotion totals into registry
    /// [`Counter`](crate::Counter)s
    /// (see [`RecorderCounters`]). The first install wins.
    pub fn install_counters(&self, counters: RecorderCounters) -> bool {
        self.inner.counters.set(counters).is_ok()
    }

    /// The promotion recorder, if any.
    pub fn recorder(&self) -> Option<&Recorder> {
        self.inner.recorder.as_ref()
    }

    /// The incident store holding promoted traces, when the tracer has
    /// a recorder.
    pub fn incident_store(&self) -> Option<&Arc<IncidentStore>> {
        self.recorder().map(Recorder::store)
    }

    /// The process-unique tracer identity (keys thread-local state).
    pub(crate) fn id(&self) -> u64 {
        self.inner.id
    }

    /// Reserves `count` consecutive ids and returns the first.
    fn fresh_ids(&self, count: u64) -> u64 {
        self.inner.next_id.fetch_add(count, Ordering::Relaxed)
    }

    /// Starts a new trace with a root span and pushes it onto the
    /// ambient stack.
    pub fn root(&self, name: impl Into<SpanName>, plane: Plane, now_ms: u64) -> ActiveSpan {
        let (ctx, parent_id) = ambient::push_in(self, None);
        ActiveSpan::open(ctx, parent_id, name.into(), plane, now_ms)
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
        let (ctx, parent_id) = ambient::push_in(self, Some(parent));
        ActiveSpan::open(ctx, parent_id, name.into(), plane, now_ms)
    }

    /// Opens a child of the innermost open span, in that span's tracer,
    /// or — when no span is open on this thread — a new trace root in
    /// this tracer: [`ambient::child`] falling back to
    /// [`Tracer::root`], under one thread-local access.
    pub fn span(&self, name: impl Into<SpanName>, plane: Plane, now_ms: u64) -> ActiveSpan {
        let (ctx, parent_id) = ambient::push_child_or_root(self);
        ActiveSpan::open(ctx, parent_id, name.into(), plane, now_ms)
    }

    /// Files a batch of finished records, in finish order, into `ring`
    /// (this thread's ring for this tracer) under one ring lock. `spill`
    /// holds the records' spill entries in the same order. When the
    /// ring is full the oldest record is overwritten in place;
    /// evictions are summed into one add on the registry counter. Both
    /// buffers are left empty with their capacity intact.
    ///
    /// Tail-based promotion happens here: a **root** record closing
    /// means its trace is complete — in this synchronous world every
    /// child was filed into the same thread-local ring before it, or
    /// precedes it in the batch — so the tracer's [`Recorder`]
    /// classifies the root and, if the outcome is interesting and the
    /// incident store still has room, the trace tree's compact records
    /// are copied out *after* the children are filed and *before* the
    /// root is (the copied set is exactly the resident children plus
    /// the root). Nothing is materialized here.
    /// A batch holds at most one root, its last record: the ambient
    /// stack batches only non-root records behind the outermost root.
    fn file(&self, ring: &Mutex<Ring>, batch: &mut Vec<Record>, spill: &mut Vec<Spilled>) {
        let root = batch.last().copied().filter(Record::is_root);
        let promotion = root
            .zip(self.inner.recorder.as_ref())
            .filter(|(root, recorder)| {
                root.flags & PROMOTION_ATTR != 0 || recorder.policy().reads_durations()
            })
            .and_then(|(root, recorder)| {
                let tail = spill.len() - usize::from(root.spilled);
                let view = View {
                    record: &root,
                    spill: spill[tail..].iter(),
                };
                let reason = recorder.policy().classify(
                    view.name(),
                    root.end_ms - root.start_ms,
                    |key| view.attr(key),
                )?;
                Some((recorder, reason, recorder.has_room().then_some(root)))
            });
        let children = batch.len() - usize::from(root.is_some());
        let mut entries = spill.drain(..);
        let mut ring = ring.lock();
        let evicted_before = ring.evicted;
        for record in &batch[..children] {
            ring.push(*record, entries.by_ref().take(usize::from(record.spilled)));
        }
        let promotion = promotion.map(|(recorder, reason, copy)| {
            // What `entries` still holds is the root's spill.
            let trace = copy.map(|root| ring.copy_trace(&root, entries.as_slice()));
            (recorder, reason, trace)
        });
        if let Some(root) = root {
            ring.push(root, entries);
        }
        let evicted = ring.evicted - evicted_before;
        drop(ring);
        batch.clear();
        let counters = self.inner.counters.get();
        if let (true, Some(counters)) = (evicted > 0, counters) {
            counters.evicted.add(evicted);
        }
        if let (Some((recorder, reason, trace)), Some(root)) = (promotion, root) {
            recorder.promote(
                self.inner.id,
                TraceId(root.trace_id),
                reason,
                trace,
                counters,
            );
        }
    }

    /// A copy of every finished span: oldest-first within each sink,
    /// sinks in registration order (on one thread that is plain finish
    /// order for the retained suffix).
    ///
    /// The descendants of a trace root that is still open are not
    /// filed yet: the recording thread batches them and files them when
    /// the root closes, so until then no caller — on any thread — sees
    /// them here. Nested roots are filed as they close.
    pub fn finished(&self) -> Vec<SpanRecord> {
        let sinks = self.inner.sinks.lock();
        let mut out = Vec::new();
        for ring in sinks.iter() {
            ring.lock().snapshot_into(&mut out);
        }
        out
    }

    /// Drains the finished spans (oldest-first within each sink),
    /// leaving the tracer empty. The rings keep their capacity, so
    /// recording after a drain still does not reallocate.
    pub fn take_finished(&self) -> Vec<SpanRecord> {
        let sinks = self.inner.sinks.lock();
        let mut out = Vec::new();
        for ring in sinks.iter() {
            out.append(&mut ring.lock().drain());
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
    /// The record being written; its `span_id` is 0 once it is filed.
    record: Record,
    /// The record's spill entries. Empty and unallocated until the
    /// first entry, when it takes a cleared buffer from the thread's
    /// pool; closing the span returns the buffer there.
    spill: Vec<Spilled>,
    _same_thread: PhantomData<*const ()>,
}

impl ActiveSpan {
    /// A span opened under `ctx` whose frame is already on the ambient
    /// stack; `parent_id` is 0 for a root.
    #[inline]
    fn open(ctx: TraceContext, parent_id: u64, name: SpanName, plane: Plane, now_ms: u64) -> Self {
        // Everything is computed before the span is built, so it is
        // written once, in place.
        let (name, flags, spill) = match name {
            SpanName::Static(name) => (Sym::of(name), 0, Vec::new()),
            SpanName::Shared(name) => {
                let mut spill = ambient::spare_spill();
                spill.push(Spilled::Str(name));
                (Sym::default(), SHARED_NAME, spill)
            }
        };
        Self {
            record: Record {
                trace_id: ctx.trace_id.0,
                span_id: ctx.span_id.0,
                parent_id,
                start_ms: now_ms,
                end_ms: now_ms,
                attrs: [Attr::default(); ATTR_SLOTS],
                events: [Event::default(); EVENT_SLOTS],
                name,
                plane,
                attr_len: 0,
                event_len: 0,
                flags,
                spilled: spill.len() as u16,
            },
            spill,
            _same_thread: PhantomData,
        }
    }

    /// Appends a spill entry and returns its index, or `None` once the
    /// record owns `u16::MAX` entries (the entry is then dropped).
    fn spill(&mut self, entry: Spilled) -> Option<u64> {
        let index = self.record.spilled;
        self.record.spilled = index.checked_add(1)?;
        if self.spill.capacity() == 0 {
            self.spill = ambient::spare_spill();
        }
        self.spill.push(entry);
        Some(u64::from(index))
    }

    /// The propagatable identity of this span.
    pub fn context(&self) -> TraceContext {
        TraceContext {
            trace_id: TraceId(self.record.trace_id),
            span_id: SpanId(self.record.span_id),
        }
    }

    /// Records a point event at `at_ms` virtual time.
    pub fn event(&mut self, name: &'static str, at_ms: u64) {
        let name = Sym::of(name);
        let record = &mut self.record;
        let offset = at_ms
            .checked_sub(record.start_ms)
            .and_then(|offset| u32::try_from(offset).ok());
        let slot = usize::from(record.event_len);
        match offset {
            Some(offset) if slot < EVENT_SLOTS && record.flags & EVENTS_SPILLED == 0 => {
                record.events[slot] = Event { name, offset };
                record.event_len += 1;
            }
            _ => {
                record.flags |= EVENTS_SPILLED;
                self.spill(Spilled::Event(name, at_ms));
            }
        }
    }

    /// Attaches (or appends) a key/value annotation. Static strings and
    /// numbers are stored in the record; a shared or owned string is
    /// moved to the spill, never copied.
    pub fn attr(&mut self, key: &'static str, value: impl Into<AttrValue>) {
        // Folds away where `key` is a literal, as on every hot path.
        if key == ERROR_ATTR || key == DEADLINE_ATTR {
            self.record.flags |= PROMOTION_ATTR;
        }
        let mut attr = Attr {
            key: Sym::of(key),
            ..Attr::default()
        };
        match value.into() {
            AttrValue::Str(SpanName::Static(s)) => attr.sym = Sym::of(s),
            AttrValue::Str(SpanName::Shared(s)) => {
                let Some(index) = self.spill(Spilled::Str(s)) else {
                    return;
                };
                attr.kind = ValueKind::Spilled;
                attr.word = index;
            }
            AttrValue::Num(n) => {
                attr.kind = ValueKind::Num;
                attr.word = n;
            }
        }
        let slot = usize::from(self.record.attr_len);
        if slot < ATTR_SLOTS {
            self.record.attrs[slot] = attr;
            self.record.attr_len += 1;
        } else {
            self.spill(Spilled::Attr(attr));
        }
    }

    /// Closes the span at `now_ms` and files the record with the
    /// tracer. Ends before the start are clamped to zero duration.
    pub fn end(mut self, now_ms: u64) {
        self.finish(now_ms);
    }

    fn finish(&mut self, now_ms: u64) {
        if self.record.span_id == 0 {
            return;
        }
        self.record.end_ms = now_ms.max(self.record.start_ms);
        ambient::close(&self.record, &mut self.spill);
        self.record.span_id = 0;
    }
}

impl Drop for ActiveSpan {
    fn drop(&mut self) {
        let started = self.record.start_ms;
        self.finish(started);
    }
}

/// The ambient span stack: implicit parenting for layers that are not
/// telemetry-aware in their signatures.
pub mod ambient {
    use std::cell::RefCell;
    use std::collections::HashMap;
    use std::hash::BuildHasherDefault;
    use std::sync::Arc;

    use parking_lot::Mutex;

    use super::{
        ActiveSpan, Plane, Record, Ring, SpanId, SpanName, Spilled, Tracer, TracerIdHasher,
    };
    use crate::context::TraceContext;

    /// One open span.
    struct Frame {
        ctx: TraceContext,
        /// Index of the span's sink in [`Ambient::sinks`].
        sink: usize,
        /// Whether the span is a trace root (opened by [`Tracer::root`]
        /// or [`Tracer::span`] with nothing open).
        root: bool,
    }

    /// This thread's ring for one tracer, and the tracer it files into.
    struct Sink {
        tracer: Tracer,
        ring: Arc<Mutex<Ring>>,
    }

    /// This thread's open spans, the finished records waiting for the
    /// outermost root to close, and its sinks.
    struct Ambient {
        stack: Vec<Frame>,
        /// Finished records filing into `stack[0]`'s ring, in finish
        /// order, filed with it when it closes. Only non-empty while
        /// `stack[0]` is a trace root; cleared, never freed.
        pending: Vec<Record>,
        /// The spill entries of `pending`, in the same order.
        pending_spill: Vec<Spilled>,
        /// Cleared spill buffers of closed spans, lent to the next spans
        /// that spill, so a span's spill stops allocating once warm.
        spare: Vec<Vec<Spilled>>,
        /// Every sink this thread has opened a span for, in first-use
        /// order. A sink whose tracer only this table still holds is
        /// dropped, ring and all, by the next [`Ambient::prune`].
        sinks: Vec<Sink>,
        /// `sinks` index by tracer id.
        by_tracer: HashMap<u64, usize, BuildHasherDefault<TracerIdHasher>>,
        /// The length of `sinks` at which the next new sink prunes
        /// first.
        prune_at: usize,
    }

    impl Ambient {
        /// The index of this thread's sink for `tracer`, creating and
        /// registering it on first use.
        fn sink_of(&mut self, tracer: &Tracer) -> usize {
            if let Some(&index) = self.by_tracer.get(&tracer.id()) {
                return index;
            }
            if self.stack.is_empty() && self.sinks.len() >= self.prune_at {
                self.prune();
            }
            let ring = Arc::new(Mutex::new(Ring::with_capacity(tracer.retention())));
            tracer.inner.sinks.lock().push(Arc::clone(&ring));
            let index = self.sinks.len();
            self.sinks.push(Sink {
                tracer: tracer.clone(),
                ring,
            });
            self.by_tracer.insert(tracer.id(), index);
            index
        }

        /// Drops the sinks of the tracers that only this table still
        /// holds: their owners are gone, so no span can file into them
        /// again and nobody can read their rings. Runs only while no
        /// frame is open, because frames index `sinks`. The next prune
        /// waits until the table has doubled, so a new sink pays O(1)
        /// amortized for it.
        ///
        /// A tracer that traced on several threads stays until all but
        /// one of them have exited, because each of their tables holds
        /// it.
        fn prune(&mut self) {
            self.sinks
                .retain(|sink| Arc::strong_count(&sink.tracer.inner) > 1);
            self.by_tracer.clear();
            for (index, sink) in self.sinks.iter().enumerate() {
                self.by_tracer.insert(sink.tracer.id(), index);
            }
            self.prune_at = (2 * self.sinks.len()).max(1);
        }

        /// Pushes a frame in `tracer`: a root when `parent` is `None`.
        fn push_in(
            &mut self,
            tracer: &Tracer,
            parent: Option<TraceContext>,
        ) -> (TraceContext, u64) {
            let sink = self.sink_of(tracer);
            // A root mints its trace id and span id with one add.
            let (ctx, parent_id) = match parent {
                Some(parent) => {
                    let span_id = SpanId(tracer.fresh_ids(1));
                    (TraceContext { span_id, ..parent }, parent.span_id.0)
                }
                None => {
                    let trace_id = tracer.fresh_ids(2);
                    let ctx = TraceContext {
                        trace_id: super::TraceId(trace_id),
                        span_id: SpanId(trace_id + 1),
                    };
                    (ctx, 0)
                }
            };
            self.stack.push(Frame {
                ctx,
                sink,
                root: parent.is_none(),
            });
            (ctx, parent_id)
        }

        /// Pushes a frame in the innermost open span's tracer, under
        /// `parent` (that span when `None`); `None` when no span is
        /// open.
        fn push_child(&mut self, parent: Option<TraceContext>) -> Option<(TraceContext, u64)> {
            let top = self.stack.last()?;
            let parent = parent.unwrap_or(top.ctx);
            let sink = top.sink;
            let ctx = TraceContext {
                trace_id: parent.trace_id,
                span_id: SpanId(self.sinks[sink].tracer.fresh_ids(1)),
            };
            self.stack.push(Frame {
                ctx,
                sink,
                root: false,
            });
            Some((ctx, parent.span_id.0))
        }

        /// Files `pending` into sink `sink`.
        fn file_pending(&mut self, sink: usize) {
            let Sink { tracer, ring } = &self.sinks[sink];
            tracer.file(ring, &mut self.pending, &mut self.pending_spill);
        }
    }

    thread_local! {
        static AMBIENT: RefCell<Ambient> = const {
            RefCell::new(Ambient {
                stack: Vec::new(),
                pending: Vec::new(),
                pending_spill: Vec::new(),
                spare: Vec::new(),
                sinks: Vec::new(),
                by_tracer: HashMap::with_hasher(BuildHasherDefault::new()),
                prune_at: 1,
            })
        };
    }

    /// Pushes the frame of a span opened through `tracer`: a new trace
    /// root, or a child of the explicit `parent`. Returns the span's
    /// context and its parent id (0 for a root).
    pub(super) fn push_in(tracer: &Tracer, parent: Option<TraceContext>) -> (TraceContext, u64) {
        AMBIENT.with_borrow_mut(|ambient| ambient.push_in(tracer, parent))
    }

    /// Pushes the frame of a child of the innermost open span or, when
    /// none is open, of a new root in `tracer`.
    pub(super) fn push_child_or_root(tracer: &Tracer) -> (TraceContext, u64) {
        AMBIENT.with_borrow_mut(|ambient| {
            ambient
                .push_child(None)
                .unwrap_or_else(|| ambient.push_in(tracer, None))
        })
    }

    /// Most spare spill buffers a thread keeps.
    const SPARE_SPILLS: usize = 64;

    /// A cleared spill buffer from this thread's pool, or a new empty
    /// one.
    pub(super) fn spare_spill() -> Vec<Spilled> {
        AMBIENT.with_borrow_mut(|ambient| ambient.spare.pop().unwrap_or_default())
    }

    /// Removes the frame of `record`'s span and files the record with
    /// its spill entries, returning the emptied `spill` buffer to the
    /// thread's pool.
    ///
    /// While the outermost open span is a trace root, the records of
    /// the other spans that file into its ring are batched and filed
    /// together with the root when it closes. Everything else — a
    /// nested root, a span on another tracer's ring, a span closed out
    /// of order — is filed at once, after the batch, so every ring
    /// still receives its records in finish order. A record whose frame
    /// is gone is dropped.
    pub(super) fn close(record: &Record, spill: &mut Vec<Spilled>) {
        AMBIENT.with_borrow_mut(|ambient| {
            let stack = &mut ambient.stack;
            let Some(idx) = stack
                .iter()
                .rposition(|frame| frame.ctx.span_id.0 == record.span_id)
            else {
                return;
            };
            let outer = &stack[0];
            let frame = &stack[idx];
            let batched = idx + 1 == stack.len()
                && outer.root
                && outer.sink == frame.sink
                && (idx == 0 || !frame.root);
            let outer_sink = outer.sink;
            let sink = frame.sink;
            if idx + 1 == stack.len() {
                stack.pop();
            } else {
                stack.remove(idx);
            }
            if !batched && !ambient.pending.is_empty() {
                ambient.file_pending(outer_sink);
            }
            ambient.pending.push(*record);
            if spill.capacity() > 0 {
                ambient.pending_spill.append(spill);
                if ambient.spare.len() < SPARE_SPILLS {
                    ambient.spare.push(std::mem::take(spill));
                }
            }
            if !batched || idx == 0 {
                ambient.file_pending(sink);
            }
        });
    }

    /// The innermost open span's context on this thread, if any.
    pub fn current() -> Option<TraceContext> {
        AMBIENT.with_borrow(|ambient| ambient.stack.last().map(|frame| frame.ctx))
    }

    /// Opens a child of the innermost open span, using its tracer.
    /// Returns `None` (and records nothing) when no span is open —
    /// instrumented code paths are free when telemetry is off. The
    /// name is only converted when a span is actually opened.
    pub fn child(name: impl Into<SpanName>, plane: Plane, now_ms: u64) -> Option<ActiveSpan> {
        let (ctx, parent_id) = AMBIENT.with_borrow_mut(|ambient| ambient.push_child(None))?;
        Some(ActiveSpan::open(ctx, parent_id, name.into(), plane, now_ms))
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
        let (ctx, parent_id) =
            AMBIENT.with_borrow_mut(|ambient| ambient.push_child(Some(parent)))?;
        Some(ActiveSpan::open(ctx, parent_id, name.into(), plane, now_ms))
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

    #[test]
    fn a_dropped_tracers_ring_goes_with_the_next_new_sink() {
        let live = Tracer::new();
        live.root("live", Plane::App, 0).end(1);
        let dropped = Tracer::with_retention(4);
        dropped.root("gone", Plane::App, 0).end(1);
        let inner = Arc::downgrade(&dropped.inner);
        drop(dropped);
        assert!(
            inner.upgrade().is_some(),
            "the thread's table still holds it"
        );
        // A new sink under an open frame prunes nothing: the open frame
        // indexes the table.
        let outer = live.root("outer", Plane::App, 2);
        let nested = Tracer::new();
        nested.root("nested", Plane::App, 3).end(4);
        outer.end(5);
        assert!(inner.upgrade().is_some(), "no prune under an open frame");
        // With nothing open, the next new sink drops it, ring and all.
        Tracer::new().root("next", Plane::App, 6).end(7);
        assert!(inner.upgrade().is_none(), "the dropped tracer was freed");
        // The live tracers keep their rings and still file into them.
        live.root("again", Plane::App, 8).end(9);
        assert_eq!(names(&live.finished()), ["live", "outer", "again"]);
        nested.root("nested again", Plane::App, 10).end(11);
        assert_eq!(names(&nested.finished()), ["nested", "nested again"]);
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
    fn the_stored_record_is_at_most_half_a_span_record() {
        assert!(std::mem::size_of::<Record>() <= 128);
        assert!(std::mem::size_of::<Record>() * 2 <= std::mem::size_of::<SpanRecord>());
    }

    fn attrs(span: &SpanRecord) -> Vec<(&'static str, &str)> {
        span.attrs.iter().collect()
    }

    #[test]
    fn four_attributes_and_an_owned_value_read_back_through_a_wrapping_ring() {
        let tracer = recording(4);
        let host: Arc<str> = Arc::from("wfm.example");
        for i in 0..100u64 {
            let mut root = tracer.root("proxy:Http.request", Plane::Proxy, i * 10);
            let mut net = ambient::child("device:net.request", Plane::Device, i * 10).unwrap();
            net.attr("method", "GET");
            net.attr("host", Arc::clone(&host));
            net.attr("path", format!("/tasks/{i}"));
            net.attr("status", 200u64);
            net.end(i * 10 + 1);
            if i % 10 == 9 {
                root.attr("error", "Timeout");
            }
            root.end(i * 10 + 2);
        }
        let expected = |i: u64| {
            vec![
                ("method", "GET".to_owned()),
                ("host", "wfm.example".to_owned()),
                ("path", format!("/tasks/{i}")),
                ("status", "200".to_owned()),
            ]
        };
        let owned = |span: &SpanRecord| -> Vec<(&'static str, String)> {
            attrs(span)
                .into_iter()
                .map(|(k, v)| (k, v.to_owned()))
                .collect()
        };

        // The ring kept the last two traces, oldest first.
        let spans = tracer.finished();
        assert_eq!(
            names(&spans),
            ["device:net.request", "proxy:Http.request"].repeat(2)
        );
        assert_eq!(owned(&spans[0]), expected(98));
        assert_eq!(owned(&spans[2]), expected(99));
        assert_eq!(attrs(&spans[3]), [("error", "Timeout")]);
        assert_eq!(tracer.evicted_spans(), 196);

        // Every tenth trace was promoted whole, the spilled values included.
        let traces = tracer.incident_store().unwrap().traces();
        assert_eq!(traces.len(), 10);
        for (n, trace) in traces.iter().enumerate() {
            assert!(trace.complete);
            assert_eq!(owned(&trace.spans[0]), expected(n as u64 * 10 + 9));
            assert_eq!(trace.spans[1].parent_id, None);
        }

        // The ring freed every overwritten spill: the shared host is held
        // by the two resident net spans and the ten promoted ones only.
        drop((spans, traces));
        assert_eq!(Arc::strong_count(&host), 1 + 2 + 10);
        tracer.take_finished();
        assert_eq!(Arc::strong_count(&host), 1 + 10);
    }

    #[test]
    fn spilled_parts_keep_their_order() {
        let tracer = Tracer::with_retention(8);
        let name: Arc<str> = Arc::from("bridge:Custom.call");
        let mut span = tracer.root(SpanName::Shared(Arc::clone(&name)), Plane::Bridge, 100);
        span.event("early", 99);
        span.event("first", 100);
        for (key, value) in [("a", 1u64), ("b", 2), ("c", 3), ("d", 4), ("e", 5)] {
            span.attr(key, value);
        }
        span.attr("lsn", "lsn:7");
        span.event("second", 101);
        span.event("far", 100 + u64::from(u32::MAX) + 1);
        span.end(102);

        let record = &tracer.finished()[0];
        assert_eq!(record.name, SpanName::Shared(name));
        assert_eq!(
            attrs(record),
            [
                ("a", "1"),
                ("b", "2"),
                ("c", "3"),
                ("d", "4"),
                ("e", "5"),
                ("lsn", "lsn:7")
            ]
        );
        let events: Vec<(&str, u64)> = record.events.iter().map(|e| (e.name, e.at_ms)).collect();
        assert_eq!(
            events,
            [
                ("early", 99),
                ("first", 100),
                ("second", 101),
                ("far", 100 + u64::from(u32::MAX) + 1)
            ],
            "once an event spills, the later ones follow it"
        );
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
