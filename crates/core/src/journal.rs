//! Crash-fault tolerance for the mutating M-Proxy paths: a simulated
//! write-ahead journal, checkpoints, and idempotency keys.
//!
//! Every layer so far assumes the middleware process never dies: proxy
//! state, cache stamps and circuit breakers all live in memory, so a
//! crash silently loses accepted mutations and re-delivery duplicates
//! them. This module makes process death an ordinary fault class, the
//! same way the resilience layer absorbed transport faults and the
//! overload layer absorbed traffic storms:
//!
//! * a **[`Journal`]** — an append-only write-ahead log with length +
//!   FNV-1a checksum record framing, a volatile buffer drained to the
//!   durable image by an explicit [`Journal::fsync`] barrier, segment
//!   rotation at record boundaries, and torn-tail detection: recovery
//!   scans the durable image, truncates the first incomplete or
//!   checksum-corrupt frame, and replays only fully committed records;
//! * **checkpoint support** — a caller's state snapshot records
//!   [`Journal::durable_end`] as the high-water mark it covers and
//!   [`Journal::truncate_before`] drops the sealed segments below it,
//!   so recovery replays only the suffix past the checkpoint, never
//!   from genesis (the durable WFM server extends its snapshot
//!   incrementally);
//! * **[`IdempotencyKey`]s** — deterministic per `(seed, device,
//!   round, op)` and carried down the call path through an ambient
//!   per-thread scope ([`with_idempotency_key`]), exactly like the
//!   overload layer's deadlines. A mutation whose key is already
//!   journaled as committed is answered from the journal — the typed
//!   [`ProxyErrorKind::AlreadyApplied`] fast path, counted and
//!   converted back into the memoized success, never surfaced as a
//!   failure;
//! * the **journal layer** of the layer stack (`stack` module) for the mutating
//!   proxy surfaces (SMS send, HTTP submit, `setProperty`), which
//!   appends an intent record and crosses the fsync barrier *before*
//!   the side effect runs. It sits between the overload and resilience
//!   layers (`… → Overload → Journal → Resilience → …`), so shed calls
//!   burn no intent and resilience retries of one logical call never
//!   re-append.
//!
//! The fsync barrier charges a deterministic latency
//! ([`JournalPolicy::fsync_latency_ms`]) to the device's simulated
//! clock — the same "the caller advances its clock" convention the
//! network uses — so durability costs show up in latency distributions
//! while every run still replays bit-identically.

use std::cell::RefCell;
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

use parking_lot::Mutex;

use mobivine_device::Device;
use mobivine_telemetry::span::{ambient, Plane};

use crate::error::{ProxyError, ProxyErrorKind};
use crate::telemetry::layer_counters;

// ---------------------------------------------------------------------
// Checksums and framing
// ---------------------------------------------------------------------

/// The FNV-1a 64-bit offset basis.
const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;

/// FNV-1a over a byte slice — the journal's record checksum. The same
/// fold the fleet report uses, so a corrupt frame and a corrupt
/// checksum disagree with probability 1 − 2⁻⁶⁴ per bit pattern.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    fnv1a_fold(FNV_OFFSET, bytes)
}

/// Continues an FNV-1a hash over `bytes`, so a payload written in
/// parts checksums the same as the parts concatenated.
fn fnv1a_fold(mut hash: u64, bytes: &[u8]) -> u64 {
    for b in bytes {
        hash = (hash ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
}

/// Frame header size: `[u32 payload len LE][u64 FNV-1a checksum LE]`.
const FRAME_HEADER: usize = 12;

/// A log sequence number — a global byte offset into the journal's
/// durable image. Monotone, never reused, survives segment rotation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Lsn(pub u64);

impl fmt::Display for Lsn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "lsn:{}", self.0)
    }
}

// ---------------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------------

layer_counters! {
    /// Shared durability counters, updated by the journal, the
    /// journal layers and the recovery path, snapshotted by
    /// observability code.
    ///
    /// A standalone block ([`JournalMetrics::shared`]) counts
    /// privately; a registry-backed block
    /// ([`JournalMetrics::on_registry`]) publishes the same
    /// counters as `journal_<name>_total` series.
    JournalMetrics,
    /// A point-in-time copy of [`JournalMetrics`].
    JournalSnapshot,
    "journal",
    {
        /// Intent records appended (volatile until the next fsync).
        appends,
        /// fsync barriers crossed (volatile buffer drained durably).
        fsyncs,
        /// Segments sealed and rotated out of the active position.
        rotations,
        /// Torn tail records truncated during recovery (incomplete or
        /// checksum-corrupt frames that never committed).
        torn_truncated,
        /// Committed records replayed by recovery after a crash.
        replayed,
        /// Recovery passes completed (one per crash survived).
        recoveries,
        /// Mutations answered from the journal because their idempotency
        /// key was already committed — the `AlreadyApplied` fast path.
        already_applied,
        /// Checkpoints taken (state snapshot + high-water mark saved).
        checkpoints,
    }
}

impl JournalMetrics {
    /// Counts one `AlreadyApplied` fast-path hit (callers outside this
    /// module — e.g. a server-side durability layer — dedup too).
    pub fn note_already_applied(&self) {
        self.already_applied.inc();
    }

    /// Counts one checkpoint taken.
    pub fn note_checkpoint(&self) {
        self.checkpoints.inc();
    }
}

// ---------------------------------------------------------------------
// Policy
// ---------------------------------------------------------------------

/// Tunable knobs for the durability layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JournalPolicy {
    fsync_latency_ms: u64,
    segment_bytes: usize,
}

impl Default for JournalPolicy {
    /// One simulated millisecond per fsync barrier — cheap flash, not
    /// spinning rust — and 4 KiB segments so rotation actually happens
    /// at simulation scale.
    fn default() -> Self {
        Self {
            fsync_latency_ms: 1,
            segment_bytes: 4096,
        }
    }
}

impl JournalPolicy {
    /// Sets the simulated latency charged per fsync barrier.
    #[must_use]
    pub fn fsync_latency_ms(mut self, ms: u64) -> Self {
        self.fsync_latency_ms = ms;
        self
    }

    /// Sets the segment size; the active segment rotates at the first
    /// record boundary at or past this many bytes.
    #[must_use]
    pub fn segment_bytes(mut self, bytes: usize) -> Self {
        self.segment_bytes = bytes.max(FRAME_HEADER + 1);
        self
    }

    /// The configured fsync latency (virtual ms).
    pub fn fsync_latency(&self) -> u64 {
        self.fsync_latency_ms
    }

    /// The configured segment size (bytes).
    pub fn segment_size(&self) -> usize {
        self.segment_bytes
    }
}

// ---------------------------------------------------------------------
// The journal
// ---------------------------------------------------------------------

/// One sealed-or-active run of durable bytes.
#[derive(Debug, Clone)]
struct Segment {
    start_lsn: u64,
    bytes: Vec<u8>,
}

/// A committed record handed back by [`Journal::recover`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JournalRecord {
    /// The record's position (frame start) in the durable image.
    pub lsn: Lsn,
    /// The record payload, checksum-verified.
    pub payload: Vec<u8>,
}

/// The outcome of a recovery scan.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Recovery {
    /// Committed records at or past the scan origin, in LSN order.
    pub records: Vec<JournalRecord>,
    /// Torn-tail records truncated (0 or 1 per scan — a torn frame is
    /// always the last thing on disk).
    pub torn_records: u64,
    /// Bytes dropped with the torn tail.
    pub torn_bytes: u64,
}

/// A simulated append-only write-ahead log.
///
/// Appends land in a volatile buffer; [`Journal::fsync`] is the
/// durability barrier that moves them into the durable image (a list
/// of segments, rotated at record boundaries). [`Journal::crash`]
/// models process death: the volatile buffer is lost, except an
/// optional torn prefix that had reached the disk queue. Recovery
/// validates frames from a given LSN and truncates the torn tail.
#[derive(Debug)]
pub struct Journal {
    segments: Vec<Segment>,
    volatile: Vec<u8>,
    segment_bytes: usize,
    metrics: Arc<JournalMetrics>,
}

impl Journal {
    /// An empty journal rotating at `policy.segment_bytes`, counting
    /// into `metrics`.
    pub fn new(policy: &JournalPolicy, metrics: Arc<JournalMetrics>) -> Self {
        Self {
            segments: vec![Segment {
                start_lsn: 0,
                bytes: Vec::new(),
            }],
            volatile: Vec::new(),
            segment_bytes: policy.segment_bytes,
            metrics,
        }
    }

    /// Total durable bytes (the LSN the next fsync extends from).
    pub fn durable_end(&self) -> Lsn {
        match self.segments.last() {
            Some(last) => Lsn(last.start_lsn + last.bytes.len() as u64),
            None => Lsn(0),
        }
    }

    /// Bytes appended but not yet fsynced.
    pub fn volatile_len(&self) -> usize {
        self.volatile.len()
    }

    /// Number of durable segments (sealed + active).
    pub fn segment_count(&self) -> usize {
        self.segments.len()
    }

    /// Appends one intent record to the volatile buffer and returns
    /// the LSN its frame will occupy once fsynced.
    pub fn append(&mut self, payload: &[u8]) -> Lsn {
        self.append_parts(&[payload])
    }

    /// Appends one intent record whose payload is `parts` concatenated,
    /// framed straight into the volatile buffer without first joining
    /// the parts. Returns the LSN its frame will occupy once fsynced.
    pub(crate) fn append_parts(&mut self, parts: &[&[u8]]) -> Lsn {
        let lsn = Lsn(self.durable_end().0 + self.volatile.len() as u64);
        let len: usize = parts.iter().map(|part| part.len()).sum();
        let checksum = parts
            .iter()
            .fold(FNV_OFFSET, |hash, part| fnv1a_fold(hash, part));
        self.volatile.extend_from_slice(&(len as u32).to_le_bytes());
        self.volatile.extend_from_slice(&checksum.to_le_bytes());
        for part in parts {
            self.volatile.extend_from_slice(part);
        }
        self.metrics.appends.inc();
        lsn
    }

    /// The durability barrier: copies the volatile buffer into the
    /// durable image and rotates the active segment at the record
    /// boundary if it has grown past the policy size. The buffer is
    /// cleared, not freed, so the next append reuses its capacity.
    pub fn fsync(&mut self) {
        if !self.volatile.is_empty() {
            let pending = std::mem::take(&mut self.volatile);
            self.active_mut().bytes.extend_from_slice(&pending);
            self.volatile = pending;
            self.volatile.clear();
        }
        self.metrics.fsyncs.inc();
        self.maybe_rotate();
    }

    /// Process death. The volatile buffer is lost — except the first
    /// `torn_keep` bytes, which had already reached the disk queue and
    /// now sit on the durable image as a torn (incomplete or
    /// checksum-corrupt) tail for recovery to truncate.
    pub fn crash(&mut self, torn_keep: Option<usize>) {
        let keep = torn_keep.unwrap_or(0).min(self.volatile.len());
        if keep > 0 {
            let torn: Vec<u8> = self.volatile[..keep].to_vec();
            self.active_mut().bytes.extend_from_slice(&torn);
        }
        self.volatile.clear();
    }

    /// Recovery scan: validates every frame at or past `from`,
    /// truncates the torn tail (an incomplete frame or one whose
    /// checksum disagrees with its payload), and returns the committed
    /// records in LSN order. Unfsynced bytes never survive — the
    /// volatile buffer is dropped.
    ///
    /// `from` must be a record boundary (an LSN previously returned by
    /// [`Journal::append`], or [`Lsn`]`(0)`, or a checkpoint
    /// high-water mark).
    pub fn recover(&mut self, from: Lsn) -> Recovery {
        self.volatile.clear();
        let mut out = Recovery::default();
        let mut torn_at: Option<(usize, usize)> = None; // (segment idx, offset)
        'segments: for (idx, segment) in self.segments.iter().enumerate() {
            let seg_end = segment.start_lsn + segment.bytes.len() as u64;
            if seg_end <= from.0 {
                continue;
            }
            // Frames never span segments (rotation happens at fsync,
            // which only moves whole records), so scanning restarts
            // cleanly at each segment head.
            let mut offset = usize::try_from(from.0.saturating_sub(segment.start_lsn))
                .unwrap_or(segment.bytes.len());
            while offset < segment.bytes.len() {
                let rest = &segment.bytes[offset..];
                let frame_ok = rest.len() >= FRAME_HEADER && {
                    let len = u32::from_le_bytes([rest[0], rest[1], rest[2], rest[3]]) as usize;
                    rest.len() >= FRAME_HEADER + len && {
                        let want = u64::from_le_bytes([
                            rest[4], rest[5], rest[6], rest[7], rest[8], rest[9], rest[10],
                            rest[11],
                        ]);
                        fnv1a(&rest[FRAME_HEADER..FRAME_HEADER + len]) == want
                    }
                };
                if !frame_ok {
                    torn_at = Some((idx, offset));
                    break 'segments;
                }
                let len = u32::from_le_bytes([rest[0], rest[1], rest[2], rest[3]]) as usize;
                out.records.push(JournalRecord {
                    lsn: Lsn(segment.start_lsn + offset as u64),
                    payload: rest[FRAME_HEADER..FRAME_HEADER + len].to_vec(),
                });
                offset += FRAME_HEADER + len;
            }
        }
        if let Some((idx, offset)) = torn_at {
            let dropped: u64 = (self.segments[idx].bytes.len() - offset) as u64
                + self.segments[idx + 1..]
                    .iter()
                    .map(|s| s.bytes.len() as u64)
                    .sum::<u64>();
            self.segments[idx].bytes.truncate(offset);
            self.segments.truncate(idx + 1);
            out.torn_records = 1;
            out.torn_bytes = dropped;
            self.metrics.torn_truncated.inc();
        }
        self.metrics.recoveries.inc();
        self.metrics.replayed.add(out.records.len() as u64);
        out
    }

    /// Garbage-collects sealed segments that end at or before `upto`
    /// (typically a checkpoint high-water mark). The active segment is
    /// never dropped.
    pub fn truncate_before(&mut self, upto: Lsn) {
        while self.segments.len() > 1 {
            let first = &self.segments[0];
            if first.start_lsn + first.bytes.len() as u64 <= upto.0 {
                self.segments.remove(0);
            } else {
                break;
            }
        }
    }

    /// Test-only bit rot: flips one byte of the durable image at
    /// global offset `at`, so recovery's checksum validation has a
    /// genuinely corrupt (not merely incomplete) frame to reject.
    #[cfg(test)]
    fn corrupt_durable_byte(&mut self, at: u64) {
        for segment in &mut self.segments {
            let end = segment.start_lsn + segment.bytes.len() as u64;
            if at >= segment.start_lsn && at < end {
                let idx = (at - segment.start_lsn) as usize;
                segment.bytes[idx] ^= 0xFF;
                return;
            }
        }
        panic!("offset {at} is not durable");
    }

    fn active_mut(&mut self) -> &mut Segment {
        if self.segments.is_empty() {
            self.segments.push(Segment {
                start_lsn: 0,
                bytes: Vec::new(),
            });
        }
        let last = self.segments.len() - 1;
        &mut self.segments[last]
    }

    fn maybe_rotate(&mut self) {
        let end = self.durable_end().0;
        let rotate = self
            .segments
            .last()
            .is_some_and(|active| active.bytes.len() >= self.segment_bytes);
        if rotate {
            self.segments.push(Segment {
                start_lsn: end,
                bytes: Vec::new(),
            });
            self.metrics.rotations.inc();
        }
    }
}

// ---------------------------------------------------------------------
// Idempotency keys
// ---------------------------------------------------------------------

/// A deterministic identity for one logical mutation. Two deliveries
/// of the same logical call — a resilience retry, an at-least-once
/// re-send after a crash — carry the same key, so the durability layer
/// can commit the effect exactly once and answer duplicates from the
/// journal.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct IdempotencyKey(pub u64);

impl IdempotencyKey {
    /// Derives the key for `(seed, device, round, op)` — a splitmix64
    /// finalizer over orthogonally-mixed coordinates, so keys collide
    /// only if the coordinates do.
    pub fn derive(seed: u64, device: u64, round: u64, op: u64) -> Self {
        let mut x = seed
            ^ device.wrapping_mul(0xA076_1D64_78BD_642F)
            ^ round.wrapping_mul(0xE703_7ED1_A0B4_28DB)
            ^ op.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        Self(x ^ (x >> 31))
    }

    /// The key as fixed-width lowercase hex — the wire form carried in
    /// the `idem` URL query parameter.
    pub fn to_hex(self) -> String {
        format!("{:016x}", self.0)
    }

    /// The digits of [`IdempotencyKey::to_hex`], without allocating.
    fn hex_digits(self) -> [u8; 16] {
        let mut digits = [0u8; 16];
        for (i, digit) in digits.iter_mut().enumerate() {
            let nibble = (self.0 >> (60 - 4 * i)) & 0xF;
            *digit = b"0123456789abcdef"[nibble as usize];
        }
        digits
    }

    /// Parses the wire form back. `None` for anything that is not
    /// exactly 16 hex digits.
    pub fn from_hex(s: &str) -> Option<Self> {
        // `from_str_radix` alone would also take a leading `+`.
        if s.len() != 16 || !s.bytes().all(|b| b.is_ascii_hexdigit()) {
            return None;
        }
        u64::from_str_radix(s, 16).ok().map(Self)
    }
}

impl fmt::Display for IdempotencyKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "idem:{:016x}", self.0)
    }
}

thread_local! {
    /// The ambient idempotency-key stack, mirroring the overload
    /// layer's ambient deadline stack: the innermost
    /// [`with_idempotency_key`] scope is what
    /// [`current_idempotency_key`] sees.
    static IDEM_KEYS: RefCell<Vec<IdempotencyKey>> = const { RefCell::new(Vec::new()) };
}

/// Guard popping the ambient key on drop (panic-safe).
struct KeyScope;

impl Drop for KeyScope {
    fn drop(&mut self) {
        IDEM_KEYS.with(|stack| {
            stack.borrow_mut().pop();
        });
    }
}

/// Runs `f` with `key` as the ambient idempotency key for the current
/// thread. Scopes nest; the outer key is restored when the scope ends,
/// even on panic.
pub fn with_idempotency_key<T>(key: IdempotencyKey, f: impl FnOnce() -> T) -> T {
    IDEM_KEYS.with(|stack| stack.borrow_mut().push(key));
    let _scope = KeyScope;
    f()
}

/// The innermost ambient idempotency key on the current thread, if any
/// scope is open.
pub fn current_idempotency_key() -> Option<IdempotencyKey> {
    IDEM_KEYS.with(|stack| stack.borrow().last().copied())
}

// ---------------------------------------------------------------------
// The client-side journal engine
// ---------------------------------------------------------------------

/// The client journal proper: the WAL plus the applied-key table the
/// dedup fast path consults. One per runtime, shared by every
/// journal layer the registry wires.
#[derive(Debug)]
struct ClientJournal {
    journal: Journal,
    /// Committed SMS sends by idempotency key → the message id the
    /// binding returned, memoized so a duplicate delivery can answer
    /// with the original id.
    applied: HashMap<IdempotencyKey, u64>,
}

/// Shared state + policy + metrics behind every journal layer of a
/// runtime.
pub struct JournalEngine {
    device: Device,
    policy: JournalPolicy,
    metrics: Arc<JournalMetrics>,
    state: Mutex<ClientJournal>,
}

impl JournalEngine {
    /// A fresh engine for `device` under `policy`, counting into
    /// `metrics`.
    pub fn new(device: Device, policy: JournalPolicy, metrics: Arc<JournalMetrics>) -> Self {
        let journal = Journal::new(&policy, Arc::clone(&metrics));
        Self {
            device,
            policy,
            metrics,
            state: Mutex::new(ClientJournal {
                journal,
                applied: HashMap::new(),
            }),
        }
    }

    /// The engine's counter block.
    pub fn metrics(&self) -> &Arc<JournalMetrics> {
        &self.metrics
    }

    /// The policy the engine was wired with.
    pub fn policy(&self) -> &JournalPolicy {
        &self.policy
    }

    /// The typed duplicate check: `Err(AlreadyApplied)` when `key` is
    /// already journaled as committed. The journal layer converts the
    /// error back into the memoized success — callers of the uniform
    /// API never see it — but the seam stays typed so tests (and any
    /// future cross-process re-delivery path) can assert on it.
    pub fn check(&self, key: IdempotencyKey) -> Result<(), ProxyError> {
        if self.state.lock().applied.contains_key(&key) {
            self.metrics.already_applied.inc();
            return Err(ProxyError::new(
                ProxyErrorKind::AlreadyApplied,
                format!("{key} already committed; answered from the journal"),
            ));
        }
        Ok(())
    }

    /// The message id memoized for a committed SMS key, if any.
    pub fn memoized_message(&self, key: IdempotencyKey) -> Option<u64> {
        self.state.lock().applied.get(&key).copied()
    }

    /// Appends one intent record, `op|key-hex|detail` (`-` for no
    /// key), and crosses the fsync barrier, charging the barrier's
    /// simulated latency to the device clock. This MUST run before the
    /// side effect it covers.
    pub fn intent(&self, op: &str, key: Option<IdempotencyKey>, detail: &str) -> Lsn {
        let hex;
        let key: &[u8] = match key {
            Some(key) => {
                hex = key.hex_digits();
                &hex
            }
            None => b"-",
        };
        let lsn = {
            let mut state = self.state.lock();
            let lsn =
                state
                    .journal
                    .append_parts(&[op.as_bytes(), b"|", key, b"|", detail.as_bytes()]);
            state.journal.fsync();
            lsn
        };
        if self.policy.fsync_latency_ms > 0 {
            self.device.advance_ms(self.policy.fsync_latency_ms);
        }
        if let Some(mut span) =
            ambient::child("journal:fsync", Plane::Resilience, self.device.now_ms())
        {
            span.attr("lsn", lsn.to_string());
            span.end(self.device.now_ms());
        }
        lsn
    }

    /// Marks an SMS key committed with the message id the binding
    /// returned.
    pub fn mark_applied(&self, key: IdempotencyKey, message_id: u64) {
        self.state.lock().applied.insert(key, message_id);
    }

    /// Snapshot of the journal shape for observability/tests.
    pub fn journal_stats(&self) -> (Lsn, usize, usize) {
        let state = self.state.lock();
        (
            state.journal.durable_end(),
            state.journal.volatile_len(),
            state.journal.segment_count(),
        )
    }
}

impl fmt::Debug for JournalEngine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("JournalEngine")
            .field("policy", &self.policy)
            .finish_non_exhaustive()
    }
}

/// Appends `?idem=<key>` (or `&idem=` when a query already exists) so
/// the server-side durability layer can dedup at-least-once
/// re-deliveries. The uniform [`HttpProxy`](crate::api::HttpProxy) surface carries no
/// headers, so the key travels in the URL like any other query
/// parameter.
pub fn url_with_idempotency_key(url: &str, key: IdempotencyKey) -> String {
    let sep = if url.contains('?') { '&' } else { '?' };
    format!("{url}{sep}idem={}", key.to_hex())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn journal() -> (Journal, Arc<JournalMetrics>) {
        let metrics = JournalMetrics::shared();
        (
            Journal::new(&JournalPolicy::default(), Arc::clone(&metrics)),
            metrics,
        )
    }

    #[test]
    fn append_is_volatile_until_fsync() {
        let (mut j, _m) = journal();
        j.append(b"one");
        assert_eq!(j.durable_end(), Lsn(0));
        assert_eq!(j.volatile_len(), FRAME_HEADER + 3);
        j.fsync();
        assert_eq!(j.volatile_len(), 0);
        assert_eq!(j.durable_end(), Lsn((FRAME_HEADER + 3) as u64));
    }

    #[test]
    fn recover_replays_committed_records_in_order() {
        let (mut j, m) = journal();
        let a = j.append(b"alpha");
        let b = j.append(b"beta");
        j.fsync();
        let rec = j.recover(Lsn(0));
        assert_eq!(rec.torn_records, 0);
        assert_eq!(
            rec.records,
            vec![
                JournalRecord {
                    lsn: a,
                    payload: b"alpha".to_vec()
                },
                JournalRecord {
                    lsn: b,
                    payload: b"beta".to_vec()
                },
            ]
        );
        assert_eq!(m.snapshot().replayed, 2);
        assert_eq!(m.snapshot().recoveries, 1);
    }

    #[test]
    fn recover_from_a_high_water_mark_skips_the_prefix() {
        let (mut j, _m) = journal();
        j.append(b"old");
        let b = j.append(b"new");
        j.fsync();
        let rec = j.recover(b);
        assert_eq!(rec.records.len(), 1);
        assert_eq!(rec.records[0].payload, b"new");
    }

    #[test]
    fn crash_drops_unfsynced_appends() {
        let (mut j, _m) = journal();
        j.append(b"committed");
        j.fsync();
        j.append(b"lost");
        j.crash(None);
        let rec = j.recover(Lsn(0));
        assert_eq!(rec.records.len(), 1);
        assert_eq!(rec.records[0].payload, b"committed");
        assert_eq!(rec.torn_records, 0);
    }

    #[test]
    fn torn_tail_is_detected_and_truncated() {
        let (mut j, m) = journal();
        j.append(b"committed");
        j.fsync();
        j.append(b"torn-away-record");
        // Keep all but the last byte: length field says more bytes
        // than exist → incomplete frame → truncate.
        let keep = j.volatile_len() - 1;
        j.crash(Some(keep));
        let end_before = j.durable_end();
        let rec = j.recover(Lsn(0));
        assert_eq!(rec.records.len(), 1);
        assert_eq!(rec.torn_records, 1);
        assert_eq!(rec.torn_bytes, keep as u64);
        assert!(j.durable_end() < end_before);
        assert_eq!(m.snapshot().torn_truncated, 1);
        // The journal is clean again: a fresh append + fsync commits.
        j.append(b"after");
        j.fsync();
        let rec2 = j.recover(Lsn(0));
        assert_eq!(rec2.records.len(), 2);
        assert_eq!(rec2.torn_records, 0);
    }

    #[test]
    fn corrupt_checksum_counts_as_torn() {
        let (mut j, _m) = journal();
        j.append(b"good");
        let evil = j.append(b"evil");
        j.fsync();
        // Flip a payload byte of the last record: the frame is
        // complete but its checksum no longer matches, so recovery
        // must truncate it as a torn tail.
        j.corrupt_durable_byte(evil.0 + FRAME_HEADER as u64);
        let rec = j.recover(Lsn(0));
        assert_eq!(rec.records.len(), 1);
        assert_eq!(rec.records[0].payload, b"good");
        assert_eq!(rec.torn_records, 1);
    }

    #[test]
    fn segments_rotate_at_record_boundaries_and_gc() {
        let metrics = JournalMetrics::shared();
        let policy = JournalPolicy::default().segment_bytes(64);
        let mut j = Journal::new(&policy, Arc::clone(&metrics));
        for i in 0..8 {
            j.append(format!("record-{i}-padding-padding").as_bytes());
            j.fsync();
        }
        assert!(j.segment_count() > 1, "64-byte segments must rotate");
        assert!(metrics.snapshot().rotations > 0);
        let all = j.recover(Lsn(0));
        assert_eq!(all.records.len(), 8);
        // GC everything below the 6th record; replay from there still
        // works and earlier segments are gone.
        let keep_from = all.records[5].lsn;
        j.truncate_before(keep_from);
        let tail = j.recover(keep_from);
        assert_eq!(tail.records.len(), 3);
        assert_eq!(tail.records[0].payload, b"record-5-padding-padding");
    }

    /// The journal's durable image, segments concatenated.
    fn durable_bytes(j: &Journal) -> Vec<u8> {
        j.segments.iter().flat_map(|s| s.bytes.clone()).collect()
    }

    #[test]
    fn fsync_keeps_the_volatile_buffers_capacity() {
        let (mut j, _m) = journal();
        j.append(b"first-record");
        let capacity = j.volatile.capacity();
        assert!(capacity >= FRAME_HEADER + 12);
        j.fsync();
        assert_eq!(j.volatile_len(), 0);
        assert_eq!(j.volatile.capacity(), capacity, "cleared, not freed");
        j.append(b"second");
        assert_eq!(j.volatile.capacity(), capacity, "reused, not regrown");
    }

    #[test]
    fn intent_frames_match_the_joined_payload_encoding() {
        let engine = JournalEngine::new(
            Device::builder().build(),
            JournalPolicy::default(),
            JournalMetrics::shared(),
        );
        let cases = [
            ("http", Some(IdempotencyKey(0xabcd)), "x"),
            (
                "send_sms",
                Some(IdempotencyKey(u64::MAX)),
                "+91 98100 00001",
            ),
            (
                "sendTextMessage",
                Some(IdempotencyKey(0x0123_4567_89ab_cdef)),
                "",
            ),
            ("set_property", None, "cache.ttl_ms"),
        ];
        // The encoding intents had when they were joined into a String
        // before framing: `op|key-hex-or-dash|detail`.
        let (mut joined, _m) = journal();
        for (op, key, detail) in cases {
            let lsn = engine.intent(op, key, detail);
            let key = key
                .map(IdempotencyKey::to_hex)
                .unwrap_or_else(|| "-".into());
            assert_eq!(
                joined.append(format!("{op}|{key}|{detail}").as_bytes()),
                lsn
            );
            joined.fsync();
        }
        let image = durable_bytes(&engine.state.lock().journal);
        assert_eq!(image, durable_bytes(&joined));
        // The first frame, spelled out: length, FNV-1a, payload.
        let payload = b"http|000000000000abcd|x";
        let mut frame = 23u32.to_le_bytes().to_vec();
        frame.extend_from_slice(&0x6293_b2a2_78b0_f32fu64.to_le_bytes());
        frame.extend_from_slice(payload);
        assert_eq!(&image[..frame.len()], &frame[..]);
    }

    #[test]
    fn idempotency_keys_are_deterministic_and_distinct() {
        let a = IdempotencyKey::derive(11, 3, 2, 0);
        let b = IdempotencyKey::derive(11, 3, 2, 0);
        assert_eq!(a, b);
        let others = [
            IdempotencyKey::derive(12, 3, 2, 0),
            IdempotencyKey::derive(11, 4, 2, 0),
            IdempotencyKey::derive(11, 3, 3, 0),
            IdempotencyKey::derive(11, 3, 2, 1),
        ];
        for other in others {
            assert_ne!(a, other);
        }
        let hex = a.to_hex();
        assert_eq!(hex.len(), 16);
        assert_eq!(IdempotencyKey::from_hex(&hex), Some(a));
        assert_eq!(IdempotencyKey::from_hex("xyz"), None);
    }

    #[test]
    fn from_hex_rejects_a_sign_prefix() {
        // 16 characters that `u64::from_str_radix` would read as 10.
        assert_eq!(IdempotencyKey::from_hex("+00000000000000a"), None);
        assert_eq!(
            IdempotencyKey::from_hex("000000000000000a"),
            Some(IdempotencyKey(10))
        );
    }

    #[test]
    fn ambient_key_scopes_nest_and_restore() {
        assert_eq!(current_idempotency_key(), None);
        let outer = IdempotencyKey(7);
        let inner = IdempotencyKey(9);
        with_idempotency_key(outer, || {
            assert_eq!(current_idempotency_key(), Some(outer));
            with_idempotency_key(inner, || {
                assert_eq!(current_idempotency_key(), Some(inner));
            });
            assert_eq!(current_idempotency_key(), Some(outer));
        });
        assert_eq!(current_idempotency_key(), None);
    }

    #[test]
    fn url_key_stamping_handles_existing_queries() {
        let key = IdempotencyKey(0xabcd);
        assert_eq!(
            url_with_idempotency_key("http://h/p", key),
            format!("http://h/p?idem={}", key.to_hex())
        );
        assert_eq!(
            url_with_idempotency_key("http://h/p?a=1", key),
            format!("http://h/p?a=1&idem={}", key.to_hex())
        );
    }
}
