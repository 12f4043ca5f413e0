//! Crash-fault tolerance for the mutating M-Proxy paths: the
//! server's write-ahead journal, checkpoints, idempotency keys and the
//! client's journal layer.
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
//!   durable image (one byte log) by an explicit [`Journal::fsync`]
//!   barrier, and torn-tail detection: recovery scans the durable
//!   image, truncates the first incomplete or checksum-corrupt frame,
//!   and replays only fully committed records. The durable WFM server
//!   is its user. The barrier and the recovery scan are the only
//!   sources of a [`DurableLsn`], so an effect that demands one cannot
//!   be applied ahead of its record;
//! * **checkpoint support** — a caller's checkpoint records
//!   [`Journal::durable_end`] as the high-water mark it covers and
//!   [`Journal::truncate_before`] drops the durable bytes below it, so
//!   recovery replays only the suffix past the checkpoint, never from
//!   genesis (the durable WFM server's checkpoint is marks into its
//!   append-only state logs);
//! * **[`IdempotencyKey`]s** — deterministic per `(seed, device,
//!   round, op)` and carried down the call path through an ambient
//!   per-thread scope ([`with_idempotency_key`]), exactly like the
//!   overload layer's deadlines;
//! * the **journal layer** of the layer stack (`stack` module) for the
//!   mutating proxy surfaces (SMS send, HTTP submit). It keeps no log
//!   of its own: no client ever recovers, so a client log would have no
//!   reader. It keeps what a retry or a re-delivery reads. An HTTP
//!   submit carries the ambient key to the server as `?idem=`, stamped
//!   once per logical call, and the server's journal owns
//!   exactly-once. An SMS send is memoized by key: a duplicate delivery
//!   is answered with the original message id, counted as
//!   `already_applied`, and the radio is not keyed twice. The memo
//!   holds the last [`SMS_MEMO_WINDOW`] keys. The layer sits between
//!   the overload and resilience layers (`… → Overload → Journal →
//!   Resilience → …`), so a shed call never reaches the memo and the
//!   retries of one logical call share one key and one memo entry.

use std::cell::RefCell;
use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::sync::Arc;

use parking_lot::Mutex;

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
    fnv1a_continue(FNV_OFFSET, bytes)
}

/// Continues an FNV-1a fold from `hash`:
/// `fnv1a_continue(fnv1a(a), b) == fnv1a(a ++ b)`, so text can be
/// hashed piece by piece without concatenating it first.
pub fn fnv1a_continue(hash: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(hash, |hash, b| {
        (hash ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

/// Frame header size: `[u32 payload len LE][u64 FNV-1a checksum LE]`.
const FRAME_HEADER: usize = 12;

/// A log sequence number — a global byte offset into the journal's
/// durable image. Monotone, never reused, unchanged by truncation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Lsn(pub u64);

/// Proof that the durable image reaches an LSN: every record that ends
/// at or before it has crossed an fsync barrier. Only this module mints
/// one — [`Journal::fsync`] returns the durable end it leaves, and
/// [`Journal::recover`] stamps each committed record with its own end —
/// so code that takes a `DurableLsn` cannot run ahead of the barrier.
///
/// ```compile_fail,E0423
/// use mobivine::journal::{DurableLsn, Lsn};
/// // The field is private: no caller can vouch for durability itself.
/// let forged = DurableLsn(Lsn(0));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct DurableLsn(Lsn);

// ---------------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------------

layer_counters! {
    /// Shared durability counters, updated by the server's journal and
    /// recovery path and by the client's SMS memo, snapshotted by
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
        /// Torn tail records truncated during recovery (incomplete or
        /// checksum-corrupt frames that never committed).
        torn_truncated,
        /// Committed records replayed by recovery after a crash.
        replayed,
        /// Recovery passes completed (one per crash survived).
        recoveries,
        /// Mutations answered without a second effect because their
        /// idempotency key was already committed.
        already_applied,
        /// Checkpoints taken (state snapshot + high-water mark saved).
        checkpoints,
    }
}

impl JournalMetrics {
    /// Counts one mutation answered without a second effect (the SMS
    /// memo and the durable server both dedup).
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

/// The server journal's policy. It has no knobs: the durable image is
/// one byte log, and a checkpoint truncates it below its mark.
///
/// Braced rather than a unit struct, so the callers'
/// `JournalPolicy::default()` stays clean under clippy.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct JournalPolicy {}

// ---------------------------------------------------------------------
// The journal
// ---------------------------------------------------------------------

/// A committed record handed back by [`Journal::recover`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JournalRecord {
    /// The record's position (frame start) in the durable image.
    pub lsn: Lsn,
    /// The end of the record's frame, proven durable by the scan that
    /// found it.
    pub durable: DurableLsn,
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
/// durability barrier that moves them into the durable image, one byte
/// log whose first byte sits at LSN `base`. [`Journal::crash`] models
/// process death: the volatile buffer is lost, except an optional torn
/// prefix that had reached the disk queue. Recovery validates frames
/// from a given LSN and truncates the torn tail.
#[derive(Debug)]
pub struct Journal {
    /// The durable image from LSN `base` on.
    durable: Vec<u8>,
    /// The LSN of `durable[0]`: [`Journal::truncate_before`] dropped
    /// every byte below it.
    base: u64,
    volatile: Vec<u8>,
    metrics: Arc<JournalMetrics>,
}

impl Journal {
    /// An empty journal counting into `metrics`.
    pub fn new(metrics: Arc<JournalMetrics>) -> Self {
        Self {
            durable: Vec::new(),
            base: 0,
            volatile: Vec::new(),
            metrics,
        }
    }

    /// The LSN the next fsync extends from.
    pub fn durable_end(&self) -> Lsn {
        Lsn(self.base + self.durable.len() as u64)
    }

    /// Bytes appended but not yet fsynced.
    pub fn volatile_len(&self) -> usize {
        self.volatile.len()
    }

    /// Appends one intent record to the volatile buffer and returns
    /// the LSN its frame will occupy once fsynced.
    pub fn append(&mut self, payload: &[u8]) -> Lsn {
        let lsn = Lsn(self.durable_end().0 + self.volatile.len() as u64);
        self.volatile
            .extend_from_slice(&(payload.len() as u32).to_le_bytes());
        self.volatile
            .extend_from_slice(&fnv1a(payload).to_le_bytes());
        self.volatile.extend_from_slice(payload);
        self.metrics.appends.inc();
        lsn
    }

    /// The durability barrier: moves the volatile buffer onto the
    /// durable image. The buffer is emptied, not freed, so the next
    /// append reuses its capacity. Returns the durable end it leaves:
    /// the proof that every record appended so far committed.
    pub fn fsync(&mut self) -> DurableLsn {
        self.durable.append(&mut self.volatile);
        self.metrics.fsyncs.inc();
        DurableLsn(self.durable_end())
    }

    /// Process death. The volatile buffer is lost — except the first
    /// `torn_keep` bytes, which had already reached the disk queue and
    /// now sit on the durable image as a torn (incomplete or
    /// checksum-corrupt) tail for recovery to truncate.
    pub fn crash(&mut self, torn_keep: Option<usize>) {
        let keep = torn_keep.unwrap_or(0).min(self.volatile.len());
        self.durable.extend_from_slice(&self.volatile[..keep]);
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
        let mut offset =
            usize::try_from(from.0.saturating_sub(self.base)).unwrap_or(self.durable.len());
        while offset < self.durable.len() {
            let rest = &self.durable[offset..];
            let frame_ok = rest.len() >= FRAME_HEADER && {
                let len = u32::from_le_bytes([rest[0], rest[1], rest[2], rest[3]]) as usize;
                rest.len() >= FRAME_HEADER + len && {
                    let want = u64::from_le_bytes([
                        rest[4], rest[5], rest[6], rest[7], rest[8], rest[9], rest[10], rest[11],
                    ]);
                    fnv1a(&rest[FRAME_HEADER..FRAME_HEADER + len]) == want
                }
            };
            if !frame_ok {
                out.torn_records = 1;
                out.torn_bytes = rest.len() as u64;
                self.durable.truncate(offset);
                self.metrics.torn_truncated.inc();
                break;
            }
            let len = u32::from_le_bytes([rest[0], rest[1], rest[2], rest[3]]) as usize;
            let start = self.base + offset as u64;
            out.records.push(JournalRecord {
                lsn: Lsn(start),
                durable: DurableLsn(Lsn(start + (FRAME_HEADER + len) as u64)),
                payload: rest[FRAME_HEADER..FRAME_HEADER + len].to_vec(),
            });
            offset += FRAME_HEADER + len;
        }
        self.metrics.recoveries.inc();
        self.metrics.replayed.add(out.records.len() as u64);
        out
    }

    /// Drops the durable bytes below `upto` (typically a checkpoint
    /// high-water mark, so a record boundary) and moves `base` up to
    /// it. No LSN changes: [`Journal::durable_end`] stays put and a
    /// recovery from `upto` finds the same records.
    pub fn truncate_before(&mut self, upto: Lsn) {
        let cut = usize::try_from(upto.0.saturating_sub(self.base))
            .map_or(self.durable.len(), |cut| cut.min(self.durable.len()));
        self.durable.drain(..cut);
        self.base += cut as u64;
    }

    /// Test-only bit rot: flips one byte of the durable image at
    /// global offset `at`, so recovery's checksum validation has a
    /// genuinely corrupt (not merely incomplete) frame to reject.
    #[cfg(test)]
    fn corrupt_durable_byte(&mut self, at: u64) {
        let idx = usize::try_from(at - self.base).expect("a durable offset");
        self.durable[idx] ^= 0xFF;
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

/// How many of the most recent committed SMS sends the client memo
/// remembers. A duplicate delivery of a key inside this window is answered
/// with the original message id; an older key has left the memo. The
/// window is far longer than any re-delivery distance the scenarios
/// use: a retried or re-sent call repeats its key within a few sends.
pub const SMS_MEMO_WINDOW: usize = 1024;

/// Committed SMS sends by idempotency key → the message id the binding
/// returned, for the last [`SMS_MEMO_WINDOW`] keys.
#[derive(Debug, Default)]
struct SmsMemo {
    ids: HashMap<IdempotencyKey, u64>,
    /// The keys of `ids`, oldest first: the next one to forget.
    order: VecDeque<IdempotencyKey>,
}

/// The SMS memo and the counters behind every journal layer of a
/// runtime.
#[derive(Debug)]
pub struct JournalEngine {
    metrics: Arc<JournalMetrics>,
    memo: Mutex<SmsMemo>,
}

impl JournalEngine {
    /// A fresh engine counting into `metrics`.
    pub fn new(metrics: Arc<JournalMetrics>) -> Self {
        Self {
            metrics,
            memo: Mutex::default(),
        }
    }

    /// The engine's counter block.
    pub fn metrics(&self) -> &Arc<JournalMetrics> {
        &self.metrics
    }

    /// The message id memoized for a committed SMS key, if any.
    pub fn memoized_message(&self, key: IdempotencyKey) -> Option<u64> {
        self.memo.lock().ids.get(&key).copied()
    }

    /// Marks an SMS key committed with the message id the binding
    /// returned, forgetting the oldest key once the memo holds
    /// [`SMS_MEMO_WINDOW`].
    pub fn mark_applied(&self, key: IdempotencyKey, message_id: u64) {
        let mut memo = self.memo.lock();
        if memo.ids.insert(key, message_id).is_some() {
            return;
        }
        memo.order.push_back(key);
        if memo.order.len() > SMS_MEMO_WINDOW {
            if let Some(oldest) = memo.order.pop_front() {
                memo.ids.remove(&oldest);
            }
        }
    }

    /// Keys the memo holds.
    #[cfg(test)]
    pub(crate) fn memo_len(&self) -> usize {
        let memo = self.memo.lock();
        assert_eq!(memo.ids.len(), memo.order.len(), "one order slot per key");
        memo.ids.len()
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
        (Journal::new(Arc::clone(&metrics)), metrics)
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
        let end = j.fsync();
        let rec = j.recover(Lsn(0));
        assert_eq!(rec.torn_records, 0);
        assert_eq!(
            rec.records,
            vec![
                JournalRecord {
                    lsn: a,
                    durable: DurableLsn(b),
                    payload: b"alpha".to_vec()
                },
                JournalRecord {
                    lsn: b,
                    durable: end,
                    payload: b"beta".to_vec()
                },
            ]
        );
        assert_eq!(m.snapshot().replayed, 2);
        assert_eq!(m.snapshot().recoveries, 1);
    }

    #[test]
    fn fsync_vouches_for_the_durable_end_and_recovery_for_each_record() {
        let (mut j, _m) = journal();
        let first = j.append(b"one");
        let proof = j.fsync();
        assert_eq!(proof, DurableLsn(j.durable_end()));
        assert!(first < j.durable_end(), "the record is behind the proof");
        j.append(b"two");
        assert_eq!(j.fsync(), DurableLsn(j.durable_end()));
        let rec = j.recover(Lsn(0));
        assert_eq!(rec.records[0].durable, proof, "the same token, re-minted");
        assert_eq!(rec.records[1].durable, DurableLsn(j.durable_end()));
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
    fn truncate_before_drops_the_prefix_and_keeps_every_lsn() {
        let (mut j, _m) = journal();
        for i in 0..8 {
            j.append(format!("record-{i}-padding-padding").as_bytes());
            j.fsync();
        }
        let all = j.recover(Lsn(0));
        assert_eq!(all.records.len(), 8);
        let mark = all.records[5].lsn;
        let end = j.durable_end();
        let before = j.recover(mark);
        j.truncate_before(mark);
        assert_eq!(j.durable_end(), end, "truncation moves no LSN");
        assert_eq!(j.durable.len() as u64, end.0 - mark.0, "the prefix is gone");
        let after = j.recover(mark);
        assert_eq!(after, before, "the same records at the same LSNs");
        assert_eq!(after.records.len(), 3);
        assert_eq!(after.records[0].payload, b"record-5-padding-padding");
        assert_eq!(j.append(b"next"), end, "appends go on from the old end");
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
