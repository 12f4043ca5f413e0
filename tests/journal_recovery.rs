//! Deterministic mirrors of the write-ahead-journal properties in
//! `tests/properties.rs`.
//!
//! The offline `proptest` stand-in type-checks property bodies without
//! executing them, so these tests re-state the same invariants over
//! seeded input streams that actually run:
//!
//! 1. recovery of a clean journal is idempotent and byte-identical,
//! 2. after a crash at *every* possible torn-tail truncation point,
//!    recovery surfaces exactly the durable prefix (and truncates the
//!    torn frame so a second scan is clean), and
//! 3. a crash-stormed durable [`WfmServer`] replays to the same state
//!    digest as a crash-free one fed the identical request stream,
//!    with every effect applied exactly once.

use std::sync::Arc;

use mobivine::{IdempotencyKey, Journal, JournalMetrics, Lsn};
use mobivine_apps::server::{DurabilityConfig, WfmServer};
use mobivine_device::fault::{CrashKind, CrashSchedule};
use mobivine_device::net::HttpRequest;
use mobivine_device::Device;

/// splitmix64 — the same cheap deterministic generator the fleet
/// engine uses for its seeded traffic.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// `count` seeded payloads with lengths in `0..=max_len`, including
/// the empty payload when the seed lands on it.
fn seeded_payloads(seed: u64, count: usize, max_len: usize) -> Vec<Vec<u8>> {
    let mut state = seed;
    (0..count)
        .map(|_| {
            let len = (splitmix(&mut state) as usize) % (max_len + 1);
            (0..len).map(|_| splitmix(&mut state) as u8).collect()
        })
        .collect()
}

fn journal_with(payloads: &[Vec<u8>]) -> Journal {
    let mut journal = Journal::new(JournalMetrics::shared());
    for payload in payloads {
        journal.append(payload);
    }
    journal.fsync();
    journal
}

#[test]
fn replaying_a_clean_journal_twice_is_byte_identical() {
    for seed in [3u64, 17, 96] {
        let payloads = seeded_payloads(seed, 24, 48);
        let mut journal = journal_with(&payloads);

        let first = journal.recover(Lsn(0));
        let second = journal.recover(Lsn(0));
        assert_eq!(
            first, second,
            "a clean scan must be repeatable (seed {seed})"
        );
        assert_eq!(first.torn_records, 0);
        assert_eq!(first.records.len(), payloads.len());
        for (record, payload) in first.records.iter().zip(&payloads) {
            assert_eq!(&record.payload, payload, "seed {seed}");
        }
        let mut last = None;
        for record in &first.records {
            assert!(last.is_none_or(|lsn| lsn < record.lsn), "LSNs ascend");
            last = Some(record.lsn);
        }
    }
}

#[test]
fn recovery_surfaces_exactly_the_durable_prefix_at_every_truncation_point() {
    let committed = seeded_payloads(11, 6, 32);
    let tail: Vec<u8> = seeded_payloads(12, 1, 32).remove(0);
    let frame_len = {
        let mut probe = journal_with(&committed);
        probe.append(&tail);
        probe.volatile_len()
    };
    assert!(frame_len > tail.len(), "frame = header + payload");

    for keep in 0..=frame_len {
        let mut journal = journal_with(&committed);
        journal.append(&tail);
        journal.crash(Some(keep));

        let recovery = journal.recover(Lsn(0));
        let tail_committed = keep == frame_len;
        assert_eq!(
            recovery.records.len(),
            committed.len() + usize::from(tail_committed),
            "keep {keep}: only fsynced frames (plus a fully-flushed tail) survive"
        );
        for (record, payload) in recovery.records.iter().zip(&committed) {
            assert_eq!(&record.payload, payload, "keep {keep}");
        }
        if tail_committed {
            assert_eq!(recovery.records[committed.len()].payload, tail);
        }
        assert_eq!(
            recovery.torn_records,
            u64::from(keep > 0 && !tail_committed),
            "keep {keep}: a partial frame is torn, an empty or complete one is not"
        );

        // The torn frame was truncated in place: a second scan is
        // clean and byte-identical, and new appends land after the
        // durable end with no gap corruption.
        let again = journal.recover(Lsn(0));
        assert_eq!(again.records, recovery.records, "keep {keep}");
        assert_eq!(again.torn_records, 0, "keep {keep}: the tail was truncated");

        journal.append(b"post-crash");
        journal.fsync();
        let resumed = journal.recover(Lsn(0));
        assert_eq!(resumed.records.len(), recovery.records.len() + 1);
        assert_eq!(
            resumed.records.last().expect("appended record").payload,
            b"post-crash"
        );
    }
}

/// Drives `ops` seeded track-point posts at a durable server,
/// retrying once after any 503 (a crash), exactly like a real client.
fn drive_server(seed: u64, ops: u64, crash: Option<Arc<CrashSchedule>>) -> (Device, WfmServer) {
    let device = Device::builder().build();
    let server = WfmServer::durable(DurabilityConfig {
        checkpoint_every: 1,
        crash,
        ..Default::default()
    });
    server.install(device.network(), "wfm.example");
    for op in 0..ops {
        let key = IdempotencyKey::derive(seed, 1, 1, op);
        let body = format!(
            "{{\"agent_id\":1,\"latitude\":28.5,\"longitude\":77.{op},\"at_ms\":{}}}",
            1_000 + op,
        );
        let url = format!("http://wfm.example/report-location?idem={}", key.to_hex());
        let post = || {
            let req = HttpRequest::post(&url, body.clone().into_bytes()).unwrap();
            device.network().execute(&req).unwrap().0.status
        };
        if post() == 503 {
            assert_eq!(post(), 200, "the retry after a crash commits (op {op})");
        }
    }
    (device, server)
}

#[test]
fn a_crash_storm_replays_to_the_crash_free_digest() {
    let seed = 0x5eed;
    let ops = 18u64;
    // One victim per crash kind, spread across the stream.
    let schedule = CrashSchedule::new([
        (
            IdempotencyKey::derive(seed, 1, 1, 2).0,
            CrashKind::TornWrite,
        ),
        (
            IdempotencyKey::derive(seed, 1, 1, 9).0,
            CrashKind::BeforeEffect,
        ),
        (
            IdempotencyKey::derive(seed, 1, 1, 14).0,
            CrashKind::AfterEffect,
        ),
    ]);
    schedule.arm();

    let (_stormed_device, stormed) = drive_server(seed, ops, Some(Arc::clone(&schedule)));
    let (_clean_device, clean) = drive_server(seed, ops, None);

    assert_eq!(
        stormed.state_digest(),
        clean.state_digest(),
        "wipe + checkpoint + replay is invisible in the state digest"
    );
    assert_eq!(stormed.counts().tracks, ops);
    assert_eq!(clean.counts().tracks, ops);

    let ledger = stormed.recovery_snapshot().expect("durable server");
    assert_eq!(ledger.duplicates(), 0, "every effect lands exactly once");
    assert_eq!(ledger.recoveries, 3, "one recovery per scheduled crash");
    assert_eq!(ledger.torn_crashes, 1);
    assert_eq!(ledger.gap_crashes, 1);
    assert_eq!(
        ledger.suppressed_duplicates, 2,
        "the intent-gap and post-effect retries were deduplicated, not re-applied"
    );

    let clean_ledger = clean.recovery_snapshot().expect("durable server");
    assert_eq!(clean_ledger.recoveries, 0);
    assert_eq!(clean_ledger.duplicates(), 0);
}

#[test]
fn replaying_the_same_journal_into_two_servers_matches() {
    // Same seeded stream into two independent durable servers:
    // identical digests, counts, and journal high-water marks. This is
    // the server-level "replay twice" mirror — the journal fully
    // determines the state.
    let (_a_device, a) = drive_server(77, 12, None);
    let (_b_device, b) = drive_server(77, 12, None);
    assert_eq!(a.state_digest(), b.state_digest());
    assert_eq!(a.counts(), b.counts());
    let (a_snap, b_snap) = (
        a.journal_snapshot().expect("durable"),
        b.journal_snapshot().expect("durable"),
    );
    assert_eq!(
        a_snap, b_snap,
        "every durability counter marches in lockstep"
    );
    assert_eq!(a_snap.appends, 12);
}
