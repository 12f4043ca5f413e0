//! The server-side application (paper Fig. 1, right half).
//!
//! "Each device-side component … communicates with the server side
//! application that does the tasks of book-keeping, request allocation,
//! etc." Built "using Web standards": JSON over HTTP routes on the
//! simulated network.

use std::collections::HashSet;
use std::sync::Arc;

use parking_lot::Mutex;
use serde::{Deserialize, Serialize};

use mobivine::journal::fnv1a;
use mobivine::registry::Mobivine;
use mobivine::{IdempotencyKey, Journal, JournalMetrics, JournalPolicy, JournalSnapshot, Lsn};
use mobivine_device::fault::{CrashKind, CrashSchedule};
use mobivine_device::net::{HttpResponse, Method, SimNetwork};
use mobivine_device::Device;
use mobivine_telemetry::slo::{links_from_incidents, slo_report_json};
use mobivine_telemetry::MetricsRegistry;

use crate::model::{ActivityEntry, Task};

/// Installs a Prometheus-style `GET /metrics` route on `network` under
/// `host`, rendering `registry` in text exposition format at request
/// time. Pair it with the device registry
/// (`device.metrics()`) or a runtime's telemetry registry so scrapes
/// observe live counters.
pub fn install_metrics_route(network: &SimNetwork, host: &str, registry: Arc<MetricsRegistry>) {
    network.register_route(host, Method::Get, "/metrics", move |_req| {
        HttpResponse::ok(registry.render_prometheus())
    });
}

/// Installs a `GET /health` liveness route on `network` under `host`,
/// reporting `runtime`'s protection-layer state as JSON.
///
/// The answer is always `200` (the route responding *is* the liveness
/// signal); the body carries `"status": "ok"` until the overload layer
/// has shed a call or the resilience layer has opened a circuit, after
/// which it reads `"degraded"` — the counters are cumulative over the
/// runtime's life, matching the simulated fleet's "has this device ever
/// been in trouble" digest. Layers that are not wired report `null`.
pub fn install_health_route(network: &SimNetwork, host: &str, runtime: Arc<Mobivine>) {
    network.register_route(host, Method::Get, "/health", move |_req| {
        let overload = runtime.overload_metrics().map(|m| m.snapshot());
        let resilience = runtime.resilience_metrics().map(|m| m.snapshot());
        let shed = overload.as_ref().map_or(0, |o| o.shed);
        let circuit_opens = resilience.as_ref().map_or(0, |r| r.circuit_opens);
        let status = if shed > 0 || circuit_opens > 0 {
            "degraded"
        } else {
            "ok"
        };
        let overload_json = overload.map_or(serde_json::Value::Null, |o| {
            serde_json::json!({
                "shed": o.shed,
                "deadline_fail_fast": o.deadline_fail_fast,
                "bulkhead_rejections": o.bulkhead_rejections,
            })
        });
        let resilience_json = resilience.map_or(serde_json::Value::Null, |r| {
            serde_json::json!({
                "circuit_opens": r.circuit_opens,
                "circuit_rejections": r.circuit_rejections,
                "deadline_exhausted": r.deadline_exhausted,
            })
        });
        let incidents_json = runtime.incidents().map_or(serde_json::Value::Null, |s| {
            serde_json::json!({
                "promoted": s.promoted_total(),
                "dropped": s.dropped(),
            })
        });
        let body = serde_json::json!({
            "status": status,
            "overload": overload_json,
            "resilience": resilience_json,
            "incidents": incidents_json,
        });
        HttpResponse::ok(body.to_string())
    });
}

/// Installs a `GET /slo` route on `network` under `host`, answering the
/// `mobivine.slo.v1` burn-rate report for `runtime`'s SLO engine
/// evaluated at `device`'s current virtual time, with links into the
/// flight recorder's promoted traces
/// ([`mobivine_telemetry::slo::validate_slo_json`] round-trips the
/// body).
///
/// Answers `404` when the runtime has no SLO engine attached — the
/// route is installable unconditionally; the status tells scrapers
/// whether objectives are declared.
pub fn install_slo_route(network: &SimNetwork, host: &str, device: Device, runtime: Arc<Mobivine>) {
    network.register_route(host, Method::Get, "/slo", move |_req| {
        let Some(engine) = runtime.slo_engine() else {
            return HttpResponse::status_only(404);
        };
        let report = engine.report(device.now_ms());
        let links = match runtime.incidents() {
            Some(store) => links_from_incidents(std::slice::from_ref(store)),
            None => Vec::new(),
        };
        HttpResponse::ok(slo_report_json(&report, &links))
    });
}

/// A size snapshot of one [`WfmServer`]'s state, used by the fleet
/// engine to report per-shard server load.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WfmServerCounts {
    /// Tasks ever assigned.
    pub tasks: u64,
    /// Completion reports received.
    pub completed: u64,
    /// Activity-log entries received.
    pub activity: u64,
    /// Track points received.
    pub tracks: u64,
}

/// A recorded agent position.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrackPoint {
    /// Reporting agent.
    pub agent_id: u64,
    /// Latitude, degrees.
    pub latitude: f64,
    /// Longitude, degrees.
    pub longitude: f64,
    /// Report time, virtual ms.
    pub at_ms: u64,
}

/// Knobs for a crash-fault-tolerant [`WfmServer`]
/// ([`WfmServer::durable`]).
#[derive(Debug, Clone, Default)]
pub struct DurabilityConfig {
    /// Take a checkpoint (state snapshot + journal high-water mark)
    /// after this many applied mutations. `0` disables checkpoints —
    /// recovery replays from genesis.
    pub checkpoint_every: u32,
    /// Journal knobs (segment size; fsync latency is a client-side
    /// concern and unused here).
    pub policy: JournalPolicy,
    /// When set, mutations whose idempotency key the schedule claims
    /// crash the server at the scheduled point (torn write / intent
    /// gap / post-effect) and immediately recover.
    pub crash: Option<Arc<CrashSchedule>>,
}

/// The checkpoint: everything the journal protects, plus the journal
/// high-water mark it covers. Task assignments and capacity knobs are
/// dispatcher-owned configuration (they arrive out-of-band, not
/// through the mutating HTTP routes) and survive a middleware crash on
/// their own.
///
/// Between crashes the live vectors only grow by appends and the live
/// key set only gains keys, and recovery rebuilds the live state as
/// this snapshot plus the replayed suffix. So the snapshot is always a
/// prefix of the live state, and a checkpoint only has to append what
/// was applied since the last one. The empty default covers nothing:
/// recovery replays from genesis.
#[derive(Debug, Default, PartialEq)]
struct DurableSnapshot {
    completed: Vec<(u64, u64)>,
    activity: Vec<ActivityEntry>,
    tracks: Vec<TrackPoint>,
    applied: HashSet<u64>,
    keyed_applies: u64,
    high_water: Lsn,
}

/// Per-server durability state: the WAL, the checkpoint, the
/// applied-key table, the crash schedule and the recovery ledger.
#[derive(Debug)]
struct DurableState {
    journal: Journal,
    metrics: Arc<JournalMetrics>,
    /// A separate copy a crash cannot touch.
    checkpoint: DurableSnapshot,
    checkpoint_every: u32,
    since_checkpoint: u32,
    /// Idempotency keys whose effect committed in the current state
    /// generation (wiped by a crash, rebuilt by checkpoint + replay).
    applied: HashSet<u64>,
    /// The keys of `applied` the checkpoint does not hold yet, in apply
    /// order: what the next checkpoint inserts.
    applied_since_checkpoint: Vec<u64>,
    /// Total keyed applies in the current generation. Exactly-once
    /// holds iff this equals `applied.len()` — the duplicates gate.
    keyed_applies: u64,
    /// Re-deliveries answered from the journal (`already-applied`).
    suppressed_duplicates: u64,
    crash: Option<Arc<CrashSchedule>>,
    recoveries: u64,
    torn_crashes: u64,
    gap_crashes: u64,
    effect_crashes: u64,
    replayed_records: u64,
    /// Deterministic virtual recovery cost per crash survived, µs.
    recovery_cost_us: Vec<u64>,
}

/// The recovery ledger of a durable [`WfmServer`], reported by the
/// fleet's crash-storm digest.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ServerRecoverySnapshot {
    /// Crashes survived (one recovery pass each).
    pub recoveries: u64,
    /// Crashes that tore the intent record mid-write.
    pub torn_crashes: u64,
    /// Crashes in the gap between a durable intent and its effect.
    pub gap_crashes: u64,
    /// Crashes after the effect but before the covering checkpoint.
    pub effect_crashes: u64,
    /// Committed records replayed across all recoveries.
    pub replayed_records: u64,
    /// Torn tail records truncated across all recoveries.
    pub torn_truncated: u64,
    /// Checkpoints taken.
    pub checkpoints: u64,
    /// Re-deliveries answered from the journal.
    pub suppressed_duplicates: u64,
    /// Total keyed applies in the current state generation.
    pub keyed_applies: u64,
    /// Distinct idempotency keys applied in the current generation.
    pub distinct_keys: u64,
    /// Virtual recovery cost per crash, µs, in crash order.
    pub recovery_cost_us: Vec<u64>,
}

impl ServerRecoverySnapshot {
    /// Keyed effects applied more than once — exactly-once demands 0.
    pub fn duplicates(&self) -> u64 {
        self.keyed_applies.saturating_sub(self.distinct_keys)
    }
}

#[derive(Debug, Default)]
struct ServerState {
    tasks: Vec<(u64, Task)>,    // (assigned agent, task)
    completed: Vec<(u64, u64)>, // (agent, task id)
    activity: Vec<ActivityEntry>,
    tracks: Vec<TrackPoint>,
    /// When set, `/report-location` stops accepting once this many
    /// track points are stored and answers `503` + `Retry-After`
    /// instead — the server-side half of the overload story, giving
    /// clients an explicit back-off hint.
    track_capacity: Option<u64>,
    /// The back-off hint emitted on a capacity rejection, virtual ms.
    retry_after_ms: u64,
    /// `/report-location` posts rejected over capacity.
    tracks_rejected: u64,
    /// Present on servers built with [`WfmServer::durable`].
    durability: Option<DurableState>,
}

/// Completion report body, shared by the live route and journal replay.
#[derive(Debug, Serialize, Deserialize)]
struct CompleteBody {
    agent_id: u64,
    task_id: u64,
}

/// Extracts the `idem` query parameter carried by the client-side
/// `Journaled` HTTP decorator.
fn idem_from_query(query: Option<&str>) -> Option<IdempotencyKey> {
    query.and_then(|q| {
        q.split('&')
            .find_map(|kv| kv.strip_prefix("idem="))
            .and_then(IdempotencyKey::from_hex)
    })
}

/// Encodes one journal record: `{tag}|{key-hex-or-dash}|{json}`.
fn encode_record(tag: &str, key: Option<IdempotencyKey>, json: &str) -> String {
    let key = key
        .map(IdempotencyKey::to_hex)
        .unwrap_or_else(|| "-".into());
    format!("{tag}|{key}|{json}")
}

/// Applies one decoded mutation, the journal record at `at`. This is
/// the ONLY place journaled effects reach server state — live requests
/// and recovery replay both come through here, which is what makes
/// replay idempotent by construction. Returns `false` for an
/// undecodable record.
///
/// The write-ahead invariant is checked here: the record must already
/// sit on the durable image, with nothing left unfsynced.
fn apply_record(state: &mut ServerState, d: &mut DurableState, at: Lsn, payload: &str) -> bool {
    debug_assert!(
        at < d.journal.durable_end() && d.journal.volatile_len() == 0,
        "write-ahead violated: the effect of the record at {at} ran before its intent was durable"
    );
    let mut parts = payload.splitn(3, '|');
    let (Some(tag), Some(key), Some(json)) = (parts.next(), parts.next(), parts.next()) else {
        return false;
    };
    let applied = match tag {
        "track" => serde_json::from_str::<TrackPoint>(json)
            .map(|p| state.tracks.push(p))
            .is_ok(),
        "activity" => serde_json::from_str::<ActivityEntry>(json)
            .map(|e| state.activity.push(e))
            .is_ok(),
        "complete" => serde_json::from_str::<CompleteBody>(json)
            .map(|c| state.completed.push((c.agent_id, c.task_id)))
            .is_ok(),
        _ => false,
    };
    if applied {
        if let Some(k) = IdempotencyKey::from_hex(key) {
            d.applied.insert(k.0);
            d.applied_since_checkpoint.push(k.0);
            d.keyed_applies += 1;
        }
    }
    applied
}

/// Wipes the crashed generation and rebuilds it from a copy of the
/// checkpoint plus a journal replay, recording the crash in the
/// recovery ledger. With checkpoints on, the rebuilt state is
/// checkpointed at once, so a later crash never replays this
/// recovery's records again: each recovery replays only what its own
/// crash left past the checkpoint, whatever traffic (if any) landed
/// between two crashes.
fn recover_after_crash(state: &mut ServerState, d: &mut DurableState, kind: CrashKind) {
    // Process death: journal-protected in-memory state is gone.
    state.completed.clear();
    state.activity.clear();
    state.tracks.clear();
    d.applied.clear();
    d.applied_since_checkpoint.clear();
    let snap = &d.checkpoint;
    state.completed.extend_from_slice(&snap.completed);
    state.activity.extend_from_slice(&snap.activity);
    state.tracks.extend_from_slice(&snap.tracks);
    d.applied.clone_from(&snap.applied);
    d.keyed_applies = snap.keyed_applies;
    let recovery = d.journal.recover(snap.high_water);
    let replayed = recovery.records.len() as u64;
    for record in &recovery.records {
        if let Ok(payload) = std::str::from_utf8(&record.payload) {
            apply_record(state, d, record.lsn, payload);
        }
    }
    d.recoveries += 1;
    match kind {
        CrashKind::TornWrite => d.torn_crashes += 1,
        CrashKind::BeforeEffect => d.gap_crashes += 1,
        CrashKind::AfterEffect => d.effect_crashes += 1,
    }
    d.replayed_records += replayed;
    // Deterministic virtual recovery cost: a fixed restart overhead,
    // per-record replay work, and a torn-tail scan surcharge (µs).
    let cost_us = 150 + 40 * replayed + 90 * recovery.torn_records;
    d.recovery_cost_us.push(cost_us);
    if d.checkpoint_every != 0 {
        checkpoint(state, d);
    }
}

/// Once `checkpoint_every` applies have accumulated, takes a
/// [`checkpoint`].
fn maybe_checkpoint(state: &ServerState, d: &mut DurableState) {
    if d.checkpoint_every == 0 {
        return;
    }
    d.since_checkpoint += 1;
    if d.since_checkpoint < d.checkpoint_every {
        return;
    }
    checkpoint(state, d);
}

/// Extends the checkpoint by what was applied since the last one (the
/// snapshot is a prefix of the live state, so this costs O(applies
/// since), not O(state)), then GCs sealed journal segments below the
/// new high-water mark.
fn checkpoint(state: &ServerState, d: &mut DurableState) {
    d.since_checkpoint = 0;
    let snap = &mut d.checkpoint;
    snap.completed
        .extend_from_slice(&state.completed[snap.completed.len()..]);
    snap.activity
        .extend_from_slice(&state.activity[snap.activity.len()..]);
    snap.tracks
        .extend_from_slice(&state.tracks[snap.tracks.len()..]);
    snap.applied.extend(d.applied_since_checkpoint.drain(..));
    snap.keyed_applies = d.keyed_applies;
    snap.high_water = d.journal.durable_end();
    d.journal.truncate_before(snap.high_water);
    d.metrics.note_checkpoint();
}

/// The durable mutation path: duplicate check → journal the intent →
/// (scheduled crash?) → fsync barrier → effect → checkpoint. The
/// intent is journaled and fsynced BEFORE `apply_record` runs — the
/// write-ahead invariant, which `apply_record` asserts.
fn durable_mutate(
    state: &mut ServerState,
    tag: &str,
    key: Option<IdempotencyKey>,
    json: &str,
    success_body: &str,
) -> HttpResponse {
    let Some(mut d) = state.durability.take() else {
        return HttpResponse::status_only(500);
    };
    if let Some(k) = key {
        if d.applied.contains(&k.0) {
            d.suppressed_duplicates += 1;
            d.metrics.note_already_applied();
            state.durability = Some(d);
            return HttpResponse::ok("already-applied");
        }
    }
    let payload = encode_record(tag, key, json);
    let lsn = d.journal.append(payload.as_bytes());
    let scheduled = key.and_then(|k| d.crash.as_ref().and_then(|c| c.take(k.0)));
    let response = match scheduled {
        Some(kind @ CrashKind::TornWrite) => {
            // Process dies mid-write: all but the last byte of the
            // frame reached the disk queue — a torn tail for recovery
            // to truncate.
            let keep = d.journal.volatile_len().saturating_sub(1);
            d.journal.crash(Some(keep));
            recover_after_crash(state, &mut d, kind);
            HttpResponse::status_only(503)
        }
        Some(kind @ CrashKind::BeforeEffect) => {
            // Intent is durable, effect never ran: replay applies it.
            d.journal.fsync();
            d.journal.crash(None);
            recover_after_crash(state, &mut d, kind);
            HttpResponse::status_only(503)
        }
        Some(kind @ CrashKind::AfterEffect) => {
            // Effect ran but the covering checkpoint didn't: the wipe
            // discards it and replay re-applies it — net exactly once.
            d.journal.fsync();
            apply_record(state, &mut d, lsn, &payload);
            d.journal.crash(None);
            recover_after_crash(state, &mut d, kind);
            HttpResponse::status_only(503)
        }
        None => {
            d.journal.fsync();
            if apply_record(state, &mut d, lsn, &payload) {
                maybe_checkpoint(state, &mut d);
                HttpResponse::ok(success_body)
            } else {
                HttpResponse::status_only(500)
            }
        }
    };
    state.durability = Some(d);
    response
}

/// The workforce-management server: agent tracking, request assignment
/// and activity logging.
#[derive(Clone, Default)]
pub struct WfmServer {
    state: Arc<Mutex<ServerState>>,
}

impl std::fmt::Debug for WfmServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let state = self.state.lock();
        f.debug_struct("WfmServer")
            .field("tasks", &state.tasks.len())
            .field("activity", &state.activity.len())
            .finish()
    }
}

impl WfmServer {
    /// Creates an empty server.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty crash-fault-tolerant server: every mutating
    /// route journals an intent record (and crosses the fsync barrier)
    /// *before* its effect runs, checkpoints every
    /// `config.checkpoint_every` applies, dedups re-deliveries by
    /// idempotency key, and — when `config.crash` is armed — dies and
    /// recovers at the scheduled crash points.
    pub fn durable(config: DurabilityConfig) -> Self {
        let metrics = JournalMetrics::shared();
        let journal = Journal::new(&config.policy, Arc::clone(&metrics));
        let server = Self::default();
        server.state.lock().durability = Some(DurableState {
            journal,
            metrics,
            checkpoint: DurableSnapshot::default(),
            checkpoint_every: config.checkpoint_every,
            since_checkpoint: 0,
            applied: HashSet::new(),
            applied_since_checkpoint: Vec::new(),
            keyed_applies: 0,
            suppressed_duplicates: 0,
            crash: config.crash,
            recoveries: 0,
            torn_crashes: 0,
            gap_crashes: 0,
            effect_crashes: 0,
            replayed_records: 0,
            recovery_cost_us: Vec::new(),
        });
        server
    }

    /// The durability counters, when built with [`WfmServer::durable`].
    pub fn journal_snapshot(&self) -> Option<JournalSnapshot> {
        self.state
            .lock()
            .durability
            .as_ref()
            .map(|d| d.metrics.snapshot())
    }

    /// The recovery ledger, when built with [`WfmServer::durable`].
    pub fn recovery_snapshot(&self) -> Option<ServerRecoverySnapshot> {
        let state = self.state.lock();
        state.durability.as_ref().map(|d| ServerRecoverySnapshot {
            recoveries: d.recoveries,
            torn_crashes: d.torn_crashes,
            gap_crashes: d.gap_crashes,
            effect_crashes: d.effect_crashes,
            replayed_records: d.replayed_records,
            torn_truncated: d.metrics.snapshot().torn_truncated,
            checkpoints: d.metrics.snapshot().checkpoints,
            suppressed_duplicates: d.suppressed_duplicates,
            keyed_applies: d.keyed_applies,
            distinct_keys: d.applied.len() as u64,
            recovery_cost_us: d.recovery_cost_us.clone(),
        })
    }

    /// An order-sensitive FNV-1a digest of the journal-protected state
    /// (completions, activity log, track points). Two servers that
    /// processed the same logical mutations — crash-free or through
    /// any number of recoveries — digest identically.
    pub fn state_digest(&self) -> u64 {
        let state = self.state.lock();
        let mut buf = String::new();
        for (agent, task) in &state.completed {
            buf.push_str(&format!("c|{agent}|{task}\n"));
        }
        for e in &state.activity {
            buf.push_str(&format!("a|{}|{}|{}\n", e.agent_id, e.at_ms, e.event));
        }
        for p in &state.tracks {
            buf.push_str(&format!(
                "t|{}|{:.6}|{:.6}|{}\n",
                p.agent_id, p.latitude, p.longitude, p.at_ms
            ));
        }
        fnv1a(buf.as_bytes())
    }

    /// Assigns `task` to `agent_id` (the dispatcher's "request
    /// assignment" role).
    pub fn assign_task(&self, agent_id: u64, task: Task) {
        self.state.lock().tasks.push((agent_id, task));
    }

    /// Caps stored track points at `capacity`: further
    /// `/report-location` posts are rejected with `503` and a
    /// `Retry-After` header advising `retry_after_ms` of virtual
    /// back-off (rounded up to whole seconds on the wire, per HTTP).
    pub fn set_track_capacity(&self, capacity: u64, retry_after_ms: u64) {
        let mut state = self.state.lock();
        state.track_capacity = Some(capacity);
        state.retry_after_ms = retry_after_ms.max(1);
    }

    /// How many `/report-location` posts the capacity guard rejected.
    pub fn tracks_rejected(&self) -> u64 {
        self.state.lock().tracks_rejected
    }

    /// Open tasks currently assigned to `agent_id`.
    pub fn tasks_for(&self, agent_id: u64) -> Vec<Task> {
        let state = self.state.lock();
        state
            .tasks
            .iter()
            .filter(|(a, t)| *a == agent_id && !state.completed.contains(&(*a, t.id)))
            .map(|(_, t)| t.clone())
            .collect()
    }

    /// The activity log, in arrival order.
    pub fn activity_log(&self) -> Vec<ActivityEntry> {
        self.state.lock().activity.clone()
    }

    /// All recorded track points for `agent_id`.
    pub fn track(&self, agent_id: u64) -> Vec<TrackPoint> {
        self.state
            .lock()
            .tracks
            .iter()
            .filter(|t| t.agent_id == agent_id)
            .cloned()
            .collect()
    }

    /// A size snapshot of the server's state (cheap: four lengths under
    /// one lock).
    pub fn counts(&self) -> WfmServerCounts {
        let state = self.state.lock();
        WfmServerCounts {
            tasks: state.tasks.len() as u64,
            completed: state.completed.len() as u64,
            activity: state.activity.len() as u64,
            tracks: state.tracks.len() as u64,
        }
    }

    /// Tasks `agent_id` has completed.
    pub fn completed_tasks(&self, agent_id: u64) -> Vec<u64> {
        self.state
            .lock()
            .completed
            .iter()
            .filter(|(a, _)| *a == agent_id)
            .map(|(_, t)| *t)
            .collect()
    }

    /// Installs the HTTP routes on `network` under `host`.
    ///
    /// Routes: `GET /tasks?agent=N`, `POST /activity-log`,
    /// `POST /report-location`, `POST /task-complete`.
    pub fn install(&self, network: &SimNetwork, host: &str) {
        let state = Arc::clone(&self.state);
        network.register_route(host, Method::Get, "/tasks", move |req| {
            let agent_id: Option<u64> = req.url.query.as_deref().and_then(|q| {
                q.split('&')
                    .find_map(|kv| kv.strip_prefix("agent="))
                    .and_then(|v| v.parse().ok())
            });
            match agent_id {
                Some(agent_id) => {
                    let state = state.lock();
                    let tasks: Vec<&Task> = state
                        .tasks
                        .iter()
                        .filter(|(a, t)| *a == agent_id && !state.completed.contains(&(*a, t.id)))
                        .map(|(_, t)| t)
                        .collect();
                    match serde_json::to_vec(&tasks) {
                        Ok(body) => HttpResponse::ok(body),
                        Err(_) => HttpResponse::status_only(500),
                    }
                }
                None => HttpResponse::status_only(400),
            }
        });

        let state = Arc::clone(&self.state);
        network.register_route(host, Method::Post, "/activity-log", move |req| {
            match serde_json::from_slice::<ActivityEntry>(&req.body) {
                Ok(entry) => {
                    let mut state = state.lock();
                    if state.durability.is_some() {
                        let Ok(json) = serde_json::to_string(&entry) else {
                            return HttpResponse::status_only(500);
                        };
                        let key = idem_from_query(req.url.query.as_deref());
                        return durable_mutate(&mut state, "activity", key, &json, "logged");
                    }
                    state.activity.push(entry);
                    HttpResponse::ok("logged")
                }
                Err(_) => HttpResponse::status_only(400),
            }
        });

        let state = Arc::clone(&self.state);
        network.register_route(host, Method::Post, "/report-location", move |req| {
            match serde_json::from_slice::<TrackPoint>(&req.body) {
                Ok(point) => {
                    let mut state = state.lock();
                    // Capacity shedding happens before journaling: a
                    // rejected request burns no intent record.
                    if let Some(capacity) = state.track_capacity {
                        if state.tracks.len() as u64 >= capacity {
                            state.tracks_rejected += 1;
                            let retry_after_secs = state.retry_after_ms.div_ceil(1_000);
                            return HttpResponse::status_only(503)
                                .header("Retry-After", retry_after_secs.to_string());
                        }
                    }
                    if state.durability.is_some() {
                        let Ok(json) = serde_json::to_string(&point) else {
                            return HttpResponse::status_only(500);
                        };
                        let key = idem_from_query(req.url.query.as_deref());
                        return durable_mutate(&mut state, "track", key, &json, "tracked");
                    }
                    state.tracks.push(point);
                    HttpResponse::ok("tracked")
                }
                Err(_) => HttpResponse::status_only(400),
            }
        });

        let state = Arc::clone(&self.state);
        network.register_route(host, Method::Post, "/task-complete", move |req| {
            match serde_json::from_slice::<CompleteBody>(&req.body) {
                Ok(c) => {
                    let mut state = state.lock();
                    if state.durability.is_some() {
                        let Ok(json) = serde_json::to_string(&c) else {
                            return HttpResponse::status_only(500);
                        };
                        let key = idem_from_query(req.url.query.as_deref());
                        return durable_mutate(&mut state, "complete", key, &json, "completed");
                    }
                    state.completed.push((c.agent_id, c.task_id));
                    HttpResponse::ok("completed")
                }
                Err(_) => HttpResponse::status_only(400),
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fleet::splitmix64;
    use mobivine_device::net::HttpRequest;
    use mobivine_device::Device;

    fn task(id: u64) -> Task {
        Task {
            id,
            latitude: 28.5,
            longitude: 77.3,
            radius_m: 100.0,
            description: format!("task {id}"),
        }
    }

    fn installed() -> (Device, WfmServer) {
        let device = Device::builder().build();
        let server = WfmServer::new();
        server.install(device.network(), "wfm.example");
        (device, server)
    }

    #[test]
    fn tasks_route_filters_by_agent_and_completion() {
        let (device, server) = installed();
        server.assign_task(1, task(10));
        server.assign_task(1, task(11));
        server.assign_task(2, task(20));
        let req = HttpRequest::get("http://wfm.example/tasks?agent=1").unwrap();
        let (resp, _) = device.network().execute(&req).unwrap();
        let tasks: Vec<Task> = serde_json::from_slice(&resp.body).unwrap();
        assert_eq!(tasks.len(), 2);

        // Complete one and re-query.
        let body = serde_json::json!({"agent_id": 1, "task_id": 10}).to_string();
        let req = HttpRequest::post("http://wfm.example/task-complete", body).unwrap();
        device.network().execute(&req).unwrap();
        let req = HttpRequest::get("http://wfm.example/tasks?agent=1").unwrap();
        let (resp, _) = device.network().execute(&req).unwrap();
        let tasks: Vec<Task> = serde_json::from_slice(&resp.body).unwrap();
        assert_eq!(tasks.len(), 1);
        assert_eq!(tasks[0].id, 11);
        assert_eq!(server.completed_tasks(1), vec![10]);
    }

    #[test]
    fn tasks_route_requires_agent_parameter() {
        let (device, _server) = installed();
        let req = HttpRequest::get("http://wfm.example/tasks").unwrap();
        let (resp, _) = device.network().execute(&req).unwrap();
        assert_eq!(resp.status, 400);
    }

    #[test]
    fn activity_log_accumulates() {
        let (device, server) = installed();
        let entry = ActivityEntry {
            agent_id: 1,
            at_ms: 1000,
            event: "arrived".into(),
        };
        let req = HttpRequest::post(
            "http://wfm.example/activity-log",
            serde_json::to_vec(&entry).unwrap(),
        )
        .unwrap();
        device.network().execute(&req).unwrap();
        assert_eq!(server.activity_log(), vec![entry]);
    }

    #[test]
    fn malformed_posts_are_400() {
        let (device, server) = installed();
        let req = HttpRequest::post("http://wfm.example/activity-log", "not json").unwrap();
        let (resp, _) = device.network().execute(&req).unwrap();
        assert_eq!(resp.status, 400);
        assert!(server.activity_log().is_empty());
    }

    #[test]
    fn metrics_route_serves_prometheus_text() {
        let device = Device::builder().build();
        install_metrics_route(
            device.network(),
            "wfm.example",
            Arc::clone(device.metrics()),
        );
        // Generate some device traffic so counters are non-zero.
        device
            .network()
            .register_route("wfm.example", Method::Get, "/ping", |_| {
                HttpResponse::ok("pong")
            });
        let ping = HttpRequest::get("http://wfm.example/ping").unwrap();
        device.network().execute(&ping).unwrap();

        let req = HttpRequest::get("http://wfm.example/metrics").unwrap();
        let (resp, _) = device.network().execute(&req).unwrap();
        assert_eq!(resp.status, 200);
        let text = String::from_utf8(resp.body).unwrap();
        assert!(
            text.contains("device_net_requests_total"),
            "exposition missing net counter:\n{text}"
        );
    }

    #[test]
    fn health_route_reports_protection_state() {
        use mobivine::overload::OverloadPolicy;
        use mobivine::resilience::ResiliencePolicy;
        use mobivine_android::{AndroidPlatform, SdkVersion};

        let device = Device::builder().build();
        let platform = AndroidPlatform::new(device.clone(), SdkVersion::M5Rc15);
        let runtime = Arc::new(
            mobivine::registry::Mobivine::builder()
                .with_telemetry()
                .with_resilience(ResiliencePolicy::default())
                .with_overload(OverloadPolicy::default())
                .android(platform.new_context())
                .build()
                .unwrap(),
        );
        install_health_route(device.network(), "wfm.example", runtime);
        let req = HttpRequest::get("http://wfm.example/health").unwrap();
        let (resp, _) = device.network().execute(&req).unwrap();
        assert_eq!(resp.status, 200);
        let doc: serde_json::Value = serde_json::from_slice(&resp.body).unwrap();
        assert_eq!(
            doc.get_field("status"),
            Some(&serde_json::Value::String("ok".into()))
        );
        let overload = doc.get_field("overload").expect("overload block");
        assert_eq!(
            overload.get_field("shed"),
            Some(&serde_json::Value::Number(0.0))
        );
        let incidents = doc.get_field("incidents").expect("incidents block");
        assert_eq!(
            incidents.get_field("promoted"),
            Some(&serde_json::Value::Number(0.0))
        );
    }

    #[test]
    fn slo_route_serves_a_valid_burn_rate_report() {
        use mobivine::api::LocationProxy;
        use mobivine_android::{AndroidPlatform, SdkVersion};
        use mobivine_telemetry::slo::validate_slo_json;
        use mobivine_telemetry::{SloEngine, SloObjective, SloTarget};

        let device = Device::builder().build();
        let platform = AndroidPlatform::new(device.clone(), SdkVersion::M5Rc15);
        let engine = Arc::new(SloEngine::new(vec![SloObjective {
            name: "location-availability".into(),
            proxy: "Location".into(),
            method: "getLocation".into(),
            platform: "android".into(),
            target: SloTarget::Availability {
                target_ppm: 999_000,
            },
        }]));
        let runtime = Arc::new(
            mobivine::registry::Mobivine::builder()
                .with_telemetry()
                .with_slo(Arc::clone(&engine))
                .android(platform.new_context())
                .build()
                .unwrap(),
        );
        let location = runtime.proxy::<dyn LocationProxy>().unwrap();
        for _ in 0..4 {
            location.get_location().unwrap();
        }
        install_slo_route(device.network(), "wfm.example", device.clone(), runtime);
        let req = HttpRequest::get("http://wfm.example/slo").unwrap();
        let (resp, _) = device.network().execute(&req).unwrap();
        assert_eq!(resp.status, 200);
        let body = String::from_utf8(resp.body).unwrap();
        let summary = validate_slo_json(&body).expect("slo report round-trips");
        assert_eq!(summary.objectives, 1);
        assert_eq!(summary.breached, 0);
    }

    #[test]
    fn slo_route_is_404_without_an_engine() {
        use mobivine_android::{AndroidPlatform, SdkVersion};

        let device = Device::builder().build();
        let platform = AndroidPlatform::new(device.clone(), SdkVersion::M5Rc15);
        let runtime = Arc::new(
            mobivine::registry::Mobivine::for_android(platform.new_context()).with_telemetry(),
        );
        install_slo_route(device.network(), "wfm.example", device.clone(), runtime);
        let req = HttpRequest::get("http://wfm.example/slo").unwrap();
        let (resp, _) = device.network().execute(&req).unwrap();
        assert_eq!(resp.status, 404);
    }

    #[test]
    fn track_points_recorded_per_agent() {
        let (device, server) = installed();
        for (agent, t) in [(1u64, 100u64), (2, 200), (1, 300)] {
            let point = TrackPoint {
                agent_id: agent,
                latitude: 28.0,
                longitude: 77.0,
                at_ms: t,
            };
            let req = HttpRequest::post(
                "http://wfm.example/report-location",
                serde_json::to_vec(&point).unwrap(),
            )
            .unwrap();
            device.network().execute(&req).unwrap();
        }
        assert_eq!(server.track(1).len(), 2);
        assert_eq!(server.track(2).len(), 1);
    }

    fn durable_installed(config: DurabilityConfig) -> (Device, WfmServer) {
        let device = Device::builder().build();
        let server = WfmServer::durable(config);
        server.install(device.network(), "wfm.example");
        (device, server)
    }

    fn post_track(device: &Device, key: IdempotencyKey, at_ms: u64) -> u16 {
        let point = TrackPoint {
            agent_id: 1,
            latitude: 28.0,
            longitude: 77.0,
            at_ms,
        };
        let url = format!("http://wfm.example/report-location?idem={}", key.to_hex());
        let req = HttpRequest::post(&url, serde_json::to_vec(&point).unwrap()).unwrap();
        device.network().execute(&req).unwrap().0.status
    }

    #[test]
    fn durable_server_dedups_re_delivered_idempotency_keys() {
        let (device, server) = durable_installed(DurabilityConfig {
            checkpoint_every: 1,
            ..Default::default()
        });
        let key = IdempotencyKey::derive(11, 0, 1, 0);
        assert_eq!(post_track(&device, key, 100), 200);
        assert_eq!(post_track(&device, key, 100), 200, "duplicate is a 200");
        assert_eq!(server.counts().tracks, 1, "effect committed exactly once");
        let ledger = server.recovery_snapshot().unwrap();
        assert_eq!(ledger.suppressed_duplicates, 1);
        assert_eq!(ledger.duplicates(), 0);
        let journal = server.journal_snapshot().unwrap();
        assert_eq!(journal.appends, 1);
        assert_eq!(journal.already_applied, 1);
        assert_eq!(journal.checkpoints, 1);
    }

    #[test]
    fn torn_write_crash_truncates_the_tail_and_the_retry_commits_once() {
        let key = IdempotencyKey::derive(11, 0, 1, 0);
        let schedule = CrashSchedule::new([(key.0, CrashKind::TornWrite)]);
        schedule.arm();
        let (device, server) = durable_installed(DurabilityConfig {
            checkpoint_every: 1,
            crash: Some(Arc::clone(&schedule)),
            ..Default::default()
        });
        assert_eq!(post_track(&device, key, 100), 503, "crash kills the call");
        assert_eq!(server.counts().tracks, 0, "torn intent never committed");
        assert_eq!(post_track(&device, key, 100), 200, "retry commits");
        assert_eq!(server.counts().tracks, 1);
        let ledger = server.recovery_snapshot().unwrap();
        assert_eq!(ledger.recoveries, 1);
        assert_eq!(ledger.torn_crashes, 1);
        assert_eq!(ledger.torn_truncated, 1);
        assert_eq!(ledger.replayed_records, 0, "torn frame is not replayable");
        assert_eq!(ledger.duplicates(), 0);
    }

    #[test]
    fn intent_effect_gap_crash_is_healed_by_replay_and_the_retry_dedups() {
        let key = IdempotencyKey::derive(11, 0, 2, 0);
        let schedule = CrashSchedule::new([(key.0, CrashKind::BeforeEffect)]);
        schedule.arm();
        let (device, server) = durable_installed(DurabilityConfig {
            checkpoint_every: 1,
            crash: Some(Arc::clone(&schedule)),
            ..Default::default()
        });
        assert_eq!(post_track(&device, key, 200), 503);
        assert_eq!(server.counts().tracks, 1, "replay applied the intent");
        assert_eq!(post_track(&device, key, 200), 200, "retry is a dedup hit");
        assert_eq!(server.counts().tracks, 1, "still exactly once");
        let ledger = server.recovery_snapshot().unwrap();
        assert_eq!(ledger.gap_crashes, 1);
        assert_eq!(ledger.replayed_records, 1);
        assert_eq!(ledger.suppressed_duplicates, 1);
        assert_eq!(ledger.duplicates(), 0);
    }

    #[test]
    fn post_effect_crash_does_not_duplicate_across_wipe_and_replay() {
        let key = IdempotencyKey::derive(11, 0, 3, 0);
        let schedule = CrashSchedule::new([(key.0, CrashKind::AfterEffect)]);
        schedule.arm();
        let (device, server) = durable_installed(DurabilityConfig {
            checkpoint_every: 1,
            crash: Some(Arc::clone(&schedule)),
            ..Default::default()
        });
        assert_eq!(post_track(&device, key, 300), 503);
        assert_eq!(server.counts().tracks, 1, "wipe + replay nets one apply");
        assert_eq!(post_track(&device, key, 300), 200);
        assert_eq!(server.counts().tracks, 1);
        let ledger = server.recovery_snapshot().unwrap();
        assert_eq!(ledger.effect_crashes, 1);
        assert_eq!(ledger.replayed_records, 1);
        assert_eq!(ledger.duplicates(), 0);
    }

    #[test]
    fn crashed_and_crash_free_servers_digest_identically() {
        let crash_key = IdempotencyKey::derive(11, 0, 2, 1);
        let schedule = CrashSchedule::new([(crash_key.0, CrashKind::BeforeEffect)]);
        schedule.arm();
        let (crashing_device, crashing) = durable_installed(DurabilityConfig {
            checkpoint_every: 1,
            crash: Some(Arc::clone(&schedule)),
            ..Default::default()
        });
        let (clean_device, clean) = durable_installed(DurabilityConfig {
            checkpoint_every: 1,
            ..Default::default()
        });
        for round in 1..=3u64 {
            for op in 0..4u64 {
                let key = IdempotencyKey::derive(11, 0, round, op);
                let at_ms = round * 1_000 + op;
                let status = post_track(&crashing_device, key, at_ms);
                if status == 503 {
                    assert_eq!(post_track(&crashing_device, key, at_ms), 200);
                }
                assert_eq!(post_track(&clean_device, key, at_ms), 200);
            }
        }
        assert_eq!(crashing.state_digest(), clean.state_digest());
        assert_eq!(crashing.counts(), clean.counts());
        assert_eq!(crashing.recovery_snapshot().unwrap().duplicates(), 0);
        assert_eq!(crashing.recovery_snapshot().unwrap().recoveries, 1);
    }

    #[test]
    fn sparse_checkpoints_bound_replay_but_preserve_state() {
        // checkpoint_every=3: a crash after 5 applies replays the 2
        // records past the checkpoint, not all 5.
        let crash_key = IdempotencyKey::derive(7, 0, 1, 5);
        let schedule = CrashSchedule::new([(crash_key.0, CrashKind::BeforeEffect)]);
        schedule.arm();
        let (device, server) = durable_installed(DurabilityConfig {
            checkpoint_every: 3,
            crash: Some(Arc::clone(&schedule)),
            ..Default::default()
        });
        for op in 0..5u64 {
            let key = IdempotencyKey::derive(7, 0, 1, op);
            assert_eq!(post_track(&device, key, 100 + op), 200);
        }
        assert_eq!(post_track(&device, crash_key, 105), 503);
        assert_eq!(
            server.counts().tracks,
            6,
            "checkpoint + replay restored all"
        );
        let ledger = server.recovery_snapshot().unwrap();
        // Applies 0..2 are covered by the checkpoint; 3, 4 and the
        // crashed intent replay.
        assert_eq!(ledger.replayed_records, 3);
        // One after the third apply, one right after the recovery.
        assert_eq!(ledger.checkpoints, 2);
        assert_eq!(ledger.duplicates(), 0);
    }

    #[test]
    fn back_to_back_crashes_replay_each_record_once() {
        // Two gap crashes with nothing applied in between: the second
        // recovery must not replay the record the first one replayed.
        let first = IdempotencyKey::derive(7, 0, 1, 0);
        let second = IdempotencyKey::derive(7, 0, 1, 1);
        let schedule = CrashSchedule::new([
            (first.0, CrashKind::BeforeEffect),
            (second.0, CrashKind::BeforeEffect),
        ]);
        schedule.arm();
        let (device, server) = durable_installed(DurabilityConfig {
            checkpoint_every: 1,
            crash: Some(Arc::clone(&schedule)),
            ..Default::default()
        });
        assert_eq!(post_track(&device, first, 100), 503);
        assert_eq!(post_track(&device, second, 101), 503);
        assert_eq!(server.counts().tracks, 2);
        let ledger = server.recovery_snapshot().unwrap();
        assert_eq!(ledger.recoveries, 2);
        assert_eq!(ledger.replayed_records, 2, "one replayed record per crash");
        assert_eq!(ledger.duplicates(), 0);
    }

    /// Posts the mutation `key` names (route and body are functions of
    /// the key, so a re-delivery repeats the original request).
    fn post_keyed(device: &Device, key: IdempotencyKey) -> u16 {
        let (path, body) = match key.0 % 3 {
            0 => (
                "report-location",
                serde_json::to_vec(&TrackPoint {
                    agent_id: key.0 % 5,
                    latitude: 28.0,
                    longitude: 77.0,
                    at_ms: key.0 % 10_000,
                }),
            ),
            1 => (
                "activity-log",
                serde_json::to_vec(&ActivityEntry {
                    agent_id: key.0 % 5,
                    at_ms: key.0 % 10_000,
                    event: format!("event {}", key.0 % 97),
                }),
            ),
            _ => (
                "task-complete",
                serde_json::to_vec(&CompleteBody {
                    agent_id: key.0 % 5,
                    task_id: key.0 % 1_000,
                }),
            ),
        };
        let url = format!("http://wfm.example/{path}?idem={}", key.to_hex());
        let req = HttpRequest::post(&url, body.unwrap()).unwrap();
        device.network().execute(&req).unwrap().0.status
    }

    /// Checks a durable server's checkpoint against its live state and
    /// returns the checkpoint count. Always: the snapshot is a prefix of
    /// the live state and the key delta holds exactly the keyed applies
    /// the snapshot lacks. When a checkpoint was taken since
    /// `checkpoints_before`: the snapshot equals a from-scratch clone of
    /// the live state, with the journal's durable end as its mark.
    fn check_checkpoint(server: &WfmServer, checkpoints_before: u64) -> u64 {
        let state = server.state.lock();
        let d = state.durability.as_ref().unwrap();
        let snap = &d.checkpoint;
        let checkpoints = d.metrics.snapshot().checkpoints;
        if checkpoints > checkpoints_before {
            let full = DurableSnapshot {
                completed: state.completed.clone(),
                activity: state.activity.clone(),
                tracks: state.tracks.clone(),
                applied: d.applied.clone(),
                keyed_applies: d.keyed_applies,
                high_water: d.journal.durable_end(),
            };
            assert_eq!(*snap, full, "incremental checkpoint != full clone");
        }
        assert!(state.completed.starts_with(&snap.completed));
        assert!(state.activity.starts_with(&snap.activity));
        assert!(state.tracks.starts_with(&snap.tracks));
        let delta = &d.applied_since_checkpoint;
        assert_eq!(
            delta.len() as u64,
            d.keyed_applies - snap.keyed_applies,
            "key delta holds exactly the applies since the checkpoint"
        );
        assert!(delta
            .iter()
            .all(|k| d.applied.contains(k) && !snap.applied.contains(k)));
        assert_eq!(snap.applied.len() + delta.len(), d.applied.len());
        checkpoints
    }

    #[test]
    fn incremental_checkpoints_equal_a_full_clone_through_every_crash_kind() {
        let kinds = [
            CrashKind::TornWrite,
            CrashKind::BeforeEffect,
            CrashKind::AfterEffect,
        ];
        for checkpoint_every in [1, 3, 64] {
            for seed in 1..=3u64 {
                let mut rng = seed;
                let keys: Vec<IdempotencyKey> = (0..300)
                    .map(|op| IdempotencyKey::derive(seed, 0, 1, op))
                    .collect();
                let victims: Vec<(u64, CrashKind)> = keys
                    .iter()
                    .filter(|_| splitmix64(&mut rng).is_multiple_of(8))
                    .enumerate()
                    .map(|(i, k)| (k.0, kinds[i % kinds.len()]))
                    .collect();
                let schedule = CrashSchedule::new(victims);
                schedule.arm();
                let (device, server) = durable_installed(DurabilityConfig {
                    checkpoint_every,
                    crash: Some(Arc::clone(&schedule)),
                    ..Default::default()
                });
                let (clean_device, clean) = durable_installed(DurabilityConfig {
                    checkpoint_every,
                    ..Default::default()
                });
                let mut checkpoints = 0;
                for (op, &fresh) in keys.iter().enumerate() {
                    // One post in six re-delivers an earlier key.
                    let r = splitmix64(&mut rng);
                    let key = if op > 0 && r.is_multiple_of(6) {
                        keys[(r / 6) as usize % op]
                    } else {
                        fresh
                    };
                    if post_keyed(&device, key) == 503 {
                        checkpoints = check_checkpoint(&server, checkpoints);
                        assert_eq!(post_keyed(&device, key), 200, "retry commits");
                    }
                    checkpoints = check_checkpoint(&server, checkpoints);
                    assert_eq!(post_keyed(&clean_device, key), 200);
                }
                let ledger = server.recovery_snapshot().unwrap();
                let context = format!("checkpoint_every={checkpoint_every} seed={seed}");
                assert!(ledger.torn_crashes > 0, "{context}");
                assert!(ledger.gap_crashes > 0, "{context}");
                assert!(ledger.effect_crashes > 0, "{context}");
                assert!(ledger.checkpoints > 0, "{context}");
                assert_eq!(ledger.duplicates(), 0, "{context}");
                assert_eq!(server.state_digest(), clean.state_digest(), "{context}");
                assert_eq!(server.counts(), clean.counts(), "{context}");
            }
        }
    }

    #[test]
    fn over_capacity_tracks_get_503_with_retry_after() {
        let (device, server) = installed();
        server.set_track_capacity(2, 2_500);
        let post = |at_ms: u64| {
            let point = TrackPoint {
                agent_id: 1,
                latitude: 28.0,
                longitude: 77.0,
                at_ms,
            };
            let req = HttpRequest::post(
                "http://wfm.example/report-location",
                serde_json::to_vec(&point).unwrap(),
            )
            .unwrap();
            device.network().execute(&req).unwrap().0
        };
        assert_eq!(post(1).status, 200);
        assert_eq!(post(2).status, 200);
        let rejected = post(3);
        assert_eq!(rejected.status, 503);
        // 2500ms rounds up to 3 whole seconds on the wire.
        assert_eq!(rejected.header_value("retry-after"), Some("3"));
        assert_eq!(server.track(1).len(), 2, "over-capacity post not stored");
        assert_eq!(server.tracks_rejected(), 1);
        assert_eq!(server.counts().tracks, 2);
    }
}
