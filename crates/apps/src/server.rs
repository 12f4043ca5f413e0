//! The server-side application (paper Fig. 1, right half).
//!
//! "Each device-side component … communicates with the server side
//! application that does the tasks of book-keeping, request allocation,
//! etc." Built "using Web standards": JSON over HTTP routes on the
//! simulated network.

use std::collections::{HashMap, HashSet};
use std::fmt::{self, Write as _};
use std::sync::Arc;

use parking_lot::Mutex;
use serde::{Deserialize, Serialize};

use mobivine::journal::{fnv1a, fnv1a_continue};
use mobivine::registry::Mobivine;
use mobivine::{
    DurableLsn, IdempotencyKey, Journal, JournalMetrics, JournalPolicy, JournalSnapshot, Lsn,
};
use mobivine_device::delta::{DeltaLog, DeltaReader, DeltaRecord, DeltaWriter, Mark};
use mobivine_device::fault::{CrashKind, CrashSchedule};
use mobivine_device::net::{HttpResponse, Method, SimNetwork};
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

/// A size snapshot of one [`WfmServer`]'s state.
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
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
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

/// A server keeps its track points in a [`DeltaLog`]: consecutive
/// reports share most of their bits, so a point takes about 14 bytes
/// there instead of 32.
impl DeltaRecord for TrackPoint {
    fn encode(&self, prev: &Self, out: &mut DeltaWriter<'_>) {
        out.int(prev.agent_id, self.agent_id);
        out.int(prev.at_ms, self.at_ms);
        out.float(prev.latitude, self.latitude);
        out.float(prev.longitude, self.longitude);
    }

    fn decode(prev: &Self, input: &mut DeltaReader<'_>) -> Self {
        Self {
            agent_id: input.int(prev.agent_id),
            at_ms: input.int(prev.at_ms),
            latitude: input.float(prev.latitude),
            longitude: input.float(prev.longitude),
        }
    }
}

/// Knobs for a crash-fault-tolerant [`WfmServer`]
/// ([`WfmServer::durable`]).
#[derive(Debug, Clone, Default)]
pub struct DurabilityConfig {
    /// Take a checkpoint (state snapshot + journal high-water mark)
    /// after this many applied mutations. `0` disables checkpoints —
    /// recovery replays from genesis.
    pub checkpoint_every: u32,
    /// The journal's policy, which has no knobs.
    pub policy: JournalPolicy,
    /// When set, mutations whose idempotency key the schedule claims
    /// crash the server at the scheduled point (torn write / intent
    /// gap / post-effect) and immediately recover.
    pub crash: Option<Arc<CrashSchedule>>,
}

mod append_only {
    /// An append-only log: it grows by [`Log::push`] and shrinks only
    /// by [`Log::rewind`] to an earlier length. A length read at any
    /// time is therefore a mark whose prefix stays intact until a
    /// rewind to it or below.
    #[derive(Debug)]
    pub struct Log<T>(Vec<T>);

    impl<T> Default for Log<T> {
        fn default() -> Self {
            Self(Vec::new())
        }
    }

    impl<T> Log<T> {
        /// Appends one entry.
        pub fn push(&mut self, value: T) {
            self.0.push(value);
        }

        /// Entries appended and not rewound.
        pub fn len(&self) -> usize {
            self.0.len()
        }

        /// The entries, oldest first.
        pub fn as_slice(&self) -> &[T] {
            &self.0
        }

        /// Drops every entry past `mark`, a length read earlier.
        pub(crate) fn rewind(&mut self, mark: usize) {
            debug_assert!(mark <= self.0.len(), "a mark is a past length");
            self.0.truncate(mark);
        }
    }
}

use append_only::Log;

/// The checkpoint: marks into everything the journal protects, plus
/// the journal high-water mark it covers. Task assignments and capacity
/// knobs are dispatcher-owned configuration (they arrive out-of-band,
/// not through the mutating HTTP routes) and survive a middleware crash
/// on their own.
///
/// The three state vectors are append-only ([`Log`]s and the track
/// points' [`DeltaLog`]), so between crashes they only grow, and
/// recovery rewinds them to these marks before replaying the journal
/// past `high_water`. The checkpointed state is therefore always a
/// prefix of the live state, and marks are all it needs to keep: a
/// length, or for the track points a [`Mark`] (length, byte length and
/// last point). Its keys are the live keys minus
/// [`DurableState::applied_since_checkpoint`]. The zero default covers
/// nothing: recovery replays from genesis.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
struct DurableSnapshot {
    completed: usize,
    activity: usize,
    tracks: Mark<TrackPoint>,
    keyed_applies: u64,
    high_water: Lsn,
}

/// Per-server durability state: the WAL and its counters, the
/// checkpoint, the applied-key table, the crash schedule and what the
/// counters do not hold of the recovery ledger.
#[derive(Debug)]
struct DurableState {
    journal: Journal,
    metrics: Arc<JournalMetrics>,
    /// Marks a crash cannot touch.
    checkpoint: DurableSnapshot,
    checkpoint_every: u32,
    since_checkpoint: u32,
    /// Idempotency keys whose effect committed in the current state
    /// generation (wiped back to the checkpoint's by a crash, rebuilt
    /// by replay).
    applied: HashSet<u64>,
    /// The keys of `applied` the checkpoint does not cover, in apply
    /// order: what a crash removes. Always empty with checkpoints off,
    /// where a crash clears `applied` instead.
    applied_since_checkpoint: Vec<u64>,
    /// Total keyed applies in the current generation. Exactly-once
    /// holds iff this equals `applied.len()` — the duplicates gate.
    keyed_applies: u64,
    crash: Option<Arc<CrashSchedule>>,
    torn_crashes: u64,
    gap_crashes: u64,
    effect_crashes: u64,
    /// Records the most recent recovery replayed.
    last_replayed_records: u64,
    /// Deterministic virtual recovery cost per crash survived, µs.
    recovery_cost_us: Vec<u64>,
    /// The journal record being written, reused across mutations.
    record: Vec<u8>,
}

/// The recovery ledger of a durable [`WfmServer`], folded into the
/// fleet report's recovery counters.
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
    /// Durable journal bytes past the checkpoint's high-water mark:
    /// what a crash now would scan.
    pub journal_tail_bytes: u64,
    /// Mutations applied past the checkpoint, live or replayed: what a
    /// crash now would rewind.
    pub applies_since_checkpoint: u64,
    /// Records the most recent recovery replayed (0 before any crash).
    pub last_replayed_records: u64,
}

impl ServerRecoverySnapshot {
    /// Keyed effects applied more than once — exactly-once demands 0.
    pub fn duplicates(&self) -> u64 {
        self.keyed_applies.saturating_sub(self.distinct_keys)
    }
}

/// One agent's slot in the per-agent task index.
#[derive(Debug, Default)]
struct AgentTasks {
    /// Every task assigned to the agent, in assignment order.
    tasks: Vec<Task>,
    /// The cached `GET /tasks` body: the open tasks as JSON. Every
    /// mutation that can change them drops it.
    body: Option<Vec<u8>>,
}

impl AgentTasks {
    /// The tasks of agent `agent_id` not in `completed`, in assignment
    /// order.
    fn open<'a>(
        &'a self,
        agent_id: u64,
        completed: &'a [(u64, u64)],
    ) -> impl Iterator<Item = &'a Task> {
        self.tasks
            .iter()
            .filter(move |t| !completed.contains(&(agent_id, t.id)))
    }
}

#[derive(Debug, Default)]
struct ServerState {
    /// Assigned tasks by agent; only agents with a task have a slot.
    agents: HashMap<u64, AgentTasks>,
    completed: Log<(u64, u64)>, // (agent, task id)
    activity: Log<ActivityEntry>,
    tracks: DeltaLog<TrackPoint>,
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

impl ServerState {
    /// Tasks ever assigned, across all agents.
    fn assigned(&self) -> u64 {
        self.agents.values().map(|a| a.tasks.len() as u64).sum()
    }

    /// Records that `agent_id` completed `task_id` and drops the agent's
    /// cached body. Every completion, live or replayed, lands here.
    fn complete(&mut self, agent_id: u64, task_id: u64) {
        self.completed.push((agent_id, task_id));
        if let Some(agent) = self.agents.get_mut(&agent_id) {
            agent.body = None;
        }
    }

    /// The `GET /tasks` body for `agent_id`: the cached one, or the
    /// open tasks serialized once and cached. An agent with no task
    /// gets `[]` and no slot.
    fn tasks_body(&mut self, agent_id: u64) -> serde_json::Result<Vec<u8>> {
        let Some(agent) = self.agents.get_mut(&agent_id) else {
            return Ok(b"[]".to_vec());
        };
        if let Some(body) = &agent.body {
            return Ok(body.clone());
        }
        let open: Vec<&Task> = agent.open(agent_id, self.completed.as_slice()).collect();
        let body = serde_json::to_vec(&open)?;
        Ok(agent.body.insert(body).clone())
    }
}

/// Completion report body, shared by the live route and journal replay.
#[derive(Debug, Serialize, Deserialize)]
struct CompleteBody {
    agent_id: u64,
    task_id: u64,
}

/// Extracts the `idem` query parameter the client's journal layer
/// stamps on an HTTP submit.
fn idem_from_query(query: Option<&str>) -> Option<IdempotencyKey> {
    query.and_then(|q| {
        q.split('&')
            .find_map(|kv| kv.strip_prefix("idem="))
            .and_then(IdempotencyKey::from_hex)
    })
}

/// One journaled mutation, decoded: what a live request carries and
/// what a replayed record decodes to.
#[derive(Debug)]
enum Mutation {
    Track(TrackPoint),
    Activity(ActivityEntry),
    Complete(CompleteBody),
}

impl Mutation {
    fn tag(&self) -> &'static str {
        match self {
            Self::Track(_) => "track",
            Self::Activity(_) => "activity",
            Self::Complete(_) => "complete",
        }
    }

    /// Writes the journal record `{tag}|{key-hex-or-dash}|{json}` into
    /// `record`, replacing what it held.
    fn encode(&self, key: Option<IdempotencyKey>, record: &mut Vec<u8>) -> serde_json::Result<()> {
        record.clear();
        record.extend_from_slice(self.tag().as_bytes());
        record.push(b'|');
        match key {
            Some(k) => {
                const HEX: &[u8; 16] = b"0123456789abcdef";
                record.extend(
                    (0..16)
                        .rev()
                        .map(|nibble| HEX[(k.0 >> (4 * nibble)) as usize & 0xf]),
                );
            }
            None => record.push(b'-'),
        }
        record.push(b'|');
        match self {
            Self::Track(point) => serde_json::to_writer(record, point),
            Self::Activity(entry) => serde_json::to_writer(record, entry),
            Self::Complete(body) => serde_json::to_writer(record, body),
        }
    }

    /// Decodes a committed record. `None` for an undecodable one; a key
    /// field that is not 16 hex digits decodes as no key.
    fn decode(payload: &[u8]) -> Option<(Self, Option<IdempotencyKey>)> {
        let payload = std::str::from_utf8(payload).ok()?;
        let mut parts = payload.splitn(3, '|');
        let (tag, key, json) = (parts.next()?, parts.next()?, parts.next()?);
        let mutation = match tag {
            "track" => Self::Track(serde_json::from_str(json).ok()?),
            "activity" => Self::Activity(serde_json::from_str(json).ok()?),
            "complete" => Self::Complete(serde_json::from_str(json).ok()?),
            _ => return None,
        };
        Some((mutation, IdempotencyKey::from_hex(key)))
    }

    /// The mutation's effect on server state: the one place a mutation,
    /// plain or journaled, live or replayed, reaches it.
    fn apply_to(self, state: &mut ServerState) {
        match self {
            Self::Track(point) => state.tracks.push(point),
            Self::Activity(entry) => state.activity.push(entry),
            Self::Complete(c) => state.complete(c.agent_id, c.task_id),
        }
    }
}

/// Applies one committed mutation through [`Mutation::apply_to`] and
/// records its key. This is the ONLY place journaled effects reach
/// server state — live requests apply the value they
/// decoded and recovery replay applies what each record decodes to,
/// which is what makes replay idempotent by construction.
///
/// The write-ahead invariant is a type: `_durable` can only come from
/// `Journal::fsync` or from a recovered record, so no effect is applied
/// before its record crossed the barrier.
fn apply(
    state: &mut ServerState,
    d: &mut DurableState,
    _durable: DurableLsn,
    mutation: Mutation,
    key: Option<IdempotencyKey>,
) {
    mutation.apply_to(state);
    if let Some(k) = key {
        if d.applied.insert(k.0) && d.checkpoint_every != 0 {
            d.applied_since_checkpoint.push(k.0);
        }
        d.keyed_applies += 1;
    }
}

/// Rewinds the crashed generation to the checkpoint's marks and
/// rebuilds it by a journal replay (which counts the recovery and its
/// records), recording the crash kind. With checkpoints on, the rebuilt
/// state is checkpointed at once, so a later crash never replays this
/// recovery's records again:
/// each recovery replays only what its own crash left past the
/// checkpoint, whatever traffic (if any) landed between two crashes.
fn recover_after_crash(state: &mut ServerState, d: &mut DurableState, kind: CrashKind) {
    // Process death: journal-protected state past the checkpoint is gone.
    let snap = d.checkpoint;
    state.completed.rewind(snap.completed);
    state.activity.rewind(snap.activity);
    state.tracks.rewind(snap.tracks);
    if d.checkpoint_every == 0 {
        d.applied.clear();
    } else {
        for key in d.applied_since_checkpoint.drain(..) {
            d.applied.remove(&key);
        }
    }
    d.keyed_applies = snap.keyed_applies;
    let recovery = d.journal.recover(snap.high_water);
    let replayed = recovery.records.len() as u64;
    for record in recovery.records {
        if let Some((mutation, key)) = Mutation::decode(&record.payload) {
            apply(state, d, record.durable, mutation, key);
        }
    }
    // Bodies cached before the crash describe the dead generation. Replay
    // drops those of the agents it touches, but the rewind drops
    // completions without `complete`, so drop them all rather than rely
    // on replay reproducing the old state.
    for agent in state.agents.values_mut() {
        agent.body = None;
    }
    match kind {
        CrashKind::TornWrite => d.torn_crashes += 1,
        CrashKind::BeforeEffect => d.gap_crashes += 1,
        CrashKind::AfterEffect => d.effect_crashes += 1,
    }
    d.last_replayed_records = replayed;
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

/// Moves the checkpoint's marks to the live lengths and the journal's
/// durable end (O(1): the live state is its own snapshot), forgets the
/// key delta, then truncates the journal below the new mark.
fn checkpoint(state: &ServerState, d: &mut DurableState) {
    d.since_checkpoint = 0;
    d.checkpoint = DurableSnapshot {
        completed: state.completed.len(),
        activity: state.activity.len(),
        tracks: state.tracks.mark(),
        keyed_applies: d.keyed_applies,
        high_water: d.journal.durable_end(),
    };
    d.applied_since_checkpoint.clear();
    d.journal.truncate_before(d.checkpoint.high_water);
    d.metrics.note_checkpoint();
}

/// The one mutation path of every POST route. Over-capacity track
/// points are shed first, so a rejected post burns no intent record. A
/// plain server then applies the effect; a durable one takes
/// [`durable_mutate`].
fn mutate(
    state: &mut ServerState,
    mutation: Mutation,
    key: Option<IdempotencyKey>,
    ok_body: &'static str,
) -> HttpResponse {
    if let (Mutation::Track(_), Some(capacity)) = (&mutation, state.track_capacity) {
        if state.tracks.len() as u64 >= capacity {
            state.tracks_rejected += 1;
            let retry_after_secs = state.retry_after_ms.div_ceil(1_000);
            return HttpResponse::status_only(503)
                .header("Retry-After", retry_after_secs.to_string());
        }
    }
    let Some(mut d) = state.durability.take() else {
        mutation.apply_to(state);
        return HttpResponse::ok(ok_body);
    };
    let response = durable_mutate(state, &mut d, mutation, key, ok_body);
    state.durability = Some(d);
    response
}

/// The durable mutation path, with the durable state taken out of
/// `state`: duplicate check → journal the intent → (scheduled crash?)
/// → fsync barrier → effect → checkpoint. The intent is journaled and
/// fsynced BEFORE [`apply`] runs — the write-ahead invariant: `apply`
/// takes the barrier's [`DurableLsn`].
fn durable_mutate(
    state: &mut ServerState,
    d: &mut DurableState,
    mutation: Mutation,
    key: Option<IdempotencyKey>,
    ok_body: &'static str,
) -> HttpResponse {
    if let Some(k) = key {
        if d.applied.contains(&k.0) {
            d.metrics.note_already_applied();
            return HttpResponse::ok("already-applied");
        }
    }
    if mutation.encode(key, &mut d.record).is_err() {
        return HttpResponse::status_only(500);
    }
    d.journal.append(&d.record);
    match key.and_then(|k| d.crash.as_ref().and_then(|c| c.take(k.0))) {
        Some(kind @ CrashKind::TornWrite) => {
            // Process dies mid-write: all but the last byte of the
            // frame reached the disk queue — a torn tail for recovery
            // to truncate.
            let keep = d.journal.volatile_len().saturating_sub(1);
            d.journal.crash(Some(keep));
            recover_after_crash(state, d, kind);
            HttpResponse::status_only(503)
        }
        Some(kind @ CrashKind::BeforeEffect) => {
            // Intent is durable, effect never ran: replay applies it.
            d.journal.fsync();
            d.journal.crash(None);
            recover_after_crash(state, d, kind);
            HttpResponse::status_only(503)
        }
        Some(kind @ CrashKind::AfterEffect) => {
            // Effect ran but the covering checkpoint didn't: the rewind
            // discards it and replay re-applies it — net exactly once.
            let durable = d.journal.fsync();
            apply(state, d, durable, mutation, key);
            d.journal.crash(None);
            recover_after_crash(state, d, kind);
            HttpResponse::status_only(503)
        }
        None => {
            let durable = d.journal.fsync();
            apply(state, d, durable, mutation, key);
            maybe_checkpoint(state, d);
            HttpResponse::ok(ok_body)
        }
    }
}

/// FNV-1a folded through [`fmt::Write`]: `write!`-ing into it hashes
/// what [`fnv1a`] would hash over the concatenated text, with no buffer.
struct Fnv1a(u64);

impl fmt::Write for Fnv1a {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.0 = fnv1a_continue(self.0, s.as_bytes());
        Ok(())
    }
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
            .field("tasks", &state.assigned())
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
        let journal = Journal::new(Arc::clone(&metrics));
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
            crash: config.crash,
            torn_crashes: 0,
            gap_crashes: 0,
            effect_crashes: 0,
            last_replayed_records: 0,
            recovery_cost_us: Vec::new(),
            record: Vec::new(),
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
    /// Recoveries, replayed records, torn tails, checkpoints and
    /// suppressed duplicates are the journal's counters.
    pub fn recovery_snapshot(&self) -> Option<ServerRecoverySnapshot> {
        let state = self.state.lock();
        let d = state.durability.as_ref()?;
        let journal = d.metrics.snapshot();
        Some(ServerRecoverySnapshot {
            recoveries: journal.recoveries,
            torn_crashes: d.torn_crashes,
            gap_crashes: d.gap_crashes,
            effect_crashes: d.effect_crashes,
            replayed_records: journal.replayed,
            torn_truncated: journal.torn_truncated,
            checkpoints: journal.checkpoints,
            suppressed_duplicates: journal.already_applied,
            keyed_applies: d.keyed_applies,
            distinct_keys: d.applied.len() as u64,
            recovery_cost_us: d.recovery_cost_us.clone(),
            journal_tail_bytes: d.journal.durable_end().0 - d.checkpoint.high_water.0,
            applies_since_checkpoint: (state.completed.len() - d.checkpoint.completed
                + state.activity.len()
                - d.checkpoint.activity
                + state.tracks.len()
                - d.checkpoint.tracks.len()) as u64,
            last_replayed_records: d.last_replayed_records,
        })
    }

    /// An order-sensitive FNV-1a digest of the journal-protected state
    /// (completions, activity log, track points). Two servers that
    /// processed the same logical mutations — crash-free or through
    /// any number of recoveries — digest identically.
    pub fn state_digest(&self) -> u64 {
        let state = self.state.lock();
        let mut hash = Fnv1a(fnv1a(b""));
        // `Fnv1a::write_str` never fails.
        for (agent, task) in state.completed.as_slice() {
            let _ = writeln!(hash, "c|{agent}|{task}");
        }
        for e in state.activity.as_slice() {
            let _ = writeln!(hash, "a|{}|{}|{}", e.agent_id, e.at_ms, e.event);
        }
        for p in state.tracks.iter() {
            let _ = writeln!(
                hash,
                "t|{}|{:.6}|{:.6}|{}",
                p.agent_id, p.latitude, p.longitude, p.at_ms
            );
        }
        hash.0
    }

    /// Assigns `task` to `agent_id` (the dispatcher's "request
    /// assignment" role).
    pub fn assign_task(&self, agent_id: u64, task: Task) {
        let mut state = self.state.lock();
        let agent = state.agents.entry(agent_id).or_default();
        agent.tasks.push(task);
        agent.body = None;
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
        state.agents.get(&agent_id).map_or_else(Vec::new, |agent| {
            agent
                .open(agent_id, state.completed.as_slice())
                .cloned()
                .collect()
        })
    }

    /// The activity log, in arrival order.
    pub fn activity_log(&self) -> Vec<ActivityEntry> {
        self.state.lock().activity.as_slice().to_vec()
    }

    /// All recorded track points for `agent_id`.
    pub fn track(&self, agent_id: u64) -> Vec<TrackPoint> {
        self.state
            .lock()
            .tracks
            .iter()
            .filter(|t| t.agent_id == agent_id)
            .collect()
    }

    /// A size snapshot of the server's state (three lengths and a sum
    /// over the agents, under one lock).
    pub fn counts(&self) -> WfmServerCounts {
        let state = self.state.lock();
        WfmServerCounts {
            tasks: state.assigned(),
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
            .as_slice()
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
            match agent_id.map(|agent_id| state.lock().tasks_body(agent_id)) {
                Some(Ok(body)) => HttpResponse::ok(body),
                Some(Err(_)) => HttpResponse::status_only(500),
                None => HttpResponse::status_only(400),
            }
        });

        let post = |path: &str,
                    ok_body: &'static str,
                    decode: fn(&[u8]) -> serde_json::Result<Mutation>| {
            let state = Arc::clone(&self.state);
            network.register_route(host, Method::Post, path, move |req| {
                match decode(&req.body) {
                    Ok(mutation) => {
                        let key = idem_from_query(req.url.query.as_deref());
                        mutate(&mut state.lock(), mutation, key, ok_body)
                    }
                    Err(_) => HttpResponse::status_only(400),
                }
            });
        };
        post("/activity-log", "logged", |body| {
            serde_json::from_slice(body).map(Mutation::Activity)
        });
        post("/report-location", "tracked", |body| {
            serde_json::from_slice(body).map(Mutation::Track)
        });
        post("/task-complete", "completed", |body| {
            serde_json::from_slice(body).map(Mutation::Complete)
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
        for (device, server) in [installed(), durable_installed(DurabilityConfig::default())] {
            for path in ["activity-log", "report-location", "task-complete"] {
                let url = format!("http://wfm.example/{path}?idem=000000000000000a");
                let req = HttpRequest::post(&url, "not json").unwrap();
                let (resp, _) = device.network().execute(&req).unwrap();
                assert_eq!(resp.status, 400, "{path}");
            }
            assert_eq!(server.counts(), WfmServerCounts::default());
            if let Some(journal) = server.journal_snapshot() {
                assert_eq!(journal.appends, 0, "a 400 journals nothing");
            }
        }
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
        let (plain_device, plain) = installed();
        for round in 1..=3u64 {
            for op in 0..4u64 {
                let key = IdempotencyKey::derive(11, 0, round, op);
                let at_ms = round * 1_000 + op;
                let status = post_track(&crashing_device, key, at_ms);
                if status == 503 {
                    assert_eq!(post_track(&crashing_device, key, at_ms), 200);
                }
                assert_eq!(post_track(&clean_device, key, at_ms), 200);
                assert_eq!(post_track(&plain_device, key, at_ms), 200);
            }
        }
        assert_eq!(crashing.state_digest(), clean.state_digest());
        assert_eq!(crashing.counts(), clean.counts());
        assert_eq!(plain.state_digest(), clean.state_digest());
        assert_eq!(plain.counts(), clean.counts());
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

    /// Checks a durable server's checkpoint marks against its live
    /// state and returns the checkpoint count. Always: the marks are at
    /// most the live lengths, every delta key is a live key, and the
    /// delta holds exactly the keyed applies past the checkpoint (none
    /// with checkpoints off). When a checkpoint was taken since
    /// `checkpoints_before`: the marks equal the live lengths and the
    /// journal's durable end.
    fn check_checkpoint(server: &WfmServer, checkpoints_before: u64) -> u64 {
        let state = server.state.lock();
        let d = state.durability.as_ref().unwrap();
        let snap = d.checkpoint;
        let checkpoints = d.metrics.snapshot().checkpoints;
        let live = DurableSnapshot {
            completed: state.completed.len(),
            activity: state.activity.len(),
            tracks: state.tracks.mark(),
            keyed_applies: d.keyed_applies,
            high_water: d.journal.durable_end(),
        };
        if checkpoints > checkpoints_before {
            assert_eq!(snap, live, "a checkpoint marks the live state");
        }
        assert!(snap.completed <= live.completed);
        assert!(snap.activity <= live.activity);
        assert!(snap.tracks.len() <= live.tracks.len());
        assert!(snap.high_water <= live.high_water);
        let delta = &d.applied_since_checkpoint;
        if d.checkpoint_every == 0 {
            assert!(delta.is_empty(), "checkpoints off keep no delta");
        } else {
            assert_eq!(
                delta.len() as u64,
                d.keyed_applies - snap.keyed_applies,
                "key delta holds exactly the applies since the checkpoint"
            );
        }
        assert!(delta.iter().all(|k| d.applied.contains(k)));
        checkpoints
    }

    #[test]
    fn checkpoint_marks_track_the_live_state_through_every_crash_kind() {
        let kinds = [
            CrashKind::TornWrite,
            CrashKind::BeforeEffect,
            CrashKind::AfterEffect,
        ];
        for checkpoint_every in [0, 1, 3, 64] {
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
                assert_eq!(ledger.checkpoints > 0, checkpoint_every != 0, "{context}");
                assert_eq!(ledger.duplicates(), 0, "{context}");
                assert_eq!(server.state_digest(), clean.state_digest(), "{context}");
                assert_eq!(server.counts(), clean.counts(), "{context}");
            }
        }
    }

    #[test]
    fn journal_records_keep_their_bytes() {
        let key = Some(IdempotencyKey(0x0123_4567_89ab_cdef));
        let cases = [
            (
                Mutation::Track(TrackPoint {
                    agent_id: 3,
                    latitude: 28.5,
                    longitude: -77.25,
                    at_ms: 1_000,
                }),
                key,
                r#"track|0123456789abcdef|{"agent_id":3,"latitude":28.5,"longitude":-77.25,"at_ms":1000}"#,
            ),
            (
                Mutation::Activity(ActivityEntry {
                    agent_id: 4,
                    at_ms: 7,
                    event: "arrived | \"gate\"".into(),
                }),
                None,
                r#"activity|-|{"agent_id":4,"at_ms":7,"event":"arrived | \"gate\""}"#,
            ),
            (
                Mutation::Complete(CompleteBody {
                    agent_id: 5,
                    task_id: 9,
                }),
                Some(IdempotencyKey(10)),
                r#"complete|000000000000000a|{"agent_id":5,"task_id":9}"#,
            ),
        ];
        let mut record = b"stale".to_vec();
        for (mutation, key, want) in cases {
            mutation.encode(key, &mut record).unwrap();
            assert_eq!(std::str::from_utf8(&record).unwrap(), want);
            let (decoded, decoded_key) = Mutation::decode(&record).expect("decodes");
            assert_eq!(decoded_key, key);
            assert_eq!(decoded.tag(), mutation.tag());
        }
        assert!(Mutation::decode(b"track|-|not json").is_none());
        assert!(Mutation::decode(b"unknown|-|{}").is_none());
        assert!(Mutation::decode(b"track").is_none());
    }

    /// Activity bodies carry free text: escapes, multi-byte characters
    /// and runs of either decode to the text that was posted.
    #[test]
    fn posted_text_decodes_through_escapes_and_multi_byte_runs() {
        for event in [
            String::new(),
            "arrived".to_owned(),
            "\"quoted\" \\ back/slash\n\r\t\u{1}".to_owned(),
            "dépôt 日本 🚚 done".to_owned(),
            "日".repeat(300),
            format!("{}\\{}\"", "a".repeat(1_000), "é".repeat(500)),
        ] {
            let entry = ActivityEntry {
                agent_id: 2,
                at_ms: 9,
                event,
            };
            let body = serde_json::to_vec(&entry).unwrap();
            let decoded: ActivityEntry = serde_json::from_slice(&body).unwrap();
            assert_eq!(decoded, entry);
        }
        let escaped: ActivityEntry =
            serde_json::from_str(r#"{"agent_id":1,"at_ms":2,"event":"café \/ \"日\"\\x"}"#)
                .unwrap();
        assert_eq!(escaped.event, "café / \"日\"\\x");
        let invalid = b"{\"agent_id\":1,\"at_ms\":2,\"event\":\"ok \xff\"}";
        assert!(serde_json::from_slice::<ActivityEntry>(invalid).is_err());
        let unterminated = br#"{"agent_id":1,"at_ms":2,"event":"no end"#;
        assert!(serde_json::from_slice::<ActivityEntry>(unterminated).is_err());
    }

    #[test]
    fn state_digest_hashes_the_concatenated_state() {
        let (device, server) = installed();
        for (agent, at_ms) in [(1u64, 100u64), (2, 200)] {
            let point = TrackPoint {
                agent_id: agent,
                latitude: 28.123_456_789,
                longitude: -77.000_000_4,
                at_ms,
            };
            let req = HttpRequest::post(
                "http://wfm.example/report-location",
                serde_json::to_vec(&point).unwrap(),
            )
            .unwrap();
            device.network().execute(&req).unwrap();
            let entry = ActivityEntry {
                agent_id: agent,
                at_ms,
                event: format!("event {agent}"),
            };
            let req = HttpRequest::post(
                "http://wfm.example/activity-log",
                serde_json::to_vec(&entry).unwrap(),
            )
            .unwrap();
            device.network().execute(&req).unwrap();
            assert_eq!(post_complete(&device, agent, at_ms, None), 200);
        }
        let mut buf = String::new();
        for task in server.completed_tasks(1) {
            buf.push_str(&format!("c|1|{task}\n"));
        }
        for task in server.completed_tasks(2) {
            buf.push_str(&format!("c|2|{task}\n"));
        }
        for e in server.activity_log() {
            buf.push_str(&format!("a|{}|{}|{}\n", e.agent_id, e.at_ms, e.event));
        }
        for p in server.track(1).into_iter().chain(server.track(2)) {
            buf.push_str(&format!(
                "t|{}|{:.6}|{:.6}|{}\n",
                p.agent_id, p.latitude, p.longitude, p.at_ms
            ));
        }
        assert_eq!(server.state_digest(), fnv1a(buf.as_bytes()));
        assert_ne!(server.state_digest(), WfmServer::new().state_digest());
    }

    #[test]
    fn recovery_ledger_reports_the_journal_tail_past_the_checkpoint() {
        let crash_key = IdempotencyKey::derive(9, 0, 1, 4);
        let schedule = CrashSchedule::new([(crash_key.0, CrashKind::BeforeEffect)]);
        schedule.arm();
        let (device, server) = durable_installed(DurabilityConfig {
            checkpoint_every: 3,
            crash: Some(Arc::clone(&schedule)),
            ..Default::default()
        });
        for op in 0..4u64 {
            let key = IdempotencyKey::derive(9, 0, 1, op);
            assert_eq!(post_track(&device, key, 100 + op), 200);
        }
        // One checkpoint after the third apply; the fourth lies past it.
        let mut record = Vec::new();
        let fourth = Mutation::Track(TrackPoint {
            agent_id: 1,
            latitude: 28.0,
            longitude: 77.0,
            at_ms: 103,
        });
        fourth
            .encode(Some(IdempotencyKey::derive(9, 0, 1, 3)), &mut record)
            .unwrap();
        let ledger = server.recovery_snapshot().unwrap();
        assert_eq!(ledger.checkpoints, 1);
        assert_eq!(ledger.journal_tail_bytes, 12 + record.len() as u64);
        assert_eq!(ledger.applies_since_checkpoint, 1);
        assert_eq!(ledger.last_replayed_records, 0);
        // The crash replays the fourth apply and the crashed intent,
        // then checkpoints the rebuilt state.
        assert_eq!(post_track(&device, crash_key, 104), 503);
        let ledger = server.recovery_snapshot().unwrap();
        assert_eq!(ledger.recoveries, 1);
        assert_eq!(ledger.last_replayed_records, 2);
        assert_eq!(ledger.journal_tail_bytes, 0);
        assert_eq!(ledger.applies_since_checkpoint, 0);
        assert_eq!(server.counts().tracks, 5);
        assert_eq!(ledger.duplicates(), 0);
    }

    fn get_tasks(device: &Device, agent_id: u64) -> Vec<u8> {
        let url = format!("http://wfm.example/tasks?agent={agent_id}");
        let req = HttpRequest::get(&url).unwrap();
        device.network().execute(&req).unwrap().0.body
    }

    fn post_complete(
        device: &Device,
        agent_id: u64,
        task_id: u64,
        key: Option<IdempotencyKey>,
    ) -> u16 {
        let query = key.map_or_else(String::new, |k| format!("?idem={}", k.to_hex()));
        let url = format!("http://wfm.example/task-complete{query}");
        let body = serde_json::to_vec(&CompleteBody { agent_id, task_id }).unwrap();
        let req = HttpRequest::post(&url, body).unwrap();
        device.network().execute(&req).unwrap().0.status
    }

    #[test]
    fn tasks_bodies_are_never_stale() {
        const AGENTS: u64 = 5;
        const UNKNOWN: u64 = 1_000;
        let kinds = [
            CrashKind::TornWrite,
            CrashKind::BeforeEffect,
            CrashKind::AfterEffect,
        ];
        for durable in [false, true] {
            let keys: Vec<IdempotencyKey> = (0..400)
                .map(|op| IdempotencyKey::derive(5, 0, 1, op))
                .collect();
            let victims = keys
                .iter()
                .step_by(7)
                .enumerate()
                .map(|(i, k)| (k.0, kinds[i % kinds.len()]));
            let schedule = CrashSchedule::new(victims);
            schedule.arm();
            let (device, server) = if durable {
                durable_installed(DurabilityConfig {
                    checkpoint_every: 4,
                    crash: Some(Arc::clone(&schedule)),
                    ..Default::default()
                })
            } else {
                installed()
            };
            let mut rng = 42;
            let mut next_task = 0;
            for &key in &keys {
                let r = splitmix64(&mut rng);
                let agent_id = r % AGENTS;
                // Completions name a task that may be open, done, or
                // someone else's.
                let task_id = (r >> 8) % (next_task + 1);
                match (r >> 32) % 3 {
                    0 => {
                        server.assign_task(agent_id, task(next_task));
                        next_task += 1;
                    }
                    1 => assert_eq!(post_complete(&device, agent_id, task_id, None), 200),
                    _ => {
                        if post_complete(&device, agent_id, task_id, Some(key)) == 503 {
                            assert_eq!(post_complete(&device, agent_id, task_id, Some(key)), 200);
                        }
                    }
                }
                for agent_id in 0..AGENTS {
                    let fresh = serde_json::to_vec(&server.tasks_for(agent_id)).unwrap();
                    assert_eq!(get_tasks(&device, agent_id), fresh, "agent {agent_id}");
                }
                let slots = server.state.lock().agents.len();
                assert_eq!(get_tasks(&device, UNKNOWN), b"[]");
                assert_eq!(server.state.lock().agents.len(), slots, "index grew");
            }
            if durable {
                let ledger = server.recovery_snapshot().unwrap();
                assert!(ledger.torn_crashes > 0);
                assert!(ledger.gap_crashes > 0);
                assert!(ledger.effect_crashes > 0);
            }
            assert!(server.counts().completed > 0);
        }
    }

    #[test]
    fn over_capacity_tracks_get_503_with_retry_after() {
        for (device, server) in [installed(), durable_installed(DurabilityConfig::default())] {
            server.set_track_capacity(2, 2_500);
            let post = |at_ms: u64| {
                let point = TrackPoint {
                    agent_id: 1,
                    latitude: 28.0,
                    longitude: 77.0,
                    at_ms,
                };
                let url = format!(
                    "http://wfm.example/report-location?idem={}",
                    IdempotencyKey(at_ms).to_hex()
                );
                let req = HttpRequest::post(&url, serde_json::to_vec(&point).unwrap()).unwrap();
                device.network().execute(&req).unwrap().0
            };
            assert_eq!(post(1).status, 200);
            assert_eq!(post(2).status, 200);
            let appends = server.journal_snapshot().map(|j| j.appends);
            let rejected = post(3);
            assert_eq!(rejected.status, 503);
            // 2500ms rounds up to 3 whole seconds on the wire.
            assert_eq!(rejected.header_value("retry-after"), Some("3"));
            assert_eq!(server.track(1).len(), 2, "over-capacity post not stored");
            assert_eq!(server.tracks_rejected(), 1);
            assert_eq!(server.counts().tracks, 2);
            assert_eq!(
                server.journal_snapshot().map(|j| j.appends),
                appends,
                "a shed post journals nothing"
            );
        }
    }
}
