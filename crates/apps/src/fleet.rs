//! The fleet-scale load engine (ROADMAP "production-scale" work item).
//!
//! The paper evaluates MobiVine one handset at a time (Figure 10). This
//! module exercises the middleware as a *system*: a deterministic
//! multi-worker scheduler drives thousands of simulated devices —
//! Android, S60 and WebView in a fixed interleave — through rounds of
//! SMS/HTTP/location traffic, resolving every proxy through a
//! [`ShardedRegistry`] (memoized acquisition, per-shard shared
//! catalogs) and dispatching the traffic in per-device batches onto
//! each device's `SimNetwork`.
//!
//! Determinism is the design constraint everything else bends around:
//!
//! - every device's behaviour derives from a per-device splitmix64
//!   stream seeded from `(fleet seed, device index)`;
//! - workers own disjoint contiguous device ranges
//!   ([`mobivine_device::cohort::Cohort::partition`]) and all
//!   cross-device aggregation happens in device-index order after the
//!   workers join, so thread interleaving cannot leak into results;
//! - latencies are *virtual* milliseconds read off each device's
//!   `SimClock`, never the wall clock.
//!
//! Two runs of [`Fleet::run`] with the same [`FleetConfig`] therefore
//! produce byte-identical [`FleetReport`]s, worker count included.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

use mobivine::api::{HttpProxy, LocationProxy, SmsProxy};
use mobivine::cache::{CachePolicy, CacheSnapshot};
use mobivine::error::{ProxyError, ProxyErrorKind};
use mobivine::overload::{with_deadline, Deadline, OverloadPolicy, OverloadSnapshot};
use mobivine::property::PropertyValue;
use mobivine::shard::ShardedRegistry;
use mobivine::webview::BATCH_PROPERTY;
use mobivine::{with_idempotency_key, IdempotencyKey, JournalPolicy};
use mobivine_android::{AndroidPlatform, SdkVersion};
use mobivine_device::cohort::{Cohort, CohortPartition};
use mobivine_device::fault::{CrashKind, CrashSchedule, FaultPlan};
use mobivine_device::Device;
use mobivine_s60::S60Platform;
use mobivine_telemetry::{
    Labels, PromotionPolicy, PromotionReason, SloEngine, SloObjective, SloReport, SloTarget,
};
use mobivine_webview::WebView;

use crate::server::{DurabilityConfig, TrackPoint, WfmServer, WfmServerCounts};

/// The supervisor MSISDN every fleet device texts.
pub const FLEET_SUPERVISOR: &str = "+91-98-SUPERVISOR";

/// Per-worker-ring span retention of a traced fleet device. Small on
/// purpose: at fleet scale the rings are a sampling window; traces
/// worth keeping are *promoted* out of them into each device's bounded
/// incident store.
const SPAN_RETENTION: usize = 16;

/// Per-device incident-store capacity of a traced fleet device: how
/// many promoted traces each device keeps (further promotions are
/// counted and dropped).
const INCIDENT_CAPACITY: usize = 256;

/// The server host name of `shard` (one [`WfmServer`] per shard,
/// reachable from every member device's simulated network).
pub fn shard_host(shard: usize) -> String {
    format!("wfm.shard{shard}.example")
}

/// A brownout scenario: one shard's devices are hit with a traffic ramp
/// (`ops_multiplier`× the fleet's per-round ops) while every one of
/// their calls runs under a batch-arrival deadline. With `admission`
/// on, those devices are built with the overload layer
/// ([`mobivine::overload`]): the AIMD admission gate sheds the excess,
/// the deadline budget fail-fasts the queue tail, and the accepted
/// calls' sojourn p99 stays within `p99_target_ms`. With `admission`
/// off the same ramp runs unprotected and the sojourn p99 blows past
/// the target — the comparison the bench gate pins.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BrownoutConfig {
    /// The shard whose member devices receive the ramp.
    pub target_shard: usize,
    /// Traffic multiplier applied to the target shard's per-round ops.
    pub ops_multiplier: u32,
    /// Per-batch deadline budget, virtual ms: every op of a round's
    /// batch conceptually arrives at flush start and must finish within
    /// this budget of that instant.
    pub deadline_budget_ms: u64,
    /// The accepted-call sojourn p99 bound the overload layer must
    /// hold; also the AIMD loop's convergence target.
    pub p99_target_ms: u64,
    /// Whether the target shard's devices get the overload layer. Off
    /// = the unprotected baseline arm.
    pub admission: bool,
}

impl Default for BrownoutConfig {
    fn default() -> Self {
        Self {
            target_shard: 0,
            ops_multiplier: 10,
            deadline_budget_ms: 400,
            p99_target_ms: 256,
            admission: true,
        }
    }
}

/// Durability arm of a fleet run: every device runtime journals its
/// mutating proxy calls ([`mobivine::registry::MobivineBuilder::with_journal`])
/// and every shard's [`WfmServer`] is built crash-fault-tolerant
/// ([`WfmServer::durable`]) with intents journaled before effects and
/// idempotency-key dedup on re-delivery.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DurabilityFleetConfig {
    /// Server checkpoint cadence (state snapshot every N applies;
    /// `0` = journal-only, replay from genesis). A crash storm
    /// requires `1` so each recovery's replay length is determined by
    /// the crash kind alone, keeping the digest worker-invariant.
    pub checkpoint_every: u32,
}

impl Default for DurabilityFleetConfig {
    fn default() -> Self {
        Self {
            checkpoint_every: 1,
        }
    }
}

/// A crash storm: each shard's middleware is killed at deterministic
/// points — mid-record (torn write), between intent and effect, and
/// after the effect but before its checkpoint — and recovers by
/// checkpoint + journal replay. Victim calls are chosen by idempotency
/// key from the seeded traffic plan, so the storm is identical across
/// worker counts and reruns.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CrashStormConfig {
    /// Crashes to schedule per shard, cycling through the crash kinds
    /// starting with torn-write then intent/effect-gap — so any value
    /// ≥ 2 exercises both headline kinds on every shard.
    pub crashes_per_shard: usize,
}

impl Default for CrashStormConfig {
    fn default() -> Self {
        Self {
            crashes_per_shard: 3,
        }
    }
}

/// Configuration of one fleet run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FleetConfig {
    /// Number of simulated devices (platform mix: device `i` is
    /// Android, S60 or WebView by `i % 3`).
    pub devices: usize,
    /// Number of registry shards / [`WfmServer`] instances.
    pub shards: usize,
    /// Number of worker threads stepping the fleet.
    pub workers: usize,
    /// Lockstep rounds to run.
    pub rounds: u64,
    /// Virtual length of one round, milliseconds.
    pub tick_ms: u64,
    /// Proxy operations per device per round.
    pub ops_per_round: u32,
    /// Master seed; all per-device randomness derives from it.
    pub seed: u64,
    /// When `true`, the traffic planner draws a read-heavy mix (¾
    /// location reads) instead of the default write-leaning mix. The
    /// plan depends only on the seeded stream, so the same seed yields
    /// the same batches with caching on or off.
    pub read_heavy: bool,
    /// When `true`, every device runtime is built with the read-through
    /// proxy cache ([`mobivine::cache`], default [`CachePolicy`])
    /// between the overload and traced layers. Cache counters are
    /// reported in [`FleetReport::cache`] and deliberately kept out of
    /// the checksum: caching must not change what the fleet computes,
    /// only how much binding-plane work it takes.
    pub cache: bool,
    /// When `true`, every device runtime is built with plane-aware
    /// telemetry (traced proxy decorators + shared metrics registry).
    /// The traced hot path is allocation-free after wiring, so this
    /// costs atomics and span-record moves, not heap churn.
    pub telemetry: bool,
    /// When `true` (requires `telemetry`), every device runtime gets a
    /// per-device [`SloEngine`] over a fleet-wide objective template
    /// (availability per proxy method per platform, plus latency
    /// objectives under a brownout); the per-device reports are merged
    /// in device-index order into the report's incident digest.
    pub slo: bool,
    /// Optional brownout scenario overwhelming one shard.
    pub brownout: Option<BrownoutConfig>,
    /// Bridge-bound workload arm. `None` keeps the classic plan: every
    /// `LocationFix` op is a plain `getLocation`. `Some(batched)` turns
    /// every `LocationFix` into a *multi-read*
    /// ([`LocationProxy::get_location_with_power`]): on WebView devices
    /// the read crosses the JavaScript bridge, and `batched` selects
    /// whether the two reads share one batched crossing (`true`) or
    /// make two wire calls (`false`) — toggled per device through the
    /// JavaScript-local [`BATCH_PROPERTY`] after warm-up. Android/S60
    /// devices serve the same multi-read natively, so the two arms
    /// compute identical counters and their checksums must match;
    /// [`FleetReport::bridge`] reports the crossing counts the arms
    /// differ by (kept out of the checksum, like the cache digest).
    pub bridge_batch: Option<bool>,
    /// When set, the fleet runs durable: client runtimes journal
    /// mutating calls, shard servers journal intents before effects,
    /// and every HTTP report carries a deterministic idempotency key.
    /// Journal counters land in [`FleetReport::recovery`], kept out of
    /// the checksum: durability must not change what the fleet
    /// computes, only how much it survives.
    pub durability: Option<DurabilityFleetConfig>,
    /// Optional crash storm (requires `durability` with
    /// `checkpoint_every == 1`; mutually exclusive with `brownout`).
    pub crash_plan: Option<CrashStormConfig>,
}

impl Default for FleetConfig {
    fn default() -> Self {
        Self {
            devices: 1_000,
            shards: 8,
            workers: 4,
            rounds: 4,
            tick_ms: 1_000,
            ops_per_round: 2,
            seed: 7,
            read_heavy: false,
            cache: false,
            telemetry: false,
            slo: false,
            brownout: None,
            bridge_batch: None,
            durability: None,
            crash_plan: None,
        }
    }
}

impl FleetConfig {
    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// `IllegalArgument` when any count is zero.
    pub fn validated(self) -> Result<Self, ProxyError> {
        let illegal = |what: &str| {
            Err(ProxyError::new(
                ProxyErrorKind::IllegalArgument,
                format!("FleetConfig: {what} must be non-zero"),
            ))
        };
        if self.devices == 0 {
            return illegal("devices");
        }
        if self.shards == 0 {
            return illegal("shards");
        }
        if self.workers == 0 {
            return illegal("workers");
        }
        if self.rounds == 0 {
            return illegal("rounds");
        }
        if self.tick_ms == 0 {
            return illegal("tick_ms");
        }
        if self.ops_per_round == 0 {
            return illegal("ops_per_round");
        }
        if self.slo && !self.telemetry {
            return Err(ProxyError::new(
                ProxyErrorKind::IllegalArgument,
                "FleetConfig: slo requires telemetry (outcomes are observed at the proxy plane)",
            ));
        }
        if let Some(brownout) = &self.brownout {
            if brownout.target_shard >= self.shards {
                return Err(ProxyError::new(
                    ProxyErrorKind::IllegalArgument,
                    format!(
                        "FleetConfig: brownout target_shard {} out of range ({} shards)",
                        brownout.target_shard, self.shards
                    ),
                ));
            }
            if brownout.ops_multiplier == 0 {
                return illegal("brownout ops_multiplier");
            }
            if brownout.deadline_budget_ms == 0 {
                return illegal("brownout deadline_budget_ms");
            }
            if brownout.p99_target_ms == 0 {
                return illegal("brownout p99_target_ms");
            }
        }
        if let Some(storm) = &self.crash_plan {
            if storm.crashes_per_shard == 0 {
                return illegal("crash_plan crashes_per_shard");
            }
            let Some(durability) = &self.durability else {
                return Err(ProxyError::new(
                    ProxyErrorKind::IllegalArgument,
                    "FleetConfig: crash_plan requires durability (crashes without a journal \
                     lose state unrecoverably)",
                ));
            };
            if durability.checkpoint_every != 1 {
                // With a checkpoint after every apply (and after every
                // recovery), each recovery's replay length depends only
                // on the crash kind, never on which ops other workers
                // interleaved before the crash — the worker-invariance
                // the digest gate pins.
                return Err(ProxyError::new(
                    ProxyErrorKind::IllegalArgument,
                    "FleetConfig: crash_plan requires durability.checkpoint_every == 1 \
                     (replay-from-checkpoint must be worker-invariant)",
                ));
            }
            if self.brownout.is_some() {
                return Err(ProxyError::new(
                    ProxyErrorKind::IllegalArgument,
                    "FleetConfig: crash_plan and brownout are mutually exclusive (both \
                     answer 503; re-delivery retries would fight the shed gate)",
                ));
            }
        }
        Ok(self)
    }
}

/// Per-shard results of a fleet run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardReport {
    /// Shard index.
    pub shard: usize,
    /// Member devices.
    pub devices: usize,
    /// Proxy operations issued by the shard's members.
    pub ops: u64,
    /// Median per-op virtual latency (bucketed upper bound), ms.
    pub p50_ms: u64,
    /// 95th-percentile per-op virtual latency, ms.
    pub p95_ms: u64,
    /// 99th-percentile per-op virtual latency, ms.
    pub p99_ms: u64,
    /// State sizes of the shard's [`WfmServer`] after the run.
    pub server: WfmServerCounts,
}

/// Aggregate results of a fleet run. Every field is derived from
/// virtual time and per-device counters, so two runs with the same
/// [`FleetConfig`] produce equal reports.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FleetReport {
    /// The configuration that produced this report.
    pub config: FleetConfig,
    /// Total proxy operations issued.
    pub total_ops: u64,
    /// SMS successfully handed to the SMSC.
    pub sms_sent: u64,
    /// HTTP requests answered with a 2xx status.
    pub http_ok: u64,
    /// Location fixes obtained.
    pub location_fixes: u64,
    /// Operations that returned an error.
    pub errors: u64,
    /// Calls rejected by the admission gate (overload layer).
    pub shed: u64,
    /// Calls served degraded — a shed absorbed by a cached/coarse
    /// location fix or a droppable HTTP request's synthetic accept.
    pub degraded: u64,
    /// Calls failed fast because their deadline budget was exhausted
    /// before the binding plane was touched.
    pub deadline_exceeded: u64,
    /// Ops (any outcome) that finished past their batch-arrival
    /// deadline — the breaches the flight recorder must explain with a
    /// promoted trace. Zero without a brownout budget. Derived from
    /// flush sojourns, so it is identical with telemetry on or off.
    pub deadline_blown: u64,
    /// Coordinated virtual duration of the run, ms.
    pub virtual_elapsed_ms: u64,
    /// Fleet-wide median per-op virtual latency (bucketed), ms.
    pub p50_ms: u64,
    /// Fleet-wide 95th-percentile per-op virtual latency, ms.
    pub p95_ms: u64,
    /// Fleet-wide 99th-percentile per-op virtual latency, ms.
    pub p99_ms: u64,
    /// Per-shard breakdown, in shard order.
    pub per_shard: Vec<ShardReport>,
    /// Order-insensitive-free fingerprint: an FNV fold over every
    /// device's counters in device-index order. Two runs are
    /// byte-identical iff their checksums match. Telemetry-independent
    /// by design: tracing a run must not change what it computes.
    pub checksum: u64,
    /// Flight-recorder digest (promoted traces, exemplars, SLO
    /// breaches), present when `telemetry` was on.
    pub incidents: Option<IncidentDigest>,
    /// Cache-plane counters, present when `cache` was on. Like
    /// `incidents`, kept out of the checksum.
    pub cache: Option<CacheDigest>,
    /// Bridge-plane counters, present when `bridge_batch` was set.
    /// Like `cache`, kept out of the checksum: batching changes how
    /// many times the fleet crosses the JavaScript bridge, never what
    /// it computes.
    pub bridge: Option<BridgeDigest>,
    /// Durability-plane counters, present when `durability` was set.
    /// Like `cache`, kept out of the checksum: a crash storm must not
    /// change what the fleet computes — that parity IS the gate.
    pub recovery: Option<RecoveryDigest>,
}

/// Aggregate durability counters of one durable fleet run: per-shard
/// server recovery ledgers folded in shard order, client journal
/// counters folded in device-index order, and nearest-rank quantiles
/// over the virtual recovery costs. Deliberately excluded from
/// [`FleetReport::checksum`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecoveryDigest {
    /// Crashes survived across all shards (one recovery pass each).
    pub recoveries: u64,
    /// Mid-record (torn-write) crashes recovered.
    pub torn_crashes: u64,
    /// Intent/effect-gap crashes recovered.
    pub gap_crashes: u64,
    /// Post-effect (pre-checkpoint) crashes recovered.
    pub effect_crashes: u64,
    /// Committed records replayed across all recoveries.
    pub replayed_records: u64,
    /// Torn tail records truncated across all recoveries.
    pub torn_truncated: u64,
    /// Server checkpoints taken.
    pub checkpoints: u64,
    /// Re-deliveries the servers answered from their journals.
    pub suppressed_duplicates: u64,
    /// Keyed effects applied more than once — exactly-once demands 0.
    pub duplicates: u64,
    /// Median virtual recovery cost, µs (0 with no crashes).
    pub recovery_p50_us: u64,
    /// 99th-percentile virtual recovery cost, µs.
    pub recovery_p99_us: u64,
    /// Client-side journal intent records appended (all devices).
    pub client_appends: u64,
    /// Client-side fsync barriers crossed (all devices).
    pub client_fsyncs: u64,
    /// Client-side `AlreadyApplied` dedup hits (all devices).
    pub client_already_applied: u64,
}

/// The incident-debugging digest of one traced fleet run: what the
/// per-device flight recorders promoted, which histogram buckets carry
/// exemplars, and which declared objectives are burning. All fields are
/// folded in device-index order after the workers join, so the digest —
/// including its own checksum — is worker-count-independent.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IncidentDigest {
    /// Traces promoted across all devices (kept + dropped).
    pub promoted_traces: u64,
    /// Kept promoted traces whose reason is a blown deadline.
    pub promoted_deadline: u64,
    /// Promotions dropped because a device's incident store was full.
    pub promoted_dropped: u64,
    /// Spans overwritten by ring wrap-around across all devices.
    pub spans_evicted: u64,
    /// The first few exemplar trace ids (16-hex, device-index order)
    /// pinned on `proxy_call_ms` histogram buckets.
    pub exemplar_trace_ids: Vec<String>,
    /// Names of the worst breached SLO objectives (fast-burn
    /// descending, capped), from the merged per-device reports. Empty
    /// when the run declared no objectives (`slo: false`).
    pub top_breached: Vec<String>,
    /// FNV fold over every kept promoted trace id + reason and every
    /// histogram exemplar, in device-index order. Separate from the
    /// main report checksum so tracing stays invisible to it.
    pub incident_checksum: u64,
}

/// Aggregate cache-plane counters of one cached fleet run, folded in
/// device-index order from each runtime's shared
/// [`mobivine::cache::CacheMetrics`] block. Deliberately excluded from
/// [`FleetReport::checksum`]: caching must be invisible to what the
/// fleet computes, only cutting how much binding-plane work it takes.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CacheDigest {
    /// Reads served from a fresh cached entry (no binding-plane work).
    pub hits: u64,
    /// Reads that went through to the layers below and filled the cache
    /// — the cached arm's binding-plane invocation count for cacheable
    /// reads.
    pub misses: u64,
    /// Reads that waited on another caller's in-flight fill.
    pub coalesced: u64,
    /// Entries discarded on a stamp mismatch or explicit invalidation.
    pub invalidated: u64,
}

/// Aggregate bridge-plane counters of one bridge-arm fleet run, summed
/// in device-index order from each WebView device's crossing counter.
/// Deliberately excluded from [`FleetReport::checksum`]: batching must
/// be invisible to what the fleet computes, only cutting how many times
/// it crosses the JavaScript bridge.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BridgeDigest {
    /// WebView devices in the fleet (the only ones whose multi-reads
    /// cross a bridge).
    pub webview_devices: u64,
    /// Total JavaScript-bridge crossings over the whole run, warm-up
    /// included. One multi-read costs two crossings unbatched and one
    /// batched, so the batched arm's total must come in lower.
    pub crossings: u64,
}

impl FleetReport {
    /// Throughput in operations per *virtual* second (deterministic,
    /// unlike wall-clock throughput).
    pub fn virtual_ops_per_sec(&self) -> u64 {
        if self.virtual_elapsed_ms == 0 {
            return 0;
        }
        self.total_ops * 1_000 / self.virtual_elapsed_ms
    }

    /// Every numeric outcome of the run except the op and error counts
    /// and the checksum, flattened under stable names: the run-wide
    /// counters and latency quantiles, `shardN.p99_ms` per shard, and
    /// each digest that is present under its own prefix (`cache.`,
    /// `bridge.`, `recovery.`, `incidents.`). This is the only place a
    /// fleet counter is named; bench scenarios gate on these keys.
    pub fn counters(&self) -> BTreeMap<String, u64> {
        let mut out: BTreeMap<String, u64> = [
            ("sms_sent", self.sms_sent),
            ("http_ok", self.http_ok),
            ("location_fixes", self.location_fixes),
            ("shed", self.shed),
            ("degraded", self.degraded),
            ("deadline_exceeded", self.deadline_exceeded),
            ("deadline_blown", self.deadline_blown),
            ("p50_ms", self.p50_ms),
            ("p95_ms", self.p95_ms),
            ("p99_ms", self.p99_ms),
            ("virtual_ops_per_sec", self.virtual_ops_per_sec()),
        ]
        .into_iter()
        .map(|(key, value)| (key.to_owned(), value))
        .collect();
        for shard in &self.per_shard {
            out.insert(format!("shard{}.p99_ms", shard.shard), shard.p99_ms);
        }
        let mut digest = |prefix: &str, fields: &[(&str, u64)]| {
            for (key, value) in fields {
                out.insert(format!("{prefix}.{key}"), *value);
            }
        };
        if let Some(c) = &self.cache {
            digest(
                "cache",
                &[
                    ("hits", c.hits),
                    ("misses", c.misses),
                    ("coalesced", c.coalesced),
                    ("invalidated", c.invalidated),
                ],
            );
        }
        if let Some(b) = &self.bridge {
            digest(
                "bridge",
                &[
                    ("webview_devices", b.webview_devices),
                    ("crossings", b.crossings),
                ],
            );
        }
        if let Some(r) = &self.recovery {
            digest(
                "recovery",
                &[
                    ("recoveries", r.recoveries),
                    ("torn_crashes", r.torn_crashes),
                    ("gap_crashes", r.gap_crashes),
                    ("effect_crashes", r.effect_crashes),
                    ("replayed_records", r.replayed_records),
                    ("torn_truncated", r.torn_truncated),
                    ("checkpoints", r.checkpoints),
                    ("suppressed_duplicates", r.suppressed_duplicates),
                    ("duplicates", r.duplicates),
                    ("recovery_p50_us", r.recovery_p50_us),
                    ("recovery_p99_us", r.recovery_p99_us),
                    ("client_appends", r.client_appends),
                    ("client_fsyncs", r.client_fsyncs),
                    ("client_already_applied", r.client_already_applied),
                ],
            );
        }
        if let Some(i) = &self.incidents {
            digest(
                "incidents",
                &[
                    ("promoted_traces", i.promoted_traces),
                    ("promoted_deadline", i.promoted_deadline),
                    ("promoted_dropped", i.promoted_dropped),
                    ("spans_evicted", i.spans_evicted),
                    ("incident_checksum", i.incident_checksum),
                ],
            );
        }
        out
    }
}

const LAT_BUCKETS: usize = 24;

/// A tiny fixed log₂ histogram of virtual-ms latencies. Merging and
/// quantile extraction are pure integer arithmetic, so percentile
/// reporting stays deterministic.
#[derive(Clone)]
struct LatencyBuckets {
    counts: [u64; LAT_BUCKETS],
    total: u64,
}

impl Default for LatencyBuckets {
    fn default() -> Self {
        Self {
            counts: [0; LAT_BUCKETS],
            total: 0,
        }
    }
}

impl LatencyBuckets {
    fn bucket_of(ms: u64) -> usize {
        // Bucket b holds values with highest set bit b-1; 0 maps to 0.
        ((u64::BITS - ms.leading_zeros()) as usize).min(LAT_BUCKETS - 1)
    }

    fn record(&mut self, ms: u64) {
        self.counts[Self::bucket_of(ms)] += 1;
        self.total += 1;
    }

    fn merge(&mut self, other: &Self) {
        for (mine, theirs) in self.counts.iter_mut().zip(other.counts.iter()) {
            *mine += theirs;
        }
        self.total += other.total;
    }

    /// The inclusive upper bound of the bucket holding quantile `q`.
    fn quantile_ms(&self, q: f64) -> u64 {
        if self.total == 0 {
            return 0;
        }
        let rank = ((self.total as f64 * q).ceil() as u64).clamp(1, self.total);
        let mut seen = 0;
        for (bucket, count) in self.counts.iter().enumerate() {
            seen += count;
            if seen >= rank {
                return if bucket == 0 { 0 } else { 1u64 << (bucket - 1) };
            }
        }
        1u64 << (LAT_BUCKETS - 2)
    }
}

/// Per-device counters, merged in index order after the workers join.
#[derive(Clone, Default)]
struct DeviceStats {
    ops: u64,
    sms_sent: u64,
    http_ok: u64,
    location_fixes: u64,
    errors: u64,
    deadline_blown: u64,
    latency: LatencyBuckets,
}

/// One splitmix64 step: advances `state` and returns the next value.
pub(crate) fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn fnv_fold(hash: u64, value: u64) -> u64 {
    (hash ^ value).wrapping_mul(0x0000_0100_0000_01B3)
}

/// The fleet-wide SLO objective template: availability per traffic
/// method per platform, plus — under a brownout — a latency objective
/// at the scenario's p99 target. Every device gets the *same* list (its
/// recorder only matches its own platform's series), so the per-device
/// reports merge index-for-index at digest time.
fn fleet_slo_objectives(brownout: Option<&BrownoutConfig>) -> Vec<SloObjective> {
    let mut objectives = Vec::new();
    for platform in ["android", "s60", "android-webview"] {
        for (proxy, method) in [
            ("Location", "getLocation"),
            ("SMS", "sendTextMessage"),
            ("Http", "request"),
        ] {
            objectives.push(SloObjective {
                name: format!("avail:{proxy}.{method}@{platform}"),
                proxy: proxy.into(),
                method: method.into(),
                platform: platform.into(),
                target: SloTarget::Availability {
                    target_ppm: 995_000,
                },
            });
            if let Some(b) = brownout {
                objectives.push(SloObjective {
                    name: format!("latency:{proxy}.{method}@{platform}"),
                    proxy: proxy.into(),
                    method: method.into(),
                    platform: platform.into(),
                    target: SloTarget::Latency {
                        threshold_ms: b.p99_target_ms,
                        target_ppm: 990_000,
                    },
                });
            }
        }
    }
    objectives
}

/// One queued unit of traffic, dispatched at batch flush.
enum FleetOp {
    LocationFix,
    Sms { text: String },
    HttpReport { latitude: f64, longitude: f64 },
}

/// A per-device, per-round batch of traffic: ops accumulate during the
/// round's planning pass and hit the proxies — and through them the
/// device's `SimNetwork` — in one flush (the SINk-style batching
/// lever). Batch order is the queue order, so dispatch is
/// deterministic.
struct TrafficBatch {
    ops: Vec<FleetOp>,
    /// Widen every location fix into a fix + power-draw multi-read
    /// (the bridge arms exercise this; native platforms serve it
    /// directly, WebView over the JS bridge).
    multi_read: bool,
}

impl TrafficBatch {
    fn plan(
        rng: &mut u64,
        ops_per_round: u32,
        agent_id: u64,
        read_heavy: bool,
        multi_read: bool,
    ) -> Self {
        let mut ops = Vec::with_capacity(ops_per_round as usize);
        for _ in 0..ops_per_round {
            let draw = splitmix64(rng);
            // Both mixes consume exactly one draw per op, so a cached
            // and an uncached run of the same seed plan identical
            // traffic — the premise of the cache-arm checksum gate.
            ops.push(if read_heavy {
                match draw % 8 {
                    6 => FleetOp::Sms {
                        text: format!("agent {agent_id} checking in"),
                    },
                    7 => FleetOp::HttpReport {
                        latitude: 28.5 + (draw % 1_000) as f64 * 1e-6,
                        longitude: 77.3 + (draw % 977) as f64 * 1e-6,
                    },
                    _ => FleetOp::LocationFix,
                }
            } else {
                match draw % 4 {
                    0 | 1 => FleetOp::HttpReport {
                        latitude: 28.5 + (draw % 1_000) as f64 * 1e-6,
                        longitude: 77.3 + (draw % 977) as f64 * 1e-6,
                    },
                    2 => FleetOp::Sms {
                        text: format!("agent {agent_id} checking in"),
                    },
                    _ => FleetOp::LocationFix,
                }
            });
        }
        Self { ops, multi_read }
    }
}

/// The round-scoped knobs a [`TrafficBatch::flush`] runs under: the
/// round identity plus the brownout arm's deadline budget and the
/// durable arm's idempotency seed, when those arms are on.
struct FlushCtx {
    deadline_budget_ms: Option<u64>,
    round: u64,
    idem_seed: Option<u64>,
}

impl TrafficBatch {
    /// Executes the batch through the device's memoized proxies,
    /// recording per-op virtual latency into `stats`.
    ///
    /// Without a deadline budget, latency is the per-op clock delta and
    /// every op records. Under a brownout budget the batch has
    /// **arrival semantics**: every op conceptually arrived at flush
    /// start, runs inside an ambient [`Deadline`] opened there, and —
    /// when accepted — records its *sojourn* (completion minus flush
    /// start), the queueing-inclusive latency the admission gate's AIMD
    /// loop also observes. Rejected ops (shed or deadline-exceeded) do
    /// not record: the gate's claim is about the calls it accepted.
    fn flush(
        self,
        registry: &ShardedRegistry,
        device_index: usize,
        device: &Device,
        host: &str,
        stats: &mut DeviceStats,
        ctx: FlushCtx,
    ) {
        let FlushCtx {
            deadline_budget_ms,
            round,
            idem_seed,
        } = ctx;
        let agent_id = device_index as u64;
        let multi_read = self.multi_read;
        let flush_start_ms = device.clock().now_ms();
        for (ordinal, op) in self.ops.into_iter().enumerate() {
            stats.ops += 1;
            let before_ms = device.clock().now_ms();
            // Durable arms give every op of the run a deterministic
            // identity: the same `(seed, device, round, op)` key on
            // first delivery and on any crash-retry re-delivery.
            let key =
                idem_seed.map(|seed| IdempotencyKey::derive(seed, agent_id, round, ordinal as u64));
            let execute = || -> Result<(), ProxyError> {
                match op {
                    // The bridge arm widens every fix into a multi-read
                    // (fix + power draw). Android/S60 serve it natively
                    // and WebView over the bridge — batched or not, the
                    // counters below are identical, which is what the
                    // cross-arm checksum gate pins.
                    FleetOp::LocationFix if multi_read => registry
                        .resolve::<dyn LocationProxy>(device_index)
                        .and_then(|location| location.get_location_with_power())
                        .map(|_| stats.location_fixes += 1),
                    FleetOp::LocationFix => registry
                        .resolve::<dyn LocationProxy>(device_index)
                        .and_then(|location| location.get_location())
                        .map(|_| stats.location_fixes += 1),
                    FleetOp::Sms { text } => registry
                        .resolve::<dyn SmsProxy>(device_index)
                        .and_then(|sms| sms.send_text_message(FLEET_SUPERVISOR, &text, None))
                        .map(|_| stats.sms_sent += 1),
                    FleetOp::HttpReport {
                        latitude,
                        longitude,
                    } => registry
                        .resolve::<dyn HttpProxy>(device_index)
                        .and_then(|http| {
                            let point = TrackPoint {
                                agent_id,
                                latitude,
                                longitude,
                                at_ms: before_ms,
                            };
                            let body = serde_json::to_vec(&point).unwrap_or_default();
                            let url = format!("http://{host}/report-location");
                            let mut response = http.request("POST", &url, &body)?;
                            // At-least-once re-delivery: a crash-killed
                            // call answers 503; the retry re-sends the
                            // SAME idempotency key and the server's
                            // durability layer dedups, so only the
                            // final outcome is counted — the checksum
                            // stays byte-identical to the crash-free
                            // arm.
                            let mut attempts = 0;
                            while key.is_some() && response.status == 503 && attempts < 3 {
                                attempts += 1;
                                response = http.request("POST", &url, &body)?;
                            }
                            Ok(response)
                        })
                        .map(|response| {
                            if (200..300).contains(&response.status) {
                                stats.http_ok += 1;
                            }
                        }),
                }
            };
            // The ambient idempotency-key scope wraps the whole call
            // path (client journal decorators read it; the HTTP
            // decorator stamps it onto the wire).
            let execute = || match key {
                Some(k) => with_idempotency_key(k, execute),
                None => execute(),
            };
            match deadline_budget_ms {
                Some(budget_ms) => {
                    let deadline = Deadline::after(flush_start_ms, budget_ms);
                    let outcome = with_deadline(deadline, execute);
                    // The same comparison the proxy-plane decorator
                    // makes when it stamps `deadline = blown` on the
                    // root span — kept telemetry-independent here so
                    // the count (and the checksum folding it) is
                    // identical with tracing on or off.
                    if device.clock().now_ms() > deadline.expires_at_ms() {
                        stats.deadline_blown += 1;
                    }
                    match outcome {
                        Ok(()) => stats
                            .latency
                            .record(deadline.sojourn_ms(device.clock().now_ms())),
                        Err(e) => {
                            stats.errors += 1;
                            // Rejections are not accepted calls; their
                            // (cheap) sojourn stays out of the accepted
                            // latency distribution.
                            if !e.kind().is_load_shed()
                                && e.kind() != ProxyErrorKind::DeadlineExceeded
                            {
                                stats
                                    .latency
                                    .record(deadline.sojourn_ms(device.clock().now_ms()));
                            }
                        }
                    }
                }
                None => {
                    if execute().is_err() {
                        stats.errors += 1;
                    }
                    stats
                        .latency
                        .record(device.clock().now_ms().saturating_sub(before_ms));
                }
            }
        }
    }
}

/// A built fleet, ready to run: the sharded registry, the lockstep
/// cohort of devices, and one [`WfmServer`] per shard.
pub struct Fleet {
    config: FleetConfig,
    registry: Arc<ShardedRegistry>,
    cohort: Cohort,
    servers: Vec<WfmServer>,
    /// The WebView substrates, in device-index order, retained so the
    /// bridge digest can read their crossing counters after the run.
    webviews: Vec<Arc<WebView>>,
}

impl fmt::Debug for Fleet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Fleet")
            .field("devices", &self.cohort.len())
            .field("shards", &self.registry.shard_count())
            .finish()
    }
}

impl Fleet {
    /// Builds the fleet: per-device simulated handsets (Android, S60,
    /// WebView round-robin by index), a warmed [`ShardedRegistry`], the
    /// lockstep [`Cohort`], and a [`WfmServer`] per shard installed on
    /// every member device's network under [`shard_host`].
    ///
    /// # Errors
    ///
    /// `IllegalArgument` for a zero count in `config`; otherwise any
    /// proxy-construction error from registry warm-up.
    pub fn build(config: FleetConfig) -> Result<Self, ProxyError> {
        let config = config.validated()?;
        let mut registry = ShardedRegistry::new(config.shards)?;
        let mut cohort = Cohort::with_tick(config.tick_ms);
        // The crash storm's victims are precomputed from the seeded
        // traffic plan (same draws [`TrafficBatch::plan`] will make),
        // keyed by idempotency key — NOT by arrival order — so the
        // storm hits identical logical calls whatever the worker
        // interleaving.
        let crash_schedules: Option<Vec<Arc<CrashSchedule>>> = match &config.crash_plan {
            Some(storm) => Some(
                crash_victims(&config, &registry, storm.crashes_per_shard)?
                    .into_iter()
                    .map(CrashSchedule::new)
                    .collect(),
            ),
            None => None,
        };
        let servers: Vec<WfmServer> = (0..config.shards)
            .map(|shard| match &config.durability {
                Some(durability) => WfmServer::durable(DurabilityConfig {
                    checkpoint_every: durability.checkpoint_every,
                    policy: JournalPolicy::default(),
                    crash: crash_schedules
                        .as_ref()
                        .map(|schedules| Arc::clone(&schedules[shard])),
                }),
                None => WfmServer::new(),
            })
            .collect();
        let mut armed_shards = vec![false; config.shards];
        let mut webviews: Vec<Arc<WebView>> = Vec::new();

        for index in 0..config.devices {
            let mut seed_state = config.seed ^ (index as u64).wrapping_mul(0xA076_1D64_78BD_642F);
            let device_seed = splitmix64(&mut seed_state);
            let device = Device::builder()
                .seed(device_seed)
                .msisdn(&format!("+91-98-AGENT-{index}"))
                .build();
            device.smsc().register_address(FLEET_SUPERVISOR);

            let shard = registry.shard_of(index);
            servers[shard].install(device.network(), &shard_host(shard));

            // Arm each shard's crash storm through the fault plan of
            // its first member device, firing the arming transition at
            // build time (virtual t=0) so every round's traffic runs
            // under an armed schedule — deterministically, before any
            // worker starts.
            if let Some(schedules) = &crash_schedules {
                if !armed_shards[shard] {
                    armed_shards[shard] = true;
                    FaultPlan::new(&device).crash_storm(0, &schedules[shard]);
                    device.events().run_until(0);
                }
            }

            // Telemetry wiring happens here, at build time: the traced
            // decorators resolve their span names and metric handles
            // once per device, so the run loop's proxy calls stay
            // allocation-free.
            let overload_policy = config
                .brownout
                .as_ref()
                .filter(|b| b.admission && shard == b.target_shard)
                .map(|b| OverloadPolicy::default().target_ms(b.p99_target_ms));
            // The target shard's devices additionally promote traces
            // whose root call ran longer than the brownout's p99
            // target; every device promotes errors and blown deadlines
            // (the policy default).
            let promotion = config
                .brownout
                .as_ref()
                .filter(|b| shard == b.target_shard)
                .map(|b| {
                    PromotionPolicy::default()
                        .latency_threshold("proxy:Location.getLocation", b.p99_target_ms)
                        .latency_threshold("proxy:SMS.sendTextMessage", b.p99_target_ms)
                        .latency_threshold("proxy:Http.request", b.p99_target_ms)
                })
                .unwrap_or_default()
                .max_incidents(INCIDENT_CAPACITY);
            // One engine *per device*: shared burn-rate windows would
            // interleave worker writes; per-device engines merge in
            // index order at report time, keeping the digest
            // worker-count-independent.
            let slo_engine = config.slo.then(|| {
                Arc::new(SloEngine::new(fleet_slo_objectives(
                    config.brownout.as_ref(),
                )))
            });
            let instrument = |b: mobivine::registry::MobivineBuilder| {
                let b = if config.telemetry {
                    let b = b
                        .with_telemetry_retention(SPAN_RETENTION)
                        .with_promotion_policy(promotion.clone());
                    match &slo_engine {
                        Some(engine) => b.with_slo(Arc::clone(engine)),
                        None => b,
                    }
                } else {
                    b
                };
                let b = match overload_policy.clone() {
                    Some(policy) => b.with_overload(policy),
                    None => b,
                };
                // The cache rides between the overload and traced
                // layers (the builder normalizes the order); one shared
                // counter block per device, read back at report time.
                let b = if config.cache {
                    b.with_cache(CachePolicy::default())
                } else {
                    b
                };
                // The durable arm journals client-side too: mutating
                // proxy calls append an intent and cross the fsync
                // barrier before their side effect.
                if config.durability.is_some() {
                    b.with_journal(JournalPolicy::default())
                } else {
                    b
                }
            };
            match index % 3 {
                0 => {
                    let platform = AndroidPlatform::new(device.clone(), SdkVersion::M5Rc15);
                    registry.push_with(|b| instrument(b.android(platform.new_context())))?;
                }
                1 => {
                    registry.push_with(|b| instrument(b.s60(S60Platform::new(device.clone()))))?;
                }
                _ => {
                    let platform = AndroidPlatform::new(device.clone(), SdkVersion::M5Rc15);
                    let webview = Arc::new(WebView::new(platform.new_context()));
                    webviews.push(Arc::clone(&webview));
                    registry.push_with(|b| instrument(b.webview(webview)))?;
                }
            }
            cohort.join(device);
        }

        registry.warm()?;
        // Graceful degradation wiring: the ramped shard's location
        // reports are enrichment traffic the server can live without,
        // so under shed pressure the overload HTTP decorator degrades
        // them to a synthetic accept instead of surfacing an error.
        if let Some(brownout) = config.brownout.as_ref().filter(|b| b.admission) {
            for index in 0..config.devices {
                if registry.shard_of(index) == brownout.target_shard {
                    registry.resolve::<dyn HttpProxy>(index)?.set_property(
                        "shed.droppable_path",
                        PropertyValue::str("/report-location"),
                    )?;
                }
            }
        }
        // The bridge arm's batching toggle: a JavaScript-local property
        // flipped on every WebView device's location proxy (the same
        // plumbing as the shed.droppable_path wiring above). It never
        // crosses the bridge or touches the catalogs, so the property
        // is valid on every decorator stack.
        if let Some(batched) = config.bridge_batch {
            for index in 0..config.devices {
                if index % 3 == 2 {
                    registry
                        .resolve::<dyn LocationProxy>(index)?
                        .set_property(BATCH_PROPERTY, PropertyValue::Bool(batched))?;
                }
            }
        }
        Ok(Self {
            config,
            registry: Arc::new(registry),
            cohort,
            servers,
            webviews,
        })
    }

    /// The validated configuration.
    pub fn config(&self) -> &FleetConfig {
        &self.config
    }

    /// The sharded registry backing the fleet.
    pub fn registry(&self) -> &Arc<ShardedRegistry> {
        &self.registry
    }

    /// The per-shard servers, in shard order.
    pub fn servers(&self) -> &[WfmServer] {
        &self.servers
    }

    /// Runs the configured rounds across the configured workers and
    /// reports. Workers step disjoint device partitions; each round,
    /// each device plans a traffic batch from its seeded stream,
    /// flushes it through the sharded registry's memoized proxies, and
    /// advances to the round barrier.
    pub fn run(mut self) -> FleetReport {
        let config = self.config.clone();
        let partitions = self.cohort.partition(config.workers);
        let mut stats: Vec<DeviceStats> = vec![DeviceStats::default(); config.devices];

        // Hand each worker the stats slice matching its partition —
        // disjoint &mut borrows, no locks on the hot path.
        {
            let mut slices: Vec<(&CohortPartition, &mut [DeviceStats])> = Vec::new();
            let mut rest: &mut [DeviceStats] = &mut stats;
            for partition in &partitions {
                let (head, tail) = rest.split_at_mut(partition.len());
                slices.push((partition, head));
                rest = tail;
            }

            let registry = &self.registry;
            std::thread::scope(|scope| {
                for (partition, slice) in slices {
                    let config = &config;
                    scope.spawn(move || {
                        for round in 1..=config.rounds {
                            let target = partition_target(config.tick_ms, round);
                            for (offset, device) in partition.devices().iter().enumerate() {
                                let index = partition.base_index() + offset;
                                let shard = registry.shard_of(index);
                                // The brownout ramp: the target shard's
                                // devices plan a multiplied batch and run
                                // it under the batch-arrival deadline.
                                let ramped =
                                    config.brownout.as_ref().filter(|b| shard == b.target_shard);
                                let ops_per_round = match ramped {
                                    Some(b) => {
                                        config.ops_per_round.saturating_mul(b.ops_multiplier)
                                    }
                                    None => config.ops_per_round,
                                };
                                // Independent stream per (device, round):
                                // batch planning never depends on how
                                // much traffic earlier rounds ran.
                                let mut rng = config
                                    .seed
                                    .wrapping_add((index as u64) << 20)
                                    .wrapping_add(round);
                                let batch = TrafficBatch::plan(
                                    &mut rng,
                                    ops_per_round,
                                    index as u64,
                                    config.read_heavy,
                                    config.bridge_batch.is_some(),
                                );
                                batch.flush(
                                    registry,
                                    index,
                                    device,
                                    &shard_host(shard),
                                    &mut slice[offset],
                                    FlushCtx {
                                        deadline_budget_ms: ramped.map(|b| b.deadline_budget_ms),
                                        round,
                                        idem_seed: config.durability.as_ref().map(|_| config.seed),
                                    },
                                );
                            }
                            partition.advance_to(target);
                        }
                    });
                }
            });
        }
        for _ in 0..config.rounds {
            // The workers already stepped every member; this records the
            // rounds on the cohort so its notion of "now" matches.
            self.cohort.step();
        }

        self.report(stats)
    }

    fn report(&self, stats: Vec<DeviceStats>) -> FleetReport {
        let config = self.config.clone();
        let mut total_ops = 0;
        let mut sms_sent = 0;
        let mut http_ok = 0;
        let mut location_fixes = 0;
        let mut errors = 0;
        let mut shed = 0;
        let mut degraded = 0;
        let mut deadline_exceeded = 0;
        let mut deadline_blown = 0;
        let mut checksum = 0xCBF2_9CE4_8422_2325u64;
        let mut shard_latency: Vec<LatencyBuckets> = vec![LatencyBuckets::default(); config.shards];
        let mut shard_ops = vec![0u64; config.shards];
        let mut shard_devices = vec![0usize; config.shards];

        for (index, device_stats) in stats.iter().enumerate() {
            total_ops += device_stats.ops;
            sms_sent += device_stats.sms_sent;
            http_ok += device_stats.http_ok;
            location_fixes += device_stats.location_fixes;
            errors += device_stats.errors;
            // Per-device overload counters, straight off the runtime's
            // shared metric block (zero when the device has no overload
            // layer). Each device is stepped by exactly one worker, so
            // these are as deterministic as the op counters.
            let overload: OverloadSnapshot = self
                .registry
                .runtime(index)
                .and_then(|runtime| runtime.overload_metrics())
                .map(|metrics| metrics.snapshot())
                .unwrap_or_default();
            shed += overload.shed;
            degraded += overload.degraded;
            deadline_exceeded += overload.deadline_fail_fast;
            deadline_blown += device_stats.deadline_blown;
            let shard = self.registry.shard_of(index);
            shard_latency[shard].merge(&device_stats.latency);
            shard_ops[shard] += device_stats.ops;
            shard_devices[shard] += 1;
            for value in [
                device_stats.ops,
                device_stats.sms_sent,
                device_stats.http_ok,
                device_stats.location_fixes,
                device_stats.errors,
                device_stats.deadline_blown,
                overload.shed,
                overload.degraded,
                overload.deadline_fail_fast,
            ] {
                checksum = fnv_fold(checksum, value);
            }
        }

        let incidents = config.telemetry.then(|| self.incident_digest(&config));
        let cache = config.cache.then(|| self.cache_digest(&config));
        let bridge = config.bridge_batch.is_some().then(|| self.bridge_digest());
        let recovery = config
            .durability
            .is_some()
            .then(|| self.recovery_digest(&config));

        let mut overall = LatencyBuckets::default();
        for buckets in &shard_latency {
            overall.merge(buckets);
        }

        let per_shard = (0..config.shards)
            .map(|shard| ShardReport {
                shard,
                devices: shard_devices[shard],
                ops: shard_ops[shard],
                p50_ms: shard_latency[shard].quantile_ms(0.50),
                p95_ms: shard_latency[shard].quantile_ms(0.95),
                p99_ms: shard_latency[shard].quantile_ms(0.99),
                server: self.servers[shard].counts(),
            })
            .collect();

        FleetReport {
            virtual_elapsed_ms: config.rounds * config.tick_ms,
            p50_ms: overall.quantile_ms(0.50),
            p95_ms: overall.quantile_ms(0.95),
            p99_ms: overall.quantile_ms(0.99),
            config,
            total_ops,
            sms_sent,
            http_ok,
            location_fixes,
            errors,
            shed,
            degraded,
            deadline_exceeded,
            deadline_blown,
            per_shard,
            checksum,
            incidents,
            cache,
            bridge,
            recovery,
        }
    }

    /// Folds every shard server's recovery ledger (shard order) and
    /// every device runtime's client journal counters (device-index
    /// order) into one digest. Recovery costs are sorted before the
    /// quantile pull, so the digest is worker-invariant even though
    /// shards absorb their crashes in interleaving-dependent order.
    fn recovery_digest(&self, config: &FleetConfig) -> RecoveryDigest {
        let mut digest = RecoveryDigest::default();
        let mut costs: Vec<u64> = Vec::new();
        for server in &self.servers {
            let Some(ledger) = server.recovery_snapshot() else {
                continue;
            };
            digest.recoveries += ledger.recoveries;
            digest.torn_crashes += ledger.torn_crashes;
            digest.gap_crashes += ledger.gap_crashes;
            digest.effect_crashes += ledger.effect_crashes;
            digest.replayed_records += ledger.replayed_records;
            digest.torn_truncated += ledger.torn_truncated;
            digest.checkpoints += ledger.checkpoints;
            digest.suppressed_duplicates += ledger.suppressed_duplicates;
            digest.duplicates += ledger.duplicates();
            costs.extend(ledger.recovery_cost_us);
        }
        costs.sort_unstable();
        let quantile = |q: f64| -> u64 {
            if costs.is_empty() {
                return 0;
            }
            let rank = ((costs.len() as f64 * q).ceil() as usize).clamp(1, costs.len());
            costs[rank - 1]
        };
        digest.recovery_p50_us = quantile(0.50);
        digest.recovery_p99_us = quantile(0.99);
        for index in 0..config.devices {
            let Some(metrics) = self
                .registry
                .runtime(index)
                .and_then(|runtime| runtime.journal_metrics())
            else {
                continue;
            };
            let snapshot = metrics.snapshot();
            digest.client_appends += snapshot.appends;
            digest.client_fsyncs += snapshot.fsyncs;
            digest.client_already_applied += snapshot.already_applied;
        }
        digest
    }

    /// Sums every WebView device's bridge-crossing counter, in
    /// device-index order. Each device is stepped by exactly one
    /// worker, so the digest is as deterministic as the op counters.
    fn bridge_digest(&self) -> BridgeDigest {
        let mut digest = BridgeDigest::default();
        for webview in &self.webviews {
            digest.webview_devices += 1;
            digest.crossings += webview.bridge_crossings();
        }
        digest
    }

    /// Walks every device runtime in index order and sums its cache
    /// counter block. Each device is stepped by exactly one worker, so
    /// the digest is as deterministic as the op counters.
    fn cache_digest(&self, config: &FleetConfig) -> CacheDigest {
        let mut digest = CacheDigest::default();
        for index in 0..config.devices {
            let snapshot: CacheSnapshot = match self
                .registry
                .runtime(index)
                .and_then(|runtime| runtime.cache_metrics())
            {
                Some(metrics) => metrics.snapshot(),
                None => continue,
            };
            digest.hits += snapshot.hit;
            digest.misses += snapshot.miss;
            digest.coalesced += snapshot.coalesced;
            digest.invalidated += snapshot.invalidated;
        }
        digest
    }

    /// Walks every device runtime in index order and folds its flight
    /// recorder, histogram exemplars and SLO report into one digest.
    /// Each device was stepped by exactly one worker, so every input is
    /// as deterministic as the op counters.
    fn incident_digest(&self, config: &FleetConfig) -> IncidentDigest {
        const EXEMPLAR_ID_CAP: usize = 8;
        let mut promoted_traces = 0;
        let mut promoted_deadline = 0;
        let mut promoted_dropped = 0;
        let mut spans_evicted = 0;
        let mut exemplar_trace_ids = Vec::new();
        let mut incident_checksum = 0xCBF2_9CE4_8422_2325u64;
        let mut merged_slo: Option<SloReport> = None;
        let now_ms = config.rounds * config.tick_ms;

        for index in 0..config.devices {
            let Some(runtime) = self.registry.runtime(index) else {
                continue;
            };
            if let Some(store) = runtime.incidents() {
                promoted_traces += store.promoted_total();
                promoted_dropped += store.dropped();
                for trace in store.traces() {
                    if matches!(trace.reason, PromotionReason::DeadlineBlown) {
                        promoted_deadline += 1;
                    }
                    incident_checksum = fnv_fold(incident_checksum, trace.trace_id.0);
                    incident_checksum = fnv_fold(incident_checksum, trace.reason.code());
                }
            }
            if let Some(tracer) = runtime.tracer() {
                spans_evicted += tracer.evicted_spans();
            }
            if let Some(metrics) = runtime.telemetry_metrics() {
                let platform = runtime.platform_id().id().to_owned();
                for (proxy, method) in [
                    ("Location", "getLocation"),
                    ("SMS", "sendTextMessage"),
                    ("Http", "request"),
                ] {
                    let labels = Labels::call(proxy, method, &platform);
                    for (_, trace_id, _) in metrics.histogram("proxy_call_ms", &labels).exemplars()
                    {
                        incident_checksum = fnv_fold(incident_checksum, trace_id.0);
                        if exemplar_trace_ids.len() < EXEMPLAR_ID_CAP {
                            exemplar_trace_ids.push(format!("{:016x}", trace_id.0));
                        }
                    }
                }
            }
            if let Some(engine) = runtime.slo_engine() {
                let report = engine.report(now_ms);
                match &mut merged_slo {
                    // Same template everywhere, so the merge cannot
                    // mismatch; a failure would be a bug worth hearing.
                    Some(merged) => merged.merge(&report).expect("identical objective template"),
                    None => merged_slo = Some(report),
                }
            }
        }

        let top_breached = merged_slo
            .map(|merged| {
                let mut breached: Vec<(u64, String)> = merged
                    .breached()
                    .into_iter()
                    .map(|status| (status.fast_burn_milli(), status.objective.name.clone()))
                    .collect();
                breached.sort_by(|a, b| b.0.cmp(&a.0).then_with(|| a.1.cmp(&b.1)));
                breached.into_iter().take(5).map(|(_, name)| name).collect()
            })
            .unwrap_or_default();

        IncidentDigest {
            promoted_traces,
            promoted_deadline,
            promoted_dropped,
            spans_evicted,
            exemplar_trace_ids,
            top_breached,
            incident_checksum,
        }
    }
}

fn partition_target(tick_ms: u64, round: u64) -> u64 {
    tick_ms * round
}

/// Precomputes each shard's crash victims by replaying the seeded
/// traffic plan's draws: for every `(round, device, op)` in
/// deterministic order, the op is an HTTP report iff the same draw
/// [`TrafficBatch::plan`] will make says so, and HTTP reports are the
/// calls that reach the shard server's durability layer. Victims are
/// spread evenly over the candidates and cycle through the crash kinds
/// starting torn-write, then intent/effect-gap.
fn crash_victims(
    config: &FleetConfig,
    registry: &ShardedRegistry,
    crashes_per_shard: usize,
) -> Result<Vec<Vec<(u64, CrashKind)>>, ProxyError> {
    const KINDS: [CrashKind; 3] = [
        CrashKind::TornWrite,
        CrashKind::BeforeEffect,
        CrashKind::AfterEffect,
    ];
    let mut candidates: Vec<Vec<u64>> = vec![Vec::new(); config.shards];
    for round in 1..=config.rounds {
        for index in 0..config.devices {
            let mut rng = config
                .seed
                .wrapping_add((index as u64) << 20)
                .wrapping_add(round);
            for ordinal in 0..config.ops_per_round {
                let draw = splitmix64(&mut rng);
                let is_http = if config.read_heavy {
                    draw % 8 == 7
                } else {
                    matches!(draw % 4, 0 | 1)
                };
                if is_http {
                    let key = IdempotencyKey::derive(
                        config.seed,
                        index as u64,
                        round,
                        u64::from(ordinal),
                    );
                    candidates[registry.shard_of(index)].push(key.0);
                }
            }
        }
    }
    let mut victims = Vec::with_capacity(config.shards);
    for (shard, keys) in candidates.into_iter().enumerate() {
        if keys.len() < crashes_per_shard {
            return Err(ProxyError::new(
                ProxyErrorKind::IllegalArgument,
                format!(
                    "FleetConfig: shard {shard} plans only {} HTTP reports; cannot schedule \
                     {crashes_per_shard} crashes (raise rounds/ops_per_round or lower \
                     crashes_per_shard)",
                    keys.len()
                ),
            ));
        }
        let step = keys.len() / crashes_per_shard;
        victims.push(
            (0..crashes_per_shard)
                .map(|i| (keys[i * step], KINDS[i % KINDS.len()]))
                .collect(),
        );
    }
    Ok(victims)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_config() -> FleetConfig {
        FleetConfig {
            devices: 30,
            shards: 4,
            workers: 3,
            rounds: 3,
            tick_ms: 500,
            ops_per_round: 2,
            seed: 11,
            ..FleetConfig::default()
        }
    }

    fn read_heavy_config(cache: bool) -> FleetConfig {
        FleetConfig {
            read_heavy: true,
            cache,
            rounds: 4,
            ops_per_round: 6,
            ..small_config()
        }
    }

    fn brownout_config(admission: bool) -> FleetConfig {
        FleetConfig {
            brownout: Some(BrownoutConfig {
                target_shard: 1,
                admission,
                ..BrownoutConfig::default()
            }),
            ..small_config()
        }
    }

    #[test]
    fn zero_counts_are_rejected() {
        let err = FleetConfig {
            devices: 0,
            ..small_config()
        }
        .validated()
        .unwrap_err();
        assert_eq!(err.kind(), ProxyErrorKind::IllegalArgument);
    }

    #[test]
    fn fleet_runs_and_reports() {
        let report = Fleet::build(small_config()).unwrap().run();
        assert_eq!(report.total_ops, 30 * 3 * 2);
        assert_eq!(report.errors, 0, "no op should fail: {report:?}");
        assert!(report.http_ok > 0);
        assert!(report.sms_sent > 0);
        assert!(report.location_fixes > 0);
        assert_eq!(report.per_shard.len(), 4);
        assert_eq!(
            report.per_shard.iter().map(|s| s.ops).sum::<u64>(),
            report.total_ops
        );
        // The shard servers saw exactly the fleet's successful posts.
        let tracked: u64 = report.per_shard.iter().map(|s| s.server.tracks).sum();
        assert_eq!(tracked, report.http_ok);
        assert_eq!(report.virtual_elapsed_ms, 1_500);
        assert!(report.virtual_ops_per_sec() > 0);
    }

    #[test]
    fn same_seed_same_report_regardless_of_workers() {
        let first = Fleet::build(small_config()).unwrap().run();
        let second = Fleet::build(small_config()).unwrap().run();
        assert_eq!(first, second, "same config ⇒ identical report");

        let reworked = Fleet::build(FleetConfig {
            workers: 1,
            ..small_config()
        })
        .unwrap()
        .run();
        assert_eq!(first.checksum, reworked.checksum);
        assert_eq!(first.total_ops, reworked.total_ops);
        assert_eq!(first.per_shard.len(), reworked.per_shard.len());
        for (a, b) in first.per_shard.iter().zip(&reworked.per_shard) {
            assert_eq!(a.ops, b.ops);
            assert_eq!(a.p99_ms, b.p99_ms);
            assert_eq!(a.server, b.server);
        }
    }

    #[test]
    fn telemetry_keeps_reports_worker_invariant() {
        let traced = FleetConfig {
            telemetry: true,
            ..small_config()
        };
        let first = Fleet::build(traced.clone()).unwrap().run();
        let single = Fleet::build(FleetConfig {
            workers: 1,
            ..traced.clone()
        })
        .unwrap()
        .run();
        assert_eq!(first.checksum, single.checksum);
        assert_eq!(first.total_ops, single.total_ops);
        assert_eq!(first.errors, 0);
        // Tracing must not change *what* the fleet computes.
        let untraced = Fleet::build(small_config()).unwrap().run();
        assert_eq!(first.checksum, untraced.checksum);
    }

    #[test]
    fn brownout_target_shard_must_exist() {
        let err = FleetConfig {
            brownout: Some(BrownoutConfig {
                target_shard: 4,
                ..BrownoutConfig::default()
            }),
            ..small_config()
        }
        .validated()
        .unwrap_err();
        assert_eq!(err.kind(), ProxyErrorKind::IllegalArgument);
    }

    #[test]
    fn brownout_with_admission_sheds_and_bounds_accepted_p99() {
        let config = brownout_config(true);
        let target = config.brownout.as_ref().unwrap().target_shard;
        let p99_target = config.brownout.as_ref().unwrap().p99_target_ms;
        let report = Fleet::build(config).unwrap().run();
        assert!(report.shed > 0, "the gate shed load: {report:?}");
        let shard = &report.per_shard[target];
        assert!(
            shard.p99_ms <= p99_target,
            "accepted-call p99 {} must hold the {p99_target}ms target under the ramp",
            shard.p99_ms
        );
        // Degradation absorbed part of the pressure instead of erroring.
        assert!(report.degraded > 0, "degradation tiers engaged: {report:?}");
    }

    #[test]
    fn brownout_without_admission_blows_past_the_target() {
        let config = brownout_config(false);
        let target = config.brownout.as_ref().unwrap().target_shard;
        let p99_target = config.brownout.as_ref().unwrap().p99_target_ms;
        let report = Fleet::build(config).unwrap().run();
        assert_eq!(report.shed, 0, "no gate, no sheds");
        assert_eq!(report.deadline_exceeded, 0);
        assert!(
            report.deadline_blown > 0,
            "the ramp must push ops past the batch deadline: {report:?}"
        );
        let shard = &report.per_shard[target];
        assert!(
            shard.p99_ms > p99_target,
            "unprotected sojourn p99 {} must blow past {p99_target}ms",
            shard.p99_ms
        );
    }

    fn traced_brownout_config(admission: bool) -> FleetConfig {
        FleetConfig {
            telemetry: true,
            slo: true,
            ..brownout_config(admission)
        }
    }

    #[test]
    fn slo_without_telemetry_is_rejected() {
        let err = FleetConfig {
            slo: true,
            telemetry: false,
            ..small_config()
        }
        .validated()
        .unwrap_err();
        assert_eq!(err.kind(), ProxyErrorKind::IllegalArgument);
    }

    #[test]
    fn untraced_runs_have_no_incident_digest() {
        let report = Fleet::build(small_config()).unwrap().run();
        assert!(report.incidents.is_none());
        assert_eq!(report.deadline_blown, 0, "no brownout, no deadline budget");
    }

    #[test]
    fn unprotected_brownout_promotes_every_deadline_breach() {
        let report = Fleet::build(traced_brownout_config(false)).unwrap().run();
        assert!(
            report.deadline_blown > 0,
            "the unprotected ramp must blow deadlines: {report:?}"
        );
        let digest = report.incidents.as_ref().expect("telemetry ⇒ digest");
        assert_eq!(digest.promoted_dropped, 0, "stores must not overflow here");
        assert_eq!(
            digest.promoted_deadline, report.deadline_blown,
            "every deadline-blown call must have a promoted trace explaining it"
        );
        assert!(
            !digest.exemplar_trace_ids.is_empty(),
            "promotions pin histogram exemplars: {digest:?}"
        );

        // The whole digest — promoted trace ids included — is
        // worker-count-independent.
        let single = Fleet::build(FleetConfig {
            workers: 1,
            ..traced_brownout_config(false)
        })
        .unwrap()
        .run();
        assert_eq!(report.incidents, single.incidents);
        assert_eq!(report.checksum, single.checksum);
        assert_eq!(report.deadline_blown, single.deadline_blown);

        let rerun = Fleet::build(traced_brownout_config(false)).unwrap().run();
        assert_eq!(report, rerun, "same config ⇒ identical traced report");
    }

    #[test]
    fn protected_brownout_surfaces_breached_objectives() {
        let report = Fleet::build(traced_brownout_config(true)).unwrap().run();
        let digest = report.incidents.as_ref().expect("telemetry ⇒ digest");
        // Sheds are availability errors on the target shard's series:
        // the merged burn-rate report must name the burning objectives.
        assert!(
            !digest.top_breached.is_empty(),
            "sheds must breach availability objectives: {digest:?}"
        );
        assert!(digest
            .top_breached
            .iter()
            .all(|name| name.starts_with("avail:") || name.starts_with("latency:")));
        assert!(
            digest.promoted_traces > 0,
            "shed errors promote traces: {digest:?}"
        );
    }

    #[test]
    fn brownout_is_deterministic_across_workers() {
        let first = Fleet::build(brownout_config(true)).unwrap().run();
        let second = Fleet::build(brownout_config(true)).unwrap().run();
        assert_eq!(first, second, "same config ⇒ identical brownout report");
        let reworked = Fleet::build(FleetConfig {
            workers: 1,
            ..brownout_config(true)
        })
        .unwrap()
        .run();
        assert_eq!(first.checksum, reworked.checksum);
        assert_eq!(first.shed, reworked.shed);
        assert_eq!(first.degraded, reworked.degraded);
        assert_eq!(first.deadline_exceeded, reworked.deadline_exceeded);
    }

    #[test]
    fn caching_is_invisible_to_the_checksum() {
        let cached = Fleet::build(read_heavy_config(true)).unwrap().run();
        let uncached = Fleet::build(read_heavy_config(false)).unwrap().run();
        assert_eq!(
            cached.checksum, uncached.checksum,
            "caching must not change what the fleet computes"
        );
        assert_eq!(cached.total_ops, uncached.total_ops);
        assert_eq!(cached.location_fixes, uncached.location_fixes);
        assert_eq!(cached.errors, 0);
        assert!(uncached.cache.is_none());

        let digest = cached.cache.as_ref().expect("cache ⇒ digest");
        assert!(digest.hits > 0, "read-heavy mix must hit: {digest:?}");
        assert!(digest.misses > 0, "first reads must fill: {digest:?}");
        assert_eq!(digest.hits + digest.misses, cached.location_fixes);
        // The acceptance bar: the cached arm's binding-plane read
        // invocations (= misses) are at least 5× fewer than the
        // uncached arm's (= every fix goes to the binding).
        assert!(
            digest.misses * 5 <= uncached.location_fixes,
            "cache must cut binding reads ≥5x: {digest:?} vs {}",
            uncached.location_fixes
        );
    }

    #[test]
    fn cached_reports_are_worker_invariant() {
        let first = Fleet::build(read_heavy_config(true)).unwrap().run();
        let second = Fleet::build(read_heavy_config(true)).unwrap().run();
        assert_eq!(first, second, "same config ⇒ identical cached report");
        let single = Fleet::build(FleetConfig {
            workers: 1,
            ..read_heavy_config(true)
        })
        .unwrap()
        .run();
        assert_eq!(first.checksum, single.checksum);
        assert_eq!(
            first.cache, single.cache,
            "cache digest is worker-invariant"
        );
    }

    fn bridge_config(batched: bool) -> FleetConfig {
        FleetConfig {
            read_heavy: true,
            bridge_batch: Some(batched),
            rounds: 4,
            ops_per_round: 6,
            ..small_config()
        }
    }

    #[test]
    fn bridge_batching_is_invisible_to_the_checksum() {
        let batched = Fleet::build(bridge_config(true)).unwrap().run();
        let unbatched = Fleet::build(bridge_config(false)).unwrap().run();
        assert_eq!(
            batched.checksum, unbatched.checksum,
            "batching must not change what the fleet computes"
        );
        assert_eq!(batched.total_ops, unbatched.total_ops);
        assert_eq!(batched.location_fixes, unbatched.location_fixes);
        assert_eq!(batched.sms_sent, unbatched.sms_sent);
        assert_eq!(batched.http_ok, unbatched.http_ok);
        assert_eq!(batched.errors, 0);
        assert_eq!(unbatched.errors, 0);

        let on = batched.bridge.as_ref().expect("bridge arm ⇒ digest");
        let off = unbatched.bridge.as_ref().expect("bridge arm ⇒ digest");
        assert_eq!(on.webview_devices, 10, "30 devices, every third WebView");
        assert_eq!(on.webview_devices, off.webview_devices);
        // The acceptance bar: a multi-read is two crossings unbatched
        // and one batched, so the batched arm crosses strictly less.
        assert!(
            on.crossings < off.crossings,
            "batching must cut bridge crossings: {on:?} vs {off:?}"
        );
        // The classic arm reports no bridge digest at all.
        let classic = Fleet::build(small_config()).unwrap().run();
        assert!(classic.bridge.is_none());
    }

    #[test]
    fn bridge_arm_reports_are_worker_invariant() {
        let first = Fleet::build(bridge_config(true)).unwrap().run();
        let second = Fleet::build(bridge_config(true)).unwrap().run();
        assert_eq!(first, second, "same config ⇒ identical bridge report");
        let single = Fleet::build(FleetConfig {
            workers: 1,
            ..bridge_config(true)
        })
        .unwrap()
        .run();
        assert_eq!(first.checksum, single.checksum);
        assert_eq!(
            first.bridge, single.bridge,
            "bridge digest is worker-invariant"
        );
    }

    fn durable_config() -> FleetConfig {
        FleetConfig {
            durability: Some(DurabilityFleetConfig::default()),
            ..small_config()
        }
    }

    fn crash_config() -> FleetConfig {
        FleetConfig {
            crash_plan: Some(CrashStormConfig {
                crashes_per_shard: 3,
            }),
            ..durable_config()
        }
    }

    #[test]
    fn crash_plan_requires_durability_with_per_apply_checkpoints() {
        let err = FleetConfig {
            crash_plan: Some(CrashStormConfig::default()),
            ..small_config()
        }
        .validated()
        .unwrap_err();
        assert_eq!(err.kind(), ProxyErrorKind::IllegalArgument);

        let err = FleetConfig {
            durability: Some(DurabilityFleetConfig {
                checkpoint_every: 4,
            }),
            crash_plan: Some(CrashStormConfig::default()),
            ..small_config()
        }
        .validated()
        .unwrap_err();
        assert_eq!(err.kind(), ProxyErrorKind::IllegalArgument);

        let err = FleetConfig {
            brownout: Some(BrownoutConfig::default()),
            ..crash_config()
        }
        .validated()
        .unwrap_err();
        assert_eq!(err.kind(), ProxyErrorKind::IllegalArgument);
    }

    #[test]
    fn journaling_is_invisible_to_the_checksum() {
        // Durability on (client + server journals, idempotency keys on
        // the wire) must not change what the fleet computes.
        let durable = Fleet::build(durable_config()).unwrap().run();
        let plain = Fleet::build(small_config()).unwrap().run();
        assert_eq!(durable.checksum, plain.checksum);
        assert_eq!(durable.total_ops, plain.total_ops);
        assert_eq!(durable.http_ok, plain.http_ok);
        assert_eq!(durable.errors, 0);
        assert!(plain.recovery.is_none());

        let digest = durable.recovery.as_ref().expect("durability ⇒ digest");
        assert_eq!(digest.recoveries, 0, "no crash plan, no crashes");
        assert_eq!(digest.duplicates, 0);
        assert!(digest.client_appends > 0, "mutating calls journal intents");
        assert_eq!(digest.client_fsyncs, digest.client_appends);
        assert!(digest.checkpoints > 0, "server checkpoints every apply");
    }

    #[test]
    fn crash_storm_recovers_to_the_crash_free_checksum_with_zero_duplicates() {
        let stormed = Fleet::build(crash_config()).unwrap().run();
        let crash_free = Fleet::build(durable_config()).unwrap().run();
        // THE gate: a fleet that crashed and recovered on every shard
        // computes byte-identically to one that never crashed.
        assert_eq!(stormed.checksum, crash_free.checksum);
        assert_eq!(stormed.total_ops, crash_free.total_ops);
        assert_eq!(stormed.http_ok, crash_free.http_ok);
        assert_eq!(stormed.sms_sent, crash_free.sms_sent);
        assert_eq!(stormed.errors, 0, "recovery absorbs every crash");
        // Server-side state converges too, shard by shard.
        for (a, b) in stormed.per_shard.iter().zip(&crash_free.per_shard) {
            assert_eq!(a.server, b.server);
        }

        let digest = stormed.recovery.as_ref().expect("durability ⇒ digest");
        assert_eq!(digest.recoveries, 4 * 3, "3 crashes on each of 4 shards");
        assert!(digest.torn_crashes >= 4, "≥1 torn-write crash per shard");
        assert!(
            digest.gap_crashes >= 4,
            "≥1 intent/effect-gap crash per shard"
        );
        assert_eq!(digest.duplicates, 0, "exactly-once under the storm");
        assert_eq!(digest.torn_truncated, digest.torn_crashes);
        assert_eq!(
            digest.suppressed_duplicates,
            digest.gap_crashes + digest.effect_crashes,
            "every durable-intent crash retry dedups; torn retries re-commit"
        );
        assert!(digest.recovery_p50_us > 0);
        assert!(digest.recovery_p99_us >= digest.recovery_p50_us);
    }

    #[test]
    fn crash_storm_is_deterministic_and_worker_invariant() {
        let first = Fleet::build(crash_config()).unwrap().run();
        let second = Fleet::build(crash_config()).unwrap().run();
        assert_eq!(first, second, "same config ⇒ identical stormed report");
        let single = Fleet::build(FleetConfig {
            workers: 1,
            ..crash_config()
        })
        .unwrap()
        .run();
        assert_eq!(first.checksum, single.checksum);
        assert_eq!(
            first.recovery, single.recovery,
            "recovery digest is worker-invariant"
        );
    }

    #[test]
    fn different_seed_changes_the_checksum() {
        let a = Fleet::build(small_config()).unwrap().run();
        let b = Fleet::build(FleetConfig {
            seed: 12,
            ..small_config()
        })
        .unwrap()
        .run();
        assert_ne!(a.checksum, b.checksum);
    }

    #[test]
    fn latency_buckets_quantiles_are_monotone() {
        let mut buckets = LatencyBuckets::default();
        for ms in [0, 1, 2, 3, 60, 60, 60, 120, 500, 4000] {
            buckets.record(ms);
        }
        let p50 = buckets.quantile_ms(0.50);
        let p95 = buckets.quantile_ms(0.95);
        let p99 = buckets.quantile_ms(0.99);
        assert!(p50 <= p95 && p95 <= p99, "{p50} {p95} {p99}");
        assert_eq!(LatencyBuckets::default().quantile_ms(0.5), 0);
    }

    #[test]
    fn mixed_platforms_are_all_present() {
        let fleet = Fleet::build(small_config()).unwrap();
        let ids: Vec<String> = (0..3)
            .map(|i| {
                fleet
                    .registry()
                    .runtime(i)
                    .unwrap()
                    .platform_id()
                    .id()
                    .to_owned()
            })
            .collect();
        assert_eq!(ids.len(), 3);
        assert_ne!(ids[0], ids[1]);
        assert_ne!(ids[1], ids[2]);
    }
}
