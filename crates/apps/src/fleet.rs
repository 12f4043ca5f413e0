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
use mobivine::{with_idempotency_key, IdempotencyKey, JournalPolicy, JournalSnapshot};
use mobivine_android::{AndroidPlatform, SdkVersion};
use mobivine_device::cohort::{Cohort, CohortPartition};
use mobivine_device::fault::{CrashKind, CrashSchedule, FaultPlan};
use mobivine_device::Device;
use mobivine_s60::S60Platform;
use mobivine_telemetry::{
    Labels, PromotionPolicy, PromotionReason, SloEngine, SloObjective, SloReport, SloTarget,
};
use mobivine_webview::WebView;

use crate::server::{DurabilityConfig, TrackPoint, WfmServer};

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

/// Traffic multiplier a brownout applies to the target shard's
/// per-round ops.
pub const BROWNOUT_OPS_MULTIPLIER: u32 = 10;

/// A brownout's per-batch deadline budget, virtual ms: every op of a
/// round's batch conceptually arrives at flush start and must finish
/// within this budget of that instant.
pub const BROWNOUT_DEADLINE_BUDGET_MS: u64 = 400;

/// The accepted-call sojourn p99 bound the overload layer must hold
/// under a brownout; also the AIMD loop's convergence target.
pub const BROWNOUT_P99_TARGET_MS: u64 = 256;

/// A brownout scenario: one shard's devices are hit with a traffic ramp
/// ([`BROWNOUT_OPS_MULTIPLIER`]× the fleet's per-round ops) while every
/// one of their calls runs under a batch-arrival deadline. With
/// `admission` on, those devices are built with the overload layer
/// ([`mobivine::overload`]): the AIMD admission gate sheds the excess,
/// the deadline budget fail-fasts the queue tail, and the accepted
/// calls' sojourn p99 stays within [`BROWNOUT_P99_TARGET_MS`]. With
/// `admission` off the same ramp runs unprotected and the sojourn p99
/// blows past the target — the comparison the bench gate pins.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BrownoutConfig {
    /// The shard whose member devices receive the ramp.
    pub target_shard: usize,
    /// Whether the target shard's devices get the overload layer. Off
    /// = the unprotected baseline arm.
    pub admission: bool,
}

impl Default for BrownoutConfig {
    fn default() -> Self {
        Self {
            target_shard: 0,
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

/// Crashes a crash storm schedules per shard, cycling through the crash
/// kinds torn-write, intent/effect-gap, after-effect — so every shard
/// sees both headline kinds.
pub const CRASHES_PER_SHARD: usize = 3;

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
    /// between the overload and traced layers. Its counters land in
    /// [`FleetReport::counters`] and deliberately stay out of the
    /// checksum: caching must not change what the fleet computes, only
    /// how much binding-plane work it takes.
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
    /// in device-index order into the report's breached objectives.
    pub slo: bool,
    /// Optional brownout scenario overwhelming one shard.
    pub brownout: Option<BrownoutConfig>,
    /// When set, the fleet runs durable: client runtimes journal
    /// mutating calls, shard servers journal intents before effects,
    /// and every HTTP report carries a deterministic idempotency key.
    /// Journal and recovery counters are reported as counters, kept out
    /// of the checksum: durability must not change what the fleet
    /// computes, only how much it survives.
    pub durability: Option<DurabilityFleetConfig>,
    /// When `true`, a crash storm: each shard's middleware is killed at
    /// deterministic points — mid-record (torn write), between intent
    /// and effect, and after the effect but before its checkpoint —
    /// [`CRASHES_PER_SHARD`] times, and recovers by checkpoint +
    /// journal replay. Victim calls are chosen by idempotency key from
    /// the seeded traffic plan, so the storm is identical across worker
    /// counts and reruns. Requires `durability` with
    /// `checkpoint_every == 1`; mutually exclusive with `brownout`.
    pub crash_plan: bool,
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
            durability: None,
            crash_plan: false,
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
        }
        if self.crash_plan {
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

/// Aggregate results of a fleet run. Every value derives from virtual
/// time and per-device counters folded in device-index order, so two
/// runs of the same [`FleetConfig`] produce equal reports, worker count
/// included.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FleetReport {
    /// Total proxy operations issued.
    pub total_ops: u64,
    /// Operations that returned an error.
    pub errors: u64,
    /// An FNV fold over every device's outcome counters in device-index
    /// order: two runs computed the same iff their checksums match.
    /// Tracing, caching and durability stay out of it
    /// by design: they must not change what the fleet computes.
    pub checksum: u64,
    /// Every other numeric outcome, by the name bench scenarios gate
    /// on: the run-wide outcome counters and virtual latency quantiles,
    /// one p99 per shard, and the counters of each plane that is on
    /// (cache, recovery, incidents) under the plane's prefix.
    /// Each name is written once, where its value is computed.
    pub counters: BTreeMap<String, u64>,
    /// The first few exemplar trace ids (16-hex, device-index order)
    /// pinned on `proxy_call_ms` histogram buckets; empty untraced.
    pub exemplar_trace_ids: Vec<String>,
    /// Names of the worst breached SLO objectives (fast-burn
    /// descending, capped), from the merged per-device reports; empty
    /// when the run declared no objectives (`slo: false`).
    pub top_breached: Vec<String>,
}

/// Adds each `(name, value)` to the counter `prefix` + `name`, creating
/// it at zero first, so a plane that is on reports every one of its
/// counters, zeros included.
fn add(counters: &mut BTreeMap<String, u64>, prefix: &str, fields: &[(&str, u64)]) {
    for &(name, value) in fields {
        *counters.entry(format!("{prefix}{name}")).or_default() += value;
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

const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;

fn fnv_fold(hash: u64, value: u64) -> u64 {
    (hash ^ value).wrapping_mul(0x0000_0100_0000_01B3)
}

/// The fleet-wide SLO objective template: availability per traffic
/// method per platform, plus — under a brownout — a latency objective
/// at the scenario's p99 target. Every device gets the *same* list (its
/// recorder only matches its own platform's series), so the per-device
/// reports merge index-for-index at digest time.
fn fleet_slo_objectives(brownout: bool) -> Vec<SloObjective> {
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
            if brownout {
                objectives.push(SloObjective {
                    name: format!("latency:{proxy}.{method}@{platform}"),
                    proxy: proxy.into(),
                    method: method.into(),
                    platform: platform.into(),
                    target: SloTarget::Latency {
                        threshold_ms: BROWNOUT_P99_TARGET_MS,
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
    Sms,
    HttpReport { latitude: f64, longitude: f64 },
}

/// A per-device, per-round batch of traffic: ops accumulate during the
/// round's planning pass and hit the proxies — and through them the
/// device's `SimNetwork` — in one flush (the SINk-style batching
/// lever). Batch order is the queue order, so dispatch is
/// deterministic.
struct TrafficBatch {
    ops: Vec<FleetOp>,
}

impl TrafficBatch {
    /// Plans `ops` ops of device `index` in `round` from their own
    /// seeded stream, so planning never depends on how much traffic
    /// earlier rounds ran. This is the one place the traffic mix is
    /// decided: the crash storm's victim search ([`crash_victims`])
    /// replays it to find the HTTP reports.
    fn plan(config: &FleetConfig, index: usize, round: u64, ops: u32) -> Self {
        let mut rng = config
            .seed
            .wrapping_add((index as u64) << 20)
            .wrapping_add(round);
        let ops = (0..ops)
            .map(|_| {
                let draw = splitmix64(&mut rng);
                let report = FleetOp::HttpReport {
                    latitude: 28.5 + (draw % 1_000) as f64 * 1e-6,
                    longitude: 77.3 + (draw % 977) as f64 * 1e-6,
                };
                // Both mixes consume exactly one draw per op, so a
                // cached and an uncached run of the same seed plan
                // identical traffic — the premise of the cache-arm
                // checksum gate.
                if config.read_heavy {
                    match draw % 8 {
                        6 => FleetOp::Sms,
                        7 => report,
                        _ => FleetOp::LocationFix,
                    }
                } else {
                    match draw % 4 {
                        0 | 1 => report,
                        2 => FleetOp::Sms,
                        _ => FleetOp::LocationFix,
                    }
                }
            })
            .collect();
        Self { ops }
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
        let flush_start_ms = device.clock().now_ms();
        for (ordinal, op) in self.ops.into_iter().enumerate() {
            stats.ops += 1;
            let before_ms = device.clock().now_ms();
            // Durable arms give every op of the run a deterministic
            // identity: the same `(seed, device, round, op)` key on
            // first delivery and on any crash-retry re-delivery.
            let key =
                idem_seed.map(|seed| IdempotencyKey::derive(seed, agent_id, round, ordinal as u64));
            let mut execute = || -> Result<(), ProxyError> {
                match op {
                    FleetOp::LocationFix => registry
                        .resolve::<dyn LocationProxy>(device_index)
                        .and_then(|location| location.get_location())
                        .map(|_| stats.location_fixes += 1),
                    FleetOp::Sms => registry
                        .resolve::<dyn SmsProxy>(device_index)
                        .and_then(|sms| {
                            let text = format!("agent {agent_id} checking in");
                            sms.send_text_message(FLEET_SUPERVISOR, &text, None)
                        })
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
        let crash_schedules: Option<Vec<Arc<CrashSchedule>>> = if config.crash_plan {
            let victims = crash_victims(&config, &registry)?;
            Some(victims.into_iter().map(CrashSchedule::new).collect())
        } else {
            None
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
                .map(|_| OverloadPolicy::default().target_ms(BROWNOUT_P99_TARGET_MS));
            // The target shard's devices additionally promote traces
            // whose root call ran longer than the brownout's p99
            // target; every device promotes errors and blown deadlines
            // (the policy default).
            let promotion = config
                .brownout
                .as_ref()
                .filter(|b| shard == b.target_shard)
                .map(|_| {
                    let target = BROWNOUT_P99_TARGET_MS;
                    PromotionPolicy::default()
                        .latency_threshold("proxy:Location.getLocation", target)
                        .latency_threshold("proxy:SMS.sendTextMessage", target)
                        .latency_threshold("proxy:Http.request", target)
                })
                .unwrap_or_default()
                .max_incidents(INCIDENT_CAPACITY);
            // One engine *per device*: shared burn-rate windows would
            // interleave worker writes; per-device engines merge in
            // index order at report time, keeping the digest
            // worker-count-independent.
            let slo_engine = config.slo.then(|| {
                Arc::new(SloEngine::new(fleet_slo_objectives(
                    config.brownout.is_some(),
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
        Ok(Self {
            config,
            registry: Arc::new(registry),
            cohort,
            servers,
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
    /// advances to the round barrier. A built fleet runs once: the
    /// servers and runtimes it leaves behind stay readable, and a second
    /// run would continue from their state.
    pub fn run(&mut self) -> FleetReport {
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
                                    Some(_) => {
                                        config.ops_per_round.saturating_mul(BROWNOUT_OPS_MULTIPLIER)
                                    }
                                    None => config.ops_per_round,
                                };
                                let batch = TrafficBatch::plan(config, index, round, ops_per_round);
                                batch.flush(
                                    registry,
                                    index,
                                    device,
                                    &shard_host(shard),
                                    &mut slice[offset],
                                    FlushCtx {
                                        deadline_budget_ms: ramped
                                            .map(|_| BROWNOUT_DEADLINE_BUDGET_MS),
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
        let mut counters = BTreeMap::new();
        let mut total_ops = 0;
        let mut errors = 0;
        let mut checksum = FNV_OFFSET;
        let mut shard_latency = vec![LatencyBuckets::default(); self.config.shards];
        for (index, device) in stats.iter().enumerate() {
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
            total_ops += device.ops;
            errors += device.errors;
            add(
                &mut counters,
                "",
                &[
                    ("sms_sent", device.sms_sent),
                    // HTTP requests answered with a 2xx status.
                    ("http_ok", device.http_ok),
                    ("location_fixes", device.location_fixes),
                    // Calls the admission gate rejected.
                    ("shed", overload.shed),
                    // Sheds absorbed by a cached or coarse fix, or by a
                    // droppable request's synthetic accept.
                    ("degraded", overload.degraded),
                    // Calls failed fast: their deadline budget was gone
                    // before the binding plane was touched.
                    ("deadline_exceeded", overload.deadline_fail_fast),
                    // Ops of any outcome that finished past their
                    // batch-arrival deadline: the breaches a promoted
                    // trace must explain. Counted from flush sojourns,
                    // so identical with telemetry on or off.
                    ("deadline_blown", device.deadline_blown),
                ],
            );
            shard_latency[self.registry.shard_of(index)].merge(&device.latency);
            for value in [
                device.ops,
                device.sms_sent,
                device.http_ok,
                device.location_fixes,
                device.errors,
                device.deadline_blown,
                overload.shed,
                overload.degraded,
                overload.deadline_fail_fast,
            ] {
                checksum = fnv_fold(checksum, value);
            }
        }
        let mut overall = LatencyBuckets::default();
        for (shard, buckets) in shard_latency.iter().enumerate() {
            overall.merge(buckets);
            counters.insert(format!("shard{shard}.p99_ms"), buckets.quantile_ms(0.99));
        }
        for (name, q) in [("p50_ms", 0.50), ("p95_ms", 0.95), ("p99_ms", 0.99)] {
            counters.insert(name.to_owned(), overall.quantile_ms(q));
        }
        if self.config.cache {
            self.cache_counters(&mut counters);
        }
        if self.config.durability.is_some() {
            self.recovery_counters(&mut counters);
        }
        let (exemplar_trace_ids, top_breached) = if self.config.telemetry {
            self.incident_counters(&mut counters)
        } else {
            (Vec::new(), Vec::new())
        };
        FleetReport {
            total_ops,
            errors,
            checksum,
            counters,
            exemplar_trace_ids,
            top_breached,
        }
    }

    /// Folds every shard server's recovery ledger (shard order) and
    /// every device runtime's client journal counters (device-index
    /// order). Recovery costs are sorted before the quantile pull, so
    /// the counters are worker-invariant even though shards absorb
    /// their crashes in interleaving-dependent order.
    fn recovery_counters(&self, counters: &mut BTreeMap<String, u64>) {
        let mut tally = |fields: &[(&str, u64)]| add(counters, "recovery.", fields);
        let mut costs: Vec<u64> = Vec::new();
        for server in &self.servers {
            let ledger = server.recovery_snapshot().unwrap_or_default();
            tally(&[
                ("recoveries", ledger.recoveries),
                ("torn_crashes", ledger.torn_crashes),
                ("gap_crashes", ledger.gap_crashes),
                ("effect_crashes", ledger.effect_crashes),
                ("replayed_records", ledger.replayed_records),
                ("torn_truncated", ledger.torn_truncated),
                ("checkpoints", ledger.checkpoints),
                ("suppressed_duplicates", ledger.suppressed_duplicates),
                ("duplicates", ledger.duplicates()),
            ]);
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
        tally(&[
            ("recovery_p50_us", quantile(0.50)),
            ("recovery_p99_us", quantile(0.99)),
        ]);
        for index in 0..self.config.devices {
            let journal: JournalSnapshot = self
                .registry
                .runtime(index)
                .and_then(|runtime| runtime.journal_metrics())
                .map(|metrics| metrics.snapshot())
                .unwrap_or_default();
            tally(&[
                ("client_appends", journal.appends),
                ("client_fsyncs", journal.fsyncs),
                ("client_already_applied", journal.already_applied),
            ]);
        }
    }

    /// Walks every device runtime in index order and sums its cache
    /// counter block. Each device is stepped by exactly one worker, so
    /// the sums are as deterministic as the op counters.
    fn cache_counters(&self, counters: &mut BTreeMap<String, u64>) {
        for index in 0..self.config.devices {
            let cache: CacheSnapshot = self
                .registry
                .runtime(index)
                .and_then(|runtime| runtime.cache_metrics())
                .map(|metrics| metrics.snapshot())
                .unwrap_or_default();
            add(
                counters,
                "cache.",
                &[
                    ("hits", cache.hit),
                    ("misses", cache.miss),
                    ("coalesced", cache.coalesced),
                    ("invalidated", cache.invalidated),
                ],
            );
        }
    }

    /// Walks every device runtime in index order and folds its flight
    /// recorder, histogram exemplars and SLO report: adds the incident
    /// counters and returns the exemplar trace ids and the worst
    /// breached objectives. Each device was stepped by exactly one
    /// worker, so every input is as deterministic as the op counters.
    /// The incident checksum folds every kept promoted trace id and
    /// reason and every histogram exemplar; it is separate from the
    /// report's checksum so tracing stays invisible to that.
    fn incident_counters(
        &self,
        counters: &mut BTreeMap<String, u64>,
    ) -> (Vec<String>, Vec<String>) {
        const EXEMPLAR_ID_CAP: usize = 8;
        let mut tally = |fields: &[(&str, u64)]| add(counters, "incidents.", fields);
        let mut exemplar_trace_ids = Vec::new();
        let mut incident_checksum = FNV_OFFSET;
        let mut merged_slo: Option<SloReport> = None;
        let now_ms = self.config.rounds * self.config.tick_ms;

        for index in 0..self.config.devices {
            let Some(runtime) = self.registry.runtime(index) else {
                continue;
            };
            let (promoted, dropped, traces) = runtime
                .incidents()
                .map(|store| (store.promoted_total(), store.dropped(), store.traces()))
                .unwrap_or_default();
            let mut deadline = 0;
            for trace in &traces {
                if matches!(trace.reason, PromotionReason::DeadlineBlown) {
                    deadline += 1;
                }
                incident_checksum = fnv_fold(incident_checksum, trace.trace_id.0);
                incident_checksum = fnv_fold(incident_checksum, trace.reason.code());
            }
            tally(&[
                ("promoted_traces", promoted),
                ("promoted_deadline", deadline),
                ("promoted_dropped", dropped),
                (
                    "spans_evicted",
                    runtime.tracer().map_or(0, |tracer| tracer.evicted_spans()),
                ),
            ]);
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
        tally(&[("incident_checksum", incident_checksum)]);

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
        (exemplar_trace_ids, top_breached)
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
) -> Result<Vec<Vec<(u64, CrashKind)>>, ProxyError> {
    const KINDS: [CrashKind; 3] = [
        CrashKind::TornWrite,
        CrashKind::BeforeEffect,
        CrashKind::AfterEffect,
    ];
    let mut candidates: Vec<Vec<u64>> = vec![Vec::new(); config.shards];
    for round in 1..=config.rounds {
        for index in 0..config.devices {
            let batch = TrafficBatch::plan(config, index, round, config.ops_per_round);
            for (ordinal, op) in batch.ops.iter().enumerate() {
                if matches!(op, FleetOp::HttpReport { .. }) {
                    let key =
                        IdempotencyKey::derive(config.seed, index as u64, round, ordinal as u64);
                    candidates[registry.shard_of(index)].push(key.0);
                }
            }
        }
    }
    let mut victims = Vec::with_capacity(config.shards);
    for (shard, keys) in candidates.into_iter().enumerate() {
        if keys.len() < CRASHES_PER_SHARD {
            return Err(ProxyError::new(
                ProxyErrorKind::IllegalArgument,
                format!(
                    "FleetConfig: shard {shard} plans only {} HTTP reports; cannot schedule \
                     {CRASHES_PER_SHARD} crashes (raise rounds or ops_per_round)",
                    keys.len()
                ),
            ));
        }
        let step = keys.len() / CRASHES_PER_SHARD;
        victims.push(
            (0..CRASHES_PER_SHARD)
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

    fn brownout_config(admission: bool) -> FleetConfig {
        FleetConfig {
            brownout: Some(BrownoutConfig {
                target_shard: 1,
                admission,
            }),
            ..small_config()
        }
    }

    /// Whether `report` has any counter under `prefix`.
    fn has_prefix(report: &FleetReport, prefix: &str) -> bool {
        report.counters.keys().any(|key| key.starts_with(prefix))
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
        let mut fleet = Fleet::build(small_config()).unwrap();
        let report = fleet.run();
        assert_eq!(report.total_ops, 30 * 3 * 2);
        assert_eq!(report.errors, 0, "no op should fail: {report:?}");
        let http_ok = report.counters["http_ok"];
        assert!(http_ok > 0);
        assert!(report.counters["sms_sent"] > 0);
        assert!(report.counters["location_fixes"] > 0);
        for shard in 0..4 {
            assert!(report
                .counters
                .contains_key(&format!("shard{shard}.p99_ms")));
        }
        // The shard servers saw exactly the fleet's successful posts.
        let tracked: u64 = fleet.servers().iter().map(|s| s.counts().tracks).sum();
        assert_eq!(tracked, http_ok);
    }

    #[test]
    fn same_seed_same_report_regardless_of_workers() {
        let run = |workers| {
            let mut fleet = Fleet::build(FleetConfig {
                workers,
                ..small_config()
            })
            .unwrap();
            let report = fleet.run();
            let servers: Vec<_> = fleet.servers().iter().map(WfmServer::counts).collect();
            (report, servers)
        };
        let first = run(3);
        assert_eq!(first, run(3), "same config ⇒ identical report and servers");
        assert_eq!(first, run(1), "the worker count changes nothing");
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
            ..traced
        })
        .unwrap()
        .run();
        // The whole report, exemplar trace ids included.
        assert_eq!(first, single);
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
        assert!(!has_prefix(&report, "incidents."), "{report:?}");
        assert!(report.exemplar_trace_ids.is_empty());
        assert!(report.top_breached.is_empty());
        assert_eq!(
            report.counters["deadline_blown"], 0,
            "no brownout, no deadline budget"
        );
        // Only the planes a run turns on report counters.
        for plane in ["cache.", "recovery."] {
            assert!(!has_prefix(&report, plane), "{plane} {report:?}");
        }
    }

    #[test]
    fn unprotected_brownout_promotes_every_deadline_breach() {
        let report = Fleet::build(traced_brownout_config(false)).unwrap().run();
        let counter = |name: &str| report.counters[name];
        assert!(
            counter("deadline_blown") > 0,
            "the unprotected ramp must blow deadlines: {report:?}"
        );
        assert_eq!(
            counter("incidents.promoted_dropped"),
            0,
            "stores must not overflow here"
        );
        assert_eq!(
            counter("incidents.promoted_deadline"),
            counter("deadline_blown"),
            "every deadline-blown call must have a promoted trace explaining it"
        );
        assert!(
            !report.exemplar_trace_ids.is_empty(),
            "promotions pin histogram exemplars: {report:?}"
        );

        // The whole report — promoted trace ids and exemplars included —
        // is worker-count-independent and reproducible.
        let single = Fleet::build(FleetConfig {
            workers: 1,
            ..traced_brownout_config(false)
        })
        .unwrap()
        .run();
        assert_eq!(report, single);
        let rerun = Fleet::build(traced_brownout_config(false)).unwrap().run();
        assert_eq!(report, rerun, "same config ⇒ identical traced report");
    }

    #[test]
    fn protected_brownout_surfaces_breached_objectives() {
        let report = Fleet::build(traced_brownout_config(true)).unwrap().run();
        // Sheds are availability errors on the target shard's series:
        // the merged burn-rate report must name the burning objectives.
        assert!(
            !report.top_breached.is_empty(),
            "sheds must breach availability objectives: {report:?}"
        );
        assert!(report
            .top_breached
            .iter()
            .all(|name| name.starts_with("avail:") || name.starts_with("latency:")));
        assert!(
            report.counters["incidents.promoted_traces"] > 0,
            "shed errors promote traces: {report:?}"
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
            crash_plan: true,
            ..durable_config()
        }
    }

    #[test]
    fn crash_plan_requires_durability_with_per_apply_checkpoints() {
        let err = FleetConfig {
            crash_plan: true,
            ..small_config()
        }
        .validated()
        .unwrap_err();
        assert_eq!(err.kind(), ProxyErrorKind::IllegalArgument);

        let err = FleetConfig {
            durability: Some(DurabilityFleetConfig {
                checkpoint_every: 4,
            }),
            crash_plan: true,
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
    fn crash_storm_recovers_to_the_crash_free_checksum_with_zero_duplicates() {
        // The bench `crash` scenario gates the counters; what only the
        // fleet can show is the servers' state after the storm.
        let mut stormed = Fleet::build(crash_config()).unwrap();
        let mut crash_free = Fleet::build(durable_config()).unwrap();
        let (stormed_report, crash_free_report) = (stormed.run(), crash_free.run());
        assert_eq!(stormed_report.checksum, crash_free_report.checksum);
        assert_eq!(stormed_report.counters["recovery.recoveries"], 4 * 3);
        assert_eq!(stormed_report.counters["recovery.duplicates"], 0);
        // Server-side state converges too, shard by shard.
        for (a, b) in stormed.servers().iter().zip(crash_free.servers()) {
            assert_eq!(a.counts(), b.counts());
        }
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
