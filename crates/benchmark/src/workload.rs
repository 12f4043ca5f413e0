//! The four fleet workloads: what each builds, how its two caller
//! threads drive it, and what it counts.
//!
//! Every workload is a closed loop of [`CALLERS`] caller threads. Each
//! caller owns a contiguous half of the devices and works through
//! lockstep rounds: every owned device issues its round's ops
//! back-to-back (each op = `ShardedRegistry::resolve` + the proxy
//! call), then the caller advances its devices' clocks to the round
//! boundary and waits on a barrier. Devices sit on [`SHARDS`] shards by
//! `index % SHARDS`, so both callers hit every shard's shared, locked
//! `WfmServer`.

use std::fmt::Write as _;
use std::ops::Range;
use std::sync::{Arc, Barrier};
use std::time::Instant;

use mobivine::api::{HttpProxy, LocationProxy, SmsProxy};
use mobivine::cache::CachePolicy;
use mobivine::error::{ProxyError, ProxyErrorKind};
use mobivine::overload::{with_deadline, Deadline, OverloadPolicy};
use mobivine::property::PropertyValue;
use mobivine::registry::MobivineBuilder;
use mobivine::resilience::ResiliencePolicy;
use mobivine::shard::ShardedRegistry;
use mobivine::types::Location;
use mobivine::webview::BATCH_PROPERTY;
use mobivine::{with_idempotency_key, IdempotencyKey, JournalPolicy};
use mobivine_android::{AndroidPlatform, Context, SdkVersion};
use mobivine_apps::model::Task;
use mobivine_apps::server::{DurabilityConfig, WfmServer};
use mobivine_device::latency::LatencyModel;
use mobivine_device::{Device, FaultPlan};
use mobivine_s60::S60Platform;
use mobivine_telemetry::PromotionPolicy;
use mobivine_webview::WebView;

use crate::hist::Histogram;
use crate::plan::{splitmix64, Draw, Mix, Op, RoundPlan};
use crate::trace::Tracer;

/// Caller threads per workload, fixed so runs compare across machines.
pub const CALLERS: usize = 2;
/// Registry shards, each with its own `WfmServer`.
pub const SHARDS: usize = 4;
/// Virtual length of one round.
pub const TICK_MS: u64 = 1_000;
/// Tasks assigned to each agent on the read-heavy workload.
pub const TASKS_PER_AGENT: usize = 4;
/// The MSISDN every device texts.
pub const SUPERVISOR: &str = "+91-98-SUPERVISOR";
const SPAN_RETENTION: usize = 16;
const INCIDENT_CAPACITY: usize = 8;
/// Durable servers checkpoint every this many applies. Each checkpoint
/// clones the whole server state under the shard lock, so these stalls
/// grow with the run and reach `write_durable`'s tail.
pub const CHECKPOINT_EVERY: u32 = 64;
/// Latency samples a full-size run collects at least: 10⁴ beyond p99.
pub const MIN_SAMPLES: u64 = 1_000_000;
const DEADLINE_BUDGET_MS: u64 = 400;
const FAULT_PERIOD_ROUNDS: u64 = 10;

/// The policy layers a workload's runtimes are built with.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Stack {
    /// Traced decorators at the proxy and binding planes.
    pub telemetry: bool,
    /// Retry, circuit breaker and fallback.
    pub resilience: bool,
    /// Write-ahead intent journal on mutating calls.
    pub journal: bool,
    /// Bulkhead, admission control and deadlines.
    pub overload: bool,
    /// Read-through cache on idempotent reads.
    pub cache: bool,
}

impl Stack {
    /// Enables this stack's layers on `builder`; `MobivineBuilder::build`
    /// applies them in its canonical order.
    pub fn apply(self, builder: MobivineBuilder) -> MobivineBuilder {
        let mut b = builder;
        if self.telemetry {
            // A small incident store per device: at fleet scale the
            // default capacity would hold gigabytes of promoted traces
            // on the faulted workload.
            b = b
                .with_telemetry_retention(SPAN_RETENTION)
                .with_promotion_policy(PromotionPolicy::default().max_incidents(INCIDENT_CAPACITY));
        }
        if self.resilience {
            b = b.with_resilience(ResiliencePolicy::default());
        }
        if self.journal {
            b = b.with_journal(JournalPolicy::default());
        }
        if self.overload {
            b = b.with_overload(OverloadPolicy::default());
        }
        if self.cache {
            b = b.with_cache(CachePolicy::default());
        }
        b
    }
}

/// One workload of the suite.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Read-heavy traffic inside one cache TTL; no journal.
    ReadHot,
    /// Idempotent writes through the full stack to durable servers.
    WriteDurable,
    /// The paper's configuration: bare proxies, large fleet.
    FleetBare,
    /// Injected faults and deadlines through resilience and overload.
    Faulted,
}

/// A workload's fixed shape.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    /// Simulated devices.
    pub devices: usize,
    /// Ops per device per round.
    pub ops_per_round: u64,
    /// Rounds run for a 10-second measurement.
    pub rounds_per_10s: u64,
    /// Policy layers.
    pub stack: Stack,
    /// Traffic mix.
    pub mix: Mix,
}

impl Workload {
    /// Every workload, in suite order.
    pub const ALL: [Workload; 4] = [
        Workload::ReadHot,
        Workload::WriteDurable,
        Workload::FleetBare,
        Workload::Faulted,
    ];

    /// The workload's name on the command line and in results.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ReadHot => "read_hot",
            Workload::WriteDurable => "write_durable",
            Workload::FleetBare => "fleet_bare",
            Workload::Faulted => "faulted",
        }
    }

    /// The workload called `name`.
    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether errors are the expected outcome of injected faults.
    pub fn faulted(self) -> bool {
        self == Workload::Faulted
    }

    /// The workload's shape.
    pub fn spec(self) -> Spec {
        let all = Stack {
            telemetry: true,
            resilience: true,
            journal: true,
            overload: true,
            cache: true,
        };
        match self {
            Workload::ReadHot => Spec {
                devices: 600,
                ops_per_round: 32,
                rounds_per_10s: 250,
                stack: Stack {
                    journal: false,
                    ..all
                },
                mix: Mix::ReadHeavy,
            },
            Workload::WriteDurable => Spec {
                devices: 3_000,
                ops_per_round: 4,
                rounds_per_10s: 60,
                stack: all,
                mix: Mix::WriteLeaning,
            },
            Workload::FleetBare => Spec {
                devices: 10_000,
                ops_per_round: 2,
                rounds_per_10s: 230,
                stack: Stack::default(),
                mix: Mix::WriteLeaning,
            },
            Workload::Faulted => Spec {
                devices: 3_000,
                ops_per_round: 4,
                rounds_per_10s: 225,
                stack: Stack {
                    journal: false,
                    cache: false,
                    ..all
                },
                mix: Mix::WriteLeaning,
            },
        }
    }

    /// The run size for a `seconds`-long measurement, with optional
    /// overrides (used by smoke tests). Without a `rounds` override a
    /// run has at least [`MIN_SAMPLES`] ops, so its p99 rests on at
    /// least 1 % of them.
    pub fn sizes(self, seconds: u64, devices: Option<usize>, rounds: Option<u64>) -> Sizes {
        let spec = self.spec();
        let devices = devices.unwrap_or(spec.devices).max(CALLERS);
        let per_round = devices as u64 * spec.ops_per_round;
        let scaled = (spec.rounds_per_10s * seconds)
            .div_ceil(10)
            .max(MIN_SAMPLES.div_ceil(per_round));
        Sizes {
            devices,
            ops_per_round: spec.ops_per_round,
            rounds: rounds.unwrap_or(scaled).max(1),
        }
    }
}

/// The size of one run: a fixed op count, identical on every commit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sizes {
    /// Simulated devices.
    pub devices: usize,
    /// Ops per device per round.
    pub ops_per_round: u64,
    /// Rounds.
    pub rounds: u64,
}

impl Sizes {
    /// Ops the run attempts.
    pub fn attempted(&self) -> u64 {
        self.devices as u64 * self.ops_per_round * self.rounds
    }

    /// The round prefix the traced pass replays: the first quarter.
    pub fn prefix_rounds(&self) -> u64 {
        (self.rounds / 4).max(1)
    }
}

/// A device's platform binding, before a runtime is built over it.
pub(crate) enum Target {
    Android(Context),
    S60(S60Platform),
    WebView(Arc<WebView>),
}

impl Target {
    /// Points `builder` at this binding.
    pub(crate) fn select(&self, builder: MobivineBuilder) -> MobivineBuilder {
        match self {
            Target::Android(ctx) => builder.android(ctx.clone()),
            Target::S60(platform) => builder.s60(platform.clone()),
            Target::WebView(webview) => builder.webview(Arc::clone(webview)),
        }
    }
}

/// A built fleet: devices, shard servers and warmed runtimes.
pub struct Fleet {
    workload: Workload,
    registry: ShardedRegistry,
    devices: Vec<Device>,
    servers: Vec<WfmServer>,
    webviews: Vec<Arc<WebView>>,
    hosts: Vec<String>,
    report_urls: Vec<String>,
    /// Rounds the fault schedule covers.
    rounds: u64,
    /// Seconds spent building devices, platforms, servers and faults.
    pub devices_s: f64,
    /// Seconds spent building and warming the runtimes.
    pub runtimes_s: f64,
}

/// Task `ordinal` of agent `agent`.
pub(crate) fn task(agent: usize, ordinal: usize) -> Task {
    Task {
        id: (agent * TASKS_PER_AGENT + ordinal) as u64,
        latitude: 28.5 + ordinal as f64 * 1e-3,
        longitude: 77.3,
        radius_m: 100.0,
        description: format!("site {ordinal}"),
    }
}

/// One fault cycle of the faulted workload, starting at round `base`:
/// GPS outage, lossy SMSC (p = 0.5), 10× network latency, partition.
/// Device `i`'s cycles start at rounds `≡ i (mod FAULT_PERIOD_ROUNDS)`.
fn schedule_fault_cycle(device: &Device, base: u64) {
    let plan = FaultPlan::new(device);
    let ms = |round: u64| round * TICK_MS;
    plan.gps_outage(ms(base), ms(base + 1));
    plan.sms_loss_window(ms(base + 2), ms(base + 3), 0.5);
    plan.latency_spike(ms(base + 4), ms(base + 6), 10);
    plan.network_partition(ms(base + 7), ms(base + 8));
}

impl Fleet {
    /// Builds `devices` devices (Android, S60, WebView by `index % 3`),
    /// one server per shard installed on every member device, and a
    /// warmed [`ShardedRegistry`] of runtimes with the workload's stack.
    /// `rounds` bounds the fault schedule of the faulted workload.
    ///
    /// # Errors
    ///
    /// Any proxy construction error from registration or warm-up.
    pub fn build(
        workload: Workload,
        seed: u64,
        devices: usize,
        rounds: u64,
    ) -> Result<Self, ProxyError> {
        let started = Instant::now();
        let servers: Vec<WfmServer> = (0..SHARDS)
            .map(|_| match workload {
                Workload::WriteDurable => WfmServer::durable(DurabilityConfig {
                    checkpoint_every: CHECKPOINT_EVERY,
                    policy: JournalPolicy::default(),
                    crash: None,
                }),
                _ => WfmServer::new(),
            })
            .collect();
        let hosts: Vec<String> = (0..SHARDS)
            .map(|shard| format!("wfm.shard{shard}.example"))
            .collect();
        let report_urls = hosts
            .iter()
            .map(|host| format!("http://{host}/report-location"))
            .collect();
        let mut fleet_devices = Vec::with_capacity(devices);
        let mut targets = Vec::with_capacity(devices);
        let mut webviews = Vec::new();
        for index in 0..devices {
            let mut state = seed ^ (index as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            let device = Device::builder()
                .seed(splitmix64(&mut state))
                .msisdn(&format!("+91-98-AGENT-{index}"))
                .latency(LatencyModel::zero())
                .build();
            device.smsc().register_address(SUPERVISOR);
            let shard = index % SHARDS;
            servers[shard].install(device.network(), &hosts[shard]);
            if workload == Workload::ReadHot {
                for ordinal in 0..TASKS_PER_AGENT {
                    servers[shard].assign_task(index as u64, task(index, ordinal));
                }
            }
            if workload.faulted() {
                // The cycles starting by round FAULT_PERIOD_ROUNDS; each
                // later cycle is armed one period ahead (see `advance`),
                // so a device holds at most two cycles of pending events.
                let mut base = index as u64 % FAULT_PERIOD_ROUNDS;
                while base <= FAULT_PERIOD_ROUNDS && base < rounds {
                    schedule_fault_cycle(&device, base);
                    base += FAULT_PERIOD_ROUNDS;
                }
            }
            let android = || AndroidPlatform::new(device.clone(), SdkVersion::M5Rc15).new_context();
            targets.push(match index % 3 {
                0 => Target::Android(android()),
                1 => Target::S60(S60Platform::new(device.clone())),
                _ => {
                    let webview = Arc::new(WebView::new(android()));
                    webviews.push(Arc::clone(&webview));
                    Target::WebView(webview)
                }
            });
            fleet_devices.push(device);
        }
        let devices_s = started.elapsed().as_secs_f64();

        let started = Instant::now();
        let stack = workload.spec().stack;
        let mut registry = ShardedRegistry::new(SHARDS)?;
        for target in &targets {
            registry.push_with(|b| stack.apply(target.select(b)))?;
        }
        registry.warm()?;
        if workload == Workload::ReadHot {
            for index in (2..devices).step_by(3) {
                registry
                    .resolve::<dyn LocationProxy>(index)?
                    .set_property(BATCH_PROPERTY, PropertyValue::Bool(true))?;
            }
        }
        let runtimes_s = started.elapsed().as_secs_f64();
        Ok(Self {
            workload,
            registry,
            devices: fleet_devices,
            servers,
            webviews,
            hosts,
            report_urls,
            rounds,
            devices_s,
            runtimes_s,
        })
    }

    /// Ends `round` for device `index`: arms its next fault cycle one
    /// period ahead (faulted workload), then advances its clock to the
    /// round boundary, firing every event that came due.
    fn advance(&self, index: usize, round: u64) {
        let device = &self.devices[index];
        let next = round + FAULT_PERIOD_ROUNDS;
        if self.workload.faulted()
            && round % FAULT_PERIOD_ROUNDS == index as u64 % FAULT_PERIOD_ROUNDS
            && next < self.rounds
        {
            schedule_fault_cycle(device, next);
        }
        device.advance_to(round * TICK_MS);
    }

    /// Track points stored across the shard servers.
    pub fn server_tracks(&self) -> u64 {
        self.servers.iter().map(|s| s.counts().tracks).sum()
    }

    /// Distinct idempotency keys applied across durable shard servers.
    pub fn server_distinct_keys(&self) -> Option<u64> {
        self.servers
            .iter()
            .map(|s| s.recovery_snapshot().map(|r| r.distinct_keys))
            .sum()
    }

    /// The layers' own counters, summed over every runtime and server.
    pub fn counters(&self) -> LayerCounters {
        let mut c = LayerCounters::default();
        for index in 0..self.devices.len() {
            let Some(runtime) = self.registry.runtime(index) else {
                continue;
            };
            if let Some(m) = runtime.cache_metrics() {
                let s = m.snapshot();
                c.cache_hits += s.hit;
                c.cache_lookups += s.hit + s.miss + s.coalesced;
            }
            if let Some(m) = runtime.journal_metrics() {
                let s = m.snapshot();
                c.journal_appends += s.appends;
                c.journal_fsyncs += s.fsyncs;
            }
            if let Some(m) = runtime.resilience_metrics() {
                let s = m.snapshot();
                c.retries += s.retries;
                c.fallbacks += s.fallback_last_known + s.fallback_default;
            }
            if let Some(m) = runtime.overload_metrics() {
                c.shed += m.snapshot().shed;
            }
        }
        for server in &self.servers {
            if let Some(s) = server.journal_snapshot() {
                c.journal_appends += s.appends;
                c.journal_fsyncs += s.fsyncs;
                c.checkpoints += s.checkpoints;
            }
        }
        c.crossings = self.webviews.iter().map(|w| w.bridge_crossings()).sum();
        c
    }
}

/// Cumulative per-layer counters read through the public accessors.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LayerCounters {
    /// Cache reads served from a fresh entry.
    pub cache_hits: u64,
    /// Cache reads of any outcome.
    pub cache_lookups: u64,
    /// JavaScript-bridge crossings.
    pub crossings: u64,
    /// Journal intent records, client and server.
    pub journal_appends: u64,
    /// Journal fsync barriers, client and server.
    pub journal_fsyncs: u64,
    /// Server checkpoints.
    pub checkpoints: u64,
    /// Resilience retries.
    pub retries: u64,
    /// Location fallbacks (last known or default fix).
    pub fallbacks: u64,
    /// Calls shed by admission control.
    pub shed: u64,
}

/// What one op returned, judged.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Outcome {
    Ok,
    Status(u16),
    Err(ProxyErrorKind),
    Malformed,
}

/// The error kinds injected faults and deadlines are expected to
/// surface as.
fn expected_fault(kind: ProxyErrorKind) -> bool {
    matches!(
        kind,
        ProxyErrorKind::Unavailable
            | ProxyErrorKind::Io
            | ProxyErrorKind::CircuitOpen
            | ProxyErrorKind::DeadlineExceeded
            | ProxyErrorKind::Overloaded
    )
}

/// Op outcome counts.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Ops attempted.
    pub attempted: u64,
    /// Ops that returned `Err` or a non-2xx status.
    pub errors: u64,
    /// Ops whose outcome was wrong: a malformed result, a non-2xx
    /// status, or an error that is not an expected injected fault.
    pub failed: u64,
    /// `POST /report-location` answered 2xx.
    pub post_ok: u64,
    /// Location fixes obtained.
    pub fixes: u64,
    /// SMS accepted.
    pub sms_ok: u64,
    /// `GET /tasks` answered with the agent's tasks.
    pub tasks_ok: u64,
}

impl Tally {
    fn add(&mut self, op: Op, outcome: Outcome, faulted: bool) {
        self.attempted += 1;
        match outcome {
            Outcome::Ok => match op {
                Op::Fix | Op::FixWithPower => self.fixes += 1,
                Op::Sms => self.sms_ok += 1,
                Op::Tasks => self.tasks_ok += 1,
                Op::Report { .. } => self.post_ok += 1,
            },
            Outcome::Status(_) => {
                self.errors += 1;
                self.failed += 1;
            }
            Outcome::Err(kind) => {
                self.errors += 1;
                if !faulted || !expected_fault(kind) {
                    self.failed += 1;
                }
            }
            Outcome::Malformed => self.failed += 1,
        }
    }

    /// Adds `other` into `self`.
    pub fn merge(&mut self, other: &Self) {
        self.attempted += other.attempted;
        self.errors += other.errors;
        self.failed += other.failed;
        self.post_ok += other.post_ok;
        self.fixes += other.fixes;
        self.sms_ok += other.sms_ok;
        self.tasks_ok += other.tasks_ok;
    }
}

/// Request text prepared outside the timed region.
#[derive(Default)]
struct Scratch {
    url: String,
    body: String,
    text: String,
}

fn valid_fix(location: &Location) -> bool {
    location.latitude.is_finite()
        && location.longitude.is_finite()
        && location.latitude.abs() <= 90.0
        && location.longitude.abs() <= 180.0
}

fn count_tasks(body: &[u8]) -> usize {
    body.windows(5).filter(|w| w == b"\"id\":").count()
}

impl Fleet {
    fn prepare(&self, device: usize, op: Op, scratch: &mut Scratch) {
        match op {
            Op::Fix | Op::FixWithPower => {}
            Op::Sms => {
                scratch.text.clear();
                let _ = write!(scratch.text, "agent {device} checking in");
            }
            Op::Tasks => {
                scratch.url.clear();
                let host = &self.hosts[device % SHARDS];
                let _ = write!(scratch.url, "http://{host}/tasks?agent={device}");
            }
            Op::Report {
                latitude,
                longitude,
            } => {
                scratch.body.clear();
                let _ = write!(
                    scratch.body,
                    "{{\"agent_id\":{device},\"latitude\":{latitude},\"longitude\":{longitude},\
                     \"at_ms\":{}}}",
                    self.devices[device].now_ms()
                );
            }
        }
    }

    /// Resolves the op's proxy and calls it.
    fn call<T: Tracer>(&self, device: usize, op: Op, scratch: &Scratch, tracer: &mut T) -> Outcome {
        let registry = &self.registry;
        let judge = |result: Result<bool, ProxyError>| match result {
            Ok(true) => Outcome::Ok,
            Ok(false) => Outcome::Malformed,
            Err(e) => Outcome::Err(e.kind()),
        };
        match op {
            Op::Fix => {
                let proxy = registry.resolve::<dyn LocationProxy>(device);
                tracer.resolved();
                judge(proxy.and_then(|p| p.get_location()).map(|l| valid_fix(&l)))
            }
            Op::FixWithPower => {
                let proxy = registry.resolve::<dyn LocationProxy>(device);
                tracer.resolved();
                judge(
                    proxy
                        .and_then(|p| p.get_location_with_power())
                        .map(|(l, power)| valid_fix(&l) && power.is_finite() && power >= 0.0),
                )
            }
            Op::Sms => {
                let proxy = registry.resolve::<dyn SmsProxy>(device);
                tracer.resolved();
                judge(
                    proxy
                        .and_then(|p| p.send_text_message(SUPERVISOR, &scratch.text, None))
                        .map(|_| true),
                )
            }
            Op::Tasks | Op::Report { .. } => {
                let proxy = registry.resolve::<dyn HttpProxy>(device);
                tracer.resolved();
                let response = proxy.and_then(|p| match op {
                    Op::Tasks => p.request("GET", &scratch.url, &[]),
                    _ => p.request(
                        "POST",
                        &self.report_urls[device % SHARDS],
                        scratch.body.as_bytes(),
                    ),
                });
                match response {
                    Ok(r) if !r.is_success() => Outcome::Status(r.status),
                    Ok(r) if op == Op::Tasks && count_tasks(&r.body) != TASKS_PER_AGENT => {
                        Outcome::Malformed
                    }
                    Ok(_) => Outcome::Ok,
                    Err(e) => Outcome::Err(e.kind()),
                }
            }
        }
    }

    /// Runs one op under the workload's ambient scopes: an idempotency
    /// key on the durable workload, a round-start deadline on one op in
    /// four of the faulted workload.
    #[allow(clippy::too_many_arguments)]
    fn execute<T: Tracer>(
        &self,
        seed: u64,
        device: usize,
        round: u64,
        ordinal: u64,
        draw: Draw,
        scratch: &Scratch,
        tracer: &mut T,
    ) -> Outcome {
        let mut call = || self.call(device, draw.op, scratch, tracer);
        let keyed = || match self.workload {
            Workload::WriteDurable => with_idempotency_key(
                IdempotencyKey::derive(seed, device as u64, round, ordinal),
                call,
            ),
            _ => call(),
        };
        if self.workload.faulted() && draw.deadline {
            let round_start_ms = (round - 1) * TICK_MS;
            with_deadline(Deadline::after(round_start_ms, DEADLINE_BUDGET_MS), keyed)
        } else {
            keyed()
        }
    }
}

/// What one caller measured.
#[derive(Debug, Default)]
struct CallerOut {
    latency: Histogram,
    tally: Tally,
    prefix_tally: Tally,
    /// Barrier exits: the first, the prefix round's and the last.
    start: Option<Instant>,
    prefix_end: Option<Instant>,
    end: Option<Instant>,
}

/// The result of one run over a round range.
#[derive(Debug)]
pub struct RunStats {
    /// Wall time from the first to the last round barrier.
    pub wall_s: f64,
    /// Wall time from the first barrier to the prefix round's barrier.
    pub prefix_wall_s: f64,
    /// Outcome counts over every round.
    pub tally: Tally,
    /// Outcome counts over the prefix rounds.
    pub prefix_tally: Tally,
    /// Per-op wall latency (resolve + call) over every round, ns.
    pub latency: Histogram,
}

impl RunStats {
    /// Ops attempted per second of wall time.
    pub fn ops_per_s(&self) -> f64 {
        self.tally.attempted as f64 / self.wall_s
    }
}

/// The device range caller `caller` owns.
pub fn caller_range(devices: usize, caller: usize) -> Range<usize> {
    devices * caller / CALLERS..devices * (caller + 1) / CALLERS
}

impl Fleet {
    /// Drives `rounds` lockstep rounds from [`CALLERS`] threads, one
    /// tracer per caller (made by `tracer_for`). Counts are snapshotted
    /// at the `prefix_rounds` barrier.
    pub fn run<T: Tracer + Send>(
        &self,
        seed: u64,
        sizes: Sizes,
        rounds: u64,
        prefix_rounds: u64,
        tracer_for: impl Fn(usize, Range<usize>) -> T,
    ) -> (RunStats, Vec<T>) {
        let barrier = Barrier::new(CALLERS);
        let mix = self.workload.spec().mix;
        let faulted = self.workload.faulted();
        let mut tracers: Vec<T> = (0..CALLERS)
            .map(|c| tracer_for(c, caller_range(self.devices.len(), c)))
            .collect();
        let mut outs: Vec<CallerOut> = (0..CALLERS).map(|_| CallerOut::default()).collect();
        std::thread::scope(|scope| {
            for (caller, (tracer, out)) in tracers.iter_mut().zip(outs.iter_mut()).enumerate() {
                let barrier = &barrier;
                scope.spawn(move || {
                    let range = caller_range(self.devices.len(), caller);
                    let mut scratch = Scratch::default();
                    barrier.wait();
                    out.start = Some(Instant::now());
                    for round in 1..=rounds {
                        tracer.round_start();
                        for device in range.clone() {
                            let mut plan = RoundPlan::new(seed, device as u64, round, mix);
                            for ordinal in 0..sizes.ops_per_round {
                                let draw = plan.next_draw();
                                self.prepare(device, draw.op, &mut scratch);
                                let started = Instant::now();
                                tracer.op_start(started);
                                let outcome = self
                                    .execute(seed, device, round, ordinal, draw, &scratch, tracer);
                                let ended = Instant::now();
                                tracer.op_end(device, round, ended);
                                out.latency
                                    .record(ended.duration_since(started).as_nanos() as u64);
                                out.tally.add(draw.op, outcome, faulted);
                            }
                        }
                        tracer.advance_start();
                        for device in range.clone() {
                            self.advance(device, round);
                        }
                        tracer.round_end(round);
                        barrier.wait();
                        if round == prefix_rounds {
                            out.prefix_end = Some(Instant::now());
                            out.prefix_tally = out.tally;
                        }
                    }
                    out.end = Some(Instant::now());
                });
            }
        });
        // Caller 0's barrier exits time the run; every caller's samples
        // count.
        let start = outs[0].start.expect("the run started");
        let since_start =
            |at: Option<Instant>| at.map_or(0.0, |t| t.duration_since(start).as_secs_f64());
        let mut stats = RunStats {
            wall_s: since_start(outs[0].end),
            prefix_wall_s: since_start(outs[0].prefix_end),
            tally: Tally::default(),
            prefix_tally: Tally::default(),
            latency: Histogram::default(),
        };
        for out in &outs {
            stats.tally.merge(&out.tally);
            stats.prefix_tally.merge(&out.prefix_tally);
            stats.latency.merge(&out.latency);
        }
        (stats, tracers)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::Untraced;

    #[test]
    fn caller_ranges_partition_the_devices() {
        for devices in [2, 7, 12, 600] {
            let ranges: Vec<_> = (0..CALLERS).map(|c| caller_range(devices, c)).collect();
            assert_eq!(ranges[0].start, 0);
            assert_eq!(ranges[CALLERS - 1].end, devices);
            for pair in ranges.windows(2) {
                assert_eq!(pair[0].end, pair[1].start);
            }
        }
    }

    #[test]
    fn sizes_scale_rounds_with_seconds() {
        let ten = Workload::ReadHot.sizes(10, None, None);
        assert_eq!(ten.rounds, Workload::ReadHot.spec().rounds_per_10s);
        assert_eq!(
            Workload::ReadHot.sizes(5, None, None).rounds,
            ten.rounds / 2
        );
        let tiny = Workload::Faulted.sizes(10, Some(12), Some(2));
        assert_eq!(tiny.attempted(), 12 * 4 * 2);
        assert_eq!(tiny.prefix_rounds(), 1);
        for workload in Workload::ALL {
            assert!(workload.sizes(1, None, None).attempted() >= MIN_SAMPLES);
        }
    }

    #[test]
    fn tiny_fleets_run_every_workload_without_failures() {
        for workload in Workload::ALL {
            let sizes = workload.sizes(10, Some(12), Some(3));
            let fleet = Fleet::build(workload, 5, sizes.devices, sizes.rounds).unwrap();
            let (stats, _) = fleet.run(5, sizes, sizes.rounds, 1, |_, _| Untraced);
            assert_eq!(stats.tally.attempted, sizes.attempted(), "{workload:?}");
            assert_eq!(stats.tally.failed, 0, "{workload:?}: {:?}", stats.tally);
            assert_eq!(stats.latency.count(), sizes.attempted());
            match fleet.server_distinct_keys() {
                Some(keys) => assert_eq!(keys, stats.tally.post_ok),
                None => assert_eq!(fleet.server_tracks(), stats.tally.post_ok),
            }
        }
    }
}
