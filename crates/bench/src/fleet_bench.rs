//! Fleet scenarios as data.
//!
//! A [`Scenario`] is a set of [`Arm`]s — each a [`FleetConfig`] the
//! [`mobivine_apps::fleet`] load engine runs — and the [`Check`]s its
//! rows must pass. [`SCENARIOS`] declares every fleet scenario the
//! benchmark runs; [`run_scenario`] turns one into [`Row`]s, [`check`]
//! evaluates its gates over rows (live, or parsed back out of a
//! summary), and [`render`] prints them. Every row field derives from
//! virtual time and seeded streams, so a row is identical run over run:
//! the rows are determinism checks, never performance figures.

use std::collections::BTreeMap;
use std::fmt;

use mobivine_apps::fleet::{
    BrownoutConfig, DurabilityFleetConfig, Fleet, FleetConfig, BROWNOUT_P99_TARGET_MS,
    CRASHES_PER_SHARD,
};

/// The shape of the scaling sweep, the one scenario the command line
/// sizes. A summary records it so that `--compare` rebuilds every
/// scenario exactly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Sweep {
    /// Simulated devices driven.
    pub devices: usize,
    /// Shard counts swept, one arm each; the first also gets a traced
    /// arm.
    pub shards: Vec<usize>,
    /// Worker threads used.
    pub workers: usize,
    /// Lockstep rounds run.
    pub rounds: u64,
    /// Proxy operations per device per round.
    pub ops_per_round: u32,
    /// Master seed of the run.
    pub seed: u64,
}

impl Sweep {
    /// Whether a fleet of this shape can be built: at least one shard
    /// count, and no count zero.
    pub fn is_runnable(&self) -> bool {
        !self.shards.is_empty()
            && !self.shards.contains(&0)
            && self.devices > 0
            && self.workers > 0
            && self.rounds > 0
            && self.ops_per_round > 0
    }
}

impl Default for Sweep {
    fn default() -> Self {
        Self {
            devices: 10_000,
            shards: vec![1, 2, 4, 8],
            workers: 4,
            rounds: 3,
            ops_per_round: 2,
            seed: 7,
        }
    }
}

/// One configuration of a scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct Arm {
    /// Name, unique within the scenario.
    pub name: String,
    /// What the fleet runs.
    pub config: FleetConfig,
}

impl Arm {
    fn new(name: impl Into<String>, config: FleetConfig) -> Self {
        Self {
            name: name.into(),
            config,
        }
    }
}

/// One arm's results: the [`mobivine_apps::FleetReport`] of its run,
/// less the list no gate reads (exemplar trace ids). `counters` is the report's counter map, as named by the
/// fleet engine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Row {
    /// The scenario the arm belongs to.
    pub scenario: String,
    /// The arm's name.
    pub arm: String,
    /// Total proxy operations issued.
    pub ops: u64,
    /// Operations that returned an error.
    pub errors: u64,
    /// Determinism fingerprint of the run.
    pub checksum: u64,
    /// Every other numeric outcome, by name.
    pub counters: BTreeMap<String, u64>,
}

impl Row {
    /// The value a gate reads as `name`: `ops`, `errors`, `checksum` or
    /// a counter.
    pub fn value(&self, name: &str) -> Option<u64> {
        match name {
            "ops" => Some(self.ops),
            "errors" => Some(self.errors),
            "checksum" => Some(self.checksum),
            _ => self.counters.get(name).copied(),
        }
    }
}

/// Whether the value named `key` is a 64-bit fingerprint rather than a
/// count: summaries write these as 16-digit hex, which JSON's doubles
/// cannot mangle, and tables print them the same way.
pub(crate) fn is_fingerprint(key: &str) -> bool {
    key.ends_with("checksum")
}

/// One side of a [`Check`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Term {
    /// `k × arm.counter`.
    Counter {
        /// Multiplier.
        k: u64,
        /// The arm whose row is read.
        arm: String,
        /// The value read ([`Row::value`]).
        counter: String,
    },
    /// A constant.
    Const(u64),
}

/// `1 × arm.counter`.
pub fn at(arm: &str, counter: &str) -> Term {
    Term::Counter {
        k: 1,
        arm: arm.to_owned(),
        counter: counter.to_owned(),
    }
}

impl Term {
    /// `self == rhs`.
    pub fn eq(self, rhs: impl Into<Term>) -> Check {
        self.against(Cmp::Eq, rhs)
    }

    /// `self < rhs`.
    pub fn lt(self, rhs: impl Into<Term>) -> Check {
        self.against(Cmp::Lt, rhs)
    }

    /// `self <= rhs`.
    pub fn le(self, rhs: impl Into<Term>) -> Check {
        self.against(Cmp::Le, rhs)
    }

    /// `self > rhs`.
    pub fn gt(self, rhs: impl Into<Term>) -> Check {
        self.against(Cmp::Gt, rhs)
    }

    /// `self >= rhs`.
    pub fn ge(self, rhs: impl Into<Term>) -> Check {
        self.against(Cmp::Ge, rhs)
    }

    fn against(self, cmp: Cmp, rhs: impl Into<Term>) -> Check {
        Check {
            lhs: self,
            cmp,
            rhs: rhs.into(),
        }
    }

    /// This counter term scaled by `k`.
    pub fn times(self, k: u64) -> Self {
        match self {
            Term::Counter { arm, counter, .. } => Term::Counter { k, arm, counter },
            Term::Const(c) => Term::Const(c * k),
        }
    }

    fn eval(&self, rows: &[&Row]) -> Result<u128, String> {
        match self {
            Term::Counter { k, arm, counter } => {
                let row = rows
                    .iter()
                    .find(|r| r.arm == *arm)
                    .ok_or_else(|| format!("no row for arm `{arm}`"))?;
                let value = row
                    .value(counter)
                    .ok_or_else(|| format!("arm `{arm}` has no counter `{counter}`"))?;
                Ok(u128::from(*k) * u128::from(value))
            }
            Term::Const(c) => Ok(u128::from(*c)),
        }
    }
}

impl From<u64> for Term {
    fn from(c: u64) -> Self {
        Term::Const(c)
    }
}

impl fmt::Display for Term {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Term::Counter { k: 1, arm, counter } => write!(f, "{arm}.{counter}"),
            Term::Counter { k, arm, counter } => write!(f, "{k} × {arm}.{counter}"),
            Term::Const(c) => write!(f, "{c}"),
        }
    }
}

/// A [`Check`]'s comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cmp {
    /// `==`
    Eq,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

impl Cmp {
    fn holds(self, lhs: u128, rhs: u128) -> bool {
        match self {
            Cmp::Eq => lhs == rhs,
            Cmp::Lt => lhs < rhs,
            Cmp::Le => lhs <= rhs,
            Cmp::Gt => lhs > rhs,
            Cmp::Ge => lhs >= rhs,
        }
    }
}

impl fmt::Display for Cmp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Cmp::Eq => "==",
            Cmp::Lt => "<",
            Cmp::Le => "<=",
            Cmp::Gt => ">",
            Cmp::Ge => ">=",
        })
    }
}

/// A gate: `lhs cmp rhs` over a scenario's rows.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Check {
    /// Left-hand side.
    pub lhs: Term,
    /// Comparison.
    pub cmp: Cmp,
    /// Right-hand side.
    pub rhs: Term,
}

impl Check {
    /// Both sides' values, or the name a row lacks.
    fn eval(&self, rows: &[&Row]) -> Result<(u128, u128), String> {
        Ok((self.lhs.eval(rows)?, self.rhs.eval(rows)?))
    }

    /// Why the gate does not hold over `rows`, or `None` when it does.
    fn failure(&self, rows: &[&Row]) -> Option<String> {
        match self.eval(rows) {
            Ok((lhs, rhs)) if self.cmp.holds(lhs, rhs) => None,
            Ok((lhs, rhs)) => Some(format!("fails ({lhs} vs {rhs})")),
            Err(e) => Some(format!("cannot be evaluated: {e}")),
        }
    }
}

impl fmt::Display for Check {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {} {}", self.lhs, self.cmp, self.rhs)
    }
}

/// The arm toggle changes how the fleet works, never what it computes.
pub fn checksum_equal(a: &str, b: &str) -> Check {
    at(a, "checksum").eq(at(b, "checksum"))
}

/// A named set of arms and the gates their rows must pass.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// Name, unique among scenarios.
    pub name: &'static str,
    /// The configurations run.
    pub arms: Vec<Arm>,
    /// Gates over the arms' rows.
    pub gates: Vec<Check>,
}

/// Every declared fleet scenario. Adding one is one entry here.
pub const SCENARIOS: &[fn(&Sweep) -> Scenario] = &[scaling, brownout, cache, crash, journal];

/// Every declared scenario, built for `sweep`.
pub fn scenarios(sweep: &Sweep) -> Vec<Scenario> {
    SCENARIOS.iter().map(|declare| declare(sweep)).collect()
}

/// The fixed shape of every scenario but the sweep: small enough for a
/// CI smoke, large enough that each arm's effect shows. The sweep flags
/// never change it, so these scenarios' gate margins stay pinned.
fn small() -> FleetConfig {
    FleetConfig {
        devices: 30,
        shards: 4,
        workers: 3,
        rounds: 3,
        ops_per_round: 2,
        seed: 11,
        ..FleetConfig::default()
    }
}

/// One arm per swept shard count plus a traced arm at the first one:
/// sharding and tracing must not change what the fleet computes, and
/// every arm's virtual latency quantiles stay ordered.
fn scaling(sweep: &Sweep) -> Scenario {
    let base = FleetConfig {
        devices: sweep.devices,
        workers: sweep.workers,
        rounds: sweep.rounds,
        ops_per_round: sweep.ops_per_round,
        seed: sweep.seed,
        ..FleetConfig::default()
    };
    let mut arms: Vec<Arm> = sweep
        .shards
        .iter()
        .map(|&shards| {
            Arm::new(
                format!("shards{shards}"),
                FleetConfig {
                    shards,
                    ..base.clone()
                },
            )
        })
        .collect();
    arms.push(Arm::new(
        "traced",
        FleetConfig {
            shards: sweep.shards[0],
            telemetry: true,
            ..base
        },
    ));
    let first = arms[0].name.clone();
    let mut gates: Vec<Check> = arms[1..]
        .iter()
        .map(|arm| checksum_equal(&first, &arm.name))
        .collect();
    for arm in &arms {
        gates.push(at(&arm.name, "p50_ms").le(at(&arm.name, "p95_ms")));
        gates.push(at(&arm.name, "p95_ms").le(at(&arm.name, "p99_ms")));
    }
    Scenario {
        name: "scaling",
        arms,
        gates,
    }
}

/// One shard ramped 10× under batch-arrival deadlines, overload layer
/// on vs off, both traced: admission sheds and holds the ramped shard's
/// accepted-call p99 within target; without it the p99 blows past the
/// target and the flight recorder promotes a trace for every blown
/// deadline.
fn brownout(_: &Sweep) -> Scenario {
    let ramp = BrownoutConfig {
        target_shard: 1,
        ..BrownoutConfig::default()
    };
    let p99 = format!("shard{}.p99_ms", ramp.target_shard);
    let target = BROWNOUT_P99_TARGET_MS;
    let arm = |name: &str, admission: bool| {
        let brownout = Some(BrownoutConfig {
            admission,
            ..ramp.clone()
        });
        Arm::new(
            name,
            FleetConfig {
                telemetry: true,
                brownout,
                ..small()
            },
        )
    };
    let mut gates = vec![
        at("admission", "shed").gt(0),
        at("admission", &p99).le(target),
        at("unprotected", "shed").eq(0),
        at("unprotected", &p99).gt(target),
        at("unprotected", "deadline_blown").gt(0),
        at("unprotected", "incidents.promoted_deadline").eq(at("unprotected", "deadline_blown")),
    ];
    for name in ["admission", "unprotected"] {
        gates.push(at(name, "incidents.promoted_traces").ge(1));
        gates.push(
            at(name, "incidents.promoted_deadline").le(at(name, "incidents.promoted_traces")),
        );
    }
    Scenario {
        name: "brownout",
        arms: vec![arm("admission", true), arm("unprotected", false)],
        gates,
    }
}

/// Read-heavy traffic with the read-through proxy cache on vs off: the
/// cached arm hits and reaches the binding plane (its misses) at least
/// 5× less often than the uncached arm (every fix).
fn cache(_: &Sweep) -> Scenario {
    let base = FleetConfig {
        read_heavy: true,
        rounds: 4,
        ops_per_round: 6,
        ..small()
    };
    Scenario {
        name: "cache",
        arms: vec![
            Arm::new(
                "cached",
                FleetConfig {
                    cache: true,
                    ..base.clone()
                },
            ),
            Arm::new("uncached", base),
        ],
        gates: vec![
            checksum_equal("cached", "uncached"),
            at("cached", "cache.hits").gt(0),
            at("cached", "cache.misses").gt(0),
            at("uncached", "location_fixes").ge(at("cached", "cache.misses").times(5)),
        ],
    }
}

/// Durable traffic with a deterministic crash storm armed vs
/// crash-free: every scheduled crash is recovered, both hard crash
/// points hit every shard, and no effect is applied twice.
fn crash(_: &Sweep) -> Scenario {
    let base = FleetConfig {
        durability: Some(DurabilityFleetConfig::default()),
        ..small()
    };
    let shards = base.shards as u64;
    let crashes = shards * CRASHES_PER_SHARD as u64;
    Scenario {
        name: "crash",
        arms: vec![
            Arm::new(
                "stormed",
                FleetConfig {
                    crash_plan: true,
                    ..base.clone()
                },
            ),
            Arm::new("crash-free", base),
        ],
        gates: vec![
            checksum_equal("stormed", "crash-free"),
            at("stormed", "errors").eq(0),
            at("stormed", "recovery.duplicates").eq(0),
            at("crash-free", "recovery.duplicates").eq(0),
            at("stormed", "recovery.recoveries").eq(crashes),
            at("stormed", "recovery.torn_crashes").ge(shards),
            at("stormed", "recovery.gap_crashes").ge(shards),
            at("crash-free", "recovery.recoveries").eq(0),
        ],
    }
}

/// The same traffic with durability off, journaled without checkpoints
/// and checkpointed after every apply: durability is bookkeeping, never
/// behaviour, so all three arms compute the same checksum. Its cost is
/// timed by the benchmark's `write_durable` workload and journal rung.
fn journal(_: &Sweep) -> Scenario {
    let durable = |checkpoint_every| FleetConfig {
        durability: Some(DurabilityFleetConfig { checkpoint_every }),
        ..small()
    };
    Scenario {
        name: "journal",
        arms: vec![
            Arm::new("plain", small()),
            Arm::new("journaled", durable(0)),
            Arm::new("checkpointed", durable(1)),
        ],
        gates: vec![
            checksum_equal("journaled", "plain"),
            checksum_equal("checkpointed", "plain"),
            at("journaled", "recovery.keyed_applies").gt(0),
            at("journaled", "recovery.checkpoints").eq(0),
            at("checkpointed", "recovery.checkpoints").gt(0),
        ],
    }
}

/// Runs every arm of `scenario`, in declaration order.
///
/// # Panics
///
/// Panics if an arm's fleet cannot be built — a declared configuration
/// the fleet rejects is a programming error.
pub fn run_scenario(scenario: &Scenario) -> Vec<Row> {
    scenario
        .arms
        .iter()
        .map(|arm| {
            let report = Fleet::build(arm.config.clone())
                .unwrap_or_else(|e| panic!("{}/{}: {e}", scenario.name, arm.name))
                .run();
            Row {
                scenario: scenario.name.to_owned(),
                arm: arm.name.clone(),
                ops: report.total_ops,
                errors: report.errors,
                checksum: report.checksum,
                counters: report.counters,
            }
        })
        .collect()
}

/// Evaluates `scenario`'s gates over the rows of `rows` that belong to
/// it.
///
/// # Errors
///
/// One line per problem, each naming the scenario: a declared arm with
/// no row, a gate that fails (with both sides' values), or a gate that
/// names a counter its row lacks — never read as zero.
pub fn check(scenario: &Scenario, rows: &[Row]) -> Result<(), String> {
    let rows: Vec<&Row> = rows
        .iter()
        .filter(|r| r.scenario == scenario.name)
        .collect();
    let name = scenario.name;
    let missing = scenario
        .arms
        .iter()
        .filter(|arm| !rows.iter().any(|r| r.arm == arm.name))
        .map(|arm| format!("scenario `{name}`: missing arm `{}`", arm.name));
    let failing = scenario.gates.iter().filter_map(|gate| {
        let failure = gate.failure(&rows)?;
        Some(format!("scenario `{name}`: gate `{gate}` {failure}"))
    });
    joined(missing.chain(failing).collect())
}

pub(crate) fn joined(problems: Vec<String>) -> Result<(), String> {
    if problems.is_empty() {
        Ok(())
    } else {
        Err(problems.join("\n"))
    }
}

/// [`check`] for every scenario of `scenarios`, after requiring every
/// row to belong to one of their arms, and to be that arm's only row.
///
/// # Errors
///
/// Every problem [`check`] reports, plus one line per undeclared row
/// and one per arm with more than one row.
pub fn check_all(scenarios: &[Scenario], rows: &[Row]) -> Result<(), String> {
    let mut problems: Vec<String> = Vec::new();
    for (i, row) in rows.iter().enumerate() {
        if !scenarios
            .iter()
            .any(|s| s.name == row.scenario && s.arms.iter().any(|a| a.name == row.arm))
        {
            problems.push(format!(
                "row {}/{} belongs to no declared arm",
                row.scenario, row.arm
            ));
        } else if rows[..i]
            .iter()
            .any(|r| r.scenario == row.scenario && r.arm == row.arm)
        {
            problems.push(format!(
                "row {}/{} appears more than once",
                row.scenario, row.arm
            ));
        }
    }
    problems.extend(scenarios.iter().filter_map(|s| check(s, rows).err()));
    joined(problems)
}

/// Renders `scenario`'s rows as a table — one line per value, one
/// column per arm — followed by each gate's verdict.
pub fn render(scenario: &Scenario, rows: &[Row]) -> String {
    let rows: Vec<&Row> = rows
        .iter()
        .filter(|r| r.scenario == scenario.name)
        .collect();
    let mut keys = vec!["ops".to_owned(), "errors".to_owned(), "checksum".to_owned()];
    for row in &rows {
        for key in row.counters.keys() {
            if !keys.contains(key) {
                keys.push(key.clone());
            }
        }
    }
    keys[3..].sort();
    let width = keys.iter().map(String::len).max().unwrap_or(0);
    let mut out = format!("Scenario `{}`\n{:width$}", scenario.name, "");
    for row in &rows {
        out.push_str(&format!(" | {:>16}", row.arm));
    }
    out.push('\n');
    for key in &keys {
        out.push_str(&format!("{key:width$}"));
        for row in &rows {
            let cell = match row.value(key) {
                Some(v) if is_fingerprint(key) => format!("{v:016x}"),
                Some(v) => v.to_string(),
                None => "-".to_owned(),
            };
            out.push_str(&format!(" | {cell:>16}"));
        }
        out.push('\n');
    }
    for gate in &scenario.gates {
        let verdict = gate.failure(&rows).unwrap_or_else(|| "holds".to_owned());
        out.push_str(&format!("gate `{gate}`: {verdict}\n"));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A sweep small enough for a unit test.
    fn tiny() -> Sweep {
        Sweep {
            devices: 60,
            shards: vec![1, 4],
            workers: 3,
            rounds: 2,
            ops_per_round: 2,
            seed: 5,
        }
    }

    fn declared(name: &str) -> Scenario {
        scenarios(&tiny())
            .into_iter()
            .find(|s| s.name == name)
            .expect("declared scenario")
    }

    /// Runs the named scenario twice: its gates hold and every row,
    /// counters included, reproduces exactly. Returns the rows.
    fn holds_and_reproduces(name: &str) -> Vec<Row> {
        let scenario = declared(name);
        let rows = run_scenario(&scenario);
        assert_eq!(rows.len(), scenario.arms.len());
        check(&scenario, &rows).unwrap_or_else(|e| panic!("{e}"));
        assert_eq!(rows, run_scenario(&scenario), "{name} is not deterministic");
        rows
    }

    #[test]
    fn scaling_rows_are_deterministic_across_runs() {
        let rows = holds_and_reproduces("scaling");
        let arms: Vec<&str> = rows.iter().map(|r| r.arm.as_str()).collect();
        assert_eq!(arms, ["shards1", "shards4", "traced"]);
        assert_eq!(rows[0].ops, 60 * 2 * 2);
        assert_eq!(rows[0].value("shard0.p99_ms"), rows[0].value("p99_ms"));
        assert!(rows[2].counters.contains_key("incidents.promoted_traces"));
        // Only the planes an arm turns on report counters.
        for plane in ["cache.", "recovery.", "incidents."] {
            assert!(!rows[0].counters.keys().any(|k| k.starts_with(plane)));
        }
    }

    #[test]
    fn brownout_rows_pin_the_overload_gate() {
        let rows = holds_and_reproduces("brownout");
        let (on, off) = (&rows[0], &rows[1]);
        assert!(on.value("degraded") > Some(0) && on.value("deadline_exceeded") > Some(0));
        assert_eq!(off.value("deadline_exceeded"), Some(0), "no overload layer");
        assert_ne!(off.value("incidents.incident_checksum"), Some(0));
        // The brownout arms ignore the sweep, so the committed rows are
        // these rows: one changed shed decision fails here, not only in
        // `fleet --compare`.
        let mut committed =
            crate::summary::parse_fleet_json(include_str!("../../../BENCH_fleet.json"))
                .expect("the committed fleet summary parses");
        committed.rows.retain(|row| row.scenario == "brownout");
        assert_eq!(committed.rows.len(), rows.len());
        crate::summary::compare(&committed, &rows).unwrap_or_else(|e| panic!("{e}"));
    }

    #[test]
    fn cache_rows_hold_the_gate_and_are_deterministic() {
        let rows = holds_and_reproduces("cache");
        let (cached, uncached) = (&rows[0], &rows[1]);
        assert_eq!(cached.ops, uncached.ops);
        assert_eq!((cached.errors, uncached.errors), (0, 0));
        assert_eq!(
            cached.value("location_fixes"),
            uncached.value("location_fixes")
        );
        // Every fix is answered exactly once: from the cache or by a fill.
        assert_eq!(
            cached
                .value("cache.hits")
                .zip(cached.value("cache.misses"))
                .map(|(h, m)| h + m),
            cached.value("location_fixes")
        );
        assert_eq!(uncached.value("cache.hits"), None, "no cache, no counters");
    }

    #[test]
    fn crash_rows_hold_the_gate_and_are_deterministic() {
        let rows = holds_and_reproduces("crash");
        assert_eq!(rows[0].ops, rows[1].ops);
        for counter in ["http_ok", "sms_sent", "location_fixes"] {
            assert_eq!(rows[0].value(counter), rows[1].value(counter), "{counter}");
        }
        let stormed = |name: &str| rows[0].value(name).expect(name);
        // Two replaying crash kinds (gap, post-effect) per shard, one
        // record each: the checkpoint taken right after every recovery
        // keeps a record from being replayed by a later crash.
        assert_eq!(stormed("recovery.replayed_records"), 8);
        assert_eq!(stormed("recovery.duplicates"), 0);
        // A torn write is truncated on recovery; a crash after a durable
        // intent is answered from the journal when its call is retried.
        assert_eq!(
            stormed("recovery.torn_truncated"),
            stormed("recovery.torn_crashes")
        );
        assert_eq!(
            stormed("recovery.suppressed_duplicates"),
            stormed("recovery.gap_crashes") + stormed("recovery.effect_crashes")
        );
        assert!(stormed("recovery.recovery_p50_us") > 0);
        assert!(stormed("recovery.recovery_p99_us") >= stormed("recovery.recovery_p50_us"));
    }

    #[test]
    fn journal_rows_hold_the_gate_and_are_deterministic() {
        let rows = holds_and_reproduces("journal");
        let (plain, journaled) = (&rows[0], &rows[1]);
        assert_eq!(plain.value("recovery.keyed_applies"), None, "no journal");
        assert_eq!(
            journaled.value("recovery.keyed_applies"),
            rows[2].value("recovery.keyed_applies"),
            "checkpoints change no keyed apply"
        );
        for row in &rows {
            assert_eq!((row.ops, row.errors), (plain.ops, 0), "{}", row.arm);
            assert_eq!(row.value("http_ok"), plain.value("http_ok"), "{}", row.arm);
        }
        for row in &rows[1..] {
            // Every mutation keyed and applied once, nothing to recover.
            assert_eq!(row.value("recovery.keyed_applies"), row.value("http_ok"));
            assert_eq!(row.value("recovery.recoveries"), Some(0), "{}", row.arm);
            assert_eq!(row.value("recovery.duplicates"), Some(0), "{}", row.arm);
        }
    }

    /// Worker-count invariance, checked once for every declared arm: run
    /// at 1 and at 4 workers, each arm yields the row it yields at its
    /// declared worker count, every counter included.
    #[test]
    fn every_arm_yields_its_declared_row_at_1_and_4_workers() {
        for scenario in scenarios(&tiny()) {
            let declared = run_scenario(&scenario);
            for workers in [1, 4] {
                let mut reworked = scenario.clone();
                for arm in &mut reworked.arms {
                    assert_ne!(
                        arm.config.workers, workers,
                        "{}/{}",
                        scenario.name, arm.name
                    );
                    arm.config.workers = workers;
                }
                assert_eq!(
                    run_scenario(&reworked),
                    declared,
                    "{} at {workers} workers",
                    scenario.name
                );
            }
        }
    }

    /// Sets the value `name` of `row` (`ops`, `errors`, `checksum` or a
    /// counter the row has).
    fn set(row: &mut Row, name: &str, value: u64) {
        match name {
            "ops" => row.ops = value,
            "errors" => row.errors = value,
            "checksum" => row.checksum = value,
            _ => *row.counters.get_mut(name).expect("counter exists") = value,
        }
    }

    /// Rows on which `gate` fails, made by changing one counter it
    /// names.
    fn perturbed(gate: &Check, rows: &[Row]) -> Option<Vec<Row>> {
        let live: Vec<&Row> = rows.iter().collect();
        let (lhs, rhs) = gate.eval(&live).ok()?;
        let (term, other) = match &gate.lhs {
            Term::Counter { .. } => (&gate.lhs, rhs),
            Term::Const(_) => (&gate.rhs, lhs),
        };
        let Term::Counter { k, arm, counter } = term else {
            return None;
        };
        let index = rows.iter().position(|r| r.arm == *arm)?;
        let current = rows[index].value(counter)?;
        let near = u64::try_from(other / u128::from(*k)).unwrap_or(u64::MAX);
        [0, current.wrapping_add(1), near, near.saturating_add(1)]
            .into_iter()
            .map(|value| {
                let mut broken = rows.to_vec();
                set(&mut broken[index], counter, value);
                broken
            })
            .find(|broken| {
                let broken: Vec<&Row> = broken.iter().collect();
                matches!(gate.eval(&broken), Ok((l, r)) if !gate.cmp.holds(l, r))
            })
    }

    #[test]
    fn every_declared_gate_rejects_a_perturbed_counter() {
        for scenario in scenarios(&tiny()) {
            let rows = run_scenario(&scenario);
            check(&scenario, &rows).unwrap_or_else(|e| panic!("{e}"));
            for gate in &scenario.gates {
                let broken = perturbed(gate, &rows)
                    .unwrap_or_else(|| panic!("{}: nothing breaks `{gate}`", scenario.name));
                let err = check(&scenario, &broken).expect_err("a broken gate must fail");
                let named = format!("scenario `{}`: gate `{gate}` fails", scenario.name);
                assert!(err.contains(&named), "{err}");
            }
            for arm in &scenario.arms {
                let without: Vec<Row> =
                    rows.iter().filter(|r| r.arm != arm.name).cloned().collect();
                let err = check(&scenario, &without).expect_err("a missing arm must fail");
                assert!(
                    err.contains(&format!("missing arm `{}`", arm.name)),
                    "{err}"
                );
            }
        }
    }

    /// Asserts that `check` rejects `rows` with a line naming `scenario`
    /// and containing `expected`.
    fn rejected(scenario: &Scenario, rows: &[Row], expected: &str) {
        let err = check(scenario, rows).expect_err(expected);
        let named = format!("scenario `{}`: ", scenario.name);
        assert!(
            err.lines()
                .any(|line| line.starts_with(&named) && line.contains(expected)),
            "expected `{expected}` in:\n{err}"
        );
    }

    #[test]
    fn cache_gate_rejects_a_missing_or_cold_arm() {
        let scenario = declared("cache");
        let rows = run_scenario(&scenario);
        rejected(&scenario, &rows[..1], "missing arm `uncached`");
        let mut cold = rows.clone();
        set(&mut cold[0], "cache.hits", 0);
        rejected(&scenario, &cold, "gate `cached.cache.hits > 0` fails");
        let mut drifted = rows;
        drifted[0].checksum ^= 1;
        rejected(
            &scenario,
            &drifted,
            "gate `cached.checksum == uncached.checksum` fails",
        );
    }

    #[test]
    fn crash_gate_rejects_a_missing_or_drifted_arm() {
        let scenario = declared("crash");
        let rows = run_scenario(&scenario);
        rejected(&scenario, &rows[..1], "missing arm `crash-free`");
        let mut drifted = rows.clone();
        drifted[0].checksum ^= 1;
        rejected(
            &scenario,
            &drifted,
            "gate `stormed.checksum == crash-free.checksum` fails",
        );
        let mut duplicated = rows;
        set(&mut duplicated[0], "recovery.duplicates", 1);
        rejected(
            &scenario,
            &duplicated,
            "gate `stormed.recovery.duplicates == 0` fails",
        );
    }

    #[test]
    fn journal_gate_rejects_a_missing_or_drifted_arm() {
        let scenario = declared("journal");
        let rows = run_scenario(&scenario);
        rejected(&scenario, &rows[..2], "missing arm `checkpointed`");
        let mut drifted = rows.clone();
        drifted[2].checksum ^= 1;
        rejected(
            &scenario,
            &drifted,
            "gate `checkpointed.checksum == plain.checksum` fails",
        );
        let mut unjournaled = rows;
        set(&mut unjournaled[1], "recovery.keyed_applies", 0);
        rejected(
            &scenario,
            &unjournaled,
            "gate `journaled.recovery.keyed_applies > 0` fails",
        );
    }

    #[test]
    fn a_gate_naming_an_absent_counter_is_an_error_not_zero() {
        let row = |arm: &str| Row {
            scenario: "toy".into(),
            arm: arm.into(),
            ops: 1,
            errors: 0,
            checksum: 7,
            counters: BTreeMap::new(),
        };
        let scenario = Scenario {
            name: "toy",
            arms: vec![Arm::new("a", small()), Arm::new("b", small())],
            gates: vec![at("a", "cache.hits").eq(0)],
        };
        let err = check(&scenario, &[row("a"), row("b")]).unwrap_err();
        assert!(err.contains("arm `a` has no counter `cache.hits`"), "{err}");
        let stray = Row {
            arm: "c".into(),
            ..row("c")
        };
        let err = check_all(&[scenario], &[row("a"), row("b"), stray]).unwrap_err();
        assert!(err.contains("toy/c belongs to no declared arm"), "{err}");
    }

    #[test]
    fn tables_render_both_rows() {
        let scenario = declared("cache");
        let table = render(&scenario, &run_scenario(&scenario));
        assert!(
            table.contains("cached") && table.contains("uncached"),
            "{table}"
        );
        assert!(table.contains("16c854b9eae6a413"), "{table}");
        assert!(table.contains("cache.hits"), "{table}");
        assert_eq!(
            table.matches(": holds").count(),
            scenario.gates.len(),
            "{table}"
        );
    }
}
