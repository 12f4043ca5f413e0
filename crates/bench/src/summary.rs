//! Machine-readable bench summaries (`figure10 --json`, `fleet --json`).
//!
//! One JSON document per binary: the `figure10` summary carries the
//! nine Figure 10 pairs with their histogram-derived p50/p95/p99 tails
//! plus the resilience- and telemetry-overhead ablations; the `fleet`
//! summary carries the scaling sweep and the resolution-mode inventory.
//! [`validate_summary_json`] / [`validate_fleet_json`] are the schema
//! checks shared by each binary's `--check` mode and CI. The fleet
//! summary deliberately contains **no wall-clock-derived values**, so
//! two runs with the same configuration emit byte-identical JSON.

use serde_json::Value;

use crate::bridge_overhead::{bridge_overhead_speedup, BridgeOverheadRow};
use crate::figure10::{
    journal_overhead_factor, Figure10Row, JournalOverheadRow, LatencyStats, ResilienceOverheadRow,
    TelemetryOverheadRow,
};
use crate::fleet_bench::{
    BridgeRow, BrownoutRow, CacheRow, CrashRow, FleetScalingRow, ResolutionRow,
};
use crate::telemetry_hotpath::HotpathRow;

/// Schema identifier stamped into (and required from) every summary.
/// `v2` added the required `bridge_overhead` section (the WebView
/// marshalling ablation: per-call text marshalling vs the arena wire
/// format vs batched crossings) and its gate — the batched wire path
/// must clear a 3x speedup over per-call marshalling. `v3` added the
/// required `journal_overhead` section (the same fleet traffic with
/// durability off, journal-only, and journal + per-apply checkpoints)
/// and its bounded-overhead gate: all three arms byte-identical by
/// checksum and the fully durable arm within 10x of the undurable
/// per-op wall cost.
pub const SCHEMA: &str = "mobivine.figure10.v3";

/// Schema identifier of the fleet benchmark summary. `v2` added the
/// required `brownout` section (the overload-protection gate); `v3`
/// added the flight-recorder evidence to each brownout arm
/// (`deadline_blown`, `promoted_traces`, `promoted_deadline`,
/// `incident_checksum`) and extended the gate: the unprotected arm must
/// carry a promoted trace for every deadline-blown call. `v4` added the
/// required `cache` section (read-heavy traffic with the read-through
/// proxy cache on vs off) and its gate: both arms byte-identical by
/// checksum, the cached arm actually hitting, and the uncached arm
/// invoking the binding plane at least 5x more often for reads. `v5`
/// added the required `bridge` section (the same read-heavy multi-read
/// traffic with WebView bridge batching on vs off) and its gate: both
/// arms byte-identical by checksum — batching must be invisible to
/// what the fleet computes — and the batched arm crossing the bridge
/// strictly fewer times. `v6` added the required `crash` section (the
/// same durable traffic with a deterministic crash storm armed vs
/// crash-free) and its exactly-once gate: byte-identical checksums,
/// zero duplicate effects, and a storm that exercised at least one
/// torn-write and one intent/effect-gap crash per shard. Every brownout
/// arm must also have promoted at least one trace.
pub const FLEET_SCHEMA: &str = "mobivine.fleet.v6";

fn num(v: f64) -> Value {
    Value::Number(v)
}

fn text(v: &str) -> Value {
    Value::String(v.to_owned())
}

fn object(fields: Vec<(&str, Value)>) -> Value {
    Value::Object(fields.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
}

fn stats_value(stats: &LatencyStats) -> Value {
    object(vec![
        ("mean_ms", num(stats.mean_ms)),
        ("p50_ms", num(stats.p50_ms)),
        ("p95_ms", num(stats.p95_ms)),
        ("p99_ms", num(stats.p99_ms)),
    ])
}

/// The per-section row slices a figure10 summary document is built
/// from — one field per required section of the schema.
pub struct SummarySections<'a> {
    /// Figure-10 overhead rows (per platform × API).
    pub rows: &'a [Figure10Row],
    /// Resilience-layer overhead ablation.
    pub resilience: &'a [ResilienceOverheadRow],
    /// Telemetry on/off ablation.
    pub telemetry: &'a [TelemetryOverheadRow],
    /// Recording hot-path ablation (per-call lookup vs cached handles).
    pub hotpath: &'a [HotpathRow],
    /// WebView bridge-marshalling ablation.
    pub bridge: &'a [BridgeOverheadRow],
    /// Write-ahead-journal cost ablation.
    pub journal: &'a [JournalOverheadRow],
}

/// Builds the summary document as a JSON string.
pub fn summary_json(scale: &str, runs: u32, sections: &SummarySections<'_>) -> String {
    let SummarySections {
        rows,
        resilience,
        telemetry,
        hotpath,
        bridge,
        journal,
    } = *sections;
    let figure10 = rows
        .iter()
        .map(|row| {
            object(vec![
                ("platform", text(row.platform)),
                ("api", text(row.api)),
                ("without", stats_value(&row.without_stats)),
                ("with", stats_value(&row.with_stats)),
                ("overhead_fraction", num(row.overhead_fraction())),
                ("paper_without_ms", num(row.paper_ms.0)),
                ("paper_with_ms", num(row.paper_ms.1)),
            ])
        })
        .collect();
    let resilience = resilience
        .iter()
        .map(|row| {
            object(vec![
                ("platform", text(row.platform)),
                ("native_ms", num(row.native_ms)),
                ("proxy_ms", num(row.proxy_ms)),
                ("resilient_ms", num(row.resilient_ms)),
            ])
        })
        .collect();
    let telemetry = telemetry
        .iter()
        .map(|row| {
            object(vec![
                ("platform", text(row.platform)),
                ("bare_ms", num(row.bare_ms)),
                ("instrumented_ms", num(row.instrumented_ms)),
                ("overhead_fraction", num(row.overhead_fraction())),
            ])
        })
        .collect();
    let hotpath = hotpath
        .iter()
        .map(|row| {
            object(vec![
                ("mode", text(row.mode)),
                ("ops", num(row.ops as f64)),
                ("wall_ops_per_sec", num(row.wall_ops_per_sec)),
            ])
        })
        .collect();
    let bridge = bridge
        .iter()
        .map(|row| {
            object(vec![
                ("mode", text(row.mode)),
                ("multi_reads", num(row.multi_reads as f64)),
                ("wall_ops_per_sec", num(row.wall_ops_per_sec)),
            ])
        })
        .collect();
    let journal = journal
        .iter()
        .map(|row| {
            object(vec![
                ("mode", text(row.mode)),
                ("total_ops", num(row.total_ops as f64)),
                ("errors", num(row.errors as f64)),
                ("client_appends", num(row.client_appends as f64)),
                ("checkpoints", num(row.checkpoints as f64)),
                ("checksum", text(&format!("{:016x}", row.checksum))),
                ("wall_us_per_op", num(row.wall_us_per_op)),
            ])
        })
        .collect();
    object(vec![
        ("schema", text(SCHEMA)),
        ("scale", text(scale)),
        ("runs", num(runs as f64)),
        ("figure10", Value::Array(figure10)),
        ("resilience_overhead", Value::Array(resilience)),
        ("telemetry_overhead", Value::Array(telemetry)),
        ("telemetry_hotpath", Value::Array(hotpath)),
        ("bridge_overhead", Value::Array(bridge)),
        ("journal_overhead", Value::Array(journal)),
    ])
    .to_string()
}

/// What a valid summary contained.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SummaryCheck {
    /// Number of Figure 10 pairs (always 9 for a full run).
    pub figure10_rows: usize,
    /// Number of resilience-overhead rows.
    pub resilience_rows: usize,
    /// Number of telemetry-overhead rows.
    pub telemetry_rows: usize,
    /// Number of telemetry hot-path rows (both modes must be present).
    pub hotpath_rows: usize,
    /// Number of bridge-marshalling rows (all three modes must be
    /// present and the batched path must clear the 3x speedup bar).
    pub bridge_rows: usize,
    /// Number of journal-ablation rows (all three modes must be present
    /// with identical checksums and a bounded durable per-op cost).
    pub journal_rows: usize,
}

fn require_number(entry: &Value, key: &str, context: &str) -> Result<f64, String> {
    match entry.get_field(key) {
        Some(Value::Number(n)) if n.is_finite() => Ok(*n),
        Some(other) => Err(format!("{context}: field {key} is not a number: {other:?}")),
        None => Err(format!("{context}: missing field {key}")),
    }
}

fn require_string<'a>(entry: &'a Value, key: &str, context: &str) -> Result<&'a str, String> {
    match entry.get_field(key) {
        Some(Value::String(s)) if !s.is_empty() => Ok(s),
        _ => Err(format!("{context}: missing string field {key}")),
    }
}

fn require_array<'a>(root: &'a Value, key: &str) -> Result<&'a [Value], String> {
    match root.get_field(key) {
        Some(Value::Array(items)) if !items.is_empty() => Ok(items),
        Some(Value::Array(_)) => Err(format!("{key} is empty")),
        _ => Err(format!("missing array {key}")),
    }
}

fn check_stats(entry: &Value, key: &str, context: &str) -> Result<(), String> {
    let stats = entry
        .get_field(key)
        .ok_or_else(|| format!("{context}: missing {key} stats"))?;
    let p50 = require_number(stats, "p50_ms", context)?;
    let p95 = require_number(stats, "p95_ms", context)?;
    let p99 = require_number(stats, "p99_ms", context)?;
    require_number(stats, "mean_ms", context)?;
    if p50 > p95 || p95 > p99 {
        return Err(format!(
            "{context}: {key} quantiles are not ordered: p50={p50} p95={p95} p99={p99}"
        ));
    }
    Ok(())
}

/// Validates a `figure10 --json` document against the
/// [`SCHEMA`] shape.
///
/// # Errors
///
/// A human-readable description of the first violation: bad JSON, a
/// wrong or missing schema id, or a missing/mistyped field.
pub fn validate_summary_json(json: &str) -> Result<SummaryCheck, String> {
    let root: Value = serde_json::from_str(json).map_err(|e| format!("not valid JSON: {e}"))?;
    match root.get_field("schema") {
        Some(Value::String(s)) if s == SCHEMA => {}
        Some(Value::String(s)) => return Err(format!("unknown schema {s:?}, expected {SCHEMA:?}")),
        _ => return Err("missing schema field".to_owned()),
    }
    require_string(&root, "scale", "summary")?;
    require_number(&root, "runs", "summary")?;

    let figure10 = require_array(&root, "figure10")?;
    for (i, entry) in figure10.iter().enumerate() {
        let context = format!("figure10[{i}]");
        require_string(entry, "platform", &context)?;
        require_string(entry, "api", &context)?;
        check_stats(entry, "without", &context)?;
        check_stats(entry, "with", &context)?;
        require_number(entry, "overhead_fraction", &context)?;
        require_number(entry, "paper_without_ms", &context)?;
        require_number(entry, "paper_with_ms", &context)?;
    }

    let resilience = require_array(&root, "resilience_overhead")?;
    for (i, entry) in resilience.iter().enumerate() {
        let context = format!("resilience_overhead[{i}]");
        require_string(entry, "platform", &context)?;
        require_number(entry, "native_ms", &context)?;
        require_number(entry, "proxy_ms", &context)?;
        require_number(entry, "resilient_ms", &context)?;
    }

    let telemetry = require_array(&root, "telemetry_overhead")?;
    for (i, entry) in telemetry.iter().enumerate() {
        let context = format!("telemetry_overhead[{i}]");
        require_string(entry, "platform", &context)?;
        let bare = require_number(entry, "bare_ms", &context)?;
        let instrumented = require_number(entry, "instrumented_ms", &context)?;
        require_number(entry, "overhead_fraction", &context)?;
        if bare < 0.0 || instrumented < 0.0 {
            return Err(format!("{context}: negative latency"));
        }
    }

    let hotpath = require_array(&root, "telemetry_hotpath")?;
    for (i, entry) in hotpath.iter().enumerate() {
        let context = format!("telemetry_hotpath[{i}]");
        require_string(entry, "mode", &context)?;
        require_number(entry, "ops", &context)?;
        let rate = require_number(entry, "wall_ops_per_sec", &context)?;
        if rate < 0.0 {
            return Err(format!("{context}: negative wall_ops_per_sec"));
        }
    }
    for mode in ["per-call-lookup", "cached-handles"] {
        if !hotpath
            .iter()
            .any(|entry| matches!(entry.get_field("mode"), Some(Value::String(s)) if s == mode))
        {
            return Err(format!("telemetry_hotpath: missing row for mode {mode:?}"));
        }
    }

    let bridge = require_array(&root, "bridge_overhead")?;
    let mut bridge_rows: Vec<BridgeOverheadRow> = Vec::new();
    for (i, entry) in bridge.iter().enumerate() {
        let context = format!("bridge_overhead[{i}]");
        // Re-intern the mode so the parsed rows can flow back through
        // the same speedup helper the table renderer uses.
        let mode: &'static str = match require_string(entry, "mode", &context)? {
            "per-call-marshalling" => "per-call-marshalling",
            "wire-buf" => "wire-buf",
            "batched" => "batched",
            other => return Err(format!("{context}: unknown mode {other:?}")),
        };
        let multi_reads = require_number(entry, "multi_reads", &context)?;
        let rate = require_number(entry, "wall_ops_per_sec", &context)?;
        if multi_reads <= 0.0 || rate <= 0.0 {
            return Err(format!("{context}: non-positive measurement"));
        }
        bridge_rows.push(BridgeOverheadRow {
            mode,
            multi_reads: multi_reads as u64,
            wall_ops_per_sec: rate,
        });
    }
    for mode in ["per-call-marshalling", "wire-buf", "batched"] {
        if !bridge_rows.iter().any(|row| row.mode == mode) {
            return Err(format!("bridge_overhead: missing row for mode {mode:?}"));
        }
    }
    // The wire-layer gate: batching the arena-encoded crossings must
    // beat per-call text marshalling by at least 3x.
    let speedup =
        bridge_overhead_speedup(&bridge_rows).ok_or("bridge_overhead: incomplete comparison")?;
    if speedup < 3.0 {
        return Err(format!(
            "bridge_overhead: batched speedup {speedup:.1}x is below the 3x bar"
        ));
    }

    let journal = require_array(&root, "journal_overhead")?;
    let mut journal_rows: Vec<JournalOverheadRow> = Vec::new();
    for (i, entry) in journal.iter().enumerate() {
        let context = format!("journal_overhead[{i}]");
        // Re-intern the mode so the parsed rows can flow back through
        // the same overhead helper the table renderer uses.
        let mode: &'static str = match require_string(entry, "mode", &context)? {
            "off" => "off",
            "journal" => "journal",
            "journal+checkpoints" => "journal+checkpoints",
            other => return Err(format!("{context}: unknown mode {other:?}")),
        };
        let total_ops = require_number(entry, "total_ops", &context)?;
        let errors = require_number(entry, "errors", &context)?;
        let client_appends = require_number(entry, "client_appends", &context)?;
        let checkpoints = require_number(entry, "checkpoints", &context)?;
        let wall_us_per_op = require_number(entry, "wall_us_per_op", &context)?;
        if total_ops <= 0.0 || errors < 0.0 || wall_us_per_op <= 0.0 {
            return Err(format!("{context}: non-positive measurement"));
        }
        let checksum_hex = require_string(entry, "checksum", &context)?;
        if checksum_hex.len() != 16 || !checksum_hex.chars().all(|c| c.is_ascii_hexdigit()) {
            return Err(format!(
                "{context}: checksum is not a 16-digit hex string: {checksum_hex:?}"
            ));
        }
        let checksum = u64::from_str_radix(checksum_hex, 16)
            .map_err(|e| format!("{context}: bad checksum: {e}"))?;
        journal_rows.push(JournalOverheadRow {
            mode,
            total_ops: total_ops as u64,
            errors: errors as u64,
            client_appends: client_appends as u64,
            checkpoints: checkpoints as u64,
            checksum,
            wall_us_per_op,
        });
    }
    for mode in ["off", "journal", "journal+checkpoints"] {
        if !journal_rows.iter().any(|row| row.mode == mode) {
            return Err(format!("journal_overhead: missing row for mode {mode:?}"));
        }
    }
    // The durability gate: all three arms byte-identical — journalling
    // must be invisible to what the fleet computes — and the fully
    // durable arm's per-op wall cost bounded by 10x the undurable one.
    let factor = journal_overhead_factor(&journal_rows)
        .ok_or("journal_overhead: arms drifted or the ablation never journalled")?;
    if factor >= 10.0 {
        return Err(format!(
            "journal_overhead: durable per-op cost {factor:.2}x blows the 10x bound"
        ));
    }

    Ok(SummaryCheck {
        figure10_rows: figure10.len(),
        resilience_rows: resilience.len(),
        telemetry_rows: telemetry.len(),
        hotpath_rows: hotpath.len(),
        bridge_rows: bridge.len(),
        journal_rows: journal.len(),
    })
}

/// Builds the fleet summary document as a JSON string. Only
/// deterministic fields are emitted — the wall-clock columns of the
/// human-readable tables are intentionally absent, and the `u64`
/// checksum is rendered as a hex string so no precision is lost to
/// JSON's doubles.
pub fn fleet_summary_json(
    scaling: &[FleetScalingRow],
    resolution: &[ResolutionRow],
    brownout: &[BrownoutRow],
    cache: &[CacheRow],
    bridge: &[BridgeRow],
    crash: &[CrashRow],
) -> String {
    let scaling = scaling
        .iter()
        .map(|row| {
            object(vec![
                ("shards", num(row.shards as f64)),
                ("devices", num(row.devices as f64)),
                ("workers", num(row.workers as f64)),
                ("rounds", num(row.rounds as f64)),
                ("ops_per_round", num(row.ops_per_round as f64)),
                ("seed", num(row.seed as f64)),
                ("telemetry", Value::Bool(row.telemetry)),
                ("total_ops", num(row.total_ops as f64)),
                ("errors", num(row.errors as f64)),
                ("virtual_ops_per_sec", num(row.virtual_ops_per_sec as f64)),
                ("p50_ms", num(row.p50_ms as f64)),
                ("p95_ms", num(row.p95_ms as f64)),
                ("p99_ms", num(row.p99_ms as f64)),
                ("checksum", text(&format!("{:016x}", row.checksum))),
            ])
        })
        .collect();
    let resolution = resolution
        .iter()
        .map(|row| {
            object(vec![
                ("mode", text(row.mode)),
                ("acquisitions", num(row.acquisitions as f64)),
                ("devices", num(row.devices as f64)),
            ])
        })
        .collect();
    let brownout = brownout
        .iter()
        .map(|row| {
            object(vec![
                ("admission", Value::Bool(row.admission)),
                ("target_shard", num(row.target_shard as f64)),
                ("ops_multiplier", num(f64::from(row.ops_multiplier))),
                ("deadline_budget_ms", num(row.deadline_budget_ms as f64)),
                ("p99_target_ms", num(row.p99_target_ms as f64)),
                ("total_ops", num(row.total_ops as f64)),
                ("errors", num(row.errors as f64)),
                ("shed", num(row.shed as f64)),
                ("degraded", num(row.degraded as f64)),
                ("deadline_exceeded", num(row.deadline_exceeded as f64)),
                ("shard_p99_ms", num(row.shard_p99_ms as f64)),
                ("deadline_blown", num(row.deadline_blown as f64)),
                ("promoted_traces", num(row.promoted_traces as f64)),
                ("promoted_deadline", num(row.promoted_deadline as f64)),
                (
                    "incident_checksum",
                    text(&format!("{:016x}", row.incident_checksum)),
                ),
                ("checksum", text(&format!("{:016x}", row.checksum))),
            ])
        })
        .collect();
    let cache = cache
        .iter()
        .map(|row| {
            object(vec![
                ("cached", Value::Bool(row.cached)),
                ("devices", num(row.devices as f64)),
                ("total_ops", num(row.total_ops as f64)),
                ("errors", num(row.errors as f64)),
                ("location_fixes", num(row.location_fixes as f64)),
                ("binding_reads", num(row.binding_reads as f64)),
                ("hits", num(row.hits as f64)),
                ("coalesced", num(row.coalesced as f64)),
                ("invalidated", num(row.invalidated as f64)),
                ("checksum", text(&format!("{:016x}", row.checksum))),
            ])
        })
        .collect();
    let bridge = bridge
        .iter()
        .map(|row| {
            object(vec![
                ("batched", Value::Bool(row.batched)),
                ("devices", num(row.devices as f64)),
                ("webview_devices", num(row.webview_devices as f64)),
                ("total_ops", num(row.total_ops as f64)),
                ("errors", num(row.errors as f64)),
                ("location_fixes", num(row.location_fixes as f64)),
                ("crossings", num(row.crossings as f64)),
                ("checksum", text(&format!("{:016x}", row.checksum))),
            ])
        })
        .collect();
    let crash = crash
        .iter()
        .map(|row| {
            object(vec![
                ("stormed", Value::Bool(row.stormed)),
                ("devices", num(row.devices as f64)),
                ("shards", num(row.shards as f64)),
                ("crashes_per_shard", num(row.crashes_per_shard as f64)),
                ("total_ops", num(row.total_ops as f64)),
                ("errors", num(row.errors as f64)),
                ("recoveries", num(row.recoveries as f64)),
                ("torn_crashes", num(row.torn_crashes as f64)),
                ("gap_crashes", num(row.gap_crashes as f64)),
                ("effect_crashes", num(row.effect_crashes as f64)),
                ("replayed_records", num(row.replayed_records as f64)),
                ("torn_truncated", num(row.torn_truncated as f64)),
                (
                    "suppressed_duplicates",
                    num(row.suppressed_duplicates as f64),
                ),
                ("duplicates", num(row.duplicates as f64)),
                ("recovery_p50_us", num(row.recovery_p50_us as f64)),
                ("recovery_p99_us", num(row.recovery_p99_us as f64)),
                ("checksum", text(&format!("{:016x}", row.checksum))),
            ])
        })
        .collect();
    object(vec![
        ("schema", text(FLEET_SCHEMA)),
        ("scaling", Value::Array(scaling)),
        ("resolution", Value::Array(resolution)),
        ("brownout", Value::Array(brownout)),
        ("cache", Value::Array(cache)),
        ("bridge", Value::Array(bridge)),
        ("crash", Value::Array(crash)),
    ])
    .to_string()
}

/// What a valid fleet summary contained.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FleetCheck {
    /// Number of shard-count configurations in the sweep.
    pub scaling_rows: usize,
    /// Number of resolution-mode rows (both modes must be present).
    pub resolution_rows: usize,
    /// Number of brownout arms (both admission modes must be present
    /// and each must hold its side of the overload gate).
    pub brownout_rows: usize,
    /// Number of cache arms (cached and uncached must both be present
    /// and the pair must hold the cache gate).
    pub cache_rows: usize,
    /// Number of bridge arms (batched and unbatched must both be
    /// present and the pair must hold the bridge gate).
    pub bridge_rows: usize,
    /// Number of crash arms (stormed and crash-free must both be
    /// present and the pair must hold the exactly-once gate).
    pub crash_rows: usize,
}

/// Validates a `fleet --json` document against the [`FLEET_SCHEMA`]
/// shape.
///
/// # Errors
///
/// A human-readable description of the first violation: bad JSON, a
/// wrong or missing schema id, a missing/mistyped field, unordered
/// percentiles, a malformed checksum, or a missing resolution mode.
pub fn validate_fleet_json(json: &str) -> Result<FleetCheck, String> {
    let root: Value = serde_json::from_str(json).map_err(|e| format!("not valid JSON: {e}"))?;
    match root.get_field("schema") {
        Some(Value::String(s)) if s == FLEET_SCHEMA => {}
        Some(Value::String(s)) => {
            return Err(format!("unknown schema {s:?}, expected {FLEET_SCHEMA:?}"))
        }
        _ => return Err("missing schema field".to_owned()),
    }

    let scaling = require_array(&root, "scaling")?;
    for (i, entry) in scaling.iter().enumerate() {
        let context = format!("scaling[{i}]");
        for key in [
            "shards",
            "devices",
            "workers",
            "rounds",
            "ops_per_round",
            "seed",
            "total_ops",
            "errors",
            "virtual_ops_per_sec",
        ] {
            let value = require_number(entry, key, &context)?;
            if value < 0.0 {
                return Err(format!("{context}: negative {key}"));
            }
        }
        match entry.get_field("telemetry") {
            Some(Value::Bool(_)) => {}
            other => {
                return Err(format!(
                    "{context}: telemetry is {other:?}, expected a bool"
                ))
            }
        }
        let p50 = require_number(entry, "p50_ms", &context)?;
        let p95 = require_number(entry, "p95_ms", &context)?;
        let p99 = require_number(entry, "p99_ms", &context)?;
        if p50 > p95 || p95 > p99 {
            return Err(format!(
                "{context}: quantiles are not ordered: p50={p50} p95={p95} p99={p99}"
            ));
        }
        let checksum = require_string(entry, "checksum", &context)?;
        if checksum.len() != 16 || !checksum.chars().all(|c| c.is_ascii_hexdigit()) {
            return Err(format!(
                "{context}: checksum is not a 16-digit hex string: {checksum:?}"
            ));
        }
    }

    let resolution = require_array(&root, "resolution")?;
    for (i, entry) in resolution.iter().enumerate() {
        let context = format!("resolution[{i}]");
        require_string(entry, "mode", &context)?;
        require_number(entry, "acquisitions", &context)?;
        require_number(entry, "devices", &context)?;
    }
    for mode in ["per-call-construction", "sharded-memoized"] {
        if !resolution
            .iter()
            .any(|entry| matches!(entry.get_field("mode"), Some(Value::String(s)) if s == mode))
        {
            return Err(format!("resolution: missing row for mode {mode:?}"));
        }
    }

    let brownout = require_array(&root, "brownout")?;
    for (i, entry) in brownout.iter().enumerate() {
        let context = format!("brownout[{i}]");
        let admission = match entry.get_field("admission") {
            Some(Value::Bool(b)) => *b,
            other => {
                return Err(format!(
                    "{context}: admission is {other:?}, expected a bool"
                ))
            }
        };
        for key in [
            "target_shard",
            "ops_multiplier",
            "deadline_budget_ms",
            "total_ops",
            "errors",
            "degraded",
            "deadline_exceeded",
        ] {
            let value = require_number(entry, key, &context)?;
            if value < 0.0 {
                return Err(format!("{context}: negative {key}"));
            }
        }
        let target = require_number(entry, "p99_target_ms", &context)?;
        let shed = require_number(entry, "shed", &context)?;
        let shard_p99 = require_number(entry, "shard_p99_ms", &context)?;
        let deadline_blown = require_number(entry, "deadline_blown", &context)?;
        let promoted_traces = require_number(entry, "promoted_traces", &context)?;
        let promoted_deadline = require_number(entry, "promoted_deadline", &context)?;
        // Both arms run with the flight recorder on and both fail calls
        // (sheds on one, blown deadlines on the other), so a traced
        // brownout that promoted nothing lost its evidence.
        if promoted_traces < 1.0 {
            return Err(format!("{context}: the traced arm promoted no trace"));
        }
        if promoted_deadline > promoted_traces {
            return Err(format!(
                "{context}: promoted_deadline {promoted_deadline} exceeds promoted_traces {promoted_traces}"
            ));
        }
        for key in ["checksum", "incident_checksum"] {
            let checksum = require_string(entry, key, &context)?;
            if checksum.len() != 16 || !checksum.chars().all(|c| c.is_ascii_hexdigit()) {
                return Err(format!(
                    "{context}: {key} is not a 16-digit hex string: {checksum:?}"
                ));
            }
        }
        // The overload gate itself: shedding must keep the accepted-call
        // p99 of the ramped shard within target, and the unprotected arm
        // must demonstrably blow past it — with a promoted trace in the
        // incident store explaining every deadline breach.
        if admission {
            if shed <= 0.0 {
                return Err(format!("{context}: admission arm shed nothing"));
            }
            if shard_p99 > target {
                return Err(format!(
                    "{context}: admission arm p99 {shard_p99} exceeds target {target}"
                ));
            }
        } else {
            if shed != 0.0 {
                return Err(format!("{context}: unprotected arm shed {shed} calls"));
            }
            if shard_p99 <= target {
                return Err(format!(
                    "{context}: unprotected arm p99 {shard_p99} within target {target} — the ramp did not overload the shard"
                ));
            }
            if deadline_blown <= 0.0 {
                return Err(format!(
                    "{context}: unprotected arm blew no deadlines — the ramp did not overload the shard"
                ));
            }
            if promoted_deadline != deadline_blown {
                return Err(format!(
                    "{context}: {promoted_deadline} promoted deadline traces for {deadline_blown} blown deadlines — the flight recorder lost evidence"
                ));
            }
        }
    }
    for (admission, label) in [(true, "admission-on"), (false, "admission-off")] {
        if !brownout.iter().any(
            |entry| matches!(entry.get_field("admission"), Some(Value::Bool(b)) if *b == admission),
        ) {
            return Err(format!("brownout: missing the {label} arm"));
        }
    }

    let cache = require_array(&root, "cache")?;
    let mut arms: Vec<(bool, u64, u64, &str)> = Vec::new();
    for (i, entry) in cache.iter().enumerate() {
        let context = format!("cache[{i}]");
        let cached = match entry.get_field("cached") {
            Some(Value::Bool(b)) => *b,
            other => return Err(format!("{context}: cached is {other:?}, expected a bool")),
        };
        for key in [
            "devices",
            "total_ops",
            "errors",
            "location_fixes",
            "coalesced",
            "invalidated",
        ] {
            let value = require_number(entry, key, &context)?;
            if value < 0.0 {
                return Err(format!("{context}: negative {key}"));
            }
        }
        let binding_reads = require_number(entry, "binding_reads", &context)?;
        let hits = require_number(entry, "hits", &context)?;
        if binding_reads < 0.0 || hits < 0.0 {
            return Err(format!("{context}: negative read counter"));
        }
        let checksum = require_string(entry, "checksum", &context)?;
        if checksum.len() != 16 || !checksum.chars().all(|c| c.is_ascii_hexdigit()) {
            return Err(format!(
                "{context}: checksum is not a 16-digit hex string: {checksum:?}"
            ));
        }
        arms.push((cached, binding_reads as u64, hits as u64, checksum));
    }
    // The cache gate: both arms present, byte-identical results, a
    // cached arm that actually hit, and a ≥5x cut in binding-plane read
    // invocations.
    let Some(on) = arms.iter().find(|(cached, ..)| *cached) else {
        return Err("cache: missing the cached arm".to_owned());
    };
    let Some(off) = arms.iter().find(|(cached, ..)| !*cached) else {
        return Err("cache: missing the uncached arm".to_owned());
    };
    if on.3 != off.3 {
        return Err(format!(
            "cache: arm checksums differ ({} vs {}) — caching changed what the fleet computes",
            on.3, off.3
        ));
    }
    if on.2 == 0 {
        return Err("cache: the cached arm never hit".to_owned());
    }
    if on.1 == 0 || off.1 < on.1 * 5 {
        return Err(format!(
            "cache: binding-plane reads {} (cached) vs {} (uncached) miss the 5x reduction bar",
            on.1, off.1
        ));
    }

    let bridge = require_array(&root, "bridge")?;
    let mut bridge_arms: Vec<(bool, u64, &str)> = Vec::new();
    for (i, entry) in bridge.iter().enumerate() {
        let context = format!("bridge[{i}]");
        let batched = match entry.get_field("batched") {
            Some(Value::Bool(b)) => *b,
            other => return Err(format!("{context}: batched is {other:?}, expected a bool")),
        };
        for key in [
            "devices",
            "webview_devices",
            "total_ops",
            "errors",
            "location_fixes",
        ] {
            let value = require_number(entry, key, &context)?;
            if value < 0.0 {
                return Err(format!("{context}: negative {key}"));
            }
        }
        let crossings = require_number(entry, "crossings", &context)?;
        if crossings < 0.0 {
            return Err(format!("{context}: negative crossings"));
        }
        let checksum = require_string(entry, "checksum", &context)?;
        if checksum.len() != 16 || !checksum.chars().all(|c| c.is_ascii_hexdigit()) {
            return Err(format!(
                "{context}: checksum is not a 16-digit hex string: {checksum:?}"
            ));
        }
        bridge_arms.push((batched, crossings as u64, checksum));
    }
    // The bridge gate: both arms present, byte-identical results —
    // batching must be invisible to what the fleet computes — and a
    // batched arm that crossed the bridge strictly fewer times.
    let Some(on) = bridge_arms.iter().find(|(batched, ..)| *batched) else {
        return Err("bridge: missing the batched arm".to_owned());
    };
    let Some(off) = bridge_arms.iter().find(|(batched, ..)| !*batched) else {
        return Err("bridge: missing the unbatched arm".to_owned());
    };
    if on.2 != off.2 {
        return Err(format!(
            "bridge: arm checksums differ ({} vs {}) — batching changed what the fleet computes",
            on.2, off.2
        ));
    }
    if on.1 == 0 {
        return Err("bridge: the batched arm never crossed the bridge".to_owned());
    }
    if off.1 <= on.1 {
        return Err(format!(
            "bridge: crossings {} (batched) vs {} (unbatched) show no reduction",
            on.1, off.1
        ));
    }

    let crash = require_array(&root, "crash")?;
    struct CrashArm {
        stormed: bool,
        shards: u64,
        crashes_per_shard: u64,
        recoveries: u64,
        torn_crashes: u64,
        gap_crashes: u64,
        duplicates: u64,
        checksum: String,
    }
    let mut crash_arms: Vec<CrashArm> = Vec::new();
    for (i, entry) in crash.iter().enumerate() {
        let context = format!("crash[{i}]");
        let stormed = match entry.get_field("stormed") {
            Some(Value::Bool(b)) => *b,
            other => return Err(format!("{context}: stormed is {other:?}, expected a bool")),
        };
        for key in [
            "devices",
            "shards",
            "crashes_per_shard",
            "total_ops",
            "errors",
            "recoveries",
            "torn_crashes",
            "gap_crashes",
            "effect_crashes",
            "replayed_records",
            "torn_truncated",
            "suppressed_duplicates",
            "duplicates",
            "recovery_p50_us",
            "recovery_p99_us",
        ] {
            let value = require_number(entry, key, &context)?;
            if value < 0.0 {
                return Err(format!("{context}: negative {key}"));
            }
        }
        let checksum = require_string(entry, "checksum", &context)?;
        if checksum.len() != 16 || !checksum.chars().all(|c| c.is_ascii_hexdigit()) {
            return Err(format!(
                "{context}: checksum is not a 16-digit hex string: {checksum:?}"
            ));
        }
        crash_arms.push(CrashArm {
            stormed,
            shards: require_number(entry, "shards", &context)? as u64,
            crashes_per_shard: require_number(entry, "crashes_per_shard", &context)? as u64,
            recoveries: require_number(entry, "recoveries", &context)? as u64,
            torn_crashes: require_number(entry, "torn_crashes", &context)? as u64,
            gap_crashes: require_number(entry, "gap_crashes", &context)? as u64,
            duplicates: require_number(entry, "duplicates", &context)? as u64,
            checksum: checksum.to_owned(),
        });
    }
    // The exactly-once gate: both arms present, byte-identical results
    // — a storm of recovered crashes must be invisible to what the
    // fleet computes — zero duplicate effects on either arm, every
    // scheduled crash recovered, and both hard crash points exercised
    // on every shard.
    let Some(on) = crash_arms.iter().find(|a| a.stormed) else {
        return Err("crash: missing the stormed arm".to_owned());
    };
    let Some(off) = crash_arms.iter().find(|a| !a.stormed) else {
        return Err("crash: missing the crash-free arm".to_owned());
    };
    if on.checksum != off.checksum {
        return Err(format!(
            "crash: arm checksums differ ({} vs {}) — recovery changed what the fleet computes",
            on.checksum, off.checksum
        ));
    }
    if on.duplicates != 0 || off.duplicates != 0 {
        return Err(format!(
            "crash: {} stormed / {} crash-free duplicate effects — exactly-once is violated",
            on.duplicates, off.duplicates
        ));
    }
    if on.recoveries != on.shards * on.crashes_per_shard {
        return Err(format!(
            "crash: {} recoveries for {} shards x {} scheduled crashes",
            on.recoveries, on.shards, on.crashes_per_shard
        ));
    }
    if on.torn_crashes < on.shards || on.gap_crashes < on.shards {
        return Err(format!(
            "crash: {} torn / {} gap crashes did not cover all {} shards",
            on.torn_crashes, on.gap_crashes, on.shards
        ));
    }
    if off.recoveries != 0 {
        return Err(format!(
            "crash: the crash-free arm recovered {} times",
            off.recoveries
        ));
    }

    Ok(FleetCheck {
        scaling_rows: scaling.len(),
        resolution_rows: resolution.len(),
        brownout_rows: brownout.len(),
        cache_rows: cache.len(),
        bridge_rows: bridge.len(),
        crash_rows: crash.len(),
    })
}

/// One scaling row parsed back out of a committed fleet baseline, with
/// enough configuration to re-run it and enough results to compare.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FleetBaselineRow {
    /// Shard count of the baseline run.
    pub shards: usize,
    /// Device count of the baseline run.
    pub devices: usize,
    /// Worker count of the baseline run.
    pub workers: usize,
    /// Rounds of the baseline run.
    pub rounds: u64,
    /// Ops per device per round of the baseline run.
    pub ops_per_round: u32,
    /// Seed of the baseline run.
    pub seed: u64,
    /// Whether the baseline run traced its devices.
    pub telemetry: bool,
    /// Recorded deterministic throughput, ops per virtual second.
    pub virtual_ops_per_sec: u64,
    /// Recorded determinism fingerprint.
    pub checksum: u64,
}

/// Parses the scaling rows of a fleet baseline document (validating it
/// first) so a regression gate can re-run each configuration.
///
/// # Errors
///
/// Everything [`validate_fleet_json`] rejects, plus a malformed
/// checksum.
pub fn parse_fleet_baseline(json: &str) -> Result<Vec<FleetBaselineRow>, String> {
    validate_fleet_json(json)?;
    let root: Value = serde_json::from_str(json).map_err(|e| format!("not valid JSON: {e}"))?;
    let scaling = require_array(&root, "scaling")?;
    scaling
        .iter()
        .enumerate()
        .map(|(i, entry)| {
            let context = format!("scaling[{i}]");
            let checksum_hex = require_string(entry, "checksum", &context)?;
            let checksum = u64::from_str_radix(checksum_hex, 16)
                .map_err(|e| format!("{context}: bad checksum: {e}"))?;
            let telemetry = matches!(entry.get_field("telemetry"), Some(Value::Bool(true)));
            Ok(FleetBaselineRow {
                shards: require_number(entry, "shards", &context)? as usize,
                devices: require_number(entry, "devices", &context)? as usize,
                workers: require_number(entry, "workers", &context)? as usize,
                rounds: require_number(entry, "rounds", &context)? as u64,
                ops_per_round: require_number(entry, "ops_per_round", &context)? as u32,
                seed: require_number(entry, "seed", &context)? as u64,
                telemetry,
                virtual_ops_per_sec: require_number(entry, "virtual_ops_per_sec", &context)? as u64,
                checksum,
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::figure10::{run_figure10, run_resilience_overhead, run_telemetry_overhead, Scale};

    fn sample() -> String {
        summary_json(
            "zero",
            2,
            &SummarySections {
                rows: &run_figure10(Scale::ZeroCost, 2),
                resilience: &run_resilience_overhead(Scale::ZeroCost, 2),
                telemetry: &run_telemetry_overhead(Scale::ZeroCost, 2),
                hotpath: &crate::telemetry_hotpath::run_hotpath_comparison(5_000),
                bridge: &crate::bridge_overhead::run_bridge_overhead(20_000),
                journal: &crate::figure10::run_journal_ablation(),
            },
        )
    }

    #[test]
    fn summary_round_trips_through_validation() {
        let check = validate_summary_json(&sample()).expect("generated summary is valid");
        assert_eq!(
            check,
            SummaryCheck {
                figure10_rows: 9,
                resilience_rows: 3,
                telemetry_rows: 3,
                hotpath_rows: 2,
                bridge_rows: 3,
                journal_rows: 3,
            }
        );
    }

    #[test]
    fn summary_rejects_missing_journal_mode() {
        let json = sample().replace("journal+checkpoints", "journal+nothing");
        let err = validate_summary_json(&json).unwrap_err();
        assert!(err.contains("unknown mode"), "{err}");
    }

    #[test]
    fn summary_rejects_an_unjournalled_ablation() {
        let json = regex_free_replace(&sample(), "client_appends", 0.0);
        let err = validate_summary_json(&json).unwrap_err();
        assert!(err.contains("never journalled"), "{err}");
    }

    #[test]
    fn summary_rejects_missing_bridge_mode() {
        let json = sample().replace("wire-buf", "wire-gone");
        let err = validate_summary_json(&json).unwrap_err();
        assert!(err.contains("unknown mode"), "{err}");
    }

    #[test]
    fn summary_rejects_missing_hotpath_mode() {
        let json = sample().replace("cached-handles", "cached-nothing");
        let err = validate_summary_json(&json).unwrap_err();
        assert!(err.contains("cached-handles"), "{err}");
    }

    #[test]
    fn wrong_schema_is_rejected() {
        let json = sample().replace(SCHEMA, "mobivine.figure10.v0");
        let err = validate_summary_json(&json).unwrap_err();
        assert!(err.contains("unknown schema"), "{err}");
    }

    #[test]
    fn missing_section_is_rejected() {
        let json = sample().replace("telemetry_overhead", "telemetry_dropped");
        assert!(validate_summary_json(&json).is_err());
    }

    #[test]
    fn garbage_is_rejected_with_a_parse_error() {
        let err = validate_summary_json("{not json").unwrap_err();
        assert!(err.contains("not valid JSON"), "{err}");
    }

    fn fleet_sample() -> String {
        let scaling = crate::fleet_bench::run_fleet_scaling(24, &[1, 2], 2, 1, 1, 3);
        let resolution = crate::fleet_bench::run_resolution_comparison(4, 100);
        let brownout = crate::fleet_bench::run_fleet_brownout(30, 4, 3, 3, 2, 11);
        let cache = crate::fleet_bench::run_fleet_cache(30, 4, 3, 4, 6, 11);
        let bridge = crate::fleet_bench::run_fleet_bridge(30, 4, 3, 4, 6, 11);
        // One worker: how many records a storm replays depends on whether
        // another worker's write lands between two crashes of a shard, so
        // a multi-worker storm is not byte-identical run over run.
        let crash = crate::fleet_bench::run_fleet_crash(30, 4, 1, 3, 2, 11, 3);
        fleet_summary_json(&scaling, &resolution, &brownout, &cache, &bridge, &crash)
    }

    #[test]
    fn fleet_summary_round_trips_through_validation() {
        let check = validate_fleet_json(&fleet_sample()).expect("generated fleet summary is valid");
        assert_eq!(
            check,
            FleetCheck {
                scaling_rows: 2,
                resolution_rows: 2,
                brownout_rows: 2,
                cache_rows: 2,
                bridge_rows: 2,
                crash_rows: 2,
            }
        );
    }

    #[test]
    fn fleet_summary_rejects_a_missing_crash_arm() {
        let json = fleet_sample().replace("\"stormed\":false", "\"stormed\":true");
        let err = validate_fleet_json(&json).unwrap_err();
        assert!(err.contains("crash-free arm"), "{err}");
    }

    #[test]
    fn fleet_summary_rejects_a_duplicated_effect() {
        let json = regex_free_replace(&fleet_sample(), "duplicates", 1.0);
        let err = validate_fleet_json(&json).unwrap_err();
        assert!(err.contains("exactly-once"), "{err}");
    }

    #[test]
    fn fleet_summary_rejects_a_missing_bridge_arm() {
        let json = fleet_sample().replace("\"batched\":false", "\"batched\":true");
        let err = validate_fleet_json(&json).unwrap_err();
        assert!(err.contains("unbatched arm"), "{err}");
    }

    #[test]
    fn fleet_summary_rejects_a_bridge_arm_without_reduction() {
        // Pinning both arms' crossings to the same value erases the
        // batched arm's advantage, which the v5 gate must reject.
        let json = regex_free_replace(&fleet_sample(), "crossings", 500.0);
        let err = validate_fleet_json(&json).unwrap_err();
        assert!(err.contains("no reduction"), "{err}");
    }

    #[test]
    fn fleet_summary_rejects_a_missing_cache_arm() {
        let json = fleet_sample().replace("\"cached\":false", "\"cached\":true");
        let err = validate_fleet_json(&json).unwrap_err();
        assert!(err.contains("uncached arm"), "{err}");
    }

    #[test]
    fn fleet_summary_rejects_a_cold_cache() {
        let json = regex_free_replace(&fleet_sample(), "hits", 0.0);
        let err = validate_fleet_json(&json).unwrap_err();
        assert!(err.contains("never hit"), "{err}");
    }

    #[test]
    fn fleet_summary_rejects_a_missing_brownout_arm() {
        let json = fleet_sample().replace("\"admission\":false", "\"admission\":true");
        let err = validate_fleet_json(&json).unwrap_err();
        assert!(err.contains("brownout"), "{err}");
    }

    #[test]
    fn fleet_summary_rejects_a_brownout_arm_without_promoted_traces() {
        let json = regex_free_replace(&fleet_sample(), "promoted_traces", 0.0);
        let err = validate_fleet_json(&json).unwrap_err();
        assert!(err.contains("promoted no trace"), "{err}");
    }

    #[test]
    fn fleet_summary_is_byte_identical_across_runs() {
        assert_eq!(fleet_sample(), fleet_sample());
    }

    #[test]
    fn fleet_summary_rejects_missing_resolution_mode() {
        let json = fleet_sample().replace("sharded-memoized", "sharded-unknown");
        let err = validate_fleet_json(&json).unwrap_err();
        assert!(err.contains("sharded-memoized"), "{err}");
    }

    #[test]
    fn fleet_summary_rejects_unexplained_deadline_breaches() {
        // Zero out the promoted-deadline evidence of every arm; the
        // unprotected arm then has blown deadlines with no promoted
        // traces, which the v3 gate must reject.
        let json = regex_free_replace(&fleet_sample(), "promoted_deadline", 0.0);
        let err = validate_fleet_json(&json).unwrap_err();
        assert!(err.contains("flight recorder lost evidence"), "{err}");
    }

    /// Replaces field `key`'s numeric value with `value` in every
    /// object of a compact serde_json document (string hack — the stub
    /// serializer emits `"key":value` with no spaces).
    fn regex_free_replace(json: &str, key: &str, value: f64) -> String {
        let needle = format!("\"{key}\":");
        let mut out = String::with_capacity(json.len());
        let mut rest = json;
        while let Some(at) = rest.find(&needle) {
            let after = at + needle.len();
            out.push_str(&rest[..after]);
            let tail = &rest[after..];
            let end = tail.find([',', '}']).unwrap_or(tail.len());
            out.push_str(&format!("{value}"));
            rest = &tail[end..];
        }
        out.push_str(rest);
        out
    }

    #[test]
    fn fleet_summary_rejects_wrong_schema() {
        let json = fleet_sample().replace(FLEET_SCHEMA, "mobivine.fleet.v0");
        assert!(validate_fleet_json(&json).is_err());
    }
}
