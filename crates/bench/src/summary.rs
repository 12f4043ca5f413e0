//! Machine-readable bench summaries (`figure10 --json`, `fleet --json`).
//!
//! One JSON document per binary: the `figure10` summary carries the
//! nine Figure 10 pairs with their histogram-derived p50/p95/p99 tails
//! plus the resilience- and telemetry-overhead ablations; the `fleet`
//! summary carries the sweep, the resolution-mode inventory and one row
//! per fleet scenario arm. [`validate_summary_json`] /
//! [`validate_fleet_json`] are the checks shared by each binary's
//! `--check` mode and CI. The fleet summary deliberately contains **no
//! wall-clock-derived values**, so two runs with the same configuration
//! emit byte-identical JSON.

use serde_json::Value;

use crate::bridge_overhead::{bridge_overhead_speedup, BridgeOverheadRow};
use crate::figure10::{
    journal_overhead_factor, Figure10Row, JournalOverheadRow, LatencyStats, ResilienceOverheadRow,
    TelemetryOverheadRow,
};
use crate::fleet_bench::{check_all, is_fingerprint, scenarios, ResolutionRow, Row, Sweep};
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

/// Schema identifier of the fleet benchmark summary: the sweep, the
/// resolution inventory and one [`Row`] per scenario arm. The shape is
/// fixed; the gates live in [`crate::fleet_bench::SCENARIOS`], so a new
/// scenario adds rows, not a schema version.
pub const FLEET_SCHEMA: &str = "mobivine.fleet.v7";

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

/// Parses `json` and requires its `schema` field to be `schema`.
fn parse_root(json: &str, schema: &str) -> Result<Value, String> {
    let root: Value = serde_json::from_str(json).map_err(|e| format!("not valid JSON: {e}"))?;
    match root.get_field("schema") {
        Some(Value::String(s)) if s == schema => Ok(root),
        Some(Value::String(s)) => Err(format!("unknown schema {s:?}, expected {schema:?}")),
        _ => Err("missing schema field".to_owned()),
    }
}

/// Validates a `figure10 --json` document against the
/// [`SCHEMA`] shape.
///
/// # Errors
///
/// A human-readable description of the first violation: bad JSON, a
/// wrong or missing schema id, or a missing/mistyped field.
pub fn validate_summary_json(json: &str) -> Result<SummaryCheck, String> {
    let root = parse_root(json, SCHEMA)?;
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
        let checksum = require_u64(entry, "checksum", &context)?;
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
/// deterministic fields are emitted — the wall-clock acquisition rates
/// stay in the human-readable table — and every fingerprint is a
/// 16-digit hex string, so no precision is lost to JSON's doubles.
pub fn fleet_summary_json(sweep: &Sweep, resolution: &[ResolutionRow], rows: &[Row]) -> String {
    let value = |key: &str, v: u64| {
        if is_fingerprint(key) {
            text(&format!("{v:016x}"))
        } else {
            num(v as f64)
        }
    };
    let sweep = object(vec![
        ("devices", num(sweep.devices as f64)),
        (
            "shards",
            Value::Array(sweep.shards.iter().map(|&s| num(s as f64)).collect()),
        ),
        ("workers", num(sweep.workers as f64)),
        ("rounds", num(sweep.rounds as f64)),
        ("ops_per_round", num(f64::from(sweep.ops_per_round))),
        ("seed", num(sweep.seed as f64)),
    ]);
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
    let rows = rows
        .iter()
        .map(|row| {
            let counters = row
                .counters
                .iter()
                .map(|(key, &v)| (key.clone(), value(key, v)))
                .collect();
            object(vec![
                ("scenario", text(&row.scenario)),
                ("arm", text(&row.arm)),
                ("ops", value("ops", row.ops)),
                ("errors", value("errors", row.errors)),
                ("checksum", value("checksum", row.checksum)),
                ("counters", Value::Object(counters)),
            ])
        })
        .collect();
    object(vec![
        ("schema", text(FLEET_SCHEMA)),
        ("sweep", sweep),
        ("resolution", Value::Array(resolution)),
        ("rows", Value::Array(rows)),
    ])
    .to_string()
}

/// A fleet summary parsed back into the harness's types.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FleetSummary {
    /// The scaling sweep the summary was run with.
    pub sweep: Sweep,
    /// One row per scenario arm.
    pub rows: Vec<Row>,
}

/// Reads the value named `key` as a `u64`: a 16-digit hex string for a
/// fingerprint ([`is_fingerprint`]), a non-negative integer otherwise.
fn parse_u64(key: &str, value: &Value, context: &str) -> Result<u64, String> {
    match value {
        Value::String(s)
            if is_fingerprint(key) && s.len() == 16 && s.chars().all(|c| c.is_ascii_hexdigit()) =>
        {
            u64::from_str_radix(s, 16).map_err(|e| format!("{context}: bad {key}: {e}"))
        }
        Value::Number(n)
            if !is_fingerprint(key) && *n >= 0.0 && n.fract() == 0.0 && *n < 2f64.powi(53) =>
        {
            Ok(*n as u64)
        }
        other if is_fingerprint(key) => Err(format!(
            "{context}: {key} is not a 16-digit hex string: {other:?}"
        )),
        other => Err(format!(
            "{context}: {key} is not a non-negative integer: {other:?}"
        )),
    }
}

fn require_u64(entry: &Value, key: &str, context: &str) -> Result<u64, String> {
    let value = entry
        .get_field(key)
        .ok_or_else(|| format!("{context}: missing field {key}"))?;
    parse_u64(key, value, context)
}

/// Parses a `fleet --json` document against the [`FLEET_SCHEMA`]
/// shape. Gates are not evaluated: [`validate_fleet_json`] does both.
///
/// # Errors
///
/// A human-readable description of the first violation: bad JSON, a
/// wrong or missing schema id, a missing or mistyped field, a zero in
/// the sweep, or a missing resolution mode.
pub fn parse_fleet_json(json: &str) -> Result<FleetSummary, String> {
    let root = parse_root(json, FLEET_SCHEMA)?;
    let sweep = root.get_field("sweep").ok_or("missing object sweep")?;
    let shards = require_array(sweep, "shards")?
        .iter()
        .map(|v| parse_u64("shards", v, "sweep").map(|n| n as usize))
        .collect::<Result<Vec<_>, _>>()?;
    let sweep = Sweep {
        devices: require_u64(sweep, "devices", "sweep")? as usize,
        shards,
        workers: require_u64(sweep, "workers", "sweep")? as usize,
        rounds: require_u64(sweep, "rounds", "sweep")?,
        ops_per_round: u32::try_from(require_u64(sweep, "ops_per_round", "sweep")?)
            .map_err(|e| format!("sweep: ops_per_round: {e}"))?,
        seed: require_u64(sweep, "seed", "sweep")?,
    };
    if !sweep.is_runnable() {
        return Err(format!("sweep: a count is zero: {sweep:?}"));
    }

    let resolution = require_array(&root, "resolution")?;
    for (i, entry) in resolution.iter().enumerate() {
        let context = format!("resolution[{i}]");
        require_string(entry, "mode", &context)?;
        require_u64(entry, "acquisitions", &context)?;
        require_u64(entry, "devices", &context)?;
    }
    for mode in ["per-call-construction", "sharded-memoized"] {
        if !resolution
            .iter()
            .any(|entry| matches!(entry.get_field("mode"), Some(Value::String(s)) if s == mode))
        {
            return Err(format!("resolution: missing row for mode {mode:?}"));
        }
    }

    let rows = require_array(&root, "rows")?
        .iter()
        .enumerate()
        .map(|(i, entry)| {
            let context = format!("rows[{i}]");
            let Some(Value::Object(counters)) = entry.get_field("counters") else {
                return Err(format!("{context}: missing object counters"));
            };
            Ok(Row {
                scenario: require_string(entry, "scenario", &context)?.to_owned(),
                arm: require_string(entry, "arm", &context)?.to_owned(),
                ops: require_u64(entry, "ops", &context)?,
                errors: require_u64(entry, "errors", &context)?,
                checksum: require_u64(entry, "checksum", &context)?,
                counters: counters
                    .iter()
                    .map(|(key, v)| Ok((key.clone(), parse_u64(key, v, &context)?)))
                    .collect::<Result<_, String>>()?,
            })
        })
        .collect::<Result<Vec<_>, _>>()?;
    Ok(FleetSummary { sweep, rows })
}

/// Parses a `fleet --json` document and evaluates every gate of every
/// declared scenario ([`crate::fleet_bench::SCENARIOS`], built for the
/// recorded sweep) over its rows — the `fleet --check` contract.
///
/// # Errors
///
/// Everything [`parse_fleet_json`] and [`check_all`] reject.
pub fn validate_fleet_json(json: &str) -> Result<FleetSummary, String> {
    let summary = parse_fleet_json(json)?;
    check_all(&scenarios(&summary.sweep), &summary.rows)?;
    Ok(summary)
}

#[cfg(test)]
mod tests {
    use std::sync::OnceLock;

    use mobivine_apps::fleet::{DurabilityFleetConfig, FleetConfig};

    use super::*;
    use crate::figure10::{run_figure10, run_resilience_overhead, run_telemetry_overhead, Scale};
    use crate::fleet_bench::{
        checksum_equal, render, run_resolution_comparison, run_scenario, Arm, Scenario,
    };

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

    /// A sweep small enough for a unit test.
    fn tiny() -> Sweep {
        Sweep {
            devices: 24,
            shards: vec![1, 2],
            workers: 2,
            rounds: 1,
            ops_per_round: 1,
            seed: 3,
        }
    }

    fn fleet_rows(scenarios: &[Scenario]) -> Vec<Row> {
        scenarios.iter().flat_map(run_scenario).collect()
    }

    fn build_fleet_sample() -> String {
        let resolution = run_resolution_comparison(4, 100);
        fleet_summary_json(&tiny(), &resolution, &fleet_rows(&scenarios(&tiny())))
    }

    fn fleet_sample() -> &'static str {
        static SAMPLE: OnceLock<String> = OnceLock::new();
        SAMPLE.get_or_init(build_fleet_sample)
    }

    #[test]
    fn fleet_summary_round_trips_through_validation() {
        let rows = fleet_rows(&scenarios(&tiny()));
        let json = fleet_summary_json(&tiny(), &run_resolution_comparison(4, 100), &rows);
        let summary = validate_fleet_json(&json).expect("generated fleet summary is valid");
        assert_eq!(summary.sweep, tiny());
        assert_eq!(summary.rows, rows, "parsing loses nothing");
        assert_eq!(
            rows.len(),
            3 + 2 * 4,
            "two shard counts + traced, four A/B pairs"
        );
    }

    #[test]
    fn fleet_summary_is_byte_identical_across_runs() {
        assert_eq!(build_fleet_sample(), fleet_sample());
    }

    /// Renames `arm` in the sample; validation must name it missing.
    fn assert_missing_arm_is_rejected(arm: &str) {
        let json = fleet_sample().replace(&format!("\"arm\":\"{arm}\""), "\"arm\":\"gone\"");
        let err = validate_fleet_json(&json).unwrap_err();
        assert!(err.contains(&format!("missing arm `{arm}`")), "{err}");
        assert!(err.contains("belongs to no declared arm"), "{err}");
    }

    #[test]
    fn fleet_summary_rejects_a_missing_crash_arm() {
        assert_missing_arm_is_rejected("crash-free");
    }

    #[test]
    fn fleet_summary_rejects_a_missing_bridge_arm() {
        assert_missing_arm_is_rejected("unbatched");
    }

    #[test]
    fn fleet_summary_rejects_a_missing_cache_arm() {
        assert_missing_arm_is_rejected("uncached");
    }

    #[test]
    fn fleet_summary_rejects_a_missing_brownout_arm() {
        assert_missing_arm_is_rejected("unprotected");
    }

    /// Sets counter `key` to `value` on every row of the sample file;
    /// `--check` must then name `gate` as failing.
    fn assert_file_gate_fails(key: &str, value: f64, gate: &str) {
        let json = regex_free_replace(fleet_sample(), key, value);
        let err = validate_fleet_json(&json).unwrap_err();
        assert!(err.contains(&format!("gate `{gate}` fails")), "{err}");
    }

    #[test]
    fn fleet_summary_rejects_a_duplicated_effect() {
        assert_file_gate_fails(
            "recovery.duplicates",
            1.0,
            "stormed.recovery.duplicates == 0",
        );
    }

    #[test]
    fn fleet_summary_rejects_a_bridge_arm_without_reduction() {
        assert_file_gate_fails(
            "bridge.crossings",
            500.0,
            "batched.bridge.crossings < unbatched.bridge.crossings",
        );
    }

    #[test]
    fn fleet_summary_rejects_a_cold_cache() {
        assert_file_gate_fails("cache.hits", 0.0, "cached.cache.hits > 0");
    }

    #[test]
    fn fleet_summary_rejects_a_brownout_arm_without_promoted_traces() {
        assert_file_gate_fails(
            "incidents.promoted_traces",
            0.0,
            "admission.incidents.promoted_traces >= 1",
        );
    }

    #[test]
    fn fleet_summary_rejects_unexplained_deadline_breaches() {
        assert_file_gate_fails(
            "incidents.promoted_deadline",
            0.0,
            "unprotected.incidents.promoted_deadline == unprotected.deadline_blown",
        );
    }

    #[test]
    fn fleet_summary_rejects_missing_resolution_mode() {
        let json = fleet_sample().replace("sharded-memoized", "sharded-unknown");
        let err = validate_fleet_json(&json).unwrap_err();
        assert!(err.contains("sharded-memoized"), "{err}");
    }

    #[test]
    fn a_declared_sixth_scenario_needs_no_other_edit() {
        let small = FleetConfig {
            devices: 30,
            shards: 4,
            workers: 3,
            rounds: 3,
            ops_per_round: 2,
            seed: 11,
            ..FleetConfig::default()
        };
        let journal = Scenario {
            name: "journal",
            arms: vec![
                Arm {
                    name: "journaled".into(),
                    config: FleetConfig {
                        durability: Some(DurabilityFleetConfig::default()),
                        ..small.clone()
                    },
                },
                Arm {
                    name: "plain".into(),
                    config: small,
                },
            ],
            gates: vec![checksum_equal("journaled", "plain")],
        };
        let declared = [journal];
        let rows = fleet_rows(&declared);
        let json = fleet_summary_json(&tiny(), &run_resolution_comparison(4, 100), &rows);
        let summary = parse_fleet_json(&json).expect("the shape is fixed");
        check_all(&declared, &summary.rows).expect("the journal gate holds");
        assert_eq!(summary.rows, rows);
        assert!(render(&declared[0], &rows).contains(": holds"));
        // The gates live in code: the declared table knows no journal
        // scenario, so its rows are rejected there.
        let err = validate_fleet_json(&json).unwrap_err();
        assert!(
            err.contains("journal/plain belongs to no declared arm"),
            "{err}"
        );
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
        let err = validate_fleet_json(&json).unwrap_err();
        assert!(err.contains("unknown schema"), "{err}");
        let err = validate_fleet_json("{not json").unwrap_err();
        assert!(err.contains("not valid JSON"), "{err}");
    }
}
