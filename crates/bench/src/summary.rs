//! Machine-readable bench summaries (`figure10 --json`, `fleet --json`).
//!
//! One JSON document per binary: the `figure10` summary carries the
//! nine Figure 10 pairs, each with its native and proxied ns per call
//! (median and IQR across blocks) beside the paper's milliseconds; the
//! `fleet` summary carries the sweep and one row per fleet scenario
//! arm. [`validate_summary_json`] / [`validate_fleet_json`] are the
//! checks shared by each binary's `--check` mode and CI, and [`compare`]
//! is `fleet --compare`'s determinism check. The fleet summary
//! deliberately contains **no wall-clock-derived values**, so two runs
//! with the same configuration emit byte-identical JSON.

use std::collections::BTreeSet;

use serde_json::Value;

use crate::figure10::{paper_pair, Figure10Row, Spread, PAPER_VALUES};
use crate::fleet_bench::{check_all, is_fingerprint, joined, scenarios, Row, Sweep};

/// Schema identifier stamped into (and required from) every figure10
/// summary: `{schema, blocks, calls, figure10}`, where `figure10` holds
/// exactly the paper's nine (platform, API) pairs as `{platform, api,
/// native_ns: {median, iqr}, proxy_ns: {median, iqr}, paper_without_ms,
/// paper_with_ms}`.
pub const SCHEMA: &str = "mobivine.figure10.v5";

/// Schema identifier of the fleet benchmark summary:
/// `{schema, sweep, rows}`, one [`Row`] per scenario arm. The shape is
/// fixed; the gates live in [`crate::fleet_bench::SCENARIOS`], so a new
/// scenario adds rows, not a schema version.
pub const FLEET_SCHEMA: &str = "mobivine.fleet.v8";

fn num(v: f64) -> Value {
    Value::Number(v)
}

fn text(v: &str) -> Value {
    Value::String(v.to_owned())
}

fn object(fields: Vec<(&str, Value)>) -> Value {
    Value::Object(fields.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
}

fn spread_value(spread: Spread) -> Value {
    object(vec![
        ("median", num(spread.median)),
        ("iqr", num(spread.iqr)),
    ])
}

/// Builds the summary document of a Figure 10 run as a JSON string.
pub fn summary_json(blocks: usize, calls: usize, rows: &[Figure10Row]) -> String {
    let figure10 = rows
        .iter()
        .map(|row| {
            object(vec![
                ("platform", text(row.platform)),
                ("api", text(row.api)),
                ("native_ns", spread_value(row.native_ns)),
                ("proxy_ns", spread_value(row.proxy_ns)),
                ("paper_without_ms", num(row.paper_ms.0)),
                ("paper_with_ms", num(row.paper_ms.1)),
            ])
        })
        .collect();
    object(vec![
        ("schema", text(SCHEMA)),
        ("blocks", num(blocks as f64)),
        ("calls", num(calls as f64)),
        ("figure10", Value::Array(figure10)),
    ])
    .to_string()
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

fn require_spread(entry: &Value, key: &str, context: &str) -> Result<Spread, String> {
    let spread = entry
        .get_field(key)
        .ok_or_else(|| format!("{context}: missing {key}"))?;
    let context = format!("{context}: {key}");
    Ok(Spread {
        median: require_number(spread, "median", &context)?,
        iqr: require_number(spread, "iqr", &context)?,
    })
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

/// Validates a `figure10 --json` document against the [`SCHEMA`]
/// shape: positive block and call counts, and every pair of
/// [`PAPER_VALUES`] exactly once, carrying the paper's values and
/// passing [`Figure10Row::check`] (finite, non-negative ns figures and
/// the paper's claim).
///
/// # Errors
///
/// A human-readable description of the first violation: bad JSON, a
/// wrong or missing schema id, a missing/mistyped field, zero blocks or
/// calls, a Figure 10 pair that is unknown, repeated, missing or
/// carries other paper values, or a row that fails its check.
pub fn validate_summary_json(json: &str) -> Result<(), String> {
    let root = parse_root(json, SCHEMA)?;
    for key in ["blocks", "calls"] {
        if require_u64(&root, key, "summary")? == 0 {
            return Err(format!("summary: {key} is zero, so nothing was measured"));
        }
    }

    let mut seen: Vec<(&str, &str)> = Vec::new();
    for (i, entry) in require_array(&root, "figure10")?.iter().enumerate() {
        let context = format!("figure10[{i}]");
        let platform = require_string(entry, "platform", &context)?;
        let api = require_string(entry, "api", &context)?;
        let Some((platform, api, without, with)) = paper_pair(platform, api) else {
            return Err(format!(
                "{context}: {platform} {api} is not a Figure 10 pair"
            ));
        };
        if seen.contains(&(platform, api)) {
            return Err(format!("{context}: {platform} {api} appears twice"));
        }
        seen.push((platform, api));
        for (key, paper) in [("paper_without_ms", without), ("paper_with_ms", with)] {
            let value = require_number(entry, key, &context)?;
            if value != paper {
                return Err(format!(
                    "{context}: {key} is {value}, the paper's is {paper}"
                ));
            }
        }
        Figure10Row {
            platform,
            api,
            native_ns: require_spread(entry, "native_ns", &context)?,
            proxy_ns: require_spread(entry, "proxy_ns", &context)?,
            paper_ms: (without, with),
        }
        .check()
        .map_err(|e| format!("{context}: {e}"))?;
    }
    let missing: Vec<String> = PAPER_VALUES
        .iter()
        .filter(|(p, a, ..)| !seen.contains(&(p, a)))
        .map(|(p, a, ..)| format!("{p} {a}"))
        .collect();
    if !missing.is_empty() {
        return Err(format!("figure10: missing pairs {}", missing.join(", ")));
    }
    Ok(())
}

/// Builds the fleet summary document as a JSON string. Every field is
/// deterministic, and every fingerprint is a 16-digit hex string, so no
/// precision is lost to JSON's doubles.
pub fn fleet_summary_json(sweep: &Sweep, rows: &[Row]) -> String {
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
/// wrong or missing schema id, a missing or mistyped field, or a zero in
/// the sweep.
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

/// `fleet --compare`'s determinism check: `live` — every scenario re-run
/// from `baseline`'s sweep — must equal the committed rows exactly, every
/// counter included.
///
/// # Errors
///
/// One line per difference: a committed row with no live row, a live
/// row with no committed row, and each value (`ops`, `errors`,
/// `checksum` or a counter) that differs or is present on one side
/// only.
pub fn compare(baseline: &FleetSummary, live: &[Row]) -> Result<(), String> {
    let same_arm = |a: &Row, b: &Row| a.scenario == b.scenario && a.arm == b.arm;
    let show = |key: &str, value: Option<u64>| match value {
        Some(v) if is_fingerprint(key) => format!("{v:016x}"),
        Some(v) => v.to_string(),
        None => "absent".to_owned(),
    };
    let mut problems = Vec::new();
    for committed in &baseline.rows {
        let name = format!("{}/{}", committed.scenario, committed.arm);
        let Some(row) = live.iter().find(|r| same_arm(r, committed)) else {
            problems.push(format!("{name}: committed row not reproduced"));
            continue;
        };
        let counters: BTreeSet<&str> = committed
            .counters
            .keys()
            .chain(row.counters.keys())
            .map(String::as_str)
            .collect();
        for key in ["ops", "errors", "checksum"].into_iter().chain(counters) {
            let (was, now) = (committed.value(key), row.value(key));
            if was != now {
                problems.push(format!(
                    "{name}: {key} is {} live, {} committed",
                    show(key, now),
                    show(key, was)
                ));
            }
        }
    }
    for row in live {
        if !baseline.rows.iter().any(|r| same_arm(r, row)) {
            problems.push(format!(
                "{}/{}: live row has no committed row",
                row.scenario, row.arm
            ));
        }
    }
    joined(problems)
}

#[cfg(test)]
mod tests {
    use std::sync::OnceLock;

    use mobivine_apps::fleet::FleetConfig;

    use super::*;
    use crate::fleet_bench::{checksum_equal, render, run_scenario, Arm, Scenario};

    /// The nine pairs with fixed figures: 400 ns native, 900 ns proxied.
    fn figure10_rows() -> Vec<Figure10Row> {
        PAPER_VALUES
            .iter()
            .map(|&(platform, api, without, with)| Figure10Row {
                platform,
                api,
                native_ns: Spread {
                    median: 400.0,
                    iqr: 10.0,
                },
                proxy_ns: Spread {
                    median: 900.0,
                    iqr: 20.0,
                },
                paper_ms: (without, with),
            })
            .collect()
    }

    fn sample() -> String {
        summary_json(9, 200, &figure10_rows())
    }

    fn invalid(rows: &[Figure10Row]) -> String {
        validate_summary_json(&summary_json(9, 200, rows)).unwrap_err()
    }

    #[test]
    fn summary_round_trips_through_validation() {
        validate_summary_json(&sample()).expect("generated summary is valid");
    }

    #[test]
    fn summary_rejects_zero_blocks_or_calls() {
        let rows = figure10_rows();
        let err = validate_summary_json(&summary_json(0, 200, &rows)).unwrap_err();
        assert_eq!(err, "summary: blocks is zero, so nothing was measured");
        let err = validate_summary_json(&summary_json(9, 0, &rows)).unwrap_err();
        assert_eq!(err, "summary: calls is zero, so nothing was measured");
    }

    #[test]
    fn summary_requires_each_paper_pair_once_with_the_paper_values() {
        let rows = figure10_rows();
        let err = invalid(&rows[1..]);
        assert!(
            err.contains("missing pairs Android addProximityAlert"),
            "{err}"
        );
        let mut duplicated = rows.clone();
        duplicated[1] = rows[0].clone();
        let err = invalid(&duplicated);
        assert!(
            err.contains("figure10[1]: Android addProximityAlert appears twice"),
            "{err}"
        );
        let mut edited = rows;
        edited[4].paper_ms.1 = 100.0;
        let err = invalid(&edited);
        assert!(
            err.contains("figure10[4]: paper_with_ms is 100, the paper's is 121.7"),
            "{err}"
        );
    }

    #[test]
    fn summary_rejects_a_claim_breaking_row() {
        let mut rows = figure10_rows();
        // 1% of Nokia S60 sendSMS's 15.6 ms is 156 µs.
        rows[8].proxy_ns.median = 400.0 + 156_500.0;
        let err = invalid(&rows);
        assert!(
            err.starts_with("figure10[8]: Nokia S60 sendSMS: the proxy adds 156500 ns"),
            "{err}"
        );
    }

    #[test]
    fn summary_rejects_a_negative_iqr() {
        let mut rows = figure10_rows();
        rows[2].proxy_ns.iqr = -3.0;
        let err = invalid(&rows);
        assert_eq!(err, "figure10[2]: Android sendSMS: proxy_ns.iqr is -3");
    }

    #[test]
    fn summary_rejects_a_missing_pair() {
        let rows = figure10_rows();
        let err = invalid(&[&rows[..4], &rows[5..]].concat());
        assert_eq!(err, "figure10: missing pairs Android WebView getLocation");
    }

    #[test]
    fn wrong_schema_is_rejected() {
        let json = sample().replace(SCHEMA, "mobivine.figure10.v0");
        let err = validate_summary_json(&json).unwrap_err();
        assert!(err.contains("unknown schema"), "{err}");
    }

    #[test]
    fn missing_section_is_rejected() {
        let json = sample().replace("\"figure10\":", "\"figure10_dropped\":");
        let err = validate_summary_json(&json).unwrap_err();
        assert!(err.contains("missing array figure10"), "{err}");
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
        fleet_summary_json(&tiny(), &fleet_rows(&scenarios(&tiny())))
    }

    fn fleet_sample() -> &'static str {
        static SAMPLE: OnceLock<String> = OnceLock::new();
        SAMPLE.get_or_init(build_fleet_sample)
    }

    #[test]
    fn fleet_summary_round_trips_through_validation() {
        let rows = fleet_rows(&scenarios(&tiny()));
        let json = fleet_summary_json(&tiny(), &rows);
        let summary = validate_fleet_json(&json).expect("generated fleet summary is valid");
        assert_eq!(summary.sweep, tiny());
        assert_eq!(summary.rows, rows, "parsing loses nothing");
        assert_eq!(
            rows.len(),
            3 + 2 * 3 + 3,
            "two shard counts + traced, three A/B pairs, three journal arms"
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
    fn fleet_summary_rejects_a_missing_cache_arm() {
        assert_missing_arm_is_rejected("uncached");
    }

    #[test]
    fn fleet_summary_rejects_a_missing_brownout_arm() {
        assert_missing_arm_is_rejected("unprotected");
    }

    #[test]
    fn summary_rejects_missing_journal_mode() {
        assert_missing_arm_is_rejected("checkpointed");
    }

    #[test]
    fn fleet_summary_rejects_a_duplicated_arm() {
        let mut summary = parse_fleet_json(fleet_sample()).expect("sample parses");
        let mut again = summary
            .rows
            .iter()
            .find(|r| r.scenario == "crash" && r.arm == "stormed")
            .expect("stormed row")
            .clone();
        again.checksum = 1;
        again.counters.insert("recovery.duplicates".into(), 5);
        summary.rows.push(again);
        let json = fleet_summary_json(&summary.sweep, &summary.rows);
        let err = validate_fleet_json(&json).unwrap_err();
        assert!(
            err.contains("row crash/stormed appears more than once"),
            "{err}"
        );
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
    fn summary_rejects_an_unjournalled_ablation() {
        assert_file_gate_fails(
            "recovery.keyed_applies",
            0.0,
            "journaled.recovery.keyed_applies > 0",
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
        let workers = Scenario {
            name: "workers",
            arms: vec![
                Arm {
                    name: "one".into(),
                    config: FleetConfig {
                        workers: 1,
                        ..small.clone()
                    },
                },
                Arm {
                    name: "three".into(),
                    config: small,
                },
            ],
            gates: vec![checksum_equal("one", "three")],
        };
        let declared = [workers];
        let rows = fleet_rows(&declared);
        let json = fleet_summary_json(&tiny(), &rows);
        let summary = parse_fleet_json(&json).expect("the shape is fixed");
        check_all(&declared, &summary.rows).expect("the workers gate holds");
        assert_eq!(summary.rows, rows);
        assert!(render(&declared[0], &rows).contains(": holds"));
        // The gates live in code: the declared table knows no workers
        // scenario, so its rows are rejected there.
        let err = validate_fleet_json(&json).unwrap_err();
        assert!(
            err.contains("workers/one belongs to no declared arm"),
            "{err}"
        );
    }

    #[test]
    fn compare_names_a_perturbed_counter_a_missing_row_and_an_extra_row() {
        let baseline = parse_fleet_json(fleet_sample()).expect("sample parses");
        let live = baseline.rows.clone();
        compare(&baseline, &live).expect("identical rows compare equal");

        let mut perturbed = live.clone();
        *perturbed[0].counters.get_mut("p99_ms").expect("p99_ms") += 1;
        let err = compare(&baseline, &perturbed).unwrap_err();
        assert_eq!(err.lines().count(), 1, "{err}");
        assert!(err.starts_with("scaling/shards1: p99_ms is "), "{err}");

        let err = compare(&baseline, &live[1..]).unwrap_err();
        assert_eq!(err, "scaling/shards1: committed row not reproduced");

        let mut extra = live;
        extra.push(Row {
            arm: "shards16".into(),
            ..extra[0].clone()
        });
        let err = compare(&baseline, &extra).unwrap_err();
        assert_eq!(err, "scaling/shards16: live row has no committed row");
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
