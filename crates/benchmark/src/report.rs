//! Metric declarations, result documents, their checks, and the
//! statistics `--repeat` prints.

use std::fmt::Write as _;

use serde_json::Value;

use crate::ladder;
use crate::workload::Workload;

/// Schema tag of a suite results document.
pub const SCHEMA: &str = "mobivine.benchmark.v1";

/// End-to-end metrics, reported per workload from the untraced run.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("ops_per_s", "ops/s"),
    ("call_p50_us", "us"),
    ("call_p99_us", "us"),
    ("success_ratio", "fraction"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics every workload reports. Names under `trace.` and
/// `allocs_per_op` come from the traced pass.
pub const WORKLOAD_LAYER: [(&str, &str); 15] = [
    ("cache.hit_ratio", "fraction"),
    ("bridge.crossings_per_op", "count/op"),
    ("journal.appends_per_op", "count/op"),
    ("journal.fsyncs_per_op", "count/op"),
    ("server.checkpoints", "count"),
    ("resilience.retries_per_op", "count/op"),
    ("resilience.fallbacks_per_op", "count/op"),
    ("overload.shed_ratio", "fraction"),
    ("setup.devices_s", "s"),
    ("setup.runtimes_s", "s"),
    ("trace.resolve_ns_per_op", "ns"),
    ("trace.call_ns_per_op", "ns"),
    ("trace.advance_ns_per_op", "ns"),
    ("trace.overhead_ratio", "ratio"),
    ("allocs_per_op", "count/op"),
];

/// Whether `name` needs the traced pass.
pub fn from_traced_pass(name: &str) -> bool {
    name.starts_with("trace.") || name == "allocs_per_op"
}

/// Every per-layer metric (workload counters, then the ladder).
pub fn per_layer() -> Vec<(String, &'static str)> {
    WORKLOAD_LAYER
        .iter()
        .map(|(n, u)| (n.to_string(), *u))
        .chain(ladder::metric_names().into_iter().map(|n| (n, "ns")))
        .collect()
}

/// Whether `name` matches `[A-Za-z0-9_.-]+`.
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
}

/// A JSON number, or `null` when not finite (JSON has no NaN).
pub fn number(value: f64) -> Value {
    if value.is_finite() {
        Value::Number(value)
    } else {
        Value::Null
    }
}

/// A JSON object from `(key, value)` pairs.
pub fn object<K: Into<String>>(fields: impl IntoIterator<Item = (K, Value)>) -> Value {
    Value::Object(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
}

/// `{"name": {"value": v, "unit": u}, ...}`.
pub fn metrics_object<'a>(metrics: impl IntoIterator<Item = (&'a str, f64, &'a str)>) -> Value {
    object(metrics.into_iter().map(|(name, value, unit)| {
        (
            name,
            object([
                ("value", number(value)),
                ("unit", Value::String(unit.into())),
            ]),
        )
    }))
}

/// Field `key` of `doc` as an `f64`.
pub fn get_f64(doc: &Value, key: &str) -> Option<f64> {
    match doc.get_field(key)? {
        Value::Number(n) => Some(*n),
        _ => None,
    }
}

/// Field `key` of `doc` as a string.
pub fn get_str<'a>(doc: &'a Value, key: &str) -> Option<&'a str> {
    match doc.get_field(key)? {
        Value::String(s) => Some(s),
        _ => None,
    }
}

/// The `(name, value, unit)` triples of a metrics object.
pub fn metric_entries(doc: &Value) -> Vec<(String, Option<f64>, Option<String>)> {
    let Some(Value::Object(fields)) = doc.get_field("metrics") else {
        return Vec::new();
    };
    fields
        .iter()
        .map(|(name, m)| {
            (
                name.clone(),
                get_f64(m, "value"),
                get_str(m, "unit").map(str::to_owned),
            )
        })
        .collect()
}

/// The value of metric `name` in `doc`.
pub fn metric(doc: &Value, name: &str) -> Option<f64> {
    doc.get_field("metrics")
        .and_then(|m| m.get_field(name))
        .and_then(|m| get_f64(m, "value"))
}

fn check_metrics(
    doc: &Value,
    declared: &[(String, &str)],
    context: &str,
    problems: &mut Vec<String>,
) {
    let entries = metric_entries(doc);
    for (name, unit) in declared {
        match entries.iter().find(|(n, _, _)| n == name) {
            None => problems.push(format!("{context}: metric {name} missing")),
            Some((_, value, got_unit)) => {
                if !value.is_some_and(f64::is_finite) {
                    problems.push(format!("{context}: metric {name} is not a finite number"));
                }
                if got_unit.as_deref() != Some(*unit) {
                    problems.push(format!(
                        "{context}: metric {name} has unit {got_unit:?}, expected {unit}"
                    ));
                }
            }
        }
    }
    for (name, _, _) in &entries {
        if !valid_name(name) {
            problems.push(format!("{context}: metric name {name:?} is malformed"));
        }
        if !declared.iter().any(|(d, _)| d == name) {
            problems.push(format!("{context}: metric {name} is not declared"));
        }
    }
}

fn count(doc: &Value, key: &str) -> Option<u64> {
    doc.get_field("counts")
        .and_then(|c| get_f64(c, key))
        .map(|v| v as u64)
}

/// Checks one workload result document; returns every problem found.
pub fn check_workload(doc: &Value) -> Vec<String> {
    let mut problems = Vec::new();
    let Some(workload) = get_str(doc, "workload").and_then(Workload::from_name) else {
        return vec!["workload result without a known workload name".into()];
    };
    let context = workload.name();
    let counts = doc.get_field("counts");
    let traced = counts
        .and_then(|c| c.get_field("prefix_traced"))
        .is_some_and(|t| *t != Value::Null);
    let declared: Vec<(String, &str)> = END_TO_END
        .iter()
        .chain(WORKLOAD_LAYER.iter())
        .filter(|(name, _)| traced || !from_traced_pass(name))
        .map(|(n, u)| (n.to_string(), *u))
        .collect();
    check_metrics(doc, &declared, context, &mut problems);

    let size = |key| get_f64(doc, key).map(|v| v as u64);
    let planned = match (size("devices"), size("ops_per_round"), size("rounds")) {
        (Some(d), Some(o), Some(r)) => Some(d * o * r),
        _ => None,
    };
    let attempted = count(doc, "attempted");
    if planned.is_none() || attempted != planned {
        problems.push(format!(
            "{context}: attempted {attempted:?} ops, planned devices × ops × rounds = {planned:?}"
        ));
    }
    if count(doc, "failed") != Some(0) {
        problems.push(format!(
            "{context}: {:?} ops returned a wrong outcome",
            count(doc, "failed")
        ));
    }
    let post_ok = count(doc, "post_ok");
    let (server, what) = match workload {
        Workload::WriteDurable => (
            count(doc, "server_distinct_keys"),
            "distinct idempotency keys",
        ),
        _ => (count(doc, "server_tracks"), "stored track points"),
    };
    if post_ok.is_none() || post_ok != server {
        problems.push(format!(
            "{context}: {post_ok:?} successful POSTs but the servers hold {server:?} {what}"
        ));
    }
    let errors = count(doc, "errors");
    let (error_ratio, success_ratio) = match (errors, attempted) {
        (Some(e), Some(a)) if a > 0 && e <= a => {
            (Some(e as f64 / a as f64), Some((a - e) as f64 / a as f64))
        }
        _ => (None, None),
    };
    if success_ratio.is_none() || success_ratio != metric(doc, "success_ratio") {
        problems.push(format!(
            "{context}: success_ratio disagrees with {errors:?} errors in {attempted:?} ops"
        ));
    }
    if workload.faulted() {
        if size("rounds").is_some_and(|r| r >= 10) && error_ratio.is_none_or(|e| e <= 0.0) {
            problems.push(format!("{context}: no injected fault surfaced as an error"));
        }
    } else if error_ratio != Some(0.0) {
        problems.push(format!(
            "{context}: error_ratio is {error_ratio:?}, expected exactly 0"
        ));
    }
    if traced {
        let untraced = counts.and_then(|c| c.get_field("prefix_untraced"));
        let replayed = counts.and_then(|c| c.get_field("prefix_traced"));
        if untraced != replayed {
            problems.push(format!(
                "{context}: the traced pass counted {} over the prefix rounds, the untraced run {}",
                replayed.map_or("nothing".into(), Value::to_string),
                untraced.map_or("nothing".into(), Value::to_string),
            ));
        }
        match get_str(doc, "trace_file") {
            Some(path) if std::path::Path::new(path).is_file() => {}
            Some(path) => problems.push(format!("{context}: trace file {path} is missing")),
            None => problems.push(format!("{context}: no trace file recorded")),
        }
        match doc.get_field("trace_spans") {
            Some(Value::Number(spans)) if *spans > 0.0 => {}
            Some(Value::String(e)) => problems.push(format!("{context}: trace spans: {e}")),
            other => problems.push(format!("{context}: no trace spans recorded: {other:?}")),
        }
    }
    problems
}

/// Checks a ladder result document.
pub fn check_ladder(doc: &Value) -> Vec<String> {
    let mut problems = Vec::new();
    let declared: Vec<(String, &str)> = ladder::metric_names()
        .into_iter()
        .map(|n| (n, "ns"))
        .collect();
    check_metrics(doc, &declared, "ladder", &mut problems);
    if get_f64(doc, "attempted").is_none_or(|a| a < 1.0) {
        problems.push("ladder: no calls attempted".into());
    }
    if get_f64(doc, "failed") != Some(0.0) {
        problems.push(format!("ladder: {:?} calls failed", get_f64(doc, "failed")));
    }
    problems
}

/// Checks a whole suite results document.
pub fn check_suite(doc: &Value) -> Vec<String> {
    let mut problems = Vec::new();
    if get_str(doc, "schema") != Some(SCHEMA) {
        problems.push(format!("schema is not {SCHEMA}"));
    }
    let workloads: &[Value] = match doc.get_field("workloads") {
        Some(Value::Array(items)) => items,
        _ => &[],
    };
    for workload in Workload::ALL {
        match workloads
            .iter()
            .find(|w| get_str(w, "workload") == Some(workload.name()))
        {
            Some(w) => problems.extend(check_workload(w)),
            None => problems.push(format!("{}: no result", workload.name())),
        }
    }
    match doc.get_field("ladder") {
        Some(l) => problems.extend(check_ladder(l)),
        None => problems.push("ladder: no result".into()),
    }
    problems
}

/// The quartiles of `values` as Python's `statistics.quantiles(values,
/// n=4)` computes them (the default "exclusive" method). Needs two or
/// more values; a single value is its own quartiles.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let len = data.len();
    if len < 2 {
        let v = data.first().copied().unwrap_or(f64::NAN);
        return [v; 3];
    }
    // Signed, because clamping `j` can make `delta` negative (as in
    // Python's integer arithmetic).
    let m = len as i64 + 1;
    let mut out = [0.0; 3];
    for (i, slot) in (1..4i64).zip(out.iter_mut()) {
        let j = (i * m / 4).clamp(1, len as i64 - 1);
        let delta = (i * m - j * 4) as f64;
        let j = j as usize;
        *slot = (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0;
    }
    out
}

/// Per-metric spread over repeated suite runs: `name median q1 q3
/// iqr/median (max−min)/median`, one line per metric and workload.
pub fn repeat_table(runs: &[Value]) -> String {
    let mut sections: Vec<(String, Vec<&Value>)> = Workload::ALL
        .iter()
        .map(|w| {
            let docs = runs
                .iter()
                .filter_map(|r| match r.get_field("workloads") {
                    Some(Value::Array(items)) => items
                        .iter()
                        .find(|d| get_str(d, "workload") == Some(w.name())),
                    _ => None,
                })
                .collect();
            (w.name().to_string(), docs)
        })
        .collect();
    sections.push((
        "ladder".into(),
        runs.iter().filter_map(|r| r.get_field("ladder")).collect(),
    ));
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<58} {:>14} {:>14} {:>14} {:>9} {:>9}",
        "metric", "median", "q1", "q3", "iqr/med", "rng/med"
    );
    for (section, docs) in sections {
        let Some(first) = docs.first() else { continue };
        for (name, _, unit) in metric_entries(first) {
            let values: Vec<f64> = docs.iter().filter_map(|d| metric(d, &name)).collect();
            let med = ladder::median(&values);
            let [q1, _, q3] = quartiles(&values);
            let max = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            let min = values.iter().copied().fold(f64::INFINITY, f64::min);
            let _ = writeln!(
                out,
                "{:<58} {:>14.4} {:>14.4} {:>14.4} {:>8.2}% {:>8.2}%  {}",
                format!("{section}.{name}"),
                med,
                q1,
                q3,
                100.0 * (q3 - q1) / med.abs(),
                100.0 * (max - min) / med.abs(),
                unit.unwrap_or_default(),
            );
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_declared_name_is_well_formed_and_unique() {
        let mut names: Vec<String> = END_TO_END.iter().map(|(n, _)| n.to_string()).collect();
        names.extend(per_layer().into_iter().map(|(n, _)| n));
        assert!(names.len() <= END_TO_END.len() + 128);
        for name in &names {
            assert!(valid_name(name), "{name}");
            assert!(name.len() <= 64, "{name}");
            assert!(
                name.as_bytes()[0].is_ascii_alphanumeric(),
                "{name} starts with a letter or digit"
            );
        }
        let mut sorted = names.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), names.len(), "names are unique");
        assert!(!valid_name("a b") && !valid_name("") && !valid_name("µs"));
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let values: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&values), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
    }

    #[test]
    fn benchmark_json_declares_exactly_these_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let doc: Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
        let declared = |key: &str| -> Vec<(String, String)> {
            match doc.get_field(key) {
                Some(Value::Array(items)) => items
                    .iter()
                    .map(|m| {
                        (
                            get_str(m, "name").unwrap_or_default().to_owned(),
                            get_str(m, "unit").unwrap_or_default().to_owned(),
                        )
                    })
                    .collect(),
                _ => Vec::new(),
            }
        };
        let own = |list: Vec<(String, &str)>| -> Vec<(String, String)> {
            list.into_iter().map(|(n, u)| (n, u.to_owned())).collect()
        };
        assert_eq!(
            declared("end_to_end"),
            own(END_TO_END
                .iter()
                .map(|(n, u)| (n.to_string(), *u))
                .collect())
        );
        assert_eq!(declared("per_layer"), own(per_layer()));
        let workloads: Vec<String> = match doc.get_field("workloads") {
            Some(Value::Array(items)) => items
                .iter()
                .filter_map(|w| get_str(w, "name").map(str::to_owned))
                .collect(),
            _ => Vec::new(),
        };
        let ours: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_owned()).collect();
        assert_eq!(workloads, ours);
    }
}
