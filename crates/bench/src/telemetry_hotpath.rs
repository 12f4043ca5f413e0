//! Telemetry hot-path ablation (the zero-allocation recording path).
//!
//! The recording-path comparison: what one traced proxy call pays to
//! publish its metrics, in two shapes:
//! - `per-call-lookup`: the pre-optimization shape. Every call builds a
//!   fresh `(proxy, method, platform)` [`Labels`] set (heap), interns
//!   it, and walks the sharded registry to find its counter and
//!   histogram.
//! - `cached-handles`: the [`CallInstruments`] shape the traced
//!   decorators now use. Handles are resolved once at wiring time; each
//!   call is two atomic increments and one histogram bucket add.
//!
//! The acceptance gate requires the cached path to be at least 5x the
//! per-call-lookup baseline. (That tracing leaves what the fleet
//! computes unchanged is the scaling scenario's traced-arm gate in
//! [`crate::fleet_bench`].)
//!
//! [`CallInstruments`]: mobivine::telemetry

use std::time::Instant;

use mobivine_telemetry::{Counter, Histogram, Labels, MetricsRegistry};

/// One row of the recording-path comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct HotpathRow {
    /// `per-call-lookup` or `cached-handles`.
    pub mode: &'static str,
    /// Recording operations timed (each op = 2 counters + 1 histogram).
    pub ops: u64,
    /// Wall-clock recording operations per second (table only — never
    /// committed to a deterministic artifact).
    pub wall_ops_per_sec: f64,
}

/// The method mix a traced proxy publishes, mirroring the decorators.
const SERIES: &[(&str, &str, &str)] = &[
    ("Location", "getLocation", "android"),
    ("SMS", "sendTextMessage", "s60"),
    ("Http", "request", "webview"),
];

/// Times `ops` metric-recording operations in both shapes against one
/// registry: the per-call-lookup baseline first, then the cached-handle
/// path the traced decorators use.
pub fn run_hotpath_comparison(ops: u64) -> Vec<HotpathRow> {
    let registry = MetricsRegistry::new();

    // Baseline: what the decorators paid before handle caching — a
    // fresh label set plus a full registry lookup per recorded call.
    let started = Instant::now();
    for i in 0..ops {
        let (proxy, method, platform) = SERIES[(i % SERIES.len() as u64) as usize];
        let labels = Labels::call(proxy, method, platform);
        registry.counter("proxy_calls_total", &labels).inc();
        registry.counter("proxy_errors_total", &labels).add(0);
        registry.histogram("proxy_call_ms", &labels).record(i % 32);
    }
    let lookup_secs = started.elapsed().as_secs_f64();

    // Cached handles: resolve once (the wiring-time path), then record
    // through pure atomics.
    struct Handles {
        calls: Counter,
        errors: Counter,
        latency: Histogram,
    }
    let handles: Vec<Handles> = SERIES
        .iter()
        .map(|&(proxy, method, platform)| {
            let labels = Labels::call(proxy, method, platform);
            Handles {
                calls: registry.counter("proxy_calls_total", &labels),
                errors: registry.counter("proxy_errors_total", &labels),
                latency: registry.histogram("proxy_call_ms", &labels),
            }
        })
        .collect();
    let started = Instant::now();
    for i in 0..ops {
        let handle = &handles[(i % SERIES.len() as u64) as usize];
        handle.calls.inc();
        handle.errors.add(0);
        handle.latency.record(i % 32);
    }
    let cached_secs = started.elapsed().as_secs_f64();

    let rate = |secs: f64| {
        if secs > 0.0 {
            ops as f64 / secs
        } else {
            f64::INFINITY
        }
    };
    vec![
        HotpathRow {
            mode: "per-call-lookup",
            ops,
            wall_ops_per_sec: rate(lookup_secs),
        },
        HotpathRow {
            mode: "cached-handles",
            ops,
            wall_ops_per_sec: rate(cached_secs),
        },
    ]
}

/// The cached-over-lookup speedup factor, when both rows are present.
pub fn hotpath_speedup(rows: &[HotpathRow]) -> Option<f64> {
    let lookup = rows.iter().find(|r| r.mode == "per-call-lookup")?;
    let cached = rows.iter().find(|r| r.mode == "cached-handles")?;
    if lookup.wall_ops_per_sec > 0.0 {
        Some(cached.wall_ops_per_sec / lookup.wall_ops_per_sec)
    } else {
        None
    }
}

/// Renders the recording-path comparison, including the speedup line
/// the acceptance gate reads.
pub fn render_hotpath_table(rows: &[HotpathRow]) -> String {
    let mut out = String::new();
    out.push_str("Telemetry recording path (wall clock; 1 op = 2 counters + 1 histogram)\n");
    out.push_str("mode             |      ops |    ops/sec\n");
    out.push_str("-----------------+----------+-----------\n");
    for row in rows {
        out.push_str(&format!(
            "{:<16} | {:>8} | {:>10.0}\n",
            row.mode, row.ops, row.wall_ops_per_sec,
        ));
    }
    if let Some(speedup) = hotpath_speedup(rows) {
        out.push_str(&format!(
            "cached-handle speedup over per-call lookup: {speedup:.1}x\n"
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cached_handles_clear_the_speedup_bar() {
        let rows = run_hotpath_comparison(200_000);
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].mode, "per-call-lookup");
        assert_eq!(rows[1].mode, "cached-handles");
        let speedup = hotpath_speedup(&rows).expect("both rows present");
        assert!(
            speedup >= 5.0,
            "cached handles must be >= 5x the per-call-lookup baseline, got {speedup:.1}x"
        );
    }

    #[test]
    fn both_paths_record_the_same_series() {
        // The baseline and cached loops above hit the same registry, so
        // run each against a private one and compare exports.
        let lookup = MetricsRegistry::new();
        let cached = MetricsRegistry::new();
        let labels = Labels::call("Location", "getLocation", "android");
        let handle = cached.counter("proxy_calls_total", &labels);
        for _ in 0..10 {
            lookup.counter("proxy_calls_total", &labels).inc();
            handle.inc();
        }
        assert_eq!(
            lookup.counter_value("proxy_calls_total", &labels),
            cached.counter_value("proxy_calls_total", &labels),
        );
        assert_eq!(lookup.render_prometheus(), cached.render_prometheus());
    }

    #[test]
    fn fleet_ablation_keeps_the_checksum() {
        use crate::fleet_bench::{check, run_scenario, scenarios, Sweep};

        let sweep = Sweep {
            devices: 24,
            shards: vec![2],
            workers: 2,
            rounds: 1,
            ops_per_round: 1,
            seed: 3,
        };
        let scaling = scenarios(&sweep)
            .into_iter()
            .find(|s| s.name == "scaling")
            .expect("scaling is declared");
        let rows = run_scenario(&scaling);
        let arms: Vec<&str> = rows.iter().map(|r| r.arm.as_str()).collect();
        assert_eq!(arms, ["shards2", "traced"]);
        assert!(!scaling.arms[0].config.telemetry);
        assert!(scaling.arms[1].config.telemetry);
        assert_eq!(
            rows[0].checksum, rows[1].checksum,
            "telemetry must not change what the fleet computes"
        );
        assert_eq!(rows[0].ops, rows[1].ops);
        check(&scaling, &rows).unwrap_or_else(|e| panic!("{e}"));
    }

    #[test]
    fn hotpath_table_renders_both_modes() {
        let table = render_hotpath_table(&run_hotpath_comparison(10_000));
        assert!(table.contains("per-call-lookup"));
        assert!(table.contains("cached-handles"));
        assert!(table.contains("speedup"));
    }
}
