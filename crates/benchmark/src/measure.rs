//! One workload or the ladder, measured in-process and written up as a
//! result document. The binary runs each of these in its own child
//! process so peak RSS is per workload.

use std::path::Path;
use std::time::Instant;

use serde_json::Value;

use crate::alloc_count;
use crate::ladder::{self, LadderConfig};
use crate::report::{metrics_object, number, object};
use crate::trace::{validate_spans, write_chrome_trace, SpanSink, SpanTotals, Untraced};
use crate::workload::{Fleet, Sizes, Tally, Workload};

/// Set-up repeats until at least this many builds ...
const MIN_BUILDS: usize = 3;
/// ... and at least this much build time, in seconds.
const MIN_SETUP_S: f64 = 1.0;

/// Peak resident set (`VmHWM`) of this process, MiB; NaN where
/// `/proc/self/status` is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|line| line.strip_prefix("VmHWM:"))
                .and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

fn tally_value(tally: &Tally) -> Value {
    object([
        ("attempted", number(tally.attempted as f64)),
        ("errors", number(tally.errors as f64)),
        ("failed", number(tally.failed as f64)),
        ("post_ok", number(tally.post_ok as f64)),
        ("fixes", number(tally.fixes as f64)),
        ("sms_ok", number(tally.sms_ok as f64)),
        ("tasks_ok", number(tally.tasks_ok as f64)),
    ])
}

fn median(values: impl Iterator<Item = f64>) -> f64 {
    ladder::median(&values.collect::<Vec<_>>())
}

fn ratio(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

/// The traced replay of the round prefix.
struct TracedPass {
    wall_s: f64,
    tally: Tally,
    totals: SpanTotals,
    allocations: u64,
    trace_file: String,
    /// The span count, or why the spans do not nest.
    nesting: Result<usize, String>,
}

/// Builds, runs and (when `traced`) replays the prefix of `workload`,
/// returning its result document. The trace goes to
/// `<trace_dir>/<workload>.trace.json`.
///
/// # Errors
///
/// A description of a set-up failure or an unwritable trace.
pub fn measure_workload(
    workload: Workload,
    seed: u64,
    sizes: Sizes,
    traced: bool,
    trace_dir: &Path,
) -> Result<Value, String> {
    let build = || {
        Fleet::build(workload, seed, sizes.devices, sizes.rounds)
            .map_err(|e| format!("{}: set-up failed: {e}", workload.name()))
    };
    // Set-up is timed several times; the last build is the one that
    // runs. The previous fleet is dropped before the next is built.
    let mut builds: Vec<[f64; 3]> = Vec::new();
    let mut fleet = None;
    while builds.len() < MIN_BUILDS || builds.iter().map(|b| b[0]).sum::<f64>() < MIN_SETUP_S {
        drop(fleet.take());
        let started = Instant::now();
        let built = build()?;
        builds.push([
            started.elapsed().as_secs_f64(),
            built.devices_s,
            built.runtimes_s,
        ]);
        fleet = Some(built);
    }
    let fleet = fleet.expect("at least one build");
    let (run, _) = fleet.run(seed, sizes, sizes.rounds, sizes.prefix_rounds(), |_, _| {
        Untraced
    });
    // Set-up makes no proxy calls, so the counters are the run's own.
    let counters = fleet.counters();
    let rss_mb = peak_rss_mb();
    let server_tracks = fleet.server_tracks();
    let server_keys = fleet.server_distinct_keys();
    drop(fleet);

    let traced_pass = if traced {
        let fleet = build()?;
        let prefix = sizes.prefix_rounds();
        let origin = Instant::now();
        let ((stats, sinks), allocations) = alloc_count::count(|| {
            fleet.run(seed, sizes, prefix, prefix, |caller, range| {
                SpanSink::new(
                    origin,
                    caller as u32,
                    SpanSink::capacity_for(range, sizes.ops_per_round, prefix),
                )
            })
        });
        let mut totals = SpanTotals::default();
        for sink in &sinks {
            totals.merge(&sink.totals());
        }
        let nesting = validate_spans(sinks.iter().flat_map(|s| s.records()));
        let path = trace_dir.join(format!("{}.trace.json", workload.name()));
        write_chrome_trace(&path, &sinks)
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        Some(TracedPass {
            wall_s: stats.wall_s,
            tally: stats.tally,
            totals,
            allocations,
            trace_file: path.display().to_string(),
            nesting,
        })
    } else {
        None
    };

    let attempted = run.tally.attempted;
    let per_op = |count: u64| ratio(count, attempted);
    let mut metrics: Vec<(&str, f64, &str)> = vec![
        ("setup_s", median(builds.iter().map(|b| b[0])), "s"),
        ("ops_per_s", run.ops_per_s(), "ops/s"),
        ("call_p50_us", run.latency.quantile(0.50) / 1e3, "us"),
        ("call_p99_us", run.latency.quantile(0.99) / 1e3, "us"),
        (
            "success_ratio",
            per_op(attempted - run.tally.errors),
            "fraction",
        ),
        ("peak_rss_mb", rss_mb, "MiB"),
        (
            "cache.hit_ratio",
            ratio(counters.cache_hits, counters.cache_lookups),
            "fraction",
        ),
        (
            "bridge.crossings_per_op",
            per_op(counters.crossings),
            "count/op",
        ),
        (
            "journal.appends_per_op",
            per_op(counters.journal_appends),
            "count/op",
        ),
        (
            "journal.fsyncs_per_op",
            per_op(counters.journal_fsyncs),
            "count/op",
        ),
        ("server.checkpoints", counters.checkpoints as f64, "count"),
        (
            "resilience.retries_per_op",
            per_op(counters.retries),
            "count/op",
        ),
        (
            "resilience.fallbacks_per_op",
            per_op(counters.fallbacks),
            "count/op",
        ),
        ("overload.shed_ratio", per_op(counters.shed), "fraction"),
        ("setup.devices_s", median(builds.iter().map(|b| b[1])), "s"),
        ("setup.runtimes_s", median(builds.iter().map(|b| b[2])), "s"),
    ];
    if let Some(pass) = &traced_pass {
        let ops = pass.totals.ops;
        metrics.extend([
            (
                "trace.resolve_ns_per_op",
                ratio(pass.totals.resolve_ns, ops),
                "ns",
            ),
            (
                "trace.call_ns_per_op",
                ratio(pass.totals.call_ns, ops),
                "ns",
            ),
            (
                "trace.advance_ns_per_op",
                ratio(pass.totals.advance_ns, ops),
                "ns",
            ),
            (
                "trace.overhead_ratio",
                pass.wall_s / run.prefix_wall_s,
                "ratio",
            ),
            ("allocs_per_op", ratio(pass.allocations, ops), "count/op"),
        ]);
    }
    let counts = object([
        ("attempted", number(attempted as f64)),
        ("errors", number(run.tally.errors as f64)),
        ("failed", number(run.tally.failed as f64)),
        ("post_ok", number(run.tally.post_ok as f64)),
        ("server_tracks", number(server_tracks as f64)),
        (
            "server_distinct_keys",
            server_keys.map_or(Value::Null, |k| number(k as f64)),
        ),
        ("samples", number(run.latency.count() as f64)),
        (
            "samples_beyond_p99",
            number(run.latency.beyond(0.99) as f64),
        ),
        ("builds", number(builds.len() as f64)),
        ("wall_s", number(run.wall_s)),
        ("prefix_untraced", tally_value(&run.prefix_tally)),
        (
            "prefix_traced",
            traced_pass
                .as_ref()
                .map_or(Value::Null, |p| tally_value(&p.tally)),
        ),
    ]);
    Ok(object([
        ("workload", Value::String(workload.name().into())),
        ("seed", number(seed as f64)),
        ("devices", number(sizes.devices as f64)),
        ("ops_per_round", number(sizes.ops_per_round as f64)),
        ("rounds", number(sizes.rounds as f64)),
        ("prefix_rounds", number(sizes.prefix_rounds() as f64)),
        ("counts", counts),
        (
            "trace_file",
            traced_pass
                .as_ref()
                .map_or(Value::Null, |p| Value::String(p.trace_file.clone())),
        ),
        (
            "trace_spans",
            match traced_pass.as_ref().map(|p| &p.nesting) {
                Some(Ok(spans)) => number(*spans as f64),
                Some(Err(e)) => Value::String(e.clone()),
                None => Value::Null,
            },
        ),
        ("metrics", metrics_object(metrics)),
    ]))
}

/// Runs the ladder and returns its result document.
pub fn measure_ladder(config: LadderConfig) -> Value {
    let result = ladder::run(config);
    object([
        ("attempted", number(result.attempted as f64)),
        ("failed", number(result.failed as f64)),
        ("blocks", number(config.blocks as f64)),
        ("calls_per_block", number(config.calls as f64)),
        (
            "metrics",
            metrics_object(result.metrics.iter().map(|(n, v)| (n.as_str(), *v, "ns"))),
        ),
        (
            "absolute_ns",
            object(result.absolute.iter().map(|(l, v)| (l.clone(), number(*v)))),
        ),
    ])
}
