//! Figure 10 regeneration.
//!
//! The paper times `addProximityAlert`, `getLocation` and `sendSMS`
//! with and without proxies on Android, Android WebView and Nokia S60,
//! averaging ten executions per API. The native costs are calibrated to
//! the paper's bars (see [`mobivine_device::latency`]); the proxy
//! overhead on top is genuinely measured Rust.

use std::fmt;
use std::time::Instant;

use mobivine_apps::fleet::{DurabilityFleetConfig, Fleet, FleetConfig};
use mobivine_device::latency::LatencyModel;
use mobivine_telemetry::Histogram;

use crate::harness::{AndroidFixture, S60Fixture, WebViewFixture};

/// Which latency calibration a run uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Millisecond-scale native costs, exactly the paper's Figure 10
    /// values — a full run takes a few seconds of wall time.
    Paper,
    /// The same values read as microseconds — for Criterion runs.
    Bench,
    /// Zero native cost — isolates pure proxy overhead (the ablation).
    ZeroCost,
}

impl Scale {
    /// Stable machine-readable name, as stamped into the JSON summary.
    pub fn as_str(&self) -> &'static str {
        match self {
            Scale::Paper => "paper",
            Scale::Bench => "bench",
            Scale::ZeroCost => "zero",
        }
    }

    fn android(&self) -> LatencyModel {
        match self {
            Scale::Paper => LatencyModel::paper_android(),
            Scale::Bench => LatencyModel::bench_android(),
            Scale::ZeroCost => LatencyModel::zero(),
        }
    }

    fn webview(&self) -> LatencyModel {
        match self {
            Scale::Paper => LatencyModel::paper_webview(),
            Scale::Bench => LatencyModel::bench_webview(),
            Scale::ZeroCost => LatencyModel::zero(),
        }
    }

    fn s60(&self) -> LatencyModel {
        match self {
            Scale::Paper => LatencyModel::paper_s60(),
            Scale::Bench => LatencyModel::bench_s60(),
            Scale::ZeroCost => LatencyModel::zero(),
        }
    }
}

/// Latency distribution of one measured call path, derived from a
/// log-bucketed telemetry [`Histogram`] of per-call wall-clock
/// microseconds (the paper reports means; the histogram additionally
/// yields tail quantiles).
#[derive(Debug, Clone, PartialEq)]
pub struct LatencyStats {
    /// Arithmetic mean per call, ms.
    pub mean_ms: f64,
    /// Median per-call time, ms.
    pub p50_ms: f64,
    /// 95th-percentile per-call time, ms.
    pub p95_ms: f64,
    /// 99th-percentile per-call time, ms.
    pub p99_ms: f64,
}

impl LatencyStats {
    /// Derives the table entries from a histogram of microsecond
    /// samples.
    pub fn from_histogram_us(histogram: &Histogram) -> Self {
        const US_PER_MS: f64 = 1000.0;
        Self {
            mean_ms: histogram.mean() / US_PER_MS,
            p50_ms: histogram.quantile(0.5) / US_PER_MS,
            p95_ms: histogram.quantile(0.95) / US_PER_MS,
            p99_ms: histogram.quantile(0.99) / US_PER_MS,
        }
    }
}

/// One bar pair of Figure 10.
#[derive(Debug, Clone, PartialEq)]
pub struct Figure10Row {
    /// Platform label, as the figure prints it.
    pub platform: &'static str,
    /// API label, as the figure prints it.
    pub api: &'static str,
    /// Mean native invocation time, ms ("Without Proxy").
    pub without_proxy_ms: f64,
    /// Mean proxied invocation time, ms ("With Proxy").
    pub with_proxy_ms: f64,
    /// The paper's reported values `(without, with)` for comparison.
    pub paper_ms: (f64, f64),
    /// Full latency distribution of the native path.
    pub without_stats: LatencyStats,
    /// Full latency distribution of the proxied path.
    pub with_stats: LatencyStats,
}

impl Figure10Row {
    /// Relative proxy overhead of the measured pair.
    pub fn overhead_fraction(&self) -> f64 {
        if self.without_proxy_ms <= 0.0 {
            return 0.0;
        }
        (self.with_proxy_ms - self.without_proxy_ms) / self.without_proxy_ms
    }
}

impl fmt::Display for Figure10Row {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:<16} {:<18} {:>10.3} {:>10.3} {:>8.1}% (paper: {:.1} / {:.1})",
            self.platform,
            self.api,
            self.without_proxy_ms,
            self.with_proxy_ms,
            self.overhead_fraction() * 100.0,
            self.paper_ms.0,
            self.paper_ms.1,
        )
    }
}

/// Times `f` over `runs` executions, recording each call's wall-clock
/// duration in microseconds into a telemetry [`Histogram`], and derives
/// the latency table from it — mean (the paper's "average of ten
/// executions") plus p50/p95/p99 tails.
pub fn measure<F: FnMut()>(runs: u32, mut f: F) -> LatencyStats {
    let histogram = Histogram::new();
    for _ in 0..runs {
        let start = Instant::now();
        f();
        histogram.record(start.elapsed().as_micros() as u64);
    }
    LatencyStats::from_histogram_us(&histogram)
}

/// Mean per-call time in milliseconds over `runs` executions — a thin
/// wrapper over [`measure`] for call sites that only need the mean.
pub fn mean_ms<F: FnMut()>(runs: u32, f: F) -> f64 {
    measure(runs, f).mean_ms
}

/// The paper's Figure 10 values, `(platform, api, without, with)`.
pub const PAPER_VALUES: [(&str, &str, f64, f64); 9] = [
    ("Android", "addProximityAlert", 53.6, 55.4),
    ("Android", "getLocation", 15.5, 17.3),
    ("Android", "sendSMS", 52.7, 55.8),
    ("Android WebView", "addProximityAlert", 78.4, 80.5),
    ("Android WebView", "getLocation", 120.0, 121.7),
    ("Android WebView", "sendSMS", 91.6, 91.8),
    ("Nokia S60", "addProximityAlert", 141.0, 146.8),
    ("Nokia S60", "getLocation", 140.8, 148.5),
    ("Nokia S60", "sendSMS", 15.6, 16.1),
];

fn paper_pair(platform: &str, api: &str) -> (f64, f64) {
    PAPER_VALUES
        .iter()
        .find(|(p, a, _, _)| *p == platform && *a == api)
        .map(|(_, _, w, wp)| (*w, *wp))
        .expect("paper table covers all nine pairs")
}

/// Measures one bar pair: both paths go through [`measure`], so the
/// printed means and the JSON quantiles come from the same histograms.
fn measure_row<W: FnMut(), P: FnMut()>(
    platform: &'static str,
    api: &'static str,
    runs: u32,
    without_f: W,
    with_f: P,
) -> Figure10Row {
    let without_stats = measure(runs, without_f);
    let with_stats = measure(runs, with_f);
    Figure10Row {
        platform,
        api,
        without_proxy_ms: without_stats.mean_ms,
        with_proxy_ms: with_stats.mean_ms,
        paper_ms: paper_pair(platform, api),
        without_stats,
        with_stats,
    }
}

/// Runs the full Figure 10 measurement: nine (platform, API) pairs,
/// each averaged over `runs` executions, at the given scale.
pub fn run_figure10(scale: Scale, runs: u32) -> Vec<Figure10Row> {
    let mut rows = Vec::with_capacity(9);

    let android = AndroidFixture::new(scale.android());
    rows.push(measure_row(
        "Android",
        "addProximityAlert",
        runs,
        || android.native_add_proximity_alert(),
        || android.proxy_add_proximity_alert(),
    ));
    rows.push(measure_row(
        "Android",
        "getLocation",
        runs,
        || android.native_get_location(),
        || android.proxy_get_location(),
    ));
    rows.push(measure_row(
        "Android",
        "sendSMS",
        runs,
        || android.native_send_sms(),
        || android.proxy_send_sms(),
    ));

    let webview = WebViewFixture::new(scale.webview());
    rows.push(measure_row(
        "Android WebView",
        "addProximityAlert",
        runs,
        || webview.native_add_proximity_alert(),
        || webview.proxy_add_proximity_alert(),
    ));
    rows.push(measure_row(
        "Android WebView",
        "getLocation",
        runs,
        || webview.native_get_location(),
        || webview.proxy_get_location(),
    ));
    rows.push(measure_row(
        "Android WebView",
        "sendSMS",
        runs,
        || webview.native_send_sms(),
        || webview.proxy_send_sms(),
    ));

    let s60 = S60Fixture::new(scale.s60());
    rows.push(measure_row(
        "Nokia S60",
        "addProximityAlert",
        runs,
        || s60.native_add_proximity_alert(),
        || s60.proxy_add_proximity_alert(),
    ));
    rows.push(measure_row(
        "Nokia S60",
        "getLocation",
        runs,
        || s60.native_get_location(),
        || s60.proxy_get_location(),
    ));
    rows.push(measure_row(
        "Nokia S60",
        "sendSMS",
        runs,
        || s60.native_send_sms(),
        || s60.proxy_send_sms(),
    ));

    rows
}

/// One row of the resilience-overhead ablation: `getLocation` on one
/// platform — native, through the plain proxy, and through the proxy
/// wrapped by the resilience layer (retry/circuit bookkeeping on the
/// happy path, no faults injected).
#[derive(Debug, Clone, PartialEq)]
pub struct ResilienceOverheadRow {
    /// Platform label, as the figure prints it.
    pub platform: &'static str,
    /// Mean native invocation time, ms.
    pub native_ms: f64,
    /// Mean plain-proxy invocation time, ms.
    pub proxy_ms: f64,
    /// Mean resilient-proxy invocation time, ms.
    pub resilient_ms: f64,
}

impl fmt::Display for ResilienceOverheadRow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:<16} {:>10.3} {:>10.3} {:>12.3}",
            self.platform, self.native_ms, self.proxy_ms, self.resilient_ms,
        )
    }
}

/// Measures the resilience-layer overhead on the happy path: the
/// `getLocation` cost native vs plain proxy vs resilient proxy on each
/// platform, averaged over `runs` executions.
pub fn run_resilience_overhead(scale: Scale, runs: u32) -> Vec<ResilienceOverheadRow> {
    let android = AndroidFixture::new(scale.android());
    let webview = WebViewFixture::new(scale.webview());
    let s60 = S60Fixture::new(scale.s60());
    vec![
        ResilienceOverheadRow {
            platform: "Android",
            native_ms: mean_ms(runs, || android.native_get_location()),
            proxy_ms: mean_ms(runs, || android.proxy_get_location()),
            resilient_ms: mean_ms(runs, || android.resilient_get_location()),
        },
        ResilienceOverheadRow {
            platform: "Android WebView",
            native_ms: mean_ms(runs, || webview.native_get_location()),
            proxy_ms: mean_ms(runs, || webview.proxy_get_location()),
            resilient_ms: mean_ms(runs, || webview.resilient_get_location()),
        },
        ResilienceOverheadRow {
            platform: "Nokia S60",
            native_ms: mean_ms(runs, || s60.native_get_location()),
            proxy_ms: mean_ms(runs, || s60.proxy_get_location()),
            resilient_ms: mean_ms(runs, || s60.resilient_get_location()),
        },
    ]
}

/// One row of the telemetry-overhead ablation: `getLocation` through
/// the plain proxy vs. through the proxy with the telemetry runtime
/// attached (spans at every plane, counters and a latency histogram
/// per call).
#[derive(Debug, Clone, PartialEq)]
pub struct TelemetryOverheadRow {
    /// Platform label, as the figure prints it.
    pub platform: &'static str,
    /// Mean uninstrumented proxy invocation time, ms.
    pub bare_ms: f64,
    /// Mean instrumented proxy invocation time, ms.
    pub instrumented_ms: f64,
}

impl TelemetryOverheadRow {
    /// Relative cost of the instrumentation.
    pub fn overhead_fraction(&self) -> f64 {
        if self.bare_ms <= 0.0 {
            return 0.0;
        }
        (self.instrumented_ms - self.bare_ms) / self.bare_ms
    }
}

impl fmt::Display for TelemetryOverheadRow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:<16} {:>10.3} {:>13.3}",
            self.platform, self.bare_ms, self.instrumented_ms,
        )
    }
}

/// Measures the telemetry-layer overhead: `getLocation` through the
/// plain proxy vs. the instrumented proxy on each platform, averaged
/// over `runs` executions.
pub fn run_telemetry_overhead(scale: Scale, runs: u32) -> Vec<TelemetryOverheadRow> {
    let android = AndroidFixture::new(scale.android());
    let webview = WebViewFixture::new(scale.webview());
    let s60 = S60Fixture::new(scale.s60());
    vec![
        TelemetryOverheadRow {
            platform: "Android",
            bare_ms: mean_ms(runs, || android.proxy_get_location()),
            instrumented_ms: mean_ms(runs, || android.instrumented_get_location()),
        },
        TelemetryOverheadRow {
            platform: "Android WebView",
            bare_ms: mean_ms(runs, || webview.proxy_get_location()),
            instrumented_ms: mean_ms(runs, || webview.instrumented_get_location()),
        },
        TelemetryOverheadRow {
            platform: "Nokia S60",
            bare_ms: mean_ms(runs, || s60.proxy_get_location()),
            instrumented_ms: mean_ms(runs, || s60.instrumented_get_location()),
        },
    ]
}

/// One arm of the journal-overhead ablation: the same deterministic
/// fleet traffic with durability off, with the write-ahead journal on
/// (intents + fsync barriers, no checkpoints, replay-from-genesis
/// recovery), and with per-apply checkpoints on top. The checksum must
/// be identical across all three arms — durability is bookkeeping, not
/// behaviour — and `wall_us_per_op` is what the bounded-overhead gate
/// compares.
#[derive(Debug, Clone, PartialEq)]
pub struct JournalOverheadRow {
    /// `off`, `journal` or `journal+checkpoints`.
    pub mode: &'static str,
    /// Total proxy operations issued.
    pub total_ops: u64,
    /// Operations that returned an error.
    pub errors: u64,
    /// Client-side journal intents appended (zero with durability off).
    pub client_appends: u64,
    /// Server checkpoints taken (zero below the checkpointed arm).
    pub checkpoints: u64,
    /// Determinism fingerprint — identical across all three arms.
    pub checksum: u64,
    /// Mean wall-clock cost per operation, µs (table + gate).
    pub wall_us_per_op: f64,
}

/// The journal ablation's fixed fleet configuration — the brownout/
/// cache comparisons' shape, kept independent of the sweep flags.
fn journal_arm_config(durability: Option<DurabilityFleetConfig>) -> FleetConfig {
    FleetConfig {
        devices: 30,
        shards: 4,
        workers: 3,
        rounds: 3,
        tick_ms: 1_000,
        ops_per_round: 2,
        seed: 11,
        read_heavy: false,
        cache: false,
        telemetry: false,
        span_retention: 16,
        incident_capacity: 256,
        slo: false,
        brownout: None,
        bridge_batch: None,
        durability,
        crash_plan: None,
    }
}

/// Runs the journal-overhead ablation: the same fleet traffic with
/// durability off, journal-only (`checkpoint_every = 0`), and journal +
/// per-apply checkpoints. Returns the arms in that order.
///
/// # Panics
///
/// Panics if a fleet cannot be built — a programming error here, the
/// configurations are fixed.
pub fn run_journal_ablation() -> Vec<JournalOverheadRow> {
    [
        ("off", None),
        (
            "journal",
            Some(DurabilityFleetConfig {
                checkpoint_every: 0,
            }),
        ),
        (
            "journal+checkpoints",
            Some(DurabilityFleetConfig {
                checkpoint_every: 1,
            }),
        ),
    ]
    .into_iter()
    .map(|(mode, durability)| {
        let fleet =
            Fleet::build(journal_arm_config(durability)).expect("ablation configuration is valid");
        let started = Instant::now();
        let report = fleet.run();
        let wall_us = started.elapsed().as_secs_f64() * 1_000_000.0;
        let digest = report.recovery.as_ref();
        JournalOverheadRow {
            mode,
            total_ops: report.total_ops,
            errors: report.errors,
            client_appends: digest.map_or(0, |d| d.client_appends),
            checkpoints: digest.map_or(0, |d| d.checkpoints),
            checksum: report.checksum,
            wall_us_per_op: if report.total_ops > 0 {
                wall_us / report.total_ops as f64
            } else {
                0.0
            },
        }
    })
    .collect()
}

/// The fully durable arm's per-op wall cost relative to the
/// durability-off arm, when all three arms are present with identical
/// checksums. `None` signals a missing arm or a checksum drift — the
/// ablation is only meaningful when durability changed nothing the
/// fleet computes.
pub fn journal_overhead_factor(rows: &[JournalOverheadRow]) -> Option<f64> {
    let off = rows.iter().find(|r| r.mode == "off")?;
    let journal = rows.iter().find(|r| r.mode == "journal")?;
    let checkpointed = rows.iter().find(|r| r.mode == "journal+checkpoints")?;
    if journal.checksum != off.checksum || checkpointed.checksum != off.checksum {
        return None;
    }
    if journal.client_appends == 0 || checkpointed.checkpoints == 0 {
        return None;
    }
    if off.wall_us_per_op > 0.0 {
        Some(checkpointed.wall_us_per_op / off.wall_us_per_op)
    } else {
        None
    }
}

/// Renders the journal-overhead table the `figure10` binary prints
/// below the bridge-marshalling ablation.
pub fn render_journal_table(rows: &[JournalOverheadRow]) -> String {
    let mut out = String::new();
    out.push_str("Journal overhead — same fleet traffic, durability off vs on vs on+checkpoints\n");
    out.push_str("mode                |   ops   | errors | appends | checkpoints |     checksum     | wall µs/op\n");
    out.push_str("--------------------+---------+--------+---------+-------------+------------------+-----------\n");
    for row in rows {
        out.push_str(&format!(
            "{:<19} | {:>7} | {:>6} | {:>7} | {:>11} | {:016x} | {:>10.2}\n",
            row.mode,
            row.total_ops,
            row.errors,
            row.client_appends,
            row.checkpoints,
            row.checksum,
            row.wall_us_per_op,
        ));
    }
    if let Some(factor) = journal_overhead_factor(rows) {
        out.push_str(&format!(
            "durable per-op cost over the undurable baseline: {factor:.2}x\n"
        ));
    }
    out
}

/// Renders the telemetry-overhead table the `figure10` binary prints
/// below the resilience table.
pub fn render_telemetry_table(rows: &[TelemetryOverheadRow]) -> String {
    let mut out = String::new();
    out.push_str("Telemetry overhead — getLocation, proxy path, spans + metrics per call\n");
    out.push_str(&format!(
        "{:<16} {:>10} {:>13}\n",
        "Platform", "proxy", "proxy+spans"
    ));
    for row in rows {
        out.push_str(&row.to_string());
        out.push('\n');
    }
    out
}

/// Renders the resilience-overhead table the `figure10` binary prints
/// below Figure 10 proper.
pub fn render_resilience_table(rows: &[ResilienceOverheadRow]) -> String {
    let mut out = String::new();
    out.push_str("Resilience overhead — getLocation, happy path (no faults injected)\n");
    out.push_str(&format!(
        "{:<16} {:>10} {:>10} {:>12}\n",
        "Platform", "native", "proxy", "proxy+retry"
    ));
    for row in rows {
        out.push_str(&row.to_string());
        out.push('\n');
    }
    out
}

/// Renders the table the `figure10` binary prints.
pub fn render_table(rows: &[Figure10Row]) -> String {
    let mut out = String::new();
    out.push_str(
        "Figure 10 — Time taken for invoking APIs on Android, Android WebView and Nokia S60\n",
    );
    out.push_str(&format!(
        "{:<16} {:<18} {:>10} {:>10} {:>9}\n",
        "Platform", "API", "w/o proxy", "w/ proxy", "overhead"
    ));
    for row in rows {
        out.push_str(&row.to_string());
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_table_has_nine_pairs_all_with_small_overhead() {
        assert_eq!(PAPER_VALUES.len(), 9);
        for (_, _, without, with) in PAPER_VALUES {
            assert!(with > without, "the paper's proxy always costs something");
            let overhead = (with - without) / without;
            assert!(overhead < 0.12, "paper overhead is under 12%: {overhead}");
        }
    }

    #[test]
    fn zero_cost_run_measures_pure_proxy_overhead() {
        // With native costs zeroed, everything is proxy overhead — it
        // must be tiny in absolute terms (well under a millisecond per
        // call on any host).
        let rows = run_figure10(Scale::ZeroCost, 5);
        assert_eq!(rows.len(), 9);
        for row in &rows {
            assert!(
                row.with_proxy_ms < 5.0,
                "{} {} proxy path took {} ms",
                row.platform,
                row.api,
                row.with_proxy_ms
            );
        }
    }

    #[test]
    fn bench_scale_reproduces_the_figures_shape() {
        // At bench scale (µs-calibrated native costs) the proxied path
        // must cost at least as much as the native path in aggregate —
        // the proxy adds work, it cannot remove any. Aggregated across
        // all nine pairs with a tolerance so scheduler noise under
        // parallel test execution cannot flake the assertion. A
        // preempted sample can still outweigh the tolerance, so each
        // arm's total is the fastest of three runs: preemption only ever
        // adds time, and a real inversion survives the minimum.
        let runs: Vec<(f64, f64)> = (0..3)
            .map(|_| {
                let rows = run_figure10(Scale::Bench, 30);
                let native: f64 = rows.iter().map(|r| r.without_proxy_ms).sum();
                let proxied: f64 = rows.iter().map(|r| r.with_proxy_ms).sum();
                (native, proxied)
            })
            .collect();
        let native = runs.iter().map(|r| r.0).fold(f64::INFINITY, f64::min);
        let proxied = runs.iter().map(|r| r.1).fold(f64::INFINITY, f64::min);
        assert!(
            proxied >= native * 0.7,
            "fastest proxied total {proxied} ms vs fastest native total {native} ms \
             (native, proxied per run: {runs:?})"
        );
    }

    #[test]
    fn resilience_overhead_happy_path_is_small_in_absolute_terms() {
        // With native costs zeroed, the resilient path is pure
        // decorator bookkeeping — like the plain proxy it must stay
        // well under a millisecond per call on any host.
        let rows = run_resilience_overhead(Scale::ZeroCost, 5);
        assert_eq!(rows.len(), 3);
        for row in &rows {
            assert!(
                row.resilient_ms < 5.0,
                "{} resilient path took {} ms",
                row.platform,
                row.resilient_ms
            );
        }
    }

    #[test]
    fn render_resilience_table_has_one_row_per_platform() {
        let rows = run_resilience_overhead(Scale::ZeroCost, 1);
        let table = render_resilience_table(&rows);
        assert!(table.contains("proxy+retry"));
        assert!(table.contains("Android WebView"));
        assert!(table.contains("Nokia S60"));
        assert_eq!(table.lines().count(), 2 + 3);
    }

    #[test]
    fn measure_derives_ordered_quantiles_from_the_histogram() {
        let stats = measure(50, || {
            std::hint::black_box(0u64);
        });
        assert!(stats.p50_ms <= stats.p95_ms, "{stats:?}");
        assert!(stats.p95_ms <= stats.p99_ms, "{stats:?}");
        assert!(stats.mean_ms >= 0.0);
    }

    #[test]
    fn figure10_rows_carry_distribution_stats() {
        let rows = run_figure10(Scale::ZeroCost, 3);
        for row in &rows {
            assert!(
                (row.with_proxy_ms - row.with_stats.mean_ms).abs() < 1e-9,
                "table mean and histogram mean are the same number"
            );
            assert!(row.with_stats.p50_ms <= row.with_stats.p99_ms);
        }
    }

    #[test]
    fn telemetry_overhead_is_bounded_in_absolute_terms() {
        // With native costs zeroed, the instrumented path is pure span
        // + metric bookkeeping on top of the bare proxy path — it must
        // stay well under a millisecond per call on any host.
        let rows = run_telemetry_overhead(Scale::ZeroCost, 5);
        assert_eq!(rows.len(), 3);
        for row in &rows {
            assert!(
                row.instrumented_ms < 5.0,
                "{} instrumented path took {} ms",
                row.platform,
                row.instrumented_ms
            );
        }
    }

    #[test]
    fn render_telemetry_table_has_one_row_per_platform() {
        let rows = run_telemetry_overhead(Scale::ZeroCost, 1);
        let table = render_telemetry_table(&rows);
        assert!(table.contains("proxy+spans"));
        assert!(table.contains("Android WebView"));
        assert!(table.contains("Nokia S60"));
        assert_eq!(table.lines().count(), 2 + 3);
    }

    #[test]
    fn journal_ablation_arms_agree_and_bound_the_overhead() {
        let rows = run_journal_ablation();
        assert_eq!(rows.len(), 3);
        let off = &rows[0];
        assert_eq!(off.mode, "off");
        assert_eq!(off.client_appends, 0, "no journal, no appends");
        for row in &rows[1..] {
            assert_eq!(
                row.checksum, off.checksum,
                "durability changed what the fleet computes: {row:?}"
            );
            assert!(row.client_appends > 0, "{row:?}");
        }
        assert_eq!(rows[1].checkpoints, 0, "checkpoint_every=0 disables them");
        assert!(rows[2].checkpoints > 0, "per-apply checkpoints fire");
        let factor = journal_overhead_factor(&rows).expect("arms agree");
        assert!(
            factor.is_finite() && factor > 0.0 && factor < 10.0,
            "durable per-op cost {factor:.2}x blows the bounded-overhead gate"
        );

        let table = render_journal_table(&rows);
        assert!(table.contains("journal+checkpoints"), "{table}");
        assert!(table.contains("undurable baseline"), "{table}");
    }

    #[test]
    fn journal_overhead_factor_rejects_a_drifted_or_missing_arm() {
        let rows = run_journal_ablation();
        assert!(journal_overhead_factor(&rows[..2]).is_none());
        let mut drifted = rows.clone();
        drifted[2].checksum ^= 1;
        assert!(journal_overhead_factor(&drifted).is_none());
        let mut unjournalled = rows;
        unjournalled[1].client_appends = 0;
        assert!(journal_overhead_factor(&unjournalled).is_none());
    }

    #[test]
    fn render_table_includes_all_rows() {
        let rows = run_figure10(Scale::ZeroCost, 1);
        let table = render_table(&rows);
        assert!(table.contains("Android WebView"));
        assert!(table.contains("Nokia S60"));
        assert!(table.contains("addProximityAlert"));
        assert_eq!(table.lines().count(), 2 + 9);
    }
}
