//! Figure 10 regeneration.
//!
//! The paper times `addProximityAlert`, `getLocation` and `sendSMS`
//! with and without proxies on Android, Android WebView and Nokia S60,
//! averaging ten executions per API. The native costs are calibrated to
//! the paper's bars (see [`mobivine_device::latency`]); the proxy
//! overhead on top is genuinely measured Rust.

use std::fmt;
use std::str::FromStr;
use std::time::Instant;

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

impl FromStr for Scale {
    type Err = String;

    /// Parses the name [`Scale::as_str`] prints.
    fn from_str(name: &str) -> Result<Self, String> {
        [Scale::Paper, Scale::Bench, Scale::ZeroCost]
            .into_iter()
            .find(|scale| scale.as_str() == name)
            .ok_or_else(|| format!("unknown scale {name:?}, expected paper, bench or zero"))
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
        // With native costs zeroed, the resilient path is pure layer
        // bookkeeping — like the plain proxy it must stay well under a
        // millisecond per call on any host.
        let android = AndroidFixture::new(Scale::ZeroCost.android());
        let webview = WebViewFixture::new(Scale::ZeroCost.webview());
        let s60 = S60Fixture::new(Scale::ZeroCost.s60());
        let paths: [(&str, &dyn Fn()); 3] = [
            ("Android", &|| android.resilient_get_location()),
            ("Android WebView", &|| webview.resilient_get_location()),
            ("Nokia S60", &|| s60.resilient_get_location()),
        ];
        for (platform, path) in paths {
            let stats = measure(5, path);
            assert!(
                stats.mean_ms < 5.0,
                "{platform} resilient path took {} ms",
                stats.mean_ms
            );
        }
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
    fn render_table_includes_all_rows() {
        let rows = run_figure10(Scale::ZeroCost, 1);
        let table = render_table(&rows);
        assert!(table.contains("Android WebView"));
        assert!(table.contains("Nokia S60"));
        assert!(table.contains("addProximityAlert"));
        assert_eq!(table.lines().count(), 2 + 9);
    }
}
