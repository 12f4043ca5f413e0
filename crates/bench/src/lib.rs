#![warn(missing_docs)]
//! Benchmark harness for the MobiVine evaluation (paper §5).
//!
//! [`figure10`] regenerates the paper's only quantitative artifact —
//! Figure 10, "Time taken for invoking APIs on Android, Android WebView
//! and Nokia S60" with and without proxies — by timing real invocations
//! against each simulated platform with its native-API cost calibrated
//! to the paper's measurements. [`harness`] holds the per-platform
//! setup shared by the report binary and the Criterion benches.
//! [`fleet_bench`] declares the fleet scenarios as data.

pub mod bridge_overhead;
pub mod figure10;
pub mod fleet_bench;
pub mod harness;
pub mod summary;
pub mod telemetry_hotpath;

pub use figure10::{
    measure, run_figure10, run_resilience_overhead, run_telemetry_overhead, Figure10Row,
    LatencyStats, ResilienceOverheadRow, Scale, TelemetryOverheadRow,
};
pub use fleet_bench::{
    check, run_resolution_comparison, run_scenario, scenarios, ResolutionRow, Row, Scenario, Sweep,
    SCENARIOS,
};
pub use summary::{
    fleet_summary_json, parse_fleet_json, summary_json, validate_fleet_json, validate_summary_json,
    FleetSummary, SummaryCheck,
};
pub use telemetry_hotpath::{hotpath_speedup, run_hotpath_comparison, HotpathRow};
