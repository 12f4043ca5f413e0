#![warn(missing_docs)]
//! Benchmark harness for the MobiVine evaluation (paper §5).
//!
//! [`figure10`] regenerates the paper's only quantitative artifact —
//! Figure 10, "Time taken for invoking APIs on Android, Android WebView
//! and Nokia S60" with and without proxies — by timing each native call
//! and its proxied counterpart in nanoseconds on the simulated
//! platforms, beside the paper's handset milliseconds. [`harness`]
//! holds the per-platform fixtures it times. [`fleet_bench`] declares
//! the fleet scenarios as data.

pub mod figure10;
pub mod fleet_bench;
pub mod harness;
pub mod summary;

pub use figure10::{run_figure10, Figure10Row, Spread};
pub use fleet_bench::{check, run_scenario, scenarios, Row, Scenario, Sweep, SCENARIOS};
pub use summary::{
    compare, fleet_summary_json, parse_fleet_json, summary_json, validate_fleet_json,
    validate_summary_json, FleetSummary,
};

/// Parses the value after the command-line flag `args[i]`, exiting with
/// status 2 when it is missing or malformed. Shared by the bench
/// binaries.
pub fn flag_value<T: std::str::FromStr>(args: &[String], i: usize) -> T {
    match args.get(i + 1).map(|v| v.parse()) {
        Some(Ok(v)) => v,
        _ => {
            eprintln!("{} requires a valid value", args[i]);
            std::process::exit(2);
        }
    }
}
