//! Fleet benchmark: every declared fleet scenario, plus the
//! proxy-acquisition comparison.
//!
//! Usage: `cargo run -p mobivine-bench --bin fleet [--devices N]
//! [--shards A,B,C] [--workers N] [--rounds N] [--ops N] [--seed N]
//! [--json [PATH]] [--check PATH] [--compare PATH] [--scenario NAME]`
//!
//! Runs every scenario of [`SCENARIOS`] — the scaling sweep, which the
//! sizing flags shape, and the fixed-size brownout, cache, bridge and
//! crash comparisons — and the wall-clock resolution comparison
//! (per-call construction vs sharded + memoized), prints each
//! scenario's table with its gate verdicts, and exits non-zero if any
//! gate fails. `--json` writes the `mobivine.fleet.v7` summary instead
//! of the tables — deterministic for a fixed sweep — on stdout, or at
//! `PATH` when one follows the flag. `--check PATH` parses a summary and
//! evaluates every declared gate over its rows. `--scenario NAME` runs
//! one scenario, prints its table and exits non-zero if a gate fails.
//!
//! `--compare PATH` is the regression gate CI runs against the
//! committed baseline: every scenario is rebuilt from the baseline's
//! recorded sweep and re-run; every committed arm's checksum must
//! reproduce exactly, every gate must hold on the live rows, and every
//! arm must reach at least 75% of its recorded deterministic
//! throughput. The live proxy-acquisition and telemetry-recording
//! comparisons must both clear their 5x speedup bars.

use mobivine_bench::fleet_bench::{
    check, render, render_resolution_table, resolution_speedup, run_resolution_comparison,
    run_scenario, scenarios, Row, Sweep, SCENARIOS,
};
use mobivine_bench::summary::{fleet_summary_json, validate_fleet_json};
use mobivine_bench::telemetry_hotpath::{hotpath_speedup, run_hotpath_comparison};

/// What the command line asked for.
enum Mode {
    Run { json_out: Option<Option<String>> },
    Check(String),
    Compare(String),
    Scenario(String),
}

/// Re-runs every scenario of the baseline's sweep and the live speedup
/// gates.
fn compare_against_baseline(path: &str) -> Result<(), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let baseline = validate_fleet_json(&text)?;
    for scenario in scenarios(&baseline.sweep) {
        eprintln!("re-running scenario {} ...", scenario.name);
        let live = run_scenario(&scenario);
        check(&scenario, &live)?;
        for row in &live {
            let committed = baseline
                .rows
                .iter()
                .find(|b| b.scenario == row.scenario && b.arm == row.arm)
                .ok_or_else(|| format!("{}/{}: no committed row", row.scenario, row.arm))?;
            if row.checksum != committed.checksum {
                return Err(format!(
                    "{}/{}: checksum {:016x} != baseline {:016x} — the fleet no longer \
                     computes the same results",
                    row.scenario, row.arm, row.checksum, committed.checksum
                ));
            }
            let rate = |r: &Row| r.value("virtual_ops_per_sec").unwrap_or(0);
            if rate(row) < rate(committed) * 3 / 4 {
                return Err(format!(
                    "{}/{}: throughput {} ops/vsec is more than 25% below baseline {}",
                    row.scenario,
                    row.arm,
                    rate(row),
                    rate(committed)
                ));
            }
        }
    }
    let resolution = run_resolution_comparison(64, 20_000);
    let speedup = resolution_speedup(&resolution).ok_or("resolution comparison incomplete")?;
    if speedup < 5.0 {
        return Err(format!(
            "proxy-acquisition speedup {speedup:.1}x is below the 5x bar"
        ));
    }
    eprintln!("proxy-acquisition speedup: {speedup:.1}x");
    let hotpath = run_hotpath_comparison(200_000);
    let speedup = hotpath_speedup(&hotpath).ok_or("hotpath comparison incomplete")?;
    if speedup < 5.0 {
        return Err(format!(
            "telemetry cached-handle speedup {speedup:.1}x is below the 5x bar"
        ));
    }
    eprintln!("telemetry cached-handle speedup: {speedup:.1}x");
    Ok(())
}

/// Parses the flag value after `args[i]`, exiting with status 2 when it
/// is missing or malformed.
fn value<T: std::str::FromStr>(args: &[String], i: usize) -> T {
    match args.get(i + 1).map(|v| v.parse()) {
        Some(Ok(v)) => v,
        _ => {
            eprintln!("{} requires a valid value", args[i]);
            std::process::exit(2);
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let mut sweep = Sweep::default();
    let mut mode = Mode::Run { json_out: None };
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--devices" => sweep.devices = value(&args, i),
            "--workers" => sweep.workers = value(&args, i),
            "--rounds" => sweep.rounds = value(&args, i),
            "--ops" => sweep.ops_per_round = value(&args, i),
            "--seed" => sweep.seed = value(&args, i),
            "--shards" => {
                let list: String = value(&args, i);
                sweep.shards = list.split(',').map(|v| v.parse().unwrap_or(0)).collect();
            }
            "--check" => mode = Mode::Check(value(&args, i)),
            "--compare" => mode = Mode::Compare(value(&args, i)),
            "--scenario" => mode = Mode::Scenario(value(&args, i)),
            "--json" => {
                let path = args.get(i + 1).filter(|p| !p.starts_with("--")).cloned();
                i += if path.is_some() { 2 } else { 1 };
                mode = Mode::Run {
                    json_out: Some(path),
                };
                continue;
            }
            other => {
                eprintln!("unknown argument {other}");
                std::process::exit(2);
            }
        }
        i += 2;
    }
    if !sweep.is_runnable() {
        eprintln!("every sweep count must be a positive integer: {sweep:?}");
        std::process::exit(2);
    }

    match mode {
        Mode::Check(path) => {
            let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
                eprintln!("cannot read {path}: {e}");
                std::process::exit(1);
            });
            match validate_fleet_json(&text) {
                Ok(summary) => println!(
                    "{path}: valid ({} scenario rows), every gate holds",
                    summary.rows.len()
                ),
                Err(e) => {
                    eprintln!("{path}: invalid fleet summary:\n{e}");
                    std::process::exit(1);
                }
            }
        }
        Mode::Compare(path) => match compare_against_baseline(&path) {
            Ok(()) => println!("{path}: no regression against baseline"),
            Err(e) => {
                eprintln!("{path}: regression gate failed: {e}");
                std::process::exit(1);
            }
        },
        Mode::Scenario(name) => {
            let Some(scenario) = scenarios(&sweep).into_iter().find(|s| s.name == name) else {
                let names: Vec<&str> = scenarios(&sweep).iter().map(|s| s.name).collect();
                eprintln!("unknown scenario {name:?}; declared: {names:?}");
                std::process::exit(2);
            };
            let rows = run_scenario(&scenario);
            print!("{}", render(&scenario, &rows));
            if let Err(e) = check(&scenario, &rows) {
                println!("acceptance: FAIL\n{e}");
                std::process::exit(1);
            }
            println!("acceptance: PASS");
        }
        Mode::Run { json_out } => {
            eprintln!(
                "running {} fleet scenarios; sweep {sweep:?} ...",
                SCENARIOS.len()
            );
            let mut rows = Vec::new();
            let mut failures = Vec::new();
            for scenario in scenarios(&sweep) {
                let scenario_rows = run_scenario(&scenario);
                if json_out.is_none() {
                    println!("{}", render(&scenario, &scenario_rows));
                }
                failures.extend(check(&scenario, &scenario_rows).err());
                rows.extend(scenario_rows);
            }
            let resolution = run_resolution_comparison(sweep.devices.min(64), 50_000);
            match json_out {
                Some(target) => {
                    let json = fleet_summary_json(&sweep, &resolution, &rows);
                    match target {
                        Some(path) => {
                            if let Err(e) = std::fs::write(&path, &json) {
                                eprintln!("cannot write {path}: {e}");
                                std::process::exit(1);
                            }
                            eprintln!("wrote fleet summary to {path}");
                        }
                        None => println!("{json}"),
                    }
                }
                None => {
                    print!("{}", render_resolution_table(&resolution));
                    let speedup = resolution_speedup(&resolution).unwrap_or(0.0);
                    let verdict = if speedup >= 5.0 { "PASS" } else { "FAIL" };
                    println!("acceptance (>= 5x memoized speedup): {verdict}");
                }
            }
            if !failures.is_empty() {
                eprintln!("gates failed:\n{}", failures.join("\n"));
                std::process::exit(1);
            }
        }
    }
}
