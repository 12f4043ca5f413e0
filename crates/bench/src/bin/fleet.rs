//! Fleet benchmark: every declared fleet scenario.
//!
//! Usage: `cargo run -p mobivine-bench --bin fleet [--devices N]
//! [--shards A,B,C] [--workers N] [--rounds N] [--ops N] [--seed N]
//! [--json [PATH]] [--check PATH] [--compare PATH] [--scenario NAME]`
//!
//! Runs every scenario of [`SCENARIOS`] — the scaling sweep, which the
//! sizing flags shape, and the fixed-size brownout, cache, bridge, crash
//! and journal comparisons — prints each scenario's table with its gate
//! verdicts, and exits non-zero if any gate fails. `--json` writes the
//! `mobivine.fleet.v8` summary instead of the tables — deterministic for
//! a fixed sweep — on stdout, or at `PATH` when one follows the flag.
//! `--check PATH` parses a summary and evaluates every declared gate
//! over its rows. `--scenario NAME` runs one scenario, prints its table
//! and exits non-zero if a gate fails.
//!
//! `--compare PATH` is the determinism check CI runs against the
//! committed baseline: every scenario is rebuilt from the baseline's
//! recorded sweep and re-run, and every live row must equal its
//! committed row exactly, every counter included
//! ([`mobivine_bench::summary::compare`]).

use mobivine_bench::flag_value as value;
use mobivine_bench::fleet_bench::{check, render, run_scenario, scenarios, Sweep, SCENARIOS};
use mobivine_bench::summary::{compare, fleet_summary_json, validate_fleet_json};

/// What the command line asked for.
enum Mode {
    Run { json_out: Option<Option<String>> },
    Check(String),
    Compare(String),
    Scenario(String),
}

/// Re-runs every scenario of the baseline's sweep and compares the live
/// rows with the committed ones.
fn compare_against_baseline(path: &str) -> Result<(), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let baseline = validate_fleet_json(&text)?;
    let mut live = Vec::new();
    for scenario in scenarios(&baseline.sweep) {
        eprintln!("re-running scenario {} ...", scenario.name);
        live.extend(run_scenario(&scenario));
    }
    compare(&baseline, &live)
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
            Ok(()) => println!("{path}: every committed row reproduces exactly"),
            Err(e) => {
                eprintln!("{path}: live rows differ from the committed rows:\n{e}");
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
            if let Some(target) = json_out {
                let json = fleet_summary_json(&sweep, &rows);
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
            if !failures.is_empty() {
                eprintln!("gates failed:\n{}", failures.join("\n"));
                std::process::exit(1);
            }
        }
    }
}
