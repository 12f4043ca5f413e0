//! Regenerates the paper's Figure 10 at paper scale.
//!
//! Usage: `cargo run -p mobivine-bench --bin figure10 [--runs N]
//! [--scale paper|bench|zero] [--json [PATH]] [--check PATH]`
//!
//! Native API costs are calibrated to the paper's handset measurements;
//! the proxy overhead on top is real measured Rust. The paper's values
//! are printed alongside each measured pair. `--json` replaces the
//! human-readable table with a machine-readable summary (schema
//! `mobivine.figure10.v4`) on stdout, or at `PATH` when one follows the
//! flag; `--check PATH` validates an existing summary file instead of
//! measuring anything. An unknown scale or a run count that is not a
//! positive integer exits with status 2.

use std::num::NonZeroU32;

use mobivine_bench::figure10::{render_table, run_figure10, Scale};
use mobivine_bench::flag_value;
use mobivine_bench::summary::{summary_json, validate_summary_json};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let mut runs: u32 = 10; // the paper averages ten executions
    let mut scale = Scale::Paper;
    let mut json_out: Option<Option<String>> = None;
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--runs" => runs = flag_value::<NonZeroU32>(&args, i).get(),
            "--scale" => scale = flag_value(&args, i),
            "--json" => {
                // An optional path may follow; a bare `--json` (or one
                // followed by another flag) writes to stdout.
                let path = args.get(i + 1).filter(|p| !p.starts_with("--")).cloned();
                i += if path.is_some() { 2 } else { 1 };
                json_out = Some(path);
                continue;
            }
            "--check" => {
                let path: String = flag_value(&args, i);
                let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
                    eprintln!("cannot read {path}: {e}");
                    std::process::exit(1);
                });
                match validate_summary_json(&text) {
                    Ok(()) => {
                        println!("{path}: valid (the nine Figure 10 pairs)");
                        std::process::exit(0);
                    }
                    Err(e) => {
                        eprintln!("{path}: invalid summary: {e}");
                        std::process::exit(1);
                    }
                }
            }
            other => {
                eprintln!("unknown argument {other}");
                std::process::exit(2);
            }
        }
        i += 2;
    }

    eprintln!("running figure 10 at {scale:?} scale, {runs} executions per API ...");
    let rows = run_figure10(scale, runs);

    if let Some(target) = json_out {
        let json = summary_json(scale, runs, &rows);
        match target {
            Some(path) => {
                if let Err(e) = std::fs::write(&path, &json) {
                    eprintln!("cannot write {path}: {e}");
                    std::process::exit(1);
                }
                eprintln!("wrote summary to {path}");
            }
            None => println!("{json}"),
        }
        return;
    }

    print!("{}", render_table(&rows));

    let max_overhead = rows
        .iter()
        .map(|row| row.overhead_fraction())
        .fold(0.0f64, f64::max);
    println!(
        "\nmax relative proxy overhead: {:.1}% (paper max: 5.5%)",
        max_overhead * 100.0
    );
    println!(
        "conclusion: the overhead of the proxy is a small fraction of the corresponding native interface"
    );
}
