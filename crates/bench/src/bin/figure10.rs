//! Regenerates the paper's Figure 10 in nanoseconds.
//!
//! Usage: `cargo run --release -p mobivine-bench --bin figure10
//! [--json [PATH]] [--check PATH]`
//!
//! Times each of the nine (platform, API) pairs natively and through
//! its proxy, as two series of 41 blocks of 1,000 calls, and prints the
//! median ns per call of each, the proxy's overhead in ns and as a
//! percentage of the paper's native cost, beside the paper's pair in
//! ms. `--json` replaces the table with a machine-readable summary
//! (schema `mobivine.figure10.v5`) on stdout, or at `PATH` when one
//! follows the flag; `--check PATH` validates an existing summary file
//! instead of measuring anything. An unknown argument exits with
//! status 2.

use mobivine_bench::figure10::{render_table, run_figure10, BLOCKS, CALLS, PAPER_VALUES};
use mobivine_bench::flag_value;
use mobivine_bench::summary::{summary_json, validate_summary_json};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let mut json_out: Option<Option<String>> = None;
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--json" => {
                // An optional path may follow; a bare `--json` (or one
                // followed by another flag) writes to stdout.
                let path = args.get(i + 1).filter(|p| !p.starts_with("--")).cloned();
                i += if path.is_some() { 2 } else { 1 };
                json_out = Some(path);
            }
            "--check" => {
                let path: String = flag_value(&args, i);
                let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
                    eprintln!("cannot read {path}: {e}");
                    std::process::exit(1);
                });
                match validate_summary_json(&text) {
                    Ok(()) => {
                        println!("{path}: valid (the nine Figure 10 pairs, each under the claim)");
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
    }

    eprintln!("running figure 10: {BLOCKS} blocks of {CALLS} calls per series ...");
    let rows = run_figure10(BLOCKS, CALLS);

    if let Some(target) = json_out {
        let json = summary_json(BLOCKS, CALLS, &rows);
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
        .map(|row| row.overhead_of_paper())
        .fold(f64::NEG_INFINITY, f64::max);
    let paper_max = PAPER_VALUES
        .iter()
        .map(|(_, _, without, with)| (with - without) / without)
        .fold(f64::NEG_INFINITY, f64::max);
    println!(
        "\nmax proxy overhead: {:.5}% of the paper's native cost (paper max: {:.1}%)",
        max_overhead * 100.0,
        paper_max * 100.0
    );
    println!(
        "conclusion: the overhead of the proxy is a small fraction of the corresponding native interface"
    );
}
