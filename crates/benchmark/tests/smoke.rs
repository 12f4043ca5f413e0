//! Tiny end-to-end runs of the benchmark binary: the whole suite at
//! smoke size must pass its own `--check`, write traces that nest, and
//! the per-workload mode must print one result line in the documented
//! shape.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use serde_json::Value;

use mobivine_benchmark::report::{get_f64, metric_entries, per_layer, END_TO_END};
use mobivine_benchmark::trace::validate_chrome_trace;
use mobivine_benchmark::workload::Workload;

/// Smoke size: 12 devices, 2 rounds, a 3-block ladder of 20 calls.
const TINY: [&str; 8] = [
    "--devices",
    "12",
    "--rounds",
    "2",
    "--ladder-blocks",
    "3",
    "--block-calls",
    "20",
];

fn scratch(test: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("benchmark-{test}"));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

fn run(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_mobivine-benchmark"))
        .args(args)
        .output()
        .expect("benchmark binary runs")
}

fn last_line_json(output: &Output) -> Value {
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last = stdout.lines().last().expect("some output");
    serde_json::from_str(last).expect("last line is JSON")
}

#[test]
fn tiny_suite_passes_its_own_check_and_writes_nested_traces() {
    let dir = scratch("suite");
    let json = dir.join("results.json");
    let (json_arg, dir_arg) = (json.display().to_string(), dir.display().to_string());
    let mut args = vec!["--seed", "3", "--json", &json_arg, "--trace-dir", &dir_arg];
    args.extend(TINY);
    let output = run(&args);
    assert!(
        output.status.success(),
        "suite failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    assert!(run(&["--check", &json_arg]).status.success());
    for workload in Workload::ALL {
        let path = dir.join(format!("{}.trace.json", workload.name()));
        let text = std::fs::read_to_string(&path).expect("trace written");
        let spans = validate_chrome_trace(&text).expect("trace nests");
        assert!(spans > 0, "{} trace has spans", workload.name());
    }

    // A tampered result fails the check.
    let text = std::fs::read_to_string(&json).unwrap();
    let tampered = text.replacen("\"failed\":0", "\"failed\":1", 1);
    assert_ne!(tampered, text);
    let bad = dir.join("tampered.json");
    std::fs::write(&bad, tampered).unwrap();
    assert!(!run(&["--check", &bad.display().to_string()])
        .status
        .success());
}

#[test]
fn per_workload_mode_prints_the_declared_metrics() {
    let dir = scratch("per-workload");
    let dir_arg = dir.display().to_string();
    for (trace, declared) in [
        (
            "0",
            END_TO_END
                .iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect::<Vec<_>>(),
        ),
        (
            "1",
            per_layer()
                .into_iter()
                .map(|(n, u)| (n, u.to_string()))
                .collect(),
        ),
    ] {
        let mut args = vec![
            "--workload",
            "faulted",
            "--seed",
            "9",
            "--seconds",
            "1",
            "--trace",
            trace,
            "--trace-dir",
            &dir_arg,
        ];
        args.extend(TINY);
        let output = run(&args);
        assert!(
            output.status.success(),
            "trace {trace}: {}",
            String::from_utf8_lossy(&output.stderr)
        );
        let line = last_line_json(&output);
        assert_eq!(line.get_field("correct"), Some(&Value::Bool(true)));
        assert!(get_f64(&line, "attempted").is_some_and(|a| a >= 1.0));
        assert_eq!(get_f64(&line, "failed"), Some(0.0));
        let mut got: Vec<(String, String)> = metric_entries(&line)
            .into_iter()
            .map(|(n, v, u)| {
                assert!(v.is_some_and(f64::is_finite), "{n} is a finite number");
                (n, u.unwrap_or_default())
            })
            .collect();
        let mut want = declared;
        got.sort();
        want.sort();
        assert_eq!(got, want, "trace {trace}");
    }
}

#[test]
fn bad_arguments_exit_non_zero_without_a_result() {
    let output = run(&["--workload", "no_such_workload"]);
    assert!(!output.status.success());
    assert!(output.stdout.is_empty());
}
