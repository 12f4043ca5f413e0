//! `mobivine-benchmark`: runs the wall-clock suite.
//!
//! ```text
//! cargo run --release -p mobivine-benchmark -- [--seed N] [--json PATH]
//! cargo run --release -p mobivine-benchmark -- --check PATH
//! cargo run --release -p mobivine-benchmark -- --repeat N
//! cargo run --release -p mobivine-benchmark -- --workload NAME --seed N --seconds S --trace 0|1
//! ```
//!
//! Without `--workload` every workload and the layer ladder run, each
//! in its own child process (a re-exec of this binary), one after
//! another; every metric is printed with its unit and the results are
//! checked. With `--workload` one workload runs and the last line of
//! standard output is a single JSON object: `correct`, `attempted`,
//! `failed` and `metrics` — the end-to-end metrics with `--trace 0`,
//! the per-layer metrics (workload counters, traced pass, ladder) with
//! `--trace 1`. The exit code is non-zero whenever a check fails.

use std::alloc::{GlobalAlloc, Layout, System};
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

use serde_json::Value;

use mobivine_benchmark::alloc_count;
use mobivine_benchmark::ladder::LadderConfig;
use mobivine_benchmark::measure::{measure_ladder, measure_workload};
use mobivine_benchmark::report::{
    check_ladder, check_suite, check_workload, get_f64, metric_entries, number, object,
    repeat_table, END_TO_END, SCHEMA,
};
use mobivine_benchmark::workload::Workload;

/// The system allocator, counting allocations while
/// [`alloc_count::count`] runs.
struct CountingAllocator;

// SAFETY: every method forwards to `System` with the caller's
// arguments unchanged, so `System`'s guarantees carry over; the only
// addition is a relaxed atomic increment, which cannot allocate.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        alloc_count::note();
        // SAFETY: forwarded under the caller's `GlobalAlloc::alloc` contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        alloc_count::note();
        // SAFETY: forwarded under the caller's `alloc_zeroed` contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        alloc_count::note();
        // SAFETY: `ptr` came from this allocator, i.e. from `System`,
        // with `layout`, per the caller's `realloc` contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with `layout`, per the
        // caller's `dealloc` contract.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// Fixes glibc's mmap threshold at its 128 KiB default. Left adaptive,
/// the threshold rises after the first large free, and whether later
/// checkpoint clones land on fresh mappings or on a fragmented heap
/// depends on which caller thread freed what; `write_durable`'s peak
/// RSS then swung by a fifth between seeds. Fixed, every large block is
/// mapped on allocation and unmapped on free, so peak RSS follows the
/// live data.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn fix_mmap_threshold() {
    use std::os::raw::c_int;
    extern "C" {
        fn mallopt(param: c_int, value: c_int) -> c_int;
    }
    const M_MMAP_THRESHOLD: c_int = -3;
    // SAFETY: `mallopt` only adjusts an allocator tunable; it is called
    // before this process starts any thread.
    unsafe {
        mallopt(M_MMAP_THRESHOLD, 128 * 1024);
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn fix_mmap_threshold() {}

const USAGE: &str = "usage: mobivine-benchmark [--seed N] [--seconds S] [--json PATH] \
[--repeat N] [--check PATH] [--workload NAME --trace 0|1] [--devices N] [--rounds N] \
[--ladder-blocks N] [--block-calls N] [--trace-dir DIR]";

#[derive(Debug, Clone)]
struct Args {
    seed: u64,
    seconds: u64,
    workload: Option<Workload>,
    trace: bool,
    json: Option<PathBuf>,
    check: Option<PathBuf>,
    repeat: usize,
    devices: Option<usize>,
    rounds: Option<u64>,
    ladder: LadderConfig,
    trace_dir: PathBuf,
    child: Option<String>,
}

fn parse_args(raw: &[String]) -> Result<Args, String> {
    let mut args = Args {
        seed: 1,
        seconds: 15,
        workload: None,
        trace: false,
        json: None,
        check: None,
        repeat: 1,
        devices: None,
        rounds: None,
        ladder: LadderConfig {
            blocks: 41,
            calls: 1_000,
        },
        trace_dir: PathBuf::from("target/benchmark"),
        child: None,
    };
    let mut it = raw.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        fn num<T: std::str::FromStr>(flag: &str, v: String) -> Result<T, String> {
            v.parse().map_err(|_| format!("{flag}: bad value {v:?}"))
        }
        match flag.as_str() {
            "--seed" => args.seed = num(flag, value()?)?,
            "--seconds" => args.seconds = num::<u64>(flag, value()?)?.max(1),
            "--workload" => {
                let name = value()?;
                args.workload =
                    Some(Workload::from_name(&name).ok_or(format!("unknown workload {name:?}"))?);
            }
            "--trace" => args.trace = num::<u8>(flag, value()?)? != 0,
            "--json" => args.json = Some(value()?.into()),
            "--check" => args.check = Some(value()?.into()),
            "--repeat" => args.repeat = num::<usize>(flag, value()?)?.max(1),
            "--devices" => args.devices = Some(num(flag, value()?)?),
            "--rounds" => args.rounds = Some(num(flag, value()?)?),
            "--ladder-blocks" => args.ladder.blocks = num::<usize>(flag, value()?)?.max(1),
            "--block-calls" => args.ladder.calls = num::<usize>(flag, value()?)?.max(1),
            "--trace-dir" => args.trace_dir = value()?.into(),
            "--child" => args.child = Some(value()?),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(args)
}

/// The flags a child process needs to reproduce this run's settings.
fn child_flags(args: &Args) -> Vec<String> {
    let mut flags = vec![
        "--seed".to_string(),
        args.seed.to_string(),
        "--seconds".into(),
        args.seconds.to_string(),
        "--ladder-blocks".into(),
        args.ladder.blocks.to_string(),
        "--block-calls".into(),
        args.ladder.calls.to_string(),
        "--trace-dir".into(),
        args.trace_dir.display().to_string(),
    ];
    if let Some(d) = args.devices {
        flags.extend(["--devices".into(), d.to_string()]);
    }
    if let Some(r) = args.rounds {
        flags.extend(["--rounds".into(), r.to_string()]);
    }
    flags
}

/// Re-executes this binary with `extra` flags and parses the JSON
/// document on the last line of its standard output.
fn run_child(args: &Args, extra: &[&str]) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating this binary: {e}"))?;
    let output = Command::new(exe)
        .args(child_flags(args))
        .args(extra)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("starting a child run: {e}"))?;
    if !output.status.success() {
        return Err(format!("child run {extra:?} exited with {}", output.status));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last = stdout.lines().last().unwrap_or_default();
    serde_json::from_str(last).map_err(|e| format!("child run {extra:?} printed no result: {e}"))
}

fn workload_child(args: &Args, workload: Workload, traced: bool) -> Result<Value, String> {
    let trace = if traced { "1" } else { "0" };
    run_child(
        args,
        &[
            "--child",
            "workload",
            "--workload",
            workload.name(),
            "--trace",
            trace,
        ],
    )
}

/// Prints `(name, value, unit)` rows under `prefix`.
fn print_metrics(prefix: &str, doc: &Value) {
    for (name, value, unit) in metric_entries(doc) {
        let value = value.map_or("null".to_string(), |v| format!("{v:.6}"));
        println!(
            "{:<60} {:>20} {}",
            format!("{prefix}{name}"),
            value,
            unit.unwrap_or_default()
        );
    }
}

/// Prints how many latency samples the quantiles of `doc` rest on.
fn print_samples(workload: Workload, doc: &Value) {
    if let Some(counts) = doc.get_field("counts") {
        let n = |k| get_f64(counts, k).unwrap_or(0.0);
        println!(
            "{:<60} {:>20} samples ({} beyond p99) over {:.3} s",
            format!("{}.latency_samples", workload.name()),
            n("samples"),
            n("samples_beyond_p99"),
            n("wall_s")
        );
    }
}

fn print_problems(problems: &[String]) {
    for problem in problems {
        eprintln!("check failed: {problem}");
    }
}

/// The `metrics` entries of `doc` whose names `keep` accepts.
fn select_metrics(doc: &Value, keep: impl Fn(&str) -> bool) -> Vec<(String, Value)> {
    match doc.get_field("metrics") {
        Some(Value::Object(fields)) => fields.iter().filter(|(n, _)| keep(n)).cloned().collect(),
        _ => Vec::new(),
    }
}

/// Runs one workload (and, with `--trace 1`, the ladder) and builds the
/// result line — `correct`, `attempted`, `failed`, `metrics` — plus
/// every failed check.
fn workload_line(args: &Args, workload: Workload) -> Result<(Value, Vec<String>), String> {
    let doc = workload_child(args, workload, args.trace)?;
    print_samples(workload, &doc);
    let mut problems = check_workload(&doc);
    let count = |d: Option<&Value>, key| d.and_then(|c| get_f64(c, key)).unwrap_or(0.0) as u64;
    let counts = doc.get_field("counts");
    let mut attempted = count(counts, "attempted");
    let mut failed = count(counts, "failed");
    let end_to_end = |name: &str| END_TO_END.iter().any(|(n, _)| *n == name);
    let mut metrics = select_metrics(&doc, |name| end_to_end(name) != args.trace);
    if args.trace {
        let replay = counts.and_then(|c| c.get_field("prefix_traced"));
        let ladder = run_child(args, &["--child", "ladder"])?;
        problems.extend(check_ladder(&ladder));
        attempted += count(replay, "attempted") + count(Some(&ladder), "attempted");
        failed += count(replay, "failed") + count(Some(&ladder), "failed");
        metrics.extend(select_metrics(&ladder, |_| true));
    }
    let line = object([
        ("correct", Value::Bool(problems.is_empty())),
        ("attempted", number(attempted.max(1) as f64)),
        ("failed", number(failed as f64)),
        ("metrics", Value::Object(metrics)),
    ]);
    Ok((line, problems))
}

/// `--workload`: one workload, the result line on stdout's last line.
fn one_workload(args: &Args, workload: Workload) -> ExitCode {
    match workload_line(args, workload) {
        Ok((line, problems)) => {
            print_metrics(&format!("{}.", workload.name()), &line);
            print_problems(&problems);
            println!("{line}");
            if problems.is_empty() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// One full suite run: every workload (traced) and the ladder.
fn suite_once(args: &Args) -> Result<Value, String> {
    let mut workloads = Vec::new();
    for workload in Workload::ALL {
        eprintln!("running {} ...", workload.name());
        let doc = workload_child(args, workload, true)?;
        print_metrics(&format!("{}.", workload.name()), &doc);
        print_samples(workload, &doc);
        workloads.push(doc);
    }
    eprintln!("running the layer ladder ...");
    let ladder = run_child(args, &["--child", "ladder"])?;
    print_metrics("", &ladder);
    Ok(object([
        ("schema", Value::String(SCHEMA.into())),
        ("seed", number(args.seed as f64)),
        ("seconds", number(args.seconds as f64)),
        ("workloads", Value::Array(workloads)),
        ("ladder", ladder),
    ]))
}

fn suite(args: &Args) -> ExitCode {
    let mut runs = Vec::new();
    let mut failed = false;
    for repetition in 0..args.repeat {
        if args.repeat > 1 {
            eprintln!("repetition {} of {}", repetition + 1, args.repeat);
        }
        let doc = match suite_once(args) {
            Ok(doc) => doc,
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
        };
        let problems = check_suite(&doc);
        print_problems(&problems);
        failed |= !problems.is_empty();
        runs.push(doc);
    }
    if args.repeat > 1 {
        println!("\nspread over {} runs:", args.repeat);
        print!("{}", repeat_table(&runs));
    }
    if let (Some(path), Some(last)) = (&args.json, runs.last()) {
        if let Err(e) = std::fs::write(path, format!("{last}\n")) {
            eprintln!("error: writing {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    }
    if failed {
        ExitCode::FAILURE
    } else {
        println!("all checks passed");
        ExitCode::SUCCESS
    }
}

fn check_file(path: &PathBuf) -> ExitCode {
    let doc = std::fs::read_to_string(path)
        .map_err(|e| e.to_string())
        .and_then(|text| serde_json::from_str(&text).map_err(|e| e.to_string()));
    match doc {
        Ok(doc) => {
            let problems = check_suite(&doc);
            print_problems(&problems);
            if problems.is_empty() {
                println!("{}: all checks passed", path.display());
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("error: reading {}: {e}", path.display());
            ExitCode::FAILURE
        }
    }
}

fn main() -> ExitCode {
    fix_mmap_threshold();
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&raw) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Some(path) = &args.check {
        return check_file(path);
    }
    match (args.child.as_deref(), args.workload) {
        (Some("workload"), Some(workload)) => {
            let sizes = workload.sizes(args.seconds, args.devices, args.rounds);
            match measure_workload(workload, args.seed, sizes, args.trace, &args.trace_dir) {
                Ok(doc) => {
                    println!("{doc}");
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("error: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        (Some("ladder"), _) => {
            println!("{}", measure_ladder(args.ladder));
            ExitCode::SUCCESS
        }
        (Some(other), _) => {
            eprintln!("error: bad child mode {other:?}\n{USAGE}");
            ExitCode::from(2)
        }
        (None, Some(workload)) => one_workload(&args, workload),
        (None, None) => suite(&args),
    }
}
