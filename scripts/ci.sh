#!/usr/bin/env bash
# Full CI gate: release build, tests, formatting, lints.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release
cargo test -q
cargo fmt --check
# Which files may allow a lint at all is pinned by `cargo test` above
# (tests/manifests.rs): none may allow `deprecated`, and only its
# allowlist may allow a clippy lint.
cargo clippy --workspace --all-targets -- -D warnings

# Rustdoc gate: every intra-doc link must resolve and none may point at
# a private item, so deleting an item cannot leave a dangling link.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

# Run every example: `cargo test` above only compiles them. Each checks
# its own results and exits non-zero when one of its assertions fails.
# `workforce` takes a platform and runs once per platform below.
for path in examples/*.rs; do
    example="$(basename "$path" .rs)"
    [ "$example" = workforce ] && continue
    cargo run -q --example "$example" > /dev/null
done
for platform in android s60 webview; do
    cargo run -q --example workforce -- "$platform" > /dev/null
done

# Smoke-run the bench summary end to end: time the nine Figure 10
# pairs in nanoseconds, emit the machine-readable mobivine.figure10.v5
# document and check it: every paper pair once, with the paper's
# values, and every proxy overhead under 1% of the paper's native cost.
summary="$(mktemp)"
fleet_summary="$(mktemp)"
trace_dir="$(mktemp -d)"
trap 'rm -rf "$summary" "$fleet_summary" "$trace_dir"' EXIT
cargo run -q --release -p mobivine-bench --bin figure10 -- --json "$summary"
cargo run -q --release -p mobivine-bench --bin figure10 -- --check "$summary"

# Fleet smoke: run every declared fleet scenario (the scaling sweep at
# ~500 devices plus the fixed-size brownout, cache, crash and journal
# comparisons), emit the mobivine.fleet.v8 summary, and check
# it: every gate each scenario declares in
# crates/bench/src/fleet_bench.rs (SCENARIOS) is evaluated over the
# summary's rows. The telemetry and bridge hot paths are guarded by the
# zero-allocation pins that `cargo test` runs (tests/zero_alloc_telemetry.rs,
# one bound-free helper), and their wall-clock cost by the
# crates/benchmark ladder.
cargo run -q --release -p mobivine-bench --bin fleet -- \
    --devices 500 --shards 1,4 --workers 2 --rounds 2 --json "$fleet_summary"
cargo run -q --release -p mobivine-bench --bin fleet -- --check "$fleet_summary"

# Chaos and crash smokes: print the brownout and crash-storm scenarios'
# tables; each exits non-zero unless every gate of its scenario holds.
cargo run -q --release -p mobivine-bench --bin fleet -- --scenario brownout
cargo run -q --release -p mobivine-bench --bin fleet -- --scenario crash

# Determinism gate against the committed baselines: check both, then
# rebuild every fleet scenario from BENCH_fleet.json's recorded sweep;
# every live row must equal its committed row exactly, every counter
# included (the rows are virtual-clock determinism checks, not
# performance figures).
cargo run -q --release -p mobivine-bench --bin figure10 -- --check BENCH_figure10.json
cargo run -q --release -p mobivine-bench --bin fleet -- --check BENCH_fleet.json
cargo run -q --release -p mobivine-bench --bin fleet -- --compare BENCH_fleet.json

# Wall-clock benchmark smoke: a small run of each BENCHMARK.json workload
# (about a second each). The timings are not gated here; the binary's own
# correctness checks are: every planned op ran, none returned a wrong
# outcome (a `GET /tasks` body must carry the agent's tasks), and the
# servers hold what the clients posted. It exits non-zero when one fails.
for workload in read_hot write_durable fleet_bare faulted; do
    cargo run -q --release -p mobivine-benchmark --bin mobivine-benchmark -- \
        --workload "$workload" --devices 60 --rounds 4 --trace 0 > /dev/null
done

# Traced smoke (about two seconds): the traced pass and the per-layer
# ladder, which prices the telemetry rungs, with the timeline written
# to a temporary directory.
cargo run -q --release -p mobivine-benchmark --bin mobivine-benchmark -- \
    --workload read_hot --devices 60 --rounds 4 --trace 1 \
    --ladder-blocks 2 --block-calls 100 --trace-dir "$trace_dir" > /dev/null
