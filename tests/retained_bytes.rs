//! Retained-bytes pins for the telemetry wiring.
//!
//! Per device, telemetry is the layer that keeps the most memory: every
//! proxy method gets its instrument handles at wiring time, each with a
//! latency histogram. This file pins what that costs, with a counting
//! [`GlobalAlloc`] wrapper that tracks the current thread's allocation
//! count and live bytes:
//! - a [`Histogram`] is one allocation of at most [`HISTOGRAM_BYTES`];
//!   its exemplar table is allocated by the first promoted trace that
//!   attaches an exemplar, and never again;
//! - building and warming a telemetry-wired runtime on one device keeps
//!   at most [`RUNTIME_BYTES`] live bytes per platform, so a new
//!   per-device structure fails a test instead of a 15 s RSS run;
//! - a runtime's telemetry ends with the runtime: [`CHURN_CYCLES`]
//!   build → warm → traced `getLocation` → drop cycles on one device
//!   keep no more live bytes than one cycle does;
//! - a durable [`WfmServer`] keeps at most [`DURABLE_POST_BYTES`] live
//!   bytes per keyed `/report-location` post: its state once, with the
//!   checkpoint as marks into it, not as a second copy.
//!
//! Like `tests/zero_alloc_telemetry.rs`, this file holds a **single**
//! `#[test]`: the counters are per thread, but a sibling test running
//! at the same time would share the process-wide interners.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use mobivine::api::LocationProxy;
use mobivine::IdempotencyKey;
use mobivine_apps::server::{DurabilityConfig, WfmServer};
use mobivine_device::net::HttpRequest;
use mobivine_device::Device;
use mobivine_telemetry::span::TraceId;
use mobivine_telemetry::Histogram;

mod common;

use common::BUILDERS;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    static LIVE_BYTES: Cell<i64> = const { Cell::new(0) };
}

fn count(allocated: usize, freed: usize) {
    ALLOCATIONS.with(|c| c.set(c.get() + u64::from(allocated > 0)));
    LIVE_BYTES.with(|b| b.set(b.get() + allocated as i64 - freed as i64));
}

/// Counts the current thread's allocations and live bytes, then
/// delegates to the system allocator.
struct CountingAlloc;

// SAFETY: pure delegation to `System`; the thread-local counter bumps
// do not allocate (const-initialised `Cell`s).
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size(), 0);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size(), 0);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size, layout.size());
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        count(0, layout.size());
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

/// `(allocations, live bytes)` of the current thread so far.
fn snapshot() -> (u64, i64) {
    (ALLOCATIONS.with(Cell::get), LIVE_BYTES.with(Cell::get))
}

/// Runs `f` and returns its value with the allocations it made and the
/// live bytes it left behind (the value itself is still alive).
fn measure<T>(f: impl FnOnce() -> T) -> (T, u64, i64) {
    let (allocs, bytes) = snapshot();
    let value = f();
    let (allocs_after, bytes_after) = snapshot();
    (value, allocs_after - allocs, bytes_after - bytes)
}

/// A histogram's one allocation: 65 buckets, the sum and the empty
/// exemplar slot behind one `Arc`.
const HISTOGRAM_BYTES: i64 = 600;

/// Live bytes one device's telemetry-wired, warmed runtime may keep,
/// per platform: the measured value (android 21,140, s60 16,944,
/// webview 23,872 bytes on x86_64 Linux) plus under 10 % headroom.
/// With the three arrays of a histogram allocated up front it was
/// 31,012, 23,528 and 33,744 bytes.
const RUNTIME_BYTES: [(&str, i64); 3] = [("android", 23_000), ("s60", 18_500), ("webview", 26_000)];

/// Runtimes built and dropped per platform by the churn check.
const CHURN_CYCLES: usize = 1_000;

/// Live bytes a durable server checkpointing every 64 applies may keep
/// per keyed track post: the measured 66.9 bytes on x86_64 Linux (a
/// 32-byte track point and its applied key, each in a growing table)
/// plus headroom. With a second copy of the track points and keys in
/// the checkpoint it was 133.9 bytes.
const DURABLE_POST_BYTES: f64 = 90.0;

/// Keyed posts sent before and during the durable-server measurement.
const DURABLE_WARM_POSTS: u64 = 100;
const DURABLE_MEASURED_POSTS: u64 = 20_000;

#[test]
fn telemetry_wiring_retains_a_pinned_number_of_bytes() {
    let (histogram, allocs, bytes) = measure(Histogram::new);
    assert_eq!(allocs, 1, "Histogram::new is one allocation");
    assert!(
        bytes <= HISTOGRAM_BYTES,
        "Histogram::new keeps {bytes} bytes (at most {HISTOGRAM_BYTES})"
    );
    histogram.record(300);
    let ((), allocs, _) = measure(|| histogram.attach_exemplar(300, TraceId(0xab)));
    assert_eq!(allocs, 1, "the first exemplar allocates the table");
    let ((), allocs, _) = measure(|| {
        histogram.attach_exemplar(300, TraceId(0xcd));
        histogram.attach_exemplar(7, TraceId(0xef));
    });
    assert_eq!(allocs, 0, "later exemplars allocate nothing");
    assert_eq!(histogram.exemplars().len(), 2);
    let ((), _, bytes) = measure(|| drop(histogram));
    assert!(bytes < -HISTOGRAM_BYTES, "the exemplar table is freed too");

    for (platform, builder) in BUILDERS {
        let wire = |device: &Device| {
            let runtime = builder(device)
                .with_telemetry()
                .build()
                .expect("telemetry-wired runtime builds");
            runtime.warm().expect("every binding resolves");
            runtime
        };
        // The first runtime interns the platform's metric names and
        // labels process-wide; the second pays only per-device costs.
        let _first = wire(&common::device());
        let device = common::device();
        let (_runtime, _, bytes) = measure(|| wire(&device));
        let bound = RUNTIME_BYTES
            .iter()
            .find_map(|&(name, bound)| (name == platform).then_some(bound))
            .expect("a bound per platform");
        assert!(
            bytes <= bound,
            "a telemetry-wired {platform} runtime keeps {bytes} bytes (at most {bound})"
        );
    }

    // Each cycle's traced call leaves the runtime's tracer in this
    // thread's span-sink table. The first one also interns the names
    // and grows the table; after it, each cycle frees the one before.
    for (platform, builder) in BUILDERS {
        let device = common::device();
        let cycle = || {
            let runtime = builder(&device)
                .with_telemetry_retention(16)
                .build()
                .expect("telemetry-wired runtime builds");
            runtime.warm().expect("every binding resolves");
            let location = runtime
                .proxy::<dyn LocationProxy>()
                .expect("a location proxy");
            location.get_location().expect("a fix");
        };
        cycle();
        let ((), _, one) = measure(cycle);
        let ((), _, churned) = measure(|| (0..CHURN_CYCLES).for_each(|_| cycle()));
        assert!(
            churned <= one,
            "{CHURN_CYCLES} {platform} runtime cycles keep {churned} bytes, one keeps {one}"
        );
    }

    let device = common::device();
    let server = WfmServer::durable(DurabilityConfig {
        checkpoint_every: 64,
        ..Default::default()
    });
    server.install(device.network(), "wfm.example");
    let post = |op: u64| {
        let key = IdempotencyKey::derive(1, 0, 1, op);
        let url = format!("http://wfm.example/report-location?idem={}", key.to_hex());
        let body = format!(
            "{{\"agent_id\":{},\"latitude\":28.5,\"longitude\":77.25,\"at_ms\":{op}}}",
            op % 8
        );
        let req = HttpRequest::post(&url, body.into_bytes()).expect("a report request");
        let (response, _) = device.network().execute(&req).expect("the route answers");
        assert_eq!(response.status, 200);
    };
    (0..DURABLE_WARM_POSTS).for_each(post);
    let ((), _, bytes) = measure(|| {
        (DURABLE_WARM_POSTS..DURABLE_WARM_POSTS + DURABLE_MEASURED_POSTS).for_each(post);
    });
    let per_post = bytes as f64 / DURABLE_MEASURED_POSTS as f64;
    assert_eq!(
        server.counts().tracks,
        DURABLE_WARM_POSTS + DURABLE_MEASURED_POSTS
    );
    assert!(
        per_post <= DURABLE_POST_BYTES,
        "a durable server keeps {per_post:.1} bytes per keyed post (at most {DURABLE_POST_BYTES})"
    );
}
