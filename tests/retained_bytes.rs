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
//!   checkpoint as marks into it, not as a second copy;
//! - a plain [`WfmServer`] keeps at most [`REPORT_POST_BYTES`] per post
//!   of the fleet's report mix, and an SMSC at most [`SMS_BYTES`] per
//!   delivered `"agent N checking in"` text: the two stores that grow
//!   with every op of the bare fleet, both delta-coded logs.
//!
//! Like `tests/zero_alloc_telemetry.rs`, this file holds a **single**
//! `#[test]`: the counters are per thread, but a sibling test running
//! at the same time would share the process-wide interners.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use std::fmt::Write as _;

use mobivine::api::{LocationProxy, SmsProxy};
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
/// per keyed track post: the measured 21.2 bytes on x86_64 Linux (a
/// delta-coded track point and its applied key, each in a growing
/// table) plus under 10 % headroom. With 32-byte track points it was
/// 66.9 bytes, and 133.9 with a second copy of the track points and
/// keys in the checkpoint.
const DURABLE_POST_BYTES: f64 = 23.0;

/// Keyed posts sent before and during the durable-server measurement.
const DURABLE_WARM_POSTS: u64 = 100;
const DURABLE_MEASURED_POSTS: u64 = 20_000;

/// Live bytes a plain server may keep per report of the fleet's mix:
/// the measured 26.1 bytes on x86_64 Linux (a delta-coded track point,
/// about 14 bytes, in a growing buffer) plus under 10 % headroom. With
/// 32-byte track points it was 52.2 bytes.
const REPORT_POST_BYTES: f64 = 28.5;

/// Agents one server hears from, and the reports sent before and
/// during the plain-server measurement.
const REPORT_AGENTS: u64 = 2_500;
const REPORT_WARM_POSTS: u64 = 100;
const REPORT_MEASURED_POSTS: u64 = 20_000;

/// Live bytes a bare runtime's SMSC may keep per delivered message:
/// the measured 39.2 bytes on x86_64 Linux (a delta-coded header of a
/// few bytes, the 19- to 22-byte body and a status byte, each in a
/// growing buffer) plus under 10 % headroom. With a 32-byte record per
/// message it was 84.9 bytes.
const SMS_BYTES: f64 = 43.0;

/// The address every fleet agent texts.
const SUPERVISOR: &str = "+91-sup";

/// Messages sent per 40 ms tick, before and during the SMS
/// measurement.
const SMS_PER_TICK: u64 = 10;
const SMS_WARM_MESSAGES: u64 = 100;
const SMS_MEASURED_MESSAGES: u64 = 20_000;

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

    durable_server_posts();
    plain_server_report_mix();
    sms_deliveries();
}

/// A durable server checkpointing every 64 applies, fed keyed posts.
fn durable_server_posts() {
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

/// A plain server fed the fleet's report mix: one shard's agents
/// reporting in turn, a round apart, at coordinates that vary in the
/// sixth decimal.
fn plain_server_report_mix() {
    let device = common::device();
    let server = WfmServer::new();
    server.install(device.network(), "wfm.example");
    let mut draws = 0x5eed_u64;
    let mut post = |op: u64| {
        let draw = splitmix64(&mut draws);
        let body = format!(
            "{{\"agent_id\":{},\"latitude\":{},\"longitude\":{},\"at_ms\":{}}}",
            op % REPORT_AGENTS * 4,
            28.5 + (draw % 1_000) as f64 * 1e-6,
            77.3 + (draw % 977) as f64 * 1e-6,
            op / REPORT_AGENTS * 40,
        );
        let req = HttpRequest::post("http://wfm.example/report-location", body.into_bytes())
            .expect("a report request");
        let (response, _) = device.network().execute(&req).expect("the route answers");
        assert_eq!(response.status, 200);
    };
    (0..REPORT_WARM_POSTS).for_each(&mut post);
    let ((), _, bytes) = measure(|| {
        (REPORT_WARM_POSTS..REPORT_WARM_POSTS + REPORT_MEASURED_POSTS).for_each(&mut post);
    });
    let per_post = bytes as f64 / REPORT_MEASURED_POSTS as f64;
    assert_eq!(
        server.counts().tracks,
        REPORT_WARM_POSTS + REPORT_MEASURED_POSTS
    );
    assert!(
        per_post <= REPORT_POST_BYTES,
        "a plain server keeps {per_post:.1} bytes per report (at most {REPORT_POST_BYTES})"
    );
}

/// A bare runtime texting the supervisor, as every fleet agent does.
fn sms_deliveries() {
    let device = common::device();
    let runtime = common::android_builder(&device)
        .build()
        .expect("a bare runtime builds");
    let sms = runtime.proxy::<dyn SmsProxy>().expect("an SMS proxy");
    let mut text = String::new();
    let mut send = |n: u64| {
        text.clear();
        let _ = write!(text, "agent {} checking in", n % 10_000);
        sms.send_text_message(SUPERVISOR, &text, None)
            .expect("the SMSC accepts the message");
        if n % SMS_PER_TICK == SMS_PER_TICK - 1 {
            device.advance_ms(40);
        }
    };
    (0..SMS_WARM_MESSAGES).for_each(&mut send);
    let ((), _, bytes) = measure(|| {
        (SMS_WARM_MESSAGES..SMS_WARM_MESSAGES + SMS_MEASURED_MESSAGES).for_each(&mut send);
        device.advance_ms(1_000);
    });
    let per_message = bytes as f64 / SMS_MEASURED_MESSAGES as f64;
    assert_eq!(
        device.smsc().inbox_len(SUPERVISOR) as u64,
        SMS_WARM_MESSAGES + SMS_MEASURED_MESSAGES
    );
    assert!(
        per_message <= SMS_BYTES,
        "an SMSC keeps {per_message:.1} bytes per delivered message (at most {SMS_BYTES})"
    );
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}
