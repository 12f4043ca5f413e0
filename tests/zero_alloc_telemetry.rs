//! Allocation-count proof for the telemetry hot path.
//!
//! The tentpole claim: after warm-up, a traced proxy call performs
//! **zero heap allocations** in the telemetry recording path — label
//! interning, instrument-handle resolution and span-name formatting all
//! happened once at wiring time, per-thread span sinks were
//! pre-allocated at their retention capacity, and per-call recording is
//! atomics plus moves.
//!
//! The proof is a counting [`GlobalAlloc`] wrapper, and every pin goes
//! through one helper, `assert_allocates_nothing`, which takes no
//! bound: each pinned path must make exactly zero allocations. This
//! file holds a **single** `#[test]` on purpose: integration-test
//! binaries run tests on their own threads, and a sibling test's
//! allocations would corrupt the per-thread counter windows.
//!
//! Per platform:
//! - **Android** and **S60** calls are asserted to make *absolutely
//!   zero* allocations once warm — the whole stack (traced decorators,
//!   ambient span stack, platform middleware, device substrate) runs
//!   allocation-free.
//! - **WebView** calls cross the JavaScript bridge. With the arena
//!   wire format the crossing itself is allocation-free once warm: the
//!   handle's scratch [`WireBuf`](mobivine_webview::WireBuf) pair is
//!   cleared, not freed, between calls; the W3C `traceparent` renders
//!   into a fixed 55-byte stack buffer; and the wrapper decodes
//!   arguments and encodes the reply as offset views into the same
//!   arenas. So the WebView pin is the same as android/s60: exactly
//!   zero allocations per warmed traced `getLocation`.
//!
//! The same bar holds with the cache, overload and resilience layers
//! stacked under telemetry, each opening its own span: a cache hit, a
//! forced cache miss that descends every layer to the platform, and the
//! uncached `getLocationWithPower` multi-read (two crossings on
//! WebView) all make exactly zero allocations once warm. Layer span names are compile-time constants,
//! span events are static and stored inline, and the built-in platform
//! attribute is a static symbol.
//!
//! Calls that allocate on their own — a `sendTextMessage` queues the
//! message, a `request` builds its response — are pinned relative to
//! the same calls untraced: tracing them adds no allocation. Their span
//! attributes are numbers rendered only at export (`segments`,
//! `status`), static symbols (`method`) and the route table's own
//! shared `host` and `path` strings, held in the span's spill.
//!
//! The spill itself is pinned through a retention-4 ring: a span with
//! four attributes, two of them strings in its spill, allocates only
//! its owned value once warm, and the ring releases each overwritten
//! record's strings.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use mobivine::api::{HttpProxy, LocationProxy, SmsProxy};
use mobivine::cache::CachePolicy;
use mobivine::overload::OverloadPolicy;
use mobivine::registry::{Mobivine, MobivineBuilder};
use mobivine::resilience::ResiliencePolicy;
use mobivine_device::net::{HttpResponse, Method};
use mobivine_device::Device;
use mobivine_telemetry::span::{ambient, Plane};
use mobivine_telemetry::{Recorder, Tracer};

mod common;

use common::{PlatformBuilder, BUILDERS};

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// Counts every allocation made by the current thread, then delegates
/// to the system allocator.
struct CountingAlloc;

// SAFETY: pure delegation to `System`; the thread-local counter bump
// does not allocate (const-initialised `Cell`).
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|c| c.set(c.get() + 1));
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|c| c.set(c.get() + 1));
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.with(|c| c.set(c.get() + 1));
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

/// Runs `prepare` then `call`, `calls` times, and returns the
/// allocations `call` made; `prepare` runs outside the counted window.
fn measure_each(calls: u32, prepare: &dyn Fn(), call: &dyn Fn()) -> u64 {
    let mut total = 0;
    for _ in 0..calls {
        prepare();
        let before = allocations();
        call();
        total += allocations() - before;
    }
    total
}

const WARMUP_CALLS: u32 = 5;
const MEASURED_CALLS: u32 = 50;

/// The one zero-allocation pin: after [`WARMUP_CALLS`] warm-up calls,
/// `call` must make no allocation at all over [`MEASURED_CALLS`] calls,
/// each preceded by an uncounted `prepare`. It takes no bound, so no
/// pin can be relaxed to "a few".
fn assert_allocates_nothing(what: &str, prepare: &dyn Fn(), call: &dyn Fn()) {
    measure_each(WARMUP_CALLS, prepare, call);
    let allocs = measure_each(MEASURED_CALLS, prepare, call);
    assert_eq!(
        allocs, 0,
        "{what} must not allocate after warm-up \
         ({allocs} allocations over {MEASURED_CALLS} calls)"
    );
}

fn location(runtime: &Mobivine) -> Arc<dyn LocationProxy> {
    runtime
        .proxy::<dyn LocationProxy>()
        .expect("every platform supports Location")
}

/// A runtime on the platform `builder` targets, with telemetry, cache,
/// overload and resilience on.
fn every_read_layer(builder: MobivineBuilder) -> Mobivine {
    builder
        .with_telemetry()
        .with_cache(CachePolicy::default())
        .with_overload(OverloadPolicy::default())
        .with_resilience(ResiliencePolicy::default())
        .build()
        .expect("layered runtime builds")
}

/// Pins the warmed, fully layered read paths of `runtime` at zero
/// allocations: a cache hit, a forced miss (the clock moves past the
/// cache TTL outside the counted window) and the uncached multi-read.
fn assert_layered_reads_allocate_nothing(platform: &str, device: &Device, runtime: &Mobivine) {
    let proxy = location(runtime);
    let ttl = CachePolicy::default().location_ttl();
    let get_location = || {
        std::hint::black_box(proxy.get_location().expect("getLocation succeeds"));
    };
    let with_power = || {
        let reply = proxy.get_location_with_power();
        std::hint::black_box(reply.expect("getLocationWithPower succeeds"));
    };
    let expire = || {
        device.advance_ms(ttl + 1);
    };
    let layered = |path: &str| format!("fully layered {platform} {path}");
    assert_allocates_nothing(&layered("getLocation cache hit"), &|| {}, &get_location);
    assert_allocates_nothing(&layered("getLocation cache miss"), &expire, &get_location);
    assert_allocates_nothing(&layered("getLocationWithPower"), &|| {}, &with_power);
}

/// Allocations `call` makes over [`MEASURED_CALLS`] calls after
/// [`WARMUP_CALLS`] warm-up calls.
fn warmed_allocations(call: &dyn Fn()) -> u64 {
    measure_each(WARMUP_CALLS, &|| {}, call);
    measure_each(MEASURED_CALLS, &|| {}, call)
}

const TASKS_URL: &str = "http://wfm.example/tasks";

/// A runtime on the platform `builder` targets over a fresh device
/// serving [`TASKS_URL`], traced or not.
fn messaging_runtime(builder: PlatformBuilder, traced: bool) -> Mobivine {
    let device = common::device();
    device
        .network()
        .register_route("wfm.example", Method::Get, "/tasks", |_| {
            HttpResponse::ok("[]")
        });
    let builder = builder(&device);
    let builder = if traced {
        builder.with_telemetry()
    } else {
        builder
    };
    builder.build().expect("runtime builds")
}

/// Pins the warmed traced `sendTextMessage` and `request` of one
/// platform at exactly the allocations of the same calls untraced.
fn assert_tracing_adds_no_allocation(platform: &str, builder: PlatformBuilder) {
    let allocations = |traced: bool| {
        let runtime = messaging_runtime(builder, traced);
        let sms = runtime
            .proxy::<dyn SmsProxy>()
            .expect("every platform supports SMS");
        let http = runtime
            .proxy::<dyn HttpProxy>()
            .expect("every platform supports HTTP");
        let send = warmed_allocations(&|| {
            let id = sms.send_text_message("+91-sup", "on my way", None);
            std::hint::black_box(id.expect("sendTextMessage succeeds"));
        });
        let request = warmed_allocations(&|| {
            let reply = http.request("GET", TASKS_URL, &[]);
            std::hint::black_box(reply.expect("request succeeds"));
        });
        (send, request)
    };
    let (untraced_send, untraced_request) = allocations(false);
    let (traced_send, traced_request) = allocations(true);
    assert_eq!(
        traced_send, untraced_send,
        "traced {platform} sendTextMessage allocations over {MEASURED_CALLS} calls"
    );
    assert_eq!(
        traced_request, untraced_request,
        "traced {platform} request allocations over {MEASURED_CALLS} calls"
    );
}

/// A span with four attributes — a shared host and an owned path held
/// in its spill — filed 100 times through a retention-4 ring. Once warm
/// the only allocation is the owned path becoming a shared string, one
/// per call, and the ring frees the spill of every record it
/// overwrites.
fn assert_spilled_spans_allocate_flat() {
    let tracer = Tracer::with_recorder(4, Recorder::default());
    let host: Arc<str> = "wfm.example".into();
    let path = std::cell::RefCell::new(None);
    let prepare = || *path.borrow_mut() = Some(String::from("/tasks"));
    let call = || {
        let root = tracer.root("proxy:Http.request", Plane::Proxy, 0);
        let mut net = ambient::child("device:net.request", Plane::Device, 0).expect("a root");
        net.attr("method", "GET");
        net.attr("host", Arc::clone(&host));
        net.attr("path", path.borrow_mut().take().expect("prepared"));
        net.attr("status", 200u64);
        net.end(1);
        root.end(2);
    };
    measure_each(20, &prepare, &call);
    let allocs = measure_each(80, &prepare, &call);
    assert_eq!(
        allocs, 80,
        "one owned path per call through a retention-4 ring"
    );
    assert_eq!(
        Arc::strong_count(&host),
        1 + 2,
        "only the two resident net spans hold the shared host"
    );
}

#[test]
fn traced_get_location_allocates_nothing_after_warmup() {
    for (platform, builder) in BUILDERS {
        // --- Traced getLocation: absolute zero, the WebView bridge
        // crossing included (scratch WireBuf pair, stack traceparent,
        // static span names).
        let device = common::device();
        let runtime = builder(&device)
            .with_telemetry()
            .build()
            .expect("traced runtime builds");
        let proxy = location(&runtime);
        assert_allocates_nothing(&format!("traced {platform} getLocation"), &|| {}, &|| {
            std::hint::black_box(proxy.get_location().expect("getLocation succeeds"));
        });

        // --- Every read layer: absolute zero ------------------------
        let device = common::device();
        let runtime = every_read_layer(builder(&device));
        assert_layered_reads_allocate_nothing(platform, &device, &runtime);

        // --- Messaging: tracing adds no allocation ------------------
        assert_tracing_adds_no_allocation(platform, builder);
    }
    assert_spilled_spans_allocate_flat();
}
