//! Allocation-count proof for the telemetry hot path.
//!
//! The tentpole claim: after warm-up, a traced proxy call performs
//! **zero heap allocations** in the telemetry recording path — label
//! interning, instrument-handle resolution and span-name formatting all
//! happened once at wiring time, per-thread span sinks were
//! pre-allocated at their retention capacity, and per-call recording is
//! atomics plus moves.
//!
//! The proof is a counting [`GlobalAlloc`] wrapper. This file holds a
//! **single** `#[test]` on purpose: integration-test binaries run tests
//! on their own threads, and a sibling test's allocations would corrupt
//! the per-thread counter windows.
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
//! uncached `getLocationWithPower` multi-read (on WebView both as two
//! crossings and batched into one) all make exactly zero allocations
//! once warm. Layer span names are compile-time constants,
//! span events are static and stored inline, and the built-in platform
//! attribute is a static symbol.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use mobivine::api::LocationProxy;
use mobivine::cache::CachePolicy;
use mobivine::overload::OverloadPolicy;
use mobivine::property::PropertyValue;
use mobivine::registry::{Mobivine, MobivineBuilder};
use mobivine::resilience::ResiliencePolicy;
use mobivine::webview::BATCH_PROPERTY;
use mobivine_android::{AndroidPlatform, SdkVersion};
use mobivine_device::Device;
use mobivine_s60::S60Platform;
use mobivine_webview::WebView;

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

/// Calls `getLocation` `calls` times and returns the allocations made.
fn measure(proxy: &Arc<dyn LocationProxy>, calls: u32) -> u64 {
    let before = allocations();
    for _ in 0..calls {
        let location = proxy.get_location().expect("getLocation succeeds");
        std::hint::black_box(&location);
    }
    allocations() - before
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

/// A runtime on the platform `builder` targets, with telemetry on.
fn traced(builder: MobivineBuilder) -> Mobivine {
    builder
        .with_telemetry()
        .build()
        .expect("traced runtime builds")
}

/// Pins the warmed, fully layered read paths of `runtime` at zero
/// allocations: a cache hit, a forced miss (the clock moves past the
/// cache TTL outside the counted window) and the uncached multi-read.
fn assert_layered_reads_allocate_nothing(platform: &str, device: &Device, runtime: &Mobivine) {
    let proxy = runtime
        .proxy::<dyn LocationProxy>()
        .expect("every platform supports Location");
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
    let pin = |path: &str, prepare: &dyn Fn(), call: &dyn Fn()| {
        measure_each(WARMUP_CALLS, prepare, call);
        let allocs = measure_each(MEASURED_CALLS, prepare, call);
        assert_eq!(
            allocs, 0,
            "fully layered {platform} {path} must not allocate after warm-up \
             ({allocs} allocations over {MEASURED_CALLS} calls)"
        );
    };
    pin("getLocation cache hit", &|| {}, &get_location);
    pin("getLocation cache miss", &expire, &get_location);
    pin("getLocationWithPower", &|| {}, &with_power);
}

#[test]
fn traced_get_location_allocates_nothing_after_warmup() {
    // --- Android: absolute zero -----------------------------------
    let android = AndroidPlatform::new(Device::builder().build(), SdkVersion::M5Rc15);
    let runtime = traced(Mobivine::builder().android(android.new_context()));
    let proxy = runtime
        .proxy::<dyn LocationProxy>()
        .expect("android supports Location");
    measure(&proxy, WARMUP_CALLS);
    let android_allocs = measure(&proxy, MEASURED_CALLS);
    assert_eq!(
        android_allocs, 0,
        "traced android getLocation must not allocate after warm-up \
         ({android_allocs} allocations over {MEASURED_CALLS} calls)"
    );

    // --- S60: absolute zero ---------------------------------------
    let runtime = traced(Mobivine::builder().s60(S60Platform::new(Device::builder().build())));
    let proxy = runtime
        .proxy::<dyn LocationProxy>()
        .expect("s60 supports Location");
    measure(&proxy, WARMUP_CALLS);
    let s60_allocs = measure(&proxy, MEASURED_CALLS);
    assert_eq!(
        s60_allocs, 0,
        "traced s60 getLocation must not allocate after warm-up \
         ({s60_allocs} allocations over {MEASURED_CALLS} calls)"
    );

    // --- WebView: absolute zero through the wire arenas -----------
    let android = AndroidPlatform::new(Device::builder().build(), SdkVersion::M5Rc15);
    let webview = Arc::new(WebView::new(android.new_context()));
    let runtime = traced(Mobivine::builder().webview(webview));
    let proxy = runtime
        .proxy::<dyn LocationProxy>()
        .expect("webview supports Location");
    measure(&proxy, WARMUP_CALLS);
    let webview_allocs = measure(&proxy, MEASURED_CALLS);
    assert_eq!(
        webview_allocs, 0,
        "traced webview getLocation must not allocate after warm-up \
         ({webview_allocs} allocations over {MEASURED_CALLS} calls): the \
         scratch WireBuf pair, stack traceparent and static span names \
         make the bridge crossing itself allocation-free"
    );

    // --- Every read layer, on every platform: absolute zero --------
    let device = Device::builder().build();
    let android = AndroidPlatform::new(device.clone(), SdkVersion::M5Rc15);
    let runtime = every_read_layer(Mobivine::builder().android(android.new_context()));
    assert_layered_reads_allocate_nothing("android", &device, &runtime);

    let device = Device::builder().build();
    let runtime = every_read_layer(Mobivine::builder().s60(S60Platform::new(device.clone())));
    assert_layered_reads_allocate_nothing("s60", &device, &runtime);

    let device = Device::builder().build();
    let android = AndroidPlatform::new(device.clone(), SdkVersion::M5Rc15);
    let webview = Arc::new(WebView::new(android.new_context()));
    let runtime = every_read_layer(Mobivine::builder().webview(webview));
    assert_layered_reads_allocate_nothing("webview", &device, &runtime);

    // The same reads with the multi-read batched into one crossing.
    runtime
        .proxy::<dyn LocationProxy>()
        .expect("webview supports Location")
        .set_property(BATCH_PROPERTY, PropertyValue::Bool(true))
        .expect("the webview proxy batches multi-reads");
    assert_layered_reads_allocate_nothing("webview batched", &device, &runtime);
}
