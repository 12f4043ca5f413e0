//! Allocation-count pin for runtime construction.
//!
//! Proxy descriptors are static metadata (paper §3.3): the standard
//! catalog is built once per process, every runtime holds one `Arc` to
//! it, and every proxy one `Arc` to its binding plane. Registering a
//! bare runtime in a [`ShardedRegistry`] and warming it therefore costs
//! a few dozen allocations — the runtime, its proxies and their property
//! bags — rather than the thousands a private catalog copy per runtime
//! plus a rebuilt descriptor per proxy would take.
//!
//! The counter is a thread-local [`GlobalAlloc`] wrapper, as in
//! `zero_alloc_telemetry.rs`; the test holds every platform — the
//! test-only memory plane included — in one `#[test]` so the
//! process-wide catalogs are warmed once, up front.

mod common;

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use common::memory_plane::{memory_catalog, MemoryPlane};
use mobivine::registry::MobivineBuilder;
use mobivine::shard::ShardedRegistry;
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

/// Most allocations one bare runtime may make to register and warm.
const MAX_ALLOCS_PER_RUNTIME: u64 = 64;

/// Runtimes measured per platform, after one uncounted warm-up.
const RUNTIMES: usize = 8;

/// Registers and warms `RUNTIMES + 1` runtimes selected by `select`
/// (targets are built outside the counted window) and returns the most
/// allocations any counted one made.
fn worst_push_and_warm(select: &dyn Fn(MobivineBuilder) -> MobivineBuilder) -> u64 {
    let mut registry = ShardedRegistry::new(4).expect("four shards");
    let mut worst = 0;
    for i in 0..=RUNTIMES {
        let before = allocations();
        let index = registry.push_with(select).expect("the runtime builds");
        registry.runtime(index).unwrap().warm().expect("warm");
        let made = allocations() - before;
        if i > 0 {
            worst = worst.max(made);
        }
    }
    worst
}

#[test]
fn pushing_and_warming_a_bare_runtime_makes_a_bounded_number_of_allocations() {
    let device = Device::builder().build();
    let android = AndroidPlatform::new(device.clone(), SdkVersion::M5Rc15);
    let s60 = S60Platform::new(device);

    let ctx = android.new_context();
    let worst = worst_push_and_warm(&|b| b.android(ctx.clone()));
    assert!(
        worst <= MAX_ALLOCS_PER_RUNTIME,
        "android push + warm made {worst} allocations (bound {MAX_ALLOCS_PER_RUNTIME})"
    );

    let worst = worst_push_and_warm(&|b| b.s60(s60.clone()));
    assert!(
        worst <= MAX_ALLOCS_PER_RUNTIME,
        "s60 push + warm made {worst} allocations (bound {MAX_ALLOCS_PER_RUNTIME})"
    );

    // Each WebView runtime gets its own page: installing the Java
    // wrappers is part of building the runtime.
    let pages: Vec<Arc<WebView>> = (0..=RUNTIMES)
        .map(|_| Arc::new(WebView::new(android.new_context())))
        .collect();
    let next = Cell::new(0);
    let worst = worst_push_and_warm(&|b| {
        let page = Arc::clone(&pages[next.get()]);
        next.set(next.get() + 1);
        b.webview(page)
    });
    assert!(
        worst <= MAX_ALLOCS_PER_RUNTIME,
        "webview push + warm made {worst} allocations (bound {MAX_ALLOCS_PER_RUNTIME})"
    );

    // The test-only fourth platform: its extended catalog is built
    // once, up front, like the standard one.
    let memory = Arc::new(MemoryPlane::new(Device::builder().build()));
    drop(memory_catalog());
    let worst = worst_push_and_warm(&|b| b.platform(memory.clone()));
    assert!(
        worst <= MAX_ALLOCS_PER_RUNTIME,
        "memory push + warm made {worst} allocations (bound {MAX_ALLOCS_PER_RUNTIME})"
    );
}
