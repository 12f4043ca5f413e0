//! Allocation-count pin for a promotion the incident store must drop.
//!
//! The store keeps the first traces it is given, so once it is full a
//! promoted trace would be copied out of the ring only to be thrown
//! away. The tracer skips the copy: an error-classified root on a full
//! store is counted and noted for its exemplar, and allocates nothing
//! once the thread's ring and the trace's span frames are warm.
//!
//! A counting [`GlobalAlloc`] wrapper proves it. This file holds a
//! **single** `#[test]`: integration-test binaries run tests on their
//! own threads, and a sibling test's allocations would corrupt the
//! per-thread counter window.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use mobivine_telemetry::recorder::take_promotion;
use mobivine_telemetry::span::{ambient, Plane};
use mobivine_telemetry::{Counter, PromotionPolicy, Recorder, RecorderCounters, Tracer};

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
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

/// One errored trace: a root with a platform child, closed with an
/// `error` attribute so the default policy promotes it.
fn errored_call(tracer: &Tracer, at: u64) {
    let mut root = tracer.root("proxy:Location.getLocation", Plane::Proxy, at);
    ambient::child("platform:gps", Plane::Platform, at + 1)
        .expect("ambient parent")
        .end(at + 2);
    root.attr("error", "Timeout");
    root.end(at + 3);
}

#[test]
fn an_errored_root_on_a_full_store_allocates_nothing() {
    let policy = PromotionPolicy::default().max_incidents(1);
    let tracer = Tracer::with_recorder(64, Recorder::new(policy));
    let counters = RecorderCounters {
        evicted: Counter::default(),
        promoted: Counter::default(),
        promoted_dropped: Counter::default(),
    };
    tracer.install_counters(counters.clone());
    // The first promotion fills the store; the next ones warm the
    // thread's sink, ambient stack and pending buffer.
    for i in 0..4 {
        errored_call(&tracer, i * 10);
        assert!(take_promotion(&tracer).is_some());
    }

    let before = allocations();
    for i in 4..104 {
        errored_call(&tracer, i * 10);
        assert!(take_promotion(&tracer).is_some());
    }
    let made = allocations() - before;

    let store = tracer.incident_store().expect("recorder installed");
    assert_eq!(made, 0, "allocations for 100 dropped promotions");
    assert_eq!(store.len(), 1);
    assert_eq!(store.promoted_total(), 104);
    assert_eq!(store.dropped(), 103);
    assert_eq!(counters.promoted.value(), 104);
    assert_eq!(counters.promoted_dropped.value(), 103);
}
