//! The switch and counter behind the binary's counting allocator.
//!
//! The benchmark binary installs a `#[global_allocator]` that calls
//! [`note`] on every allocation; counting is on only inside [`count`],
//! which the traced pass wraps around its rounds. Library tests run
//! without that allocator and so count zero.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

/// Records one allocation if counting is on. A statistic only: it
/// publishes no other data, so `Relaxed` suffices.
#[inline]
pub fn note() {
    if COUNTING.load(Ordering::Relaxed) {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    }
}

/// Runs `f` with counting on; returns its result and the allocations
/// made meanwhile, on any thread.
pub fn count<R>(f: impl FnOnce() -> R) -> (R, u64) {
    ALLOCATIONS.store(0, Ordering::SeqCst);
    COUNTING.store(true, Ordering::SeqCst);
    let result = f();
    COUNTING.store(false, Ordering::SeqCst);
    (result, ALLOCATIONS.load(Ordering::SeqCst))
}
