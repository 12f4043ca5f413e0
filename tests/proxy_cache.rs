//! Cross-platform contract of the read-through proxy cache
//! ([`mobivine::cache`]): invalidation on `setProperty` and on fault
//! transitions and single-flight coalescing accounting. The fleet-level
//! claim (caching is invisible to the checksum, on any worker count) is
//! the bench `cache` scenario's gates and worker-invariance table.

mod common;

use std::sync::Arc;
use std::thread;

use common::{android_builder, device, BUILDERS};
use mobivine::api::LocationProxy;
use mobivine::cache::CachePolicy;
use mobivine::property::PropertyValue;
use mobivine::registry::Mobivine;
use mobivine_device::fault::FaultPlan;
use mobivine_device::Device;

/// One **cached** runtime per platform binding, each over its own fresh
/// fixture device so cache counters never cross-talk.
fn cached_runtimes_isolated(policy: &CachePolicy) -> Vec<(&'static str, Device, Mobivine)> {
    BUILDERS
        .into_iter()
        .map(|(name, builder)| {
            let device = device();
            let runtime = builder(&device)
                .with_cache(policy.clone())
                .build()
                .expect("cached runtime builds");
            (name, device, runtime)
        })
        .collect()
}

/// `setProperty` through a cached proxy must flush the cache before the
/// write reaches the binding: the next read may not serve a value
/// computed under the old configuration.
#[test]
fn set_property_invalidates_on_every_platform() {
    for (name, _device, runtime) in cached_runtimes_isolated(&CachePolicy::default()) {
        let location = runtime.proxy::<dyn LocationProxy>().unwrap();
        location.get_location().unwrap();
        location.get_location().unwrap();
        let metrics = runtime.cache_metrics().expect("cache metrics");
        assert_eq!(
            (metrics.snapshot().miss, metrics.snapshot().hit),
            (1, 1),
            "{name}: second read must hit"
        );

        // The write invalidates *before* it is forwarded, so the flush
        // happens whether or not the binding accepts the key.
        let _ = location.set_property("provider", PropertyValue::str("gps"));
        location.get_location().unwrap();
        let snapshot = metrics.snapshot();
        assert_eq!(snapshot.miss, 2, "{name}: post-write read must refill");
        assert!(
            snapshot.invalidated >= 1,
            "{name}: the flush must be counted: {snapshot}"
        );
    }
}

/// A fault-plan transition bumps the device's fault epoch; a cached
/// entry stamped under the old epoch must be discarded on the next read
/// even though its TTL has not expired.
#[test]
fn fault_transition_invalidates_on_every_platform() {
    for (name, device, runtime) in cached_runtimes_isolated(&CachePolicy::default()) {
        let location = runtime.proxy::<dyn LocationProxy>().unwrap();
        location.get_location().unwrap();
        location.get_location().unwrap();
        let metrics = runtime.cache_metrics().expect("cache metrics");
        assert_eq!((metrics.snapshot().miss, metrics.snapshot().hit), (1, 1));

        // Outage window 1s–2s: both edges bump the fault epoch. Advance
        // past the restore so the refill lands on a healthy GPS — well
        // inside the 10s default TTL, so only the epoch can explain the
        // discard.
        FaultPlan::new(&device).gps_outage(1_000, 2_000);
        device.advance_ms(2_500);
        location.get_location().unwrap();
        let snapshot = metrics.snapshot();
        assert_eq!(
            snapshot.miss, 2,
            "{name}: the post-fault read must refill: {snapshot}"
        );
        assert_eq!(
            snapshot.invalidated, 1,
            "{name}: exactly one stamp-mismatch discard: {snapshot}"
        );
    }
}

/// Concurrent readers of one cached proxy obey the single-flight
/// accounting identity: every read is a hit, THE miss, or a coalesced
/// wait — and the binding plane is invoked exactly once.
#[test]
fn concurrent_reads_fill_the_binding_plane_exactly_once() {
    let device = device();
    let runtime = android_builder(&device).with_cache(CachePolicy::default());
    let runtime = Arc::new(runtime.build().unwrap());
    let metrics = runtime.cache_metrics().expect("cache metrics");

    const READERS: usize = 8;
    thread::scope(|scope| {
        for _ in 0..READERS {
            let runtime = Arc::clone(&runtime);
            scope.spawn(move || {
                runtime
                    .proxy::<dyn LocationProxy>()
                    .unwrap()
                    .get_location()
                    .unwrap();
            });
        }
    });

    let snapshot = metrics.snapshot();
    assert_eq!(snapshot.miss, 1, "one leader fills: {snapshot}");
    assert_eq!(
        snapshot.hit + snapshot.miss + snapshot.coalesced,
        READERS as u64,
        "every read is accounted exactly once: {snapshot}"
    );
}
