//! Each policy layer is configured once, by its builder policy.
//!
//! The paper's generic `setProperty` carries platform properties such
//! as `provider` or `powerConsumption` (§4.1). No layer claims a key on
//! that plane: a key naming a layer knob goes down to the binding,
//! which rejects it as undeclared, and the standard catalog declares
//! none. The write still flushes the cache first, because a write is a
//! mutation signal whether or not it lands.

mod common;

use std::sync::Arc;

use common::BUILDERS;
use mobivine::api::{
    CalendarProxy, CallProxy, ContactsProxy, HttpProxy, LocationProxy, ProxyBase, SmsProxy,
};
use mobivine::cache::CachePolicy;
use mobivine::error::ProxyErrorKind;
use mobivine::overload::OverloadPolicy;
use mobivine::property::PropertyValue;
use mobivine::registry::{Mobivine, ProxyKind};
use mobivine::resilience::ResiliencePolicy;
use mobivine::JournalPolicy;

/// The layer knobs that once doubled as `setProperty` keys.
const LAYER_KEYS: [&str; 18] = [
    "retry.max_attempts",
    "retry.backoff_ms",
    "retry.deadline_ms",
    "retry.jitter_seed",
    "circuit.threshold",
    "circuit.cooldown_ms",
    "fallback.latitude",
    "fallback.longitude",
    "bulkhead.max_concurrency",
    "bulkhead.queue_depth",
    "bulkhead.queue_wait_ms",
    "shed.enabled",
    "shed.target_ms",
    "shed.seed",
    "shed.droppable_path",
    "deadline.default_ms",
    "cache.ttl_ms",
    "cache.coalescing",
];

/// A value each key's old parser accepted.
fn value_for(key: &str) -> PropertyValue {
    match key {
        "shed.droppable_path" => PropertyValue::str("/enrich"),
        _ => PropertyValue::Int(1),
    }
}

/// The runtime's `kind` proxy, seen through its property plane.
fn proxy_of(runtime: &Mobivine, kind: ProxyKind) -> Arc<dyn ProxyBase> {
    match kind {
        ProxyKind::Location => runtime.proxy::<dyn LocationProxy>().unwrap(),
        ProxyKind::Sms => runtime.proxy::<dyn SmsProxy>().unwrap(),
        ProxyKind::Call => runtime.proxy::<dyn CallProxy>().unwrap(),
        ProxyKind::Http => runtime.proxy::<dyn HttpProxy>().unwrap(),
        ProxyKind::Contacts => runtime.proxy::<dyn ContactsProxy>().unwrap(),
        ProxyKind::Calendar => runtime.proxy::<dyn CalendarProxy>().unwrap(),
    }
}

#[test]
fn layer_keys_are_unknown_properties_on_every_platform_and_interface() {
    for (platform, builder) in BUILDERS {
        let device = common::device();
        let runtime = builder(&device)
            .with_telemetry()
            .with_cache(CachePolicy::default())
            .with_overload(OverloadPolicy::default())
            .with_journal(JournalPolicy::default())
            .with_resilience(ResiliencePolicy::default())
            .build()
            .expect("layered runtime builds");
        let cache = runtime.cache_metrics().expect("cache layer on");
        let location = runtime.proxy::<dyn LocationProxy>().unwrap();
        let kinds = ProxyKind::ALL
            .into_iter()
            .filter(|k| runtime.supports_kind(*k));
        for kind in kinds {
            let proxy = proxy_of(&runtime, kind);
            for key in LAYER_KEYS {
                location.get_location().expect("a fix fills the cache");
                let before = cache.snapshot().invalidated;
                let err = proxy
                    .set_property(key, value_for(key))
                    .expect_err("no layer claims the key");
                assert_eq!(
                    err.kind(),
                    ProxyErrorKind::UnknownProperty,
                    "{platform} {kind}: {key}: {err}"
                );
                if kind == ProxyKind::Location {
                    assert_eq!(
                        cache.snapshot().invalidated,
                        before + 1,
                        "{platform}: {key} still flushes the cached fix"
                    );
                }
            }
        }
    }
}

#[test]
fn the_standard_catalog_declares_no_layer_key() {
    for descriptor in mobivine_proxydl::catalog::standard().iter() {
        for binding in &descriptor.bindings {
            for key in LAYER_KEYS {
                assert!(
                    binding.find_property(key).is_none(),
                    "{} on {:?} declares {key}",
                    descriptor.name,
                    binding.platform
                );
            }
        }
    }
}
