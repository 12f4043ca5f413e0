//! Platforms plug in as binding planes (paper §3.3): "one requires to
//! publish only the binding artifacts for proxies corresponding to a
//! new platform".
//!
//! `tests/extension.rs` shows that on the descriptor side: the plug-in
//! tooling picks up an extended catalog unchanged. This file shows it
//! at runtime. An in-memory fourth platform
//! ([`common::memory_plane`]), defined only here, publishes its
//! bindings through its catalog and implements `BindingPlane`; nothing
//! in `mobivine` names it. It resolves, warms, fills a registry shard
//! and gets every layer, and the layer-subset neutrality law holds on
//! it exactly as on Android, S60 and WebView.

mod common;

use std::sync::Arc;

use common::memory_plane::{memory_platform, MemoryPlane, PUBLISHED};
use common::{PlatformBuilder, BUILDERS};
use mobivine::api::{CalendarProxy, CallProxy, ContactsProxy, HttpProxy, LocationProxy, SmsProxy};
use mobivine::cache::CachePolicy;
use mobivine::error::ProxyErrorKind;
use mobivine::overload::OverloadPolicy;
use mobivine::registry::{Mobivine, MobivineBuilder, ProxyKind};
use mobivine::resilience::ResiliencePolicy;
use mobivine::shard::ShardedRegistry;
use mobivine::JournalPolicy;
use mobivine_device::net::{HttpRequest, HttpResponse, Method};
use mobivine_device::Device;

/// A builder targeting the memory platform over `device`.
fn memory_builder(device: &Device) -> MobivineBuilder {
    Mobivine::builder().platform(Arc::new(MemoryPlane::new(device.clone())))
}

#[test]
fn a_fourth_platform_resolves_and_warms_through_the_builder() {
    let runtime = memory_builder(&Device::builder().build()).build().unwrap();
    assert_eq!(runtime.platform_id(), memory_platform());
    for kind in ProxyKind::ALL {
        assert_eq!(
            runtime.supports_kind(kind),
            PUBLISHED.contains(&kind.interface()),
            "{kind}: supported exactly when the catalog publishes it"
        );
    }
    assert_eq!(runtime.warm().unwrap(), PUBLISHED.len());

    let location = runtime.proxy::<dyn LocationProxy>().unwrap();
    assert_eq!(location.get_location().unwrap().latitude, 28.5355);
    let sms = runtime.proxy::<dyn SmsProxy>().unwrap();
    assert_eq!(sms.send_text_message("+91-sup", "hi", None).unwrap(), 1);
    let http = runtime.proxy::<dyn HttpProxy>().unwrap();
    assert_eq!(http.request("GET", "mem://ping", b"").unwrap().status, 200);
    // Warming cached the instances the later acquisitions returned.
    assert!(Arc::ptr_eq(
        &location,
        &runtime.proxy::<dyn LocationProxy>().unwrap()
    ));
}

#[test]
fn unpublished_kinds_are_unsupported_and_errors_are_not_cached() {
    let plane = Arc::new(MemoryPlane::new(Device::builder().build()));
    let runtime = Mobivine::builder().platform(plane.clone()).build().unwrap();
    let unsupported = [
        runtime.proxy::<dyn CallProxy>().err(),
        runtime.proxy::<dyn ContactsProxy>().err(),
        runtime.proxy::<dyn CalendarProxy>().err(),
        runtime.proxy::<dyn CallProxy>().err(),
    ];
    for err in unsupported {
        let err = err.expect("no binding published");
        assert_eq!(err.kind(), ProxyErrorKind::UnsupportedOnPlatform);
        assert!(err.to_string().contains("memory"), "{err}");
    }

    // A construction error is not memoized: once the plane can bind,
    // the next acquisition succeeds.
    plane.set_http_offline(true);
    let err = runtime.proxy::<dyn HttpProxy>().err().expect("offline");
    assert_eq!(err.kind(), ProxyErrorKind::Unavailable);
    plane.set_http_offline(false);
    assert!(runtime.proxy::<dyn HttpProxy>().is_ok());
    assert_eq!(runtime.warm().unwrap(), PUBLISHED.len());
}

#[test]
fn a_fourth_platform_fills_a_registry_shard_that_warms_and_resolves() {
    let mut registry = ShardedRegistry::new(1).unwrap();
    for _ in 0..8 {
        let device = Device::builder().build();
        registry
            .push_with(|b| b.platform(Arc::new(MemoryPlane::new(device))))
            .unwrap();
    }
    assert_eq!(registry.shard_members(0).count(), 8);
    assert_eq!(registry.warm().unwrap(), 8 * PUBLISHED.len());
    for device_index in registry.shard_members(0) {
        let sms = registry.resolve::<dyn SmsProxy>(device_index).unwrap();
        assert_eq!(sms.send_text_message("+91-sup", "hi", None).unwrap(), 1);
        let err = registry.resolve::<dyn CallProxy>(device_index).err();
        assert_eq!(
            err.map(|e| e.kind()),
            Some(ProxyErrorKind::UnsupportedOnPlatform)
        );
    }
}

/// Switches one layer on.
type Toggle = fn(MobivineBuilder) -> MobivineBuilder;

/// The layers the builder can switch on, one per toggle: telemetry
/// wires both trace planes at once, so the stack's six layers are
/// five toggles.
const TOGGLES: [(&str, Toggle); 5] = [
    ("telemetry", |b| b.with_telemetry()),
    ("cache", |b| b.with_cache(CachePolicy::default())),
    ("overload", |b| b.with_overload(OverloadPolicy::default())),
    ("journal", |b| b.with_journal(JournalPolicy::default())),
    ("resilience", |b| {
        b.with_resilience(ResiliencePolicy::default())
    }),
];

/// The fixed no-fault script the neutrality test replays: two reads,
/// a send, a POST to a registered route and, where the platform has
/// one, a call.
fn script(runtime: &Mobivine) -> Vec<String> {
    let location = runtime.proxy::<dyn LocationProxy>().unwrap();
    let sms = runtime.proxy::<dyn SmsProxy>().unwrap();
    let http = runtime.proxy::<dyn HttpProxy>().unwrap();
    let mut results = vec![
        format!("{:?}", location.get_location()),
        format!("{:?}", location.get_location()),
        format!("{:?}", sms.send_text_message("+91-sup", "on site", None)),
        format!(
            "{:?}",
            http.request("POST", "http://backend.example/submit", b"{}")
        ),
    ];
    if runtime.supports_kind(ProxyKind::Call) {
        let call = runtime.proxy::<dyn CallProxy>().unwrap();
        results.push(format!("{:?}", call.make_a_call("+91-sup")));
    }
    results
}

/// A fault-free runtime on a fresh device, targeted by `target`, with
/// the `mask` subset of [`TOGGLES`] enabled.
fn runtime(target: PlatformBuilder, mask: u32) -> Mobivine {
    let device = Device::builder().msisdn("+91-me").build();
    device.gps().set_noise_enabled(false);
    device.smsc().register_address("+91-sup");
    device.network().register_route(
        "backend.example",
        Method::Post,
        "/submit",
        |_: &HttpRequest| HttpResponse::ok(b"{\"ok\":true}".to_vec()),
    );
    let enabled = TOGGLES
        .iter()
        .enumerate()
        .filter(|(bit, _)| mask & (1 << bit) != 0);
    let builder = enabled.fold(target(&device), |b, (_, (_, toggle))| toggle(b));
    builder.build().unwrap()
}

/// With no fault injected, every subset of layers returns exactly what
/// the bare runtime returns, on the three paper platforms and on the
/// test-only fourth one.
#[test]
fn every_layer_subset_is_neutral_on_every_platform() {
    let platforms = BUILDERS
        .into_iter()
        .chain([("memory", memory_builder as PlatformBuilder)]);
    for (platform, target) in platforms {
        let bare = script(&runtime(target, 0));
        assert!(
            bare.iter().all(|result| result.starts_with("Ok(")),
            "{platform}: {bare:?}"
        );
        for mask in 1..1u32 << TOGGLES.len() {
            let subset: Vec<&str> = TOGGLES
                .iter()
                .enumerate()
                .filter(|(bit, _)| mask & (1 << bit) != 0)
                .map(|(_, (name, _))| *name)
                .collect();
            let layered = script(&runtime(target, mask));
            assert_eq!(layered, bare, "{platform} with {subset:?}");
        }
    }
}
