//! Shared three-platform fixtures for the integration suites.
//!
//! Every cross-platform test wants the same shape: one simulated
//! [`Device`] and a MobiVine runtime per platform binding (Android, S60,
//! WebView) sharing it, so identical behaviour can be asserted across
//! the board. This module is the single home of that fixture, plus
//! ([`memory_plane`]) a fourth platform that exists only in tests.

// Each test binary that declares `mod common;` uses its own subset of
// these helpers.
#![allow(dead_code)]

pub mod memory_plane;

use std::sync::Arc;

use mobivine::registry::{Mobivine, MobivineBuilder};
use mobivine::resilience::ResiliencePolicy;
use mobivine_android::{AndroidPlatform, SdkVersion};
use mobivine_device::{Device, GeoPoint};
use mobivine_s60::S60Platform;
use mobivine_webview::WebView;

/// The standard fixture device: stationary in Noida, a supervisor
/// address registered at the SMSC.
pub fn device() -> Device {
    let device = Device::builder()
        .msisdn("+91-me")
        .position(GeoPoint::new(28.5355, 77.3910))
        .build();
    device.smsc().register_address("+91-sup");
    device
}

/// A builder targeting Android over `device`: add layers, then build.
pub fn android_builder(device: &Device) -> MobivineBuilder {
    let platform = AndroidPlatform::new(device.clone(), SdkVersion::M5Rc15);
    Mobivine::builder().android(platform.new_context())
}

/// A builder targeting S60 over `device`.
pub fn s60_builder(device: &Device) -> MobivineBuilder {
    Mobivine::builder().s60(S60Platform::new(device.clone()))
}

/// A builder targeting a fresh WebView page over `device`.
pub fn webview_builder(device: &Device) -> MobivineBuilder {
    let platform = AndroidPlatform::new(device.clone(), SdkVersion::M5Rc15);
    Mobivine::builder().webview(Arc::new(WebView::new(platform.new_context())))
}

/// Targets one platform over a device.
pub type PlatformBuilder = fn(&Device) -> MobivineBuilder;

/// Every platform's builder, by name.
pub const BUILDERS: [(&str, PlatformBuilder); 3] = [
    ("android", android_builder),
    ("s60", s60_builder),
    ("webview", webview_builder),
];

/// An Android-bound runtime over `device`.
pub fn android_runtime(device: &Device) -> Mobivine {
    android_builder(device)
        .build()
        .expect("android runtime builds")
}

/// An S60-bound runtime over `device`.
pub fn s60_runtime(device: &Device) -> Mobivine {
    s60_builder(device).build().expect("s60 runtime builds")
}

/// A WebView-bound runtime over `device`.
pub fn webview_runtime(device: &Device) -> Mobivine {
    webview_builder(device)
        .build()
        .expect("webview runtime builds")
}

/// One runtime per platform binding, all sharing `device`.
pub fn runtimes(device: &Device) -> Vec<(&'static str, Mobivine)> {
    vec![
        ("android", android_runtime(device)),
        ("s60", s60_runtime(device)),
        ("webview", webview_runtime(device)),
    ]
}

/// One **resilient** runtime per platform binding — each over its own
/// fresh fixture device, so per-platform attempt counts and fault
/// traces can be compared without cross-talk.
pub fn resilient_runtimes_isolated(
    policy: &ResiliencePolicy,
) -> Vec<(&'static str, Device, Mobivine)> {
    BUILDERS
        .into_iter()
        .map(|(name, builder)| {
            let device = device();
            let runtime = builder(&device)
                .with_resilience(*policy)
                .build()
                .expect("resilient runtime builds");
            (name, device, runtime)
        })
        .collect()
}
