//! The typed resolver and the platform shorthands.
//!
//! `proxy::<P>()` is the only acquisition surface and
//! `MobivineBuilder` the only construction path; the `for_*`
//! constructors are one-line shorthands for a bare runtime built
//! through it. This file pins:
//!
//! 1. The typed resolver memoizes — repeated resolution hands back the
//!    *same instance*, so every caller shares one proxy stack per
//!    runtime.
//! 2. Unsupported kinds fail with the catalog's error, and the failure
//!    is not memoized.
//! 3. A `for_*` runtime is indistinguishable from a builder-made one on
//!    every platform: same platform id, same catalog support set, same
//!    proxy behaviour.
//!
//! How each layer option behaves is pinned by the registry's unit
//! tests, on builder-made runtimes.

mod common;

use std::sync::Arc;

use common::{android_runtime, device, s60_runtime, webview_runtime};
use mobivine::api::{CalendarProxy, CallProxy, ContactsProxy, HttpProxy, LocationProxy, SmsProxy};
use mobivine::error::ProxyErrorKind;
use mobivine::registry::{Mobivine, ProxyKind};
use mobivine_android::{AndroidPlatform, SdkVersion};
use mobivine_device::Device;
use mobivine_s60::S60Platform;
use mobivine_webview::WebView;

fn shorthand_runtimes(device: &Device) -> Vec<(&'static str, Mobivine)> {
    let android = AndroidPlatform::new(device.clone(), SdkVersion::M5Rc15);
    let web_platform = AndroidPlatform::new(device.clone(), SdkVersion::M5Rc15);
    vec![
        ("android", Mobivine::for_android(android.new_context())),
        ("s60", Mobivine::for_s60(S60Platform::new(device.clone()))),
        (
            "webview",
            Mobivine::for_webview(Arc::new(WebView::new(web_platform.new_context()))),
        ),
    ]
}

fn builder_runtimes(device: &Device) -> Vec<(&'static str, Mobivine)> {
    vec![
        ("android", android_runtime(device)),
        ("s60", s60_runtime(device)),
        ("webview", webview_runtime(device)),
    ]
}

/// Repeated typed resolution must return the same cached `Arc`, per
/// kind, on every platform that supports the kind — the memoization the
/// removed accessors used to lean on.
#[test]
fn typed_resolver_memoizes_one_instance_per_kind() {
    let device = device();
    for (name, runtime) in shorthand_runtimes(&device) {
        if runtime.supports_kind(ProxyKind::Location) {
            let first = runtime.proxy::<dyn LocationProxy>().unwrap();
            let second = runtime.proxy::<dyn LocationProxy>().unwrap();
            assert!(
                Arc::ptr_eq(&first, &second),
                "{name}: Location instance differs"
            );
        }
        if runtime.supports_kind(ProxyKind::Sms) {
            let first = runtime.proxy::<dyn SmsProxy>().unwrap();
            let second = runtime.proxy::<dyn SmsProxy>().unwrap();
            assert!(Arc::ptr_eq(&first, &second), "{name}: SMS instance differs");
        }
        if runtime.supports_kind(ProxyKind::Call) {
            let first = runtime.proxy::<dyn CallProxy>().unwrap();
            let second = runtime.proxy::<dyn CallProxy>().unwrap();
            assert!(
                Arc::ptr_eq(&first, &second),
                "{name}: Call instance differs"
            );
        }
        if runtime.supports_kind(ProxyKind::Http) {
            let first = runtime.proxy::<dyn HttpProxy>().unwrap();
            let second = runtime.proxy::<dyn HttpProxy>().unwrap();
            assert!(
                Arc::ptr_eq(&first, &second),
                "{name}: HTTP instance differs"
            );
        }
        if runtime.supports_kind(ProxyKind::Contacts) {
            let first = runtime.proxy::<dyn ContactsProxy>().unwrap();
            let second = runtime.proxy::<dyn ContactsProxy>().unwrap();
            assert!(
                Arc::ptr_eq(&first, &second),
                "{name}: Contacts instance differs"
            );
        }
        if runtime.supports_kind(ProxyKind::Calendar) {
            let first = runtime.proxy::<dyn CalendarProxy>().unwrap();
            let second = runtime.proxy::<dyn CalendarProxy>().unwrap();
            assert!(
                Arc::ptr_eq(&first, &second),
                "{name}: Calendar instance differs"
            );
        }
    }
}

/// Unsupported kinds fail with the catalog's error through the typed
/// resolver: Call is absent on S60, Contacts/Calendar on WebView.
#[test]
fn unsupported_kinds_error_through_the_typed_resolver() {
    let device = device();
    let s60 = s60_runtime(&device);
    assert_eq!(
        s60.proxy::<dyn CallProxy>().err().map(|e| e.kind()),
        Some(ProxyErrorKind::UnsupportedOnPlatform)
    );
    let webview = webview_runtime(&device);
    assert_eq!(
        webview.proxy::<dyn ContactsProxy>().err().map(|e| e.kind()),
        Some(ProxyErrorKind::UnsupportedOnPlatform)
    );
    assert_eq!(
        webview.proxy::<dyn CalendarProxy>().err().map(|e| e.kind()),
        Some(ProxyErrorKind::UnsupportedOnPlatform)
    );
    // A failed resolution is not memoized as success: asking again
    // yields the same error, not a stale half-built proxy.
    assert_eq!(
        webview.proxy::<dyn ContactsProxy>().err().map(|e| e.kind()),
        Some(ProxyErrorKind::UnsupportedOnPlatform)
    );
}

/// Builder-made runtimes expose the same platform identity and catalog
/// support set as the `for_*` shorthands, on all three platforms.
#[test]
fn builder_matches_legacy_constructor_identity_and_support() {
    let device = device();
    let legacy = shorthand_runtimes(&device);
    let built = builder_runtimes(&device);
    for ((legacy_name, legacy), (built_name, built)) in legacy.iter().zip(&built) {
        assert_eq!(legacy_name, built_name);
        assert_eq!(
            legacy.platform_id(),
            built.platform_id(),
            "{legacy_name}: platform id differs"
        );
        for kind in ProxyKind::ALL {
            assert_eq!(
                legacy.supports_kind(kind),
                built.supports_kind(kind),
                "{legacy_name}: support for {kind} differs"
            );
        }
    }
}

/// Builder-made runtimes behave the same at the proxy level: a location
/// fix resolved through each pair of runtimes reads the same device
/// state, and SMS dispatch reaches the same SMSC.
#[test]
fn builder_matches_legacy_constructor_behaviour() {
    let device = device();
    for ((name, legacy), (_, built)) in shorthand_runtimes(&device)
        .into_iter()
        .zip(builder_runtimes(&device))
    {
        let legacy_fix = legacy
            .proxy::<dyn LocationProxy>()
            .unwrap()
            .get_location()
            .unwrap();
        let built_fix = built
            .proxy::<dyn LocationProxy>()
            .unwrap()
            .get_location()
            .unwrap();
        assert_eq!(
            (legacy_fix.latitude, legacy_fix.longitude),
            (built_fix.latitude, built_fix.longitude),
            "{name}: location fix differs"
        );
        built
            .proxy::<dyn SmsProxy>()
            .unwrap()
            .send_text_message("+91-sup", "builder parity", None)
            .unwrap();
    }
    device.advance_ms(10_000);
    assert_eq!(device.smsc().inbox_len("+91-sup"), 3);
}
