//! End-to-end overload protection across the M-Proxy call path.
//!
//! The deadline context must travel the whole stack — app → overload
//! layer → resilience → binding plane → platform module — on every
//! platform, including across the WebView JS bridge where it is
//! marshalled as a remaining-budget field next to `traceparent`. An
//! exhausted budget must fail fast with `DeadlineExceeded` **before**
//! the binding plane is touched; the span tree is the witness.

mod common;

use common::{android_builder, device, webview_builder, BUILDERS};
use mobivine::api::LocationProxy;
use mobivine::error::ProxyErrorKind;
use mobivine::overload::{with_deadline, Deadline, OverloadPolicy};
use mobivine::registry::Mobivine;
use mobivine_device::Device;
use mobivine_telemetry::span::{Plane, SpanRecord};

/// One overload-protected, traced runtime per platform binding, each
/// over its own fresh fixture device.
fn overloaded_runtimes() -> Vec<(&'static str, Device, Mobivine)> {
    BUILDERS
        .into_iter()
        .map(|(name, builder)| {
            let device = device();
            let runtime = builder(&device)
                .with_telemetry()
                .with_overload(OverloadPolicy::default())
                .build()
                .expect("overloaded runtime builds");
            (name, device, runtime)
        })
        .collect()
}

/// Calls `getLocation` under a root app span with `deadline` ambient,
/// returning the call result and the finished spans of the trace.
fn traced_call_with_deadline(
    runtime: &Mobivine,
    device: &Device,
    deadline: Deadline,
) -> (
    Result<mobivine::Location, mobivine::error::ProxyError>,
    Vec<SpanRecord>,
) {
    let proxy = runtime
        .proxy::<dyn LocationProxy>()
        .expect("location proxy resolves");
    let tracer = runtime.tracer().expect("telemetry attached").clone();
    let root = tracer.root("app:main", Plane::App, device.now_ms());
    let result = with_deadline(deadline, || proxy.get_location());
    root.end(device.now_ms());
    (result, tracer.take_finished())
}

#[test]
fn expired_deadline_fails_fast_before_the_binding_plane_on_every_platform() {
    for (name, device, runtime) in overloaded_runtimes() {
        let expired = Deadline::after(device.now_ms(), 0);
        let (result, spans) = traced_call_with_deadline(&runtime, &device, expired);

        let err = result.expect_err("exhausted budget must fail");
        assert_eq!(
            err.kind(),
            ProxyErrorKind::DeadlineExceeded,
            "{name}: {err}"
        );

        // The overload layer rejected the call before admission, so the
        // binding plane (and everything below it) was never touched.
        for span in &spans {
            assert!(
                !matches!(span.plane, Plane::Binding | Plane::Bridge | Plane::Platform),
                "{name}: fail-fast must not descend to {:?} ({})",
                span.plane,
                span.name
            );
        }
        let metrics = runtime.overload_metrics().expect("overload attached");
        let snapshot = metrics.snapshot();
        assert_eq!(snapshot.deadline_fail_fast, 1, "{name}: {snapshot}");
        assert_eq!(snapshot.admitted, 0, "{name}: nothing was admitted");
    }
}

#[test]
fn ample_deadline_budget_crosses_every_platform_and_the_call_succeeds() {
    for (name, device, runtime) in overloaded_runtimes() {
        let roomy = Deadline::after(device.now_ms(), 60_000);
        let (result, spans) = traced_call_with_deadline(&runtime, &device, roomy);
        result.unwrap_or_else(|e| panic!("{name}: ample budget must succeed: {e}"));
        assert!(
            spans.iter().any(|s| s.plane == Plane::Platform),
            "{name}: the admitted call reached the platform module"
        );
        let snapshot = runtime.overload_metrics().unwrap().snapshot();
        assert_eq!(snapshot.admitted, 1, "{name}: {snapshot}");
        assert_eq!(snapshot.deadline_fail_fast, 0, "{name}: {snapshot}");
    }
}

#[test]
fn the_webview_bridge_itself_enforces_the_marshalled_budget() {
    // No overload layer at all: the deadline budget is marshalled over
    // the JS bridge next to `traceparent`, and the wrapper on the far
    // side rejects an exhausted budget before the native proxy runs.
    let device = device();
    let runtime = webview_builder(&device).with_telemetry().build().unwrap();
    let expired = Deadline::after(device.now_ms(), 0);
    let (result, spans) = traced_call_with_deadline(&runtime, &device, expired);

    let err = result.expect_err("the bridge must reject a zero budget");
    assert_eq!(err.kind(), ProxyErrorKind::DeadlineExceeded, "{err}");
    assert!(
        !spans.iter().any(|s| s.plane == Plane::Platform),
        "the native platform module must not run on an exhausted budget"
    );

    // A positive budget marshals across and the same call succeeds.
    let roomy = Deadline::after(device.now_ms(), 60_000);
    let (result, spans) = traced_call_with_deadline(&runtime, &device, roomy);
    result.expect("ample budget crosses the bridge");
    assert!(
        spans.iter().any(|s| s.plane == Plane::Bridge),
        "the admitted call crossed the JS bridge"
    );
}

#[test]
fn sustained_pressure_sheds_with_a_typed_retry_hint() {
    // An aggressive 1 ms sojourn target against a real HTTP round trip
    // (which advances the virtual clock): the AIMD gate closes and a
    // later call is shed with `Overloaded` carrying the retry hint.
    let device = device();
    device.network().register_route(
        "api.example",
        mobivine_device::net::Method::Get,
        "/ping",
        |_| mobivine_device::net::HttpResponse::status_only(200),
    );
    let runtime = android_builder(&device)
        .with_telemetry()
        .with_overload(OverloadPolicy::default().target_ms(1).shed_seed(7))
        .build()
        .unwrap();
    let proxy = runtime
        .proxy::<dyn mobivine::api::HttpProxy>()
        .expect("http proxy resolves");

    let mut shed_error = None;
    for _ in 0..200 {
        match proxy.request("GET", "http://api.example/ping", b"") {
            Ok(_) => {}
            Err(e) => {
                shed_error = Some(e);
                break;
            }
        }
    }
    let err = shed_error.expect("sustained over-target latency must shed");
    assert_eq!(err.kind(), ProxyErrorKind::Overloaded, "{err}");
    assert!(
        err.retry_after_ms().is_some_and(|ms| ms > 0),
        "shed calls carry a retry hint: {err}"
    );
    let snapshot = runtime.overload_metrics().unwrap().snapshot();
    assert!(snapshot.shed >= 1, "{snapshot}");
    assert!(snapshot.admitted >= 1, "{snapshot}");
}
