//! Trace-context propagation across the full M-Proxy call path.
//!
//! Every proxy call must descend the stack as ONE connected span tree —
//! app → proxy plane → resilience → binding plane → platform module →
//! device — with parent links intact and timestamps monotonic on the
//! simulated clock. The two interesting crossings are the WebView JS
//! bridge (the context travels as a marshalled `traceparent` string,
//! not a shared stack) and the S60 MIDlet lifecycle (the app span opens
//! inside `startApp`).

mod common;

use std::sync::Arc;

use common::{android_builder, device, webview_builder, BUILDERS};
use mobivine::api::LocationProxy;
use mobivine::registry::Mobivine;
use mobivine::resilience::ResiliencePolicy;
use mobivine_s60::midlet::{Midlet, MidletHost};
use mobivine_s60::S60Platform;
use mobivine_telemetry::export::{chrome_trace_json, validate_chrome_trace};
use mobivine_telemetry::span::{validate_tree, Plane, SpanRecord};
use mobivine_telemetry::Tracer;

/// Planes present in `spans`, deduplicated, in no particular order.
fn planes(spans: &[SpanRecord]) -> Vec<Plane> {
    let mut seen = Vec::new();
    for span in spans {
        if !seen.contains(&span.plane) {
            seen.push(span.plane);
        }
    }
    seen
}

fn assert_connected_and_monotonic(spans: &[SpanRecord]) {
    let root = validate_tree(spans).expect("single connected span tree");
    let root_span = spans.iter().find(|s| s.span_id == root).unwrap();
    assert_eq!(
        root_span.plane,
        Plane::App,
        "the application span is the root"
    );
    for span in spans {
        assert!(
            span.end_ms >= span.start_ms,
            "span {} ends before it starts",
            span.name
        );
        if let Some(parent) = span.parent_id {
            let parent = spans.iter().find(|s| s.span_id == parent).unwrap();
            assert!(
                span.start_ms >= parent.start_ms,
                "child {} starts before parent {}",
                span.name,
                parent.name
            );
        }
    }
}

/// One traced `getLocation` under an application root span; returns the
/// finished spans of that single trace.
fn traced_get_location(runtime: &Mobivine, device: &mobivine_device::Device) -> Vec<SpanRecord> {
    let proxy = runtime
        .proxy::<dyn LocationProxy>()
        .expect("location proxy");
    let tracer = runtime.tracer().expect("telemetry attached").clone();
    let root = tracer.root("app:main", Plane::App, device.now_ms());
    proxy.get_location().expect("getLocation succeeds");
    root.end(device.now_ms());
    tracer.take_finished()
}

#[test]
fn android_call_descends_every_plane_as_one_tree() {
    let device = device();
    let runtime = android_builder(&device)
        .with_resilience(ResiliencePolicy::default())
        .with_telemetry()
        .build()
        .unwrap();
    let spans = traced_get_location(&runtime, &device);
    assert_connected_and_monotonic(&spans);

    let seen = planes(&spans);
    for plane in [
        Plane::App,
        Plane::Proxy,
        Plane::Resilience,
        Plane::Binding,
        Plane::Platform,
        Plane::Device,
    ] {
        assert!(seen.contains(&plane), "missing {plane} span in {seen:?}");
    }

    // The semantic plane nests directly under the app span; the
    // resilience span under it; the binding plane under resilience.
    let find = |p: Plane| spans.iter().find(|s| s.plane == p).unwrap();
    assert_eq!(find(Plane::Proxy).parent_id, Some(find(Plane::App).span_id));
    assert_eq!(
        find(Plane::Resilience).parent_id,
        Some(find(Plane::Proxy).span_id)
    );
    assert_eq!(
        find(Plane::Binding).parent_id,
        Some(find(Plane::Resilience).span_id)
    );
}

#[test]
fn android_trace_round_trips_through_chrome_export() {
    let device = device();
    let runtime = android_builder(&device)
        .with_resilience(ResiliencePolicy::default())
        .with_telemetry()
        .build()
        .unwrap();
    let spans = traced_get_location(&runtime, &device);
    let json = chrome_trace_json(&spans);
    let summary = validate_chrome_trace(&json).expect("export validates");
    assert_eq!(summary.spans, spans.len());
    assert_eq!(summary.traces, 1);
}

#[test]
fn webview_bridge_crossing_keeps_the_tree_connected() {
    let device = device();
    let runtime = webview_builder(&device).with_telemetry().build().unwrap();
    let spans = traced_get_location(&runtime, &device);
    assert_connected_and_monotonic(&spans);

    // The bridge span only exists because the JS side rendered its
    // context as a `traceparent` string and the Java wrapper parsed it
    // back — a shared ambient stack would not produce this span at all
    // without a crossing.
    let bridge = spans
        .iter()
        .find(|s| s.plane == Plane::Bridge)
        .expect("bridge-plane span crossed the JS bridge");
    assert!(
        bridge.name.contains("LocationWrapper.getLocation"),
        "bridge span names the wrapper call: {}",
        bridge.name
    );
    // Its parent is the JS-side binding-plane span, in the same trace.
    let binding = spans.iter().find(|s| s.plane == Plane::Binding).unwrap();
    assert_eq!(bridge.parent_id, Some(binding.span_id));
    assert_eq!(bridge.trace_id, binding.trace_id);

    // The platform module and device spans nest below the bridge, so
    // the whole descent is visible from one trace id.
    let platform = spans.iter().find(|s| s.plane == Plane::Platform).unwrap();
    assert_eq!(platform.parent_id, Some(bridge.span_id));
}

/// A MIDlet whose `startApp` performs one proxied `getLocation` under
/// its own application span — the S60 shape of the paper's Fig. 8(b).
struct TracedMidlet {
    proxy: Arc<dyn LocationProxy>,
    tracer: Tracer,
}

impl Midlet for TracedMidlet {
    fn start_app(&mut self, platform: &S60Platform) {
        let now = platform.device().now_ms();
        let root = self.tracer.root("app:midlet.startApp", Plane::App, now);
        self.proxy.get_location().expect("getLocation succeeds");
        root.end(platform.device().now_ms());
    }
}

#[test]
fn s60_midlet_path_yields_one_connected_tree() {
    let device = device();
    let platform = S60Platform::new(device.clone());
    let runtime = Mobivine::builder()
        .s60(platform.clone())
        .with_telemetry()
        .build()
        .unwrap();
    let midlet = TracedMidlet {
        proxy: runtime
            .proxy::<dyn LocationProxy>()
            .expect("location proxy"),
        tracer: runtime.tracer().expect("telemetry attached").clone(),
    };
    let mut host = MidletHost::new(midlet, platform);
    host.start().expect("startApp");

    let spans = runtime.tracer().unwrap().take_finished();
    assert_connected_and_monotonic(&spans);
    let seen = planes(&spans);
    for plane in [Plane::App, Plane::Proxy, Plane::Binding, Plane::Platform] {
        assert!(seen.contains(&plane), "missing {plane} span in {seen:?}");
    }
    // No resilience layer attached, so no resilience-plane span — the
    // binding plane parents straight off the semantic plane.
    let find = |p: Plane| spans.iter().find(|s| s.plane == p).unwrap();
    assert_eq!(
        find(Plane::Binding).parent_id,
        Some(find(Plane::Proxy).span_id)
    );
}

#[test]
fn all_three_platforms_produce_complete_parented_trees() {
    for (name, builder) in BUILDERS {
        let device = device();
        let runtime = builder(&device).with_telemetry().build().unwrap();
        let spans = traced_get_location(&runtime, &device);
        assert!(spans.len() >= 4, "{name}: expected a multi-plane descent");
        assert_connected_and_monotonic(&spans);
        let json = chrome_trace_json(&spans);
        validate_chrome_trace(&json)
            .unwrap_or_else(|e| panic!("{name}: chrome export invalid: {e}"));
    }
}
