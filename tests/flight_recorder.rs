//! Flight recorder end-to-end: tail-based promotion of interesting
//! traces into the incident store, verified across all three platform
//! bindings (including the WebView JS-bridge crossing), plus the
//! exemplar and eviction-counter surfaces of the Prometheus page.
//!
//! The contract under test: a traced runtime keeps only a small ring of
//! recent spans, but any trace whose root ends interestingly — an
//! error, a blown deadline — is promoted *whole* into the bounded
//! incident store, where it must still validate as one connected span
//! tree. Healthy traffic promotes nothing and the same scenario run
//! twice promotes the same trace ids.

mod common;

use common::{device, BUILDERS};
use mobivine::api::LocationProxy;
use mobivine::overload::{with_deadline, Deadline};
use mobivine_device::gps::GpsAvailability;
use mobivine_telemetry::export::validate_prometheus;
use mobivine_telemetry::span::{validate_tree, Plane};
use mobivine_telemetry::{PromotionPolicy, PromotionReason};

#[test]
fn blown_deadlines_promote_validated_trace_trees_on_every_platform() {
    let device = device();
    for (name, builder) in BUILDERS {
        let runtime = builder(&device).with_telemetry().build().unwrap();
        let proxy = runtime.proxy::<dyn LocationProxy>().unwrap();

        // The batch's deadline expired 45 virtual ms ago by the time
        // the call runs — the proxy plane must stamp the span blown and
        // the recorder must promote the whole trace.
        let deadline = Deadline::after(device.clock().now_ms(), 5);
        device.clock().advance_ms(50);
        let _ = with_deadline(deadline, || proxy.get_location());

        let store = runtime.incidents().expect("recorder is on by default");
        assert_eq!(store.len(), 1, "platform {name}: one promoted trace");
        let trace = &store.traces()[0];
        assert_eq!(
            trace.reason,
            PromotionReason::DeadlineBlown,
            "platform {name}"
        );
        assert!(trace.complete, "platform {name}: tree marked complete");
        let root = validate_tree(&trace.spans).expect("promoted trace is one connected tree");
        assert_eq!(root, trace.root_span, "platform {name}");
        // The deadline expired before the call started, so every
        // binding fail-fasts early (the WebView one right at the JS
        // bridge, before the native proxy) — but the fragment that did
        // run is still promoted as one connected tree under the proxy
        // root.
        assert!(
            trace.spans.iter().any(|s| s.plane == Plane::Binding),
            "platform {name}: the binding plane is part of the promoted tree"
        );
    }
}

#[test]
fn gps_outages_promote_error_traces_uniformly() {
    let device = device();
    device
        .gps()
        .set_availability(GpsAvailability::TemporarilyUnavailable);
    for (name, builder) in BUILDERS {
        let runtime = builder(&device).with_telemetry().build().unwrap();
        let proxy = runtime.proxy::<dyn LocationProxy>().unwrap();
        proxy.get_location().unwrap_err();

        let store = runtime.incidents().expect("recorder is on by default");
        assert_eq!(store.promoted_total(), 1, "platform {name}");
        let trace = &store.traces()[0];
        match &trace.reason {
            PromotionReason::Error(kind) => {
                assert_eq!(kind, "Unavailable", "platform {name}")
            }
            other => panic!("platform {name}: promoted for {other:?}, expected an error"),
        }
        assert!(trace.complete, "platform {name}");
        validate_tree(&trace.spans).expect("promoted error trace is one connected tree");
        if name == "webview" {
            // The outage surfaces *below* the bridge, so the promoted
            // tree must carry the JS-bridge crossing (the context
            // travelled as a marshalled `traceparent`, not a shared
            // ambient stack).
            assert!(
                trace.spans.iter().any(|s| s.plane == Plane::Bridge),
                "the JS-bridge crossing must survive promotion: {:?}",
                trace.spans.iter().map(|s| &s.name).collect::<Vec<_>>()
            );
        }
    }
}

#[test]
fn healthy_traffic_promotes_nothing() {
    let device = device();
    for (name, builder) in BUILDERS {
        let runtime = builder(&device).with_telemetry().build().unwrap();
        let proxy = runtime.proxy::<dyn LocationProxy>().unwrap();
        for _ in 0..5 {
            proxy.get_location().expect("gps is healthy");
        }
        let store = runtime.incidents().expect("recorder is on by default");
        assert!(store.is_empty(), "platform {name}: {} traces", store.len());
    }
}

#[test]
fn exemplars_and_recorder_counters_surface_on_the_prometheus_page() {
    let device = device();
    // Retention 1 forces ring wrap-around on every multi-span trace, so
    // the eviction counter must tick; promotion still works because the
    // recorder snapshots the tree before the ring overwrites it.
    let runtime = common::android_builder(&device)
        .with_telemetry_retention(1)
        .with_promotion_policy(PromotionPolicy::default())
        .build()
        .unwrap();
    let proxy = runtime.proxy::<dyn LocationProxy>().unwrap();

    let deadline = Deadline::after(device.clock().now_ms(), 5);
    device.clock().advance_ms(50);
    let _ = with_deadline(deadline, || proxy.get_location());

    let store = runtime.incidents().expect("recorder is on");
    assert_eq!(store.len(), 1);
    let trace_id = store.traces()[0].trace_id;

    let metrics = runtime.telemetry_metrics().expect("telemetry is on");
    let page = metrics.render_prometheus();
    let summary = validate_prometheus(&page).expect("page round-trips the validator");
    assert!(summary.exemplars >= 1, "page carries an exemplar:\n{page}");
    assert!(
        summary
            .exemplar_trace_ids
            .contains(&format!("{:016x}", trace_id.0)),
        "the exemplar links the promoted trace: {:?}",
        summary.exemplar_trace_ids
    );
    for counter in [
        "telemetry_spans_evicted_total",
        "telemetry_traces_promoted_total",
        "telemetry_promotions_dropped_total",
    ] {
        assert!(page.contains(counter), "page misses {counter}:\n{page}");
    }
    assert!(
        metrics.counter_value(
            "telemetry_spans_evicted_total",
            &mobivine_telemetry::Labels::empty()
        ) > 0,
        "retention 1 must wrap the ring"
    );
}

#[test]
fn promotion_is_deterministic_across_reruns() {
    let promoted_ids = || {
        let device = device();
        let runtime = common::android_builder(&device)
            .with_telemetry()
            .build()
            .unwrap();
        let proxy = runtime.proxy::<dyn LocationProxy>().unwrap();
        for round in 0..4 {
            let deadline = Deadline::after(device.clock().now_ms(), 5);
            if round % 2 == 1 {
                device.clock().advance_ms(50);
            }
            let _ = with_deadline(deadline, || proxy.get_location());
        }
        let store = runtime.incidents().expect("recorder is on");
        store
            .traces()
            .iter()
            .map(|t| t.trace_id.0)
            .collect::<Vec<_>>()
    };
    let first = promoted_ids();
    assert_eq!(first.len(), 2, "two blown rounds promote two traces");
    assert_eq!(first, promoted_ids(), "same scenario, same promoted ids");
}
