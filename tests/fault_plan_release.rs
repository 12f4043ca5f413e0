//! A dropped device is released even while fault transitions are pending.
//!
//! [`FaultPlan`] queues its transitions on the device's own event queue.
//! The network and the SMSC hold that queue, so a transition capturing
//! the device (or either of them) strongly would form a reference cycle:
//! a device dropped before its plan ran out would keep its network,
//! SMSC, event queue, metrics registry and every server route alive.
//! Fleet builds repeated in one process would leak whole fleets.
//!
//! Each case builds a device with every `FaultPlan` method pending, a
//! fully layered runtime on one platform, makes a few calls, drops
//! everything and checks that nothing outlives it.

mod common;

use std::sync::{Arc, Weak};

use mobivine::api::{HttpProxy, LocationProxy, SmsProxy};
use mobivine::cache::CachePolicy;
use mobivine::overload::OverloadPolicy;
use mobivine::registry::MobivineBuilder;
use mobivine::resilience::ResiliencePolicy;
use mobivine::JournalPolicy;
use mobivine_device::fault::{CrashKind, CrashSchedule, FaultPlan};
use mobivine_device::net::{HttpRequest, HttpResponse, Method};
use mobivine_device::Device;

/// Far enough ahead that no transition fires during the calls.
const LATER_MS: u64 = 1_000_000;

/// Registers every kind of transition the plan offers, all pending.
fn plan_everything(device: &Device) {
    let crashes = CrashSchedule::new([(1, CrashKind::TornWrite)]);
    let t = LATER_MS;
    FaultPlan::new(device)
        .network_partition(t, t + 10)
        .gps_outage(t, t + 10)
        .gps_flap(t, 10, 2)
        .sms_loss_window(t, t + 10, 0.5)
        .latency_spike(t, t + 10, 4)
        .overload_burst(t, t + 10, 4)
        .coverage_outage(t, t + 10)
        .crash_storm(t, &crashes)
        .random_network_drops(7, t, t + 100, 3, 5);
}

/// Handles that must stop upgrading once the device is gone.
struct Watch {
    network: Weak<mobivine_device::net::SimNetwork>,
    smsc: Weak<mobivine_device::sms::Smsc>,
    events: Weak<mobivine_device::event::EventQueue>,
    metrics: Weak<mobivine_telemetry::MetricsRegistry>,
    route_state: Weak<()>,
}

impl Watch {
    fn of(device: &Device, route_state: &Arc<()>) -> Self {
        Self {
            network: Arc::downgrade(device.network()),
            smsc: Arc::downgrade(device.smsc()),
            events: Arc::downgrade(device.events()),
            metrics: Arc::downgrade(device.metrics()),
            route_state: Arc::downgrade(route_state),
        }
    }

    fn assert_released(&self, platform: &str) {
        let alive = [
            ("network", self.network.strong_count()),
            ("smsc", self.smsc.strong_count()),
            ("event queue", self.events.strong_count()),
            ("metrics registry", self.metrics.strong_count()),
            ("server route state", self.route_state.strong_count()),
        ];
        for (what, count) in alive {
            assert_eq!(count, 0, "{platform}: the {what} outlived its device");
        }
    }
}

/// Builds, exercises and drops one fully layered runtime over a device
/// with a pending fault plan, returning what to watch.
fn run_and_drop(platform: &str, builder: fn(&Device) -> MobivineBuilder) -> Watch {
    let device = common::device();
    let route_state = Arc::new(());
    let captured = Arc::clone(&route_state);
    device.network().register_route(
        "backend.example",
        Method::Post,
        "/submit",
        move |_: &HttpRequest| {
            let _ = &captured;
            HttpResponse::ok(b"{}".to_vec())
        },
    );
    plan_everything(&device);
    let runtime = builder(&device)
        .with_telemetry()
        .with_cache(CachePolicy::default())
        .with_overload(OverloadPolicy::default())
        .with_journal(JournalPolicy::default())
        .with_resilience(ResiliencePolicy::default())
        .build()
        .expect("layered runtime builds");
    let location = runtime.proxy::<dyn LocationProxy>().unwrap();
    let sms = runtime.proxy::<dyn SmsProxy>().unwrap();
    let http = runtime.proxy::<dyn HttpProxy>().unwrap();
    location.get_location().unwrap();
    sms.send_text_message("+91-sup", "on site", None).unwrap();
    http.request("POST", "http://backend.example/submit", b"{}")
        .unwrap();
    device.advance_ms(1_000);
    assert!(
        device.events().pending() > 0,
        "{platform}: the plan is still pending"
    );
    let watch = Watch::of(&device, &route_state);
    drop((location, sms, http, runtime, device, route_state));
    watch
}

#[test]
fn an_android_device_with_a_pending_plan_is_released() {
    run_and_drop("android", common::android_builder).assert_released("android");
}

#[test]
fn an_s60_device_with_a_pending_plan_is_released() {
    run_and_drop("s60", common::s60_builder).assert_released("s60");
}

#[test]
fn a_webview_device_with_a_pending_plan_is_released() {
    run_and_drop("webview", common::webview_builder).assert_released("webview");
}
