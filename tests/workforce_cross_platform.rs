//! End-to-end workforce-management runs: every variant (3 native, 1
//! proxy × 3 platforms) must produce the same observable outcome on the
//! same scenario — and the proxy variants must produce **identical
//! event logs** across platforms.

mod common;

use std::sync::Arc;

use common::{android_runtime, s60_runtime, webview_runtime, BUILDERS};
use mobivine::api::{HttpProxy, LocationProxy};
use mobivine::registry::Mobivine;
use mobivine::resilience::ResiliencePolicy;
use mobivine_android::activity::ActivityHost;
use mobivine_android::{AndroidPlatform, SdkVersion};
use mobivine_apps::logic::AppEvents;
use mobivine_apps::native_android::NativeAndroidApp;
use mobivine_apps::native_s60::NativeS60App;
use mobivine_apps::native_webview::NativeWebViewApp;
use mobivine_apps::proxy_app::ProxyWorkforceApp;
use mobivine_apps::scenario::{Scenario, ScenarioOutcome};
use mobivine_device::fault::FaultPlan;
use mobivine_s60::midlet::MidletHost;
use mobivine_s60::S60Platform;
use mobivine_webview::WebView;

fn run_proxy_variant(make: impl FnOnce(&Scenario) -> Mobivine) -> (ScenarioOutcome, Vec<String>) {
    let scenario = Scenario::two_site_patrol(5);
    let runtime = make(&scenario);
    let events = AppEvents::new();
    let mut app =
        ProxyWorkforceApp::new(runtime, scenario.config.clone(), Arc::clone(&events)).unwrap();
    app.start().unwrap();
    scenario.device.advance_ms(scenario.patrol_duration_ms());
    scenario.device.advance_ms(1_000);
    (ScenarioOutcome::collect(&scenario), events.snapshot())
}

#[test]
fn proxy_variant_outcomes_and_event_logs_identical_across_platforms() {
    let (android_outcome, android_log) = run_proxy_variant(|s| android_runtime(&s.device));
    let (s60_outcome, s60_log) = run_proxy_variant(|s| s60_runtime(&s.device));
    let (webview_outcome, webview_log) = run_proxy_variant(|s| webview_runtime(&s.device));

    let expected = ScenarioOutcome::expected_two_site();
    assert_eq!(android_outcome, expected);
    assert_eq!(s60_outcome, expected);
    assert_eq!(webview_outcome, expected);

    // The business-logic event sequence — not just the counts — is the
    // same everywhere. (This is stronger than the paper's qualitative
    // "code is similar" claim.)
    assert_eq!(android_log, s60_log, "android vs s60 event logs");
    assert_eq!(android_log, webview_log, "android vs webview event logs");
    assert!(android_log.contains(&"arrived:site-1".to_owned()));
    assert!(android_log.contains(&"task-complete:site-2".to_owned()));
}

#[test]
fn native_variants_reach_the_same_outcome_with_three_codebases() {
    // Android native.
    let scenario = Scenario::two_site_patrol(5);
    let platform = AndroidPlatform::new(scenario.device.clone(), SdkVersion::M5Rc15);
    let events = AppEvents::new();
    let app = NativeAndroidApp::new(scenario.config.clone(), Arc::clone(&events));
    let mut host = ActivityHost::new(app, platform.new_context());
    host.launch().unwrap();
    scenario.device.advance_ms(scenario.patrol_duration_ms());
    scenario.device.advance_ms(1_000);
    let android_outcome = ScenarioOutcome::collect(&scenario);

    // S60 native.
    let scenario = Scenario::two_site_patrol(5);
    let s60 = S60Platform::new(scenario.device.clone());
    let events = AppEvents::new();
    let app = NativeS60App::new(scenario.config.clone(), Arc::clone(&events));
    let mut host = MidletHost::new(app, s60);
    host.start().unwrap();
    scenario.device.advance_ms(scenario.patrol_duration_ms());
    scenario.device.advance_ms(1_000);
    let s60_outcome = ScenarioOutcome::collect(&scenario);

    // WebView native.
    let scenario = Scenario::two_site_patrol(5);
    let platform = AndroidPlatform::new(scenario.device.clone(), SdkVersion::M5Rc15);
    let webview = WebView::new(platform.new_context());
    let events = AppEvents::new();
    let app = NativeWebViewApp::new(scenario.config.clone(), Arc::clone(&events));
    app.start(&webview);
    scenario.device.advance_ms(scenario.patrol_duration_ms());
    scenario.device.advance_ms(1_000);
    let webview_outcome = ScenarioOutcome::collect(&scenario);

    let expected = ScenarioOutcome::expected_two_site();
    assert_eq!(android_outcome, expected);
    assert_eq!(s60_outcome, expected);
    assert_eq!(webview_outcome, expected);
}

#[test]
fn proxy_and_native_agree_on_server_side_artifacts() {
    // Native run.
    let scenario = Scenario::two_site_patrol(6);
    let platform = AndroidPlatform::new(scenario.device.clone(), SdkVersion::M5Rc15);
    let events = AppEvents::new();
    let app = NativeAndroidApp::new(scenario.config.clone(), Arc::clone(&events));
    let mut host = ActivityHost::new(app, platform.new_context());
    host.launch().unwrap();
    scenario.device.advance_ms(scenario.patrol_duration_ms());
    let native_log: Vec<String> = scenario
        .server
        .activity_log()
        .into_iter()
        .map(|e| e.event)
        .collect();

    // Proxy run on a fresh identical world.
    let scenario = Scenario::two_site_patrol(6);
    let platform = AndroidPlatform::new(scenario.device.clone(), SdkVersion::M5Rc15);
    let events = AppEvents::new();
    let mut app = ProxyWorkforceApp::new(
        Mobivine::for_android(platform.new_context()),
        scenario.config.clone(),
        Arc::clone(&events),
    )
    .unwrap();
    app.start().unwrap();
    scenario.device.advance_ms(scenario.patrol_duration_ms());
    let proxy_log: Vec<String> = scenario
        .server
        .activity_log()
        .into_iter()
        .map(|e| e.event)
        .collect();

    assert_eq!(native_log, proxy_log);
    assert_eq!(
        proxy_log,
        vec![
            "arrived site 1",
            "left site 1",
            "arrived site 2",
            "left site 2"
        ]
    );
}

#[test]
fn resilient_proxy_variant_rides_out_a_startup_partition() {
    // The backhaul is partitioned exactly when the app boots and
    // fetches its task list. With the runtime's resilience layer on,
    // the startup fetch retries across the outage on the simulated
    // clock and the patrol then completes with the standard outcome —
    // the application code is unchanged.
    for (name, builder) in BUILDERS {
        let scenario = Scenario::two_site_patrol(5);
        let runtime = builder(&scenario.device)
            .with_resilience(
                ResiliencePolicy::default()
                    .backoff_base_ms(500)
                    .jitter_seed(9),
            )
            .build()
            .unwrap();
        let metrics = runtime.resilience_metrics().unwrap();
        FaultPlan::new(&scenario.device).network_partition(1, 400);
        scenario.device.advance_ms(1);
        let events = AppEvents::new();
        let mut app =
            ProxyWorkforceApp::new(runtime, scenario.config.clone(), Arc::clone(&events)).unwrap();
        app.start().unwrap_or_else(|e| {
            panic!("platform {name}: resilient fetch must ride out the partition: {e}")
        });
        scenario.device.advance_ms(scenario.patrol_duration_ms());
        scenario.device.advance_ms(1_000);
        assert_eq!(
            ScenarioOutcome::collect(&scenario),
            ScenarioOutcome::expected_two_site(),
            "platform {name}"
        );
        let snap = metrics.snapshot();
        assert!(
            snap.retries >= 1,
            "platform {name}: startup fetch retried ({snap})"
        );
        assert_eq!(snap.fatal_failures, 0, "platform {name}");
    }
}

#[test]
fn agent_track_is_reported_through_the_http_proxy() {
    // Exercise the tracking route with the HTTP proxy directly — the
    // "Agent Tracking" server feature of Fig. 1.
    let scenario = Scenario::two_site_patrol(7);
    let platform = AndroidPlatform::new(scenario.device.clone(), SdkVersion::M5Rc15);
    let runtime = Mobivine::for_android(platform.new_context());
    let http = runtime.proxy::<dyn HttpProxy>().unwrap();
    let location = runtime.proxy::<dyn LocationProxy>().unwrap();
    for _ in 0..5 {
        scenario.device.advance_ms(10_000);
        let fix = location.get_location().unwrap();
        let body = serde_json_body(&scenario.config.agent_id, &fix);
        let resp = http
            .request(
                "POST",
                "http://wfm.example/report-location",
                body.as_bytes(),
            )
            .unwrap();
        assert!(resp.is_success());
    }
    assert_eq!(scenario.server.track(scenario.config.agent_id).len(), 5);
}

fn serde_json_body(agent_id: &u64, fix: &mobivine::types::Location) -> String {
    format!(
        "{{\"agent_id\":{},\"latitude\":{},\"longitude\":{},\"at_ms\":{}}}",
        agent_id, fix.latitude, fix.longitude, fix.timestamp_ms
    )
}
