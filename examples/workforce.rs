//! The paper's running example end to end: a field agent's device-side
//! workforce-management app (proxy variant) against the server-side
//! application, on a platform chosen at the command line.
//!
//! Run with: `cargo run --example workforce [android|s60|webview]
//! [--trace PATH]`
//!
//! With `--trace PATH` the run attaches the telemetry layer and writes
//! a Chrome trace-event JSON file: load it in `chrome://tracing` or
//! Perfetto to see every proxy call descend app → proxy → binding →
//! platform → device on the virtual timeline.

use std::sync::Arc;

use mobivine_repro::android::{AndroidPlatform, SdkVersion};
use mobivine_repro::apps::logic::AppEvents;
use mobivine_repro::apps::proxy_app::ProxyWorkforceApp;
use mobivine_repro::apps::scenario::{Scenario, ScenarioOutcome};
use mobivine_repro::mobivine::registry::Mobivine;
use mobivine_repro::s60::S60Platform;
use mobivine_repro::telemetry::export::chrome_trace_json;
use mobivine_repro::telemetry::span::Plane;
use mobivine_repro::webview::WebView;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut platform_name = "android".to_owned();
    let mut trace_path: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--trace" => {
                trace_path = Some(args.next().ok_or("--trace requires a file path")?);
            }
            other => platform_name = other.to_owned(),
        }
    }

    // The standard scenario: two task sites along the agent's patrol
    // route, pre-assigned by the dispatcher on the server.
    let scenario = Scenario::two_site_patrol(42);
    println!(
        "agent {} patrols {:.0} m past {} task sites (platform: {platform_name})",
        scenario.config.agent_id,
        scenario.route_length_m,
        scenario.tasks.len()
    );

    // The ONLY platform-specific line in the whole application:
    let builder = match platform_name.as_str() {
        "android" => {
            let p = AndroidPlatform::new(scenario.device.clone(), SdkVersion::M5Rc15);
            Mobivine::builder().android(p.new_context())
        }
        "s60" => Mobivine::builder().s60(S60Platform::new(scenario.device.clone())),
        "webview" => {
            let p = AndroidPlatform::new(scenario.device.clone(), SdkVersion::M5Rc15);
            Mobivine::builder().webview(Arc::new(WebView::new(p.new_context())))
        }
        other => return Err(format!("unknown platform {other}").into()),
    };
    let builder = if trace_path.is_some() {
        builder.with_telemetry()
    } else {
        builder
    };
    let runtime = builder.build()?;
    // The tracer handle shares the runtime's span store, so it stays
    // valid after the app takes ownership of the runtime.
    let tracer = runtime.tracer().cloned();
    let app_span = tracer
        .as_ref()
        .map(|t| t.root("app:workforce.patrol", Plane::App, scenario.device.now_ms()));

    let events = AppEvents::new();
    let mut app = ProxyWorkforceApp::new(runtime, scenario.config.clone(), Arc::clone(&events))?;
    app.start()?;
    println!("fetched {} tasks from the server", app.tasks().len());

    // Ask the supervisor for parts before heading out — a call where
    // the platform has one, an SMS on S60.
    app.contact_supervisor("picking up replacement meters first");

    // Run the patrol.
    scenario.device.advance_ms(scenario.patrol_duration_ms());
    scenario.device.advance_ms(1_000);

    if let Some(span) = app_span {
        span.end(scenario.device.now_ms());
    }
    if let (Some(path), Some(tracer)) = (&trace_path, &tracer) {
        let spans = tracer.take_finished();
        std::fs::write(path, chrome_trace_json(&spans))?;
        println!(
            "\nwrote {} spans to {path} — open in chrome://tracing or Perfetto",
            spans.len()
        );
    }

    println!("\ndevice-side event log:");
    for event in events.snapshot() {
        println!("  {event}");
    }

    println!("\nserver-side activity log:");
    for entry in scenario.server.activity_log() {
        println!(
            "  [{:>6} ms] agent {}: {}",
            entry.at_ms, entry.agent_id, entry.event
        );
    }

    let outcome = ScenarioOutcome::collect(&scenario);
    println!("\noutcome: {outcome:?}");
    let expected = ScenarioOutcome::expected_two_site();
    assert_eq!(outcome.activity_entries, expected.activity_entries);
    assert_eq!(outcome.completed_tasks, expected.completed_tasks);
    // Two arrival SMSes, plus one more on platforms where
    // contact_supervisor falls back to SMS instead of a call.
    assert!(outcome.supervisor_messages >= expected.supervisor_messages);
    println!("all tasks completed; supervisor informed; activity logged");
    Ok(())
}
