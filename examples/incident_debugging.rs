//! Incident debugging with the flight recorder: from a struggling
//! runtime to a promoted trace, an exemplar-carrying histogram, and a
//! burning SLO — the loop the README's "Incident debugging" walkthrough
//! narrates.
//!
//! The runtime keeps only a small ring of recent spans (cheap, fixed
//! memory), but when a call ends interestingly — here: a blown batch
//! deadline and a GPS outage — the whole trace tree is promoted into a
//! bounded incident store. The Prometheus page then links the latency
//! histogram to the promoted trace via an OpenMetrics exemplar, and the
//! SLO engine reports which objective is burning.
//!
//! Run with: `cargo run --example incident_debugging`

use std::sync::Arc;

use mobivine_repro::android::{AndroidPlatform, SdkVersion};
use mobivine_repro::device::gps::GpsAvailability;
use mobivine_repro::device::{Device, GeoPoint};
use mobivine_repro::mobivine::overload::{with_deadline, Deadline};
use mobivine_repro::mobivine::registry::Mobivine;
use mobivine_repro::mobivine::LocationProxy;
use mobivine_repro::telemetry::slo::{links_from_incidents, slo_report_json};
use mobivine_repro::telemetry::{SloEngine, SloObjective, SloTarget};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let device = Device::builder()
        .msisdn("+91-98-AGENT-7")
        .position(GeoPoint::new(28.5355, 77.3910))
        .build();
    let platform = AndroidPlatform::new(device.clone(), SdkVersion::M5Rc15);

    // One availability objective over the call we are about to hurt.
    let engine = Arc::new(SloEngine::new(vec![SloObjective {
        name: "avail:Location.getLocation@android".to_owned(),
        proxy: "Location".to_owned(),
        method: "getLocation".to_owned(),
        platform: "android".to_owned(),
        target: SloTarget::Availability {
            target_ppm: 999_000,
        },
    }]));
    let runtime = Mobivine::builder()
        .android(platform.new_context())
        .with_telemetry()
        .with_slo(Arc::clone(&engine))
        .build()?;
    let proxy = runtime.proxy::<dyn LocationProxy>()?;

    // Healthy traffic: nothing is promoted, the ring just recycles.
    for _ in 0..5 {
        proxy.get_location()?;
        device.clock().advance_ms(100);
    }

    // Incident 1: a batch deadline expires before the call runs.
    let deadline = Deadline::after(device.clock().now_ms(), 5);
    device.clock().advance_ms(50);
    let _ = with_deadline(deadline, || proxy.get_location());

    // Incident 2: a GPS outage fails the next calls outright.
    device
        .gps()
        .set_availability(GpsAvailability::TemporarilyUnavailable);
    for _ in 0..3 {
        let _ = proxy.get_location();
        device.clock().advance_ms(100);
    }

    // The incident store now explains both: whole trace trees, each
    // tagged with why it was promoted.
    let store = runtime.incidents().expect("recorder is on by default");
    println!(
        "promoted {} traces ({} evicted spans never mattered):",
        store.len(),
        runtime.tracer().expect("telemetry on").evicted_spans()
    );
    for trace in store.traces() {
        println!(
            "  trace {:016x}: {} spans, root {:?}, promoted for {:?}",
            trace.trace_id.0,
            trace.spans.len(),
            trace.root_name,
            trace.reason,
        );
    }

    // The Prometheus page carries the evidence outward: bucket lines
    // with `# {trace_id="…"}` exemplars, plus the recorder counters.
    let page = runtime
        .telemetry_metrics()
        .expect("telemetry on")
        .render_prometheus();
    for line in page.lines().filter(|l| l.contains("trace_id=")) {
        println!("exemplar: {line}");
    }
    for line in page
        .lines()
        .filter(|l| l.starts_with("telemetry_") && !l.starts_with('#'))
    {
        println!("counter:  {line}");
    }

    // And the SLO report names the burning objective, linking back to
    // the promoted traces.
    let report = engine.report(device.clock().now_ms());
    let links = links_from_incidents(std::slice::from_ref(store));
    println!("slo: {}", slo_report_json(&report, &links));
    Ok(())
}
