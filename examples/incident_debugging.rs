//! Incident debugging with the flight recorder: from a struggling
//! runtime to a promoted trace and an exemplar-carrying histogram — the
//! loop the README's "Incident debugging" walkthrough narrates.
//!
//! The runtime keeps only a small ring of recent spans (cheap, fixed
//! memory), but when a call ends interestingly — here: a blown batch
//! deadline and a GPS outage — the whole trace tree is promoted into a
//! bounded incident store. The Prometheus page then links the latency
//! histogram to the promoted trace via an OpenMetrics exemplar. The
//! example asserts both pieces of evidence and panics (exit non-zero)
//! when either is missing.
//!
//! Run with: `cargo run --example incident_debugging`

use mobivine_repro::android::{AndroidPlatform, SdkVersion};
use mobivine_repro::device::gps::GpsAvailability;
use mobivine_repro::device::{Device, GeoPoint};
use mobivine_repro::mobivine::overload::{with_deadline, Deadline};
use mobivine_repro::mobivine::registry::Mobivine;
use mobivine_repro::mobivine::LocationProxy;
use mobivine_repro::telemetry::PromotionReason;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let device = Device::builder()
        .msisdn("+91-98-AGENT-7")
        .position(GeoPoint::new(28.5355, 77.3910))
        .build();
    let platform = AndroidPlatform::new(device.clone(), SdkVersion::M5Rc15);

    let runtime = Mobivine::builder()
        .android(platform.new_context())
        .with_telemetry()
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
    let traces = store.traces();
    for trace in &traces {
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
    let exemplars: Vec<&str> = page.lines().filter(|l| l.contains("trace_id=")).collect();
    for line in &exemplars {
        println!("exemplar: {line}");
    }
    for line in page
        .lines()
        .filter(|l| l.starts_with("telemetry_") && !l.starts_with('#'))
    {
        println!("counter:  {line}");
    }

    // The walkthrough's evidence: one trace per incident kind, and at
    // least one exemplar linking the histogram to a promoted trace.
    assert!(
        traces
            .iter()
            .any(|t| t.reason == PromotionReason::DeadlineBlown),
        "the blown deadline must promote its trace"
    );
    assert!(
        traces
            .iter()
            .any(|t| matches!(t.reason, PromotionReason::Error(_))),
        "the GPS outage must promote an errored trace"
    );
    assert!(
        !exemplars.is_empty(),
        "the Prometheus page must carry a trace_id exemplar"
    );
    Ok(())
}
