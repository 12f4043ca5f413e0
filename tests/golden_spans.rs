//! Golden span output of fully layered calls.
//!
//! One runtime per platform runs with every policy layer on (telemetry,
//! cache, overload, journal, resilience) and makes a fixed script of
//! calls: a cache miss and a cache hit, the multi-read, a journaled
//! send and a `getLocation` whose retries all fail during a GPS outage
//! (served by the fallback). A second runtime on the same device, built
//! with a 1 ms sojourn target, then makes HTTP requests until its
//! admission gate sheds one. The spans of those calls, rendered by
//! [`chrome_trace_json`],
//! must match the committed fixtures under `tests/golden/` byte for
//! byte: every span name, event, attribute, id, parent link and
//! timestamp is pinned, so a rewrite of the span path cannot silently
//! change what a trace says.

mod common;

use mobivine::api::{HttpProxy, LocationProxy, SmsProxy};
use mobivine::cache::CachePolicy;
use mobivine::error::ProxyErrorKind;
use mobivine::overload::OverloadPolicy;
use mobivine::registry::{Mobivine, MobivineBuilder};
use mobivine::resilience::ResiliencePolicy;
use mobivine::JournalPolicy;
use mobivine_device::gps::GpsAvailability;
use mobivine_device::net::{HttpRequest, HttpResponse, Method};
use mobivine_device::Device;
use mobivine_telemetry::export::chrome_trace_json;
use mobivine_telemetry::span::SpanRecord;

/// Upper bound on requests before the tightened admission gate sheds.
const MAX_REQUESTS_BEFORE_SHED: usize = 200;

/// A runtime on the platform `builder` targets, every policy layer on,
/// its admission gate run under `overload`.
fn fully_layered(builder: MobivineBuilder, overload: OverloadPolicy) -> Mobivine {
    builder
        .with_telemetry()
        .with_cache(CachePolicy::default())
        .with_overload(overload)
        .with_journal(JournalPolicy::default())
        .with_resilience(ResiliencePolicy::default())
        .build()
        .expect("layered runtime builds")
}

/// Runs the script on one platform, whose runtimes `build` makes, and
/// returns the spans of the captured calls, in finish order.
fn script(device: &Device, build: &dyn Fn(OverloadPolicy) -> Mobivine) -> Vec<SpanRecord> {
    let runtime = build(OverloadPolicy::default());
    device.gps().set_noise_enabled(false);
    device.network().register_route(
        "backend.example",
        Method::Post,
        "/submit",
        |_: &HttpRequest| HttpResponse::ok(b"{\"ok\":true}".to_vec()),
    );
    let tracer = runtime.tracer().expect("telemetry is on").clone();
    let location = runtime.proxy::<dyn LocationProxy>().unwrap();
    let sms = runtime.proxy::<dyn SmsProxy>().unwrap();

    // Successes: a miss, a hit, the multi-read and a journaled send.
    location.get_location().expect("a fix on the miss");
    location.get_location().expect("a fix from the cache");
    location.get_location_with_power().expect("fix and power");
    sms.send_text_message("+91-sup", "on site", None)
        .expect("the send commits");
    let mut spans = tracer.take_finished();

    // A retried failure: the cached fix expires, every attempt hits the
    // outage and resilience falls back to the last genuine fix.
    let last = location.get_location().unwrap();
    device.advance_ms(CachePolicy::default().location_ttl() + 1);
    device
        .gps()
        .set_availability(GpsAvailability::TemporarilyUnavailable);
    let fallback = location.get_location().expect("the last fix serves");
    assert_eq!(fallback, last);
    device.gps().set_availability(GpsAvailability::Available);
    spans.extend(tracer.take_finished());

    // A shed call: a 1 ms sojourn target closes the HTTP proxy's gate.
    let shedding = build(OverloadPolicy::default().target_ms(1).shed_seed(7));
    let tracer = shedding.tracer().expect("telemetry is on").clone();
    let http = shedding.proxy::<dyn HttpProxy>().unwrap();
    for _ in 0..MAX_REQUESTS_BEFORE_SHED {
        let result = http.request("POST", "http://backend.example/submit", b"{}");
        let call = tracer.take_finished();
        if let Err(err) = result {
            assert_eq!(err.kind(), ProxyErrorKind::Overloaded, "{err}");
            spans.extend(call);
            return spans;
        }
    }
    panic!("the tightened admission gate never shed");
}

/// The rendered golden trace of one platform.
fn render(platform: &str) -> String {
    let device = common::device();
    let build = |overload| {
        let builder = match platform {
            "android" => common::android_builder(&device),
            "s60" => common::s60_builder(&device),
            _ => common::webview_builder(&device),
        };
        fully_layered(builder, overload)
    };
    let spans = script(&device, &build);
    chrome_trace_json(&spans)
}

fn assert_golden(platform: &str, golden: &str) {
    let rendered = render(platform);
    assert!(
        rendered == golden.trim_end(),
        "{platform}: the span output drifted from tests/golden/spans_{platform}.json\n\
         rendered:\n{rendered}"
    );
}

#[test]
fn android_spans_match_the_golden_output() {
    assert_golden("android", include_str!("golden/spans_android.json"));
}

#[test]
fn s60_spans_match_the_golden_output() {
    assert_golden("s60", include_str!("golden/spans_s60.json"));
}

#[test]
fn webview_spans_match_the_golden_output() {
    assert_golden("webview", include_str!("golden/spans_webview.json"));
}
