//! Plane-aware telemetry for the M-Proxy call path.
//!
//! The paper's layering — application → M-Proxy semantic plane →
//! enrichment → binding plane → platform module — is exactly the shape
//! an observability pipeline wants to see: every uniform call descends
//! the same stack on every platform, so one span per layer yields
//! directly comparable traces across Android, S60 and the WebView.
//!
//! This module provides the core-side instrumentation:
//!
//! * [`TelemetryRuntime`] — one [`Tracer`] plus one shared
//!   [`MetricsRegistry`] (the device's, so device subsystems and
//!   middleware publish into the same registry),
//! * the per-proxy `Instrument` that the layer stack
//!   (the `stack` module, DESIGN.md §16) runs **twice** per call: as its
//!   outermost layer at the semantic plane ([`Plane::Proxy`]) and as its
//!   innermost at the binding plane ([`Plane::Binding`]) below the
//!   resilience layer — so retries show up as multiple binding-plane
//!   child spans under one proxy-plane span.
//!
//! The proxy plane also feeds the metrics registry: a
//! `proxy_calls_total` / `proxy_errors_total` counter pair and a
//! `proxy_call_ms` latency histogram, all labelled
//! `(proxy, method, platform)`.
//!
//! **The per-call path performs no heap allocation and takes no global
//! lock** — with the middle layers on too. Span names form a static
//! vocabulary: each method's `CallMeta` constant (the `stack` module's
//! `call_meta!`) spells out its `proxy:`/`binding:<Proxy>.<method>` and
//! `<layer>:<method>` names at compile time, so neither wiring nor a
//! call formats one, and `layer_span` and the trace planes copy a
//! `&'static str`. The built-in platforms' `platform` attribute is a
//! static symbol, span events are static and stored inline, and error
//! kinds map to static names through `kind_name`. What is resolved at
//! wiring time (proxy resolution after `MobivineBuilder::with_telemetry`) is
//! the proxy plane's `CallInstruments` bundle of counter/histogram
//! handles, one per method, found per call by the `CallMeta`'s index. A
//! traced call is then: one ambient frame per span, two or three atomic
//! increments, one histogram bucket add, and per span a record moved
//! into a per-thread pending batch that is filed into the thread's span
//! ring, under one lock, when the trace's root closes. `Labels::call`
//! must never appear inside the per-call methods (CI greps for it); it
//! belongs in `CallInstruments::resolve` alone.
//!
//! The proxy plane also closes the incident-debugging loop: it stamps
//! `deadline = blown` on the span when the ambient
//! [`crate::overload::Deadline`] expired mid-call (so the flight
//! recorder's tail-based policy can promote the trace), attaches the
//! promoted trace id to the latency histogram bucket as an OpenMetrics
//! exemplar, and feeds `(ok, latency)` into any [`SloEngine`]
//! objectives watching the series — all through handles resolved at
//! wiring time, so the healthy warmed path stays allocation-free.
//!
//! Spans parent implicitly through the ambient span stack
//! ([`mobivine_telemetry::span::ambient`]): if the application opened
//! its own root span the proxy call nests under it; otherwise the
//! proxy plane starts a fresh trace.

use std::sync::Arc;

use mobivine_device::Device;
use mobivine_telemetry::recorder::take_promotion;
use mobivine_telemetry::span::{ambient, ActiveSpan, Plane, SpanName, DEFAULT_SPAN_RETENTION};
use mobivine_telemetry::{
    Counter, Histogram, IncidentStore, Labels, MetricsRegistry, PromotionPolicy, Recorder,
    RecorderCounters, SloEngine, SloRecorder, Tracer,
};

use crate::error::{ProxyError, ProxyErrorKind};
use crate::stack::CallMeta;

/// One runtime's telemetry wiring: the tracer collecting span records
/// (with its flight-recorder promotion policy), the metrics registry
/// every layer publishes into, and — when configured — the SLO engine
/// grading proxy-plane outcomes against declared objectives.
#[derive(Clone)]
pub struct TelemetryRuntime {
    tracer: Tracer,
    metrics: Arc<MetricsRegistry>,
    slo: Option<Arc<SloEngine>>,
}

impl TelemetryRuntime {
    /// Creates a runtime collecting spans into a fresh [`Tracer`] and
    /// metrics into `metrics` (usually the device's registry, so the
    /// whole call path shares one exporter surface). The flight
    /// recorder is on by default with [`PromotionPolicy::default`]:
    /// errored and deadline-blown traces are promoted into the
    /// incident store before ring wrap-around can overwrite them.
    pub fn new(metrics: Arc<MetricsRegistry>) -> Self {
        Self::with_retention(metrics, DEFAULT_SPAN_RETENTION)
    }

    /// Like [`TelemetryRuntime::new`], but the tracer's per-thread
    /// span rings keep at most `span_retention` records each — the
    /// knob fleet-scale runs use to bound trace memory per device.
    pub fn with_retention(metrics: Arc<MetricsRegistry>, span_retention: usize) -> Self {
        Self::with_recorder(metrics, span_retention, PromotionPolicy::default())
    }

    /// Full-control constructor: span retention plus an explicit
    /// tail-based [`PromotionPolicy`]. The recorder's health counters
    /// (`telemetry_spans_evicted_total`,
    /// `telemetry_traces_promoted_total`,
    /// `telemetry_promotions_dropped_total`) are resolved against
    /// `metrics` here, once, so bumping them on the call path is pure
    /// atomics.
    pub fn with_recorder(
        metrics: Arc<MetricsRegistry>,
        span_retention: usize,
        policy: PromotionPolicy,
    ) -> Self {
        let tracer = Tracer::with_recorder(span_retention, Recorder::new(policy));
        let none = Labels::empty();
        tracer.install_counters(RecorderCounters {
            evicted: metrics.counter("telemetry_spans_evicted_total", &none),
            promoted: metrics.counter("telemetry_traces_promoted_total", &none),
            promoted_dropped: metrics.counter("telemetry_promotions_dropped_total", &none),
        });
        Self {
            tracer,
            metrics,
            slo: None,
        }
    }

    /// Attaches an SLO engine; proxy planes wired after this
    /// call feed every finished call's `(ok, latency)` into the
    /// engine's matching objectives.
    pub fn with_slo(mut self, slo: Arc<SloEngine>) -> Self {
        self.slo = Some(slo);
        self
    }

    /// The tracer holding every finished span.
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// The shared metrics registry.
    pub fn metrics(&self) -> &Arc<MetricsRegistry> {
        &self.metrics
    }

    /// The SLO engine, when one was attached via
    /// [`TelemetryRuntime::with_slo`].
    pub fn slo(&self) -> Option<&Arc<SloEngine>> {
        self.slo.as_ref()
    }

    /// The bounded store of promoted (incident) traces, when the
    /// tracer carries a flight recorder — always the case for runtimes
    /// built through this type's constructors.
    pub fn incidents(&self) -> Option<&Arc<IncidentStore>> {
        self.tracer.incident_store()
    }
}

/// Declares one policy layer's shared counter block and its snapshot:
/// a telemetry [`Counter`] per field, private to the block
/// (`shared()`) or published on a registry as `<prefix>_<field>_total`
/// (`on_registry()`), and a `snapshot()` copying every value at once
/// that displays as `name=value` pairs.
macro_rules! layer_counters {
    (
        $(#[$metrics_doc:meta])* $metrics:ident,
        $(#[$snapshot_doc:meta])* $snapshot:ident,
        $prefix:literal,
        { $($(#[$doc:meta])* $name:ident),* $(,)? }
    ) => {
        $(#[$metrics_doc])*
        #[derive(Debug, Default)]
        pub struct $metrics {
            $($(#[$doc])* $name: ::mobivine_telemetry::Counter,)*
        }

        $(#[$snapshot_doc])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
        pub struct $snapshot {
            $($(#[$doc])* pub $name: u64,)*
        }

        impl $metrics {
            /// Copies every counter at once.
            pub fn snapshot(&self) -> $snapshot {
                $snapshot {
                    $($name: self.$name.value(),)*
                }
            }

            #[doc = concat!(
                "A counter block whose handles live in `registry` under `",
                $prefix,
                "_<name>_total`."
            )]
            pub fn on_registry(
                registry: &::std::sync::Arc<::mobivine_telemetry::MetricsRegistry>,
            ) -> ::std::sync::Arc<Self> {
                let none = ::mobivine_telemetry::Labels::empty();
                ::std::sync::Arc::new(Self {
                    $($name: registry.counter(
                        concat!($prefix, "_", stringify!($name), "_total"),
                        &none,
                    ),)*
                })
            }

            /// A fresh, shareable counter block (not registry-backed).
            pub fn shared() -> ::std::sync::Arc<Self> {
                ::std::sync::Arc::new(Self::default())
            }
        }

        /// `name=value` for every counter, space-separated.
        impl ::std::fmt::Display for $snapshot {
            fn fmt(&self, f: &mut ::std::fmt::Formatter<'_>) -> ::std::fmt::Result {
                let fields: &[(&str, u64)] = &[$((stringify!($name), self.$name)),*];
                for (i, (name, value)) in fields.iter().enumerate() {
                    let sep = if i == 0 { "" } else { " " };
                    write!(f, "{sep}{name}={value}")?;
                }
                Ok(())
            }
        }
    };
}
pub(crate) use layer_counters;

/// Runs one middle layer's work inside a child span named `name` (a
/// `<layer>:<method>` name from the method's [`CallMeta`]) at the
/// resilience plane, when a trace is ambient; the span carries the error
/// kind of a failure.
pub(crate) fn layer_span<T, E>(
    device: &Device,
    name: &'static str,
    kind: impl Fn(&E) -> ProxyErrorKind,
    work: impl FnOnce(Option<&mut ActiveSpan>) -> Result<T, E>,
) -> Result<T, E> {
    let mut span = ambient::child(name, Plane::Resilience, device.now_ms());
    let result = work(span.as_mut());
    if let Some(mut span) = span {
        if let Err(e) = &result {
            span.attr("error", kind_name(kind(e)));
        }
        span.end(device.now_ms());
    }
    result
}

/// The span `platform` attribute of a platform id: the built-in
/// platforms' ids are static symbols; a custom platform's is copied
/// once, at wiring time.
fn platform_symbol(platform: &str) -> SpanName {
    match platform {
        "android" => SpanName::Static("android"),
        "s60" => SpanName::Static("s60"),
        "android-webview" => SpanName::Static("android-webview"),
        custom => SpanName::from(custom.to_owned()),
    }
}

/// The static name of an error kind, for the span `error` attribute.
/// Matches the `Debug` rendering the attribute used to carry, without
/// the per-error `format!`.
pub(crate) fn kind_name(kind: ProxyErrorKind) -> &'static str {
    match kind {
        ProxyErrorKind::Security => "Security",
        ProxyErrorKind::IllegalArgument => "IllegalArgument",
        ProxyErrorKind::Unavailable => "Unavailable",
        ProxyErrorKind::Io => "Io",
        ProxyErrorKind::UnsupportedOnPlatform => "UnsupportedOnPlatform",
        ProxyErrorKind::UnknownProperty => "UnknownProperty",
        ProxyErrorKind::BadPropertyValue => "BadPropertyValue",
        ProxyErrorKind::MissingProperty => "MissingProperty",
        ProxyErrorKind::PolicyDenied => "PolicyDenied",
        ProxyErrorKind::CircuitOpen => "CircuitOpen",
        ProxyErrorKind::DeadlineExceeded => "DeadlineExceeded",
        ProxyErrorKind::Overloaded => "Overloaded",
        ProxyErrorKind::AlreadyApplied => "AlreadyApplied",
    }
}

/// The pre-resolved metric handles for one `(proxy, method, platform)`
/// series: the call/error counter pair and the latency histogram the
/// proxy plane publishes. Resolved once at wiring time; recording
/// through them is pure atomics.
struct CallInstruments {
    calls: Counter,
    errors: Counter,
    latency: Histogram,
}

impl CallInstruments {
    /// The only sanctioned `Labels::call` construction on the traced
    /// path — everything downstream reuses these handles.
    fn resolve(
        metrics: &MetricsRegistry,
        proxy: &'static str,
        method: &'static str,
        platform: &str,
    ) -> Self {
        let labels = Labels::call(proxy, method, platform);
        Self {
            calls: metrics.counter("proxy_calls_total", &labels),
            errors: metrics.counter("proxy_errors_total", &labels),
            latency: metrics.histogram("proxy_call_ms", &labels),
        }
    }
}

/// One method's proxy-plane state: its metric handles and the SLO
/// recorder feeding whichever declared objectives watch this `(proxy,
/// method, platform)` series.
struct MethodInstrument {
    instruments: CallInstruments,
    slo: Option<SloRecorder>,
}

/// One proxy's instrumentation kit at one plane — a trace layer of its
/// layer stack: where to time, trace and count. Span names come
/// pre-spelled in each [`CallMeta`] and handles are resolved in
/// [`Instrument::new`]; the per-call [`Instrument::traced`] only copies
/// symbols and bumps atomics.
pub(crate) struct Instrument {
    device: Device,
    tracer: Tracer,
    plane: Plane,
    platform: SpanName,
    /// The proxy plane's per-method state, indexed by
    /// [`CallMeta::index`]; empty at the binding plane, which only
    /// traces.
    methods: Vec<MethodInstrument>,
}

impl Instrument {
    pub(crate) fn new(
        device: Device,
        runtime: &TelemetryRuntime,
        plane: Plane,
        methods: &[CallMeta],
        platform: &str,
    ) -> Self {
        let methods = if plane == Plane::Proxy {
            methods
                .iter()
                .map(|&CallMeta { proxy, method, .. }| MethodInstrument {
                    instruments: CallInstruments::resolve(
                        &runtime.metrics,
                        proxy,
                        method,
                        platform,
                    ),
                    slo: runtime
                        .slo
                        .as_ref()
                        .map(|engine| engine.recorder(proxy, method, platform))
                        .filter(|recorder| !recorder.is_empty()),
                })
                .collect()
        } else {
            Vec::new()
        };
        Self {
            device,
            tracer: runtime.tracer.clone(),
            plane,
            platform: platform_symbol(platform),
            methods,
        }
    }

    /// Runs one proxy call inside a span; the proxy plane additionally
    /// publishes call/error counters, the latency histogram (with an
    /// OpenMetrics exemplar when the call's trace was just promoted),
    /// and the SLO recorder for this series.
    ///
    /// The span is ended *before* the latency record so that when this
    /// span is a trace root, the flight recorder's tail-based
    /// classification has already run — [`take_promotion`] then hands
    /// back the promoted [`mobivine_telemetry::TraceId`] to pin on the
    /// latency bucket as an exemplar.
    pub(crate) fn traced<T>(
        &self,
        meta: &CallMeta,
        call: impl FnOnce() -> Result<T, ProxyError>,
    ) -> Result<T, ProxyError> {
        let name = match self.plane {
            Plane::Proxy => meta.spans.proxy,
            _ => meta.spans.binding,
        };
        let entry = self.methods.get(meta.index);
        let now = self.device.now_ms();
        let mut span = ambient::child(name, self.plane, now)
            .unwrap_or_else(|| self.tracer.root(name, self.plane, now));
        span.attr("platform", self.platform.clone());
        let result = call();
        let end = self.device.now_ms();
        if let Err(e) = &result {
            span.attr("error", kind_name(e.kind()));
        }
        if entry.is_some() {
            if let Some(deadline) = crate::overload::current_deadline() {
                if end > deadline.expires_at_ms() {
                    span.attr("deadline", "blown");
                }
            }
        }
        span.end(end);
        if let Some(MethodInstrument { instruments, slo }) = entry {
            instruments.calls.inc();
            if result.is_err() {
                instruments.errors.inc();
            }
            let latency = end.saturating_sub(now);
            instruments.latency.record(latency);
            if let Some(trace_id) = take_promotion(&self.tracer) {
                instruments.latency.attach_exemplar(latency, trace_id);
            }
            if let Some(slo) = slo {
                slo.record(end, result.is_ok(), latency);
            }
        }
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mobivine_telemetry::export::{chrome_trace_json, validate_chrome_trace};
    use mobivine_telemetry::span::validate_tree;

    use crate::api::{HttpProxy, LocationProxy};
    use crate::stack::Interface;
    use crate::types::{HttpResult, Location};

    fn runtime() -> (Device, TelemetryRuntime) {
        let device = Device::builder().build();
        let telemetry = TelemetryRuntime::new(Arc::clone(device.metrics()));
        (device, telemetry)
    }

    /// The instrument a Location proxy's stack runs at `plane`.
    fn location(
        device: Device,
        telemetry: &TelemetryRuntime,
        plane: Plane,
        platform: &str,
    ) -> Instrument {
        let methods = <dyn LocationProxy as Interface>::METHODS;
        Instrument::new(device, telemetry, plane, methods, platform)
    }

    /// The static description of `method` on the interface whose
    /// table is `methods`.
    fn meta(methods: &'static [CallMeta], method: &str) -> &'static CallMeta {
        methods.iter().find(|m| m.method == method).unwrap()
    }

    fn get_location() -> &'static CallMeta {
        meta(<dyn LocationProxy as Interface>::METHODS, "getLocation")
    }

    fn request() -> &'static CallMeta {
        meta(<dyn HttpProxy as Interface>::METHODS, "request")
    }

    fn fix() -> Result<Location, ProxyError> {
        Ok(Location::default())
    }

    fn down() -> Result<HttpResult, ProxyError> {
        Err(ProxyError::new(ProxyErrorKind::Io, "down"))
    }

    #[test]
    fn proxy_plane_records_span_and_metrics() {
        let (device, telemetry) = runtime();
        let proxy = location(device, &telemetry, Plane::Proxy, "android");
        proxy.traced(get_location(), fix).unwrap();
        let spans = telemetry.tracer().finished();
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].name, "proxy:Location.getLocation");
        let labels = Labels::call("Location", "getLocation", "android");
        assert_eq!(
            telemetry
                .metrics()
                .counter_value("proxy_calls_total", &labels),
            1
        );
        assert_eq!(
            telemetry
                .metrics()
                .histogram("proxy_call_ms", &labels)
                .count(),
            1
        );
    }

    #[test]
    fn instruments_are_resolved_at_wiring_time() {
        let (device, telemetry) = runtime();
        let proxy = location(device, &telemetry, Plane::Proxy, "android");
        // The series exist (at zero) before the first call: resolution
        // happened in `new`, not per call.
        let labels = Labels::call("Location", "getLocation", "android");
        assert_eq!(
            telemetry
                .metrics()
                .histogram("proxy_call_ms", &labels)
                .count(),
            0
        );
        for _ in 0..3 {
            proxy.traced(get_location(), fix).unwrap();
        }
        assert_eq!(
            telemetry
                .metrics()
                .counter_value("proxy_calls_total", &labels),
            3
        );
    }

    #[test]
    fn binding_plane_skips_metrics_but_nests_under_proxy_plane() {
        let (device, telemetry) = runtime();
        let binding = location(device.clone(), &telemetry, Plane::Binding, "s60");
        let proxy = location(device, &telemetry, Plane::Proxy, "s60");
        proxy
            .traced(get_location(), || binding.traced(get_location(), fix))
            .unwrap();
        let spans = telemetry.tracer().finished();
        assert_eq!(spans.len(), 2);
        validate_tree(&spans).expect("single connected tree");
        let binding_span = spans
            .iter()
            .find(|s| s.plane == Plane::Binding)
            .expect("binding span");
        let proxy_span = spans.iter().find(|s| s.plane == Plane::Proxy).unwrap();
        assert_eq!(binding_span.parent_id, Some(proxy_span.span_id));
        let labels = Labels::call("Location", "getLocation", "s60");
        assert_eq!(
            telemetry
                .metrics()
                .counter_value("proxy_calls_total", &labels),
            1,
            "only the proxy plane counts"
        );
    }

    #[test]
    fn errors_are_counted_and_attributed() {
        let (device, telemetry) = runtime();
        let methods = <dyn HttpProxy as Interface>::METHODS;
        let proxy = Instrument::new(device, &telemetry, Plane::Proxy, methods, "android");
        assert!(proxy.traced(request(), down).is_err());
        let labels = Labels::call("Http", "request", "android");
        assert_eq!(
            telemetry
                .metrics()
                .counter_value("proxy_errors_total", &labels),
            1
        );
        let spans = telemetry.tracer().finished();
        assert!(spans[0]
            .attrs
            .iter()
            .any(|(k, v)| k == "error" && v == "Io"));
    }

    #[test]
    fn every_error_kind_has_a_static_name_matching_debug() {
        for kind in [
            ProxyErrorKind::Security,
            ProxyErrorKind::IllegalArgument,
            ProxyErrorKind::Unavailable,
            ProxyErrorKind::Io,
            ProxyErrorKind::UnsupportedOnPlatform,
            ProxyErrorKind::UnknownProperty,
            ProxyErrorKind::BadPropertyValue,
            ProxyErrorKind::MissingProperty,
            ProxyErrorKind::PolicyDenied,
            ProxyErrorKind::CircuitOpen,
            ProxyErrorKind::DeadlineExceeded,
            ProxyErrorKind::Overloaded,
        ] {
            assert_eq!(kind_name(kind), format!("{kind:?}"));
        }
    }

    #[test]
    fn blown_deadline_promotes_the_trace_and_pins_an_exemplar() {
        use mobivine_telemetry::PromotionReason;

        let (device, telemetry) = runtime();
        let proxy = location(device.clone(), &telemetry, Plane::Proxy, "android");
        let slow = || {
            device.advance_ms(50);
            fix()
        };
        let deadline = crate::overload::Deadline::after(device.now_ms(), 10);
        crate::overload::with_deadline(deadline, || proxy.traced(get_location(), slow).unwrap());

        let spans = telemetry.tracer().finished();
        assert!(spans[0]
            .attrs
            .iter()
            .any(|(k, v)| k == "deadline" && v == "blown"));

        let store = telemetry.incidents().expect("recorder is on by default");
        assert_eq!(store.len(), 1, "blown deadline promotes the trace");
        let traces = store.traces();
        assert!(matches!(traces[0].reason, PromotionReason::DeadlineBlown));
        assert!(traces[0].complete, "promoted tree validates");

        let labels = Labels::call("Location", "getLocation", "android");
        let exemplars = telemetry
            .metrics()
            .histogram("proxy_call_ms", &labels)
            .exemplars();
        assert_eq!(exemplars.len(), 1, "promotion pins a bucket exemplar");
        assert_eq!(exemplars[0].1, traces[0].trace_id);
        assert_eq!(exemplars[0].2, 50, "exemplar carries the observed latency");
    }

    #[test]
    fn healthy_calls_within_deadline_are_not_promoted() {
        let (device, telemetry) = runtime();
        let proxy = location(device.clone(), &telemetry, Plane::Proxy, "android");
        let deadline = crate::overload::Deadline::after(device.now_ms(), 100);
        crate::overload::with_deadline(deadline, || proxy.traced(get_location(), fix).unwrap());
        assert!(telemetry.incidents().unwrap().is_empty());
        let labels = Labels::call("Location", "getLocation", "android");
        assert!(telemetry
            .metrics()
            .histogram("proxy_call_ms", &labels)
            .exemplars()
            .is_empty());
    }

    #[test]
    fn proxy_plane_feeds_slo_objectives() {
        use mobivine_telemetry::{SloObjective, SloTarget};

        let device = Device::builder().build();
        let engine = Arc::new(SloEngine::new(vec![
            SloObjective {
                name: "location-availability".into(),
                proxy: "Location".into(),
                method: "getLocation".into(),
                platform: "android".into(),
                target: SloTarget::Availability {
                    target_ppm: 999_000,
                },
            },
            SloObjective {
                name: "sms-availability".into(),
                proxy: "SMS".into(),
                method: "sendTextMessage".into(),
                platform: "android".into(),
                target: SloTarget::Availability {
                    target_ppm: 999_000,
                },
            },
        ]));
        let telemetry =
            TelemetryRuntime::new(Arc::clone(device.metrics())).with_slo(Arc::clone(&engine));
        let proxy = location(device.clone(), &telemetry, Plane::Proxy, "android");
        for _ in 0..5 {
            proxy.traced(get_location(), fix).unwrap();
        }
        let report = engine.report(device.now_ms());
        let status = &report.statuses[0];
        assert_eq!(status.fast.good, 5, "matching objective sees the calls");
        assert_eq!(status.fast.bad, 0);
        let sms = &report.statuses[1];
        assert_eq!(
            sms.fast.good + sms.fast.bad,
            0,
            "non-matching series stays idle"
        );
    }

    #[test]
    fn error_promotion_is_on_by_default() {
        use mobivine_telemetry::PromotionReason;

        let (device, telemetry) = runtime();
        let methods = <dyn HttpProxy as Interface>::METHODS;
        let proxy = Instrument::new(device, &telemetry, Plane::Proxy, methods, "android");
        assert!(proxy.traced(request(), down).is_err());
        let store = telemetry.incidents().unwrap();
        assert_eq!(store.promoted_total(), 1);
        assert!(matches!(&store.traces()[0].reason, PromotionReason::Error(kind) if kind == "Io"));
        assert_eq!(
            telemetry
                .metrics()
                .counter_value("telemetry_traces_promoted_total", &Labels::empty()),
            1,
            "promotion bumps the registry counter"
        );
    }

    #[test]
    fn exported_trace_round_trips() {
        let (device, telemetry) = runtime();
        let proxy = location(device, &telemetry, Plane::Proxy, "android");
        proxy.traced(get_location(), fix).unwrap();
        let json = chrome_trace_json(&telemetry.tracer().finished());
        validate_chrome_trace(&json).expect("valid chrome trace");
    }
}
