//! The layer ladder: what each policy layer adds to one call, timed
//! from outside through the public API.
//!
//! One hot device per platform serves a set of runtimes over the same
//! platform binding, one per layer stack. Stacked rungs add layers in
//! `MobivineBuilder`'s canonical order (telemetry, resilience, journal,
//! overload, cache) and report `median(stack_k) − median(stack_{k−1})`;
//! the first rung (`native`, or `binding` where there is no native
//! call) is absolute. Isolated rungs report `(binding + layer) −
//! binding`. Interactions show as the gap between the two: a layer can
//! cost more stacked over telemetry than alone.
//!
//! Every series is timed in blocks of calls; within a group the series
//! run in an order rotated by one each block, so machine drift lands on
//! every series alike and cancels in the differences. A series' figure
//! is its median block.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use mobivine::api::{HttpProxy, LocationProxy, SmsProxy};
use mobivine::property::PropertyValue;
use mobivine::registry::Mobivine;
use mobivine::shard::ShardedRegistry;
use mobivine::webview::BATCH_PROPERTY;
use mobivine::JournalPolicy;
use mobivine_android::{AndroidPlatform, Context, SdkVersion};
use mobivine_apps::server::{DurabilityConfig, WfmServer};
use mobivine_device::latency::LatencyModel;
use mobivine_device::net::HttpRequest;
use mobivine_device::{Device, GeoPoint};
use mobivine_s60::location::{Criteria, LocationProvider};
use mobivine_s60::messaging::{MessageConnection, MessageType};
use mobivine_s60::S60Platform;
use mobivine_webview::bridge::{args, BridgeError, JavaScriptInterface};
use mobivine_webview::webview::JsInterfaceHandle;
use mobivine_webview::{JsValue, WebView};

use crate::workload::{
    task, Stack, Target, CHECKPOINT_EVERY, SUPERVISOR, TASKS_PER_AGENT, TICK_MS,
};

const HOST: &str = "wfm.ladder.example";
const DURABLE_HOST: &str = "wfm.durable.example";
const REPORT_BODY: &str = r#"{"agent_id":0,"latitude":28.5355,"longitude":77.391,"at_ms":0}"#;

/// The platforms of the ladder, by metric name.
pub const PLATFORMS: [&str; 3] = ["android", "s60", "webview"];

/// A policy layer of the canonical stack.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// Traced decorators (proxy and binding planes).
    Telemetry,
    /// Retry, circuit breaker, fallback.
    Resilience,
    /// Write-ahead intent journal.
    Journal,
    /// Bulkhead, admission, deadlines.
    Overload,
    /// Read-through cache.
    Cache,
}

impl Layer {
    /// `MobivineBuilder`'s canonical order.
    pub const STACKED: [Layer; 5] = [
        Layer::Telemetry,
        Layer::Resilience,
        Layer::Journal,
        Layer::Overload,
        Layer::Cache,
    ];
    /// The layers also measured alone over the binding.
    pub const ALONE: [Layer; 4] = [
        Layer::Resilience,
        Layer::Journal,
        Layer::Overload,
        Layer::Cache,
    ];

    /// The layer's rung name.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Telemetry => "telemetry",
            Layer::Resilience => "resilience",
            Layer::Journal => "journal",
            Layer::Overload => "overload",
            Layer::Cache => "cache",
        }
    }

    fn stack(layers: &[Layer]) -> Stack {
        Stack {
            telemetry: layers.contains(&Layer::Telemetry),
            resilience: layers.contains(&Layer::Resilience),
            journal: layers.contains(&Layer::Journal),
            overload: layers.contains(&Layer::Overload),
            cache: layers.contains(&Layer::Cache),
        }
    }
}

/// A proxy method on the ladder.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Method {
    /// `LocationProxy::get_location`.
    GetLocation,
    /// `SmsProxy::send_text_message`.
    SendTextMessage,
    /// `HttpProxy::request` (`POST /report-location`).
    Request,
}

impl Method {
    /// Every method, in report order.
    pub const ALL: [Method; 3] = [
        Method::GetLocation,
        Method::SendTextMessage,
        Method::Request,
    ];

    /// The method's name in metric names.
    pub fn name(self) -> &'static str {
        match self {
            Method::GetLocation => "getLocation",
            Method::SendTextMessage => "sendTextMessage",
            Method::Request => "request",
        }
    }

    /// Whether the platform has a native call to compare against.
    pub fn has_native(self) -> bool {
        self != Method::Request
    }

    /// Whether `layer` wraps this method (the journal wraps mutating
    /// calls only, the cache idempotent reads only).
    pub fn wrapped_by(self, layer: Layer) -> bool {
        match layer {
            Layer::Journal => self != Method::GetLocation,
            Layer::Cache => self == Method::GetLocation,
            _ => true,
        }
    }

    /// The stacked rung names: `native` (when present), `binding`, then
    /// every wrapping layer in canonical order.
    pub fn stacked_rungs(self) -> Vec<&'static str> {
        let native = self.has_native().then_some("native");
        native
            .into_iter()
            .chain(["binding"])
            .chain(
                Layer::STACKED
                    .into_iter()
                    .filter(|l| self.wrapped_by(*l))
                    .map(Layer::name),
            )
            .collect()
    }

    /// The isolated layers measured for this method.
    pub fn alone_layers(self) -> Vec<Layer> {
        Layer::ALONE
            .into_iter()
            .filter(|l| self.wrapped_by(*l))
            .collect()
    }
}

/// Every metric the ladder reports, in report order (all ns per call).
pub fn metric_names() -> Vec<String> {
    let mut names = Vec::new();
    for platform in PLATFORMS {
        for method in Method::ALL {
            let m = method.name();
            for rung in method.stacked_rungs() {
                names.push(format!("ladder.{platform}.{m}.{rung}_ns"));
            }
            for layer in method.alone_layers() {
                names.push(format!("ladder.{platform}.{m}.{}_alone_ns", layer.name()));
            }
        }
        names.push(format!("ladder.{platform}.resolve_ns"));
    }
    for arm in ["batched", "unbatched"] {
        names.push(format!("ladder.webview.getLocationWithPower.{arm}_ns"));
    }
    for call in ["report_location", "report_location_durable", "tasks"] {
        names.push(format!("ladder.server.{call}_ns"));
    }
    names
}

/// The median of `values` (mean of the middle pair for an even count).
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => sorted[n / 2],
        _ => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// Stacked marginals: the first rung absolute, each later rung minus
/// the one below it (signed).
pub fn stacked_marginals(medians: &[f64]) -> Vec<f64> {
    medians
        .iter()
        .enumerate()
        .map(|(k, m)| if k == 0 { *m } else { m - medians[k - 1] })
        .collect()
}

/// One timed series: a label and a call that reports success.
struct Series<'a> {
    label: String,
    call: Box<dyn FnMut() -> bool + 'a>,
}

fn series<'a>(label: impl Into<String>, call: impl FnMut() -> bool + 'a) -> Series<'a> {
    Series {
        label: label.into(),
        call: Box::new(call),
    }
}

/// Ladder timing knobs.
#[derive(Debug, Clone, Copy)]
pub struct LadderConfig {
    /// Timed blocks per series.
    pub blocks: usize,
    /// Calls per block.
    pub calls: usize,
}

/// What the ladder measured.
#[derive(Debug, Default)]
pub struct LadderResult {
    /// `(name, ns per call)` for every name of [`metric_names`].
    pub metrics: Vec<(String, f64)>,
    /// Median ns per call of every series, by series label.
    pub absolute: Vec<(String, f64)>,
    /// Calls made, warm-up included.
    pub attempted: u64,
    /// Calls that failed (every ladder call must succeed).
    pub failed: u64,
}

impl LadderResult {
    fn push(&mut self, name: String, value: f64) {
        self.metrics.push((name, value));
    }

    /// Times one group: a warm-up block per series, then `blocks`
    /// rotated block rounds, pumping the device after each block. Records
    /// every series' median under `prefix` + its label and returns the
    /// medians in group order.
    fn time_group(
        &mut self,
        config: LadderConfig,
        mut group: Vec<Series<'_>>,
        pump: &dyn Fn(),
        prefix: &str,
    ) -> Vec<f64> {
        let n = group.len();
        let mut samples = vec![Vec::with_capacity(config.blocks); n];
        for block in 0..=config.blocks {
            for k in 0..n {
                let index = (block + k) % n;
                let call = &mut group[index].call;
                let started = Instant::now();
                let mut ok = 0;
                for _ in 0..config.calls {
                    ok += u64::from(call());
                }
                let ns = started.elapsed().as_nanos() as f64 / config.calls as f64;
                self.attempted += config.calls as u64;
                self.failed += config.calls as u64 - ok;
                if block > 0 {
                    samples[index].push(ns);
                }
                // Deliver the block's pending device events untimed, so
                // a series whose calls advance the clock (the journal's
                // fsync) pumps only its own sends, not its neighbours'.
                pump();
            }
        }
        let medians: Vec<f64> = samples.iter().map(|values| median(values)).collect();
        for (s, m) in group.iter().zip(&medians) {
            self.absolute.push((format!("{prefix}{}", s.label), *m));
        }
        medians
    }
}

/// A minimal hand-rolled bridge: what an application calling
/// `addJavaScriptInterface` directly pays (the WebView native rung).
struct RawBridge {
    ctx: Context,
}

impl JavaScriptInterface for RawBridge {
    fn call(&self, method: &str, call_args: &[JsValue]) -> Result<JsValue, BridgeError> {
        match method {
            "getLocation" => {
                let location = self
                    .ctx
                    .location_manager()
                    .get_current_location("gps")
                    .map_err(|e| BridgeError::bridge(e.to_string()))?;
                Ok(JsValue::object([
                    ("latitude", location.latitude().into()),
                    ("longitude", location.longitude().into()),
                ]))
            }
            "sendSms" => {
                let destination = args::string(call_args, 0)?;
                let text = args::string(call_args, 1)?;
                self.ctx
                    .sms_manager()
                    .send_text_message(destination, None, text, None)
                    .map_err(|e| BridgeError::bridge(e.to_string()))?;
                Ok(JsValue::Bool(true))
            }
            other => Err(BridgeError::bridge(format!("no method {other}"))),
        }
    }
}

/// One hot device with a server installed, and the platform binding.
struct Fixture {
    device: Device,
    target: Target,
    raw: Option<JsInterfaceHandle>,
    s60_provider: Option<LocationProvider>,
}

fn hot_device() -> Device {
    let device = Device::builder()
        .msisdn("+91-98-AGENT-7")
        .position(GeoPoint::new(28.5355, 77.3910))
        .latency(LatencyModel::zero())
        .build();
    device.smsc().register_address(SUPERVISOR);
    device
}

impl Fixture {
    fn new(platform: &str) -> Self {
        let device = hot_device();
        WfmServer::new().install(device.network(), HOST);
        let android = || AndroidPlatform::new(device.clone(), SdkVersion::M5Rc15).new_context();
        let (target, raw, s60_provider) = match platform {
            "android" => (Target::Android(android()), None, None),
            "s60" => {
                let s60 = S60Platform::new(device.clone());
                let provider = LocationProvider::get_instance(&s60, Criteria::new())
                    .expect("s60 location provider");
                (Target::S60(s60), None, Some(provider))
            }
            _ => {
                let webview = Arc::new(WebView::new(android()));
                webview.add_javascript_interface(
                    Arc::new(RawBridge {
                        ctx: webview.context().clone(),
                    }),
                    "RawBridge",
                );
                let raw = webview.js_interface("RawBridge").expect("raw bridge");
                (Target::WebView(webview), Some(raw), None)
            }
        };
        Self {
            device,
            target,
            raw,
            s60_provider,
        }
    }

    fn runtime(&self, layers: &[Layer]) -> Mobivine {
        Layer::stack(layers)
            .apply(self.target.select(Mobivine::builder()))
            .build()
            .expect("ladder runtime")
    }

    /// The native (no proxy) call for `method`; calls are the
    /// platform-middleware calls of the Figure 10 harness.
    fn native(&self, method: Method) -> Series<'_> {
        let label = "native";
        match (&self.target, method) {
            (Target::Android(ctx), Method::GetLocation) => series(label, move || {
                black_box(ctx.location_manager().get_current_location("gps")).is_ok()
            }),
            (Target::Android(ctx), _) => series(label, move || {
                ctx.sms_manager()
                    .send_text_message(SUPERVISOR, None, "bench", None)
                    .is_ok()
            }),
            (Target::S60(_), Method::GetLocation) => {
                let provider = self.s60_provider.as_ref().expect("s60 provider");
                series(label, move || black_box(provider.get_location(-1)).is_ok())
            }
            (Target::S60(platform), _) => series(label, move || {
                let Ok(connection) =
                    MessageConnection::open_client(platform, &format!("sms://{SUPERVISOR}"))
                else {
                    return false;
                };
                let mut message = connection.new_message(MessageType::Text);
                message.set_payload_text("bench");
                connection.send(&message).is_ok()
            }),
            (Target::WebView(_), Method::GetLocation) => {
                let raw = self.raw.as_ref().expect("raw bridge");
                series(label, move || {
                    black_box(raw.invoke("getLocation", &[])).is_ok()
                })
            }
            (Target::WebView(_), _) => {
                let raw = self.raw.as_ref().expect("raw bridge");
                let call_args = [JsValue::str(SUPERVISOR), JsValue::str("bench")];
                series(label, move || raw.invoke("sendSms", &call_args).is_ok())
            }
        }
    }
}

fn proxy_series(label: String, runtime: &Mobivine, method: Method) -> Series<'static> {
    match method {
        Method::GetLocation => {
            let proxy = runtime.proxy::<dyn LocationProxy>().expect("location");
            series(label, move || black_box(proxy.get_location()).is_ok())
        }
        Method::SendTextMessage => {
            let proxy = runtime.proxy::<dyn SmsProxy>().expect("sms");
            series(label, move || {
                proxy.send_text_message(SUPERVISOR, "bench", None).is_ok()
            })
        }
        Method::Request => {
            let proxy = runtime.proxy::<dyn HttpProxy>().expect("http");
            let url = format!("http://{HOST}/report-location");
            series(label, move || {
                proxy
                    .request("POST", &url, REPORT_BODY.as_bytes())
                    .is_ok_and(|r| r.is_success())
            })
        }
    }
}

fn label(layers: &[Layer]) -> String {
    if layers.is_empty() {
        return "binding".into();
    }
    let names: Vec<&str> = layers.iter().map(|l| l.name()).collect();
    format!("binding+{}", names.join("+"))
}

/// Runs one platform's groups and appends its metrics.
fn run_platform(result: &mut LadderResult, config: LadderConfig, platform: &str) {
    let fixture = Fixture::new(platform);
    let device = fixture.device.clone();
    let pump = move || {
        device.advance_ms(TICK_MS);
    };
    // Runtimes: every canonical prefix, and each layer alone.
    let prefixes: Vec<Vec<Layer>> = (0..=Layer::STACKED.len())
        .map(|k| Layer::STACKED[..k].to_vec())
        .collect();
    let prefix_runtimes: Vec<Mobivine> = prefixes.iter().map(|p| fixture.runtime(p)).collect();
    let alone_runtimes: Vec<(Layer, Mobivine)> = Layer::ALONE
        .into_iter()
        .map(|l| (l, fixture.runtime(&[l])))
        .collect();

    let mut resolve_registry = ShardedRegistry::new(1).expect("one shard");
    resolve_registry
        .push_with(|b| fixture.target.select(b))
        .expect("resolve runtime");
    resolve_registry.warm().expect("warm");
    let power_proxies: Vec<(&str, Arc<dyn LocationProxy>)> = match platform {
        "webview" => [("batched", true), ("unbatched", false)]
            .into_iter()
            .map(|(arm, batched)| {
                let proxy = fixture
                    .runtime(&[])
                    .proxy::<dyn LocationProxy>()
                    .expect("location");
                proxy
                    .set_property(BATCH_PROPERTY, PropertyValue::Bool(batched))
                    .expect("batch toggle");
                (arm, proxy)
            })
            .collect(),
        _ => Vec::new(),
    };

    for method in Method::ALL {
        // Group order: the stacked series (native, binding, then each
        // canonical prefix ending in a layer that wraps the method),
        // the isolated layers, then the extra absolute series.
        let mut group = Vec::new();
        if method.has_native() {
            group.push(fixture.native(method));
        }
        for (prefix, runtime) in prefixes.iter().zip(&prefix_runtimes) {
            if prefix.last().is_none_or(|l| method.wrapped_by(*l)) {
                group.push(proxy_series(label(prefix), runtime, method));
            }
        }
        for (layer, runtime) in &alone_runtimes {
            if method.wrapped_by(*layer) {
                group.push(proxy_series(
                    format!("alone:{}", layer.name()),
                    runtime,
                    method,
                ));
            }
        }
        if method == Method::GetLocation {
            let registry = &resolve_registry;
            group.push(series("resolve", move || {
                black_box(registry.resolve::<dyn LocationProxy>(0)).is_ok()
            }));
            for (arm, proxy) in &power_proxies {
                let proxy = Arc::clone(proxy);
                group.push(series(format!("power:{arm}"), move || {
                    black_box(proxy.get_location_with_power()).is_ok()
                }));
            }
        }
        let m = method.name();
        let medians = result.time_group(config, group, &pump, &format!("{platform}.{m}."));
        let rungs = method.stacked_rungs();
        for (rung, marginal) in rungs.iter().zip(stacked_marginals(&medians[..rungs.len()])) {
            result.push(format!("ladder.{platform}.{m}.{rung}_ns"), marginal);
        }
        let binding = medians[usize::from(method.has_native())];
        let alone = method.alone_layers();
        for (layer, median) in alone.iter().zip(&medians[rungs.len()..]) {
            result.push(
                format!("ladder.{platform}.{m}.{}_alone_ns", layer.name()),
                median - binding,
            );
        }
        if method == Method::GetLocation {
            let extra = &medians[rungs.len() + alone.len()..];
            result.push(format!("ladder.{platform}.resolve_ns"), extra[0]);
            for ((arm, _), median) in power_proxies.iter().zip(&extra[1..]) {
                result.push(
                    format!("ladder.webview.getLocationWithPower.{arm}_ns"),
                    *median,
                );
            }
        }
    }
}

/// Times `device.network().execute(..)` straight into plain and durable
/// servers.
fn run_server(result: &mut LadderResult, config: LadderConfig) {
    let device = hot_device();
    let plain = WfmServer::new();
    plain.install(device.network(), HOST);
    for ordinal in 0..TASKS_PER_AGENT {
        plain.assign_task(0, task(0, ordinal));
    }
    WfmServer::durable(DurabilityConfig {
        checkpoint_every: CHECKPOINT_EVERY,
        policy: JournalPolicy::default(),
        crash: None,
    })
    .install(device.network(), DURABLE_HOST);
    let request = |req: HttpRequest| {
        let network = Arc::clone(device.network());
        move || {
            network
                .execute(&req)
                .is_ok_and(|(response, _)| (200..300).contains(&response.status))
        }
    };
    let report = |host: &str| {
        HttpRequest::post(&format!("http://{host}/report-location"), REPORT_BODY)
            .expect("report url")
    };
    let tasks = HttpRequest::get(&format!("http://{HOST}/tasks?agent=0")).expect("tasks url");
    let group = vec![
        series("report_location", request(report(HOST))),
        series("report_location_durable", request(report(DURABLE_HOST))),
        series("tasks", request(tasks)),
    ];
    let labels: Vec<String> = group.iter().map(|s| s.label.clone()).collect();
    let medians = result.time_group(config, group, &|| {}, "server.");
    for (call, median) in labels.iter().zip(medians) {
        result.push(format!("ladder.server.{call}_ns"), median);
    }
}

/// Runs the whole ladder, one platform after another, then the server.
pub fn run(config: LadderConfig) -> LadderResult {
    let mut result = LadderResult::default();
    for platform in PLATFORMS {
        run_platform(&mut result, config, platform);
    }
    run_server(&mut result, config);
    // Report in the declared order.
    let order = metric_names();
    result
        .metrics
        .sort_by_key(|(name, _)| order.iter().position(|n| n == name));
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn marginals_are_differences_of_block_medians() {
        // Synthetic blocks: native 100, binding +50, telemetry +300,
        // resilience +20, each with symmetric noise and one outlier
        // block that the median must ignore.
        let truth = [100.0, 150.0, 450.0, 470.0];
        let blocks: Vec<Vec<f64>> = truth
            .iter()
            .map(|t| {
                let mut v: Vec<f64> = (0..41).map(|i| t + f64::from(i % 5) - 2.0).collect();
                v[7] = t * 10.0;
                v
            })
            .collect();
        let medians: Vec<f64> = blocks.iter().map(|b| median(b)).collect();
        assert_eq!(medians, truth);
        assert_eq!(stacked_marginals(&medians), [100.0, 50.0, 300.0, 20.0]);
        // Isolated rung: (binding + layer) − binding, signed.
        let alone = median(&[140.0, 160.0, 149.0]) - medians[1];
        assert_eq!(alone, -1.0);
        assert_eq!(median(&[1.0, 3.0]), 2.0);
    }

    #[test]
    fn rung_lists_follow_the_canonical_order() {
        assert_eq!(
            Method::GetLocation.stacked_rungs(),
            [
                "native",
                "binding",
                "telemetry",
                "resilience",
                "overload",
                "cache"
            ]
        );
        assert_eq!(
            Method::SendTextMessage.stacked_rungs(),
            [
                "native",
                "binding",
                "telemetry",
                "resilience",
                "journal",
                "overload"
            ]
        );
        assert_eq!(
            Method::Request.stacked_rungs(),
            ["binding", "telemetry", "resilience", "journal", "overload"]
        );
        assert_eq!(metric_names().len(), 86);
    }

    #[test]
    fn a_tiny_ladder_reports_every_metric() {
        let result = run(LadderConfig {
            blocks: 2,
            calls: 5,
        });
        assert_eq!(result.failed, 0);
        let names: Vec<&str> = result.metrics.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, metric_names());
        assert!(result.metrics.iter().all(|(_, v)| v.is_finite()));
    }
}
