//! Java "Wrapper" classes for the WebView bridge (Fig. 6, step 1).
//!
//! Each wrapper adapts one Android proxy to the
//! [`JavaScriptInterface`] calling convention: dynamically-typed
//! arguments in, dynamically-typed results out, exceptions as error
//! codes, and asynchronous callbacks redirected into the WebView's
//! [`NotificationTable`] (JavaScript cannot receive Java callbacks
//! directly — paper footnote 8). Every method is written once, in the
//! wrapper's one [`JavaScriptInterface::call_wire`], which reads the
//! arguments as arena views and encodes the result in place; `call` is
//! the owned-value adapter [`call_via_wire`].

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::Mutex;

use mobivine_device::Device;
use mobivine_telemetry::span::{ambient, Plane, SpanName};
use mobivine_telemetry::TraceContext;
use mobivine_webview::bridge::{call_via_wire, BridgeError, ErrorCode, JavaScriptInterface};
use mobivine_webview::notification::NotificationTable;
use mobivine_webview::wire::{NodeId, WireBuf, WireValue};
use mobivine_webview::{JsValue, WebView};

use crate::android::{AndroidCallProxy, AndroidHttpProxy, AndroidLocationProxy, AndroidSmsProxy};
use crate::api::{CallProxy, HttpProxy, LocationProxy, ProxyBase, SmsProxy};
use crate::error::{ProxyError, ProxyErrorKind};
use crate::property::PropertyValue;
use crate::types::{
    CallProgress, DeliveryOutcome, Location, ProximityEvent, SharedProximityListener,
};

/// Interface names the wrappers are injected under.
pub mod interface_names {
    /// The location wrapper's JavaScript global.
    pub const LOCATION: &str = "LocationWrapper";
    /// The SMS wrapper's JavaScript global.
    pub const SMS: &str = "SmsWrapper";
    /// The call wrapper's JavaScript global.
    pub const CALL: &str = "CallWrapper";
    /// The HTTP wrapper's JavaScript global.
    pub const HTTP: &str = "HttpWrapper";
}

/// Maps a uniform proxy error onto the bridge's error-code channel.
fn to_bridge(e: ProxyError) -> BridgeError {
    let code = match e.kind() {
        ProxyErrorKind::Security | ProxyErrorKind::PolicyDenied => ErrorCode::Security,
        ProxyErrorKind::IllegalArgument
        | ProxyErrorKind::UnknownProperty
        | ProxyErrorKind::BadPropertyValue
        | ProxyErrorKind::MissingProperty => ErrorCode::IllegalArgument,
        // AlreadyApplied never reaches applications (the journal layer
        // converts it back into the memoized success before the bridge
        // sees it); should one ever leak, Remote is the honest
        // retry-safe mapping — the original effect committed remotely.
        ProxyErrorKind::Unavailable
        | ProxyErrorKind::CircuitOpen
        | ProxyErrorKind::AlreadyApplied => ErrorCode::Remote,
        ProxyErrorKind::Io => ErrorCode::Io,
        ProxyErrorKind::DeadlineExceeded => ErrorCode::Deadline,
        ProxyErrorKind::Overloaded => ErrorCode::Overloaded,
        ProxyErrorKind::UnsupportedOnPlatform => ErrorCode::ApiRemoved,
    };
    BridgeError {
        code,
        message: e.message().to_owned(),
    }
}

/// Renders the common [`Location`] as the JavaScript object shape the
/// WebView proxies expose.
pub fn location_to_js(location: &Location) -> JsValue {
    JsValue::object([
        ("latitude", location.latitude.into()),
        ("longitude", location.longitude.into()),
        ("altitude", location.altitude.into()),
        ("accuracy", location.accuracy_m.into()),
        ("time", location.timestamp_ms.into()),
        ("speed", location.speed_mps.into()),
        ("bearing", location.course_deg.into()),
    ])
}

/// Parses the JavaScript object shape back into the common
/// [`Location`].
pub fn location_from_js(value: &JsValue) -> Location {
    let num = |key| {
        value
            .get_ref(key)
            .and_then(JsValue::as_number)
            .unwrap_or(0.0)
    };
    Location {
        latitude: num("latitude"),
        longitude: num("longitude"),
        altitude: num("altitude"),
        accuracy_m: num("accuracy"),
        timestamp_ms: num("time") as u64,
        speed_mps: num("speed"),
        course_deg: num("bearing"),
    }
}

/// Encodes a [`Location`] directly into a reply arena — the wire-path
/// counterpart of [`location_to_js`], same key set, no owned tree.
pub fn write_location(buf: &mut WireBuf, location: &Location) -> NodeId {
    let mark = buf.begin();
    let node = buf.push_number(location.latitude);
    buf.stage_entry("latitude", node);
    let node = buf.push_number(location.longitude);
    buf.stage_entry("longitude", node);
    let node = buf.push_number(location.altitude);
    buf.stage_entry("altitude", node);
    let node = buf.push_number(location.accuracy_m);
    buf.stage_entry("accuracy", node);
    let node = buf.push_number(location.timestamp_ms as f64);
    buf.stage_entry("time", node);
    let node = buf.push_number(location.speed_mps);
    buf.stage_entry("speed", node);
    let node = buf.push_number(location.course_deg);
    buf.stage_entry("bearing", node);
    buf.end_object(mark)
}

/// Renders a proximity event as a notification object.
pub fn proximity_event_to_js(event: &ProximityEvent) -> JsValue {
    JsValue::object([
        ("refLatitude", event.ref_latitude.into()),
        ("refLongitude", event.ref_longitude.into()),
        ("refAltitude", event.ref_altitude.into()),
        ("entering", event.entering.into()),
        ("currentLocation", location_to_js(&event.current_location)),
    ])
}

/// Parses a notification object back into a proximity event.
pub fn proximity_event_from_js(value: &JsValue) -> ProximityEvent {
    let num = |key| {
        value
            .get_ref(key)
            .and_then(JsValue::as_number)
            .unwrap_or(0.0)
    };
    ProximityEvent {
        ref_latitude: num("refLatitude"),
        ref_longitude: num("refLongitude"),
        ref_altitude: num("refAltitude"),
        entering: value
            .get_ref("entering")
            .and_then(JsValue::as_bool)
            .unwrap_or(false),
        current_location: value
            .get_ref("currentLocation")
            .map(location_from_js)
            .unwrap_or_default(),
    }
}

/// The Bridge-plane span name for a wrapper invocation. Every method a
/// shipped wrapper exposes resolves to a static name (cloning a
/// [`SpanName::Static`] never allocates — the warmed hot path depends
/// on this); unknown combinations fall back to an owned rendering.
fn bridge_span_name(wrapper: &str, method: &str) -> SpanName {
    let known: Option<&'static str> = match (wrapper, method) {
        ("LocationWrapper", "getLocation") => Some("bridge:LocationWrapper.getLocation"),
        ("LocationWrapper", "getPowerDrawn") => Some("bridge:LocationWrapper.getPowerDrawn"),
        ("LocationWrapper", "addProximityAlert") => {
            Some("bridge:LocationWrapper.addProximityAlert")
        }
        ("LocationWrapper", "removeProximityAlert") => {
            Some("bridge:LocationWrapper.removeProximityAlert")
        }
        ("LocationWrapper", "setProperty") => Some("bridge:LocationWrapper.setProperty"),
        ("SmsWrapper", "sendTextMessage") => Some("bridge:SmsWrapper.sendTextMessage"),
        ("SmsWrapper", "setProperty") => Some("bridge:SmsWrapper.setProperty"),
        ("CallWrapper", "makeACall") => Some("bridge:CallWrapper.makeACall"),
        ("CallWrapper", "callProgress") => Some("bridge:CallWrapper.callProgress"),
        ("CallWrapper", "endCall") => Some("bridge:CallWrapper.endCall"),
        ("CallWrapper", "setProperty") => Some("bridge:CallWrapper.setProperty"),
        ("HttpWrapper", "request") => Some("bridge:HttpWrapper.request"),
        ("HttpWrapper", "setProperty") => Some("bridge:HttpWrapper.setProperty"),
        _ => None,
    };
    match known {
        Some(name) => SpanName::from(name),
        None => SpanName::from(format!("bridge:{wrapper}.{method}")),
    }
}

/// The static rendering of an error code for span attributes — matches
/// the code's `Debug` form without formatting on the hot path.
fn error_code_name(code: ErrorCode) -> &'static str {
    match code {
        ErrorCode::Security => "Security",
        ErrorCode::IllegalArgument => "IllegalArgument",
        ErrorCode::Remote => "Remote",
        ErrorCode::Io => "Io",
        ErrorCode::ApiRemoved => "ApiRemoved",
        ErrorCode::Bridge => "Bridge",
        ErrorCode::Deadline => "Deadline",
        ErrorCode::Overloaded => "Overloaded",
    }
}

/// Opens a Bridge-plane span for one wrapper invocation whose parent is
/// the context carried over the bridge as a `traceparent` string (the
/// ambient stack does not cross the marshalling boundary in a real
/// WebView, so the wire string is the only legitimate parent source).
/// Records nothing when no context crossed or no tracer is ambient.
fn bridge_traced(
    device: &Device,
    wrapper: &str,
    method: &str,
    traceparent: Option<&str>,
    call: impl FnOnce() -> Result<NodeId, BridgeError>,
) -> Result<NodeId, BridgeError> {
    let parent = traceparent.and_then(TraceContext::parse_traceparent);
    let mut span = parent.and_then(|ctx| {
        ambient::child_of(
            ctx,
            bridge_span_name(wrapper, method),
            Plane::Bridge,
            device.now_ms(),
        )
    });
    let out = call();
    if let Err(e) = &out {
        if let Some(s) = span.as_mut() {
            s.attr("error", error_code_name(e.code));
        }
    }
    if let Some(s) = span {
        s.end(device.now_ms());
    }
    out
}

/// Applies the deadline budget marshalled over the bridge: the ambient
/// deadline stack does not cross the JavaScript↔Java boundary in a real
/// WebView, so the wire value is the only legitimate source. A budget
/// that is already zero fails fast with [`ErrorCode::Deadline`] before
/// the wrapper touches the Android proxy; a positive budget re-opens a
/// native-side cancellation scope for the layers below.
fn with_bridge_deadline(
    device: &Device,
    wrapper: &str,
    method: &str,
    deadline_budget_ms: Option<u64>,
    call: impl FnOnce() -> Result<NodeId, BridgeError>,
) -> Result<NodeId, BridgeError> {
    match deadline_budget_ms {
        Some(0) => Err(BridgeError {
            code: ErrorCode::Deadline,
            message: format!(
                "{wrapper}.{method}: deadline budget exhausted at the bridge; \
                 call rejected before the native proxy"
            ),
        }),
        Some(budget) => {
            let deadline = crate::overload::Deadline::after(device.now_ms(), budget);
            crate::overload::with_deadline(deadline, call)
        }
        None => call(),
    }
}

/// Serves `setProperty(key, value)` for any wrapper: the value crosses
/// as a string and is re-validated against the Android plane.
fn set_property(
    proxy: &impl ProxyBase,
    call_args: WireValue<'_>,
    reply: &mut WireBuf,
) -> Result<NodeId, BridgeError> {
    let key = call_args.str_arg(0)?;
    let value = call_args.str_arg(1)?;
    proxy
        .set_property(key, PropertyValue::str(value))
        .map_err(to_bridge)?;
    Ok(reply.push_undefined())
}

/// The error for a method the wrapper does not expose.
fn no_method(wrapper: &str, method: &str) -> BridgeError {
    BridgeError::bridge(format!("{wrapper} has no method {method}"))
}

/// The `LocationWrapper` Java class.
pub struct LocationWrapper {
    proxy: AndroidLocationProxy,
    table: Arc<NotificationTable>,
    device: Device,
    registrations: Mutex<HashMap<u64, SharedProximityListener>>,
}

impl LocationWrapper {
    fn new(proxy: AndroidLocationProxy, table: Arc<NotificationTable>, device: Device) -> Self {
        Self {
            proxy,
            table,
            device,
            registrations: Mutex::new(HashMap::new()),
        }
    }
}

impl JavaScriptInterface for LocationWrapper {
    fn call(&self, method: &str, call_args: &[JsValue]) -> Result<JsValue, BridgeError> {
        call_via_wire(self, method, call_args)
    }

    fn call_wire(
        &self,
        method: &str,
        call_args: WireValue<'_>,
        reply: &mut WireBuf,
        traceparent: Option<&str>,
        deadline_budget_ms: Option<u64>,
    ) -> Result<NodeId, BridgeError> {
        const WRAPPER: &str = interface_names::LOCATION;
        with_bridge_deadline(&self.device, WRAPPER, method, deadline_budget_ms, || {
            bridge_traced(
                &self.device,
                WRAPPER,
                method,
                traceparent,
                || match method {
                    "setProperty" => set_property(&self.proxy, call_args, reply),
                    "getLocation" => {
                        let location = self.proxy.get_location().map_err(to_bridge)?;
                        Ok(write_location(reply, &location))
                    }
                    // Reads the GPS line of the device power ledger — the
                    // second read of the proxy plane's multi-read.
                    "getPowerDrawn" => {
                        Ok(reply.push_number(self.device.power().component_total("gps")))
                    }
                    "addProximityAlert" => {
                        let latitude = call_args.number_arg(0)?;
                        let longitude = call_args.number_arg(1)?;
                        let altitude = call_args.number_arg(2)?;
                        let radius = call_args.number_arg(3)?;
                        let timer = call_args.number_arg(4)? as i64;
                        // Allocate the notification-table row whose id is
                        // returned to the JavaScript side for polling.
                        let notif_id = self.table.allocate();
                        let table = Arc::clone(&self.table);
                        let listener: SharedProximityListener =
                            Arc::new(move |e: &ProximityEvent| {
                                table.post(notif_id, proximity_event_to_js(e));
                            });
                        self.proxy
                            .add_proximity_alert(
                                latitude,
                                longitude,
                                altitude,
                                radius,
                                timer,
                                Arc::clone(&listener),
                            )
                            .map_err(to_bridge)?;
                        self.registrations.lock().insert(notif_id.raw(), listener);
                        Ok(reply.push_number(notif_id.raw() as f64))
                    }
                    "removeProximityAlert" => {
                        let raw = call_args.number_arg(0)? as u64;
                        let listener = self.registrations.lock().remove(&raw);
                        let removed = match listener {
                            Some(listener) => self
                                .proxy
                                .remove_proximity_alert(&listener)
                                .map_err(to_bridge)?,
                            None => false,
                        };
                        Ok(reply.push_bool(removed))
                    }
                    other => Err(no_method(WRAPPER, other)),
                },
            )
        })
    }
}

/// The `SmsWrapper` Java class (the worked example of Fig. 6).
pub struct SmsWrapper {
    proxy: AndroidSmsProxy,
    table: Arc<NotificationTable>,
    device: Device,
}

impl SmsWrapper {
    fn new(proxy: AndroidSmsProxy, table: Arc<NotificationTable>, device: Device) -> Self {
        Self {
            proxy,
            table,
            device,
        }
    }

    /// `sendTextMsg` in Fig. 6: all parameters except the callback
    /// cross the bridge; when a report is wanted, a Callback object
    /// posts the delivery notification under the returned `notifId`.
    fn send(&self, call_args: WireValue<'_>, reply: &mut WireBuf) -> Result<NodeId, BridgeError> {
        let destination = call_args.str_arg(0)?;
        let text = call_args.str_arg(1)?;
        let (notif_id, listener) = if call_args.bool_arg_or(2, false) {
            let notif_id = self.table.allocate();
            let table = Arc::clone(&self.table);
            let listener: Arc<dyn crate::types::DeliveryListener> =
                Arc::new(move |id: u64, outcome: DeliveryOutcome| {
                    table.post(
                        notif_id,
                        JsValue::object([
                            ("messageId", id.into()),
                            ("delivered", (outcome == DeliveryOutcome::Delivered).into()),
                        ]),
                    );
                });
            (Some(notif_id), Some(listener))
        } else {
            (None, None)
        };
        let message_id = self
            .proxy
            .send_text_message(destination, text, listener)
            .map_err(to_bridge)?;
        let mark = reply.begin();
        let node = reply.push_number(message_id as f64);
        reply.stage_entry("messageId", node);
        let node = match notif_id {
            Some(id) => reply.push_number(id.raw() as f64),
            None => reply.push_null(),
        };
        reply.stage_entry("notifId", node);
        Ok(reply.end_object(mark))
    }
}

impl JavaScriptInterface for SmsWrapper {
    fn call(&self, method: &str, call_args: &[JsValue]) -> Result<JsValue, BridgeError> {
        call_via_wire(self, method, call_args)
    }

    fn call_wire(
        &self,
        method: &str,
        call_args: WireValue<'_>,
        reply: &mut WireBuf,
        traceparent: Option<&str>,
        deadline_budget_ms: Option<u64>,
    ) -> Result<NodeId, BridgeError> {
        const WRAPPER: &str = interface_names::SMS;
        with_bridge_deadline(&self.device, WRAPPER, method, deadline_budget_ms, || {
            bridge_traced(
                &self.device,
                WRAPPER,
                method,
                traceparent,
                || match method {
                    "setProperty" => set_property(&self.proxy, call_args, reply),
                    "sendTextMessage" => self.send(call_args, reply),
                    other => Err(no_method(WRAPPER, other)),
                },
            )
        })
    }
}

/// The `CallWrapper` Java class.
pub struct CallWrapper {
    proxy: AndroidCallProxy,
    device: Device,
}

impl JavaScriptInterface for CallWrapper {
    fn call(&self, method: &str, call_args: &[JsValue]) -> Result<JsValue, BridgeError> {
        call_via_wire(self, method, call_args)
    }

    fn call_wire(
        &self,
        method: &str,
        call_args: WireValue<'_>,
        reply: &mut WireBuf,
        traceparent: Option<&str>,
        deadline_budget_ms: Option<u64>,
    ) -> Result<NodeId, BridgeError> {
        const WRAPPER: &str = interface_names::CALL;
        with_bridge_deadline(&self.device, WRAPPER, method, deadline_budget_ms, || {
            bridge_traced(
                &self.device,
                WRAPPER,
                method,
                traceparent,
                || match method {
                    "setProperty" => set_property(&self.proxy, call_args, reply),
                    "makeACall" => {
                        let number = call_args.str_arg(0)?;
                        let id = self.proxy.make_a_call(number).map_err(to_bridge)?;
                        Ok(reply.push_number(id as f64))
                    }
                    "callProgress" => {
                        let id = call_args.number_arg(0)? as u64;
                        let progress = self.proxy.call_progress(id).map_err(to_bridge)?;
                        Ok(reply.push_str(match progress {
                            CallProgress::Connecting => "connecting",
                            CallProgress::Connected => "connected",
                            CallProgress::Ended => "ended",
                        }))
                    }
                    "endCall" => {
                        let id = call_args.number_arg(0)? as u64;
                        self.proxy.end_call(id).map_err(to_bridge)?;
                        Ok(reply.push_undefined())
                    }
                    other => Err(no_method(WRAPPER, other)),
                },
            )
        })
    }
}

/// The `HttpWrapper` Java class.
pub struct HttpWrapper {
    proxy: AndroidHttpProxy,
    device: Device,
}

impl JavaScriptInterface for HttpWrapper {
    fn call(&self, method: &str, call_args: &[JsValue]) -> Result<JsValue, BridgeError> {
        call_via_wire(self, method, call_args)
    }

    fn call_wire(
        &self,
        method: &str,
        call_args: WireValue<'_>,
        reply: &mut WireBuf,
        traceparent: Option<&str>,
        deadline_budget_ms: Option<u64>,
    ) -> Result<NodeId, BridgeError> {
        const WRAPPER: &str = interface_names::HTTP;
        with_bridge_deadline(&self.device, WRAPPER, method, deadline_budget_ms, || {
            bridge_traced(
                &self.device,
                WRAPPER,
                method,
                traceparent,
                || match method {
                    "setProperty" => set_property(&self.proxy, call_args, reply),
                    "request" => {
                        let http_method = call_args.str_arg(0)?;
                        let url = call_args.str_arg(1)?;
                        let body = call_args.item(2).and_then(|v| v.as_str()).unwrap_or("");
                        let result = self
                            .proxy
                            .request(http_method, url, body.as_bytes())
                            .map_err(to_bridge)?;
                        let mark = reply.begin();
                        let node = reply.push_number(result.status as f64);
                        reply.stage_entry("status", node);
                        let node = reply.push_str(&String::from_utf8_lossy(&result.body));
                        reply.stage_entry("body", node);
                        Ok(reply.end_object(mark))
                    }
                    other => Err(no_method(WRAPPER, other)),
                },
            )
        })
    }
}

/// The wrapper factory (`SmsWrapperFactory` generalized): constructs
/// every wrapper over Android proxies bound to the WebView's context and
/// injects them with `addJavaScriptInterface`. Idempotent per WebView —
/// re-installation replaces the wrappers.
pub fn install_wrappers(webview: &WebView) {
    let ctx = webview.context().clone();
    let device = ctx.device().clone();
    let table = Arc::clone(webview.notifications());

    let location_proxy = AndroidLocationProxy::new();
    location_proxy
        .set_property("context", PropertyValue::opaque(ctx.clone()))
        .expect("catalog declares the context property");
    webview.add_javascript_interface(
        Arc::new(LocationWrapper::new(
            location_proxy,
            Arc::clone(&table),
            device.clone(),
        )),
        interface_names::LOCATION,
    );

    let sms_proxy = AndroidSmsProxy::new();
    sms_proxy
        .set_property("context", PropertyValue::opaque(ctx.clone()))
        .expect("catalog declares the context property");
    webview.add_javascript_interface(
        Arc::new(SmsWrapper::new(sms_proxy, table, device.clone())),
        interface_names::SMS,
    );

    let call_proxy = AndroidCallProxy::new();
    call_proxy
        .set_property("context", PropertyValue::opaque(ctx.clone()))
        .expect("catalog declares the context property");
    webview.add_javascript_interface(
        Arc::new(CallWrapper {
            proxy: call_proxy,
            device: device.clone(),
        }),
        interface_names::CALL,
    );

    let http_proxy = AndroidHttpProxy::new();
    http_proxy
        .set_property("context", PropertyValue::opaque(ctx))
        .expect("catalog declares the context property");
    webview.add_javascript_interface(
        Arc::new(HttpWrapper {
            proxy: http_proxy,
            device,
        }),
        interface_names::HTTP,
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use mobivine_android::{AndroidPlatform, SdkVersion};
    use mobivine_device::net::{HttpResponse, Method};
    use mobivine_device::Device;
    use mobivine_telemetry::span::SpanRecord;
    use mobivine_telemetry::{TraceparentBuf, Tracer};
    use mobivine_webview::notification::NotificationId;

    fn webview() -> (AndroidPlatform, WebView) {
        let platform = AndroidPlatform::new(
            Device::builder().msisdn("+91-me").build(),
            SdkVersion::M5Rc15,
        );
        let webview = WebView::new(platform.new_context());
        install_wrappers(&webview);
        (platform, webview)
    }

    /// A fresh page on a seeded device with one call placed and one
    /// proximity alert registered, so every method of the table below
    /// has something to act on. Two pages built here are identical.
    fn seeded_page() -> (AndroidPlatform, WebView) {
        let device = Device::builder().seed(11).msisdn("+91-me").build();
        device.smsc().register_address("+91-sup");
        device
            .network()
            .register_route("wfm.example", Method::Get, "/ping", |_| {
                HttpResponse::ok("pong")
            });
        let platform = AndroidPlatform::new(device, SdkVersion::M5Rc15);
        let webview = WebView::new(platform.new_context());
        install_wrappers(&webview);
        let handle = |name| webview.js_interface(name).unwrap();
        handle(interface_names::CALL)
            .invoke("makeACall", &[JsValue::str("+91-sup")])
            .unwrap();
        let alert = [0.0, 0.0, 0.0, 100.0, -1.0].map(JsValue::Number);
        handle(interface_names::LOCATION)
            .invoke("addProximityAlert", &alert)
            .unwrap();
        (platform, webview)
    }

    /// Every (wrapper, method) pair the four wrappers serve, with
    /// arguments that succeed on a [`seeded_page`].
    fn served_methods() -> Vec<(&'static str, &'static str, Vec<JsValue>)> {
        let s = JsValue::str;
        let n = JsValue::Number;
        vec![
            (
                interface_names::LOCATION,
                "setProperty",
                vec![s("provider"), s("network")],
            ),
            (interface_names::LOCATION, "getLocation", vec![]),
            (interface_names::LOCATION, "getPowerDrawn", vec![]),
            (
                interface_names::LOCATION,
                "addProximityAlert",
                vec![n(1.0), n(2.0), n(0.0), n(50.0), n(-1.0)],
            ),
            (
                interface_names::LOCATION,
                "removeProximityAlert",
                vec![n(1.0)],
            ),
            (
                interface_names::SMS,
                "setProperty",
                vec![s("retry.max_attempts"), s("3")],
            ),
            (
                interface_names::SMS,
                "sendTextMessage",
                vec![s("+91-sup"), s("hello"), JsValue::Bool(true)],
            ),
            (
                interface_names::CALL,
                "setProperty",
                vec![s("retry.max_attempts"), s("3")],
            ),
            (interface_names::CALL, "makeACall", vec![s("+91-sup")]),
            (interface_names::CALL, "callProgress", vec![n(1.0)]),
            (interface_names::CALL, "endCall", vec![n(1.0)]),
            (
                interface_names::HTTP,
                "setProperty",
                vec![s("retry.max_attempts"), s("3")],
            ),
            (
                interface_names::HTTP,
                "request",
                vec![s("GET"), s("http://wfm.example/ping"), s("")],
            ),
        ]
    }

    /// Invokes `method` through the wire path with an owned-value
    /// encoder and decoder, so its result compares with `invoke`'s.
    fn invoke_wire(
        webview: &WebView,
        wrapper: &str,
        method: &str,
        call_args: &[JsValue],
        traceparent: Option<&str>,
        deadline_budget_ms: Option<u64>,
    ) -> Result<JsValue, BridgeError> {
        webview.js_interface(wrapper).unwrap().invoke_wire(
            method,
            traceparent,
            deadline_budget_ms,
            |call| call.push_js(&JsValue::Array(call_args.to_vec())),
            |reply| Ok(reply.to_js()),
        )
    }

    /// Runs `method` on a fresh page under a root span, passing the
    /// root's context as the `traceparent`, and returns the result with
    /// every span recorded besides the root.
    fn traced(
        wrapper: &str,
        method: &str,
        call_args: &[JsValue],
        deadline_budget_ms: Option<u64>,
    ) -> (Result<JsValue, BridgeError>, Vec<SpanRecord>) {
        let (platform, webview) = seeded_page();
        let tracer = Tracer::new();
        let now = platform.device().now_ms();
        let root = tracer.root("app:test", Plane::App, now);
        let traceparent = TraceparentBuf::render(&root.context());
        let out = invoke_wire(
            &webview,
            wrapper,
            method,
            call_args,
            Some(traceparent.as_str()),
            deadline_budget_ms,
        );
        root.end(platform.device().now_ms());
        let spans = tracer
            .take_finished()
            .into_iter()
            .filter(|span| span.plane != Plane::App)
            .collect();
        (out, spans)
    }

    #[test]
    fn every_served_method_crosses_once_on_the_wire_path() {
        for (wrapper, method, call_args) in &served_methods() {
            let pair = format!("{wrapper}.{method}");
            // The owned-value adapter and the wire path are one
            // implementation: equal results on identical pages.
            let (_p, owned_page) = seeded_page();
            let owned = owned_page
                .js_interface(wrapper)
                .unwrap()
                .invoke(method, call_args);
            let (_p, wire_page) = seeded_page();
            let wire = invoke_wire(&wire_page, wrapper, method, call_args, None, None);
            assert!(owned.is_ok(), "{pair}: {owned:?}");
            assert_eq!(owned, wire, "{pair}");

            // A traceparent opens exactly one Bridge-plane span, under
            // its static name.
            let (out, spans) = traced(wrapper, method, call_args, None);
            assert_eq!(out, wire, "{pair} traced");
            let bridge: Vec<_> = spans.iter().filter(|s| s.plane == Plane::Bridge).collect();
            assert_eq!(bridge.len(), 1, "{pair}: {spans:?}");
            let expected = format!("bridge:{pair}");
            assert!(
                matches!(bridge[0].name, SpanName::Static(name) if name == expected),
                "{pair}: {:?}",
                bridge[0].name
            );

            // An exhausted budget fails fast, before the wrapper opens
            // its span or reaches the Android proxy.
            let (out, spans) = traced(wrapper, method, call_args, Some(0));
            assert_eq!(out.unwrap_err().code, ErrorCode::Deadline, "{pair}");
            assert!(spans.is_empty(), "{pair}: {spans:?}");
        }
    }

    #[test]
    fn factory_installs_all_wrappers() {
        let (_platform, webview) = webview();
        assert_eq!(
            webview.interface_names(),
            vec![
                "CallWrapper",
                "HttpWrapper",
                "LocationWrapper",
                "SmsWrapper"
            ]
        );
    }

    #[test]
    fn location_round_trips_js_shape() {
        let loc = Location {
            latitude: 28.5,
            longitude: 77.3,
            altitude: 210.0,
            accuracy_m: 5.0,
            timestamp_ms: 1234,
            speed_mps: 2.0,
            course_deg: 45.0,
        };
        assert_eq!(location_from_js(&location_to_js(&loc)), loc);
    }

    #[test]
    fn proximity_event_round_trips_js_shape() {
        let event = ProximityEvent {
            ref_latitude: 1.0,
            ref_longitude: 2.0,
            ref_altitude: 3.0,
            entering: true,
            current_location: Location {
                latitude: 1.1,
                ..Location::default()
            },
        };
        assert_eq!(
            proximity_event_from_js(&proximity_event_to_js(&event)),
            event
        );
    }

    #[test]
    fn sms_wrapper_returns_message_and_notif_ids() {
        let (platform, webview) = webview();
        platform.device().smsc().register_address("+91-sup");
        let sms = webview.js_interface(interface_names::SMS).unwrap();
        let out = sms
            .invoke(
                "sendTextMessage",
                &[
                    JsValue::str("+91-sup"),
                    JsValue::str("hello"),
                    JsValue::Bool(true),
                ],
            )
            .unwrap();
        assert!(out.get("messageId").as_number().unwrap() > 0.0);
        let notif_raw = out.get("notifId").as_number().unwrap() as u64;
        // After delivery, the notification appears in the table.
        platform.device().advance_ms(1_000);
        let id = NotificationId::from_raw(notif_raw).unwrap();
        let pending = webview.notifications().take(id);
        assert_eq!(pending.len(), 1);
        assert_eq!(pending[0].get("delivered"), JsValue::Bool(true));
    }

    #[test]
    fn security_errors_cross_as_error_codes() {
        use mobivine_android::permissions::PermissionSet;
        let platform = AndroidPlatform::with_permissions(
            Device::builder().build(),
            SdkVersion::M5Rc15,
            PermissionSet::new(),
        );
        let webview = WebView::new(platform.new_context());
        install_wrappers(&webview);
        let sms = webview.js_interface(interface_names::SMS).unwrap();
        let err = sms
            .invoke(
                "sendTextMessage",
                &[JsValue::str("+1"), JsValue::str("x"), JsValue::Bool(false)],
            )
            .unwrap_err();
        assert_eq!(err.code, ErrorCode::Security);
    }

    #[test]
    fn zero_deadline_budget_fails_fast_at_the_bridge() {
        let (platform, webview) = webview();
        platform.device().smsc().register_address("+91-sup");
        let send_args = [
            JsValue::str("+91-sup"),
            JsValue::str("too late"),
            JsValue::Bool(false),
        ];
        let send = |budget| {
            invoke_wire(
                &webview,
                interface_names::SMS,
                "sendTextMessage",
                &send_args,
                None,
                budget,
            )
        };

        let err = send(Some(0)).unwrap_err();
        assert_eq!(err.code, ErrorCode::Deadline);
        assert!(
            err.message.contains("deadline budget exhausted"),
            "{}",
            err.message
        );

        // It never reached the platform: nothing was ever submitted.
        platform.device().advance_ms(5_000);
        assert!(platform.device().smsc().inbox("+91-sup").is_empty());

        // A positive budget goes through — it was the budget, not the
        // call, that the bridge rejected.
        send(Some(5_000)).unwrap();
        platform.device().advance_ms(5_000);
        assert_eq!(platform.device().smsc().inbox("+91-sup").len(), 1);
    }

    #[test]
    fn unknown_method_is_bridge_error() {
        let (_platform, webview) = webview();
        let http = webview.js_interface(interface_names::HTTP).unwrap();
        assert_eq!(
            http.invoke("download", &[]).unwrap_err().code,
            ErrorCode::Bridge
        );
    }
}
