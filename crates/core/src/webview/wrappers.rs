//! Java "Wrapper" classes for the WebView bridge (Fig. 6, step 1).
//!
//! Each wrapper adapts one Android proxy to the
//! [`JavaScriptInterface`] calling convention: dynamically-typed
//! arguments in, dynamically-typed results out, exceptions as error
//! codes, and asynchronous callbacks redirected into the WebView's
//! [`NotificationTable`] (JavaScript cannot receive Java callbacks
//! directly — paper footnote 8).

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::Mutex;

use mobivine_device::Device;
use mobivine_telemetry::span::{ambient, Plane, SpanName};
use mobivine_telemetry::TraceContext;
use mobivine_webview::bridge::{args, BridgeError, ErrorCode, JavaScriptInterface};
use mobivine_webview::notification::{NotificationId, NotificationTable};
use mobivine_webview::wire::{NodeId, WireBuf, WireValue};
use mobivine_webview::{JsValue, WebView};

use crate::android::{AndroidCallProxy, AndroidHttpProxy, AndroidLocationProxy, AndroidSmsProxy};
use crate::api::{CallProxy, HttpProxy, LocationProxy, ProxyBase, SmsProxy};
use crate::error::{ProxyError, ProxyErrorKind};
use crate::property::PropertyValue;
use crate::types::{DeliveryOutcome, Location, ProximityEvent, SharedProximityListener};

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

/// Decodes the wire object shape back into the common [`Location`] —
/// the borrowed-view counterpart of [`location_from_js`].
pub fn location_from_wire(value: WireValue<'_>) -> Location {
    let num = |key| value.get(key).and_then(|v| v.as_number()).unwrap_or(0.0);
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
/// Generic over the result payload so the wire path traces without
/// owned [`JsValue`] trees.
fn bridge_traced<T, F>(
    device: &Device,
    wrapper: &str,
    method: &str,
    traceparent: Option<&str>,
    call: F,
) -> Result<T, BridgeError>
where
    F: FnOnce() -> Result<T, BridgeError>,
{
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
fn with_bridge_deadline<T, F>(
    device: &Device,
    wrapper: &str,
    method: &str,
    deadline_budget_ms: Option<u64>,
    call: F,
) -> Result<T, BridgeError>
where
    F: FnOnce() -> Result<T, BridgeError>,
{
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
        match method {
            "setProperty" => {
                let key = args::string(call_args, 0)?;
                let value = args::string(call_args, 1)?;
                self.proxy
                    .set_property(key, PropertyValue::str(value))
                    .map_err(to_bridge)?;
                Ok(JsValue::Undefined)
            }
            "getLocation" => {
                let location = self.proxy.get_location().map_err(to_bridge)?;
                Ok(location_to_js(&location))
            }
            // Reads the GPS line of the device power ledger — paired
            // with `getLocation` in the proxy plane's multi-read batch.
            "getPowerDrawn" => Ok(JsValue::Number(self.device.power().component_total("gps"))),
            "addProximityAlert" => {
                let latitude = args::number(call_args, 0)?;
                let longitude = args::number(call_args, 1)?;
                let altitude = args::number(call_args, 2)?;
                let radius = args::number(call_args, 3)?;
                let timer = args::number(call_args, 4)? as i64;
                // Allocate the notification-table row whose id is
                // returned to the JavaScript side for polling.
                let notif_id = self.table.allocate();
                let table = Arc::clone(&self.table);
                let listener: SharedProximityListener = Arc::new(move |e: &ProximityEvent| {
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
                self.registrations
                    .lock()
                    .insert(notif_id_raw(notif_id), listener);
                Ok(JsValue::Number(notif_id_raw(notif_id) as f64))
            }
            "removeProximityAlert" => {
                let raw = args::number(call_args, 0)? as u64;
                let listener = self.registrations.lock().remove(&raw);
                match listener {
                    Some(listener) => {
                        let removed = self
                            .proxy
                            .remove_proximity_alert(&listener)
                            .map_err(to_bridge)?;
                        Ok(JsValue::Bool(removed))
                    }
                    None => Ok(JsValue::Bool(false)),
                }
            }
            other => Err(BridgeError::bridge(format!(
                "LocationWrapper has no method {other}"
            ))),
        }
    }

    fn call_with_context(
        &self,
        method: &str,
        call_args: &[JsValue],
        traceparent: Option<&str>,
        deadline_budget_ms: Option<u64>,
    ) -> Result<JsValue, BridgeError> {
        with_bridge_deadline(
            &self.device,
            "LocationWrapper",
            method,
            deadline_budget_ms,
            || {
                bridge_traced(&self.device, "LocationWrapper", method, traceparent, || {
                    self.call(method, call_args)
                })
            },
        )
    }

    // The zero-copy path for the hot read methods: the location is
    // encoded straight into the caller's reply arena, so a warmed call
    // crosses the bridge without owned `JsValue` trees. Cold methods
    // fall back to the owned-value chain.
    fn call_wire(
        &self,
        method: &str,
        call_args: WireValue<'_>,
        reply: &mut WireBuf,
        traceparent: Option<&str>,
        deadline_budget_ms: Option<u64>,
    ) -> Result<NodeId, BridgeError> {
        match method {
            "getLocation" => with_bridge_deadline(
                &self.device,
                "LocationWrapper",
                method,
                deadline_budget_ms,
                || {
                    bridge_traced(&self.device, "LocationWrapper", method, traceparent, || {
                        let location = self.proxy.get_location().map_err(to_bridge)?;
                        Ok(write_location(reply, &location))
                    })
                },
            ),
            "getPowerDrawn" => with_bridge_deadline(
                &self.device,
                "LocationWrapper",
                method,
                deadline_budget_ms,
                || {
                    bridge_traced(&self.device, "LocationWrapper", method, traceparent, || {
                        Ok(reply.push_number(self.device.power().component_total("gps")))
                    })
                },
            ),
            _ => mobivine_webview::bridge::call_wire_via_values(
                self,
                method,
                call_args,
                reply,
                traceparent,
                deadline_budget_ms,
            ),
        }
    }
}

fn notif_id_raw(id: NotificationId) -> u64 {
    id.raw()
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

    /// The shared send path behind both calling conventions: arguments
    /// arrive borrowed, the optional delivery report is wired into the
    /// notification table, and `(messageId, notifId)` comes back as
    /// plain values for the caller to encode.
    fn send(
        &self,
        destination: &str,
        text: &str,
        want_report: bool,
    ) -> Result<(u64, Option<u64>), BridgeError> {
        let (notif_raw, listener) = if want_report {
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
            (Some(notif_id_raw(notif_id)), Some(listener))
        } else {
            (None, None)
        };
        let message_id = self
            .proxy
            .send_text_message(destination, text, listener)
            .map_err(to_bridge)?;
        Ok((message_id, notif_raw))
    }
}

impl JavaScriptInterface for SmsWrapper {
    fn call(&self, method: &str, call_args: &[JsValue]) -> Result<JsValue, BridgeError> {
        match method {
            "setProperty" => {
                let key = args::string(call_args, 0)?;
                let value = args::string(call_args, 1)?;
                self.proxy
                    .set_property(key, PropertyValue::str(value))
                    .map_err(to_bridge)?;
                Ok(JsValue::Undefined)
            }
            // `sendTextMsg` in Fig. 6: all parameters except the
            // callback cross the bridge; a Callback object posts the
            // delivery notification under the returned id.
            "sendTextMessage" => {
                let destination = args::string(call_args, 0)?;
                let text = args::string(call_args, 1)?;
                let want_report = args::bool_or(call_args, 2, false);
                let (message_id, notif_raw) = self.send(destination, text, want_report)?;
                Ok(JsValue::object([
                    ("messageId", message_id.into()),
                    (
                        "notifId",
                        notif_raw.map(JsValue::from).unwrap_or(JsValue::Null),
                    ),
                ]))
            }
            other => Err(BridgeError::bridge(format!(
                "SmsWrapper has no method {other}"
            ))),
        }
    }

    fn call_with_context(
        &self,
        method: &str,
        call_args: &[JsValue],
        traceparent: Option<&str>,
        deadline_budget_ms: Option<u64>,
    ) -> Result<JsValue, BridgeError> {
        with_bridge_deadline(
            &self.device,
            "SmsWrapper",
            method,
            deadline_budget_ms,
            || {
                bridge_traced(&self.device, "SmsWrapper", method, traceparent, || {
                    self.call(method, call_args)
                })
            },
        )
    }

    // The zero-copy path for the hot send method: destination and text
    // are read as borrowed views out of the call arena and the result
    // object is encoded straight into the reply arena.
    fn call_wire(
        &self,
        method: &str,
        call_args: WireValue<'_>,
        reply: &mut WireBuf,
        traceparent: Option<&str>,
        deadline_budget_ms: Option<u64>,
    ) -> Result<NodeId, BridgeError> {
        match method {
            "sendTextMessage" => with_bridge_deadline(
                &self.device,
                "SmsWrapper",
                method,
                deadline_budget_ms,
                || {
                    bridge_traced(&self.device, "SmsWrapper", method, traceparent, || {
                        let destination = call_args
                            .item(0)
                            .and_then(|v| v.as_str())
                            .ok_or_else(|| BridgeError::bridge("argument 0 must be a string"))?;
                        let text = call_args
                            .item(1)
                            .and_then(|v| v.as_str())
                            .ok_or_else(|| BridgeError::bridge("argument 1 must be a string"))?;
                        let want_report =
                            call_args.item(2).and_then(|v| v.as_bool()).unwrap_or(false);
                        let (message_id, notif_raw) = self.send(destination, text, want_report)?;
                        let mark = reply.begin();
                        let node = reply.push_number(message_id as f64);
                        reply.stage_entry("messageId", node);
                        let node = match notif_raw {
                            Some(raw) => reply.push_number(raw as f64),
                            None => reply.push_null(),
                        };
                        reply.stage_entry("notifId", node);
                        Ok(reply.end_object(mark))
                    })
                },
            ),
            _ => mobivine_webview::bridge::call_wire_via_values(
                self,
                method,
                call_args,
                reply,
                traceparent,
                deadline_budget_ms,
            ),
        }
    }
}

/// The `CallWrapper` Java class.
pub struct CallWrapper {
    proxy: AndroidCallProxy,
    device: Device,
}

impl JavaScriptInterface for CallWrapper {
    fn call(&self, method: &str, call_args: &[JsValue]) -> Result<JsValue, BridgeError> {
        match method {
            "setProperty" => {
                let key = args::string(call_args, 0)?;
                let value = args::string(call_args, 1)?;
                self.proxy
                    .set_property(key, PropertyValue::str(value))
                    .map_err(to_bridge)?;
                Ok(JsValue::Undefined)
            }
            "makeACall" => {
                let number = args::string(call_args, 0)?;
                let id = self.proxy.make_a_call(number).map_err(to_bridge)?;
                Ok(JsValue::Number(id as f64))
            }
            "callProgress" => {
                let id = args::number(call_args, 0)? as u64;
                let progress = self.proxy.call_progress(id).map_err(to_bridge)?;
                Ok(JsValue::str(match progress {
                    crate::types::CallProgress::Connecting => "connecting",
                    crate::types::CallProgress::Connected => "connected",
                    crate::types::CallProgress::Ended => "ended",
                }))
            }
            "endCall" => {
                let id = args::number(call_args, 0)? as u64;
                self.proxy.end_call(id).map_err(to_bridge)?;
                Ok(JsValue::Undefined)
            }
            other => Err(BridgeError::bridge(format!(
                "CallWrapper has no method {other}"
            ))),
        }
    }

    fn call_with_context(
        &self,
        method: &str,
        call_args: &[JsValue],
        traceparent: Option<&str>,
        deadline_budget_ms: Option<u64>,
    ) -> Result<JsValue, BridgeError> {
        with_bridge_deadline(
            &self.device,
            "CallWrapper",
            method,
            deadline_budget_ms,
            || {
                bridge_traced(&self.device, "CallWrapper", method, traceparent, || {
                    self.call(method, call_args)
                })
            },
        )
    }
}

/// The `HttpWrapper` Java class.
pub struct HttpWrapper {
    proxy: AndroidHttpProxy,
    device: Device,
}

impl JavaScriptInterface for HttpWrapper {
    fn call(&self, method: &str, call_args: &[JsValue]) -> Result<JsValue, BridgeError> {
        match method {
            "setProperty" => {
                let key = args::string(call_args, 0)?;
                let value = args::string(call_args, 1)?;
                self.proxy
                    .set_property(key, PropertyValue::str(value))
                    .map_err(to_bridge)?;
                Ok(JsValue::Undefined)
            }
            "request" => {
                let http_method = args::string(call_args, 0)?;
                let url = args::string(call_args, 1)?;
                let body = args::string(call_args, 2).unwrap_or("");
                let result = self
                    .proxy
                    .request(http_method, url, body.as_bytes())
                    .map_err(to_bridge)?;
                Ok(JsValue::object([
                    ("status", JsValue::Number(result.status as f64)),
                    ("body", JsValue::Str(result.body_text())),
                ]))
            }
            other => Err(BridgeError::bridge(format!(
                "HttpWrapper has no method {other}"
            ))),
        }
    }

    fn call_with_context(
        &self,
        method: &str,
        call_args: &[JsValue],
        traceparent: Option<&str>,
        deadline_budget_ms: Option<u64>,
    ) -> Result<JsValue, BridgeError> {
        with_bridge_deadline(
            &self.device,
            "HttpWrapper",
            method,
            deadline_budget_ms,
            || {
                bridge_traced(&self.device, "HttpWrapper", method, traceparent, || {
                    self.call(method, call_args)
                })
            },
        )
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
    use mobivine_device::Device;

    fn webview() -> (AndroidPlatform, WebView) {
        let platform = AndroidPlatform::new(
            Device::builder().msisdn("+91-me").build(),
            SdkVersion::M5Rc15,
        );
        let webview = WebView::new(platform.new_context());
        install_wrappers(&webview);
        (platform, webview)
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
        let sms = webview.js_interface(interface_names::SMS).unwrap();
        let send_args = [
            JsValue::str("+91-sup"),
            JsValue::str("too late"),
            JsValue::Bool(false),
        ];

        // Context path: the exhausted budget is rejected at the bridge.
        let err = sms
            .invoke_with_context("sendTextMessage", &send_args, None, Some(0))
            .unwrap_err();
        assert_eq!(err.code, ErrorCode::Deadline);
        assert!(
            err.message.contains("deadline budget exhausted"),
            "{}",
            err.message
        );

        // Wire path: the same fail-fast, surfaced from the arena
        // crossing before any argument decoding pays off.
        let err = sms
            .invoke_wire(
                "sendTextMessage",
                None,
                Some(0),
                |call| {
                    let mark = call.begin();
                    let to = call.push_str("+91-sup");
                    call.stage_item(to);
                    let body = call.push_str("too late");
                    call.stage_item(body);
                    let report = call.push_bool(false);
                    call.stage_item(report);
                    call.end_array(mark)
                },
                |reply| Ok(reply.to_js()),
            )
            .unwrap_err();
        assert_eq!(err.code, ErrorCode::Deadline);

        // Batched path: the exhausted budget poisons each entry with
        // its own deadline code instead of failing the whole crossing.
        let err = sms
            .invoke_batch(
                None,
                Some(0),
                |call| {
                    let args = call.empty_args();
                    call.push_frame("getServiceCenterAddress", args);
                },
                |replies| match replies.get(0) {
                    Some(Ok(value)) => Ok(value.to_js()),
                    Some(Err((code, message))) => Err(BridgeError {
                        code,
                        message: message.to_owned(),
                    }),
                    None => Err(BridgeError::bridge("missing reply")),
                },
            )
            .unwrap_err();
        assert_eq!(err.code, ErrorCode::Deadline);

        // None of it reached the platform: nothing was ever submitted.
        platform.device().advance_ms(5_000);
        assert!(platform.device().smsc().inbox("+91-sup").is_empty());

        // A positive budget goes through — it was the budget, not the
        // call, that the bridge rejected.
        sms.invoke_with_context("sendTextMessage", &send_args, None, Some(5_000))
            .unwrap();
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
