//! JavaScript-side proxies (Fig. 6, steps 2 and 3).
//!
//! Each `WebView*Proxy` is the JavaScript proxy object of the paper:
//! constructed over the wrapper handle (`swi`) obtained from the page,
//! it exposes the uniform proxy traits. Asynchronous callbacks are wired
//! through the Notification Table — the proxy receives a notification id
//! from the wrapper, spins up a polling [`NotifHandler`], and dispatches
//! each retrieved notification to the registered callback.

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::Mutex;

use mobivine_device::Device;
use mobivine_proxydl::PlatformId;
use mobivine_telemetry::span::ambient;
use mobivine_telemetry::TraceparentBuf;
use mobivine_webview::notification::{NotifHandler, NotificationId, NotificationTable};
use mobivine_webview::webview::JsInterfaceHandle;
use mobivine_webview::wire::{NodeId, WireBuf, WireValue};
use mobivine_webview::{JsValue, WebView};

use crate::api::{CallProxy, HttpProxy, LocationProxy, ProxyBase, SmsProxy};
use crate::error::{ProxyError, ProxyErrorKind};
use crate::property::{PropertyBag, PropertyValue};
use crate::types::{
    CallProgress, DeliveryListener, DeliveryOutcome, HttpResult, Location, SharedProximityListener,
};
use crate::webview::wrappers::{interface_names, proximity_event_from_js};

/// A retired key: it once folded the location proxy's multi-read into
/// one batched crossing. Bridge batching saved crossings but no time,
/// so it is gone; the WebView location proxy still accepts a boolean
/// under this key and ignores it, because the wall-clock benchmark
/// sets it. Delete it with the benchmark's next change.
pub const BATCH_PROPERTY: &str = "bridge.batch";

fn property_value_to_js_string(value: &PropertyValue) -> Result<String, ProxyError> {
    match value {
        PropertyValue::Str(s) => Ok(s.clone()),
        PropertyValue::Int(i) => Ok(i.to_string()),
        PropertyValue::Bool(b) => Ok(b.to_string()),
        PropertyValue::Opaque(_) => Err(ProxyError::new(
            ProxyErrorKind::BadPropertyValue,
            "opaque platform objects cannot cross the JavaScript bridge",
        )),
    }
}

fn wrapper_handle(webview: &WebView, name: &str) -> Result<JsInterfaceHandle, ProxyError> {
    webview.js_interface(name).ok_or_else(|| {
        ProxyError::new(
            ProxyErrorKind::Unavailable,
            format!("wrapper {name} is not injected — call install_wrappers first"),
        )
    })
}

/// Encodes an argument array of strings.
fn str_args(buf: &mut WireBuf, items: &[&str]) -> NodeId {
    let mark = buf.begin();
    for item in items {
        let node = buf.push_str(item);
        buf.stage_item(node);
    }
    buf.end_array(mark)
}

/// Encodes an argument array of numbers.
fn number_args(buf: &mut WireBuf, items: &[f64]) -> NodeId {
    let mark = buf.begin();
    for &item in items {
        let node = buf.push_number(item);
        buf.stage_item(node);
    }
    buf.end_array(mark)
}

/// The error for a wrapper reply that lacks `field` or holds the wrong
/// type there: the proxy fails closed rather than invent a value.
fn malformed(method: &str, field: &str) -> ProxyError {
    ProxyError::new(
        ProxyErrorKind::Unavailable,
        format!("wrapper reply to {method} has no valid {field}"),
    )
}

/// The numeric `field` of an object reply.
fn reply_number(reply: WireValue<'_>, method: &str, field: &str) -> Result<f64, ProxyError> {
    reply
        .get(field)
        .and_then(|v| v.as_number())
        .ok_or_else(|| malformed(method, field))
}

/// A scalar numeric reply, named `field` in the error.
fn scalar_number(reply: WireValue<'_>, method: &str, field: &str) -> Result<f64, ProxyError> {
    reply.as_number().ok_or_else(|| malformed(method, field))
}

/// Decodes a `getLocation` reply into the common [`Location`]; every
/// field must be present and numeric.
fn location_from_wire(reply: WireValue<'_>) -> Result<Location, ProxyError> {
    let num = |field| reply_number(reply, "getLocation", field);
    Ok(Location {
        latitude: num("latitude")?,
        longitude: num("longitude")?,
        altitude: num("altitude")?,
        accuracy_m: num("accuracy")?,
        timestamp_ms: num("time")? as u64,
        speed_mps: num("speed")?,
        course_deg: num("bearing")?,
    })
}

/// Shared plumbing for the JS proxies: the wrapper handle plus the
/// page's notification infrastructure.
pub(crate) struct JsProxyCore {
    handle: JsInterfaceHandle,
    table: Arc<NotificationTable>,
    device: Device,
    pub(crate) properties: PropertyBag,
}

impl JsProxyCore {
    /// `name` is the wrapper's JavaScript name, `interface` the
    /// descriptor name in the standard catalog.
    fn new(webview: &WebView, name: &str, interface: &str) -> Result<Self, ProxyError> {
        Ok(Self {
            handle: wrapper_handle(webview, name)?,
            table: Arc::clone(webview.notifications()),
            device: webview.context().device().clone(),
            properties: PropertyBag::standard(interface, &PlatformId::AndroidWebView),
        })
    }

    /// The two marshallable pieces of ambient call context: the trace
    /// context rendered into a fixed stack buffer (no heap) and the
    /// deadline's remaining budget as a plain integer.
    fn marshalled_context(&self) -> (Option<TraceparentBuf>, Option<u64>) {
        let traceparent = ambient::current().as_ref().map(TraceparentBuf::render);
        let deadline_budget_ms = crate::overload::current_deadline()
            .map(|deadline| deadline.remaining_ms(self.device.now_ms()));
        (traceparent, deadline_budget_ms)
    }

    /// Crosses the bridge — the one way a proxy reaches its wrapper.
    /// `encode` writes the argument array into the handle's scratch
    /// arena and `decode` reads the reply view. The ambient trace
    /// context crosses as a `traceparent` string (so the Java-side
    /// wrapper can parent its Bridge-plane span off the JavaScript
    /// caller's span) and the ambient deadline as its remaining budget
    /// (the ambient stack itself cannot cross the marshalling
    /// boundary, so the wrapper re-opens the budget natively).
    fn invoke<T>(
        &self,
        method: &str,
        encode: impl FnOnce(&mut WireBuf) -> NodeId,
        decode: impl FnOnce(WireValue<'_>) -> Result<T, ProxyError>,
    ) -> Result<T, ProxyError> {
        let (traceparent, deadline_budget_ms) = self.marshalled_context();
        self.handle.invoke_wire(
            method,
            traceparent.as_ref().map(TraceparentBuf::as_str),
            deadline_budget_ms,
            encode,
            |reply| Ok(decode(reply)),
        )?
    }

    fn set_property(&self, key: &str, value: PropertyValue) -> Result<(), ProxyError> {
        // Validate locally against the WebView binding plane, then
        // forward over the bridge (the wrapper re-validates against the
        // Android plane where applicable).
        self.properties.set(key, value.clone())?;
        let rendered = property_value_to_js_string(&value)?;
        // Properties the Android side does not declare (e.g.
        // pollInterval) stay JavaScript-local.
        let _ = self.invoke(
            "setProperty",
            |buf| str_args(buf, &[key, &rendered]),
            |_| Ok(()),
        );
        Ok(())
    }

    fn poll_interval_ms(&self) -> u64 {
        self.properties
            .get_int("pollInterval")
            .map(|v| v.max(1) as u64)
            .unwrap_or(200)
    }

    fn start_handler<F>(&self, notif_id: NotificationId, callback: F) -> Arc<NotifHandler>
    where
        F: Fn(JsValue) + Send + Sync + 'static,
    {
        let handler = Arc::new(
            NotifHandler::new(self.device.clone(), Arc::clone(&self.table), notif_id)
                .with_interval_ms(self.poll_interval_ms()),
        );
        handler.start_polling(callback);
        handler
    }
}

/// Bookkeeping for one registered alert: the raw notification id, its
/// polling handler, and the listener (kept alive for identity-based
/// removal).
type AlertRegistration = (u64, Arc<NotifHandler>, SharedProximityListener);

/// The JavaScript `LocationProxyImpl` (paper Fig. 9).
pub struct WebViewLocationProxy {
    core: JsProxyCore,
    registrations: Mutex<HashMap<usize, AlertRegistration>>,
}

impl WebViewLocationProxy {
    /// Constructs the JS proxy over an installed `LocationWrapper`.
    ///
    /// # Errors
    ///
    /// Returns `Unavailable` if [`crate::webview::install_wrappers`] has
    /// not run on this page.
    pub fn new(webview: &WebView) -> Result<Self, ProxyError> {
        Ok(Self {
            core: JsProxyCore::new(webview, interface_names::LOCATION, "Location")?,
            registrations: Mutex::new(HashMap::new()),
        })
    }
}

impl ProxyBase for WebViewLocationProxy {
    fn set_property(&self, key: &str, value: PropertyValue) -> Result<(), ProxyError> {
        // The retired batch toggle: accepted, ignored, never crossing.
        if key == BATCH_PROPERTY {
            return match value {
                PropertyValue::Bool(_) => Ok(()),
                _ => Err(ProxyError::new(
                    ProxyErrorKind::BadPropertyValue,
                    format!("{BATCH_PROPERTY} takes a boolean"),
                )),
            };
        }
        self.core.set_property(key, value)
    }
}

impl LocationProxy for WebViewLocationProxy {
    fn add_proximity_alert(
        &self,
        latitude: f64,
        longitude: f64,
        altitude: f64,
        radius: f64,
        timer_s: i64,
        listener: SharedProximityListener,
    ) -> Result<(), ProxyError> {
        let raw = self.core.invoke(
            "addProximityAlert",
            |buf| {
                number_args(
                    buf,
                    &[latitude, longitude, altitude, radius, timer_s as f64],
                )
            },
            |reply| scalar_number(reply, "addProximityAlert", "alertId"),
        )? as u64;
        let notif_id = NotificationId::from_raw(raw).ok_or_else(|| {
            ProxyError::new(ProxyErrorKind::Unavailable, "wrapper returned bad alert id")
        })?;
        let js_listener = Arc::clone(&listener);
        let handler = self.core.start_handler(notif_id, move |value| {
            js_listener.proximity_event(&proximity_event_from_js(&value));
        });
        let key = Arc::as_ptr(&listener) as *const () as usize;
        self.registrations
            .lock()
            .insert(key, (raw, handler, listener));
        Ok(())
    }

    fn remove_proximity_alert(
        &self,
        listener: &SharedProximityListener,
    ) -> Result<bool, ProxyError> {
        let key = Arc::as_ptr(listener) as *const () as usize;
        let entry = self.registrations.lock().remove(&key);
        match entry {
            Some((raw, handler, _listener)) => {
                handler.stop_polling();
                let removed = self.core.invoke(
                    "removeProximityAlert",
                    |buf| number_args(buf, &[raw as f64]),
                    |reply| {
                        reply
                            .as_bool()
                            .ok_or_else(|| malformed("removeProximityAlert", "removed"))
                    },
                )?;
                if let Some(id) = NotificationId::from_raw(raw) {
                    self.core.table.close(id);
                }
                Ok(removed)
            }
            None => Ok(false),
        }
    }

    fn get_location(&self) -> Result<Location, ProxyError> {
        self.core
            .invoke("getLocation", WireBuf::empty_args, location_from_wire)
    }

    fn get_location_with_power(&self) -> Result<(Location, f64), ProxyError> {
        let location = self.get_location()?;
        let power = self
            .core
            .invoke("getPowerDrawn", WireBuf::empty_args, |reply| {
                scalar_number(reply, "getPowerDrawn", "power")
            })?;
        Ok((location, power))
    }
}

/// The JavaScript `SmsProxy` of Fig. 6.
pub struct WebViewSmsProxy {
    core: JsProxyCore,
    handlers: Mutex<Vec<Arc<NotifHandler>>>,
}

impl WebViewSmsProxy {
    /// Constructs the JS proxy over an installed `SmsWrapper`.
    ///
    /// # Errors
    ///
    /// Returns `Unavailable` if wrappers are not installed.
    pub fn new(webview: &WebView) -> Result<Self, ProxyError> {
        Ok(Self {
            core: JsProxyCore::new(webview, interface_names::SMS, "SMS")?,
            handlers: Mutex::new(Vec::new()),
        })
    }
}

impl ProxyBase for WebViewSmsProxy {
    fn set_property(&self, key: &str, value: PropertyValue) -> Result<(), ProxyError> {
        self.core.set_property(key, value)
    }
}

impl SmsProxy for WebViewSmsProxy {
    fn send_text_message(
        &self,
        destination: &str,
        text: &str,
        delivery_listener: Option<Arc<dyn DeliveryListener>>,
    ) -> Result<u64, ProxyError> {
        // Prune handlers whose one-shot report already arrived.
        self.handlers.lock().retain(|h| h.is_polling());
        let want_report = delivery_listener.is_some();
        let (message_id, notif_raw) = self.core.invoke(
            "sendTextMessage",
            |buf| {
                let mark = buf.begin();
                let node = buf.push_str(destination);
                buf.stage_item(node);
                let node = buf.push_str(text);
                buf.stage_item(node);
                let node = buf.push_bool(want_report);
                buf.stage_item(node);
                buf.end_array(mark)
            },
            |reply| {
                let message_id = reply_number(reply, "sendTextMessage", "messageId")? as u64;
                // A report was asked for, so its notification id must
                // have come back.
                let notif_raw = want_report
                    .then(|| reply_number(reply, "sendTextMessage", "notifId"))
                    .transpose()?;
                Ok((message_id, notif_raw))
            },
        )?;
        if let (Some(listener), Some(raw)) = (delivery_listener, notif_raw) {
            if let Some(notif_id) = NotificationId::from_raw(raw as u64) {
                let table = Arc::clone(&self.core.table);
                // The delivery report arrives exactly once; the handler
                // stops itself (via the weak back-reference) so one-shot
                // reports do not leave poll events behind.
                let self_stop: Arc<Mutex<Option<std::sync::Weak<NotifHandler>>>> =
                    Arc::new(Mutex::new(None));
                let self_stop_in_callback = Arc::clone(&self_stop);
                let handler = self.core.start_handler(notif_id, move |value| {
                    let id = value
                        .get_ref("messageId")
                        .and_then(JsValue::as_number)
                        .unwrap_or(0.0) as u64;
                    let delivered = value
                        .get_ref("delivered")
                        .and_then(JsValue::as_bool)
                        .unwrap_or(false);
                    let outcome = if delivered {
                        DeliveryOutcome::Delivered
                    } else {
                        DeliveryOutcome::Failed
                    };
                    listener.delivery_event(id, outcome);
                    table.close(notif_id);
                    if let Some(handler) = self_stop_in_callback
                        .lock()
                        .as_ref()
                        .and_then(std::sync::Weak::upgrade)
                    {
                        handler.stop_polling();
                    }
                });
                *self_stop.lock() = Some(Arc::downgrade(&handler));
                self.handlers.lock().push(handler);
            }
        }
        Ok(message_id)
    }
}

/// The JavaScript `CallProxyImpl`.
pub struct WebViewCallProxy {
    core: JsProxyCore,
}

impl WebViewCallProxy {
    /// Constructs the JS proxy over an installed `CallWrapper`.
    ///
    /// # Errors
    ///
    /// Returns `Unavailable` if wrappers are not installed.
    pub fn new(webview: &WebView) -> Result<Self, ProxyError> {
        Ok(Self {
            core: JsProxyCore::new(webview, interface_names::CALL, "Call")?,
        })
    }
}

impl ProxyBase for WebViewCallProxy {
    fn set_property(&self, key: &str, value: PropertyValue) -> Result<(), ProxyError> {
        self.core.set_property(key, value)
    }
}

impl CallProxy for WebViewCallProxy {
    fn make_a_call(&self, number: &str) -> Result<u64, ProxyError> {
        let id = self.core.invoke(
            "makeACall",
            |buf| str_args(buf, &[number]),
            |reply| scalar_number(reply, "makeACall", "callId"),
        )?;
        Ok(id as u64)
    }

    fn call_progress(&self, call_id: u64) -> Result<CallProgress, ProxyError> {
        self.core.invoke(
            "callProgress",
            |buf| number_args(buf, &[call_id as f64]),
            |reply| match reply.as_str() {
                Some("connecting") => Ok(CallProgress::Connecting),
                Some("connected") => Ok(CallProgress::Connected),
                Some("ended") => Ok(CallProgress::Ended),
                _ => Err(malformed("callProgress", "progress")),
            },
        )
    }

    fn end_call(&self, call_id: u64) -> Result<(), ProxyError> {
        self.core.invoke(
            "endCall",
            |buf| number_args(buf, &[call_id as f64]),
            |reply| match reply.type_of() {
                "undefined" => Ok(()),
                _ => Err(malformed("endCall", "undefined result")),
            },
        )
    }
}

/// The JavaScript `HttpProxyImpl`.
pub struct WebViewHttpProxy {
    pub(crate) core: JsProxyCore,
}

impl WebViewHttpProxy {
    /// Constructs the JS proxy over an installed `HttpWrapper`.
    ///
    /// # Errors
    ///
    /// Returns `Unavailable` if wrappers are not installed.
    pub fn new(webview: &WebView) -> Result<Self, ProxyError> {
        Ok(Self {
            core: JsProxyCore::new(webview, interface_names::HTTP, "Http")?,
        })
    }
}

impl ProxyBase for WebViewHttpProxy {
    fn set_property(&self, key: &str, value: PropertyValue) -> Result<(), ProxyError> {
        self.core.set_property(key, value)
    }
}

impl HttpProxy for WebViewHttpProxy {
    fn request(&self, method: &str, url: &str, body: &[u8]) -> Result<HttpResult, ProxyError> {
        let body = String::from_utf8_lossy(body);
        self.core.invoke(
            "request",
            |buf| str_args(buf, &[method, url, &body]),
            |reply| {
                let status = reply_number(reply, "request", "status")? as u16;
                let body = reply
                    .get("body")
                    .and_then(|v| v.as_str())
                    .ok_or_else(|| malformed("request", "body"))?;
                Ok(HttpResult {
                    status,
                    headers: Vec::new(),
                    body: body.as_bytes().to_vec(),
                })
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::ProximityEvent;
    use crate::webview::install_wrappers;
    use mobivine_android::{AndroidPlatform, SdkVersion};
    use mobivine_device::movement::MovementModel;
    use mobivine_device::net::{HttpResponse, Method};
    use mobivine_device::{Device, GeoPoint};
    use mobivine_webview::bridge::{BridgeError, JavaScriptInterface};
    use std::sync::Mutex as StdMutex;

    const HOME: GeoPoint = GeoPoint {
        latitude: 28.5355,
        longitude: 77.3910,
        altitude: 0.0,
    };

    fn page(device: Device) -> (AndroidPlatform, WebView) {
        let platform = AndroidPlatform::new(device, SdkVersion::M5Rc15);
        let webview = WebView::new(platform.new_context());
        install_wrappers(&webview);
        (platform, webview)
    }

    fn moving_device() -> Device {
        let start = HOME.destination(270.0, 500.0);
        let device = Device::builder()
            .position(start)
            .movement(MovementModel::linear(start, 90.0, 10.0))
            .msisdn("+91-me")
            .build();
        device.gps().set_noise_enabled(false);
        device
    }

    #[test]
    fn proximity_alerts_flow_through_notification_polling() {
        let (platform, webview) = page(moving_device());
        let proxy = WebViewLocationProxy::new(&webview).unwrap();
        let events = Arc::new(StdMutex::new(Vec::new()));
        let sink = Arc::clone(&events);
        let listener: SharedProximityListener = Arc::new(move |e: &ProximityEvent| {
            sink.lock().unwrap().push(e.entering);
        });
        proxy
            .add_proximity_alert(HOME.latitude, HOME.longitude, 0.0, 100.0, -1, listener)
            .unwrap();
        platform.device().advance_ms(120_000);
        assert_eq!(events.lock().unwrap().as_slice(), &[true, false]);
    }

    #[test]
    fn remove_proximity_alert_stops_polling() {
        let (platform, webview) = page(moving_device());
        let proxy = WebViewLocationProxy::new(&webview).unwrap();
        let events = Arc::new(StdMutex::new(Vec::new()));
        let sink = Arc::clone(&events);
        let listener: SharedProximityListener = Arc::new(move |e: &ProximityEvent| {
            sink.lock().unwrap().push(e.entering);
        });
        proxy
            .add_proximity_alert(
                HOME.latitude,
                HOME.longitude,
                0.0,
                100.0,
                -1,
                Arc::clone(&listener),
            )
            .unwrap();
        assert!(proxy.remove_proximity_alert(&listener).unwrap());
        assert!(!proxy.remove_proximity_alert(&listener).unwrap());
        platform.device().advance_ms(120_000);
        assert!(events.lock().unwrap().is_empty());
    }

    #[test]
    fn get_location_via_bridge() {
        let device = Device::builder().position(HOME).build();
        device.gps().set_noise_enabled(false);
        let (_platform, webview) = page(device);
        let proxy = WebViewLocationProxy::new(&webview).unwrap();
        let loc = proxy.get_location().unwrap();
        assert!((loc.latitude - HOME.latitude).abs() < 1e-9);
    }

    #[test]
    fn sms_delivery_report_via_polling() {
        let device = Device::builder().msisdn("+91-me").build();
        device.smsc().register_address("+91-sup");
        let (platform, webview) = page(device);
        let proxy = WebViewSmsProxy::new(&webview).unwrap();
        let outcomes = Arc::new(StdMutex::new(Vec::new()));
        let sink = Arc::clone(&outcomes);
        let id = proxy
            .send_text_message(
                "+91-sup",
                "hello",
                Some(Arc::new(move |_id: u64, o: DeliveryOutcome| {
                    sink.lock().unwrap().push(o);
                })),
            )
            .unwrap();
        assert!(id > 0);
        platform.device().advance_ms(2_000);
        assert_eq!(
            outcomes.lock().unwrap().as_slice(),
            &[DeliveryOutcome::Delivered]
        );
    }

    #[test]
    fn sms_report_handler_stops_after_the_one_shot_report() {
        let device = Device::builder().msisdn("+91-me").build();
        device.smsc().register_address("+91-sup");
        let (platform, webview) = page(device);
        let proxy = WebViewSmsProxy::new(&webview).unwrap();
        let outcomes = Arc::new(StdMutex::new(Vec::new()));
        let sink = Arc::clone(&outcomes);
        proxy
            .send_text_message(
                "+91-sup",
                "once",
                Some(Arc::new(move |_id: u64, o: DeliveryOutcome| {
                    sink.lock().unwrap().push(o);
                })),
            )
            .unwrap();
        platform.device().advance_ms(2_000);
        assert_eq!(outcomes.lock().unwrap().len(), 1);
        // The polling handler stopped itself after the report, so the
        // event queue drains completely.
        platform.device().advance_ms(2_000);
        assert_eq!(platform.device().events().pending(), 0);
        // Subsequent sends prune the finished handler.
        proxy.send_text_message("+91-sup", "again", None).unwrap();
        assert!(proxy.handlers.lock().is_empty());
    }

    #[test]
    fn sms_without_listener_skips_polling() {
        let device = Device::builder().msisdn("+91-me").build();
        device.smsc().register_address("+91-sup");
        let (platform, webview) = page(device);
        let proxy = WebViewSmsProxy::new(&webview).unwrap();
        proxy.send_text_message("+91-sup", "quiet", None).unwrap();
        platform.device().advance_ms(2_000);
        assert!(proxy.handlers.lock().is_empty());
    }

    #[test]
    fn call_proxy_via_bridge() {
        let (platform, webview) = page(Device::builder().build());
        let proxy = WebViewCallProxy::new(&webview).unwrap();
        let id = proxy.make_a_call("+91-sup").unwrap();
        assert_eq!(proxy.call_progress(id).unwrap(), CallProgress::Connecting);
        platform.device().advance_ms(10_000);
        assert_eq!(proxy.call_progress(id).unwrap(), CallProgress::Connected);
        proxy.end_call(id).unwrap();
        assert_eq!(proxy.call_progress(id).unwrap(), CallProgress::Ended);
    }

    #[test]
    fn http_proxy_via_bridge() {
        let device = Device::builder().build();
        device
            .network()
            .register_route("wfm.example", Method::Get, "/ping", |_| {
                HttpResponse::ok("pong")
            });
        let (_platform, webview) = page(device);
        let proxy = WebViewHttpProxy::new(&webview).unwrap();
        let out = proxy
            .request("GET", "http://wfm.example/ping", &[])
            .unwrap();
        assert!(out.is_success());
        assert_eq!(out.body_text(), "pong");
    }

    #[test]
    fn errors_cross_back_as_uniform_proxy_errors() {
        let (_platform, webview) = page(Device::builder().build());
        let proxy = WebViewHttpProxy::new(&webview).unwrap();
        let err = proxy.request("GET", "http://ghost/", &[]).unwrap_err();
        assert_eq!(err.kind(), ProxyErrorKind::Io);
    }

    /// A wrapper that answers every method with one fixed value.
    struct Rogue(JsValue);

    impl JavaScriptInterface for Rogue {
        fn call(&self, _method: &str, _args: &[JsValue]) -> Result<JsValue, BridgeError> {
            Ok(self.0.clone())
        }
    }

    #[test]
    fn malformed_replies_fail_closed() {
        let no_latitude = JsValue::object(
            [
                "longitude",
                "altitude",
                "accuracy",
                "time",
                "speed",
                "bearing",
            ]
            .map(|field| (field, JsValue::Number(1.0))),
        );
        for reply in [JsValue::str("nope"), no_latitude] {
            let platform = AndroidPlatform::new(Device::builder().build(), SdkVersion::M5Rc15);
            let webview = WebView::new(platform.new_context());
            for name in [
                interface_names::LOCATION,
                interface_names::SMS,
                interface_names::CALL,
                interface_names::HTTP,
            ] {
                webview.add_javascript_interface(Arc::new(Rogue(reply.clone())), name);
            }
            let location = WebViewLocationProxy::new(&webview).unwrap();
            let sms = WebViewSmsProxy::new(&webview).unwrap();
            let call = WebViewCallProxy::new(&webview).unwrap();
            let http = WebViewHttpProxy::new(&webview).unwrap();
            let listener: SharedProximityListener = Arc::new(|_: &ProximityEvent| {});
            let report: Arc<dyn DeliveryListener> = Arc::new(|_: u64, _: DeliveryOutcome| {});
            // `removeProximityAlert` is absent: with no alert ever
            // registered it answers without crossing the bridge.
            let outcomes = [
                ("getLocation", location.get_location().map(drop)),
                (
                    "getLocationWithPower",
                    location.get_location_with_power().map(drop),
                ),
                (
                    "addProximityAlert",
                    location.add_proximity_alert(0.0, 0.0, 0.0, 100.0, -1, listener),
                ),
                (
                    "sendTextMessage",
                    sms.send_text_message("+91-sup", "hi", None).map(drop),
                ),
                (
                    "sendTextMessage with a report",
                    sms.send_text_message("+91-sup", "hi", Some(report))
                        .map(drop),
                ),
                ("makeACall", call.make_a_call("+91-sup").map(drop)),
                ("callProgress", call.call_progress(1).map(drop)),
                ("endCall", call.end_call(1)),
                ("request", http.request("GET", "http://x/", &[]).map(drop)),
            ];
            for (method, outcome) in outcomes {
                let err = outcome.expect_err(method);
                assert_eq!(err.kind(), ProxyErrorKind::Unavailable, "{method}: {err}");
            }
        }
    }

    #[test]
    fn missing_wrappers_detected() {
        let platform = AndroidPlatform::new(Device::builder().build(), SdkVersion::M5Rc15);
        let bare = WebView::new(platform.new_context());
        assert!(WebViewLocationProxy::new(&bare).is_err());
    }

    #[test]
    fn opaque_property_rejected_on_webview() {
        let (_platform, webview) = page(Device::builder().build());
        let proxy = WebViewLocationProxy::new(&webview).unwrap();
        let err = proxy
            .set_property("provider", PropertyValue::opaque(1u8))
            .unwrap_err();
        assert_eq!(err.kind(), ProxyErrorKind::BadPropertyValue);
    }

    #[test]
    fn poll_interval_property_honoured() {
        let (platform, webview) = page(moving_device());
        let proxy = WebViewLocationProxy::new(&webview).unwrap();
        proxy
            .set_property("pollInterval", PropertyValue::Int(5_000))
            .unwrap();
        let events = Arc::new(StdMutex::new(Vec::new()));
        let sink = Arc::clone(&events);
        let listener: SharedProximityListener = Arc::new(move |e: &ProximityEvent| {
            sink.lock().unwrap().push(e.entering);
        });
        proxy
            .add_proximity_alert(HOME.latitude, HOME.longitude, 0.0, 100.0, -1, listener)
            .unwrap();
        // Entry happens ~40 s in; with 5 s polling the event still
        // arrives, just coarser.
        platform.device().advance_ms(120_000);
        assert_eq!(events.lock().unwrap().len(), 2);
    }
}
