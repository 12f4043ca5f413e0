//! Per-platform measurement fixtures.
//!
//! A fixture owns a freshly built device (with the requested latency
//! calibration) plus everything needed to invoke one API natively and
//! through its proxy. Each invocation pair is constructed the way the
//! paper's measurement harness would have: the *without proxy* path
//! calls the platform middleware directly; the *with proxy* path goes
//! through the MobiVine binding.

use std::sync::Arc;

use mobivine::api::{LocationProxy, SmsProxy};
use mobivine::registry::Mobivine;
use mobivine::resilience::ResiliencePolicy;
use mobivine::types::{ProximityEvent, SharedProximityListener};
use mobivine_android::context::Context;
use mobivine_android::intent::Intent;
use mobivine_android::{AndroidPlatform, SdkVersion};
use mobivine_device::latency::LatencyModel;
use mobivine_device::{Device, GeoPoint};
use mobivine_s60::location::{Coordinates, Criteria, LocationProvider};
use mobivine_s60::messaging::{MessageConnection, MessageType};
use mobivine_s60::S60Platform;
use mobivine_webview::bridge::{args, BridgeError, JavaScriptInterface};
use mobivine_webview::{JsValue, WebView};

/// Fixture position (outside any alert radius so registrations do not
/// generate event traffic during timing).
pub const FIXTURE_POSITION: GeoPoint = GeoPoint {
    latitude: 28.5355,
    longitude: 77.3910,
    altitude: 0.0,
};

/// Remote region used for proximity registrations (never entered).
pub const FAR_REGION: (f64, f64) = (28.7, 77.6);

/// SMS destination registered on every fixture.
pub const SMS_DESTINATION: &str = "+91-98-SUPERVISOR";

fn device_with(latency: LatencyModel) -> Device {
    let device = Device::builder()
        .msisdn("+91-98-AGENT-7")
        .position(FIXTURE_POSITION)
        .latency(latency)
        .build();
    device.smsc().register_address(SMS_DESTINATION);
    device
}

fn noop_listener() -> SharedProximityListener {
    Arc::new(|_event: &ProximityEvent| {})
}

/// Android fixture: native middleware handles and proxy handles over
/// one device.
pub struct AndroidFixture {
    /// The simulated handset.
    pub device: Device,
    ctx: Context,
    location_proxy: Arc<dyn LocationProxy>,
    sms_proxy: Arc<dyn SmsProxy>,
    resilient_location_proxy: Arc<dyn LocationProxy>,
}

impl AndroidFixture {
    /// Builds the fixture with the given latency calibration.
    pub fn new(latency: LatencyModel) -> Self {
        let device = device_with(latency);
        let platform = AndroidPlatform::new(device.clone(), SdkVersion::M5Rc15);
        let ctx = platform.new_context();
        let runtime = Mobivine::for_android(ctx.clone());
        let resilient = Mobivine::builder()
            .with_resilience(ResiliencePolicy::default())
            .android(ctx.clone())
            .build()
            .expect("fixture runtime");
        Self {
            device,
            ctx,
            location_proxy: runtime
                .proxy::<dyn LocationProxy>()
                .expect("android location proxy"),
            sms_proxy: runtime.proxy::<dyn SmsProxy>().expect("android sms proxy"),
            resilient_location_proxy: resilient
                .proxy::<dyn LocationProxy>()
                .expect("android resilient location proxy"),
        }
    }

    /// Native `addProximityAlert` (Fig. 2(a) path).
    pub fn native_add_proximity_alert(&self) {
        let registration = self
            .ctx
            .location_manager()
            .add_proximity_alert(FAR_REGION.0, FAR_REGION.1, 100.0, -1, Intent::new("BENCH"))
            .expect("native registration succeeds");
        self.ctx
            .location_manager()
            .remove_proximity_alert(&Intent::new("BENCH"));
        drop(registration);
    }

    /// Native `getCurrentLocation`.
    pub fn native_get_location(&self) {
        self.ctx
            .location_manager()
            .get_current_location("gps")
            .expect("fixture gps is available");
    }

    /// Native `sendTextMessage`.
    pub fn native_send_sms(&self) {
        self.ctx
            .sms_manager()
            .send_text_message(SMS_DESTINATION, None, "bench", None)
            .expect("fixture sms succeeds");
    }

    /// Proxy `addProximityAlert` (Fig. 8(a) path).
    pub fn proxy_add_proximity_alert(&self) {
        let listener = noop_listener();
        self.location_proxy
            .add_proximity_alert(
                FAR_REGION.0,
                FAR_REGION.1,
                0.0,
                100.0,
                -1,
                Arc::clone(&listener),
            )
            .expect("proxy registration succeeds");
        self.location_proxy
            .remove_proximity_alert(&listener)
            .expect("proxy removal succeeds");
    }

    /// Proxy `getLocation`.
    pub fn proxy_get_location(&self) {
        self.location_proxy
            .get_location()
            .expect("proxy location succeeds");
    }

    /// Proxy `sendTextMessage`.
    pub fn proxy_send_sms(&self) {
        self.sms_proxy
            .send_text_message(SMS_DESTINATION, "bench", None)
            .expect("proxy sms succeeds");
    }

    /// Proxy `getLocation` through the resilience layer (happy path —
    /// no faults, so this prices the retry/circuit bookkeeping alone).
    pub fn resilient_get_location(&self) {
        self.resilient_location_proxy
            .get_location()
            .expect("resilient location succeeds");
    }
}

/// S60 fixture.
pub struct S60Fixture {
    /// The simulated handset.
    pub device: Device,
    platform: S60Platform,
    provider: LocationProvider,
    location_proxy: Arc<dyn LocationProxy>,
    sms_proxy: Arc<dyn SmsProxy>,
    resilient_location_proxy: Arc<dyn LocationProxy>,
}

impl S60Fixture {
    /// Builds the fixture with the given latency calibration.
    pub fn new(latency: LatencyModel) -> Self {
        let device = device_with(latency);
        let platform = S60Platform::new(device.clone());
        let provider =
            LocationProvider::get_instance(&platform, Criteria::new()).expect("fixture provider");
        let runtime = Mobivine::for_s60(platform.clone());
        let resilient = Mobivine::builder()
            .with_resilience(ResiliencePolicy::default())
            .s60(platform.clone())
            .build()
            .expect("fixture runtime");
        Self {
            device,
            platform,
            provider,
            location_proxy: runtime
                .proxy::<dyn LocationProxy>()
                .expect("s60 location proxy"),
            sms_proxy: runtime.proxy::<dyn SmsProxy>().expect("s60 sms proxy"),
            resilient_location_proxy: resilient
                .proxy::<dyn LocationProxy>()
                .expect("s60 resilient location proxy"),
        }
    }

    /// Native `addProximityListener` (Fig. 2(b) path).
    pub fn native_add_proximity_alert(&self) {
        struct Noop;
        impl mobivine_s60::location::ProximityListener for Noop {
            fn proximity_event(&self, _c: &Coordinates, _l: &mobivine_s60::location::Location) {}
        }
        let listener: Arc<dyn mobivine_s60::location::ProximityListener> = Arc::new(Noop);
        LocationProvider::add_proximity_listener(
            &self.platform,
            Arc::clone(&listener),
            Coordinates::new(FAR_REGION.0, FAR_REGION.1, 0.0),
            100.0,
        )
        .expect("native registration succeeds");
        LocationProvider::remove_proximity_listener(&self.platform, &listener);
    }

    /// Native `getLocation`.
    pub fn native_get_location(&self) {
        self.provider
            .get_location(-1)
            .expect("fixture gps is available");
    }

    /// Native JSR-120 send.
    pub fn native_send_sms(&self) {
        let connection =
            MessageConnection::open_client(&self.platform, &format!("sms://{SMS_DESTINATION}"))
                .expect("fixture connection");
        let mut message = connection.new_message(MessageType::Text);
        message.set_payload_text("bench");
        connection.send(&message).expect("fixture send succeeds");
    }

    /// Proxy `addProximityAlert`.
    pub fn proxy_add_proximity_alert(&self) {
        let listener = noop_listener();
        self.location_proxy
            .add_proximity_alert(
                FAR_REGION.0,
                FAR_REGION.1,
                0.0,
                100.0,
                -1,
                Arc::clone(&listener),
            )
            .expect("proxy registration succeeds");
        self.location_proxy
            .remove_proximity_alert(&listener)
            .expect("proxy removal succeeds");
    }

    /// Proxy `getLocation`.
    pub fn proxy_get_location(&self) {
        self.location_proxy
            .get_location()
            .expect("proxy location succeeds");
    }

    /// Proxy `sendTextMessage`.
    pub fn proxy_send_sms(&self) {
        self.sms_proxy
            .send_text_message(SMS_DESTINATION, "bench", None)
            .expect("proxy sms succeeds");
    }

    /// Proxy `getLocation` through the resilience layer (happy path).
    pub fn resilient_get_location(&self) {
        self.resilient_location_proxy
            .get_location()
            .expect("resilient location succeeds");
    }
}

/// A minimal hand-rolled bridge, the "without proxy" WebView baseline:
/// what an application calling `addJavaScriptInterface` directly pays.
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
            "addProximityAlert" => {
                let latitude = args::number(call_args, 0)?;
                let longitude = args::number(call_args, 1)?;
                let radius = args::number(call_args, 2)?;
                self.ctx
                    .location_manager()
                    .add_proximity_alert(
                        latitude,
                        longitude,
                        radius as f32,
                        -1,
                        Intent::new("RAW-BENCH"),
                    )
                    .map_err(|e| BridgeError::bridge(e.to_string()))?;
                self.ctx
                    .location_manager()
                    .remove_proximity_alert(&Intent::new("RAW-BENCH"));
                Ok(JsValue::Bool(true))
            }
            other => Err(BridgeError::bridge(format!("no method {other}"))),
        }
    }
}

/// WebView fixture.
pub struct WebViewFixture {
    /// The simulated handset.
    pub device: Device,
    webview: Arc<WebView>,
    location_proxy: Arc<dyn LocationProxy>,
    sms_proxy: Arc<dyn SmsProxy>,
    resilient_location_proxy: Arc<dyn LocationProxy>,
}

impl WebViewFixture {
    /// Builds the fixture with the given latency calibration.
    pub fn new(latency: LatencyModel) -> Self {
        let device = device_with(latency);
        let platform = AndroidPlatform::new(device.clone(), SdkVersion::M5Rc15);
        let webview = Arc::new(WebView::new(platform.new_context()));
        webview.add_javascript_interface(
            Arc::new(RawBridge {
                ctx: webview.context().clone(),
            }),
            "RawBridge",
        );
        let runtime = Mobivine::for_webview(Arc::clone(&webview));
        let resilient = Mobivine::builder()
            .with_resilience(ResiliencePolicy::default())
            .webview(Arc::clone(&webview))
            .build()
            .expect("fixture runtime");
        Self {
            device,
            webview: Arc::clone(&webview),
            location_proxy: runtime
                .proxy::<dyn LocationProxy>()
                .expect("webview location proxy"),
            sms_proxy: runtime.proxy::<dyn SmsProxy>().expect("webview sms proxy"),
            resilient_location_proxy: resilient
                .proxy::<dyn LocationProxy>()
                .expect("webview resilient location proxy"),
        }
    }

    fn raw(&self) -> mobivine_webview::webview::JsInterfaceHandle {
        self.webview
            .js_interface("RawBridge")
            .expect("raw bridge installed")
    }

    /// Native (hand-bridged) `addProximityAlert`.
    pub fn native_add_proximity_alert(&self) {
        self.raw()
            .invoke(
                "addProximityAlert",
                &[FAR_REGION.0.into(), FAR_REGION.1.into(), 100.0.into()],
            )
            .expect("raw registration succeeds");
    }

    /// Native (hand-bridged) `getLocation`.
    pub fn native_get_location(&self) {
        self.raw()
            .invoke("getLocation", &[])
            .expect("raw location succeeds");
    }

    /// Native (hand-bridged) SMS send.
    pub fn native_send_sms(&self) {
        self.raw()
            .invoke(
                "sendSms",
                &[JsValue::str(SMS_DESTINATION), JsValue::str("bench")],
            )
            .expect("raw sms succeeds");
    }

    /// Proxy `addProximityAlert` (Fig. 9 path).
    pub fn proxy_add_proximity_alert(&self) {
        let listener = noop_listener();
        self.location_proxy
            .add_proximity_alert(
                FAR_REGION.0,
                FAR_REGION.1,
                0.0,
                100.0,
                -1,
                Arc::clone(&listener),
            )
            .expect("proxy registration succeeds");
        self.location_proxy
            .remove_proximity_alert(&listener)
            .expect("proxy removal succeeds");
    }

    /// Proxy `getLocation`.
    pub fn proxy_get_location(&self) {
        self.location_proxy
            .get_location()
            .expect("proxy location succeeds");
    }

    /// Proxy `sendTextMessage`.
    pub fn proxy_send_sms(&self) {
        self.sms_proxy
            .send_text_message(SMS_DESTINATION, "bench", None)
            .expect("proxy sms succeeds");
    }

    /// Proxy `getLocation` through the resilience layer (happy path).
    pub fn resilient_get_location(&self) {
        self.resilient_location_proxy
            .get_location()
            .expect("resilient location succeeds");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn android_fixture_paths_all_run() {
        let fixture = AndroidFixture::new(LatencyModel::zero());
        fixture.native_add_proximity_alert();
        fixture.native_get_location();
        fixture.native_send_sms();
        fixture.proxy_add_proximity_alert();
        fixture.proxy_get_location();
        fixture.proxy_send_sms();
        fixture.resilient_get_location();
    }

    #[test]
    fn s60_fixture_paths_all_run() {
        let fixture = S60Fixture::new(LatencyModel::zero());
        fixture.native_add_proximity_alert();
        fixture.native_get_location();
        fixture.native_send_sms();
        fixture.proxy_add_proximity_alert();
        fixture.proxy_get_location();
        fixture.proxy_send_sms();
        fixture.resilient_get_location();
    }

    #[test]
    fn webview_fixture_paths_all_run() {
        let fixture = WebViewFixture::new(LatencyModel::zero());
        fixture.native_add_proximity_alert();
        fixture.native_get_location();
        fixture.native_send_sms();
        fixture.proxy_add_proximity_alert();
        fixture.proxy_get_location();
        fixture.proxy_send_sms();
        fixture.resilient_get_location();
    }
}
