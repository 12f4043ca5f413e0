//! Per-platform measurement fixtures.
//!
//! A fixture owns a freshly built device plus everything needed to
//! invoke one API natively and through its proxy. Each invocation pair
//! is constructed the way the paper's measurement harness would have:
//! the *without proxy* path calls the platform middleware directly; the
//! *with proxy* path goes through the MobiVine binding.

use std::sync::Arc;

use mobivine::api::{LocationProxy, SmsProxy};
use mobivine::registry::{Mobivine, MobivineBuilder};
use mobivine::resilience::ResiliencePolicy;
use mobivine::types::{ProximityEvent, SharedProximityListener};
use mobivine_android::context::Context;
use mobivine_android::intent::Intent;
use mobivine_android::{AndroidPlatform, SdkVersion};
use mobivine_device::{Device, GeoPoint};
use mobivine_s60::location::{Coordinates, Criteria, LocationProvider};
use mobivine_s60::messaging::{MessageConnection, MessageType};
use mobivine_s60::S60Platform;
use mobivine_webview::bridge::{args, BridgeError, JavaScriptInterface};
use mobivine_webview::webview::JsInterfaceHandle;
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

fn fixture_device() -> Device {
    let device = Device::builder()
        .msisdn("+91-98-AGENT-7")
        .position(FIXTURE_POSITION)
        .build();
    device.smsc().register_address(SMS_DESTINATION);
    device
}

/// The proxies a fixture times, over one platform binding: a runtime
/// with no layer, and one with the resilience layer alone.
pub struct Proxies {
    location: Arc<dyn LocationProxy>,
    sms: Arc<dyn SmsProxy>,
    resilient_location: Arc<dyn LocationProxy>,
}

impl Proxies {
    /// Builds both runtimes on the platform `select` picks.
    fn new(select: impl Fn(MobivineBuilder) -> MobivineBuilder) -> Self {
        let build = |builder| select(builder).build().expect("fixture runtime");
        let bare = build(Mobivine::builder());
        let resilient = build(Mobivine::builder().with_resilience(ResiliencePolicy::default()));
        Self {
            location: bare.proxy::<dyn LocationProxy>().expect("location proxy"),
            sms: bare.proxy::<dyn SmsProxy>().expect("sms proxy"),
            resilient_location: resilient
                .proxy::<dyn LocationProxy>()
                .expect("resilient location proxy"),
        }
    }
}

/// One platform's side of Figure 10: each API called natively and
/// through its proxy, over one device.
pub trait Fixture {
    /// The simulated handset.
    fn device(&self) -> &Device;

    /// The platform's proxies.
    fn proxies(&self) -> &Proxies;

    /// Native `addProximityAlert`: register, then remove.
    fn native_add_proximity_alert(&self);

    /// Native location read.
    fn native_get_location(&self);

    /// Native SMS send.
    fn native_send_sms(&self);

    /// Proxy `addProximityAlert` (Fig. 8(a) / Fig. 9 path): register,
    /// then remove.
    fn proxy_add_proximity_alert(&self) {
        let proxy = &self.proxies().location;
        let listener: SharedProximityListener = Arc::new(|_event: &ProximityEvent| {});
        proxy
            .add_proximity_alert(
                FAR_REGION.0,
                FAR_REGION.1,
                0.0,
                100.0,
                -1,
                Arc::clone(&listener),
            )
            .expect("proxy registration succeeds");
        proxy
            .remove_proximity_alert(&listener)
            .expect("proxy removal succeeds");
    }

    /// Proxy `getLocation`.
    fn proxy_get_location(&self) {
        self.proxies()
            .location
            .get_location()
            .expect("proxy location succeeds");
    }

    /// Proxy `sendTextMessage`.
    fn proxy_send_sms(&self) {
        self.proxies()
            .sms
            .send_text_message(SMS_DESTINATION, "bench", None)
            .expect("proxy sms succeeds");
    }

    /// Proxy `getLocation` through the resilience layer (happy path —
    /// no faults, so this prices the retry/circuit bookkeeping alone).
    fn resilient_get_location(&self) {
        self.proxies()
            .resilient_location
            .get_location()
            .expect("resilient location succeeds");
    }
}

/// Android fixture: native middleware handles and proxy handles over
/// one device.
pub struct AndroidFixture {
    device: Device,
    ctx: Context,
    proxies: Proxies,
}

impl AndroidFixture {
    /// Builds the fixture.
    pub fn new() -> Self {
        let device = fixture_device();
        let ctx = AndroidPlatform::new(device.clone(), SdkVersion::M5Rc15).new_context();
        let proxies = Proxies::new(|builder| builder.android(ctx.clone()));
        Self {
            device,
            ctx,
            proxies,
        }
    }
}

impl Default for AndroidFixture {
    fn default() -> Self {
        Self::new()
    }
}

impl Fixture for AndroidFixture {
    fn device(&self) -> &Device {
        &self.device
    }

    fn proxies(&self) -> &Proxies {
        &self.proxies
    }

    /// Fig. 2(a) path.
    fn native_add_proximity_alert(&self) {
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

    /// `getCurrentLocation`.
    fn native_get_location(&self) {
        self.ctx
            .location_manager()
            .get_current_location("gps")
            .expect("fixture gps is available");
    }

    /// `sendTextMessage`.
    fn native_send_sms(&self) {
        self.ctx
            .sms_manager()
            .send_text_message(SMS_DESTINATION, None, "bench", None)
            .expect("fixture sms succeeds");
    }
}

/// S60 fixture.
pub struct S60Fixture {
    device: Device,
    platform: S60Platform,
    provider: LocationProvider,
    proxies: Proxies,
}

impl S60Fixture {
    /// Builds the fixture.
    pub fn new() -> Self {
        let device = fixture_device();
        let platform = S60Platform::new(device.clone());
        let provider =
            LocationProvider::get_instance(&platform, Criteria::new()).expect("fixture provider");
        let proxies = Proxies::new(|builder| builder.s60(platform.clone()));
        Self {
            device,
            platform,
            provider,
            proxies,
        }
    }
}

impl Default for S60Fixture {
    fn default() -> Self {
        Self::new()
    }
}

impl Fixture for S60Fixture {
    fn device(&self) -> &Device {
        &self.device
    }

    fn proxies(&self) -> &Proxies {
        &self.proxies
    }

    /// `addProximityListener` (Fig. 2(b) path).
    fn native_add_proximity_alert(&self) {
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

    /// `getLocation`.
    fn native_get_location(&self) {
        self.provider
            .get_location(-1)
            .expect("fixture gps is available");
    }

    /// JSR-120 send.
    fn native_send_sms(&self) {
        let connection =
            MessageConnection::open_client(&self.platform, &format!("sms://{SMS_DESTINATION}"))
                .expect("fixture connection");
        let mut message = connection.new_message(MessageType::Text);
        message.set_payload_text("bench");
        connection.send(&message).expect("fixture send succeeds");
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
    device: Device,
    webview: Arc<WebView>,
    proxies: Proxies,
}

impl WebViewFixture {
    /// Builds the fixture.
    pub fn new() -> Self {
        let device = fixture_device();
        let platform = AndroidPlatform::new(device.clone(), SdkVersion::M5Rc15);
        let webview = Arc::new(WebView::new(platform.new_context()));
        webview.add_javascript_interface(
            Arc::new(RawBridge {
                ctx: webview.context().clone(),
            }),
            "RawBridge",
        );
        let proxies = Proxies::new(|builder| builder.webview(Arc::clone(&webview)));
        Self {
            device,
            webview,
            proxies,
        }
    }

    fn raw(&self) -> JsInterfaceHandle {
        self.webview
            .js_interface("RawBridge")
            .expect("raw bridge installed")
    }
}

impl Default for WebViewFixture {
    fn default() -> Self {
        Self::new()
    }
}

impl Fixture for WebViewFixture {
    fn device(&self) -> &Device {
        &self.device
    }

    fn proxies(&self) -> &Proxies {
        &self.proxies
    }

    /// Hand-bridged `addProximityAlert`.
    fn native_add_proximity_alert(&self) {
        self.raw()
            .invoke(
                "addProximityAlert",
                &[FAR_REGION.0.into(), FAR_REGION.1.into(), 100.0.into()],
            )
            .expect("raw registration succeeds");
    }

    /// Hand-bridged `getLocation`.
    fn native_get_location(&self) {
        self.raw()
            .invoke("getLocation", &[])
            .expect("raw location succeeds");
    }

    /// Hand-bridged SMS send.
    fn native_send_sms(&self) {
        self.raw()
            .invoke(
                "sendSms",
                &[JsValue::str(SMS_DESTINATION), JsValue::str("bench")],
            )
            .expect("raw sms succeeds");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_every_path(fixture: &dyn Fixture) {
        fixture.native_add_proximity_alert();
        fixture.native_get_location();
        fixture.native_send_sms();
        fixture.proxy_add_proximity_alert();
        fixture.proxy_get_location();
        fixture.proxy_send_sms();
        fixture.resilient_get_location();
    }

    #[test]
    fn android_fixture_paths_all_run() {
        run_every_path(&AndroidFixture::new());
    }

    #[test]
    fn s60_fixture_paths_all_run() {
        run_every_path(&S60Fixture::new());
    }

    #[test]
    fn webview_fixture_paths_all_run() {
        run_every_path(&WebViewFixture::new());
    }
}
