//! Android WebView binding modules — the implementation plane for
//! JavaScript applications.
//!
//! Follows the paper's three-step procedure (§4.1, Fig. 6):
//!
//! 1. **JavaScript proxy objects** — Java "Wrapper" classes
//!    ([`wrappers`]) connect the JavaScript proxies to the native
//!    platform; they are injected through `addJavaScriptInterface` and a
//!    wrapper factory ([`wrappers::install_wrappers`]).
//! 2. **JavaScript proxy interfaces** — [`proxies`] implement the
//!    uniform proxy traits by invoking the wrapper handle (`swi` in the
//!    figure); native exceptions cross the bridge as **error codes**.
//! 3. **Callback support** — asynchronous notifications (proximity
//!    alerts, delivery reports) are stored in the WebView's Notification
//!    Table keyed by the id returned from the originating invocation and
//!    retrieved by each proxy's polling `notifHandler`.

use std::sync::Arc;

use mobivine_device::Device;
use mobivine_proxydl::PlatformId;
use mobivine_webview::WebView;

use crate::api::{CallProxy, HttpProxy, LocationProxy, SmsProxy};
use crate::registry::{BindingPlane, Bound, Mobivine, MobivineBuilder};

pub mod proxies;
pub mod wrappers;

pub use proxies::{
    WebViewCallProxy, WebViewHttpProxy, WebViewLocationProxy, WebViewSmsProxy, BATCH_PROPERTY,
};
pub use wrappers::install_wrappers;

/// The WebView binding plane: a page with the Java wrappers injected,
/// so every JavaScript proxy finds its wrapper. It binds no PIM proxy:
/// the catalog declares none for WebView, so the registry never asks.
pub(crate) struct WebViewPlane(Arc<WebView>);

impl WebViewPlane {
    /// Injects the Java wrappers into `webview` (the plug-in's
    /// `addJavaScriptInterface` step) and makes the page a plane.
    pub(crate) fn new(webview: Arc<WebView>) -> Self {
        install_wrappers(&webview);
        Self(webview)
    }
}

impl BindingPlane for WebViewPlane {
    fn platform_id(&self) -> PlatformId {
        PlatformId::AndroidWebView
    }

    fn device(&self) -> &Device {
        self.0.context().device()
    }

    fn location(&self) -> Bound<dyn LocationProxy> {
        Some(WebViewLocationProxy::new(&self.0).map(|p| Arc::new(p) as _))
    }

    fn sms(&self) -> Bound<dyn SmsProxy> {
        Some(WebViewSmsProxy::new(&self.0).map(|p| Arc::new(p) as _))
    }

    fn call(&self) -> Bound<dyn CallProxy> {
        Some(WebViewCallProxy::new(&self.0).map(|p| Arc::new(p) as _))
    }

    fn http(&self) -> Bound<dyn HttpProxy> {
        Some(WebViewHttpProxy::new(&self.0).map(|p| Arc::new(p) as _))
    }
}

impl MobivineBuilder {
    /// Targets a WebView page, injecting its Java wrappers.
    #[must_use]
    pub fn webview(self, webview: Arc<WebView>) -> Self {
        self.platform(Arc::new(WebViewPlane::new(webview)))
    }
}

impl Mobivine {
    /// A runtime with no layer on a WebView page, injecting its Java
    /// wrappers.
    pub fn for_webview(webview: Arc<WebView>) -> Self {
        Self::bare(Arc::new(WebViewPlane::new(webview)))
    }
}
