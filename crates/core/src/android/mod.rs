//! Android binding modules — the implementation plane for the Android
//! platform.
//!
//! Two pieces of de-fragmentation work happen here (paper §4.1):
//!
//! 1. **Platform-specific attributes as properties** — the application
//!    `context` and location `provider` arrive via `setProperty`, never
//!    through the common API.
//! 2. **Callback adaptation** — `addProximityAlert` hides Android's
//!    `Intent`/`IntentReceiver` machinery behind the common
//!    `ProximityListener`: the proxy creates the intent, registers the
//!    receiver, and invokes `proximityEvent` when alerts arrive, so "the
//!    use of Intent and IntentReceiver is hidden from the application
//!    developer".
//!
//! The module also absorbs platform evolution (§5, Maintenance): on
//! SDK 1.0 the proxy transparently switches to the `PendingIntent`
//! overload of `addProximityAlert` — applications need no change.

use std::sync::Arc;

use mobivine_android::context::Context;
use mobivine_device::Device;
use mobivine_proxydl::PlatformId;

use crate::api::{
    CalendarProxy, CallProxy, ContactsProxy, HttpProxy, LocationProxy, ProxyBase, SmsProxy,
};
use crate::error::ProxyError;
use crate::property::PropertyValue;
use crate::registry::{BindingPlane, Bound, Mobivine, MobivineBuilder};

mod call;
mod http;
mod location;
mod pim;
mod sms;

pub use call::AndroidCallProxy;
pub use http::AndroidHttpProxy;
pub use location::AndroidLocationProxy;
pub use pim::{AndroidCalendarProxy, AndroidContactsProxy};
pub use sms::AndroidSmsProxy;

/// The Android binding plane is the application context: every binding
/// is handed it as a property, the `loc.setProperty("context", this)`
/// of the paper's Fig. 8(a).
impl BindingPlane for Context {
    fn platform_id(&self) -> PlatformId {
        PlatformId::Android
    }

    fn device(&self) -> &Device {
        Context::device(self)
    }

    fn location(&self) -> Bound<dyn LocationProxy> {
        Some(with_context(AndroidLocationProxy::new(), self).map(|p| Arc::new(p) as _))
    }

    fn sms(&self) -> Bound<dyn SmsProxy> {
        Some(with_context(AndroidSmsProxy::new(), self).map(|p| Arc::new(p) as _))
    }

    fn call(&self) -> Bound<dyn CallProxy> {
        Some(with_context(AndroidCallProxy::new(), self).map(|p| Arc::new(p) as _))
    }

    fn http(&self) -> Bound<dyn HttpProxy> {
        Some(with_context(AndroidHttpProxy::new(), self).map(|p| Arc::new(p) as _))
    }

    fn contacts(&self) -> Bound<dyn ContactsProxy> {
        Some(with_context(AndroidContactsProxy::new(), self).map(|p| Arc::new(p) as _))
    }

    fn calendar(&self) -> Bound<dyn CalendarProxy> {
        Some(with_context(AndroidCalendarProxy::new(), self).map(|p| Arc::new(p) as _))
    }
}

/// An Android binding handed the application context.
fn with_context<T: ProxyBase>(proxy: T, ctx: &Context) -> Result<T, ProxyError> {
    proxy.set_property("context", PropertyValue::opaque(ctx.clone()))?;
    Ok(proxy)
}

impl MobivineBuilder {
    /// Targets an Android application context.
    #[must_use]
    pub fn android(self, ctx: Context) -> Self {
        self.platform(Arc::new(ctx))
    }
}

impl Mobivine {
    /// A runtime with no layer on an Android application context.
    pub fn for_android(ctx: Context) -> Self {
        Self::bare(Arc::new(ctx))
    }
}
