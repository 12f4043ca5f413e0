//! A fourth platform that exists only in tests: an in-memory binding
//! plane.
//!
//! Absorbing a platform means publishing only a binding plane (paper
//! §3.3). This one publishes Location, SMS and HTTP bindings by
//! extending the standard descriptors — no Call and no PIM — and
//! implements `BindingPlane` over plain in-memory bindings. Nothing in
//! `mobivine` names it: it reaches the runtime through
//! `MobivineBuilder::platform` and gets every layer from the stack.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use mobivine::api::{HttpProxy, LocationProxy, ProxyBase, SmsProxy};
use mobivine::error::{ProxyError, ProxyErrorKind};
use mobivine::property::PropertyValue;
use mobivine::registry::{BindingPlane, Bound};
use mobivine::types::{DeliveryListener, HttpResult, Location, SharedProximityListener};
use mobivine_device::Device;
use mobivine_proxydl::{catalog, PlatformBinding, PlatformId, ProxyDescriptor};

/// The interfaces the memory platform publishes a binding for.
pub const PUBLISHED: [&str; 3] = ["Location", "SMS", "Http"];

/// The memory platform's id.
pub fn memory_platform() -> PlatformId {
    PlatformId::Custom("memory".to_owned())
}

/// The standard catalog plus the memory platform's binding planes,
/// built once per process like the standard catalog itself.
pub fn memory_catalog() -> Arc<Vec<ProxyDescriptor>> {
    static CATALOG: OnceLock<Arc<Vec<ProxyDescriptor>>> = OnceLock::new();
    let build = || {
        let mut descriptors = catalog::standard().as_ref().clone();
        for descriptor in &mut descriptors {
            if PUBLISHED.contains(&descriptor.name.as_str()) {
                let class = format!("memory.{}ProxyImpl", descriptor.name);
                descriptor
                    .extend_platform(PlatformBinding::new(memory_platform(), &class))
                    .expect("a new platform publishes only a binding");
            }
        }
        Arc::new(descriptors)
    };
    Arc::clone(CATALOG.get_or_init(build))
}

/// The in-memory binding plane over `device` (its clock and metrics
/// registry serve the layers).
pub struct MemoryPlane {
    device: Device,
    /// While set, binding HTTP fails: a transient construction error.
    http_offline: AtomicBool,
}

impl MemoryPlane {
    pub fn new(device: Device) -> Self {
        Self {
            device,
            http_offline: AtomicBool::new(false),
        }
    }

    pub fn set_http_offline(&self, offline: bool) {
        self.http_offline.store(offline, Ordering::Relaxed);
    }
}

impl BindingPlane for MemoryPlane {
    fn platform_id(&self) -> PlatformId {
        memory_platform()
    }

    fn device(&self) -> &Device {
        &self.device
    }

    fn catalog(&self) -> Arc<Vec<ProxyDescriptor>> {
        memory_catalog()
    }

    fn location(&self) -> Bound<dyn LocationProxy> {
        Some(Ok(Arc::new(MemoryLocation)))
    }

    fn sms(&self) -> Bound<dyn SmsProxy> {
        Some(Ok(Arc::new(MemorySms::default())))
    }

    fn http(&self) -> Bound<dyn HttpProxy> {
        if self.http_offline.load(Ordering::Relaxed) {
            let offline = ProxyError::new(ProxyErrorKind::Unavailable, "memory http offline");
            return Some(Err(offline));
        }
        Some(Ok(Arc::new(MemoryHttp)))
    }
}

/// A fixed position.
struct MemoryLocation;

impl ProxyBase for MemoryLocation {
    fn set_property(&self, _key: &str, _value: PropertyValue) -> Result<(), ProxyError> {
        Ok(())
    }
}

impl LocationProxy for MemoryLocation {
    fn add_proximity_alert(
        &self,
        _latitude: f64,
        _longitude: f64,
        _altitude: f64,
        _radius: f64,
        _timer_s: i64,
        _listener: SharedProximityListener,
    ) -> Result<(), ProxyError> {
        Ok(())
    }

    fn remove_proximity_alert(
        &self,
        _listener: &SharedProximityListener,
    ) -> Result<bool, ProxyError> {
        Ok(true)
    }

    fn get_location(&self) -> Result<Location, ProxyError> {
        Ok(Location {
            latitude: 28.5355,
            longitude: 77.3910,
            ..Location::default()
        })
    }
}

/// Numbers every message it is handed.
#[derive(Default)]
struct MemorySms {
    sent: AtomicU64,
}

impl ProxyBase for MemorySms {
    fn set_property(&self, _key: &str, _value: PropertyValue) -> Result<(), ProxyError> {
        Ok(())
    }
}

impl SmsProxy for MemorySms {
    fn send_text_message(
        &self,
        _destination: &str,
        _text: &str,
        _delivery_listener: Option<Arc<dyn DeliveryListener>>,
    ) -> Result<u64, ProxyError> {
        Ok(self.sent.fetch_add(1, Ordering::Relaxed) + 1)
    }
}

/// Answers every request `200` with the URL it saw as the body.
struct MemoryHttp;

impl ProxyBase for MemoryHttp {
    fn set_property(&self, _key: &str, _value: PropertyValue) -> Result<(), ProxyError> {
        Ok(())
    }
}

impl HttpProxy for MemoryHttp {
    fn request(&self, _method: &str, url: &str, _body: &[u8]) -> Result<HttpResult, ProxyError> {
        Ok(HttpResult {
            status: 200,
            headers: Vec::new(),
            body: url.as_bytes().to_vec(),
        })
    }
}
