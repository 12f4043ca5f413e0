//! The MobiVine runtime facade and proxy registry.
//!
//! Applications obtain proxies from a [`Mobivine`] runtime bound to
//! their platform. The registry consults the platform's descriptor
//! catalog: interfaces without a binding on the running platform (Call
//! on S60, PIM on WebView) fail with
//! [`crate::error::ProxyErrorKind::UnsupportedOnPlatform`] rather than a
//! missing symbol — MobiVine removes "the requirement of the proxy set
//! being determined by the least common denominator of functionalities
//! across different platforms" (§3.3).
//!
//! ## Platforms plug in as binding planes
//!
//! "One requires to publish only the binding artifacts for proxies
//! corresponding to a new platform" (§3.3). At runtime that artifact
//! is a [`BindingPlane`]: a platform id, a device, a descriptor catalog
//! and one bind method per [`ProxyKind`] it publishes. The registry
//! names no platform. Android, S60 and WebView implement the trait next
//! to their bindings ([`crate::android`], [`crate::s60`],
//! [`crate::webview`]) and add their one-line constructors there
//! (`MobivineBuilder::android`, `Mobivine::for_android`, …) over
//! [`MobivineBuilder::platform`]. Support is decided once, by the
//! plane's catalog, before the plane is asked to bind.
//!
//! ## Acquiring proxies
//!
//! The uniform acquisition surface is the typed resolver
//! [`Mobivine::proxy`], keyed by [`ProxyKind`] through the sealed
//! [`ProxyApi`] trait:
//!
//! ```
//! # use mobivine::registry::Mobivine;
//! # use mobivine::api::{LocationProxy, SmsProxy};
//! # use mobivine_android::{AndroidPlatform, SdkVersion};
//! # use mobivine_device::Device;
//! # let platform = AndroidPlatform::new(Device::builder().build(), SdkVersion::M5Rc15);
//! # let runtime = Mobivine::for_android(platform.new_context());
//! let location = runtime.proxy::<dyn LocationProxy>()?;
//! let sms = runtime.proxy::<dyn SmsProxy>()?;
//! # Ok::<(), mobivine::error::ProxyError>(())
//! ```
//!
//! Resolution is **memoized**: the first acquisition of a kind
//! constructs the decorated proxy stack, every later acquisition is a
//! lock-free read returning the same shared instance. The typed
//! resolver is the *only* acquisition surface — the six legacy
//! accessors (`location()`, `sms()`, …) were deprecated in 0.2.0 and
//! have been removed.
//!
//! ## Construction
//!
//! [`Mobivine::builder`] is the one way to build a runtime: a platform
//! plus each layer's policy, recorded in any order and wired once by
//! [`MobivineBuilder::build`]; a runtime's layers and their knobs never
//! change after that. Every proxy comes out of one construction path:
//! the plane binds the bare proxy, and the `stack` module wraps it in
//! the enabled layers in the one declared order (`stack::ORDER`,
//! DESIGN.md §16 "Layer stack"), outermost first: `TraceProxy → Cache →
//! Overload → Journal → Resilience → TraceBinding`. A runtime with no
//! layer enabled hands out the bare binding itself.

use std::fmt;
use std::sync::Arc;
use std::sync::OnceLock;

use mobivine_device::Device;
use mobivine_proxydl::{PlatformId, ProxyDescriptor};
use mobivine_telemetry::{IncidentStore, MetricsRegistry, PromotionPolicy};

use crate::api::{CalendarProxy, CallProxy, ContactsProxy, HttpProxy, LocationProxy, SmsProxy};
use crate::cache::{CacheMetrics, CachePolicy};
use crate::error::{ProxyError, ProxyErrorKind};
use crate::journal::{JournalMetrics, JournalPolicy};
use crate::overload::{OverloadMetrics, OverloadPolicy};
use crate::resilience::{ResilienceMetrics, ResiliencePolicy};
use crate::stack::{self, Interface, LayerPolicies, Layers};
use crate::telemetry::TelemetryRuntime;

/// What a binding plane answers for one kind: `None` when it publishes
/// no binding for it, else the bare binding or the error building it.
pub type Bound<P> = Option<Result<Arc<P>, ProxyError>>;

/// One platform's binding plane at runtime — everything the registry
/// knows about a platform.
///
/// The bind methods run once per kind per runtime, on first
/// resolution, and return the **bare** binding: the registry wraps it
/// in every enabled layer, so a plane needs no layer code. They are
/// never on the call path. A kind is resolvable when the plane's
/// [`BindingPlane::catalog`] binds it on [`BindingPlane::platform_id`]
/// *and* the plane binds it.
pub trait BindingPlane: Send + Sync {
    /// The platform this plane binds, as the descriptor catalog names
    /// it.
    fn platform_id(&self) -> PlatformId;

    /// The simulated device underneath: the clock and the metrics
    /// registry every layer uses.
    fn device(&self) -> &Device;

    /// The descriptor catalog deciding which kinds this platform
    /// supports. Defaults to the process-wide standard catalog; a new
    /// platform publishes its bindings by extending the standard
    /// descriptors ([`ProxyDescriptor::extend_platform`]).
    fn catalog(&self) -> Arc<Vec<ProxyDescriptor>> {
        mobivine_proxydl::catalog::standard()
    }

    /// The bare Location binding.
    fn location(&self) -> Bound<dyn LocationProxy> {
        None
    }

    /// The bare SMS binding.
    fn sms(&self) -> Bound<dyn SmsProxy> {
        None
    }

    /// The bare voice-call binding.
    fn call(&self) -> Bound<dyn CallProxy> {
        None
    }

    /// The bare HTTP binding.
    fn http(&self) -> Bound<dyn HttpProxy> {
        None
    }

    /// The bare Contacts binding.
    fn contacts(&self) -> Bound<dyn ContactsProxy> {
        None
    }

    /// The bare Calendar binding.
    fn calendar(&self) -> Bound<dyn CalendarProxy> {
        None
    }
}

/// The six uniform proxy capabilities, keyed the way the descriptor
/// catalog names them. This is the enum the typed resolver
/// ([`Mobivine::proxy`]) is keyed by, via [`ProxyApi::KIND`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ProxyKind {
    /// The Location capability (`"Location"` in the catalog).
    Location,
    /// The SMS capability (`"SMS"`).
    Sms,
    /// The voice-call capability (`"Call"`), absent on S60.
    Call,
    /// The HTTP capability (`"Http"`).
    Http,
    /// The Contacts extension (`"Contacts"`), absent on WebView.
    Contacts,
    /// The Calendar extension (`"Calendar"`), absent on WebView.
    Calendar,
}

impl ProxyKind {
    /// Every capability, in catalog order.
    pub const ALL: [ProxyKind; 6] = [
        ProxyKind::Location,
        ProxyKind::Sms,
        ProxyKind::Call,
        ProxyKind::Http,
        ProxyKind::Contacts,
        ProxyKind::Calendar,
    ];

    /// The descriptor-catalog interface name for this kind.
    pub fn interface(&self) -> &'static str {
        match self {
            ProxyKind::Location => "Location",
            ProxyKind::Sms => "SMS",
            ProxyKind::Call => "Call",
            ProxyKind::Http => "Http",
            ProxyKind::Contacts => "Contacts",
            ProxyKind::Calendar => "Calendar",
        }
    }
}

impl fmt::Display for ProxyKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.interface())
    }
}

/// Memoized resolution state of one runtime: one slot per
/// [`ProxyKind`], written once on first acquisition and read lock-free
/// afterwards. Construction failures are not cached, so a transient
/// error does not poison the slot.
#[derive(Default)]
pub struct ResolutionCache {
    location: OnceLock<Arc<dyn LocationProxy>>,
    sms: OnceLock<Arc<dyn SmsProxy>>,
    call: OnceLock<Arc<dyn CallProxy>>,
    http: OnceLock<Arc<dyn HttpProxy>>,
    contacts: OnceLock<Arc<dyn ContactsProxy>>,
    calendar: OnceLock<Arc<dyn CalendarProxy>>,
}

impl ResolutionCache {
    /// How many kinds have been resolved so far.
    fn resolved_count(&self) -> usize {
        usize::from(self.location.get().is_some())
            + usize::from(self.sms.get().is_some())
            + usize::from(self.call.get().is_some())
            + usize::from(self.http.get().is_some())
            + usize::from(self.contacts.get().is_some())
            + usize::from(self.calendar.get().is_some())
    }
}

impl fmt::Debug for ResolutionCache {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ResolutionCache")
            .field("resolved", &self.resolved_count())
            .finish()
    }
}

mod sealed {
    /// Prevents downstream crates from adding resolvable proxy types:
    /// the resolution cache and [`super::BindingPlane`] have one slot
    /// per catalog capability.
    pub trait Sealed {}
}

/// The link between a uniform proxy trait object and its [`ProxyKind`]:
/// the typed key of [`Mobivine::proxy`]. Implemented exactly for the
/// six `dyn *Proxy` types; sealed, because the resolution cache and
/// [`BindingPlane`] have one slot per catalog capability.
pub trait ProxyApi: sealed::Sealed + Send + Sync {
    /// The capability this proxy type provides.
    const KIND: ProxyKind;

    #[doc(hidden)]
    fn slot(cache: &ResolutionCache) -> &OnceLock<Arc<Self>>;

    #[doc(hidden)]
    fn construct(runtime: &Mobivine) -> Result<Arc<Self>, ProxyError>;
}

/// Implements [`ProxyApi`] for each `dyn $api`: its resolution-cache
/// slot and its bind method on the plane, both named `$slot`.
macro_rules! proxy_api {
    ($($api:ident => $kind:ident, $slot:ident;)*) => {$(
        impl sealed::Sealed for dyn $api {}

        impl ProxyApi for dyn $api {
            const KIND: ProxyKind = ProxyKind::$kind;

            fn slot(cache: &ResolutionCache) -> &OnceLock<Arc<Self>> {
                &cache.$slot
            }

            fn construct(runtime: &Mobivine) -> Result<Arc<Self>, ProxyError> {
                runtime.layered(|plane| plane.$slot())
            }
        }
    )*};
}

proxy_api! {
    LocationProxy => Location, location;
    SmsProxy => Sms, sms;
    CallProxy => Call, call;
    HttpProxy => Http, http;
    ContactsProxy => Contacts, contacts;
    CalendarProxy => Calendar, calendar;
}

/// The MobiVine runtime for one application on one platform.
pub struct Mobivine {
    plane: Arc<dyn BindingPlane>,
    /// The plane's platform id and catalog, read once at build.
    platform: PlatformId,
    catalog: Arc<Vec<ProxyDescriptor>>,
    pub(crate) layers: Layers,
    resolved: ResolutionCache,
}

impl fmt::Debug for Mobivine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Mobivine")
            .field("platform", &self.platform.id())
            .field("catalog", &self.catalog.len())
            .field("resolved", &self.resolved.resolved_count())
            .finish()
    }
}

impl Mobivine {
    /// Starts construction: a platform and every layer's policy, in any
    /// order, wired by one [`MobivineBuilder::build`].
    pub fn builder() -> MobivineBuilder {
        MobivineBuilder::default()
    }

    /// A runtime on `plane` with no layer enabled: what the platforms'
    /// `for_*` shorthands build.
    pub(crate) fn bare(plane: Arc<dyn BindingPlane>) -> Self {
        Self::builder().wire(plane)
    }

    /// The shared resilience counters, when
    /// [`MobivineBuilder::with_resilience`] was applied.
    pub fn resilience_metrics(&self) -> Option<Arc<ResilienceMetrics>> {
        self.layers.resilience.clone()
    }

    /// The shared overload-protection counters, when
    /// [`MobivineBuilder::with_overload`] was applied.
    pub fn overload_metrics(&self) -> Option<Arc<OverloadMetrics>> {
        self.layers.overload.clone()
    }

    /// The shared cache counters, when [`MobivineBuilder::with_cache`]
    /// was applied.
    pub fn cache_metrics(&self) -> Option<Arc<CacheMetrics>> {
        self.layers.cache.clone()
    }

    /// The shared durability counters, when
    /// [`MobivineBuilder::with_journal`] was applied.
    pub fn journal_metrics(&self) -> Option<Arc<JournalMetrics>> {
        self.layers
            .journal
            .as_ref()
            .map(|engine| Arc::clone(engine.metrics()))
    }

    fn telemetry(&self) -> Option<&TelemetryRuntime> {
        self.layers.policies.telemetry.as_ref()
    }

    /// The tracer collecting proxy-call spans, when
    /// [`MobivineBuilder::with_telemetry`] was applied.
    pub fn tracer(&self) -> Option<&mobivine_telemetry::Tracer> {
        self.telemetry().map(TelemetryRuntime::tracer)
    }

    /// The metrics registry the traced proxies publish into, when
    /// [`MobivineBuilder::with_telemetry`] was applied. This is the
    /// device's registry, so device-layer series appear alongside the
    /// proxy series.
    pub fn telemetry_metrics(&self) -> Option<Arc<MetricsRegistry>> {
        self.telemetry().map(|t| Arc::clone(t.metrics()))
    }

    /// The flight recorder's bounded store of promoted incident traces,
    /// when [`MobivineBuilder::with_telemetry`] was applied.
    pub fn incidents(&self) -> Option<&Arc<IncidentStore>> {
        self.telemetry().and_then(TelemetryRuntime::incidents)
    }

    /// The platform this runtime targets.
    pub fn platform_id(&self) -> PlatformId {
        self.platform.clone()
    }

    /// The descriptor catalog backing this runtime: the plane's, by
    /// default the process-wide standard catalog, one allocation shared
    /// by every runtime.
    pub fn catalog(&self) -> &[ProxyDescriptor] {
        &self.catalog
    }

    /// Whether `interface` (descriptor name, e.g. `"Call"`) has a
    /// binding on the running platform.
    pub fn supports(&self, interface: &str) -> bool {
        self.catalog
            .iter()
            .find(|d| d.name == interface)
            .is_some_and(|d| d.binding_for(&self.platform).is_some())
    }

    /// Whether `kind` has a binding on the running platform.
    pub fn supports_kind(&self, kind: ProxyKind) -> bool {
        self.supports(kind.interface())
    }

    /// The one construction path: `bind` asks the plane for the bare
    /// binding of a kind the catalog supports, and [`stack::wrap`]
    /// wraps it in every layer this runtime enables, in the declared
    /// order.
    fn layered<P: ?Sized + Interface>(
        &self,
        bind: impl FnOnce(&dyn BindingPlane) -> Bound<P>,
    ) -> Result<Arc<P>, ProxyError> {
        let unsupported = || {
            let (interface, platform) = (P::KIND.interface(), self.platform.id());
            Err(ProxyError::new(
                ProxyErrorKind::UnsupportedOnPlatform,
                format!("interface {interface} has no binding on platform {platform}"),
            ))
        };
        if !self.supports_kind(P::KIND) {
            return unsupported();
        }
        let binding = bind(&*self.plane).unwrap_or_else(unsupported)?;
        let device = self.plane.device();
        Ok(stack::wrap(
            binding,
            &self.layers,
            device,
            self.platform.id(),
        ))
    }

    /// Resolves the proxy for capability `P`, memoized.
    ///
    /// The first acquisition of each [`ProxyKind`] constructs the
    /// platform binding wrapped in every enabled layer and caches the
    /// shared instance; every later acquisition is a lock-free read
    /// returning a clone of the same `Arc`. This is the hot-path
    /// acquisition primitive fleet-scale workloads lean on: acquisition
    /// cost collapses from per-call construction to one atomic load.
    ///
    /// # Errors
    ///
    /// `UnsupportedOnPlatform` if the catalog has no binding for
    /// `P::KIND` on this platform, or any construction error from the
    /// binding module. Errors are not cached; a failed resolution is
    /// retried on the next acquisition.
    ///
    /// # Example
    ///
    /// ```
    /// # use mobivine::registry::Mobivine;
    /// # use mobivine::api::LocationProxy;
    /// # use mobivine_android::{AndroidPlatform, SdkVersion};
    /// # use mobivine_device::Device;
    /// # let platform = AndroidPlatform::new(Device::builder().build(), SdkVersion::M5Rc15);
    /// # let runtime = Mobivine::for_android(platform.new_context());
    /// let first = runtime.proxy::<dyn LocationProxy>()?;
    /// let second = runtime.proxy::<dyn LocationProxy>()?;
    /// assert!(std::sync::Arc::ptr_eq(&first, &second));
    /// # Ok::<(), mobivine::error::ProxyError>(())
    /// ```
    pub fn proxy<P: ProxyApi + ?Sized>(&self) -> Result<Arc<P>, ProxyError> {
        let slot = P::slot(&self.resolved);
        if let Some(hit) = slot.get() {
            return Ok(Arc::clone(hit));
        }
        let constructed = P::construct(self)?;
        // Under a race the first writer wins and everyone shares its
        // instance; the loser's construction is dropped.
        Ok(Arc::clone(slot.get_or_init(|| constructed)))
    }

    /// Pre-resolves every capability with a binding on this platform,
    /// returning how many were cached. Fleet workloads call this once
    /// per runtime so steady-state acquisition never constructs.
    ///
    /// # Errors
    ///
    /// Propagates the first construction error; kinds without a
    /// binding are skipped, not errors.
    pub fn warm(&self) -> Result<usize, ProxyError> {
        let mut resolved = 0;
        for kind in ProxyKind::ALL {
            if !self.supports_kind(kind) {
                continue;
            }
            match kind {
                ProxyKind::Location => drop(self.proxy::<dyn LocationProxy>()?),
                ProxyKind::Sms => drop(self.proxy::<dyn SmsProxy>()?),
                ProxyKind::Call => drop(self.proxy::<dyn CallProxy>()?),
                ProxyKind::Http => drop(self.proxy::<dyn HttpProxy>()?),
                ProxyKind::Contacts => drop(self.proxy::<dyn ContactsProxy>()?),
                ProxyKind::Calendar => drop(self.proxy::<dyn CalendarProxy>()?),
            }
            resolved += 1;
        }
        Ok(resolved)
    }
}

/// Construction of a [`Mobivine`] runtime: the only one.
///
/// The builder records a platform ([`MobivineBuilder::platform`], or a
/// platform's shorthand such as `android()`) and every layer's policy
/// **in any order**, and wires them in one pass in
/// [`MobivineBuilder::build`].
///
/// # Example
///
/// ```
/// use mobivine::registry::Mobivine;
/// use mobivine::resilience::ResiliencePolicy;
/// use mobivine_android::{AndroidPlatform, SdkVersion};
/// use mobivine_device::Device;
///
/// let platform = AndroidPlatform::new(Device::builder().build(), SdkVersion::M5Rc15);
/// // Options first, platform last — any order works.
/// let runtime = Mobivine::builder()
///     .with_resilience(ResiliencePolicy::default())
///     .with_telemetry()
///     .android(platform.new_context())
///     .build()?;
/// assert!(runtime.tracer().is_some());
/// assert!(runtime.resilience_metrics().is_some());
/// # Ok::<(), mobivine::error::ProxyError>(())
/// ```
#[derive(Default)]
pub struct MobivineBuilder {
    plane: Option<Arc<dyn BindingPlane>>,
    resilience: Option<ResiliencePolicy>,
    overload: Option<OverloadPolicy>,
    cache: bool,
    journal: bool,
    /// Span retention per worker ring, when telemetry is enabled.
    telemetry: Option<usize>,
    /// Tail-based promotion policy override, when telemetry is enabled.
    promotion: Option<PromotionPolicy>,
}

impl fmt::Debug for MobivineBuilder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MobivineBuilder")
            .field("platform", &self.plane.is_some())
            .field("resilience", &self.resilience.is_some())
            .field("overload", &self.overload.is_some())
            .field("cache", &self.cache)
            .field("journal", &self.journal)
            .field("telemetry", &self.telemetry.is_some())
            .finish()
    }
}

impl MobivineBuilder {
    /// Targets the platform `plane` binds: the one platform entry
    /// point. A later call replaces an earlier one.
    #[must_use]
    pub fn platform(mut self, plane: Arc<dyn BindingPlane>) -> Self {
        self.plane = Some(plane);
        self
    }

    /// Turns on the resilience layer: every Location/SMS/Call/HTTP
    /// proxy the runtime constructs retries, circuit-breaks and falls
    /// back under `policy` — identically on every platform, so retry
    /// behaviour is part of the uniform surface rather than
    /// per-platform application code. Each proxy owns its breaker.
    ///
    /// All proxies share one [`ResilienceMetrics`] block, readable
    /// through [`Mobivine::resilience_metrics`].
    #[must_use]
    pub fn with_resilience(mut self, policy: ResiliencePolicy) -> Self {
        self.resilience = Some(policy);
        self
    }

    /// Turns on overload protection: every Location/SMS/Call/HTTP proxy
    /// the runtime constructs gets a per-proxy bulkhead, an adaptive
    /// load-shedding admission gate and deadline-aware fail-fast under
    /// `policy`, **outside** the resilience layer so a shed never
    /// spends retry budget.
    ///
    /// All proxies share one [`OverloadMetrics`] block, readable
    /// through [`Mobivine::overload_metrics`].
    #[must_use]
    pub fn with_overload(mut self, policy: OverloadPolicy) -> Self {
        self.overload = Some(policy);
        self
    }

    /// Turns on the read-through cache layer for the idempotent reads
    /// (Location, Contacts, Calendar): a TTL'd result cache with
    /// single-flight coalescing and stamp-based invalidation,
    /// **outside** the overload layer so a hit costs neither admission
    /// nor binding-plane work, and **inside** the proxy-plane trace so
    /// hits and misses both appear in the span tree. Write-shaped
    /// proxies (SMS, Call, HTTP) are never cached.
    ///
    /// `_policy` configures nothing: the layer has no knobs. The
    /// argument stays until the benchmark's next change lets this
    /// become a plain `with_cache()`.
    ///
    /// All proxies share one [`CacheMetrics`] block, readable through
    /// [`Mobivine::cache_metrics`].
    #[must_use]
    pub fn with_cache(mut self, _policy: CachePolicy) -> Self {
        self.cache = true;
        self
    }

    /// Turns on the durability layer for the mutating proxies (SMS,
    /// HTTP), keyed by the ambient
    /// [`crate::journal::IdempotencyKey`]: an HTTP submit carries the
    /// key to the server as `?idem=`, and an SMS send whose key is
    /// already committed is answered with the memoized message id
    /// (counted as `already_applied`) instead of a second radio effect.
    /// It sits **inside** the overload gate (a shed call never reaches
    /// the memo) and **outside** the retry engine (the retries of one
    /// logical call share one key and one memo entry).
    ///
    /// `_policy` configures nothing: [`JournalPolicy`] has no knobs. The
    /// argument stays until the benchmark's next change lets this become
    /// a plain `with_journal()`.
    ///
    /// All proxies share one memo and one counter block, readable
    /// through [`Mobivine::journal_metrics`].
    #[must_use]
    pub fn with_journal(mut self, _policy: JournalPolicy) -> Self {
        self.journal = true;
        self
    }

    /// Turns on plane-aware telemetry: every Location/SMS/Call/HTTP
    /// proxy the runtime constructs is traced **twice** — at the
    /// outermost semantic plane and at the binding plane (below the
    /// resilience layer, when present) — so each call descends the
    /// stack as a parented span tree: app → proxy → resilience →
    /// binding → platform → device.
    ///
    /// Metrics publish into the device's [`MetricsRegistry`] (shared
    /// with the device subsystems); spans collect in the tracer
    /// returned by [`Mobivine::tracer`]. Every other layer's counters
    /// are homed on the same registry, so one exporter covers the whole
    /// call path.
    #[must_use]
    pub fn with_telemetry(mut self) -> Self {
        self.telemetry = Some(mobivine_telemetry::DEFAULT_SPAN_RETENTION);
        self
    }

    /// Like [`MobivineBuilder::with_telemetry`], but each worker
    /// thread's span ring keeps at most `span_retention` finished spans
    /// (the oldest are overwritten and counted as evicted). Fleet-scale
    /// runs use a small retention so tracing ten thousand devices does
    /// not hold ten thousand unbounded span buffers.
    #[must_use]
    pub fn with_telemetry_retention(mut self, span_retention: usize) -> Self {
        self.telemetry = Some(span_retention);
        self
    }

    /// Overrides the tail-based [`PromotionPolicy`] deciding which
    /// finished traces the flight recorder promotes into the incident
    /// store ([`Mobivine::incidents`]) before ring wrap-around can
    /// overwrite them. Implies telemetry at the default retention
    /// unless `with_telemetry_retention` also runs.
    #[must_use]
    pub fn with_promotion_policy(mut self, policy: PromotionPolicy) -> Self {
        self.telemetry
            .get_or_insert(mobivine_telemetry::DEFAULT_SPAN_RETENTION);
        self.promotion = Some(policy);
        self
    }

    /// Builds the runtime: every recorded option is wired in one pass,
    /// so the order the builder methods were called never matters.
    ///
    /// # Errors
    ///
    /// `IllegalArgument` if no platform was selected.
    pub fn build(mut self) -> Result<Mobivine, ProxyError> {
        let plane = self.plane.take().ok_or_else(|| {
            ProxyError::new(
                ProxyErrorKind::IllegalArgument,
                "MobivineBuilder needs a platform: call platform(), android(), s60() or webview()",
            )
        })?;
        Ok(self.wire(plane))
    }

    /// Builds every enabled layer once, on `plane`'s device.
    fn wire(self, plane: Arc<dyn BindingPlane>) -> Mobivine {
        let device = plane.device();
        let promotion = self.promotion.unwrap_or_default();
        let telemetry = self.telemetry.map(|span_retention| {
            TelemetryRuntime::with_recorder(Arc::clone(device.metrics()), span_retention, promotion)
        });
        let policies = LayerPolicies {
            telemetry,
            cache: self.cache,
            overload: self.overload,
            journal: self.journal,
            resilience: self.resilience,
        };
        Mobivine {
            layers: Layers::new(policies),
            platform: plane.platform_id(),
            catalog: plane.catalog(),
            resolved: ResolutionCache::default(),
            plane,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mobivine_android::{AndroidPlatform, SdkVersion};
    use mobivine_s60::S60Platform;
    use mobivine_webview::WebView;

    fn android_runtime() -> Mobivine {
        let platform = AndroidPlatform::new(Device::builder().build(), SdkVersion::M5Rc15);
        Mobivine::for_android(platform.new_context())
    }

    /// One runtime per platform over one device, each built with the
    /// options `configure` records.
    fn every_platform(configure: impl Fn(MobivineBuilder) -> MobivineBuilder) -> Vec<Mobivine> {
        let device = Device::builder().build();
        let android = AndroidPlatform::new(device.clone(), SdkVersion::M5Rc15);
        let webview = Arc::new(WebView::new(android.new_context()));
        let targets: [&dyn Fn(MobivineBuilder) -> MobivineBuilder; 3] = [
            &|b| b.android(android.new_context()),
            &|b| b.s60(S60Platform::new(device.clone())),
            &|b| b.webview(Arc::clone(&webview)),
        ];
        let build = |target: &dyn Fn(MobivineBuilder) -> MobivineBuilder| {
            target(configure(Mobivine::builder())).build().unwrap()
        };
        targets.into_iter().map(build).collect()
    }

    #[test]
    fn android_supports_all_paper_interfaces() {
        let runtime = android_runtime();
        for interface in ["Location", "SMS", "Call", "Http", "Contacts", "Calendar"] {
            assert!(runtime.supports(interface), "{interface}");
        }
        assert!(runtime.proxy::<dyn LocationProxy>().is_ok());
        assert!(runtime.proxy::<dyn SmsProxy>().is_ok());
        assert!(runtime.proxy::<dyn CallProxy>().is_ok());
        assert!(runtime.proxy::<dyn HttpProxy>().is_ok());
        assert!(runtime.proxy::<dyn ContactsProxy>().is_ok());
        assert!(runtime.proxy::<dyn CalendarProxy>().is_ok());
    }

    #[test]
    fn s60_has_no_call_proxy() {
        let runtime = Mobivine::for_s60(S60Platform::new(Device::builder().build()));
        assert!(!runtime.supports("Call"));
        assert!(!runtime.supports_kind(ProxyKind::Call));
        let err = match runtime.proxy::<dyn CallProxy>() {
            Err(err) => err,
            Ok(_) => panic!("call proxy must not exist on S60"),
        };
        assert_eq!(err.kind(), ProxyErrorKind::UnsupportedOnPlatform);
        assert!(runtime.proxy::<dyn LocationProxy>().is_ok());
        assert!(runtime.proxy::<dyn SmsProxy>().is_ok());
        assert!(runtime.proxy::<dyn HttpProxy>().is_ok());
    }

    #[test]
    fn webview_runtime_installs_wrappers() {
        let platform = AndroidPlatform::new(Device::builder().build(), SdkVersion::M5Rc15);
        let webview = Arc::new(WebView::new(platform.new_context()));
        let runtime = Mobivine::for_webview(Arc::clone(&webview));
        assert_eq!(webview.interface_names().len(), 4);
        assert!(runtime.proxy::<dyn LocationProxy>().is_ok());
        assert!(runtime.proxy::<dyn CallProxy>().is_ok());
        assert!(runtime.proxy::<dyn ContactsProxy>().is_err());
    }

    #[test]
    fn platform_ids_reported() {
        assert_eq!(android_runtime().platform_id(), PlatformId::Android);
        assert_eq!(
            Mobivine::for_s60(S60Platform::new(Device::builder().build())).platform_id(),
            PlatformId::NokiaS60
        );
    }

    #[test]
    fn catalog_is_the_standard_one() {
        assert_eq!(android_runtime().catalog().len(), 6);
    }

    #[test]
    fn proxy_kind_names_cover_the_catalog() {
        let runtime = android_runtime();
        for kind in ProxyKind::ALL {
            assert!(
                runtime.catalog().iter().any(|d| d.name == kind.interface()),
                "catalog names {kind}"
            );
        }
    }

    #[test]
    fn resolution_is_memoized_per_kind() {
        let runtime = android_runtime();
        let first = runtime.proxy::<dyn LocationProxy>().unwrap();
        let second = runtime.proxy::<dyn LocationProxy>().unwrap();
        assert!(Arc::ptr_eq(&first, &second), "same cached instance");
        // Distinct runtimes have distinct caches.
        let other = android_runtime().proxy::<dyn LocationProxy>().unwrap();
        assert!(!Arc::ptr_eq(&first, &other));
    }

    #[test]
    fn failed_resolution_is_not_cached() {
        let runtime = Mobivine::for_s60(S60Platform::new(Device::builder().build()));
        assert!(runtime.proxy::<dyn CallProxy>().is_err());
        assert_eq!(runtime.resolved.resolved_count(), 0);
        assert!(runtime.proxy::<dyn CallProxy>().is_err());
    }

    #[test]
    fn warm_resolves_every_supported_kind() {
        let runtime = android_runtime();
        assert_eq!(runtime.warm().unwrap(), 6);
        assert_eq!(runtime.resolved.resolved_count(), 6);

        let s60 = Mobivine::for_s60(S60Platform::new(Device::builder().build()));
        assert_eq!(s60.warm().unwrap(), 5, "everything but Call");
    }

    #[test]
    fn with_resilience_pre_wraps_proxies_on_every_platform() {
        for runtime in every_platform(|b| b.with_resilience(ResiliencePolicy::default())) {
            let metrics = runtime.resilience_metrics().expect("metrics installed");
            let location = runtime.proxy::<dyn LocationProxy>().unwrap();
            // The call counts in the layer's metrics — proof the
            // decorator is in front on this platform.
            let _ = location.get_location();
            assert_eq!(
                metrics.snapshot().calls,
                1,
                "call flowed through the decorator on {:?}",
                runtime.platform_id()
            );
            assert!(runtime.proxy::<dyn SmsProxy>().is_ok());
            assert!(runtime.proxy::<dyn HttpProxy>().is_ok());
        }
    }

    #[test]
    fn runtime_without_resilience_reports_no_metrics() {
        assert!(android_runtime().resilience_metrics().is_none());
        assert!(android_runtime().overload_metrics().is_none());
    }

    #[test]
    fn with_overload_pre_wraps_proxies_on_every_platform() {
        for runtime in every_platform(|b| b.with_overload(OverloadPolicy::default())) {
            let metrics = runtime.overload_metrics().expect("metrics installed");
            let location = runtime.proxy::<dyn LocationProxy>().unwrap();
            // The call passes the layer's gate — proof the decorator is
            // in front on this platform.
            let _ = location.get_location();
            assert_eq!(
                metrics.snapshot().admitted,
                1,
                "call was admitted through the gate on {:?}",
                runtime.platform_id()
            );
            assert!(runtime.proxy::<dyn SmsProxy>().is_ok());
            assert!(runtime.proxy::<dyn HttpProxy>().is_ok());
        }
    }

    #[test]
    fn overload_sits_outside_resilience_and_homes_on_the_telemetry_registry() {
        let builder_runtime = Mobivine::builder()
            .with_telemetry()
            .with_resilience(ResiliencePolicy::default())
            .with_overload(OverloadPolicy::default())
            .android(
                AndroidPlatform::new(Device::builder().build(), SdkVersion::M5Rc15).new_context(),
            )
            .build()
            .unwrap();
        let overload = builder_runtime.overload_metrics().expect("overload");
        let resilience = builder_runtime.resilience_metrics().expect("resilience");
        let location = builder_runtime.proxy::<dyn LocationProxy>().unwrap();
        let _ = location.get_location();
        // One call traverses admission first, then the retry engine.
        assert_eq!(overload.snapshot().admitted, 1);
        assert_eq!(resilience.snapshot().calls, 1);
        let exposition = builder_runtime
            .telemetry_metrics()
            .expect("telemetry registry")
            .render_prometheus();
        assert!(
            exposition.contains("overload_admitted_total"),
            "overload series on the telemetry registry:\n{exposition}"
        );
    }

    #[test]
    fn builder_composes_in_any_order() {
        // Separate devices: resilience counters land on each device's
        // own telemetry registry, so the assertions don't alias.
        let option_first = Mobivine::builder()
            .with_telemetry()
            .with_resilience(ResiliencePolicy::default())
            .android(
                AndroidPlatform::new(Device::builder().build(), SdkVersion::M5Rc15).new_context(),
            )
            .build()
            .unwrap();
        let platform_first = Mobivine::builder()
            .android(
                AndroidPlatform::new(Device::builder().build(), SdkVersion::M5Rc15).new_context(),
            )
            .with_resilience(ResiliencePolicy::default())
            .with_telemetry()
            .build()
            .unwrap();

        for runtime in [option_first, platform_first] {
            assert!(runtime.tracer().is_some());
            let metrics = runtime.resilience_metrics().expect("resilience installed");
            let location = runtime.proxy::<dyn LocationProxy>().unwrap();
            let _ = location.get_location();
            assert_eq!(metrics.snapshot().calls, 1);
            // Resilience counters are homed on the telemetry registry
            // regardless of builder-call order.
            let exposition = runtime
                .telemetry_metrics()
                .expect("telemetry registry")
                .render_prometheus();
            assert!(
                exposition.contains("resilience"),
                "resilience series on the telemetry registry:\n{exposition}"
            );
        }
    }

    #[test]
    fn incidents_are_reachable_in_any_builder_order() {
        let context =
            || AndroidPlatform::new(Device::builder().build(), SdkVersion::M5Rc15).new_context();
        let telemetry_first = Mobivine::builder()
            .with_telemetry()
            .android(context())
            .build()
            .unwrap();
        let platform_first = Mobivine::builder()
            .android(context())
            .with_telemetry()
            .build()
            .unwrap();

        for runtime in [telemetry_first, platform_first] {
            let location = runtime.proxy::<dyn LocationProxy>().unwrap();
            location.get_location().unwrap();
            assert!(runtime.incidents().expect("incident store").is_empty());
        }
    }

    #[test]
    fn builder_without_platform_is_an_error() {
        let err = match Mobivine::builder().with_telemetry().build() {
            Err(err) => err,
            Ok(_) => panic!("platformless build must fail"),
        };
        assert_eq!(err.kind(), ProxyErrorKind::IllegalArgument);
    }

    #[test]
    fn runtimes_share_one_catalog_and_proxies_one_binding_plane() {
        use crate::android::AndroidLocationProxy;
        use crate::property::PropertyBag;
        use crate::s60::S60SmsProxy;
        use crate::webview::{install_wrappers, WebViewHttpProxy};

        let shared = mobivine_proxydl::catalog::standard();
        for runtime in every_platform(|b| b) {
            assert!(std::ptr::eq(runtime.catalog().as_ptr(), shared.as_ptr()));
        }

        // Two devices' proxies of one kind point at one binding plane.
        let (device, other) = (Device::builder().build(), Device::builder().build());
        let page = |device: &Device| {
            let webview = WebView::new(
                AndroidPlatform::new(device.clone(), SdkVersion::M5Rc15).new_context(),
            );
            install_wrappers(&webview);
            webview
        };
        let (webview, other_webview) = (page(&device), page(&other));
        let same = |a: &PropertyBag, b: &PropertyBag| Arc::ptr_eq(a.binding(), b.binding());
        assert!(same(
            &AndroidLocationProxy::new().properties,
            &AndroidLocationProxy::new().properties
        ));
        assert!(same(
            &S60SmsProxy::new(S60Platform::new(device)).properties,
            &S60SmsProxy::new(S60Platform::new(other)).properties
        ));
        assert!(same(
            &WebViewHttpProxy::new(&webview).unwrap().core.properties,
            &WebViewHttpProxy::new(&other_webview)
                .unwrap()
                .core
                .properties
        ));
    }

    #[test]
    fn with_cache_serves_the_second_read_without_binding_work() {
        for runtime in every_platform(|b| b.with_cache(CachePolicy::default())) {
            let metrics = runtime.cache_metrics().expect("metrics installed");
            let location = runtime.proxy::<dyn LocationProxy>().unwrap();
            location.get_location().unwrap();
            location.get_location().unwrap();
            let snap = metrics.snapshot();
            assert_eq!(
                (snap.miss, snap.hit),
                (1, 1),
                "second read served hot on {:?}",
                runtime.platform_id()
            );
        }
    }

    #[test]
    fn with_journal_dedups_sms_and_stamps_http_urls() {
        use crate::journal::{with_idempotency_key, IdempotencyKey, JournalPolicy};

        let device = Device::builder().build();
        let platform = AndroidPlatform::new(device.clone(), SdkVersion::M5Rc15);
        let runtime = Mobivine::builder()
            .with_resilience(ResiliencePolicy::default())
            .with_journal(JournalPolicy::default())
            .android(platform.new_context())
            .build()
            .unwrap();
        let metrics = runtime.journal_metrics().expect("journal installed");
        let resilience = runtime.resilience_metrics().expect("resilience installed");
        let sms = runtime.proxy::<dyn SmsProxy>().unwrap();

        let key = IdempotencyKey::derive(7, 1, 1, 0);
        let first = with_idempotency_key(key, || sms.send_text_message("100", "hi", None));
        let second = with_idempotency_key(key, || sms.send_text_message("100", "hi", None));
        let (first, second) = (first.unwrap(), second.unwrap());
        assert_eq!(first, second, "duplicate answered with the memoized id");
        let snap = metrics.snapshot();
        assert_eq!(
            (snap.appends, snap.fsyncs),
            (0, 0),
            "the client keeps no log"
        );
        assert_eq!(snap.already_applied, 1, "the duplicate was counted");
        assert_eq!(
            resilience.snapshot().calls,
            1,
            "the duplicate never reached the retry engine — Journaled sits outside Resilient"
        );

        // A fresh key is a fresh logical call.
        let other = IdempotencyKey::derive(7, 1, 2, 0);
        let third = with_idempotency_key(other, || sms.send_text_message("100", "hi", None));
        assert_ne!(first, third.unwrap());
        assert_eq!(metrics.snapshot().already_applied, 1);
    }

    #[test]
    fn journaled_http_carries_the_idempotency_key_on_the_wire() {
        use crate::journal::{with_idempotency_key, IdempotencyKey, JournalPolicy};
        use std::sync::Mutex;

        let device = Device::builder().build();
        let seen: Arc<Mutex<Vec<Option<String>>>> = Arc::new(Mutex::new(Vec::new()));
        let seen_by_route = Arc::clone(&seen);
        device.network().register_route(
            "backend.example",
            mobivine_device::net::Method::Post,
            "/submit",
            move |req: &mobivine_device::net::HttpRequest| {
                seen_by_route.lock().unwrap().push(req.url.query.clone());
                mobivine_device::net::HttpResponse::ok(b"{}".to_vec())
            },
        );
        let platform = AndroidPlatform::new(device, SdkVersion::M5Rc15);
        let runtime = Mobivine::builder()
            .with_journal(JournalPolicy::default())
            .android(platform.new_context())
            .build()
            .unwrap();
        let http = runtime.proxy::<dyn HttpProxy>().unwrap();

        let key = IdempotencyKey::derive(7, 2, 1, 0);
        let res = with_idempotency_key(key, || {
            http.request("POST", "http://backend.example/submit", b"{}")
        })
        .unwrap();
        assert!(res.is_success());
        // Keyless requests stay unstamped.
        http.request("POST", "http://backend.example/submit", b"{}")
            .unwrap();
        let queries = seen.lock().unwrap().clone();
        assert_eq!(
            queries,
            vec![Some(format!("idem={}", key.to_hex())), None],
            "the key travels as the idem query parameter"
        );
    }

    /// Pins the canonical decorator layering,
    /// `Traced(Proxy) → Cached → Overload → Resilient →
    /// Traced(Binding)`, for every wiring order: a cache hit must cost
    /// no admission (Cached outside Overload), a miss must pass the
    /// gate exactly once, and the cache counters must land on the
    /// telemetry registry whichever call came first.
    #[test]
    fn decorator_layering_is_canonical_regardless_of_wiring_order() {
        let runtime_for = |n: usize| {
            let ctx =
                AndroidPlatform::new(Device::builder().build(), SdkVersion::M5Rc15).new_context();
            match n {
                // Builder, options before platform.
                0 => Mobivine::builder()
                    .with_cache(CachePolicy::default())
                    .with_overload(OverloadPolicy::default())
                    .with_resilience(ResiliencePolicy::default())
                    .with_telemetry()
                    .android(ctx)
                    .build()
                    .unwrap(),
                // Builder, reversed option order.
                1 => Mobivine::builder()
                    .android(ctx)
                    .with_telemetry()
                    .with_resilience(ResiliencePolicy::default())
                    .with_overload(OverloadPolicy::default())
                    .with_cache(CachePolicy::default())
                    .build()
                    .unwrap(),
                // Platform between the options, telemetry last.
                _ => Mobivine::builder()
                    .with_cache(CachePolicy::default())
                    .with_overload(OverloadPolicy::default())
                    .android(ctx)
                    .with_resilience(ResiliencePolicy::default())
                    .with_telemetry()
                    .build()
                    .unwrap(),
            }
        };
        for n in 0..3 {
            let runtime = runtime_for(n);
            let cache = runtime.cache_metrics().expect("cache installed");
            let overload = runtime.overload_metrics().expect("overload installed");
            let resilience = runtime.resilience_metrics().expect("resilience installed");
            let location = runtime.proxy::<dyn LocationProxy>().unwrap();
            location.get_location().unwrap();
            location.get_location().unwrap();
            let (c, o, r) = (cache.snapshot(), overload.snapshot(), resilience.snapshot());
            assert_eq!((c.miss, c.hit), (1, 1), "order {n}: one fill, one hit");
            assert_eq!(
                o.admitted, 1,
                "order {n}: the hit bypassed admission — Cached sits outside Overload"
            );
            assert_eq!(
                r.calls, 1,
                "order {n}: the hit spent no retry budget — Cached sits outside Resilient"
            );
            let exposition = runtime
                .telemetry_metrics()
                .expect("telemetry registry")
                .render_prometheus();
            assert!(
                exposition.contains("cache_hit_total"),
                "order {n}: cache series homed on the telemetry registry:\n{exposition}"
            );
        }
    }
}
