//! The layer stack: one declared order, one pipeline, one layered
//! decorator per uniform interface.
//!
//! MobiVine's claim is that one uniform proxy layer sits over
//! fragmented platforms and that a new platform needs only a new
//! binding plane (§3.3–§4). The policy layers keep that claim by being
//! written once each, as an engine with the shape `execute(method,
//! next)`, and run by one generic pipeline in the order [`ORDER`]
//! declares, outermost first:
//!
//! ```text
//! TraceProxy → Cache → Overload → Journal → Resilience → TraceBinding → binding
//! ```
//!
//! Each uniform interface has one layered decorator whose methods are
//! one-line `Stack::run` calls carrying a static [`CallMeta`]. What
//! really differs per interface — the location fallback and degrade
//! tiers, the HTTP droppable-path degrade, the SMS dedup memo, the HTTP
//! `?idem=` rewrite and the cache cells — are typed hooks on that
//! decorator. The layers are a closed enum walked by one generic
//! function, not `dyn` objects: a layer method generic over the reply
//! type is not object-safe, and erasing the reply type would cost a
//! heap allocation per call on a path pinned at zero. DESIGN.md §16
//! ("Layer stack") has the full tables.

use std::borrow::Cow;
use std::hash::Hash;
use std::sync::Arc;

use parking_lot::Mutex;

use mobivine_device::Device;
use mobivine_telemetry::span::Plane;
use mobivine_telemetry::MetricsRegistry;

use crate::api::{
    CalendarProxy, CallProxy, ContactsProxy, HttpProxy, LocationProxy, ProxyBase, SmsProxy,
};
use crate::cache::{ttl_for, CacheCell, CacheEngine, CacheMetrics};
use crate::error::ProxyError;
use crate::journal::{
    current_idempotency_key, url_with_idempotency_key, JournalEngine, JournalMetrics,
};
use crate::overload::{OverloadEngine, OverloadMetrics, OverloadPolicy};
use crate::property::PropertyValue;
use crate::registry::ProxyApi;
use crate::resilience::{FailureMode, ResilienceEngine, ResilienceMetrics, ResiliencePolicy};
use crate::telemetry::{Instrument, TelemetryRuntime};
use crate::types::{
    CalendarRecord, CallProgress, ContactRecord, DeliveryListener, HttpResult, Location,
    SharedProximityListener,
};

/// What every layer and every binding call returns.
type Reply<T> = Result<T, ProxyError>;

/// The rest of the descent below a layer.
type Next<'a, T> = &'a dyn Fn() -> Reply<T>;

// ---------------------------------------------------------------------
// The declared order
// ---------------------------------------------------------------------

/// One policy layer of the stack, each turned on by a
/// [`crate::registry::MobivineBuilder`] `with_*` option.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum Layer {
    /// The proxy-plane trace: a span, call/error counters and the
    /// latency histogram per uniform call (`with_telemetry`).
    TraceProxy,
    /// The read-through cache (`with_cache`).
    Cache,
    /// Deadline fail-fast, bulkhead and admission control
    /// (`with_overload`).
    Overload,
    /// Idempotency keys on the wire and the SMS memo
    /// (`with_journal`).
    Journal,
    /// Retries, circuit breaker and fallbacks (`with_resilience`).
    Resilience,
    /// The binding-plane trace: a span per attempt that reaches the
    /// binding (`with_telemetry`).
    TraceBinding,
}

/// The canonical layer order, outermost first. Calls descend it and
/// every proxy's engines are built from it.
pub(crate) const ORDER: [Layer; 6] = [
    Layer::TraceProxy,
    Layer::Cache,
    Layer::Overload,
    Layer::Journal,
    Layer::Resilience,
    Layer::TraceBinding,
];

/// The static description of one uniform method: its metric labels,
/// its span names, and which of its proxy's layers it passes through.
/// Both trace planes see every method.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct CallMeta {
    /// The catalog interface name (`"Location"`) — the `proxy` label.
    pub(crate) proxy: &'static str,
    /// The uniform method name (`"getLocation"`) — the `method` label.
    pub(crate) method: &'static str,
    /// The method's position in its interface's [`Interface::METHODS`]
    /// table, where the proxy plane keeps its per-method handles.
    pub(crate) index: usize,
    /// The span each layer opens for this method.
    pub(crate) spans: SpanNames,
    /// Passes through overload and resilience. Bookkeeping on an
    /// existing registration or call is never shed and never retried —
    /// hanging up is how load drains.
    gated: bool,
    /// Served through the cache layer (idempotent reads only).
    cached: bool,
    /// A mutation: it passes through the journal layer, which keys it
    /// for exactly-once.
    mutating: bool,
}

/// The names of the spans one uniform method opens, one per layer that
/// traces it. They are fixed at compile time by [`call_meta!`], so
/// wiring a proxy formats nothing and a traced call copies pointers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct SpanNames {
    /// `proxy:<Proxy>.<method>`, the proxy-plane trace.
    pub(crate) proxy: &'static str,
    /// `binding:<Proxy>.<method>`, the binding-plane trace.
    pub(crate) binding: &'static str,
    /// `cache:<method>`.
    pub(crate) cache: &'static str,
    /// `overload:<method>`.
    pub(crate) overload: &'static str,
    /// `resilience:<method>`.
    pub(crate) resilience: &'static str,
}

/// The [`CallMeta`] of a gated method sitting at `$index` in its
/// interface's `METHODS` table, with every span name spelled out at
/// compile time.
macro_rules! call_meta {
    ($index:literal, $proxy:literal, $method:literal) => {
        CallMeta {
            proxy: $proxy,
            method: $method,
            index: $index,
            spans: SpanNames {
                proxy: concat!("proxy:", $proxy, ".", $method),
                binding: concat!("binding:", $proxy, ".", $method),
                cache: concat!("cache:", $method),
                overload: concat!("overload:", $method),
                resilience: concat!("resilience:", $method),
            },
            gated: true,
            cached: false,
            mutating: false,
        }
    };
}

impl CallMeta {
    /// The same method, bypassing overload and resilience.
    const fn ungated(self) -> Self {
        Self {
            gated: false,
            ..self
        }
    }

    /// The same method, served through the cache layer.
    const fn cached(self) -> Self {
        Self {
            cached: true,
            ..self
        }
    }

    /// The same method, journaled as a mutation.
    const fn mutating(self) -> Self {
        Self {
            mutating: true,
            ..self
        }
    }
}

/// An interface's `METHODS` table, checked at compile time: each
/// method sits at the index its [`CallMeta`] carries, so the proxy
/// plane's per-method lookup is one bounds-checked index.
const fn indexed(methods: &'static [CallMeta]) -> &'static [CallMeta] {
    let mut i = 0;
    while i < methods.len() {
        assert!(
            methods[i].index == i,
            "a CallMeta's index must be its position in METHODS"
        );
        i += 1;
    }
    methods
}

// ---------------------------------------------------------------------
// Runtime-wide wiring
// ---------------------------------------------------------------------

/// What the builder recorded: one slot per layer, `None` = off. The
/// cache and journal layers have no knob, so their slots are switches.
#[derive(Default)]
pub(crate) struct LayerPolicies {
    pub(crate) telemetry: Option<TelemetryRuntime>,
    pub(crate) cache: bool,
    pub(crate) overload: Option<OverloadPolicy>,
    pub(crate) journal: bool,
    pub(crate) resilience: Option<ResiliencePolicy>,
}

/// A runtime's enabled layers: the recorded policies plus the shared
/// counter blocks and the one journal engine built from them. Each
/// proxy's [`Stack`] reports into these; its breaker, bulkhead,
/// admission controller and cache cells are its own.
pub(crate) struct Layers {
    pub(crate) policies: LayerPolicies,
    pub(crate) cache: Option<Arc<CacheMetrics>>,
    pub(crate) overload: Option<Arc<OverloadMetrics>>,
    pub(crate) journal: Option<Arc<JournalEngine>>,
    pub(crate) resilience: Option<Arc<ResilienceMetrics>>,
}

impl Layers {
    /// The one place the counter blocks and the journal engine are
    /// built, once per runtime: on the telemetry registry when tracing
    /// is on (one exporter covers the whole call path), private
    /// otherwise.
    pub(crate) fn new(policies: LayerPolicies) -> Self {
        let registry = policies.telemetry.as_ref().map(TelemetryRuntime::metrics);
        Self {
            cache: policies
                .cache
                .then(|| home(registry, CacheMetrics::on_registry)),
            overload: (policies.overload.as_ref())
                .map(|_| home(registry, OverloadMetrics::on_registry)),
            journal: policies.journal.then(|| {
                Arc::new(JournalEngine::new(home(
                    registry,
                    JournalMetrics::on_registry,
                )))
            }),
            resilience: (policies.resilience.as_ref())
                .map(|_| home(registry, ResilienceMetrics::on_registry)),
            policies,
        }
    }
}

/// A counter block on `registry` when there is one, else a private one.
fn home<M: Default>(
    registry: Option<&Arc<MetricsRegistry>>,
    on_registry: fn(&Arc<MetricsRegistry>) -> Arc<M>,
) -> Arc<M> {
    registry.map_or_else(|| Arc::new(M::default()), on_registry)
}

// ---------------------------------------------------------------------
// One proxy's stack
// ---------------------------------------------------------------------

/// One proxy's engines: a slot per layer of [`ORDER`], `None` when the
/// layer is off or does not wrap this proxy's kind.
#[derive(Default)]
pub(crate) struct Stack {
    /// The layers with an engine, in declared order: a call descends
    /// only these, so a layer that is off costs nothing per call.
    enabled: [Option<Layer>; ORDER.len()],
    pub(crate) trace_proxy: Option<Instrument>,
    pub(crate) cache: Option<CacheEngine>,
    pub(crate) overload: Option<OverloadEngine>,
    pub(crate) journal: Option<Arc<JournalEngine>>,
    pub(crate) resilience: Option<ResilienceEngine>,
    pub(crate) trace_binding: Option<Instrument>,
}

impl Stack {
    /// Builds the engines `layers` enables for a proxy of interface `P`
    /// — innermost first, so the cache can stamp its entries with this
    /// proxy's own breaker epoch. `None` when no layer wraps it.
    fn new<P: ?Sized + Interface>(
        layers: &Layers,
        device: &Device,
        platform: &str,
    ) -> Option<Self> {
        let policies = &layers.policies;
        // A layer wraps the interface when one of its methods passes
        // through it: the cache a cached read, the journal a mutation,
        // every other layer a gated method — so the PIM extensions get
        // nothing but the cache.
        let wraps = |layer: &Layer| {
            P::METHODS.iter().any(|meta| match layer {
                Layer::Cache => meta.cached,
                Layer::Journal => meta.mutating,
                _ => meta.gated,
            })
        };
        let trace = |plane| {
            let telemetry = policies.telemetry.as_ref();
            telemetry.map(|t| Instrument::new(device.clone(), t, plane, P::METHODS, platform))
        };
        let mut stack = Stack::default();
        for layer in ORDER.into_iter().rev().filter(wraps) {
            match layer {
                Layer::TraceBinding => stack.trace_binding = trace(Plane::Binding),
                Layer::Resilience => {
                    let enabled = policies.resilience.zip(layers.resilience.clone());
                    stack.resilience = enabled.map(|(policy, metrics)| {
                        ResilienceEngine::new(device.clone(), policy, metrics)
                    });
                }
                Layer::Journal => stack.journal = layers.journal.clone(),
                Layer::Overload => {
                    let enabled = policies.overload.zip(layers.overload.clone());
                    stack.overload = enabled.map(|(policy, metrics)| {
                        OverloadEngine::new(device.clone(), policy, metrics)
                    });
                }
                Layer::Cache => {
                    let epoch = stack.resilience.as_ref().map(|r| r.breaker.epoch_handle());
                    stack.cache = layers.cache.clone().map(|metrics| {
                        CacheEngine::new(device.clone(), ttl_for(P::KIND), epoch, metrics)
                    });
                }
                Layer::TraceProxy => stack.trace_proxy = trace(Plane::Proxy),
            }
        }
        let built = |layer: &Layer| match layer {
            Layer::TraceProxy => stack.trace_proxy.is_some(),
            Layer::Cache => stack.cache.is_some(),
            Layer::Overload => stack.overload.is_some(),
            Layer::Journal => stack.journal.is_some(),
            Layer::Resilience => stack.resilience.is_some(),
            Layer::TraceBinding => stack.trace_binding.is_some(),
        };
        let mut enabled = ORDER.into_iter().filter(built);
        let enabled = std::array::from_fn(|_| enabled.next());
        stack.enabled = enabled;
        stack.enabled[0].is_some().then_some(stack)
    }

    /// Runs one uniform call down the declared order: each enabled layer
    /// the method passes through wraps the rest of the descent, and
    /// `call` — the binding invocation — runs at the bottom.
    pub(crate) fn run<T>(&self, meta: &CallMeta, hooks: &dyn Hooks<T>, call: Next<T>) -> Reply<T> {
        self.descend(0, meta, hooks, call)
    }

    fn descend<T>(
        &self,
        depth: usize,
        meta: &CallMeta,
        hooks: &dyn Hooks<T>,
        call: Next<T>,
    ) -> Reply<T> {
        let Some(Some(layer)) = self.enabled.get(depth) else {
            return call();
        };
        let next = || self.descend(depth + 1, meta, hooks, call);
        match layer {
            Layer::TraceProxy => match &self.trace_proxy {
                Some(instrument) => instrument.traced(meta, next),
                None => next(),
            },
            Layer::Cache => match &self.cache {
                Some(engine) if meta.cached => hooks.cache(engine, meta, &next),
                _ => next(),
            },
            Layer::Overload => match &self.overload {
                Some(engine) if meta.gated => hooks.overload(engine, engine.execute(meta, &next)),
                _ => next(),
            },
            Layer::Journal => match &self.journal {
                Some(engine) if meta.mutating => hooks.journal(engine, &next),
                _ => next(),
            },
            Layer::Resilience => match &self.resilience {
                Some(engine) if meta.gated => hooks.resilience(engine, engine.execute(meta, &next)),
                _ => next(),
            },
            Layer::TraceBinding => match &self.trace_binding {
                Some(instrument) => instrument.traced(meta, next),
                None => next(),
            },
        }
    }
}

// ---------------------------------------------------------------------
// Typed hooks
// ---------------------------------------------------------------------

/// An interface's typed behaviour at the layers whose work depends on
/// the reply type. Every default is the layer's plain pass-through; a
/// call with nothing interface-specific passes `&()`.
pub(crate) trait Hooks<T> {
    /// Cache layer: serve the read from its cell or fill it from below.
    fn cache(&self, _engine: &CacheEngine, _meta: &CallMeta, fill: Next<T>) -> Reply<T> {
        fill()
    }

    /// Overload layer: remember an admitted answer, or absorb a shed
    /// into a degraded one.
    fn overload(&self, _engine: &OverloadEngine, result: Reply<T>) -> Reply<T> {
        result
    }

    /// Journal layer: run the effect. The HTTP key travels in the URL
    /// (`wire_url`), so only a memoized interface does anything here.
    fn journal(&self, _engine: &JournalEngine, effect: Next<T>) -> Reply<T> {
        effect()
    }

    /// Resilience layer: remember a genuine success, or fall back after
    /// a degraded failure.
    fn resilience(&self, _engine: &ResilienceEngine, result: Result<T, FailureMode>) -> Reply<T> {
        result.map_err(FailureMode::into_error)
    }
}

impl<T> Hooks<T> for () {}

/// The cache hook of a read keyed by its arguments.
struct Keyed<'a, K, V>(&'a CacheCell<K, V>, K);

impl<K: Eq + Hash + Clone, V: Clone> Hooks<V> for Keyed<'_, K, V> {
    fn cache(&self, engine: &CacheEngine, meta: &CallMeta, fill: Next<V>) -> Reply<V> {
        self.0
            .get_or_fill(engine, meta.spans.cache, self.1.clone(), fill)
    }
}

// ---------------------------------------------------------------------
// The layered decorator
// ---------------------------------------------------------------------

/// A uniform interface the stack can wrap.
pub(crate) trait Interface: ProxyApi + ProxyBase {
    /// Every uniform method of the interface.
    const METHODS: &'static [CallMeta];
    /// The per-proxy state of the interface's typed hooks.
    type Memo: Default + Send + Sync;

    /// Erases the layered decorator to the uniform trait object.
    fn erase(layered: Layered<Self>) -> Arc<Self>;

    /// The cache layer's flush of the interface's cells.
    fn flush(_memo: &Self::Memo, _cache: &CacheEngine) {}
}

/// The one layered decorator of a uniform interface: the bare binding,
/// the proxy's [`Stack`] and the state of the interface's typed hooks.
pub(crate) struct Layered<P: ?Sized + Interface> {
    inner: Arc<P>,
    pub(crate) stack: Stack,
    memo: P::Memo,
}

impl<P: ?Sized + Interface> ProxyBase for Layered<P> {
    /// The cache flushes first, because a write is a mutation signal
    /// whether or not it lands; then the binding gets the key. No layer
    /// claims a key: each is configured once, by its builder policy.
    fn set_property(&self, key: &str, value: PropertyValue) -> Reply<()> {
        if let Some(engine) = &self.stack.cache {
            P::flush(&self.memo, engine);
        }
        self.inner.set_property(key, value)
    }
}

/// Wraps `binding` in every layer `layers` enables for its interface —
/// the registry's only construction path, so a new platform's binding
/// gets every layer with no layer code. With no layer enabled the bare
/// binding comes back untouched: a bare runtime pays nothing.
pub(crate) fn wrap<P: ?Sized + Interface>(
    binding: Arc<P>,
    layers: &Layers,
    device: &Device,
    platform: &str,
) -> Arc<P> {
    match Stack::new::<P>(layers, device, platform) {
        Some(stack) => P::erase(Layered {
            inner: binding,
            stack,
            memo: P::Memo::default(),
        }),
        None => binding,
    }
}

// ---- Location ----------------------------------------------------------

const ADD_PROXIMITY_ALERT: CallMeta = call_meta!(0, "Location", "addProximityAlert");
// Local bookkeeping: never shed, never retried.
const REMOVE_PROXIMITY_ALERT: CallMeta =
    call_meta!(1, "Location", "removeProximityAlert").ungated();
const GET_LOCATION: CallMeta = call_meta!(2, "Location", "getLocation").cached();
// The power ledger is monotonic: caching the pair would serve stale
// energy figures, so the multi-read always goes through.
const GET_LOCATION_WITH_POWER: CallMeta = call_meta!(3, "Location", "getLocationWithPower");

/// Per-proxy state of the Location hooks: the `getLocation` cache cell
/// and the two last-fix memories.
#[derive(Default)]
pub(crate) struct LocationMemo {
    cell: CacheCell<(), Location>,
    /// The last genuine success — the resilience fallback's first
    /// resort.
    resilience_fix: Mutex<Option<Location>>,
    /// Whatever resilience answered last, fallbacks included — what the
    /// overload degrade tiers serve.
    overload_fix: Mutex<Option<Location>>,
}

/// A Location reply: the fix alone, or the multi-read's fix and power.
trait Fix: Copy {
    fn fix(self) -> Location;

    /// A degraded or fallback answer. It carries no power figure: the
    /// ledger sits behind the platform call that did not happen.
    fn from_fix(fix: Location) -> Self;

    /// The cache layer; only the bare read is cached.
    fn cached(
        _memo: &LocationMemo,
        _engine: &CacheEngine,
        _meta: &CallMeta,
        fill: Next<Self>,
    ) -> Reply<Self> {
        fill()
    }
}

impl Fix for Location {
    fn fix(self) -> Location {
        self
    }

    fn from_fix(fix: Location) -> Self {
        fix
    }

    fn cached(
        memo: &LocationMemo,
        engine: &CacheEngine,
        meta: &CallMeta,
        fill: Next<Self>,
    ) -> Reply<Self> {
        memo.cell.get_or_fill(engine, meta.spans.cache, (), fill)
    }
}

impl Fix for (Location, f64) {
    fn fix(self) -> Location {
        self.0
    }

    fn from_fix(fix: Location) -> Self {
        (fix, 0.0)
    }
}

impl<T: Fix> Hooks<T> for LocationMemo {
    fn cache(&self, engine: &CacheEngine, meta: &CallMeta, fill: Next<T>) -> Reply<T> {
        T::cached(self, engine, meta, fill)
    }

    fn overload(&self, engine: &OverloadEngine, result: Reply<T>) -> Reply<T> {
        match result {
            Ok(reply) => {
                *self.overload_fix.lock() = Some(reply.fix());
                Ok(reply)
            }
            Err(shed) => engine
                .degrade_location(*self.overload_fix.lock(), shed)
                .map(T::from_fix),
        }
    }

    fn resilience(&self, engine: &ResilienceEngine, result: Result<T, FailureMode>) -> Reply<T> {
        match result {
            Ok(reply) => {
                *self.resilience_fix.lock() = Some(reply.fix());
                Ok(reply)
            }
            Err(failure) => engine
                .fallback_location(*self.resilience_fix.lock(), failure)
                .map(T::from_fix),
        }
    }
}

impl Interface for dyn LocationProxy {
    const METHODS: &'static [CallMeta] = indexed(&[
        ADD_PROXIMITY_ALERT,
        REMOVE_PROXIMITY_ALERT,
        GET_LOCATION,
        GET_LOCATION_WITH_POWER,
    ]);
    type Memo = LocationMemo;

    fn erase(layered: Layered<Self>) -> Arc<Self> {
        Arc::new(layered)
    }

    fn flush(memo: &LocationMemo, cache: &CacheEngine) {
        memo.cell.invalidate_all(cache);
    }
}

impl LocationProxy for Layered<dyn LocationProxy> {
    fn add_proximity_alert(
        &self,
        latitude: f64,
        longitude: f64,
        altitude: f64,
        radius: f64,
        timer_s: i64,
        listener: SharedProximityListener,
    ) -> Reply<()> {
        self.stack.run(&ADD_PROXIMITY_ALERT, &(), &|| {
            let listener = Arc::clone(&listener);
            self.inner
                .add_proximity_alert(latitude, longitude, altitude, radius, timer_s, listener)
        })
    }

    fn remove_proximity_alert(&self, listener: &SharedProximityListener) -> Reply<bool> {
        self.stack.run(&REMOVE_PROXIMITY_ALERT, &(), &|| {
            self.inner.remove_proximity_alert(listener)
        })
    }

    fn get_location(&self) -> Reply<Location> {
        self.stack
            .run(&GET_LOCATION, &self.memo, &|| self.inner.get_location())
    }

    fn get_location_with_power(&self) -> Reply<(Location, f64)> {
        self.stack.run(&GET_LOCATION_WITH_POWER, &self.memo, &|| {
            self.inner.get_location_with_power()
        })
    }
}

// ---- SMS ---------------------------------------------------------------

const SEND_TEXT_MESSAGE: CallMeta = call_meta!(0, "SMS", "sendTextMessage").mutating();

/// The SMS journal hook: a duplicate delivery (same ambient idempotency
/// key) is answered with the memoized message id instead of a second
/// radio effect, and a committed send is memoized.
struct SendText;

impl Hooks<u64> for SendText {
    fn journal(&self, engine: &JournalEngine, effect: Next<u64>) -> Reply<u64> {
        let key = current_idempotency_key();
        if let Some(id) = key.and_then(|key| engine.memoized_message(key)) {
            // Counted, not errored: the effect already committed once;
            // re-delivery observes the original outcome.
            engine.metrics().note_already_applied();
            return Ok(id);
        }
        let id = effect()?;
        if let Some(key) = key {
            engine.mark_applied(key, id);
        }
        Ok(id)
    }
}

impl Interface for dyn SmsProxy {
    const METHODS: &'static [CallMeta] = indexed(&[SEND_TEXT_MESSAGE]);
    type Memo = ();

    fn erase(layered: Layered<Self>) -> Arc<Self> {
        Arc::new(layered)
    }
}

impl SmsProxy for Layered<dyn SmsProxy> {
    fn send_text_message(
        &self,
        destination: &str,
        text: &str,
        delivery_listener: Option<Arc<dyn DeliveryListener>>,
    ) -> Reply<u64> {
        self.stack.run(&SEND_TEXT_MESSAGE, &SendText, &|| {
            self.inner
                .send_text_message(destination, text, delivery_listener.clone())
        })
    }
}

// ---- Call --------------------------------------------------------------

const MAKE_A_CALL: CallMeta = call_meta!(0, "Call", "makeACall");
// Both refer to an existing call id and must always go through.
const CALL_PROGRESS: CallMeta = call_meta!(1, "Call", "callProgress").ungated();
const END_CALL: CallMeta = call_meta!(2, "Call", "endCall").ungated();

impl Interface for dyn CallProxy {
    const METHODS: &'static [CallMeta] = indexed(&[MAKE_A_CALL, CALL_PROGRESS, END_CALL]);
    type Memo = ();

    fn erase(layered: Layered<Self>) -> Arc<Self> {
        Arc::new(layered)
    }
}

impl CallProxy for Layered<dyn CallProxy> {
    fn make_a_call(&self, number: &str) -> Reply<u64> {
        self.stack
            .run(&MAKE_A_CALL, &(), &|| self.inner.make_a_call(number))
    }

    fn call_progress(&self, call_id: u64) -> Reply<CallProgress> {
        self.stack
            .run(&CALL_PROGRESS, &(), &|| self.inner.call_progress(call_id))
    }

    fn end_call(&self, call_id: u64) -> Reply<()> {
        self.stack
            .run(&END_CALL, &(), &|| self.inner.end_call(call_id))
    }
}

// ---- HTTP --------------------------------------------------------------

const REQUEST: CallMeta = call_meta!(0, "Http", "request").mutating();

/// The HTTP hook of one request: the droppable-path degrade, keyed by
/// the URL the caller asked for.
struct Submit<'a> {
    url: &'a str,
}

impl Hooks<HttpResult> for Submit<'_> {
    fn overload(&self, engine: &OverloadEngine, result: Reply<HttpResult>) -> Reply<HttpResult> {
        result.or_else(|shed| engine.degrade_http(self.url, shed))
    }
}

impl Interface for dyn HttpProxy {
    const METHODS: &'static [CallMeta] = indexed(&[REQUEST]);
    type Memo = ();

    fn erase(layered: Layered<Self>) -> Arc<Self> {
        Arc::new(layered)
    }
}

impl Layered<dyn HttpProxy> {
    /// The `?idem=` rewrite: with the journal layer on, the ambient
    /// idempotency key travels to the server in the URL, so the
    /// server-side durability layer owns exactly-once. The client never
    /// suppresses an HTTP send — only the server knows whether the
    /// previous delivery committed.
    fn wire_url<'a>(&self, url: &'a str) -> Cow<'a, str> {
        match (&self.stack.journal, current_idempotency_key()) {
            (Some(_), Some(key)) => Cow::Owned(url_with_idempotency_key(url, key)),
            _ => Cow::Borrowed(url),
        }
    }
}

impl HttpProxy for Layered<dyn HttpProxy> {
    fn request(&self, method: &str, url: &str, body: &[u8]) -> Reply<HttpResult> {
        let wire = self.wire_url(url);
        self.stack.run(&REQUEST, &Submit { url }, &|| {
            self.inner.request(method, &wire, body)
        })
    }
}

// ---- PIM extensions ----------------------------------------------------

const FIND_CONTACTS: CallMeta = call_meta!(0, "Contacts", "findContacts").ungated().cached();
const ENTRIES_BETWEEN: CallMeta = call_meta!(0, "Calendar", "entriesBetween")
    .ungated()
    .cached();

impl Interface for dyn ContactsProxy {
    const METHODS: &'static [CallMeta] = indexed(&[FIND_CONTACTS]);
    type Memo = CacheCell<String, Vec<ContactRecord>>;

    fn erase(layered: Layered<Self>) -> Arc<Self> {
        Arc::new(layered)
    }

    fn flush(memo: &Self::Memo, cache: &CacheEngine) {
        memo.invalidate_all(cache);
    }
}

impl ContactsProxy for Layered<dyn ContactsProxy> {
    fn find_contacts(&self, query: &str) -> Reply<Vec<ContactRecord>> {
        let hooks = Keyed(&self.memo, query.to_owned());
        self.stack
            .run(&FIND_CONTACTS, &hooks, &|| self.inner.find_contacts(query))
    }
}

impl Interface for dyn CalendarProxy {
    const METHODS: &'static [CallMeta] = indexed(&[ENTRIES_BETWEEN]);
    type Memo = CacheCell<(u64, u64), Vec<CalendarRecord>>;

    fn erase(layered: Layered<Self>) -> Arc<Self> {
        Arc::new(layered)
    }

    fn flush(memo: &Self::Memo, cache: &CacheEngine) {
        memo.invalidate_all(cache);
    }
}

impl CalendarProxy for Layered<dyn CalendarProxy> {
    fn entries_between(&self, from_ms: u64, to_ms: u64) -> Reply<Vec<CalendarRecord>> {
        let hooks = Keyed(&self.memo, (from_ms, to_ms));
        self.stack.run(&ENTRIES_BETWEEN, &hooks, &|| {
            self.inner.entries_between(from_ms, to_ms)
        })
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    use crate::error::ProxyErrorKind;
    use crate::journal::{with_idempotency_key, IdempotencyKey, SMS_MEMO_WINDOW};
    use crate::registry::ProxyKind;
    use crate::types::ProximityEvent;

    /// The unerased decorator [`wrap`] would build, so unit tests can reach
    /// the proxy's engines.
    pub(crate) fn layered<P: ?Sized + Interface>(
        binding: Arc<P>,
        policies: LayerPolicies,
        device: &Device,
    ) -> Layered<P> {
        let layers = Layers::new(policies);
        Layered {
            inner: binding,
            stack: Stack::new::<P>(&layers, device, "test").expect("a layer is enabled"),
            memo: P::Memo::default(),
        }
    }

    /// The runtime's method table of `P` and the semantic plane of the
    /// standard descriptor its kind names: `(interface, runtime methods,
    /// described methods)`, each list sorted.
    fn method_lists<P: ?Sized + Interface>() -> (&'static str, Vec<String>, Vec<String>) {
        let interface = P::KIND.interface();
        let mut runtime: Vec<String> = P::METHODS
            .iter()
            .inspect(|meta| assert_eq!(meta.proxy, interface, "{}", meta.method))
            .map(|meta| meta.method.to_owned())
            .collect();
        let catalog = mobivine_proxydl::catalog::standard();
        let descriptor = catalog
            .iter()
            .find(|d| d.name == interface)
            .unwrap_or_else(|| panic!("no standard descriptor named {interface}"));
        let mut described: Vec<String> = (descriptor.semantic.methods.iter())
            .map(|m| m.name.clone())
            .collect();
        runtime.sort();
        described.sort();
        (interface, runtime, described)
    }

    /// M-Plugin generates calls from the catalog, so every method the
    /// runtime exposes must be described there, and every described
    /// method must be one the runtime serves.
    #[test]
    fn every_interface_serves_exactly_its_described_methods() {
        let lists = [
            method_lists::<dyn LocationProxy>(),
            method_lists::<dyn SmsProxy>(),
            method_lists::<dyn CallProxy>(),
            method_lists::<dyn HttpProxy>(),
            method_lists::<dyn ContactsProxy>(),
            method_lists::<dyn CalendarProxy>(),
        ];
        let walked: Vec<&str> = lists.iter().map(|(interface, ..)| *interface).collect();
        let every: Vec<&str> = ProxyKind::ALL.iter().map(ProxyKind::interface).collect();
        assert_eq!(walked, every, "one entry per proxy kind");
        for (interface, runtime, described) in lists {
            assert_eq!(runtime, described, "{interface}: runtime vs catalog");
        }
    }

    /// A new layer must also join the builder toggles of the
    /// layer-subset neutrality test (`tests/platform_plugin.rs`).
    #[test]
    fn the_declared_order_is_pinned() {
        assert_eq!(
            ORDER,
            [
                Layer::TraceProxy,
                Layer::Cache,
                Layer::Overload,
                Layer::Journal,
                Layer::Resilience,
                Layer::TraceBinding,
            ]
        );
    }

    /// Which layers wrap an interface follows from its methods: with
    /// every layer on, each proxy descends only the layers one of its
    /// methods passes through, in the declared order.
    #[test]
    fn each_interface_gets_the_layers_its_methods_need() {
        fn enabled<P: ?Sized + Interface>(layers: &Layers, device: &Device) -> Vec<Layer> {
            let stack = Stack::new::<P>(layers, device, "test").expect("a layer wraps it");
            stack.enabled.into_iter().flatten().collect()
        }
        let device = Device::builder().build();
        let layers = Layers::new(every_layer(&device));
        use Layer::{Cache, Journal, Overload, Resilience, TraceBinding, TraceProxy};
        let gated = [TraceProxy, Overload, Resilience, TraceBinding];
        let location = [TraceProxy, Cache, Overload, Resilience, TraceBinding];
        let mutating = [TraceProxy, Overload, Journal, Resilience, TraceBinding];
        assert_eq!(enabled::<dyn LocationProxy>(&layers, &device), location);
        assert_eq!(enabled::<dyn SmsProxy>(&layers, &device), mutating);
        assert_eq!(enabled::<dyn CallProxy>(&layers, &device), gated);
        assert_eq!(enabled::<dyn HttpProxy>(&layers, &device), mutating);
        assert_eq!(enabled::<dyn ContactsProxy>(&layers, &device), [Cache]);
        assert_eq!(enabled::<dyn CalendarProxy>(&layers, &device), [Cache]);
    }

    /// A binding for a platform the stack has never seen: its
    /// `getLocation` fails transiently while `failures` counts down.
    #[derive(Default)]
    struct Toy {
        failures: AtomicU64,
        calls: AtomicU64,
    }

    impl Toy {
        fn failing(failures: u64) -> Self {
            Self {
                failures: AtomicU64::new(failures),
                calls: AtomicU64::new(0),
            }
        }
    }

    impl ProxyBase for Toy {
        fn set_property(&self, _key: &str, _value: PropertyValue) -> Result<(), ProxyError> {
            Ok(())
        }
    }

    impl LocationProxy for Toy {
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
            self.calls.fetch_add(1, Ordering::Relaxed);
            let left = self.failures.load(Ordering::Relaxed);
            if left > 0 {
                self.failures.store(left - 1, Ordering::Relaxed);
                return Err(ProxyError::new(ProxyErrorKind::Unavailable, "no fix yet"));
            }
            Ok(Location {
                latitude: 1.0,
                longitude: 2.0,
                ..Location::default()
            })
        }
    }

    fn every_layer(device: &Device) -> LayerPolicies {
        LayerPolicies {
            telemetry: Some(TelemetryRuntime::new(Arc::clone(device.metrics()))),
            cache: true,
            overload: Some(OverloadPolicy::default()),
            journal: true,
            resilience: Some(ResiliencePolicy::default()),
        }
    }

    /// The paper's "new platform = new binding plane" claim: a binding
    /// with no layer code of its own, wrapped by the registry's
    /// construction function, receives every layer.
    #[test]
    fn a_new_binding_receives_every_layer_with_no_layer_code() {
        let device = Device::builder().build();
        let layers = Layers::new(every_layer(&device));
        let toy = Arc::new(Toy::failing(1));
        let proxy = wrap::<dyn LocationProxy>(toy.clone(), &layers, &device, "toy");

        let first = proxy.get_location().expect("retried past the cold start");
        let second = proxy.get_location().expect("served from the cache");
        assert_eq!(first, second);
        assert_eq!(
            toy.calls.load(Ordering::Relaxed),
            2,
            "the hit never reached it"
        );

        let resilience = layers.resilience.as_ref().unwrap().snapshot();
        assert_eq!((resilience.calls, resilience.retries), (1, 1));
        assert_eq!(layers.overload.as_ref().unwrap().snapshot().admitted, 1);
        let cache = layers.cache.as_ref().unwrap().snapshot();
        assert_eq!((cache.miss, cache.hit), (1, 1));
        let spans = layers
            .policies
            .telemetry
            .as_ref()
            .unwrap()
            .tracer()
            .finished();
        let planes = |plane| spans.iter().filter(|s| s.plane == plane).count();
        assert_eq!(planes(Plane::Proxy), 2, "one proxy-plane span per call");
        assert_eq!(planes(Plane::Binding), 2, "one binding span per attempt");
        assert!(spans
            .iter()
            .any(|s| s.plane == Plane::Proxy && s.name == "proxy:Location.getLocation"));
    }

    /// A call binding that always connects.
    struct ToyCall;

    impl ProxyBase for ToyCall {
        fn set_property(&self, _key: &str, _value: PropertyValue) -> Result<(), ProxyError> {
            Ok(())
        }
    }

    impl CallProxy for ToyCall {
        fn make_a_call(&self, _number: &str) -> Result<u64, ProxyError> {
            Ok(1)
        }

        fn call_progress(&self, _call_id: u64) -> Result<CallProgress, ProxyError> {
            Ok(CallProgress::Connected)
        }

        fn end_call(&self, _call_id: u64) -> Result<(), ProxyError> {
            Ok(())
        }
    }

    #[test]
    fn bypassed_methods_skip_their_layers_but_stay_traced() {
        let device = Device::builder().build();
        let layers = Layers::new(every_layer(&device));
        let location = wrap::<dyn LocationProxy>(Arc::new(Toy::default()), &layers, &device, "toy");
        let call = wrap::<dyn CallProxy>(Arc::new(ToyCall), &layers, &device, "toy");

        let listener: SharedProximityListener = Arc::new(|_: &ProximityEvent| {});
        assert!(location.remove_proximity_alert(&listener).unwrap());
        assert_eq!(call.call_progress(1).unwrap(), CallProgress::Connected);
        call.end_call(1).unwrap();
        let resilience = layers.resilience.as_ref().unwrap();
        let overload = layers.overload.as_ref().unwrap();
        assert_eq!(resilience.snapshot().calls, 0, "never retried");
        assert_eq!(overload.snapshot().admitted, 0, "never gated");

        location.get_location_with_power().unwrap();
        location.get_location_with_power().unwrap();
        let cache = layers.cache.as_ref().unwrap().snapshot();
        assert_eq!(
            (cache.hit, cache.miss),
            (0, 0),
            "the multi-read bypasses the cache"
        );
        assert_eq!(resilience.snapshot().calls, 2);
        assert_eq!(overload.snapshot().admitted, 2);

        let spans = layers
            .policies
            .telemetry
            .as_ref()
            .unwrap()
            .tracer()
            .finished();
        for method in ["removeProximityAlert", "callProgress", "endCall"] {
            let planes: Vec<Plane> = spans
                .iter()
                .filter(|s| s.name.ends_with(method))
                .map(|s| s.plane)
                .collect();
            assert_eq!(planes, [Plane::Binding, Plane::Proxy], "{method}");
        }
    }

    /// A binding recording every property key that reaches it.
    #[derive(Default)]
    struct Recorder {
        keys: Mutex<Vec<String>>,
    }

    impl ProxyBase for Recorder {
        fn set_property(&self, key: &str, _value: PropertyValue) -> Result<(), ProxyError> {
            self.keys.lock().push(key.to_owned());
            Ok(())
        }
    }

    impl LocationProxy for Recorder {
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
            Ok(Location::default())
        }
    }

    impl HttpProxy for Recorder {
        fn request(
            &self,
            _method: &str,
            _url: &str,
            _body: &[u8],
        ) -> Result<HttpResult, ProxyError> {
            Ok(HttpResult {
                status: 200,
                headers: Vec::new(),
                body: Vec::new(),
            })
        }
    }

    #[test]
    fn set_property_flushes_the_cache_and_forwards_every_key() {
        let device = Device::builder().build();
        let layers = Layers::new(every_layer(&device));
        let cache = Arc::clone(layers.cache.as_ref().unwrap());
        let binding = Arc::new(Recorder::default());
        let location = wrap::<dyn LocationProxy>(binding.clone(), &layers, &device, "test");
        let http = wrap::<dyn HttpProxy>(binding.clone(), &layers, &device, "test");
        let str = PropertyValue::str;

        // The cache flushes before forwarding any key, and no layer
        // claims one: a retired layer key reaches the binding too.
        location.get_location().unwrap();
        location.set_property("provider", str("gps")).unwrap();
        assert_eq!(cache.snapshot().invalidated, 1);
        location.get_location().unwrap();
        location
            .set_property("retry.max_attempts", PropertyValue::Int(4))
            .unwrap();
        assert_eq!(cache.snapshot().invalidated, 2);
        http.set_property("shed.droppable_path", str("/enrich"))
            .unwrap();
        http.set_property("timeout", str("5")).unwrap();
        assert_eq!(
            *binding.keys.lock(),
            [
                "provider",
                "retry.max_attempts",
                "shed.droppable_path",
                "timeout"
            ]
        );
    }

    /// The builder is the one way to configure a layer: a runtime built
    /// with every policy field off its default hands each engine exactly
    /// that policy. The cache has no policy fields; each cached proxy
    /// gets its kind's fixed TTL.
    #[test]
    fn every_builder_policy_field_reaches_its_engine() {
        use crate::api::{CalendarProxy, ContactsProxy};
        use crate::cache::CachePolicy;
        use crate::overload::DEGRADED_HTTP_STATUS;
        use crate::registry::Mobivine;
        use mobivine_android::{AndroidPlatform, SdkVersion};

        let overload = OverloadPolicy::default()
            .target_ms(99)
            .shed_seed(42)
            .droppable_path("/enrich");
        let resilience = ResiliencePolicy::default()
            .max_attempts(6)
            .backoff_base_ms(11)
            .deadline_ms(1_234)
            .jitter_seed(9)
            .circuit_threshold(2)
            .circuit_cooldown_ms(777)
            .fallback_position(1.5, 2.5);
        assert_ne!(overload, OverloadPolicy::default());
        assert_ne!(resilience, ResiliencePolicy::default());

        let device = Device::builder().build();
        let runtime = Mobivine::builder()
            .with_overload(overload)
            .with_resilience(resilience)
            .with_cache(CachePolicy::default())
            .android(AndroidPlatform::new(device.clone(), SdkVersion::M5Rc15).new_context())
            .build()
            .unwrap();
        let stack = |built: Option<Stack>| built.expect("a layer wraps it");
        let layers = &runtime.layers;

        let location = stack(Stack::new::<dyn LocationProxy>(layers, &device, "test"));
        let engine = location.overload.as_ref().unwrap();
        assert_eq!(engine.policy(), overload);
        assert_eq!(location.resilience.as_ref().unwrap().policy(), resilience);
        assert_eq!(location.cache.as_ref().unwrap().ttl_ms(), 10_000);
        for (built, ttl) in [
            (
                Stack::new::<dyn ContactsProxy>(layers, &device, "test"),
                60_000,
            ),
            (
                Stack::new::<dyn CalendarProxy>(layers, &device, "test"),
                60_000,
            ),
        ] {
            assert_eq!(stack(built).cache.expect("cached").ttl_ms(), ttl);
        }

        // The droppable path came with the policy: with every bulkhead
        // slot held, a droppable request degrades and any other sheds.
        let http = Layered::<dyn HttpProxy> {
            inner: Arc::new(Recorder::default()),
            stack: stack(Stack::new::<dyn HttpProxy>(layers, &device, "test")),
            memo: (),
        };
        let bulkhead = http.stack.overload.as_ref().unwrap().bulkhead();
        let slots: Vec<_> = (0..bulkhead.cap())
            .map_while(|_| bulkhead.try_acquire())
            .collect();
        assert_eq!(slots.len(), 32);
        let degraded = http
            .request("GET", "http://svc/enrich/profile", b"")
            .unwrap();
        assert_eq!(degraded.status, DEGRADED_HTTP_STATUS);
        let shed = http.request("GET", "http://svc/checkout", b"").unwrap_err();
        assert_eq!(shed.kind(), ProxyErrorKind::Overloaded);
    }

    /// A mutating binding that counts its effects: every send keys the
    /// radio and every request is recorded by URL. While `failures`
    /// counts down, each effect fails transiently.
    #[derive(Default)]
    struct Radio {
        failures: AtomicU64,
        sends: AtomicU64,
        urls: Mutex<Vec<String>>,
    }

    impl Radio {
        fn failing(failures: u64) -> Self {
            Self {
                failures: AtomicU64::new(failures),
                ..Self::default()
            }
        }

        fn blip(&self) -> Result<(), ProxyError> {
            let left = self.failures.load(Ordering::Relaxed);
            if left == 0 {
                return Ok(());
            }
            self.failures.store(left - 1, Ordering::Relaxed);
            Err(ProxyError::new(ProxyErrorKind::Io, "radio blip"))
        }

        fn sends(&self) -> u64 {
            self.sends.load(Ordering::Relaxed)
        }
    }

    impl ProxyBase for Radio {
        fn set_property(&self, _key: &str, _value: PropertyValue) -> Result<(), ProxyError> {
            Ok(())
        }
    }

    impl SmsProxy for Radio {
        fn send_text_message(
            &self,
            _destination: &str,
            _text: &str,
            _delivery_listener: Option<Arc<dyn DeliveryListener>>,
        ) -> Result<u64, ProxyError> {
            let id = self.sends.fetch_add(1, Ordering::Relaxed);
            self.blip().map(|()| id)
        }
    }

    impl HttpProxy for Radio {
        fn request(
            &self,
            _method: &str,
            url: &str,
            _body: &[u8],
        ) -> Result<HttpResult, ProxyError> {
            self.urls.lock().push(url.to_owned());
            self.blip().map(|()| HttpResult {
                status: 200,
                headers: Vec::new(),
                body: Vec::new(),
            })
        }
    }

    /// A send through the journal layer alone, under `key`.
    fn keyed_send(sms: &dyn SmsProxy, key: u64) -> u64 {
        with_idempotency_key(IdempotencyKey(key), || {
            sms.send_text_message("100", "hi", None)
        })
        .expect("the send commits")
    }

    /// `radio` behind a stack with only the journal layer, and its engine.
    fn journaled_sms(
        device: &Device,
        radio: &Arc<Radio>,
    ) -> (Arc<dyn SmsProxy>, Arc<JournalEngine>) {
        let layers = Layers::new(LayerPolicies {
            journal: true,
            ..LayerPolicies::default()
        });
        let journal = Arc::clone(layers.journal.as_ref().unwrap());
        (
            wrap::<dyn SmsProxy>(radio.clone(), &layers, device, "test"),
            journal,
        )
    }

    #[test]
    fn a_send_retried_by_resilience_makes_one_memo_entry() {
        let device = Device::builder().build();
        let layers = Layers::new(every_layer(&device));
        let journal = Arc::clone(layers.journal.as_ref().unwrap());
        let radio = Arc::new(Radio::failing(1));
        let sms = wrap::<dyn SmsProxy>(radio.clone(), &layers, &device, "test");

        let id = keyed_send(&*sms, 7);
        assert_eq!(radio.sends(), 2, "the send was retried");
        assert_eq!(journal.memo_len(), 1, "one logical send, one entry");
        assert_eq!(journal.memoized_message(IdempotencyKey(7)), Some(id));
    }

    #[test]
    fn a_duplicate_delivery_returns_the_memoized_id_without_a_second_effect() {
        let device = Device::builder().build();
        let layers = Layers::new(every_layer(&device));
        let journal = Arc::clone(layers.journal.as_ref().unwrap());
        let radio = Arc::new(Radio::default());
        let sms = wrap::<dyn SmsProxy>(radio.clone(), &layers, &device, "test");

        let first = keyed_send(&*sms, 7);
        let again = keyed_send(&*sms, 7);
        assert_eq!(again, first, "answered with the original id");
        assert_eq!(radio.sends(), 1, "the radio was keyed once");
        assert_eq!(journal.metrics().snapshot().already_applied, 1);
        // Without a key there is nothing to deduplicate against.
        sms.send_text_message("100", "hi", None).unwrap();
        assert_eq!(radio.sends(), 2);
        assert_eq!(journal.memo_len(), 1);
    }

    #[test]
    fn the_idem_key_is_stamped_once_across_retries() {
        let device = Device::builder().build();
        let layers = Layers::new(every_layer(&device));
        let radio = Arc::new(Radio::failing(2));
        let http = wrap::<dyn HttpProxy>(radio.clone(), &layers, &device, "test");

        let key = IdempotencyKey(0xabcd);
        with_idempotency_key(key, || http.request("POST", "http://h/p?a=1", b"{}")).unwrap();
        let stamped = format!("http://h/p?a=1&idem={}", key.to_hex());
        assert_eq!(
            *radio.urls.lock(),
            [stamped.as_str(); 3],
            "every attempt, one key"
        );
    }

    #[test]
    fn the_sms_memo_stays_flat_over_a_hundred_thousand_sends() {
        let device = Device::builder().build();
        let radio = Arc::new(Radio::default());
        let (sms, journal) = journaled_sms(&device, &radio);
        for key in 0..100_000 {
            keyed_send(&*sms, key);
            if (key + 1) % 10_000 == 0 {
                assert_eq!(
                    journal.memo_len(),
                    SMS_MEMO_WINDOW,
                    "after {} sends",
                    key + 1
                );
            }
        }
        assert_eq!(radio.sends(), 100_000, "every key is a fresh send");
    }

    #[test]
    fn a_re_delivery_inside_the_window_is_still_deduplicated() {
        let device = Device::builder().build();
        let radio = Arc::new(Radio::default());
        let (sms, _journal) = journaled_sms(&device, &radio);
        let window = SMS_MEMO_WINDOW as u64;

        let first = keyed_send(&*sms, 0);
        for key in 1..window {
            keyed_send(&*sms, key);
        }
        // Key 0 is the oldest of `window` memoized keys.
        assert_eq!(keyed_send(&*sms, 0), first);
        assert_eq!(radio.sends(), window, "the re-delivery sent nothing");
        // One more key pushes it out of the window: a re-delivery now
        // reaches the radio again.
        keyed_send(&*sms, window);
        assert_ne!(keyed_send(&*sms, 0), first);
        assert_eq!(radio.sends(), window + 2);
    }

    #[test]
    fn resilience_remembers_successes_and_overload_remembers_fallbacks() {
        let device = Device::builder().build();
        let toy = Arc::new(Toy::failing(u64::MAX));
        let policies = LayerPolicies {
            overload: Some(OverloadPolicy::default().target_ms(1)),
            resilience: Some(
                ResiliencePolicy::default()
                    .max_attempts(1)
                    .fallback_position(28.6, 77.2),
            ),
            ..LayerPolicies::default()
        };
        let proxy = layered::<dyn LocationProxy>(toy.clone(), policies, &device);
        let resilience = proxy.stack.resilience.as_ref().unwrap();
        let overload = proxy.stack.overload.as_ref().unwrap();

        // Dark from the start: both reads fall back to the default, so
        // resilience never memorized its own fallback.
        let fallback = proxy.get_location().unwrap();
        assert_eq!((fallback.latitude, fallback.longitude), (28.6, 77.2));
        proxy.get_location().unwrap();
        let snap = resilience.metrics.snapshot();
        assert_eq!((snap.fallback_default, snap.fallback_last_known), (2, 0));

        // Overload did memorize it: with the gate closed, a shed
        // degrades to the fallback fix.
        for _ in 0..100 {
            overload.admission().observe(10_000, 1);
        }
        let mut degraded = None;
        for _ in 0..200 {
            let fix = proxy.get_location().unwrap();
            if overload.metrics().snapshot().degraded > 0 {
                degraded = Some(fix);
                break;
            }
        }
        let degraded = degraded.expect("a closed gate sheds");
        assert_eq!((degraded.latitude, degraded.longitude), (28.6, 77.2));

        // A genuine success is what resilience falls back to next. The
        // reopened gate stays open: the toy answers within the target.
        overload.admission().reseed(0);
        toy.failures.store(0, Ordering::Relaxed);
        let genuine = proxy.get_location().unwrap();
        toy.failures.store(u64::MAX, Ordering::Relaxed);
        assert_eq!(proxy.get_location().unwrap(), genuine);
        assert_eq!(resilience.metrics.snapshot().fallback_last_known, 1);
    }
}
