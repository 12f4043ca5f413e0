//! Read-through result caching with single-flight coalescing for the
//! idempotent M-Proxy reads.
//!
//! Every `getLocation()` / `findContacts()` / `entriesBetween()` that
//! reaches the binding plane pays the full platform cost — and on the
//! WebView binding, a JavaScript bridge crossing on top. Yet those reads
//! are idempotent over short windows: the GPS engine interpolates the
//! same fix for the same instant, the contact store only changes when
//! something writes to it. This module is the cache layer of the
//! layer stack (`stack` module), between the proxy-plane trace and the overload
//! layer, providing:
//!
//! * a **read-through cache** — results are stored under a per-proxy
//!   TTL measured on the simulated clock, so expiry replays
//!   bit-identically run over run;
//! * **single-flight coalescing** — when an identical read is already
//!   in flight, late arrivals wait on the leader's result instead of
//!   issuing their own binding-plane invocation. The leader executes
//!   the fill *without holding any cache lock*, which keeps the scheme
//!   safe on the WebView binding where the fill crosses the JS bridge;
//! * **explicit invalidation** — a [`Stamp`] of three monotone epochs
//!   is recorded at fill time and compared on every read: the device's
//!   fault epoch (bumped by every
//!   [`FaultPlan`](mobivine_device::fault::FaultPlan) transition), the
//!   resilience circuit breaker's transition epoch, and a per-proxy
//!   generation bumped by `setProperty`. Any mismatch discards the
//!   entry before it can be served, so a stale read never survives a
//!   mutation.
//!
//! Writes (SMS send, calls, HTTP requests, `setProperty`) are never
//! cached; `setProperty` through a cached proxy invalidates before it
//! forwards. [`crate::registry::MobivineBuilder::with_cache`] turns the
//! layer on. It has no knobs: the TTLs are fixed at 10 s for location
//! fixes and 60 s for contact and calendar lookups, and every cold key
//! is filled single-flight.

use std::collections::HashMap;
use std::hash::Hash;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use mobivine_device::Device;
use mobivine_telemetry::span::ActiveSpan;

use crate::error::ProxyError;
use crate::registry::ProxyKind;
use crate::telemetry::{layer_counters, layer_span};

// ---------------------------------------------------------------------
// Policy
// ---------------------------------------------------------------------

/// How long a cached `getLocation` fix stays fresh (virtual ms).
const LOCATION_TTL_MS: u64 = 10_000;
/// How long a cached `findContacts` result stays fresh (virtual ms).
const CONTACTS_TTL_MS: u64 = 60_000;
/// How long a cached `entriesBetween` result stays fresh (virtual ms).
const CALENDAR_TTL_MS: u64 = 60_000;

/// The read-through cache layer's policy. It has no knobs: location
/// fixes stay fresh for 10 s of simulated time, and contact and
/// calendar lookups, which only change on writes the invalidation
/// stamps already catch, for 60 s.
///
/// Braced rather than a unit struct, so the callers'
/// `CachePolicy::default()` stays clean under clippy.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CachePolicy {}

impl CachePolicy {
    /// The location TTL (virtual ms).
    pub fn location_ttl(&self) -> u64 {
        LOCATION_TTL_MS
    }
}

/// The TTL of the cached read of a `kind` proxy.
pub(crate) fn ttl_for(kind: ProxyKind) -> u64 {
    match kind {
        ProxyKind::Contacts => CONTACTS_TTL_MS,
        ProxyKind::Calendar => CALENDAR_TTL_MS,
        _ => LOCATION_TTL_MS,
    }
}

// ---------------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------------

layer_counters! {
    /// Shared cache counters, updated by the cache layers and
    /// snapshotted by observability code.
    ///
    /// A standalone block ([`CacheMetrics::shared`]) counts
    /// privately; a registry-backed block
    /// ([`CacheMetrics::on_registry`]) publishes the same counters
    /// as `cache_<name>_total` series.
    CacheMetrics,
    /// A point-in-time copy of [`CacheMetrics`].
    CacheSnapshot,
    "cache",
    {
        /// Reads served from a stored, still-fresh entry.
        hit,
        /// Reads that filled from the layer below (one binding-plane
        /// invocation each).
        miss,
        /// Reads that joined an identical in-flight fill instead of issuing
        /// their own.
        coalesced,
        /// Entries discarded by an invalidation trigger (`setProperty`,
        /// fault-plan transition, circuit-state change) — natural TTL
        /// expiry is not counted here.
        invalidated,
    }
}

// ---------------------------------------------------------------------
// Invalidation stamps
// ---------------------------------------------------------------------

/// The invalidation coordinates an entry was filled under. A read whose
/// current stamp differs in *any* field discards the entry: something —
/// a fault transition, a circuit-state change, a `setProperty` — has
/// mutated the world since the fill.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Stamp {
    /// [`Device::fault_epoch`] at fill time.
    pub fault_epoch: u64,
    /// The resilience circuit breaker's transition epoch at fill time
    /// (zero when the stack has no breaker under this proxy).
    pub circuit_epoch: u64,
    /// The proxy's `setProperty` generation at fill time.
    pub generation: u64,
}

// ---------------------------------------------------------------------
// Engine
// ---------------------------------------------------------------------

/// One proxy's TTL and invalidation stamps: the cache layer of its
/// layer stack.
pub struct CacheEngine {
    device: Device,
    metrics: Arc<CacheMetrics>,
    ttl_ms: u64,
    generation: AtomicU64,
    circuit_epoch: Option<Arc<AtomicU64>>,
}

impl CacheEngine {
    /// Creates an engine over `device` with the given TTL.
    /// `circuit_epoch` is the breaker's transition-epoch handle when a
    /// resilience layer sits below this cache.
    pub fn new(
        device: Device,
        ttl_ms: u64,
        circuit_epoch: Option<Arc<AtomicU64>>,
        metrics: Arc<CacheMetrics>,
    ) -> Self {
        Self {
            device,
            metrics,
            ttl_ms,
            generation: AtomicU64::new(0),
            circuit_epoch,
        }
    }

    /// The counter block this engine reports into.
    pub fn metrics(&self) -> &Arc<CacheMetrics> {
        &self.metrics
    }

    /// The TTL (virtual ms).
    pub fn ttl_ms(&self) -> u64 {
        self.ttl_ms
    }

    /// The invalidation coordinates as of now.
    pub fn stamp(&self) -> Stamp {
        Stamp {
            fault_epoch: self.device.fault_epoch(),
            circuit_epoch: self
                .circuit_epoch
                .as_ref()
                .map_or(0, |e| e.load(Ordering::Acquire)),
            generation: self.generation.load(Ordering::Acquire),
        }
    }

    /// Bumps the `setProperty` generation, retiring every entry filled
    /// before the bump (including fills still in flight).
    pub fn bump_generation(&self) {
        self.generation.fetch_add(1, Ordering::AcqRel);
    }
}

// ---------------------------------------------------------------------
// Single-flight cell
// ---------------------------------------------------------------------

struct Entry<V> {
    value: V,
    stamp: Stamp,
    expires_at_ms: u64,
}

/// One in-flight fill. The leader publishes exactly once, then the
/// flight is dropped from the map, so no epoch bookkeeping is needed; a
/// flight no follower still holds is reset and kept as the cell's
/// spare for the next leader. Uses the standard-library mutex/condvar
/// pair because the follower side genuinely parks the thread.
struct Flight<V> {
    state: std::sync::Mutex<Option<Result<V, ProxyError>>>,
    cv: std::sync::Condvar,
}

impl<V: Clone> Flight<V> {
    fn new() -> Self {
        Self {
            state: std::sync::Mutex::new(None),
            cv: std::sync::Condvar::new(),
        }
    }

    /// A poisoned flight mutex means a publisher or waiter panicked
    /// mid-section; the stored `Option` stays structurally valid either
    /// way, so recover the guard rather than propagate the panic.
    fn lock(&self) -> std::sync::MutexGuard<'_, Option<Result<V, ProxyError>>> {
        self.state
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    fn publish(&self, result: Result<V, ProxyError>) {
        *self.lock() = Some(result);
        self.cv.notify_all();
    }

    /// Clears the published result so the flight can lead again.
    fn reset(&mut self) {
        *self
            .state
            .get_mut()
            .unwrap_or_else(std::sync::PoisonError::into_inner) = None;
    }

    fn wait(&self) -> Result<V, ProxyError> {
        let mut state = self.lock();
        loop {
            if let Some(result) = state.as_ref() {
                return result.clone();
            }
            state = self
                .cv
                .wait(state)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
        }
    }
}

/// The keyed store underneath one cached read: fresh entries plus
/// the map of in-flight fills.
///
/// Lock discipline: `entries` and `flights` are taken briefly and never
/// across the fill — the leader runs the wrapped call with no cache
/// lock held, so a fill that blocks (or crosses the WebView bridge)
/// cannot wedge readers of other keys.
pub struct CacheCell<K, V> {
    entries: Mutex<HashMap<K, Entry<V>>>,
    flights: Mutex<Flights<K, V>>,
}

/// A cell's in-flight fills.
struct Flights<K, V> {
    by_key: HashMap<K, Arc<Flight<V>>>,
    /// A finished flight nobody else holds, led again by the next miss
    /// so an uncontended miss allocates nothing.
    spare: Option<Arc<Flight<V>>>,
}

impl<K, V> Default for CacheCell<K, V> {
    fn default() -> Self {
        Self {
            entries: Mutex::new(HashMap::new()),
            flights: Mutex::new(Flights {
                by_key: HashMap::new(),
                spare: None,
            }),
        }
    }
}

impl<K: Eq + Hash + Clone, V: Clone> CacheCell<K, V> {
    /// An empty cell.
    pub fn new() -> Self {
        Self::default()
    }

    /// How many live (possibly expired, not yet collected) entries the
    /// cell holds.
    pub fn len(&self) -> usize {
        self.entries.lock().len()
    }

    /// Whether the cell holds no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.lock().is_empty()
    }

    /// Drops every stored entry and retires in-flight fills via the
    /// engine's generation. Cleared entries count as invalidated.
    pub fn invalidate_all(&self, engine: &CacheEngine) {
        engine.bump_generation();
        let removed = {
            let mut entries = self.entries.lock();
            let n = entries.len();
            entries.clear();
            n
        };
        if removed > 0 {
            engine.metrics.invalidated.add(removed as u64);
        }
    }

    /// The read-through path: serve a fresh stored result, join an
    /// identical in-flight fill, or lead a new fill of `fill` —
    /// recording the decision as a `cache_*` counter always and, when a
    /// trace is ambient, as an event on a span named `span_name`
    /// (`cache:<method>`).
    pub fn get_or_fill(
        &self,
        engine: &CacheEngine,
        span_name: &'static str,
        key: K,
        fill: impl FnOnce() -> Result<V, ProxyError>,
    ) -> Result<V, ProxyError> {
        layer_span(&engine.device, span_name, ProxyError::kind, |span| {
            self.get_or_fill_inner(engine, key, fill, span)
        })
    }

    fn get_or_fill_inner(
        &self,
        engine: &CacheEngine,
        key: K,
        fill: impl FnOnce() -> Result<V, ProxyError>,
        mut span: Option<&mut ActiveSpan>,
    ) -> Result<V, ProxyError> {
        // The stamp is taken *before* the fill and stored with the
        // entry: if an invalidation epoch moves while the fill is in
        // flight, the stored stamp is already stale and the next read
        // discards it — a fill racing a mutation can never pin a
        // pre-mutation answer.
        let stamp = engine.stamp();
        let now = engine.device.now_ms();
        {
            let mut entries = self.entries.lock();
            match entries.get(&key) {
                Some(entry) if entry.stamp != stamp => {
                    entries.remove(&key);
                    engine.metrics.invalidated.inc();
                }
                Some(entry) if now < entry.expires_at_ms => {
                    engine.metrics.hit.inc();
                    let value = entry.value.clone();
                    drop(entries);
                    if let Some(s) = span.as_deref_mut() {
                        s.event("cache_hit", now);
                    }
                    return Ok(value);
                }
                Some(_) => {
                    // Fresh stamp but past its TTL: plain expiry, the
                    // refill below counts as an ordinary miss.
                    entries.remove(&key);
                }
                None => {}
            }
        }

        enum Role<V> {
            Leader(Arc<Flight<V>>),
            Follower(Arc<Flight<V>>),
        }
        let role = {
            let mut flights = self.flights.lock();
            match flights.by_key.get(&key) {
                Some(flight) => Role::Follower(Arc::clone(flight)),
                None => {
                    let flight = flights
                        .spare
                        .take()
                        .unwrap_or_else(|| Arc::new(Flight::new()));
                    flights.by_key.insert(key.clone(), Arc::clone(&flight));
                    Role::Leader(flight)
                }
            }
        };
        match role {
            Role::Follower(flight) => {
                engine.metrics.coalesced.inc();
                if let Some(s) = span.as_deref_mut() {
                    s.event("cache_coalesced", now);
                }
                flight.wait()
            }
            Role::Leader(mut flight) => {
                if let Some(s) = span {
                    s.event("cache_miss", now);
                }
                let result = self.fill_and_store(engine, key.clone(), stamp, fill);
                // Unpublish before publishing: a caller arriving after
                // the removal starts a fresh flight instead of joining
                // a finished one.
                self.flights.lock().by_key.remove(&key);
                flight.publish(result.clone());
                // Out of the map, so no new follower can join: when no
                // follower still holds it, the flight is free to reuse.
                if let Some(spent) = Arc::get_mut(&mut flight) {
                    spent.reset();
                    self.flights.lock().spare = Some(flight);
                }
                result
            }
        }
    }

    /// Runs the fill with no cache lock held and stores a successful
    /// result under `stamp`. Errors are never cached.
    fn fill_and_store(
        &self,
        engine: &CacheEngine,
        key: K,
        stamp: Stamp,
        fill: impl FnOnce() -> Result<V, ProxyError>,
    ) -> Result<V, ProxyError> {
        engine.metrics.miss.inc();
        let result = fill();
        if let Ok(value) = &result {
            let filled_at = engine.device.now_ms();
            self.entries.lock().insert(
                key,
                Entry {
                    value: value.clone(),
                    stamp,
                    expires_at_ms: filled_at.saturating_add(engine.ttl_ms()),
                },
            );
        }
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::ProxyErrorKind;
    use std::sync::atomic::AtomicUsize;

    fn engine(device: &Device, ttl_ms: u64) -> CacheEngine {
        CacheEngine::new(device.clone(), ttl_ms, None, CacheMetrics::shared())
    }

    #[test]
    fn policy_defaults_and_builders() {
        assert_eq!(CachePolicy::default().location_ttl(), 10_000);
        assert_eq!(ttl_for(ProxyKind::Location), 10_000);
        assert_eq!(ttl_for(ProxyKind::Contacts), 60_000);
        assert_eq!(ttl_for(ProxyKind::Calendar), 60_000);
    }

    #[test]
    fn second_read_hits_until_the_ttl_expires() {
        let device = Device::builder().build();
        let engine = engine(&device, 1_000);
        let cell: CacheCell<(), u64> = CacheCell::new();
        let fills = AtomicUsize::new(0);
        let fill = || {
            fills.fetch_add(1, Ordering::SeqCst);
            Ok(7)
        };
        assert_eq!(cell.get_or_fill(&engine, "cache:read", (), fill), Ok(7));
        assert_eq!(cell.get_or_fill(&engine, "cache:read", (), fill), Ok(7));
        assert_eq!(fills.load(Ordering::SeqCst), 1, "second read served hot");
        device.advance_ms(1_001);
        assert_eq!(cell.get_or_fill(&engine, "cache:read", (), fill), Ok(7));
        assert_eq!(fills.load(Ordering::SeqCst), 2, "expired entry refilled");
        let snap = engine.metrics().snapshot();
        assert_eq!((snap.hit, snap.miss), (1, 2));
        assert_eq!(snap.invalidated, 0, "TTL expiry is not an invalidation");
    }

    #[test]
    fn zero_ttl_disables_storage() {
        let device = Device::builder().build();
        let engine = engine(&device, 0);
        let cell: CacheCell<(), u64> = CacheCell::new();
        let fills = AtomicUsize::new(0);
        let fill = || {
            fills.fetch_add(1, Ordering::SeqCst);
            Ok(1)
        };
        for _ in 0..3 {
            assert!(cell.get_or_fill(&engine, "cache:read", (), fill).is_ok());
        }
        assert_eq!(fills.load(Ordering::SeqCst), 3);
        assert_eq!(engine.metrics().snapshot().hit, 0);
    }

    #[test]
    fn errors_are_never_cached() {
        let device = Device::builder().build();
        let engine = engine(&device, 10_000);
        let cell: CacheCell<(), u64> = CacheCell::new();
        let fills = AtomicUsize::new(0);
        let fill = || {
            fills.fetch_add(1, Ordering::SeqCst);
            Err(ProxyError::new(ProxyErrorKind::Unavailable, "no fix"))
        };
        for _ in 0..2 {
            assert!(cell.get_or_fill(&engine, "cache:read", (), fill).is_err());
        }
        assert_eq!(fills.load(Ordering::SeqCst), 2, "each failure re-fills");
        assert!(cell.is_empty());
    }

    #[test]
    fn fault_epoch_bump_invalidates_before_the_ttl() {
        let device = Device::builder().build();
        let engine = engine(&device, 60_000);
        let cell: CacheCell<(), u64> = CacheCell::new();
        let fills = AtomicUsize::new(0);
        let fill = || {
            fills.fetch_add(1, Ordering::SeqCst);
            Ok(9)
        };
        cell.get_or_fill(&engine, "cache:read", (), fill).ok();
        device.bump_fault_epoch();
        cell.get_or_fill(&engine, "cache:read", (), fill).ok();
        assert_eq!(fills.load(Ordering::SeqCst), 2);
        assert_eq!(engine.metrics().snapshot().invalidated, 1);
    }

    #[test]
    fn circuit_epoch_bump_invalidates() {
        let device = Device::builder().build();
        let breaker_epoch = Arc::new(AtomicU64::new(0));
        let engine = CacheEngine::new(
            device.clone(),
            60_000,
            Some(Arc::clone(&breaker_epoch)),
            CacheMetrics::shared(),
        );
        let cell: CacheCell<(), u64> = CacheCell::new();
        let fills = AtomicUsize::new(0);
        let fill = || {
            fills.fetch_add(1, Ordering::SeqCst);
            Ok(3)
        };
        cell.get_or_fill(&engine, "cache:read", (), fill).ok();
        cell.get_or_fill(&engine, "cache:read", (), fill).ok();
        assert_eq!(fills.load(Ordering::SeqCst), 1);
        breaker_epoch.fetch_add(1, Ordering::SeqCst);
        cell.get_or_fill(&engine, "cache:read", (), fill).ok();
        assert_eq!(fills.load(Ordering::SeqCst), 2);
        assert_eq!(engine.metrics().snapshot().invalidated, 1);
    }

    #[test]
    fn invalidate_all_counts_cleared_entries_and_retires_inflight_stamps() {
        let device = Device::builder().build();
        let engine = engine(&device, 60_000);
        let cell: CacheCell<u32, u64> = CacheCell::new();
        for k in 0..3 {
            cell.get_or_fill(&engine, "cache:read", k, || Ok(u64::from(k)))
                .ok();
        }
        assert_eq!(cell.len(), 3);
        let before = engine.stamp();
        cell.invalidate_all(&engine);
        assert!(cell.is_empty());
        assert_eq!(engine.metrics().snapshot().invalidated, 3);
        assert_ne!(engine.stamp(), before, "generation moved");
    }

    #[test]
    fn a_fill_racing_a_mutation_cannot_pin_a_stale_answer() {
        // The stamp is taken before the fill: bumping an epoch *during*
        // the fill leaves the stored entry already stale.
        let device = Device::builder().build();
        let engine = engine(&device, 60_000);
        let cell: CacheCell<(), u64> = CacheCell::new();
        let fills = AtomicUsize::new(0);
        cell.get_or_fill(&engine, "cache:read", (), || {
            fills.fetch_add(1, Ordering::SeqCst);
            device.bump_fault_epoch(); // mutation mid-flight
            Ok(1)
        })
        .ok();
        cell.get_or_fill(&engine, "cache:read", (), || {
            fills.fetch_add(1, Ordering::SeqCst);
            Ok(2)
        })
        .ok();
        assert_eq!(fills.load(Ordering::SeqCst), 2, "mid-flight bump re-fills");
    }

    #[test]
    fn followers_share_the_leaders_single_invocation() {
        let device = Device::builder().build();
        let engine = Arc::new(engine(&device, 60_000));
        let cell: Arc<CacheCell<(), u64>> = Arc::new(CacheCell::new());
        let fills = Arc::new(AtomicUsize::new(0));
        const FOLLOWERS: usize = 4;

        // Round two leads a reused flight: the uncontended miss between
        // the rounds leaves its finished flight as the cell's spare, and
        // the followers must see round two's answer, not a stale one.
        for (round, answer) in [(1, 42), (2, 43)] {
            let before = engine.metrics().snapshot();
            // The leader's fill spins until every follower has joined
            // the flight (observable through the coalesced counter),
            // making the interleaving deterministic: exactly one fill,
            // FOLLOWERS joins.
            let leader = {
                let engine = Arc::clone(&engine);
                let cell = Arc::clone(&cell);
                let fills = Arc::clone(&fills);
                std::thread::spawn(move || {
                    cell.get_or_fill(&engine, "cache:read", (), || {
                        fills.fetch_add(1, Ordering::SeqCst);
                        let joined = before.coalesced + FOLLOWERS as u64;
                        while engine.metrics().snapshot().coalesced < joined {
                            std::thread::yield_now();
                        }
                        Ok(answer)
                    })
                })
            };
            while engine.metrics().snapshot().miss == before.miss {
                std::thread::yield_now(); // leader holds the flight
            }
            let followers: Vec<_> = (0..FOLLOWERS)
                .map(|_| {
                    let engine = Arc::clone(&engine);
                    let cell = Arc::clone(&cell);
                    let fills = Arc::clone(&fills);
                    std::thread::spawn(move || {
                        cell.get_or_fill(&engine, "cache:read", (), || {
                            fills.fetch_add(1, Ordering::SeqCst);
                            Ok(0)
                        })
                    })
                })
                .collect();
            let leader = leader.join().map_err(|_| "leader panicked");
            assert_eq!(leader, Ok(Ok(answer)), "round {round}");
            for follower in followers {
                let follower = follower.join().map_err(|_| "follower panicked");
                assert_eq!(follower, Ok(Ok(answer)), "round {round}");
            }
            assert_eq!(fills.swap(0, Ordering::SeqCst), 1, "one binding invocation");
            let snap = engine.metrics().snapshot();
            assert_eq!(snap.coalesced - before.coalesced, FOLLOWERS as u64);
            assert_eq!(snap.miss - before.miss, 1);

            device.advance_ms(60_001);
            cell.get_or_fill(&engine, "cache:read", (), || Ok(0)).ok();
            device.advance_ms(60_001);
        }
    }
}
