//! Overload protection for the M-Proxy call path: deadlines, bulkheads
//! and adaptive load shedding.
//!
//! PR 1's resilience layer defends a *single* call against a flaky
//! binding. This module defends the *stack* against too many calls at
//! once — the ROADMAP's "heavy traffic from millions of users". Three
//! cooperating mechanisms, all driven by the simulated device clock so
//! every run replays bit-identically:
//!
//! * a [`Deadline`] — a cancellation context carried down the call path
//!   (retry → circuit → fallback → binding) through an ambient
//!   per-thread scope ([`with_deadline`]) and across the WebView
//!   JavaScript bridge as a marshalled remaining-budget value. A call
//!   that enters the overload layer with an exhausted budget fails fast
//!   with [`ProxyErrorKind::DeadlineExceeded`] before touching the
//!   binding plane;
//! * a per-proxy [`Bulkhead`] — a semaphore-style concurrency cap of
//!   32 slots with a wait queue of 16 turns of 25 simulated ms, so one
//!   slow capability cannot absorb every caller thread;
//! * an [`AdmissionController`] — deterministic AIMD on observed call
//!   sojourn time versus a per-proxy target. When calls run hot the
//!   admitted fraction decays multiplicatively; when they run within
//!   target it recovers additively. Rejected calls get a typed
//!   [`ProxyErrorKind::Overloaded`] error carrying `retry_after_ms`,
//!   which the resilience layer treats as non-retryable-here but
//!   fallback-eligible.
//!
//! The Location and HTTP hooks of the layer stack (the `stack` module)
//! add **graceful degradation tiers**: instead of surfacing every shed,
//! they answer from the last cached fix (coarsened under deep shed
//! pressure) or synthesize an accepted-but-unenriched HTTP response for
//! droppable paths.
//!
//! The sojourn target, the admission seed and the droppable HTTP path
//! are an [`OverloadPolicy`] handed to
//! [`crate::registry::MobivineBuilder::with_overload`], fixed once the
//! runtime is built. The bulkhead's size and queue are constants.

use std::cell::RefCell;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use mobivine_device::Device;
use mobivine_telemetry::span::ActiveSpan;

use crate::error::{ProxyError, ProxyErrorKind};
use crate::stack::CallMeta;
use crate::telemetry::{layer_counters, layer_span};
use crate::types::{HttpResult, Location};

/// splitmix64 — the same deterministic mixer the resilience layer uses
/// for jitter, here stepping the admission controller's coin-flip
/// stream. Private copy by design: the two layers' streams must never
/// couple through a shared state cell.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

// ---------------------------------------------------------------------
// Deadline
// ---------------------------------------------------------------------

/// A cancellation context on the simulated clock.
///
/// Carries both its origin (`start_ms`) and its expiry, so layers can
/// compute not just "how much budget is left" but "how long has this
/// call been in flight" — the sojourn time the admission controller
/// observes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Deadline {
    start_ms: u64,
    expires_at_ms: u64,
}

impl Deadline {
    /// A deadline opened at `now_ms` with `budget_ms` of simulated time.
    pub fn after(now_ms: u64, budget_ms: u64) -> Self {
        Self {
            start_ms: now_ms,
            expires_at_ms: now_ms.saturating_add(budget_ms),
        }
    }

    /// When this deadline was opened.
    pub fn start_ms(&self) -> u64 {
        self.start_ms
    }

    /// The absolute simulated time at which the budget runs out.
    pub fn expires_at_ms(&self) -> u64 {
        self.expires_at_ms
    }

    /// Budget left at `now_ms` (zero once expired).
    pub fn remaining_ms(&self, now_ms: u64) -> u64 {
        self.expires_at_ms.saturating_sub(now_ms)
    }

    /// Whether the budget is gone at `now_ms`.
    pub fn is_expired(&self, now_ms: u64) -> bool {
        now_ms >= self.expires_at_ms
    }

    /// Simulated time this call has already been in flight at `now_ms`
    /// — the queueing + service delay the admission controller feeds
    /// its AIMD loop.
    pub fn sojourn_ms(&self, now_ms: u64) -> u64 {
        now_ms.saturating_sub(self.start_ms)
    }

    /// The tighter of two deadlines: keeps the earlier origin (the
    /// outermost caller started the clock) and the earlier expiry.
    #[must_use]
    pub fn tightened_by(&self, other: Deadline) -> Deadline {
        Deadline {
            start_ms: self.start_ms.min(other.start_ms),
            expires_at_ms: self.expires_at_ms.min(other.expires_at_ms),
        }
    }
}

thread_local! {
    /// The ambient deadline stack, mirroring the telemetry ambient span
    /// stack: the innermost `with_deadline` scope is what
    /// [`current_deadline`] sees.
    static DEADLINES: RefCell<Vec<Deadline>> = const { RefCell::new(Vec::new()) };
}

/// Guard popping the ambient deadline on drop (panic-safe).
struct DeadlineScope;

impl Drop for DeadlineScope {
    fn drop(&mut self) {
        DEADLINES.with(|stack| {
            stack.borrow_mut().pop();
        });
    }
}

/// Runs `f` with `deadline` as the ambient cancellation context for the
/// current thread. Scopes nest: an inner scope sees its own deadline,
/// and the outer one is restored when the scope ends — even on panic.
pub fn with_deadline<T>(deadline: Deadline, f: impl FnOnce() -> T) -> T {
    DEADLINES.with(|stack| stack.borrow_mut().push(deadline));
    let _scope = DeadlineScope;
    f()
}

/// The innermost ambient deadline on the current thread, if any scope
/// is open.
pub fn current_deadline() -> Option<Deadline> {
    DEADLINES.with(|stack| stack.borrow().last().copied())
}

// ---------------------------------------------------------------------
// Policy
// ---------------------------------------------------------------------

/// Budget given to calls that arrive without an ambient deadline.
pub(crate) const DEFAULT_DEADLINE_MS: u64 = 10_000;

/// Concurrent calls a proxy's bulkhead admits at once.
const MAX_CONCURRENCY: u32 = 32;
/// Queue turns a caller waits for a bulkhead slot before it is
/// rejected.
const QUEUE_DEPTH: u32 = 16;
/// Simulated wait per bulkhead queue turn.
const QUEUE_WAIT_MS: u64 = 25;

/// Tunable knobs for the overload layer, fixed when the runtime is
/// built. The bulkhead has none: every proxy gets 32 slots and 16
/// queue turns of 25 ms.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OverloadPolicy {
    /// Sojourn target the AIMD loop steers toward.
    pub target_ms: u64,
    /// Seed of the deterministic admission coin-flip stream.
    pub shed_seed: u64,
    /// URL fragment marking an HTTP request as droppable enrichment: a
    /// shed request whose URL contains it degrades to a synthetic
    /// `202 Accepted` instead of an error.
    pub droppable_path: Option<&'static str>,
}

impl Default for OverloadPolicy {
    fn default() -> Self {
        Self {
            target_ms: 256,
            shed_seed: 0x0BAD_CAFE,
            droppable_path: None,
        }
    }
}

impl OverloadPolicy {
    /// Sets the sojourn target.
    #[must_use]
    pub fn target_ms(mut self, ms: u64) -> Self {
        self.target_ms = ms.max(1);
        self
    }

    /// Sets the admission coin-flip seed.
    #[must_use]
    pub fn shed_seed(mut self, seed: u64) -> Self {
        self.shed_seed = seed;
        self
    }

    /// Marks HTTP requests whose URL contains `fragment` as droppable
    /// under shed pressure. An empty fragment marks none.
    #[must_use]
    pub fn droppable_path(mut self, fragment: &'static str) -> Self {
        self.droppable_path = (!fragment.is_empty()).then_some(fragment);
        self
    }
}

// ---------------------------------------------------------------------
// Bulkhead
// ---------------------------------------------------------------------

/// A semaphore-style per-proxy concurrency cap.
///
/// Callers that find every slot taken wait in a bounded queue — each
/// turn advances the *simulated* clock by 25 ms — and are
/// rejected with [`ProxyErrorKind::Overloaded`] once the queue is
/// exhausted too. The in-flight count is an atomic and a slot is taken
/// by compare-and-swap, so a free bulkhead takes no lock.
pub struct Bulkhead {
    cap: u32,
    in_flight: AtomicU32,
}

impl Bulkhead {
    /// A bulkhead with `cap` concurrent slots.
    pub fn new(cap: u32) -> Self {
        Self {
            cap: cap.max(1),
            in_flight: AtomicU32::new(0),
        }
    }

    /// The configured concurrency cap.
    pub fn cap(&self) -> u32 {
        self.cap
    }

    /// Calls currently holding a slot.
    pub fn in_flight(&self) -> u32 {
        self.in_flight.load(Ordering::Relaxed)
    }

    /// Takes a slot immediately if one is free.
    pub fn try_acquire(&self) -> Option<BulkheadPermit<'_>> {
        let cap = self.cap;
        self.in_flight
            .fetch_update(Ordering::Acquire, Ordering::Relaxed, |n| {
                (n < cap).then_some(n + 1)
            })
            .ok()
            .map(|_| BulkheadPermit { bulkhead: self })
    }
}

/// RAII slot handle: the slot frees when the permit drops, even on
/// panic or early return.
pub struct BulkheadPermit<'a> {
    bulkhead: &'a Bulkhead,
}

impl Drop for BulkheadPermit<'_> {
    fn drop(&mut self) {
        self.bulkhead.in_flight.fetch_sub(1, Ordering::Release);
    }
}

// ---------------------------------------------------------------------
// Admission controller
// ---------------------------------------------------------------------

/// Fixed-point denominator of the admitted fraction (1024 = admit all).
const ADMIT_SCALE: u64 = 1024;
/// Additive recovery per in-target observation.
const ADMIT_INCREASE: u64 = 16;
/// Floor the multiplicative decrease never drops below, so recovery is
/// always possible once pressure lifts.
const ADMIT_FLOOR: u64 = 64;

/// How hard the stack is currently degrading, derived from the admitted
/// fraction. Decorators use this to choose what to serve under
/// pressure.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DegradeTier {
    /// Normal service: admitted fraction ≥ ⅔.
    Full,
    /// Moderate pressure (⅓ ≤ fraction < ⅔): serve cached answers.
    Reduced,
    /// Heavy pressure (fraction < ⅓): serve cached *and* coarsened.
    Minimal,
}

/// A deterministic AIMD admission controller.
///
/// Observes each completed call's sojourn time against the policy
/// target: in-target observations recover the admitted fraction
/// additively (+16/1024), over-target observations decay it
/// multiplicatively (×7/8, floored at 64/1024). Admission draws a
/// seeded splitmix64 coin, so the shed pattern replays bit-identically
/// for a given seed and call order.
///
/// The admitted fraction lives in an atomic that only changes under the
/// coin lock. A fully open gate admits with one load, and an in-target
/// observation at the full rate stores nothing; below the full rate the
/// coin draws and the AIMD updates take the lock.
pub struct AdmissionController {
    /// Admitted fraction numerator over [`ADMIT_SCALE`].
    rate: AtomicU64,
    /// splitmix64 stream state for the admission coin flips.
    coin: Mutex<u64>,
}

impl AdmissionController {
    /// A fully open controller flipping coins from `seed`.
    pub fn new(seed: u64) -> Self {
        Self {
            rate: AtomicU64::new(ADMIT_SCALE),
            coin: Mutex::new(seed),
        }
    }

    /// Reseeds the coin-flip stream and reopens the gate.
    pub fn reseed(&self, seed: u64) {
        let mut coin = self.coin.lock();
        *coin = seed;
        self.rate.store(ADMIT_SCALE, Ordering::Release);
    }

    /// The admitted fraction numerator (0..=1024).
    pub fn rate(&self) -> u64 {
        self.rate.load(Ordering::Acquire)
    }

    /// Draws the next admission coin. Deterministic per seed and call
    /// sequence.
    pub fn admit(&self) -> bool {
        // Fully open: no coin is drawn, so an unloaded proxy's stream
        // position is independent of traffic volume.
        if self.rate() >= ADMIT_SCALE {
            return true;
        }
        let mut coin = self.coin.lock();
        let rate = self.rate();
        rate >= ADMIT_SCALE || splitmix64(&mut coin) % ADMIT_SCALE < rate
    }

    /// Feeds one completed call's sojourn time into the AIMD loop.
    pub fn observe(&self, sojourn_ms: u64, target_ms: u64) {
        let in_target = sojourn_ms <= target_ms;
        if in_target && self.rate() >= ADMIT_SCALE {
            return;
        }
        let _coin = self.coin.lock();
        let rate = self.rate();
        let next = if in_target {
            (rate + ADMIT_INCREASE).min(ADMIT_SCALE)
        } else {
            (rate * 7 / 8).max(ADMIT_FLOOR)
        };
        self.rate.store(next, Ordering::Release);
    }

    /// The degradation tier the current admitted fraction implies.
    pub fn tier(&self) -> DegradeTier {
        let rate = self.rate();
        if rate * 3 >= 2 * ADMIT_SCALE {
            DegradeTier::Full
        } else if rate * 3 >= ADMIT_SCALE {
            DegradeTier::Reduced
        } else {
            DegradeTier::Minimal
        }
    }

    /// The deterministic retry hint attached to shed errors: the more
    /// closed the gate, the longer the suggested wait (up to the
    /// sojourn target).
    pub fn retry_after_ms(&self, target_ms: u64) -> u64 {
        let rate = self.rate();
        ((ADMIT_SCALE - rate.min(ADMIT_SCALE)) * target_ms / ADMIT_SCALE).max(1)
    }
}

// ---------------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------------

layer_counters! {
    /// Shared overload counters, updated by the overload layers and
    /// snapshotted by observability code.
    ///
    /// A standalone block ([`OverloadMetrics::shared`]) counts
    /// privately; a registry-backed block
    /// ([`OverloadMetrics::on_registry`]) publishes the same
    /// counters as `overload_<name>_total` series.
    OverloadMetrics,
    /// A point-in-time copy of [`OverloadMetrics`].
    OverloadSnapshot,
    "overload",
    {
        /// Calls the admission controller let through.
        admitted,
        /// Calls shed by the admission controller.
        shed,
        /// Calls rejected after exhausting the bulkhead wait queue.
        bulkhead_rejections,
        /// Queue turns spent waiting for a bulkhead slot.
        bulkhead_waits,
        /// Calls failed fast because their deadline budget was already gone.
        deadline_fail_fast,
        /// Sheds absorbed by a degradation tier (cached/coarse answer).
        degraded,
    }
}

impl OverloadMetrics {
    /// Credits one degraded (cached/coarse) answer. Public so fleet
    /// reporting can fold degradation served outside the engine.
    pub fn note_degraded(&self) {
        self.degraded.inc();
    }
}

// ---------------------------------------------------------------------
// Engine
// ---------------------------------------------------------------------

/// Stated inaccuracy of a coarsened (Minimal-tier) degraded fix.
pub(crate) const COARSE_ACCURACY_M: f64 = 500.0;

/// Synthetic status of a degraded (enrichment-dropped) HTTP answer.
pub(crate) const DEGRADED_HTTP_STATUS: u16 = 202;

/// One proxy's deadline/bulkhead/shedding engine: the overload layer of
/// its layer stack. Sits *outside* the resilience layer, so a shed
/// call never spends retry budget.
pub struct OverloadEngine {
    device: Device,
    policy: OverloadPolicy,
    bulkhead: Bulkhead,
    admission: AdmissionController,
    metrics: Arc<OverloadMetrics>,
}

impl OverloadEngine {
    /// Builds an engine timing waits against `device`'s simulated clock
    /// and reporting into `metrics`.
    pub fn new(device: Device, policy: OverloadPolicy, metrics: Arc<OverloadMetrics>) -> Self {
        Self {
            device,
            policy,
            bulkhead: Bulkhead::new(MAX_CONCURRENCY),
            admission: AdmissionController::new(policy.shed_seed),
            metrics,
        }
    }

    /// The policy the engine was built with.
    pub fn policy(&self) -> OverloadPolicy {
        self.policy
    }

    /// The engine's counter block.
    pub fn metrics(&self) -> &Arc<OverloadMetrics> {
        &self.metrics
    }

    /// The current degradation tier.
    pub fn tier(&self) -> DegradeTier {
        self.admission.tier()
    }

    /// The bulkhead, for observability and tests.
    pub fn bulkhead(&self) -> &Bulkhead {
        &self.bulkhead
    }

    /// The admission controller, for observability and tests.
    pub fn admission(&self) -> &AdmissionController {
        &self.admission
    }

    /// The deadline this call runs under: the ambient one when a scope
    /// is open (tightened against the default budget's expiry never —
    /// the ambient caller knows best), else a fresh default-budget
    /// deadline opened now.
    fn resolve_deadline(&self) -> Deadline {
        current_deadline()
            .unwrap_or_else(|| Deadline::after(self.device.now_ms(), DEFAULT_DEADLINE_MS))
    }

    /// Runs `call` under deadline fail-fast, admission control and the
    /// bulkhead, recording every decision as a span event when a trace
    /// is ambient and as an `overload_*` counter always.
    pub(crate) fn execute<T>(
        &self,
        meta: &CallMeta,
        call: &dyn Fn() -> Result<T, ProxyError>,
    ) -> Result<T, ProxyError> {
        layer_span(
            &self.device,
            meta.spans.overload,
            ProxyError::kind,
            |span| self.execute_inner(meta.method, call, span),
        )
    }

    fn execute_inner<T>(
        &self,
        operation: &str,
        call: &dyn Fn() -> Result<T, ProxyError>,
        mut span: Option<&mut ActiveSpan>,
    ) -> Result<T, ProxyError> {
        let policy = &self.policy;
        let deadline = self.resolve_deadline();

        // 1. Deadline fail-fast: a call whose budget is already gone
        //    must not touch the binding plane at all.
        let now = self.device.now_ms();
        if deadline.is_expired(now) {
            self.metrics.deadline_fail_fast.inc();
            if let Some(s) = span.as_deref_mut() {
                s.event("deadline_fail_fast", now);
                s.attr("deadline.cause", "budget exhausted before admission");
            }
            return Err(ProxyError::new(
                ProxyErrorKind::DeadlineExceeded,
                format!(
                    "deadline expired {} ms ago; {operation} rejected before reaching \
                     the binding plane",
                    now.saturating_sub(deadline.expires_at_ms())
                ),
            ));
        }

        // 2. Admission: a deterministic coin weighted by the AIMD gate.
        if !self.admission.admit() {
            self.metrics.shed.inc();
            let retry_after = self.admission.retry_after_ms(policy.target_ms);
            if let Some(s) = span.as_deref_mut() {
                s.event("shed", now);
                s.attr("shed.decision", "rejected");
            }
            return Err(ProxyError::new(
                ProxyErrorKind::Overloaded,
                format!(
                    "admission controller shed {operation} (admitted fraction {}/{})",
                    self.admission.rate(),
                    ADMIT_SCALE
                ),
            )
            .with_retry_after(retry_after));
        }
        self.metrics.admitted.inc();
        if let Some(s) = span.as_deref_mut() {
            s.event("admitted", now);
        }

        // 3. Bulkhead: take a slot, waiting bounded simulated turns.
        let permit = self.acquire_slot(&deadline, span)?;

        // 4. Run the call with the deadline ambient for the layers
        //    below (retry loop, bindings, the JS bridge).
        let result = with_deadline(deadline, call);
        drop(permit);

        // 5. Feed the AIMD loop with the call's sojourn — how long the
        //    caller has been in flight since the deadline opened, which
        //    under batch arrival includes upstream queueing delay.
        let done = self.device.now_ms();
        self.admission
            .observe(deadline.sojourn_ms(done), policy.target_ms);
        result
    }

    fn acquire_slot(
        &self,
        deadline: &Deadline,
        mut span: Option<&mut ActiveSpan>,
    ) -> Result<BulkheadPermit<'_>, ProxyError> {
        let mut waits: u32 = 0;
        loop {
            if let Some(permit) = self.bulkhead.try_acquire() {
                return Ok(permit);
            }
            if waits >= QUEUE_DEPTH {
                self.metrics.bulkhead_rejections.inc();
                if let Some(s) = span.as_deref_mut() {
                    s.event("bulkhead_rejected", self.device.now_ms());
                }
                return Err(ProxyError::new(
                    ProxyErrorKind::Overloaded,
                    format!(
                        "bulkhead full ({} slots) and wait queue exhausted after {waits} turn(s)",
                        self.bulkhead.cap()
                    ),
                )
                .with_retry_after(QUEUE_WAIT_MS));
            }
            let now = self.device.now_ms();
            if deadline.remaining_ms(now) < QUEUE_WAIT_MS {
                self.metrics.deadline_fail_fast.inc();
                if let Some(s) = span.as_deref_mut() {
                    s.event("deadline_fail_fast", now);
                    s.attr(
                        "deadline.cause",
                        "budget too small to queue for a bulkhead slot",
                    );
                }
                return Err(ProxyError::new(
                    ProxyErrorKind::DeadlineExceeded,
                    format!(
                        "deadline budget ({} ms left) cannot cover a {} ms bulkhead queue turn",
                        deadline.remaining_ms(now),
                        QUEUE_WAIT_MS
                    ),
                ));
            }
            waits += 1;
            self.metrics.bulkhead_waits.inc();
            if let Some(s) = span.as_deref_mut() {
                s.event("bulkhead_wait", now);
            }
            self.device.advance_ms(QUEUE_WAIT_MS);
        }
    }

    /// Absorbs a shed `getLocation` into `cached`, the last fix the
    /// layer below answered: the Reduced tier serves it as-is, the
    /// Minimal tier coarsens its stated accuracy to at least 500 m.
    /// Without a cached fix the shed surfaces.
    pub(crate) fn degrade_location(
        &self,
        cached: Option<Location>,
        shed: ProxyError,
    ) -> Result<Location, ProxyError> {
        match cached {
            Some(mut fix) if shed.kind().is_load_shed() => {
                if self.tier() == DegradeTier::Minimal {
                    fix.accuracy_m = fix.accuracy_m.max(COARSE_ACCURACY_M);
                }
                self.metrics.note_degraded();
                Ok(fix)
            }
            _ => Err(shed),
        }
    }

    /// Absorbs a shed request whose URL contains the policy's
    /// [`OverloadPolicy::droppable_path`] into a synthetic
    /// `202 Accepted` carrying an `X-Mobivine-Degraded` header: the
    /// enrichment is dropped, the caller proceeds. Other sheds surface.
    pub(crate) fn degrade_http(
        &self,
        url: &str,
        shed: ProxyError,
    ) -> Result<HttpResult, ProxyError> {
        match self.policy.droppable_path {
            Some(fragment) if shed.kind().is_load_shed() && url.contains(fragment) => {
                self.metrics.note_degraded();
                Ok(HttpResult {
                    status: DEGRADED_HTTP_STATUS,
                    headers: vec![("X-Mobivine-Degraded".to_owned(), "shed".to_owned())],
                    body: Vec::new(),
                })
            }
            _ => Err(shed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::{HttpProxy, LocationProxy, ProxyBase};
    use crate::property::PropertyValue;
    use crate::stack::tests::layered;
    use crate::stack::{Interface, LayerPolicies, Layered};
    use crate::types::SharedProximityListener;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn device() -> Device {
        Device::builder().msisdn("+overload").build()
    }

    /// A location proxy that advances the simulated clock by a fixed
    /// service time per call.
    struct Slow {
        device: Device,
        service_ms: u64,
        calls: AtomicU64,
    }

    impl Slow {
        fn new(device: Device, service_ms: u64) -> Self {
            Self {
                device,
                service_ms,
                calls: AtomicU64::new(0),
            }
        }
    }

    impl ProxyBase for Slow {
        fn set_property(&self, _key: &str, _value: PropertyValue) -> Result<(), ProxyError> {
            Ok(())
        }
    }

    impl LocationProxy for Slow {
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
            Ok(false)
        }

        fn get_location(&self) -> Result<Location, ProxyError> {
            self.calls.fetch_add(1, Ordering::Relaxed);
            self.device.advance_ms(self.service_ms);
            Ok(Location {
                latitude: 12.0,
                longitude: 34.0,
                accuracy_m: 5.0,
                timestamp_ms: self.device.now_ms(),
                ..Location::default()
            })
        }
    }

    /// `inner` behind a stack with only the overload layer on.
    fn overloaded_on<P: ?Sized + Interface>(
        device: &Device,
        inner: Arc<P>,
        policy: OverloadPolicy,
    ) -> Layered<P> {
        let policies = LayerPolicies {
            overload: Some(policy),
            ..LayerPolicies::default()
        };
        layered(inner, policies, device)
    }

    fn overloaded(
        device: &Device,
        service_ms: u64,
        policy: OverloadPolicy,
    ) -> Layered<dyn LocationProxy> {
        overloaded_on(
            device,
            Arc::new(Slow::new(device.clone(), service_ms)),
            policy,
        )
    }

    fn engine<P: ?Sized + Interface>(proxy: &Layered<P>) -> &OverloadEngine {
        proxy.stack.overload.as_ref().expect("overload layer")
    }

    // ---- Deadline ----------------------------------------------------

    #[test]
    fn deadline_arithmetic_is_saturating_and_origin_preserving() {
        let d = Deadline::after(1_000, 500);
        assert_eq!(d.start_ms(), 1_000);
        assert_eq!(d.expires_at_ms(), 1_500);
        assert_eq!(d.remaining_ms(1_200), 300);
        assert_eq!(d.remaining_ms(2_000), 0);
        assert!(d.is_expired(1_500));
        assert!(!d.is_expired(1_499));
        assert_eq!(d.sojourn_ms(1_400), 400);
        assert_eq!(d.sojourn_ms(900), 0);
        let tight = d.tightened_by(Deadline::after(1_100, 100));
        assert_eq!(tight.start_ms(), 1_000, "earlier origin wins");
        assert_eq!(tight.expires_at_ms(), 1_200, "earlier expiry wins");
        let huge = Deadline::after(u64::MAX - 1, u64::MAX);
        assert_eq!(huge.expires_at_ms(), u64::MAX);
    }

    #[test]
    fn ambient_deadline_scopes_nest_and_unwind() {
        assert_eq!(current_deadline(), None);
        let outer = Deadline::after(0, 1_000);
        let inner = Deadline::after(100, 200);
        with_deadline(outer, || {
            assert_eq!(current_deadline(), Some(outer));
            with_deadline(inner, || {
                assert_eq!(current_deadline(), Some(inner));
            });
            assert_eq!(current_deadline(), Some(outer));
        });
        assert_eq!(current_deadline(), None);
    }

    #[test]
    fn ambient_deadline_unwinds_on_panic() {
        let result = std::panic::catch_unwind(|| {
            with_deadline(Deadline::after(0, 10), || panic!("boom"));
        });
        assert!(result.is_err());
        assert_eq!(current_deadline(), None, "scope popped despite panic");
    }

    // ---- Bulkhead ----------------------------------------------------

    #[test]
    fn bulkhead_caps_concurrency_and_frees_on_drop() {
        let bulkhead = Bulkhead::new(2);
        let a = bulkhead.try_acquire().expect("slot 1");
        let _b = bulkhead.try_acquire().expect("slot 2");
        assert_eq!(bulkhead.in_flight(), 2);
        assert!(bulkhead.try_acquire().is_none(), "cap reached");
        drop(a);
        assert_eq!(bulkhead.in_flight(), 1);
        assert!(bulkhead.try_acquire().is_some(), "slot recycled");
    }

    #[test]
    fn bulkhead_never_lets_more_than_its_cap_in_under_contention() {
        const CAP: u32 = 3;
        let bulkhead = Bulkhead::new(CAP);
        let holders = std::sync::atomic::AtomicU32::new(0);
        let peak = std::sync::atomic::AtomicU32::new(0);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for _ in 0..10_000 {
                        let Some(_permit) = bulkhead.try_acquire() else {
                            continue;
                        };
                        let held = holders.fetch_add(1, Ordering::SeqCst) + 1;
                        peak.fetch_max(held.max(bulkhead.in_flight()), Ordering::SeqCst);
                        std::thread::yield_now();
                        holders.fetch_sub(1, Ordering::SeqCst);
                    }
                });
            }
        });
        let peak = peak.load(Ordering::SeqCst);
        assert!(peak <= CAP, "{peak} permits were held at once");
        assert_eq!(bulkhead.in_flight(), 0, "every permit was returned");
    }

    #[test]
    fn bulkhead_queue_exhaustion_is_a_typed_overloaded_error() {
        let dev = device();
        let proxy = overloaded(&dev, 0, OverloadPolicy::default());
        // Hold every slot so every call must queue.
        let bulkhead = engine(&proxy).bulkhead();
        let slots: Vec<_> = (0..MAX_CONCURRENCY)
            .map_while(|_| bulkhead.try_acquire())
            .collect();
        assert_eq!(slots.len(), 32);
        let before = dev.now_ms();
        let err = proxy.get_location().unwrap_err();
        assert_eq!(err.kind(), ProxyErrorKind::Overloaded);
        assert_eq!(err.retry_after_ms(), Some(25));
        assert_eq!(
            dev.now_ms() - before,
            16 * 25,
            "sixteen simulated queue turns were waited"
        );
        let snap = engine(&proxy).metrics().snapshot();
        assert_eq!(snap.bulkhead_waits, 16);
        assert_eq!(snap.bulkhead_rejections, 1);
    }

    #[test]
    fn queued_caller_fails_fast_when_budget_cannot_cover_a_turn() {
        let dev = device();
        let proxy = overloaded(&dev, 0, OverloadPolicy::default());
        let bulkhead = engine(&proxy).bulkhead();
        let _slots: Vec<_> = (0..MAX_CONCURRENCY)
            .map_while(|_| bulkhead.try_acquire())
            .collect();
        let err = with_deadline(Deadline::after(dev.now_ms(), QUEUE_WAIT_MS - 1), || {
            proxy.get_location().unwrap_err()
        });
        assert_eq!(err.kind(), ProxyErrorKind::DeadlineExceeded);
        assert_eq!(engine(&proxy).metrics().snapshot().deadline_fail_fast, 1);
        assert_eq!(engine(&proxy).metrics().snapshot().bulkhead_waits, 0);
    }

    // ---- Admission controller ----------------------------------------

    #[test]
    fn aimd_decays_multiplicatively_and_recovers_additively() {
        let admission = AdmissionController::new(1);
        assert_eq!(admission.rate(), ADMIT_SCALE);
        admission.observe(1_000, 100);
        assert_eq!(admission.rate(), ADMIT_SCALE * 7 / 8);
        admission.observe(1_000, 100);
        assert_eq!(admission.rate(), ADMIT_SCALE * 7 / 8 * 7 / 8);
        let decayed = admission.rate();
        admission.observe(50, 100);
        assert_eq!(admission.rate(), decayed + ADMIT_INCREASE);
        // Recovery saturates at fully open.
        for _ in 0..200 {
            admission.observe(50, 100);
        }
        assert_eq!(admission.rate(), ADMIT_SCALE);
    }

    #[test]
    fn aimd_never_leaves_its_bounds_and_converges_under_any_signal() {
        // Deterministic mirror of the proptest invariant: whatever
        // sequence of observations arrives, the rate stays in
        // [ADMIT_FLOOR, ADMIT_SCALE] — no oscillation divergence.
        let admission = AdmissionController::new(9);
        let mut signal = 42u64;
        for _ in 0..10_000 {
            let sojourn = splitmix64(&mut signal) % 600;
            admission.observe(sojourn, 256);
            let rate = admission.rate();
            assert!((ADMIT_FLOOR..=ADMIT_SCALE).contains(&rate), "rate {rate}");
        }
        // Pure overload pins the floor; pure health pins fully open.
        for _ in 0..100 {
            admission.observe(10_000, 256);
        }
        assert_eq!(admission.rate(), ADMIT_FLOOR);
        for _ in 0..200 {
            admission.observe(1, 256);
        }
        assert_eq!(admission.rate(), ADMIT_SCALE);
    }

    #[test]
    fn shed_decisions_replay_identically_per_seed() {
        let run = |seed: u64| -> Vec<bool> {
            let admission = AdmissionController::new(seed);
            // Close the gate partway so coins are actually drawn.
            for _ in 0..10 {
                admission.observe(1_000, 100);
            }
            (0..64).map(|_| admission.admit()).collect()
        };
        assert_eq!(run(7), run(7), "same seed, same shed pattern");
        assert_ne!(run(7), run(8), "different seed, different pattern");
    }

    #[test]
    fn fully_open_gate_draws_no_coins() {
        let admission = AdmissionController::new(3);
        for _ in 0..100 {
            assert!(admission.admit());
        }
        // The stream has not advanced: closing the gate now yields the
        // same pattern as a fresh controller closed the same way.
        admission.observe(1_000, 100);
        let fresh = AdmissionController::new(3);
        fresh.observe(1_000, 100);
        let a: Vec<bool> = (0..32).map(|_| admission.admit()).collect();
        let b: Vec<bool> = (0..32).map(|_| fresh.admit()).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn degrade_tiers_track_the_admitted_fraction() {
        let admission = AdmissionController::new(1);
        assert_eq!(admission.tier(), DegradeTier::Full);
        while admission.rate() * 3 >= 2 * ADMIT_SCALE {
            admission.observe(1_000, 100);
        }
        assert_eq!(admission.tier(), DegradeTier::Reduced);
        while admission.rate() * 3 >= ADMIT_SCALE {
            admission.observe(1_000, 100);
        }
        assert_eq!(admission.tier(), DegradeTier::Minimal);
    }

    #[test]
    fn retry_hint_grows_as_the_gate_closes() {
        let admission = AdmissionController::new(1);
        assert_eq!(admission.retry_after_ms(256), 1, "open gate: minimal hint");
        for _ in 0..30 {
            admission.observe(1_000, 256);
        }
        let hint = admission.retry_after_ms(256);
        assert!(hint > 200, "closed gate suggests a real wait, got {hint}");
        assert!(hint <= 256);
    }

    // ---- Engine ------------------------------------------------------

    #[test]
    fn expired_ambient_deadline_fails_fast_before_the_binding() {
        let dev = device();
        let inner = Arc::new(Slow::new(dev.clone(), 5));
        let proxy =
            overloaded_on::<dyn LocationProxy>(&dev, inner.clone(), OverloadPolicy::default());
        let stale = Deadline::after(dev.now_ms(), 100);
        dev.advance_ms(200);
        let err = with_deadline(stale, || proxy.get_location().unwrap_err());
        assert_eq!(err.kind(), ProxyErrorKind::DeadlineExceeded);
        assert_eq!(inner.calls.load(Ordering::Relaxed), 0, "binding untouched");
        assert_eq!(engine(&proxy).metrics().snapshot().deadline_fail_fast, 1);
    }

    #[test]
    fn calls_without_an_ambient_scope_get_the_default_budget() {
        let dev = device();
        let proxy = overloaded(&dev, 5, OverloadPolicy::default());
        assert!(proxy.get_location().is_ok());
        let snap = engine(&proxy).metrics().snapshot();
        assert_eq!(snap.admitted, 1);
        assert_eq!(snap.deadline_fail_fast, 0);
    }

    #[test]
    fn slow_calls_close_the_gate_and_sheds_carry_retry_hints() {
        let dev = device();
        let proxy = overloaded(
            &dev,
            1_000,
            OverloadPolicy::default().target_ms(100).shed_seed(5),
        );
        let mut sheds = 0u32;
        let mut hints_present = true;
        for _ in 0..200 {
            match proxy.get_location() {
                Err(e) if e.kind() == ProxyErrorKind::Overloaded => {
                    sheds += 1;
                    hints_present &= e.retry_after_ms().is_some();
                }
                _ => {}
            }
        }
        // No cached fix would exist only if the very first call shed,
        // which cannot happen from a fully open gate — so sheds here
        // were absorbed by degradation unless the cache was empty.
        let snap = engine(&proxy).metrics().snapshot();
        assert!(snap.shed > 0, "1000 ms calls vs 100 ms target must shed");
        assert!(engine(&proxy).admission().rate() < ADMIT_SCALE);
        assert!(hints_present);
        assert_eq!(sheds, 0, "location sheds degrade to the cached fix");
        assert_eq!(snap.degraded, snap.shed);
    }

    #[test]
    fn degraded_location_is_coarsened_at_the_minimal_tier() {
        let dev = device();
        let proxy = overloaded(
            &dev,
            1_000,
            OverloadPolicy::default().target_ms(50).shed_seed(11),
        );
        // Drive the gate to the floor.
        let mut saw_coarse = false;
        for _ in 0..300 {
            if let Ok(fix) = proxy.get_location() {
                if fix.accuracy_m >= COARSE_ACCURACY_M {
                    saw_coarse = true;
                }
            }
        }
        assert_eq!(engine(&proxy).tier(), DegradeTier::Minimal);
        assert!(saw_coarse, "minimal tier coarsens the cached fix");
    }

    #[test]
    fn reseeding_reopens_the_gate_deterministically() {
        let dev = device();
        let proxy = overloaded(&dev, 0, OverloadPolicy::default());
        let admission = engine(&proxy).admission();
        for _ in 0..20 {
            admission.observe(1_000, 100);
        }
        assert!(admission.rate() < ADMIT_SCALE);
        admission.reseed(99);
        assert_eq!(admission.rate(), ADMIT_SCALE);
        // From here on the gate replays a fresh controller seeded alike.
        let fresh = AdmissionController::new(99);
        admission.observe(1_000, 100);
        fresh.observe(1_000, 100);
        let a: Vec<bool> = (0..32).map(|_| admission.admit()).collect();
        let b: Vec<bool> = (0..32).map(|_| fresh.admit()).collect();
        assert_eq!(a, b);
    }

    // ---- HTTP degradation --------------------------------------------

    struct OkHttp {
        device: Device,
        service_ms: u64,
    }

    impl ProxyBase for OkHttp {
        fn set_property(&self, _key: &str, _value: PropertyValue) -> Result<(), ProxyError> {
            Ok(())
        }
    }

    impl HttpProxy for OkHttp {
        fn request(
            &self,
            _method: &str,
            _url: &str,
            _body: &[u8],
        ) -> Result<HttpResult, ProxyError> {
            self.device.advance_ms(self.service_ms);
            Ok(HttpResult {
                status: 200,
                headers: Vec::new(),
                body: b"enriched".to_vec(),
            })
        }
    }

    #[test]
    fn shed_droppable_http_requests_degrade_to_synthetic_accepted() {
        let dev = device();
        let proxy = overloaded_on::<dyn HttpProxy>(
            &dev,
            Arc::new(OkHttp {
                device: dev.clone(),
                service_ms: 1_000,
            }),
            OverloadPolicy::default()
                .target_ms(50)
                .shed_seed(4)
                .droppable_path("/enrich"),
        );
        let mut degraded = 0u32;
        let mut hard_sheds = 0u32;
        for i in 0..200 {
            let url = if i % 2 == 0 {
                "http://svc/enrich/profile"
            } else {
                "http://svc/checkout"
            };
            match proxy.request("GET", url, b"") {
                Ok(r) if r.status == DEGRADED_HTTP_STATUS => {
                    assert!(url.contains("/enrich"));
                    assert_eq!(
                        r.headers[0],
                        ("X-Mobivine-Degraded".to_owned(), "shed".to_owned())
                    );
                    degraded += 1;
                }
                Ok(_) => {}
                Err(e) => {
                    assert_eq!(e.kind(), ProxyErrorKind::Overloaded);
                    assert!(!url.contains("/enrich"), "droppable paths never error");
                    hard_sheds += 1;
                }
            }
        }
        assert!(degraded > 0, "droppable enrichment was dropped");
        assert!(hard_sheds > 0, "non-droppable paths surface the shed");
        assert_eq!(
            engine(&proxy).metrics().snapshot().degraded,
            u64::from(degraded)
        );
    }
}
