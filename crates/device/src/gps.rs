//! Simulated GPS engine.
//!
//! Produces position fixes by sampling the device's [`MovementModel`] at
//! the current virtual time and perturbing the result with a seeded,
//! time-keyed noise model. Exposes the availability states that both
//! platform stacks surface (Android provider enabled/disabled, S60
//! `LocationProvider` AVAILABLE / TEMPORARILY_UNAVAILABLE /
//! OUT_OF_SERVICE).

use std::fmt;
use std::sync::{Arc, OnceLock};

use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use mobivine_telemetry::span::{ambient, Plane};
use mobivine_telemetry::{Counter, Labels, MetricsRegistry};

use crate::clock::SimClock;
use crate::geo::GeoPoint;
use crate::movement::MovementModel;

/// Availability of the positioning hardware.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum GpsAvailability {
    /// Fixes are produced normally.
    #[default]
    Available,
    /// Signal temporarily lost (urban canyon, indoors); fix requests fail
    /// but the engine may recover.
    TemporarilyUnavailable,
    /// Positioning hardware off or absent; fix requests fail permanently
    /// until re-enabled.
    OutOfService,
}

/// A position fix.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fix {
    /// Estimated position (noise already applied).
    pub point: GeoPoint,
    /// 1-sigma horizontal accuracy in metres.
    pub accuracy_m: f64,
    /// Virtual time the fix was produced.
    pub timestamp_ms: u64,
    /// Ground speed estimate in metres/second.
    pub speed_mps: f64,
    /// Course over ground, degrees from true north.
    pub bearing_deg: f64,
}

/// Error produced when no fix can be obtained.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GpsError {
    /// The engine is temporarily unable to produce a fix.
    TemporarilyUnavailable,
    /// The positioning hardware is out of service.
    OutOfService,
}

impl GpsError {
    /// The error's description, as its `Display` renders it.
    pub fn as_str(self) -> &'static str {
        match self {
            GpsError::TemporarilyUnavailable => "gps temporarily unavailable",
            GpsError::OutOfService => "gps out of service",
        }
    }
}

impl fmt::Display for GpsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl std::error::Error for GpsError {}

#[derive(Debug)]
struct GpsState {
    origin: GeoPoint,
    movement: MovementModel,
    availability: GpsAvailability,
    accuracy_m: f64,
    noise_enabled: bool,
    seed: u64,
    ttff_ms: u64,
    started_at_ms: Option<u64>,
}

struct GpsMetrics {
    fixes: Counter,
    errors: Counter,
}

/// The simulated GPS receiver.
///
/// # Example
///
/// ```
/// use mobivine_device::clock::SimClock;
/// use mobivine_device::geo::GeoPoint;
/// use mobivine_device::gps::GpsEngine;
/// use mobivine_device::movement::MovementModel;
///
/// let clock = SimClock::new();
/// let engine = GpsEngine::new(
///     clock.clone(),
///     GeoPoint::new(28.5, 77.3),
///     MovementModel::stationary(),
///     42,
/// );
/// let fix = engine.current_fix().unwrap();
/// assert!(fix.point.distance_m(&GeoPoint::new(28.5, 77.3)) <= 3.0 * fix.accuracy_m);
/// ```
pub struct GpsEngine {
    clock: SimClock,
    state: Mutex<GpsState>,
    metrics: OnceLock<GpsMetrics>,
}

impl fmt::Debug for GpsEngine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let state = self.state.lock();
        f.debug_struct("GpsEngine")
            .field("availability", &state.availability)
            .field("accuracy_m", &state.accuracy_m)
            .finish()
    }
}

impl GpsEngine {
    /// Creates an engine at `origin` following `movement`, with noise
    /// keyed off `seed`.
    pub fn new(clock: SimClock, origin: GeoPoint, movement: MovementModel, seed: u64) -> Self {
        Self {
            clock,
            state: Mutex::new(GpsState {
                origin,
                movement,
                availability: GpsAvailability::Available,
                accuracy_m: 5.0,
                noise_enabled: true,
                seed,
                ttff_ms: 0,
                started_at_ms: None,
            }),
            metrics: OnceLock::new(),
        }
    }

    /// Connects the engine to a metrics registry: fixes and fix errors
    /// are counted under `device_gps_fixes_total` /
    /// `device_gps_errors_total`. Called by the device builder; engines
    /// constructed standalone publish nothing. A second binding is
    /// ignored.
    pub fn bind_metrics(&self, registry: Arc<MetricsRegistry>) {
        let _ = self.metrics.set(GpsMetrics {
            fixes: registry.counter("device_gps_fixes_total", &Labels::empty()),
            errors: registry.counter("device_gps_errors_total", &Labels::empty()),
        });
    }

    /// Sets the 1-sigma horizontal accuracy used by the noise model
    /// (default 5 m).
    pub fn set_accuracy_m(&self, accuracy_m: f64) {
        self.state.lock().accuracy_m = accuracy_m.max(0.0);
    }

    /// Enables or disables fix noise. With noise disabled, fixes report
    /// the true position from the movement model (used by deterministic
    /// proximity tests).
    pub fn set_noise_enabled(&self, enabled: bool) {
        self.state.lock().noise_enabled = enabled;
    }

    /// Sets the time-to-first-fix: fix requests within `ttff_ms` of the
    /// first request fail with [`GpsError::TemporarilyUnavailable`],
    /// mirroring a cold-started receiver.
    pub fn set_time_to_first_fix_ms(&self, ttff_ms: u64) {
        let mut state = self.state.lock();
        state.ttff_ms = ttff_ms;
        state.started_at_ms = None;
    }

    /// Changes the availability state.
    pub fn set_availability(&self, availability: GpsAvailability) {
        self.state.lock().availability = availability;
    }

    /// Current availability state.
    pub fn availability(&self) -> GpsAvailability {
        self.state.lock().availability
    }

    /// The *true* (noise-free) position at the current virtual time.
    ///
    /// Always succeeds — the device is somewhere even when the receiver
    /// has no signal. Tests use this as ground truth.
    pub fn true_position(&self) -> GeoPoint {
        let mut state = self.state.lock();
        let origin = state.origin;
        state.movement.position_at(self.clock.now_ms(), origin)
    }

    /// Produces a position fix at the current virtual time.
    ///
    /// # Errors
    ///
    /// Returns [`GpsError::OutOfService`] or
    /// [`GpsError::TemporarilyUnavailable`] depending on
    /// [`GpsAvailability`], and `TemporarilyUnavailable` while within the
    /// configured time-to-first-fix window.
    pub fn current_fix(&self) -> Result<Fix, GpsError> {
        let now = self.clock.now_ms();
        let span = ambient::child("device:gps.currentFix", Plane::Device, now);
        let result = self.fix_at(now);
        if let Some(metrics) = self.metrics.get() {
            match &result {
                Ok(_) => metrics.fixes.inc(),
                Err(_) => metrics.errors.inc(),
            }
        }
        if let Some(mut span) = span {
            if let Err(e) = result {
                span.attr("error", e.as_str());
            }
            span.end(self.clock.now_ms());
        }
        result
    }

    fn fix_at(&self, now: u64) -> Result<Fix, GpsError> {
        let mut state = self.state.lock();
        match state.availability {
            GpsAvailability::OutOfService => return Err(GpsError::OutOfService),
            GpsAvailability::TemporarilyUnavailable => {
                return Err(GpsError::TemporarilyUnavailable)
            }
            GpsAvailability::Available => {}
        }
        if state.ttff_ms > 0 {
            let started = *state.started_at_ms.get_or_insert(now);
            if now < started + state.ttff_ms {
                return Err(GpsError::TemporarilyUnavailable);
            }
        }
        let origin = state.origin;
        let truth = state.movement.position_at(now, origin);
        let point = if state.noise_enabled && state.accuracy_m > 0.0 {
            // Key the RNG by (seed, time) so repeated queries at the same
            // virtual time return identical fixes.
            let mut rng = StdRng::seed_from_u64(state.seed ^ now.rotate_left(17));
            let bearing: f64 = rng.gen::<f64>() * 360.0;
            // Approximate Rayleigh radial error via two uniform draws.
            let r: f64 = state.accuracy_m * (rng.gen::<f64>() + rng.gen::<f64>()) / 2.0;
            truth.destination(bearing, r)
        } else {
            truth
        };
        // Estimate speed/bearing from a short look-behind.
        let (speed_mps, bearing_deg) = if now >= 1000 {
            let before = state.movement.position_at(now - 1000, origin);
            let d = before.distance_m(&truth);
            (d, before.bearing_deg(&truth))
        } else {
            (0.0, 0.0)
        };
        Ok(Fix {
            point,
            accuracy_m: state.accuracy_m,
            timestamp_ms: now,
            speed_mps,
            bearing_deg,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn engine() -> (SimClock, GpsEngine) {
        let clock = SimClock::new();
        let engine = GpsEngine::new(
            clock.clone(),
            GeoPoint::new(28.5355, 77.3910),
            MovementModel::stationary(),
            42,
        );
        (clock, engine)
    }

    #[test]
    fn fix_is_near_truth() {
        let (_clock, engine) = engine();
        engine.set_accuracy_m(5.0);
        let fix = engine.current_fix().unwrap();
        let truth = engine.true_position();
        assert!(truth.distance_m(&fix.point) <= 5.0 * 3.0);
    }

    #[test]
    fn noise_free_fix_equals_truth() {
        let (_clock, engine) = engine();
        engine.set_noise_enabled(false);
        let fix = engine.current_fix().unwrap();
        assert_eq!(fix.point, engine.true_position());
    }

    #[test]
    fn repeated_fix_at_same_time_is_identical() {
        let (_clock, engine) = engine();
        let a = engine.current_fix().unwrap();
        let b = engine.current_fix().unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn fix_changes_over_time_with_movement() {
        let clock = SimClock::new();
        let engine = GpsEngine::new(
            clock.clone(),
            GeoPoint::new(28.5, 77.3),
            MovementModel::linear(GeoPoint::new(28.5, 77.3), 0.0, 10.0),
            1,
        );
        engine.set_noise_enabled(false);
        let a = engine.current_fix().unwrap();
        clock.advance_ms(10_000);
        let b = engine.current_fix().unwrap();
        assert!((a.point.distance_m(&b.point) - 100.0).abs() < 0.5);
        assert!((b.speed_mps - 10.0).abs() < 0.2);
    }

    #[test]
    fn out_of_service_fails() {
        let (_clock, engine) = engine();
        engine.set_availability(GpsAvailability::OutOfService);
        assert_eq!(engine.current_fix(), Err(GpsError::OutOfService));
    }

    #[test]
    fn temporarily_unavailable_then_recovers() {
        let (_clock, engine) = engine();
        engine.set_availability(GpsAvailability::TemporarilyUnavailable);
        assert_eq!(engine.current_fix(), Err(GpsError::TemporarilyUnavailable));
        engine.set_availability(GpsAvailability::Available);
        assert!(engine.current_fix().is_ok());
    }

    #[test]
    fn time_to_first_fix_blocks_then_clears() {
        let (clock, engine) = engine();
        engine.set_time_to_first_fix_ms(2_000);
        assert_eq!(engine.current_fix(), Err(GpsError::TemporarilyUnavailable));
        clock.advance_ms(1_999);
        assert!(engine.current_fix().is_err());
        clock.advance_ms(1);
        assert!(engine.current_fix().is_ok());
    }

    #[test]
    fn true_position_ignores_availability() {
        let (_clock, engine) = engine();
        engine.set_availability(GpsAvailability::OutOfService);
        let p = engine.true_position();
        assert!(p.is_valid());
    }

    #[test]
    fn timestamp_matches_clock() {
        let (clock, engine) = engine();
        clock.advance_ms(777);
        assert_eq!(engine.current_fix().unwrap().timestamp_ms, 777);
    }
}
