//! JSR-179-style location API.
//!
//! The S60 side of the paper's motivating fragmentation example. The key
//! semantic differences from Android, all reproduced here:
//!
//! - a `LocationProvider` instance is obtained through a [`Criteria`]
//!   (desired accuracy, response time, power consumption) and creation
//!   can fail with `LocationException`;
//! - callbacks are *listener objects* ([`ProximityListener`],
//!   [`LocationListener`]), not broadcast intents;
//! - proximity registration is **single-shot**: `proximityEvent` fires
//!   once when the terminal enters the radius and the listener is then
//!   automatically removed — no exit events, no expiration parameter.
//!   (Fig. 2(b) shows the hand-written code the paper needed to emulate
//!   Android's richer semantics on top of this.)

use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use mobivine_device::gps::{GpsAvailability, GpsError};
use mobivine_device::power::PowerLevel;
use mobivine_device::GeoPoint;

use crate::error::S60Exception;
use crate::permissions::ApiPermission;
use crate::platform::S60Platform;

/// Value meaning "no requirement" in [`Criteria`] setters (JSR-179's
/// `NO_REQUIREMENT`).
pub const NO_REQUIREMENT: i32 = -1;

/// Interval at which the platform's engine re-evaluates registered
/// proximity listeners, in virtual milliseconds.
pub const PROXIMITY_CHECK_INTERVAL_MS: u64 = 1_000;

/// Default interval for [`LocationProvider::set_location_listener`] when
/// the application passes [`NO_REQUIREMENT`], in seconds.
pub const DEFAULT_LISTENER_INTERVAL_S: i32 = 1;

/// Selection criteria for [`LocationProvider::get_instance`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Criteria {
    horizontal_accuracy_m: i32,
    vertical_accuracy_m: i32,
    preferred_response_time_ms: i32,
    power_consumption: PowerLevel,
}

impl Default for Criteria {
    fn default() -> Self {
        Self {
            horizontal_accuracy_m: NO_REQUIREMENT,
            vertical_accuracy_m: NO_REQUIREMENT,
            preferred_response_time_ms: NO_REQUIREMENT,
            power_consumption: PowerLevel::NoRequirement,
        }
    }
}

impl Criteria {
    /// A criteria object with no requirements.
    pub fn new() -> Self {
        Self::default()
    }

    /// `setHorizontalAccuracy` (metres; [`NO_REQUIREMENT`] to unset).
    pub fn set_horizontal_accuracy(&mut self, metres: i32) -> &mut Self {
        self.horizontal_accuracy_m = metres;
        self
    }

    /// `setVerticalAccuracy` (metres) — the paper's Fig. 2(b) sets 50.
    pub fn set_vertical_accuracy(&mut self, metres: i32) -> &mut Self {
        self.vertical_accuracy_m = metres;
        self
    }

    /// `setPreferredResponseTime` (milliseconds).
    pub fn set_preferred_response_time(&mut self, ms: i32) -> &mut Self {
        self.preferred_response_time_ms = ms;
        self
    }

    /// `setPreferredPowerConsumption`.
    pub fn set_preferred_power_consumption(&mut self, level: PowerLevel) -> &mut Self {
        self.power_consumption = level;
        self
    }

    /// The requested power consumption level.
    pub fn power_consumption(&self) -> PowerLevel {
        self.power_consumption
    }

    /// Whether the simulated positioning hardware can satisfy these
    /// criteria. The simulated receiver cannot do better than 1 m
    /// horizontal accuracy or respond faster than 10 ms.
    pub fn is_satisfiable(&self) -> bool {
        (self.horizontal_accuracy_m == NO_REQUIREMENT || self.horizontal_accuracy_m >= 1)
            && (self.vertical_accuracy_m == NO_REQUIREMENT || self.vertical_accuracy_m >= 1)
            && (self.preferred_response_time_ms == NO_REQUIREMENT
                || self.preferred_response_time_ms >= 10)
    }
}

/// `javax.microedition.location.Coordinates`.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Coordinates {
    latitude: f64,
    longitude: f64,
    altitude: f32,
}

impl Coordinates {
    /// Creates coordinates (the paper's Fig. 2(b):
    /// `new Coordinates(latitude, longitude, (float) altitude)`).
    pub fn new(latitude: f64, longitude: f64, altitude: f32) -> Self {
        Self {
            latitude,
            longitude,
            altitude,
        }
    }

    /// `getLatitude()`.
    pub fn latitude(&self) -> f64 {
        self.latitude
    }

    /// `getLongitude()`.
    pub fn longitude(&self) -> f64 {
        self.longitude
    }

    /// `getAltitude()`.
    pub fn altitude(&self) -> f32 {
        self.altitude
    }

    /// `distance(to)` — great-circle metres.
    pub fn distance(&self, to: &Coordinates) -> f32 {
        self.as_geo().distance_m(&to.as_geo()) as f32
    }

    /// `azimuthTo(to)` — initial bearing in degrees.
    pub fn azimuth_to(&self, to: &Coordinates) -> f32 {
        self.as_geo().bearing_deg(&to.as_geo()) as f32
    }

    fn as_geo(&self) -> GeoPoint {
        GeoPoint::with_altitude(self.latitude, self.longitude, self.altitude as f64)
    }
}

/// `javax.microedition.location.Location` — the S60-flavoured location
/// value (contrast with the Android `Location` and the common proxy
/// type).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Location {
    coordinates: Coordinates,
    horizontal_accuracy: f32,
    speed: f32,
    course: f32,
    timestamp_ms: u64,
    valid: bool,
}

impl Location {
    /// An invalid location (what listeners receive while the provider is
    /// temporarily unavailable, per JSR-179).
    pub fn invalid(timestamp_ms: u64) -> Self {
        Self {
            coordinates: Coordinates::default(),
            horizontal_accuracy: f32::NAN,
            speed: 0.0,
            course: 0.0,
            timestamp_ms,
            valid: false,
        }
    }

    /// `getQualifiedCoordinates()` (accuracy folded in).
    pub fn qualified_coordinates(&self) -> Coordinates {
        self.coordinates
    }

    /// Horizontal accuracy in metres.
    pub fn horizontal_accuracy(&self) -> f32 {
        self.horizontal_accuracy
    }

    /// `getSpeed()` in m/s.
    pub fn speed(&self) -> f32 {
        self.speed
    }

    /// `getCourse()` in degrees.
    pub fn course(&self) -> f32 {
        self.course
    }

    /// `getTimestamp()` in virtual ms.
    pub fn timestamp_ms(&self) -> u64 {
        self.timestamp_ms
    }

    /// `isValid()`.
    pub fn is_valid(&self) -> bool {
        self.valid
    }
}

/// JSR-179 `ProximityListener`.
pub trait ProximityListener: Send + Sync {
    /// Called **once** when the terminal enters the registered radius;
    /// the registration is removed afterwards.
    fn proximity_event(&self, coordinates: &Coordinates, location: &Location);

    /// Called when proximity monitoring becomes (un)available.
    fn monitoring_state_changed(&self, _is_monitoring: bool) {}
}

/// JSR-179 `LocationListener`.
pub trait LocationListener: Send + Sync {
    /// Periodic location delivery. Receives an *invalid* location while
    /// the provider is temporarily unavailable.
    fn location_updated(&self, provider: &LocationProvider, location: &Location);

    /// Provider availability transitions.
    fn provider_state_changed(&self, _provider: &LocationProvider, _available: bool) {}
}

struct ProximityRegistration {
    listener: Arc<dyn ProximityListener>,
    active: Arc<AtomicBool>,
}

/// A JSR-179 location provider bound to the criteria it was created
/// with.
pub struct LocationProvider {
    platform: S60Platform,
    criteria: Criteria,
    listener_active: Arc<AtomicBool>,
}

impl fmt::Debug for LocationProvider {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("LocationProvider")
            .field("criteria", &self.criteria)
            .finish()
    }
}

impl LocationProvider {
    /// `LocationProvider.getInstance(criteria)`.
    ///
    /// # Errors
    ///
    /// - [`S60Exception::Security`] if the location permission is
    ///   denied.
    /// - [`S60Exception::Location`] if no provider can satisfy the
    ///   criteria or the positioning hardware is out of service.
    pub fn get_instance(platform: &S60Platform, criteria: Criteria) -> Result<Self, S60Exception> {
        platform.enforce(ApiPermission::Location)?;
        if !criteria.is_satisfiable() {
            return Err(S60Exception::Location(
                "no location provider satisfies the criteria".to_owned(),
            ));
        }
        if platform.device().gps().availability() == GpsAvailability::OutOfService {
            return Err(S60Exception::Location(
                "location provider out of service".to_owned(),
            ));
        }
        Ok(Self {
            platform: platform.clone(),
            criteria,
            listener_active: Arc::new(AtomicBool::new(false)),
        })
    }

    /// The criteria this provider was created with.
    pub fn criteria(&self) -> &Criteria {
        &self.criteria
    }

    /// `getLocation(timeout)` — a fresh fix.
    ///
    /// # Errors
    ///
    /// [`S60Exception::Location`] if the receiver cannot produce a fix
    /// (temporarily unavailable or out of service).
    pub fn get_location(&self, _timeout_s: i32) -> Result<Location, S60Exception> {
        let device = self.platform.device();
        let mut span = mobivine_telemetry::span::ambient::child(
            "platform:LocationProvider.getLocation",
            mobivine_telemetry::span::Plane::Platform,
            device.now_ms(),
        );
        let result = self.get_location_inner();
        if let Some(mut s) = span.take() {
            if let Err(e) = result {
                s.attr("error", location_exception(e));
            }
            s.end(device.now_ms());
        }
        result.map_err(|e| S60Exception::Location(e.to_string()))
    }

    fn get_location_inner(&self) -> Result<Location, GpsError> {
        let device = self.platform.device();
        let level = self.criteria.power_consumption;
        device.power().draw("gps", 1.0 * level.draw_multiplier());
        let fix = device.gps().current_fix()?;
        Ok(self.fix_to_location(fix, level))
    }

    fn fix_to_location(&self, fix: mobivine_device::gps::Fix, level: PowerLevel) -> Location {
        Location {
            coordinates: Coordinates::new(
                fix.point.latitude,
                fix.point.longitude,
                fix.point.altitude as f32,
            ),
            horizontal_accuracy: (fix.accuracy_m * level.accuracy_multiplier()) as f32,
            speed: fix.speed_mps as f32,
            course: fix.bearing_deg as f32,
            timestamp_ms: fix.timestamp_ms,
            valid: true,
        }
    }

    /// `setLocationListener(listener, interval, timeout, maxAge)` —
    /// intervals in seconds; pass [`NO_REQUIREMENT`] for the default.
    /// Passing `None` clears the current listener (the paper's
    /// Fig. 2(b): `lp.setLocationListener(null, -1, -1, -1)`).
    pub fn set_location_listener(
        &self,
        listener: Option<Arc<dyn LocationListener>>,
        interval_s: i32,
        _timeout_s: i32,
        _max_age_s: i32,
    ) {
        // Clear any previous listener.
        self.listener_active.store(false, Ordering::SeqCst);
        let Some(listener) = listener else {
            return;
        };
        let active = Arc::new(AtomicBool::new(true));
        self.listener_active.store(true, Ordering::SeqCst);
        // Tie the new registration's lifetime to listener_active as well:
        // a subsequent set_location_listener call flips listener_active,
        // which the pump checks.
        let interval_ms = if interval_s == NO_REQUIREMENT {
            DEFAULT_LISTENER_INTERVAL_S as u64 * 1_000
        } else {
            (interval_s.max(1) as u64) * 1_000
        };
        schedule_listener_pump(
            self.platform.clone(),
            self.criteria,
            Arc::clone(&self.listener_active),
            active,
            listener,
            interval_ms,
        );
    }

    /// `LocationProvider.addProximityListener(listener, coordinates,
    /// proximityRadius)` — static in J2ME, hence takes the platform.
    ///
    /// Single-shot semantics: `proximity_event` fires at most once, on
    /// entering, after which the registration is removed automatically.
    ///
    /// # Errors
    ///
    /// - [`S60Exception::Security`] if the location permission is
    ///   denied.
    /// - [`S60Exception::IllegalArgument`] for a non-positive radius or
    ///   invalid coordinates.
    /// - [`S60Exception::Location`] if the platform cannot monitor
    ///   proximity (hardware out of service).
    pub fn add_proximity_listener(
        platform: &S60Platform,
        listener: Arc<dyn ProximityListener>,
        coordinates: Coordinates,
        proximity_radius: f32,
    ) -> Result<(), S60Exception> {
        platform.enforce(ApiPermission::Location)?;
        if proximity_radius <= 0.0 || proximity_radius.is_nan() {
            return Err(S60Exception::IllegalArgument(
                "proximity radius must be positive".to_owned(),
            ));
        }
        if !GeoPoint::new(coordinates.latitude(), coordinates.longitude()).is_valid() {
            return Err(S60Exception::IllegalArgument(
                "invalid coordinates".to_owned(),
            ));
        }
        if platform.device().gps().availability() == GpsAvailability::OutOfService {
            return Err(S60Exception::Location(
                "proximity monitoring unavailable".to_owned(),
            ));
        }
        let registration = ProximityRegistration {
            listener,
            active: Arc::new(AtomicBool::new(true)),
        };
        proximity_registry(platform).lock().push((
            Arc::clone(&registration.listener),
            Arc::clone(&registration.active),
        ));
        schedule_proximity_check(
            platform.clone(),
            registration,
            coordinates,
            proximity_radius as f64,
        );
        Ok(())
    }

    /// `LocationProvider.removeProximityListener(listener)` — removes a
    /// registration by listener identity. Returns `true` if it was
    /// registered.
    pub fn remove_proximity_listener(
        platform: &S60Platform,
        listener: &Arc<dyn ProximityListener>,
    ) -> bool {
        let registry = proximity_registry(platform);
        let mut entries = registry.lock();
        let before = entries.len();
        entries.retain(|(l, active)| {
            if Arc::ptr_eq(l, listener) {
                active.store(false, Ordering::SeqCst);
                false
            } else {
                true
            }
        });
        entries.len() != before
    }
}

type ProximityRegistry = Arc<Mutex<Vec<(Arc<dyn ProximityListener>, Arc<AtomicBool>)>>>;

// The J2ME API is static; we key the per-device registry off the device's
// event queue identity by stashing it in a global map.
fn proximity_registry(platform: &S60Platform) -> ProximityRegistry {
    use std::collections::HashMap;
    use std::sync::OnceLock;
    static REGISTRIES: OnceLock<Mutex<HashMap<usize, ProximityRegistry>>> = OnceLock::new();
    let key = Arc::as_ptr(platform.device().events()) as usize;
    let map = REGISTRIES.get_or_init(|| Mutex::new(HashMap::new()));
    Arc::clone(map.lock().entry(key).or_default())
}

fn schedule_proximity_check(
    platform: S60Platform,
    registration: ProximityRegistration,
    target: Coordinates,
    radius_m: f64,
) {
    let device = platform.device().clone();
    let fire_at = device.now_ms() + PROXIMITY_CHECK_INTERVAL_MS;
    device
        .events()
        .schedule_at(fire_at, "s60-proximity-check", move |_| {
            if !registration.active.load(Ordering::SeqCst) {
                return;
            }
            let device = platform.device();
            device.power().draw("gps", 0.2);
            if device.gps().availability() == GpsAvailability::OutOfService {
                registration.active.store(false, Ordering::SeqCst);
                registration.listener.monitoring_state_changed(false);
                return;
            }
            let position = device.gps().true_position();
            let here = GeoPoint::new(target.latitude(), target.longitude());
            if position.distance_m(&here) <= radius_m {
                // Single-shot: fire once, then the registration dies.
                registration.active.store(false, Ordering::SeqCst);
                let location = Location {
                    coordinates: Coordinates::new(
                        position.latitude,
                        position.longitude,
                        position.altitude as f32,
                    ),
                    horizontal_accuracy: 5.0,
                    speed: 0.0,
                    course: 0.0,
                    timestamp_ms: device.now_ms(),
                    valid: true,
                };
                registration.listener.proximity_event(&target, &location);
            } else {
                schedule_proximity_check(platform.clone(), registration, target, radius_m);
            }
        });
}

fn schedule_listener_pump(
    platform: S60Platform,
    criteria: Criteria,
    provider_active: Arc<AtomicBool>,
    my_active: Arc<AtomicBool>,
    listener: Arc<dyn LocationListener>,
    interval_ms: u64,
) {
    let device = platform.device().clone();
    let fire_at = device.now_ms() + interval_ms;
    device
        .events()
        .schedule_at(fire_at, "s60-location-listener", move |_| {
            if !my_active.load(Ordering::SeqCst) || !provider_active.load(Ordering::SeqCst) {
                return;
            }
            let device = platform.device();
            let level = criteria.power_consumption;
            device.power().draw("gps", 0.5 * level.draw_multiplier());
            // Rebuild a provider view for the callback parameter.
            let provider = LocationProvider {
                platform: platform.clone(),
                criteria,
                listener_active: Arc::clone(&provider_active),
            };
            match device.gps().current_fix() {
                Ok(fix) => {
                    let location = provider.fix_to_location(fix, level);
                    listener.location_updated(&provider, &location);
                }
                Err(_) => {
                    listener.location_updated(&provider, &Location::invalid(device.now_ms()));
                }
            }
            schedule_listener_pump(
                platform.clone(),
                criteria,
                provider_active,
                my_active,
                listener,
                interval_ms,
            );
        });
}

/// The rendering of the `LocationException` a receiver failure
/// surfaces as, spelled statically for the span `error` attribute.
fn location_exception(e: GpsError) -> &'static str {
    match e {
        GpsError::TemporarilyUnavailable => "location exception: gps temporarily unavailable",
        GpsError::OutOfService => "location exception: gps out of service",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mobivine_device::movement::MovementModel;
    use mobivine_device::Device;
    use std::sync::Mutex as StdMutex;

    const HOME: GeoPoint = GeoPoint {
        latitude: 28.5355,
        longitude: 77.3910,
        altitude: 0.0,
    };

    #[test]
    fn location_exception_spells_the_exception_rendering() {
        for e in [GpsError::TemporarilyUnavailable, GpsError::OutOfService] {
            let rendered = S60Exception::Location(e.to_string()).to_string();
            assert_eq!(location_exception(e), rendered);
        }
    }

    struct RecordingProximity {
        events: StdMutex<Vec<(f64, f64)>>,
        monitoring: StdMutex<Vec<bool>>,
    }

    impl RecordingProximity {
        fn new() -> Arc<Self> {
            Arc::new(Self {
                events: StdMutex::new(Vec::new()),
                monitoring: StdMutex::new(Vec::new()),
            })
        }
    }

    impl ProximityListener for RecordingProximity {
        fn proximity_event(&self, coordinates: &Coordinates, location: &Location) {
            assert!(location.is_valid());
            self.events
                .lock()
                .unwrap()
                .push((coordinates.latitude(), coordinates.longitude()));
        }
        fn monitoring_state_changed(&self, is_monitoring: bool) {
            self.monitoring.lock().unwrap().push(is_monitoring);
        }
    }

    fn moving_platform() -> S60Platform {
        let start = HOME.destination(270.0, 500.0);
        let device = Device::builder()
            .position(start)
            .movement(MovementModel::linear(start, 90.0, 10.0))
            .build();
        device.gps().set_noise_enabled(false);
        S60Platform::new(device)
    }

    #[test]
    fn get_instance_honours_criteria() {
        let platform = S60Platform::new(Device::builder().build());
        let mut ok = Criteria::new();
        ok.set_vertical_accuracy(50)
            .set_preferred_response_time(NO_REQUIREMENT);
        assert!(LocationProvider::get_instance(&platform, ok).is_ok());

        let mut bad = Criteria::new();
        bad.set_horizontal_accuracy(0); // better-than-possible
        assert!(matches!(
            LocationProvider::get_instance(&platform, bad),
            Err(S60Exception::Location(_))
        ));
    }

    #[test]
    fn get_instance_fails_when_gps_out_of_service() {
        let platform = S60Platform::new(Device::builder().build());
        platform
            .device()
            .gps()
            .set_availability(GpsAvailability::OutOfService);
        assert!(matches!(
            LocationProvider::get_instance(&platform, Criteria::new()),
            Err(S60Exception::Location(_))
        ));
    }

    #[test]
    fn get_location_returns_coordinates() {
        let device = Device::builder().position(HOME).build();
        device.gps().set_noise_enabled(false);
        let platform = S60Platform::new(device);
        let provider = LocationProvider::get_instance(&platform, Criteria::new()).unwrap();
        let loc = provider.get_location(NO_REQUIREMENT).unwrap();
        assert!(loc.is_valid());
        let c = loc.qualified_coordinates();
        assert!((c.latitude() - HOME.latitude).abs() < 1e-9);
    }

    #[test]
    fn low_power_criteria_coarsens_accuracy_and_saves_energy() {
        let device = Device::builder().position(HOME).build();
        let platform = S60Platform::new(device);
        let mut low = Criteria::new();
        low.set_preferred_power_consumption(PowerLevel::Low);
        let mut high = Criteria::new();
        high.set_preferred_power_consumption(PowerLevel::High);
        let p_low = LocationProvider::get_instance(&platform, low).unwrap();
        let p_high = LocationProvider::get_instance(&platform, high).unwrap();
        let before = platform.device().power().component_total("gps");
        let l_low = p_low.get_location(-1).unwrap();
        let mid = platform.device().power().component_total("gps");
        let l_high = p_high.get_location(-1).unwrap();
        let after = platform.device().power().component_total("gps");
        assert!(l_low.horizontal_accuracy() > l_high.horizontal_accuracy());
        assert!((mid - before) < (after - mid), "high power draws more");
    }

    #[test]
    fn proximity_fires_once_and_auto_removes() {
        let platform = moving_platform();
        let listener = RecordingProximity::new();
        let target = Coordinates::new(HOME.latitude, HOME.longitude, 0.0);
        LocationProvider::add_proximity_listener(
            &platform,
            Arc::clone(&listener) as _,
            target,
            100.0,
        )
        .unwrap();
        // Walks in at ~40 s, out at ~60 s, but single-shot means exactly
        // one event even after 120 s.
        platform.device().advance_ms(120_000);
        assert_eq!(listener.events.lock().unwrap().len(), 1);
    }

    #[test]
    fn proximity_does_not_refire_on_reentry() {
        let start = HOME.destination(270.0, 300.0);
        let far = HOME.destination(90.0, 300.0);
        let device = Device::builder()
            .position(start)
            .movement(MovementModel::waypoint_loop(vec![start, far], 20.0))
            .build();
        device.gps().set_noise_enabled(false);
        let platform = S60Platform::new(device);
        let listener = RecordingProximity::new();
        LocationProvider::add_proximity_listener(
            &platform,
            Arc::clone(&listener) as _,
            Coordinates::new(HOME.latitude, HOME.longitude, 0.0),
            100.0,
        )
        .unwrap();
        platform.device().advance_ms(300_000); // many loop laps
        assert_eq!(
            listener.events.lock().unwrap().len(),
            1,
            "JSR-179 proximity is single-shot"
        );
    }

    #[test]
    fn remove_proximity_listener_by_identity() {
        let platform = moving_platform();
        let listener = RecordingProximity::new();
        let dyn_listener: Arc<dyn ProximityListener> = listener.clone();
        LocationProvider::add_proximity_listener(
            &platform,
            Arc::clone(&dyn_listener),
            Coordinates::new(HOME.latitude, HOME.longitude, 0.0),
            100.0,
        )
        .unwrap();
        assert!(LocationProvider::remove_proximity_listener(
            &platform,
            &dyn_listener
        ));
        assert!(!LocationProvider::remove_proximity_listener(
            &platform,
            &dyn_listener
        ));
        platform.device().advance_ms(120_000);
        assert!(listener.events.lock().unwrap().is_empty());
    }

    #[test]
    fn proximity_monitoring_loss_notifies_listener() {
        let platform = moving_platform();
        let listener = RecordingProximity::new();
        LocationProvider::add_proximity_listener(
            &platform,
            Arc::clone(&listener) as _,
            Coordinates::new(HOME.latitude, HOME.longitude, 0.0),
            100.0,
        )
        .unwrap();
        platform.device().advance_ms(5_000);
        platform
            .device()
            .gps()
            .set_availability(GpsAvailability::OutOfService);
        platform.device().advance_ms(5_000);
        assert_eq!(listener.monitoring.lock().unwrap().as_slice(), &[false]);
        assert!(listener.events.lock().unwrap().is_empty());
    }

    #[test]
    fn proximity_validates_arguments() {
        let platform = moving_platform();
        let listener = RecordingProximity::new();
        assert!(matches!(
            LocationProvider::add_proximity_listener(
                &platform,
                Arc::clone(&listener) as _,
                Coordinates::new(0.0, 0.0, 0.0),
                0.0,
            ),
            Err(S60Exception::IllegalArgument(_))
        ));
        assert!(matches!(
            LocationProvider::add_proximity_listener(
                &platform,
                listener as _,
                Coordinates::new(200.0, 0.0, 0.0),
                10.0,
            ),
            Err(S60Exception::IllegalArgument(_))
        ));
    }

    #[test]
    fn location_listener_periodic_updates_and_clear() {
        struct Collect(StdMutex<Vec<bool>>);
        impl LocationListener for Collect {
            fn location_updated(&self, _p: &LocationProvider, location: &Location) {
                self.0.lock().unwrap().push(location.is_valid());
            }
        }
        let device = Device::builder().position(HOME).build();
        let platform = S60Platform::new(device);
        let provider = LocationProvider::get_instance(&platform, Criteria::new()).unwrap();
        let listener = Arc::new(Collect(StdMutex::new(Vec::new())));
        provider.set_location_listener(Some(Arc::clone(&listener) as _), 2, -1, -1);
        platform.device().advance_ms(10_000);
        assert_eq!(listener.0.lock().unwrap().len(), 5);
        // Clearing with None stops delivery (Fig. 2(b)'s
        // setLocationListener(null, -1, -1, -1)).
        provider.set_location_listener(None, -1, -1, -1);
        platform.device().advance_ms(10_000);
        assert_eq!(listener.0.lock().unwrap().len(), 5);
    }

    #[test]
    fn location_listener_gets_invalid_location_when_unavailable() {
        struct Collect(StdMutex<Vec<bool>>);
        impl LocationListener for Collect {
            fn location_updated(&self, _p: &LocationProvider, location: &Location) {
                self.0.lock().unwrap().push(location.is_valid());
            }
        }
        let device = Device::builder().position(HOME).build();
        let platform = S60Platform::new(device);
        let provider = LocationProvider::get_instance(&platform, Criteria::new()).unwrap();
        let listener = Arc::new(Collect(StdMutex::new(Vec::new())));
        provider.set_location_listener(Some(Arc::clone(&listener) as _), 1, -1, -1);
        platform.device().advance_ms(2_000);
        platform
            .device()
            .gps()
            .set_availability(GpsAvailability::TemporarilyUnavailable);
        platform.device().advance_ms(2_000);
        let seen = listener.0.lock().unwrap().clone();
        assert_eq!(seen, vec![true, true, false, false]);
    }

    #[test]
    fn coordinates_distance_and_azimuth() {
        let a = Coordinates::new(0.0, 0.0, 0.0);
        let b = Coordinates::new(0.0, 1.0, 0.0);
        assert!((a.distance(&b) - 111_195.0).abs() < 200.0);
        assert!((a.azimuth_to(&b) - 90.0).abs() < 0.01);
    }

    #[test]
    fn denied_permission_is_security_exception() {
        use crate::permissions::{ApiPermission, Disposition, PermissionPolicy};
        let policy = PermissionPolicy::new();
        policy.set(ApiPermission::Location, Disposition::Denied);
        let platform = S60Platform::with_policy(Device::builder().build(), policy);
        assert!(matches!(
            LocationProvider::get_instance(&platform, Criteria::new()),
            Err(S60Exception::Security(_))
        ));
    }
}
