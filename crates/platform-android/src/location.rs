//! `LocationManager`: current location, location updates, proximity
//! alerts.
//!
//! Reproduces the Android m5-rc15 semantics the paper contrasts with S60
//! (§2): proximity-alert registration produces **two kinds of events**
//! (entering and exiting the region), delivered **repeatedly** via
//! broadcast [`Intent`]s until an **expiration** period elapses. The
//! Android 1.0 variant of the API takes a [`PendingIntent`] instead
//! ([`LocationManager::add_proximity_alert_pending`]).

use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use mobivine_device::gps::GpsError;

use crate::context::Context;
use crate::error::AndroidException;
use crate::intent::Intent;
use crate::pending_intent::PendingIntent;
use crate::permissions::Permission;

/// Extra key carrying the enter/exit flag on proximity broadcast intents
/// (`LocationManager.KEY_PROXIMITY_ENTERING` on the real platform).
pub const KEY_PROXIMITY_ENTERING: &str = "entering";

/// Interval at which the platform's internal engine re-evaluates
/// registered proximity regions, in virtual milliseconds.
pub const PROXIMITY_CHECK_INTERVAL_MS: u64 = 1_000;

/// Name of the GPS location provider.
pub const GPS_PROVIDER: &str = "gps";
/// Name of the cell-network location provider.
pub const NETWORK_PROVIDER: &str = "network";

/// An Android-flavoured location value (the platform-specific type the
/// paper's Fig. 2(a) passes around, as opposed to the common proxy
/// `Location` type of Fig. 8).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Location {
    latitude: f64,
    longitude: f64,
    altitude: f64,
    accuracy: f32,
    time: u64,
    speed: f32,
    bearing: f32,
}

impl Location {
    /// `getLatitude()`.
    pub fn latitude(&self) -> f64 {
        self.latitude
    }

    /// `getLongitude()`.
    pub fn longitude(&self) -> f64 {
        self.longitude
    }

    /// `getAltitude()`.
    pub fn altitude(&self) -> f64 {
        self.altitude
    }

    /// `getAccuracy()` — metres, 1-sigma.
    pub fn accuracy(&self) -> f32 {
        self.accuracy
    }

    /// `getTime()` — virtual ms.
    pub fn time(&self) -> u64 {
        self.time
    }

    /// `getSpeed()` — m/s.
    pub fn speed(&self) -> f32 {
        self.speed
    }

    /// `getBearing()` — degrees from north.
    pub fn bearing(&self) -> f32 {
        self.bearing
    }
}

/// Callback for [`LocationManager::request_location_updates`].
pub trait LocationListener: Send + Sync {
    /// Called with each new location.
    fn on_location_changed(&self, location: &Location);
}

/// Handle for a registered proximity alert or update subscription.
#[derive(Debug, Clone)]
pub struct Registration {
    active: Arc<AtomicBool>,
}

impl Registration {
    /// Whether the registration is still delivering events.
    pub fn is_active(&self) -> bool {
        self.active.load(Ordering::SeqCst)
    }

    /// Cancels the registration: no further events are delivered and
    /// the platform's recurring checks stop rescheduling.
    pub fn cancel(&self) {
        self.active.store(false, Ordering::SeqCst);
    }
}

/// Internal registry record: the action an alert was registered under
/// plus its cancellation handle. Lives in the context's shared
/// registry.
pub(crate) struct AlertBookkeeping {
    action: String,
    registration: Registration,
}

/// The Android location system service.
pub struct LocationManager {
    ctx: Context,
    alerts: Arc<Mutex<Vec<AlertBookkeeping>>>,
}

impl fmt::Debug for LocationManager {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("LocationManager")
            .field("alerts", &self.alerts.lock().len())
            .finish()
    }
}

impl LocationManager {
    pub(crate) fn new(ctx: Context) -> Self {
        let alerts = ctx.proximity_alerts();
        Self { ctx, alerts }
    }

    /// `getCurrentLocation(provider)` — a fresh fix from the named
    /// provider. The network provider reports coarser accuracy.
    ///
    /// # Errors
    ///
    /// - [`AndroidException::Security`] without
    ///   `ACCESS_FINE_LOCATION`.
    /// - [`AndroidException::IllegalArgument`] for unknown providers.
    /// - [`AndroidException::Remote`] when the receiver has no fix.
    pub fn get_current_location(&self, provider: &str) -> Result<Location, AndroidException> {
        let device = self.ctx.device();
        let mut span = mobivine_telemetry::span::ambient::child(
            "platform:LocationManager.getCurrentLocation",
            mobivine_telemetry::span::Plane::Platform,
            device.now_ms(),
        );
        if let Some(s) = span.as_mut() {
            // Providers form a closed vocabulary; mapping to the static
            // constant keeps the traced fast path allocation-free.
            s.attr(
                "provider",
                match provider {
                    GPS_PROVIDER => GPS_PROVIDER,
                    NETWORK_PROVIDER => NETWORK_PROVIDER,
                    _ => "unknown",
                },
            );
        }
        let result = self.get_current_location_inner(provider);
        if let Some(mut s) = span {
            if let Err(e) = &result {
                match e {
                    FixFailure::Gps(e) => s.attr("error", remote_exception(*e)),
                    FixFailure::Other(e) => s.attr("error", e.to_string()),
                }
            }
            s.end(device.now_ms());
        }
        result.map_err(|failure| match failure {
            FixFailure::Gps(e) => AndroidException::Remote(e.to_string()),
            FixFailure::Other(e) => e,
        })
    }

    fn get_current_location_inner(&self, provider: &str) -> Result<Location, FixFailure> {
        self.ctx
            .enforce_permission(Permission::AccessFineLocation)?;
        let accuracy_multiplier = match provider {
            GPS_PROVIDER => 1.0f32,
            NETWORK_PROVIDER => 10.0,
            other => {
                return Err(FixFailure::Other(AndroidException::IllegalArgument(
                    format!("unknown location provider '{other}'"),
                )))
            }
        };
        let device = self.ctx.device();
        device.power().draw("gps", 1.0);
        let fix = device.gps().current_fix().map_err(FixFailure::Gps)?;
        Ok(Location {
            latitude: fix.point.latitude,
            longitude: fix.point.longitude,
            altitude: fix.point.altitude,
            accuracy: fix.accuracy_m as f32 * accuracy_multiplier,
            time: fix.timestamp_ms,
            speed: fix.speed_mps as f32,
            bearing: fix.bearing_deg as f32,
        })
    }

    /// `requestLocationUpdates(provider, minTime, ...)` — delivers a
    /// location to `listener` every `min_time_ms` of virtual time until
    /// the returned [`Registration`] is removed.
    ///
    /// # Errors
    ///
    /// Same permission and provider errors as
    /// [`LocationManager::get_current_location`].
    pub fn request_location_updates(
        &self,
        provider: &str,
        min_time_ms: u64,
        listener: Arc<dyn LocationListener>,
    ) -> Result<Registration, AndroidException> {
        self.ctx
            .enforce_permission(Permission::AccessFineLocation)?;
        if provider != GPS_PROVIDER && provider != NETWORK_PROVIDER {
            return Err(AndroidException::IllegalArgument(format!(
                "unknown location provider '{other}'",
                other = provider
            )));
        }
        let registration = Registration {
            active: Arc::new(AtomicBool::new(true)),
        };
        let period = min_time_ms.max(1);
        schedule_updates(self.ctx.clone(), registration.clone(), listener, period);
        Ok(registration)
    }

    /// `removeUpdates` / generic cancellation of a [`Registration`].
    pub fn remove_updates(&self, registration: &Registration) {
        registration.cancel();
    }

    /// `addProximityAlert(latitude, longitude, radius, expiration,
    /// intent)` — **SDK m5-rc15 signature**.
    ///
    /// Registers a region; whenever the device crosses the boundary the
    /// platform broadcasts a copy of `intent` on the owning context with
    /// a boolean extra [`KEY_PROXIMITY_ENTERING`]. Events repeat (both
    /// enter and exit) until `expiration_ms` of virtual time elapses;
    /// a negative expiration never expires.
    ///
    /// # Errors
    ///
    /// - [`AndroidException::Security`] without
    ///   `ACCESS_FINE_LOCATION`.
    /// - [`AndroidException::IllegalArgument`] for a non-positive radius
    ///   or invalid coordinates.
    /// - [`AndroidException::ApiRemoved`] when the platform runs SDK 1.0,
    ///   which replaced this overload with
    ///   [`LocationManager::add_proximity_alert_pending`].
    pub fn add_proximity_alert(
        &self,
        latitude: f64,
        longitude: f64,
        radius: f32,
        expiration_ms: i64,
        intent: Intent,
    ) -> Result<Registration, AndroidException> {
        if !self.ctx.version().has_intent_proximity_api() {
            return Err(AndroidException::ApiRemoved {
                api: "LocationManager.addProximityAlert(double,double,float,long,Intent)",
                version: self.ctx.version(),
            });
        }
        self.register_proximity(latitude, longitude, radius, expiration_ms, intent)
    }

    /// `addProximityAlert(..., PendingIntent)` — **Android 1.0
    /// signature**.
    ///
    /// # Errors
    ///
    /// As [`LocationManager::add_proximity_alert`], except the
    /// [`AndroidException::ApiRemoved`] case fires when the platform runs
    /// m5-rc15 (where this overload does not exist yet).
    pub fn add_proximity_alert_pending(
        &self,
        latitude: f64,
        longitude: f64,
        radius: f32,
        expiration_ms: i64,
        pending: PendingIntent,
    ) -> Result<Registration, AndroidException> {
        if !self.ctx.version().has_pending_intent_proximity_api() {
            return Err(AndroidException::ApiRemoved {
                api: "LocationManager.addProximityAlert(double,double,float,long,PendingIntent)",
                version: self.ctx.version(),
            });
        }
        self.register_proximity(
            latitude,
            longitude,
            radius,
            expiration_ms,
            pending.into_intent(),
        )
    }

    /// `removeProximityAlert(intent)` — removes every alert registered
    /// with an intent of the same action. Returns how many were removed.
    pub fn remove_proximity_alert(&self, intent: &Intent) -> usize {
        let mut alerts = self.alerts.lock();
        let mut removed = 0;
        alerts.retain(|a| {
            if a.action == intent.action() {
                a.registration.cancel();
                removed += 1;
                false
            } else {
                true
            }
        });
        removed
    }

    fn register_proximity(
        &self,
        latitude: f64,
        longitude: f64,
        radius: f32,
        expiration_ms: i64,
        intent: Intent,
    ) -> Result<Registration, AndroidException> {
        self.ctx
            .enforce_permission(Permission::AccessFineLocation)?;
        if radius <= 0.0 || radius.is_nan() {
            return Err(AndroidException::IllegalArgument(
                "proximity radius must be positive".to_owned(),
            ));
        }
        if !mobivine_device::GeoPoint::new(latitude, longitude).is_valid() {
            return Err(AndroidException::IllegalArgument(
                "invalid coordinates".to_owned(),
            ));
        }
        let device = self.ctx.device();
        let registration = Registration {
            active: Arc::new(AtomicBool::new(true)),
        };
        self.alerts.lock().push(AlertBookkeeping {
            action: intent.action().to_owned(),
            registration: registration.clone(),
        });
        let expires_at = if expiration_ms < 0 {
            None
        } else {
            Some(device.now_ms().saturating_add(expiration_ms as u64))
        };
        schedule_proximity_check(ProximityWatch {
            ctx: self.ctx.clone(),
            registration: registration.clone(),
            center: mobivine_device::GeoPoint::new(latitude, longitude),
            radius_m: radius as f64,
            expires_at,
            intent,
            inside: Arc::new(AtomicBool::new(false)),
            first_check: Arc::new(AtomicBool::new(true)),
        });
        Ok(registration)
    }
}

#[derive(Clone)]
struct ProximityWatch {
    ctx: Context,
    registration: Registration,
    center: mobivine_device::GeoPoint,
    radius_m: f64,
    expires_at: Option<u64>,
    intent: Intent,
    inside: Arc<AtomicBool>,
    first_check: Arc<AtomicBool>,
}

fn schedule_proximity_check(watch: ProximityWatch) {
    let device = watch.ctx.device().clone();
    let fire_at = device.now_ms() + PROXIMITY_CHECK_INTERVAL_MS;
    device
        .events()
        .schedule_at(fire_at, "android-proximity-check", move |now| {
            if !watch.registration.is_active() {
                return;
            }
            if let Some(expiry) = watch.expires_at {
                if now >= expiry {
                    watch.registration.cancel();
                    return;
                }
            }
            let device = watch.ctx.device();
            device.power().draw("gps", 0.2);
            let position = device.gps().true_position();
            let inside_now = position.distance_m(&watch.center) <= watch.radius_m;
            let was_inside = watch.inside.swap(inside_now, Ordering::SeqCst);
            let first = watch.first_check.swap(false, Ordering::SeqCst);
            // Android fires an initial "entering" event if registration
            // happens inside the region; exit events only fire on a true
            // inside->outside transition.
            let fire = if first {
                inside_now
            } else {
                inside_now != was_inside
            };
            if fire {
                let intent = watch
                    .intent
                    .clone()
                    .with_bool_extra(KEY_PROXIMITY_ENTERING, inside_now);
                watch.ctx.broadcast(&intent);
            }
            schedule_proximity_check(watch.clone());
        });
}

fn schedule_updates(
    ctx: Context,
    registration: Registration,
    listener: Arc<dyn LocationListener>,
    period_ms: u64,
) {
    let device = ctx.device().clone();
    let fire_at = device.now_ms() + period_ms;
    device
        .events()
        .schedule_at(fire_at, "android-location-update", move |_| {
            if !registration.is_active() {
                return;
            }
            let device = ctx.device();
            device.power().draw("gps", 0.5);
            if let Ok(fix) = device.gps().current_fix() {
                let location = Location {
                    latitude: fix.point.latitude,
                    longitude: fix.point.longitude,
                    altitude: fix.point.altitude,
                    accuracy: fix.accuracy_m as f32,
                    time: fix.timestamp_ms,
                    speed: fix.speed_mps as f32,
                    bearing: fix.bearing_deg as f32,
                };
                listener.on_location_changed(&location);
            }
            schedule_updates(
                ctx.clone(),
                registration.clone(),
                listener.clone(),
                period_ms,
            );
        });
}

/// Why a one-shot fix failed: the receiver, whose exception renders
/// from a closed vocabulary, or a permission or argument check.
enum FixFailure {
    Gps(GpsError),
    Other(AndroidException),
}

impl From<AndroidException> for FixFailure {
    fn from(e: AndroidException) -> Self {
        FixFailure::Other(e)
    }
}

/// The rendering of the `RemoteException` a receiver failure surfaces
/// as, spelled statically for the span `error` attribute.
fn remote_exception(e: GpsError) -> &'static str {
    match e {
        GpsError::TemporarilyUnavailable => "remote exception: gps temporarily unavailable",
        GpsError::OutOfService => "remote exception: gps out of service",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::AndroidPlatform;
    use crate::intent::{IntentFilter, IntentReceiver};
    use crate::permissions::PermissionSet;
    use crate::version::SdkVersion;
    use mobivine_device::movement::MovementModel;
    use mobivine_device::{Device, GeoPoint};
    use std::sync::Mutex as StdMutex;

    const HOME: GeoPoint = GeoPoint {
        latitude: 28.5355,
        longitude: 77.3910,
        altitude: 0.0,
    };

    #[test]
    fn remote_exception_spells_the_exception_rendering() {
        for e in [GpsError::TemporarilyUnavailable, GpsError::OutOfService] {
            let rendered = AndroidException::Remote(e.to_string()).to_string();
            assert_eq!(remote_exception(e), rendered);
        }
    }

    struct RecordingReceiver {
        events: StdMutex<Vec<bool>>,
    }

    impl IntentReceiver for RecordingReceiver {
        fn on_receive_intent(&self, _ctxt: &Context, intent: &Intent) {
            self.events
                .lock()
                .unwrap()
                .push(intent.get_boolean_extra(KEY_PROXIMITY_ENTERING, false));
        }
    }

    fn platform_moving_through_region() -> (AndroidPlatform, GeoPoint) {
        // Start 500 m west of the region center, walk east at 10 m/s:
        // enters the 100 m region at ~40 s, exits at ~60 s.
        let start = HOME.destination(270.0, 500.0);
        let device = Device::builder()
            .position(start)
            .movement(MovementModel::linear(start, 90.0, 10.0))
            .build();
        device.gps().set_noise_enabled(false);
        (AndroidPlatform::new(device, SdkVersion::M5Rc15), HOME)
    }

    #[test]
    fn get_current_location_returns_fix() {
        let device = Device::builder().position(HOME).build();
        device.gps().set_noise_enabled(false);
        let ctx = AndroidPlatform::new(device, SdkVersion::M5Rc15).new_context();
        let loc = ctx
            .location_manager()
            .get_current_location(GPS_PROVIDER)
            .unwrap();
        assert!((loc.latitude() - HOME.latitude).abs() < 1e-9);
        assert!((loc.longitude() - HOME.longitude).abs() < 1e-9);
    }

    #[test]
    fn network_provider_is_coarser() {
        let device = Device::builder().position(HOME).build();
        let ctx = AndroidPlatform::new(device, SdkVersion::M5Rc15).new_context();
        let lm = ctx.location_manager();
        let gps = lm.get_current_location(GPS_PROVIDER).unwrap();
        let net = lm.get_current_location(NETWORK_PROVIDER).unwrap();
        assert!(net.accuracy() > gps.accuracy());
    }

    #[test]
    fn unknown_provider_is_illegal_argument() {
        let ctx = AndroidPlatform::new(Device::builder().build(), SdkVersion::M5Rc15).new_context();
        assert!(matches!(
            ctx.location_manager().get_current_location("wifi"),
            Err(AndroidException::IllegalArgument(_))
        ));
    }

    #[test]
    fn location_requires_permission() {
        let platform = AndroidPlatform::with_permissions(
            Device::builder().build(),
            SdkVersion::M5Rc15,
            PermissionSet::new(),
        );
        let ctx = platform.new_context();
        assert!(matches!(
            ctx.location_manager().get_current_location(GPS_PROVIDER),
            Err(AndroidException::Security(_))
        ));
        assert!(matches!(
            ctx.location_manager()
                .add_proximity_alert(0.0, 0.0, 10.0, -1, Intent::new("x")),
            Err(AndroidException::Security(_))
        ));
    }

    #[test]
    fn proximity_alert_fires_enter_then_exit() {
        let (platform, center) = platform_moving_through_region();
        let ctx = platform.new_context();
        let receiver = Arc::new(RecordingReceiver {
            events: StdMutex::new(Vec::new()),
        });
        ctx.register_receiver(Arc::clone(&receiver) as _, IntentFilter::new("PROX"));
        ctx.location_manager()
            .add_proximity_alert(
                center.latitude,
                center.longitude,
                100.0,
                -1,
                Intent::new("PROX"),
            )
            .unwrap();
        platform.device().advance_ms(120_000);
        let events = receiver.events.lock().unwrap();
        assert_eq!(events.as_slice(), &[true, false], "enter then exit");
    }

    #[test]
    fn proximity_alert_repeats_on_reentry() {
        // Loop through the region: expect enter/exit/enter/exit...
        let start = HOME.destination(270.0, 300.0);
        let far = HOME.destination(90.0, 300.0);
        let device = Device::builder()
            .position(start)
            .movement(MovementModel::waypoint_loop(vec![start, far], 20.0))
            .build();
        device.gps().set_noise_enabled(false);
        let platform = AndroidPlatform::new(device, SdkVersion::M5Rc15);
        let ctx = platform.new_context();
        let receiver = Arc::new(RecordingReceiver {
            events: StdMutex::new(Vec::new()),
        });
        ctx.register_receiver(Arc::clone(&receiver) as _, IntentFilter::new("PROX"));
        ctx.location_manager()
            .add_proximity_alert(
                HOME.latitude,
                HOME.longitude,
                100.0,
                -1,
                Intent::new("PROX"),
            )
            .unwrap();
        platform.device().advance_ms(120_000);
        let events = receiver.events.lock().unwrap();
        assert!(
            events.len() >= 4,
            "expected repeated events, got {events:?}"
        );
        // Events strictly alternate enter/exit.
        for pair in events.windows(2) {
            assert_ne!(pair[0], pair[1]);
        }
        assert!(events[0]);
    }

    #[test]
    fn proximity_alert_expires() {
        let (platform, center) = platform_moving_through_region();
        let ctx = platform.new_context();
        let receiver = Arc::new(RecordingReceiver {
            events: StdMutex::new(Vec::new()),
        });
        ctx.register_receiver(Arc::clone(&receiver) as _, IntentFilter::new("PROX"));
        // Expires at 10 s; the region is entered at ~40 s, so nothing
        // should ever fire.
        let reg = ctx
            .location_manager()
            .add_proximity_alert(
                center.latitude,
                center.longitude,
                100.0,
                10_000,
                Intent::new("PROX"),
            )
            .unwrap();
        platform.device().advance_ms(120_000);
        assert!(receiver.events.lock().unwrap().is_empty());
        assert!(!reg.is_active());
    }

    #[test]
    fn remove_proximity_alert_by_intent_action() {
        let (platform, center) = platform_moving_through_region();
        let ctx = platform.new_context();
        let receiver = Arc::new(RecordingReceiver {
            events: StdMutex::new(Vec::new()),
        });
        ctx.register_receiver(Arc::clone(&receiver) as _, IntentFilter::new("PROX"));
        let lm = ctx.location_manager();
        lm.add_proximity_alert(
            center.latitude,
            center.longitude,
            100.0,
            -1,
            Intent::new("PROX"),
        )
        .unwrap();
        assert_eq!(lm.remove_proximity_alert(&Intent::new("PROX")), 1);
        platform.device().advance_ms(120_000);
        assert!(receiver.events.lock().unwrap().is_empty());
    }

    #[test]
    fn invalid_radius_rejected() {
        let ctx = AndroidPlatform::new(Device::builder().build(), SdkVersion::M5Rc15).new_context();
        assert!(matches!(
            ctx.location_manager()
                .add_proximity_alert(0.0, 0.0, 0.0, -1, Intent::new("x")),
            Err(AndroidException::IllegalArgument(_))
        ));
        assert!(matches!(
            ctx.location_manager()
                .add_proximity_alert(200.0, 0.0, 5.0, -1, Intent::new("x")),
            Err(AndroidException::IllegalArgument(_))
        ));
    }

    #[test]
    fn intent_overload_gone_in_v1_0() {
        let ctx = AndroidPlatform::new(Device::builder().build(), SdkVersion::V1_0).new_context();
        let err = ctx
            .location_manager()
            .add_proximity_alert(0.0, 0.0, 10.0, -1, Intent::new("x"))
            .unwrap_err();
        assert!(matches!(err, AndroidException::ApiRemoved { .. }));
    }

    #[test]
    fn pending_overload_only_in_v1_0() {
        let mk = |v| AndroidPlatform::new(Device::builder().build(), v).new_context();
        let pending = || PendingIntent::get_broadcast(Intent::new("x"));
        assert!(matches!(
            mk(SdkVersion::M5Rc15)
                .location_manager()
                .add_proximity_alert_pending(0.0, 0.0, 10.0, -1, pending()),
            Err(AndroidException::ApiRemoved { .. })
        ));
        assert!(mk(SdkVersion::V1_0)
            .location_manager()
            .add_proximity_alert_pending(0.0, 0.0, 10.0, -1, pending())
            .is_ok());
    }

    #[test]
    fn pending_overload_delivers_events() {
        let (platform, center) = platform_moving_through_region();
        // Rebuild at V1_0 on the same style of device.
        let start = HOME.destination(270.0, 500.0);
        let device = Device::builder()
            .position(start)
            .movement(MovementModel::linear(start, 90.0, 10.0))
            .build();
        device.gps().set_noise_enabled(false);
        let platform_v1 = AndroidPlatform::new(device, SdkVersion::V1_0);
        drop(platform);
        let ctx = platform_v1.new_context();
        let receiver = Arc::new(RecordingReceiver {
            events: StdMutex::new(Vec::new()),
        });
        ctx.register_receiver(Arc::clone(&receiver) as _, IntentFilter::new("PROX"));
        ctx.location_manager()
            .add_proximity_alert_pending(
                center.latitude,
                center.longitude,
                100.0,
                -1,
                PendingIntent::get_broadcast(Intent::new("PROX")),
            )
            .unwrap();
        platform_v1.device().advance_ms(120_000);
        assert_eq!(receiver.events.lock().unwrap().as_slice(), &[true, false]);
    }

    #[test]
    fn location_updates_deliver_periodically_until_removed() {
        struct Collect(StdMutex<Vec<u64>>);
        impl LocationListener for Collect {
            fn on_location_changed(&self, location: &Location) {
                self.0.lock().unwrap().push(location.time());
            }
        }
        let device = Device::builder().position(HOME).build();
        let platform = AndroidPlatform::new(device, SdkVersion::M5Rc15);
        let ctx = platform.new_context();
        let listener = Arc::new(Collect(StdMutex::new(Vec::new())));
        let lm = ctx.location_manager();
        let reg = lm
            .request_location_updates(GPS_PROVIDER, 2_000, Arc::clone(&listener) as _)
            .unwrap();
        platform.device().advance_ms(10_000);
        let seen = listener.0.lock().unwrap().clone();
        assert_eq!(seen, vec![2_000, 4_000, 6_000, 8_000, 10_000]);
        lm.remove_updates(&reg);
        platform.device().advance_ms(10_000);
        assert_eq!(listener.0.lock().unwrap().len(), 5);
    }

    #[test]
    fn proximity_draws_power() {
        let (platform, center) = platform_moving_through_region();
        let ctx = platform.new_context();
        ctx.location_manager()
            .add_proximity_alert(
                center.latitude,
                center.longitude,
                100.0,
                -1,
                Intent::new("P"),
            )
            .unwrap();
        platform.device().advance_ms(10_000);
        assert!(platform.device().power().component_total("gps") > 0.0);
    }
}
