//! The simulated handset: one clock, one event queue, and every
//! subsystem wired to them.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Weak};

use mobivine_telemetry::MetricsRegistry;

use crate::calendar::CalendarStore;
use crate::call::CallSwitch;
use crate::clock::SimClock;
use crate::contacts::ContactStore;
use crate::event::EventQueue;
use crate::geo::GeoPoint;
use crate::gps::GpsEngine;
use crate::latency::LatencyModel;
use crate::movement::MovementModel;
use crate::net::SimNetwork;
use crate::power::PowerMeter;
use crate::radio::{CellCoverage, SignalStrength};
use crate::sms::Smsc;

/// A complete simulated handset.
///
/// `Device` is cheap to clone; clones share all state (the handles inside
/// are reference-counted). Platform middleware crates hold a `Device` and
/// expose their native interface styles on top of it.
///
/// # Example
///
/// ```
/// use mobivine_device::{Device, geo::GeoPoint};
///
/// let device = Device::builder()
///     .msisdn("+91-98-AGENT-1")
///     .position(GeoPoint::new(28.5355, 77.3910))
///     .build();
/// device.smsc().register_address(device.msisdn());
/// device.advance_ms(100); // moves time and pumps pending events
/// ```
#[derive(Clone)]
pub struct Device {
    clock: SimClock,
    events: Arc<EventQueue>,
    gps: Arc<GpsEngine>,
    smsc: Arc<Smsc>,
    call_switch: Arc<CallSwitch>,
    network: Arc<SimNetwork>,
    power: Arc<PowerMeter>,
    contacts: Arc<ContactStore>,
    calendar: Arc<CalendarStore>,
    coverage: Arc<CellCoverage>,
    metrics: Arc<MetricsRegistry>,
    fault_epoch: Arc<AtomicU64>,
    msisdn: String,
}

impl fmt::Debug for Device {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Device")
            .field("msisdn", &self.msisdn)
            .field("now_ms", &self.clock.now_ms())
            .finish()
    }
}

impl Device {
    /// Starts building a device.
    pub fn builder() -> DeviceBuilder {
        DeviceBuilder::new()
    }

    /// The shared virtual clock.
    pub fn clock(&self) -> &SimClock {
        &self.clock
    }

    /// The shared event queue.
    pub fn events(&self) -> &Arc<EventQueue> {
        &self.events
    }

    /// The GPS receiver.
    pub fn gps(&self) -> &Arc<GpsEngine> {
        &self.gps
    }

    /// The message center.
    pub fn smsc(&self) -> &Arc<Smsc> {
        &self.smsc
    }

    /// The call switch.
    pub fn call_switch(&self) -> &Arc<CallSwitch> {
        &self.call_switch
    }

    /// The simulated data network.
    pub fn network(&self) -> &Arc<SimNetwork> {
        &self.network
    }

    /// The power ledger.
    pub fn power(&self) -> &Arc<PowerMeter> {
        &self.power
    }

    /// The contact store.
    pub fn contacts(&self) -> &Arc<ContactStore> {
        &self.contacts
    }

    /// The calendar store.
    pub fn calendar(&self) -> &Arc<CalendarStore> {
        &self.calendar
    }

    /// The cellular coverage map (full coverage unless cells are
    /// configured).
    pub fn coverage(&self) -> &Arc<CellCoverage> {
        &self.coverage
    }

    /// Signal strength at the device's current true position.
    pub fn signal_strength(&self) -> SignalStrength {
        self.coverage.signal_at(&self.gps.true_position())
    }

    /// The device-wide metrics registry. Every subsystem (GPS, SMSC,
    /// network, fault plan) publishes into it, and middleware layers
    /// above share it so one registry exports the whole call path.
    pub fn metrics(&self) -> &Arc<MetricsRegistry> {
        &self.metrics
    }

    /// The device-wide fault epoch: a monotone counter bumped every
    /// time a [`FaultPlan`](crate::fault::FaultPlan) transition fires.
    /// Read-through caches above the proxy stack compare the epoch they
    /// observed at fill time against the current value, so a fault
    /// transition invalidates every cached answer taken before it.
    pub fn fault_epoch(&self) -> u64 {
        self.fault_epoch.load(Ordering::Acquire)
    }

    /// Records one fault transition (called by the fault plan when a
    /// scheduled transition fires).
    pub fn bump_fault_epoch(&self) {
        self.fault_epoch.fetch_add(1, Ordering::AcqRel);
    }

    /// The fault epoch without keeping the device alive: a fault
    /// transition queued on the device's own event queue holds this.
    pub(crate) fn weak_fault_epoch(&self) -> Weak<AtomicU64> {
        Arc::downgrade(&self.fault_epoch)
    }

    /// This device's phone number.
    pub fn msisdn(&self) -> &str {
        &self.msisdn
    }

    /// Current virtual time in milliseconds.
    pub fn now_ms(&self) -> u64 {
        self.clock.now_ms()
    }

    /// Advances virtual time by `delta_ms` and pumps every event that
    /// becomes due, including events scheduled by fired callbacks.
    /// Returns the number of events that fired.
    pub fn advance_ms(&self, delta_ms: u64) -> usize {
        let target = self.clock.now_ms() + delta_ms;
        self.advance_to(target)
    }

    /// Advances virtual time to an absolute target, pumping events in
    /// order: the clock steps to each intermediate event time before the
    /// event fires, so callbacks observing the clock see a consistent
    /// "now".
    pub fn advance_to(&self, target_ms: u64) -> usize {
        let mut fired = 0;
        loop {
            match self.events.next_fire_time() {
                Some(t) if t <= target_ms => {
                    self.clock.advance_to(t);
                    fired += self.events.run_until(t);
                }
                _ => break,
            }
        }
        self.clock.advance_to(target_ms);
        fired
    }
}

/// Configures and constructs a [`Device`].
#[derive(Debug)]
pub struct DeviceBuilder {
    seed: u64,
    msisdn: String,
    position: GeoPoint,
    movement: MovementModel,
}

impl Default for DeviceBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl DeviceBuilder {
    /// Starts with defaults: seed 0, MSISDN `+000000`, position at the
    /// null island, stationary.
    pub fn new() -> Self {
        Self {
            seed: 0,
            msisdn: "+000000".to_owned(),
            position: GeoPoint::default(),
            movement: MovementModel::stationary(),
        }
    }

    /// Seeds every stochastic component (GPS noise, SMS loss).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the device's phone number (auto-registered with the SMSC).
    pub fn msisdn(mut self, msisdn: &str) -> Self {
        self.msisdn = msisdn.to_owned();
        self
    }

    /// Sets the starting position.
    pub fn position(mut self, position: GeoPoint) -> Self {
        self.position = position;
        self
    }

    /// Sets the movement model.
    pub fn movement(mut self, movement: MovementModel) -> Self {
        self.movement = movement;
        self
    }

    /// Accepts the zero [`LatencyModel`] and stores nothing: native
    /// calls cost only the Rust that runs them. Kept only because the
    /// `mobivine-benchmark` crate still calls it (see
    /// [`crate::latency`]).
    pub fn latency(self, _latency: LatencyModel) -> Self {
        self
    }

    /// Builds the device, wiring all subsystems to one clock and one
    /// event queue.
    pub fn build(self) -> Device {
        let clock = SimClock::new();
        let events = Arc::new(EventQueue::new());
        let metrics = MetricsRegistry::shared();
        let gps = Arc::new(GpsEngine::new(
            clock.clone(),
            self.position,
            self.movement,
            self.seed,
        ));
        gps.bind_metrics(Arc::clone(&metrics));
        let smsc = Arc::new(Smsc::new(Arc::clone(&events), self.seed.wrapping_add(1)));
        smsc.register_address(&self.msisdn);
        smsc.bind_metrics(Arc::clone(&metrics));
        let call_switch = Arc::new(CallSwitch::new(Arc::clone(&events)));
        let network = Arc::new(SimNetwork::new(Arc::clone(&events)));
        network.bind_metrics(Arc::clone(&metrics), clock.clone());
        Device {
            clock,
            events,
            gps,
            smsc,
            call_switch,
            network,
            power: Arc::new(PowerMeter::new()),
            contacts: Arc::new(ContactStore::new()),
            calendar: Arc::new(CalendarStore::new()),
            coverage: Arc::new(CellCoverage::new()),
            metrics,
            fault_epoch: Arc::new(AtomicU64::new(0)),
            msisdn: self.msisdn,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::call::CallState;

    #[test]
    fn builder_defaults_build() {
        let device = Device::builder().build();
        assert_eq!(device.now_ms(), 0);
        assert_eq!(device.msisdn(), "+000000");
    }

    #[test]
    fn msisdn_is_registered_with_smsc() {
        let device = Device::builder().msisdn("+91-7").build();
        assert!(device.smsc().is_registered("+91-7"));
    }

    #[test]
    fn advance_pumps_sms_delivery() {
        let device = Device::builder().msisdn("+me").build();
        device.smsc().register_address("+you");
        device
            .smsc()
            .submit("+me", "+you", "hi", device.now_ms(), None);
        assert!(device.smsc().inbox("+you").is_empty());
        device.advance_ms(1_000);
        assert_eq!(device.smsc().inbox_len("+you"), 1);
    }

    #[test]
    fn advance_pumps_call_progress() {
        let device = Device::builder().build();
        let id = device.call_switch().dial("+sup", device.now_ms());
        device.advance_ms(10_000);
        assert_eq!(device.call_switch().state(id), Some(CallState::Active));
    }

    #[test]
    fn events_see_consistent_clock() {
        let device = Device::builder().build();
        let clock = device.clock().clone();
        let observed = std::sync::Arc::new(parking_lot::Mutex::new(None));
        let sink = std::sync::Arc::clone(&observed);
        device.events().schedule_at(500, "probe", move |at| {
            *sink.lock() = Some((at, clock.now_ms()));
        });
        device.advance_ms(2_000);
        let (fire_at, clock_at_fire) = observed.lock().unwrap();
        assert_eq!(fire_at, 500);
        assert_eq!(clock_at_fire, 500);
        assert_eq!(device.now_ms(), 2_000);
    }

    #[test]
    fn clones_share_state() {
        let device = Device::builder().build();
        let twin = device.clone();
        device.advance_ms(123);
        assert_eq!(twin.now_ms(), 123);
        twin.power().draw("gps", 1.0);
        assert_eq!(device.power().total(), 1.0);
    }

    #[test]
    fn chained_events_fire_within_one_advance() {
        let device = Device::builder().msisdn("+a").build();
        device.smsc().register_address("+b");
        // A message submitted *by an event callback* must still deliver in
        // the same advance if time allows.
        let smsc = std::sync::Arc::clone(device.smsc());
        device.events().schedule_at(10, "late-submit", move |at| {
            smsc.submit("+a", "+b", "chained", at, None);
        });
        device.advance_ms(10_000);
        assert_eq!(device.smsc().inbox_len("+b"), 1);
    }
}
