//! Deterministic fault scheduling on the simulated clock.
//!
//! The device crate already exposes the failure hooks — the network can
//! be taken [`down`](crate::net::SimNetwork::set_down), the GPS engine
//! can be flipped to
//! [`TemporarilyUnavailable`](GpsAvailability::TemporarilyUnavailable),
//! the SMSC has a seeded
//! [loss probability](crate::sms::Smsc::set_loss_probability). What a
//! chaos test needs on top is *when*: outage windows that open and close
//! mid-call, flapping services, bounded bursts of random drops — all
//! replayable run-over-run.
//!
//! [`FaultPlan`] schedules those transitions as ordinary events on the
//! device's [`EventQueue`](crate::event::EventQueue), so they fire while
//! `advance_ms` pumps simulated time — including the time a resilient
//! proxy spends in its own backoff. No wall-clock timers, no threads:
//! the same plan on the same seed produces the same failure trace on
//! every platform binding.
//!
//! # Example
//!
//! ```
//! use mobivine_device::{Device, fault::FaultPlan};
//!
//! let device = Device::builder().build();
//! FaultPlan::new(&device)
//!     .network_partition(1_000, 5_000)
//!     .gps_flap(0, 2_000, 3);
//! device.advance_ms(1_500);
//! assert!(device.network().is_down());
//! ```

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Weak};

use parking_lot::Mutex;

use crate::device::Device;
use crate::event::EventId;
use crate::gps::GpsAvailability;

/// splitmix64 — deterministic mixing for the seeded-probabilistic
/// faults (kept local so fault traces never depend on an RNG crate).
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Where in the durability pipeline a scheduled crash kills the
/// middleware process — the three windows that distinguish a correct
/// write-ahead-journal implementation from a lucky one.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CrashKind {
    /// Death mid-record: the intent frame reached the disk queue only
    /// partially, leaving a torn tail for recovery to truncate. The
    /// effect never ran; replay must not invent it.
    TornWrite,
    /// Death in the intent/effect gap: the intent is durably fsynced
    /// but the side effect never ran. Recovery must replay it —
    /// exactly once.
    BeforeEffect,
    /// Death after the effect but before the acknowledgement: the
    /// caller re-delivers, and the idempotency key must make the
    /// second delivery an observed no-op.
    AfterEffect,
}

impl CrashKind {
    /// Stable lowercase name, for digests and tables.
    pub fn name(self) -> &'static str {
        match self {
            CrashKind::TornWrite => "torn_write",
            CrashKind::BeforeEffect => "before_effect",
            CrashKind::AfterEffect => "after_effect",
        }
    }
}

/// A deterministic crash plan keyed by idempotency key: when armed,
/// the durability layer consults [`CrashSchedule::take`] with each
/// mutation's key and dies in the prescribed window if the key is a
/// victim. Keys — not byte offsets — make the schedule independent of
/// the interleaving worker threads impose on the journal, so the same
/// seed crashes the same logical operations on any worker count.
///
/// Starts disarmed; [`FaultPlan::crash_storm`] arms it as an ordinary
/// scheduled fault transition.
#[derive(Debug, Default)]
pub struct CrashSchedule {
    armed: AtomicBool,
    victims: Mutex<HashMap<u64, CrashKind>>,
}

impl CrashSchedule {
    /// A disarmed schedule with the given `(idempotency key, kind)`
    /// victims.
    pub fn new(victims: impl IntoIterator<Item = (u64, CrashKind)>) -> Arc<Self> {
        Arc::new(Self {
            armed: AtomicBool::new(false),
            victims: Mutex::new(victims.into_iter().collect()),
        })
    }

    /// Arms the schedule: victims start dying.
    pub fn arm(&self) {
        self.armed.store(true, Ordering::Release);
    }

    /// Whether the schedule is live.
    pub fn is_armed(&self) -> bool {
        self.armed.load(Ordering::Acquire)
    }

    /// Consumes and returns the crash prescribed for `key`, when the
    /// schedule is armed and `key` is a victim. Each victim dies once:
    /// the retry re-delivering the same key finds no entry and
    /// survives.
    pub fn take(&self, key: u64) -> Option<CrashKind> {
        if !self.is_armed() {
            return None;
        }
        self.victims.lock().remove(&key)
    }

    /// Victims that have not crashed yet.
    pub fn remaining(&self) -> usize {
        self.victims.lock().len()
    }
}

/// A deterministic schedule of failure-hook transitions for one
/// [`Device`].
///
/// Each method registers its transitions on the device's event queue
/// immediately and returns `&self`, so plans read as chained scripts.
/// All times are absolute simulated milliseconds.
pub struct FaultPlan {
    device: Device,
    scheduled: Mutex<Vec<EventId>>,
}

impl FaultPlan {
    /// Starts an empty plan against `device`.
    pub fn new(device: &Device) -> Self {
        Self {
            device: device.clone(),
            scheduled: Mutex::new(Vec::new()),
        }
    }

    /// Queues one transition: at `at_ms` it counts itself, bumps the
    /// fault epoch and runs `action` on `target`.
    ///
    /// The closure lives on the device's own event queue, so it holds
    /// only [`Weak`] handles: a strong `Device`, `SimNetwork` or `Smsc`
    /// (the latter two hold the queue) would form a cycle that keeps a
    /// dropped device — and whatever its server routes capture — alive.
    /// A device alive to pump its queue keeps the targets alive too.
    fn schedule<T: Send + Sync + 'static>(
        &self,
        at_ms: u64,
        label: &'static str,
        target: &Arc<T>,
        action: impl FnOnce(&T) + Send + 'static,
    ) {
        let transitions = self.device.metrics().counter(
            "device_fault_transitions_total",
            &mobivine_telemetry::Labels::new(&[("fault", label)]),
        );
        let epoch = self.device.weak_fault_epoch();
        let target: Weak<T> = Arc::downgrade(target);
        let id = self.device.events().schedule_at(at_ms, label, move |_| {
            transitions.inc();
            if let Some(epoch) = epoch.upgrade() {
                epoch.fetch_add(1, Ordering::AcqRel);
            }
            if let Some(target) = target.upgrade() {
                action(&target);
            }
        });
        self.scheduled.lock().push(id);
    }

    /// How many fault transitions the plan has registered so far.
    pub fn scheduled_count(&self) -> usize {
        self.scheduled.lock().len()
    }

    /// Cancels every not-yet-fired transition, returning how many were
    /// still pending.
    pub fn cancel_all(&self) -> usize {
        let mut ids = self.scheduled.lock();
        let cancelled = ids
            .iter()
            .filter(|id| self.device.events().cancel(**id))
            .count();
        ids.clear();
        cancelled
    }

    /// Takes the packet network down at `from_ms` and restores it at
    /// `until_ms` — the classic partition window t₁–t₂.
    pub fn network_partition(&self, from_ms: u64, until_ms: u64) -> &Self {
        let net = self.device.network();
        self.schedule(from_ms, "fault.network.down", net, |net| net.set_down(true));
        self.schedule(until_ms, "fault.network.up", net, |net| net.set_down(false));
        self
    }

    /// Marks the GPS engine temporarily unavailable over
    /// `from_ms..until_ms`.
    pub fn gps_outage(&self, from_ms: u64, until_ms: u64) -> &Self {
        let gps = self.device.gps();
        self.schedule(from_ms, "fault.gps.lost", gps, |gps| {
            gps.set_availability(GpsAvailability::TemporarilyUnavailable);
        });
        self.schedule(until_ms, "fault.gps.recovered", gps, |gps| {
            gps.set_availability(GpsAvailability::Available);
        });
        self
    }

    /// Flaps the GPS: starting at `start_ms` the signal is lost, comes
    /// back `period_ms` later, is lost again after another `period_ms`,
    /// … for `cycles` full lost/recovered cycles.
    pub fn gps_flap(&self, start_ms: u64, period_ms: u64, cycles: u32) -> &Self {
        for cycle in 0..u64::from(cycles) {
            let down_at = start_ms + 2 * cycle * period_ms;
            self.gps_outage(down_at, down_at + period_ms);
        }
        self
    }

    /// Sets the SMSC loss probability to `probability` over
    /// `from_ms..until_ms` and back to zero afterwards. The SMSC draws
    /// from its own seeded stream, so the drop pattern stays
    /// reproducible.
    pub fn sms_loss_window(&self, from_ms: u64, until_ms: u64, probability: f64) -> &Self {
        let smsc = self.device.smsc();
        self.schedule(from_ms, "fault.smsc.lossy", smsc, move |smsc| {
            smsc.set_loss_probability(probability);
        });
        self.schedule(until_ms, "fault.smsc.clean", smsc, |smsc| {
            smsc.set_loss_probability(0.0);
        });
        self
    }

    /// Multiplies the network's base round-trip latency by `factor`
    /// over `from_ms..until_ms`, restoring the value observed at plan
    /// time afterwards — the "slow backend" half of a brownout, where
    /// the link stays up but every call crawls.
    pub fn latency_spike(&self, from_ms: u64, until_ms: u64, factor: u64) -> &Self {
        let restore = self.device.network().round_trip_ms(0);
        let spiked = restore.saturating_mul(factor.max(1));
        let net = self.device.network();
        self.schedule(from_ms, "fault.network.latency_spike", net, move |net| {
            net.set_base_latency_ms(spiked);
        });
        self.schedule(
            until_ms,
            "fault.network.latency_restored",
            net,
            move |net| {
                net.set_base_latency_ms(restore);
            },
        );
        self
    }

    /// An overload burst: over `from_ms..until_ms` both the network and
    /// the SMSC serve at `factor`× their plan-time latency — the
    /// saturated-backend condition the overload layer's admission gate
    /// is built to survive. Restores both latencies when the burst ends.
    pub fn overload_burst(&self, from_ms: u64, until_ms: u64, factor: u64) -> &Self {
        self.latency_spike(from_ms, until_ms, factor);
        let restore = self.device.smsc().latency_ms();
        let spiked = restore.saturating_mul(factor.max(1));
        let smsc = self.device.smsc();
        self.schedule(from_ms, "fault.smsc.overloaded", smsc, move |smsc| {
            smsc.set_latency_ms(spiked);
        });
        self.schedule(until_ms, "fault.smsc.drained", smsc, move |smsc| {
            smsc.set_latency_ms(restore);
        });
        self
    }

    /// Drops the device out of cell coverage over `from_ms..until_ms`:
    /// at `from_ms` the coverage map is replaced by a single distant
    /// cell (so the radio sees no signal wherever the device stands),
    /// and at `until_ms` the map is cleared back to blanket coverage.
    /// Circuit-switched services — calls, SMS submission — fail at the
    /// radio while the window is open.
    pub fn coverage_outage(&self, from_ms: u64, until_ms: u64) -> &Self {
        let coverage = self.device.coverage();
        self.schedule(
            from_ms,
            "fault.radio.out_of_coverage",
            coverage,
            |coverage| {
                coverage.clear();
                coverage.add_cell(crate::geo::GeoPoint::new(-89.9, 0.0), 1.0);
            },
        );
        self.schedule(
            until_ms,
            "fault.radio.coverage_restored",
            coverage,
            |coverage| {
                coverage.clear();
            },
        );
        self
    }

    /// Arms a [`CrashSchedule`] at `at_ms`: from that instant the
    /// middleware layer consulting the schedule starts dying at its
    /// victims' prescribed windows. The arming is an ordinary fault
    /// transition — counted, epoch-bumping, replayable — so cache
    /// stamps and chaos traces see the storm begin.
    pub fn crash_storm(&self, at_ms: u64, schedule: &Arc<CrashSchedule>) -> &Self {
        self.schedule(at_ms, "fault.crash.armed", schedule, CrashSchedule::arm);
        self
    }

    /// Seeded-probabilistic partitions: `count` network outages of
    /// `outage_ms` each, at splitmix64-derived offsets within
    /// `from_ms..until_ms`. The same seed always yields the same outage
    /// times.
    pub fn random_network_drops(
        &self,
        seed: u64,
        from_ms: u64,
        until_ms: u64,
        count: u32,
        outage_ms: u64,
    ) -> &Self {
        let span = until_ms.saturating_sub(from_ms).max(1);
        for i in 0..u64::from(count) {
            let at = from_ms + splitmix64(seed ^ i.rotate_left(23)) % span;
            self.network_partition(at, at.saturating_add(outage_ms));
        }
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gps::GpsAvailability;

    fn device() -> Device {
        Device::builder().seed(11).build()
    }

    #[test]
    fn partition_window_opens_and_closes_on_the_simulated_clock() {
        let device = device();
        let plan = FaultPlan::new(&device);
        plan.network_partition(1_000, 3_000);
        assert!(!device.network().is_down());
        device.advance_ms(1_500);
        assert!(device.network().is_down(), "inside the window");
        device.advance_ms(2_000);
        assert!(!device.network().is_down(), "healed at t2");
    }

    #[test]
    fn gps_flap_alternates_every_period() {
        let device = device();
        FaultPlan::new(&device).gps_flap(1_000, 500, 2);
        let gps = device.gps();
        let expectations = [
            (999, GpsAvailability::Available),
            (1_001, GpsAvailability::TemporarilyUnavailable),
            (1_501, GpsAvailability::Available),
            (2_001, GpsAvailability::TemporarilyUnavailable),
            (2_501, GpsAvailability::Available),
        ];
        for (at, expected) in expectations {
            device.advance_to(at);
            assert_eq!(gps.availability(), expected, "at t={at}");
        }
    }

    #[test]
    fn sms_loss_window_restores_a_clean_channel() {
        let device = device();
        FaultPlan::new(&device).sms_loss_window(100, 200, 1.0);
        device.advance_ms(150);
        // Probability is internal; observable effect is exercised by the
        // integration chaos tests. Here we only assert the window closes.
        device.advance_ms(100);
        let plan = FaultPlan::new(&device);
        assert_eq!(plan.scheduled_count(), 0);
    }

    #[test]
    fn random_drops_are_reproducible_per_seed() {
        let device_a = device();
        let device_b = device();
        let plan_a = FaultPlan::new(&device_a);
        let plan_b = FaultPlan::new(&device_b);
        plan_a.random_network_drops(7, 0, 10_000, 4, 250);
        plan_b.random_network_drops(7, 0, 10_000, 4, 250);
        let mut transitions = Vec::new();
        for t in (0..11_000).step_by(50) {
            device_a.advance_to(t);
            device_b.advance_to(t);
            assert_eq!(
                device_a.network().is_down(),
                device_b.network().is_down(),
                "same seed must replay the same outage trace (t={t})"
            );
            transitions.push(device_a.network().is_down());
        }
        assert!(transitions.iter().any(|d| *d), "at least one outage fired");
    }

    #[test]
    fn latency_spike_raises_and_restores_the_round_trip() {
        let device = device();
        let baseline = device.network().round_trip_ms(0);
        FaultPlan::new(&device).latency_spike(1_000, 3_000, 10);
        device.advance_ms(1_500);
        assert_eq!(device.network().round_trip_ms(0), baseline * 10);
        device.advance_ms(2_000);
        assert_eq!(device.network().round_trip_ms(0), baseline, "restored");
    }

    #[test]
    fn overload_burst_saturates_network_and_smsc_together() {
        let device = device();
        let net_baseline = device.network().round_trip_ms(0);
        let smsc_baseline = device.smsc().latency_ms();
        let plan = FaultPlan::new(&device);
        plan.overload_burst(500, 2_500, 8);
        assert_eq!(plan.scheduled_count(), 4, "two pairs of transitions");
        device.advance_ms(1_000);
        assert_eq!(device.network().round_trip_ms(0), net_baseline * 8);
        assert_eq!(device.smsc().latency_ms(), smsc_baseline * 8);
        device.advance_ms(2_000);
        assert_eq!(device.network().round_trip_ms(0), net_baseline);
        assert_eq!(device.smsc().latency_ms(), smsc_baseline);
    }

    #[test]
    fn coverage_outage_window_drops_and_restores_the_radio() {
        let device = device();
        assert!(device.signal_strength().in_coverage());
        FaultPlan::new(&device).coverage_outage(1_000, 3_000);
        device.advance_ms(1_500);
        assert!(!device.signal_strength().in_coverage(), "inside the window");
        device.advance_ms(2_000);
        assert!(device.signal_strength().in_coverage(), "restored");
    }

    #[test]
    fn crash_storm_arms_on_the_simulated_clock_and_victims_die_once() {
        let device = device();
        let schedule =
            CrashSchedule::new([(7, CrashKind::TornWrite), (9, CrashKind::BeforeEffect)]);
        FaultPlan::new(&device).crash_storm(1_000, &schedule);
        assert!(!schedule.is_armed());
        assert_eq!(schedule.take(7), None, "disarmed schedules never kill");
        device.advance_ms(1_500);
        assert!(schedule.is_armed());
        assert_eq!(schedule.take(7), Some(CrashKind::TornWrite));
        assert_eq!(schedule.take(7), None, "each victim dies exactly once");
        assert_eq!(schedule.take(8), None, "non-victims survive");
        assert_eq!(schedule.remaining(), 1);
        assert_eq!(schedule.take(9), Some(CrashKind::BeforeEffect));
        assert_eq!(schedule.remaining(), 0);
    }

    #[test]
    fn crash_kind_names_are_stable() {
        assert_eq!(CrashKind::TornWrite.name(), "torn_write");
        assert_eq!(CrashKind::BeforeEffect.name(), "before_effect");
        assert_eq!(CrashKind::AfterEffect.name(), "after_effect");
    }

    #[test]
    fn cancel_all_unschedules_pending_transitions() {
        let device = device();
        let plan = FaultPlan::new(&device);
        plan.network_partition(1_000, 2_000);
        assert_eq!(plan.scheduled_count(), 2);
        assert_eq!(plan.cancel_all(), 2);
        device.advance_ms(3_000);
        assert!(!device.network().is_down());
    }
}
