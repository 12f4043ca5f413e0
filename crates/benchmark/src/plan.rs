//! The seeded load generator: one splitmix64 stream per
//! `(seed, device, round)`, drawing one operation per step.
//!
//! The stream depends only on its three coordinates, so a device's
//! traffic in round `r` is the same however many rounds ran before it,
//! whichever caller thread owns the device, and on every commit.

/// One splitmix64 step: advances `state` and returns the next draw.
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Which traffic mix a workload draws from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mix {
    /// ¾ location reads (half `getLocation`, half
    /// `getLocationWithPower`), ⅛ SMS, ⅛ `GET /tasks`.
    ReadHeavy,
    /// ½ `POST /report-location`, ¼ SMS, ¼ `getLocation`.
    WriteLeaning,
}

/// One proxy operation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Op {
    /// `LocationProxy::get_location`.
    Fix,
    /// `LocationProxy::get_location_with_power` (the bridge multi-read).
    FixWithPower,
    /// `SmsProxy::send_text_message` to the supervisor.
    Sms,
    /// `HttpProxy::request("GET", "/tasks?agent=N")`.
    Tasks,
    /// `HttpProxy::request("POST", "/report-location")` with this point.
    Report {
        /// Reported latitude, degrees.
        latitude: f64,
        /// Reported longitude, degrees.
        longitude: f64,
    },
}

/// One planned step: the operation plus whether it runs under a
/// round-start deadline (used by the faulted workload only).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Draw {
    /// The operation.
    pub op: Op,
    /// One draw in four carries a deadline.
    pub deadline: bool,
}

/// The operation stream of one device in one round.
#[derive(Debug, Clone)]
pub struct RoundPlan {
    state: u64,
    mix: Mix,
}

impl RoundPlan {
    /// The stream for `(seed, device, round)`.
    pub fn new(seed: u64, device: u64, round: u64, mix: Mix) -> Self {
        let mut state = seed
            ^ device.wrapping_mul(0xA076_1D64_78BD_642F)
            ^ round.wrapping_mul(0xE703_7ED1_A0B4_28DB);
        splitmix64(&mut state);
        Self { state, mix }
    }

    /// Draws the next operation.
    pub fn next_draw(&mut self) -> Draw {
        let draw = splitmix64(&mut self.state);
        let report = || Op::Report {
            latitude: 28.5 + (draw % 1_000) as f64 * 1e-6,
            longitude: 77.3 + (draw % 977) as f64 * 1e-6,
        };
        let op = match self.mix {
            Mix::ReadHeavy => match draw % 8 {
                6 => Op::Sms,
                7 => Op::Tasks,
                _ if (draw >> 16) & 1 == 0 => Op::Fix,
                _ => Op::FixWithPower,
            },
            Mix::WriteLeaning => match draw % 4 {
                0 | 1 => report(),
                2 => Op::Sms,
                _ => Op::Fix,
            },
        };
        Draw {
            op,
            deadline: (draw >> 32).is_multiple_of(4),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan(seed: u64, mix: Mix) -> Vec<Draw> {
        let mut out = Vec::new();
        for device in 0..20 {
            for round in 1..=5 {
                let mut plan = RoundPlan::new(seed, device, round, mix);
                out.extend((0..8).map(|_| plan.next_draw()));
            }
        }
        out
    }

    #[test]
    fn same_seed_same_plan_other_seed_other_plan() {
        for mix in [Mix::ReadHeavy, Mix::WriteLeaning] {
            assert_eq!(plan(7, mix), plan(7, mix));
            assert_ne!(plan(7, mix), plan(8, mix));
        }
    }

    #[test]
    fn streams_are_independent_of_visit_order() {
        let mut forward = RoundPlan::new(3, 11, 4, Mix::WriteLeaning);
        let first = forward.next_draw();
        // Drawing other devices' streams in between changes nothing.
        let _ = RoundPlan::new(3, 12, 4, Mix::WriteLeaning).next_draw();
        assert_eq!(
            RoundPlan::new(3, 11, 4, Mix::WriteLeaning).next_draw(),
            first
        );
    }

    #[test]
    fn mixes_hit_their_shares() {
        let draws = plan(1, Mix::ReadHeavy);
        let reads = draws
            .iter()
            .filter(|d| matches!(d.op, Op::Fix | Op::FixWithPower))
            .count();
        let share = reads as f64 / draws.len() as f64;
        assert!((0.65..0.85).contains(&share), "read share {share}");
        let draws = plan(1, Mix::WriteLeaning);
        let reports = draws
            .iter()
            .filter(|d| matches!(d.op, Op::Report { .. }))
            .count();
        let share = reports as f64 / draws.len() as f64;
        assert!((0.4..0.6).contains(&share), "report share {share}");
    }
}
