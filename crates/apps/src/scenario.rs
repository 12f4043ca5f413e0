//! A reusable simulation scenario for driving any app variant.
//!
//! One field agent patrols a straight route that passes through two
//! task sites; the supervisor's number is registered with the SMSC and
//! the workforce server is installed on the simulated network.

use mobivine_device::movement::MovementModel;
use mobivine_device::{Device, GeoPoint};

use crate::model::{AgentConfig, Task};
use crate::server::WfmServer;

/// Region center the scenarios are laid out around (the paper authors'
/// lab in Vasant Kunj, New Delhi).
pub const REGION_CENTER: GeoPoint = GeoPoint {
    latitude: 28.5355,
    longitude: 77.3910,
    altitude: 0.0,
};

/// A ready-to-run world: device, server, agent configuration, tasks.
pub struct Scenario {
    /// The simulated handset.
    pub device: Device,
    /// The server-side application (installed on the device's network).
    pub server: WfmServer,
    /// The agent's configuration.
    pub config: AgentConfig,
    /// The tasks assigned to the agent.
    pub tasks: Vec<Task>,
    /// Agent walking speed, m/s.
    pub speed_mps: f64,
    /// Total route length, metres.
    pub route_length_m: f64,
}

impl std::fmt::Debug for Scenario {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Scenario")
            .field("agent", &self.config.agent_id)
            .field("tasks", &self.tasks.len())
            .finish()
    }
}

impl Scenario {
    /// The standard evaluation scenario: the agent starts 500 m west of
    /// site 1, walks due east at 10 m/s past site 1 (at 500 m) and
    /// site 2 (at 1300 m), ending 500 m beyond site 2. Both sites have
    /// a 100 m radius, so the route generates two enter/exit pairs.
    pub fn two_site_patrol(seed: u64) -> Self {
        let start = REGION_CENTER.destination(270.0, 500.0);
        let site1 = REGION_CENTER;
        let site2 = REGION_CENTER.destination(90.0, 800.0);
        let end = site2.destination(90.0, 500.0);
        let speed_mps = 10.0;
        let route_length_m = start.distance_m(&end);
        let config = AgentConfig::for_agent(7);
        let device = Device::builder()
            .seed(seed)
            .msisdn(&config.msisdn)
            .position(start)
            .movement(MovementModel::waypoints(vec![start, end], speed_mps))
            .build();
        device.gps().set_noise_enabled(false);
        device.smsc().register_address(&config.supervisor_msisdn);

        let server = WfmServer::new();
        server.install(device.network(), &config.server_host);
        let tasks = vec![
            Task {
                id: 1,
                latitude: site1.latitude,
                longitude: site1.longitude,
                radius_m: 100.0,
                description: "inspect transformer".into(),
            },
            Task {
                id: 2,
                latitude: site2.latitude,
                longitude: site2.longitude,
                radius_m: 100.0,
                description: "replace meter".into(),
            },
        ];
        for task in &tasks {
            server.assign_task(config.agent_id, task.clone());
        }
        Self {
            device,
            server,
            config,
            tasks,
            speed_mps,
            route_length_m,
        }
    }

    /// Virtual milliseconds for the agent to finish the route, plus
    /// slack for trailing callbacks.
    pub fn patrol_duration_ms(&self) -> u64 {
        let travel_s = self.route_length_m / self.speed_mps;
        ((travel_s + 30.0) * 1000.0) as u64
    }
}

/// What a completed scenario run produced, collected from the server
/// and SMSC — identical regardless of which app variant ran.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScenarioOutcome {
    /// Activity-log entries the server received.
    pub activity_entries: usize,
    /// Tasks the server recorded as complete.
    pub completed_tasks: usize,
    /// Messages in the supervisor's inbox.
    pub supervisor_messages: usize,
}

impl ScenarioOutcome {
    /// Collects the outcome from a scenario after a run.
    pub fn collect(scenario: &Scenario) -> Self {
        Self {
            activity_entries: scenario.server.activity_log().len(),
            completed_tasks: scenario
                .server
                .completed_tasks(scenario.config.agent_id)
                .len(),
            supervisor_messages: scenario
                .device
                .smsc()
                .inbox_len(&scenario.config.supervisor_msisdn),
        }
    }

    /// The expected outcome of [`Scenario::two_site_patrol`]: two
    /// arrivals and two departures logged, two tasks completed, two
    /// supervisor SMSes.
    pub fn expected_two_site() -> Self {
        Self {
            activity_entries: 4,
            completed_tasks: 2,
            supervisor_messages: 2,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenario_geometry_is_sane() {
        let scenario = Scenario::two_site_patrol(0);
        assert_eq!(scenario.tasks.len(), 2);
        assert!((scenario.route_length_m - 1800.0).abs() < 5.0);
        // The device starts outside both sites.
        let start = scenario.device.gps().true_position();
        for task in &scenario.tasks {
            let site = GeoPoint::new(task.latitude, task.longitude);
            assert!(start.distance_m(&site) > task.radius_m);
        }
    }

    #[test]
    fn agent_walks_through_both_sites() {
        let scenario = Scenario::two_site_patrol(0);
        let mut entered = [false, false];
        for _ in 0..250 {
            scenario.device.advance_ms(1_000);
            let here = scenario.device.gps().true_position();
            for (i, task) in scenario.tasks.iter().enumerate() {
                let site = GeoPoint::new(task.latitude, task.longitude);
                if here.distance_m(&site) <= task.radius_m {
                    entered[i] = true;
                }
            }
        }
        assert!(entered[0] && entered[1]);
        // And ends outside both.
        let end = scenario.device.gps().true_position();
        for task in &scenario.tasks {
            let site = GeoPoint::new(task.latitude, task.longitude);
            assert!(end.distance_m(&site) > task.radius_m);
        }
    }

    #[test]
    fn server_pre_assigned_the_tasks() {
        let scenario = Scenario::two_site_patrol(0);
        assert_eq!(scenario.server.tasks_for(scenario.config.agent_id).len(), 2);
    }
}
