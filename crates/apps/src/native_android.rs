//! The **native Android** variant of the workforce app — the paper's
//! Fig. 2(a), faithfully verbose.
//!
//! Everything the proxy hides is in the open here: the
//! `PROXIMITY_ALERT` action constant, a hand-written
//! `ProximityIntentReceiver`, receiver registration, system-service
//! lookup inside the callback, and Android-specific exception handling.
//! Business logic is scattered between the activity and the receiver —
//! exactly the complexity §5 scores against.

use std::sync::Arc;

use mobivine_android::activity::Activity;
use mobivine_android::context::{service_names, Context, SystemService};
use mobivine_android::http::HttpUriRequest;
use mobivine_android::intent::{Intent, IntentFilter, IntentReceiver};
use mobivine_android::location::KEY_PROXIMITY_ENTERING;

use crate::logic::AppEvents;
use crate::model::{ActivityEntry, AgentConfig, Task};

/// The intent action used for proximity alerts (Fig. 2(a) declares the
/// same constant).
pub const PROXIMITY_ALERT: &str = "com.ibm.proxies.android.intent.action.PROXIMITY_ALERT";

/// The Android-native workforce activity.
pub struct NativeAndroidApp {
    config: AgentConfig,
    events: Arc<AppEvents>,
    tasks: Vec<Task>,
}

impl NativeAndroidApp {
    /// Creates the activity for `config`.
    pub fn new(config: AgentConfig, events: Arc<AppEvents>) -> Self {
        Self {
            config,
            events,
            tasks: Vec::new(),
        }
    }

    /// The tasks fetched during `onCreate`.
    pub fn tasks(&self) -> &[Task] {
        &self.tasks
    }

    /// Quick communication with the supervisor: dial through the phone
    /// service, falling back to an SMS when the call cannot be placed.
    pub fn contact_supervisor(&self, ctx: &Context, note: &str) {
        let phone = match ctx.get_system_service(service_names::PHONE_SERVICE) {
            Ok(SystemService::Phone(phone)) => Some(phone),
            _ => None,
        };
        if let Some(phone) = phone {
            match phone.call(&self.config.supervisor_msisdn) {
                Ok(_id) => {
                    self.events.record("supervisor-contact:call");
                    return;
                }
                Err(_e) => {
                    // Handle Android specific exception
                    self.events.record("supervisor-contact:call-failed");
                }
            }
        }
        if let Ok(SystemService::Sms(sms)) = ctx.get_system_service(service_names::SMS_SERVICE) {
            let _ = sms.send_text_message(&self.config.supervisor_msisdn, None, note, None);
            self.events.record("supervisor-contact:sms");
        }
    }

    fn fetch_tasks(&mut self, ctx: &Context) {
        let url = format!(
            "http://{}/tasks?agent={}",
            self.config.server_host, self.config.agent_id
        );
        let request = match HttpUriRequest::get(&url) {
            Ok(request) => request,
            Err(_e) => {
                // Handle Android specific exception
                return;
            }
        };
        match ctx.http_client().execute(&request) {
            Ok(response) => {
                self.tasks = serde_json::from_slice(&response.body).unwrap_or_default();
                self.events
                    .record(format!("tasks-fetched:{}", self.tasks.len()));
            }
            Err(_e) => {
                // Handle Android specific exception
            }
        }
    }
}

/// The hand-written receiver of Fig. 2(a): adapts broadcast intents to
/// business logic, re-fetching the current location from the
/// `LocationManager` system service.
struct ProximityIntentReceiver {
    config: AgentConfig,
    events: Arc<AppEvents>,
    task: Task,
    action: String,
}

impl IntentReceiver for ProximityIntentReceiver {
    fn on_receive_intent(&self, ctxt: &Context, intent: &Intent) {
        if intent.action() != self.action {
            return;
        }
        let entering = intent.get_boolean_extra(KEY_PROXIMITY_ENTERING, false);
        let location_manager = match ctxt.get_system_service(service_names::LOCATION_SERVICE) {
            Ok(SystemService::Location(lm)) => lm,
            _ => return,
        };
        let location = location_manager.get_current_location("gps");
        let at_ms = location.map(|l| l.time()).unwrap_or(0);
        if entering {
            // business logic for handling proximity events (enter)
            self.events.record(format!("arrived:site-{}", self.task.id));
            if let Ok(SystemService::Sms(sms)) = ctxt.get_system_service(service_names::SMS_SERVICE)
            {
                let _ = sms.send_text_message(
                    &self.config.supervisor_msisdn,
                    None,
                    &format!(
                        "Agent {} arrived at site {} ({})",
                        self.config.agent_id, self.task.id, self.task.description
                    ),
                    None,
                );
                self.events
                    .record(format!("sms:arrival-site-{}", self.task.id));
            }
            post_activity(
                ctxt,
                &self.config,
                &self.events,
                at_ms,
                format!("arrived site {}", self.task.id),
            );
        } else {
            // business logic for handling proximity events (exit)
            self.events
                .record(format!("departed:site-{}", self.task.id));
            post_activity(
                ctxt,
                &self.config,
                &self.events,
                at_ms,
                format!("left site {}", self.task.id),
            );
            let body = serde_json::json!({
                "agent_id": self.config.agent_id,
                "task_id": self.task.id,
            })
            .to_string();
            if let Ok(request) = HttpUriRequest::post(
                &format!("http://{}/task-complete", self.config.server_host),
                body,
            ) {
                let _ = ctxt.http_client().execute(&request);
                self.events
                    .record(format!("task-complete:site-{}", self.task.id));
            }
        }
    }
}

fn post_activity(
    ctx: &Context,
    config: &AgentConfig,
    events: &Arc<AppEvents>,
    at_ms: u64,
    event: String,
) {
    let entry = ActivityEntry {
        agent_id: config.agent_id,
        at_ms,
        event,
    };
    let Ok(body) = serde_json::to_vec(&entry) else {
        events.record("activity-log-failed:serialize");
        return;
    };
    if let Ok(request) =
        HttpUriRequest::post(&format!("http://{}/activity-log", config.server_host), body)
    {
        let _ = ctx.http_client().execute(&request);
        events.record("activity-logged");
    }
}

impl Activity for NativeAndroidApp {
    fn on_create(&mut self, ctx: &Context) {
        self.fetch_tasks(ctx);
        for task in self.tasks.clone() {
            // registering for proximity events — the full Fig. 2(a)
            // ceremony: action constant, receiver, filter, intent,
            // manager lookup, platform-specific exception handling.
            let action = format!("{PROXIMITY_ALERT}.{}", task.id);
            let receiver = Arc::new(ProximityIntentReceiver {
                config: self.config.clone(),
                events: Arc::clone(&self.events),
                task: task.clone(),
                action: action.clone(),
            });
            ctx.register_receiver(receiver, IntentFilter::new(&action));
            let location_manager = match ctx.get_system_service(service_names::LOCATION_SERVICE) {
                Ok(SystemService::Location(lm)) => lm,
                _ => continue,
            };
            let intent = Intent::new(&action);
            match location_manager.add_proximity_alert(
                task.latitude,
                task.longitude,
                task.radius_m as f32,
                -1,
                intent,
            ) {
                Ok(_registration) => {}
                Err(_e) => {
                    // Handle Android specific exception
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::Scenario;
    use mobivine_android::activity::ActivityHost;
    use mobivine_android::{AndroidPlatform, SdkVersion};

    #[test]
    fn native_android_app_full_scenario() {
        let scenario = Scenario::two_site_patrol(1);
        let platform = AndroidPlatform::new(scenario.device.clone(), SdkVersion::M5Rc15);
        let events = AppEvents::new();
        let app = NativeAndroidApp::new(scenario.config.clone(), Arc::clone(&events));
        let mut host = ActivityHost::new(app, platform.new_context());
        host.launch().unwrap();
        assert_eq!(host.activity().tasks().len(), 2);
        scenario.device.advance_ms(scenario.patrol_duration_ms());
        // Both sites visited: arrivals, SMSes, departures, completions.
        assert_eq!(events.count_prefix("arrived:"), 2);
        assert_eq!(events.count_prefix("sms:arrival"), 2);
        assert_eq!(events.count_prefix("departed:"), 2);
        assert_eq!(events.count_prefix("task-complete:"), 2);
        // Server saw the activity.
        assert_eq!(scenario.server.activity_log().len(), 4);
        assert_eq!(
            scenario
                .server
                .completed_tasks(scenario.config.agent_id)
                .len(),
            2
        );
        // Supervisor got the arrival messages.
        scenario.device.advance_ms(1_000);
        assert_eq!(
            scenario
                .device
                .smsc()
                .inbox_len(&scenario.config.supervisor_msisdn),
            2
        );
    }

    #[test]
    fn contact_supervisor_calls_then_falls_back() {
        let scenario = Scenario::two_site_patrol(2);
        let platform = AndroidPlatform::new(scenario.device.clone(), SdkVersion::M5Rc15);
        let events = AppEvents::new();
        let app = NativeAndroidApp::new(scenario.config.clone(), Arc::clone(&events));
        let ctx = platform.new_context();
        app.contact_supervisor(&ctx, "need parts");
        assert_eq!(events.count_prefix("supervisor-contact:call"), 1);
    }
}
