//! Call switch simulator.
//!
//! Models circuit-switched voice calls: dialing, ringing, answer, hold,
//! hang-up, and failure outcomes (busy, unreachable, no answer). The
//! Android platform exposes this through its `IPhone`-style interface; S60
//! does not expose call control at all — exactly the asymmetry the paper
//! notes ("Call proxy could not be created ... because the core
//! functionality was not exposed on the S60 platform").

use std::collections::HashMap;
use std::fmt;
use std::sync::{Arc, Weak};

use parking_lot::Mutex;

use crate::event::EventQueue;
use crate::listeners::{self, Listener};

/// Call setup latency (dial → ringing).
const SETUP_MS: u64 = 300;

/// Answer delay (ringing → active).
const ANSWER_MS: u64 = 2_000;

/// Ringing timeout for no-answer callees.
const NO_ANSWER_MS: u64 = 30_000;

/// Identifier of a call leg.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CallId(u64);

impl CallId {
    /// The raw numeric id (used by proxies that expose ids uniformly
    /// across platforms as plain integers).
    pub fn value(&self) -> u64 {
        self.0
    }

    /// Reconstructs a call id from its raw value (proxies hand plain
    /// integers back to the platform layer).
    pub fn from_value(value: u64) -> Self {
        CallId(value)
    }
}

impl fmt::Display for CallId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "call-{}", self.0)
    }
}

/// Reachability profile of a callee in the simulated network.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum CalleeProfile {
    /// Answers after the switch's answer delay.
    #[default]
    Answers,
    /// Line is busy; the call fails immediately after setup.
    Busy,
    /// Phone is off / out of coverage.
    Unreachable,
    /// Rings until the no-answer timeout, then fails.
    NoAnswer,
}

/// State of a call leg.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CallState {
    /// Call setup in progress.
    Dialing,
    /// Remote end is ringing.
    Ringing,
    /// Two-way audio established.
    Active,
    /// Locally held.
    Held,
    /// Terminated, with the reason it ended.
    Disconnected(DisconnectReason),
}

/// Why a call ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DisconnectReason {
    /// Local hang-up.
    LocalHangup,
    /// Callee was busy.
    Busy,
    /// Callee unreachable.
    Unreachable,
    /// Callee never answered.
    NoAnswer,
}

/// Callback observing call state transitions.
pub type CallListenerFn = Box<dyn Fn(CallId, CallState) + Send>;

/// A call listener's subscription, returned by
/// [`CallSwitch::add_listener`]: the listener stays subscribed while
/// this lives and is removed when it drops.
#[must_use = "dropping the subscription removes the listener at once"]
pub struct CallSubscription {
    state: Weak<Mutex<SwitchState>>,
    id: u64,
}

impl fmt::Debug for CallSubscription {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CallSubscription")
            .field("id", &self.id)
            .finish()
    }
}

impl Drop for CallSubscription {
    fn drop(&mut self) {
        let Some(state) = self.state.upgrade() else {
            return;
        };
        let mut guard = state.lock();
        let inner = &mut *guard;
        let removed =
            listeners::unsubscribe(&mut inner.listeners, &mut inner.unsubscribed, self.id);
        drop(guard);
        drop(removed);
    }
}

struct CallRecord {
    callee: String,
    state: CallState,
}

struct SwitchState {
    next_id: u64,
    profiles: HashMap<String, CalleeProfile>,
    calls: HashMap<CallId, CallRecord>,
    listeners: Vec<Listener<CallListenerFn>>,
    next_listener_id: u64,
    /// Ids of subscriptions dropped while a transition had their
    /// listeners out of the lock.
    unsubscribed: Vec<u64>,
}

/// The simulated circuit switch.
///
/// # Example
///
/// ```
/// use std::sync::Arc;
/// use mobivine_device::call::{CallSwitch, CallState};
/// use mobivine_device::event::EventQueue;
///
/// let events = Arc::new(EventQueue::new());
/// let switch = CallSwitch::new(Arc::clone(&events));
/// let id = switch.dial("+911234", 0);
/// events.run_until(10_000);
/// assert_eq!(switch.state(id), Some(CallState::Active));
/// ```
pub struct CallSwitch {
    events: Arc<EventQueue>,
    state: Arc<Mutex<SwitchState>>,
}

impl fmt::Debug for CallSwitch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let state = self.state.lock();
        f.debug_struct("CallSwitch")
            .field("active_calls", &state.calls.len())
            .finish()
    }
}

impl CallSwitch {
    /// Creates a switch pumping transitions through `events`.
    pub fn new(events: Arc<EventQueue>) -> Self {
        Self {
            events,
            state: Arc::new(Mutex::new(SwitchState {
                next_id: 1,
                profiles: HashMap::new(),
                calls: HashMap::new(),
                listeners: Vec::new(),
                next_listener_id: 0,
                unsubscribed: Vec::new(),
            })),
        }
    }

    /// Sets the reachability profile for `callee` (default:
    /// [`CalleeProfile::Answers`]).
    pub fn set_callee_profile(&self, callee: &str, profile: CalleeProfile) {
        self.state
            .lock()
            .profiles
            .insert(callee.to_owned(), profile);
    }

    /// Subscribes `listener` to every state transition of every call
    /// until the returned subscription drops.
    pub fn add_listener<F>(&self, listener: F) -> CallSubscription
    where
        F: Fn(CallId, CallState) + Send + 'static,
    {
        let mut state = self.state.lock();
        let id = state.next_listener_id;
        state.next_listener_id += 1;
        state.listeners.push(Listener {
            id,
            call: Box::new(listener),
        });
        CallSubscription {
            state: Arc::downgrade(&self.state),
            id,
        }
    }

    /// Current state of a call, if it exists.
    pub fn state(&self, id: CallId) -> Option<CallState> {
        self.state.lock().calls.get(&id).map(|c| c.state)
    }

    /// Callee address of a call, if it exists.
    pub fn callee(&self, id: CallId) -> Option<String> {
        self.state.lock().calls.get(&id).map(|c| c.callee.clone())
    }

    /// Places a call to `callee` at virtual time `now_ms`.
    ///
    /// The call progresses asynchronously as the event queue is pumped:
    /// `Dialing` → `Ringing` → (`Active` | `Disconnected`).
    pub fn dial(&self, callee: &str, now_ms: u64) -> CallId {
        let (id, profile) = {
            let mut state = self.state.lock();
            let id = CallId(state.next_id);
            state.next_id += 1;
            state.calls.insert(
                id,
                CallRecord {
                    callee: callee.to_owned(),
                    state: CallState::Dialing,
                },
            );
            let profile = state.profiles.get(callee).copied().unwrap_or_default();
            (id, profile)
        };
        let shared = Arc::clone(&self.state);
        let events = Arc::clone(&self.events);
        self.events
            .schedule_at(now_ms + SETUP_MS, "call-setup", move |at| match profile {
                CalleeProfile::Busy => {
                    transition(&shared, id, CallState::Disconnected(DisconnectReason::Busy));
                }
                CalleeProfile::Unreachable => {
                    transition(
                        &shared,
                        id,
                        CallState::Disconnected(DisconnectReason::Unreachable),
                    );
                }
                CalleeProfile::Answers => {
                    transition(&shared, id, CallState::Ringing);
                    let shared2 = Arc::clone(&shared);
                    events.schedule_at(at + ANSWER_MS, "call-answer", move |_| {
                        transition_if(&shared2, id, CallState::Ringing, CallState::Active);
                    });
                }
                CalleeProfile::NoAnswer => {
                    transition(&shared, id, CallState::Ringing);
                    let shared2 = Arc::clone(&shared);
                    events.schedule_at(at + NO_ANSWER_MS, "call-timeout", move |_| {
                        transition_if(
                            &shared2,
                            id,
                            CallState::Ringing,
                            CallState::Disconnected(DisconnectReason::NoAnswer),
                        );
                    });
                }
            });
        id
    }

    /// Places the call on hold.
    ///
    /// # Errors
    ///
    /// Returns `Err` if the call does not exist or is not `Active`.
    pub fn hold(&self, id: CallId) -> Result<(), CallControlError> {
        self.control(id, CallState::Active, CallState::Held)
    }

    /// Resumes a held call.
    ///
    /// # Errors
    ///
    /// Returns `Err` if the call does not exist or is not `Held`.
    pub fn resume(&self, id: CallId) -> Result<(), CallControlError> {
        self.control(id, CallState::Held, CallState::Active)
    }

    /// Hangs up a call in any non-terminal state.
    ///
    /// # Errors
    ///
    /// Returns `Err` if the call does not exist or is already
    /// disconnected.
    pub fn hangup(&self, id: CallId) -> Result<(), CallControlError> {
        let current = self.state(id).ok_or(CallControlError::UnknownCall)?;
        if matches!(current, CallState::Disconnected(_)) {
            return Err(CallControlError::InvalidState(current));
        }
        transition(
            &self.state,
            id,
            CallState::Disconnected(DisconnectReason::LocalHangup),
        );
        Ok(())
    }

    fn control(
        &self,
        id: CallId,
        expected: CallState,
        next: CallState,
    ) -> Result<(), CallControlError> {
        let current = self.state(id).ok_or(CallControlError::UnknownCall)?;
        if current != expected {
            return Err(CallControlError::InvalidState(current));
        }
        transition(&self.state, id, next);
        Ok(())
    }
}

/// Error returned by call-control operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CallControlError {
    /// No call with that id exists.
    UnknownCall,
    /// The call is not in a state that permits the operation.
    InvalidState(CallState),
}

impl fmt::Display for CallControlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CallControlError::UnknownCall => write!(f, "unknown call id"),
            CallControlError::InvalidState(s) => {
                write!(f, "operation invalid in call state {s:?}")
            }
        }
    }
}

impl std::error::Error for CallControlError {}

fn transition(shared: &Arc<Mutex<SwitchState>>, id: CallId, next: CallState) {
    let mut state = shared.lock();
    let Some(record) = state.calls.get_mut(&id) else {
        return;
    };
    record.state = next;
    // Take listeners out so callbacks run without the lock.
    let listeners = std::mem::take(&mut state.listeners);
    if listeners.is_empty() {
        return;
    }
    drop(state);
    for l in &listeners {
        (l.call)(id, next);
    }
    let mut guard = shared.lock();
    let inner = &mut *guard;
    let gone = listeners::put_back(&mut inner.listeners, listeners, &mut inner.unsubscribed);
    drop(guard);
    drop(gone);
}

fn transition_if(
    shared: &Arc<Mutex<SwitchState>>,
    id: CallId,
    expected: CallState,
    next: CallState,
) {
    let should = {
        let state = shared.lock();
        state.calls.get(&id).map(|c| c.state) == Some(expected)
    };
    if should {
        transition(shared, id, next);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Mutex as StdMutex;

    fn switch() -> (Arc<EventQueue>, CallSwitch) {
        let events = Arc::new(EventQueue::new());
        let switch = CallSwitch::new(Arc::clone(&events));
        (events, switch)
    }

    #[test]
    fn successful_call_progresses_to_active() {
        let (events, switch) = switch();
        let id = switch.dial("+1", 0);
        assert_eq!(switch.state(id), Some(CallState::Dialing));
        events.run_until(300);
        assert_eq!(switch.state(id), Some(CallState::Ringing));
        events.run_until(2_300);
        assert_eq!(switch.state(id), Some(CallState::Active));
    }

    #[test]
    fn busy_callee_disconnects_with_busy() {
        let (events, switch) = switch();
        switch.set_callee_profile("+busy", CalleeProfile::Busy);
        let id = switch.dial("+busy", 0);
        events.run_until(10_000);
        assert_eq!(
            switch.state(id),
            Some(CallState::Disconnected(DisconnectReason::Busy))
        );
    }

    #[test]
    fn unreachable_callee_disconnects_with_unreachable() {
        let (events, switch) = switch();
        switch.set_callee_profile("+off", CalleeProfile::Unreachable);
        let id = switch.dial("+off", 0);
        events.run_until(10_000);
        assert_eq!(
            switch.state(id),
            Some(CallState::Disconnected(DisconnectReason::Unreachable))
        );
    }

    #[test]
    fn no_answer_times_out() {
        let (events, switch) = switch();
        switch.set_callee_profile("+ghost", CalleeProfile::NoAnswer);
        let id = switch.dial("+ghost", 0);
        events.run_until(300 + 29_999);
        assert_eq!(switch.state(id), Some(CallState::Ringing));
        events.run_until(300 + 30_000);
        assert_eq!(
            switch.state(id),
            Some(CallState::Disconnected(DisconnectReason::NoAnswer))
        );
    }

    #[test]
    fn hold_and_resume() {
        let (events, switch) = switch();
        let id = switch.dial("+1", 0);
        events.run_until(5_000);
        switch.hold(id).unwrap();
        assert_eq!(switch.state(id), Some(CallState::Held));
        switch.resume(id).unwrap();
        assert_eq!(switch.state(id), Some(CallState::Active));
    }

    #[test]
    fn hold_requires_active() {
        let (_events, switch) = switch();
        let id = switch.dial("+1", 0);
        assert_eq!(
            switch.hold(id),
            Err(CallControlError::InvalidState(CallState::Dialing))
        );
    }

    #[test]
    fn hangup_while_ringing_cancels_answer() {
        let (events, switch) = switch();
        let id = switch.dial("+1", 0);
        events.run_until(300);
        switch.hangup(id).unwrap();
        events.run_until(60_000);
        assert_eq!(
            switch.state(id),
            Some(CallState::Disconnected(DisconnectReason::LocalHangup))
        );
    }

    #[test]
    fn hangup_twice_errors() {
        let (events, switch) = switch();
        let id = switch.dial("+1", 0);
        events.run_until(5_000);
        switch.hangup(id).unwrap();
        assert!(switch.hangup(id).is_err());
    }

    #[test]
    fn unknown_call_errors() {
        let (_events, switch) = switch();
        let bogus = CallId(999);
        assert_eq!(switch.hangup(bogus), Err(CallControlError::UnknownCall));
        assert_eq!(switch.state(bogus), None);
    }

    #[test]
    fn listener_sees_transitions_in_order() {
        let (events, switch) = switch();
        let log = Arc::new(StdMutex::new(Vec::new()));
        let sink = Arc::clone(&log);
        let _subscription = switch.add_listener(move |_, s| sink.lock().unwrap().push(s));
        let _id = switch.dial("+1", 0);
        events.run_until(10_000);
        let log = log.lock().unwrap();
        assert_eq!(log.as_slice(), &[CallState::Ringing, CallState::Active]);
    }

    fn counting_listener(switch: &CallSwitch) -> (Arc<AtomicUsize>, CallSubscription) {
        let count = Arc::new(AtomicUsize::new(0));
        let c = Arc::clone(&count);
        let subscription = switch.add_listener(move |_, _| {
            c.fetch_add(1, Ordering::SeqCst);
        });
        (count, subscription)
    }

    #[test]
    fn a_dropped_subscription_is_not_notified() {
        let (events, switch) = switch();
        let (count, subscription) = counting_listener(&switch);
        drop(subscription);
        switch.dial("+1", 0);
        events.run_until(10_000);
        assert_eq!(count.load(Ordering::SeqCst), 0);
        assert_eq!(Arc::strong_count(&count), 1, "the listener is freed");
    }

    #[test]
    fn add_drop_cycles_return_to_the_baseline() {
        let (_events, switch) = switch();
        let _kept = counting_listener(&switch);
        let baseline = switch.state.lock().listeners.len();
        for _ in 0..1_000 {
            drop(counting_listener(&switch));
        }
        assert_eq!(switch.state.lock().listeners.len(), baseline);
    }

    #[test]
    fn a_listener_added_by_a_listener_is_kept() {
        let (events, switch) = switch();
        let switch = Arc::new(switch);
        let count = Arc::new(AtomicUsize::new(0));
        let added = Arc::new(StdMutex::new(Vec::new()));
        let (inner, c, keep) = (Arc::clone(&switch), Arc::clone(&count), Arc::clone(&added));
        let _subscription = switch.add_listener(move |_, state| {
            if state == CallState::Ringing {
                let c = Arc::clone(&c);
                let subscription = inner.add_listener(move |_, _| {
                    c.fetch_add(1, Ordering::SeqCst);
                });
                keep.lock().unwrap().push(subscription);
            }
        });
        switch.dial("+1", 0);
        events.run_until(10_000);
        // Added while `Ringing` was dispatched, so it sees only `Active`.
        assert_eq!(count.load(Ordering::SeqCst), 1);
        assert_eq!(added.lock().unwrap().len(), 1);
    }

    #[test]
    fn a_listener_that_drops_its_own_subscription_is_not_called_again() {
        let (events, switch) = switch();
        let count = Arc::new(AtomicUsize::new(0));
        let own = Arc::new(StdMutex::new(None));
        let (c, slot) = (Arc::clone(&count), Arc::clone(&own));
        let subscription = switch.add_listener(move |_, _| {
            c.fetch_add(1, Ordering::SeqCst);
            drop(slot.lock().unwrap().take());
        });
        *own.lock().unwrap() = Some(subscription);
        // A second listener keeps its place.
        let (others, _other) = counting_listener(&switch);
        switch.dial("+1", 0);
        events.run_until(10_000);
        assert_eq!(count.load(Ordering::SeqCst), 1);
        assert_eq!(others.load(Ordering::SeqCst), 2, "ringing and active");
        assert_eq!(Arc::strong_count(&count), 1, "the listener is freed");
        assert!(switch.state.lock().unsubscribed.is_empty());
    }

    #[test]
    fn callee_recorded() {
        let (_events, switch) = switch();
        let id = switch.dial("+42", 0);
        assert_eq!(switch.callee(id).as_deref(), Some("+42"));
    }
}
