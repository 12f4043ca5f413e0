//! Activity lifecycle.
//!
//! On Android "the application extends an Activity" (paper §2, point 2) —
//! the development/deployment model is coupled to the middleware. The
//! workforce-management app variants in `mobivine-apps` implement
//! [`Activity`] and are driven by an [`ActivityHost`] that enforces the
//! legal lifecycle transitions.

use std::fmt;

use crate::context::Context;

/// Lifecycle states of an activity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LifecycleState {
    /// Constructed but `onCreate` not yet delivered.
    Initialized,
    /// `onCreate` delivered.
    Created,
    /// `onStart`/`onResume` delivered; interacting with the user.
    Resumed,
    /// `onPause` delivered.
    Paused,
    /// `onStop` delivered.
    Stopped,
    /// `onDestroy` delivered; terminal.
    Destroyed,
}

/// An Android activity: application code invoked at lifecycle edges.
pub trait Activity {
    /// `onCreate` — set up platform interactions here (the paper's
    /// Fig. 2(a)/8(a) register proximity alerts in `onCreate`).
    fn on_create(&mut self, ctx: &Context);

    /// `onResume` — foregrounded.
    fn on_resume(&mut self, _ctx: &Context) {}

    /// `onPause` — backgrounded.
    fn on_pause(&mut self, _ctx: &Context) {}

    /// `onDestroy` — release platform resources.
    fn on_destroy(&mut self, _ctx: &Context) {}
}

/// Error for illegal lifecycle transitions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LifecycleError {
    from: LifecycleState,
    requested: &'static str,
}

impl fmt::Display for LifecycleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cannot {} from state {:?}", self.requested, self.from)
    }
}

impl std::error::Error for LifecycleError {}

/// Drives an [`Activity`] through its lifecycle on a [`Context`].
pub struct ActivityHost<A: Activity> {
    activity: A,
    ctx: Context,
    state: LifecycleState,
}

impl<A: Activity + fmt::Debug> fmt::Debug for ActivityHost<A> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ActivityHost")
            .field("state", &self.state)
            .field("activity", &self.activity)
            .finish()
    }
}

impl<A: Activity> ActivityHost<A> {
    /// Hosts `activity` on `ctx`, in the `Initialized` state.
    pub fn new(activity: A, ctx: Context) -> Self {
        Self {
            activity,
            ctx,
            state: LifecycleState::Initialized,
        }
    }

    /// Current lifecycle state.
    pub fn state(&self) -> LifecycleState {
        self.state
    }

    /// Immutable access to the hosted activity.
    pub fn activity(&self) -> &A {
        &self.activity
    }

    /// The context the activity runs on.
    pub fn context(&self) -> &Context {
        &self.ctx
    }

    /// Launches the activity: `onCreate` then `onResume`.
    ///
    /// # Errors
    ///
    /// Returns [`LifecycleError`] unless the activity is `Initialized`.
    pub fn launch(&mut self) -> Result<(), LifecycleError> {
        if self.state != LifecycleState::Initialized {
            return Err(LifecycleError {
                from: self.state,
                requested: "launch",
            });
        }
        self.activity.on_create(&self.ctx);
        self.state = LifecycleState::Created;
        self.activity.on_resume(&self.ctx);
        self.state = LifecycleState::Resumed;
        Ok(())
    }

    /// Backgrounds the activity: `onPause`.
    ///
    /// # Errors
    ///
    /// Returns [`LifecycleError`] unless the activity is `Resumed`.
    pub fn pause(&mut self) -> Result<(), LifecycleError> {
        if self.state != LifecycleState::Resumed {
            return Err(LifecycleError {
                from: self.state,
                requested: "pause",
            });
        }
        self.activity.on_pause(&self.ctx);
        self.state = LifecycleState::Paused;
        Ok(())
    }

    /// Foregrounds a paused activity: `onResume`.
    ///
    /// # Errors
    ///
    /// Returns [`LifecycleError`] unless the activity is `Paused`.
    pub fn resume(&mut self) -> Result<(), LifecycleError> {
        if self.state != LifecycleState::Paused {
            return Err(LifecycleError {
                from: self.state,
                requested: "resume",
            });
        }
        self.activity.on_resume(&self.ctx);
        self.state = LifecycleState::Resumed;
        Ok(())
    }

    /// Destroys the activity from any non-terminal state.
    ///
    /// # Errors
    ///
    /// Returns [`LifecycleError`] if already destroyed.
    pub fn destroy(&mut self) -> Result<(), LifecycleError> {
        if self.state == LifecycleState::Destroyed {
            return Err(LifecycleError {
                from: self.state,
                requested: "destroy",
            });
        }
        self.activity.on_destroy(&self.ctx);
        self.state = LifecycleState::Destroyed;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::AndroidPlatform;
    use crate::version::SdkVersion;
    use mobivine_device::Device;

    #[derive(Debug, Default)]
    struct Probe {
        log: Vec<&'static str>,
    }

    impl Activity for Probe {
        fn on_create(&mut self, _ctx: &Context) {
            self.log.push("create");
        }
        fn on_resume(&mut self, _ctx: &Context) {
            self.log.push("resume");
        }
        fn on_pause(&mut self, _ctx: &Context) {
            self.log.push("pause");
        }
        fn on_destroy(&mut self, _ctx: &Context) {
            self.log.push("destroy");
        }
    }

    fn host() -> ActivityHost<Probe> {
        let ctx = AndroidPlatform::new(Device::builder().build(), SdkVersion::M5Rc15).new_context();
        ActivityHost::new(Probe::default(), ctx)
    }

    #[test]
    fn launch_delivers_create_and_resume() {
        let mut host = host();
        host.launch().unwrap();
        assert_eq!(host.state(), LifecycleState::Resumed);
        assert_eq!(host.activity().log, vec!["create", "resume"]);
    }

    #[test]
    fn pause_resume_cycle() {
        let mut host = host();
        host.launch().unwrap();
        host.pause().unwrap();
        assert_eq!(host.state(), LifecycleState::Paused);
        host.resume().unwrap();
        assert_eq!(host.state(), LifecycleState::Resumed);
        assert_eq!(
            host.activity().log,
            vec!["create", "resume", "pause", "resume"]
        );
    }

    #[test]
    fn illegal_transitions_rejected() {
        let mut host = host();
        assert!(host.pause().is_err());
        host.launch().unwrap();
        assert!(host.launch().is_err());
        assert!(host.resume().is_err());
    }

    #[test]
    fn destroy_is_terminal() {
        let mut host = host();
        host.launch().unwrap();
        host.destroy().unwrap();
        assert_eq!(host.state(), LifecycleState::Destroyed);
        assert!(host.destroy().is_err());
        assert!(host.pause().is_err());
    }
}
