#![warn(missing_docs)]
//! # MobiVine — a middleware layer that de-fragments mobile platform interfaces
//!
//! Reproduction of *MobiVine: A Middleware Layer to Handle Fragmentation
//! of Platform Interfaces for Mobile Applications* (IBM Research Report
//! RI 09009 / MIDDLEWARE 2009).
//!
//! Mobile platforms expose the same capabilities — location, SMS, calls,
//! HTTP — through interfaces that differ in name, parameter order and
//! types, callback style, exception sets and platform-mandated
//! attributes. MobiVine absorbs that heterogeneity behind **M-Proxies**:
//! uniform, semantically structured interfaces with per-platform binding
//! modules.
//!
//! This crate provides:
//!
//! - the uniform proxy APIs ([`api::LocationProxy`], [`api::SmsProxy`],
//!   [`api::CallProxy`], [`api::HttpProxy`], plus the future-work
//!   [`api::ContactsProxy`] and [`api::CalendarProxy`]),
//! - the platform-neutral data types ([`types::Location`],
//!   [`types::ProximityEvent`], …) and error model ([`error::ProxyError`]
//!   with stable error codes for the JavaScript bridge),
//! - the generic `setProperty` mechanism ([`property::PropertyBag`]),
//!   validated against the proxy's binding-plane descriptor,
//! - binding modules for three platforms ([`android`], [`s60`],
//!   [`webview`]) — each absorbing its platform's quirks exactly as §4.1
//!   describes (Intent/IntentReceiver adaptation on Android, single-shot
//!   → repeated-alert emulation on S60, the wrapper/notification-table/
//!   polling pipeline on WebView),
//! - proxy enrichment decorators ([`enrich`]: unit conversion, call
//!   retries, policy gating — §3.3),
//! - a [`resilience`] layer (retry policies with simulated-clock
//!   backoff, per-proxy circuit breakers, location fallback chains —
//!   applied uniformly via [`registry::MobivineBuilder::with_resilience`]),
//! - a [`cache`] layer (read-through result caching with single-flight
//!   coalescing and stamp-based invalidation for the idempotent reads —
//!   [`registry::MobivineBuilder::with_cache`]),
//! - a [`journal`] layer (write-ahead intent journaling with
//!   fsync-barrier simulation, idempotency keys and torn-tail-safe
//!   crash recovery for the mutating paths —
//!   [`registry::MobivineBuilder::with_journal`]),
//! - the `stack` module that runs those layers — plus the plane-aware
//!   [`telemetry`] at both ends — around every proxy in one declared
//!   order, with one layered decorator per uniform interface (DESIGN.md
//!   §16 "Layer stack"), and
//! - a [`registry::Mobivine`] runtime facade constructing proxies from
//!   whichever [`registry::BindingPlane`] a platform plugs in, checked
//!   against that plane's descriptor catalog.
//!
//! ## Quickstart
//!
//! ```
//! use std::sync::Arc;
//! use mobivine::registry::Mobivine;
//! use mobivine::api::LocationProxy;
//! use mobivine::property::PropertyValue;
//! use mobivine_android::{AndroidPlatform, SdkVersion};
//! use mobivine_device::Device;
//!
//! let device = Device::builder().build();
//! let platform = AndroidPlatform::new(device, SdkVersion::M5Rc15);
//! let runtime = Mobivine::for_android(platform.new_context());
//! let location = runtime.proxy::<dyn LocationProxy>()?;
//! location.set_property("provider", PropertyValue::str("gps"))?;
//! let fix = location.get_location()?;
//! assert!(fix.timestamp_ms == 0);
//! # Ok::<(), mobivine::error::ProxyError>(())
//! ```

pub mod android;
pub mod api;
pub mod cache;
pub mod enrich;
pub mod error;
pub mod journal;
pub mod overload;
pub mod property;
pub mod registry;
pub mod resilience;
pub mod s60;
pub mod shard;
pub(crate) mod stack;
pub mod telemetry;
pub mod types;
pub mod webview;

pub use api::{CallProxy, HttpProxy, LocationProxy, SmsProxy};
pub use cache::{CacheMetrics, CachePolicy, CacheSnapshot};
pub use error::{ProxyError, ProxyErrorKind};
pub use journal::{
    current_idempotency_key, with_idempotency_key, DurableLsn, IdempotencyKey, Journal,
    JournalMetrics, JournalPolicy, JournalSnapshot, Lsn,
};
pub use overload::{
    current_deadline, with_deadline, AdmissionController, Bulkhead, Deadline, DegradeTier,
    OverloadMetrics, OverloadPolicy, OverloadSnapshot,
};
pub use registry::{BindingPlane, Mobivine, MobivineBuilder, ProxyApi, ProxyKind};
pub use resilience::{
    CircuitBreaker, CircuitState, ResilienceMetrics, ResiliencePolicy, ResilienceSnapshot,
};
pub use shard::ShardedRegistry;
pub use telemetry::TelemetryRuntime;
pub use types::{Location, ProximityEvent, ProximityListener};
