#![warn(missing_docs)]
//! Simulated mobile handset substrate for the MobiVine reproduction.
//!
//! The MobiVine paper (MIDDLEWARE 2009) evaluates its de-fragmentation
//! middleware on real handsets (Android emulator, Nokia S60 SDK, Android
//! WebView). This crate replaces the physical handset with a deterministic
//! simulator: a virtual clock, an event scheduler, a GPS engine driven by
//! movement models, an SMSC (store-and-forward message center), a call
//! switch, a simulated HTTP network with in-process servers, and power
//! accounting.
//!
//! Every platform crate (`mobivine-android`, `mobivine-s60`,
//! `mobivine-webview`) is built on top of a shared [`Device`], so the
//! *native* interface conventions each platform exposes — the heterogeneity
//! MobiVine absorbs — sit on identical underlying behaviour.
//!
//! # Example
//!
//! ```
//! use mobivine_device::{Device, geo::GeoPoint, movement::MovementModel};
//!
//! let device = Device::builder()
//!     .seed(42)
//!     .position(GeoPoint::new(28.5355, 77.3910))
//!     .movement(MovementModel::stationary())
//!     .build();
//! device.clock().advance_ms(1_000);
//! assert_eq!(device.clock().now_ms(), 1_000);
//! ```

pub mod calendar;
pub mod call;
pub mod clock;
pub mod cohort;
pub mod contacts;
pub mod delta;
pub mod device;
pub mod event;
pub mod fault;
pub mod geo;
pub mod gps;
pub mod latency;
mod listeners;
pub mod movement;
pub mod net;
pub mod power;
pub mod radio;
pub mod sms;

pub use clock::SimClock;
pub use cohort::{Cohort, CohortPartition};
pub use device::{Device, DeviceBuilder};
pub use fault::FaultPlan;
pub use geo::GeoPoint;
