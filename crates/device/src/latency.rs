//! A compatibility shim for the removed native-latency model.
//!
//! Native platform calls on the simulated handset cost only the Rust
//! that runs them; nothing sleeps or spins to imitate a handset. The
//! paper's native milliseconds live beside the measured figures in
//! `mobivine_bench::figure10::PAPER_VALUES`.
//!
//! [`LatencyModel`] and [`crate::DeviceBuilder::latency`] remain only
//! because the `mobivine-benchmark` crate, whose sources change only
//! together with the benchmark, still calls
//! `.latency(LatencyModel::zero())`. Both go with the next benchmark
//! change.

/// A native-call cost model that is always zero and stores nothing.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LatencyModel;

impl LatencyModel {
    /// The only model: every native call is free.
    pub const fn zero() -> Self {
        Self
    }
}
