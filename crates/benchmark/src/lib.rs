//! Wall-clock benchmark of the MobiVine middleware.
//!
//! Four fleet workloads measure what an application sees end to end
//! (ops/s, per-call latency, peak memory, set-up time), and a layer
//! ladder measures what each policy layer adds to one call. Everything
//! is driven through the middleware's public API with zero-latency
//! devices, so every number is time spent in Rust code, never in
//! simulated sleeps. See `README.md` in this crate for the metric
//! table and how the numbers relate.

pub mod alloc_count;
pub mod hist;
pub mod ladder;
pub mod measure;
pub mod plan;
pub mod report;
pub mod trace;
pub mod workload;
