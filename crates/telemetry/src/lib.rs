#![warn(missing_docs)]
//! Plane-aware telemetry for the MobiVine reproduction.
//!
//! The paper's quantitative argument (Fig. 10) is about what happens
//! *inside* the proxy layers; this crate makes those layers visible as
//! first-class data instead of ad-hoc accumulation:
//!
//! * [`span`] — span tracing on **simulated (virtual) time**. A
//!   [`Tracer`] hands out [`ActiveSpan`]s carrying a
//!   [`TraceId`]/[`SpanId`] pair and a parent link; an ambient,
//!   thread-local span stack lets lower layers (resilience engine,
//!   platform middleware, device substrate) attach child spans without
//!   any API threading. Each span is tagged with the M-Proxy [`Plane`]
//!   it instruments (app → proxy → resilience → binding → bridge →
//!   platform → device).
//! * [`context`] — the [`TraceContext`] that crosses process-like
//!   boundaries (the WebView JavaScript bridge) as a W3C-style
//!   `traceparent` string, proving propagation is a wire format and not
//!   shared memory.
//! * [`metrics`] — a [`MetricsRegistry`] of named counters, gauges and
//!   log-bucketed latency histograms keyed by sorted label sets (the
//!   canonical key being `(proxy, method, platform)`), striped into
//!   lock shards keyed by interned symbols.
//! * [`intern`] — process-wide symbol tables turning metric names and
//!   label sets into copyable `u32` keys, so the recording path never
//!   hashes or compares strings.
//! * [`recorder`] — the flight recorder's tail-based promotion: a
//!   [`PromotionPolicy`] classifies every closing trace root (error,
//!   blown deadline, latency threshold) and promotes interesting trace
//!   trees out of the overwrite-oldest rings into a bounded
//!   [`IncidentStore`] before they can be overwritten.
//! * [`export`] — Chrome trace-event JSON for span trees (load the file
//!   in `chrome://tracing` / Perfetto) and Prometheus-style text
//!   exposition for the registry — including OpenMetrics exemplars on
//!   histogram buckets — plus validators that round-trip the exported
//!   documents.
//!
//! The crate deliberately has **no dependency on the device substrate**:
//! every timestamp is passed in as a `u64` of virtual milliseconds, so
//! any clock (simulated or wall) can drive it.

pub mod context;
pub mod export;
pub mod intern;
pub mod metrics;
pub mod recorder;
pub mod span;

pub use context::{TraceContext, TraceparentBuf};
pub use intern::{LabelKey, NameKey};
pub use metrics::{Counter, Gauge, Histogram, Labels, MetricsRegistry};
pub use recorder::{
    IncidentStore, PromotedTrace, PromotionPolicy, PromotionReason, Recorder, RecorderCounters,
    DEFAULT_INCIDENT_CAPACITY,
};
pub use span::{
    ambient, ActiveSpan, AttrList, AttrValue, EventList, InlineList, Plane, SpanEvent, SpanId,
    SpanName, SpanRecord, TraceId, Tracer, DEFAULT_SPAN_RETENTION,
};
