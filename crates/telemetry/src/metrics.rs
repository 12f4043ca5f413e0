//! The metrics registry: named counters, gauges and log-bucketed
//! latency histograms keyed by sorted label sets.
//!
//! Handles ([`Counter`], [`Gauge`], [`Histogram`]) are cheap clones of
//! shared atomics — get them once, update them lock-free on the hot
//! path. Internally the registry is striped into a fixed power-of-two
//! number of shards keyed by interned `(NameKey, LabelKey)` symbols
//! (see [`crate::intern`]): get-or-create only locks one shard, and a
//! Prometheus scrape walks the shards one at a time, so registration
//! and export never stall recorders on a global lock. Export re-sorts
//! by `(name, labels)`, so the rendered text is deterministic and
//! identical to what a single sorted map would produce.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use parking_lot::Mutex;

use crate::intern::{self, LabelKey, NameKey};
use crate::span::TraceId;

/// A canonicalised (sorted, deduplicated) label set.
#[derive(Debug, Clone, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Labels(Vec<(String, String)>);

impl Labels {
    /// The empty label set.
    pub fn empty() -> Self {
        Self(Vec::new())
    }

    /// Builds a label set from pairs; keys are sorted and later
    /// duplicates win.
    pub fn new(pairs: &[(&str, &str)]) -> Self {
        let mut labels: Vec<(String, String)> = Vec::with_capacity(pairs.len());
        for (key, value) in pairs {
            match labels.iter_mut().find(|(k, _)| k == key) {
                Some(slot) => slot.1 = (*value).to_owned(),
                None => labels.push(((*key).to_owned(), (*value).to_owned())),
            }
        }
        labels.sort();
        Self(labels)
    }

    /// The canonical call-path key: `(proxy, method, platform)`.
    pub fn call(proxy: &str, method: &str, platform: &str) -> Self {
        Self::new(&[("proxy", proxy), ("method", method), ("platform", platform)])
    }

    /// Looks a label up by key.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.0
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    /// The sorted pairs.
    pub fn pairs(&self) -> &[(String, String)] {
        &self.0
    }

    /// Renders `{k="v",…}` in Prometheus exposition syntax (empty
    /// string for the empty set). `extra` pairs are appended, used for
    /// the `quantile` label on histogram summaries.
    fn render(&self, extra: &[(&str, &str)]) -> String {
        if self.0.is_empty() && extra.is_empty() {
            return String::new();
        }
        let mut out = String::from("{");
        let mut first = true;
        for (k, v) in self
            .0
            .iter()
            .map(|(k, v)| (k.as_str(), v.as_str()))
            .chain(extra.iter().copied())
        {
            if !first {
                out.push(',');
            }
            first = false;
            let _ = write!(
                out,
                "{k}=\"{}\"",
                v.replace('\\', "\\\\").replace('"', "\\\"")
            );
        }
        out.push('}');
        out
    }
}

/// A monotonically increasing counter.
#[derive(Debug, Clone, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// The current value.
    pub fn value(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A gauge: a value that can move both ways.
#[derive(Debug, Clone, Default)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    /// Sets the gauge.
    pub fn set(&self, value: u64) {
        self.0.store(value, Ordering::Relaxed);
    }

    /// The current value.
    pub fn value(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

const BUCKETS: usize = 65;

struct HistogramInner {
    /// Bucket 0 holds exact zeros; bucket `i >= 1` holds values in
    /// `[2^(i-1), 2^i - 1]` — power-of-two (log-bucketed) boundaries.
    buckets: [AtomicU64; BUCKETS],
    sum: AtomicU64,
    /// Per-bucket exemplar: `[trace id, sample value]` of the last
    /// promoted trace whose sample landed in the bucket (trace `0` =
    /// none), rendered in OpenMetrics exemplar syntax. Allocated by the
    /// first [`Histogram::attach_exemplar`] — trace promotion, never the
    /// plain recording hot path — so a healthy histogram is one
    /// allocation.
    exemplars: OnceLock<Box<[[AtomicU64; 2]; BUCKETS]>>,
}

/// A log-bucketed histogram of non-negative integer samples (virtual
/// milliseconds or wall-clock microseconds — unit is the caller's).
#[derive(Clone)]
pub struct Histogram {
    inner: Arc<HistogramInner>,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Histogram")
            .field("count", &self.count())
            .field("sum", &self.sum())
            .finish()
    }
}

fn bucket_index(value: u64) -> usize {
    if value == 0 {
        0
    } else {
        64 - value.leading_zeros() as usize
    }
}

fn bucket_bounds(index: usize) -> (u64, u64) {
    match index {
        0 => (0, 0),
        64 => (1 << 63, u64::MAX),
        i => (1 << (i - 1), (1 << i) - 1),
    }
}

impl Histogram {
    /// A fresh, empty histogram.
    pub fn new() -> Self {
        Self {
            inner: Arc::new(HistogramInner {
                buckets: std::array::from_fn(|_| AtomicU64::new(0)),
                sum: AtomicU64::new(0),
                exemplars: OnceLock::new(),
            }),
        }
    }

    /// Records one sample: two atomic adds. The count is not stored;
    /// it is the sum of the buckets, taken when read.
    pub fn record(&self, value: u64) {
        self.inner.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        self.inner.sum.fetch_add(value, Ordering::Relaxed);
    }

    /// One load of every bucket.
    fn bucket_counts(&self) -> [u64; BUCKETS] {
        std::array::from_fn(|i| self.inner.buckets[i].load(Ordering::Relaxed))
    }

    /// Attaches `trace_id` as the exemplar for the bucket `value`
    /// falls into (last writer wins): two relaxed stores. The first
    /// call allocates the histogram's exemplar table; later calls
    /// allocate nothing. Call it when a trace is promoted so every
    /// bucket links to the most recent promoted trace that landed there.
    pub fn attach_exemplar(&self, value: u64, trace_id: TraceId) {
        let table = self
            .inner
            .exemplars
            .get_or_init(|| Box::new(std::array::from_fn(|_| Default::default())));
        let [trace, sample] = &table[bucket_index(value)];
        sample.store(value, Ordering::Relaxed);
        trace.store(trace_id.0, Ordering::Relaxed);
    }

    /// The exemplar attached to `bucket`, as `(trace id, sample
    /// value)`, if any.
    pub fn exemplar(&self, bucket: usize) -> Option<(TraceId, u64)> {
        let [trace, sample] = self.inner.exemplars.get()?.get(bucket)?;
        let trace = trace.load(Ordering::Relaxed);
        if trace == 0 {
            return None;
        }
        Some((TraceId(trace), sample.load(Ordering::Relaxed)))
    }

    /// Every exemplar currently attached, as `(bucket, trace id,
    /// sample value)`.
    pub fn exemplars(&self) -> Vec<(usize, TraceId, u64)> {
        (0..BUCKETS)
            .filter_map(|bucket| self.exemplar(bucket).map(|(id, v)| (bucket, id, v)))
            .collect()
    }

    /// Number of samples recorded: the sum of the buckets.
    pub fn count(&self) -> u64 {
        self.bucket_counts().iter().sum()
    }

    /// Sum of all samples.
    pub fn sum(&self) -> u64 {
        self.inner.sum.load(Ordering::Relaxed)
    }

    /// Arithmetic mean, `0.0` when empty.
    pub fn mean(&self) -> f64 {
        let count = self.count();
        if count == 0 {
            0.0
        } else {
            self.sum() as f64 / count as f64
        }
    }

    /// Estimated quantile (`0.0..=1.0`) by cumulative walk over the
    /// log buckets with linear interpolation inside the landing bucket.
    /// Returns `0.0` when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        let buckets = self.bucket_counts();
        let count: u64 = buckets.iter().sum();
        if count == 0 {
            return 0.0;
        }
        let q = q.clamp(0.0, 1.0);
        // 0-based rank of the sample we are after.
        let target = (q * (count as f64 - 1.0)).round() as u64;
        let mut seen = 0u64;
        for (i, &in_bucket) in buckets.iter().enumerate() {
            if in_bucket == 0 {
                continue;
            }
            if seen + in_bucket > target {
                let (lo, hi) = bucket_bounds(i);
                let position = (target - seen) as f64 + 0.5;
                return lo as f64 + (hi - lo) as f64 * (position / in_bucket as f64);
            }
            seen += in_bucket;
        }
        bucket_bounds(BUCKETS - 1).1 as f64
    }
}

/// Number of lock stripes. Power of two so shard selection is a mask;
/// fixed so shard membership of a symbol never moves.
const SHARD_COUNT: usize = 8;

/// One metric's identity after interning: two machine words.
type MetricId = (NameKey, LabelKey);

#[derive(Default)]
struct Shard {
    counters: Mutex<HashMap<MetricId, Counter>>,
    gauges: Mutex<HashMap<MetricId, Gauge>>,
    histograms: Mutex<HashMap<MetricId, Histogram>>,
}

fn shard_of(id: MetricId) -> usize {
    // splitmix64-style finalizer over the two symbol indices: cheap and
    // spreads consecutive symbols across stripes.
    let mut h = (u64::from(id.0.index()) << 32) | u64::from(id.1.index());
    h ^= h >> 33;
    h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
    h ^= h >> 33;
    (h as usize) & (SHARD_COUNT - 1)
}

/// The registry: get-or-create metric handles by `(name, labels)` and
/// render the whole set as Prometheus-style text.
///
/// Lookups intern the key once and then touch a single shard; a scrape
/// locks one shard at a time, so it never blocks recorders that hold
/// pre-resolved handles and only briefly delays get-or-create on the
/// shard currently being copied out.
pub struct MetricsRegistry {
    shards: [Shard; SHARD_COUNT],
}

impl Default for MetricsRegistry {
    fn default() -> Self {
        Self {
            shards: std::array::from_fn(|_| Shard::default()),
        }
    }
}

impl std::fmt::Debug for MetricsRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let count =
            |pick: &dyn Fn(&Shard) -> usize| -> usize { self.shards.iter().map(pick).sum() };
        f.debug_struct("MetricsRegistry")
            .field("counters", &count(&|s: &Shard| s.counters.lock().len()))
            .field("gauges", &count(&|s: &Shard| s.gauges.lock().len()))
            .field("histograms", &count(&|s: &Shard| s.histograms.lock().len()))
            .finish()
    }
}

impl MetricsRegistry {
    /// A fresh, empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// A fresh registry behind an [`Arc`], the shape everything shares.
    pub fn shared() -> Arc<Self> {
        Arc::new(Self::new())
    }

    /// Get-or-create a counter.
    pub fn counter(&self, name: &str, labels: &Labels) -> Counter {
        let id = (intern::intern_name(name), intern::intern_labels(labels));
        self.shards[shard_of(id)]
            .counters
            .lock()
            .entry(id)
            .or_default()
            .clone()
    }

    /// Get-or-create a gauge.
    pub fn gauge(&self, name: &str, labels: &Labels) -> Gauge {
        let id = (intern::intern_name(name), intern::intern_labels(labels));
        self.shards[shard_of(id)]
            .gauges
            .lock()
            .entry(id)
            .or_default()
            .clone()
    }

    /// Get-or-create a histogram.
    pub fn histogram(&self, name: &str, labels: &Labels) -> Histogram {
        let id = (intern::intern_name(name), intern::intern_labels(labels));
        self.shards[shard_of(id)]
            .histograms
            .lock()
            .entry(id)
            .or_default()
            .clone()
    }

    /// The current value of a counter, `0` if it was never created
    /// (reading does not create it, and does not even intern the key).
    pub fn counter_value(&self, name: &str, labels: &Labels) -> u64 {
        let Some(name_key) = intern::lookup_name(name) else {
            return 0;
        };
        let Some(label_key) = intern::lookup_labels(labels) else {
            return 0;
        };
        let id = (name_key, label_key);
        self.shards[shard_of(id)]
            .counters
            .lock()
            .get(&id)
            .map_or(0, Counter::value)
    }

    /// Snapshots one metric kind across all shards, resolves the
    /// interned symbols back to strings, and sorts by `(name, labels)`
    /// — the deterministic export order the single-map registry had.
    fn sorted_entries<T: Clone>(
        &self,
        pick: impl Fn(&Shard) -> &Mutex<HashMap<MetricId, T>>,
    ) -> Vec<(String, Labels, T)> {
        let mut entries = Vec::new();
        for shard in &self.shards {
            let map = pick(shard).lock();
            entries.reserve(map.len());
            for (&(name, labels), value) in map.iter() {
                entries.push((
                    intern::resolve_name(name),
                    intern::resolve_labels(labels),
                    value.clone(),
                ));
            }
        }
        entries.sort_by(|a, b| (&a.0, &a.1).cmp(&(&b.0, &b.1)));
        entries
    }

    /// Renders the registry in Prometheus text exposition format.
    /// Counters and gauges expose their value; histograms expose
    /// summary quantiles (p50/p95/p99), cumulative `_bucket` series
    /// over the non-empty log buckets — with OpenMetrics exemplars
    /// (`# {trace_id="…"} value`) where a promoted trace is attached —
    /// plus `_sum` and `_count`. Output is deterministic (sorted by
    /// name, then labels).
    pub fn render_prometheus(&self) -> String {
        let mut out = String::new();
        let mut last_name = String::new();
        for (name, labels, counter) in self.sorted_entries(|shard| &shard.counters) {
            if name != last_name {
                let _ = writeln!(out, "# TYPE {name} counter");
                last_name.clone_from(&name);
            }
            let _ = writeln!(out, "{name}{} {}", labels.render(&[]), counter.value());
        }
        last_name.clear();
        for (name, labels, gauge) in self.sorted_entries(|shard| &shard.gauges) {
            if name != last_name {
                let _ = writeln!(out, "# TYPE {name} gauge");
                last_name.clone_from(&name);
            }
            let _ = writeln!(out, "{name}{} {}", labels.render(&[]), gauge.value());
        }
        last_name.clear();
        for (name, labels, histogram) in self.sorted_entries(|shard| &shard.histograms) {
            if name != last_name {
                let _ = writeln!(out, "# TYPE {name} summary");
                last_name.clone_from(&name);
            }
            for (q, tag) in [(0.5, "0.5"), (0.95, "0.95"), (0.99, "0.99")] {
                let _ = writeln!(
                    out,
                    "{name}{} {}",
                    labels.render(&[("quantile", tag)]),
                    format_float(histogram.quantile(q))
                );
            }
            // Cumulative `_bucket` series over the non-empty log
            // buckets, each carrying its exemplar (the last promoted
            // trace that landed there) in OpenMetrics syntax:
            //   name_bucket{...,le="X"} N # {trace_id="…"} value
            // `+Inf` and `_count` both print the running total of this
            // one pass, so they agree even while samples land.
            let mut cumulative = 0u64;
            for (bucket, in_bucket) in histogram.bucket_counts().into_iter().enumerate() {
                cumulative += in_bucket;
                if in_bucket == 0 || bucket == BUCKETS - 1 {
                    continue;
                }
                let le = bucket_bounds(bucket).1.to_string();
                let _ = write!(
                    out,
                    "{name}_bucket{} {cumulative}",
                    labels.render(&[("le", &le)])
                );
                match histogram.exemplar(bucket) {
                    Some((trace_id, value)) => {
                        let _ = writeln!(out, " # {{trace_id=\"{:016x}\"}} {value}", trace_id.0);
                    }
                    None => out.push('\n'),
                }
            }
            let _ = write!(
                out,
                "{name}_bucket{} {cumulative}",
                labels.render(&[("le", "+Inf")])
            );
            match histogram.exemplar(BUCKETS - 1) {
                Some((trace_id, value)) => {
                    let _ = writeln!(out, " # {{trace_id=\"{:016x}\"}} {value}", trace_id.0);
                }
                None => out.push('\n'),
            }
            let _ = writeln!(out, "{name}_sum{} {}", labels.render(&[]), histogram.sum());
            let _ = writeln!(out, "{name}_count{} {cumulative}", labels.render(&[]));
        }
        out
    }
}

fn format_float(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 9e15 {
        format!("{}", v as i64)
    } else {
        format!("{v:.3}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_canonicalise() {
        let a = Labels::new(&[("b", "2"), ("a", "1")]);
        let b = Labels::new(&[("a", "0"), ("a", "1"), ("b", "2")]);
        assert_eq!(a, b, "sorted and last-duplicate-wins");
        assert_eq!(a.get("a"), Some("1"));
        let call = Labels::call("location", "getLocation", "android");
        assert_eq!(call.get("proxy"), Some("location"));
        assert_eq!(call.get("method"), Some("getLocation"));
        assert_eq!(call.get("platform"), Some("android"));
    }

    /// Deterministic randomized sweep over the `Labels::new` contract:
    /// keys sorted, later duplicates win, input order irrelevant. (The
    /// proptest mirror of this lives in `tests/properties.rs`; this
    /// version actually executes under the offline proptest stub.)
    #[test]
    fn labels_invariant_randomized() {
        fn splitmix64(state: &mut u64) -> u64 {
            *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = *state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }
        const KEYS: [&str; 6] = ["a", "b", "proxy", "method", "platform", "zz"];
        const VALUES: [&str; 4] = ["", "1", "x", "longer value"];
        let mut state = 0xDEAD_BEEF;
        for _ in 0..500 {
            let len = (splitmix64(&mut state) % 7) as usize;
            let pairs: Vec<(&str, &str)> = (0..len)
                .map(|_| {
                    let k = KEYS[(splitmix64(&mut state) % KEYS.len() as u64) as usize];
                    let v = VALUES[(splitmix64(&mut state) % VALUES.len() as u64) as usize];
                    (k, v)
                })
                .collect();
            let labels = Labels::new(&pairs);
            // Keys strictly sorted (sorted + deduplicated).
            assert!(
                labels.pairs().windows(2).all(|w| w[0].0 < w[1].0),
                "keys not strictly sorted for input {pairs:?}: {labels:?}"
            );
            // Later duplicates win.
            for (k, v) in &pairs {
                let last = pairs.iter().rev().find(|(pk, _)| pk == k).unwrap().1;
                assert_eq!(labels.get(k), Some(last), "key {k} (inserted {v})");
            }
            // No invented keys.
            assert!(labels
                .pairs()
                .iter()
                .all(|(k, _)| KEYS.contains(&k.as_str())));
            // Input order is irrelevant: reversing the pairs changes
            // which duplicate wins, so compare via a dedup-last map.
            let mut dedup: Vec<(&str, &str)> = Vec::new();
            for (k, v) in &pairs {
                match dedup.iter_mut().find(|(dk, _)| dk == k) {
                    Some(slot) => slot.1 = v,
                    None => dedup.push((k, v)),
                }
            }
            assert_eq!(labels, Labels::new(&dedup));
        }
    }

    /// Deterministic randomized sweep over exporter-order independence:
    /// registering the same series in any permutation renders
    /// byte-identical Prometheus text. (The proptest mirror of this
    /// lives in `tests/properties.rs`; this version actually executes
    /// under the offline proptest stub.)
    #[test]
    fn prometheus_order_randomized() {
        fn splitmix64(state: &mut u64) -> u64 {
            *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = *state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }
        let series: Vec<Labels> = (0..12)
            .map(|i| Labels::call("Location", &format!("method{i:02}"), "android"))
            .collect();
        let reference = MetricsRegistry::new();
        for labels in &series {
            reference.counter("proxy_calls_total", labels).inc();
        }
        let mut state = 0x5EED;
        for _ in 0..20 {
            // A random permutation of the registration order.
            let mut order: Vec<usize> = (0..series.len()).collect();
            for i in (1..order.len()).rev() {
                order.swap(i, (splitmix64(&mut state) % (i as u64 + 1)) as usize);
            }
            let shuffled = MetricsRegistry::new();
            for &i in &order {
                shuffled.counter("proxy_calls_total", &series[i]).inc();
            }
            assert_eq!(
                reference.render_prometheus(),
                shuffled.render_prometheus(),
                "registration order {order:?} changed the exposition"
            );
        }
    }

    #[test]
    fn counter_handles_share_state() {
        let registry = MetricsRegistry::new();
        let a = registry.counter("calls_total", &Labels::empty());
        let b = registry.counter("calls_total", &Labels::empty());
        a.inc();
        b.add(2);
        assert_eq!(registry.counter_value("calls_total", &Labels::empty()), 3);
        assert_eq!(
            registry.counter_value("never_created_counter", &Labels::empty()),
            0
        );
    }

    #[test]
    fn histogram_quantiles_bracket_the_samples() {
        let h = Histogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        assert_eq!(h.count(), 1000);
        assert_eq!(h.sum(), 500_500);
        let p50 = h.quantile(0.5);
        let p95 = h.quantile(0.95);
        let p99 = h.quantile(0.99);
        // Log buckets: the estimate lands in the right power-of-two
        // bracket, and the quantiles are ordered.
        assert!((256.0..1024.0).contains(&p50), "p50={p50}");
        assert!(p50 <= p95 && p95 <= p99, "p50={p50} p95={p95} p99={p99}");
        assert!(p99 <= 1024.0, "p99={p99}");
    }

    #[test]
    fn histogram_handles_zero_and_extremes() {
        let h = Histogram::new();
        assert_eq!(h.quantile(0.5), 0.0, "empty histogram");
        h.record(0);
        assert_eq!(h.quantile(0.99), 0.0, "only the zero bucket");
        h.record(u64::MAX);
        assert!(h.quantile(1.0) >= (1u64 << 63) as f64);
    }

    #[test]
    fn prometheus_rendering_is_deterministic_and_typed() {
        let registry = MetricsRegistry::new();
        registry
            .counter(
                "proxy_calls_total",
                &Labels::call("location", "getLocation", "android"),
            )
            .inc();
        registry.gauge("queue_depth", &Labels::empty()).set(4);
        let h = registry.histogram(
            "proxy_call_ms",
            &Labels::call("location", "getLocation", "android"),
        );
        h.record(10);
        h.record(20);
        let text = registry.render_prometheus();
        assert!(text.contains("# TYPE proxy_calls_total counter"));
        assert!(text.contains(
            "proxy_calls_total{method=\"getLocation\",platform=\"android\",proxy=\"location\"} 1"
        ));
        assert!(text.contains("# TYPE queue_depth gauge"));
        assert!(text.contains("queue_depth 4"));
        assert!(text.contains("# TYPE proxy_call_ms summary"));
        assert!(text.contains("quantile=\"0.95\""));
        assert!(text.contains("proxy_call_ms_count{"));
        assert_eq!(text, registry.render_prometheus(), "deterministic");
    }

    #[test]
    fn histogram_buckets_render_with_openmetrics_exemplars() {
        let registry = MetricsRegistry::new();
        let labels = Labels::call("Http", "request", "android");
        let h = registry.histogram("proxy_call_ms", &labels);
        h.record(10);
        h.record(300);
        let text = registry.render_prometheus();
        assert!(
            text.contains("proxy_call_ms_bucket{method=\"request\",platform=\"android\",proxy=\"Http\",le=\"15\"} 1\n"),
            "cumulative bucket line without exemplar: {text}"
        );
        assert!(text.contains("le=\"+Inf\"} 2\n"), "{text}");
        assert!(!text.contains("trace_id"), "no exemplars attached yet");

        h.attach_exemplar(300, TraceId(0xab));
        assert_eq!(h.exemplar(9), Some((TraceId(0xab), 300)));
        assert_eq!(h.exemplars(), vec![(9, TraceId(0xab), 300)]);
        let text = registry.render_prometheus();
        assert!(
            text.contains("le=\"511\"} 2 # {trace_id=\"00000000000000ab\"} 300\n"),
            "exemplar in OpenMetrics syntax: {text}"
        );
    }

    /// The value printed on the line of `text` that starts with
    /// `series` and a space.
    fn series_value(text: &str, series: &str) -> u64 {
        let line = text
            .lines()
            .find_map(|line| line.strip_prefix(series)?.strip_prefix(' '))
            .unwrap_or_else(|| panic!("no `{series}` line in {text}"));
        line.parse().expect("a count")
    }

    #[test]
    fn count_matches_the_inf_bucket_on_every_render_while_recording() {
        use std::sync::atomic::AtomicBool;

        /// Stops the recorders when the renders end, by panic too.
        struct Stop<'a>(&'a AtomicBool);
        impl Drop for Stop<'_> {
            fn drop(&mut self) {
                self.0.store(true, Ordering::Relaxed);
            }
        }

        let registry = MetricsRegistry::new();
        let h = registry.histogram("race_ms", &Labels::empty());
        let stop = AtomicBool::new(false);
        std::thread::scope(|scope| {
            for seed in [1u64, 2] {
                let (h, stop) = (h.clone(), &stop);
                scope.spawn(move || {
                    let mut value = seed;
                    while !stop.load(Ordering::Relaxed) {
                        h.record(value % 5_000);
                        value = value
                            .wrapping_mul(6_364_136_223_846_793_005)
                            .wrapping_add(1);
                    }
                });
            }
            let _stop = Stop(&stop);
            while h.count() == 0 {
                std::thread::yield_now();
            }
            for _ in 0..500 {
                let text = registry.render_prometheus();
                let inf = series_value(&text, "race_ms_bucket{le=\"+Inf\"}");
                assert_eq!(series_value(&text, "race_ms_count"), inf, "{text}");
            }
        });
        let text = registry.render_prometheus();
        assert_eq!(series_value(&text, "race_ms_count"), h.count());
        assert_eq!(text, registry.render_prometheus(), "quiescent: stable");
    }

    #[test]
    fn sharded_export_matches_sorted_single_map_order() {
        let registry = MetricsRegistry::new();
        // Enough distinct series to land in several shards.
        for i in 0..32 {
            let name = format!("shardtest_metric_{:02}", i % 4);
            let labels = Labels::new(&[("series", &format!("{i:02}"))]);
            registry.counter(&name, &labels).add(i);
        }
        let text = registry.render_prometheus();
        let lines: Vec<&str> = text
            .lines()
            .filter(|l| l.starts_with("shardtest_metric_"))
            .collect();
        assert_eq!(lines.len(), 32);
        let mut sorted = lines.clone();
        sorted.sort();
        assert_eq!(lines, sorted, "rendered series sorted within the page");
    }
}
