//! Exporters: Chrome trace-event JSON for span trees, plus a validator
//! that round-trips the exported document.
//!
//! The Chrome trace-event format (the "JSON Array with metadata"
//! object form) is what `chrome://tracing` and Perfetto load directly:
//! complete (`"ph":"X"`) events carry `ts`/`dur` in **microseconds**,
//! instant (`"ph":"i"`) events mark span events. Virtual milliseconds
//! are scaled by 1000, so one simulated millisecond reads as one
//! millisecond on the timeline.
//!
//! Prometheus text exposition lives on
//! [`crate::metrics::MetricsRegistry::render_prometheus`]; this module
//! owns the span-tree side plus [`validate_prometheus`], the validator
//! that round-trips the exposition page (including OpenMetrics
//! exemplars on histogram buckets).

use serde_json::Value;

use crate::span::SpanRecord;

fn hex_id(value: u64, width: usize) -> String {
    format!("{value:0width$x}")
}

fn span_args(span: &SpanRecord) -> Value {
    let mut fields = vec![
        (
            "trace_id".to_owned(),
            Value::String(hex_id(span.trace_id.0, 32)),
        ),
        (
            "span_id".to_owned(),
            Value::String(hex_id(span.span_id.0, 16)),
        ),
        ("plane".to_owned(), Value::String(span.plane.to_string())),
    ];
    if let Some(parent) = span.parent_id {
        fields.push(("parent_id".to_owned(), Value::String(hex_id(parent.0, 16))));
    }
    for (key, value) in span.attrs.iter() {
        fields.push((format!("attr.{key}"), Value::String(value.to_owned())));
    }
    Value::Object(fields)
}

/// Renders finished spans as a Chrome trace-event JSON document.
///
/// Every span becomes one complete (`"X"`) event whose `args` carry the
/// span/parent ids (hex) and attributes; every [`span
/// event`](crate::span::SpanEvent) becomes a thread-scoped instant
/// (`"i"`) event.
pub fn chrome_trace_json(spans: &[SpanRecord]) -> String {
    let mut events = Vec::new();
    for span in spans {
        events.push(Value::Object(vec![
            ("name".to_owned(), Value::String(span.name.to_string())),
            ("cat".to_owned(), Value::String(span.plane.to_string())),
            ("ph".to_owned(), Value::String("X".to_owned())),
            (
                "ts".to_owned(),
                Value::Number(span.start_ms as f64 * 1000.0),
            ),
            (
                "dur".to_owned(),
                Value::Number((span.end_ms - span.start_ms) as f64 * 1000.0),
            ),
            ("pid".to_owned(), Value::Number(1.0)),
            ("tid".to_owned(), Value::Number(span.trace_id.0 as f64)),
            ("args".to_owned(), span_args(span)),
        ]));
        for event in span.events.iter() {
            events.push(Value::Object(vec![
                ("name".to_owned(), Value::String(event.name.to_owned())),
                ("cat".to_owned(), Value::String(span.plane.to_string())),
                ("ph".to_owned(), Value::String("i".to_owned())),
                ("ts".to_owned(), Value::Number(event.at_ms as f64 * 1000.0)),
                ("pid".to_owned(), Value::Number(1.0)),
                ("tid".to_owned(), Value::Number(span.trace_id.0 as f64)),
                ("s".to_owned(), Value::String("t".to_owned())),
                (
                    "args".to_owned(),
                    Value::Object(vec![(
                        "span_id".to_owned(),
                        Value::String(hex_id(span.span_id.0, 16)),
                    )]),
                ),
            ]));
        }
    }
    Value::Object(vec![
        ("traceEvents".to_owned(), Value::Array(events)),
        ("displayTimeUnit".to_owned(), Value::String("ms".to_owned())),
    ])
    .to_string()
}

/// What [`validate_chrome_trace`] found in a valid document.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChromeTraceSummary {
    /// Total events (complete + instant).
    pub events: usize,
    /// Complete (`"X"`) span events.
    pub spans: usize,
    /// Distinct trace ids.
    pub traces: usize,
}

fn field_str<'a>(event: &'a Value, key: &str) -> Result<&'a str, String> {
    match event.get_field(key) {
        Some(Value::String(s)) => Ok(s),
        other => Err(format!("field {key} is {other:?}, expected a string")),
    }
}

fn field_num(event: &Value, key: &str) -> Result<f64, String> {
    match event.get_field(key) {
        Some(Value::Number(n)) => Ok(*n),
        other => Err(format!("field {key} is {other:?}, expected a number")),
    }
}

/// Parses a Chrome trace-event JSON document back and checks its
/// structure: a `traceEvents` array of well-formed `X`/`i` events with
/// non-negative microsecond timestamps, and — per trace — every
/// `parent_id` resolving to a span in the same trace that started no
/// later than its child.
///
/// # Errors
///
/// A description of the first violation (including JSON parse errors).
pub fn validate_chrome_trace(json: &str) -> Result<ChromeTraceSummary, String> {
    let doc: Value = serde_json::from_str(json).map_err(|e| e.to_string())?;
    let events = match doc.get_field("traceEvents") {
        Some(Value::Array(events)) => events,
        other => return Err(format!("traceEvents is {other:?}, expected an array")),
    };
    // (trace hex, span hex) -> start ts.
    let mut span_starts = std::collections::HashMap::new();
    let mut parents = Vec::new();
    let mut traces = std::collections::BTreeSet::new();
    let mut spans = 0usize;
    for event in events {
        let name = field_str(event, "name")?;
        let ph = field_str(event, "ph")?;
        let ts = field_num(event, "ts")?;
        if ts < 0.0 {
            return Err(format!("event {name} has negative ts {ts}"));
        }
        match ph {
            "X" => {
                spans += 1;
                let dur = field_num(event, "dur")?;
                if dur < 0.0 {
                    return Err(format!("span {name} has negative dur {dur}"));
                }
                let args = event
                    .get_field("args")
                    .ok_or_else(|| format!("span {name} has no args"))?;
                let trace = field_str(args, "trace_id")?.to_owned();
                let span = field_str(args, "span_id")?.to_owned();
                traces.insert(trace.clone());
                if let Some(Value::String(parent)) = args.get_field("parent_id") {
                    parents.push((name.to_owned(), trace.clone(), parent.clone(), ts));
                }
                if span_starts.insert((trace, span), ts).is_some() {
                    return Err(format!("span {name} has a duplicate span_id"));
                }
            }
            "i" => {}
            other => return Err(format!("event {name} has unknown phase {other:?}")),
        }
    }
    for (name, trace, parent, ts) in parents {
        match span_starts.get(&(trace, parent.clone())) {
            None => return Err(format!("span {name} has unresolved parent {parent}")),
            Some(parent_ts) if ts < *parent_ts => {
                return Err(format!(
                    "span {name} starts at {ts} before its parent at {parent_ts}"
                ))
            }
            Some(_) => {}
        }
    }
    Ok(ChromeTraceSummary {
        events: events.len(),
        spans,
        traces: traces.len(),
    })
}

/// What [`validate_prometheus`] found in a valid exposition page.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PrometheusSummary {
    /// Sample lines (all kinds).
    pub series: usize,
    /// `# TYPE` headers.
    pub types: usize,
    /// Cumulative `_bucket` sample lines.
    pub histogram_buckets: usize,
    /// OpenMetrics exemplars attached to bucket lines.
    pub exemplars: usize,
    /// The exemplar trace ids, 16 hex digits each, in page order.
    pub exemplar_trace_ids: Vec<String>,
}

fn parse_prom_labels(raw: &str) -> Result<Vec<(String, String)>, String> {
    let mut labels = Vec::new();
    if raw.is_empty() {
        return Ok(labels);
    }
    for pair in raw.split(',') {
        let (key, value) = pair
            .split_once('=')
            .ok_or_else(|| format!("label pair {pair:?} has no '='"))?;
        let value = value
            .strip_prefix('"')
            .and_then(|v| v.strip_suffix('"'))
            .ok_or_else(|| format!("label value in {pair:?} is not quoted"))?;
        labels.push((key.to_owned(), value.to_owned()));
    }
    Ok(labels)
}

/// One parsed sample line: name, rendered label set (minus `le`), the
/// `le` value for buckets, the sample value, and the exemplar if any.
struct PromSample {
    name: String,
    series_key: String,
    le: Option<String>,
    value: f64,
    exemplar: Option<(String, f64)>,
}

fn parse_prom_sample(line: &str) -> Result<PromSample, String> {
    // OpenMetrics exemplar syntax: `<sample> # {trace_id="…"} <value>`.
    let (main, exemplar) = match line.split_once(" # ") {
        Some((main, exemplar)) => (main, Some(exemplar)),
        None => (line, None),
    };
    let (series, value) = main
        .rsplit_once(' ')
        .ok_or_else(|| format!("sample {line:?} has no value"))?;
    let value: f64 = value
        .parse()
        .map_err(|_| format!("sample {line:?} value {value:?} is not a number"))?;
    let (name, labels) = match series.split_once('{') {
        Some((name, rest)) => {
            let raw = rest
                .strip_suffix('}')
                .ok_or_else(|| format!("sample {line:?} has an unterminated label set"))?;
            (name, parse_prom_labels(raw)?)
        }
        None => (series, Vec::new()),
    };
    if name.is_empty() {
        return Err(format!("sample {line:?} has an empty metric name"));
    }
    let mut le = None;
    let mut key = String::new();
    for (k, v) in &labels {
        if k == "le" {
            le = Some(v.clone());
        } else {
            key.push_str(k);
            key.push('=');
            key.push_str(v);
            key.push(',');
        }
    }
    let exemplar = match exemplar {
        None => None,
        Some(raw) => {
            let rest = raw
                .strip_prefix("{trace_id=\"")
                .ok_or_else(|| format!("exemplar {raw:?} does not open with trace_id"))?;
            let (trace, value) = rest
                .split_once("\"} ")
                .ok_or_else(|| format!("exemplar {raw:?} has no value"))?;
            if trace.len() != 16 || !trace.bytes().all(|b| b.is_ascii_hexdigit()) {
                return Err(format!("exemplar trace id {trace:?} is not 16 hex digits"));
            }
            if trace.bytes().all(|b| b == b'0') {
                return Err(format!("exemplar trace id {trace:?} is zero"));
            }
            let value: f64 = value
                .parse()
                .map_err(|_| format!("exemplar {raw:?} value is not a number"))?;
            Some((trace.to_owned(), value))
        }
    };
    Ok(PromSample {
        name: name.to_owned(),
        series_key: key,
        le,
        value,
        exemplar,
    })
}

/// Parses a Prometheus text exposition page (as rendered by
/// [`crate::metrics::MetricsRegistry::render_prometheus`]) and checks
/// its structure: every sample belongs to a `# TYPE`-declared family,
/// values parse, cumulative `_bucket` series are non-decreasing and
/// end in a `+Inf` bucket that matches the family's `_count`, and
/// exemplars — legal only on bucket lines — carry well-formed 16-hex
/// trace ids in OpenMetrics syntax.
///
/// # Errors
///
/// A description of the first violation.
pub fn validate_prometheus(text: &str) -> Result<PrometheusSummary, String> {
    let mut types: std::collections::HashMap<String, String> = std::collections::HashMap::new();
    let mut last_bucket: std::collections::HashMap<(String, String), f64> =
        std::collections::HashMap::new();
    let mut inf_total: std::collections::HashMap<(String, String), f64> =
        std::collections::HashMap::new();
    let mut summary = PrometheusSummary {
        series: 0,
        types: 0,
        histogram_buckets: 0,
        exemplars: 0,
        exemplar_trace_ids: Vec::new(),
    };
    for line in text.lines() {
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let (name, kind) = rest
                .split_once(' ')
                .ok_or_else(|| format!("malformed TYPE header {line:?}"))?;
            match kind {
                "counter" | "gauge" | "summary" | "histogram" => {}
                other => return Err(format!("unknown metric type {other:?} in {line:?}")),
            }
            if types.insert(name.to_owned(), kind.to_owned()).is_some() {
                return Err(format!("duplicate TYPE header for {name}"));
            }
            summary.types += 1;
            continue;
        }
        if line.starts_with('#') {
            return Err(format!("unexpected comment line {line:?}"));
        }
        let sample = parse_prom_sample(line)?;
        summary.series += 1;
        let base = ["_bucket", "_sum", "_count"]
            .iter()
            .find_map(|suffix| sample.name.strip_suffix(suffix))
            .unwrap_or(&sample.name);
        if !types.contains_key(base) && !types.contains_key(&sample.name) {
            return Err(format!("sample {line:?} has no TYPE header"));
        }
        if sample.name.ends_with("_bucket") {
            summary.histogram_buckets += 1;
            let le = sample
                .le
                .ok_or_else(|| format!("bucket sample {line:?} has no le label"))?;
            let key = (base.to_owned(), sample.series_key.clone());
            if let Some(previous) = last_bucket.get(&key) {
                if sample.value < *previous {
                    return Err(format!(
                        "bucket series for {base} decreases: {} after {previous}",
                        sample.value
                    ));
                }
            }
            last_bucket.insert(key.clone(), sample.value);
            if le == "+Inf" {
                inf_total.insert(key, sample.value);
            }
            if let Some((trace, _)) = sample.exemplar {
                summary.exemplars += 1;
                summary.exemplar_trace_ids.push(trace);
            }
        } else {
            if sample.exemplar.is_some() {
                return Err(format!("exemplar on non-bucket sample {line:?}"));
            }
            if sample.name.ends_with("_count") {
                let key = (base.to_owned(), sample.series_key.clone());
                if let Some(total) = inf_total.get(&key) {
                    if *total != sample.value {
                        return Err(format!(
                            "{base} +Inf bucket {total} does not match _count {}",
                            sample.value
                        ));
                    }
                }
            }
        }
    }
    Ok(summary)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::{ambient, Plane, TraceId, Tracer};

    fn sample_spans() -> Vec<SpanRecord> {
        let tracer = Tracer::new();
        let mut root = tracer.root("app:patrol", Plane::App, 0);
        root.attr("agent", "a-1");
        {
            let mut child = ambient::child("proxy:Location.getLocation", Plane::Proxy, 5).unwrap();
            child.event("retry", 7);
            child.end(20);
        }
        root.end(30);
        tracer.take_finished()
    }

    #[test]
    fn export_round_trips_through_validation() {
        let spans = sample_spans();
        let json = chrome_trace_json(&spans);
        let summary = validate_chrome_trace(&json).expect("valid document");
        assert_eq!(summary.spans, 2);
        assert_eq!(summary.events, 3, "two spans plus one instant event");
        assert_eq!(summary.traces, 1);
    }

    #[test]
    fn validation_rejects_broken_parent_links() {
        let mut spans = sample_spans();
        // Drop the root: the child's parent can no longer resolve.
        spans.retain(|s| s.parent_id.is_some());
        let json = chrome_trace_json(&spans);
        let err = validate_chrome_trace(&json).unwrap_err();
        assert!(err.contains("unresolved parent"), "{err}");
    }

    #[test]
    fn validation_rejects_non_json() {
        assert!(validate_chrome_trace("not json").is_err());
        assert!(validate_chrome_trace("{}").is_err());
    }

    #[test]
    fn prometheus_page_round_trips_with_and_without_exemplars() {
        use crate::metrics::{Labels, MetricsRegistry};

        let registry = MetricsRegistry::new();
        registry
            .counter("calls_total", &Labels::call("Http", "request", "android"))
            .add(3);
        let h = registry.histogram("call_ms", &Labels::call("Http", "request", "android"));
        h.record(10);
        h.record(300);
        let plain = validate_prometheus(&registry.render_prometheus()).expect("valid page");
        assert_eq!(plain.exemplars, 0, "no exemplars attached yet");
        assert!(plain.histogram_buckets >= 3, "two buckets plus +Inf");
        assert!(plain.types >= 2);

        h.attach_exemplar(300, TraceId(0xbeef));
        let page = registry.render_prometheus();
        let with = validate_prometheus(&page).expect("valid page with exemplar");
        assert_eq!(with.exemplars, 1);
        assert_eq!(with.exemplar_trace_ids, vec!["000000000000beef".to_owned()]);
        assert_eq!(with.histogram_buckets, plain.histogram_buckets);
    }

    #[test]
    fn prometheus_validation_rejects_structural_breaks() {
        // No TYPE header.
        assert!(validate_prometheus("orphan_metric 1\n").is_err());
        // Decreasing cumulative buckets.
        let page = "# TYPE h summary\nh_bucket{le=\"1\"} 5\nh_bucket{le=\"+Inf\"} 3\n";
        let err = validate_prometheus(page).unwrap_err();
        assert!(err.contains("decreases"), "{err}");
        // +Inf bucket disagreeing with _count.
        let page = "# TYPE h summary\nh_bucket{le=\"+Inf\"} 3\nh_count 4\n";
        let err = validate_prometheus(page).unwrap_err();
        assert!(err.contains("does not match _count"), "{err}");
        // Malformed exemplar trace id.
        let page = "# TYPE h summary\nh_bucket{le=\"+Inf\"} 3 # {trace_id=\"xyz\"} 1\n";
        assert!(validate_prometheus(page).is_err());
        // Exemplar on a non-bucket sample.
        let page = "# TYPE c_total counter\nc_total 3 # {trace_id=\"00000000000000ab\"} 1\n";
        let err = validate_prometheus(page).unwrap_err();
        assert!(err.contains("non-bucket"), "{err}");
    }
}
