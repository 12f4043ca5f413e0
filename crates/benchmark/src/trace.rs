//! Benchmark-side spans around the calls into the middleware.
//!
//! The span tree per caller thread is `round` → `op` → {`op.resolve`,
//! `op.call`}, plus `round` → `round.advance` (pumping the device
//! clocks to the round barrier). Aggregate self times cover every op;
//! full records are kept only for sampled devices, in a buffer reserved
//! before the pass so recording allocates nothing, and are written out
//! as Chrome trace-event JSON when the pass ends.

use std::fmt::Write as _;
use std::io::{self, Write as _};
use std::path::Path;
use std::time::Instant;

use serde_json::Value;

/// Full span records are kept for devices whose index is a multiple of
/// this.
pub const SAMPLE_EVERY: usize = 64;

/// Hooks the run loop calls at every span boundary. The untraced run
/// uses [`Untraced`], whose empty bodies compile away.
pub trait Tracer {
    /// A round starts on this caller.
    fn round_start(&mut self) {}
    /// An op starts (`at` is the op's latency start).
    fn op_start(&mut self, _at: Instant) {}
    /// The op's proxy has been resolved; the call begins.
    fn resolved(&mut self) {}
    /// The op ended at `at`.
    fn op_end(&mut self, _device: usize, _round: u64, _at: Instant) {}
    /// The caller starts advancing its devices' clocks.
    fn advance_start(&mut self) {}
    /// The round's advance finished.
    fn round_end(&mut self, _round: u64) {}
}

/// The no-op tracer of the measured (untraced) run.
pub struct Untraced;

impl Tracer for Untraced {}

/// One finished span.
#[derive(Debug, Clone, Copy)]
pub struct SpanRecord {
    /// `round`, `round.advance`, `op`, `op.resolve` or `op.call`.
    pub name: &'static str,
    /// Unique within the trace file.
    pub id: u64,
    /// The enclosing span's id; 0 for a root.
    pub parent: u64,
    /// Caller thread.
    pub caller: u32,
    /// Device index, for op spans.
    pub device: Option<u32>,
    /// Round number.
    pub round: u32,
    /// Start, ns since the pass origin.
    pub start_ns: u64,
    /// End, ns since the pass origin.
    pub end_ns: u64,
}

/// Self-time totals over every op of a traced pass.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpanTotals {
    /// Ops traced.
    pub ops: u64,
    /// Σ `op.resolve` durations.
    pub resolve_ns: u64,
    /// Σ `op.call` durations.
    pub call_ns: u64,
    /// Σ `round.advance` durations.
    pub advance_ns: u64,
}

impl SpanTotals {
    /// Adds `other` into `self`.
    pub fn merge(&mut self, other: &Self) {
        self.ops += other.ops;
        self.resolve_ns += other.resolve_ns;
        self.call_ns += other.call_ns;
        self.advance_ns += other.advance_ns;
    }
}

/// The tracer of one caller thread in the traced pass.
pub struct SpanSink {
    origin: Instant,
    caller: u32,
    id_base: u64,
    next_id: u64,
    records: Vec<SpanRecord>,
    totals: SpanTotals,
    round_id: u64,
    round_start: Instant,
    op_start: Instant,
    resolved_at: Instant,
    advance_start: Instant,
}

impl SpanSink {
    /// A sink for `caller`, timing against the shared `origin`, with
    /// room for `capacity` records reserved up front.
    pub fn new(origin: Instant, caller: u32, capacity: usize) -> Self {
        Self {
            origin,
            caller,
            id_base: u64::from(caller) << 40,
            next_id: 1,
            records: Vec::with_capacity(capacity),
            totals: SpanTotals::default(),
            round_id: 0,
            round_start: origin,
            op_start: origin,
            resolved_at: origin,
            advance_start: origin,
        }
    }

    /// Records to reserve for a caller owning `devices` devices over
    /// `rounds` rounds of `ops_per_round` ops each.
    pub fn capacity_for(devices: std::ops::Range<usize>, ops_per_round: u64, rounds: u64) -> usize {
        let sampled = devices.filter(|d| d % SAMPLE_EVERY == 0).count() as u64;
        (sampled * ops_per_round * rounds * 3 + rounds * 2) as usize
    }

    fn id(&mut self) -> u64 {
        let id = self.id_base + self.next_id;
        self.next_id += 1;
        id
    }

    fn ns(&self, at: Instant) -> u64 {
        at.duration_since(self.origin).as_nanos() as u64
    }

    fn push(&mut self, record: SpanRecord) {
        debug_assert!(self.records.len() < self.records.capacity(), "reserved");
        self.records.push(record);
    }

    /// The self-time totals.
    pub fn totals(&self) -> SpanTotals {
        self.totals
    }

    /// The kept records.
    pub fn records(&self) -> &[SpanRecord] {
        &self.records
    }
}

impl Tracer for SpanSink {
    fn round_start(&mut self) {
        self.round_id = self.id();
        self.round_start = Instant::now();
    }

    fn op_start(&mut self, at: Instant) {
        self.op_start = at;
    }

    fn resolved(&mut self) {
        self.resolved_at = Instant::now();
    }

    fn op_end(&mut self, device: usize, round: u64, at: Instant) {
        let resolve = self.resolved_at.duration_since(self.op_start).as_nanos() as u64;
        let call = at.duration_since(self.resolved_at).as_nanos() as u64;
        self.totals.ops += 1;
        self.totals.resolve_ns += resolve;
        self.totals.call_ns += call;
        if !device.is_multiple_of(SAMPLE_EVERY) {
            return;
        }
        let (start, mid, end) = (
            self.ns(self.op_start),
            self.ns(self.resolved_at),
            self.ns(at),
        );
        let op_id = self.id();
        let base = SpanRecord {
            name: "op",
            id: op_id,
            parent: self.round_id,
            caller: self.caller,
            device: Some(device as u32),
            round: round as u32,
            start_ns: start,
            end_ns: end,
        };
        self.push(base);
        let resolve_id = self.id();
        self.push(SpanRecord {
            name: "op.resolve",
            id: resolve_id,
            parent: op_id,
            end_ns: mid,
            ..base
        });
        let call_id = self.id();
        self.push(SpanRecord {
            name: "op.call",
            id: call_id,
            parent: op_id,
            start_ns: mid,
            ..base
        });
    }

    fn advance_start(&mut self) {
        self.advance_start = Instant::now();
    }

    fn round_end(&mut self, round: u64) {
        let end = Instant::now();
        self.totals.advance_ns += end.duration_since(self.advance_start).as_nanos() as u64;
        let round_record = SpanRecord {
            name: "round",
            id: self.round_id,
            parent: 0,
            caller: self.caller,
            device: None,
            round: round as u32,
            start_ns: self.ns(self.round_start),
            end_ns: self.ns(end),
        };
        self.push(round_record);
        let advance_id = self.id();
        self.push(SpanRecord {
            name: "round.advance",
            id: advance_id,
            parent: self.round_id,
            start_ns: self.ns(self.advance_start),
            ..round_record
        });
    }
}

fn micros(ns: u64) -> String {
    format!("{}.{:03}", ns / 1_000, ns % 1_000)
}

/// Writes the sinks' records as Chrome trace-event JSON (complete `X`
/// events, µs timestamps with ns digits; open in `chrome://tracing` or
/// Perfetto).
pub fn write_chrome_trace(path: &Path, sinks: &[SpanSink]) -> io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = io::BufWriter::new(std::fs::File::create(path)?);
    out.write_all(b"{\"displayTimeUnit\":\"ns\",\"traceEvents\":[")?;
    let mut line = String::new();
    let mut first = true;
    for record in sinks.iter().flat_map(|s| s.records()) {
        line.clear();
        if !first {
            line.push(',');
        }
        first = false;
        let _ = write!(
            line,
            "\n{{\"name\":\"{}\",\"cat\":\"benchmark\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\
             \"ts\":{},\"dur\":{},\"args\":{{\"id\":{},\"parent\":{},\"round\":{}",
            record.name,
            record.caller,
            micros(record.start_ns),
            micros(record.end_ns - record.start_ns),
            record.id,
            record.parent,
            record.round,
        );
        if let Some(device) = record.device {
            let _ = write!(line, ",\"device\":{device}");
        }
        line.push_str("}}");
        out.write_all(line.as_bytes())?;
    }
    out.write_all(b"\n]}\n")?;
    out.flush()
}

fn field_u64(event: &Value, args: Option<&Value>, key: &str) -> Option<u64> {
    let value = args
        .and_then(|a| a.get_field(key))
        .or_else(|| event.get_field(key))?;
    match value {
        Value::Number(n) if *n >= 0.0 => Some(*n as u64),
        _ => None,
    }
}

fn field_ns(event: &Value, key: &str) -> Option<u64> {
    match event.get_field(key)? {
        Value::Number(us) if *us >= 0.0 => Some((us * 1_000.0).round() as u64),
        _ => None,
    }
}

/// Parses a trace written by [`write_chrome_trace`] and checks it as
/// [`validate_spans`] does. Returns the span count.
///
/// # Errors
///
/// A description of the first malformed event or broken nesting.
pub fn validate_chrome_trace(text: &str) -> Result<usize, String> {
    let doc: Value = serde_json::from_str(text).map_err(|e| e.to_string())?;
    let Some(Value::Array(events)) = doc.get_field("traceEvents") else {
        return Err("no traceEvents array".into());
    };
    let mut records = Vec::with_capacity(events.len());
    for event in events {
        let args = event.get_field("args");
        let (Some(id), Some(parent), Some(start_ns), Some(dur)) = (
            field_u64(event, args, "id"),
            field_u64(event, args, "parent"),
            field_ns(event, "ts"),
            field_ns(event, "dur"),
        ) else {
            return Err(format!("malformed event {event}"));
        };
        records.push(SpanRecord {
            name: "",
            id,
            parent,
            caller: 0,
            device: None,
            round: 0,
            start_ns,
            end_ns: start_ns + dur,
        });
    }
    validate_spans(&records)
}

/// Checks that span ids are unique, every span nests inside its parent
/// and every span's self time (duration minus its children's) is
/// non-negative. Returns the span count.
///
/// # Errors
///
/// A description of the first duplicate id or broken nesting.
pub fn validate_spans<'a>(
    records: impl IntoIterator<Item = &'a SpanRecord>,
) -> Result<usize, String> {
    // id → (start, end, parent, Σ child durations)
    let mut spans = std::collections::HashMap::new();
    for r in records {
        if spans
            .insert(r.id, (r.start_ns, r.end_ns, r.parent, 0u64))
            .is_some()
        {
            return Err(format!("duplicate span id {}", r.id));
        }
    }
    let children: Vec<(u64, u64, u64, u64)> = spans
        .values()
        .filter(|s| s.2 != 0)
        .map(|&(start, end, parent, _)| (start, end, parent, end - start))
        .collect();
    for (start, end, parent, dur) in children {
        let Some(p) = spans.get_mut(&parent) else {
            return Err(format!("span parent {parent} missing"));
        };
        if start < p.0 || end > p.1 {
            return Err(format!(
                "child [{start}, {end}] escapes parent {parent} [{}, {}]",
                p.0, p.1
            ));
        }
        p.3 += dur;
    }
    for (id, (start, end, _, child_ns)) in &spans {
        if child_ns > &(end - start) {
            return Err(format!("span {id} has negative self time"));
        }
    }
    Ok(spans.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sink_records_a_nested_tree_and_the_trace_validates() {
        let origin = Instant::now();
        let mut sink = SpanSink::new(origin, 1, SpanSink::capacity_for(0..130, 2, 3));
        for round in 1..=3 {
            sink.round_start();
            for device in [0, 5, 64, 128] {
                for _ in 0..2 {
                    sink.op_start(Instant::now());
                    sink.resolved();
                    sink.op_end(device, round, Instant::now());
                }
            }
            sink.advance_start();
            sink.round_end(round);
        }
        assert_eq!(sink.totals().ops, 24);
        // 3 sampled devices × 2 ops × 3 spans × 3 rounds + 2 per round.
        assert_eq!(sink.records().len(), 3 * 2 * 3 * 3 + 3 * 2);
        let path = std::env::temp_dir().join(format!(
            "mobivine-benchmark-trace-{}.json",
            std::process::id()
        ));
        assert_eq!(validate_spans(sink.records()), Ok(sink.records().len()));
        write_chrome_trace(&path, std::slice::from_ref(&sink)).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        assert_eq!(validate_chrome_trace(&text).unwrap(), sink.records().len());
    }

    #[test]
    fn negative_self_time_is_rejected() {
        let span = |id, parent, start_ns, end_ns| SpanRecord {
            name: "op",
            id,
            parent,
            caller: 0,
            device: None,
            round: 1,
            start_ns,
            end_ns,
        };
        // Two children that overlap fill more than their parent.
        let spans = [span(1, 0, 0, 10), span(2, 1, 0, 6), span(3, 1, 4, 10)];
        assert!(validate_spans(&spans)
            .unwrap_err()
            .contains("negative self time"));
        let duplicate = [span(1, 0, 0, 10), span(1, 0, 0, 10)];
        assert!(validate_spans(&duplicate)
            .unwrap_err()
            .contains("duplicate"));
    }

    #[test]
    fn escaping_child_is_rejected() {
        let text = r#"{"traceEvents":[
            {"name":"round","ph":"X","ts":1.000,"dur":1.000,"args":{"id":1,"parent":0}},
            {"name":"op","ph":"X","ts":1.500,"dur":1.000,"args":{"id":2,"parent":1}}]}"#;
        assert!(validate_chrome_trace(text).unwrap_err().contains("escapes"));
    }
}
