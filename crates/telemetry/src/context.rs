//! Trace context propagation across serialization boundaries.
//!
//! Inside one address space the ambient span stack (see
//! [`crate::span::ambient`]) links layers implicitly. The WebView
//! JavaScript bridge, however, only carries marshalled values — the
//! paper's footnote 8 constraint — so the trace context crosses it as a
//! string in the W3C `traceparent` shape:
//!
//! ```text
//! 00-<32 hex trace id>-<16 hex span id>-01
//! ```

use std::fmt;

use crate::span::{SpanId, TraceId};

/// The propagatable identity of a span: which trace it belongs to and
/// which span is the parent of whatever gets created on the far side.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TraceContext {
    /// The trace this context belongs to.
    pub trace_id: TraceId,
    /// The span that children created from this context hang off.
    pub span_id: SpanId,
}

impl TraceContext {
    /// Renders the context as a W3C-style `traceparent` header value.
    ///
    /// Hot paths that must not allocate render into a
    /// [`TraceparentBuf`] instead; this owned form is the convenience
    /// wrapper over it.
    pub fn traceparent(&self) -> String {
        TraceparentBuf::render(self).as_str().to_owned()
    }

    /// Parses a `traceparent` header value back into a context.
    /// Returns `None` for malformed input (wrong field count, wrong
    /// widths, non-hex digits, or an all-zero id).
    pub fn parse_traceparent(value: &str) -> Option<Self> {
        let mut parts = value.split('-');
        let version = parts.next()?;
        let trace = parts.next()?;
        let span = parts.next()?;
        let flags = parts.next()?;
        let hex = |field: &str| field.bytes().all(|b| b.is_ascii_hexdigit());
        if parts.next().is_some()
            || version.len() != 2
            || trace.len() != 32
            || span.len() != 16
            || flags.len() != 2
            // `from_str_radix` alone would also take a leading `+`.
            || ![version, trace, span, flags].into_iter().all(hex)
        {
            return None;
        }
        let trace_id = u64::from_str_radix(trace.get(16..)?, 16).ok()?;
        // The repro's trace ids are 64-bit; the upper half must be zero.
        if u64::from_str_radix(trace.get(..16)?, 16).ok()? != 0 {
            return None;
        }
        let span_id = u64::from_str_radix(span, 16).ok()?;
        if trace_id == 0 || span_id == 0 {
            return None;
        }
        Some(Self {
            trace_id: TraceId(trace_id),
            span_id: SpanId(span_id),
        })
    }
}

impl fmt::Display for TraceContext {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(TraceparentBuf::render(self).as_str())
    }
}

/// A `traceparent` header value rendered into a fixed 55-byte stack
/// buffer — `00-` + 32 hex + `-` + 16 hex + `-01` — so the WebView
/// bridge can marshal trace context without touching the heap.
#[derive(Clone, Copy)]
pub struct TraceparentBuf([u8; 55]);

impl TraceparentBuf {
    /// Renders a context. The repro's trace ids are 64-bit, so the
    /// upper 16 hex digits of the trace-id field are always zero —
    /// matching what [`TraceContext::parse_traceparent`] accepts.
    pub fn render(ctx: &TraceContext) -> Self {
        let mut buf = [b'0'; 55];
        buf[2] = b'-';
        write_hex(&mut buf[19..35], ctx.trace_id.0);
        buf[35] = b'-';
        write_hex(&mut buf[36..52], ctx.span_id.0);
        buf[52] = b'-';
        buf[54] = b'1';
        Self(buf)
    }

    /// The rendered header as a borrowed string slice.
    pub fn as_str(&self) -> &str {
        // Invariant: the buffer is filled exclusively with ASCII hex
        // digits and dashes.
        core::str::from_utf8(&self.0).expect("traceparent buffer is ASCII")
    }
}

impl fmt::Debug for TraceparentBuf {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Writes `value` as exactly 16 lowercase hex digits into `out`.
fn write_hex(out: &mut [u8], value: u64) {
    const DIGITS: &[u8; 16] = b"0123456789abcdef";
    for (i, slot) in out.iter_mut().enumerate() {
        let shift = 60 - 4 * i;
        *slot = DIGITS[((value >> shift) & 0xF) as usize];
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn traceparent_round_trips() {
        let ctx = TraceContext {
            trace_id: TraceId(0xDEAD_BEEF),
            span_id: SpanId(42),
        };
        let wire = ctx.traceparent();
        assert_eq!(
            wire,
            "00-000000000000000000000000deadbeef-000000000000002a-01"
        );
        assert_eq!(TraceContext::parse_traceparent(&wire), Some(ctx));
    }

    #[test]
    fn stack_buffer_matches_the_owned_rendering() {
        for (trace, span) in [(1, 1), (0xDEAD_BEEF, 42), (u64::MAX, u64::MAX >> 3)] {
            let ctx = TraceContext {
                trace_id: TraceId(trace),
                span_id: SpanId(span),
            };
            let buf = TraceparentBuf::render(&ctx);
            assert_eq!(buf.as_str(), ctx.traceparent());
            assert_eq!(buf.as_str().len(), 55);
            assert_eq!(TraceContext::parse_traceparent(buf.as_str()), Some(ctx));
        }
    }

    #[test]
    fn malformed_traceparents_are_rejected() {
        for bad in [
            "",
            "00-abc-def-01",
            "00-000000000000000000000000deadbeef-000000000000002a",
            "00-zzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzz-000000000000002a-01",
            "00-00000000000000000000000000000000-0000000000000000-01",
            "00-100000000000000000000000deadbeef-000000000000002a-01",
            "00-000000000000000000000000deadbeef-000000000000002a-01-extra",
        ] {
            assert_eq!(TraceContext::parse_traceparent(bad), None, "{bad:?}");
        }
    }

    #[test]
    fn every_field_must_be_hex_digits_only() {
        let good = "00-000000000000000000000000deadbeef-000000000000002a-01";
        assert!(TraceContext::parse_traceparent(good).is_some());
        for bad in [
            // A sign `u64::from_str_radix` would accept, in each half of
            // the trace id and in the span id.
            "00-+00000000000000000000000deadbeef-000000000000002a-01",
            "00-000000000000000+00000000deadbeef-000000000000002a-01",
            "00-000000000000000000000000deadbeef-+00000000000002a-01",
            // Version and flags are never parsed, only width-checked.
            "zz-000000000000000000000000deadbeef-000000000000002a-01",
            "00-000000000000000000000000deadbeef-000000000000002a-+1",
        ] {
            assert_eq!(TraceContext::parse_traceparent(bad), None, "{bad:?}");
        }
    }
}
