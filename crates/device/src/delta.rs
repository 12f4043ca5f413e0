//! Delta-coded append-only logs.
//!
//! A [`DeltaLog`] keeps records the way time-series stores keep
//! samples: each record is stored as its difference from the record
//! before it. An integer field is a zigzag varint of its wrapping
//! difference from the previous record's; an `f64` field is a varint of
//! its bits XOR-ed with the previous record's bits. Both round-trip
//! every value exactly (`u64::MAX`, values that decrease, infinities,
//! NaN payloads and −0.0 included), and both are short when consecutive
//! records are close.
//!
//! A log is read only in order, from its first record, and shrinks only
//! by [`DeltaLog::rewind`] to a [`Mark`] taken earlier.
//!
//! # Example
//!
//! ```
//! use mobivine_device::delta::{DeltaLog, DeltaReader, DeltaRecord, DeltaWriter};
//!
//! #[derive(Debug, Clone, Copy, Default, PartialEq)]
//! struct Fix {
//!     at_ms: u64,
//!     latitude: f64,
//! }
//!
//! impl DeltaRecord for Fix {
//!     fn encode(&self, prev: &Self, out: &mut DeltaWriter<'_>) {
//!         out.int(prev.at_ms, self.at_ms);
//!         out.float(prev.latitude, self.latitude);
//!     }
//!
//!     fn decode(prev: &Self, input: &mut DeltaReader<'_>) -> Self {
//!         Self {
//!             at_ms: input.int(prev.at_ms),
//!             latitude: input.float(prev.latitude),
//!         }
//!     }
//! }
//!
//! let mut log = DeltaLog::default();
//! log.push(Fix { at_ms: 1_000, latitude: 28.5 });
//! let mark = log.mark();
//! log.push(Fix { at_ms: 1_040, latitude: 28.500_001 });
//! assert_eq!(log.len(), 2);
//! log.rewind(mark);
//! assert_eq!(log.iter().collect::<Vec<_>>(), [Fix { at_ms: 1_000, latitude: 28.5 }]);
//! ```

use std::fmt;

/// A record a [`DeltaLog`] can hold: written as its difference from the
/// record before it, and read back from that record. The first record
/// of a log is coded against `Self::default()`.
pub trait DeltaRecord: Copy + Default {
    /// Writes `self` as its difference from `prev`, field by field.
    fn encode(&self, prev: &Self, out: &mut DeltaWriter<'_>);

    /// Reads the record [`DeltaRecord::encode`] wrote after `prev`,
    /// field by field in the same order.
    fn decode(prev: &Self, input: &mut DeltaReader<'_>) -> Self;
}

/// Appends one record's fields to a [`DeltaLog`]'s bytes.
#[derive(Debug)]
pub struct DeltaWriter<'a> {
    bytes: &'a mut Vec<u8>,
}

impl DeltaWriter<'_> {
    /// Writes `value` as a zigzag varint of its wrapping difference
    /// from `prev`.
    pub fn int(&mut self, prev: u64, value: u64) {
        let delta = value.wrapping_sub(prev) as i64;
        self.varint(((delta << 1) ^ (delta >> 63)) as u64);
    }

    /// Writes `value` as a varint of its bits XOR-ed with `prev`'s.
    pub fn float(&mut self, prev: f64, value: f64) {
        self.varint(prev.to_bits() ^ value.to_bits());
    }

    /// LEB128: seven bits per byte, low bits first, the high bit set on
    /// every byte but the last.
    fn varint(&mut self, mut value: u64) {
        while value >= 0x80 {
            self.bytes.push(value as u8 | 0x80);
            value >>= 7;
        }
        self.bytes.push(value as u8);
    }
}

/// Reads one record's fields from a [`DeltaLog`]'s bytes.
#[derive(Debug)]
pub struct DeltaReader<'a> {
    bytes: &'a [u8],
}

impl DeltaReader<'_> {
    /// Reads the value [`DeltaWriter::int`] wrote after `prev`.
    pub fn int(&mut self, prev: u64) -> u64 {
        let zigzag = self.varint();
        let delta = (zigzag >> 1) ^ (zigzag & 1).wrapping_neg();
        prev.wrapping_add(delta)
    }

    /// Reads the value [`DeltaWriter::float`] wrote after `prev`.
    pub fn float(&mut self, prev: f64) -> f64 {
        f64::from_bits(prev.to_bits() ^ self.varint())
    }

    fn varint(&mut self) -> u64 {
        let mut value = 0;
        let mut shift = 0;
        loop {
            // A log decodes only bytes its own writer appended.
            let (&byte, rest) = self
                .bytes
                .split_first()
                .expect("a delta log ends on a record boundary");
            self.bytes = rest;
            value |= u64::from(byte & 0x7f) << shift;
            if byte < 0x80 {
                return value;
            }
            shift += 7;
        }
    }
}

/// A point in a [`DeltaLog`] to [`DeltaLog::rewind`] to: its record
/// count, its byte length and its last record. A mark stays valid until
/// the log is rewound below it.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Mark<T> {
    len: usize,
    bytes: usize,
    last: T,
}

impl<T> Mark<T> {
    /// Records the log held when the mark was taken.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the mark is at the start of the log.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

/// An append-only log of delta-coded records (see the [module
/// docs](self)). It grows by [`DeltaLog::push`], is read in order by
/// [`DeltaLog::iter`], and shrinks only by [`DeltaLog::rewind`].
#[derive(Default, PartialEq)]
pub struct DeltaLog<T> {
    bytes: Vec<u8>,
    len: usize,
    /// The last record pushed, which the next one is coded against.
    last: T,
}

impl<T> fmt::Debug for DeltaLog<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DeltaLog")
            .field("len", &self.len)
            .field("bytes", &self.bytes.len())
            .finish()
    }
}

impl<T: DeltaRecord> DeltaLog<T> {
    /// Appends `record`.
    pub fn push(&mut self, record: T) {
        record.encode(
            &self.last,
            &mut DeltaWriter {
                bytes: &mut self.bytes,
            },
        );
        self.last = record;
        self.len += 1;
    }

    /// Records appended and not rewound.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the log holds no record.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The records, oldest first.
    pub fn iter(&self) -> Iter<'_, T> {
        Iter {
            input: DeltaReader { bytes: &self.bytes },
            remaining: self.len,
            prev: T::default(),
        }
    }

    /// The log's end, to [`DeltaLog::rewind`] to later.
    pub fn mark(&self) -> Mark<T> {
        Mark {
            len: self.len,
            bytes: self.bytes.len(),
            last: self.last,
        }
    }

    /// Drops every record past `mark`, a mark this log gave and has not
    /// been rewound below since.
    pub fn rewind(&mut self, mark: Mark<T>) {
        // A later mark would leave `len` and `last` describing bytes the
        // log does not hold.
        assert!(
            mark.len <= self.len && mark.bytes <= self.bytes.len(),
            "a mark is a past end of this log"
        );
        self.bytes.truncate(mark.bytes);
        self.len = mark.len;
        self.last = mark.last;
    }
}

/// The records of a [`DeltaLog`], decoded in order.
#[derive(Debug)]
pub struct Iter<'a, T> {
    input: DeltaReader<'a>,
    remaining: usize,
    prev: T,
}

impl<T: DeltaRecord> Iterator for Iter<'_, T> {
    type Item = T;

    fn next(&mut self) -> Option<T> {
        self.remaining = self.remaining.checked_sub(1)?;
        self.prev = T::decode(&self.prev, &mut self.input);
        Some(self.prev)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining, Some(self.remaining))
    }
}

impl<T: DeltaRecord> ExactSizeIterator for Iter<'_, T> {}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every field kind, compared bit for bit so NaN payloads count.
    #[derive(Debug, Clone, Copy, Default)]
    struct Sample {
        a: u64,
        b: u64,
        x: f64,
        y: f64,
    }

    impl PartialEq for Sample {
        fn eq(&self, other: &Self) -> bool {
            (self.a, self.b, self.x.to_bits(), self.y.to_bits())
                == (other.a, other.b, other.x.to_bits(), other.y.to_bits())
        }
    }

    impl DeltaRecord for Sample {
        fn encode(&self, prev: &Self, out: &mut DeltaWriter<'_>) {
            out.int(prev.a, self.a);
            out.float(prev.x, self.x);
            out.int(prev.b, self.b);
            out.float(prev.y, self.y);
        }

        fn decode(prev: &Self, input: &mut DeltaReader<'_>) -> Self {
            Self {
                a: input.int(prev.a),
                x: input.float(prev.x),
                b: input.int(prev.b),
                y: input.float(prev.y),
            }
        }
    }

    fn splitmix64(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    const EDGE_INTS: [u64; 7] = [0, 1, 2, u64::MAX, u64::MAX - 1, 1 << 63, (1 << 63) - 1];

    fn edge_floats() -> [f64; 12] {
        [
            0.0,
            -0.0,
            1.0,
            -1.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            f64::from_bits(0x7ff0_0000_0000_0001), // signalling NaN payload
            f64::from_bits(0xfff8_dead_beef_0001), // negative quiet NaN payload
            f64::MIN_POSITIVE,
            f64::from_bits(1), // smallest subnormal
            f64::MAX,
        ]
    }

    /// A seeded stream mixing edge values, random bits and small
    /// steps up and down from the previous record.
    fn samples(seed: u64, count: usize) -> Vec<Sample> {
        let mut rng = seed;
        let floats = edge_floats();
        let mut prev = Sample::default();
        (0..count)
            .map(|_| {
                let r = splitmix64(&mut rng);
                let int = |prev: u64, r: u64| match r % 4 {
                    0 => EDGE_INTS[(r >> 8) as usize % EDGE_INTS.len()],
                    1 => splitmix64(&mut { r }),
                    2 => prev.wrapping_add(r >> 60),
                    _ => prev.wrapping_sub(r >> 60),
                };
                let float = |prev: f64, r: u64| match r % 4 {
                    0 => floats[(r >> 8) as usize % floats.len()],
                    1 => f64::from_bits(splitmix64(&mut { r })),
                    2 => prev + (r >> 44) as f64 * 1e-6,
                    _ => prev - (r >> 44) as f64 * 1e-6,
                };
                prev = Sample {
                    a: int(prev.a, r),
                    b: int(prev.b, r.rotate_left(16)),
                    x: float(prev.x, r.rotate_left(32)),
                    y: float(prev.y, r.rotate_left(48)),
                };
                prev
            })
            .collect()
    }

    fn built(records: &[Sample]) -> DeltaLog<Sample> {
        let mut log = DeltaLog::default();
        records.iter().for_each(|&r| log.push(r));
        log
    }

    #[test]
    fn every_record_round_trips_bit_for_bit() {
        let floats = edge_floats();
        let mut edges = Vec::new();
        for (i, &a) in EDGE_INTS.iter().enumerate() {
            for (j, &x) in floats.iter().enumerate() {
                edges.push(Sample {
                    a,
                    b: EDGE_INTS[(i + j) % EDGE_INTS.len()],
                    x,
                    y: floats[(i * 5 + j) % floats.len()],
                });
            }
        }
        let log = built(&edges);
        assert_eq!(log.len(), edges.len());
        assert_eq!(log.iter().len(), edges.len());
        assert_eq!(log.iter().collect::<Vec<_>>(), edges);
        for seed in 1..=32 {
            let records = samples(seed, 500);
            let log = built(&records);
            assert_eq!(log.iter().collect::<Vec<_>>(), records, "seed {seed}");
        }
    }

    #[test]
    fn a_signed_zero_and_a_nan_payload_keep_their_bits() {
        let records = [
            Sample {
                x: -0.0,
                y: f64::from_bits(0x7ff8_0000_0000_00ff),
                ..Sample::default()
            },
            Sample {
                x: 0.0,
                y: f64::from_bits(0x7ff8_0000_0000_00fe),
                ..Sample::default()
            },
        ];
        let decoded: Vec<Sample> = built(&records).iter().collect();
        assert_eq!(decoded[0].x.to_bits(), (-0.0f64).to_bits());
        assert_eq!(decoded[1].x.to_bits(), 0);
        assert_eq!(decoded[0].y.to_bits(), 0x7ff8_0000_0000_00ff);
        assert_eq!(decoded[1].y.to_bits(), 0x7ff8_0000_0000_00fe);
    }

    #[test]
    fn close_records_take_a_few_bytes() {
        // Identical records are one zero byte per field.
        let same = Sample {
            a: u64::MAX,
            b: 7,
            x: 28.5,
            y: -77.25,
        };
        let mut log = built(&[same]);
        let first = log.bytes.len();
        log.push(same);
        assert_eq!(log.bytes.len() - first, 4);
        // A step of one up or down is one byte.
        log.push(Sample { a: 0, b: 6, ..same });
        assert_eq!(log.bytes.len() - first, 8);
    }

    #[test]
    fn rewinding_to_any_mark_then_re_appending_rebuilds_the_log() {
        for seed in 1..=8 {
            let records = samples(seed, 120);
            let fresh = built(&records);
            let mut marks = vec![DeltaLog::<Sample>::default().mark()];
            let mut log = DeltaLog::default();
            for &r in &records {
                log.push(r);
                marks.push(log.mark());
            }
            assert_eq!(log, fresh);
            for (at, &mark) in marks.iter().enumerate() {
                assert_eq!(mark.len(), at);
                log.rewind(mark);
                assert_eq!(log, built(&records[..at]), "seed {seed} mark {at}");
                assert_eq!(log.mark(), mark);
                records[at..].iter().for_each(|&r| log.push(r));
                assert_eq!(log, fresh, "seed {seed} mark {at}");
                assert_eq!(log.iter().collect::<Vec<_>>(), records);
            }
        }
    }
}
