//! A constant-memory log-linear latency histogram.
//!
//! Values below 64 land in exact buckets; above that every octave
//! `[2^e, 2^(e+1))` is split into 64 equal sub-buckets, so a bucket is
//! at most 1/64 (1.6 %) of its lower bound wide and a reported quantile
//! (a point inside the bucket) is within 1.6 % of the true sample. Memory is
//! fixed at ~30 KB however many samples arrive, which keeps the
//! benchmark's own footprint out of the measured peak RSS.

const SUB_BITS: u32 = 6;
const SUB: u64 = 1 << SUB_BITS;
const BUCKETS: usize = ((64 - SUB_BITS as usize) + 1) * SUB as usize;

/// Log-linear histogram of `u64` samples (nanoseconds here).
#[derive(Clone)]
pub struct Histogram {
    counts: Box<[u64]>,
    total: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self {
            counts: vec![0; BUCKETS].into_boxed_slice(),
            total: 0,
        }
    }
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Histogram")
            .field("total", &self.total)
            .finish()
    }
}

fn index_of(value: u64) -> usize {
    if value < SUB {
        return value as usize;
    }
    let exponent = 63 - value.leading_zeros();
    let shift = exponent - SUB_BITS;
    let sub = (value >> shift) - SUB;
    ((shift + 1) as usize) * SUB as usize + sub as usize
}

/// The lower bound and width of bucket `index`.
fn range_of(index: usize) -> (u64, u64) {
    let sub = SUB as usize;
    if index < sub {
        return (index as u64, 1);
    }
    let shift = (index / sub - 1) as u32;
    let base = SUB + (index % sub) as u64;
    (base << shift, 1 << shift)
}

impl Histogram {
    /// Records one sample.
    pub fn record(&mut self, value: u64) {
        self.counts[index_of(value)] += 1;
        self.total += 1;
    }

    /// Adds every sample of `other`.
    pub fn merge(&mut self, other: &Self) {
        for (mine, theirs) in self.counts.iter_mut().zip(other.counts.iter()) {
            *mine += theirs;
        }
        self.total += other.total;
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// The nearest-rank `q` quantile (exact below 64). Above that the
    /// rank is placed linearly among its bucket's samples, so the value
    /// stays inside the bucket but is not pinned to a bucket boundary.
    /// Zero for an empty histogram.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let rank = ((self.total as f64 * q).ceil() as u64).clamp(1, self.total);
        let mut seen = 0;
        for (index, &count) in self.counts.iter().enumerate() {
            if seen + count >= rank {
                let (low, width) = range_of(index);
                let within = ((rank - seen) as f64 - 0.5) / count as f64;
                return if width == 1 {
                    low as f64
                } else {
                    low as f64 + width as f64 * within
                };
            }
            seen += count;
        }
        unreachable!("rank {rank} is within the {} recorded samples", self.total)
    }

    /// How many samples rank strictly above the `q` quantile's rank —
    /// the sample count a percentile rests on.
    pub fn beyond(&self, q: f64) -> u64 {
        let rank = ((self.total as f64 * q).ceil() as u64).clamp(1, self.total.max(1));
        self.total.saturating_sub(rank)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::splitmix64;

    #[test]
    fn buckets_tile_the_range() {
        for index in 0..BUCKETS - 1 {
            let (low, width) = range_of(index);
            let (next_low, _) = range_of(index + 1);
            assert_eq!(low + width, next_low, "bucket {index}");
        }
        for value in [0, 1, 63, 64, 65, 127, 128, 1_000, 123_456_789, u64::MAX / 3] {
            let (low, width) = range_of(index_of(value));
            assert!(
                low <= value && value - low < width,
                "{value} in [{low}, +{width})"
            );
        }
    }

    #[test]
    fn quantiles_match_a_sorted_reference_within_bucket_error() {
        let mut state = 42;
        let mut values = Vec::new();
        let mut hist = Histogram::default();
        for _ in 0..50_000 {
            // Log-uniform over ~1 ns .. ~1 s, like call latencies.
            let exponent = splitmix64(&mut state) % 30;
            let value = (1u64 << exponent) + splitmix64(&mut state) % (1u64 << exponent);
            values.push(value);
            hist.record(value);
        }
        values.sort_unstable();
        for q in [0.01, 0.25, 0.5, 0.9, 0.99, 0.999, 1.0] {
            let rank = ((values.len() as f64 * q).ceil() as usize).clamp(1, values.len());
            let exact = values[rank - 1] as f64;
            let got = hist.quantile(q);
            assert!(
                (got - exact).abs() <= exact / 64.0,
                "q{q}: histogram {got} vs exact {exact}"
            );
        }
        assert_eq!(hist.count(), 50_000);
        assert_eq!(hist.beyond(0.99), 500);
    }

    #[test]
    fn merge_equals_recording_everything_in_one() {
        let mut a = Histogram::default();
        let mut b = Histogram::default();
        let mut both = Histogram::default();
        for v in 0..10_000u64 {
            let value = v * v;
            if v % 2 == 0 { &mut a } else { &mut b }.record(value);
            both.record(value);
        }
        a.merge(&b);
        for q in [0.1, 0.5, 0.99] {
            assert_eq!(a.quantile(q), both.quantile(q));
        }
    }
}
