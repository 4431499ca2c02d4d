//! Full-resolution latency histogram.
//!
//! Every sample is recorded (no reservoir), in log-linear buckets: values
//! below `2^SUB_BITS` get a bucket each, larger values share a bucket with
//! at most `2^-SUB_BITS` relative width. A reported percentile is the
//! midpoint of the bucket holding the nearest-rank sample, so its relative
//! error is at most `2^-(SUB_BITS+1)` (about 0.2 %).

/// Mantissa bits kept per power of two.
const SUB_BITS: u32 = 8;
const SUB: u64 = 1 << SUB_BITS;
/// Buckets: `SUB` exact ones, then `SUB` per power of two above them.
const BUCKETS: usize = (SUB as usize) * (64 - SUB_BITS as usize + 1);

/// A log-linear histogram of `u64` samples (nanoseconds, by convention).
#[derive(Clone, Debug)]
pub struct LogHistogram {
    counts: Vec<u64>,
    total: u64,
    min: u64,
    max: u64,
}

impl Default for LogHistogram {
    fn default() -> Self {
        LogHistogram {
            counts: vec![0; BUCKETS],
            total: 0,
            min: u64::MAX,
            max: 0,
        }
    }
}

fn bucket_of(v: u64) -> usize {
    if v < SUB {
        return v as usize;
    }
    let exp = 63 - v.leading_zeros(); // >= SUB_BITS
    let shift = exp - SUB_BITS;
    let mantissa = (v >> shift) - SUB; // in 0..SUB
    (SUB as usize) * (shift as usize + 1) + mantissa as usize
}

/// Inclusive `(lo, hi)` bounds of bucket `b`.
fn bounds_of(b: usize) -> (u64, u64) {
    let sub = SUB as usize;
    if b < sub {
        return (b as u64, b as u64);
    }
    let shift = (b / sub - 1) as u32;
    let mantissa = (b % sub) as u64;
    let lo = (SUB + mantissa) << shift;
    (lo, lo + ((1u64 << shift) - 1))
}

impl LogHistogram {
    /// Records one sample.
    pub fn record(&mut self, v: u64) {
        self.counts[bucket_of(v)] += 1;
        self.total += 1;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Adds every sample of `other`.
    pub fn merge(&mut self, other: &LogHistogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// The nearest-rank `q`-th percentile (`0 < q <= 100`), or `None`
    /// when empty. The extremes are exact; other ranks are clamped to the
    /// observed range.
    pub fn percentile(&self, q: f64) -> Option<u64> {
        if q >= 100.0 && self.total > 0 {
            return Some(self.max);
        }
        let b = self.percentile_bucket(q)?;
        let (lo, hi) = bounds_of(b);
        Some((lo + (hi - lo) / 2).clamp(self.min, self.max))
    }

    /// Samples recorded in buckets strictly above the one holding the
    /// `q`-th percentile: the tail the percentile rests on.
    pub fn count_beyond(&self, q: f64) -> u64 {
        match self.percentile_bucket(q) {
            Some(b) => self.counts[b + 1..].iter().sum(),
            None => 0,
        }
    }

    fn percentile_bucket(&self, q: f64) -> Option<usize> {
        if self.total == 0 {
            return None;
        }
        let rank = ((q / 100.0) * self.total as f64).ceil().max(1.0) as u64;
        let mut seen = 0;
        for (b, &n) in self.counts.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return Some(b);
            }
        }
        Some(BUCKETS - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exact(sorted: &[u64], q: f64) -> u64 {
        let rank = ((q / 100.0) * sorted.len() as f64).ceil().max(1.0) as usize;
        sorted[rank - 1]
    }

    #[test]
    fn buckets_tile_the_range() {
        for b in 0..BUCKETS - 1 {
            let (lo, hi) = bounds_of(b);
            assert!(lo <= hi);
            assert_eq!(bounds_of(b + 1).0, hi + 1, "gap after bucket {b}");
            assert_eq!(bucket_of(lo), b);
            assert_eq!(bucket_of(hi), b);
        }
        assert_eq!(bounds_of(BUCKETS - 1).1, u64::MAX);
    }

    #[test]
    fn small_values_are_exact() {
        let mut h = LogHistogram::default();
        for v in 1..=100 {
            h.record(v);
        }
        assert_eq!(h.percentile(50.0), Some(50));
        assert_eq!(h.percentile(99.0), Some(99));
        assert_eq!(h.percentile(100.0), Some(100));
        assert_eq!(h.count_beyond(99.0), 1);
        assert_eq!(h.count_beyond(50.0), 50);
    }

    #[test]
    fn percentiles_match_exact_values_within_the_error_bound() {
        // A skewed, latency-like sample: mostly ~40 ms with a long tail.
        let mut values: Vec<u64> = (0..20_000u64)
            .map(|i| {
                let x = (i.wrapping_mul(2_654_435_761) % 1_000_003) as f64 / 1_000_003.0;
                (40e6 * (1.0 + 3.0 * x.powi(8))) as u64
            })
            .collect();
        let mut h = LogHistogram::default();
        for &v in &values {
            h.record(v);
        }
        values.sort_unstable();
        for q in [1.0, 25.0, 50.0, 90.0, 99.0, 99.9, 100.0] {
            let want = exact(&values, q) as f64;
            let got = h.percentile(q).unwrap() as f64;
            let err = (got - want).abs() / want;
            assert!(err <= 1.0 / 512.0, "p{q}: got {got} want {want}");
        }
        assert_eq!(h.count(), 20_000);
        let beyond = h.count_beyond(99.0);
        assert!((190..=200).contains(&beyond), "beyond p99: {beyond}");
    }

    #[test]
    fn merge_adds_samples() {
        let mut a = LogHistogram::default();
        let mut b = LogHistogram::default();
        for v in [10, 20, 30] {
            a.record(v * 1_000_000);
        }
        for v in [40, 250] {
            b.record(v * 1_000_000);
        }
        a.merge(&b);
        assert_eq!(a.count(), 5);
        assert_eq!(a.count_beyond(50.0), 2);
        assert!(a.percentile(100.0).unwrap() == 250_000_000);
        assert!(LogHistogram::default().percentile(50.0).is_none());
    }
}
