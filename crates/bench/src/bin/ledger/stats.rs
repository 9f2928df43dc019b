//! Order statistics, the tail-percentile picker and the input
//! fingerprint. Every sampled metric is summarised by its count, range,
//! median and quartiles; which of those a metric is reported at is
//! `run.rs`'s `best`.

/// Five-number summary of one metric's samples within a run.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub min: f64,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    pub max: f64,
}

impl Summary {
    /// A metric measured once per run (a count, a ratio, peak RSS).
    pub fn single(v: f64) -> Summary {
        Summary { n: 1, min: v, q1: v, median: v, q3: v, max: v }
    }
}

/// Linear-interpolated quantile of an ascending slice (`q` in 0..=1).
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

pub fn median(samples: &[f64]) -> f64 {
    summarize(samples).median
}

pub fn summarize(samples: &[f64]) -> Summary {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Summary {
        n: sorted.len(),
        min: sorted[0],
        q1: quantile_sorted(&sorted, 0.25),
        median: quantile_sorted(&sorted, 0.5),
        q3: quantile_sorted(&sorted, 0.75),
        max: sorted[sorted.len() - 1],
    }
}

/// Percentiles in tenths of a percent, so "ten samples beyond" is
/// integer arithmetic and p99.9 of 10 000 does not round to nine.
pub type Permille = u32;
pub const P50: Permille = 500;
pub const P99: Permille = 990;

/// The percentile ladder a tail may be reported at.
const TAIL_LADDER: [Permille; 3] = [999, 990, 900];

fn beyond(n: usize, pct: Permille) -> usize {
    n * (1000 - pct as usize) / 1000
}

/// The highest ladder percentile, `cap` at most, that still has at
/// least ten samples beyond it among `n`; with too few samples even
/// for p90 the median is all that can be reported honestly, so the
/// tail falls back to it.
pub fn tail_percentile(n: usize, cap: Permille) -> Permille {
    TAIL_LADDER.into_iter().filter(|p| *p <= cap).find(|p| beyond(n, *p) >= 10).unwrap_or(P50)
}

/// Value at percentile `pct` of an ascending slice: the smallest sample
/// with at most `n * (1 - pct)` samples above it.
pub fn percentile_sorted(sorted: &[f64], pct: Permille) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[sorted.len() - 1 - beyond(sorted.len(), pct).min(sorted.len() - 1)]
}

/// The tail of `samples` at the percentile [`tail_percentile`] picks.
pub fn tail(samples: &[f64], cap: Permille) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    percentile_sorted(&sorted, tail_percentile(sorted.len(), cap))
}

/// FNV-1a, 64 bit, streaming: the input fingerprint of a run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Fnv64(u64);

impl Fnv64 {
    pub fn new() -> Fnv64 {
        Fnv64(0xcbf2_9ce4_8422_2325)
    }

    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_quartiles() {
        let s = summarize(&[5.0, 1.0, 3.0, 2.0, 4.0]);
        assert_eq!((s.n, s.min, s.median, s.max), (5, 1.0, 3.0, 5.0));
        assert_eq!((s.q1, s.q3), (2.0, 4.0));
        assert_eq!(median(&[1.0, 2.0, 3.0, 10.0]), 2.5);
    }

    #[test]
    fn tail_picker_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(7, 999), P50, "too few samples: the median is the tail");
        assert_eq!(tail_percentile(99, 999), P50);
        assert_eq!(tail_percentile(100, 999), 900);
        assert_eq!(tail_percentile(999, 999), 900);
        assert_eq!(tail_percentile(1_000, 999), P99);
        assert_eq!(tail_percentile(9_999, 999), P99);
        assert_eq!(tail_percentile(10_000, 999), 999);
        assert_eq!(tail_percentile(10_000, P99), P99, "capped");
        let sorted: Vec<f64> = (1..=1000).map(f64::from).collect();
        // p99 of 1..=1000 leaves exactly ten samples above it.
        assert_eq!(percentile_sorted(&sorted, P99), 990.0);
        assert_eq!(percentile_sorted(&sorted, P50), 500.0);
        assert_eq!(percentile_sorted(&[4.0], 999), 4.0);
        let mut shuffled = sorted.clone();
        shuffled.reverse();
        assert_eq!(tail(&shuffled, P99), 990.0);
        assert_eq!(tail(&shuffled[..500], P99), 950.0, "500 samples: p90");
    }

    #[test]
    fn fnv_matches_reference_vectors() {
        let mut h = Fnv64::new();
        assert_eq!(h.finish(), 0xcbf2_9ce4_8422_2325);
        h.write(b"a");
        assert_eq!(h.finish(), 0xaf63_dc4c_8601_ec8c);
        let mut split = Fnv64::new();
        split.write(b"foo");
        split.write(b"bar");
        let mut whole = Fnv64::new();
        whole.write(b"foobar");
        assert_eq!(split, whole);
        assert_eq!(whole.finish(), 0x8594_4171_f739_67e8);
    }
}
