//! Log-linear latency histogram and the order statistics the report uses.
//!
//! Values below 64 ns get a bucket each; above that every power of two
//! is split into 64 sub-buckets, so a bucket is never wider than 1.6 %
//! of its floor. Percentiles interpolate inside the bucket that holds
//! the requested rank, so two runs whose medians fall in the same bucket
//! still report the position inside it rather than the same floor.

const SUB_BITS: u32 = 6;
const SUB: usize = 1 << SUB_BITS;
/// Samples are clamped below 2^40 ns (18 minutes).
const MAX_BITS: u32 = 40;
const BUCKETS: usize = (MAX_BITS - SUB_BITS + 1) as usize * SUB;

#[derive(Clone)]
pub struct Hist {
    counts: Vec<u64>,
    total: u64,
}

fn index(ns: u64) -> usize {
    let v = ns.min((1 << MAX_BITS) - 1);
    if v < SUB as u64 {
        return v as usize;
    }
    let shift = 63 - v.leading_zeros() - SUB_BITS;
    ((shift as usize + 1) << SUB_BITS) | ((v >> shift) as usize & (SUB - 1))
}

/// `(floor, width)` of bucket `i`, in ns.
fn bounds(i: usize) -> (u64, u64) {
    if i < SUB {
        return (i as u64, 1);
    }
    let shift = (i >> SUB_BITS) - 1;
    (((SUB + (i & (SUB - 1))) as u64) << shift, 1 << shift)
}

impl Hist {
    pub fn new() -> Self {
        Hist {
            counts: vec![0; BUCKETS],
            total: 0,
        }
    }

    #[inline]
    pub fn record(&mut self, ns: u64) {
        self.counts[index(ns)] += 1;
        self.total += 1;
    }

    pub fn merge(&mut self, other: &Hist) {
        for (mine, theirs) in self.counts.iter_mut().zip(&other.counts) {
            *mine += theirs;
        }
        self.total += other.total;
    }

    pub fn count(&self) -> u64 {
        self.total
    }

    /// The value at quantile `q` in `0..=1`, interpolated inside its
    /// bucket; 0 for an empty histogram.
    pub fn quantile(&self, q: f64) -> f64 {
        let rank = q * self.total as f64;
        let mut below = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            if c > 0 && (below + c) as f64 >= rank {
                let (floor, width) = bounds(i);
                return floor as f64 + width as f64 * (rank - below as f64) / c as f64;
            }
            below += c;
        }
        0.0
    }

    /// The highest quantile of the ladder 0.9, 0.99, 0.999, ... that
    /// still has at least ten samples beyond it, and its value. Falls
    /// back to the median when even p90 has fewer.
    pub fn tail(&self) -> (f64, f64) {
        let mut q = 0.5;
        let mut one_in = 10u64;
        while self.total / one_in >= 10 {
            q = 1.0 - 1.0 / one_in as f64;
            one_in *= 10;
        }
        (q, self.quantile(q))
    }
}

/// Median and quartiles of `values`, the quartiles as Python's
/// `statistics.quantiles(values, n=4)` gives them (the rule the PR
/// driver applies to run-to-run spread).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Quartiles {
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
}

pub fn quartiles(values: &[f64]) -> Quartiles {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n >= 1, "quartiles of nothing");
    if n == 1 {
        return Quartiles {
            q1: v[0],
            median: v[0],
            q3: v[0],
        };
    }
    let cut = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        // With two values Python extrapolates past them; a reported
        // quartile stays a value the run could have measured.
        ((v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0).clamp(v[0], v[n - 1])
    };
    Quartiles {
        q1: cut(1),
        median: cut(2),
        q3: cut(3),
    }
}

pub fn median(values: &[f64]) -> f64 {
    quartiles(values).median
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_tile_the_range_without_gaps() {
        let mut next = 0u64;
        for i in 0..BUCKETS {
            let (floor, width) = bounds(i);
            assert_eq!(floor, next, "bucket {i}");
            assert_eq!(index(floor), i);
            assert_eq!(index(floor + width - 1), i);
            assert!(width == 1 || width as f64 / floor as f64 <= 1.0 / 64.0);
            next = floor + width;
        }
        assert_eq!(next, 1 << MAX_BITS);
        assert_eq!(index(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn quantiles_of_a_uniform_ramp() {
        let mut h = Hist::new();
        for ns in 0..10_000 {
            h.record(ns);
        }
        for (q, want) in [(0.5, 5_000.0), (0.9, 9_000.0), (0.99, 9_900.0)] {
            let got = h.quantile(q);
            assert!((got - want).abs() / want < 0.02, "q{q}: {got}");
        }
    }

    #[test]
    fn quantile_interpolates_inside_one_bucket() {
        let mut h = Hist::new();
        for _ in 0..100 {
            h.record(40);
        }
        assert_eq!(h.quantile(0.5), 40.5);
        assert_eq!(h.quantile(1.0), 41.0);
    }

    #[test]
    fn merge_is_the_histogram_of_the_union() {
        let (mut a, mut b, mut both) = (Hist::new(), Hist::new(), Hist::new());
        for ns in 0..500 {
            a.record(ns * 3);
            both.record(ns * 3);
            b.record(ns * 7 + 1);
            both.record(ns * 7 + 1);
        }
        a.merge(&b);
        assert_eq!(a.count(), 1000);
        for q in [0.1, 0.5, 0.9, 0.99] {
            assert_eq!(a.quantile(q), both.quantile(q));
        }
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let mut h = Hist::new();
        for ns in 0..99 {
            h.record(ns);
        }
        assert_eq!(h.tail().0, 0.5, "99 samples: fewer than ten beyond p90");
        h.record(99);
        assert_eq!(h.tail().0, 0.9, "100 samples: exactly ten beyond p90");
        for ns in 100..9_999 {
            h.record(ns);
        }
        assert_eq!(h.tail().0, 0.99, "9 999 samples: 9.999 beyond p99.9");
        h.record(9_999);
        assert_eq!(h.tail().0, 0.999);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1, 2, 4, 8, 16, 32, 64, 128, 256, 512], n=4)
        //   == [3.5, 24.0, 160.0]
        let v: Vec<f64> = (0..10).map(|i| f64::from(1 << i)).collect();
        let q = quartiles(&v);
        assert_eq!((q.q1, q.median, q.q3), (3.5, 24.0, 160.0));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let q = quartiles(&[3.0, 1.0, 2.0]);
        assert_eq!((q.q1, q.median, q.q3), (1.0, 2.0, 3.0));
        assert_eq!(median(&[5.0]), 5.0);
        let q = quartiles(&[1.0, 2.0]);
        assert_eq!((q.q1, q.median, q.q3), (1.0, 1.5, 2.0));
    }
}
