//! Order statistics shared by the workloads.

/// Median of `xs` (mean of the two middle values for an even count);
/// 0 for an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Percentiles the tail ladder climbs, in parts per 100 000.
const LADDER_PCM: [u64; 6] = [50_000, 90_000, 99_000, 99_900, 99_990, 99_999];

/// The 1-based nearest rank of the `pcm` percentile of `n` samples.
fn rank(n: usize, pcm: u64) -> usize {
    ((n as u128 * pcm as u128).div_ceil(100_000)) as usize
}

/// Samples ranked above the nearest-rank `pcm` percentile of `n` samples.
fn beyond(n: usize, pcm: u64) -> usize {
    n - rank(n, pcm)
}

/// The highest ladder percentile that has at least `min_beyond` samples
/// above it, as a percentage, with the count above it; `None` when even
/// the median has fewer.
pub fn tail_percentile(n: usize, min_beyond: usize) -> Option<(f64, usize)> {
    LADDER_PCM
        .iter()
        .rev()
        .map(|&pcm| (pcm, beyond(n, pcm)))
        .find(|&(_, above)| above >= min_beyond)
        .map(|(pcm, above)| (pcm as f64 / 1000.0, above))
}

/// Nearest-rank percentile (`pct` in 0..=100) of `xs`, which it sorts
/// in place; 0 for an empty slice.
pub fn percentile(xs: &mut [u64], pct: f64) -> u64 {
    if xs.is_empty() {
        return 0;
    }
    xs.sort_unstable();
    let pcm = (pct * 1000.0).round().clamp(0.0, 100_000.0) as u64;
    xs[rank(xs.len(), pcm).clamp(1, xs.len()) - 1]
}

/// Sub-buckets per power of two above [`EXACT`].
const SUB: u64 = 128;
/// Values below this are counted exactly.
const EXACT: u64 = 2 * SUB;

/// Samples counted in buckets at most 1/128 of their value wide, so its
/// memory stays fixed however many samples a run takes.
#[derive(Debug, Clone)]
pub struct Histogram {
    counts: Vec<u64>,
    total: usize,
}

impl Default for Histogram {
    fn default() -> Self {
        Self {
            counts: vec![0; Self::bucket(u64::MAX) + 1],
            total: 0,
        }
    }
}

impl Histogram {
    fn bucket(v: u64) -> usize {
        if v < EXACT {
            return v as usize;
        }
        let shift = 63 - u64::from(v.leading_zeros()) - 7;
        let top = v >> shift;
        (EXACT + (shift - 1) * SUB + (top - SUB)) as usize
    }

    /// The midpoint of bucket `b`.
    fn value(b: usize) -> u64 {
        let b = b as u64;
        if b < EXACT {
            return b;
        }
        let shift = (b - EXACT) / SUB + 1;
        let top = (b - EXACT) % SUB + SUB;
        (top << shift) + (1 << (shift - 1))
    }

    /// Counts one sample.
    pub fn record(&mut self, v: u64) {
        self.counts[Self::bucket(v)] += 1;
        self.total += 1;
    }

    /// Samples counted.
    pub fn len(&self) -> usize {
        self.total
    }

    /// The nearest-rank percentile (`pct` in 0..=100), to within the
    /// bucket width; 0 when empty.
    pub fn percentile(&self, pct: f64) -> u64 {
        if self.total == 0 {
            return 0;
        }
        let pcm = (pct * 1000.0).round().clamp(0.0, 100_000.0) as u64;
        let want = rank(self.total, pcm).max(1) as u64;
        let mut seen = 0u64;
        for (b, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= want {
                return Self::value(b);
            }
        }
        Self::value(self.counts.len() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_percentiles_are_within_one_percent() {
        let mut h = Histogram::default();
        let mut xs: Vec<u64> = (0..20_000u64)
            .map(|i| (i * 7919) % 3_000_000 + 17)
            .collect();
        for &x in &xs {
            h.record(x);
        }
        assert_eq!(h.len(), xs.len());
        for pct in [50.0, 90.0, 99.0, 99.9, 100.0] {
            let exact = percentile(&mut xs, pct) as f64;
            let approx = h.percentile(pct) as f64;
            assert!(
                (approx - exact).abs() <= exact / 100.0,
                "p{pct}: {approx} vs {exact}"
            );
        }
        let mut small = Histogram::default();
        for v in [3u64, 1, 2] {
            small.record(v);
        }
        assert_eq!(small.percentile(50.0), 2, "small values are exact");
        assert_eq!(Histogram::default().percentile(50.0), 0);
        let mut huge = Histogram::default();
        huge.record(u64::MAX);
        assert!(huge.percentile(50.0) > u64::MAX / 2);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond_it() {
        // 1000 samples: exactly 10 lie above the 99th percentile.
        assert_eq!(tail_percentile(1000, 10), Some((99.0, 10)));
        // One sample fewer leaves only 9 above p99, so p90 is the tail.
        assert_eq!(tail_percentile(999, 10), Some((90.0, 99)));
        assert_eq!(tail_percentile(100_000, 10), Some((99.99, 10)));
        assert_eq!(tail_percentile(1_000_000, 10), Some((99.999, 10)));
        assert_eq!(tail_percentile(19, 10), None);
        assert_eq!(tail_percentile(20, 10), Some((50.0, 10)));
        // The stated count is exactly the number of samples above the
        // reported percentile's value.
        for n in [20u64, 57, 999, 1000, 12_345, 400_000] {
            let (pct, above) = tail_percentile(n as usize, 10).expect("n >= 20");
            let mut xs: Vec<u64> = (1..=n).rev().collect();
            let value = percentile(&mut xs, pct);
            assert_eq!(above, xs.iter().filter(|&&x| x > value).count(), "n={n}");
            assert!(above >= 10);
        }
    }

    #[test]
    fn nearest_rank_percentile() {
        let mut xs: Vec<u64> = (1..=100).rev().collect();
        assert_eq!(percentile(&mut xs, 50.0), 50);
        assert_eq!(percentile(&mut xs, 99.0), 99);
        assert_eq!(percentile(&mut xs, 100.0), 100);
        assert_eq!(percentile(&mut [7], 99.0), 7);
        assert_eq!(percentile(&mut [], 50.0), 0);
    }
}
