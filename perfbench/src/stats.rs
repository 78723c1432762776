//! Exact order statistics over raw samples. Nothing here buckets: every
//! percentile is one of the measured values (nearest rank).

/// A sample set sorted once, for repeated percentile picks.
pub struct Sorted(Vec<f64>);

/// The percentile ladder reports walk when choosing a tail, in per mille.
const LADDER: [u32; 4] = [500, 900, 990, 999];

impl Sorted {
    pub fn new(mut v: Vec<f64>) -> Sorted {
        v.sort_by(f64::total_cmp);
        Sorted(v)
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// 1-based nearest rank of `permille` (1..=1000) among `n >= 1` samples.
    fn rank(&self, permille: u32) -> usize {
        let n = self.0.len();
        ((n as u64 * u64::from(permille)).div_ceil(1000) as usize).clamp(1, n)
    }

    /// Nearest-rank percentile. 0.0 on an empty set (callers print the sample
    /// count beside every value).
    pub fn pick(&self, permille: u32) -> f64 {
        if self.0.is_empty() {
            return 0.0;
        }
        self.0[self.rank(permille) - 1]
    }

    /// Samples strictly beyond the nearest-rank pick of `permille`.
    pub fn beyond(&self, permille: u32) -> usize {
        if self.0.is_empty() {
            return 0;
        }
        self.0.len() - self.rank(permille)
    }

    /// A percentile is supported when at least ten samples lie beyond it.
    pub fn supports(&self, permille: u32) -> bool {
        self.beyond(permille) >= 10
    }

    /// The highest rung of p50/p90/p99/p99.9 with at least ten samples
    /// beyond it; `None` when even the median has fewer.
    pub fn highest_supported(&self) -> Option<u32> {
        LADDER.iter().rev().copied().find(|&p| self.supports(p))
    }

    /// `pick` when supported, else 0.0 (an unsupported tail is not a number
    /// worth comparing).
    pub fn pick_supported(&self, permille: u32) -> f64 {
        if self.supports(permille) {
            self.pick(permille)
        } else {
            0.0
        }
    }

    pub fn sum(&self) -> f64 {
        self.0.iter().sum()
    }
}

pub fn median(v: &[f64]) -> f64 {
    let s = Sorted::new(v.to_vec());
    let n = s.0.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => s.0[n / 2],
        _ => (s.0[n / 2 - 1] + s.0[n / 2]) / 2.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Sorted {
        Sorted::new((1..=n).map(|i| i as f64).collect())
    }

    #[test]
    fn nearest_rank_picks_a_measured_value() {
        let s = ramp(100);
        assert_eq!(s.pick(500), 50.0);
        assert_eq!(s.pick(900), 90.0);
        assert_eq!(s.pick(990), 99.0);
        assert_eq!(s.pick(1000), 100.0);
        assert_eq!(ramp(3).pick(500), 2.0);
        assert_eq!(ramp(1).pick(999), 1.0);
        assert_eq!(Sorted::new(vec![]).pick(500), 0.0);
    }

    #[test]
    fn a_tail_needs_ten_samples_beyond_it() {
        // 100 samples: p90 leaves exactly 10 beyond, p99 leaves 1.
        let s = ramp(100);
        assert_eq!(s.beyond(900), 10);
        assert!(s.supports(900));
        assert!(!s.supports(990));
        assert_eq!(s.highest_supported(), Some(900));
        // 99 samples: ceil(89.1) = 90 → 9 beyond: p90 is no longer supported.
        assert_eq!(ramp(99).highest_supported(), Some(500));
        assert_eq!(ramp(1000).highest_supported(), Some(990));
        assert_eq!(ramp(10_000).highest_supported(), Some(999));
        assert_eq!(ramp(19).highest_supported(), None);
        assert_eq!(ramp(20).highest_supported(), Some(500));
        assert_eq!(ramp(99).pick_supported(900), 0.0);
        assert_eq!(ramp(100).pick_supported(900), 90.0);
    }

    #[test]
    fn median_averages_the_middle_pair() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }
}
