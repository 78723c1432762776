//! Zipfian popularity sampling, following the classic YCSB
//! `ZipfianGenerator` construction (Gray et al.'s algorithm): draws item
//! ranks in `0..n` with probability proportional to `1 / rank^theta`.
//!
//! YCSB's default `theta = 0.99` is what the paper's §6.7 workloads use
//! ("these two have a zipf popularity distribution").

use crate::rng::Rng;

/// Zipfian sampler over `0..n`.
#[derive(Debug, Clone)]
pub struct Zipf {
    n: u64,
    theta: f64,
    alpha: f64,
    zeta_n: f64,
    eta: f64,
}

impl Zipf {
    /// A sampler over `n` items with skew `theta` (0 < theta < 1).
    ///
    /// # Panics
    /// If `n == 0` or `theta` is not in `(0, 1)`.
    pub fn new(n: u64, theta: f64) -> Zipf {
        assert!(n > 0, "zipf needs at least one item");
        assert!(theta > 0.0 && theta < 1.0, "theta must be in (0,1)");
        let zeta_n = Self::zeta(n, theta);
        let zeta_two = Self::zeta(2, theta);
        let alpha = 1.0 / (1.0 - theta);
        let eta = (1.0 - (2.0 / n as f64).powf(1.0 - theta)) / (1.0 - zeta_two / zeta_n);
        Zipf {
            n,
            theta,
            alpha,
            zeta_n,
            eta,
        }
    }

    /// YCSB's default skew.
    pub fn ycsb(n: u64) -> Zipf {
        Zipf::new(n, 0.99)
    }

    fn zeta(n: u64, theta: f64) -> f64 {
        // Direct sum; fine for the n <= ~1e6 used in benchmarks.
        (1..=n).map(|i| 1.0 / (i as f64).powf(theta)).sum()
    }

    /// Number of items.
    pub fn n(&self) -> u64 {
        self.n
    }

    /// Draw a rank in `0..n` (0 is the most popular item).
    pub fn sample<R: Rng>(&self, rng: &mut R) -> u64 {
        let u = rng.random_f64();
        let uz = u * self.zeta_n;
        if uz < 1.0 {
            return 0;
        }
        if uz < 1.0 + 0.5f64.powf(self.theta) {
            return 1;
        }
        let r = ((self.n as f64) * (self.eta * u - self.eta + 1.0).powf(self.alpha)) as u64;
        r.min(self.n - 1)
    }

    /// The probability mass of rank 0 (diagnostics/tests).
    pub fn head_mass(&self) -> f64 {
        1.0 / self.zeta_n
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::XorShiftRng;

    #[test]
    fn samples_in_range() {
        let z = Zipf::ycsb(1000);
        let mut rng = XorShiftRng::seed_from_u64(1);
        for _ in 0..10_000 {
            assert!(z.sample(&mut rng) < 1000);
        }
    }

    #[test]
    fn head_is_heavier_than_tail() {
        let z = Zipf::ycsb(1000);
        let mut rng = XorShiftRng::seed_from_u64(2);
        let mut head = 0u32;
        let mut tail = 0u32;
        let trials = 100_000;
        for _ in 0..trials {
            let r = z.sample(&mut rng);
            if r < 10 {
                head += 1;
            } else if r >= 500 {
                tail += 1;
            }
        }
        // With theta=.99 over 1000 items, the top-10 get ~35% of mass,
        // the bottom 500 well under 15%.
        assert!(head > trials / 5, "head={head}");
        assert!(tail < trials * 15 / 100, "tail={tail}");
        assert!(head > 3 * tail, "head={head} tail={tail}");
    }

    #[test]
    fn frequency_matches_theory_for_rank0() {
        let z = Zipf::ycsb(100);
        let mut rng = XorShiftRng::seed_from_u64(3);
        let trials = 200_000;
        let hits = (0..trials).filter(|_| z.sample(&mut rng) == 0).count();
        let p = hits as f64 / trials as f64;
        let expect = z.head_mass();
        assert!((p - expect).abs() < 0.02, "p={p} expect={expect}");
    }

    #[test]
    fn single_item_always_zero() {
        let z = Zipf::new(1, 0.99);
        let mut rng = XorShiftRng::seed_from_u64(4);
        for _ in 0..100 {
            assert_eq!(z.sample(&mut rng), 0);
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let z = Zipf::ycsb(500);
        let a: Vec<u64> = {
            let mut rng = XorShiftRng::seed_from_u64(9);
            (0..100).map(|_| z.sample(&mut rng)).collect()
        };
        let b: Vec<u64> = {
            let mut rng = XorShiftRng::seed_from_u64(9);
            (0..100).map(|_| z.sample(&mut rng)).collect()
        };
        assert_eq!(a, b);
    }
}
