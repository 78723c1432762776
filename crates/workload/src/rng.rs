//! A tiny, dependency-free, deterministic PRNG.
//!
//! The whole workspace must build and test **offline** — no registry
//! access — so the external `rand` crate is replaced by this in-tree
//! xorshift generator. It is emphatically *not* cryptographic: it exists
//! to drive workload generation and the simulator's seeded per-host
//! randomness, where the only requirements are (a) decent statistical
//! spread and (b) bit-for-bit reproducibility from a `u64` seed on every
//! platform.
//!
//! The generator is xorshift64* (Vigna, "An experimental exploration of
//! Marsaglia's xorshift generators, scrambled"): a 64-bit xorshift state
//! transition whose output is scrambled by an odd multiplicative
//! constant. Seeds are pre-mixed through SplitMix64 so that small,
//! correlated seeds (0, 1, 2, ...) still land in well-separated states.

/// The SplitMix64 finalizer (Steele, Lea and Flood): a stateless
/// avalanche hash of `x`. Seeds, nemesis verdicts and retry jitter all
/// derive from it, so its output must never change.
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Integer types that can be drawn uniformly from a `Range`.
pub trait RangeSample: Copy {
    /// A uniform draw from `[r.start, r.end)`; panics if the range is empty.
    fn sample_range(rng: &mut XorShiftRng, r: core::ops::Range<Self>) -> Self;
}

/// Map 64 random bits onto `0..n` without modulo bias (widening
/// multiply: Lemire's multiply-shift reduction).
fn reduce(bits: u64, n: u64) -> u64 {
    ((u128::from(bits) * u128::from(n)) >> 64) as u64
}

impl RangeSample for u64 {
    fn sample_range(rng: &mut XorShiftRng, r: core::ops::Range<u64>) -> u64 {
        assert!(r.start < r.end, "empty range");
        r.start + reduce(rng.next_u64(), r.end - r.start)
    }
}

impl RangeSample for usize {
    fn sample_range(rng: &mut XorShiftRng, r: core::ops::Range<usize>) -> usize {
        assert!(r.start < r.end, "empty range");
        r.start + reduce(rng.next_u64(), (r.end - r.start) as u64) as usize
    }
}

impl RangeSample for u32 {
    fn sample_range(rng: &mut XorShiftRng, r: core::ops::Range<u32>) -> u32 {
        assert!(r.start < r.end, "empty range");
        r.start + reduce(rng.next_u64(), u64::from(r.end - r.start)) as u32
    }
}

/// A seeded xorshift64* generator (16 bytes of state, ~1ns per draw).
///
/// Its draws mirror the small slice of the `rand` API the workspace
/// uses: raw `u64`s, unit-interval `f64`s, and half-open integer ranges.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct XorShiftRng {
    s: u64,
}

impl XorShiftRng {
    /// A generator deterministically derived from `seed`.
    pub fn seed_from_u64(seed: u64) -> XorShiftRng {
        // Decorrelate adjacent seeds.
        let z = splitmix64(seed);
        // xorshift64* requires a non-zero state.
        XorShiftRng {
            s: if z == 0 { 0x9E37_79B9_7F4A_7C15 } else { z },
        }
    }

    /// The next 64 uniformly distributed bits.
    pub fn next_u64(&mut self) -> u64 {
        let mut s = self.s;
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        self.s = s;
        s.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// A uniform `f64` in `[0, 1)` with 53 bits of precision.
    pub fn random_f64(&mut self) -> f64 {
        // The top 53 bits are the best-scrambled in xorshift64*.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// A uniform draw from the half-open range `r` (`r.start < r.end`).
    pub fn random_range<T: RangeSample>(&mut self, r: core::ops::Range<T>) -> T {
        T::sample_range(self, r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_across_instances() {
        let mut a = XorShiftRng::seed_from_u64(42);
        let mut b = XorShiftRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn seeds_decorrelated() {
        // Adjacent seeds must not produce adjacent streams.
        let x = XorShiftRng::seed_from_u64(0).next_u64();
        let y = XorShiftRng::seed_from_u64(1).next_u64();
        assert_ne!(x, y);
        assert!(
            (x ^ y).count_ones() > 8,
            "streams too similar: {x:x} vs {y:x}"
        );
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut r = XorShiftRng::seed_from_u64(7);
        let mut lo = 1.0f64;
        let mut hi = 0.0f64;
        for _ in 0..10_000 {
            let x = r.random_f64();
            assert!((0.0..1.0).contains(&x));
            lo = lo.min(x);
            hi = hi.max(x);
        }
        assert!(lo < 0.01 && hi > 0.99, "poor spread: [{lo}, {hi}]");
    }

    #[test]
    fn splitmix64_matches_the_reference_outputs() {
        // The first two outputs of the reference SplitMix64 stream seeded
        // with 0: the finalizer of 1x and 2x the golden-ratio increment.
        assert_eq!(splitmix64(0), 0xE220_A839_7B1D_CDAF);
        assert_eq!(splitmix64(0x9E37_79B9_7F4A_7C15), 0x6E78_9E6A_A1B9_65F4);
    }

    #[test]
    fn range_bounds_and_coverage() {
        let mut r = XorShiftRng::seed_from_u64(9);
        let mut seen = [false; 10];
        for _ in 0..1_000 {
            let i = r.random_range(0usize..10);
            seen[i] = true;
        }
        assert!(seen.iter().all(|&s| s), "not all buckets hit: {seen:?}");
        for _ in 0..1_000 {
            let v = r.random_range(5u64..7);
            assert!((5..7).contains(&v));
        }
        assert_eq!(r.random_range(3u32..4), 3);
    }

    #[test]
    fn range_roughly_uniform() {
        let mut r = XorShiftRng::seed_from_u64(11);
        let n = 100_000;
        let mut counts = [0u32; 4];
        for _ in 0..n {
            counts[r.random_range(0usize..4)] += 1;
        }
        for &c in &counts {
            let frac = f64::from(c) / f64::from(n);
            assert!((0.23..0.27).contains(&frac), "skewed: {counts:?}");
        }
    }
}
