//! Seeded randomness for reproducible experiments.
//!
//! Every stochastic element of the simulation (latency jitter, payload sizes,
//! loss) draws from a [`DetRng`] derived from the experiment seed, so any
//! figure in EXPERIMENTS.md can be regenerated bit-for-bit. The handful of
//! distributions the models need are implemented here directly on top of the
//! uniform generator to avoid extra dependencies.

use crate::time::SimDuration;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Deterministic random source.
pub struct DetRng {
    inner: StdRng,
}

impl DetRng {
    /// Create a generator from a 64-bit seed.
    pub fn seed_from_u64(seed: u64) -> Self {
        DetRng {
            inner: StdRng::seed_from_u64(seed),
        }
    }

    /// Derive an independent child generator; used to give each component its
    /// own stream so adding draws in one component does not perturb another.
    pub fn fork(&mut self, salt: u64) -> DetRng {
        let s: u64 = self.inner.random::<u64>() ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        DetRng::seed_from_u64(s)
    }

    /// Uniform in `[0, 1)`.
    pub fn f64(&mut self) -> f64 {
        self.inner.random::<f64>()
    }

    /// Uniform in `[lo, hi)`. Requires `lo < hi`.
    pub fn range_f64(&mut self, lo: f64, hi: f64) -> f64 {
        debug_assert!(lo < hi);
        lo + (hi - lo) * self.f64()
    }

    /// Uniform integer in `[lo, hi)`. Requires `lo < hi`.
    pub fn range_u64(&mut self, lo: u64, hi: u64) -> u64 {
        self.inner.random_range(lo..hi)
    }

    /// Uniform usize in `[0, n)`. Requires `n > 0`.
    pub fn index(&mut self, n: usize) -> usize {
        self.inner.random_range(0..n)
    }

    /// Bernoulli trial with probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        self.f64() < p.clamp(0.0, 1.0)
    }

    /// Standard normal via Box–Muller.
    pub fn std_normal(&mut self) -> f64 {
        let u1 = self.f64().max(f64::MIN_POSITIVE);
        let u2 = self.f64();
        (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
    }

    /// Normal with the given mean and standard deviation.
    pub fn normal(&mut self, mean: f64, sd: f64) -> f64 {
        mean + sd * self.std_normal()
    }

    /// Normal truncated below at `floor`.
    pub fn normal_min(&mut self, mean: f64, sd: f64, floor: f64) -> f64 {
        self.normal(mean, sd).max(floor)
    }

    /// A duration drawn from a normal distribution around `mean`, with
    /// standard deviation `jitter_frac * mean`, truncated at 10% of the mean.
    pub fn jittered(&mut self, mean: SimDuration, jitter_frac: f64) -> SimDuration {
        let m = mean.as_secs_f64();
        SimDuration::from_secs_f64(self.normal_min(m, m * jitter_frac, m * 0.1))
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.index(i + 1);
            items.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = DetRng::seed_from_u64(42);
        let mut b = DetRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.f64().to_bits(), b.f64().to_bits());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = DetRng::seed_from_u64(1);
        let mut b = DetRng::seed_from_u64(2);
        let va: Vec<u64> = (0..8).map(|_| a.range_u64(0, 1 << 40)).collect();
        let vb: Vec<u64> = (0..8).map(|_| b.range_u64(0, 1 << 40)).collect();
        assert_ne!(va, vb);
    }

    #[test]
    fn forked_streams_are_independent() {
        let mut root1 = DetRng::seed_from_u64(7);
        let mut root2 = DetRng::seed_from_u64(7);
        let mut c1 = root1.fork(1);
        let mut c2 = root2.fork(1);
        for _ in 0..50 {
            assert_eq!(c1.f64().to_bits(), c2.f64().to_bits());
        }
    }

    #[test]
    fn normal_moments_are_plausible() {
        let mut r = DetRng::seed_from_u64(3);
        let n = 20_000;
        let samples: Vec<f64> = (0..n).map(|_| r.normal(10.0, 2.0)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((mean - 10.0).abs() < 0.1, "mean {mean}");
        assert!((var - 4.0).abs() < 0.3, "var {var}");
    }

    #[test]
    fn chance_frequency_is_plausible() {
        let mut r = DetRng::seed_from_u64(5);
        let hits = (0..10_000).filter(|_| r.chance(0.25)).count();
        assert!((2200..2800).contains(&hits), "hits {hits}");
    }

    #[test]
    fn jittered_respects_floor() {
        let mut r = DetRng::seed_from_u64(6);
        let mean = SimDuration::from_millis(100);
        for _ in 0..1000 {
            let d = r.jittered(mean, 2.0);
            assert!(d >= SimDuration::from_millis(10));
        }
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut r = DetRng::seed_from_u64(8);
        let mut v: Vec<u32> = (0..64).collect();
        r.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..64).collect::<Vec<_>>());
    }
}
