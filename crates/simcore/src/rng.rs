//! Seeded randomness for reproducible experiments.
//!
//! Every stochastic element of the simulation (latency jitter, payload sizes,
//! loss) draws from a [`DetRng`] derived from the experiment seed, so any
//! figure in EXPERIMENTS.md can be regenerated bit-for-bit. The generator
//! (xoshiro256\*\* seeded through SplitMix64) and the handful of
//! distributions the models need are implemented here directly, so the
//! stream depends on no external crate.

use crate::time::SimDuration;

/// Deterministic random source: xoshiro256\*\*.
pub struct DetRng {
    s: [u64; 4],
}

impl DetRng {
    /// Create a generator from a 64-bit seed, expanding it to the full state
    /// with SplitMix64.
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut x = seed;
        let mut next = || {
            x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = x;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        DetRng {
            s: [next(), next(), next(), next()],
        }
    }

    /// Next 64 uniformly random bits.
    fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Derive an independent child generator; used to give each component its
    /// own stream so adding draws in one component does not perturb another.
    pub fn fork(&mut self, salt: u64) -> DetRng {
        let s = self.next_u64() ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        DetRng::seed_from_u64(s)
    }

    /// Uniform in `[0, 1)`, with 53 bits of precision.
    pub fn f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform in `[lo, hi)`. Requires `lo < hi`.
    pub fn range_f64(&mut self, lo: f64, hi: f64) -> f64 {
        debug_assert!(lo < hi);
        lo + (hi - lo) * self.f64()
    }

    /// Uniform integer in `[lo, hi)`. Requires `lo < hi`.
    ///
    /// A modulo draw: its bias is below `(hi - lo) / 2^64`, far below
    /// anything a simulated distribution could show.
    pub fn range_u64(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "empty range");
        lo + self.next_u64() % (hi - lo)
    }

    /// Uniform usize in `[0, n)`. Requires `n > 0`.
    pub fn index(&mut self, n: usize) -> usize {
        self.range_u64(0, n as u64) as usize
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

    /// Every recorded figure rests on this stream: a change to the seed
    /// expansion, the step or the mapping of a draw fails here first.
    #[test]
    fn stream_is_pinned() {
        let mut r = DetRng::seed_from_u64(20140705);
        let ranges: Vec<u64> = (0..4).map(|_| r.range_u64(0, 1 << 40)).collect();
        assert_eq!(
            ranges,
            [418403603131, 977388014430, 586263554788, 831695962451]
        );
        let floats: Vec<u64> = (0..3).map(|_| r.f64().to_bits()).collect();
        assert_eq!(
            floats,
            [0x3fce25952acfe05c, 0x3fb9e723fc83b180, 0x3fdecd774bd37e18]
        );
        let indices: Vec<usize> = (0..4).map(|_| r.index(1000)).collect();
        assert_eq!(indices, [514, 88, 334, 97]);
        assert_eq!(r.fork(7).range_u64(0, u64::MAX), 5508999642170421583);
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut r = DetRng::seed_from_u64(1);
        for _ in 0..10_000 {
            let x = r.f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn range_draws_stay_in_bounds() {
        let mut r = DetRng::seed_from_u64(2);
        for _ in 0..10_000 {
            assert!((10..20).contains(&r.range_u64(10, 20)));
            assert!(r.index(7) < 7);
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
