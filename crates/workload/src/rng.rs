//! Deterministic, splittable pseudo-random numbers (xoshiro256++).
//!
//! Every stochastic component in the reproduction (trace generators, MAP
//! simulation, training-data sampling) draws from this generator so that a
//! single `u64` seed reproduces an entire experiment bit-for-bit. We
//! implement xoshiro256++ directly instead of pulling `rand` into the
//! substrate crates: the algorithm is ten lines, and owning it decouples the
//! experiment pipeline from upstream RNG version churn.

/// xoshiro256++ generator with SplitMix64 seeding.
#[derive(Clone, Debug)]
pub struct Rng {
    s: [u64; 4],
}

impl Rng {
    /// Seed deterministically from a single `u64` via SplitMix64.
    pub fn new(seed: u64) -> Self {
        let mut sm = seed;
        let mut next = || {
            sm = sm.wrapping_add(0x9E3779B97F4A7C15);
            let mut z = sm;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
            z ^ (z >> 31)
        };
        Rng {
            s: [next(), next(), next(), next()],
        }
    }

    /// Derive an independent child generator (for parallel fan-out).
    pub fn split(&mut self) -> Rng {
        Rng::new(self.next_u64())
    }

    /// Next raw 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[0]
            .wrapping_add(self.s[3])
            .rotate_left(23)
            .wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform in `[0, 1)` with 53-bit resolution.
    pub fn uniform(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform in `[lo, hi)`.
    pub fn uniform_in(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.uniform()
    }

    /// Uniform integer in `[0, n)`.
    pub fn below(&mut self, n: usize) -> usize {
        debug_assert!(n > 0);
        // Rejection-free multiply-shift; bias is negligible for n << 2^64.
        ((self.next_u64() as u128 * n as u128) >> 64) as usize
    }

    /// Exponential with the given `rate` (mean `1/rate`).
    pub fn exp(&mut self, rate: f64) -> f64 {
        debug_assert!(rate > 0.0, "exponential rate must be positive");
        // 1 - U avoids ln(0).
        -(1.0 - self.uniform()).ln() / rate
    }

    /// Standard normal via Box–Muller.
    pub fn normal(&mut self) -> f64 {
        let u1 = 1.0 - self.uniform();
        let u2 = self.uniform();
        (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
    }

    /// Normal with the given mean and standard deviation.
    pub fn normal_with(&mut self, mean: f64, std: f64) -> f64 {
        mean + std * self.normal()
    }

    /// Bernoulli trial with success probability `p`.
    pub fn bernoulli(&mut self, p: f64) -> bool {
        self.uniform() < p
    }

    /// Sample an index from an unnormalised non-negative weight vector.
    pub fn categorical(&mut self, weights: &[f64]) -> usize {
        let total: f64 = weights.iter().sum();
        debug_assert!(total > 0.0, "weights must have positive mass");
        let mut u = self.uniform() * total;
        for (i, &w) in weights.iter().enumerate() {
            if u < w {
                return i;
            }
            u -= w;
        }
        weights.len() - 1
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = self.below(i + 1);
            xs.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_same_seed() {
        let mut a = Rng::new(42);
        let mut b = Rng::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = Rng::new(1);
        let mut b = Rng::new(2);
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn uniform_in_unit_interval() {
        let mut r = Rng::new(7);
        for _ in 0..10_000 {
            let u = r.uniform();
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn uniform_mean_close_to_half() {
        let mut r = Rng::new(3);
        let n = 100_000;
        let mean: f64 = (0..n).map(|_| r.uniform()).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
    }

    #[test]
    fn exp_mean_matches_rate() {
        let mut r = Rng::new(9);
        let rate = 4.0;
        let n = 200_000;
        let mean: f64 = (0..n).map(|_| r.exp(rate)).sum::<f64>() / n as f64;
        assert!((mean - 0.25).abs() < 0.01, "mean {mean}");
    }

    #[test]
    fn normal_moments() {
        let mut r = Rng::new(11);
        let n = 200_000;
        let xs: Vec<f64> = (0..n).map(|_| r.normal()).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((var - 1.0).abs() < 0.03, "var {var}");
    }

    #[test]
    fn below_in_range_and_covers() {
        let mut r = Rng::new(5);
        let mut seen = [false; 7];
        for _ in 0..1000 {
            let k = r.below(7);
            assert!(k < 7);
            seen[k] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn categorical_respects_weights() {
        let mut r = Rng::new(17);
        let w = [1.0, 0.0, 3.0];
        let mut counts = [0usize; 3];
        for _ in 0..40_000 {
            counts[r.categorical(&w)] += 1;
        }
        assert_eq!(counts[1], 0);
        let ratio = counts[2] as f64 / counts[0] as f64;
        assert!((ratio - 3.0).abs() < 0.3, "ratio {ratio}");
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut r = Rng::new(23);
        let mut xs: Vec<u32> = (0..50).collect();
        r.shuffle(&mut xs);
        let mut sorted = xs.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn split_generates_independent_stream() {
        let mut parent = Rng::new(31);
        let mut child = parent.split();
        // Streams should differ from each other and from the parent.
        assert_ne!(parent.next_u64(), child.next_u64());
    }
}
