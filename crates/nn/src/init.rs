//! Parameter initialisation with a tiny self-contained deterministic RNG
//! (SplitMix64 + Box–Muller), so the nn crate stands alone.

use crate::tensor::Tensor;

/// Deterministic initialisation RNG.
#[derive(Clone, Debug)]
pub struct InitRng {
    state: u64,
}

impl InitRng {
    pub fn new(seed: u64) -> Self {
        InitRng { state: seed }
    }

    fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    }

    pub(crate) fn uniform(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    #[cfg(test)]
    pub(crate) fn normal(&mut self) -> f64 {
        let u1 = 1.0 - self.uniform();
        let u2 = self.uniform();
        (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
    }
}

/// Xavier/Glorot uniform init for a `[fan_in, fan_out]` weight matrix.
pub(crate) fn xavier_uniform(fan_in: usize, fan_out: usize, rng: &mut InitRng) -> Tensor {
    let bound = (6.0 / (fan_in + fan_out) as f64).sqrt();
    let data = (0..fan_in * fan_out)
        .map(|_| (rng.uniform() * 2.0 - 1.0) * bound)
        .collect();
    Tensor::new(vec![fan_in, fan_out], data)
}

/// Normal init with standard deviation `std`: seeded inputs for the
/// gradient and kernel-equivalence tests.
#[cfg(test)]
pub(crate) fn normal_init(shape: Vec<usize>, std: f64, rng: &mut InitRng) -> Tensor {
    let n = shape.iter().product();
    let data = (0..n).map(|_| rng.normal() * std).collect();
    Tensor::new(shape, data)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic() {
        let mut a = InitRng::new(1);
        let mut b = InitRng::new(1);
        assert_eq!(a.next_u64(), b.next_u64());
        let wa = xavier_uniform(8, 8, &mut a);
        let wb = xavier_uniform(8, 8, &mut b);
        assert_eq!(wa, wb);
        // Different seeds give different weights.
        let mut c = InitRng::new(2);
        assert_ne!(wa, xavier_uniform(8, 8, &mut c));
    }

    #[test]
    fn xavier_within_bound() {
        let mut rng = InitRng::new(5);
        let w = xavier_uniform(16, 32, &mut rng);
        let bound = (6.0 / 48.0_f64).sqrt();
        assert!(w.data().iter().all(|x| x.abs() <= bound));
        // Not all-zero / not constant.
        assert!(w.data().iter().any(|&x| x != 0.0));
    }

    #[test]
    fn normal_init_scale() {
        let mut rng = InitRng::new(9);
        let w = normal_init(vec![1000], 0.02, &mut rng);
        let mean: f64 = w.data().iter().sum::<f64>() / 1000.0;
        let var: f64 = w
            .data()
            .iter()
            .map(|x| (x - mean) * (x - mean))
            .sum::<f64>()
            / 1000.0;
        assert!(mean.abs() < 0.005);
        assert!((var.sqrt() - 0.02).abs() < 0.005);
    }
}
