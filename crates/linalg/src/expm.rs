//! Matrix exponentials.
//!
//! Two flavours, both needed by the BATCH analytic model:
//!
//! * [`expm`] — general dense `exp(A)` by scaling-and-squaring with a Padé(6)
//!   approximant. Used for small generator blocks and in tests.
//! * [`Uniformizer`] — the action `v · exp(Q t)` for a CTMC generator `Q`,
//!   computed by uniformization (randomization). This is exact up to a
//!   controllable truncation error, unconditionally stable for generators,
//!   and much faster than forming `exp(Qt)` when many time points share one
//!   generator — the hot path when evaluating latency CDFs on a time grid.

use crate::matrix::Mat;

/// Dense matrix exponential via scaling-and-squaring + Padé(6).
///
/// Accurate to ~1e-12 for matrices with moderate norms; generators arising
/// from MAPs are well within range after scaling.
pub fn expm(a: &Mat) -> Mat {
    assert!(a.is_square(), "expm requires a square matrix");
    let n = a.rows();
    // Scaling: ||A/2^s|| <= 0.5
    let norm = a.norm_inf();
    let s = if norm > 0.5 {
        (norm / 0.5).log2().ceil() as i32
    } else {
        0
    };
    let s = s.max(0) as u32;
    let a_scaled = a.scale(1.0 / f64::powi(2.0, s as i32));

    // Padé(6,6): N(A) = sum c_k A^k, D(A) = N(-A), exp ≈ D^{-1} N.
    const C: [f64; 7] = [
        1.0,
        0.5,
        5.0 / 44.0,
        1.0 / 66.0,
        1.0 / 792.0,
        1.0 / 15840.0,
        1.0 / 665280.0,
    ];
    let mut num = Mat::eye(n).scale(C[0]);
    let mut den = Mat::eye(n).scale(C[0]);
    let mut pow = Mat::eye(n);
    for (k, &c) in C.iter().enumerate().skip(1) {
        pow = pow.matmul(&a_scaled);
        num = &num + &pow.scale(c);
        let sign = if k % 2 == 0 { 1.0 } else { -1.0 };
        den = &den + &pow.scale(sign * c);
    }
    let mut e = crate::lu::Lu::new(&den)
        .expect("Padé denominator is non-singular for scaled input")
        .solve_mat(&num)
        .expect("shape ok");
    for _ in 0..s {
        e = e.matmul(&e);
    }
    e
}

/// Uniformization engine for a fixed CTMC generator `Q`.
///
/// Precomputes the uniformized DTMC `P = I + Q/Λ` once; each call to
/// [`Uniformizer::evolve`] computes `v · exp(Q t)` as a Poisson-weighted
/// mixture `Σ_k Poisson(Λt; k) · v Pᵏ`, truncated when the remaining Poisson
/// mass drops below `eps`.
#[derive(Clone, Debug)]
pub struct Uniformizer {
    p: Mat,
    /// Uniformization rate Λ ≥ max_i |Q_ii|.
    lambda: f64,
    eps: f64,
}

impl Uniformizer {
    /// Build from a generator matrix. `eps` bounds the truncation error
    /// (total discarded Poisson mass) per evaluation.
    pub fn new(q: &Mat, eps: f64) -> Self {
        assert!(q.is_square(), "generator must be square");
        assert!(eps > 0.0 && eps < 1.0, "eps must be in (0,1)");
        let n = q.rows();
        let mut lambda = 0.0_f64;
        for i in 0..n {
            lambda = lambda.max(-q[(i, i)]);
        }
        // Slight inflation avoids P having exact zeros on the diagonal which
        // slows Poisson-series convergence; harmless otherwise.
        let lambda = if lambda <= 0.0 { 1.0 } else { lambda * 1.02 };
        let mut p = q.scale(1.0 / lambda);
        for i in 0..n {
            p[(i, i)] += 1.0;
        }
        Uniformizer { p, lambda, eps }
    }

    pub fn lambda(&self) -> f64 {
        self.lambda
    }

    /// The uniformized stochastic matrix `P = I + Q/Λ`.
    pub fn p(&self) -> &Mat {
        &self.p
    }

    /// Compute `v · exp(Q t)` for a row vector `v` (typically a probability
    /// vector, possibly sub-stochastic).
    pub fn evolve(&self, v: &[f64], t: f64) -> Vec<f64> {
        assert!(t >= 0.0, "time must be non-negative");
        let n = self.p.rows();
        assert_eq!(v.len(), n, "vector length mismatch");
        if t == 0.0 {
            return v.to_vec();
        }
        let lt = self.lambda * t;
        // Poisson term k = 0.
        let mut weight = (-lt).exp();
        let mut acc_mass = weight;
        let mut vk = v.to_vec();
        let mut out: Vec<f64> = vk.iter().map(|&x| x * weight).collect();
        let mut k = 0u64;
        // Hard cap well beyond Λt + 10·sqrt(Λt): series has converged by then.
        let kmax = (lt + 10.0 * lt.sqrt() + 50.0) as u64;
        while acc_mass < 1.0 - self.eps && k < kmax {
            k += 1;
            vk = self.p.vecmat(&vk);
            weight *= lt / k as f64;
            if weight > 0.0 {
                for (o, &x) in out.iter_mut().zip(&vk) {
                    *o += weight * x;
                }
            }
            acc_mass += weight;
            // Underflow guard for very large Λt: recompute from normal regime.
            if weight == 0.0 && (k as f64) < lt {
                // Extremely large Λt — restart weights in log space is overkill
                // for our model sizes; fall back to squaring via expm.
                let e = expm(
                    &crate::matrix::Mat::from_vec(n, n, {
                        // Rebuild Q = Λ(P - I)
                        let mut q = self.p.clone();
                        for i in 0..n {
                            q[(i, i)] -= 1.0;
                        }
                        q.scale(self.lambda).data().to_vec()
                    })
                    .scale(t),
                );
                return e.vecmat(v);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn expm_zero_is_identity() {
        let e = expm(&Mat::zeros(3, 3));
        assert!(e.approx_eq(&Mat::eye(3), 1e-14));
    }

    #[test]
    fn expm_diagonal() {
        let a = Mat::diag(&[1.0, -2.0, 0.5]);
        let e = expm(&a);
        for (i, &d) in [1.0, -2.0, 0.5].iter().enumerate() {
            assert!((e[(i, i)] - f64::exp(d)).abs() < 1e-12);
        }
        assert!(e[(0, 1)].abs() < 1e-14);
    }

    #[test]
    fn expm_nilpotent() {
        // A = [[0,1],[0,0]] => exp(A) = I + A
        let a = Mat::from_rows(&[&[0.0, 1.0], &[0.0, 0.0]]);
        let e = expm(&a);
        assert!(e.approx_eq(&Mat::from_rows(&[&[1.0, 1.0], &[0.0, 1.0]]), 1e-13));
    }

    #[test]
    fn expm_generator_is_stochastic() {
        let q = Mat::from_rows(&[&[-2.0, 2.0], &[5.0, -5.0]]);
        let e = expm(&q.scale(0.37));
        let rs = e.row_sums();
        assert!(rs.iter().all(|&s| (s - 1.0).abs() < 1e-12), "{rs:?}");
        assert!(e.data().iter().all(|&x| x >= -1e-13));
    }

    #[test]
    fn uniformizer_matches_expm() {
        let q = Mat::from_rows(&[&[-3.0, 2.0, 1.0], &[0.5, -1.5, 1.0], &[4.0, 0.0, -4.0]]);
        let u = Uniformizer::new(&q, 1e-12);
        for &t in &[0.0, 0.01, 0.3, 1.0, 4.0] {
            let et = expm(&q.scale(t));
            let v = [0.2, 0.5, 0.3];
            let by_u = u.evolve(&v, t);
            let by_e = et.vecmat(&v);
            for (a, b) in by_u.iter().zip(&by_e) {
                assert!((a - b).abs() < 1e-9, "t={t}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn uniformizer_preserves_mass() {
        let q = Mat::from_rows(&[&[-1.0, 1.0], &[2.0, -2.0]]);
        let u = Uniformizer::new(&q, 1e-12);
        let v = [0.6, 0.4];
        let w = u.evolve(&v, 2.5);
        assert!((w.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn uniformizer_long_horizon_converges_to_stationary() {
        let q = Mat::from_rows(&[&[-2.0, 2.0], &[3.0, -3.0]]);
        let u = Uniformizer::new(&q, 1e-12);
        let w = u.evolve(&[1.0, 0.0], 200.0);
        // stationary = (0.6, 0.4)
        assert!((w[0] - 0.6).abs() < 1e-6, "{w:?}");
        assert!((w[1] - 0.4).abs() < 1e-6);
    }
}
