//! Markovian Arrival Processes (MAPs).
//!
//! A MAP of order `n` is given by two `n×n` matrices `(D0, D1)`: `D0` holds
//! the rates of *hidden* phase transitions (non-negative off-diagonal,
//! negative diagonal), `D1` the rates of transitions that *emit an arrival*
//! (non-negative). `D0 + D1` is the generator of the underlying phase CTMC.
//! MAPs capture autocorrelated, bursty arrival streams and are the workload
//! model both BATCH and the paper's synthetic trace rely on.

use crate::rng::Rng;
use dbat_linalg::{ctmc_stationary, dtmc_stationary, inverse, Mat};

/// Validation errors for MAP construction.
#[derive(Clone, Debug, PartialEq)]
pub enum MapError {
    ShapeMismatch,
    NegativeOffDiagonal {
        mat: &'static str,
        i: usize,
        j: usize,
    },
    NonNegativeDiagonal {
        i: usize,
    },
    RowSumNotZero {
        i: usize,
        sum: f64,
    },
    Reducible,
}

impl std::fmt::Display for MapError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MapError::ShapeMismatch => write!(f, "D0 and D1 must be square with equal order"),
            MapError::NegativeOffDiagonal { mat, i, j } => {
                write!(f, "{mat}[{i}][{j}] must be non-negative")
            }
            MapError::NonNegativeDiagonal { i } => {
                write!(f, "D0[{i}][{i}] must be negative")
            }
            MapError::RowSumNotZero { i, sum } => {
                write!(f, "row {i} of D0+D1 sums to {sum}, expected 0")
            }
            MapError::Reducible => write!(f, "phase process is reducible"),
        }
    }
}

impl std::error::Error for MapError {}

/// A validated Markovian Arrival Process.
#[derive(Clone, Debug)]
pub struct Map {
    d0: Mat,
    d1: Mat,
    /// Stationary distribution of the phase CTMC (π(D0+D1) = 0).
    phase_stationary: Vec<f64>,
    /// Stationary phase distribution embedded at arrival instants.
    embedded_stationary: Vec<f64>,
}

impl Map {
    /// Construct and validate a MAP from its defining matrices.
    pub(crate) fn new(d0: Mat, d1: Mat) -> Result<Self, MapError> {
        if !d0.is_square() || d0.rows() != d1.rows() || !d1.is_square() {
            return Err(MapError::ShapeMismatch);
        }
        let n = d0.rows();
        for i in 0..n {
            if d0[(i, i)] >= 0.0 {
                return Err(MapError::NonNegativeDiagonal { i });
            }
            for j in 0..n {
                if i != j && d0[(i, j)] < 0.0 {
                    return Err(MapError::NegativeOffDiagonal { mat: "D0", i, j });
                }
                if d1[(i, j)] < 0.0 {
                    return Err(MapError::NegativeOffDiagonal { mat: "D1", i, j });
                }
            }
            let sum: f64 = (0..n).map(|j| d0[(i, j)] + d1[(i, j)]).sum();
            if sum.abs() > 1e-9 * d0[(i, i)].abs().max(1.0) {
                return Err(MapError::RowSumNotZero { i, sum });
            }
        }
        let q = &d0 + &d1;
        let phase_stationary = ctmc_stationary(&q).map_err(|_| MapError::Reducible)?;
        // Embedded chain at arrivals: P = (-D0)^{-1} D1 (row-stochastic).
        let p = Self::embedded_matrix(&d0, &d1);
        let embedded_stationary = dtmc_stationary(&p).map_err(|_| MapError::Reducible)?;
        Ok(Map {
            d0,
            d1,
            phase_stationary,
            embedded_stationary,
        })
    }

    fn embedded_matrix(d0: &Mat, d1: &Mat) -> Mat {
        let neg_d0_inv = inverse(&d0.scale(-1.0)).expect("D0 of a valid MAP is invertible");
        neg_d0_inv.matmul(d1)
    }

    /// A Poisson process as the order-1 MAP.
    pub fn poisson(rate: f64) -> Self {
        assert!(rate > 0.0);
        Map::new(Mat::from_rows(&[&[-rate]]), Mat::from_rows(&[&[rate]]))
            .expect("Poisson MAP is always valid")
    }

    pub fn order(&self) -> usize {
        self.d0.rows()
    }

    pub fn d0(&self) -> &Mat {
        &self.d0
    }

    pub fn d1(&self) -> &Mat {
        &self.d1
    }

    /// Stationary phase distribution just after an arrival.
    pub fn embedded_stationary(&self) -> &[f64] {
        &self.embedded_stationary
    }

    /// Long-run arrival rate `λ = π D1 1`.
    pub fn rate(&self) -> f64 {
        let ones = vec![1.0; self.order()];
        let d1_one = self.d1.matvec(&ones);
        self.phase_stationary
            .iter()
            .zip(&d1_one)
            .map(|(p, r)| p * r)
            .sum()
    }

    /// k-th raw moment of the stationary interarrival time:
    /// `E[X^k] = k! · φ (-D0)^{-k} 1`.
    pub(crate) fn interarrival_moment(&self, k: u32) -> f64 {
        let n = self.order();
        let neg_d0_inv = inverse(&self.d0.scale(-1.0)).expect("valid MAP");
        let mut v = self.embedded_stationary.clone();
        let mut fact = 1.0;
        for i in 1..=k {
            v = neg_d0_inv.vecmat(&v);
            fact *= i as f64;
        }
        fact * v.iter().take(n).sum::<f64>()
    }

    /// Squared coefficient of variation of interarrival times.
    pub fn scv(&self) -> f64 {
        let m1 = self.interarrival_moment(1);
        let m2 = self.interarrival_moment(2);
        (m2 - m1 * m1) / (m1 * m1)
    }

    /// Lag-k autocorrelation of stationary interarrival times:
    /// `ρ_k = (φ M P^k M 1 − m1²) / (m2 − m1²)` with `M = (-D0)^{-1}`.
    pub fn lag_correlation(&self, k: u32) -> f64 {
        assert!(k >= 1);
        let m = inverse(&self.d0.scale(-1.0)).expect("valid MAP");
        let p = Self::embedded_matrix(&self.d0, &self.d1);
        let m1 = self.interarrival_moment(1);
        let m2 = self.interarrival_moment(2);
        let var = m2 - m1 * m1;
        if var <= 0.0 {
            return 0.0;
        }
        // v = φ M
        let mut v = m.vecmat(&self.embedded_stationary);
        for _ in 0..k {
            v = p.vecmat(&v);
        }
        let v = m.vecmat(&v);
        let joint: f64 = v.iter().sum();
        (joint - m1 * m1) / var
    }

    /// Asymptotic index of dispersion for counts:
    /// `IDC(∞) = scv · (1 + 2 Σ_{k≥1} ρ_k)`, with the tail summed until it
    /// becomes negligible.
    pub fn idc(&self) -> f64 {
        let scv = self.scv();
        let mut acc = 0.0;
        let mut k = 1u32;
        loop {
            let rho = self.lag_correlation(k);
            acc += rho;
            if rho.abs() < 1e-10 || k >= 10_000 {
                break;
            }
            k += 1;
        }
        scv * (1.0 + 2.0 * acc)
    }

    /// Simulate arrival timestamps on `[t0, t0 + horizon)`, starting from the
    /// time-stationary phase distribution. Returns absolute timestamps.
    pub fn simulate(&self, rng: &mut Rng, t0: f64, horizon: f64) -> Vec<f64> {
        let n = self.order();
        let mut phase = rng.categorical(&self.phase_stationary);
        let mut t = t0;
        let end = t0 + horizon;
        let mut out = Vec::new();
        // Precompute per-phase exit rates and transition weights.
        let exit: Vec<f64> = (0..n).map(|i| -self.d0[(i, i)]).collect();
        loop {
            let r = exit[phase];
            t += rng.exp(r);
            if t >= end {
                break;
            }
            // Choose destination among D0 off-diagonal and D1 entries.
            let mut weights = Vec::with_capacity(2 * n);
            for j in 0..n {
                weights.push(if j == phase { 0.0 } else { self.d0[(phase, j)] });
            }
            for j in 0..n {
                weights.push(self.d1[(phase, j)]);
            }
            let pick = rng.categorical(&weights);
            if pick >= n {
                out.push(t);
                phase = pick - n;
            } else {
                phase = pick;
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mmpp2_example() -> Map {
        // Bursty two-phase MMPP: fast phase rate 20, slow phase rate 1.
        let d0 = Mat::from_rows(&[&[-20.5, 0.5], &[0.1, -1.1]]);
        let d1 = Mat::from_rows(&[&[20.0, 0.0], &[0.0, 1.0]]);
        Map::new(d0, d1).unwrap()
    }

    #[test]
    fn poisson_properties() {
        let m = Map::poisson(5.0);
        assert!((m.rate() - 5.0).abs() < 1e-12);
        assert!((m.interarrival_moment(1) - 0.2).abs() < 1e-12);
        assert!((m.scv() - 1.0).abs() < 1e-10);
        assert!(m.lag_correlation(1).abs() < 1e-10);
        assert!((m.idc() - 1.0).abs() < 1e-8);
    }

    #[test]
    fn rejects_invalid_matrices() {
        let d0 = Mat::from_rows(&[&[-1.0, 2.0], &[0.0, -1.0]]);
        let d1 = Mat::from_rows(&[&[-1.0, 0.0], &[0.0, 1.0]]);
        assert!(Map::new(d0, d1).is_err());
        // Row sums not zero.
        let d0 = Mat::from_rows(&[&[-1.0, 0.0], &[0.0, -1.0]]);
        let d1 = Mat::from_rows(&[&[0.5, 0.0], &[0.0, 1.0]]);
        assert!(matches!(
            Map::new(d0, d1),
            Err(MapError::RowSumNotZero { .. })
        ));
    }

    #[test]
    fn mmpp_rate_formula() {
        let m = mmpp2_example();
        // pi of Q = [[-0.5,0.5],[0.1,-0.1]] is (1/6, 5/6).
        let pi = &m.phase_stationary;
        assert!((pi[0] - 1.0 / 6.0).abs() < 1e-10);
        let expect = (1.0 / 6.0) * 20.0 + (5.0 / 6.0) * 1.0;
        assert!((m.rate() - expect).abs() < 1e-10);
    }

    #[test]
    fn mmpp_is_bursty() {
        let m = mmpp2_example();
        assert!(m.scv() > 1.0, "scv = {}", m.scv());
        assert!(m.lag_correlation(1) > 0.0);
        assert!(m.idc() > m.scv(), "positive correlation should inflate IDC");
    }

    #[test]
    fn embedded_stationary_is_distribution() {
        let m = mmpp2_example();
        let phi = m.embedded_stationary();
        assert!((phi.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!(phi.iter().all(|&p| p >= 0.0));
    }

    #[test]
    fn simulation_rate_matches_analytic() {
        let m = mmpp2_example();
        let mut rng = Rng::new(1234);
        let horizon = 5_000.0;
        let arrivals = m.simulate(&mut rng, 0.0, horizon);
        let empirical = arrivals.len() as f64 / horizon;
        let analytic = m.rate();
        assert!(
            (empirical - analytic).abs() / analytic < 0.05,
            "empirical {empirical} vs analytic {analytic}"
        );
    }

    #[test]
    fn simulation_timestamps_sorted_within_horizon() {
        let m = mmpp2_example();
        let mut rng = Rng::new(99);
        let arrivals = m.simulate(&mut rng, 10.0, 50.0);
        assert!(arrivals.windows(2).all(|w| w[0] <= w[1]));
        assert!(arrivals.iter().all(|&t| (10.0..60.0).contains(&t)));
    }

    #[test]
    fn simulation_scv_matches_analytic() {
        let m = mmpp2_example();
        let mut rng = Rng::new(7);
        let arrivals = m.simulate(&mut rng, 0.0, 20_000.0);
        let ia: Vec<f64> = arrivals.windows(2).map(|w| w[1] - w[0]).collect();
        let mean = ia.iter().sum::<f64>() / ia.len() as f64;
        let var = ia.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / ia.len() as f64;
        let scv = var / (mean * mean);
        let analytic = m.scv();
        assert!(
            (scv - analytic).abs() / analytic < 0.1,
            "empirical {scv} vs analytic {analytic}"
        );
    }

    #[test]
    fn poisson_interarrival_second_moment() {
        let m = Map::poisson(2.0);
        // E[X^2] = 2/rate^2 = 0.5
        assert!((m.interarrival_moment(2) - 0.5).abs() < 1e-10);
    }
}
