//! Rayon-parallel configuration sweeps: the ground-truth optimizer.
//!
//! The paper's ground truth is "a search across all possible configurations
//! of memory size, batch size, and timeout" driven by simulation (§IV-A).
//! A window leaves at `min(B-th arrival, open + T)` (§III-B), so memory
//! never changes which requests share it or when; M enters only through
//! `s(M, b)` and the price. [`sweep`] therefore walks the windows once per
//! `(B, T)` shape, one rayon task each, and prices that walk at every
//! memory size: each row equals [`evaluate`] of its configuration.

use crate::batching::{simulate_batching, simulate_shape, SimOutcome, SimParams};
use crate::config::{ConfigGrid, LambdaConfig};
use crate::metrics::LatencySummary;
use rayon::prelude::*;
use serde::{Deserialize, Serialize};

/// The outcome of simulating one configuration over one arrival window.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct Evaluation {
    pub config: LambdaConfig,
    pub summary: LatencySummary,
    pub cost_per_request: f64,
    pub mean_batch_size: f64,
}

impl Evaluation {
    /// Summarise one configuration's simulated outcome.
    fn of(config: LambdaConfig, out: &SimOutcome) -> Self {
        Evaluation {
            config,
            summary: out.summary(),
            cost_per_request: out.cost_per_request(),
            mean_batch_size: out.mean_batch_size(),
        }
    }

    /// Does this configuration meet `percentile(p) <= slo`?
    pub(crate) fn feasible(&self, slo: f64, p: f64) -> bool {
        self.summary.percentile(p) <= slo
    }
}

/// Simulate a single configuration over the given arrivals.
pub fn evaluate(arrivals: &[f64], cfg: &LambdaConfig, params: &SimParams) -> Evaluation {
    Evaluation::of(*cfg, &simulate_batching(arrivals, cfg, params, None))
}

/// Simulate every configuration of the grid, one task per `(B, T)` index
/// pair, in [`ConfigGrid::configs`] order (M-major; repeated values keep
/// a row each). Walk telemetry (`sim.events`, `sim.flush.*`) counts one
/// walk per shape.
pub fn sweep(arrivals: &[f64], grid: &ConfigGrid, params: &SimParams) -> Vec<Evaluation> {
    let configs = grid.configs();
    let shapes = grid.batch_sizes.len() * grid.timeouts_s.len();
    let by_shape: Vec<Vec<Evaluation>> = configs[..shapes.min(configs.len())]
        .par_iter()
        .enumerate()
        .map(|(shape, cfg)| {
            let outs = simulate_shape(arrivals, cfg, &grid.memories_mb, params);
            let rows = configs[shape..].iter().step_by(shapes);
            rows.zip(&outs)
                .map(|(cfg, out)| Evaluation::of(*cfg, out))
                .collect()
        })
        .collect();
    (0..configs.len())
        .map(|i| by_shape[i % shapes][i / shapes])
        .collect()
}

/// The optimizer of Eq. (10): cheapest configuration whose `p`-th latency
/// percentile meets the SLO. Falls back to the lowest-latency configuration
/// when nothing is feasible (the least-bad choice, also what BATCH does).
pub(crate) fn best_feasible(evals: &[Evaluation], slo: f64, p: f64) -> Option<Evaluation> {
    if evals.is_empty() {
        return None;
    }
    let feasible = evals
        .iter()
        .filter(|e| e.feasible(slo, p))
        .min_by(|a, b| a.cost_per_request.partial_cmp(&b.cost_per_request).unwrap());
    match feasible {
        Some(e) => Some(*e),
        None => evals
            .iter()
            .min_by(|a, b| {
                a.summary
                    .percentile(p)
                    .partial_cmp(&b.summary.percentile(p))
                    .unwrap()
            })
            .copied(),
    }
}

/// Ground truth in one call: sweep the grid and pick the optimum.
pub fn ground_truth(
    arrivals: &[f64],
    grid: &ConfigGrid,
    params: &SimParams,
    slo: f64,
    p: f64,
) -> Option<Evaluation> {
    best_feasible(&sweep(arrivals, grid, params), slo, p)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dense_arrivals() -> Vec<f64> {
        (0..600).map(|i| i as f64 * 0.004).collect()
    }

    #[test]
    fn sweep_covers_grid_in_order() {
        let grid = ConfigGrid::tiny();
        let evals = sweep(&dense_arrivals(), &grid, &SimParams::default());
        assert_eq!(evals.len(), grid.len());
        let cfgs: Vec<_> = evals.iter().map(|e| e.config).collect();
        assert_eq!(cfgs, grid.configs());
    }

    #[test]
    fn ground_truth_is_feasible_and_cheapest() {
        let grid = ConfigGrid::paper_default();
        let params = SimParams::default();
        let evals = sweep(&dense_arrivals(), &grid, &params);
        let slo = 0.1;
        let best = best_feasible(&evals, slo, 95.0).unwrap();
        assert!(best.feasible(slo, 95.0), "chosen config violates SLO");
        for e in &evals {
            if e.feasible(slo, 95.0) {
                assert!(best.cost_per_request <= e.cost_per_request + 1e-18);
            }
        }
    }

    #[test]
    fn infeasible_slo_falls_back_to_fastest() {
        let grid = ConfigGrid::tiny();
        let evals = sweep(&dense_arrivals(), &grid, &SimParams::default());
        // SLO of 1 microsecond is unattainable.
        let best = best_feasible(&evals, 1e-6, 95.0).unwrap();
        let min_p95 = evals
            .iter()
            .map(|e| e.summary.p95)
            .fold(f64::INFINITY, f64::min);
        assert!((best.summary.p95 - min_p95).abs() < 1e-15);
    }

    #[test]
    fn batching_wins_under_loose_slo() {
        // With a generous SLO the optimum should exploit batching (B > 1).
        let grid = ConfigGrid::paper_default();
        let best =
            ground_truth(&dense_arrivals(), &grid, &SimParams::default(), 0.5, 95.0).unwrap();
        assert!(
            best.config.batch_size > 1,
            "expected batching at loose SLO, got {}",
            best.config
        );
    }

    #[test]
    fn tight_slo_prefers_fast_configs() {
        let grid = ConfigGrid::paper_default();
        let loose =
            ground_truth(&dense_arrivals(), &grid, &SimParams::default(), 0.5, 95.0).unwrap();
        let tight =
            ground_truth(&dense_arrivals(), &grid, &SimParams::default(), 0.06, 95.0).unwrap();
        assert!(tight.summary.p95 <= 0.06 + 1e-12);
        assert!(
            tight.cost_per_request >= loose.cost_per_request,
            "tight SLO cannot be cheaper than loose"
        );
    }

    #[test]
    fn empty_evals_none() {
        assert!(best_feasible(&[], 0.1, 95.0).is_none());
    }
}
