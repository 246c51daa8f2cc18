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
}

/// Simulate a single configuration over the given arrivals.
pub fn evaluate(arrivals: &[f64], cfg: &LambdaConfig, params: &SimParams) -> Evaluation {
    Evaluation::of(*cfg, &simulate_batching(arrivals, cfg, params, None))
}

/// Simulate every configuration of the grid, one task per `(B, T)` index
/// pair, in [`ConfigGrid::configs`] order (M-major; repeated values keep
/// a row each).
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

/// The selection rule of Eq. (10) (§III-E), the one every policy applies
/// to its own table — the ground truth here, BATCH's analytic grid,
/// DeepBAT's predictions, the multi-SLO segments: the cheapest candidate
/// whose constrained latency `meets` the SLO, else the fastest, flagged as
/// a fallback (`true`). A candidate whose cost or latency is not finite is
/// neither; `None` when that leaves nothing. Values compare by
/// `total_cmp`, and a tie goes to the earlier candidate.
pub fn select_config<T>(
    candidates: &[T],
    cost: impl Fn(&T) -> f64,
    latency: impl Fn(&T) -> f64,
    meets: impl Fn(f64) -> bool,
) -> Option<(&T, bool)> {
    let mut cheapest: Option<(&T, f64)> = None;
    let mut fastest: Option<(&T, f64)> = None;
    // Strictly less, so the earlier candidate keeps a tie.
    let beats = |x: f64, best: Option<(&T, f64)>| best.is_none_or(|(_, b)| x.total_cmp(&b).is_lt());
    for c in candidates {
        let (k, l) = (cost(c), latency(c));
        if !(k.is_finite() && l.is_finite()) {
            continue;
        }
        if meets(l) && beats(k, cheapest) {
            cheapest = Some((c, k));
        }
        if beats(l, fastest) {
            fastest = Some((c, l));
        }
    }
    match cheapest {
        Some((c, _)) => Some((c, false)),
        None => fastest.map(|(c, _)| (c, true)),
    }
}

/// Ground truth in one call: sweep the grid and pick the optimum by
/// [`select_config`] on the simulated `p`-th percentile.
pub fn ground_truth(
    arrivals: &[f64],
    grid: &ConfigGrid,
    params: &SimParams,
    slo: f64,
    p: f64,
) -> Option<Evaluation> {
    let evals = sweep(arrivals, grid, params);
    select_config(
        &evals,
        |e| e.cost_per_request,
        |e| e.summary.percentile(p),
        |l| l <= slo,
    )
    .map(|(e, _)| *e)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dense_arrivals() -> Vec<f64> {
        (0..600).map(|i| i as f64 * 0.004).collect()
    }

    /// Eq. (10) on simulated p95s.
    fn best_p95(evals: &[Evaluation], slo: f64) -> Option<(Evaluation, bool)> {
        let p95 = |e: &Evaluation| e.summary.percentile(95.0);
        select_config(evals, |e| e.cost_per_request, p95, |l| l <= slo).map(|(e, f)| (*e, f))
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
        let (best, fallback) = best_p95(&evals, slo).unwrap();
        assert!(
            !fallback && best.summary.p95 <= slo,
            "chosen config violates SLO"
        );
        for e in &evals {
            if e.summary.p95 <= slo {
                assert!(best.cost_per_request <= e.cost_per_request + 1e-18);
            }
        }
    }

    #[test]
    fn infeasible_slo_falls_back_to_fastest() {
        let grid = ConfigGrid::tiny();
        let evals = sweep(&dense_arrivals(), &grid, &SimParams::default());
        // SLO of 1 microsecond is unattainable.
        let (best, fallback) = best_p95(&evals, 1e-6).unwrap();
        assert!(fallback);
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
        assert!(best_p95(&[], 0.1).is_none());
    }
}
