//! BATCH's optimizer: exhaustive grid search driven by the analytic model.

use crate::fit::{fit_map, FittedMap};
use crate::model::{AnalyticEvaluation, BatchModel};
use dbat_sim::{select_config, ConfigGrid, SimParams};

/// Pick the cheapest configuration whose `p`-th latency percentile meets the
/// SLO; fall back to the lowest-latency configuration when none is feasible
/// (the one rule, [`select_config`], on the analytic percentiles).
pub fn select_best(evals: &[AnalyticEvaluation], slo: f64, p: f64) -> Option<AnalyticEvaluation> {
    select_config(
        evals,
        |e| e.cost_per_request,
        |e| e.percentile(p),
        |l| l <= slo,
    )
    .map(|(e, _)| *e)
}

/// One full BATCH decision: fit a MAP to the observed interarrivals, solve
/// the analytic model on every grid configuration, pick the optimum.
///
/// Returns `None` when fitting fails (not enough data) — the failure mode
/// the paper highlights for sparse/bursty streams.
pub fn optimize_from_interarrivals(
    ia: &[f64],
    grid: &ConfigGrid,
    params: &SimParams,
    slo: f64,
    p: f64,
) -> Option<(AnalyticEvaluation, FittedMap)> {
    let fit = fit_map(ia)?;
    let model = BatchModel::from_fit(&fit, *params);
    let evals = model.evaluate_grid(grid);
    select_best(&evals, slo, p).map(|best| (best, fit))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbat_workload::{Map, Rng};

    #[test]
    fn optimizer_meets_slo_on_poisson() {
        let map = Map::poisson(50.0);
        let mut rng = Rng::new(8);
        let arr = map.simulate(&mut rng, 0.0, 120.0);
        let ia: Vec<f64> = arr.windows(2).map(|w| w[1] - w[0]).collect();
        let grid = ConfigGrid::paper_default();
        let params = SimParams::default();
        let (best, fit) = optimize_from_interarrivals(&ia, &grid, &params, 0.1, 95.0).unwrap();
        assert!(fit.is_poisson);
        assert!(
            best.percentile(95.0) <= 0.1 + 1e-9,
            "p95 {}",
            best.percentile(95.0)
        );
        // Under a 0.1 s SLO at 50 req/s, some batching should be optimal.
        assert!(best.config.batch_size >= 2, "{}", best.config);
    }

    #[test]
    fn loose_slo_is_cheaper() {
        let map = Map::poisson(50.0);
        let mut rng = Rng::new(9);
        let arr = map.simulate(&mut rng, 0.0, 120.0);
        let ia: Vec<f64> = arr.windows(2).map(|w| w[1] - w[0]).collect();
        let grid = ConfigGrid::paper_default();
        let params = SimParams::default();
        let (tight, _) = optimize_from_interarrivals(&ia, &grid, &params, 0.06, 95.0).unwrap();
        let (loose, _) = optimize_from_interarrivals(&ia, &grid, &params, 0.3, 95.0).unwrap();
        assert!(loose.cost_per_request <= tight.cost_per_request + 1e-18);
    }

    #[test]
    fn insufficient_data_returns_none() {
        let grid = ConfigGrid::tiny();
        let params = SimParams::default();
        assert!(optimize_from_interarrivals(&[0.1], &grid, &params, 0.1, 95.0).is_none());
    }

    /// NaN percentiles or costs are never chosen, feasible or fallback.
    #[test]
    fn select_best_skips_nan_evaluations() {
        let model = BatchModel::new(Map::poisson(20.0), SimParams::default());
        let mut evals = model.evaluate_grid(&ConfigGrid::tiny());
        evals[0].cost_per_request = f64::NAN;
        evals[1].percentiles = [f64::NAN; 4];
        for slo in [10.0, 1e-6] {
            let best = select_best(&evals, slo, 95.0).unwrap();
            assert!(best.cost_per_request.is_finite() && best.percentile(95.0).is_finite());
            assert!(best.config != evals[0].config && best.config != evals[1].config);
        }
    }

    #[test]
    fn select_best_fallback_when_infeasible() {
        let map = Map::poisson(20.0);
        let model = BatchModel::new(map, SimParams::default());
        let evals = model.evaluate_grid(&ConfigGrid::tiny());
        let best = select_best(&evals, 1e-6, 95.0).unwrap();
        let min_p95 = evals
            .iter()
            .map(|e| e.percentile(95.0))
            .fold(f64::INFINITY, f64::min);
        assert!((best.percentile(95.0) - min_p95).abs() < 1e-15);
    }
}
