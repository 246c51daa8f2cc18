//! MAP fitting: the front half of the BATCH baseline.
//!
//! BATCH must fit the observed arrival stream to a Markovian Arrival Process
//! before its analytic model can run (the paper cites KPC-toolbox \[54\]).
//! We implement moment-based MMPP(2) fitting: match the mean rate exactly,
//! then search the remaining parameters to match the interarrival SCV and
//! lag-1 autocorrelation. When the stream shows no overdispersion the fit
//! degenerates to a Poisson process — mirroring the fragility the paper
//! notes ("error-prone if the fitting into a MAP is not successful").

use dbat_workload::stats::{autocorrelation, mean, scv};
use dbat_workload::{Map, Mmpp2};

/// Summary statistics a fit targets.
#[derive(Clone, Copy, Debug)]
pub struct FitTargets {
    pub rate: f64,
    pub scv: f64,
    pub lag1: f64,
}

impl FitTargets {
    /// Measure targets from raw interarrival times.
    pub(crate) fn from_interarrivals(ia: &[f64]) -> Option<FitTargets> {
        if ia.len() < 8 {
            return None;
        }
        let m = mean(ia);
        if m <= 0.0 {
            return None;
        }
        Some(FitTargets {
            rate: 1.0 / m,
            scv: scv(ia),
            lag1: autocorrelation(ia, 1),
        })
    }
}

/// Outcome of a fit: the process and how closely it matched.
#[derive(Clone, Debug)]
pub struct FittedMap {
    pub map: Map,
    /// Residual of the (scv, lag1) match; 0 for an exact fit.
    pub residual: f64,
    /// True when the fit degenerated to a Poisson process.
    pub is_poisson: bool,
}

/// Fit a MAP to interarrival data. Returns `None` when there is not enough
/// data to even estimate a rate — the failure mode BATCH hits on sparse
/// workloads (§IV-F).
pub fn fit_map(ia: &[f64]) -> Option<FittedMap> {
    let targets = FitTargets::from_interarrivals(ia)?;
    Some(fit_to_targets(targets))
}

/// Fit a MAP to explicit targets (exposed for tests and ablations).
pub fn fit_to_targets(targets: FitTargets) -> FittedMap {
    // No meaningful overdispersion => Poisson.
    if targets.scv <= 1.05 || targets.lag1 <= 0.005 {
        return FittedMap {
            map: Map::poisson(targets.rate),
            residual: ((targets.scv - 1.0).max(0.0)).hypot(targets.lag1.max(0.0)),
            is_poisson: true,
        };
    }
    // Coarse grid over (ratio, p1, idc_proxy), refined locally. The MMPP(2)
    // is parameterised by `from_targets(rate, idc, ratio, p1)`; rate is
    // matched exactly by construction, so the search is 3-dimensional.
    let mut best: Option<(f64, Mmpp2)> = None;
    let idc_grid: Vec<f64> = (0..14).map(|i| 1.5 * 1.6f64.powi(i)).collect();
    for &ratio in &[2.0, 4.0, 8.0, 16.0, 32.0] {
        for &p1 in &[0.1, 0.2, 0.3, 0.4, 0.5] {
            for &idc in &idc_grid {
                let cand = Mmpp2::from_targets(targets.rate, idc, ratio, p1);
                if let Some(err) = candidate_error(&cand, &targets) {
                    if best.as_ref().is_none_or(|(e, _)| err < *e) {
                        best = Some((err, cand));
                    }
                }
            }
        }
    }
    let (mut best_err, mut best_cand) = best.expect("grid is non-empty");
    // Local refinement: coordinate perturbations with shrinking step.
    let mut step = 0.5;
    for _ in 0..24 {
        let mut improved = false;
        let base_idc = best_cand.idc().max(1.01);
        let base_ratio = (best_cand.r1 / best_cand.r2.max(1e-12)).max(1.01);
        let base_p1 = best_cand.p1();
        for (didc, dratio, dp1) in [
            (1.0 + step, 1.0, 0.0),
            (1.0 / (1.0 + step), 1.0, 0.0),
            (1.0, 1.0 + step, 0.0),
            (1.0, 1.0 / (1.0 + step), 0.0),
            (1.0, 1.0, step * 0.2),
            (1.0, 1.0, -step * 0.2),
        ] {
            let idc = (base_idc * didc).max(1.01);
            let ratio = (base_ratio * dratio).max(1.01);
            let p1 = (base_p1 + dp1).clamp(0.02, 0.8);
            let cand = Mmpp2::from_targets(targets.rate, idc, ratio, p1);
            if let Some(err) = candidate_error(&cand, &targets) {
                if err < best_err {
                    best_err = err;
                    best_cand = cand;
                    improved = true;
                }
            }
        }
        if !improved {
            step *= 0.5;
            if step < 1e-3 {
                break;
            }
        }
    }
    FittedMap {
        map: best_cand.to_map().expect("searched MMPPs are valid"),
        residual: best_err,
        is_poisson: false,
    }
}

/// Weighted relative error of a candidate against (scv, lag1) targets.
fn candidate_error(cand: &Mmpp2, targets: &FitTargets) -> Option<f64> {
    let map = cand.to_map().ok()?;
    let s = map.scv();
    let r = map.lag_correlation(1);
    let es = (s - targets.scv) / targets.scv.max(1e-9);
    let er = r - targets.lag1; // absolute: lag1 lives in [-1, 1]
    Some((es * es + 4.0 * er * er).sqrt())
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbat_workload::Rng;

    #[test]
    fn poisson_data_fits_poisson() {
        let m = Map::poisson(10.0);
        let mut rng = Rng::new(3);
        let arr = m.simulate(&mut rng, 0.0, 2_000.0);
        let ia: Vec<f64> = arr.windows(2).map(|w| w[1] - w[0]).collect();
        let fit = fit_map(&ia).unwrap();
        assert!(fit.is_poisson);
        assert!((fit.map.rate() - 10.0).abs() < 0.5);
    }

    #[test]
    fn bursty_data_fits_bursty_map() {
        let truth = Mmpp2::from_targets(20.0, 60.0, 12.0, 0.3);
        let map = truth.to_map().unwrap();
        let mut rng = Rng::new(5);
        let arr = map.simulate(&mut rng, 0.0, 10_000.0);
        let ia: Vec<f64> = arr.windows(2).map(|w| w[1] - w[0]).collect();
        let fit = fit_map(&ia).unwrap();
        assert!(!fit.is_poisson);
        // Rate matched closely; SCV within a factor reflecting sampling noise.
        assert!(
            (fit.map.rate() - 20.0).abs() / 20.0 < 0.1,
            "rate {}",
            fit.map.rate()
        );
        let true_scv = map.scv();
        let fit_scv = fit.map.scv();
        assert!(
            (fit_scv - true_scv).abs() / true_scv < 0.5,
            "scv fitted {fit_scv} vs true {true_scv}"
        );
        assert!(fit.map.lag_correlation(1) > 0.0);
    }

    #[test]
    fn exact_targets_recovered() {
        // Give the fitter the *analytic* stats of a known MMPP: it should
        // land very close.
        let truth = Mmpp2::from_targets(15.0, 30.0, 8.0, 0.25);
        let tm = truth.to_map().unwrap();
        let targets = FitTargets {
            rate: tm.rate(),
            scv: tm.scv(),
            lag1: tm.lag_correlation(1),
        };
        let fit = fit_to_targets(targets);
        assert!(fit.residual < 0.05, "residual {}", fit.residual);
        assert!((fit.map.rate() - 15.0).abs() < 1e-6);
    }

    #[test]
    fn too_little_data_fails() {
        assert!(fit_map(&[0.1, 0.2]).is_none());
        assert!(fit_map(&[]).is_none());
    }

    #[test]
    fn underdispersed_data_degrades_to_poisson() {
        // Nearly deterministic interarrivals: scv << 1.
        let ia: Vec<f64> = (0..100).map(|i| 0.1 + 1e-4 * ((i % 3) as f64)).collect();
        let fit = fit_map(&ia).unwrap();
        assert!(fit.is_poisson);
    }
}
