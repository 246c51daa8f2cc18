//! The hourly BATCH controller used in the paper's evaluation (§IV-B):
//! every hour, fit the previous hour's arrivals to a MAP and re-optimize.
//! Its weakness — the previous hour being a poor predictor of the next —
//! is exactly what Figs. 7–12 measure.

use crate::optimizer::optimize_from_interarrivals;
use dbat_sim::{ConfigGrid, Controller, DecisionContext, DecisionRecord, LambdaConfig, SimParams};
use std::time::Instant;

/// BATCH's control loop parameters and the state it carries between
/// decisions: the configuration in force and which refit interval it was
/// fitted for.
#[derive(Clone, Debug)]
pub struct BatchController {
    pub params: SimParams,
    pub(crate) grid: ConfigGrid,
    pub(crate) slo: f64,
    pub percentile: f64,
    /// Re-fit cadence in seconds (the paper uses one hour).
    pub refit_interval: f64,
    current: Option<LambdaConfig>,
    fitted_idx: Option<usize>,
    last_refit_ok: bool,
    last_window_len: usize,
    records: Vec<DecisionRecord>,
}

impl BatchController {
    pub fn new(grid: ConfigGrid, slo: f64) -> Self {
        BatchController {
            params: SimParams::default(),
            grid,
            slo,
            percentile: 95.0,
            refit_interval: 3_600.0,
            current: None,
            fitted_idx: None,
            last_refit_ok: false,
            last_window_len: 0,
            records: Vec::new(),
        }
    }
}

/// Re-fit at every `refit_interval` boundary on the previous refit
/// interval's arrivals; interval 0 bootstraps from its own data (BATCH's
/// warm-up profiling). When fitting fails (too few arrivals) the previous
/// configuration is carried over and the record is marked `fallback`.
impl Controller for BatchController {
    fn name(&self) -> &'static str {
        "batch"
    }

    fn decide(&mut self, ctx: &DecisionContext<'_>) -> DecisionRecord {
        let r_idx = (ctx.start / self.refit_interval).floor() as usize;
        let mut solve_s = 0.0;
        if self.fitted_idx != Some(r_idx) {
            let (fs, fe) = if r_idx == 0 {
                (0.0, self.refit_interval.min(ctx.trace.horizon()))
            } else {
                (
                    (r_idx - 1) as f64 * self.refit_interval,
                    r_idx as f64 * self.refit_interval,
                )
            };
            let t0 = Instant::now();
            let ia = ctx.trace.slice(fs, fe).interarrivals();
            self.last_window_len = ia.len();
            let solved = optimize_from_interarrivals(
                &ia,
                &self.grid,
                &self.params,
                self.slo,
                self.percentile,
            );
            solve_s = t0.elapsed().as_secs_f64();
            self.last_refit_ok = solved.is_some();
            self.current = Some(match solved {
                Some((best, _)) => best.config,
                None => self
                    .current
                    .unwrap_or_else(|| LambdaConfig::new(2048, 1, 0.0)),
            });
            self.fitted_idx = Some(r_idx);
        }
        let config = self.current.expect("fitted above");
        let mut rec = DecisionRecord::new(
            ctx.index,
            ctx.start,
            ctx.end,
            config,
            self.slo,
            self.percentile,
        );
        rec.grid_size = self.grid.len();
        rec.fallback = !self.last_refit_ok;
        rec.window_len = self.last_window_len;
        rec.infer_s = solve_s;
        rec
    }

    fn audit(&self) -> &[DecisionRecord] {
        &self.records
    }

    fn audit_mut(&mut self) -> &mut Vec<DecisionRecord> {
        &mut self.records
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbat_workload::Trace;

    #[test]
    fn sparse_interval_carries_previous_config() {
        // Arrivals only in the first minute: later fits fail and reuse.
        let mut ts: Vec<f64> = (0..200).map(|i| i as f64 * 0.25).collect();
        ts.push(119.0); // a stray arrival, not enough to fit
        let trace = Trace::new(ts, 180.0);
        let mut ctl = BatchController::new(ConfigGrid::tiny(), 0.1);
        ctl.refit_interval = 60.0;
        let recs: Vec<DecisionRecord> = (0..3)
            .map(|i| {
                ctl.decide(&DecisionContext {
                    trace: &trace,
                    start: i as f64 * 60.0,
                    end: (i + 1) as f64 * 60.0,
                    index: i,
                })
            })
            .collect();
        assert!(!recs[0].fallback && !recs[1].fallback);
        assert!(recs[2].fallback, "empty interval cannot refit");
        assert_eq!(recs[2].config, recs[1].config);
    }
}
