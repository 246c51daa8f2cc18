//! Shared machinery for the head-to-head figures (Figs. 6–12): build the
//! closed-loop policies — DeepBAT, BATCH, the clairvoyant oracle, a fixed
//! static config — as [`Controller`] values, and drive any of them with
//! the one generic [`run_policy`] loop (optionally fault-injected).

use crate::settings::ExpSettings;
use dbat_analytic::BatchController;
use dbat_core::{DeepBatController, Surrogate};
use dbat_sim::{
    run_controller, Controller, FaultPlan, IntervalMeasurement, LambdaConfig, OracleController,
    RunOutcome, SimConfig, StaticController,
};
use dbat_workload::Trace;
use std::sync::Arc;

/// DeepBAT as a closed-loop policy (SLO-feasibility tightened by `gamma`).
pub fn deepbat(model: Arc<Surrogate>, s: &ExpSettings, gamma: f64) -> DeepBatController {
    let mut ctl = DeepBatController::new(s.grid.clone(), s.slo);
    ctl.optimizer.percentile = s.percentile;
    ctl.optimizer.gamma = gamma;
    ctl.with_model(model)
}

/// BATCH as a closed-loop policy: hourly refit on the previous hour's
/// arrivals (§IV-B), held constant across the decision-interval grid.
pub fn batch(s: &ExpSettings) -> BatchController {
    let mut ctl = BatchController::new(s.grid.clone(), s.slo);
    ctl.params = s.params;
    ctl.percentile = s.percentile;
    ctl
}

/// The clairvoyant ground truth: per interval, the cheapest SLO-feasible
/// configuration found by exhaustively simulating the interval's *own*
/// arrivals (§IV-A "Ground Truth").
pub fn oracle(s: &ExpSettings) -> OracleController {
    let mut ctl = OracleController::new(s.grid.clone(), s.slo);
    ctl.params = s.params;
    ctl.percentile = s.percentile;
    ctl
}

/// A fixed configuration applied to every interval.
pub fn fixed(s: &ExpSettings, config: LambdaConfig) -> StaticController {
    let mut ctl = StaticController::new(config, s.slo);
    ctl.percentile = s.percentile;
    ctl
}

/// The simulation options the figures run under (fault-free).
pub fn sim_config(s: &ExpSettings) -> SimConfig {
    sim_config_faulted(s, FaultPlan::default())
}

/// Same, with an explicit fault plan for the fault-injection ablation.
pub fn sim_config_faulted(s: &ExpSettings, faults: FaultPlan) -> SimConfig {
    SimConfig::builder()
        .params(s.params)
        .slo(s.slo)
        .percentile(s.percentile)
        .decision_interval(s.decision_interval)
        .faults(faults)
        .build()
        .expect("experiment settings are valid")
}

/// Drive any policy over `[t0, t1)` of the trace and measure every
/// decision interval. Fault-free.
pub fn run_policy(
    ctl: &mut dyn Controller,
    trace: &Trace,
    s: &ExpSettings,
    t0: f64,
    t1: f64,
) -> RunOutcome {
    run_controller(ctl, trace, t0, t1, &sim_config(s))
}

/// Drive any policy with injected faults.
pub fn run_policy_faulted(
    ctl: &mut dyn Controller,
    trace: &Trace,
    s: &ExpSettings,
    t0: f64,
    t1: f64,
    faults: FaultPlan,
) -> RunOutcome {
    run_controller(ctl, trace, t0, t1, &sim_config_faulted(s, faults))
}

/// Aggregate a measurement set into a summary row:
/// [label, intervals, VCR %, mean p95 ms, mean cost µ$/req].
pub fn summary_row(label: &str, ms: &[IntervalMeasurement]) -> Vec<String> {
    let n = ms.len().max(1) as f64;
    let vcr = dbat_sim::vcr_of(ms);
    let mean_p95 = ms.iter().map(|m| m.summary.p95).sum::<f64>() / n;
    // Cost per request aggregated over all requests (not per-interval mean).
    let total_cost: f64 = ms
        .iter()
        .map(|m| m.cost_per_request * m.requests as f64)
        .sum();
    let total_req: f64 = ms.iter().map(|m| m.requests as f64).sum();
    vec![
        label.to_string(),
        ms.len().to_string(),
        crate::report::f(vcr, 1),
        crate::report::f(mean_p95 * 1e3, 1),
        crate::report::f(total_cost / total_req.max(1.0) * 1e6, 4),
    ]
}

/// Headers matching [`summary_row`].
pub const SUMMARY_HEADERS: [&str; 5] = [
    "policy",
    "intervals",
    "VCR_%",
    "mean_p95_ms",
    "cost_u$_per_req",
];

/// Summary row for a fault-injected run:
/// [label, VCR %, cost µ$/req, degraded %, cold starts, retries, lost].
pub fn fault_row(label: &str, out: &RunOutcome) -> Vec<String> {
    vec![
        label.to_string(),
        crate::report::f(out.vcr(), 1),
        crate::report::f(out.cost_per_request() * 1e6, 4),
        crate::report::f(out.degraded_rate(), 1),
        out.counts.cold_starts.to_string(),
        out.counts.retries.to_string(),
        out.counts.lost_requests().to_string(),
    ]
}

/// Headers matching [`fault_row`].
pub const FAULT_HEADERS: [&str; 7] = [
    "policy",
    "VCR_%",
    "cost_u$_per_req",
    "degraded_%",
    "cold_starts",
    "retries",
    "lost",
];

#[cfg(test)]
mod tests {
    use super::*;
    use dbat_sim::LatencySummary;
    use dbat_workload::{Map, Rng};

    fn trace(rate: f64, horizon: f64) -> Trace {
        let mut rng = Rng::new(55);
        Trace::new(Map::poisson(rate).simulate(&mut rng, 0.0, horizon), horizon)
    }

    #[test]
    fn oracle_run_covers_range_and_is_feasible() {
        let mut s = ExpSettings::from_env();
        s.grid = dbat_sim::ConfigGrid::tiny();
        s.decision_interval = 30.0;
        let tr = trace(40.0, 120.0);
        let mut ctl = oracle(&s);
        let out = run_policy(&mut ctl, &tr, &s, 0.0, 120.0);
        assert_eq!(out.records.len(), 4);
        assert_eq!(out.records[0].start, 0.0);
        assert_eq!(out.records[3].end, 120.0);
        // Clairvoyant choices must actually meet the SLO when measured.
        assert!(
            out.measurements.iter().all(|m| !m.violation),
            "oracle violated its own SLO"
        );
    }

    #[test]
    fn batch_run_holds_config_within_refit_interval() {
        let mut s = ExpSettings::from_env();
        s.grid = dbat_sim::ConfigGrid::tiny();
        s.decision_interval = 60.0;
        let tr = trace(30.0, 2.0 * 3600.0);
        let mut ctl = batch(&s);
        let out = run_policy(&mut ctl, &tr, &s, 0.0, 7200.0);
        assert_eq!(out.records.len(), 120);
        // Within one BATCH hour, the config must be constant.
        let first_hour: Vec<_> = out.records.iter().take(60).map(|r| r.config).collect();
        assert!(first_hour.windows(2).all(|w| w[0] == w[1]));
    }

    #[test]
    fn summary_row_aggregates_by_requests() {
        let cfg = dbat_sim::LambdaConfig::new(1024, 1, 0.0);
        let mk = |requests: usize, cost: f64, violation: bool| IntervalMeasurement {
            start: 0.0,
            end: 1.0,
            config: cfg,
            summary: LatencySummary::from_latencies(&[0.05]),
            cost_per_request: cost,
            requests,
            violation,
            cold_starts: 0,
            retries: 0,
            lost: 0,
            wall_s: 0.0,
        };
        // 100 requests at 1µ$ + 300 at 2µ$ => 1.75 µ$/req weighted.
        let row = summary_row("x", &[mk(100, 1e-6, true), mk(300, 2e-6, false)]);
        assert_eq!(row[0], "x");
        assert_eq!(row[1], "2");
        assert_eq!(row[2], "50.0");
        assert_eq!(row[4], "1.7500");
    }
}
