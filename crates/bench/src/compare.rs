//! Shared machinery for the head-to-head figures (Figs. 6–12): build the
//! closed-loop policies — DeepBAT, BATCH, the clairvoyant oracle, a fixed
//! static config — as [`Controller`] values, and drive any of them with
//! the one generic [`run_policy`] loop (optionally fault-injected). A run's
//! aggregates are [`RunOutcome`]'s own (`vcr`, `cost_per_request`).

use crate::settings::ExpSettings;
use dbat_analytic::BatchController;
use dbat_core::{DeepBatController, Surrogate};
use dbat_sim::{
    run_controller, Controller, FaultPlan, LambdaConfig, OracleController, RunOutcome, SimConfig,
    StaticController,
};
use dbat_telemetry::Telemetry;
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

/// Drive any policy over `[t0, t1)` of the trace and measure every
/// decision interval, publishing the run to `hub`. Fault-free.
pub fn run_policy(
    ctl: &mut dyn Controller,
    trace: &Trace,
    s: &ExpSettings,
    hub: &Arc<Telemetry>,
    t0: f64,
    t1: f64,
) -> RunOutcome {
    run_policy_faulted(ctl, trace, s, hub, t0, t1, FaultPlan::default())
}

/// Drive any policy with injected faults.
pub fn run_policy_faulted(
    ctl: &mut dyn Controller,
    trace: &Trace,
    s: &ExpSettings,
    hub: &Arc<Telemetry>,
    t0: f64,
    t1: f64,
    faults: FaultPlan,
) -> RunOutcome {
    let cfg = SimConfig::builder()
        .params(s.params)
        .slo(s.slo)
        .percentile(s.percentile)
        .decision_interval(s.decision_interval)
        .faults(faults)
        .telemetry(hub.clone())
        .build()
        .expect("experiment settings are valid");
    run_controller(ctl, trace, t0, t1, &cfg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbat_sim::{IntervalMeasurement, LatencySummary};
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
        let out = run_policy(&mut ctl, &tr, &s, &Arc::default(), 0.0, 120.0);
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
        let out = run_policy(&mut ctl, &tr, &s, &Arc::default(), 0.0, 7200.0);
        assert_eq!(out.records.len(), 120);
        // Within one BATCH hour, the config must be constant.
        let first_hour: Vec<_> = out.records.iter().take(60).map(|r| r.config).collect();
        assert!(first_hour.windows(2).all(|w| w[0] == w[1]));
    }

    #[test]
    fn cost_per_request_weighs_served_requests() {
        let cfg = dbat_sim::LambdaConfig::new(1024, 1, 0.0);
        let mk = |requests: usize, lost: usize, cost: f64, violation: bool| IntervalMeasurement {
            start: 0.0,
            end: 1.0,
            config: cfg,
            summary: LatencySummary::from_latencies(&[0.05]),
            cost_per_request: cost,
            requests,
            violation,
            cold_starts: 0,
            retries: 0,
            lost,
            wall_s: 0.0,
        };
        let run = |measurements| RunOutcome {
            measurements,
            records: Vec::new(),
            counts: Default::default(),
            goodput: None,
        };
        // 100 requests at 1µ$ + 300 at 2µ$ => 1.75 µ$/req weighted.
        let out = run(vec![mk(100, 0, 1e-6, true), mk(300, 0, 2e-6, false)]);
        assert_eq!(out.vcr(), 50.0);
        assert_eq!(format!("{:.4}", out.cost_per_request() * 1e6), "1.7500");
        // Lost requests are not served, so they carry no cost: 100 served
        // at 1µ$ + 100 of 300 served at 2µ$ => 1.5 µ$/req, not 1.75.
        let out = run(vec![mk(100, 0, 1e-6, false), mk(300, 200, 2e-6, true)]);
        assert_eq!(format!("{:.4}", out.cost_per_request() * 1e6), "1.5000");
    }
}
