//! The online DeepBAT control loop (Fig. 2) as a [`Controller`], plus the
//! graceful-degradation wrapper that guards any policy with a
//! [`HealthMonitor`].
//!
//! The trait, the records and the closed-loop driver
//! (`dbat_sim::run_controller`) live in `dbat_sim::controller` so that the
//! analytic BATCH baseline can implement the same trait without a crate
//! cycle.

use crate::drift::{HealthMonitor, WindowStats};
use crate::optimizer::DeepBatOptimizer;
use crate::surrogate::Surrogate;
use crate::traindata::label;
use dbat_sim::{
    ConfigGrid, Controller, DecisionContext, DecisionRecord, IntervalMeasurement, LambdaConfig,
    SimParams,
};
use dbat_workload::{sample_windows, window_at_time, Rng, Trace};
use serde::Serialize;
use std::sync::Arc;

/// The DeepBAT policy: asked once per decision interval, it reads the most
/// recent window of the arrivals observed so far (the Workload Parser,
/// [`window_at_time`]) and runs the surrogate-driven optimizer on it. The
/// surrogate is attached once with [`DeepBatController::with_model`].
#[derive(Clone)]
pub struct DeepBatController {
    pub optimizer: DeepBatOptimizer,
    /// Unread: the driver's `SimConfig::decision_interval` sets the
    /// cadence. Kept only because `benchmark/` assigns it.
    pub decision_interval: f64,
    /// Configuration used until `seq_len` inter-arrivals have been observed.
    pub bootstrap: LambdaConfig,
    /// The surrogate `decide` consults (`None` until
    /// [`DeepBatController::with_model`]).
    model: Option<Arc<Surrogate>>,
    records: Vec<DecisionRecord>,
}

impl std::fmt::Debug for DeepBatController {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DeepBatController")
            .field("optimizer", &self.optimizer)
            .field("decision_interval", &self.decision_interval)
            .field("bootstrap", &self.bootstrap)
            .field("model", &self.model.as_ref().map(|_| "Surrogate"))
            .field("records", &self.records.len())
            .finish()
    }
}

impl DeepBatController {
    pub fn new(grid: ConfigGrid, slo: f64) -> Self {
        DeepBatController {
            optimizer: DeepBatOptimizer::new(grid, slo),
            decision_interval: 60.0,
            bootstrap: LambdaConfig::new(3008, 1, 0.0),
            model: None,
            records: Vec::new(),
        }
    }

    /// Attach the surrogate the [`Controller`] implementation consults.
    pub fn with_model(mut self, model: Arc<Surrogate>) -> Self {
        self.model = Some(model);
        self
    }
}

impl Controller for DeepBatController {
    fn name(&self) -> &'static str {
        "deepbat"
    }

    fn decide(&mut self, ctx: &DecisionContext<'_>) -> DecisionRecord {
        let t_decide = std::time::Instant::now();
        let model = self.model.as_deref().expect(
            "DeepBatController: attach a surrogate with with_model() before closed-loop use",
        );
        let mut rec = DecisionRecord::new(
            ctx.index,
            ctx.start,
            ctx.end,
            self.bootstrap,
            self.optimizer.slo,
            self.optimizer.percentile,
        );
        rec.grid_size = self.optimizer.grid.len();
        match window_at_time(ctx.trace, ctx.start, model.cfg.seq_len, 1.0) {
            Some(w) => {
                let decision = self.optimizer.choose(model, &w.interarrivals);
                rec.config = decision.chosen.config;
                rec.window_len = w.interarrivals.len();
                rec.window_stats = Some(WindowStats::from_window(&w.interarrivals));
                rec.fallback = decision.fallback;
                rec.predicted_percentiles = Some(decision.chosen.percentiles);
                rec.predicted_cost_micro = Some(decision.chosen.cost_micro);
                rec.infer_s = decision.infer_s;
            }
            None => rec.bootstrap = true,
        }
        rec.decide_s = t_decide.elapsed().as_secs_f64();
        let t = dbat_telemetry::global();
        if t.is_enabled() {
            t.histogram("controller.decide_s").record(rec.decide_s);
        }
        rec
    }

    fn audit(&self) -> &[DecisionRecord] {
        &self.records
    }

    fn audit_mut(&mut self) -> &mut Vec<DecisionRecord> {
        &mut self.records
    }
}

/// Telemetry payload for degraded-mode transitions.
#[derive(Clone, Copy, Debug, Serialize)]
struct DegradationEvent {
    index: usize,
    at: f64,
    engaged: bool,
}

/// Graceful degradation for any policy: while the wrapped controller's
/// predictions are healthy it is transparent, but once the
/// [`HealthMonitor`] trips (violation streak or persistent online-APE
/// drift) the wrapper stops consulting the inner policy and applies a
/// safe configuration — high memory, no batching, no wait — until
/// enough clean intervals re-arm it. Every overridden decision carries
/// `degraded = true` in the audit trail, and each engage/disengage is
/// emitted as a `controller.degradation` telemetry event.
#[derive(Clone, Debug)]
pub struct GracefulController<C: Controller> {
    pub inner: C,
    pub monitor: HealthMonitor,
    /// Applied while degraded. Default: the paper grid's fastest point
    /// (max memory, B = 1, T = 0) — the latency-safest choice, bought
    /// with cost.
    pub safe: LambdaConfig,
    pub slo: f64,
    pub percentile: f64,
    records: Vec<DecisionRecord>,
}

impl<C: Controller> GracefulController<C> {
    pub fn new(inner: C, slo: f64) -> Self {
        GracefulController {
            inner,
            monitor: HealthMonitor::default(),
            safe: LambdaConfig::new(4096, 1, 0.0),
            slo,
            percentile: 95.0,
            records: Vec::new(),
        }
    }

    /// Arm the monitor's SLO error-budget trigger: on top of the streak
    /// and APE triggers, degrade when both the short and long rolling
    /// windows burn the violation budget faster than
    /// `threshold × budget` (multi-window burn-rate alerting).
    pub fn with_burn_rate(mut self, cfg: dbat_telemetry::BurnRateConfig) -> Self {
        self.monitor.burn_rate = Some(dbat_telemetry::BurnRate::new(cfg));
        self
    }

    /// Currently overriding the inner policy?
    pub fn is_degraded(&self) -> bool {
        self.monitor.is_degraded()
    }

    /// Fraction of the SLO error budget left (1.0 when no burn-rate
    /// monitor is armed; negative once overspent).
    pub fn budget_remaining(&self) -> f64 {
        self.monitor.budget_remaining()
    }
}

impl<C: Controller> Controller for GracefulController<C> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn decide(&mut self, ctx: &DecisionContext<'_>) -> DecisionRecord {
        if self.monitor.is_degraded() {
            let mut rec = DecisionRecord::new(
                ctx.index,
                ctx.start,
                ctx.end,
                self.safe,
                self.slo,
                self.percentile,
            );
            rec.degraded = true;
            rec
        } else {
            self.inner.decide(ctx)
        }
    }

    fn observe(&mut self, measurement: &IntervalMeasurement) {
        self.inner.observe(measurement);
    }

    fn commit(&mut self, record: DecisionRecord) {
        let violated = record.violation.unwrap_or(false);
        let transition = self.monitor.observe(violated, record.online_ape());
        let t = dbat_telemetry::global();
        if self.monitor.burn_rate.is_some() {
            t.gauge("serve.slo.budget_remaining")
                .set(self.monitor.budget_remaining());
        }
        if let Some(engaged) = transition {
            if t.is_enabled() {
                t.emit_at(
                    "controller.degradation",
                    record.end,
                    serde_json::to_value(&DegradationEvent {
                        index: record.index,
                        at: record.end,
                        engaged,
                    }),
                );
            }
            if engaged {
                // Preserve the moments leading up to the trip for
                // post-mortem before the ring is overwritten.
                t.dump_flight("degradation");
            }
        }
        self.records.push(record);
    }

    fn audit(&self) -> &[DecisionRecord] {
        &self.records
    }

    fn audit_mut(&mut self) -> &mut Vec<DecisionRecord> {
        &mut self.records
    }
}

/// Estimate the robustness penalty γ (§III-D): the MAPE between the
/// surrogate's predicted p95 and the simulated ground-truth p95 over
/// sampled windows of the (new) workload, each paired with a random grid
/// configuration.
pub fn estimate_gamma(
    model: &Surrogate,
    trace: &Trace,
    grid: &ConfigGrid,
    params: &SimParams,
    n_windows: usize,
    seed: u64,
) -> f64 {
    let mut rng = Rng::new(seed);
    let windows = sample_windows(trace, model.cfg.seq_len, n_windows, &mut rng);
    if windows.is_empty() {
        return 0.0;
    }
    let configs = grid.configs();
    let mut acc = 0.0;
    let mut n = 0usize;
    for w in &windows {
        let cfg = configs[rng.below(configs.len())];
        let truth = label(&w.interarrivals, &cfg, params, f64::INFINITY);
        let e1 = model.encode_window_fast(&w.interarrivals);
        let feats = dbat_nn::Tensor::new(
            vec![1, 3],
            vec![cfg.memory_mb as f64, cfg.batch_size as f64, cfg.timeout_s],
        );
        let pred = model.predict_encoded_fast_pre(&e1, &model.preprocess_feats(&feats));
        let p95_hat = pred.data()[3].max(0.0);
        let p95 = truth.target[3];
        if p95 > 0.0 {
            acc += (p95_hat - p95).abs() / p95;
            n += 1;
        }
    }
    if n == 0 {
        0.0
    } else {
        acc / n as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::surrogate::SurrogateConfig;
    use dbat_sim::StaticController;
    use dbat_workload::Map;

    fn trace() -> Trace {
        let map = Map::poisson(30.0);
        let mut rng = Rng::new(4);
        Trace::new(map.simulate(&mut rng, 0.0, 600.0), 600.0)
    }

    fn model() -> Surrogate {
        Surrogate::new(SurrogateConfig::tiny(), 2)
    }

    #[test]
    fn graceful_wrapper_engages_and_recovers() {
        let safe_slo = 0.1;
        let mut ctl = GracefulController::new(
            StaticController::new(LambdaConfig::new(512, 32, 5.0), safe_slo),
            safe_slo,
        );
        // Hand-drive the decide/commit protocol with synthetic outcomes.
        static EMPTY_TRACE: std::sync::LazyLock<Trace> =
            std::sync::LazyLock::new(|| Trace::new(vec![], 1.0));
        let ctx = |i: usize| DecisionContext {
            trace: &EMPTY_TRACE,
            start: i as f64 * 60.0,
            end: (i + 1) as f64 * 60.0,
            index: i,
        };
        for i in 0..3 {
            let mut rec = ctl.decide(&ctx(i));
            assert!(!rec.degraded);
            rec.violation = Some(true);
            ctl.commit(rec);
        }
        assert!(ctl.is_degraded(), "three violations must engage fallback");
        // While degraded the safe config is applied without consulting
        // the inner policy.
        let rec = ctl.decide(&ctx(3));
        assert!(rec.degraded);
        assert_eq!(rec.config, ctl.safe);
        // Three clean intervals re-arm.
        for i in 3..6 {
            let mut rec = ctl.decide(&ctx(i));
            rec.violation = Some(false);
            ctl.commit(rec);
        }
        assert!(!ctl.is_degraded());
        let rec = ctl.decide(&ctx(6));
        assert!(!rec.degraded);
        assert_eq!(rec.config, LambdaConfig::new(512, 32, 5.0));
        // The audit trail kept every decision, flagged appropriately.
        assert_eq!(ctl.audit().len(), 6);
        assert_eq!(ctl.audit().iter().filter(|r| r.degraded).count(), 3);
    }

    #[test]
    fn burn_rate_engages_graceful_degradation_without_streak() {
        use dbat_telemetry::BurnRateConfig;
        let slo = 0.1;
        let mut ctl = GracefulController::new(
            StaticController::new(LambdaConfig::new(512, 32, 5.0), slo),
            slo,
        )
        .with_burn_rate(BurnRateConfig {
            budget: 0.05,
            short_window: 4,
            long_window: 8,
            threshold: 2.0,
        });
        // The streak trigger needs 3 consecutive violations; inject an
        // alternating violate/clean pattern that never builds a streak
        // beyond 1, so only the error-budget monitor can fire.
        ctl.monitor.max_violation_streak = 3;
        static EMPTY_TRACE: std::sync::LazyLock<Trace> =
            std::sync::LazyLock::new(|| Trace::new(vec![], 1.0));
        let ctx = |i: usize| DecisionContext {
            trace: &EMPTY_TRACE,
            start: i as f64 * 60.0,
            end: (i + 1) as f64 * 60.0,
            index: i,
        };
        let mut engaged_at = None;
        for i in 0..16 {
            let mut rec = ctl.decide(&ctx(i));
            if engaged_at.is_none() {
                assert!(!rec.degraded, "must not degrade before budget burns");
            }
            rec.violation = Some(i % 2 == 0);
            ctl.commit(rec);
            if engaged_at.is_none() && ctl.is_degraded() {
                engaged_at = Some(i);
            }
        }
        // A 50% violation rate against a 5% budget trips as soon as the
        // short window fills — deterministically at interval 3.
        assert_eq!(engaged_at, Some(3));
        assert!(ctl.budget_remaining() < 0.0, "budget overspent");
        // While degraded the safe config is applied.
        let rec = ctl.decide(&ctx(16));
        assert!(rec.degraded);
        assert_eq!(rec.config, ctl.safe);
        // The budget gauge is published for the exporter to scrape.
        let g = dbat_telemetry::global().gauge("serve.slo.budget_remaining");
        assert!(g.get() < 0.0);
    }

    #[test]
    fn gamma_estimate_nonnegative_finite() {
        let tr = trace();
        let g = estimate_gamma(
            &model(),
            &tr,
            &ConfigGrid::tiny(),
            &SimParams::default(),
            6,
            12,
        );
        assert!(g.is_finite());
        assert!(g >= 0.0);
    }
}
