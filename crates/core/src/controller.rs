//! The online DeepBAT control loop (Fig. 2) as a [`Controller`], plus the
//! graceful-degradation wrapper that guards any policy with a health
//! monitor.
//!
//! The trait, the records and the closed-loop driver
//! (`dbat_sim::run_controller`) live in `dbat_sim::controller` so that the
//! analytic BATCH baseline can implement the same trait without a crate
//! cycle.

use crate::health::HealthMonitor;
use crate::optimizer::DeepBatOptimizer;
use crate::surrogate::Surrogate;
use crate::traindata::label;
use dbat_sim::{
    ConfigGrid, Controller, DecisionContext, DecisionRecord, IntervalMeasurement, LambdaConfig,
    SimParams,
};
use dbat_telemetry::Telemetry;
use dbat_workload::{sample_windows, window_at_time, Rng, Trace, WindowStats};
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
                rec.encode_s = decision.encode_s;
            }
            None => rec.bootstrap = true,
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

/// Graceful degradation for any policy: while the wrapped controller's
/// predictions are healthy it is transparent, but once the health
/// monitor trips (violation streak or persistent online-APE
/// drift) the wrapper stops consulting the inner policy and applies a
/// safe configuration — high memory, no batching, no wait — until
/// enough clean intervals re-arm it. Every overridden decision carries
/// `degraded = true` in the audit trail, each engage/disengage is emitted
/// to the wrapper's hub as a `controller.degradation` event, and an
/// engage dumps that hub's flight recorder as `trace.flight` events
/// tagged `why: "degradation"`.
#[derive(Clone, Debug)]
pub struct GracefulController<C: Controller> {
    pub(crate) inner: C,
    pub monitor: HealthMonitor,
    /// The hub degradations are reported to: give it the run's own
    /// (`SimConfig::telemetry`) so the dump holds that run's trace. A
    /// fresh, disabled hub by default.
    pub telemetry: Arc<Telemetry>,
    /// Applied while degraded. Default: the paper grid's fastest point
    /// (max memory, B = 1, T = 0) — the latency-safest choice, bought
    /// with cost.
    pub(crate) safe: LambdaConfig,
    pub(crate) slo: f64,
    pub(crate) percentile: f64,
    records: Vec<DecisionRecord>,
}

impl<C: Controller> GracefulController<C> {
    pub fn new(inner: C, slo: f64) -> Self {
        GracefulController {
            inner,
            monitor: HealthMonitor::default(),
            telemetry: Arc::default(),
            safe: LambdaConfig::new(4096, 1, 0.0),
            slo,
            percentile: 95.0,
            records: Vec::new(),
        }
    }

    /// Currently overriding the inner policy?
    pub fn is_degraded(&self) -> bool {
        self.monitor.is_degraded()
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
        if let Some(engaged) = transition {
            let (index, at) = (record.index, record.end);
            let data = serde_json::json!({ "index": index, "at": at, "engaged": engaged });
            self.telemetry.emit_at("controller.degradation", at, data);
            if engaged {
                // Preserve the moments leading up to the trip for
                // post-mortem before the ring is overwritten.
                self.telemetry.dump_flight("degradation");
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
