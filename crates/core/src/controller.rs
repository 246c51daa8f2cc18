//! The online DeepBAT control loop (Fig. 2), now speaking the workspace's
//! unified [`Controller`] trait, plus the graceful-degradation wrapper
//! that guards any policy with a [`HealthMonitor`].
//!
//! The shared measurement machinery (`IntervalMeasurement`,
//! `DecisionRecord`, `measure_schedule`, VCR aggregation, the generic
//! closed-loop driver) lives in `dbat_sim::controller` so that the
//! analytic BATCH baseline can implement the same trait without a crate
//! cycle; everything is re-exported here so existing `deepbat::core::*`
//! paths keep working.

use crate::drift::{HealthMonitor, WindowStats};
use crate::optimizer::DeepBatOptimizer;
use crate::surrogate::Surrogate;
use crate::traindata::{label, window_to_arrivals};
use dbat_sim::{simulate_batching, ConfigGrid, LambdaConfig, SimParams};
use dbat_workload::{sample_windows, window_at_time, Rng, Trace};
use serde::Serialize;
use std::sync::Arc;

pub use dbat_sim::controller::{
    hourly_vcr, measure_schedule, record_sim_trace, run_controller, vcr_of, Controller,
    DecisionContext, DecisionRecord, IntervalMeasurement, OracleController, RunOutcome,
    ScheduleEntry, StaticController,
};

/// The DeepBAT control loop: every `decision_interval` seconds, read the
/// most recent window from the trace, run the surrogate-driven optimizer,
/// and apply the chosen configuration until the next decision.
///
/// The explicit-model methods ([`DeepBatController::schedule`],
/// [`DeepBatController::run_audited`], …) take the surrogate as an
/// argument; to drive it through the generic [`Controller`] trait instead,
/// attach the model once with [`DeepBatController::with_model`].
#[derive(Clone)]
pub struct DeepBatController {
    pub optimizer: DeepBatOptimizer,
    pub params: SimParams,
    /// Seconds between re-optimisations.
    pub decision_interval: f64,
    /// Configuration used before the parser warms up.
    pub bootstrap: LambdaConfig,
    /// The surrogate consulted by the trait-based closed loop (`None`
    /// until [`DeepBatController::with_model`]).
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
            params: SimParams::default(),
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

    /// One decision: what the controller would choose for
    /// `[start, end)` given the trace so far.
    fn decide_at(
        &self,
        model: &Surrogate,
        trace: &Trace,
        index: usize,
        start: f64,
        end: f64,
    ) -> DecisionRecord {
        let t_decide = std::time::Instant::now();
        let l = model.cfg.seq_len;
        let mut rec = match window_at_time(trace, start, l, 1.0) {
            Some(w) => {
                let decision = self.optimizer.choose(model, &w.interarrivals);
                let mut rec = DecisionRecord::new(
                    index,
                    start,
                    end,
                    decision.chosen.config,
                    self.optimizer.slo,
                    self.optimizer.percentile,
                );
                rec.window_len = w.interarrivals.len();
                rec.window_stats = Some(WindowStats::from_window(&w.interarrivals));
                rec.grid_size = self.optimizer.grid.len();
                rec.fallback = decision.fallback;
                rec.predicted_percentiles = Some(decision.chosen.percentiles);
                rec.predicted_cost_micro = Some(decision.chosen.cost_micro);
                rec.infer_s = decision.infer_s;
                rec
            }
            None => {
                let mut rec = DecisionRecord::new(
                    index,
                    start,
                    end,
                    self.bootstrap,
                    self.optimizer.slo,
                    self.optimizer.percentile,
                );
                rec.bootstrap = true;
                rec.grid_size = self.optimizer.grid.len();
                rec
            }
        };
        rec.decide_s = t_decide.elapsed().as_secs_f64();
        let t = dbat_telemetry::global();
        if t.is_enabled() {
            t.histogram("controller.decide_s").record(rec.decide_s);
        }
        rec
    }

    /// Build the configuration schedule over `[t0, t1)` of the trace.
    pub fn schedule(
        &self,
        model: &Surrogate,
        trace: &Trace,
        t0: f64,
        t1: f64,
    ) -> Vec<ScheduleEntry> {
        self.schedule_audited(model, trace, t0, t1).0
    }

    /// Like [`DeepBatController::schedule`], but also return one
    /// [`DecisionRecord`] per decision interval capturing what the
    /// controller saw and chose. Measurement fields are `None`/0 here;
    /// [`DeepBatController::run_audited`] fills them in.
    pub fn schedule_audited(
        &self,
        model: &Surrogate,
        trace: &Trace,
        t0: f64,
        t1: f64,
    ) -> (Vec<ScheduleEntry>, Vec<DecisionRecord>) {
        let mut entries = Vec::new();
        let mut records = Vec::new();
        let mut t = t0;
        while t < t1 {
            let end = (t + self.decision_interval).min(t1);
            let record = self.decide_at(model, trace, entries.len(), t, end);
            entries.push((t, end, record.config));
            records.push(record);
            t = end;
        }
        (entries, records)
    }

    /// Arrival-count-triggered variant (§III-A: DeepBAT "can work either as
    /// discrete-time control … or after an accumulation of inference
    /// requests"): re-optimise after every `every_n` arrivals instead of on
    /// a wall-clock cadence. Decision boundaries therefore densify exactly
    /// when traffic intensifies.
    pub fn schedule_by_arrivals(
        &self,
        model: &Surrogate,
        trace: &Trace,
        t0: f64,
        t1: f64,
        every_n: usize,
    ) -> Vec<ScheduleEntry> {
        assert!(every_n >= 1);
        let l = model.cfg.seq_len;
        let ts = trace.timestamps();
        let mut out = Vec::new();
        let mut t = t0;
        let mut idx = trace.lower_bound(t0);
        while t < t1 {
            let config = match window_at_time(trace, t, l, 1.0) {
                Some(w) => self.optimizer.choose(model, &w.interarrivals).chosen.config,
                None => self.bootstrap,
            };
            // Next decision: after `every_n` further arrivals (or t1).
            idx = (idx + every_n).min(ts.len());
            let end = if idx >= ts.len() { t1 } else { ts[idx].min(t1) };
            let end = if end <= t { t1 } else { end };
            out.push((t, end, config));
            t = end;
        }
        out
    }

    /// Schedule then measure in one call.
    pub fn run(
        &self,
        model: &Surrogate,
        trace: &Trace,
        t0: f64,
        t1: f64,
    ) -> (Vec<ScheduleEntry>, Vec<IntervalMeasurement>) {
        let schedule = self.schedule(model, trace, t0, t1);
        let measured = measure_schedule(
            trace,
            &schedule,
            &self.params,
            self.optimizer.slo,
            self.optimizer.percentile,
        );
        (schedule, measured)
    }

    /// Schedule, measure, and merge into the full audit trail: one
    /// [`DecisionRecord`] per decision interval with both the controller's
    /// predictions and the ground-truth measurements. Each completed
    /// record is emitted as a `controller.decision` telemetry event.
    pub fn run_audited(
        &self,
        model: &Surrogate,
        trace: &Trace,
        t0: f64,
        t1: f64,
    ) -> (Vec<IntervalMeasurement>, Vec<DecisionRecord>) {
        let (schedule, mut records) = self.schedule_audited(model, trace, t0, t1);
        let measured = measure_schedule(
            trace,
            &schedule,
            &self.params,
            self.optimizer.slo,
            self.optimizer.percentile,
        );
        // `measure_schedule` skips empty intervals, so join on start time
        // rather than position.
        let mut mi = measured.iter().peekable();
        for rec in &mut records {
            if let Some(m) = mi.peek() {
                if m.start == rec.start {
                    rec.record_measurement(m);
                    mi.next();
                }
            }
        }
        let t = dbat_telemetry::global();
        if t.is_enabled() {
            for rec in &records {
                t.emit("controller.decision", serde_json::to_value(rec));
            }
            t.flush();
        }
        (measured, records)
    }
}

impl Controller for DeepBatController {
    fn name(&self) -> &'static str {
        "deepbat"
    }

    fn decide(&mut self, ctx: &DecisionContext<'_>) -> DecisionRecord {
        let model = self.model.clone().expect(
            "DeepBatController: attach a surrogate with with_model() before closed-loop use",
        );
        self.decide_at(&model, ctx.trace, ctx.index, ctx.start, ctx.end)
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

/// Convenience: simulate one window's arrivals under one config and report
/// whether the p-percentile latency violates the SLO (used in tests and the
/// per-window VCR figures).
pub fn window_violates(
    window: &[f64],
    config: &LambdaConfig,
    params: &SimParams,
    slo: f64,
    percentile: f64,
) -> bool {
    let arrivals = window_to_arrivals(window);
    let sim = simulate_batching(&arrivals, config, params, None);
    sim.summary().percentile(percentile) > slo
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::surrogate::{Surrogate, SurrogateConfig};
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
    fn controller_schedule_spans_range() {
        let tr = trace();
        let ctl = DeepBatController::new(ConfigGrid::tiny(), 0.1);
        let m = model();
        let schedule = ctl.schedule(&m, &tr, 0.0, 300.0);
        assert_eq!(schedule.len(), 5);
        assert_eq!(schedule[0].0, 0.0);
        assert_eq!(schedule[4].1, 300.0);
        // The first decision at t = 0 has no history: bootstrap config.
        assert_eq!(schedule[0].2, ctl.bootstrap);
        // Later decisions come from the optimizer over the tiny grid.
        for &(_, _, c) in &schedule[1..] {
            assert!(ctl.optimizer.grid.configs().contains(&c));
        }
    }

    #[test]
    fn arrival_triggered_schedule_covers_and_densifies() {
        let tr = trace();
        let ctl = DeepBatController::new(ConfigGrid::tiny(), 0.1);
        let m = model();
        let sched = ctl.schedule_by_arrivals(&m, &tr, 0.0, 200.0, 500);
        // Coverage: contiguous, spans [0, 200).
        assert_eq!(sched.first().unwrap().0, 0.0);
        assert_eq!(sched.last().unwrap().1, 200.0);
        for w in sched.windows(2) {
            assert_eq!(w[0].1, w[1].0, "schedule must be contiguous");
        }
        // At ~30 req/s, 500-arrival periods last ~16.7 s each.
        let n_expected = (tr.count_in(0.0, 200.0) / 500).max(1);
        assert!(
            (sched.len() as i64 - n_expected as i64).unsigned_abs() <= 2,
            "{} entries vs ~{n_expected} expected",
            sched.len()
        );
        // Every interval's requests are measured exactly once.
        let ms = measure_schedule(&tr, &sched, &SimParams::default(), 0.1, 95.0);
        let total: usize = ms.iter().map(|x| x.requests).sum();
        assert_eq!(total, tr.count_in(0.0, 200.0));
    }

    #[test]
    fn run_produces_measurements() {
        let tr = trace();
        let ctl = DeepBatController::new(ConfigGrid::tiny(), 0.1);
        let (schedule, measured) = ctl.run(&model(), &tr, 0.0, 240.0);
        assert_eq!(schedule.len(), measured.len());
        let v = vcr_of(&measured);
        assert!((0.0..=100.0).contains(&v));
    }

    #[test]
    fn trait_run_matches_explicit_model_run() {
        let tr = trace();
        let m = Arc::new(model());
        let ctl = DeepBatController::new(ConfigGrid::tiny(), 0.1);
        let (_, explicit) = ctl.run(&m, &tr, 0.0, 240.0);

        let mut generic = ctl.clone().with_model(m.clone());
        let opts = dbat_sim::SimConfig::new(0.1);
        let out = run_controller(&mut generic, &tr, 0.0, 240.0, &opts);
        assert_eq!(out.measurements.len(), explicit.len());
        for (a, b) in out.measurements.iter().zip(&explicit) {
            assert_eq!(a.config, b.config);
            assert_eq!(a.summary.p95.to_bits(), b.summary.p95.to_bits());
            assert_eq!(a.cost_per_request.to_bits(), b.cost_per_request.to_bits());
        }
        assert_eq!(generic.audit().len(), 4);
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

    #[test]
    fn window_violates_consistency() {
        let w = vec![0.01; 32];
        let fast = LambdaConfig::new(3008, 1, 0.0);
        assert!(!window_violates(
            &w,
            &fast,
            &SimParams::default(),
            0.1,
            95.0
        ));
        let slow = LambdaConfig::new(512, 32, 5.0);
        assert!(window_violates(&w, &slow, &SimParams::default(), 0.1, 95.0));
    }
}
