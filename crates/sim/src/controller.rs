//! The unified controller API: every closed-loop policy (DeepBAT's
//! surrogate-driven optimizer, the analytic BATCH baseline, a fixed
//! static configuration, the clairvoyant oracle) implements the
//! [`Controller`] trait, and one generic driver — [`run_controller`] —
//! replays any of them against a trace, with or without injected faults.
//!
//! The trait lives here (not in `dbat-core`) because the crate DAG flows
//! `sim → {analytic, core}`: `dbat-analytic` cannot depend on `dbat-core`
//! (core dev-depends on analytic), so the only crate both can name is
//! this one. The shared measurement machinery (`IntervalMeasurement`,
//! `DecisionRecord`, VCR aggregation) and the [`Feedback`] protocol every
//! closed-loop driver runs live here for the same reason.

use crate::batching::{SimOutcome, SimParams};
use crate::config::{LambdaConfig, SimConfig};
use crate::faults::{simulate_faults, FaultCounts};
use crate::metrics::LatencySummary;
use crate::sweep::ground_truth;
use dbat_telemetry::{FlushKind, SpanId, TraceConfig, TraceEvent, TraceId, TraceStage, Tracer};
use dbat_workload::{Trace, WindowStats};
use serde::{Deserialize, Serialize};

/// Measured outcome of serving one interval of the trace with one config.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct IntervalMeasurement {
    pub start: f64,
    pub end: f64,
    pub config: LambdaConfig,
    /// Latency summary over the *served* requests of the interval.
    pub summary: LatencySummary,
    pub cost_per_request: f64,
    /// Requests that arrived in the interval (served or not).
    pub requests: usize,
    /// Measured `percentile(p) > SLO` for this interval (the VCR
    /// numerator); under faults, losing any request also violates.
    pub violation: bool,
    /// Fault accounting (all zero on the fault-free path).
    pub cold_starts: usize,
    pub retries: usize,
    /// Requests lost to shedding or retry exhaustion.
    pub lost: usize,
    /// Wall-clock seconds spent producing this measurement: the
    /// simulation call offline, the serve-to-finalisation span in the
    /// live gateway. Lets JSONL audit trails from both paths be compared
    /// on the same axis.
    pub wall_s: f64,
}

impl IntervalMeasurement {
    /// A loss-free measurement of `[start, end)` served under `config`:
    /// the interval violates when the measured `percentile` exceeds `slo`.
    pub fn new(
        (start, end): (f64, f64),
        config: LambdaConfig,
        summary: LatencySummary,
        cost_per_request: f64,
        requests: usize,
        (slo, percentile): (f64, f64),
        wall_s: f64,
    ) -> Self {
        IntervalMeasurement {
            start,
            end,
            config,
            summary,
            cost_per_request,
            requests,
            violation: summary.percentile(percentile) > slo,
            cold_starts: 0,
            retries: 0,
            lost: 0,
            wall_s,
        }
    }

    /// Add the fault accounting; losing any request also violates.
    pub(crate) fn with_losses(mut self, cold_starts: usize, retries: usize, lost: usize) -> Self {
        self.cold_starts = cold_starts;
        self.retries = retries;
        self.lost = lost;
        self.violation |= lost > 0;
        self
    }
}

/// The decision-audit record: everything the controller knew and chose at
/// one decision interval, plus (when measured) what actually happened.
/// One of these is emitted per interval as a `controller.decision`
/// telemetry event; the JSONL stream is the controller's audit trail.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct DecisionRecord {
    /// Zero-based decision index within the run.
    pub index: usize,
    /// Interval `[start, end)` the decision governs (trace seconds).
    pub start: f64,
    pub end: f64,
    /// Interarrivals available to the parser at decision time (0 before
    /// the window warms up).
    pub window_len: usize,
    /// Log-scale summary of the decision window (`None` at bootstrap).
    pub window_stats: Option<WindowStats>,
    /// Number of candidate configurations the optimizer scored.
    pub grid_size: usize,
    /// True when the parser had no history and the bootstrap config was
    /// applied without consulting the surrogate.
    pub bootstrap: bool,
    /// True when no candidate met the (γ-tightened) SLO and the
    /// lowest-latency fallback was chosen.
    pub fallback: bool,
    /// True when the graceful-degradation wrapper overrode the inner
    /// policy with the safe configuration.
    pub degraded: bool,
    /// The configuration applied over the interval.
    pub config: LambdaConfig,
    /// Surrogate-predicted [p50, p90, p95, p99] for `config` (`None` at
    /// bootstrap).
    pub predicted_percentiles: Option<[f64; 4]>,
    /// Surrogate-predicted cost (µ$/req) for `config` (`None` at bootstrap).
    pub predicted_cost_micro: Option<f64>,
    /// Wall-clock seconds of surrogate inference + grid search.
    pub infer_s: f64,
    /// Wall-clock seconds of the whole `decide` call (window slicing +
    /// inference + bookkeeping; always ≥ `infer_s`). Stamped by the
    /// closed-loop drivers so live and simulated audit trails carry the
    /// same latency accounting.
    pub decide_s: f64,
    /// Ground-truth latency summary for the interval; `None` until the
    /// interval is measured or when it contained no arrivals.
    pub measured: Option<LatencySummary>,
    /// Measured cost per request (`None` like `measured`).
    pub measured_cost_per_request: Option<f64>,
    /// Requests served in the interval (0 until measured / when empty).
    pub requests: usize,
    /// Measured SLO violation flag (`None` until measured).
    pub violation: Option<bool>,
    /// The SLO and percentile the decision optimised for.
    pub slo: f64,
    pub percentile: f64,
}

impl DecisionRecord {
    /// A blank record for `config` over `[start, end)`: prediction and
    /// measurement fields start out empty/false. Controllers fill in what
    /// they know; the driver fills in what actually happened.
    pub fn new(
        index: usize,
        start: f64,
        end: f64,
        config: LambdaConfig,
        slo: f64,
        percentile: f64,
    ) -> Self {
        DecisionRecord {
            index,
            start,
            end,
            window_len: 0,
            window_stats: None,
            grid_size: 0,
            bootstrap: false,
            fallback: false,
            degraded: false,
            config,
            predicted_percentiles: None,
            predicted_cost_micro: None,
            infer_s: 0.0,
            decide_s: 0.0,
            measured: None,
            measured_cost_per_request: None,
            requests: 0,
            violation: None,
            slo,
            percentile,
        }
    }

    /// Absolute percentage error of the predicted constrained percentile
    /// against the measurement — the per-interval term of the online MAPE.
    /// `None` until measured, at bootstrap, or when the measured value is 0.
    pub fn online_ape(&self) -> Option<f64> {
        let pred = dbat_workload::stats::interp_tracked_percentile(
            &crate::metrics::PERCENTILE_KEYS,
            &self.predicted_percentiles?,
            self.percentile,
        );
        let truth = self.measured?.percentile(self.percentile);
        if truth > 0.0 {
            Some((pred - truth).abs() / truth * 100.0)
        } else {
            None
        }
    }

    /// Copy an interval measurement into the record's measured fields.
    pub(crate) fn record_measurement(&mut self, m: &IntervalMeasurement) {
        self.measured = Some(m.summary);
        self.measured_cost_per_request = Some(m.cost_per_request);
        self.requests = m.requests;
        self.violation = Some(m.violation);
    }
}

/// What a controller sees when asked for a decision: the trace up to (and
/// including) the decision boundary, and the interval the choice governs.
/// Controllers must only consult `trace` up to `start` — the driver hands
/// the full trace for slicing convenience, but peeking past the boundary
/// is clairvoyance (only [`OracleController`] does it, deliberately).
#[derive(Clone, Copy)]
pub struct DecisionContext<'a> {
    pub trace: &'a Trace,
    pub start: f64,
    pub end: f64,
    pub index: usize,
}

/// A closed-loop batching policy: asked for a configuration once per
/// decision interval, shown the measured outcome afterwards, and
/// accumulating an audit trail of [`DecisionRecord`]s.
///
/// The protocol per interval is: `decide` → (driver measures) →
/// `observe` → `commit`, run by [`Feedback`]. `commit`'s default just
/// archives the record; wrappers (graceful degradation) override it to
/// learn from the completed record.
pub trait Controller {
    /// Short policy label used in reports and telemetry.
    fn name(&self) -> &'static str;

    /// Choose a configuration for `[ctx.start, ctx.end)`.
    fn decide(&mut self, ctx: &DecisionContext<'_>) -> DecisionRecord;

    /// Feedback hook: the measured outcome of a previously decided
    /// interval. Default: ignore.
    fn observe(&mut self, _measurement: &IntervalMeasurement) {}

    /// Archive a completed (decided + measured) record. Default: append
    /// to the audit trail.
    fn commit(&mut self, record: DecisionRecord) {
        self.audit_mut().push(record);
    }

    /// The decision-audit trail accumulated so far.
    fn audit(&self) -> &[DecisionRecord];

    fn audit_mut(&mut self) -> &mut Vec<DecisionRecord>;
}

/// The trivial policy: one fixed configuration forever. The floor every
/// adaptive controller must beat, and the control arm of the fault
/// ablation.
#[derive(Clone, Debug)]
pub struct StaticController {
    pub(crate) config: LambdaConfig,
    pub(crate) slo: f64,
    pub percentile: f64,
    records: Vec<DecisionRecord>,
}

impl StaticController {
    pub fn new(config: LambdaConfig, slo: f64) -> Self {
        StaticController {
            config,
            slo,
            percentile: 95.0,
            records: Vec::new(),
        }
    }
}

impl Controller for StaticController {
    fn name(&self) -> &'static str {
        "static"
    }

    fn decide(&mut self, ctx: &DecisionContext<'_>) -> DecisionRecord {
        DecisionRecord::new(
            ctx.index,
            ctx.start,
            ctx.end,
            self.config,
            self.slo,
            self.percentile,
        )
    }

    fn audit(&self) -> &[DecisionRecord] {
        &self.records
    }

    fn audit_mut(&mut self) -> &mut Vec<DecisionRecord> {
        &mut self.records
    }
}

/// The clairvoyant upper bound: sweeps the grid on the interval's *own*
/// arrivals (ground-truth simulation) and picks the cheapest feasible
/// configuration. Deliberately peeks past the decision boundary.
#[derive(Clone, Debug)]
pub struct OracleController {
    pub(crate) grid: crate::config::ConfigGrid,
    pub params: SimParams,
    pub(crate) slo: f64,
    pub percentile: f64,
    /// Config used for intervals with no arrivals (nothing to optimise).
    pub(crate) idle: LambdaConfig,
    records: Vec<DecisionRecord>,
}

impl OracleController {
    pub fn new(grid: crate::config::ConfigGrid, slo: f64) -> Self {
        OracleController {
            grid,
            params: SimParams::default(),
            slo,
            percentile: 95.0,
            idle: LambdaConfig::new(512, 1, 0.0),
            records: Vec::new(),
        }
    }
}

impl Controller for OracleController {
    fn name(&self) -> &'static str {
        "oracle"
    }

    fn decide(&mut self, ctx: &DecisionContext<'_>) -> DecisionRecord {
        let slice = ctx.trace.slice(ctx.start, ctx.end);
        let config = if slice.is_empty() {
            self.idle
        } else {
            ground_truth(
                slice.timestamps(),
                &self.grid,
                &self.params,
                self.slo,
                self.percentile,
            )
            .map(|e| e.config)
            .unwrap_or(self.idle)
        };
        let mut rec = DecisionRecord::new(
            ctx.index,
            ctx.start,
            ctx.end,
            config,
            self.slo,
            self.percentile,
        );
        rec.grid_size = self.grid.len();
        rec
    }

    fn audit(&self) -> &[DecisionRecord] {
        &self.records
    }

    fn audit_mut(&mut self) -> &mut Vec<DecisionRecord> {
        &mut self.records
    }
}

/// VCR (Eq. 11) over a set of interval measurements.
pub fn vcr_of(measurements: &[IntervalMeasurement]) -> f64 {
    let flags: Vec<bool> = measurements.iter().map(|m| m.violation).collect();
    crate::metrics::vcr(&flags)
}

/// Per-hour VCR series (Figs. 8 and 10).
pub fn hourly_vcr(measurements: &[IntervalMeasurement], hours: usize, hour_s: f64) -> Vec<f64> {
    (0..hours)
        .map(|h| {
            let lo = h as f64 * hour_s;
            let hi = (h + 1) as f64 * hour_s;
            let flags: Vec<bool> = measurements
                .iter()
                .filter(|m| m.start >= lo && m.start < hi)
                .map(|m| m.violation)
                .collect();
            crate::metrics::vcr(&flags)
        })
        .collect()
}

/// Result of one closed-loop run.
#[derive(Clone, Debug)]
pub struct RunOutcome {
    pub measurements: Vec<IntervalMeasurement>,
    /// The records committed during this run (also appended to the
    /// controller's own audit trail).
    pub records: Vec<DecisionRecord>,
    /// Aggregate fault accounting over the whole run.
    pub counts: FaultCounts,
    /// Token-SLO goodput, reported by the token-aware driver
    /// ([`crate::tokens::run_controller_tokens`]); `None` on the
    /// token-blind paths, which have no TTFT/TPOT notion.
    pub goodput: Option<crate::tokens::Goodput>,
}

impl RunOutcome {
    pub fn vcr(&self) -> f64 {
        vcr_of(&self.measurements)
    }

    /// Request-weighted mean cost per request.
    pub fn cost_per_request(&self) -> f64 {
        let (cost, n) = self.measurements.iter().fold((0.0, 0usize), |(c, n), m| {
            let served = m.requests - m.lost;
            (c + m.cost_per_request * served as f64, n + served)
        });
        if n == 0 {
            0.0
        } else {
            cost / n as f64
        }
    }

    /// Fraction (%) of decisions where the degradation wrapper overrode
    /// the inner policy.
    pub fn degraded_rate(&self) -> f64 {
        if self.records.is_empty() {
            return 0.0;
        }
        self.records.iter().filter(|r| r.degraded).count() as f64 / self.records.len() as f64
            * 100.0
    }
}

/// Record causal trace events for every request and batch of a settled
/// simulation interval, reading only the outcome's existing stamps (no
/// new arithmetic, so replay equivalence guarantees are untouched).
///
/// `req_offset`/`batch_offset` globalise per-interval indices so trace
/// and span ids stay unique across a whole closed-loop run. The flush
/// reason is inferred exactly: a timeout flush can never reach the
/// configured batch size, so `size >= B` identifies capacity flushes.
pub(crate) fn record_sim_trace(
    tracer: &Tracer,
    out: &SimOutcome,
    config: &LambdaConfig,
    req_offset: u64,
    batch_offset: u64,
) {
    let cfg = TraceConfig {
        memory_mb: config.memory_mb,
        batch_size: config.batch_size,
        timeout_s: config.timeout_s,
        // The offline driver simulates one homogeneous pool.
        group: 0,
    };
    // Anchor each batch-level Flush on its first member request.
    let mut first_member: Vec<Option<u64>> = vec![None; out.batches.len()];
    for (ri, r) in out.requests.iter().enumerate() {
        if first_member[r.batch].is_none() {
            first_member[r.batch] = Some(req_offset + ri as u64);
        }
    }
    let reason_of = |size: u32| {
        if size >= config.batch_size {
            FlushKind::Capacity
        } else {
            FlushKind::Timeout
        }
    };
    // Stage the whole interval locally, publish through one lock.
    let mut events = Vec::with_capacity(out.batches.len() + 5 * out.requests.len());
    for (bi, b) in out.batches.iter().enumerate() {
        let Some(anchor) = first_member[bi] else {
            continue;
        };
        events.push(
            TraceEvent::new(TraceId(anchor), TraceStage::Flush, b.dispatched_at)
                .with_span(SpanId(batch_offset + bi as u64))
                .with_config(cfg)
                .with_reason(reason_of(b.size))
                .with_size(b.size),
        );
    }
    for (ri, r) in out.requests.iter().enumerate() {
        let id = TraceId(req_offset + ri as u64);
        let span = SpanId(batch_offset + r.batch as u64);
        let b = &out.batches[r.batch];
        events.push(TraceEvent::new(id, TraceStage::Admit, r.arrival));
        events.push(TraceEvent::new(id, TraceStage::Enqueue, r.arrival));
        events.push(
            TraceEvent::new(id, TraceStage::WindowJoin, r.arrival)
                .with_span(span)
                .with_config(cfg),
        );
        events.push(
            TraceEvent::new(id, TraceStage::Dispatch, r.dispatch)
                .with_span(span)
                .with_config(cfg)
                .with_reason(reason_of(b.size)),
        );
        events.push(TraceEvent::new(id, TraceStage::Complete, r.completion).with_span(span));
    }
    tracer.record_many(&events);
}

/// The feedback protocol of one closed-loop run, and what it has produced
/// so far. Every driver — [`run_controller`],
/// [`crate::tokens::run_controller_tokens`] and `dbat-serve`'s live
/// control thread — asks for decisions through
/// [`Feedback::decide`] and closes each interval through
/// [`Feedback::close`]; they differ only in *when* an interval's
/// measurement becomes available.
#[derive(Clone, Debug, Default)]
pub struct Feedback {
    /// Measurements of the non-empty intervals closed so far, in order.
    pub measurements: Vec<IntervalMeasurement>,
    /// The record the controller archived for every closed interval.
    pub records: Vec<DecisionRecord>,
}

impl Feedback {
    /// Ask `ctl` for a decision, stamping how long the call took.
    pub fn decide<C: Controller + ?Sized>(
        ctl: &mut C,
        ctx: &DecisionContext<'_>,
    ) -> DecisionRecord {
        let t_decide = std::time::Instant::now();
        let mut rec = ctl.decide(ctx);
        rec.decide_s = t_decide.elapsed().as_secs_f64();
        rec
    }

    /// Close a decided interval: copy what was measured into its record,
    /// show it to the controller (`observe`), then `commit`. `None` is an
    /// interval with no arrivals, which can neither cost nor violate and
    /// is committed unobserved.
    pub fn close<C: Controller + ?Sized>(
        &mut self,
        ctl: &mut C,
        mut rec: DecisionRecord,
        measured: Option<IntervalMeasurement>,
    ) {
        if let Some(m) = measured {
            rec.record_measurement(&m);
            ctl.observe(&m);
            self.measurements.push(m);
        }
        ctl.commit(rec);
        // The committed record may have been rewritten (degradation
        // wrappers annotate it), so archive what the controller kept.
        let kept = ctl.audit().last().expect("commit must archive the record");
        self.records.push(*kept);
    }
}

/// The offline interval driver shared by [`run_controller`] and
/// [`crate::tokens::run_controller_tokens`]: one `decide` → `measure` →
/// close cycle per decision interval of `[t0, t1)`. `measure` serves the
/// interval under the decided configuration and returns what happened, or
/// `None` for an interval with no arrivals.
///
/// Each completed record is emitted as a `controller.decision` telemetry
/// event — the audit trail — and the sinks are flushed.
pub(crate) fn drive_intervals<C: Controller + ?Sized>(
    ctl: &mut C,
    trace: &Trace,
    t0: f64,
    t1: f64,
    opts: &SimConfig,
    mut measure: impl FnMut(&DecisionContext<'_>, &LambdaConfig) -> Option<IntervalMeasurement>,
) -> Feedback {
    assert!(
        opts.decision_interval > 0.0,
        "decision interval must be positive"
    );
    let mut feedback = Feedback::default();
    let mut t = t0;
    let mut index = 0usize;
    while t < t1 {
        let end = (t + opts.decision_interval).min(t1);
        let ctx = DecisionContext {
            trace,
            start: t,
            end,
            index,
        };
        let rec = Feedback::decide(ctl, &ctx);
        let measured = measure(&ctx, &rec.config);
        feedback.close(ctl, rec, measured);
        t = end;
        index += 1;
    }
    let tel = dbat_telemetry::global();
    if tel.is_enabled() {
        for rec in &feedback.records {
            tel.emit("controller.decision", serde_json::to_value(rec));
        }
        tel.flush();
    }
    feedback
}

/// Drive any [`Controller`] over `[t0, t1)` of the trace, measuring each
/// decision interval with the ground-truth simulator.
///
/// With faults enabled, each interval runs under a sub-seeded copy of the
/// plan (seed ⊕ index·φ) so the whole run is reproducible yet intervals
/// draw independent fault streams; an interval that loses requests counts
/// as violated regardless of its latency percentile.
pub fn run_controller<C: Controller + ?Sized>(
    ctl: &mut C,
    trace: &Trace,
    t0: f64,
    t1: f64,
    opts: &SimConfig,
) -> RunOutcome {
    let mut counts = FaultCounts::default();
    let tracer = dbat_telemetry::global().tracer();
    let mut trace_req_offset = 0u64;
    let mut trace_batch_offset = 0u64;
    let feedback = drive_intervals(ctl, trace, t0, t1, opts, |ctx, config| {
        let slice = trace.slice(ctx.start, ctx.end.min(trace.horizon()));
        if slice.is_empty() {
            return None;
        }
        let plan = if opts.faults.is_inert() {
            opts.faults
        } else {
            let salt = (ctx.index as u64).wrapping_mul(0x9E3779B97F4A7C15);
            opts.faults.with_seed(opts.faults.seed ^ salt)
        };
        let t_wall = std::time::Instant::now();
        let out = simulate_faults(slice.timestamps(), config, &opts.params, &plan);
        counts.absorb(&out.counts);
        let m = IntervalMeasurement::new(
            (ctx.start, ctx.end),
            *config,
            out.summary(),
            out.cost_per_request(),
            out.sim.requests.len(),
            (opts.slo, opts.percentile),
            t_wall.elapsed().as_secs_f64(),
        )
        .with_losses(
            out.counts.cold_starts,
            out.counts.retries,
            out.counts.lost_requests(),
        );
        if tracer.is_active() {
            record_sim_trace(
                tracer,
                &out.sim,
                config,
                trace_req_offset,
                trace_batch_offset,
            );
        }
        trace_req_offset += out.sim.requests.len() as u64;
        trace_batch_offset += out.sim.batches.len() as u64;
        Some(m)
    });
    RunOutcome {
        measurements: feedback.measurements,
        records: feedback.records,
        counts,
        goodput: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batching::simulate_batching;
    use crate::config::ConfigGrid;
    use crate::faults::{FailureFault, FaultPlan};
    use dbat_workload::{Map, Rng};

    fn trace() -> Trace {
        let map = Map::poisson(30.0);
        let mut rng = Rng::new(4);
        Trace::new(map.simulate(&mut rng, 0.0, 600.0), 600.0)
    }

    #[test]
    fn record_sim_trace_reconstructs_latency_segments() {
        let tr = trace();
        let cfg = LambdaConfig::new(2048, 4, 0.05);
        let out = simulate_batching(
            &tr.timestamps()[..tr.lower_bound(60.0)],
            &cfg,
            &SimParams::default(),
            None,
        );
        assert!(!out.requests.is_empty() && !out.batches.is_empty());
        let hub = dbat_telemetry::Telemetry::new();
        hub.tracer().enable_capture();
        record_sim_trace(hub.tracer(), &out, &cfg, 1000, 50);
        let events = hub.tracer().drain();
        // Five per-request stages plus one batch-level Flush per batch.
        assert_eq!(events.len(), out.requests.len() * 5 + out.batches.len());
        // Drain is causally ordered within each trace: Admit ≤ Enqueue ≤
        // WindowJoin ≤ Dispatch ≤ Complete, and the segments reproduce
        // the simulator's wait/service decomposition exactly.
        for (ri, r) in out.requests.iter().enumerate() {
            let id = TraceId(1000 + ri as u64);
            let per: Vec<&TraceEvent> = events
                .iter()
                .filter(|e| e.trace == id && e.stage != TraceStage::Flush)
                .collect();
            assert_eq!(per.len(), 5);
            let t_of = |stage: TraceStage| per.iter().find(|e| e.stage == stage).unwrap().t;
            assert_eq!(t_of(TraceStage::Admit).to_bits(), r.arrival.to_bits());
            assert_eq!(t_of(TraceStage::Dispatch).to_bits(), r.dispatch.to_bits());
            assert_eq!(t_of(TraceStage::Complete).to_bits(), r.completion.to_bits());
            assert_eq!(
                (t_of(TraceStage::Dispatch) - t_of(TraceStage::WindowJoin)).to_bits(),
                r.wait().to_bits()
            );
        }
        // Flush reasons: full batches are Capacity, partial are Timeout.
        for e in events.iter().filter(|e| e.stage == TraceStage::Flush) {
            let size = e.size.unwrap();
            let expect = if size >= cfg.batch_size {
                FlushKind::Capacity
            } else {
                FlushKind::Timeout
            };
            assert_eq!(e.reason, Some(expect));
            assert_eq!(e.config.unwrap().batch_size, cfg.batch_size);
        }
    }

    #[test]
    fn run_controller_emits_trace_when_tracer_active() {
        // run_controller records through the GLOBAL hub's tracer; flip the
        // flight ring on (bounded, safe if a parallel test also records)
        // and check events landed.
        let tr = trace();
        let tracer = dbat_telemetry::global().tracer();
        tracer.enable_flight(4096);
        let mut ctl = StaticController::new(LambdaConfig::new(2048, 4, 0.05), 0.1);
        let out = run_controller(&mut ctl, &tr, 0.0, 120.0, &SimConfig::new(0.1));
        let events = tracer.take_flight();
        tracer.disable_flight();
        let total: usize = out.measurements.iter().map(|m| m.requests).sum();
        assert!(total > 0);
        let completes = events
            .iter()
            .filter(|e| e.stage == TraceStage::Complete)
            .count();
        // Ring may have wrapped or absorbed events from concurrent tests,
        // so assert presence, not exact equality.
        assert!(completes > 0, "expected Complete events in flight ring");
    }

    #[test]
    fn hourly_vcr_buckets() {
        let cfg = LambdaConfig::new(1024, 1, 0.0);
        let mk = |start: f64, violation: bool| IntervalMeasurement {
            start,
            end: start + 60.0,
            config: cfg,
            summary: LatencySummary::from_latencies(&[0.01]),
            cost_per_request: 1e-6,
            requests: 1,
            violation,
            cold_starts: 0,
            retries: 0,
            lost: 0,
            wall_s: 0.0,
        };
        let ms = vec![mk(0.0, true), mk(100.0, false), mk(3700.0, false)];
        let v = hourly_vcr(&ms, 2, 3600.0);
        assert_eq!(v.len(), 2);
        assert!((v[0] - 50.0).abs() < 1e-12);
        assert_eq!(v[1], 0.0);
    }

    #[test]
    fn faulted_run_is_seed_deterministic_and_counts_losses() {
        let tr = trace();
        let mut opts = SimConfig::new(0.1);
        opts.faults = FaultPlan {
            seed: 5,
            failures: Some(FailureFault {
                probability: 0.3,
                ..FailureFault::default()
            }),
            ..FaultPlan::default()
        };
        let run = |o: &SimConfig| {
            let mut ctl = StaticController::new(LambdaConfig::new(2048, 4, 0.05), 0.1);
            run_controller(&mut ctl, &tr, 0.0, 300.0, o)
        };
        let a = run(&opts);
        let b = run(&opts);
        assert!(a.counts.failures > 0, "expected injected failures");
        assert_eq!(a.counts, b.counts);
        for (x, y) in a.measurements.iter().zip(&b.measurements) {
            assert_eq!(x.cost_per_request.to_bits(), y.cost_per_request.to_bits());
        }
        // Intervals draw distinct substreams: not every interval sees the
        // identical fault pattern.
        let per_interval: Vec<usize> = a.measurements.iter().map(|m| m.retries).collect();
        assert!(per_interval.iter().any(|&r| r != per_interval[0]) || per_interval.len() <= 1);
    }

    #[test]
    fn oracle_picks_feasible_cheapest() {
        let tr = trace();
        let mut ctl = OracleController::new(ConfigGrid::tiny(), 0.1);
        let out = run_controller(&mut ctl, &tr, 0.0, 180.0, &SimConfig::new(0.1));
        assert_eq!(out.measurements.len(), 3);
        // The oracle cannot violate when a feasible config exists.
        for m in &out.measurements {
            assert!(!m.violation, "oracle violated at {}", m.start);
        }
    }

    #[test]
    fn decision_record_helpers() {
        let cfg = LambdaConfig::new(1024, 2, 0.01);
        let mut rec = DecisionRecord::new(3, 60.0, 120.0, cfg, 0.1, 95.0);
        assert!(!rec.degraded && !rec.fallback && rec.measured.is_none());
        assert_eq!(rec.online_ape(), None);
        let m = IntervalMeasurement {
            start: 60.0,
            end: 120.0,
            config: cfg,
            summary: LatencySummary::from_latencies(&[0.05; 10]),
            cost_per_request: 2e-6,
            requests: 10,
            violation: false,
            cold_starts: 0,
            retries: 0,
            lost: 0,
            wall_s: 0.0,
        };
        rec.record_measurement(&m);
        assert_eq!(rec.requests, 10);
        assert_eq!(rec.violation, Some(false));
        // online APE needs predictions too.
        assert_eq!(rec.online_ape(), None);
        rec.predicted_percentiles = Some([0.05, 0.05, 0.05, 0.05]);
        assert!(rec.online_ape().unwrap() < 1e-9);
    }
}
