//! Deterministic replay: the gateway's batching and serving arithmetic
//! run as the one offline window walk.
//!
//! [`VirtualGateway`] forms windows with [`walk_windows`] — the walk over
//! the same window core ([`dbat_sim::BatcherCore`]) that every simulator
//! drives — and plans each batch with the gateway's [`ProfiledBackend`],
//! so every stamp is exact. This makes a replay **bitwise-equivalent** to
//! [`dbat_sim::simulate_batching`]: identical per-request
//! dispatch/completion/latency floats and identical per-invocation costs,
//! accumulated in the same dispatch order. The window stamps agree by
//! construction — both sides run the one walk — and
//! [`ProfiledBackend::plan`] is the simulator's service/cost arithmetic,
//! applied to the same `(M, b)` pairs.
//!
//! The two public replays (`replay`, `replay_controlled`) are one walk;
//! the controlled one adds the walk's decision boundaries, at which
//! [`ControlLoop`] runs the closed loop. A boundary comes before an
//! arrival at the same instant, so a request at exactly an interval
//! boundary arrives under the new configuration — the half-open
//! `[start, end)` convention of the offline driver.

use crate::backend::{BatchPlan, InferenceBackend, ProfiledBackend};
use crate::gateway::{push_admission_trace, push_batch_trace};
use crate::outcome::{ServeCounts, ServeOutcome, ServedBatch, ServedRequest};
use dbat_sim::window::walk_windows;
use dbat_sim::{
    Controller, DecisionContext, DecisionRecord, Feedback, FormedBatch, IntervalMeasurement,
    LambdaConfig, LatencySummary, SimConfig, SimParams,
};
use dbat_telemetry::{Telemetry, TraceEvent, Tracer};
use dbat_workload::Trace;
use std::sync::Arc;
use std::time::Instant;

/// The gateway, replayed deterministically.
pub struct VirtualGateway {
    backend: ProfiledBackend,
    tel: Arc<Telemetry>,
}

impl VirtualGateway {
    /// A gateway whose backend plans with exactly the simulator's
    /// profile and pricing — the bitwise-equivalent configuration.
    pub fn from_params(params: &SimParams) -> Self {
        VirtualGateway {
            backend: ProfiledBackend::from_params(params),
            tel: dbat_telemetry::global_arc(),
        }
    }

    /// Report to (and trace into) `tel` instead of the process-global
    /// hub. Tracing reads only already-computed stamps, so a traced
    /// replay stays bitwise-identical to an untraced one.
    pub fn with_telemetry(mut self, tel: Arc<Telemetry>) -> Self {
        self.tel = tel;
        self
    }

    /// Replay a fixed configuration over a sorted, non-negative arrival
    /// sequence. Mirrors `simulate_batching(arrivals, config, ..)`.
    pub fn replay(&mut self, arrivals: &[f64], config: &LambdaConfig) -> ServeOutcome {
        self.run(arrivals, config, None)
    }

    /// Replay a closed-loop controller over `[t0, t1)` of the trace:
    /// one decision per interval, applied by sealing the open batch
    /// window at the boundary (hot reconfiguration — formed windows are
    /// never split or dropped). Intervals are measured from the served
    /// requests once their last request completes, then fed back through
    /// `observe`/`commit` in interval order, exactly like the offline
    /// [`dbat_sim::run_controller`] protocol.
    pub fn replay_controlled(
        &mut self,
        ctl: &mut dyn Controller,
        trace: &Trace,
        t0: f64,
        t1: f64,
        opts: &SimConfig,
    ) -> ServeOutcome {
        assert!(
            opts.decision_interval > 0.0,
            "decision interval must be positive"
        );
        assert!(
            opts.faults.is_inert(),
            "the gateway does not inject faults; use the simulator for fault studies"
        );
        assert!(t0 >= 0.0 && t1 >= t0, "need 0 <= t0 <= t1");
        let control = ControlLoop::new(ctl, trace, t0, t1, opts);
        // The pre-boundary config is irrelevant: boundary 0 comes before
        // any arrival and rotates to the first decision.
        let initial = LambdaConfig::new(512, 1, 0.0);
        self.run(trace.slice_raw(t0, t1), &initial, Some(control))
    }

    /// The walk behind both replays; `control`, when present, supplies
    /// the decision boundaries and runs the closed loop at them.
    fn run(
        &mut self,
        arrivals: &[f64],
        config: &LambdaConfig,
        control: Option<ControlLoop<'_>>,
    ) -> ServeOutcome {
        assert!(
            arrivals.windows(2).all(|w| w[0] <= w[1]),
            "arrivals must be sorted"
        );
        assert!(
            arrivals.first().is_none_or(|&a| a >= 0.0),
            "arrivals must be non-negative"
        );
        let boundaries: Vec<f64> = control
            .iter()
            .flat_map(|c| &c.intervals)
            .map(|&(start, _)| start)
            .collect();
        let tracer = self.tel.tracer();
        let mut state = ReplayState {
            requests: vec![None; arrivals.len()],
            batches: Vec::new(),
            total_cost: 0.0,
            control,
            // Tracing stages into a plain local Vec — the replay is
            // single-threaded, so per-event locks would be pure overhead —
            // and submits bounded chunks through one lock each.
            trace_buf: tracer.is_active().then(Vec::new),
        };
        let backend = self.backend;
        walk_windows(
            arrivals.iter().copied().enumerate(),
            config,
            &boundaries,
            &mut state,
            |state, k| {
                let control = state.control.as_mut().expect("only control has boundaries");
                control.decide(k, &state.requests)
            },
            |state, fb| {
                let plan = backend.plan(&fb.config, fb.requests.len() as u32);
                state.settle(&fb, &plan, tracer);
            },
        );
        if let Some(buf) = &state.trace_buf {
            tracer.record_many(buf);
        }
        state.into_outcome()
    }
}

/// Staged trace events are pushed to the tracer in chunks of this many,
/// bounding the replay's local buffer when only the flight ring is armed.
const TRACE_CHUNK: usize = 16 * 1024;

/// Everything a replay accumulates as the walk hands out batches.
struct ReplayState<'a> {
    requests: Vec<Option<ServedRequest>>,
    batches: Vec<ServedBatch>,
    total_cost: f64,
    control: Option<ControlLoop<'a>>,
    /// Trace events not yet submitted, when the tracer is armed.
    trace_buf: Option<Vec<TraceEvent>>,
}

impl ReplayState<'_> {
    /// Settle one freshly formed, planned batch: stamp completions and
    /// accumulate cost in dispatch order, the simulator's fold. The
    /// replay never calls `execute` — each invocation runs on its own
    /// autoscaled instance, so completion is dispatch + planned service.
    fn settle(&mut self, fb: &FormedBatch, plan: &BatchPlan, tracer: &Tracer) {
        let completed_at = fb.dispatched_at + plan.service_s;
        let batch_idx = self.batches.len();
        if let Some(buf) = &mut self.trace_buf {
            // Admission is staged with its batch, as the live worker does;
            // every event carries its own stamp.
            for r in &fb.requests {
                push_admission_trace(buf, r.id, r.arrival, fb.lane);
            }
            push_batch_trace(buf, fb, batch_idx as u64, completed_at, 0);
            if buf.len() >= TRACE_CHUNK {
                tracer.record_many(buf);
                buf.clear();
            }
        }
        self.batches.push(ServedBatch {
            opened_at: fb.opened_at,
            dispatched_at: fb.dispatched_at,
            completed_at,
            size: fb.requests.len() as u32,
            service_s: plan.service_s,
            cost: plan.cost,
            config: fb.config,
            reason: fb.reason,
            lane: fb.lane,
        });
        self.total_cost += plan.cost;
        for r in &fb.requests {
            let slot = &mut self.requests[r.id as usize];
            debug_assert!(slot.is_none(), "request {} served twice", r.id);
            *slot = Some(ServedRequest {
                id: r.id,
                arrival: r.arrival,
                dispatched_at: fb.dispatched_at,
                completed_at,
                batch: batch_idx,
                lane: fb.lane,
                class: r.class,
            });
        }
        if let Some(control) = &mut self.control {
            control.on_batch(fb, plan);
        }
    }

    fn into_outcome(self) -> ServeOutcome {
        let n = self.requests.len() as u64;
        let feedback = self
            .control
            .map_or_else(Feedback::default, |c| c.finish(&self.requests));
        let requests: Vec<ServedRequest> = self
            .requests
            .into_iter()
            .map(|r| r.expect("every request served"))
            .collect();
        ServeOutcome {
            requests,
            batches: self.batches,
            total_cost: self.total_cost,
            counts: ServeCounts {
                submitted: n,
                accepted: n,
                rejected: 0,
                completed: n,
                // The replay is single-threaded: no worker pool, no steals.
                steals: 0,
            },
            worker_wakeups: 0,
            measurements: feedback.measurements,
            records: feedback.records,
        }
    }
}

/// The closed loop of a controlled replay: the interval grid, which
/// interval every request id arrived in, and the [`Feedback`] protocol
/// run at the decision boundaries.
struct ControlLoop<'a> {
    ctl: &'a mut dyn Controller,
    trace: &'a Trace,
    opts: &'a SimConfig,
    /// `[start, end)` per interval, identical to `run_controller`'s grid.
    intervals: Vec<(f64, f64)>,
    /// Relative ids `[bounds[k], bounds[k + 1])` arrived in interval `k`.
    bounds: Vec<usize>,
    /// Per interval: requests not yet dispatched.
    remaining: Vec<usize>,
    /// Per interval: cost of the windows that opened in it.
    cost: Vec<f64>,
    /// Per interval: the decided-but-unmeasured record and when serving
    /// under it began.
    pending: Vec<Option<(DecisionRecord, Instant)>>,
    /// Head-of-line finalisation cursor.
    next_final: usize,
    decided: usize,
    feedback: Feedback,
}

impl<'a> ControlLoop<'a> {
    fn new(
        ctl: &'a mut dyn Controller,
        trace: &'a Trace,
        t0: f64,
        t1: f64,
        opts: &'a SimConfig,
    ) -> Self {
        let mut intervals: Vec<(f64, f64)> = Vec::new();
        let mut t = t0;
        while t < t1 {
            let end = (t + opts.decision_interval).min(t1);
            intervals.push((t, end));
            t = end;
        }
        let (lo, hi) = (trace.lower_bound(t0), trace.lower_bound(t1));
        let mut bounds: Vec<usize> = intervals
            .iter()
            .map(|&(s, _)| trace.lower_bound(s).clamp(lo, hi) - lo)
            .collect();
        bounds.push(hi - lo);
        let n = intervals.len();
        ControlLoop {
            ctl,
            trace,
            opts,
            remaining: (0..n).map(|k| bounds[k + 1] - bounds[k]).collect(),
            cost: vec![0.0; n],
            pending: vec![None; n],
            next_final: 0,
            decided: 0,
            feedback: Feedback::default(),
            intervals,
            bounds,
        }
    }

    fn interval_of(&self, id: u64) -> usize {
        self.bounds.partition_point(|&b| b <= id as usize) - 1
    }

    /// Boundary `k`: feed back every fully-served earlier interval, in
    /// order, then ask for the next decision — the closed loop.
    fn decide(&mut self, k: usize, served: &[Option<ServedRequest>]) -> LambdaConfig {
        self.finalize_ready(served);
        let (start, end) = self.intervals[k];
        let ctx = DecisionContext {
            trace: self.trace,
            start,
            end,
            index: k,
        };
        let rec = Feedback::decide(&mut *self.ctl, &ctx);
        self.pending[k] = Some((rec, Instant::now()));
        self.decided = k + 1;
        rec.config
    }

    /// Attribute a batch's cost to the interval its window opened in and
    /// retire its members from their intervals.
    fn on_batch(&mut self, fb: &FormedBatch, plan: &BatchPlan) {
        let k = self.interval_of(fb.requests[0].id);
        self.cost[k] += plan.cost;
        for r in &fb.requests {
            let k = self.interval_of(r.id);
            self.remaining[k] -= 1;
        }
    }

    /// Finalise, in interval order, every decided interval whose requests
    /// have all been served: build its measurement from the served
    /// records and close it.
    fn finalize_ready(&mut self, served: &[Option<ServedRequest>]) {
        while self.next_final < self.decided && self.remaining[self.next_final] == 0 {
            let j = self.next_final;
            let (rec, wall) = self.pending[j]
                .take()
                .expect("decided interval has a record");
            let ids = self.bounds[j]..self.bounds[j + 1];
            let n = ids.len();
            let measured = (n > 0).then(|| {
                let latencies: Vec<f64> = served[ids]
                    .iter()
                    .map(|r| r.as_ref().expect("interval fully served").latency())
                    .collect();
                IntervalMeasurement::new(
                    self.intervals[j],
                    rec.config,
                    LatencySummary::from_latencies(&latencies),
                    self.cost[j] / n as f64,
                    n,
                    (self.opts.slo, self.opts.percentile),
                    wall.elapsed().as_secs_f64(),
                )
            });
            self.feedback.close(&mut *self.ctl, rec, measured);
            self.next_final += 1;
        }
    }

    /// The trace has drained: finalise what is left.
    fn finish(mut self, served: &[Option<ServedRequest>]) -> Feedback {
        self.finalize_ready(served);
        debug_assert_eq!(
            self.next_final,
            self.intervals.len(),
            "every interval finalised"
        );
        self.feedback
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scripted::ScriptedController;
    use dbat_sim::simulate_batching;

    fn burst_trace() -> Vec<f64> {
        // Mixed capacity and timeout flushes.
        let mut ts: Vec<f64> = (0..40).map(|i| i as f64 * 0.013).collect();
        ts.extend((0..10).map(|i| 2.0 + i as f64 * 0.4));
        ts
    }

    #[test]
    fn fixed_replay_matches_simulator_bitwise() {
        let params = SimParams::default();
        for cfg in [
            LambdaConfig::new(2048, 4, 0.05),
            LambdaConfig::new(1024, 8, 0.025),
            LambdaConfig::new(3008, 1, 0.0),
        ] {
            let arrivals = burst_trace();
            let sim = simulate_batching(&arrivals, &cfg, &params, None);
            let mut gw = VirtualGateway::from_params(&params);
            let out = gw.replay(&arrivals, &cfg);
            assert_eq!(out.requests.len(), sim.requests.len());
            for (r, s) in out.requests.iter().zip(&sim.requests) {
                assert_eq!(r.arrival.to_bits(), s.arrival.to_bits());
                assert_eq!(r.dispatched_at.to_bits(), s.dispatch.to_bits());
                assert_eq!(r.completed_at.to_bits(), s.completion.to_bits());
                assert_eq!(r.batch, s.batch);
            }
            assert_eq!(out.batches.len(), sim.batches.len());
            for (b, s) in out.batches.iter().zip(&sim.batches) {
                assert_eq!(b.cost.to_bits(), s.cost.to_bits());
                assert_eq!(b.size, s.size);
            }
            assert_eq!(out.total_cost.to_bits(), sim.total_cost.to_bits());
        }
    }

    #[test]
    fn controlled_replay_commits_every_interval() {
        let params = SimParams::default();
        let trace = Trace::new(burst_trace(), 6.0);
        let a = LambdaConfig::new(2048, 4, 0.05);
        let b = LambdaConfig::new(1024, 8, 0.025);
        let mut ctl = ScriptedController::new(vec![a, b, a], 0.1);
        let opts = SimConfig::builder()
            .params(params)
            .slo(0.1)
            .decision_interval(2.0)
            .build()
            .unwrap();
        let mut gw = VirtualGateway::from_params(&params);
        let out = gw.replay_controlled(&mut ctl, &trace, 0.0, 6.0, &opts);
        assert_eq!(out.records.len(), 3);
        assert_eq!(out.records[0].config, a);
        assert_eq!(out.records[1].config, b);
        assert_eq!(out.counts.accepted, trace.len() as u64);
        assert_eq!(out.counts.completed, trace.len() as u64);
        assert!(out.counts.conserved());
        // Measurement requests partition the trace.
        let measured: usize = out.measurements.iter().map(|m| m.requests).sum();
        assert_eq!(measured, trace.len());
        // Records carry their measurements where the interval was non-empty.
        for r in &out.records {
            if r.requests > 0 {
                assert!(r.measured.is_some());
            }
        }
    }

    #[test]
    fn empty_trace_replays_cleanly() {
        let params = SimParams::default();
        let mut gw = VirtualGateway::from_params(&params);
        let out = gw.replay(&[], &LambdaConfig::new(2048, 4, 0.05));
        assert!(out.requests.is_empty());
        assert_eq!(out.total_cost, 0.0);
        assert!(out.counts.conserved());
    }
}
