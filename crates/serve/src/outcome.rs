//! What a finished gateway run looks like: per-request and per-batch
//! records mirroring the simulator's [`dbat_sim::SimOutcome`], plus the
//! admission accounting and (for controlled runs) the per-interval
//! measurements and decision audit trail — and the one [`Ledger`] both
//! gateways file their served batches into.

use crate::backend::BatchPlan;
use dbat_sim::{
    DecisionRecord, Feedback, FlushReason, FormedBatch, IntervalMeasurement, LambdaConfig,
    LatencySummary,
};
use dbat_telemetry::{FlushKind, SpanId, TraceConfig, TraceEvent, TraceId, TraceStage};
use dbat_workload::ClassId;
use serde::{Deserialize, Serialize};

/// One request as served by the gateway.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct ServedRequest {
    /// Gateway-assigned id, dense in admission order (0, 1, 2, ...).
    pub id: u64,
    /// Arrival stamp in virtual seconds.
    pub arrival: f64,
    /// Batch dispatch stamp.
    pub dispatched_at: f64,
    /// Completion stamp (dispatch + service).
    pub completed_at: f64,
    /// Index into [`ServeOutcome::batches`].
    pub batch: usize,
    /// Batcher lane that carried the request (0 in unsharded runs).
    pub lane: u32,
    /// Request class it was submitted under (0 in single-class runs).
    pub class: ClassId,
}

impl ServedRequest {
    /// End-to-end latency (completion − arrival).
    pub fn latency(&self) -> f64 {
        self.completed_at - self.arrival
    }
}

/// One dispatched invocation as executed by a worker.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct ServedBatch {
    pub opened_at: f64,
    pub dispatched_at: f64,
    pub completed_at: f64,
    pub size: u32,
    pub service_s: f64,
    pub cost: f64,
    /// The configuration epoch the batch was formed under.
    pub config: LambdaConfig,
    pub reason: FlushReason,
    /// Batcher lane that formed the window (0 in unsharded runs).
    pub lane: u32,
}

/// Admission accounting. The gateway's conservation law is
/// `submitted == accepted + rejected` and, after a graceful drain,
/// `completed == accepted`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ServeCounts {
    /// Requests offered to `submit`.
    pub submitted: u64,
    /// Requests admitted to the queue (assigned an id).
    pub accepted: u64,
    /// Requests refused by backpressure (or arriving after close).
    pub rejected: u64,
    /// Requests that finished execution.
    pub completed: u64,
    /// Always 0: every worker takes its batches from one shared ready
    /// queue. Kept only because `benchmark/` still constructs and reads it.
    pub steals: u64,
}

impl ServeCounts {
    /// Every submitted request is accounted for exactly once.
    pub fn conserved(&self) -> bool {
        self.submitted == self.accepted + self.rejected && self.completed <= self.accepted
    }
}

/// The full outcome of a gateway run (after shutdown/drain).
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct ServeOutcome {
    /// Completed requests in id (admission) order.
    pub requests: Vec<ServedRequest>,
    /// Dispatched batches. In virtual replays these are in dispatch
    /// order (matching the simulator); in live runs, completion order.
    pub batches: Vec<ServedBatch>,
    /// Total billed cost, accumulated in batch order.
    pub total_cost: f64,
    pub counts: ServeCounts,
    /// Times a pool worker was woken from its idle wait (live runs; 0 in
    /// replays, which have no pool). With one targeted wake per formed
    /// batch this stays within `batches + workers`; a broadcast hand-off
    /// shows up as roughly `workers × batches`.
    pub worker_wakeups: u64,
    /// Per-decision-interval measurements (controlled runs only).
    pub measurements: Vec<IntervalMeasurement>,
    /// Decision audit trail (controlled runs only).
    pub records: Vec<DecisionRecord>,
}

impl ServeOutcome {
    /// Latencies in request (admission) order.
    pub(crate) fn latencies(&self) -> Vec<f64> {
        self.requests.iter().map(|r| r.latency()).collect()
    }

    pub fn summary(&self) -> LatencySummary {
        LatencySummary::from_latencies(&self.latencies())
    }

    pub fn cost_per_request(&self) -> f64 {
        if self.requests.is_empty() {
            0.0
        } else {
            self.total_cost / self.requests.len() as f64
        }
    }

    pub fn mean_batch_size(&self) -> f64 {
        if self.batches.is_empty() {
            0.0
        } else {
            self.requests.len() as f64 / self.batches.len() as f64
        }
    }

    /// SLO violation-compliance rate over the measured intervals
    /// (controlled runs; 0 when no measurements were taken).
    pub fn vcr(&self) -> f64 {
        dbat_sim::vcr_of(&self.measurements)
    }

    /// Completed-request count per lane (index = lane id). Sums to
    /// `counts.completed` whenever per-request records were kept.
    pub fn completed_by_lane(&self) -> Vec<u64> {
        let lanes = self
            .requests
            .iter()
            .map(|r| r.lane as usize + 1)
            .max()
            .unwrap_or(0);
        let mut out = vec![0u64; lanes];
        for r in &self.requests {
            out[r.lane as usize] += 1;
        }
        out
    }

    /// Completed-request count per class (index = class id). Sums to
    /// `counts.completed` whenever per-request records were kept.
    pub fn completed_by_class(&self) -> Vec<u64> {
        let classes = self
            .requests
            .iter()
            .map(|r| r.class as usize + 1)
            .max()
            .unwrap_or(0);
        let mut out = vec![0u64; classes];
        for r in &self.requests {
            out[r.class as usize] += 1;
        }
        out
    }
}

/// Everything a run has served so far, filed one batch at a time by
/// [`Ledger::settle`] — the live worker's settle (under the gateway's
/// `done` lock) and the replay's are this one call.
#[derive(Default)]
pub(crate) struct Ledger {
    /// Keep per-request and per-batch records
    /// (`GatewayConfig::record_outcome`; replays always do).
    record: bool,
    /// Indexed by request id; `Some` once served. Empty without records.
    pub(crate) requests: Vec<Option<ServedRequest>>,
    /// In settle order: completion order live, dispatch order in replays.
    /// Empty without records.
    pub(crate) batches: Vec<ServedBatch>,
    /// Billed cost, accumulated in settle order.
    total_cost: f64,
    /// Requests settled.
    pub(crate) completed: u64,
    /// Batches settled: the next batch's index and trace span id, counted
    /// with or without records.
    settled: u64,
}

impl Ledger {
    pub(crate) fn new(record: bool) -> Ledger {
        Ledger {
            record,
            ..Ledger::default()
        }
    }

    /// File one executed batch that completed at `completed_at`: its
    /// cost, its records, and — into `trace`, when the tracer is armed —
    /// its full six-stage trace: admission and enqueue, window joins at
    /// each member's arrival, the batch-level flush, per-request dispatch
    /// and completion. Admission is staged here, not at admission: every
    /// event carries its own stamp, so deferring it keeps the admission
    /// path free of tracing locks without changing event content, and a
    /// caller submits a whole batch (or a whole replay) through one
    /// `Tracer::record_many`. Every event carries the batch's lane, so a
    /// sharded stream filters per lane; configurations are tagged with
    /// `group`, the function group owning the lane (0 outside multi-group
    /// serving).
    pub(crate) fn settle(
        &mut self,
        fb: &FormedBatch,
        plan: &BatchPlan,
        completed_at: f64,
        group: u32,
        trace: Option<&mut Vec<TraceEvent>>,
    ) {
        let batch = self.settled;
        self.settled += 1;
        self.completed += fb.requests.len() as u64;
        self.total_cost += plan.cost;
        if let Some(out) = trace {
            let lane = fb.lane;
            out.reserve(1 + 5 * fb.requests.len());
            for r in &fb.requests {
                // Both gateways admit and enqueue in the same instant (the
                // live one stamps arrival under the lane lock; the replay
                // has no admission queue), so both events take the arrival.
                let id = TraceId(r.id);
                out.push(TraceEvent::new(id, TraceStage::Admit, r.arrival).with_lane(lane));
                out.push(TraceEvent::new(id, TraceStage::Enqueue, r.arrival).with_lane(lane));
            }
            let span = SpanId(batch);
            let cfg = TraceConfig {
                memory_mb: fb.config.memory_mb,
                batch_size: fb.config.batch_size,
                timeout_s: fb.config.timeout_s,
                group,
            };
            let reason = match fb.reason {
                FlushReason::Capacity => FlushKind::Capacity,
                FlushReason::Timeout => FlushKind::Timeout,
                FlushReason::Drain => FlushKind::Drain,
            };
            out.push(
                TraceEvent::new(
                    TraceId(fb.requests[0].id),
                    TraceStage::Flush,
                    fb.dispatched_at,
                )
                .with_span(span)
                .with_config(cfg)
                .with_reason(reason)
                .with_size(fb.requests.len() as u32)
                .with_lane(lane),
            );
            for r in &fb.requests {
                let id = TraceId(r.id);
                out.push(
                    TraceEvent::new(id, TraceStage::WindowJoin, r.arrival)
                        .with_span(span)
                        .with_config(cfg)
                        .with_lane(lane),
                );
                out.push(
                    TraceEvent::new(id, TraceStage::Dispatch, fb.dispatched_at)
                        .with_span(span)
                        .with_config(cfg)
                        .with_reason(reason)
                        .with_lane(lane),
                );
                out.push(
                    TraceEvent::new(id, TraceStage::Complete, completed_at)
                        .with_span(span)
                        .with_lane(lane),
                );
            }
        }
        if !self.record {
            return;
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
        for r in &fb.requests {
            let id = r.id as usize;
            if self.requests.len() <= id {
                self.requests.resize(id + 1, None);
            }
            debug_assert!(self.requests[id].is_none(), "request {id} served twice");
            self.requests[id] = Some(ServedRequest {
                id: r.id,
                arrival: r.arrival,
                dispatched_at: fb.dispatched_at,
                completed_at,
                batch: batch as usize,
                lane: fb.lane,
                class: r.class,
            });
        }
    }

    /// The finished run. `counts` brings the admission side; `completed`
    /// is the ledger's own.
    pub(crate) fn finish(
        self,
        counts: ServeCounts,
        worker_wakeups: u64,
        feedback: Feedback,
    ) -> ServeOutcome {
        ServeOutcome {
            requests: self
                .requests
                .into_iter()
                .map(|r| r.expect("accepted request not served"))
                .collect(),
            batches: self.batches,
            total_cost: self.total_cost,
            counts: ServeCounts {
                completed: self.completed,
                ..counts
            },
            worker_wakeups,
            measurements: feedback.measurements,
            records: feedback.records,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conservation_law() {
        let ok = ServeCounts {
            submitted: 10,
            accepted: 7,
            rejected: 3,
            completed: 7,
            ..ServeCounts::default()
        };
        assert!(ok.conserved());
        let leak = ServeCounts {
            submitted: 10,
            accepted: 7,
            rejected: 2,
            completed: 7,
            ..ServeCounts::default()
        };
        assert!(!leak.conserved());
    }

    #[test]
    fn outcome_aggregates() {
        let cfg = LambdaConfig::new(2048, 2, 0.1);
        let out = ServeOutcome {
            requests: vec![
                ServedRequest {
                    id: 0,
                    arrival: 0.0,
                    dispatched_at: 0.1,
                    completed_at: 0.3,
                    batch: 0,
                    lane: 0,
                    class: 0,
                },
                ServedRequest {
                    id: 1,
                    arrival: 0.05,
                    dispatched_at: 0.1,
                    completed_at: 0.3,
                    batch: 0,
                    lane: 0,
                    class: 1,
                },
            ],
            batches: vec![ServedBatch {
                opened_at: 0.0,
                dispatched_at: 0.1,
                completed_at: 0.3,
                size: 2,
                service_s: 0.2,
                cost: 1e-6,
                config: cfg,
                reason: FlushReason::Capacity,
                lane: 0,
            }],
            total_cost: 1e-6,
            counts: ServeCounts {
                submitted: 2,
                accepted: 2,
                rejected: 0,
                completed: 2,
                ..ServeCounts::default()
            },
            worker_wakeups: 0,
            measurements: Vec::new(),
            records: Vec::new(),
        };
        assert_eq!(out.latencies(), vec![0.3, 0.25]);
        assert_eq!(out.mean_batch_size(), 2.0);
        assert_eq!(out.completed_by_lane(), vec![2]);
        assert_eq!(out.completed_by_class(), vec![1, 1]);
        assert!((out.cost_per_request() - 5e-7).abs() < 1e-18);
    }
}
