//! What a finished gateway run looks like: per-request and per-batch
//! records mirroring the simulator's [`dbat_sim::SimOutcome`], plus the
//! admission accounting and (for controlled runs) the per-interval
//! measurements and decision audit trail.

use dbat_sim::{DecisionRecord, FlushReason, IntervalMeasurement, LambdaConfig, LatencySummary};
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

    /// Buffer wait (dispatch − arrival).
    pub fn wait(&self) -> f64 {
        self.dispatched_at - self.arrival
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
    /// Batches a worker popped from a lane other than its home lane
    /// (work-stealing; informational, not part of the conservation law).
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
    pub fn latencies(&self) -> Vec<f64> {
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

    /// Latency summary over one class's completed requests.
    pub fn class_summary(&self, class: ClassId) -> LatencySummary {
        let lat: Vec<f64> = self
            .requests
            .iter()
            .filter(|r| r.class == class)
            .map(|r| r.latency())
            .collect();
        LatencySummary::from_latencies(&lat)
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
            steals: 2,
        };
        assert!(ok.conserved());
        let leak = ServeCounts {
            submitted: 10,
            accepted: 7,
            rejected: 2,
            completed: 7,
            steals: 0,
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
                steals: 0,
            },
            worker_wakeups: 0,
            measurements: Vec::new(),
            records: Vec::new(),
        };
        assert_eq!(out.latencies(), vec![0.3, 0.25]);
        assert_eq!(out.mean_batch_size(), 2.0);
        assert_eq!(out.completed_by_lane(), vec![2]);
        assert_eq!(out.completed_by_class(), vec![1, 1]);
        assert_eq!(out.class_summary(1).count, 1);
        assert!((out.cost_per_request() - 5e-7).abs() < 1e-18);
        assert_eq!(out.requests[1].wait(), 0.05);
    }
}
