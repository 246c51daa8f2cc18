//! The serverless batching simulation — the paper's ground-truth oracle.
//!
//! Semantics (identical to BATCH and to DeepBAT's Buffer, §III-B):
//! a batch window opens when a request enters an *empty* buffer; the batch
//! dispatches at `min(arrival of the B-th request, open_time + T)` — the
//! rule [`crate::window::BatcherCore`] implements and this module drives. Each
//! dispatch is one serverless invocation with deterministic service time
//! `s(M, b)` for realised batch size `b`. Autoscaling gives every batch its
//! own function instance, so batches never queue behind each other.
//! A request's latency is `dispatch − arrival + s(M, b)`; cold starts and
//! the other platform faults are [`crate::faults`]' business.

use crate::config::LambdaConfig;
use crate::metrics::LatencySummary;
use crate::pricing::Pricing;
use crate::service::ServiceProfile;
use crate::window::walk_windows;
use dbat_workload::Rng;
use serde::{Deserialize, Serialize};

/// Environment parameters shared across simulations.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct SimParams {
    pub profile: ServiceProfile,
    pub pricing: Pricing,
}

impl Default for SimParams {
    fn default() -> Self {
        SimParams {
            profile: ServiceProfile::ted_lium_like(),
            pricing: Pricing::aws_lambda(),
        }
    }
}

/// One dispatched invocation.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct BatchRecord {
    /// Time the batch window opened (first arrival into the empty buffer).
    pub opened_at: f64,
    /// Dispatch time (buffer full or timeout).
    pub dispatched_at: f64,
    /// Realised batch size (1 ..= B).
    pub size: u32,
    /// Service time of the invocation.
    pub service_s: f64,
    /// Cold-start delay paid by this invocation (0 when warm; only the
    /// fault layer's container pool ever charges one).
    pub(crate) cold_start_s: f64,
    /// Invocation cost in USD.
    pub cost: f64,
}

/// One served request.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct RequestRecord {
    pub arrival: f64,
    pub dispatch: f64,
    pub completion: f64,
    /// Index into [`SimOutcome::batches`].
    pub batch: usize,
}

impl RequestRecord {
    /// End-to-end latency (completion − arrival).
    pub fn latency(&self) -> f64 {
        self.completion - self.arrival
    }

    /// Buffer wait (dispatch − arrival).
    pub fn wait(&self) -> f64 {
        self.dispatch - self.arrival
    }
}

/// Full simulation output.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct SimOutcome {
    pub requests: Vec<RequestRecord>,
    pub batches: Vec<BatchRecord>,
    pub total_cost: f64,
}

impl SimOutcome {
    /// Every arrival recorded, none dispatched yet: where a simulation starts.
    pub(crate) fn unserved(arrivals: &[f64]) -> Self {
        let pending = |&arrival| RequestRecord {
            arrival,
            dispatch: 0.0,
            completion: 0.0,
            batch: 0,
        };
        SimOutcome {
            requests: arrivals.iter().map(pending).collect(),
            batches: Vec::new(),
            total_cost: 0.0,
        }
    }

    pub fn latencies(&self) -> Vec<f64> {
        self.requests.iter().map(|r| r.latency()).collect()
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

    pub fn summary(&self) -> LatencySummary {
        LatencySummary::from_owned(self.latencies())
    }
}

/// Simulate the batching buffer over a finite arrival sequence: the
/// window walk (`window::walk_windows`) forms the batches, and each one is
/// served on its own autoscaled instance for `s(M, b)`.
///
/// Timestamps must be sorted ascending (the usual output of the workload
/// generators). Nothing reads the fourth parameter. It stays because
/// `benchmark/` calls `simulate_batching(.., None)` and a change to this
/// crate may not edit `benchmark/` in the same PR; ROADMAP item 1(e) lists
/// its removal.
pub fn simulate_batching(
    arrivals: &[f64],
    cfg: &LambdaConfig,
    params: &SimParams,
    _unused: Option<&mut Rng>,
) -> SimOutcome {
    simulate_shape(arrivals, cfg, &[cfg.memory_mb], params).swap_remove(0)
}

/// [`simulate_batching`] at each of `memories_mb`, in order, from one window
/// walk under `cfg`'s `(B, T)`: memory never moves a window (§III-B), and
/// each size prices `s(M, b)` once per realised batch size.
pub(crate) fn simulate_shape(
    arrivals: &[f64],
    cfg: &LambdaConfig,
    memories_mb: &[u32],
    params: &SimParams,
) -> Vec<SimOutcome> {
    debug_assert!(
        arrivals.windows(2).all(|w| w[0] <= w[1]),
        "arrivals must be sorted"
    );
    // Per size: its `(service_s, cost)` by batch size, and its outcome.
    let slots = (cfg.batch_size as usize).min(arrivals.len()) + 1;
    let mut sizes: Vec<_> = memories_mb
        .iter()
        .map(|&m| (m, vec![None; slots], SimOutcome::unserved(arrivals)))
        .collect();
    let arrivals = arrivals.iter().copied().enumerate();
    walk_windows(arrivals, cfg, |fb| {
        let size = fb.requests.len() as u32;
        for (memory_mb, prices, out) in &mut sizes {
            let (service, cost) = *prices[size as usize].get_or_insert_with(|| {
                let service = params.profile.service_time(*memory_mb, size);
                (service, params.pricing.invocation_cost(*memory_mb, service))
            });
            let batch_idx = out.batches.len();
            out.batches.push(BatchRecord {
                opened_at: fb.opened_at,
                dispatched_at: fb.dispatched_at,
                size,
                service_s: service,
                cold_start_s: 0.0,
                cost,
            });
            out.total_cost += cost;
            for r in &fb.requests {
                let rec = &mut out.requests[r.id as usize];
                rec.dispatch = fb.dispatched_at;
                rec.completion = fb.dispatched_at + service;
                rec.batch = batch_idx;
            }
        }
    });
    sizes.into_iter().map(|(_, _, out)| out).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params() -> SimParams {
        SimParams::default()
    }

    #[test]
    fn batch_of_one_when_b1() {
        let cfg = LambdaConfig::new(2048, 1, 0.5);
        let out = simulate_batching(&[0.0, 0.1, 0.2], &cfg, &params(), None);
        assert_eq!(out.batches.len(), 3);
        assert!(out.batches.iter().all(|b| b.size == 1));
        // Latency == service time exactly (no wait).
        let s = params().profile.service_time(2048, 1);
        for r in &out.requests {
            assert!((r.latency() - s).abs() < 1e-12);
            assert_eq!(r.wait(), 0.0);
        }
    }

    #[test]
    fn full_batch_dispatches_at_bth_arrival() {
        let cfg = LambdaConfig::new(2048, 3, 10.0);
        let out = simulate_batching(&[0.0, 0.1, 0.2, 0.3], &cfg, &params(), None);
        assert_eq!(out.batches.len(), 2);
        assert_eq!(out.batches[0].size, 3);
        assert!((out.batches[0].dispatched_at - 0.2).abs() < 1e-12);
        // Last request waits for the timeout.
        assert_eq!(out.batches[1].size, 1);
        assert!((out.batches[1].dispatched_at - (0.3 + 10.0)).abs() < 1e-9);
    }

    #[test]
    fn timeout_fires_for_partial_batch() {
        let cfg = LambdaConfig::new(2048, 8, 0.05);
        let out = simulate_batching(&[0.0, 0.01], &cfg, &params(), None);
        assert_eq!(out.batches.len(), 1);
        assert_eq!(out.batches[0].size, 2);
        assert!((out.batches[0].dispatched_at - 0.05).abs() < 1e-12);
        // First request waited the full timeout.
        assert!((out.requests[0].wait() - 0.05).abs() < 1e-12);
        assert!((out.requests[1].wait() - 0.04).abs() < 1e-12);
    }

    #[test]
    fn timeout_zero_means_no_batching() {
        let cfg = LambdaConfig::new(2048, 8, 0.0);
        let out = simulate_batching(&[0.0, 0.5, 1.0], &cfg, &params(), None);
        assert_eq!(out.batches.len(), 3);
        assert!(out.batches.iter().all(|b| b.size == 1));
    }

    #[test]
    fn stale_timeout_ignored_after_full_dispatch() {
        // Batch fills before its timeout; the next window must not be cut
        // short by the stale timer.
        let cfg = LambdaConfig::new(2048, 2, 1.0);
        let out = simulate_batching(&[0.0, 0.1, 0.2], &cfg, &params(), None);
        assert_eq!(out.batches.len(), 2);
        assert_eq!(out.batches[0].size, 2);
        // Third request dispatches at its own timeout (0.2 + 1.0), not at 1.0.
        assert!((out.batches[1].dispatched_at - 1.2).abs() < 1e-9);
    }

    #[test]
    fn every_request_served_once() {
        let cfg = LambdaConfig::new(1024, 4, 0.03);
        let arrivals: Vec<f64> = (0..137).map(|i| i as f64 * 0.013).collect();
        let out = simulate_batching(&arrivals, &cfg, &params(), None);
        assert_eq!(out.requests.len(), 137);
        let sizes: u32 = out.batches.iter().map(|b| b.size).sum();
        assert_eq!(sizes, 137);
        for r in &out.requests {
            assert!(r.dispatch >= r.arrival);
            assert!(r.completion > r.dispatch);
        }
    }

    #[test]
    fn cost_accumulates_per_invocation() {
        let cfg = LambdaConfig::new(1024, 2, 0.1);
        let out = simulate_batching(&[0.0, 0.01, 5.0], &cfg, &params(), None);
        assert_eq!(out.batches.len(), 2);
        let expect: f64 = out.batches.iter().map(|b| b.cost).sum();
        assert!((out.total_cost - expect).abs() < 1e-15);
        assert!(out.cost_per_request() > 0.0);
    }

    #[test]
    fn batching_cheaper_than_singles_on_dense_arrivals() {
        let arrivals: Vec<f64> = (0..512).map(|i| i as f64 * 0.002).collect();
        let single =
            simulate_batching(&arrivals, &LambdaConfig::new(2048, 1, 0.0), &params(), None);
        let batched = simulate_batching(
            &arrivals,
            &LambdaConfig::new(2048, 16, 0.1),
            &params(),
            None,
        );
        assert!(
            batched.cost_per_request() < 0.5 * single.cost_per_request(),
            "batched {} vs single {}",
            batched.cost_per_request(),
            single.cost_per_request()
        );
        // ... but latency is worse (Fig. 1 trade-off).
        assert!(batched.summary().p95 > single.summary().p95);
    }

    #[test]
    fn empty_arrivals_empty_outcome() {
        let cfg = LambdaConfig::new(1024, 4, 0.1);
        let out = simulate_batching(&[], &cfg, &params(), None);
        assert!(out.requests.is_empty());
        assert!(out.batches.is_empty());
        assert_eq!(out.total_cost, 0.0);
        assert_eq!(out.cost_per_request(), 0.0);
    }

    #[test]
    fn negative_window_timestamps_supported() {
        // Sliced windows can start at negative offsets after rebasing.
        let cfg = LambdaConfig::new(1024, 2, 0.05);
        let out = simulate_batching(&[-1.0, -0.99], &cfg, &params(), None);
        assert_eq!(out.batches.len(), 1);
        assert!((out.requests[0].arrival - (-1.0)).abs() < 1e-12);
        assert!(out.requests[0].dispatch >= -1.0);
    }
}
