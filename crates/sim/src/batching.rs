//! The serverless batching simulation — the paper's ground-truth oracle.
//!
//! Semantics (identical to BATCH and to DeepBAT's Buffer, §III-B):
//! a batch window opens when a request enters an *empty* buffer; the batch
//! dispatches at `min(arrival of the B-th request, open_time + T)` — the
//! rule [`crate::window::BatcherCore`] implements and this module drives. Each
//! dispatch is one serverless invocation with deterministic service time
//! `s(M, b)` for realised batch size `b`. Autoscaling gives every batch its
//! own function instance, so batches never queue behind each other.
//! A request's latency is `dispatch − arrival + cold_start? + s(M, b)`.

use crate::config::LambdaConfig;
use crate::metrics::LatencySummary;
use crate::pricing::Pricing;
use crate::service::ServiceProfile;
use crate::window::{Admitted, BatcherCore, FlushReason, FormedBatch};
use dbat_workload::Rng;
use serde::{Deserialize, Serialize};

/// Optional cold-start model (an extension over the paper, default off):
/// each invocation independently pays `delay_s` with `probability`.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct ColdStart {
    pub probability: f64,
    pub delay_s: f64,
}

/// Environment parameters shared across simulations.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct SimParams {
    pub profile: ServiceProfile,
    pub pricing: Pricing,
    pub cold_start: Option<ColdStart>,
}

impl Default for SimParams {
    fn default() -> Self {
        SimParams {
            profile: ServiceProfile::ted_lium_like(),
            pricing: Pricing::aws_lambda(),
            cold_start: None,
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
    /// Cold-start delay paid by this invocation (0 when warm).
    pub cold_start_s: f64,
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
        LatencySummary::from_latencies(&self.latencies())
    }
}

/// Telemetry handles resolved once per simulation run, so the hot loop
/// never touches the metric registry. `None` when telemetry is disabled,
/// making instrumentation a single branch per use.
struct SimTel {
    events: std::sync::Arc<dbat_telemetry::Counter>,
    batch_size: std::sync::Arc<dbat_telemetry::Histogram>,
    flush_timeout: std::sync::Arc<dbat_telemetry::Counter>,
    flush_capacity: std::sync::Arc<dbat_telemetry::Counter>,
    cold_starts: std::sync::Arc<dbat_telemetry::Counter>,
    queue_depth: std::sync::Arc<dbat_telemetry::Gauge>,
}

impl SimTel {
    fn resolve() -> Option<SimTel> {
        let t = dbat_telemetry::global();
        if !t.is_enabled() {
            return None;
        }
        Some(SimTel {
            events: t.counter("sim.events"),
            batch_size: t.histogram("sim.batch_size"),
            flush_timeout: t.counter("sim.flush.timeout"),
            flush_capacity: t.counter("sim.flush.capacity"),
            cold_starts: t.counter("sim.cold_starts"),
            queue_depth: t.gauge("sim.queue_depth"),
        })
    }
}

/// Simulate the batching buffer over a finite arrival sequence: one
/// [`BatcherCore`] fed every arrival in order, then told that time has run
/// out. The core flushes a window's timeout when the next arrival (or the
/// end of the trace) shows it has passed, stamped at the deadline, so no
/// event queue is needed.
///
/// `rng` is only consulted when `params.cold_start` is set. Timestamps must
/// be sorted ascending (the usual output of the workload generators).
pub fn simulate_batching(
    arrivals: &[f64],
    cfg: &LambdaConfig,
    params: &SimParams,
    mut rng: Option<&mut Rng>,
) -> SimOutcome {
    debug_assert!(
        arrivals.windows(2).all(|w| w[0] <= w[1]),
        "arrivals must be sorted"
    );
    if params.cold_start.is_some() {
        assert!(rng.is_some(), "cold-start model requires an RNG");
    }

    // A trace that starts below zero is rebased to start at zero for the
    // core, and the stamps it returns are shifted back — the arithmetic
    // `tests/golden_windowed.rs` pins.
    let t0 = arrivals.first().copied().unwrap_or(0.0).min(0.0);
    let mut core = BatcherCore::new(*cfg);
    let mut formed: Vec<FormedBatch> = Vec::new();
    let mut out = SimOutcome::unserved(arrivals);
    let tel = SimTel::resolve();

    for (i, &a) in arrivals.iter().enumerate() {
        let req = Admitted {
            id: i as u64,
            arrival: a - t0,
            class: 0,
        };
        core.on_arrival(req, &mut formed);
        for fb in formed.drain(..) {
            dispatch(&fb, t0, params, &mut rng, &mut out, &tel);
        }
        if let Some(tel) = &tel {
            tel.queue_depth.set(core.buffered() as f64);
        }
    }
    core.due(f64::INFINITY, &mut formed);
    for fb in formed.drain(..) {
        dispatch(&fb, t0, params, &mut rng, &mut out, &tel);
    }
    if let Some(tel) = &tel {
        tel.events.add((arrivals.len() + out.batches.len()) as u64);
        tel.queue_depth.set(0.0);
    }
    out
}

/// Serve one formed batch on its own autoscaled instance.
fn dispatch(
    fb: &FormedBatch,
    t0: f64,
    params: &SimParams,
    rng: &mut Option<&mut Rng>,
    out: &mut SimOutcome,
    tel: &Option<SimTel>,
) {
    let size = fb.requests.len() as u32;
    let service = params.profile.service_time(fb.config.memory_mb, size);
    let cold = params
        .cold_start
        .zip(rng.as_deref_mut())
        .map_or(0.0, |(cs, r)| {
            if r.bernoulli(cs.probability) {
                cs.delay_s
            } else {
                0.0
            }
        });
    let cost = params.pricing.invocation_cost(fb.config.memory_mb, service);
    if let Some(tel) = tel {
        tel.batch_size.record(size as f64);
        match fb.reason {
            FlushReason::Timeout => tel.flush_timeout.inc(),
            _ => tel.flush_capacity.inc(),
        }
        if cold > 0.0 {
            tel.cold_starts.inc();
        }
    }
    let dispatched_at = fb.dispatched_at + t0;
    let batch_idx = out.batches.len();
    out.batches.push(BatchRecord {
        opened_at: fb.opened_at + t0,
        dispatched_at,
        size,
        service_s: service,
        cold_start_s: cold,
        cost,
    });
    out.total_cost += cost;
    for r in &fb.requests {
        let rec = &mut out.requests[r.id as usize];
        rec.dispatch = dispatched_at;
        rec.completion = dispatched_at + cold + service;
        rec.batch = batch_idx;
    }
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
    fn cold_start_adds_latency() {
        let cs = ColdStart {
            probability: 1.0,
            delay_s: 0.4,
        };
        let p = SimParams {
            cold_start: Some(cs),
            ..SimParams::default()
        };
        let mut rng = Rng::new(1);
        let cfg = LambdaConfig::new(2048, 1, 0.0);
        let out = simulate_batching(&[0.0], &cfg, &p, Some(&mut rng));
        assert!(
            (out.requests[0].latency() - (0.4 + p.profile.service_time(2048, 1))).abs() < 1e-12
        );
        assert_eq!(out.batches[0].cold_start_s, 0.4);
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
