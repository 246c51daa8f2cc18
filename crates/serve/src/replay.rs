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
//! A replay serves one fixed configuration. The closed loop runs offline
//! under [`dbat_sim::run_controller`] and live on the gateway's control
//! thread.

use crate::backend::{InferenceBackend, ProfiledBackend};
use crate::outcome::{Ledger, ServeCounts, ServeOutcome};
use dbat_sim::window::walk_windows;
use dbat_sim::{Feedback, LambdaConfig, SimParams};
use dbat_telemetry::Telemetry;
use std::sync::Arc;

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
            tel: Arc::default(),
        }
    }

    /// Trace into `tel` instead of the default fresh, disabled hub.
    /// Tracing reads only already-computed stamps, so a traced replay
    /// stays bitwise-identical to an untraced one.
    pub fn with_telemetry(mut self, tel: Arc<Telemetry>) -> Self {
        self.tel = tel;
        self
    }

    /// Replay a fixed configuration over a sorted, non-negative arrival
    /// sequence. Mirrors `simulate_batching(arrivals, config, ..)`.
    pub fn replay(&mut self, arrivals: &[f64], config: &LambdaConfig) -> ServeOutcome {
        assert!(
            arrivals.windows(2).all(|w| w[0] <= w[1]),
            "arrivals must be sorted"
        );
        assert!(
            arrivals.first().is_none_or(|&a| a >= 0.0),
            "arrivals must be non-negative"
        );
        let tracer = self.tel.tracer();
        let mut ledger = Ledger::new(true);
        // Tracing stages into a plain local Vec — the replay is
        // single-threaded, so per-event locks would be pure overhead —
        // and submits bounded chunks through one lock each.
        let mut trace_buf = tracer.is_active().then(Vec::new);
        let backend = self.backend;
        walk_windows(arrivals.iter().copied().enumerate(), config, |fb| {
            // Cost folds in dispatch order, the simulator's fold. The
            // replay never calls `execute` — each invocation runs on its
            // own autoscaled instance, so completion is dispatch +
            // planned service.
            let plan = backend.plan(&fb.config, fb.requests.len() as u32);
            let completed_at = fb.dispatched_at + plan.service_s;
            ledger.settle(&fb, &plan, completed_at, trace_buf.as_mut());
            if let Some(buf) = &mut trace_buf {
                if buf.len() >= TRACE_CHUNK {
                    tracer.record_many(buf);
                    buf.clear();
                }
            }
        });
        if let Some(buf) = &trace_buf {
            tracer.record_many(buf);
        }
        let n = arrivals.len() as u64;
        let counts = ServeCounts {
            submitted: n,
            accepted: n,
            ..ServeCounts::default()
        };
        // The replay has no worker pool, so nothing ever wakes, and no
        // controller, so no interval is measured.
        ledger.finish(counts, 0, Feedback::default())
    }
}

/// Staged trace events are pushed to the tracer in chunks of this many,
/// bounding the replay's local buffer when only the flight ring is armed.
const TRACE_CHUNK: usize = 16 * 1024;

#[cfg(test)]
mod tests {
    use super::*;
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
    fn empty_trace_replays_cleanly() {
        let params = SimParams::default();
        let mut gw = VirtualGateway::from_params(&params);
        let out = gw.replay(&[], &LambdaConfig::new(2048, 4, 0.05));
        assert!(out.requests.is_empty());
        assert_eq!(out.total_cost, 0.0);
        assert!(out.counts.conserved());
    }
}
