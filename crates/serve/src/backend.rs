//! Pluggable batch execution.
//!
//! The gateway separates *planning* a batch (how long will it run, what
//! will it cost — pure arithmetic) from *executing* it (occupying a
//! worker for that long). [`ProfiledBackend`], the default, plans with
//! exactly the simulator's arithmetic — [`ServiceProfile::service_time`]
//! then [`Pricing::invocation_cost`] — which is what makes the gateway
//! replay bitwise-equivalent to [`dbat_sim::simulate_batching`].
//! Execution sleeps the planned duration on the gateway clock, so live
//! runs occupy real (scaled) wall time; the replay only plans.

use crate::clock::Clock;
use dbat_sim::{FormedBatch, LambdaConfig, Pricing, ServiceProfile, SimParams};
use serde::{Deserialize, Serialize};

/// The planned outcome of one invocation: deterministic service time and
/// billed cost for a `(M, b)` pair.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct BatchPlan {
    /// Service time `s(M, b)` in virtual seconds.
    pub service_s: f64,
    /// Invocation cost in USD.
    pub cost: f64,
}

/// How the gateway turns a formed batch into elapsed time and money.
pub trait InferenceBackend: Send + Sync {
    /// Short label for telemetry and reports.
    fn name(&self) -> &'static str;

    /// Plan the invocation for a batch of `batch_size` under `config`.
    /// Must be pure: the replay calls it without executing.
    fn plan(&self, config: &LambdaConfig, batch_size: u32) -> BatchPlan;

    /// Execute the batch: occupy the worker for the planned duration.
    /// The default sleeps `plan.service_s` on the gateway clock; real
    /// backends would run a model here instead.
    fn execute(&self, clock: &dyn Clock, plan: &BatchPlan, batch: &FormedBatch) {
        let _ = batch;
        clock.sleep(plan.service_s);
    }
}

/// The calibrated default backend: service time and cost from the same
/// [`ServiceProfile`] and [`Pricing`] the simulator uses, so measured
/// latencies are directly comparable to simulated and predicted ones.
#[derive(Clone, Copy, Debug)]
pub struct ProfiledBackend {
    pub(crate) profile: ServiceProfile,
    pub(crate) pricing: Pricing,
}

impl ProfiledBackend {
    /// Adopt the profile and pricing of a simulation parameter set.
    /// (Cold starts are a simulator extension the gateway does not model;
    /// replays are compared against cold-start-free simulations.)
    pub fn from_params(params: &SimParams) -> Self {
        ProfiledBackend {
            profile: params.profile,
            pricing: params.pricing,
        }
    }
}

impl Default for ProfiledBackend {
    fn default() -> Self {
        ProfiledBackend::from_params(&SimParams::default())
    }
}

impl InferenceBackend for ProfiledBackend {
    fn name(&self) -> &'static str {
        "profiled"
    }

    fn plan(&self, config: &LambdaConfig, batch_size: u32) -> BatchPlan {
        let service_s = self.profile.service_time(config.memory_mb, batch_size);
        BatchPlan {
            service_s,
            cost: self.pricing.invocation_cost(config.memory_mb, service_s),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::WallClock;

    #[test]
    fn plan_matches_simulator_arithmetic_bitwise() {
        let params = SimParams::default();
        let backend = ProfiledBackend::from_params(&params);
        for (m, b) in [(1024u32, 1u32), (2048, 4), (3008, 16)] {
            let cfg = LambdaConfig::new(m, b, 0.1);
            let plan = backend.plan(&cfg, b);
            let service = params.profile.service_time(m, b);
            assert_eq!(plan.service_s.to_bits(), service.to_bits());
            assert_eq!(
                plan.cost.to_bits(),
                params.pricing.invocation_cost(m, service).to_bits()
            );
        }
    }

    #[test]
    fn default_execute_advances_clock_by_service_time() {
        // A thousandfold speedup keeps the real sleep well under 1 ms.
        let clock = WallClock::with_speedup(1000.0);
        let backend = ProfiledBackend::default();
        let cfg = LambdaConfig::new(2048, 4, 0.1);
        let plan = backend.plan(&cfg, 4);
        let batch = FormedBatch {
            requests: Vec::new(),
            config: cfg,
            opened_at: 1.9,
            dispatched_at: 2.0,
            reason: dbat_sim::FlushReason::Capacity,
            lane: 0,
        };
        let start = clock.now();
        backend.execute(&clock, &plan, &batch);
        assert!(clock.now() >= start + plan.service_s);
    }
}
