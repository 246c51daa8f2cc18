//! # dbat-sim
//!
//! Discrete-event serverless-batching simulator — the reproduction's
//! ground-truth oracle, mirroring how the paper obtains its ground truth
//! ("by simulation as in \[10\], \[18\]", §IV-A).
//!
//! One state machine forms batches; everything else drives it:
//!
//! * [`window`] — [`BatcherCore`], the paper's buffer rule (§III-B: open
//!   on the first arrival into an empty buffer, dispatch at `min(B-th
//!   arrival, open + T)`) as a clock-free state machine. It is the only
//!   place the rule is written, and it has two drivers:
//!   [`window::walk_windows`], the one loop over a finite arrival
//!   sequence under one configuration, behind every simulator
//!   below and `dbat-serve`'s virtual replay, and the live gateway's
//!   batcher threads;
//! * [`simulate_batching`] — the walk, each formed batch served on its own
//!   instance (the windowed token simulator serves them the same way);
//! * [`simulate_faults`] — the walk plus a seeded fault stage
//!   ([`FaultPlan`]: cold starts with a warm-container pool, failures +
//!   retry, throttling — on its own, an account concurrency quota — and
//!   stragglers) deciding what happens to each formed batch; its attempts
//!   and retries run on a private future-event list;
//! * [`LambdaConfig`] / [`ConfigGrid`] — `(M, B, T)` configurations and
//!   the shared search grid;
//! * [`ServiceProfile`] — deterministic profiled service-time surface
//!   `s(M, B)`;
//! * [`Pricing`] — AWS Lambda pay-as-you-go cost model;
//! * [`LatencySummary`] and [`vcr_of`] — latency summaries and the VCR
//!   metric (Eq. 11);
//! * [`Controller`] — the trait the closed-loop policies implement, with
//!   the shared measurement/audit machinery, the [`Feedback`] protocol
//!   (`decide` → measure → `observe` → `commit`) every closed-loop driver
//!   in the workspace runs, and the one interval driver behind
//!   [`run_controller`] and [`run_controller_tokens`];
//! * [`publish_decision`] / [`publish_sim`] — what a driver publishes;
//! * [`sweep()`] — rayon-parallel exhaustive grid search, and
//!   [`select_config`], the one Eq. (10) selection rule every policy
//!   applies to its own table;
//! * [`multi`] — multi-SLO request classes served by heterogeneous
//!   function groups, with the HarmonyBatch-style joint partition/config
//!   decision ([`joint_decide`]);
//! * [`simulate_tokens_windowed`] / [`simulate_tokens_continuous`] — the
//!   token-aware two-phase service model (prefill + per-step decode),
//!   KV-capacity-constrained admission, the continuous-batching
//!   discipline, and goodput under TTFT/TPOT SLOs.

mod batching;
mod config;
mod controller;
mod engine;
mod faults;
mod metrics;
pub mod multi;
mod pricing;
mod publish;
mod service;
mod sweep;
mod tokens;
pub mod window;

pub use batching::{simulate_batching, SimOutcome, SimParams};
pub use config::{ConfigGrid, LambdaConfig, SimConfig};
pub use controller::{
    hourly_vcr, run_controller, vcr_of, Controller, DecisionContext, DecisionRecord, Feedback,
    IntervalMeasurement, OracleController, RunOutcome, StaticController,
};
pub use faults::{
    simulate_faults, ColdStartFault, FailureFault, FaultCounts, FaultEvent, FaultPlan,
    FaultSimOutcome, RetryPolicy, StragglerFault, ThrottleFault,
};
pub use metrics::{LatencySummary, PERCENTILE_KEYS};
pub use multi::{
    joint_decide, simulate_batching_multi, simulate_faults_multi, single_config_baseline,
    ClassAssignment, FunctionGroup, GroupScorer, JointDecision, MultiSimOutcome, OracleGroupScorer,
};
pub use pricing::Pricing;
pub use publish::{publish_decision, publish_sim};
pub use service::ServiceProfile;
pub use sweep::{evaluate, ground_truth, select_config, sweep};
pub use tokens::{
    run_controller_tokens, simulate_tokens_continuous, simulate_tokens_windowed, Goodput,
    TokenParams, TokenSimOutcome,
};
pub use window::{Admitted, BatcherCore, FlushReason, FormedBatch};
