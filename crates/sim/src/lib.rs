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
//!   place the rule is written; the simulators below, `dbat-serve`'s
//!   virtual replay and its live batcher threads are all drivers of it;
//! * [`batching`] — [`simulate_batching`]: the arrivals walked through one
//!   core in a plain loop (the walk lives in [`window`], and the windowed
//!   token simulator shares it), each formed batch served on its own
//!   instance;
//! * [`faults`] — [`simulate_faults`]: the same core, with seeded fault
//!   injection (cold starts with a warm-container pool, failures + retry,
//!   throttling — on its own, an account concurrency quota — and
//!   stragglers) deciding what happens to each formed batch;
//! * [`engine`] — the future-event list the fault simulator and the
//!   virtual replay schedule deadlines, attempts and retries on;
//! * [`config`] — `(M, B, T)` configurations and the shared search grid;
//! * [`service`] — deterministic profiled service-time surface `s(M, B)`;
//! * [`pricing`] — AWS Lambda pay-as-you-go cost model;
//! * [`metrics`] — latency summaries and the VCR metric (Eq. 11);
//! * [`controller`] — the [`Controller`] trait the closed-loop policies
//!   implement, the shared measurement/audit machinery, the [`Feedback`]
//!   protocol (`decide` → measure → `observe` → `commit`) every
//!   closed-loop driver in the workspace runs, and the one interval
//!   driver behind [`run_controller`] and [`run_controller_tokens`];
//! * [`mod@sweep`] — rayon-parallel exhaustive grid search (Eq. 10 optimum);
//! * [`multi`] — multi-SLO request classes served by heterogeneous
//!   function groups, with the HarmonyBatch-style joint partition/config
//!   decision ([`joint_decide`]);
//! * [`tokens`] — the token-aware two-phase service model (prefill +
//!   per-step decode), KV-capacity-constrained admission, the
//!   continuous-batching discipline, and goodput
//!   under TTFT/TPOT SLOs.

pub mod batching;
pub mod config;
pub mod controller;
pub mod engine;
pub mod faults;
pub mod metrics;
pub mod multi;
pub mod pricing;
pub mod service;
pub mod sweep;
pub mod tokens;
pub mod window;

pub use batching::{simulate_batching, BatchRecord, RequestRecord, SimOutcome, SimParams};
pub use config::{
    ConfigGrid, LambdaConfig, SimConfig, SimConfigBuilder, MEMORY_MAX_MB, MEMORY_MIN_MB,
};
pub use controller::{
    hourly_vcr, record_sim_trace, run_controller, vcr_of, Controller, DecisionContext,
    DecisionRecord, Feedback, IntervalMeasurement, OracleController, RunOutcome, StaticController,
};
pub use faults::{
    simulate_faults, ColdStartFault, FailureFault, FaultCounts, FaultEvent, FaultPlan,
    FaultPlanBuilder, FaultSimOutcome, RetryPolicy, StragglerFault, ThrottleFault,
};
pub use metrics::{vcr, LatencySummary, PERCENTILE_KEYS};
pub use multi::{
    joint_decide, simulate_batching_multi, simulate_faults_multi, single_config_baseline,
    ClassAssignment, ClassOutcome, FunctionGroup, GroupOutcome, GroupScore, GroupScorer,
    JointDecision, MultiSimOutcome, OracleGroupScorer,
};
pub use pricing::Pricing;
pub use service::ServiceProfile;
pub use sweep::{best_feasible, evaluate, ground_truth, sweep, Evaluation};
pub use tokens::{
    ceil_ms, run_controller_tokens, simulate_tokens_continuous, simulate_tokens_windowed, Goodput,
    TokenInvocation, TokenParams, TokenProfile, TokenRequestRecord, TokenSimOutcome,
};
pub use window::{Admitted, BatcherCore, FlushReason, FormedBatch};
