//! # deepbat
//!
//! A complete Rust reproduction of **DeepBAT: Performance and Cost
//! Optimization of Serverless Inference Using Transformers** (Sun,
//! Pinciroli, Casale, Smirni — IPDPS 2025).
//!
//! DeepBAT replaces the matrix-analytic optimizer of BATCH (SC'20) with a
//! Transformer **deep surrogate model**: given a short window of request
//! inter-arrival times and a candidate serverless configuration
//! `(memory M, batch size B, timeout T)`, the surrogate predicts the
//! latency-percentile vector and monetary cost, and an exhaustive grid
//! search returns the cheapest SLO-feasible configuration — in
//! milliseconds instead of tens of seconds.
//!
//! This facade crate re-exports the whole workspace:
//!
//! | crate | contents |
//! |---|---|
//! | [`workload`] | MAP/MMPP arrival processes, the four synthetic evaluation traces, burstiness statistics (IDC/SCV/ACF), and the surrogate's input window (`window_at_time`: the last `l` inter-arrivals observed so far) |
//! | [`sim`] | the Buffer (`BatcherCore`, the one §III-B window rule), the discrete-event batching simulator + AWS Lambda cost model that drive it (the ground-truth oracle), seeded fault injection, and the control loop: the [`prelude::Controller`] trait under [`prelude::run_controller`] |
//! | [`linalg`] | dense matrices, LU, GTH, matrix exponentials (uniformization) |
//! | [`analytic`] | the BATCH baseline: MAP fitting + matrix-analytic latency model + grid optimizer |
//! | [`nn`] | tensors, Transformer layers compiled to one forward and its hand-written backward, Adam |
//! | [`core`] | DeepBAT itself: the Transformer surrogate, training/fine-tuning, the 2-step optimizer, and [`prelude::DeepBatController`] |
//! | [`serve`] | live threaded batching gateway: bounded admission, deadline batching, worker pool, hot controller reconfiguration, and a deterministic replay bitwise-equivalent to the simulator |
//! | [`telemetry`] | observability: counters/gauges/histograms, JSONL event sinks, causal request tracing with a flight recorder, and a pull-based Prometheus/JSON exporter |
//!
//! ## Quickstart
//!
//! ```no_run
//! use deepbat::prelude::*;
//!
//! // 1. A bursty workload and the shared configuration grid.
//! let trace = TraceKind::AzureLike.generate_for(7, 3_600.0);
//! let grid = ConfigGrid::paper_default();
//! let params = SimParams::default();
//!
//! // 2. Label random windows with the ground-truth simulator and train.
//! let data = generate_dataset(&trace, &grid, &params, 200, 64, 0.1, 1);
//! let mut model = Surrogate::new(
//!     SurrogateConfig { seq_len: 64, ..SurrogateConfig::default() }, 42);
//! train(&mut model, &data, &TrainConfig::fast());
//!
//! // 3. Ask DeepBAT for the cheapest configuration meeting a 100 ms p95 SLO.
//! let optimizer = DeepBatOptimizer::new(grid, 0.1);
//! let window = &data[0].window;
//! let decision = optimizer.choose(&model, window);
//! println!("serve with {}", decision.chosen.config);
//! ```
//!
//! ## Multi-SLO, multi-class serving
//!
//! Heterogeneous workloads carry more than one deadline. Tag the trace
//! with [`prelude::RequestClass`]es, let [`prelude::joint_decide`] merge
//! compatible SLOs into heterogeneous [`prelude::FunctionGroup`]s
//! (HarmonyBatch-style), and serve each group under its own `(M, B, T)`:
//!
//! ```no_run
//! use deepbat::prelude::*;
//!
//! // Two classes: interactive (80 ms p95) and background (800 ms p95).
//! let classes = vec![RequestClass::new(0, 0.08), RequestClass::new(1, 0.8)];
//! let trace = ClassedTrace::tag_weighted(
//!     TraceKind::AzureLike.generate_for(7, 600.0), &classes, 3).unwrap();
//!
//! // Jointly pick the cheapest group partition meeting every SLO.
//! let mut scorer = OracleGroupScorer {
//!     grid: ConfigGrid::paper_default(),
//!     params: SimParams::default(),
//!     percentile: 95.0,
//! };
//! let plan = joint_decide(&trace, &classes, &mut scorer).unwrap();
//!
//! // Ground truth for the plan: one simulated pool per group.
//! let out = simulate_batching_multi(
//!     &trace, &classes, &plan.groups, &SimParams::default()).unwrap();
//! println!("{} groups, total ${:.6}", plan.groups.len(), out.total_cost);
//!
//! // Or serve it live: one gateway lane per group, routed by class.
//! let cfg = GatewayConfig { groups: plan.groups.clone(), ..GatewayConfig::default() };
//! let gw = Gateway::start(cfg,
//!     std::sync::Arc::new(WallClock::new()),
//!     std::sync::Arc::new(ProfiledBackend::default()));
//! gw.submit(Request::of_class(1));
//! let served = gw.shutdown(DrainMode::Graceful);
//! assert_eq!(served.completed_by_class()[1], 1);
//! ```
//!
//! See `examples/` for runnable end-to-end scenarios and `crates/bench` for
//! the regenerators of every figure and table in the paper's evaluation.

pub use dbat_analytic as analytic;
pub use dbat_core as core;
pub use dbat_linalg as linalg;
pub use dbat_nn as nn;
pub use dbat_serve as serve;
pub use dbat_sim as sim;
pub use dbat_telemetry as telemetry;
pub use dbat_workload as workload;

/// The commonly used names in one import.
pub mod prelude {
    pub use dbat_analytic::{fit_map, BatchModel};
    pub use dbat_core::{
        estimate_gamma, fine_tune, generate_dataset, train, DeepBatController, DeepBatOptimizer,
        GracefulController, Surrogate, SurrogateConfig, TrainConfig,
    };
    pub use dbat_nn::Module;
    pub use dbat_serve::{
        drive_classed, Admission, BackpressurePolicy, Clock, DrainMode, Gateway, GatewayConfig,
        InferenceBackend, ProfiledBackend, Request, ScriptedController, VirtualGateway, WallClock,
    };
    pub use dbat_sim::{
        joint_decide, run_controller, simulate_batching, simulate_batching_multi, simulate_faults,
        simulate_faults_multi, ConfigGrid, Controller, DecisionContext, DecisionRecord, FaultPlan,
        FunctionGroup, IntervalMeasurement, LambdaConfig, OracleGroupScorer, RunOutcome, SimConfig,
        SimOutcome, SimParams, StaticController,
    };
    pub use dbat_telemetry::{MetricsExporter, Telemetry, TraceEvent, TraceStage};
    pub use dbat_workload::{
        AppConfig, ClassedTrace, Map, Mmpp2, RequestClass, Rng, Trace, TraceKind, HOUR,
    };
}
