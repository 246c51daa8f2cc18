//! # dbat-core
//!
//! DeepBAT: an SLO-aware framework that drives serverless-inference batching
//! with a Transformer deep surrogate model (Sun et al., IPDPS'25).
//!
//! Components mirror the paper's Fig. 2:
//!
//! * [`parser`] — the Workload Parser (raw interarrivals, no MAP fitting);
//! * [`buffer`] — the reconfigurable batching Buffer;
//! * [`surrogate`] — the deep surrogate model (Fig. 3 architecture);
//! * [`fastpath`] — the surrogate compiled to graph-free kernel calls
//!   (pre-packed weights, flat scratch) for sub-millisecond decisions;
//! * [`traindata`] / [`mod@train`] — offline training on simulator-labelled
//!   windows, plus OOD fine-tuning;
//! * [`optimizer`] — the 2-step SLO/cost optimizer with the γ penalty;
//! * [`multiclass`] — the surrogate-backed group scorer behind the
//!   multi-SLO joint decision ([`dbat_sim::multi::joint_decide`]);
//! * [`controller`] — the online control loop and the measurement harness
//!   shared by every evaluation figure.

pub mod buffer;
pub mod controller;
pub mod drift;
pub mod fastpath;
pub mod multiclass;
pub mod optimizer;
pub mod parser;
pub mod surrogate;
pub mod train;
pub mod traindata;

pub use buffer::{Buffer, ReleaseReason, ReleasedBatch};
pub use controller::{
    estimate_gamma, hourly_vcr, measure_schedule, run_controller, vcr_of, window_violates,
    Controller, DecisionContext, DecisionRecord, DeepBatController, GracefulController,
    IntervalMeasurement, OracleController, RunOutcome, ScheduleEntry, StaticController,
};
pub use drift::{DriftDetector, HealthMonitor, WindowStats};
pub use fastpath::SurrogatePlan;
pub use multiclass::SurrogateGroupScorer;
pub use optimizer::{ConfigPrediction, Decision, DeepBatOptimizer};
pub use parser::WorkloadParser;
pub use surrogate::{Surrogate, SurrogateConfig};
pub use train::{
    fine_tune, fit_standardizers, to_tensors, to_tensors_weighted, train, validation_mape,
    validation_mape_split, TrainConfig, TrainReport,
};
pub use traindata::{
    generate_dataset, generate_token_dataset, label, label_replicated, label_tokens,
    window_to_arrivals, TrainSample, LABEL_REPLICAS,
};
