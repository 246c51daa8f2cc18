//! # dbat-core
//!
//! DeepBAT: an SLO-aware framework that drives serverless-inference batching
//! with a Transformer deep surrogate model (Sun et al., IPDPS'25).
//!
//! This crate holds the model side of the paper's Fig. 2. The request-path
//! components live where they run: the Workload Parser is
//! [`dbat_workload::window_at_time`] over the arrivals observed so far, the
//! Buffer is [`dbat_sim::BatcherCore`] (driven by the simulators,
//! `dbat_serve::VirtualGateway` and the live lane batchers), and the control
//! loop is [`dbat_sim::Controller::decide`] under
//! [`dbat_sim::run_controller`] or the gateway's control thread.
//!
//! * [`surrogate`] — the deep surrogate model (Fig. 3 architecture);
//! * [`fastpath`] — the surrogate compiled to graph-free kernel calls
//!   (pre-packed weights, flat scratch) for sub-millisecond decisions;
//! * [`traindata`] / [`mod@train`] — offline training on simulator-labelled
//!   windows, plus OOD fine-tuning;
//! * [`optimizer`] — the 2-step SLO/cost optimizer with the γ penalty;
//! * [`multiclass`] — the surrogate-backed group scorer behind the
//!   multi-SLO joint decision ([`dbat_sim::multi::joint_decide`]);
//! * [`controller`] — [`DeepBatController`], the surrogate-driven
//!   [`dbat_sim::Controller`], and the graceful-degradation wrapper;
//! * [`drift`] — window statistics, drift detection and the health monitor.

pub mod controller;
pub mod drift;
pub mod fastpath;
pub mod multiclass;
pub mod optimizer;
pub mod surrogate;
pub mod train;
pub mod traindata;

pub use controller::{estimate_gamma, DeepBatController, GracefulController};
pub use drift::{DriftDetector, HealthMonitor, WindowStats};
pub use fastpath::SurrogatePlan;
pub use multiclass::SurrogateGroupScorer;
pub use optimizer::{ConfigPrediction, Decision, DeepBatOptimizer};
pub use surrogate::{Surrogate, SurrogateConfig};
pub use train::{
    fine_tune, fit_standardizers, to_tensors_weighted, train, validation_mape,
    validation_mape_split, TrainConfig, TrainReport,
};
pub use traindata::{
    generate_dataset, label, label_replicated, window_to_arrivals, TrainSample, LABEL_REPLICAS,
};
