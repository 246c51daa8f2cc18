//! # dbat-core
//!
//! DeepBAT: an SLO-aware framework that drives serverless-inference batching
//! with a Transformer deep surrogate model (Sun et al., IPDPS'25).
//!
//! This crate holds the model side of the paper's Fig. 2. The request-path
//! components live where they run: the Workload Parser is
//! [`dbat_workload::window_at_time`] over the arrivals observed so far, the
//! Buffer is [`dbat_sim::BatcherCore`] (driven by the simulators,
//! `dbat_serve::VirtualGateway`'s fixed-configuration replay and the live
//! lane batchers), and the control
//! loop is [`dbat_sim::Controller::decide`] under
//! [`dbat_sim::run_controller`] or the gateway's control thread.
//!
//! * [`Surrogate`] — the deep surrogate model (Fig. 3 architecture);
//! * [`SurrogatePlan`] — the surrogate compiled to direct kernel calls
//!   (pre-packed weights, flat scratch): one forward for sub-millisecond
//!   decisions, predictions and training, and the train step's backward;
//! * [`generate_dataset`] / [`mod@train`] — offline training on
//!   simulator-labelled windows, plus OOD fine-tuning;
//! * [`DeepBatOptimizer`] — the 2-step SLO/cost optimizer with the γ
//!   penalty;
//! * [`SurrogateGroupScorer`] — the surrogate-backed group scorer behind
//!   the multi-SLO joint decision ([`dbat_sim::multi::joint_decide`]);
//! * [`DeepBatController`] — the surrogate-driven [`dbat_sim::Controller`],
//!   and [`GracefulController`], the graceful-degradation wrapper with its
//!   health monitor.

mod controller;
mod fastpath;
mod health;
mod loss;
mod multiclass;
mod optimizer;
mod surrogate;
pub mod train;
mod traindata;

pub use controller::{estimate_gamma, DeepBatController, GracefulController};
pub use fastpath::SurrogatePlan;
pub use multiclass::SurrogateGroupScorer;
pub use optimizer::DeepBatOptimizer;
pub use surrogate::{Surrogate, SurrogateConfig};
pub use train::{
    fine_tune, fit_standardizers, to_tensors_weighted, train, validation_mape,
    validation_mape_split, TrainConfig,
};
pub use traindata::{generate_dataset, label, label_replicated, window_to_arrivals, TrainSample};
// `benchmark/` times `WindowStats::from_window` under this path.
pub use dbat_workload::WindowStats;
