//! # dbat-analytic
//!
//! The BATCH baseline (Ali et al., "BATCH: machine learning inference
//! serving on serverless platforms with adaptive batching", SC'20) that
//! DeepBAT is evaluated against.
//!
//! BATCH is a matrix-analytic pipeline: observed arrivals are fitted to a
//! Markovian Arrival Process ([`fit`]), an expanded-CTMC transient analysis
//! predicts latency percentiles and cost for every candidate configuration
//! ([`model`]), and an exhaustive grid search picks the cheapest SLO-feasible
//! configuration ([`optimizer`]). The hourly re-fit control loop of the
//! paper's evaluation lives in [`controller`], and [`multiclass`] adapts
//! the fitted model as a group scorer for the multi-SLO joint decision.
//!
//! The computational weight of this pipeline (matrix exponentials per
//! configuration, plus the fitting search) is the denominator of the paper's
//! headline 55.93× speed-up claim.

pub mod controller;
pub mod fit;
pub mod model;
pub mod multiclass;
pub mod optimizer;

pub use controller::BatchController;
pub use fit::{fit_map, fit_to_targets, FitTargets, FittedMap};
pub use model::{AnalyticEvaluation, BatchModel, WaitStructure};
pub use multiclass::AnalyticGroupScorer;
pub use optimizer::{optimize_from_interarrivals, select_best};
