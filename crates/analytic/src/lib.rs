//! # dbat-analytic
//!
//! The BATCH baseline (Ali et al., "BATCH: machine learning inference
//! serving on serverless platforms with adaptive batching", SC'20) that
//! DeepBAT is evaluated against.
//!
//! BATCH is a matrix-analytic pipeline: observed arrivals are fitted to a
//! Markovian Arrival Process ([`fit_map`]), an expanded-CTMC transient
//! analysis predicts latency percentiles and cost for every candidate
//! configuration ([`BatchModel`]), and an exhaustive grid search picks the
//! cheapest SLO-feasible configuration ([`optimize_from_interarrivals`]).
//! The hourly re-fit control loop of the paper's evaluation is
//! [`BatchController`], and [`AnalyticGroupScorer`] adapts the fitted model
//! as a group scorer for the multi-SLO joint decision.
//!
//! The computational weight of this pipeline (matrix exponentials per
//! configuration, plus the fitting search) is the denominator of the paper's
//! headline 55.93× speed-up claim.

mod controller;
mod fit;
mod model;
mod multiclass;
mod optimizer;

pub use controller::BatchController;
pub use fit::{fit_map, fit_to_targets, FitTargets};
pub use model::BatchModel;
pub use multiclass::AnalyticGroupScorer;
pub use optimizer::{optimize_from_interarrivals, select_best};
