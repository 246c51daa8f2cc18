//! # dbat-bench
//!
//! The paper's evaluation and the serving ablations: shared experiment
//! settings and the model cache ([`settings`]), the closed-loop policies
//! ([`compare`]), every paper figure and table as a function returning a
//! typed summary ([`experiments`]), and the reproduction ledger those
//! summaries make ([`ledger`]), which the `repro` binary writes. The
//! ablation binaries (`src/bin/abl_*.rs`) print tables ([`report`]).
//! DESIGN.md §4 indexes the experiments and EXPERIMENTS.md cites the
//! ledger; timings come from the top-level `benchmark/` package.

pub mod compare;
pub mod experiments;
pub mod ledger;
pub mod report;
pub mod settings;

pub use settings::ExpSettings;
