//! # dbat-bench
//!
//! The paper's evaluation and the serving ablations: shared experiment
//! settings and the model cache ([`settings`]), the closed-loop policies
//! ([`compare`]), every paper figure, table and ablation as a function
//! returning a typed summary (`experiments`), and the reproduction ledger
//! those summaries make ([`ledger`]), which the `repro` binary writes. The
//! `live_gateway` and `overhead_tracing` binaries print tables
//! ([`report`]). DESIGN.md §4 indexes the experiments and EXPERIMENTS.md
//! cites the ledger; timings come from the top-level `benchmark/` package.

pub mod compare;
pub(crate) mod experiments;
pub mod ledger;
pub mod report;
pub mod settings;

pub use settings::ExpSettings;
