//! # dbat-bench
//!
//! The benchmark harness: shared experiment settings / model cache
//! ([`settings`]), table printers ([`report`]) and one regenerator binary
//! per paper figure or table (`src/bin/fig*.rs`, `src/bin/tbl_*.rs`). See
//! DESIGN.md §4 for the experiment index and EXPERIMENTS.md for recorded
//! results; timings come from the top-level `benchmark/` package.

pub mod compare;
pub mod report;
pub mod settings;

pub use settings::ExpSettings;
