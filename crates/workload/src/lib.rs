//! # dbat-workload
//!
//! Workload substrate for the DeepBAT reproduction: arrival-process models,
//! synthetic equivalents of the paper's four evaluation traces, and the
//! burstiness statistics (SCV, autocorrelation, index of dispersion) the
//! evaluation is framed around.
//!
//! * [`Rng`] — deterministic xoshiro256++ randomness (seed ⇒ bit-identical
//!   experiments);
//! * [`Map`] / [`Mmpp2`] — Markovian Arrival Processes and the MMPP(2)
//!   special case, with exact moment/correlation/IDC formulas and simulation;
//! * [`Trace`] — sorted timestamp sequences with slicing/binning, read and
//!   written by [`read_trace_auto`] / [`write_trace`];
//! * [`TraceKind`] — the Azure/Twitter/Alibaba-like and MAP-synthetic
//!   generators (Fig. 4/5 workloads), non-homogeneous Poisson by thinning;
//! * [`DbatError`] — the workspace-wide error for fallible APIs;
//! * [`stats`] — empirical moments, ACF, IDC, percentiles;
//! * [`Window`] — fixed-length interarrival windows (the surrogate's input);
//! * [`RequestClass`] / [`ClassedTrace`] — multi-SLO request classes and
//!   class-tagged traces;
//! * [`TokenizedTrace`] — per-request prompt/output token lengths and
//!   [`TokenSlo`] TTFT/TPOT SLOs for LLM-shaped workloads;
//! * [`AppConfig`] — the typed configuration surface (TOML/JSON) shared by
//!   the experiment binaries and examples.

mod class;
mod config;
mod error;
mod io;
mod map;
mod mmpp;
mod nhpp;
mod rng;
pub mod stats;
mod tokens;
mod trace;
mod traces;
mod window;

pub use class::{validate_classes, ClassId, ClassedTrace, RequestClass};
pub use config::AppConfig;
pub use error::DbatError;
pub use io::{read_trace_auto, write_trace};
pub use map::Map;
pub use mmpp::Mmpp2;
pub use rng::Rng;
pub use stats::{
    autocorrelation, idc_by_counts, idc_from_interarrivals, idc_series, mean, percentile,
    percentile_sorted, scv, variance, WindowStats,
};
pub use tokens::{LognormalTokens, TokenMix, TokenSlo, TokenSpec, TokenizedTrace};
pub use trace::Trace;
pub use traces::{TraceKind, HOUR};
pub use window::{sample_windows, window_at_time, Window};
