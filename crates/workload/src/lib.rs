//! # dbat-workload
//!
//! Workload substrate for the DeepBAT reproduction: arrival-process models,
//! synthetic equivalents of the paper's four evaluation traces, and the
//! burstiness statistics (SCV, autocorrelation, index of dispersion) the
//! evaluation is framed around.
//!
//! * [`rng`] — deterministic xoshiro256++ randomness (seed ⇒ bit-identical
//!   experiments);
//! * [`map`] / [`mmpp`] — Markovian Arrival Processes and the MMPP(2)
//!   special case, with exact moment/correlation/IDC formulas and simulation;
//! * [`trace`] — sorted timestamp sequences with slicing/binning;
//! * [`mod@nhpp`] — non-homogeneous Poisson generation by thinning;
//! * [`traces`] — the Azure/Twitter/Alibaba-like and MAP-synthetic
//!   generators (Fig. 4/5 workloads);
//! * [`error`] — the workspace-wide [`DbatError`] for fallible APIs;
//! * [`stats`] — empirical moments, ACF, IDC, percentiles, MAPE;
//! * [`window`] — fixed-length interarrival windows (the surrogate's input);
//! * [`class`] — multi-SLO request classes and class-tagged traces;
//! * [`tokens`] — per-request prompt/output token lengths and TTFT/TPOT
//!   SLOs for LLM-shaped workloads;
//! * [`config`] — the typed [`AppConfig`] surface (TOML/JSON) shared by
//!   the experiment binaries and examples.

pub mod class;
pub mod config;
pub mod error;
pub mod io;
pub mod map;
pub mod mmpp;
pub mod nhpp;
pub mod rng;
pub mod stats;
pub mod tokens;
pub mod trace;
pub mod traces;
pub mod window;

pub use class::{validate_classes, ClassId, ClassedTrace, RequestClass};
pub use config::{AppConfig, AppConfigBuilder, ClassSpec, GatewaySection, SimSection};
pub use error::DbatError;
pub use io::{read_trace, read_trace_auto, write_trace, TraceIoError};
pub use map::{Map, MapError};
pub use mmpp::Mmpp2;
pub use nhpp::nhpp;
pub use rng::Rng;
pub use stats::{
    autocorrelation, idc_by_counts, idc_from_interarrivals, idc_series, mape, mean, percentile,
    percentile_sorted, scv, variance, WindowStats,
};
pub use tokens::{EmpiricalTokens, LognormalTokens, TokenMix, TokenSlo, TokenSpec, TokenizedTrace};
pub use trace::Trace;
pub use traces::{synthetic_segments, SyntheticSegment, TraceKind, DAY, HOUR};
pub use window::{sample_windows, window_at_time, window_ending_at, windows, Window};
