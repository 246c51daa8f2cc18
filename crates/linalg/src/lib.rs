//! # dbat-linalg
//!
//! Dense linear-algebra substrate for the DeepBAT reproduction.
//!
//! The BATCH baseline (Ali et al., SC'20) that DeepBAT is compared against is
//! a matrix-analytic model: it fits arrivals to a Markovian Arrival Process
//! and evaluates latency percentiles through transient CTMC analysis, i.e.
//! repeated matrix exponentials. This crate provides exactly that machinery:
//!
//! * [`Mat`] — dense row-major `f64` matrices whose `matmul` runs on the
//!   packed [`mod@gemm`] engine;
//! * [`mod@gemm`] — packed, register-tiled GEMM micro-kernels (normal and
//!   transposed layouts) shared with the `dbat-nn` tensor kernels, plus
//!   [`PackedMat`]/[`gemm_prepacked`] for operands packed once at model
//!   load and reused every call;
//! * [`mod@attention`] — the fused score → softmax → context kernel for
//!   one attention head ([`attention_head`]), bitwise identical to the
//!   `gemm` → softmax → `gemm` pipeline it replaces, and its backward
//!   ([`attention_head_backward`]), which saves nothing `S × S`: it
//!   recomputes each 8-row block's probabilities and reduces `dK`/`dV`
//!   over query rows in ascending order within one head, so gradients do
//!   not depend on batch position or shard. The compiled plans and the
//!   training tape share this one kernel pair;
//! * [`mod@exp`] — deterministic vectorised `exp` ([`exp_inplace`]) and the
//!   fused row softmax ([`softmax_rows_inplace`]): AVX2+FMA lanes with a
//!   bitwise-identical scalar mirror, honouring `DBAT_GEMM_FORCE_SCALAR`
//!   like the GEMM kernels;
//! * [`lu`] — LU factorisation, solves, inverses, determinants;
//! * [`stationary`] — GTH-based stationary distributions (numerically robust
//!   for rate matrices spanning many orders of magnitude);
//! * [`mod@expm`] — Padé scaling-and-squaring `exp(A)` and a [`Uniformizer`] for
//!   the repeated action `v·exp(Qt)` on time grids;
//! * [`mod@kron`] — Kronecker products/sums for expanded (phase × level)
//!   generators.

pub mod attention;
pub mod exp;
pub mod expm;
pub mod gemm;
pub mod kron;
pub mod lu;
pub mod matrix;
pub mod stationary;

pub use attention::{
    attention_backward_scratch_len, attention_head, attention_head_backward, attention_scratch_len,
};
pub use exp::{exp_inplace, exp_rn, softmax_rows_inplace, softmax_rows_scaled_inplace};
pub use expm::{expm, Uniformizer};
pub use gemm::{gemm, gemm_prepacked, gemm_worthwhile, Layout, PackedMat};
pub use kron::{kron, kron_sum};
pub use lu::{inverse, solve, LinalgError, Lu};
pub use matrix::Mat;
pub use stationary::{ctmc_stationary, dtmc_stationary, StationaryError};
