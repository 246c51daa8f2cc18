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
//! * [`mod@gemm`] — a packed, register-tiled GEMM engine (normal and
//!   transposed layouts) shared with the `dbat-nn` tensor kernels, plus
//!   [`PackedMat`]/[`gemm_prepacked`] for operands packed once at model
//!   load and reused every call, whose chains may start from a given row
//!   and whose store may add a bias and apply a ReLU ([`Chains`]);
//! * [`attention_head`] — the fused score → softmax → context kernel for
//!   one attention head, bitwise identical to the `gemm` → softmax →
//!   `gemm` pipeline it replaces, and its backward
//!   ([`attention_head_backward`]), which saves nothing `S × S`: it
//!   recomputes each 8-row block's probabilities and reduces `dK`/`dV`
//!   over query rows in ascending order within one head, so gradients do
//!   not depend on batch position or shard. The compiled plans and the
//!   training tape share this one kernel pair;
//! * [`softmax_rows_inplace`] — the fused row softmax on a deterministic
//!   vectorised `exp`, bitwise identical on every tier;
//! * [`Tier`] / [`kernel_tier`] — the one cached instruction-set tier
//!   (`Scalar`, `Avx2`, `Avx512`) all three families above dispatch on
//!   (`DBAT_GEMM_FORCE_SCALAR=1` pins `Scalar`). Each vector family is one
//!   body over 4- or 8-lane types, so `Avx2` and `Avx512` give the same
//!   bits; `Scalar` rounds its products differently;
//! * [`solve`] / [`inverse`] — LU factorisation with partial pivoting;
//! * [`ctmc_stationary`] / [`dtmc_stationary`] — GTH-based stationary
//!   distributions (numerically robust for rate matrices spanning many
//!   orders of magnitude);
//! * [`expm()`] — Padé scaling-and-squaring `exp(A)`, and a [`Uniformizer`]
//!   for the repeated action `v·exp(Qt)` on time grids;
//! * [`kron()`] — Kronecker products for expanded (phase × level)
//!   generators.

mod attention;
mod exp;
mod expm;
pub mod gemm;
mod kron;
#[cfg(target_arch = "x86_64")]
mod lanes;
mod lu;
mod matrix;
mod stationary;
mod tier;

pub use attention::{
    attention_backward_scratch_len, attention_head, attention_head_backward, attention_scratch_len,
};
pub use exp::{softmax_rows_inplace, softmax_rows_scaled_inplace};
pub use expm::{expm, Uniformizer};
pub use gemm::{gemm, gemm_prepacked, gemm_worthwhile, Chains, Layout, PackedMat};
pub use kron::kron;
pub use lu::{inverse, solve};
pub use matrix::Mat;
pub use stationary::{ctmc_stationary, dtmc_stationary};
pub use tier::{kernel_tier, Tier};
