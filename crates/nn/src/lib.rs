//! # dbat-nn
//!
//! From-scratch deep-learning substrate for the DeepBAT reproduction: the
//! paper trains its surrogate in PyTorch; the repro band notes "ML training
//! tooling thin" for Rust, so this crate builds the tooling itself.
//!
//! * [`Tensor`] — dense `f64` tensors and the 2-D matmul kernels on the
//!   packed `dbat-linalg` GEMM engine;
//! * [`Linear`], [`LayerNorm`], [`MultiHeadAttention`] (and its Fig. 14
//!   weights), [`TransformerEncoder`], [`positional_encoding`] — the
//!   parameters, in one [`Module::parameters`] order;
//! * [`InferencePlan`] — the layer stack compiled to direct kernel calls
//!   with pre-packed weights over a flat scratch [`Arena`]: one forward
//!   for inference and training, and its hand-written backward (every
//!   stage checked against central finite differences in the test suite);
//!   attention is one fused, recomputing kernel pair, so nothing `S × S`
//!   is ever built;
//! * [`Adam`] — Adam with global-norm clipping;
//! * [`InitRng`] — deterministic Xavier initialisation;
//! * [`Standardizer`] — standardisation, plus shuffled mini-batching;
//! * [`Checkpoint`] — JSON checkpoints.

mod data;
mod infer;
mod init;
mod layers;
mod optim;
mod serialize;
mod tensor;

pub use data::{gather_rows, shuffled_batches, Standardizer};
pub use infer::{carve, relu_mask, Arena, InferencePlan, MhaPlan, PackedLinear, SharedRowLinear};
pub use init::InitRng;
pub use layers::{
    positional_encoding, LayerNorm, Linear, Module, MultiHeadAttention, TransformerEncoder,
};
pub use optim::{tree_reduce_grads, Adam};
pub use serialize::{load_into, Checkpoint};
pub use tensor::{matmul2d, matmul2d_naive, matmul2d_nt, matmul2d_tn, Tensor};
