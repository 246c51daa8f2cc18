//! # dbat-nn
//!
//! From-scratch deep-learning substrate for the DeepBAT reproduction: the
//! paper trains its surrogate in PyTorch; the repro band notes "ML training
//! tooling thin" for Rust, so this crate builds the tooling itself.
//!
//! * [`tensor`] — dense `f64` tensors and the 2-D matmul kernels on the
//!   packed `dbat-linalg` GEMM engine;
//! * [`graph`] — tape-based reverse-mode autograd (every op gradient-checked
//!   against central finite differences in the test suite); attention is
//!   one fused, recomputing node, so no tape holds an `S × S` tensor;
//! * [`layers`] — Linear, LayerNorm, multi-head attention (and its
//!   off-tape Fig. 14 weights), Transformer encoder, sinusoidal positional
//!   encoding;
//! * [`infer`] — graph-free inference plans: the layer stack compiled to
//!   direct kernel calls with pre-packed weights over a flat scratch
//!   arena, bitwise-equivalent to the graph forward;
//! * [`optim`] — Adam with global-norm clipping;
//! * [`init`] — deterministic Xavier/normal initialisation;
//! * [`data`] — standardisation and shuffled mini-batching;
//! * [`serialize`] — JSON checkpoints.

pub mod data;
pub mod graph;
pub mod infer;
pub mod init;
pub mod layers;
pub mod optim;
pub mod serialize;
pub mod tensor;

pub use data::{gather_rows, shuffled_batches, Standardizer};
pub use graph::{BufferPool, Graph, Var};
pub use infer::{
    relu_inplace, Arena, EncoderLayerPlan, InferencePlan, LayerNormPlan, MhaPlan, PackedLinear,
};
pub use init::{normal_init, xavier_uniform, InitRng};
pub use layers::{
    add_positional, positional_encoding, Binder, EncoderLayer, LayerNorm, Linear, Module,
    MultiHeadAttention, TransformerEncoder,
};
pub use optim::{tree_reduce_grads, Adam};
pub use serialize::{load_into, Checkpoint};
pub use tensor::{matmul2d, matmul2d_naive, matmul2d_nt, matmul2d_tn, Tensor};
