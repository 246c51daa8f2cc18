//! Neural-network layers: Linear, LayerNorm, multi-head attention, the
//! Transformer encoder layer, and sinusoidal positional encoding.
//!
//! ## Parameter binding
//!
//! Layers own their parameters as plain [`Tensor`]s. Each forward pass binds
//! them into the autograd [`Graph`] through a [`Binder`], which records the
//! leaf [`Var`]s *in the same order as* [`Module::parameters`]. After
//! `backward`, the optimizer zips `parameters_mut()` with the binder's vars
//! to apply updates. Every module's `forward` must therefore bind its
//! parameters exactly once, in declaration order.
//!
//! ## Attention
//!
//! [`MultiHeadAttention::forward`] feeds its projections to one
//! [`Graph::attention`] node, the kernel pair shared with the compiled
//! plans, so no `S × S` tensor exists on any tape. The weights themselves
//! (Fig. 14) come from [`MultiHeadAttention::attention_weights`], a plain
//! function of a layer's input that runs off the tape.

use crate::graph::{Graph, Var};
use crate::infer::PackedLinear;
use crate::init::{xavier_uniform, InitRng};
use crate::tensor::{matmul2d_nt_into, Tensor};
use dbat_linalg::softmax_rows_scaled_inplace;

/// Records the graph leaves created for parameters during one forward pass.
pub struct Binder<'g> {
    pub g: &'g mut Graph,
    pub vars: Vec<Var>,
}

impl<'g> Binder<'g> {
    pub fn new(g: &'g mut Graph) -> Self {
        Binder {
            g,
            vars: Vec::new(),
        }
    }

    /// Bind a parameter tensor as a graph leaf and record its var.
    pub(crate) fn param(&mut self, t: &Tensor) -> Var {
        let v = self.g.leaf_copy(t);
        self.vars.push(v);
        v
    }
}

/// Anything with trainable parameters.
pub trait Module {
    /// Parameters in a fixed order (must match forward binding order).
    fn parameters(&self) -> Vec<&Tensor>;
    fn parameters_mut(&mut self) -> Vec<&mut Tensor>;

    fn num_parameters(&self) -> usize {
        self.parameters().iter().map(|t| t.numel()).sum()
    }
}

/// Fully connected layer `y = x W + b` applied over the last axis.
#[derive(Clone, Debug)]
pub struct Linear {
    pub(crate) w: Tensor,
    pub(crate) b: Tensor,
}

impl Linear {
    pub fn new(in_dim: usize, out_dim: usize, rng: &mut InitRng) -> Self {
        Linear {
            w: xavier_uniform(in_dim, out_dim, rng),
            b: Tensor::zeros(vec![out_dim]),
        }
    }

    pub(crate) fn in_dim(&self) -> usize {
        self.w.shape()[0]
    }

    pub(crate) fn out_dim(&self) -> usize {
        self.w.shape()[1]
    }

    /// Forward over the last axis of an input of rank two or more.
    pub fn forward(&self, b: &mut Binder, x: Var) -> Var {
        assert_eq!(
            b.g.value(x).shape().last(),
            Some(&self.in_dim()),
            "linear expects last dim {}",
            self.in_dim()
        );
        let w = b.param(&self.w);
        let bias = b.param(&self.b);
        let y = b.g.matmul(x, w);
        b.g.add_bias(y, bias)
    }
}

impl Module for Linear {
    fn parameters(&self) -> Vec<&Tensor> {
        vec![&self.w, &self.b]
    }
    fn parameters_mut(&mut self) -> Vec<&mut Tensor> {
        vec![&mut self.w, &mut self.b]
    }
}

/// Layer normalisation over the last axis with affine parameters.
#[derive(Clone, Debug)]
pub struct LayerNorm {
    pub(crate) gamma: Tensor,
    pub(crate) beta: Tensor,
    pub(crate) eps: f64,
}

impl LayerNorm {
    pub fn new(dim: usize) -> Self {
        LayerNorm {
            gamma: Tensor::full(vec![dim], 1.0),
            beta: Tensor::zeros(vec![dim]),
            eps: 1e-5,
        }
    }

    pub fn forward(&self, b: &mut Binder, x: Var) -> Var {
        let gamma = b.param(&self.gamma);
        let beta = b.param(&self.beta);
        b.g.layer_norm(x, gamma, beta, self.eps)
    }
}

impl Module for LayerNorm {
    fn parameters(&self) -> Vec<&Tensor> {
        vec![&self.gamma, &self.beta]
    }
    fn parameters_mut(&mut self) -> Vec<&mut Tensor> {
        vec![&mut self.gamma, &mut self.beta]
    }
}

/// Multi-head scaled-dot-product self-attention (Eq. 3 of the paper).
#[derive(Clone, Debug)]
pub struct MultiHeadAttention {
    pub(crate) wq: Linear,
    pub(crate) wk: Linear,
    pub(crate) wv: Linear,
    pub(crate) wo: Linear,
    pub(crate) heads: usize,
}

impl MultiHeadAttention {
    pub fn new(dim: usize, heads: usize, rng: &mut InitRng) -> Self {
        assert!(
            dim.is_multiple_of(heads),
            "model dim {dim} must divide into {heads} heads"
        );
        MultiHeadAttention {
            wq: Linear::new(dim, dim, rng),
            wk: Linear::new(dim, dim, rng),
            wv: Linear::new(dim, dim, rng),
            wo: Linear::new(dim, dim, rng),
            heads,
        }
    }

    /// The attention weights `softmax(Q_h·K_hᵀ / √d_h)` of every head for
    /// one sequence `x: [S, D]` (this layer's input), as `[H, S, S]` — what
    /// [`Self::forward`] never materialises, for the paper's Fig. 14.
    /// Non-differentiable and off the tape: the Q and K projections, then
    /// per head the 2-D score kernel and the shared
    /// [`softmax_rows_scaled_inplace`], the pipeline
    /// [`dbat_linalg::attention_head`] is bit-equal to.
    pub fn attention_weights(&self, x: &Tensor) -> Tensor {
        assert_eq!(x.shape().len(), 2, "attention_weights expects [S, D]");
        let (seq, dim) = (x.shape()[0], x.shape()[1]);
        let dh = dim / self.heads;
        // A projection of `x` off the tape: the merged `[S, D]` buffer.
        let project = |lin: &Linear| {
            let mut out = vec![0.0; seq * dim];
            PackedLinear::compile(lin).forward(seq, x.data(), &mut out);
            out
        };
        // Head `h`'s columns of a merged projection, contiguous.
        let head = |proj: &[f64], h: usize| {
            let cols = proj.chunks(dim).flat_map(|row| &row[h * dh..(h + 1) * dh]);
            Tensor::new(vec![seq, dh], cols.copied().collect())
        };
        let (q, k) = (project(&self.wq), project(&self.wk));
        let mut weights = vec![0.0; self.heads * seq * seq];
        for (h, w) in weights.chunks_mut((seq * seq).max(1)).enumerate() {
            matmul2d_nt_into(&head(&q, h), &head(&k, h), w);
            softmax_rows_scaled_inplace(w, seq, 1.0 / (dh as f64).sqrt());
        }
        Tensor::new(vec![self.heads, seq, seq], weights)
    }

    /// Self-attention over `x: [B, S, D]` through the graph's fused
    /// attention op on the merged projections.
    pub fn forward(&self, b: &mut Binder, x: Var) -> Var {
        let q = self.wq.forward(b, x);
        let k = self.wk.forward(b, x);
        let v = self.wv.forward(b, x);
        let ctx = b.g.attention(q, k, v, self.heads);
        self.wo.forward(b, ctx)
    }
}

impl Module for MultiHeadAttention {
    fn parameters(&self) -> Vec<&Tensor> {
        let mut p = self.wq.parameters();
        p.extend(self.wk.parameters());
        p.extend(self.wv.parameters());
        p.extend(self.wo.parameters());
        p
    }
    fn parameters_mut(&mut self) -> Vec<&mut Tensor> {
        let mut p = self.wq.parameters_mut();
        p.extend(self.wk.parameters_mut());
        p.extend(self.wv.parameters_mut());
        p.extend(self.wo.parameters_mut());
        p
    }
}

/// One post-norm Transformer encoder layer:
/// `x ← LN(x + MHA(x)); x ← LN(x + FF(x))` with a ReLU feed-forward.
#[derive(Clone, Debug)]
pub struct EncoderLayer {
    pub mha: MultiHeadAttention,
    pub(crate) ln1: LayerNorm,
    pub(crate) ff1: Linear,
    pub(crate) ff2: Linear,
    pub(crate) ln2: LayerNorm,
}

impl EncoderLayer {
    pub(crate) fn new(dim: usize, heads: usize, ff_hidden: usize, rng: &mut InitRng) -> Self {
        EncoderLayer {
            mha: MultiHeadAttention::new(dim, heads, rng),
            ln1: LayerNorm::new(dim),
            ff1: Linear::new(dim, ff_hidden, rng),
            ff2: Linear::new(ff_hidden, dim, rng),
            ln2: LayerNorm::new(dim),
        }
    }

    pub fn forward(&self, b: &mut Binder, x: Var) -> Var {
        let att_out = self.mha.forward(b, x);
        let res1 = b.g.add(x, att_out);
        let x1 = self.ln1.forward(b, res1);
        let h = self.ff1.forward(b, x1);
        let h = b.g.relu(h);
        let h = self.ff2.forward(b, h);
        let res2 = b.g.add(x1, h);
        self.ln2.forward(b, res2)
    }
}

impl Module for EncoderLayer {
    fn parameters(&self) -> Vec<&Tensor> {
        let mut p = self.mha.parameters();
        p.extend(self.ln1.parameters());
        p.extend(self.ff1.parameters());
        p.extend(self.ff2.parameters());
        p.extend(self.ln2.parameters());
        p
    }
    fn parameters_mut(&mut self) -> Vec<&mut Tensor> {
        let mut p = self.mha.parameters_mut();
        p.extend(self.ln1.parameters_mut());
        p.extend(self.ff1.parameters_mut());
        p.extend(self.ff2.parameters_mut());
        p.extend(self.ln2.parameters_mut());
        p
    }
}

/// A stack of encoder layers (the paper uses N = 2).
#[derive(Clone, Debug)]
pub struct TransformerEncoder {
    pub layers: Vec<EncoderLayer>,
}

impl TransformerEncoder {
    pub fn new(
        n_layers: usize,
        dim: usize,
        heads: usize,
        ff_hidden: usize,
        rng: &mut InitRng,
    ) -> Self {
        TransformerEncoder {
            layers: (0..n_layers)
                .map(|_| EncoderLayer::new(dim, heads, ff_hidden, rng))
                .collect(),
        }
    }

    pub fn forward(&self, b: &mut Binder, x: Var) -> Var {
        self.layers.iter().fold(x, |x, layer| layer.forward(b, x))
    }
}

impl Module for TransformerEncoder {
    fn parameters(&self) -> Vec<&Tensor> {
        self.layers.iter().flat_map(|l| l.parameters()).collect()
    }
    fn parameters_mut(&mut self) -> Vec<&mut Tensor> {
        self.layers
            .iter_mut()
            .flat_map(|l| l.parameters_mut())
            .collect()
    }
}

/// Sinusoidal positional encoding `[seq, dim]` (Vaswani et al.).
pub fn positional_encoding(seq: usize, dim: usize) -> Tensor {
    let mut data = vec![0.0; seq * dim];
    for pos in 0..seq {
        for i in 0..dim {
            let angle = pos as f64 / 10_000f64.powf((2 * (i / 2)) as f64 / dim as f64);
            data[pos * dim + i] = if i % 2 == 0 { angle.sin() } else { angle.cos() };
        }
    }
    Tensor::new(vec![seq, dim], data)
}

/// Add the positional encoding to `x: [B, S, D]` (as a non-trainable
/// constant tiled over the batch).
pub fn add_positional(b: &mut Binder, x: Var) -> Var {
    let shape = b.g.value(x).shape().to_vec();
    assert_eq!(shape.len(), 3, "positional encoding expects [B, S, D]");
    let (batch, seq, dim) = (shape[0], shape[1], shape[2]);
    let pe = positional_encoding(seq, dim);
    let mut tiled = Vec::with_capacity(batch * seq * dim);
    for _ in 0..batch {
        tiled.extend_from_slice(pe.data());
    }
    let pe_var = b.g.constant(Tensor::new(vec![batch, seq, dim], tiled));
    b.g.add(x, pe_var)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> InitRng {
        InitRng::new(42)
    }

    #[test]
    fn linear_shapes_and_params() {
        let lin = Linear::new(4, 6, &mut rng());
        assert_eq!(lin.num_parameters(), 4 * 6 + 6);
        let mut g = Graph::new();
        let mut b = Binder::new(&mut g);
        let x = b.g.leaf(Tensor::zeros(vec![2, 3, 4]));
        let y = lin.forward(&mut b, x);
        assert_eq!(b.g.value(y).shape(), &[2, 3, 6]);
        assert_eq!(b.vars.len(), 2);
    }

    #[test]
    fn linear_zero_input_gives_bias() {
        let mut lin = Linear::new(2, 2, &mut rng());
        lin.b = Tensor::new(vec![2], vec![0.5, -0.5]);
        let mut g = Graph::new();
        let mut b = Binder::new(&mut g);
        let x = b.g.leaf(Tensor::zeros(vec![1, 2]));
        let y = lin.forward(&mut b, x);
        assert_eq!(b.g.value(y).data(), &[0.5, -0.5]);
    }

    #[test]
    fn layernorm_normalises() {
        let ln = LayerNorm::new(4);
        let mut g = Graph::new();
        let mut b = Binder::new(&mut g);
        let x = b.g.leaf(Tensor::new(vec![1, 4], vec![1.0, 2.0, 3.0, 4.0]));
        let y = ln.forward(&mut b, x);
        let out = b.g.value(y).data().to_vec();
        let mean: f64 = out.iter().sum::<f64>() / 4.0;
        let var: f64 = out.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / 4.0;
        assert!(mean.abs() < 1e-9);
        assert!((var - 1.0).abs() < 1e-3);
    }

    /// The Fig. 14 weights are the ones the fused op uses and never keeps:
    /// `[H, S, S]`, every row a distribution, and `weights_h · V_h` is the
    /// fused [`Graph::attention`] context **bit for bit** on a shape either
    /// side of `gemm_worthwhile` (the naive context loop's skip of
    /// exactly-zero weights only shows for a non-finite `V`).
    #[test]
    fn attention_weights_are_distributions_and_rebuild_the_fused_context() {
        for &(seq, dim, heads) in &[(5usize, 8usize, 2usize), (64, 16, 4)] {
            let dh = dim / heads;
            let packed = dbat_linalg::gemm_worthwhile(seq, seq, dh);
            assert_eq!(packed, seq == 64, "shapes must straddle the dispatch");
            let mut mha = MultiHeadAttention::new(dim, heads, &mut rng());
            let mut r = InitRng::new(9);
            for lin in [&mut mha.wq, &mut mha.wk, &mut mha.wv] {
                lin.b = crate::init::normal_init(vec![dim], 0.3, &mut r);
            }
            let x = crate::init::normal_init(vec![seq, dim], 1.0, &mut r);

            let weights = mha.attention_weights(&x);
            assert_eq!(weights.shape(), &[heads, seq, seq]);
            for row in weights.data().chunks(seq) {
                assert!(row.iter().all(|&w| (0.0..=1.0).contains(&w)));
                assert!((row.iter().sum::<f64>() - 1.0).abs() < 1e-12);
            }

            let mut g = Graph::new();
            let mut b = Binder::new(&mut g);
            let xv = b.g.leaf(x.reshape(vec![1, seq, dim]));
            let q = mha.wq.forward(&mut b, xv);
            let k = mha.wk.forward(&mut b, xv);
            let v = mha.wv.forward(&mut b, xv);
            let ctx = b.g.attention(q, k, v, heads);
            let (v, ctx) = (g.value(v), g.value(ctx));
            for (h, w) in weights.data().chunks(seq * seq).enumerate() {
                let cols = |t: &Tensor| -> Vec<f64> {
                    let rows = t.data().chunks(dim);
                    rows.flat_map(|row| &row[h * dh..(h + 1) * dh])
                        .copied()
                        .collect()
                };
                let rebuilt = crate::tensor::matmul2d(
                    &Tensor::new(vec![seq, seq], w.to_vec()),
                    &Tensor::new(vec![seq, dh], cols(v)),
                );
                assert_eq!(
                    rebuilt.data(),
                    &cols(ctx)[..],
                    "({seq},{dim},{heads}) head {h}"
                );
            }
        }
    }

    #[test]
    fn encoder_layer_preserves_shape() {
        let enc = EncoderLayer::new(8, 2, 16, &mut rng());
        let mut g = Graph::new();
        let mut b = Binder::new(&mut g);
        let x = b.g.leaf(Tensor::full(vec![2, 4, 8], 0.3));
        let y = enc.forward(&mut b, x);
        assert_eq!(b.g.value(y).shape(), &[2, 4, 8]);
        // Binding order matches parameters() order (count check).
        assert_eq!(b.vars.len(), enc.parameters().len());
    }

    #[test]
    fn stacked_encoder_param_count() {
        let enc = TransformerEncoder::new(2, 16, 4, 32, &mut rng());
        // Per layer: 4 linears dim→dim (16·16+16 each), 2 layernorms (2·16),
        // ff 16→32 (16·32+32) and 32→16 (32·16+16).
        let per_layer = 4 * (16 * 16 + 16) + 2 * 32 + (16 * 32 + 32) + (32 * 16 + 16);
        assert_eq!(enc.num_parameters(), 2 * per_layer);
    }

    #[test]
    fn positional_encoding_values() {
        let pe = positional_encoding(4, 6);
        // Position 0: sin(0)=0 at even, cos(0)=1 at odd indices.
        for i in 0..6 {
            let expect = if i % 2 == 0 { 0.0 } else { 1.0 };
            assert!((pe.data()[i] - expect).abs() < 1e-12);
        }
        // Distinct positions get distinct encodings.
        assert_ne!(&pe.data()[0..6], &pe.data()[6..12]);
    }

    #[test]
    fn add_positional_broadcasts_over_batch() {
        let mut g = Graph::new();
        let mut b = Binder::new(&mut g);
        let x = b.g.leaf(Tensor::zeros(vec![2, 3, 4]));
        let y = add_positional(&mut b, x);
        let out = b.g.value(y);
        assert_eq!(out.shape(), &[2, 3, 4]);
        // Both batch entries equal the raw positional encoding.
        let pe = positional_encoding(3, 4);
        assert_eq!(&out.data()[..12], pe.data());
        assert_eq!(&out.data()[12..], pe.data());
    }

    #[test]
    fn gradients_flow_through_full_encoder() {
        // End-to-end gradient check on a tiny encoder: perturb one weight.
        let enc = EncoderLayer::new(4, 2, 8, &mut rng());
        let x0 = Tensor::new(vec![1, 3, 4], (0..12).map(|i| 0.1 * i as f64).collect());

        let loss_of = |enc: &EncoderLayer| {
            let mut g = Graph::new();
            let mut b = Binder::new(&mut g);
            let x = b.g.leaf(x0.clone());
            let y = enc.forward(&mut b, x);
            let y2 = b.g.mul(y, y);
            let l = b.g.sum_all(y2);
            (g.value(l).item(), ())
        };

        // Analytic gradient of the first weight element of wq.
        let (analytic, vars) = {
            let mut g = Graph::new();
            let mut b = Binder::new(&mut g);
            let x = b.g.leaf(x0.clone());
            let y = enc.forward(&mut b, x);
            let y2 = b.g.mul(y, y);
            let l = b.g.sum_all(y2);
            let vars = b.vars.clone();
            let grads = g.backward(l);
            (grads[vars[0].0].as_ref().unwrap().data()[0], vars)
        };
        assert_eq!(vars.len(), enc.parameters().len());

        let h = 1e-6;
        let mut plus = enc.clone();
        plus.mha.wq.w.data_mut()[0] += h;
        let mut minus = enc.clone();
        minus.mha.wq.w.data_mut()[0] -= h;
        let numeric = (loss_of(&plus).0 - loss_of(&minus).0) / (2.0 * h);
        assert!(
            (analytic - numeric).abs() < 1e-4 * (1.0 + numeric.abs()),
            "analytic {analytic} vs numeric {numeric}"
        );
    }
}
