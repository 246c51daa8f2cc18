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
//! ## Two attention paths, one for each purpose
//!
//! `forward` (attention, encoder layer, encoder stack) is what training,
//! evaluation and prediction run: the projections feed one
//! [`Graph::attention`] node, the kernel pair shared with the compiled
//! plans, and no `S × S` tensor exists on the tape. `forward_with_attention`
//! composes the same layer from the generic ops (split heads → `bmm_nt` →
//! `scale` → `softmax` → `bmm` → merge heads) and returns the `[B·H, S, S]`
//! weights as well: the Fig. 14 attention profile needs them, and the
//! tests hold `forward` to it (output bitwise, gradients to rounding).
//! Nothing selects between the two at run time.

use crate::graph::{Graph, Var};
use crate::init::{xavier_uniform, InitRng};
use crate::tensor::Tensor;

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
    pub fn param(&mut self, t: &Tensor) -> Var {
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
    pub w: Tensor,
    pub b: Tensor,
}

impl Linear {
    pub fn new(in_dim: usize, out_dim: usize, rng: &mut InitRng) -> Self {
        Linear {
            w: xavier_uniform(in_dim, out_dim, rng),
            b: Tensor::zeros(vec![out_dim]),
        }
    }

    pub fn in_dim(&self) -> usize {
        self.w.shape()[0]
    }

    pub fn out_dim(&self) -> usize {
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
    pub gamma: Tensor,
    pub beta: Tensor,
    pub eps: f64,
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
    pub wq: Linear,
    pub wk: Linear,
    pub wv: Linear,
    pub wo: Linear,
    pub heads: usize,
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

    fn split_heads(&self, b: &mut Binder, x: Var, batch: usize, seq: usize, dim: usize) -> Var {
        let dh = dim / self.heads;
        let x = b.g.reshape(x, vec![batch, seq, self.heads, dh]);
        let x = b.g.permute_0213(x); // [B, H, S, dh]
        b.g.reshape(x, vec![batch * self.heads, seq, dh])
    }

    /// Self-attention over `x: [B, S, D]`, returning `[B, S, D]` and the
    /// attention weights `[B·H, S, S]` (for the paper's Fig. 14 analysis):
    /// [`Self::forward`] composed from the generic ops, which materialise
    /// the weights.
    pub fn forward_with_attention(&self, b: &mut Binder, x: Var) -> (Var, Var) {
        let shape = b.g.value(x).shape().to_vec();
        assert_eq!(shape.len(), 3, "attention expects [B, S, D]");
        let (batch, seq, dim) = (shape[0], shape[1], shape[2]);
        let dh = dim / self.heads;

        let q = self.wq.forward(b, x);
        let k = self.wk.forward(b, x);
        let v = self.wv.forward(b, x);
        let q = self.split_heads(b, q, batch, seq, dim);
        let k = self.split_heads(b, k, batch, seq, dim);
        let v = self.split_heads(b, v, batch, seq, dim);

        let scores = b.g.bmm_nt(q, k);
        let scores = b.g.scale(scores, 1.0 / (dh as f64).sqrt());
        let attn = b.g.softmax(scores); // [B·H, S, S]
        let ctx = b.g.bmm(attn, v); // [B·H, S, dh]

        let ctx = b.g.reshape(ctx, vec![batch, self.heads, seq, dh]);
        let ctx = b.g.permute_0213(ctx); // [B, S, H, dh]
        let ctx = b.g.reshape(ctx, vec![batch, seq, dim]);
        let out = self.wo.forward(b, ctx);
        (out, attn)
    }

    /// Self-attention over `x: [B, S, D]` through the fused
    /// [`Graph::attention`] op on the merged projections.
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
    pub ln1: LayerNorm,
    pub ff1: Linear,
    pub ff2: Linear,
    pub ln2: LayerNorm,
}

impl EncoderLayer {
    pub fn new(dim: usize, heads: usize, ff_hidden: usize, rng: &mut InitRng) -> Self {
        EncoderLayer {
            mha: MultiHeadAttention::new(dim, heads, rng),
            ln1: LayerNorm::new(dim),
            ff1: Linear::new(dim, ff_hidden, rng),
            ff2: Linear::new(ff_hidden, dim, rng),
            ln2: LayerNorm::new(dim),
        }
    }

    /// Everything after the attention sub-layer: residual, LN, FF,
    /// residual, LN.
    fn after_attention(&self, b: &mut Binder, x: Var, att_out: Var) -> Var {
        let res1 = b.g.add(x, att_out);
        let x1 = self.ln1.forward(b, res1);
        let h = self.ff1.forward(b, x1);
        let h = b.g.relu(h);
        let h = self.ff2.forward(b, h);
        let res2 = b.g.add(x1, h);
        self.ln2.forward(b, res2)
    }

    pub fn forward_with_attention(&self, b: &mut Binder, x: Var) -> (Var, Var) {
        let (att_out, attn) = self.mha.forward_with_attention(b, x);
        (self.after_attention(b, x, att_out), attn)
    }

    pub fn forward(&self, b: &mut Binder, x: Var) -> Var {
        let att_out = self.mha.forward(b, x);
        self.after_attention(b, x, att_out)
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

    /// Forward, returning also the attention weights of the final layer.
    pub fn forward_with_attention(&self, b: &mut Binder, mut x: Var) -> (Var, Option<Var>) {
        let mut last_attn = None;
        for layer in &self.layers {
            let (out, attn) = layer.forward_with_attention(b, x);
            x = out;
            last_attn = Some(attn);
        }
        (x, last_attn)
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
        lin.b = Tensor::from_vec(vec![0.5, -0.5]);
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

    #[test]
    fn attention_output_shape_and_weights() {
        let mha = MultiHeadAttention::new(8, 2, &mut rng());
        let mut g = Graph::new();
        let mut b = Binder::new(&mut g);
        let x = b.g.leaf(Tensor::full(vec![3, 5, 8], 0.1));
        let (y, attn) = mha.forward_with_attention(&mut b, x);
        assert_eq!(b.g.value(y).shape(), &[3, 5, 8]);
        assert_eq!(b.g.value(attn).shape(), &[6, 5, 5]);
        // Attention rows are distributions.
        for row in b.g.value(attn).data().chunks(5) {
            assert!((row.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        }
    }

    /// The fused path against the composed one: forward bit for bit,
    /// every gradient to rounding. Yardstick per gradient tensor is the
    /// max-abs over its `Linear`'s (weight, bias) pair: the K-bias
    /// gradient is mathematically zero (softmax is shift-invariant), so
    /// its own entries are rounding noise on both paths.
    #[test]
    fn fused_attention_matches_composed_attention() {
        for &(batch, seq, dim, heads) in &[
            (2usize, 20usize, 16usize, 4usize),
            (1, 128, 16, 4),
            (3, 7, 8, 2),
            (2, 1, 16, 4),
        ] {
            let mut mha = MultiHeadAttention::new(dim, heads, &mut rng());
            // Non-zero biases, so their gradients are exercised too.
            let mut r = InitRng::new(9);
            for lin in [&mut mha.wq, &mut mha.wk, &mut mha.wv, &mut mha.wo] {
                lin.b = crate::init::normal_init(vec![dim], 0.3, &mut r);
            }
            let x0 = crate::init::normal_init(vec![batch, seq, dim], 1.0, &mut r);
            let w0 = crate::init::normal_init(vec![batch, seq, dim], 1.0, &mut r);
            let run = |fused: bool| {
                let mut g = Graph::new();
                let mut b = Binder::new(&mut g);
                let x = b.g.leaf(x0.clone());
                let y = if fused {
                    mha.forward(&mut b, x)
                } else {
                    mha.forward_with_attention(&mut b, x).0
                };
                let w = b.g.constant(w0.clone());
                let yw = b.g.mul(y, w);
                let l = b.g.sum_all(yw);
                let vars = b.vars.clone();
                let out = g.value(y).clone();
                let mut grads = g.backward(l);
                let mut take = |v: Var| grads[v.0].take().expect("gradient flows");
                let dx = take(x);
                (out, dx, vars.into_iter().map(take).collect::<Vec<_>>())
            };
            let (out_f, dx_f, dp_f) = run(true);
            let (out_c, dx_c, dp_c) = run(false);
            let what = format!("({batch},{seq},{dim},{heads})");
            assert_eq!(out_f.data(), out_c.data(), "{what}: forward bits");
            let close = |f: &Tensor, c: &Tensor, yard: f64, name: &str| {
                for (a, b) in f.data().iter().zip(c.data()) {
                    assert!(
                        (a - b).abs() <= 1e-12 * yard,
                        "{what} {name}: fused {a:e} vs composed {b:e} (max-abs {yard:e})"
                    );
                }
            };
            close(&dx_f, &dx_c, dx_c.max_abs(), "dx");
            for (i, name) in ["wq", "wk", "wv", "wo"].iter().enumerate() {
                let yard = dp_c[2 * i].max_abs().max(dp_c[2 * i + 1].max_abs());
                close(&dp_f[2 * i], &dp_c[2 * i], yard, &format!("d{name}.w"));
                close(
                    &dp_f[2 * i + 1],
                    &dp_c[2 * i + 1],
                    yard,
                    &format!("d{name}.b"),
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
