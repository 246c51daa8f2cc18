//! Neural-network layers: Linear, LayerNorm, multi-head attention, the
//! Transformer encoder layer, and sinusoidal positional encoding.
//!
//! Layers own their parameters as plain [`Tensor`]s; [`Module::parameters`]
//! lists them in one fixed order, which checkpoints, the optimizer and the
//! compiled plans' backward ([`crate::infer`]) all follow. Every forward
//! and backward runs on a compiled plan. The attention weights themselves
//! (Fig. 14), which no forward materialises, come from
//! [`MultiHeadAttention::attention_weights`].

use crate::infer::PackedLinear;
use crate::init::{xavier_uniform, InitRng};
use crate::tensor::{gemm_nt_into, Tensor};
use dbat_linalg::softmax_rows_scaled_inplace;

/// Anything with trainable parameters.
pub trait Module {
    /// Parameters in a fixed order (the order gradients come back in).
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
    /// no forward materialises, for the paper's Fig. 14: the Q and K
    /// projections, then per head the 2-D score kernel and the shared
    /// [`softmax_rows_scaled_inplace`], the pipeline
    /// [`dbat_linalg::attention_head`] is bit-equal to.
    pub fn attention_weights(&self, x: &Tensor) -> Tensor {
        assert_eq!(x.shape().len(), 2, "attention_weights expects [S, D]");
        let (seq, dim) = (x.shape()[0], x.shape()[1]);
        let dh = dim / self.heads;
        // A projection of `x`: the merged `[S, D]` buffer.
        let project = |lin: &Linear| {
            let mut out = vec![0.0; seq * dim];
            PackedLinear::compile(lin).forward(seq, x.data(), &mut out);
            out
        };
        // Head `h`'s columns of a merged projection, contiguous.
        let head = |proj: &[f64], h: usize| -> Vec<f64> {
            let cols = proj.chunks(dim).flat_map(|row| &row[h * dh..(h + 1) * dh]);
            cols.copied().collect()
        };
        let (q, k) = (project(&self.wq), project(&self.wk));
        let mut weights = vec![0.0; self.heads * seq * seq];
        for (h, w) in weights.chunks_mut((seq * seq).max(1)).enumerate() {
            gemm_nt_into(seq, seq, dh, &head(&q, h), &head(&k, h), w);
            softmax_rows_scaled_inplace(w, seq, 1.0 / (dh as f64).sqrt());
        }
        Tensor::new(vec![self.heads, seq, seq], weights)
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::infer::{Arena, InferencePlan, LayerNormPlan, MhaPlan};

    fn rng() -> InitRng {
        InitRng::new(42)
    }

    fn pseudo(n: usize, seed: u64) -> Vec<f64> {
        crate::init::normal_init(vec![n], 1.0, &mut InitRng::new(seed)).into_data()
    }

    /// Central differences of `f` at `x0` against `want`, at 1e-5
    /// relative tolerance.
    fn grad_check(f: impl Fn(&[f64]) -> f64, x0: &[f64], want: &[f64]) {
        let h = 1e-6;
        for i in 0..x0.len() {
            let mut x = x0.to_vec();
            x[i] = x0[i] + h;
            let fp = f(&x);
            x[i] = x0[i] - h;
            let numeric = (fp - f(&x)) / (2.0 * h);
            assert!(
                (want[i] - numeric).abs() <= 1e-5 * (1.0 + numeric.abs()),
                "element {i}: analytic {} vs numeric {numeric}",
                want[i]
            );
        }
    }

    #[test]
    fn linear_shapes_and_params() {
        let lin = Linear::new(4, 6, &mut rng());
        assert_eq!(lin.num_parameters(), 4 * 6 + 6);
        assert_eq!(lin.parameters().len(), 2);
        let plan = PackedLinear::compile(&lin);
        assert_eq!(plan.out_dim(), 6);
        // Applied over the last axis: a [2, 3, 4] input is 6 rows.
        let mut y = vec![f64::NAN; 6 * 6];
        plan.forward(6, &[0.5; 24], &mut y);
        assert!(y.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn linear_zero_input_gives_bias() {
        let mut lin = Linear::new(2, 2, &mut rng());
        lin.b = Tensor::new(vec![2], vec![0.5, -0.5]);
        let mut y = vec![0.0; 2];
        PackedLinear::compile(&lin).forward(1, &[0.0, 0.0], &mut y);
        assert_eq!(y, [0.5, -0.5]);
    }

    #[test]
    fn layernorm_normalises() {
        let mut out = vec![1.0, 2.0, 3.0, 4.0];
        LayerNormPlan::compile(&LayerNorm::new(4)).forward(&mut out);
        let mean: f64 = out.iter().sum::<f64>() / 4.0;
        let var: f64 = out.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / 4.0;
        assert!(mean.abs() < 1e-9);
        assert!((var - 1.0).abs() < 1e-3);
    }

    /// The Fig. 14 weights are the ones the fused head uses and never
    /// keeps: `[H, S, S]`, every row a distribution, and `weights_h · V_h`
    /// is the compiled attention's context **bit for bit** on a shape
    /// either side of `gemm_worthwhile` (the naive context loop's skip of
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

            let sd = seq * dim;
            let mut arena = Arena::new();
            let [out, q, k, v, ctx, scores] = arena.split([
                sd,
                sd,
                sd,
                sd,
                sd,
                dbat_linalg::attention_scratch_len(seq, dh),
            ]);
            MhaPlan::compile(&mha).forward(1, seq, x.data(), out, q, k, v, ctx, scores);
            for (h, w) in weights.data().chunks(seq * seq).enumerate() {
                let cols = |t: &[f64]| -> Vec<f64> {
                    let rows = t.chunks(dim);
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
        let enc = TransformerEncoder::new(1, 8, 2, 16, &mut rng());
        assert_eq!(enc.parameters().len(), 16);
        let mut x = vec![0.3; 2 * 4 * 8];
        InferencePlan::compile(&enc).forward(2, 4, &mut x, &mut Arena::new());
        assert_eq!(x.len(), 2 * 4 * 8);
        assert!(x.iter().all(|v| v.is_finite()));
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

    /// Central differences of a two-layer encoder stack over two
    /// sequences, w.r.t. its input and every element of every parameter:
    /// the compiled backward, layer by layer.
    #[test]
    fn gradients_flow_through_full_encoder() {
        let (batch, seq, dim, heads, ff) = (2usize, 5usize, 4usize, 2usize, 8usize);
        let mut enc = TransformerEncoder::new(2, dim, heads, ff, &mut rng());
        // Non-zero biases and LayerNorm affines, so every gradient is live.
        let mut r = InitRng::new(3);
        for p in enc.parameters_mut() {
            if p.shape().len() == 1 {
                let noise = crate::init::normal_init(p.shape().to_vec(), 0.2, &mut r);
                p.data_mut()
                    .iter_mut()
                    .zip(noise.data())
                    .for_each(|(a, b)| *a += b);
            }
        }
        let n = batch * seq * dim;
        let (x0, w) = (pseudo(n, 12), pseudo(n, 13));
        let loss = |enc: &TransformerEncoder, x: &[f64]| {
            let mut y = x.to_vec();
            InferencePlan::compile(enc).forward(batch, seq, &mut y, &mut Arena::new());
            y.iter().zip(&w).map(|(a, b)| a * b).sum::<f64>()
        };

        let plan = InferencePlan::compile(&enc);
        let rows = batch * seq;
        let mut acts = vec![vec![0.0; plan.acts_len(rows, true)]; 2];
        let mut acts: Vec<&mut [f64]> = acts.iter_mut().map(|b| &mut b[..]).collect();
        let (mut att, mut scores) = (vec![0.0; rows * dim], vec![0.0; plan.scores_len(seq)]);
        let mut y = x0.clone();
        plan.forward_in(batch, seq, &mut y, &mut acts, &mut att, &mut scores, true);
        let mut grads: Vec<Tensor> = (enc.parameters().into_iter())
            .map(|p| Tensor::zeros(p.shape().to_vec()))
            .collect();
        let mut dx = w.clone();
        let mut scratch = vec![0.0; plan.backward_scratch_len(batch, seq)];
        plan.backward(batch, seq, &mut acts, &mut dx, &mut grads, &mut scratch);

        grad_check(|x| loss(&enc, x), &x0, &dx);
        for (p, g) in grads.iter().enumerate() {
            let p0 = enc.parameters()[p].data().to_vec();
            let f = |v: &[f64]| {
                let mut e = enc.clone();
                e.parameters_mut()[p].data_mut().copy_from_slice(v);
                loss(&e, &x0)
            };
            grad_check(f, &p0, g.data());
        }
    }
}
