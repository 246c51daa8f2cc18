//! Graph-free inference plans: the layer stack compiled to direct kernel
//! calls over one flat reusable scratch arena.
//!
//! The autograd [`Graph`](crate::graph::Graph) is the right tool for
//! training, but pure inference pays for tape nodes, gradient
//! bookkeeping, buffer-pool checkouts, and a fresh B-operand pack on
//! every GEMM. A plan removes all of that: weights are packed **once**
//! at compile time ([`PackedMat`]), activations live in a single
//! caller-owned [`Arena`], and each stage is a direct function call.
//!
//! Every stage mirrors the corresponding graph op *exactly* — the same
//! `gemm_worthwhile` kernel dispatch, the same accumulation order, the
//! same elementwise formulas — so a plan forward is **bitwise identical**
//! to the graph forward over the same weights. Attention is one
//! [`dbat_linalg::attention_head`] call per head over the merged
//! projections — the call [`Graph::attention`](crate::graph::Graph::attention)
//! makes — so neither side ever builds the `S × S` matrix. A bias and a
//! following ReLU run in the GEMM's store ([`Chains`]). At decision sizes
//! a forward spawns no thread and allocates nothing.
//! The graph path stays in-tree as the tested reference; the equivalence
//! is asserted by unit and property tests.

use crate::layers::{EncoderLayer, LayerNorm, Linear, MultiHeadAttention, TransformerEncoder};
use crate::tensor::naive_gemm_acc;
use dbat_linalg::{
    attention_head, attention_scratch_len, gemm_prepacked, gemm_worthwhile, Chains, Layout,
    PackedMat,
};

/// One flat scratch block reused across inference calls.
///
/// [`Arena::split`] carves it into non-overlapping mutable slices, growing
/// the backing buffer on demand (steady state: zero allocations). Slice
/// contents are unspecified on checkout; stages that accumulate must zero
/// their slice first.
#[derive(Default, Debug)]
pub struct Arena {
    buf: Vec<f64>,
}

impl Arena {
    pub fn new() -> Self {
        Arena::default()
    }

    /// Current capacity of the backing block.
    pub fn capacity(&self) -> usize {
        self.buf.len()
    }

    /// Carve `N` non-overlapping slices of the given lengths. Allocates only
    /// when the backing block must grow.
    pub fn split<const N: usize>(&mut self, lens: [usize; N]) -> [&mut [f64]; N] {
        let total: usize = lens.iter().sum();
        if self.buf.len() < total {
            self.buf.resize(total, 0.0);
        }
        let mut rest = &mut self.buf[..];
        lens.map(|l| {
            let (head, tail) = std::mem::take(&mut rest).split_at_mut(l);
            rest = tail;
            head
        })
    }
}

/// A [`Linear`] layer compiled for inference: B-panels packed once, raw
/// weights kept for the small-operand fallback so kernel dispatch matches
/// the graph path exactly.
#[derive(Clone, Debug)]
pub struct PackedLinear {
    packed: PackedMat,
    w: Vec<f64>,
    bias: Option<Vec<f64>>,
    in_dim: usize,
    out_dim: usize,
}

impl PackedLinear {
    pub fn compile(l: &Linear) -> Self {
        Self::from_weights(l.w.data(), Some(l.b.data()), l.in_dim(), l.out_dim())
    }

    /// Pack a row-major `[k, n]` weight and an optional bias.
    fn from_weights(w: &[f64], bias: Option<&[f64]>, k: usize, n: usize) -> Self {
        PackedLinear {
            packed: PackedMat::pack(w, Layout::Normal, k, n),
            w: w.to_vec(),
            bias: bias.map(<[f64]>::to_vec),
            in_dim: k,
            out_dim: n,
        }
    }

    pub fn out_dim(&self) -> usize {
        self.out_dim
    }

    /// `out[rows, out_dim] = x[rows, in_dim] · W + b`, mirroring the graph
    /// path (`matmul` then `add_bias`) bit for bit.
    pub fn forward(&self, rows: usize, x: &[f64], out: &mut [f64]) {
        self.run(rows, x, None, false, self.packed_for(rows), out);
    }

    /// [`Self::forward`] then the graph's `relu`, done in the store.
    pub fn forward_relu(&self, rows: usize, x: &[f64], out: &mut [f64]) {
        self.run(rows, x, None, true, self.packed_for(rows), out);
    }

    /// Whether the graph's `[rows, in] · [in, out]` product runs packed.
    fn packed_for(&self, rows: usize) -> bool {
        gemm_worthwhile(rows, self.out_dim, self.in_dim)
    }

    /// The product, chains started from `start` (zero if `None`), bias and
    /// `relu` in the store, packed or on the naive loop as told.
    fn run(
        &self,
        rows: usize,
        x: &[f64],
        start: Option<&[f64]>,
        relu: bool,
        packed: bool,
        out: &mut [f64],
    ) {
        let (k, n) = (self.in_dim, self.out_dim);
        debug_assert_eq!(x.len(), rows * k);
        debug_assert_eq!(out.len(), rows * n);
        let chains = Chains {
            start,
            bias: self.bias.as_deref(),
            relu,
        };
        if packed {
            gemm_prepacked(rows, x, Layout::Normal, &self.packed, chains, out);
            return;
        }
        for row in out.chunks_mut(n.max(1)) {
            match start {
                Some(start) => row.copy_from_slice(start),
                None => row.fill(0.0),
            }
        }
        naive_gemm_acc(rows, n, k, x, &self.w, out);
        for row in out.chunks_mut(n.max(1)) {
            chains.finish(row, 0);
        }
    }
}

/// A [`Linear`] over `[s | x]` with `s` one row shared by every row, as
/// the surrogate's head reads `[E_1 | E_2]`: every chain's `s` steps are
/// the same for all rows, so they run once and each row continues from
/// them — the whole layer's bits at the cost of the `x` columns.
#[derive(Clone, Debug)]
pub struct SharedRowLinear {
    /// `W[..at]`, no bias.
    shared: PackedLinear,
    /// `W[at..]` and the bias.
    rest: PackedLinear,
}

impl SharedRowLinear {
    /// Split `l` at input column `at` (the shared row's width).
    pub fn compile(l: &Linear, at: usize) -> Self {
        let (k, n) = (l.in_dim(), l.out_dim());
        assert!(at <= k, "split at {at} past the input width {k}");
        let (top, bottom) = l.w.data().split_at(at * n);
        SharedRowLinear {
            shared: PackedLinear::from_weights(top, None, at, n),
            rest: PackedLinear::from_weights(bottom, Some(l.b.data()), k - at, n),
        }
    }

    pub fn out_dim(&self) -> usize {
        self.rest.out_dim
    }

    /// `out[i] = relu([s | x[i]] · W + b)`, the graph's concat → `matmul`
    /// → `add_bias` → `relu` bit for bit, on the kernels the whole product
    /// would take. `prefix` is `out_dim` elements of scratch.
    pub fn forward_relu(
        &self,
        s: &[f64],
        rows: usize,
        x: &[f64],
        prefix: &mut [f64],
        out: &mut [f64],
    ) {
        let k = self.shared.in_dim + self.rest.in_dim;
        let packed = gemm_worthwhile(rows, self.out_dim(), k);
        self.shared.run(1, s, None, false, packed, prefix);
        self.rest.run(rows, x, Some(prefix), true, packed, out);
    }
}

/// A [`LayerNorm`] compiled for inference (in-place row normalisation).
#[derive(Clone, Debug)]
pub(crate) struct LayerNormPlan {
    gamma: Vec<f64>,
    beta: Vec<f64>,
    eps: f64,
    dim: usize,
}

impl LayerNormPlan {
    pub(crate) fn compile(ln: &LayerNorm) -> Self {
        LayerNormPlan {
            gamma: ln.gamma.data().to_vec(),
            beta: ln.beta.data().to_vec(),
            eps: ln.eps,
            dim: ln.gamma.numel(),
        }
    }

    /// In-place row-wise layer norm, mirroring `Graph::layer_norm`.
    pub(crate) fn forward(&self, x: &mut [f64]) {
        let d = self.dim;
        for row in x.chunks_mut(d.max(1)) {
            let mu: f64 = row.iter().sum::<f64>() / d as f64;
            let var: f64 = row.iter().map(|&v| (v - mu) * (v - mu)).sum::<f64>() / d as f64;
            let sigma = (var + self.eps).sqrt();
            for (j, v) in row.iter_mut().enumerate() {
                let xhat = (*v - mu) / sigma;
                *v = self.gamma[j] * xhat + self.beta[j];
            }
        }
    }
}

/// A [`MultiHeadAttention`] compiled for inference.
#[derive(Clone, Debug)]
pub struct MhaPlan {
    wq: PackedLinear,
    wk: PackedLinear,
    wv: PackedLinear,
    wo: PackedLinear,
    heads: usize,
    dim: usize,
}

impl MhaPlan {
    pub fn compile(m: &MultiHeadAttention) -> Self {
        MhaPlan {
            wq: PackedLinear::compile(&m.wq),
            wk: PackedLinear::compile(&m.wk),
            wv: PackedLinear::compile(&m.wv),
            wo: PackedLinear::compile(&m.wo),
            heads: m.heads,
            dim: m.wq.in_dim(),
        }
    }

    /// Self-attention over `x: [B, S, D]` into `out: [B, S, D]`, mirroring
    /// `MultiHeadAttention::forward` bit for bit. Scratch slices: `q`/`k`/
    /// `v`/`ctx` of `B·S·D` and `scores` of
    /// [`attention_scratch_len`]`(S, D / heads)`.
    ///
    /// The projections stay in the merged `[B, S, H·dh]` layout: each head
    /// is one fused score → softmax → context call over its strided
    /// columns, writing its columns of `ctx` in place, with no `S × S`
    /// intermediate.
    #[allow(clippy::too_many_arguments)]
    pub fn forward(
        &self,
        batch: usize,
        seq: usize,
        x: &[f64],
        out: &mut [f64],
        q: &mut [f64],
        k: &mut [f64],
        v: &mut [f64],
        ctx: &mut [f64],
        scores: &mut [f64],
    ) {
        let (d, h) = (self.dim, self.heads);
        let dh = d / h;
        let rows = batch * seq;
        debug_assert_eq!(x.len(), rows * d);
        debug_assert_eq!(out.len(), rows * d);

        self.wq.forward(rows, x, q);
        self.wk.forward(rows, x, k);
        self.wv.forward(rows, x, v);
        let c = 1.0 / (dh as f64).sqrt();
        for b in 0..batch {
            for hi in 0..h {
                let off = b * seq * d + hi * dh;
                attention_head(
                    seq,
                    dh,
                    d,
                    c,
                    &q[off..],
                    &k[off..],
                    &v[off..],
                    &mut ctx[off..],
                    scores,
                );
            }
        }
        self.wo.forward(rows, ctx, out);
    }
}

/// One post-norm encoder layer compiled for inference.
#[derive(Clone, Debug)]
pub(crate) struct EncoderLayerPlan {
    mha: MhaPlan,
    ln1: LayerNormPlan,
    ff1: PackedLinear,
    ff2: PackedLinear,
    ln2: LayerNormPlan,
}

impl EncoderLayerPlan {
    pub(crate) fn compile(l: &EncoderLayer) -> Self {
        EncoderLayerPlan {
            mha: MhaPlan::compile(&l.mha),
            ln1: LayerNormPlan::compile(&l.ln1),
            ff1: PackedLinear::compile(&l.ff1),
            ff2: PackedLinear::compile(&l.ff2),
            ln2: LayerNormPlan::compile(&l.ln2),
        }
    }

    /// `x ← LN2(LN1(x + MHA(x)) + FF(LN1(…)))` in place, mirroring
    /// `EncoderLayer::forward`.
    #[allow(clippy::too_many_arguments)]
    fn forward(
        &self,
        batch: usize,
        seq: usize,
        x: &mut [f64],
        q: &mut [f64],
        k: &mut [f64],
        v: &mut [f64],
        ctx: &mut [f64],
        att: &mut [f64],
        scores: &mut [f64],
        ffh: &mut [f64],
    ) {
        let rows = batch * seq;
        self.mha.forward(batch, seq, x, att, q, k, v, ctx, scores);
        // Residual 1 + LN1: x now holds x1.
        for (xv, &av) in x.iter_mut().zip(att.iter()) {
            *xv += av;
        }
        self.ln1.forward(x);
        // Feed-forward on x1, then residual 2 + LN2.
        self.ff1.forward_relu(rows, x, ffh);
        self.ff2.forward(rows, ffh, q);
        for (xv, &hv) in x.iter_mut().zip(q.iter()) {
            *xv += hv;
        }
        self.ln2.forward(x);
    }
}

/// A [`TransformerEncoder`] stack compiled to a graph-free forward.
#[derive(Clone, Debug)]
pub struct InferencePlan {
    layers: Vec<EncoderLayerPlan>,
    dim: usize,
    heads: usize,
    ff_hidden: usize,
}

impl InferencePlan {
    /// Compile the encoder's current weights. The plan snapshots the
    /// weights — rebuild after any refit (see `Surrogate::invalidate_plan`
    /// in `dbat-core`).
    pub fn compile(enc: &TransformerEncoder) -> Self {
        let (dim, heads, ff_hidden) = enc
            .layers
            .first()
            .map(|l| (l.mha.wq.in_dim(), l.mha.heads, l.ff1.out_dim()))
            .unwrap_or((0, 1, 0));
        InferencePlan {
            layers: enc.layers.iter().map(EncoderLayerPlan::compile).collect(),
            dim,
            heads,
            ff_hidden,
        }
    }

    /// Scratch slice lengths for a `[batch, seq, dim]` forward, in the
    /// order [`Self::forward_with`] expects them.
    pub fn scratch_lens(&self, batch: usize, seq: usize) -> [usize; 7] {
        let bsd = batch * seq * self.dim;
        [
            bsd,
            bsd,
            bsd,
            bsd,
            bsd,
            attention_scratch_len(seq, self.dim / self.heads),
            batch * seq * self.ff_hidden,
        ]
    }

    /// In-place forward over `x` (flattened `[batch, seq, dim]`), using
    /// scratch from `arena`.
    pub fn forward(&self, batch: usize, seq: usize, x: &mut [f64], arena: &mut Arena) {
        let [q, k, v, ctx, att, scores, ffh] = arena.split(self.scratch_lens(batch, seq));
        self.forward_with(batch, seq, x, q, k, v, ctx, att, scores, ffh);
    }

    /// As [`forward`](Self::forward) with caller-carved scratch slices
    /// (lengths per [`scratch_lens`](Self::scratch_lens)).
    #[allow(clippy::too_many_arguments)]
    pub fn forward_with(
        &self,
        batch: usize,
        seq: usize,
        x: &mut [f64],
        q: &mut [f64],
        k: &mut [f64],
        v: &mut [f64],
        ctx: &mut [f64],
        att: &mut [f64],
        scores: &mut [f64],
        ffh: &mut [f64],
    ) {
        debug_assert_eq!(x.len(), batch * seq * self.dim);
        for l in &self.layers {
            l.forward(batch, seq, x, q, k, v, ctx, att, scores, ffh);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Graph;
    use crate::init::InitRng;
    use crate::layers::Binder;
    use crate::tensor::Tensor;

    fn pseudo(n: usize, seed: u64) -> Vec<f64> {
        let mut x = seed.wrapping_mul(0x9E3779B97F4A7C15).max(1);
        (0..n)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x % 2000) as f64 / 1000.0 - 1.0
            })
            .collect()
    }

    #[test]
    fn packed_linear_matches_graph_linear_bitwise() {
        // Shapes straddling the gemm_worthwhile threshold on both sides.
        for &(rows, ind, outd) in &[
            (1usize, 4usize, 4usize),
            (3, 16, 5),
            (216, 3, 16),
            (256, 16, 16),
            (216, 32, 32),
        ] {
            let mut rng = InitRng::new(7);
            let lin = Linear::new(ind, outd, &mut rng);
            let x = Tensor::new(vec![rows, ind], pseudo(rows * ind, 3));
            let mut g = Graph::new();
            let mut b = Binder::new(&mut g);
            let xv = b.g.leaf(x.clone());
            let yv = lin.forward(&mut b, xv);
            let want = g.value(yv).data().to_vec();

            let plan = PackedLinear::compile(&lin);
            let mut got = vec![0.0; rows * outd];
            plan.forward(rows, x.data(), &mut got);
            assert_eq!(got, want, "({rows},{ind},{outd})");

            // The ReLU in the store is the graph's relu op, NaN and -0.0
            // included.
            let mut x = x.data().to_vec();
            x[0] = f64::NAN;
            let mut g = Graph::new();
            let mut b = Binder::new(&mut g);
            let xv = b.g.leaf(Tensor::new(vec![rows, ind], x.clone()));
            let yv = lin.forward(&mut b, xv);
            let yv = b.g.relu(yv);
            let want = g.value(yv).data().to_vec();
            plan.forward_relu(rows, &x, &mut got);
            assert!(got
                .iter()
                .zip(&want)
                .all(|(g, w)| g.to_bits() == w.to_bits()));
        }
    }

    /// The graph's `relu(concat_broadcast_row(s, x) · W + b)`, the head
    /// `SharedRowLinear` stands in for.
    fn graph_shared_row(lin: &Linear, s: &[f64], rows: usize, x: &[f64]) -> Vec<f64> {
        let mut g = Graph::new();
        let mut b = Binder::new(&mut g);
        let sv = b.g.leaf(Tensor::new(vec![s.len()], s.to_vec()));
        let xv =
            b.g.leaf(Tensor::new(vec![rows, x.len() / rows], x.to_vec()));
        let cat = b.g.concat_broadcast_row(sv, xv);
        let h = lin.forward(&mut b, cat);
        let y = b.g.relu(h);
        g.value(y).data().to_vec()
    }

    proptest::proptest! {
        // The shared row's chains once, each row continued from them, is
        // the graph's concat → matmul → bias → ReLU bit for bit, on both
        // sides of `gemm_worthwhile` (1–3 rows of a 16 + 16 → 32 head take
        // the naive loop) and with zero rows, whose chains and bias end at
        // ±0.0 before the ReLU.
        #[test]
        fn shared_row_linear_matches_graph_concat_head_bitwise(
            rows in 1usize..=240, d in 1usize..=16, fh in 1usize..=40, seed in 0u64..1000,
        ) {
            check_shared_row(rows, d, fh, seed);
        }
    }

    fn check_shared_row(rows: usize, d: usize, fh: usize, seed: u64) {
        let lin = Linear::new(2 * d, fh, &mut InitRng::new(seed));
        let s = pseudo(d, seed ^ 1);
        let mut x = pseudo(rows * d, seed ^ 2);
        x[(rows / 2) * d..(rows / 2 + 1) * d].fill(0.0);
        let want = graph_shared_row(&lin, &s, rows, &x);
        let plan = SharedRowLinear::compile(&lin, d);
        let (mut prefix, mut got) = (vec![0.0; fh], vec![0.0; rows * fh]);
        plan.forward_relu(&s, rows, &x, &mut prefix, &mut got);
        let same = got
            .iter()
            .zip(&want)
            .all(|(g, w)| g.to_bits() == w.to_bits());
        assert!(same, "({rows},{d},{fh}) seed {seed}");
    }

    #[test]
    fn shared_row_linear_covers_the_scoring_shapes() {
        // The surrogate's 216-row grid and a grid small enough for the
        // naive loop.
        for rows in [216, 3] {
            assert_eq!(gemm_worthwhile(rows, 32, 32), rows == 216);
            check_shared_row(rows, 16, 32, 7);
        }
    }

    #[test]
    fn mha_plan_matches_graph_attention_bitwise() {
        for &(batch, seq, dim, heads) in &[
            (1usize, 1usize, 16usize, 4usize),
            (2, 5, 8, 2),
            (1, 64, 16, 4),
            // Sequence tails (not a multiple of 4 or of the row block)
            // on both sides of the packed-kernel threshold, and dh ≠ 4.
            (1, 63, 16, 4),
            (2, 37, 16, 2),
            (1, 19, 8, 4),
            (3, 6, 12, 2),
        ] {
            let mut rng = InitRng::new(11);
            let mha = MultiHeadAttention::new(dim, heads, &mut rng);
            let x = Tensor::new(vec![batch, seq, dim], pseudo(batch * seq * dim, 5));
            let mut g = Graph::new();
            let mut b = Binder::new(&mut g);
            let xv = b.g.leaf(x.clone());
            let yv = mha.forward(&mut b, xv);
            let want = g.value(yv).data().to_vec();

            let plan = MhaPlan::compile(&mha);
            let bsd = batch * seq * dim;
            let mut arena = Arena::new();
            let [out, q, k, v, ctx, scores] = arena.split([
                bsd,
                bsd,
                bsd,
                bsd,
                bsd,
                attention_scratch_len(seq, plan.dim / plan.heads),
            ]);
            plan.forward(batch, seq, x.data(), out, q, k, v, ctx, scores);
            assert_eq!(&*out, &want[..], "({batch},{seq},{dim},{heads})");
        }
    }

    #[test]
    fn inference_plan_matches_graph_encoder_bitwise() {
        for &(batch, seq, dim, heads, ff, layers) in &[
            (1usize, 8usize, 8usize, 2usize, 16usize, 1usize),
            (2, 5, 8, 2, 16, 2),
            (1, 256, 16, 4, 32, 2),
            (1, 77, 16, 4, 32, 2),
            (2, 30, 16, 2, 32, 1),
            (1, 50, 8, 4, 16, 2),
        ] {
            let mut rng = InitRng::new(23);
            let enc = TransformerEncoder::new(layers, dim, heads, ff, &mut rng);
            let x = Tensor::new(vec![batch, seq, dim], pseudo(batch * seq * dim, 9));
            let mut g = Graph::new();
            let mut b = Binder::new(&mut g);
            let xv = b.g.leaf(x.clone());
            let yv = enc.forward(&mut b, xv);
            let want = g.value(yv).data().to_vec();

            let plan = InferencePlan::compile(&enc);
            let mut arena = Arena::new();
            let mut got = x.data().to_vec();
            plan.forward(batch, seq, &mut got, &mut arena);
            assert_eq!(got, want, "({batch},{seq},{dim},{heads},{ff},{layers})");
        }
    }

    #[test]
    fn arena_split_is_disjoint_and_reusable() {
        let mut arena = Arena::new();
        {
            let [a, b] = arena.split([3, 2]);
            a.fill(1.0);
            b.fill(2.0);
            assert_eq!(a, &[1.0; 3]);
            assert_eq!(b, &[2.0; 2]);
        }
        // Re-splitting reuses the same backing block without shrinking.
        let cap = arena.capacity();
        let _ = arena.split([2, 2]);
        assert_eq!(arena.capacity(), cap);
    }
}
