//! The layer stack compiled to direct kernel calls over flat arenas: one
//! forward, for inference and for training, and its hand-written
//! backward.
//!
//! Weights are packed **once** at compile time ([`PackedMat`]),
//! activations live in caller-owned [`Arena`]s, and each stage is a
//! direct function call. A bias and a following ReLU run in the GEMM's
//! store ([`Chains`]). Attention is one [`dbat_linalg::attention_head`]
//! call per (sequence, head) over the merged projections, so nothing
//! `S × S` is ever built. At decision sizes a forward spawns no thread and
//! allocates nothing.
//!
//! A training forward is the same forward with each layer's buffers kept
//! for the backward, one block per layer ([`InferencePlan::forward_in`]).
//! The backward walks the
//! stages in reverse:
//! * linear: `dX = dY·Wᵀ` and `dW = Xᵀ·dY` on the transposed-operand
//!   kernels and their `gemm_worthwhile` dispatch, the bias gradient as
//!   column sums from zero in row order;
//! * LayerNorm recomputes each row's statistics from its kept input;
//! * ReLU masks on the kept post-ReLU output: `y > 0` exactly when `x > 0`,
//!   and a NaN gives 0 either way;
//! * attention is [`dbat_linalg::attention_head_backward`], which
//!   recomputes each block's probabilities instead of keeping them;
//! * an encoder layer's input gradient adds its four contributions in one
//!   fixed order, `((d_res1 + dX_v) + dX_k) + dX_q`.
//!
//! Parameter gradients come back in [`Module::parameters`](crate::Module)
//! order.

use crate::layers::{EncoderLayer, LayerNorm, Linear, MultiHeadAttention, TransformerEncoder};
use crate::tensor::{gemm_nt_into, gemm_tn_into, naive_gemm_acc, Tensor};
use dbat_linalg::{
    attention_backward_scratch_len, attention_head, attention_head_backward, attention_scratch_len,
    gemm_prepacked, gemm_worthwhile, Chains, Layout, PackedMat,
};

/// One flat scratch block reused across calls.
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
            // To the size asked, not the next doubling: an arena settles
            // after its first use.
            self.buf.reserve_exact(total - self.buf.len());
            self.buf.resize(total, 0.0);
        }
        carve(&mut self.buf, lens)
    }
}

/// The first `Σ lens` elements of `buf` as `N` consecutive slices.
pub fn carve<const N: usize>(buf: &mut [f64], lens: [usize; N]) -> [&mut [f64]; N] {
    let mut rest = buf;
    lens.map(|l| {
        let (head, tail) = std::mem::take(&mut rest).split_at_mut(l);
        rest = tail;
        head
    })
}

/// `acc += x`, element by element.
fn add_into(acc: &mut [f64], x: &[f64]) {
    for (a, &b) in acc.iter_mut().zip(x) {
        *a += b;
    }
}

/// The ReLU backward on the kept post-ReLU output `y`.
pub fn relu_mask(dy: &mut [f64], y: &[f64]) {
    for (g, &v) in dy.iter_mut().zip(y) {
        *g = if v > 0.0 { *g } else { 0.0 };
    }
}

/// A [`Linear`] layer compiled: B-panels packed once, raw weights kept for
/// the small-operand fallback and for the backward's `dY·Wᵀ`.
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

    /// `out[rows, out_dim] = x[rows, in_dim] · W + b`.
    pub fn forward(&self, rows: usize, x: &[f64], out: &mut [f64]) {
        self.run(rows, x, None, false, self.packed_for(rows), out);
    }

    /// [`Self::forward`] then a ReLU, done in the store.
    pub fn forward_relu(&self, rows: usize, x: &[f64], out: &mut [f64]) {
        self.run(rows, x, None, true, self.packed_for(rows), out);
    }

    /// Whether the `[rows, in] · [in, out]` product runs packed.
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

    /// Backward of [`Self::forward`] over the `x` it read and the output
    /// gradient `dy`: `grads` gets `[dW, db]` — `dW = xᵀ·dy`, `db` the
    /// column sums of `dy` — and `dx`, when asked, `dy·Wᵀ`.
    pub fn backward(
        &self,
        rows: usize,
        x: &[f64],
        dy: &[f64],
        grads: &mut [Tensor],
        dx: Option<&mut [f64]>,
    ) {
        let (k, n) = (self.in_dim, self.out_dim);
        let [dw, db] = grads else {
            panic!("a linear layer has two parameters, got {}", grads.len())
        };
        gemm_tn_into(k, n, rows, x, dy, dw.data_mut());
        let db = db.data_mut();
        db.fill(0.0);
        for row in dy.chunks(n) {
            add_into(db, row);
        }
        if let Some(dx) = dx {
            gemm_nt_into(rows, k, n, dy, &self.w, dx);
        }
    }
}

/// A [`Linear`] over `[s | x]` with `s` one row shared by every row, as
/// the surrogate's head reads `[E_1 | E_2]` in a decision: every chain's
/// `s` steps are the same for all rows, so they run once and each row
/// continues from them — the whole layer's bits at the cost of the `x`
/// columns.
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

    /// `out[i] = relu([s | x[i]] · W + b)`, the whole layer's
    /// [`PackedLinear::forward_relu`] over the concatenated rows bit for
    /// bit, on the kernels the whole product would take. `prefix` is
    /// `out_dim` elements of scratch.
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

/// A [`LayerNorm`] compiled (in-place row normalisation).
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

    /// In-place row-wise layer norm.
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

    /// Backward over the rows `x` the forward normalised: `grads` gets
    /// `[dγ, dβ]` and `dx` the input gradient; each row's statistics are
    /// recomputed from `x`, and its `x̂` is kept in the first `dim`
    /// elements of `scratch`.
    pub(crate) fn backward(
        &self,
        x: &[f64],
        dy: &[f64],
        grads: &mut [Tensor],
        dx: &mut [f64],
        scratch: &mut [f64],
    ) {
        let d = self.dim;
        let n = d as f64;
        let [dgamma, dbeta] = grads else {
            panic!("a layer norm has two parameters, got {}", grads.len())
        };
        let (dgamma, dbeta) = (dgamma.data_mut(), dbeta.data_mut());
        dgamma.fill(0.0);
        dbeta.fill(0.0);
        let xhat = &mut scratch[..d];
        for ((row, grow), dxhat) in x.chunks(d).zip(dy.chunks(d)).zip(dx.chunks_mut(d)) {
            let mu: f64 = row.iter().sum::<f64>() / n;
            let var: f64 = row.iter().map(|&v| (v - mu) * (v - mu)).sum::<f64>() / n;
            let sigma = (var + self.eps).sqrt();
            for j in 0..d {
                xhat[j] = (row[j] - mu) / sigma;
                dgamma[j] += grow[j] * xhat[j];
                dbeta[j] += grow[j];
                dxhat[j] = grow[j] * self.gamma[j];
            }
            let mean_dxhat: f64 = dxhat.iter().sum::<f64>() / n;
            let mean_dxhat_xhat: f64 =
                dxhat.iter().zip(&*xhat).map(|(&a, &b)| a * b).sum::<f64>() / n;
            // `dxhat` becomes the row's input gradient in place.
            for j in 0..d {
                dxhat[j] = (dxhat[j] - mean_dxhat - xhat[j] * mean_dxhat_xhat) / sigma;
            }
        }
    }
}

/// A [`MultiHeadAttention`] compiled.
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

    /// The attention scale `1/√d_h`, and `d_h`.
    fn head_dims(&self) -> (f64, usize) {
        let dh = self.dim / self.heads;
        (1.0 / (dh as f64).sqrt(), dh)
    }

    /// Where each (sequence, head) problem starts in a merged buffer, in
    /// index order.
    fn heads(&self, batch: usize, seq: usize) -> impl Iterator<Item = usize> {
        let (d, dh, h) = (self.dim, self.dim / self.heads, self.heads);
        (0..batch).flat_map(move |b| (0..h).map(move |hi| b * seq * d + hi * dh))
    }

    /// Self-attention over `x: [B, S, D]` into `out: [B, S, D]`. Scratch
    /// slices: `q`/`k`/`v`/`ctx` of `B·S·D` (what the backward reads) and
    /// `scores` of [`attention_scratch_len`]`(S, D / heads)`.
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
        let d = self.dim;
        let (c, dh) = self.head_dims();
        let rows = batch * seq;
        debug_assert_eq!(x.len(), rows * d);
        debug_assert_eq!(out.len(), rows * d);

        self.wq.forward(rows, x, q);
        self.wk.forward(rows, x, k);
        self.wv.forward(rows, x, v);
        for o in self.heads(batch, seq) {
            let (qh, kh, vh) = (&q[o..], &k[o..], &v[o..]);
            attention_head(seq, dh, d, c, qh, kh, vh, &mut ctx[o..], scores);
        }
        self.wo.forward(rows, ctx, out);
    }

    /// Scratch [`Self::backward`] carves: four `B·S·D` gradients, one
    /// `B·S·D` product and one head's attention backward scratch.
    pub fn backward_scratch_len(&self, batch: usize, seq: usize) -> usize {
        5 * batch * seq * self.dim + attention_backward_scratch_len(seq, self.head_dims().1)
    }

    /// Backward of [`Self::forward`] from what it read and wrote (`x`,
    /// `q`, `k`, `v`, `ctx`) and the output gradient `d_out`: `grads` gets
    /// the eight projection gradients in parameter order. The input
    /// gradient's three contributions go to `dx` in the order V, K, Q; the
    /// first is added to what `dx` holds when `add`, else overwrites it.
    #[allow(clippy::too_many_arguments)]
    pub fn backward(
        &self,
        batch: usize,
        seq: usize,
        [x, q, k, v, ctx]: [&[f64]; 5],
        d_out: &[f64],
        grads: &mut [Tensor],
        dx: &mut [f64],
        mut add: bool,
        scratch: &mut [f64],
    ) {
        let (d, rows) = (self.dim, batch * seq);
        let (c, dh) = self.head_dims();
        let (n, s) = (rows * d, attention_backward_scratch_len(seq, dh));
        let [dctx, dq, dk, dv, tmp, scores] = carve(scratch, [n, n, n, n, n, s]);
        self.wo
            .backward(rows, ctx, d_out, &mut grads[6..8], Some(dctx));
        for o in self.heads(batch, seq) {
            let (qh, kh, vh, oh, doh) = (&q[o..], &k[o..], &v[o..], &ctx[o..], &dctx[o..]);
            let (dqh, dkh, dvh) = (&mut dq[o..], &mut dk[o..], &mut dv[o..]);
            attention_head_backward(seq, dh, d, c, qh, kh, vh, oh, doh, dqh, dkh, dvh, scores);
        }
        for (lin, dp, at) in [
            (&self.wv, &*dv, 4),
            (&self.wk, &*dk, 2),
            (&self.wq, &*dq, 0),
        ] {
            let grads = &mut grads[at..at + 2];
            if add {
                lin.backward(rows, x, dp, grads, Some(tmp));
                add_into(dx, tmp);
            } else {
                lin.backward(rows, x, dp, grads, Some(dx));
                add = true;
            }
        }
    }
}

/// One encoder layer's buffers. `q`, `k`, `v`, `ctx` and `ffh` are its
/// stages' outputs; `kept`, in a training forward, receives copies of the
/// layer's input, `x + MHA(x)`, LN1's output `x1` and `x1 + FF(x1)`.
/// Inference passes every layer the same buffers and keeps nothing.
struct LayerBufs<'a> {
    q: &'a mut [f64],
    k: &'a mut [f64],
    v: &'a mut [f64],
    ctx: &'a mut [f64],
    ffh: &'a mut [f64],
    kept: Option<[&'a mut [f64]; 4]>,
}

impl<'a> LayerBufs<'a> {
    /// Lengths of one layer's block over `rows` rows.
    fn lens(rows: usize, dim: usize, ff: usize, keep: bool) -> [usize; 9] {
        let (rd, kd) = (rows * dim, if keep { rows * dim } else { 0 });
        [rd, rd, rd, rd, rows * ff, kd, kd, kd, kd]
    }

    fn carve(block: &'a mut [f64], lens: [usize; 9], keep: bool) -> Self {
        let [q, k, v, ctx, ffh, x, res1, x1, res2] = carve(block, lens);
        LayerBufs {
            q,
            k,
            v,
            ctx,
            ffh,
            kept: keep.then_some([x, res1, x1, res2]),
        }
    }

    /// Copy `x` into kept slot `i` (a no-op when nothing is kept).
    fn keep(&mut self, i: usize, x: &[f64]) {
        if let Some(kept) = &mut self.kept {
            kept[i].copy_from_slice(x);
        }
    }
}

/// One post-norm encoder layer compiled.
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

    /// `x ← LN2(x1 + FF(x1))` with `x1 = LN1(x + MHA(x))`, in place;
    /// `att` and `scores` are scratch.
    fn forward(
        &self,
        batch: usize,
        seq: usize,
        x: &mut [f64],
        b: &mut LayerBufs,
        att: &mut [f64],
        scores: &mut [f64],
    ) {
        let rows = batch * seq;
        b.keep(0, x);
        self.mha
            .forward(batch, seq, x, att, b.q, b.k, b.v, b.ctx, scores);
        add_into(x, att);
        b.keep(1, x);
        self.ln1.forward(x);
        b.keep(2, x);
        self.ff1.forward_relu(rows, x, b.ffh);
        self.ff2.forward(rows, b.ffh, att);
        add_into(x, att);
        b.keep(3, x);
        self.ln2.forward(x);
    }

    /// Backward from the kept buffers: `dy` holds the output gradient on
    /// entry and the input gradient on exit; `grads` gets the layer's 16
    /// parameter gradients in parameter order.
    fn backward(
        &self,
        batch: usize,
        seq: usize,
        b: &LayerBufs,
        dy: &mut [f64],
        grads: &mut [Tensor],
        scratch: &mut [f64],
    ) {
        let rows = batch * seq;
        let Some([x, res1, x1, res2]) = &b.kept else {
            panic!("the backward needs a training forward's buffers")
        };
        let (rd, rf) = (dy.len(), b.ffh.len());
        let (mine, rest) = scratch.split_at_mut(3 * rd + rf);
        let [dres2, dffh, tmp, dres1] = carve(mine, [rd, rf, rd, rd]);
        // `tmp` is free until FF1's backward, and again after it.
        self.ln2.backward(res2, dy, &mut grads[14..16], dres2, tmp);
        self.ff2
            .backward(rows, b.ffh, dres2, &mut grads[12..14], Some(dffh));
        relu_mask(dffh, b.ffh);
        self.ff1
            .backward(rows, x1, dffh, &mut grads[10..12], Some(tmp));
        // x1 feeds the residual and FF1: d_res2 + dX_ff1.
        add_into(dres2, tmp);
        self.ln1
            .backward(res1, dres2, &mut grads[8..10], dres1, tmp);
        // The residual's share first, then the projections'.
        dy.copy_from_slice(dres1);
        let saved = [&**x, &*b.q, &*b.k, &*b.v, &*b.ctx];
        self.mha
            .backward(batch, seq, saved, dres1, &mut grads[..8], dy, true, rest);
    }
}

/// A [`TransformerEncoder`] stack compiled.
#[derive(Clone, Debug)]
pub struct InferencePlan {
    layers: Vec<EncoderLayerPlan>,
    dim: usize,
    heads: usize,
    ff_hidden: usize,
}

/// Parameters per encoder layer (its [`Module::parameters`](crate::Module)).
const LAYER_PARAMS: usize = 16;

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

    fn layer_lens(&self, rows: usize, keep: bool) -> [usize; 9] {
        LayerBufs::lens(rows, self.dim, self.ff_hidden, keep)
    }

    /// Length of one block of [`Self::forward_in`]'s `acts` over `rows`
    /// rows: the buffers of one layer, also those kept when `keep`.
    pub fn acts_len(&self, rows: usize, keep: bool) -> usize {
        self.layer_lens(rows, keep).iter().sum()
    }

    /// Length of the `scores` scratch of a forward over sequences of
    /// `seq`.
    pub fn scores_len(&self, seq: usize) -> usize {
        attention_scratch_len(seq, self.dim / self.heads)
    }

    /// In-place forward over `x` (flattened `[batch, seq, dim]`), using
    /// scratch from `arena`.
    pub fn forward(&self, batch: usize, seq: usize, x: &mut [f64], arena: &mut Arena) {
        let rows = batch * seq;
        let [acts, att, scores] = arena.split([
            self.acts_len(rows, false),
            rows * self.dim,
            self.scores_len(seq),
        ]);
        self.forward_in(batch, seq, x, &mut [acts], att, scores, false);
    }

    /// In-place forward over `x` with caller-carved buffers: `acts`
    /// blocks of [`Self::acts_len`], `att` of `batch·seq·dim`, `scores` of
    /// [`Self::scores_len`]. Every layer runs in `acts[0]`; with `keep`,
    /// layer `i` runs in `acts[i]` and leaves there what
    /// [`Self::backward`] reads.
    #[allow(clippy::too_many_arguments)]
    pub fn forward_in(
        &self,
        batch: usize,
        seq: usize,
        x: &mut [f64],
        acts: &mut [&mut [f64]],
        att: &mut [f64],
        scores: &mut [f64],
        keep: bool,
    ) {
        debug_assert_eq!(x.len(), batch * seq * self.dim);
        let lens = self.layer_lens(batch * seq, keep);
        if keep {
            assert_eq!(acts.len(), self.layers.len(), "one block per layer");
            for (l, block) in self.layers.iter().zip(acts) {
                l.forward(
                    batch,
                    seq,
                    x,
                    &mut LayerBufs::carve(block, lens, true),
                    att,
                    scores,
                );
            }
        } else {
            let mut b = LayerBufs::carve(acts[0], lens, false);
            for l in &self.layers {
                l.forward(batch, seq, x, &mut b, att, scores);
            }
        }
    }

    /// Scratch [`Self::backward`] needs over `batch` sequences of `seq`.
    pub fn backward_scratch_len(&self, batch: usize, seq: usize) -> usize {
        let Some(l) = self.layers.first() else {
            return 0;
        };
        let rows = batch * seq;
        3 * rows * self.dim + rows * self.ff_hidden + l.mha.backward_scratch_len(batch, seq)
    }

    /// Backward of a kept [`Self::forward_in`], last layer first: `dy`
    /// holds the stack's output gradient on entry and its input gradient
    /// on exit; `grads` gets every layer's parameter gradients in
    /// parameter order.
    pub fn backward(
        &self,
        batch: usize,
        seq: usize,
        acts: &mut [&mut [f64]],
        dy: &mut [f64],
        grads: &mut [Tensor],
        scratch: &mut [f64],
    ) {
        let lens = self.layer_lens(batch * seq, true);
        let per_layer = grads.chunks_mut(LAYER_PARAMS);
        for ((l, block), grads) in self.layers.iter().zip(acts).zip(per_layer).rev() {
            let b = LayerBufs::carve(block, lens, true);
            l.backward(batch, seq, &b, dy, grads, scratch);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init::{normal_init, InitRng};
    use crate::layers::Module;

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

    /// Central differences of `f` at `x0` against the analytic gradient
    /// `want`, at 1e-5 relative tolerance, over the elements `at`.
    fn grad_check(
        f: impl Fn(&[f64]) -> f64,
        x0: &[f64],
        want: &[f64],
        at: impl IntoIterator<Item = usize>,
    ) {
        let h = 1e-6;
        for i in at {
            let mut x = x0.to_vec();
            x[i] = x0[i] + h;
            let fp = f(&x);
            x[i] = x0[i] - h;
            let fm = f(&x);
            let numeric = (fp - fm) / (2.0 * h);
            assert!(
                (want[i] - numeric).abs() <= 1e-5 * (1.0 + numeric.abs()),
                "element {i}: analytic {} vs numeric {numeric}",
                want[i]
            );
        }
    }

    /// `Σ w ⊙ y`: a smooth scalar of an output with a fixed weight.
    fn dot(w: &[f64], y: &[f64]) -> f64 {
        w.iter().zip(y).map(|(a, b)| a * b).sum()
    }

    fn zero_grads(m: &impl Module) -> Vec<Tensor> {
        let shapes = m.parameters().into_iter().map(|p| p.shape().to_vec());
        shapes.map(Tensor::zeros).collect()
    }

    /// Checks `PackedLinear::backward` against central differences: `dX`
    /// when `input`, and the gradient of each parameter index in `params`
    /// (0 = W, 1 = bias).
    fn check_linear_backward(input: bool, params: &[usize]) {
        // One shape on each side of the packed-kernel threshold.
        for &(rows, ind, outd) in &[(3usize, 4usize, 5usize), (40, 16, 12)] {
            let lin = Linear::new(ind, outd, &mut InitRng::new(7));
            let (x0, w) = (pseudo(rows * ind, 3), pseudo(rows * outd, 4));
            let plan = PackedLinear::compile(&lin);
            let mut grads = zero_grads(&lin);
            let mut dx = vec![0.0; rows * ind];
            plan.backward(rows, &x0, &w, &mut grads, Some(&mut dx));
            let out = |lin: &Linear, x: &[f64]| {
                let mut y = vec![0.0; rows * outd];
                PackedLinear::compile(lin).forward(rows, x, &mut y);
                dot(&w, &y)
            };
            if input {
                grad_check(|x| out(&lin, x), &x0, &dx, 0..x0.len());
            }
            for &p in params {
                let p0 = lin.parameters()[p].data().to_vec();
                let f = |v: &[f64]| {
                    let mut l = lin.clone();
                    l.parameters_mut()[p].data_mut().copy_from_slice(v);
                    out(&l, &x0)
                };
                grad_check(f, &p0, grads[p].data(), 0..p0.len());
            }
        }
    }

    #[test]
    fn grad_linear_wrt_input_and_weight() {
        check_linear_backward(true, &[0]);
    }

    #[test]
    fn grad_linear_wrt_bias() {
        check_linear_backward(false, &[1]);
    }

    #[test]
    fn grad_relu_mask() {
        let (x0, w) = (vec![1.0, -1.0, 0.5, -0.2], vec![0.3, -0.7, 1.1, 2.0]);
        let relu = |x: &[f64]| x.iter().map(|v| v.max(0.0)).collect::<Vec<_>>();
        let mut dy = w.clone();
        relu_mask(&mut dy, &relu(&x0));
        grad_check(|x| dot(&w, &relu(x)), &x0, &dy, 0..4);
        // A NaN input passes no gradient, as `x > 0` is false for it.
        let mut dy = vec![1.0];
        relu_mask(&mut dy, &[f64::NAN.max(0.0)]);
        assert_eq!(dy, [0.0]);
    }

    /// Checks `LayerNormPlan::backward` against central differences: `dX`
    /// when `input`, and the gradient of each parameter index in `params`
    /// (0 = gamma, 1 = beta).
    fn check_layer_norm_backward(input: bool, params: &[usize]) {
        let mut ln = LayerNorm::new(5);
        let mut r = InitRng::new(4);
        ln.gamma = normal_init(vec![5], 0.5, &mut r).map(|g| g + 1.0);
        ln.beta = normal_init(vec![5], 0.3, &mut r);
        let (x0, w) = (pseudo(15, 8), pseudo(15, 9));
        let mut grads = zero_grads(&ln);
        let mut dx = vec![0.0; 15];
        let mut xhat = vec![f64::NAN; 5];
        LayerNormPlan::compile(&ln).backward(&x0, &w, &mut grads, &mut dx, &mut xhat);
        let out = |ln: &LayerNorm, x: &[f64]| {
            let mut y = x.to_vec();
            LayerNormPlan::compile(ln).forward(&mut y);
            dot(&w, &y)
        };
        if input {
            grad_check(|x| out(&ln, x), &x0, &dx, 0..15);
        }
        for &p in params {
            let p0 = ln.parameters()[p].data().to_vec();
            let f = |v: &[f64]| {
                let mut l = ln.clone();
                l.parameters_mut()[p].data_mut().copy_from_slice(v);
                out(&l, &x0)
            };
            grad_check(f, &p0, grads[p].data(), 0..5);
        }
    }

    #[test]
    fn grad_layer_norm_wrt_input() {
        check_layer_norm_backward(true, &[]);
    }

    #[test]
    fn grad_layer_norm_wrt_gamma_and_beta() {
        check_layer_norm_backward(false, &[0, 1]);
    }

    proptest::proptest! {
        #[test]
        fn layernorm_output_row_stats(x in proptest::prelude::prop::collection::vec(-3.0f64..3.0, 24)) {
            let mut y = x;
            LayerNormPlan::compile(&LayerNorm::new(8)).forward(&mut y);
            for row in y.chunks(8) {
                let mean: f64 = row.iter().sum::<f64>() / 8.0;
                proptest::prop_assert!(mean.abs() < 1e-9, "row mean {mean}");
            }
        }
    }

    /// One attention head per (sequence, head) over merged `[B, S, D]`
    /// projections, as [`MhaPlan::forward`] runs them.
    fn attention(batch: usize, seq: usize, dim: usize, heads: usize, qkv: [&[f64]; 3]) -> Vec<f64> {
        let dh = dim / heads;
        let mut out = vec![0.0; batch * seq * dim];
        let mut scores = vec![0.0; attention_scratch_len(seq, dh)];
        for off in (0..batch).flat_map(|b| (0..heads).map(move |h| b * seq * dim + h * dh)) {
            let [q, k, v] = qkv.map(|t| &t[off..]);
            let c = 1.0 / (dh as f64).sqrt();
            attention_head(seq, dh, dim, c, q, k, v, &mut out[off..], &mut scores);
        }
        out
    }

    /// `dQ`, `dK`, `dV` of `Σ w ⊙ attention(q, k, v)`.
    fn attention_grads(
        batch: usize,
        seq: usize,
        dim: usize,
        heads: usize,
        qkv: [&[f64]; 3],
        w: &[f64],
    ) -> [Vec<f64>; 3] {
        let dh = dim / heads;
        let o = attention(batch, seq, dim, heads, qkv);
        let mut d = [(); 3].map(|_| vec![0.0; o.len()]);
        let mut scratch = vec![0.0; attention_backward_scratch_len(seq, dh)];
        for off in (0..batch).flat_map(|b| (0..heads).map(move |h| b * seq * dim + h * dh)) {
            let [q, k, v] = qkv.map(|t| &t[off..]);
            let [dq, dk, dv] = &mut d;
            let c = 1.0 / (dh as f64).sqrt();
            attention_head_backward(
                seq,
                dh,
                dim,
                c,
                q,
                k,
                v,
                &o[off..],
                &w[off..],
                &mut dq[off..],
                &mut dk[off..],
                &mut dv[off..],
                &mut scratch,
            );
        }
        d
    }

    #[test]
    fn grad_attention_wrt_q_k_and_v() {
        // One shape on each side of the kernel's FMA dispatch threshold.
        for &([batch, seq, dim], heads) in &[([2usize, 5, 4], 2usize), ([1, 32, 8], 2)] {
            let n = batch * seq * dim;
            let qkv0 = [pseudo(n, 3), pseudo(n, 5), pseudo(n, 7)];
            let w = pseudo(n, 11);
            let want = attention_grads(batch, seq, dim, heads, qkv0.each_ref().map(|t| &t[..]), &w);
            for wrt in 0..3 {
                let f = |x: &[f64]| {
                    let mut qkv = qkv0.each_ref().map(|t| &t[..]);
                    qkv[wrt] = x;
                    dot(&w, &attention(batch, seq, dim, heads, qkv))
                };
                grad_check(f, &qkv0[wrt], &want[wrt], 0..n);
            }
        }
    }

    /// The attention reduces within one `(sequence, head)` problem only: a
    /// sample's output and `dQ`/`dK`/`dV` are the same bits alone, first,
    /// or last in a batch.
    #[test]
    fn attention_is_independent_of_batch_position() {
        let (seq, dim, heads) = (37usize, 8usize, 2usize);
        let sample = |i: u64| -> [Vec<f64>; 4] {
            std::array::from_fn(|t| pseudo(seq * dim, 100 * i + t as u64))
        };
        let run = |samples: &[[Vec<f64>; 4]]| -> Vec<[Vec<f64>; 4]> {
            let n = samples.len();
            let stack = |t: usize| {
                samples
                    .iter()
                    .flat_map(|s| s[t].clone())
                    .collect::<Vec<_>>()
            };
            let (q, k, v, w) = (stack(0), stack(1), stack(2), stack(3));
            let out = attention(n, seq, dim, heads, [&q, &k, &v]);
            let [dq, dk, dv] = attention_grads(n, seq, dim, heads, [&q, &k, &v], &w);
            let at = |x: &[f64], i: usize| x[i * seq * dim..(i + 1) * seq * dim].to_vec();
            (0..n)
                .map(|i| [at(&out, i), at(&dq, i), at(&dk, i), at(&dv, i)])
                .collect()
        };
        let (a, b, c) = (sample(1), sample(2), sample(3));
        let alone = run(std::slice::from_ref(&b));
        let last = run(&[a.clone(), c.clone(), b.clone()]);
        let first = run(&[b, c, a]);
        assert_eq!(alone[0], last[2]);
        assert_eq!(alone[0], first[0]);
    }

    /// The relu of the whole head over the concatenated rows.
    fn concat_head(lin: &Linear, s: &[f64], rows: usize, x: &[f64]) -> Vec<f64> {
        let d = x.len() / rows;
        let cat: Vec<f64> = x
            .chunks(d)
            .flat_map(|r| s.iter().chain(r))
            .copied()
            .collect();
        let mut out = vec![0.0; rows * lin.out_dim()];
        PackedLinear::compile(lin).forward_relu(rows, &cat, &mut out);
        out
    }

    proptest::proptest! {
        // The shared row's chains once, each row continued from them, is
        // the whole head over the concatenated rows bit for bit, on both
        // sides of `gemm_worthwhile` (1–3 rows of a 16 + 16 → 32 head take
        // the naive loop) and with zero rows, whose chains and bias end at
        // ±0.0 before the ReLU.
        #[test]
        fn shared_row_linear_matches_the_concat_product_bitwise(
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
        let want = concat_head(&lin, &s, rows, &x);
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

    /// A kept forward and one without keeps give the same bits.
    #[test]
    fn a_kept_forward_is_the_inference_forward() {
        let (batch, seq, dim, heads, ff) = (2usize, 9usize, 8usize, 2usize, 16usize);
        let enc = TransformerEncoder::new(2, dim, heads, ff, &mut InitRng::new(5));
        let plan = InferencePlan::compile(&enc);
        let x0 = pseudo(batch * seq * dim, 6);
        let mut want = x0.clone();
        plan.forward(batch, seq, &mut want, &mut Arena::new());
        let mut got = x0;
        let rows = batch * seq;
        let mut acts = vec![vec![0.0; plan.acts_len(rows, true)]; 2];
        let mut acts: Vec<&mut [f64]> = acts.iter_mut().map(|b| &mut b[..]).collect();
        let (mut att, mut scores) = (vec![0.0; rows * dim], vec![0.0; plan.scores_len(seq)]);
        plan.forward_in(batch, seq, &mut got, &mut acts, &mut att, &mut scores, true);
        assert_eq!(got, want);
    }
}
