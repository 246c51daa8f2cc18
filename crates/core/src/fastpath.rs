//! The compiled surrogate: one forward for decisions, predictions and
//! training, and the training step's backward.
//!
//! [`SurrogatePlan`] snapshots a [`Surrogate`]'s weights into `dbat-nn`
//! plans — B-panels packed once, positional encoding and standardiser
//! constants baked in — so a forward runs as a straight line of kernel
//! calls over a flat [`Arena`], with no per-call weight packing.
//!
//! The sequence branch (embed, +PE, the encoder stack, mean-pool and the
//! pooled self-attention) is one function, [`SurrogatePlan::encode`], run
//! over one window by a decision and over a batch by `predict` and the
//! train step; a training forward keeps what the backward reads. A
//! decision then sweeps the candidate configurations with `head1`'s `E_1`
//! half run once ([`SharedRowLinear`]); a batch runs `head1` over each
//! row's `[E_1 | E_2]` as one product.
//!
//! Plans are snapshots: any weight or standardiser update must rebuild
//! them (`Surrogate::invalidate_plan`). The train step compiles one per
//! step and shares it, read-only, between its shards.

use crate::loss::Loss;
use crate::surrogate::{Surrogate, LOG_EPS, N_FEATURES, N_OUTPUTS};
use dbat_nn::{
    carve, positional_encoding, relu_mask, Arena, InferencePlan, MhaPlan, PackedLinear,
    SharedRowLinear, Tensor,
};

/// The full surrogate compiled.
#[derive(Clone, Debug)]
pub struct SurrogatePlan {
    seq_len: usize,
    dim: usize,
    embed: PackedLinear,
    /// Sinusoidal positional encoding, `[seq_len · dim]`, baked at compile.
    pe: Vec<f64>,
    encoder: InferencePlan,
    pool_attn: MhaPlan,
    feat_ff: PackedLinear,
    /// `head1` over each row's `[E_1 | E_2]`.
    head1: PackedLinear,
    /// The same weights, their `E_1` half shared by every candidate row.
    head1_shared: SharedRowLinear,
    head2: PackedLinear,
    /// Log-interarrival standardiser constants (single column).
    seq_mean: f64,
    seq_sd: f64,
    /// Layers of the encoder stack.
    n_layers: usize,
}

/// The arenas one call (or one train-step shard) runs in: `main` for the
/// activations outside the encoder (a decision's encoder too), `layers`
/// for the encoder's, one arena per kept layer, and `grads` for the
/// backward's.
#[derive(Default, Debug)]
pub(crate) struct Workspace {
    pub(crate) main: Arena,
    layers: Vec<Arena>,
    grads: Arena,
}

/// `n` blocks of `len`, one arena each.
fn blocks(arenas: &mut Vec<Arena>, n: usize, len: usize) -> Vec<&mut [f64]> {
    if arenas.len() < n {
        arenas.resize_with(n, Arena::default);
    }
    let blocks = arenas[..n].iter_mut();
    blocks.map(|a| a.split([len])).map(|[b]| b).collect()
}

impl SurrogatePlan {
    /// Snapshot the model's current weights and standardisers.
    pub fn compile(model: &Surrogate) -> Self {
        let cfg = model.cfg;
        SurrogatePlan {
            seq_len: cfg.seq_len,
            dim: cfg.dim,
            embed: PackedLinear::compile(&model.embed),
            pe: positional_encoding(cfg.seq_len, cfg.dim).into_data(),
            encoder: InferencePlan::compile(&model.encoder),
            pool_attn: MhaPlan::compile(&model.pool_attn),
            feat_ff: PackedLinear::compile(&model.feat_ff),
            head1: PackedLinear::compile(&model.head1),
            head1_shared: SharedRowLinear::compile(&model.head1, cfg.dim),
            head2: PackedLinear::compile(&model.head2),
            seq_mean: model.seq_std.mean[0],
            seq_sd: model.seq_std.std[0],
            n_layers: cfg.n_layers,
        }
    }

    /// `x = embed(xs) + PE` for `k` standardised windows `xs: [k · l]`.
    fn embed(&self, k: usize, xs: &[f64], x: &mut [f64]) {
        self.embed.forward(k * self.seq_len, xs, x);
        for window in x.chunks_mut(self.pe.len()) {
            for (xv, &p) in window.iter_mut().zip(&self.pe) {
                *xv += p;
            }
        }
    }

    /// Log-transform and standardise one raw window into `xs`.
    fn preprocess(&self, window_raw: &[f64], xs: &mut [f64]) {
        assert_eq!(window_raw.len(), self.seq_len, "window length mismatch");
        for (o, &w) in xs.iter_mut().zip(window_raw) {
            *o = ((w + LOG_EPS).ln() - self.seq_mean) / self.seq_sd;
        }
    }

    /// Length of each of [`Self::encode`]'s `enc` blocks over `k` windows.
    fn enc_len(&self, k: usize, keep: bool) -> usize {
        self.encoder.acts_len(k * self.seq_len, keep)
    }

    /// Length of the `scores` scratch of the encoder and the pooled
    /// attention.
    fn scores_len(&self) -> usize {
        self.encoder
            .scores_len(self.seq_len)
            .max(self.encoder.scores_len(1))
    }

    /// The sequence branch over `k` standardised windows `xs`, into
    /// `E_1: [k, dim]`: embed → +PE → encoder stack (its buffers in `enc`,
    /// one block per layer kept when `keep`) → mean-pool → self-attention
    /// over each window's length-1 pooled sequence.
    #[allow(clippy::too_many_arguments)]
    fn encode(
        &self,
        k: usize,
        xs: &[f64],
        x: &mut [f64],
        enc: &mut [&mut [f64]],
        pooled: &mut [f64],
        [q, kk, v, ctx]: [&mut [f64]; 4],
        e1: &mut [f64],
        att: &mut [f64],
        scores: &mut [f64],
        keep: bool,
    ) {
        let l = self.seq_len;
        self.embed(k, xs, x);
        self.encoder.forward_in(k, l, x, enc, att, scores, keep);
        mean_pool(self.dim, l, x, pooled);
        self.pool_attn
            .forward(k, 1, pooled, e1, q, kk, v, ctx, scores);
    }

    /// Encode one raw window into its `E_1` representation (length
    /// `dim`): preprocess → embed → +PE → encoder stack → mean pool →
    /// pooled self-attention.
    pub(crate) fn encode_window(&self, window_raw: &[f64], arena: &mut Arena) -> Vec<f64> {
        let (l, d) = (self.seq_len, self.dim);
        let (e, s) = (self.enc_len(1, false), self.scores_len());
        let [xs, x, enc, pooled, q, k, v, ctx, e1, att, scores] =
            arena.split([l, l * d, e, d, d, d, d, d, d, l * d, s]);
        self.preprocess(window_raw, xs);
        self.encode(
            1,
            xs,
            x,
            &mut [enc],
            pooled,
            [q, k, v, ctx],
            e1,
            att,
            scores,
            false,
        );
        e1.to_vec()
    }

    /// `embed(window) + PE` for one raw window: the encoder's input.
    pub(crate) fn embed_window(&self, window_raw: &[f64]) -> Vec<f64> {
        let mut xs = vec![0.0; self.seq_len];
        self.preprocess(window_raw, &mut xs);
        let mut x = vec![0.0; self.seq_len * self.dim];
        self.embed(1, &xs, &mut x);
        x
    }

    /// Sweep `c` *preprocessed* candidate feature rows (`feats_pre:
    /// [c · 3]`, standardised) against one encoded window. Writes the
    /// `[c · N_OUTPUTS]` prediction table into `out`.
    pub(crate) fn score(
        &self,
        e1: &[f64],
        feats_pre: &[f64],
        c: usize,
        out: &mut [f64],
        arena: &mut Arena,
    ) {
        let (d, fh) = (self.dim, self.head1_shared.out_dim());
        assert_eq!(e1.len(), d);
        assert_eq!(feats_pre.len(), c * N_FEATURES);
        assert_eq!(out.len(), c * N_OUTPUTS);
        let [e2, prefix, hid] = arena.split([c * d, fh, c * fh]);
        // E_2 = relu(feat_ff(F))
        self.feat_ff.forward_relu(c, feats_pre, e2);
        // O = head2(relu(head1(Concat(E_1, E_2))))
        self.head1_shared.forward_relu(e1, c, e2, prefix, hid);
        self.head2.forward(c, hid, out);
    }

    /// Buffer lengths of a batch forward over `k` windows: `x`, `pooled`,
    /// the pooled attention's Q, K, V and context, `e1`, `e2`, `cat`,
    /// `hid`, `pred`, `att` and `scores`.
    fn batch_lens(&self, k: usize) -> [usize; 13] {
        let (kd, kld, s) = (k * self.dim, k * self.seq_len * self.dim, self.scores_len());
        let (kf, ko) = (k * self.head1.out_dim(), k * N_OUTPUTS);
        [kld, kd, kd, kd, kd, kd, kd, kd, 2 * kd, kf, ko, kld, s]
    }

    /// The model over `k` preprocessed windows `seq: [k · l]` and feature
    /// rows `feats: [k · 3]`, in `ws`: returns the predictions
    /// `[k · N_OUTPUTS]`. With `keep`, `ws` also holds what
    /// [`Self::train_rows`] reads.
    pub(crate) fn forward<'w>(
        &self,
        k: usize,
        seq: &[f64],
        feats: &[f64],
        ws: &'w mut Workspace,
        keep: bool,
    ) -> &'w [f64] {
        assert_eq!(seq.len(), k * self.seq_len, "window length mismatch");
        assert_eq!(feats.len(), k * N_FEATURES, "feature width mismatch");
        let lens = self.batch_lens(k);
        let [block] = ws.main.split([lens.iter().sum()]);
        let [x, pooled, q, kk, v, ctx, e1, e2, cat, hid, pred, att, scores] = carve(block, lens);
        let n = if keep { self.n_layers } else { 1 };
        let mut enc = blocks(&mut ws.layers, n, self.enc_len(k, keep));
        self.encode(
            k,
            seq,
            x,
            &mut enc,
            pooled,
            [q, kk, v, ctx],
            e1,
            att,
            scores,
            keep,
        );
        // E_2 = relu(feat_ff(F)); O = head2(relu(head1(Concat(E_1, E_2))))
        self.feat_ff.forward_relu(k, feats, e2);
        concat(self.dim, e1, e2, cat);
        self.head1.forward_relu(k, cat, hid);
        self.head2.forward(k, hid, pred);
        pred
    }

    /// Forward, loss and backward over `k` preprocessed rows: returns the
    /// loss and writes every parameter's gradient into `grads`, in
    /// [`Module::parameters`](dbat_nn::Module) order.
    pub(crate) fn train_rows(
        &self,
        k: usize,
        seq: &[f64],
        feats: &[f64],
        loss: &Loss,
        grads: &mut [Tensor],
        ws: &mut Workspace,
    ) -> f64 {
        let value = loss.value(self.forward(k, seq, feats, ws, true));
        // The forward's buffers, carved again as it laid them out.
        let lens = self.batch_lens(k);
        let [block] = ws.main.split([lens.iter().sum()]);
        let [_, pooled, q, kk, v, ctx, _, e2, cat, hid, pred, ..] = carve(block, lens);
        let mut enc = blocks(&mut ws.layers, self.n_layers, self.enc_len(k, true));
        let (l, d) = (self.seq_len, self.dim);
        let (kd, kf, ko) = (k * d, k * self.head1.out_dim(), k * N_OUTPUTS);
        let scratch = (self.pool_attn.backward_scratch_len(k, 1))
            .max(self.encoder.backward_scratch_len(k, l));
        let glens = [ko, kf, 2 * kd, kd, kd, kd, kd * l, scratch];
        let [block] = ws.grads.split([glens.iter().sum()]);
        let [dpred, dhid, dcat, de1, de2, dpooled, dx, scratch] = carve(block, glens);
        // Parameter groups from the back: head2, head1, feat_ff, the
        // pooled attention, the encoder, the embedding.
        let n = grads.len();
        loss.grad(pred, dpred);
        self.head2
            .backward(k, hid, dpred, &mut grads[n - 2..], Some(dhid));
        relu_mask(dhid, hid);
        self.head1
            .backward(k, cat, dhid, &mut grads[n - 4..n - 2], Some(dcat));
        split(d, dcat, de1, de2);
        relu_mask(de2, e2);
        self.feat_ff
            .backward(k, feats, de2, &mut grads[n - 6..n - 4], None);
        let saved = [&*pooled, &*q, &*kk, &*v, &*ctx];
        let pool = &mut grads[n - 14..n - 6];
        self.pool_attn
            .backward(k, 1, saved, de1, pool, dpooled, false, scratch);
        mean_pool_backward(d, l, dpooled, dx);
        let encoder = &mut grads[2..n - 14];
        self.encoder.backward(k, l, &mut enc, dx, encoder, scratch);
        // The positional add passes `dx` through to the embedding.
        self.embed.backward(k * l, seq, dx, &mut grads[..2], None);
        value
    }
}

/// `pooled[i] = Σ_s x[i, s] / l` over each window's `l` rows of `d`:
/// accumulate from zero in row order, then divide.
fn mean_pool(d: usize, l: usize, x: &[f64], pooled: &mut [f64]) {
    for (p, window) in pooled.chunks_mut(d).zip(x.chunks(l * d)) {
        p.fill(0.0);
        for row in window.chunks(d) {
            for (acc, &v) in p.iter_mut().zip(row) {
                *acc += v;
            }
        }
        for acc in p.iter_mut() {
            *acc /= l as f64;
        }
    }
}

/// Backward of [`mean_pool`]: every row of window `i` gets `dp[i] / l`.
fn mean_pool_backward(d: usize, l: usize, dp: &[f64], dx: &mut [f64]) {
    for (g, window) in dp.chunks(d).zip(dx.chunks_mut(l * d)) {
        for row in window.chunks_mut(d) {
            for (o, &gv) in row.iter_mut().zip(g) {
                *o = gv / l as f64;
            }
        }
    }
}

/// `cat[i] = [a[i] | b[i]]` over rows of `d` each.
fn concat(d: usize, a: &[f64], b: &[f64], cat: &mut [f64]) {
    for ((row, ra), rb) in cat.chunks_mut(2 * d).zip(a.chunks(d)).zip(b.chunks(d)) {
        row[..d].copy_from_slice(ra);
        row[d..].copy_from_slice(rb);
    }
}

/// Backward of [`concat`]: each row's halves.
fn split(d: usize, dcat: &[f64], da: &mut [f64], db: &mut [f64]) {
    for ((row, ra), rb) in dcat
        .chunks(2 * d)
        .zip(da.chunks_mut(d))
        .zip(db.chunks_mut(d))
    {
        ra.copy_from_slice(&row[..d]);
        rb.copy_from_slice(&row[d..]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbat_nn::Module;

    /// Central differences of `f` at `x0` against `want`, at 1e-5
    /// relative tolerance, over the elements `at`.
    pub(crate) fn grad_check(
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
            let numeric = (fp - f(&x)) / (2.0 * h);
            assert!(
                (want[i] - numeric).abs() <= 1e-5 * (1.0 + numeric.abs()),
                "element {i}: analytic {} vs numeric {numeric}",
                want[i]
            );
        }
    }

    fn dot(w: &[f64], y: &[f64]) -> f64 {
        w.iter().zip(y).map(|(a, b)| a * b).sum()
    }

    fn ramp(n: usize, scale: f64) -> Vec<f64> {
        (0..n)
            .map(|i| scale * ((i * 7 % 11) as f64 - 5.0))
            .collect()
    }

    /// The positional encoding is added to every window of a batch: with
    /// zero inputs the embedding is its bias plus the table, window by
    /// window.
    #[test]
    fn embed_adds_the_positional_encoding_to_every_window() {
        let m = Surrogate::new(crate::SurrogateConfig::tiny(), 3);
        let plan = SurrogatePlan::compile(&m);
        let (l, d) = (plan.seq_len, plan.dim);
        let mut x = vec![f64::NAN; 3 * l * d];
        plan.embed(3, &vec![0.0; 3 * l], &mut x);
        let bias = m.embed.parameters()[1].data();
        for window in x.chunks(l * d) {
            for (row, pe) in window.chunks(d).zip(plan.pe.chunks(d)) {
                let want: Vec<f64> = bias.iter().zip(pe).map(|(b, p)| b + p).collect();
                assert_eq!(row, &want[..]);
            }
        }
    }

    #[test]
    fn grad_mean_pool() {
        // Two windows of 3 rows of 2; l = 3 is not a power of two.
        let (d, l) = (2, 3);
        let (x0, w) = (ramp(12, 0.1), ramp(4, 0.3));
        let mut dx = vec![0.0; 12];
        mean_pool_backward(d, l, &w, &mut dx);
        let f = |x: &[f64]| {
            let mut p = vec![0.0; 4];
            mean_pool(d, l, x, &mut p);
            dot(&w, &p)
        };
        grad_check(f, &x0, &dx, 0..12);
    }

    #[test]
    fn grad_concat() {
        let d = 3;
        let (a0, b0, w) = (ramp(6, 0.2), ramp(6, -0.1), ramp(12, 0.4));
        let (mut da, mut db) = (vec![0.0; 6], vec![0.0; 6]);
        split(d, &w, &mut da, &mut db);
        let cat = |a: &[f64], b: &[f64]| {
            let mut c = vec![0.0; 12];
            concat(d, a, b, &mut c);
            dot(&w, &c)
        };
        grad_check(|a| cat(a, &b0), &a0, &da, 0..6);
        grad_check(|b| cat(&a0, b), &b0, &db, 0..6);
    }
}
