//! The compiled graph-free surrogate: sub-millisecond decisions.
//!
//! [`SurrogatePlan`] snapshots a [`Surrogate`]'s weights into `dbat-nn`
//! inference plans — B-panels packed once, positional encoding and
//! standardiser constants baked in — so one decision runs as a straight
//! line of kernel calls over a flat [`Arena`], with no autograd tape, no
//! gradient buffers, and no per-call weight packing.
//!
//! [`SurrogatePlan::encode_window`] and [`SurrogatePlan::score`] mirror
//! `Surrogate::encode_window` and `Surrogate::predict_encoded` **bitwise**
//! (same kernels, same dispatch, same accumulation order); the graph
//! methods stay as the oracle the tests compare the plan against.
//!
//! Plans are snapshots: any weight or standardiser update must rebuild
//! them (`Surrogate::invalidate_plan`).
//!
//! `head1`'s chains run over `E_1` first, the same steps for every
//! candidate row: [`SharedRowLinear`] runs them once per decision.

use crate::surrogate::{Surrogate, LOG_EPS, N_FEATURES, N_OUTPUTS};
use dbat_nn::{positional_encoding, Arena, InferencePlan, MhaPlan, PackedLinear, SharedRowLinear};

/// The full surrogate compiled for graph-free inference.
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
    /// `head1` over `[E_1 | E_2]`, its `E_1` half shared by every row.
    head1: SharedRowLinear,
    head2: PackedLinear,
    /// Log-interarrival standardiser constants (single column).
    seq_mean: f64,
    seq_sd: f64,
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
            head1: SharedRowLinear::compile(&model.head1, cfg.dim),
            head2: PackedLinear::compile(&model.head2),
            seq_mean: model.seq_std.mean[0],
            seq_sd: model.seq_std.std[0],
        }
    }

    /// Encode one raw window into its `E_1` representation (length `dim`),
    /// mirroring `Surrogate::encode_window` bitwise: preprocess → embed →
    /// +PE → encoder stack → mean pool → pooled self-attention.
    pub(crate) fn encode_window(&self, window_raw: &[f64], arena: &mut Arena) -> Vec<f64> {
        let (l, d) = (self.seq_len, self.dim);
        assert_eq!(window_raw.len(), l, "window length mismatch");
        let el = self.encoder.scratch_lens(1, l);
        let [xs, x, pooled, e1, q, k, v, ctx, att, scores, ffh] = arena.split([
            l,
            l * d,
            d,
            d,
            el[0],
            el[1],
            el[2],
            el[3],
            el[4],
            el[5],
            el[6],
        ]);
        // Log-transform + standardise (preprocess_seq on a [1, L] window).
        for (o, &w) in xs.iter_mut().zip(window_raw) {
            *o = ((w + LOG_EPS).ln() - self.seq_mean) / self.seq_sd;
        }
        // E_seq = embed(S), treating the window as L rows of 1 feature.
        self.embed.forward(l, xs, x);
        // + positional encoding (batch 1: the tile is the table itself).
        for (xv, &p) in x.iter_mut().zip(&self.pe) {
            *xv += p;
        }
        // E_Trans = encoder stack, in place over x.
        self.encoder
            .forward_with(1, l, x, q, k, v, ctx, att, scores, ffh);
        // E_p = mean over sequence positions (accumulate, then divide —
        // the same order as Graph::mean_axis1).
        pooled.fill(0.0);
        for row in x.chunks_exact(d) {
            for (p, &v) in pooled.iter_mut().zip(row) {
                *p += v;
            }
        }
        for p in pooled.iter_mut() {
            *p /= l as f64;
        }
        // E_1 = self-attention over the length-1 pooled sequence.
        self.pool_attn.forward(
            1,
            1,
            pooled,
            e1,
            &mut q[..d],
            &mut k[..d],
            &mut v[..d],
            &mut ctx[..d],
            scores,
        );
        e1.to_vec()
    }

    /// Sweep `c` *preprocessed* candidate feature rows (`feats_pre:
    /// [c · 3]`, standardised) against one encoded window,
    /// mirroring `Surrogate::predict_encoded` bitwise. Writes the
    /// `[c · N_OUTPUTS]` prediction table into `out`.
    pub(crate) fn score(
        &self,
        e1: &[f64],
        feats_pre: &[f64],
        c: usize,
        out: &mut [f64],
        arena: &mut Arena,
    ) {
        let (d, fh) = (self.dim, self.head1.out_dim());
        assert_eq!(e1.len(), d);
        assert_eq!(feats_pre.len(), c * N_FEATURES);
        assert_eq!(out.len(), c * N_OUTPUTS);
        let [e2, prefix, hid] = arena.split([c * d, fh, c * fh]);
        // E_2 = relu(feat_ff(F))
        self.feat_ff.forward_relu(c, feats_pre, e2);
        // O = head2(relu(head1(Concat(E_1, E_2))))
        self.head1.forward_relu(e1, c, e2, prefix, hid);
        self.head2.forward(c, hid, out);
    }
}
