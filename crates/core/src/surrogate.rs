//! The DeepBAT deep surrogate model — the architecture of the paper's
//! Fig. 3 / §III-D, built on `dbat-nn`:
//!
//! ```text
//! seq ──FeedForward──► E_seq ──+PosEnc──► E_pos ──TransformerEncoder×N──►
//!   E_Trans ──MeanPool──► E_p ──MultiHeadAtt(E_p,E_p,E_p)──► E_1 ─┐
//! F ──Standardize──FeedForward──► E_2 ───────────────────────────┤
//!                                              Concat ──FeedForward──► O
//! ```
//!
//! Inputs: a window of `l` interarrival times (log-transformed and
//! standardised) and the candidate configuration `(M, B, T)` (standardised).
//! Output `O`: `[cost (µ$/req), p50, p90, p95, p99]` with latencies in
//! seconds.
//!
//! The sequence branch (everything up to `E_1`) is independent of the
//! candidate configuration, so the optimizer encodes a window **once** and
//! sweeps all configurations through the cheap feature/head branch — this
//! is what makes DeepBAT's decision latency milliseconds while BATCH
//! re-solves matrix exponentials per configuration (§IV-F).

use crate::fastpath::SurrogatePlan;
use dbat_nn::{
    add_positional, tree_reduce_grads, Adam, Arena, Binder, Checkpoint, Graph, InitRng, Linear,
    Module, MultiHeadAttention, Standardizer, Tensor, TransformerEncoder, Var,
};
use dbat_workload::DbatError;
use rayon::prelude::*;
use serde::{Deserialize, Serialize};
use std::sync::{Arc, Mutex};

/// Floor added before the log transform of interarrival times.
pub(crate) const LOG_EPS: f64 = 1e-6;

/// Scalar configuration features per candidate: `(M, B, T)`.
pub(crate) const N_FEATURES: usize = 3;

/// Cap on pooled scratch tapes / arenas retained between calls. Training
/// warms tapes with batch-sized buffers; without a cap the pool keeps one
/// such tape per peak-concurrency caller forever. Returns beyond the cap
/// are dropped, so pools shrink back to steady-state inference needs.
const SCRATCH_POOL_CAP: usize = 4;

/// Architecture hyper-parameters (paper defaults in `Default`).
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct SurrogateConfig {
    /// Window length `l` (paper: 256, chosen in the Fig. 15a sensitivity).
    pub seq_len: usize,
    /// Embedding dimension (paper: 16).
    pub dim: usize,
    /// Attention heads.
    pub heads: usize,
    /// Feed-forward hidden width (paper: 32).
    pub ff_hidden: usize,
    /// Number of stacked encoder layers (paper: 2, Fig. 15b).
    pub n_layers: usize,
    /// Output width: cost + four latency percentiles.
    pub n_outputs: usize,
}

impl Default for SurrogateConfig {
    fn default() -> Self {
        SurrogateConfig {
            seq_len: 256,
            dim: 16,
            heads: 4,
            ff_hidden: 32,
            n_layers: 2,
            n_outputs: 5,
        }
    }
}

impl SurrogateConfig {
    /// A tiny configuration for fast tests.
    pub fn tiny() -> Self {
        SurrogateConfig {
            seq_len: 16,
            dim: 8,
            heads: 2,
            ff_hidden: 16,
            n_layers: 1,
            n_outputs: 5,
        }
    }
}

/// The deep surrogate network plus its input standardisers.
pub struct Surrogate {
    pub cfg: SurrogateConfig,
    pub embed: Linear,
    pub encoder: TransformerEncoder,
    pub pool_attn: MultiHeadAttention,
    pub feat_ff: Linear,
    pub head1: Linear,
    pub head2: Linear,
    /// Standardiser for the log-interarrival channel (1 column).
    pub seq_std: Standardizer,
    /// Standardiser for the (M, B, T) features.
    pub feat_std: Standardizer,
    /// Pool of scratch autograd tapes reused across forward passes; each
    /// caller checks one out for the duration of its pass, so concurrent
    /// inference keeps every warmed buffer pool instead of the last writer
    /// overwriting the rest. Repeated same-shaped predictions are
    /// allocation-free once a tape is warm. The train step draws its
    /// per-shard tapes from the same pool.
    scratch: Mutex<Vec<Graph>>,
    /// Lazily compiled graph-free inference plan (see [`SurrogatePlan`]).
    /// Invalidated on every weight/standardiser update; callers that
    /// mutate parameters directly (e.g. through [`Module::parameters_mut`])
    /// must call [`Surrogate::invalidate_plan`] themselves.
    plan: Mutex<Option<Arc<SurrogatePlan>>>,
    /// Pooled scratch arenas for the fast path (same checkout protocol as
    /// `scratch`, same [`SCRATCH_POOL_CAP`]).
    arenas: Mutex<Vec<Arena>>,
}

impl Surrogate {
    pub fn new(cfg: SurrogateConfig, seed: u64) -> Self {
        let mut rng = InitRng::new(seed);
        Surrogate {
            cfg,
            embed: Linear::new(1, cfg.dim, &mut rng),
            encoder: TransformerEncoder::new(
                cfg.n_layers,
                cfg.dim,
                cfg.heads,
                cfg.ff_hidden,
                &mut rng,
            ),
            pool_attn: MultiHeadAttention::new(cfg.dim, cfg.heads, &mut rng),
            feat_ff: Linear::new(N_FEATURES, cfg.dim, &mut rng),
            head1: Linear::new(2 * cfg.dim, cfg.ff_hidden, &mut rng),
            head2: Linear::new(cfg.ff_hidden, cfg.n_outputs, &mut rng),
            seq_std: Standardizer {
                mean: vec![0.0],
                std: vec![1.0],
            },
            feat_std: Standardizer {
                mean: vec![0.0; N_FEATURES],
                std: vec![1.0; N_FEATURES],
            },
            scratch: Mutex::new(Vec::new()),
            plan: Mutex::new(None),
            arenas: Mutex::new(Vec::new()),
        }
    }

    /// Run `f` on a scratch tape checked out of the pool (a fresh tape if
    /// the pool is empty), then reset it and return it to the pool so its
    /// buffers survive for the next call. `f` must clone out anything it
    /// keeps. The lock is held only around the pop/push, never across `f`,
    /// so concurrent callers each get their own tape.
    fn with_scratch<R>(&self, f: impl FnOnce(&mut Graph) -> R) -> R {
        let mut g = self.scratch.lock().unwrap().pop().unwrap_or_default();
        let out = f(&mut g);
        g.reset();
        self.return_scratch(g);
        out
    }

    /// Return a scratch tape to the pool, dropping it if the pool is
    /// already at [`SCRATCH_POOL_CAP`] (so over-provisioned pools shrink).
    fn return_scratch(&self, g: Graph) {
        let mut pool = self.scratch.lock().unwrap();
        if pool.len() < SCRATCH_POOL_CAP {
            pool.push(g);
        }
    }

    /// Drop every pooled scratch tape and fast-path arena.
    /// Call after training: the pools hold batch-sized warmed buffers that
    /// steady-state inference never needs again.
    pub fn trim_scratch(&self) {
        self.scratch.lock().unwrap().clear();
        self.arenas.lock().unwrap().clear();
    }

    /// The compiled graph-free plan for the current weights, building it
    /// on first use. Cheap once warm (an `Arc` clone under a lock).
    pub fn plan(&self) -> Arc<SurrogatePlan> {
        let mut slot = self.plan.lock().unwrap();
        if let Some(p) = slot.as_ref() {
            return Arc::clone(p);
        }
        let p = Arc::new(SurrogatePlan::compile(self));
        *slot = Some(Arc::clone(&p));
        p
    }

    /// Drop the compiled plan so the next fast-path call re-snapshots the
    /// weights. Called automatically by the train step; required manually
    /// after any direct parameter or standardiser mutation.
    pub fn invalidate_plan(&self) {
        *self.plan.lock().unwrap() = None;
    }

    /// Run `f` on a pooled fast-path arena (checkout protocol and cap as
    /// [`Surrogate::with_scratch`]).
    fn with_arena<R>(&self, f: impl FnOnce(&mut Arena) -> R) -> R {
        let mut a = self.arenas.lock().unwrap().pop().unwrap_or_default();
        let out = f(&mut a);
        let mut pool = self.arenas.lock().unwrap();
        if pool.len() < SCRATCH_POOL_CAP {
            pool.push(a);
        }
        out
    }

    /// Graph-free [`Surrogate::encode_window`]: bitwise-identical output,
    /// no tape, pre-packed weights, flat scratch.
    pub fn encode_window_fast(&self, window_raw: &[f64]) -> Vec<f64> {
        let plan = self.plan();
        self.with_arena(|a| plan.encode_window(window_raw, a))
    }

    /// Graph-free [`Surrogate::predict_encoded`] on *already standardised*
    /// features ([`Surrogate::preprocess_feats`]): bitwise-identical
    /// output. The optimizer caches the preprocessed grid tensor and skips
    /// the per-decision transform.
    pub fn predict_encoded_fast_pre(&self, e1: &[f64], feats_pre: &Tensor) -> Tensor {
        let c = feats_pre.shape()[0];
        let plan = self.plan();
        let mut out = vec![0.0; c * self.cfg.n_outputs];
        self.with_arena(|a| plan.score(e1, feats_pre.data(), c, &mut out, a));
        Tensor::new(vec![c, self.cfg.n_outputs], out)
    }

    /// Log-transform raw interarrivals, then standardise. Input `[B, L]`.
    pub fn preprocess_seq(&self, raw: &Tensor) -> Tensor {
        let logged = raw.map(|x| (x + LOG_EPS).ln());
        let n = logged.numel();
        let flat = logged.reshape(vec![n, 1]);
        self.seq_std.transform(&flat).reshape(raw.shape().to_vec())
    }

    /// Standardise raw `(M, B, T)` features. Input `[B, 3]`.
    pub fn preprocess_feats(&self, raw: &Tensor) -> Tensor {
        self.feat_std.transform(raw)
    }

    /// `E_pos = FeedForward(S) + PosEnc` (Eq. 1) for preprocessed windows
    /// `seq: [K, L]` → `[K, L, D]`.
    fn embed_windows(&self, b: &mut Binder, seq: Var) -> Var {
        let shape = b.g.value(seq).shape().to_vec();
        assert_eq!(shape.len(), 2, "seq must be [K, L]");
        assert_eq!(shape[1], self.cfg.seq_len, "window length mismatch");
        let s3 = b.g.reshape(seq, vec![shape[0], shape[1], 1]);
        let e_seq = self.embed.forward(b, s3);
        add_positional(b, e_seq)
    }

    /// The configuration-independent branch: preprocessed windows
    /// `seq: [K, L]` → `E_1: [K, D]`.
    fn encode_windows(&self, b: &mut Binder, seq: Var) -> Var {
        let k = b.g.value(seq).shape()[0];
        let e_pos = self.embed_windows(b, seq);
        // E_Trans = TransformerEncoder(E_pos)  (Eq. 2)
        let e_trans = self.encoder.forward(b, e_pos);
        // E_p = MeanPool(E_Trans), [K, D]
        let e_p = b.g.mean_axis1(e_trans);
        // E_1 = MultiHeadAtt(E_p, E_p, E_p)  (Eq. 4; mask is a no-op on a
        // length-1 pooled sequence)
        let e_p3 = b.g.reshape(e_p, vec![k, 1, self.cfg.dim]);
        let e1 = self.pool_attn.forward(b, e_p3);
        b.g.reshape(e1, vec![k, self.cfg.dim])
    }

    /// Full differentiable forward on *preprocessed* inputs.
    /// `seq: [K, L]`, `feats: [K, F]` → `[K, O]`. The tape holds no
    /// attention weights (see `dbat_nn::Graph::attention`).
    pub fn forward(&self, b: &mut Binder, seq: Var, feats: Var) -> Var {
        let e1 = self.encode_windows(b, seq);
        // E_2 = FeedForward(Standardize(F))  (Eq. 5)
        let e2 = self.feat_ff.forward(b, feats);
        let e2 = b.g.relu(e2);
        // O = FeedForward(Concat(E_1, E_2))  (Eq. 6)
        let cat = b.g.concat_lastdim(e1, e2);
        let h = self.head1.forward(b, cat);
        let h = b.g.relu(h);
        self.head2.forward(b, h)
    }

    /// Inference on raw inputs: `seq_raw: [K, L]` interarrivals (seconds),
    /// `feats_raw: [K, F]` configurations. Returns `[K, O]` predictions.
    pub fn predict(&self, seq_raw: &Tensor, feats_raw: &Tensor) -> Tensor {
        let seq = self.preprocess_seq(seq_raw);
        let feats = self.preprocess_feats(feats_raw);
        self.with_scratch(|g| {
            let mut b = Binder::new(g);
            let sv = b.g.leaf(seq);
            let fv = b.g.leaf(feats);
            let out = self.forward(&mut b, sv, fv);
            b.g.value(out).clone()
        })
    }

    /// Encode one raw window into its configuration-independent `E_1`
    /// representation (length `dim`). The expensive branch, run once.
    pub fn encode_window(&self, window_raw: &[f64]) -> Vec<f64> {
        assert_eq!(window_raw.len(), self.cfg.seq_len, "window length mismatch");
        let seq = self.preprocess_seq(&Tensor::new(vec![1, self.cfg.seq_len], window_raw.to_vec()));
        self.with_scratch(|g| {
            let mut b = Binder::new(g);
            let sv = b.g.leaf(seq);
            let e1 = self.encode_windows(&mut b, sv);
            b.g.value(e1).data().to_vec()
        })
    }

    /// Sweep many candidate configurations against one encoded window: the
    /// cheap branch of the optimizer's exhaustive search.
    /// `feats_raw: [C, F]` → `[C, O]`.
    pub fn predict_encoded(&self, e1: &[f64], feats_raw: &Tensor) -> Tensor {
        assert_eq!(e1.len(), self.cfg.dim);
        let feats = self.preprocess_feats(feats_raw);
        self.with_scratch(|g| {
            let mut b = Binder::new(g);
            // E1 enters once as a single row and is broadcast across the
            // candidate rows at the concat — no [C, dim] tile materialised.
            let e1v =
                b.g.constant(Tensor::new(vec![1, self.cfg.dim], e1.to_vec()));
            let fv = b.g.leaf(feats);
            let e2 = self.feat_ff.forward(&mut b, fv);
            let e2 = b.g.relu(e2);
            let cat = b.g.concat_broadcast_row(e1v, e2);
            let h = self.head1.forward(&mut b, cat);
            let h = b.g.relu(h);
            let out = self.head2.forward(&mut b, h);
            b.g.value(out).clone()
        })
    }

    /// Mean encoder attention received by each sequence position for one raw
    /// window (aggregated over heads and query positions) — Fig. 14. Runs
    /// the encoder up to its last layer, then asks that layer's attention
    /// for the weights the tape never holds.
    pub fn attention_profile(&self, window_raw: &[f64]) -> Vec<f64> {
        let l = self.cfg.seq_len;
        assert_eq!(window_raw.len(), l);
        let seq = self.preprocess_seq(&Tensor::new(vec![1, l], window_raw.to_vec()));
        let (last, earlier) = self
            .encoder
            .layers
            .split_last()
            .expect("encoder has at least one layer");
        let attn = self.with_scratch(|g| {
            let mut b = Binder::new(g);
            let sv = b.g.leaf(seq);
            let e_pos = self.embed_windows(&mut b, sv);
            let x = earlier
                .iter()
                .fold(e_pos, |x, layer| layer.forward(&mut b, x));
            let x = b.g.value(x).reshape(vec![l, self.cfg.dim]);
            last.mha.attention_weights(&x) // [H, L, L]
        });
        let mut profile = vec![0.0; l];
        for row in attn.data().chunks(l) {
            for (p, &a) in profile.iter_mut().zip(row) {
                *p += a;
            }
        }
        let heads_x_rows = (attn.numel() / l) as f64;
        profile.iter_mut().for_each(|p| *p /= heads_x_rows);
        // Normalise to max 1 for plotting.
        let max = profile.iter().cloned().fold(f64::MIN, f64::max).max(1e-12);
        profile.iter_mut().for_each(|p| *p /= max);
        profile
    }

    /// One Adam step on a preprocessed mini-batch; returns the loss.
    /// `weights` carries the paper's SLO-violation penalty (§IV-D). The
    /// batch is split into `shards` contiguous row ranges (at most one per
    /// row; `1` is the whole batch on one tape) trained data-parallel: each
    /// shard runs forward/backward on its own graph, losses use the
    /// *global* weight normalisers (so shard gradients sum exactly to the
    /// full-shard-set gradients), and the per-shard gradients are combined
    /// by a fixed-order tree reduction before the single optimizer step.
    ///
    /// Determinism contract: the result is a pure function of the inputs and
    /// the shard count — `parallel` only changes scheduling, never the
    /// bits. Loss curves reproduce at any thread count as long as `shards`
    /// is held fixed.
    #[allow(clippy::too_many_arguments)]
    pub fn train_step_sharded(
        &mut self,
        seq: Tensor,
        feats: Tensor,
        targets: &Tensor,
        weights: &Tensor,
        alpha: f64,
        delta: f64,
        adam: &mut Adam,
        shards: usize,
        parallel: bool,
    ) -> f64 {
        let n = seq.shape()[0];
        let s = shards.clamp(1, n.max(1));
        let l = seq.shape()[1];
        let fdim = feats.shape()[1];
        let odim = targets.shape()[1];
        // Global normalisers shared by every shard's loss ops.
        let norms = ShardNorms::of(targets, weights);

        // One slot per shard: its scratch graph plus its contiguous row
        // slice of every input. Graphs persist across steps in the scratch
        // pool (up to its cap; shards beyond it build a fresh tape).
        struct Slot {
            graph: Graph,
            inputs: Option<(Tensor, Tensor, Tensor, Tensor)>,
            loss: f64,
            grads: Vec<Tensor>,
        }
        let mut slots: Vec<Slot> = (0..s)
            .map(|i| {
                let mut graph = self.scratch.lock().unwrap().pop().unwrap_or_default();
                let (r0, r1) = (i * n / s, (i + 1) * n / s);
                let rows = r1 - r0;
                let mut slice = |src: &Tensor, width: usize| {
                    let mut buf = graph.pool_mut().take(rows * width);
                    buf.copy_from_slice(&src.data()[r0 * width..r1 * width]);
                    Tensor::new(vec![rows, width], buf)
                };
                let inputs = Some((
                    slice(&seq, l),
                    slice(&feats, fdim),
                    slice(targets, odim),
                    slice(weights, odim),
                ));
                Slot {
                    graph,
                    inputs,
                    loss: 0.0,
                    grads: Vec::new(),
                }
            })
            .collect();

        let model: &Surrogate = self;
        let run = |slot: &mut Slot| {
            let (seq_s, feats_s, tgt_s, w_s) = slot.inputs.take().expect("slot runs once");
            let (loss, grads) = shard_forward_backward(
                model,
                &mut slot.graph,
                seq_s,
                feats_s,
                &tgt_s,
                &w_s,
                alpha,
                delta,
                norms,
            );
            slot.graph.pool_mut().put(tgt_s.into_data());
            slot.graph.pool_mut().put(w_s.into_data());
            slot.loss = loss;
            slot.grads = grads;
        };
        if parallel {
            slots
                .par_chunks_mut(1)
                .enumerate()
                .for_each(|(_, chunk)| run(&mut chunk[0]));
        } else {
            for slot in &mut slots {
                run(slot);
            }
        }

        // Fixed index-order loss sum and fixed-order gradient tree: both are
        // independent of which thread ran which shard.
        let loss_val: f64 = slots.iter().map(|sl| sl.loss).sum();
        let per_shard: Vec<Vec<Tensor>> = slots
            .iter_mut()
            .map(|sl| std::mem::take(&mut sl.grads))
            .collect();
        let mut reduced = tree_reduce_grads(per_shard);
        let mut params = self.parameters_mut();
        adam.step(&mut params, &reduced);
        self.invalidate_plan();
        // Returned last-first, so each shard pops its own warmed tape again.
        for (i, slot) in slots.into_iter().enumerate().rev() {
            let mut graph = slot.graph;
            if i == 0 {
                // Recycle the reduced gradient buffers through one pool.
                for t in reduced.drain(..) {
                    graph.pool_mut().put(t.into_data());
                }
            }
            self.return_scratch(graph);
        }
        loss_val
    }

    /// Evaluate the combined loss on a preprocessed batch without updating.
    pub fn eval_loss(
        &self,
        seq: Tensor,
        feats: Tensor,
        targets: &Tensor,
        weights: &Tensor,
        alpha: f64,
        delta: f64,
    ) -> f64 {
        let norms = ShardNorms::of(targets, weights);
        self.with_scratch(|g| {
            let mut b = Binder::new(g);
            let sv = b.g.leaf(seq);
            let fv = b.g.leaf(feats);
            let pred = self.forward(&mut b, sv, fv);
            let ml = b.g.mape_loss(pred, targets, weights, norms.mape_wsum);
            let hl =
                b.g.huber_loss(pred, targets, weights, delta, norms.huber_wsum);
            alpha * b.g.value(ml).item() + (1.0 - alpha) * b.g.value(hl).item()
        })
    }

    /// Save to a JSON checkpoint (weights + config + standardisers).
    pub fn save(&self, path: impl AsRef<std::path::Path>) -> std::io::Result<()> {
        let meta = serde_json::json!({
            "config": self.cfg,
            "seq_std": self.seq_std,
            "feat_std": self.feat_std,
        });
        let params = self.parameters().into_iter().cloned().collect();
        Checkpoint::new("deepbat-surrogate", params, meta).save(path)
    }

    /// Load from a JSON checkpoint. I/O problems surface as
    /// [`DbatError::Io`]; malformed checkpoints as [`DbatError::Parse`].
    pub fn load(path: impl AsRef<std::path::Path>) -> Result<Self, DbatError> {
        let ck = Checkpoint::load(path)?;
        let cfg: SurrogateConfig = serde_json::from_value(ck.meta["config"].clone())
            .map_err(|e| DbatError::Parse(format!("surrogate checkpoint config: {e}")))?;
        let mut model = Surrogate::new(cfg, 0);
        model.seq_std = serde_json::from_value(ck.meta["seq_std"].clone())
            .map_err(|e| DbatError::Parse(format!("surrogate checkpoint seq_std: {e}")))?;
        model.feat_std = serde_json::from_value(ck.meta["feat_std"].clone())
            .map_err(|e| DbatError::Parse(format!("surrogate checkpoint feat_std: {e}")))?;
        dbat_nn::load_into(ck.params, model.parameters_mut())
            .map_err(|e| DbatError::Parse(format!("surrogate checkpoint weights: {e}")))?;
        Ok(model)
    }
}

/// The loss ops' weight normalisers (see `Graph::huber_loss`): computed
/// over the full batch, shared by every shard so that shard gradients sum
/// exactly to the full-batch gradients.
#[derive(Clone, Copy)]
struct ShardNorms {
    huber_wsum: f64,
    mape_wsum: f64,
}

impl ShardNorms {
    fn of(targets: &Tensor, weights: &Tensor) -> Self {
        ShardNorms {
            huber_wsum: weights.data().iter().sum(),
            mape_wsum: targets
                .data()
                .iter()
                .zip(weights.data())
                .filter(|&(&t, _)| t != 0.0)
                .map(|(_, &w)| w)
                .sum(),
        }
    }
}

/// Forward + combined loss + backward on one (shard of a) batch, returning
/// the loss value and per-parameter gradients in binding order. The tape is
/// reset (buffers repooled) before returning, ready for the next step.
#[allow(clippy::too_many_arguments)]
fn shard_forward_backward(
    model: &Surrogate,
    g: &mut Graph,
    seq: Tensor,
    feats: Tensor,
    targets: &Tensor,
    weights: &Tensor,
    alpha: f64,
    delta: f64,
    norms: ShardNorms,
) -> (f64, Vec<Tensor>) {
    let (loss, vars, loss_val) = {
        let mut b = Binder::new(g);
        let sv = b.g.leaf(seq);
        let fv = b.g.leaf(feats);
        let pred = model.forward(&mut b, sv, fv);
        let ml = b.g.mape_loss(pred, targets, weights, norms.mape_wsum);
        let hl =
            b.g.huber_loss(pred, targets, weights, delta, norms.huber_wsum);
        let ml_s = b.g.scale(ml, alpha);
        let hl_s = b.g.scale(hl, 1.0 - alpha);
        let loss = b.g.add(ml_s, hl_s);
        let lv = b.g.value(loss).item();
        (loss, b.vars, lv)
    };
    let mut grads = g.backward(loss);
    let grad_tensors: Vec<Tensor> = vars
        .iter()
        .map(|v| {
            grads[v.0]
                .take()
                .unwrap_or_else(|| Tensor::zeros(g.value(*v).shape().to_vec()))
        })
        .collect();
    // Repool the remaining (input-leaf) gradients and the tape itself.
    for t in grads.into_iter().flatten() {
        g.pool_mut().put(t.into_data());
    }
    g.reset();
    (loss_val, grad_tensors)
}

impl Module for Surrogate {
    fn parameters(&self) -> Vec<&Tensor> {
        let mut p = self.embed.parameters();
        p.extend(self.encoder.parameters());
        p.extend(self.pool_attn.parameters());
        p.extend(self.feat_ff.parameters());
        p.extend(self.head1.parameters());
        p.extend(self.head2.parameters());
        p
    }
    fn parameters_mut(&mut self) -> Vec<&mut Tensor> {
        let mut p = self.embed.parameters_mut();
        p.extend(self.encoder.parameters_mut());
        p.extend(self.pool_attn.parameters_mut());
        p.extend(self.feat_ff.parameters_mut());
        p.extend(self.head1.parameters_mut());
        p.extend(self.head2.parameters_mut());
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Surrogate {
        Surrogate::new(SurrogateConfig::tiny(), 7)
    }

    fn raw_window(l: usize) -> Vec<f64> {
        (0..l).map(|i| 0.01 + 0.002 * (i % 5) as f64).collect()
    }

    #[test]
    fn predict_shapes() {
        let m = tiny();
        let l = m.cfg.seq_len;
        let seq = Tensor::new(vec![2, l], [raw_window(l), raw_window(l)].concat());
        let feats = Tensor::new(vec![2, 3], vec![1024.0, 4.0, 0.05, 2048.0, 8.0, 0.1]);
        let out = m.predict(&seq, &feats);
        assert_eq!(out.shape(), &[2, 5]);
        assert!(out.data().iter().all(|x| x.is_finite()));
    }

    #[test]
    fn encoded_sweep_matches_full_forward() {
        let m = tiny();
        let l = m.cfg.seq_len;
        let w = raw_window(l);
        let feats = Tensor::new(
            vec![3, 3],
            vec![512.0, 1.0, 0.0, 1024.0, 4.0, 0.05, 3008.0, 16.0, 0.2],
        );
        // Full path: tile the window to 3 rows.
        let seq = Tensor::new(vec![3, l], [w.clone(), w.clone(), w.clone()].concat());
        let full = m.predict(&seq, &feats);
        // Split path: encode once, sweep.
        let e1 = m.encode_window(&w);
        let swept = m.predict_encoded(&e1, &feats);
        for (a, b) in full.data().iter().zip(swept.data()) {
            assert!((a - b).abs() < 1e-9, "full {a} vs swept {b}");
        }
    }

    #[test]
    fn training_reduces_loss_on_toy_mapping() {
        // Target: [sum of feats scaled, 4 constants]; the model should fit it.
        let mut m = tiny();
        let l = m.cfg.seq_len;
        let k = 16;
        let mut seqs = Vec::new();
        let mut feats = Vec::new();
        let mut targets = Vec::new();
        for i in 0..k {
            seqs.extend(raw_window(l).iter().map(|x| x * (1.0 + i as f64 * 0.05)));
            let f = [
                512.0 + 100.0 * i as f64,
                (i % 8 + 1) as f64,
                0.01 * i as f64,
            ];
            feats.extend_from_slice(&f);
            let y = 0.001 * f[0] / 512.0 + 0.05 * f[1];
            targets.extend_from_slice(&[y, 0.5 * y, 0.8 * y, y, 1.2 * y]);
        }
        let seq_t = Tensor::new(vec![k, l], seqs);
        let feat_t = Tensor::new(vec![k, 3], feats);
        let tgt = Tensor::new(vec![k, 5], targets);
        let w = Tensor::full(vec![k, 5], 1.0);
        // Fit standardisers.
        m.seq_std = Standardizer::fit(&m.preprocess_seq_fit_helper(&seq_t));
        m.feat_std = Standardizer::fit(&feat_t);

        let mut adam = Adam::new(5e-3);
        let first = m.eval_loss(
            m.preprocess_seq(&seq_t),
            m.preprocess_feats(&feat_t),
            &tgt,
            &w,
            0.05,
            1.0,
        );
        for _ in 0..60 {
            m.train_step_sharded(
                m.preprocess_seq(&seq_t),
                m.preprocess_feats(&feat_t),
                &tgt,
                &w,
                0.05,
                1.0,
                &mut adam,
                1,
                false,
            );
        }
        let last = m.eval_loss(
            m.preprocess_seq(&seq_t),
            m.preprocess_feats(&feat_t),
            &tgt,
            &w,
            0.05,
            1.0,
        );
        assert!(
            last < first * 0.5,
            "training failed to reduce loss: {first} -> {last}"
        );
    }

    #[test]
    fn sharded_train_step_parallel_matches_serial_bitwise() {
        // Same data, same shard count: the parallel and serial execution
        // paths must produce bit-identical losses and parameters, because
        // shard order, loss summation order, and the gradient tree reduction
        // are all fixed by the shard count alone.
        let l = SurrogateConfig::tiny().seq_len;
        let k = 12;
        let mk_batch = || {
            let mut seqs = Vec::new();
            let mut feats = Vec::new();
            let mut targets = Vec::new();
            for i in 0..k {
                seqs.extend(raw_window(l).iter().map(|x| x * (1.0 + i as f64 * 0.07)));
                let f = [700.0 + 90.0 * i as f64, (i % 4 + 1) as f64, 0.02 * i as f64];
                feats.extend_from_slice(&f);
                let y = 0.002 * f[0] / 512.0 + 0.03 * f[1];
                targets.extend_from_slice(&[y, 0.5 * y, 0.8 * y, y, 1.2 * y]);
            }
            (
                Tensor::new(vec![k, l], seqs),
                Tensor::new(vec![k, 3], feats),
                Tensor::new(vec![k, 5], targets),
                Tensor::full(vec![k, 5], 1.0),
            )
        };
        let mut m_par = tiny();
        let mut m_ser = tiny();
        let mut adam_par = Adam::new(3e-3);
        let mut adam_ser = Adam::new(3e-3);
        for step in 0..4 {
            let (seq, feats, tgt, w) = mk_batch();
            let (seq2, feats2, tgt2, w2) = mk_batch();
            let lp = m_par.train_step_sharded(
                m_par.preprocess_seq(&seq),
                m_par.preprocess_feats(&feats),
                &tgt,
                &w,
                0.05,
                1.0,
                &mut adam_par,
                4,
                true,
            );
            let ls = m_ser.train_step_sharded(
                m_ser.preprocess_seq(&seq2),
                m_ser.preprocess_feats(&feats2),
                &tgt2,
                &w2,
                0.05,
                1.0,
                &mut adam_ser,
                4,
                false,
            );
            assert_eq!(lp, ls, "losses diverged at step {step}");
        }
        for (a, b) in m_par.parameters().iter().zip(m_ser.parameters()) {
            assert_eq!(a.data(), b.data(), "parameters diverged");
        }
    }

    /// The shard contract: one shard and four shards of the same batch of
    /// 8 take the same step up to summation order — losses to 1e-12
    /// relative, parameters to 1e-9 absolute (Adam's `m/√v` amplifies the
    /// rounding noise of a mathematically-zero gradient, the K bias's).
    #[test]
    fn one_shard_and_four_shards_take_the_same_step() {
        let l = SurrogateConfig::tiny().seq_len;
        let k = 8;
        let seq: Vec<f64> = (0..k)
            .flat_map(|i| {
                raw_window(l)
                    .into_iter()
                    .map(move |x| x * (1.0 + i as f64 * 0.07))
            })
            .collect();
        let feats: Vec<f64> = (0..k)
            .flat_map(|i| [700.0 + 90.0 * i as f64, (i % 4 + 1) as f64, 0.02 * i as f64])
            .collect();
        let targets: Vec<f64> = feats
            .chunks(3)
            .flat_map(|f| {
                let y = 0.002 * f[0] / 512.0 + 0.03 * f[1];
                [y, 0.5 * y, 0.8 * y, y, 1.2 * y]
            })
            .collect();
        let (seq, feats) = (Tensor::new(vec![k, l], seq), Tensor::new(vec![k, 3], feats));
        let tgt = Tensor::new(vec![k, 5], targets);
        // Uneven weights, so the global normalisers matter.
        let w = Tensor::new(
            vec![k, 5],
            (0..k * 5).map(|i| 1.0 + (i % 3) as f64).collect(),
        );
        let run = |shards: usize| {
            let mut m = tiny();
            let mut adam = Adam::new(3e-3);
            let losses: Vec<f64> = (0..3)
                .map(|_| {
                    m.train_step_sharded(
                        m.preprocess_seq(&seq),
                        m.preprocess_feats(&feats),
                        &tgt,
                        &w,
                        0.05,
                        1.0,
                        &mut adam,
                        shards,
                        true,
                    )
                })
                .collect();
            let params: Vec<f64> = m
                .parameters()
                .iter()
                .flat_map(|t| t.data().to_vec())
                .collect();
            (losses, params)
        };
        let (one, four) = (run(1), run(4));
        for (a, b) in one.0.iter().zip(&four.0) {
            assert!((a - b).abs() <= 1e-12 * a.abs(), "loss {a} vs {b}");
        }
        for (a, b) in one.1.iter().zip(&four.1) {
            assert!((a - b).abs() <= 1e-9, "parameter {a} vs {b}");
        }
    }

    #[test]
    fn attention_profile_normalised() {
        let m = tiny();
        let p = m.attention_profile(&raw_window(m.cfg.seq_len));
        assert_eq!(p.len(), m.cfg.seq_len);
        let max = p.iter().cloned().fold(f64::MIN, f64::max);
        assert!((max - 1.0).abs() < 1e-12);
        assert!(p.iter().all(|&x| (0.0..=1.0 + 1e-12).contains(&x)));
    }

    /// FNV-1a over a stream of `f64` bit patterns.
    fn fnv1a<'a>(xs: impl IntoIterator<Item = &'a f64>) -> u64 {
        xs.into_iter().fold(0xcbf29ce484222325u64, |h, x| {
            (h ^ x.to_bits()).wrapping_mul(0x100000001b3)
        })
    }

    /// Fig. 14's profile is the last encoder layer's softmax(Q·Kᵀ/√d_h),
    /// the weights the fused attention op uses and never keeps: these are
    /// the bits the profile has had since before `Graph::attention`
    /// existed (every GEMM here is below the packed-kernel threshold, so
    /// the hash does not depend on the FMA dispatch).
    #[test]
    fn attention_profile_bits_are_pinned() {
        let m = tiny();
        let p = m.attention_profile(&raw_window(m.cfg.seq_len));
        assert_eq!(
            fnv1a(&p),
            0x9e6716bc50e761c0,
            "profile starts {:?}",
            &p[..3]
        );
    }
    /// A seeded `train` (2 epochs, 4 shards) then `fine_tune` (1 epoch):
    /// every epoch loss and every parameter, to the bit. The literals were
    /// captured before the step and the epoch loop were each reduced to one
    /// body; the feed-forward GEMMs of a 2-row shard sit on the packed
    /// kernel's threshold, so the FMA and the forced-scalar path each have
    /// their own.
    #[test]
    fn training_trajectory_bits_are_pinned() {
        use crate::train::{fine_tune, train, TrainConfig};
        use dbat_sim::{ConfigGrid, SimParams};
        use dbat_workload::{Map, Rng, Trace};
        let trace = Trace::new(
            Map::poisson(40.0).simulate(&mut Rng::new(11), 0.0, 200.0),
            200.0,
        );
        let data = crate::traindata::generate_dataset(
            &trace,
            &ConfigGrid::tiny(),
            &SimParams::default(),
            32,
            16,
            0.1,
            3,
        );
        let tc = TrainConfig {
            epochs: 2,
            lr: 3e-3,
            shards: 4,
            ..TrainConfig::default()
        };
        let mut m = Surrogate::new(SurrogateConfig::tiny(), 5);
        let trained = train(&mut m, &data, &tc);
        let tuned = fine_tune(&mut m, &data[..16], 1, &tc);
        let hash = fnv1a(
            trained
                .train_losses
                .iter()
                .chain(&tuned.train_losses)
                .chain(m.parameters().into_iter().flat_map(|t| t.data())),
        );
        const FMA: u64 = 0xaa9bf888cdb57b86;
        const SCALAR: u64 = 0x68b74bc36fcc1303;
        assert!(
            [FMA, SCALAR].contains(&hash),
            "trajectory hash {hash:#x}, losses {:?} then {:?}",
            trained.train_losses,
            tuned.train_losses
        );
    }

    #[test]
    fn save_load_roundtrip_preserves_predictions() {
        let m = tiny();
        let dir = std::env::temp_dir().join("dbat_surrogate_test");
        let path = dir.join("s.json");
        m.save(&path).unwrap();
        let loaded = Surrogate::load(&path).unwrap();
        let l = m.cfg.seq_len;
        let seq = Tensor::new(vec![1, l], raw_window(l));
        let feats = Tensor::new(vec![1, 3], vec![2048.0, 8.0, 0.05]);
        let a = m.predict(&seq, &feats);
        let b = loaded.predict(&seq, &feats);
        assert_eq!(a, b);
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn param_count_matches_paper_scale() {
        // Paper default: a small model (~2 MB claim includes runtime); just
        // sanity-check the order of magnitude (thousands, not millions).
        let m = Surrogate::new(SurrogateConfig::default(), 1);
        let n = m.num_parameters();
        assert!(n > 1_000 && n < 100_000, "parameter count {n}");
    }

    impl Surrogate {
        /// Test helper: raw log-transform (pre-standardisation) as [N,1].
        fn preprocess_seq_fit_helper(&self, raw: &Tensor) -> Tensor {
            let logged = raw.map(|x| (x + LOG_EPS).ln());
            let n = logged.numel();
            logged.reshape(vec![n, 1])
        }
    }

    /// Sweep features for `c` candidates (varying all three columns).
    fn grid_feats(c: usize) -> Tensor {
        let mut f = Vec::with_capacity(c * 3);
        for i in 0..c {
            f.extend_from_slice(&[
                512.0 + 128.0 * (i % 7) as f64,
                (i % 6 + 1) as f64,
                0.05 * (i % 4) as f64,
            ]);
        }
        Tensor::new(vec![c, 3], f)
    }

    #[test]
    fn fast_path_matches_graph_path_bitwise() {
        for cfg in [SurrogateConfig::tiny(), SurrogateConfig::default()] {
            let mut m = Surrogate::new(cfg, 13);
            // Non-trivial standardisers so the preprocess mirror is
            // exercised with real constants.
            m.seq_std = Standardizer {
                mean: vec![-3.7],
                std: vec![0.42],
            };
            m.feat_std = Standardizer {
                mean: vec![1500.0, 3.0, 0.1],
                std: vec![900.0, 2.0, 0.07],
            };
            let w = raw_window(cfg.seq_len);
            let e_graph = m.encode_window(&w);
            let e_fast = m.encode_window_fast(&w);
            assert_eq!(e_graph, e_fast, "encode diverged ({cfg:?})");
            for c in [1usize, 3, 216] {
                let feats = grid_feats(c);
                let want = m.predict_encoded(&e_graph, &feats);
                let got = m.predict_encoded_fast_pre(&e_fast, &m.preprocess_feats(&feats));
                assert_eq!(want.shape(), got.shape());
                assert_eq!(want.data(), got.data(), "sweep diverged at C={c}");
            }
        }
    }

    #[test]
    fn plan_is_invalidated_by_training() {
        let mut m = tiny();
        let l = m.cfg.seq_len;
        let w = raw_window(l);
        // Warm the plan with the initial weights.
        let before = m.encode_window_fast(&w);
        let seq = Tensor::new(vec![1, l], w.clone());
        let feats = Tensor::new(vec![1, 3], vec![1024.0, 4.0, 0.05]);
        let tgt = Tensor::new(vec![1, 5], vec![0.1, 0.05, 0.08, 0.1, 0.12]);
        let wt = Tensor::full(vec![1, 5], 1.0);
        let mut adam = Adam::new(1e-2);
        m.train_step_sharded(
            m.preprocess_seq(&seq),
            m.preprocess_feats(&feats),
            &tgt,
            &wt,
            0.05,
            1.0,
            &mut adam,
            1,
            false,
        );
        // The fast path must re-snapshot the stepped weights and keep
        // matching the graph path exactly.
        let after_fast = m.encode_window_fast(&w);
        let after_graph = m.encode_window(&w);
        assert_ne!(before, after_fast, "train step must change the encoding");
        assert_eq!(after_fast, after_graph);
    }

    #[test]
    fn scratch_pools_are_capped_and_trimmable() {
        let m = tiny();
        for _ in 0..3 * SCRATCH_POOL_CAP {
            m.return_scratch(Graph::new());
        }
        assert_eq!(m.scratch.lock().unwrap().len(), SCRATCH_POOL_CAP);
        let w = raw_window(m.cfg.seq_len);
        let _ = m.encode_window_fast(&w);
        assert!(!m.arenas.lock().unwrap().is_empty());
        m.trim_scratch();
        assert!(m.scratch.lock().unwrap().is_empty());
        assert!(m.arenas.lock().unwrap().is_empty());
    }

    /// The fast path's steady state is small and does not grow: at the
    /// benchmark's shape (window 128, paper widths) one encode sizes the
    /// arena, a second reuses it untouched, and it holds only
    /// `O(S·D)` activations plus the `(dh + 8)·S` attention scratch —
    /// under 160 KB, where an `S × S` score matrix per head took 657 KB.
    #[test]
    fn encode_window_fast_arena_is_small_and_stable() {
        let cfg = SurrogateConfig {
            seq_len: 128,
            ..SurrogateConfig::default()
        };
        let m = Surrogate::new(cfg, 3);
        let w = raw_window(cfg.seq_len);
        let first = m.encode_window_fast(&w);
        let cap = m.arenas.lock().unwrap()[0].capacity();
        let second = m.encode_window_fast(&w);
        let pool = m.arenas.lock().unwrap();
        assert_eq!(pool.len(), 1);
        assert_eq!(pool[0].capacity(), cap);
        assert_eq!(first, second);
        assert!(
            cap * std::mem::size_of::<f64>() <= 160 * 1024,
            "arena holds {cap} f64"
        );
    }
}
