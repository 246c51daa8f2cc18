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

use crate::fastpath::{SurrogatePlan, Workspace};
use crate::loss::{Loss, ShardNorms};
use dbat_nn::{
    tree_reduce_grads, Adam, Checkpoint, InferencePlan, InitRng, Linear, Module,
    MultiHeadAttention, Standardizer, Tensor, TransformerEncoder,
};
use dbat_workload::DbatError;
use rayon::prelude::*;
use serde::{Deserialize, Serialize};
use std::sync::{Arc, Mutex};

/// Floor added before the log transform of interarrival times.
pub(crate) const LOG_EPS: f64 = 1e-6;

/// Scalar configuration features per candidate: `(M, B, T)`.
pub(crate) const N_FEATURES: usize = 3;

/// Output width: cost + four latency percentiles (p50, p90, p95, p99).
pub(crate) const N_OUTPUTS: usize = 5;

/// Cap on pooled arenas retained between calls. Training warms arenas
/// with batch-sized buffers; without a cap the pool keeps one such arena
/// per peak-concurrency caller forever. Returns beyond the cap are
/// dropped, so the pool shrinks back to steady-state inference needs.
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
}

impl Default for SurrogateConfig {
    fn default() -> Self {
        SurrogateConfig {
            seq_len: 256,
            dim: 16,
            heads: 4,
            ff_hidden: 32,
            n_layers: 2,
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
        }
    }

    /// Reject hyper-parameters no model can be built from: a zero size, or
    /// a width the attention heads do not divide.
    fn validate(&self) -> Result<(), String> {
        let sizes = [
            self.seq_len,
            self.dim,
            self.heads,
            self.ff_hidden,
            self.n_layers,
        ];
        if sizes.contains(&0) {
            return Err(format!("every size must be positive: {self:?}"));
        }
        if !self.dim.is_multiple_of(self.heads) {
            return Err(format!(
                "{} heads do not divide dim {}",
                self.heads, self.dim
            ));
        }
        Ok(())
    }
}

/// The deep surrogate network plus its input standardisers.
pub struct Surrogate {
    pub cfg: SurrogateConfig,
    pub(crate) embed: Linear,
    pub encoder: TransformerEncoder,
    pub(crate) pool_attn: MultiHeadAttention,
    pub(crate) feat_ff: Linear,
    pub(crate) head1: Linear,
    pub(crate) head2: Linear,
    /// Standardiser for the log-interarrival channel (1 column).
    pub(crate) seq_std: Standardizer,
    /// Standardiser for the (M, B, T) features.
    pub(crate) feat_std: Standardizer,
    /// Lazily compiled plan (see [`SurrogatePlan`]).
    /// Invalidated on every weight/standardiser update; callers that
    /// mutate parameters directly (e.g. through [`Module::parameters_mut`])
    /// must call [`Surrogate::invalidate_plan`] themselves.
    plan: Mutex<Option<Arc<SurrogatePlan>>>,
    /// Pooled arenas, one checked out per call (or per train-step shard)
    /// for its duration, so concurrent callers each keep a warmed one;
    /// capped at [`SCRATCH_POOL_CAP`].
    arenas: Mutex<Vec<Workspace>>,
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
            head2: Linear::new(cfg.ff_hidden, N_OUTPUTS, &mut rng),
            seq_std: Standardizer {
                mean: vec![0.0],
                std: vec![1.0],
            },
            feat_std: Standardizer {
                mean: vec![0.0; N_FEATURES],
                std: vec![1.0; N_FEATURES],
            },
            plan: Mutex::new(None),
            arenas: Mutex::new(Vec::new()),
        }
    }

    /// Drop every pooled arena. Call after training: the pool holds
    /// batch-sized warmed buffers that steady-state inference never needs
    /// again.
    pub(crate) fn trim_scratch(&self) {
        self.arenas.lock().unwrap().clear();
    }

    /// The compiled plan for the current weights, building it
    /// on first use. Cheap once warm (an `Arc` clone under a lock).
    pub(crate) fn plan(&self) -> Arc<SurrogatePlan> {
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
    pub(crate) fn invalidate_plan(&self) {
        *self.plan.lock().unwrap() = None;
    }

    /// Run `f` on an arena checked out of the pool (a fresh one if it is
    /// empty), then return it. The lock is held only around the pop and
    /// the push, never across `f`.
    fn with_arena<R>(&self, f: impl FnOnce(&mut Workspace) -> R) -> R {
        let mut a = self.arenas.lock().unwrap().pop().unwrap_or_default();
        let out = f(&mut a);
        self.return_arena(a);
        out
    }

    /// Return an arena to the pool, dropping it if the pool is already at
    /// [`SCRATCH_POOL_CAP`] (so over-provisioned pools shrink).
    fn return_arena(&self, a: Workspace) {
        let mut pool = self.arenas.lock().unwrap();
        if pool.len() < SCRATCH_POOL_CAP {
            pool.push(a);
        }
    }

    /// Encode one raw window into its configuration-independent `E_1`
    /// representation (length `dim`): the expensive branch, run once per
    /// decision on the compiled plan (pre-packed weights, flat scratch).
    pub fn encode_window_fast(&self, window_raw: &[f64]) -> Vec<f64> {
        let plan = self.plan();
        self.with_arena(|a| plan.encode_window(window_raw, &mut a.main))
    }

    /// Sweep `C` candidate configurations against one encoded window on
    /// the compiled plan, from *already standardised* features
    /// ([`Surrogate::preprocess_feats`]): `[C, F]` → `[C, O]`, bitwise
    /// what [`Surrogate::predict`] gives for each row. The optimizer caches
    /// the preprocessed grid tensor and skips the per-decision transform.
    pub fn predict_encoded_fast_pre(&self, e1: &[f64], feats_pre: &Tensor) -> Tensor {
        let c = feats_pre.shape()[0];
        let plan = self.plan();
        let mut out = vec![0.0; c * N_OUTPUTS];
        self.with_arena(|a| plan.score(e1, feats_pre.data(), c, &mut out, &mut a.main));
        Tensor::new(vec![c, N_OUTPUTS], out)
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

    /// Inference on raw inputs: `seq_raw: [K, L]` interarrivals (seconds),
    /// `feats_raw: [K, F]` configurations. Returns `[K, O]` predictions.
    pub fn predict(&self, seq_raw: &Tensor, feats_raw: &Tensor) -> Tensor {
        let seq = self.preprocess_seq(seq_raw);
        let feats = self.preprocess_feats(feats_raw);
        let (k, plan) = (seq.shape()[0], self.plan());
        let pred = self.with_arena(|ws| {
            plan.forward(k, seq.data(), feats.data(), ws, false)
                .to_vec()
        });
        Tensor::new(vec![k, N_OUTPUTS], pred)
    }

    /// Mean encoder attention received by each sequence position for one raw
    /// window (aggregated over heads and query positions) — Fig. 14. Runs
    /// the encoder up to its last layer, then asks that layer's attention
    /// for the weights no forward keeps.
    pub fn attention_profile(&self, window_raw: &[f64]) -> Vec<f64> {
        let l = self.cfg.seq_len;
        assert_eq!(window_raw.len(), l);
        let (last, earlier) = self
            .encoder
            .layers
            .split_last()
            .expect("encoder has at least one layer");
        let mut x = self.plan().embed_window(window_raw);
        if !earlier.is_empty() {
            let earlier = InferencePlan::compile(&TransformerEncoder {
                layers: earlier.to_vec(),
            });
            self.with_arena(|a| earlier.forward(1, l, &mut x, &mut a.main));
        }
        let attn = last
            .mha
            .attention_weights(&Tensor::new(vec![l, self.cfg.dim], x)); // [H, L, L]
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
    /// row; `1` is the whole batch) trained data-parallel: each shard runs
    /// forward and backward on the step's one compiled plan over its own
    /// arena, losses use the *global* weight normalisers (so shard
    /// gradients sum exactly to the full-shard-set gradients), and the
    /// per-shard gradients are combined by a fixed-order tree reduction
    /// before the single optimizer step.
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
        // Global normalisers shared by every shard's loss.
        let norms = ShardNorms::of(targets, weights);
        let plan = self.plan();
        let model: &Surrogate = self;
        let run = |i: usize| {
            let rows = i * n / s..(i + 1) * n / s;
            let loss = Loss {
                targets: rows_of(targets, &rows),
                weights: rows_of(weights, &rows),
                alpha,
                delta,
                norms,
            };
            let mut grads: Vec<Tensor> = (model.parameters().into_iter())
                .map(|p| Tensor::zeros(p.shape().to_vec()))
                .collect();
            let (k, seq, feats) = (rows.len(), rows_of(&seq, &rows), rows_of(&feats, &rows));
            let value = model.with_arena(|a| plan.train_rows(k, seq, feats, &loss, &mut grads, a));
            (value, grads)
        };
        let shard_ids: Vec<usize> = (0..s).collect();
        let per_shard: Vec<(f64, Vec<Tensor>)> = if parallel {
            shard_ids.par_iter().map(|&i| run(i)).collect()
        } else {
            shard_ids.into_iter().map(run).collect()
        };

        // Fixed index-order loss sum and fixed-order gradient tree: both are
        // independent of which thread ran which shard.
        let loss_val: f64 = per_shard.iter().map(|(loss, _)| loss).sum();
        let reduced = tree_reduce_grads(per_shard.into_iter().map(|(_, g)| g).collect());
        adam.step(&mut self.parameters_mut(), &reduced);
        self.invalidate_plan();
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
        let loss = Loss {
            targets: targets.data(),
            weights: weights.data(),
            alpha,
            delta,
            norms: ShardNorms::of(targets, weights),
        };
        let (k, plan) = (seq.shape()[0], self.plan());
        self.with_arena(|ws| loss.value(plan.forward(k, seq.data(), feats.data(), ws, false)))
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
    /// [`DbatError::Io`]; malformed checkpoints (an unbuildable config, a
    /// standardiser of the wrong width, a weight tensor of the wrong size
    /// or with a non-finite value) as [`DbatError::Parse`].
    pub fn load(path: impl AsRef<std::path::Path>) -> Result<Self, DbatError> {
        let parse =
            |what: &str, e: String| DbatError::Parse(format!("surrogate checkpoint {what}: {e}"));
        let ck = Checkpoint::load(path)?;
        let cfg: SurrogateConfig = serde_json::from_value(ck.meta["config"].clone())
            .map_err(|e| parse("config", e.to_string()))?;
        cfg.validate().map_err(|e| parse("config", e))?;
        let mut model = Surrogate::new(cfg, 0);
        model.seq_std = serde_json::from_value(ck.meta["seq_std"].clone())
            .map_err(|e| parse("seq_std", e.to_string()))?;
        model.feat_std = serde_json::from_value(ck.meta["feat_std"].clone())
            .map_err(|e| parse("feat_std", e.to_string()))?;
        for (what, st, width) in [
            ("seq_std", &model.seq_std, 1),
            ("feat_std", &model.feat_std, N_FEATURES),
        ] {
            let finite = st.mean.iter().chain(&st.std).all(|x| x.is_finite());
            let positive = st.std.iter().all(|&sd| sd > 0.0);
            if st.mean.len() != width || st.std.len() != width || !finite || !positive {
                return Err(parse(
                    what,
                    format!("expected {width} finite columns, std > 0"),
                ));
            }
        }
        dbat_nn::load_into(ck.params, model.parameters_mut()).map_err(|e| parse("weights", e))?;
        Ok(model)
    }
}

/// Rows `rows` of a 2-D tensor, as one slice.
fn rows_of<'t>(t: &'t Tensor, rows: &std::ops::Range<usize>) -> &'t [f64] {
    let width = t.shape()[1];
    &t.data()[rows.start * width..rows.end * width]
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
        let e1 = m.encode_window_fast(&w);
        let swept = m.predict_encoded_fast_pre(&e1, &m.preprocess_feats(&feats));
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
    /// the weights the fused attention kernel uses and never keeps: these
    /// are the bits the profile has had since before attention was one
    /// fused kernel (every GEMM here is below the packed-kernel threshold,
    /// so the hash does not depend on the FMA dispatch).
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

    /// A batch of `k` raw windows of length `l`, configurations and
    /// targets: one zero target (MAPE skips it) and cost targets far
    /// enough off for Huber's linear arm.
    fn paper_batch(k: usize, l: usize) -> (Tensor, Tensor, Tensor, Tensor) {
        let seq = (0..k)
            .flat_map(|i| (0..l).map(move |j| 0.004 + 0.003 * ((i * 7 + j * 3) % 11) as f64))
            .collect();
        let feats: Vec<f64> = (0..k)
            .flat_map(|i| {
                [
                    512.0 + 320.0 * i as f64,
                    (i % 5 + 1) as f64,
                    0.03 * i as f64,
                ]
            })
            .collect();
        let targets = feats
            .chunks(3)
            .enumerate()
            .flat_map(|(i, f)| {
                let y = 0.002 * f[0] / 512.0 + 0.04 * f[1];
                let cost = if i == 3 {
                    0.0
                } else {
                    4.0 * y * (i % 3) as f64
                };
                [cost, 0.5 * y, 0.8 * y, y, 1.2 * y]
            })
            .collect();
        let weights = (0..k * 5).map(|i| 1.0 + (i % 3) as f64).collect();
        (
            Tensor::new(vec![k, l], seq),
            Tensor::new(vec![k, 3], feats),
            Tensor::new(vec![k, 5], targets),
            Tensor::new(vec![k, 5], weights),
        )
    }

    /// Two train steps on one shard, then two on four, at the paper's
    /// widths (2 layers, 4 heads, dim 16): every loss and every parameter,
    /// to the bit. The window length 24 is not a power of two, so a
    /// mean-pool that multiplied by `1/l` instead of dividing by `l` would
    /// show; the second layer pins the four-way sum of its input's
    /// gradient. One literal per GEMM path.
    #[test]
    fn paper_width_train_steps_bits_are_pinned() {
        let cfg = SurrogateConfig {
            seq_len: 24,
            ..SurrogateConfig::default()
        };
        let mut m = Surrogate::new(cfg, 17);
        let (seq_raw, feats_raw, tgt, w) = paper_batch(8, cfg.seq_len);
        crate::train::fit_standardizers(&mut m, &seq_raw, &feats_raw);
        let mut adam = Adam::new(3e-3);
        let losses: Vec<f64> = [1, 1, 4, 4]
            .into_iter()
            .map(|shards| {
                let (seq, feats) = (m.preprocess_seq(&seq_raw), m.preprocess_feats(&feats_raw));
                m.train_step_sharded(seq, feats, &tgt, &w, 0.05, 1.0, &mut adam, shards, true)
            })
            .collect();
        let hash = fnv1a(
            losses
                .iter()
                .chain(m.parameters().into_iter().flat_map(|t| t.data())),
        );
        const FMA: u64 = 0xa22af503d8b85073;
        const SCALAR: u64 = 0xbcdaf0d1ebdb7b69;
        assert!(
            [FMA, SCALAR].contains(&hash),
            "train-step hash {hash:#x}, losses {losses:?}"
        );
    }

    /// As `paper_width_train_steps_bits_are_pinned` at the window of 128
    /// the benchmark trains on: the first window length whose attention
    /// backward takes the fused kernel (below 32 it runs the scalar one).
    /// One step on one shard, then one on four. One literal per GEMM path.
    #[test]
    fn paper_width_window_128_train_steps_bits_are_pinned() {
        let cfg = SurrogateConfig {
            seq_len: 128,
            ..SurrogateConfig::default()
        };
        let mut m = Surrogate::new(cfg, 23);
        let (seq_raw, feats_raw, tgt, w) = paper_batch(8, cfg.seq_len);
        crate::train::fit_standardizers(&mut m, &seq_raw, &feats_raw);
        let mut adam = Adam::new(3e-3);
        let losses: Vec<f64> = [1, 4]
            .into_iter()
            .map(|shards| {
                let (seq, feats) = (m.preprocess_seq(&seq_raw), m.preprocess_feats(&feats_raw));
                m.train_step_sharded(seq, feats, &tgt, &w, 0.05, 1.0, &mut adam, shards, true)
            })
            .collect();
        let hash = fnv1a(
            losses
                .iter()
                .chain(m.parameters().into_iter().flat_map(|t| t.data())),
        );
        const FMA: u64 = 0x029b3de0799252cf;
        const SCALAR: u64 = 0x402e5dd2a5d20b25;
        assert!(
            [FMA, SCALAR].contains(&hash),
            "train-step hash {hash:#x}, losses {losses:?}"
        );
    }

    /// The decision's prediction table at the paper's widths: one window
    /// of 128 encoded, the 216-configuration grid scored against it, and
    /// `predict` over three windows, every output to the bit. One literal
    /// per GEMM path.
    #[test]
    fn paper_width_prediction_table_bits_are_pinned() {
        let cfg = SurrogateConfig {
            seq_len: 128,
            ..SurrogateConfig::default()
        };
        let mut m = Surrogate::new(cfg, 19);
        let (seq_raw, feats_raw, _, _) = paper_batch(3, cfg.seq_len);
        crate::train::fit_standardizers(&mut m, &seq_raw, &feats_raw);
        let grid: Vec<f64> = dbat_sim::ConfigGrid::paper_default()
            .configs()
            .iter()
            .flat_map(|c| [c.memory_mb as f64, c.batch_size as f64, c.timeout_s])
            .collect();
        let grid = m.preprocess_feats(&Tensor::new(vec![216, 3], grid));
        let e1 = m.encode_window_fast(&seq_raw.data()[..cfg.seq_len]);
        let table = m.predict_encoded_fast_pre(&e1, &grid);
        let predicted = m.predict(&seq_raw, &feats_raw);
        let hash = fnv1a(e1.iter().chain(table.data()).chain(predicted.data()));
        const FMA: u64 = 0x3db27cce0cd86354;
        const SCALAR: u64 = 0x0f6d1cfd3cd2b1f3;
        assert!(
            [FMA, SCALAR].contains(&hash),
            "prediction hash {hash:#x}, table starts {:?}",
            &table.data()[..5]
        );
    }

    #[test]
    fn save_load_roundtrip_preserves_predictions() {
        let m = tiny();
        let dir = std::env::temp_dir().join(format!("dbat_surrogate_test-{}", std::process::id()));
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

    /// A saved tiny model with one edit to its checkpoint JSON: every
    /// malformed variant loads as `DbatError::Parse`, never a panic and
    /// never a model that panics later.
    #[test]
    fn malformed_checkpoints_are_parse_errors() {
        use serde_json::Value;
        fn field<'a>(v: &'a mut Value, key: &str) -> &'a mut Value {
            match v {
                Value::Object(m) => m.get_mut(key).expect("checkpoint key"),
                _ => panic!("not an object"),
            }
        }
        fn first_weights(ck: &mut Value) -> &mut Vec<Value> {
            match field(ck, "params") {
                Value::Array(ps) => match field(&mut ps[0], "data") {
                    Value::Array(data) => data,
                    _ => panic!("data is not an array"),
                },
                _ => panic!("params is not an array"),
            }
        }
        fn config(ck: &mut Value, key: &str, n: f64) {
            *field(field(field(ck, "meta"), "config"), key) = Value::Number(n);
        }
        // A sentinel the JSON text swaps for `1e999`, which parses to +∞.
        const HUGE: f64 = 123456.5;
        type Edit = fn(&mut Value);
        let edits: [(&str, Edit); 8] = [
            ("one weight removed", |ck| drop(first_weights(ck).pop())),
            ("one weight added", |ck| {
                first_weights(ck).push(Value::Number(0.5))
            }),
            ("non-finite weight", |ck| {
                first_weights(ck)[0] = Value::Number(HUGE)
            }),
            ("zero heads", |ck| config(ck, "heads", 0.0)),
            ("heads not dividing dim", |ck| config(ck, "heads", 3.0)),
            ("zero seq_len", |ck| config(ck, "seq_len", 0.0)),
            ("empty seq_std", |ck| {
                *field(field(field(ck, "meta"), "seq_std"), "mean") = Value::Array(Vec::new())
            }),
            ("zero feat_std", |ck| {
                let std = field(field(field(ck, "meta"), "feat_std"), "std");
                *std = Value::Array(vec![Value::Number(0.0); N_FEATURES])
            }),
        ];
        let dir = std::env::temp_dir().join(format!("dbat_malformed_ckpt-{}", std::process::id()));
        let path = dir.join("s.json");
        tiny().save(&path).unwrap();
        let saved = std::fs::read_to_string(&path).unwrap();
        for (what, edit) in edits {
            let mut ck: Value = serde_json::from_str(&saved).unwrap();
            edit(&mut ck);
            let text = serde_json::to_string(&ck)
                .unwrap()
                .replace(&HUGE.to_string(), "1e999");
            std::fs::write(&path, text).unwrap();
            let got = Surrogate::load(&path);
            assert!(
                matches!(got, Err(DbatError::Parse(_))),
                "{what}: {:?}",
                got.err()
            );
        }
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

    /// The train step's backward against central differences of its loss
    /// at `SurrogateConfig::tiny()`, w.r.t. sampled elements of every
    /// parameter tensor. The inputs keep every ReLU and every `|·|` in the
    /// loss away from its kink by more than the step.
    #[test]
    fn whole_model_gradients_match_central_differences() {
        let mut m = tiny();
        let (seq_raw, feats_raw, tgt, w) = paper_batch(4, m.cfg.seq_len);
        crate::train::fit_standardizers(&mut m, &seq_raw, &feats_raw);
        let (seq, feats) = (m.preprocess_seq(&seq_raw), m.preprocess_feats(&feats_raw));
        let (alpha, delta) = (0.3, 1.0);
        let loss = |m: &Surrogate| m.eval_loss(seq.clone(), feats.clone(), &tgt, &w, alpha, delta);
        let mut grads: Vec<Tensor> = (m.parameters().into_iter())
            .map(|p| Tensor::zeros(p.shape().to_vec()))
            .collect();
        let norms = ShardNorms::of(&tgt, &w);
        let l = Loss {
            targets: tgt.data(),
            weights: w.data(),
            alpha,
            delta,
            norms,
        };
        let plan = SurrogatePlan::compile(&m);
        let value = plan.train_rows(
            4,
            seq.data(),
            feats.data(),
            &l,
            &mut grads,
            &mut Workspace::default(),
        );
        assert_eq!(value, loss(&m));
        let h = 1e-6;
        for (p, g) in grads.iter().enumerate() {
            let n = g.numel();
            // Up to five elements of each tensor, spread over it.
            for i in (0..5).map(|j| j * n / 5).filter(|&i| i < n) {
                let at = |step: f64| {
                    let mut params: Vec<Tensor> = m.parameters().into_iter().cloned().collect();
                    let mut data = params[p].data().to_vec();
                    data[i] += step;
                    params[p] = Tensor::new(params[p].shape().to_vec(), data);
                    let mut m2 = Surrogate::new(m.cfg, 7);
                    m2.seq_std = m.seq_std.clone();
                    m2.feat_std = m.feat_std.clone();
                    dbat_nn::load_into(params, m2.parameters_mut()).unwrap();
                    loss(&m2)
                };
                let numeric = (at(h) - at(-h)) / (2.0 * h);
                let analytic = g.data()[i];
                assert!(
                    (analytic - numeric).abs() <= 1e-5 * (1.0 + numeric.abs()),
                    "parameter {p} element {i}: analytic {analytic} vs numeric {numeric}"
                );
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
        // The cached plan must re-snapshot the stepped weights.
        let after = m.encode_window_fast(&w);
        let fresh = SurrogatePlan::compile(&m).encode_window(&w, &mut Default::default());
        assert_ne!(before, after, "train step must change the encoding");
        assert_eq!(after, fresh);
    }

    #[test]
    fn scratch_pools_are_capped_and_trimmable() {
        let m = tiny();
        for _ in 0..3 * SCRATCH_POOL_CAP {
            m.return_arena(Workspace::default());
        }
        assert_eq!(m.arenas.lock().unwrap().len(), SCRATCH_POOL_CAP);
        m.trim_scratch();
        assert!(m.arenas.lock().unwrap().is_empty());
        let w = raw_window(m.cfg.seq_len);
        let _ = m.encode_window_fast(&w);
        assert_eq!(m.arenas.lock().unwrap().len(), 1);
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
        let cap = m.arenas.lock().unwrap()[0].main.capacity();
        let second = m.encode_window_fast(&w);
        let pool = m.arenas.lock().unwrap();
        assert_eq!(pool.len(), 1);
        assert_eq!(pool[0].main.capacity(), cap);
        assert_eq!(first, second);
        assert!(
            cap * std::mem::size_of::<f64>() <= 160 * 1024,
            "arena holds {cap} f64"
        );
    }
}
