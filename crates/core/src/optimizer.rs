//! DeepBAT's Optimizer (§III-E): exhaustive search over the configuration
//! grid driven by the surrogate's predictions, solving Eq. (10) — minimise
//! cost subject to the p-th percentile latency SLO — with the robustness
//! penalty factor γ tightening the constraint (§III-D).

use crate::surrogate::Surrogate;
use dbat_linalg::quantize_rows;
use dbat_nn::Tensor;
use dbat_sim::{ConfigGrid, LambdaConfig, PERCENTILE_KEYS};
use dbat_workload::stats::interp_tracked_percentile;
use std::sync::{Arc, Mutex};

/// The surrogate's prediction for one configuration.
#[derive(Clone, Copy, Debug)]
pub struct ConfigPrediction {
    pub config: LambdaConfig,
    /// Predicted cost per request (µ$/req).
    pub cost_micro: f64,
    /// Predicted latency percentiles [p50, p90, p95, p99] (seconds).
    pub percentiles: [f64; 4],
}

impl ConfigPrediction {
    /// Look up a predicted percentile. The four predicted keys
    /// (50/90/95/99) return their values exactly; other `p` in [0, 100]
    /// interpolate between the bracketing keys (clamped at the ends).
    pub fn percentile(&self, p: f64) -> f64 {
        interp_tracked_percentile(&PERCENTILE_KEYS, &self.percentiles, p)
    }
}

/// Outcome of one optimisation: the chosen configuration plus the full
/// prediction table (useful for figures and debugging).
#[derive(Clone, Debug)]
pub struct Decision {
    pub chosen: ConfigPrediction,
    pub all: Vec<ConfigPrediction>,
    /// True when no configuration satisfied the tightened SLO and the
    /// lowest-latency fallback was returned.
    pub fallback: bool,
    /// Wall-clock seconds spent on surrogate inference + grid search for
    /// this decision (§IV measures online inference latency).
    pub infer_s: f64,
}

/// How `predict_all` scores the configuration grid.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ScoringMode {
    /// Autograd-tape forward — the tested reference path.
    Graph,
    /// Compiled graph-free plan — bitwise identical to [`Graph`](Self::Graph),
    /// sub-millisecond. The default.
    #[default]
    Fast,
    /// Int8 head-branch sweep. Only reachable through
    /// [`DeepBatOptimizer::try_enable_int8`]'s decision-parity gate.
    Int8,
}

/// Outcome of the int8 decision-parity gate.
#[derive(Clone, Copy, Debug)]
pub struct Int8Parity {
    /// Seed-trace intervals checked.
    pub intervals: usize,
    /// Intervals where int8 chose the same `(M, B, T)` as the f64 path.
    pub agree: usize,
    /// Largest relative cost delta between the two chosen configs.
    pub max_cost_delta: f64,
    /// The cost tolerance the gate was run with.
    pub eps_cost: f64,
    /// Whether int8 scoring was enabled.
    pub passed: bool,
}

impl Int8Parity {
    /// Fraction of intervals with identical decisions (1.0 when empty).
    pub fn agreement(&self) -> f64 {
        if self.intervals == 0 {
            1.0
        } else {
            self.agree as f64 / self.intervals as f64
        }
    }
}

/// The grid features preprocessed for one standardiser fit: standardised
/// rows for the fast sweep, plus their int8 quantization. Rebuilt only
/// when the model's feature standardiser changes (e.g. after a refit).
#[derive(Debug)]
struct FeatCache {
    mean: Vec<f64>,
    std: Vec<f64>,
    pre: Tensor,
    qx: Vec<i8>,
    qs: Vec<f64>,
}

/// DeepBAT's SLO/cost optimizer. The configuration grid is fixed at
/// construction: the flattened config list and the `[C, 3]` raw feature
/// tensor are cached here, and the *standardised* (and quantized) grid
/// tensor is cached per standardiser fit, so `predict_all` never rebuilds
/// any of them per decision.
#[derive(Debug)]
pub struct DeepBatOptimizer {
    pub grid: ConfigGrid,
    pub slo: f64,
    /// Percentile the SLO constrains (paper: 95).
    pub percentile: f64,
    /// Robustness penalty γ: feasibility requires `p̂·(1+γ) ≤ SLO`.
    pub gamma: f64,
    configs: Vec<LambdaConfig>,
    grid_feats: Tensor,
    mode: ScoringMode,
    feat_cache: Mutex<Option<Arc<FeatCache>>>,
}

impl Clone for DeepBatOptimizer {
    fn clone(&self) -> Self {
        DeepBatOptimizer {
            grid: self.grid.clone(),
            slo: self.slo,
            percentile: self.percentile,
            gamma: self.gamma,
            configs: self.configs.clone(),
            grid_feats: self.grid_feats.clone(),
            mode: self.mode,
            feat_cache: Mutex::new(self.feat_cache.lock().unwrap().clone()),
        }
    }
}

impl DeepBatOptimizer {
    pub fn new(grid: ConfigGrid, slo: f64) -> Self {
        let configs = grid.configs();
        let mut feats = Vec::with_capacity(configs.len() * 3);
        for c in &configs {
            feats.extend_from_slice(&[c.memory_mb as f64, c.batch_size as f64, c.timeout_s]);
        }
        let grid_feats = Tensor::new(vec![configs.len(), 3], feats);
        DeepBatOptimizer {
            grid,
            slo,
            percentile: 95.0,
            gamma: 0.0,
            configs,
            grid_feats,
            mode: ScoringMode::default(),
            feat_cache: Mutex::new(None),
        }
    }

    /// Current grid-scoring mode.
    pub fn mode(&self) -> ScoringMode {
        self.mode
    }

    /// Select [`ScoringMode::Graph`] or [`ScoringMode::Fast`].
    /// [`ScoringMode::Int8`] cannot be set directly — it is only enabled by
    /// passing [`DeepBatOptimizer::try_enable_int8`]'s parity gate.
    pub fn set_mode(&mut self, mode: ScoringMode) {
        assert!(
            mode != ScoringMode::Int8,
            "int8 scoring must pass the parity gate (try_enable_int8)"
        );
        self.mode = mode;
    }

    /// The preprocessed grid features for the model's current feature
    /// standardiser, rebuilding the cache iff the standardiser changed.
    fn grid_cache(&self, model: &Surrogate) -> Arc<FeatCache> {
        let mut slot = self.feat_cache.lock().unwrap();
        if let Some(c) = slot.as_ref() {
            if c.mean == model.feat_std.mean && c.std == model.feat_std.std {
                return Arc::clone(c);
            }
        }
        let pre = model.preprocess_feats(&self.grid_feats);
        let (c, f) = (pre.shape()[0], pre.shape()[1]);
        let mut qx = vec![0i8; c * f];
        let mut qs = vec![0.0; c];
        quantize_rows(pre.data(), c, f, &mut qx, &mut qs);
        let cache = Arc::new(FeatCache {
            mean: model.feat_std.mean.clone(),
            std: model.feat_std.std.clone(),
            pre,
            qx,
            qs,
        });
        *slot = Some(Arc::clone(&cache));
        cache
    }

    /// Turn a `[C, 5]` prediction tensor into per-config predictions.
    fn preds_from(&self, out: &Tensor) -> Vec<ConfigPrediction> {
        self.configs
            .iter()
            .enumerate()
            .map(|(i, &config)| {
                let row = &out.data()[i * 5..(i + 1) * 5];
                ConfigPrediction {
                    config,
                    cost_micro: row[0].max(0.0),
                    percentiles: [
                        row[1].max(0.0),
                        row[2].max(0.0),
                        row[3].max(0.0),
                        row[4].max(0.0),
                    ],
                }
            })
            .collect()
    }

    /// The 2-step selection over a prediction table: cheapest config
    /// meeting the γ-tightened SLO, else the lowest-latency fallback.
    fn select(&self, all: &[ConfigPrediction]) -> (ConfigPrediction, bool) {
        let feasible = all
            .iter()
            .filter(|p| p.percentile(self.percentile) * (1.0 + self.gamma) <= self.slo)
            .min_by(|a, b| a.cost_micro.partial_cmp(&b.cost_micro).unwrap());
        match feasible {
            Some(&best) => (best, false),
            None => {
                let best = *all
                    .iter()
                    .min_by(|a, b| {
                        a.percentile(self.percentile)
                            .partial_cmp(&b.percentile(self.percentile))
                            .unwrap()
                    })
                    .expect("grid is non-empty");
                (best, true)
            }
        }
    }

    /// Score the grid for an already-encoded window in a specific mode.
    fn sweep_encoded(&self, model: &Surrogate, e1: &[f64], mode: ScoringMode) -> Tensor {
        match mode {
            ScoringMode::Graph => model.predict_encoded(e1, &self.grid_feats),
            ScoringMode::Fast => {
                let cache = self.grid_cache(model);
                model.predict_encoded_fast_pre(e1, &cache.pre)
            }
            ScoringMode::Int8 => {
                let cache = self.grid_cache(model);
                model.predict_encoded_int8_pre(e1, &cache.qx, &cache.qs)
            }
        }
    }

    /// Predict every grid configuration for one window: encode the sequence
    /// once, sweep the cached feature grid through the cheap branch.
    pub fn predict_all(&self, model: &Surrogate, window: &[f64]) -> Vec<ConfigPrediction> {
        let t = dbat_telemetry::global();
        let start = std::time::Instant::now();
        let e1 = match self.mode {
            ScoringMode::Graph => model.encode_window(window),
            ScoringMode::Fast | ScoringMode::Int8 => model.encode_window_fast(window),
        };
        let encoded = start.elapsed();
        let out = self.sweep_encoded(model, &e1, self.mode);
        let preds = self.preds_from(&out);
        if t.is_enabled() {
            // The decide split, readable from a scrape: window encode
            // against grid score (sweep + prediction table).
            let total = start.elapsed();
            t.histogram("controller.encode_s")
                .record(encoded.as_secs_f64());
            t.histogram("controller.score_s")
                .record((total - encoded).as_secs_f64());
            t.histogram("controller.predict_all_s")
                .record(total.as_secs_f64());
        }
        preds
    }

    /// The 2-step optimisation (§III-D "Online Model Inference"): filter by
    /// the (γ-tightened) SLO constraint, then minimise predicted cost.
    pub fn choose(&self, model: &Surrogate, window: &[f64]) -> Decision {
        let t = dbat_telemetry::global();
        let start = std::time::Instant::now();
        let all = self.predict_all(model, window);
        let (chosen, fallback) = self.select(&all);
        let mut decision = Decision {
            chosen,
            all,
            fallback,
            infer_s: 0.0,
        };
        decision.infer_s = start.elapsed().as_secs_f64();
        if t.is_enabled() {
            t.counter("controller.decisions").inc();
            if decision.fallback {
                t.counter("controller.fallbacks").inc();
            }
            t.histogram("controller.infer_s").record(decision.infer_s);
        }
        decision
    }

    /// The int8 decision-parity gate: score every supplied seed-trace
    /// window with both the f64 fast path and the int8 path, and enable
    /// [`ScoringMode::Int8`] only if the chosen `(M, B, T)` agrees on at
    /// least 99% of the intervals and the predicted cost of the chosen
    /// configs never differs by more than `eps_cost` (relative). On
    /// failure the mode is left untouched.
    pub fn try_enable_int8(
        &mut self,
        model: &Surrogate,
        windows: &[Vec<f64>],
        eps_cost: f64,
    ) -> Int8Parity {
        let mut agree = 0usize;
        let mut max_cost_delta: f64 = 0.0;
        for w in windows {
            let e1 = model.encode_window_fast(w);
            let fast = self.preds_from(&self.sweep_encoded(model, &e1, ScoringMode::Fast));
            let int8 = self.preds_from(&self.sweep_encoded(model, &e1, ScoringMode::Int8));
            let (cf, _) = self.select(&fast);
            let (ci, _) = self.select(&int8);
            if cf.config == ci.config {
                agree += 1;
            }
            let delta = (cf.cost_micro - ci.cost_micro).abs() / cf.cost_micro.abs().max(1e-9);
            max_cost_delta = max_cost_delta.max(delta);
        }
        let intervals = windows.len();
        let passed =
            intervals > 0 && agree as f64 >= 0.99 * intervals as f64 && max_cost_delta <= eps_cost;
        if passed {
            self.mode = ScoringMode::Int8;
        }
        let parity = Int8Parity {
            intervals,
            agree,
            max_cost_delta,
            eps_cost,
            passed,
        };
        let t = dbat_telemetry::global();
        if t.is_enabled() {
            t.emit(
                "optimizer.int8_gate",
                serde_json::json!({
                    "intervals": parity.intervals,
                    "agree": parity.agree,
                    "max_cost_delta": parity.max_cost_delta,
                    "eps_cost": parity.eps_cost,
                    "passed": parity.passed,
                }),
            );
        }
        parity
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::surrogate::SurrogateConfig;

    fn model() -> Surrogate {
        Surrogate::new(SurrogateConfig::tiny(), 3)
    }

    fn window(l: usize) -> Vec<f64> {
        (0..l).map(|i| 0.02 + 0.005 * (i % 4) as f64).collect()
    }

    #[test]
    fn predict_all_covers_grid() {
        let m = model();
        let opt = DeepBatOptimizer::new(ConfigGrid::tiny(), 0.1);
        let preds = opt.predict_all(&m, &window(m.cfg.seq_len));
        assert_eq!(preds.len(), opt.grid.len());
        let cfgs: Vec<LambdaConfig> = preds.iter().map(|p| p.config).collect();
        assert_eq!(cfgs, opt.grid.configs());
        assert!(preds.iter().all(|p| p.cost_micro >= 0.0));
    }

    #[test]
    fn choose_picks_cheapest_feasible() {
        let m = model();
        // Huge SLO: everything is feasible, pick the global cheapest.
        let opt = DeepBatOptimizer::new(ConfigGrid::tiny(), 1e9);
        let d = opt.choose(&m, &window(m.cfg.seq_len));
        assert!(!d.fallback);
        let min_cost = d
            .all
            .iter()
            .map(|p| p.cost_micro)
            .fold(f64::INFINITY, f64::min);
        assert_eq!(d.chosen.cost_micro, min_cost);
    }

    #[test]
    fn impossible_slo_falls_back_to_fastest() {
        let m = model();
        let opt = DeepBatOptimizer::new(ConfigGrid::tiny(), -1.0);
        let d = opt.choose(&m, &window(m.cfg.seq_len));
        assert!(d.fallback);
        let min_p95 = d
            .all
            .iter()
            .map(|p| p.percentile(95.0))
            .fold(f64::INFINITY, f64::min);
        assert_eq!(d.chosen.percentile(95.0), min_p95);
    }

    #[test]
    fn fast_and_graph_modes_agree_bitwise() {
        let m = model();
        let w = window(m.cfg.seq_len);
        let mut opt = DeepBatOptimizer::new(ConfigGrid::tiny(), 0.1);
        assert_eq!(opt.mode(), ScoringMode::Fast);
        let fast = opt.predict_all(&m, &w);
        opt.set_mode(ScoringMode::Graph);
        let graph = opt.predict_all(&m, &w);
        for (a, b) in fast.iter().zip(&graph) {
            assert_eq!(a.config, b.config);
            assert_eq!(a.cost_micro.to_bits(), b.cost_micro.to_bits());
            for (x, y) in a.percentiles.iter().zip(&b.percentiles) {
                assert_eq!(x.to_bits(), y.to_bits());
            }
        }
    }

    #[test]
    fn feat_cache_rebuilds_when_standardiser_changes() {
        let mut m = model();
        let w = window(m.cfg.seq_len);
        let opt = DeepBatOptimizer::new(ConfigGrid::tiny(), 0.1);
        let before = opt.predict_all(&m, &w);
        // Refit the feature standardiser: the cached preprocessed grid is
        // stale and must be rebuilt, changing the predictions.
        m.feat_std = dbat_nn::Standardizer {
            mean: vec![2000.0, 8.0, 0.5],
            std: vec![250.0, 1.5, 0.2],
        };
        m.invalidate_plan();
        let after = opt.predict_all(&m, &w);
        assert!(
            before
                .iter()
                .zip(&after)
                .any(|(a, b)| a.cost_micro != b.cost_micro),
            "stale feature cache survived a standardiser refit"
        );
        // And the rebuilt cache still matches the uncached graph path.
        let mut graph_opt = opt.clone();
        graph_opt.set_mode(ScoringMode::Graph);
        let reference = graph_opt.predict_all(&m, &w);
        for (a, b) in after.iter().zip(&reference) {
            assert_eq!(a.cost_micro.to_bits(), b.cost_micro.to_bits());
        }
    }

    #[test]
    fn int8_gate_enables_only_on_parity() {
        let m = model();
        let l = m.cfg.seq_len;
        let windows: Vec<Vec<f64>> = (0..8)
            .map(|i| {
                (0..l)
                    .map(|j| 0.01 + 0.004 * ((i + j) % 5) as f64)
                    .collect()
            })
            .collect();
        // Untrained tiny model, identical head weights in both paths:
        // parity is a property of the quantization error vs the decision
        // margins. Whatever the verdict, the mode must reflect it.
        let mut opt = DeepBatOptimizer::new(ConfigGrid::tiny(), 0.1);
        let parity = opt.try_enable_int8(&m, &windows, 0.25);
        assert_eq!(parity.intervals, windows.len());
        assert!(parity.agreement() >= 0.0 && parity.agreement() <= 1.0);
        assert_eq!(parity.passed, opt.mode() == ScoringMode::Int8);
        // An impossible tolerance must never enable int8.
        let mut strict = DeepBatOptimizer::new(ConfigGrid::tiny(), 0.1);
        let p = strict.try_enable_int8(&m, &windows, -1.0);
        assert!(!p.passed);
        assert_eq!(strict.mode(), ScoringMode::Fast);
        // An empty window set must never enable int8.
        let mut empty = DeepBatOptimizer::new(ConfigGrid::tiny(), 0.1);
        let p = empty.try_enable_int8(&m, &[], 1.0);
        assert!(!p.passed && p.intervals == 0);
        assert_eq!(empty.mode(), ScoringMode::Fast);
    }

    #[test]
    fn gamma_tightens_constraint() {
        let m = model();
        let w = window(m.cfg.seq_len);
        let base = DeepBatOptimizer::new(ConfigGrid::tiny(), 0.1);
        let preds = base.predict_all(&m, &w);
        let feasible_at = |gamma: f64| {
            preds
                .iter()
                .filter(|p| p.percentile(95.0) * (1.0 + gamma) <= base.slo)
                .count()
        };
        // The feasible set can only shrink as γ grows.
        let mut prev = usize::MAX;
        for gamma in [0.0, 0.5, 2.0, 100.0] {
            let n = feasible_at(gamma);
            assert!(n <= prev, "feasible set grew at γ = {gamma}");
            prev = n;
        }
        // Decisions are deterministic.
        let a = base.choose(&m, &w);
        let b = DeepBatOptimizer::new(ConfigGrid::tiny(), 0.1).choose(&m, &w);
        assert_eq!(a.chosen.config, b.chosen.config);
        assert_eq!(a.fallback, b.fallback);
    }
}
