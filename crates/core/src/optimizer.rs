//! DeepBAT's Optimizer (§III-E): exhaustive search over the configuration
//! grid driven by the surrogate's predictions, solving Eq. (10) — minimise
//! cost subject to the p-th percentile latency SLO — with the robustness
//! penalty factor γ tightening the constraint (§III-D).

use crate::surrogate::Surrogate;
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
    /// lowest-latency fallback was returned (the latency-safest grid point
    /// if no prediction was finite at all).
    pub fallback: bool,
    /// Wall-clock seconds spent on surrogate inference + grid search for
    /// this decision (§IV measures online inference latency).
    pub infer_s: f64,
}

/// The grid features standardised for one standardiser fit. Rebuilt only
/// when the model's feature standardiser changes (e.g. after a refit).
#[derive(Debug)]
struct FeatCache {
    mean: Vec<f64>,
    std: Vec<f64>,
    pre: Tensor,
}

/// DeepBAT's SLO/cost optimizer. The configuration grid is fixed at
/// construction: the flattened config list and the `[C, 3]` raw feature
/// tensor are cached here, and the *standardised* grid tensor is cached
/// per standardiser fit, so `predict_all` never rebuilds any of them per
/// decision.
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
            feat_cache: Mutex::new(None),
        }
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
        let cache = Arc::new(FeatCache {
            mean: model.feat_std.mean.clone(),
            std: model.feat_std.std.clone(),
            pre: model.preprocess_feats(&self.grid_feats),
        });
        *slot = Some(Arc::clone(&cache));
        cache
    }

    /// Turn a `[C, 5]` prediction tensor into per-config predictions,
    /// floored at zero. A non-finite output stays as it is for `select` to
    /// reject (`NaN.max(0.0)` would read as a free, instant config).
    fn preds_from(&self, out: &Tensor) -> Vec<ConfigPrediction> {
        let floor = |x: f64| if x.is_finite() { x.max(0.0) } else { x };
        self.configs
            .iter()
            .enumerate()
            .map(|(i, &config)| {
                let row = &out.data()[i * 5..(i + 1) * 5];
                ConfigPrediction {
                    config,
                    cost_micro: floor(row[0]),
                    percentiles: [floor(row[1]), floor(row[2]), floor(row[3]), floor(row[4])],
                }
            })
            .collect()
    }

    /// The 2-step selection over a prediction table: cheapest config
    /// meeting the γ-tightened SLO, else the lowest-latency fallback. A
    /// config whose cost or constrained percentile is not finite is neither;
    /// if that leaves nothing, the fallback is the latency-safest grid
    /// point (most memory, then smallest batch, then shortest timeout).
    fn select(&self, all: &[ConfigPrediction]) -> (ConfigPrediction, bool) {
        let latency = |p: &ConfigPrediction| p.percentile(self.percentile);
        let usable = all
            .iter()
            .filter(|p| p.cost_micro.is_finite() && latency(p).is_finite());
        let feasible = usable
            .clone()
            .filter(|p| latency(p) * (1.0 + self.gamma) <= self.slo)
            .min_by(|a, b| a.cost_micro.total_cmp(&b.cost_micro));
        if let Some(&best) = feasible {
            return (best, false);
        }
        let fastest = usable.min_by(|a, b| latency(a).total_cmp(&latency(b)));
        let safest = || {
            all.iter().min_by(|a, b| {
                let (a, b) = (a.config, b.config);
                (b.memory_mb.cmp(&a.memory_mb))
                    .then(a.batch_size.cmp(&b.batch_size))
                    .then(a.timeout_s.total_cmp(&b.timeout_s))
            })
        };
        (*fastest.or_else(safest).expect("grid is non-empty"), true)
    }

    /// Predict every grid configuration for one window: encode the sequence
    /// once, sweep the cached feature grid through the cheap branch, both
    /// on the model's compiled plan.
    pub fn predict_all(&self, model: &Surrogate, window: &[f64]) -> Vec<ConfigPrediction> {
        let t = dbat_telemetry::global();
        let start = std::time::Instant::now();
        let e1 = model.encode_window_fast(window);
        let encoded = start.elapsed();
        // A NaN or ±∞ inter-arrival encodes to NaN, and the head's ReLU
        // (`NaN.max(0.0)` is `0.0`) would launder that into finite-looking
        // outputs: score nothing, so `select` sees the table for what it is.
        let out = if e1.iter().all(|x| x.is_finite()) {
            model.predict_encoded_fast_pre(&e1, &self.grid_cache(model).pre)
        } else {
            Tensor::full(vec![self.configs.len(), 5], f64::NAN)
        };
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::surrogate::SurrogateConfig;
    use crate::train::fit_standardizers;
    use dbat_workload::{window_at_time, TraceKind, HOUR};

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

    /// A poisoned window never panics and never puts a non-finite (or
    /// laundered) prediction in the feasible seat: the table is all NaN and
    /// the choice is the latency-safest grid point, flagged as a fallback.
    /// Degenerate but finite windows decide as usual.
    #[test]
    fn hostile_windows_choose_a_finite_config_or_the_flagged_safe_one() {
        let m = model();
        let l = m.cfg.seq_len;
        let opt = DeepBatOptimizer::new(ConfigGrid::tiny(), 0.1);
        let safest = LambdaConfig::new(
            *opt.grid.memories_mb.iter().max().unwrap(),
            *opt.grid.batch_sizes.iter().min().unwrap(),
            opt.grid
                .timeouts_s
                .iter()
                .cloned()
                .fold(f64::INFINITY, f64::min),
        );
        for (at, poison) in [
            (l / 2, f64::NAN),
            (0, f64::INFINITY),
            (l - 1, f64::NEG_INFINITY),
        ] {
            let mut w = window(l);
            w[at] = poison;
            let d = opt.choose(&m, &w);
            assert!(d.all.iter().all(|p| p.cost_micro.is_nan()), "{poison}");
            assert!(d.fallback, "{poison} chose {:?} as feasible", d.chosen);
            assert_eq!(d.chosen.config, safest);
        }
        for w in [vec![0.0; l], vec![0.02; l]] {
            let d = opt.choose(&m, &w);
            assert!(d.chosen.cost_micro.is_finite() && d.chosen.percentile(95.0).is_finite());
        }
        // The same rule on a hand-made table: the free NaN/−∞ rows lose to
        // the finite one; +∞ latency is never the fallback minimum.
        let row = |cost: f64, p95: f64| ConfigPrediction {
            config: LambdaConfig::new(1024, 4, 0.05),
            cost_micro: cost,
            percentiles: [p95; 4],
        };
        let table = [
            row(f64::NAN, 0.01),
            row(0.1, f64::NEG_INFINITY),
            row(2.0, 0.05),
        ];
        let (best, fallback) = opt.select(&table);
        assert_eq!((best.cost_micro, fallback), (2.0, false));
        let table = [
            row(1.0, f64::INFINITY),
            row(f64::INFINITY, 0.2),
            row(3.0, 0.5),
        ];
        let (best, fallback) = opt.select(&table);
        assert_eq!((best.cost_micro, fallback), (3.0, true));
    }

    /// One window per decision interval over an hour of the seeded
    /// synthetic-MAP trace.
    fn seed_trace_windows(l: usize) -> Vec<Vec<f64>> {
        let trace = TraceKind::SyntheticMap.generate_for(11, HOUR);
        (1..=60)
            .filter_map(|i| window_at_time(&trace, 60.0 * i as f64, l, 1.0))
            .map(|w| w.interarrivals)
            .collect()
    }

    /// The autograd graph is the oracle: at the paper's model widths and
    /// 216-config grid, the plan-backed prediction table equals the graph
    /// forward to the bit on every seed-trace window, so `choose` decides
    /// exactly what the graph would.
    #[test]
    fn predict_all_matches_graph_oracle_bitwise() {
        let mut m = Surrogate::new(SurrogateConfig::default(), 13);
        let opt = DeepBatOptimizer::new(ConfigGrid::paper_default(), 0.1);
        let windows = seed_trace_windows(m.cfg.seq_len);
        assert!(windows.len() >= 50, "only {} windows", windows.len());
        let seqs = Tensor::new(vec![windows.len(), m.cfg.seq_len], windows.concat());
        fit_standardizers(&mut m, &seqs, &opt.grid_feats);
        for w in &windows {
            let oracle = opt.preds_from(&m.predict_encoded(&m.encode_window(w), &opt.grid_feats));
            let got = opt.choose(&m, w);
            assert_eq!(got.all.len(), 216);
            for (a, b) in got.all.iter().zip(&oracle) {
                assert_eq!(a.config, b.config);
                assert_eq!(a.cost_micro.to_bits(), b.cost_micro.to_bits());
                assert_eq!(
                    a.percentiles.map(f64::to_bits),
                    b.percentiles.map(f64::to_bits)
                );
            }
            assert_eq!(got.chosen.config, opt.select(&oracle).0.config);
        }
    }

    #[test]
    fn feat_cache_is_reused_until_fit_standardizers_changes_feat_std() {
        let mut m = model();
        let opt = DeepBatOptimizer::new(ConfigGrid::tiny(), 0.1);
        let first = opt.grid_cache(&m);
        // Same standardiser, even after a plan rebuild: the same cache.
        m.invalidate_plan();
        assert!(Arc::ptr_eq(&first, &opt.grid_cache(&m)));
        let seqs = Tensor::new(vec![1, m.cfg.seq_len], window(m.cfg.seq_len));
        fit_standardizers(&mut m, &seqs, &opt.grid_feats);
        let refit = opt.grid_cache(&m);
        assert!(
            !Arc::ptr_eq(&first, &refit),
            "stale feature cache survived a standardiser refit"
        );
        assert_eq!(refit.pre, m.preprocess_feats(&opt.grid_feats));
        assert_ne!(refit.pre, first.pre);
        assert!(Arc::ptr_eq(&refit, &opt.grid_cache(&m)));
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
