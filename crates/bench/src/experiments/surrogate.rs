//! The surrogate's own experiments: its training report, latency-percentile
//! prediction (Fig. 13), attention (Fig. 14), the window-length and layer
//! sensitivity (Fig. 15), the §IV-F decision both solvers return with the
//! §IV-A footprint, and the label-replication ablation.

use super::{non_increasing, r};
use crate::ledger::Claim::{NotReproduced, NotReproducedInFull, Reproduced, ReproducedInFull};
use crate::ledger::{Claims, Summary};
use crate::settings::Models;
use crate::ExpSettings;
use dbat_core::{
    generate_dataset, label_replicated, train, validation_mape, window_to_arrivals,
    DeepBatOptimizer, Surrogate, SurrogateConfig, TrainConfig, TrainSample,
};
use dbat_nn::Tensor;
use dbat_sim::{simulate_batching, LambdaConfig};
use dbat_telemetry::Telemetry;
use dbat_workload::{
    percentile, sample_windows, variance, window_at_time, Rng, TraceKind, Window, HOUR,
};
use serde::Serialize;
use std::collections::BTreeMap;

/// The cached models' validation MAPE, as their training reported it.
#[derive(Serialize)]
pub(crate) struct TrainModel {
    pub parameters: usize,
    pub base_val_mape_pct: f64,
    pub alibaba_ft_val_mape_pct: f64,
    pub synthetic_ft_val_mape_pct: f64,
}

pub(crate) fn train_model(m: &Models) -> TrainModel {
    let base = m.base();
    let ft = |kind| r(m.finetuned(kind).record.val_mape_pct, 2);
    TrainModel {
        parameters: dbat_nn::Module::num_parameters(&*base.model),
        base_val_mape_pct: r(base.record.val_mape_pct, 2),
        alibaba_ft_val_mape_pct: ft(TraceKind::AlibabaLike),
        synthetic_ft_val_mape_pct: ft(TraceKind::SyntheticMap),
    }
}

impl Summary for TrainModel {}

/// Predicted against observed latency percentiles (p50, p90, p95, p99) on
/// one trace at a fixed configuration.
#[derive(Serialize)]
pub(crate) struct Prediction {
    pub config: String,
    pub windows: usize,
    /// Percentiles of the latencies pooled over every window (the CDF).
    pub observed_ms: Vec<f64>,
    /// The mean of the per-window predicted percentiles.
    pub predicted_ms: Vec<f64>,
    pub ape_pct: Vec<f64>,
    pub pooled_mape_pct: f64,
    /// Mean per-window error against replicated labels: the metric that
    /// drives the optimizer.
    pub per_window_mape_pct: f64,
}

/// Fig. 13: latency-distribution prediction on the four traces (base
/// model on Azure and zero-shot on Twitter, fine-tuned on the others).
#[derive(Serialize)]
pub(crate) struct Fig13 {
    pub traces: BTreeMap<String, Prediction>,
}

pub(crate) fn fig13(s: &ExpSettings, m: &Models) -> Fig13 {
    // (trace, config, test-region start hour), following the paper's
    // subcaptions.
    let cases = [
        (
            TraceKind::AzureLike,
            LambdaConfig::new(2048, 10, 0.08),
            12.0,
        ),
        (
            TraceKind::TwitterLike,
            LambdaConfig::new(2048, 8, 0.05),
            0.0,
        ),
        (
            TraceKind::AlibabaLike,
            LambdaConfig::new(2048, 16, 0.1),
            1.0,
        ),
        (
            TraceKind::SyntheticMap,
            LambdaConfig::new(2048, 10, 0.05),
            1.0,
        ),
    ];
    let n_windows = if s.fast { 20 } else { 120 };
    let traces = (cases.into_iter())
        .map(|(kind, cfg, start_hour)| {
            let model = match kind {
                TraceKind::AzureLike | TraceKind::TwitterLike => m.base(),
                ood => m.finetuned(ood),
            };
            let prediction = predict_percentiles(s, &model.model, kind, cfg, start_hour, n_windows);
            (kind.name().to_string(), prediction)
        })
        .collect();
    Fig13 { traces }
}

fn predict_percentiles(
    s: &ExpSettings,
    model: &Surrogate,
    kind: TraceKind,
    cfg: LambdaConfig,
    start_hour: f64,
    n_windows: usize,
) -> Prediction {
    let trace = s.trace(kind);
    let t0 = (start_hour * HOUR).min(trace.horizon() * 0.5);
    let region = trace.slice(t0, trace.horizon());
    let mut rng = Rng::new(7_000 + s.seed_for(kind));
    let windows = sample_windows(&region, s.seq_len, n_windows, &mut rng);
    let feats = Tensor::new(
        vec![1, 3],
        vec![cfg.memory_mb as f64, cfg.batch_size as f64, cfg.timeout_s],
    );
    let feats = model.preprocess_feats(&feats);
    let mut observed = Vec::new();
    let mut pred_acc = [0.0f64; 4];
    let mut win_mape = [0.0f64; 4];
    for w in &windows {
        let arrivals = window_to_arrivals(&w.interarrivals);
        observed.extend(simulate_batching(&arrivals, &cfg, &s.params, None).latencies());
        let p = model.predict_encoded_fast_pre(&model.encode_window_fast(&w.interarrivals), &feats);
        for (acc, &v) in pred_acc.iter_mut().zip(&p.data()[1..5]) {
            *acc += v.max(0.0);
        }
        let truth = label_replicated(&w.interarrivals, &cfg, &s.params, s.slo, 8);
        for (i, m) in win_mape.iter_mut().enumerate() {
            let t = truth.target[i + 1];
            if t > 0.0 {
                *m += (p.data()[i + 1].max(0.0) - t).abs() / t;
            }
        }
    }
    let n = windows.len().max(1) as f64;
    let observed: Vec<f64> =
        (([50.0, 90.0, 95.0, 99.0].iter()).map(|&q| percentile(&observed, q))).collect();
    let predicted: Vec<f64> = pred_acc.iter().map(|a| a / n).collect();
    let ape: Vec<f64> = (observed.iter().zip(&predicted))
        .map(|(&obs, &pred)| {
            if obs > 0.0 {
                (pred - obs).abs() / obs * 100.0
            } else {
                0.0
            }
        })
        .collect();
    Prediction {
        config: cfg.to_string(),
        windows: windows.len(),
        observed_ms: observed.iter().map(|v| r(v * 1e3, 1)).collect(),
        predicted_ms: predicted.iter().map(|v| r(v * 1e3, 1)).collect(),
        pooled_mape_pct: r(ape.iter().sum::<f64>() / 4.0, 2),
        ape_pct: ape.iter().map(|&v| r(v, 2)).collect(),
        per_window_mape_pct: r(win_mape.iter().map(|m| m / n).sum::<f64>() / 4.0 * 100.0, 2),
    }
}

impl Summary for Fig13 {
    fn paper(&self) -> Vec<(&'static str, f64, f64)> {
        let ours = |name: &str| self.traces[name].per_window_mape_pct;
        vec![
            ("traces.azure.per_window_mape_pct", ours("azure"), 2.85),
            ("traces.twitter.per_window_mape_pct", ours("twitter"), 3.11),
            ("traces.alibaba.per_window_mape_pct", ours("alibaba"), 3.32),
            (
                "traces.synthetic.per_window_mape_pct",
                ours("synthetic"),
                3.07,
            ),
        ]
    }

    fn claims(&self) -> Claims {
        let mape: Vec<f64> = self
            .traces
            .values()
            .map(|p| p.per_window_mape_pct)
            .collect();
        let paper = mape.iter().all(|&v| v <= 3.32);
        let alibaba = mape
            .iter()
            .all(|&v| v <= self.traces["alibaba"].per_window_mape_pct);
        vec![
            (NotReproduced, "mape_at_most_3_32", paper),
            (Reproduced, "alibaba_hardest", alibaba),
        ]
    }
}

/// The base model's attention against one trace's interarrival profile.
#[derive(Serialize)]
pub(crate) struct Attention {
    pub windows: usize,
    /// Mean over the windows of the bucket-level correlation between
    /// interarrival magnitude and received attention.
    pub mean_corr: f64,
    pub positive_pct: f64,
    /// The most variable window, in 16 position buckets: its correlation,
    /// mean interarrival and mean attention per bucket.
    pub window_corr: f64,
    pub mean_ia_ms: Vec<f64>,
    pub attention: Vec<f64>,
}

/// Fig. 14: attention scores of the Azure-trained base model (no
/// fine-tuning) on all four traces.
#[derive(Serialize)]
pub(crate) struct Fig14 {
    pub traces: BTreeMap<String, Attention>,
}

const BUCKETS: usize = 16;

pub(crate) fn fig14(s: &ExpSettings, m: &Models) -> Fig14 {
    let model = &m.base().model;
    let traces = (TraceKind::ALL.iter())
        .filter_map(|&kind| {
            let trace = s.trace(kind);
            let region = trace.slice(0.0, (4.0 * HOUR).min(trace.horizon()));
            let mut rng = Rng::new(1_400 + s.seed_for(kind));
            let windows =
                sample_windows(&region, s.seq_len, if s.fast { 12 } else { 60 }, &mut rng);
            let correlations: Vec<f64> = (windows.iter())
                .map(|w| correlation(&model.attention_profile(&w.interarrivals), &w.interarrivals))
                .collect();
            let positive = correlations.iter().filter(|&&c| c > 0.0).count();
            let n = windows.len();
            // The most variable window has the most structure to attend to.
            let win = (windows.into_iter())
                .max_by(|a, b| variance(&a.interarrivals).total_cmp(&variance(&b.interarrivals)))?;
            let ia = &win.interarrivals;
            let attn = model.attention_profile(ia);
            let attention = Attention {
                windows: n,
                mean_corr: r(mean(&correlations), 3),
                positive_pct: r(positive as f64 / n.max(1) as f64 * 100.0, 0),
                window_corr: r(correlation(&attn, ia), 3),
                mean_ia_ms: buckets(ia).iter().map(|v| r(v * 1e3, 1)).collect(),
                attention: buckets(&attn).iter().map(|&v| r(v, 3)).collect(),
            };
            Some((kind.name().to_string(), attention))
        })
        .collect();
    Fig14 { traces }
}

impl Summary for Fig14 {
    fn claims(&self) -> Claims {
        let synthetic = self.traces["synthetic"].mean_corr;
        let burstiest = self.traces.values().all(|a| a.mean_corr <= synthetic);
        let most = self.traces.values().all(|a| a.positive_pct > 50.0);
        vec![
            (Reproduced, "synthetic_attends_most", burstiest),
            (NotReproducedInFull, "positive_on_most_windows", most),
        ]
    }
}

fn mean(xs: &[f64]) -> f64 {
    xs.iter().sum::<f64>() / xs.len().max(1) as f64
}

/// Means of a window's series over 16 equal-width position buckets.
fn buckets(xs: &[f64]) -> Vec<f64> {
    xs.chunks((xs.len() / BUCKETS).max(1))
        .take(BUCKETS)
        .map(mean)
        .collect()
}

/// Pearson correlation between bucket-mean interarrival and bucket-mean
/// attention.
fn correlation(attn: &[f64], ia: &[f64]) -> f64 {
    let (x, y) = (buckets(ia), buckets(attn));
    let (mx, my) = (mean(&x), mean(&y));
    let (mut cov, mut vx, mut vy) = (0.0, 0.0, 0.0);
    for (a, b) in x.iter().zip(&y) {
        cov += (a - mx) * (b - my);
        vx += (a - mx) * (a - mx);
        vy += (b - my) * (b - my);
    }
    if vx > 0.0 && vy > 0.0 {
        cov / (vx.sqrt() * vy.sqrt())
    } else {
        0.0
    }
}

/// Fig. 15: validation error against window length (a) and encoder depth
/// (b), each on a reduced training schedule.
#[derive(Serialize)]
pub(crate) struct Fig15 {
    pub seq_len: Vec<usize>,
    pub seq_val_mape_pct: Vec<f64>,
    pub layers: Vec<usize>,
    pub layers_val_mape_pct: Vec<f64>,
    pub layers_final_val_loss: Vec<f64>,
}

pub(crate) fn fig15(s: &ExpSettings, hub: &Telemetry) -> Fig15 {
    let trace = s.trace(TraceKind::AzureLike);
    let half = trace.slice(0.0, trace.horizon() / 2.0);
    let (n, epochs) = if s.fast { (120, 2) } else { (500, 20) };
    let tc = TrainConfig {
        epochs,
        ..TrainConfig::default()
    };
    let fit = |seq_len: usize, n_layers: usize, data_seed: u64, init_seed: u64| {
        let data = generate_dataset(&half, &s.grid, &s.params, n, seq_len, s.slo, data_seed);
        let cfg = SurrogateConfig {
            seq_len,
            n_layers,
            ..SurrogateConfig::default()
        };
        let report = train(&mut Surrogate::new(cfg, init_seed), &data, &tc);
        report.publish(hub);
        report
    };
    // l = 512 is left out: one epoch takes about a minute on one core.
    let seq_len = if s.fast {
        vec![32, 64]
    } else {
        vec![32, 64, 128, 256]
    };
    let seq_mape = seq_len.iter().map(|&l| fit(l, 2, 301, 15).final_val_mape);
    let layers = if s.fast { vec![1, 2] } else { vec![1, 2, 4, 6] };
    let l = if s.fast { 32 } else { 64 };
    let reports: Vec<_> = layers.iter().map(|&n| fit(l, n, 302, 16)).collect();
    Fig15 {
        seq_val_mape_pct: seq_mape.map(|v| r(v, 2)).collect(),
        seq_len,
        layers,
        layers_val_mape_pct: reports.iter().map(|p| r(p.final_val_mape, 2)).collect(),
        layers_final_val_loss: (reports.iter())
            .map(|p| r(*p.val_losses.last().unwrap_or(&f64::NAN), 4))
            .collect(),
    }
}

impl Summary for Fig15 {
    fn claims(&self) -> Claims {
        let mape = &self.seq_val_mape_pct;
        let best = self
            .layers_val_mape_pct
            .iter()
            .cloned()
            .fold(f64::INFINITY, f64::min);
        let two = self.layers_val_mape_pct[1] == best; // layers[1] == 2
        let to_128 = non_increasing(&mape[..mape.len().min(3)]);
        vec![
            (ReproducedInFull, "two_layers_best", two),
            (ReproducedInFull, "mape_falls_to_l128", to_128),
            (
                NotReproducedInFull,
                "mape_falls_with_l",
                non_increasing(mape),
            ),
        ]
    }
}

/// §IV-F and §IV-A: the configuration each solver returns for the same
/// hour of data and grid, and the surrogate's size. The solve times are
/// measured by `benchmark/` (`analytic.batch_decide_ms`,
/// `core.choose_us`, `core.speedup_vs_batch`).
#[derive(Serialize)]
pub(crate) struct TblPredictionTime {
    pub configs: usize,
    /// The arrival process BATCH fits: "MMPP(2)" or "poisson".
    pub batch_fit: String,
    pub batch_choice: String,
    pub deepbat_choice: String,
    pub parameters: usize,
    /// f64 weight memory in MB.
    pub weight_mb: f64,
}

pub(crate) fn tbl_prediction_time(s: &ExpSettings, m: &Models) -> TblPredictionTime {
    let model = &m.finetuned(TraceKind::SyntheticMap).model;
    let trace = s.trace(TraceKind::SyntheticMap);
    let ia = trace.slice(0.0, HOUR.min(trace.horizon())).interarrivals();
    let (batch_best, fit) =
        dbat_analytic::optimize_from_interarrivals(&ia, &s.grid, &s.params, s.slo, s.percentile)
            .expect("enough data to fit");
    let w = window_at_time(&trace, HOUR.min(trace.horizon()), s.seq_len, 1.0)
        .expect("trace has arrivals");
    let decision = DeepBatOptimizer::new(s.grid.clone(), s.slo).choose(model, &w.interarrivals);
    let parameters = dbat_nn::Module::num_parameters(&**model);
    TblPredictionTime {
        configs: s.grid.len(),
        batch_fit: if fit.is_poisson { "poisson" } else { "MMPP(2)" }.to_string(),
        batch_choice: batch_best.config.to_string(),
        deepbat_choice: decision.chosen.config.to_string(),
        parameters,
        weight_mb: r(parameters as f64 * 8.0 / 1e6, 2),
    }
}

impl Summary for TblPredictionTime {
    fn paper(&self) -> Vec<(&'static str, f64, f64)> {
        vec![("weight_mb", self.weight_mb, 2.0)]
    }
}

/// Ablation: training labels from 1, 4 and 8 window replicas, scored
/// against 32-replica reference labels.
#[derive(Serialize)]
pub(crate) struct AblReplicas {
    pub replicas: Vec<usize>,
    pub final_train_loss: Vec<f64>,
    pub holdout_mape_pct: Vec<f64>,
}

pub(crate) fn abl_replicas(s: &ExpSettings, hub: &Telemetry) -> AblReplicas {
    let (n_train, n_val, epochs, seq_len) = if s.fast {
        (100, 40, 3, 32)
    } else {
        (400, 120, 10, 64)
    };
    let trace = s.trace(TraceKind::AzureLike);
    let half = trace.slice(0.0, (3.0 * HOUR).min(trace.horizon()));
    let configs = s.grid.configs();
    let mut windows = sample_windows(&half, seq_len, n_train + n_val, &mut Rng::new(808));
    let val_windows = windows.split_off(n_train);
    // Each window labelled at a random grid configuration.
    let label = |windows: &[Window], seed: u64, replicas: usize| -> Vec<TrainSample> {
        let mut rng = Rng::new(seed);
        let mut label = |w: &Window| {
            let cfg = configs[rng.below(configs.len())];
            label_replicated(&w.interarrivals, &cfg, &s.params, s.slo, replicas)
        };
        windows.iter().map(&mut label).collect()
    };
    let val = label(&val_windows, 809, 32);
    let val_rows: Vec<usize> = (0..val.len()).collect();
    let cfg = SurrogateConfig {
        seq_len,
        ..SurrogateConfig::default()
    };
    let tc = TrainConfig {
        epochs,
        lr: 3e-3,
        ..TrainConfig::default()
    };
    let replicas = vec![1, 4, 8];
    let runs: Vec<(f64, f64)> = (replicas.iter())
        .map(|&n| {
            let mut model = Surrogate::new(cfg, 77);
            let report = train(&mut model, &label(&windows, 810, n), &tc);
            report.publish(hub);
            let loss = *report.train_losses.last().expect("at least one epoch");
            (r(loss, 4), r(validation_mape(&model, &val, &val_rows), 2))
        })
        .collect();
    AblReplicas {
        replicas,
        final_train_loss: runs.iter().map(|x| x.0).collect(),
        holdout_mape_pct: runs.iter().map(|x| x.1).collect(),
    }
}

impl Summary for AblReplicas {
    fn claims(&self) -> Claims {
        let falls = non_increasing(&self.holdout_mape_pct);
        vec![(ReproducedInFull, "more_replicas_lower_mape", falls)]
    }
}
