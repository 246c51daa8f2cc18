//! Fig. 13 — latency-distribution prediction: predicted vs observed latency
//! percentiles for the four traces (paper MAPEs: Azure 2.85%, Twitter 3.11%
//! zero-shot, Alibaba 3.32% and synthetic 3.07% with fine-tuning).
//!
//! For each trace we fix a batching configuration (as the paper's
//! subcaptions do), slide the surrogate over many windows of the test
//! region, and compare the mean predicted percentile vector against the
//! percentiles of the pooled observed (simulated ground-truth) latencies.

use dbat_bench::{report, ExpSettings};
use dbat_core::{label_replicated, window_to_arrivals, Surrogate};
use dbat_nn::Tensor;
use dbat_sim::{simulate_batching, LambdaConfig};
use dbat_workload::{percentile, sample_windows, Rng, TraceKind, HOUR};

fn main() {
    let s = ExpSettings::from_env();
    let _telemetry = s.init_telemetry("fig13_cdf");
    let base = s.ensure_base_model();

    // (trace, model, config, test-region start hour) following the paper's
    // subcaptions; Azure/Twitter use the base model (zero-shot for Twitter),
    // Alibaba/synthetic use their fine-tuned variants.
    let cases: Vec<(TraceKind, Surrogate, LambdaConfig, f64)> = vec![
        (
            TraceKind::AzureLike,
            base_clone(&s),
            LambdaConfig::new(2048, 10, 0.08),
            12.0,
        ),
        (
            TraceKind::TwitterLike,
            base_clone(&s),
            LambdaConfig::new(2048, 8, 0.05),
            0.0,
        ),
        (
            TraceKind::AlibabaLike,
            s.ensure_finetuned(TraceKind::AlibabaLike),
            LambdaConfig::new(2048, 16, 0.1),
            1.0,
        ),
        (
            TraceKind::SyntheticMap,
            s.ensure_finetuned(TraceKind::SyntheticMap),
            LambdaConfig::new(2048, 10, 0.05),
            1.0,
        ),
    ];
    let _ = base;

    let n_windows = if s.fast { 20 } else { 120 };
    let mut summary = Vec::new();
    for (kind, model, cfg, start_hour) in cases {
        let trace = s.trace(kind);
        let t0 = (start_hour * HOUR).min(trace.horizon() * 0.5);
        let region = trace.slice(t0, trace.horizon());
        let mut rng = Rng::new(7_000 + s.seed_for(kind));
        let windows = sample_windows(&region, s.seq_len, n_windows, &mut rng);

        // Observed: pool simulated latencies over all windows (the CDF), and
        // per-window replicated percentiles (the prediction targets).
        let mut observed = Vec::new();
        // Predicted: mean of per-window predicted percentile vectors.
        let mut pred_acc = [0.0f64; 4];
        // Per-window prediction MAPE per percentile (the paper's
        // latency-prediction-error metric).
        let mut win_mape = [0.0f64; 4];
        let mut win_n = 0usize;
        for w in &windows {
            let arrivals = window_to_arrivals(&w.interarrivals);
            let sim = simulate_batching(&arrivals, &cfg, &s.params, None);
            observed.extend(sim.latencies());
            let e1 = model.encode_window_fast(&w.interarrivals);
            let feats = Tensor::new(
                vec![1, 3],
                vec![cfg.memory_mb as f64, cfg.batch_size as f64, cfg.timeout_s],
            );
            let p = model.predict_encoded_fast_pre(&e1, &model.preprocess_feats(&feats));
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
            win_n += 1;
        }
        for a in &mut pred_acc {
            *a /= windows.len().max(1) as f64;
        }
        for m in &mut win_mape {
            *m /= win_n.max(1) as f64;
        }

        report::banner(
            "Fig 13",
            &format!(
                "{}: predicted vs observed latency percentiles ({}, {} windows)",
                kind.name(),
                cfg,
                windows.len()
            ),
        );
        let mut mape_acc = 0.0;
        let rows: Vec<Vec<String>> = [50.0, 90.0, 95.0, 99.0]
            .iter()
            .enumerate()
            .map(|(i, &p)| {
                let obs = percentile(&observed, p);
                let pred = pred_acc[i];
                let err = if obs > 0.0 {
                    (pred - obs).abs() / obs * 100.0
                } else {
                    0.0
                };
                mape_acc += err;
                vec![
                    format!("p{}", p as u32),
                    report::f(obs * 1e3, 1),
                    report::f(pred * 1e3, 1),
                    report::f(err, 2),
                ]
            })
            .collect();
        report::table(
            &["percentile", "observed_ms", "predicted_ms", "APE_%"],
            &rows,
        );
        let mape = mape_acc / 4.0;
        let per_window = win_mape.iter().sum::<f64>() / 4.0 * 100.0;
        println!("pooled-CDF MAPE: {mape:.2}%   per-window prediction MAPE: {per_window:.2}%");
        summary.push(vec![
            kind.name().to_string(),
            report::f(per_window, 2),
            report::f(mape, 2),
        ]);
    }

    report::banner(
        "Fig 13 summary",
        "per-trace latency-prediction MAPE (paper: 2.85/3.11/3.32/3.07%)",
    );
    report::table(
        &["trace", "per_window_MAPE_%", "pooled_CDF_MAPE_%"],
        &summary,
    );
    println!(
        "
per-window MAPE is the metric that drives the optimizer; the pooled-CDF"
    );
    println!("column aggregates a mean-of-percentiles against a mixture percentile and");
    println!("is only meaningful when the trace is regime-homogeneous.");
}

fn base_clone(s: &ExpSettings) -> Surrogate {
    s.ensure_base_model()
}
