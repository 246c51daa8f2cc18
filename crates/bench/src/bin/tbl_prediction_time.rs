//! §IV-F — model prediction time, DeepBAT vs BATCH (the 55.93× headline),
//! plus the §IV-A deployment-footprint numbers.
//!
//! Both solvers answer the same question on the same data: "given the last
//! hour of arrivals, return the optimal (M, B, T)". BATCH must fit a MAP
//! and evaluate its matrix-analytic model on every grid configuration;
//! DeepBAT encodes the window once and sweeps the grid through the cheap
//! feature branch.

use dbat_bench::{report, ExpSettings};
use dbat_core::DeepBatOptimizer;
use dbat_nn::Tensor;
use dbat_workload::{window_at_time, TraceKind, HOUR};
use std::hint::black_box;
use std::time::Instant;

/// Mean seconds per call of `f` over `reps` calls.
fn mean_s<R>(reps: usize, f: impl Fn() -> R) -> f64 {
    let t0 = Instant::now();
    for _ in 0..reps {
        black_box(f());
    }
    t0.elapsed().as_secs_f64() / reps as f64
}

fn main() {
    let s = ExpSettings::from_env();
    let _telemetry = s.init_telemetry("tbl_prediction_time");
    let model = s.ensure_finetuned(TraceKind::SyntheticMap);
    let trace = s.trace(TraceKind::SyntheticMap);
    let hour = trace.slice(0.0, HOUR.min(trace.horizon()));
    let ia = hour.interarrivals();

    // --- BATCH: fit + analytic grid solve -------------------------------
    let reps_batch = if s.fast { 1 } else { 3 };
    let t0 = Instant::now();
    let mut batch_result = None;
    for _ in 0..reps_batch {
        batch_result = dbat_analytic::optimize_from_interarrivals(
            &ia,
            &s.grid,
            &s.params,
            s.slo,
            s.percentile,
        );
    }
    let batch_s = t0.elapsed().as_secs_f64() / reps_batch as f64;
    let (batch_best, fit) = batch_result.expect("enough data to fit");

    // Fit-only time for the breakdown.
    let t0 = Instant::now();
    for _ in 0..reps_batch {
        let _ = dbat_analytic::fit_map(&ia);
    }
    let fit_s = t0.elapsed().as_secs_f64() / reps_batch as f64;

    // --- DeepBAT: encode + surrogate grid sweep --------------------------
    let w = window_at_time(&trace, HOUR.min(trace.horizon()), s.seq_len, 1.0)
        .expect("trace has arrivals");
    let opt = DeepBatOptimizer::new(s.grid.clone(), s.slo);
    // Warm up, then measure the whole decision and, each on its own, its
    // two legs on the compiled plan `choose` runs (the paper's "milliseconds
    // for identifying the configuration, the remaining time for the cost
    // optimization").
    let decision = opt.choose(&model, &w.interarrivals);
    let reps_db = if s.fast { 5 } else { 20 };
    let db_s = mean_s(reps_db, || opt.choose(&model, &w.interarrivals));
    let encode_s = mean_s(reps_db, || model.encode_window_fast(&w.interarrivals));
    let encoded = model.encode_window_fast(&w.interarrivals);
    let grid_feats: Vec<f64> = (s.grid.configs().iter())
        .flat_map(|c| [c.memory_mb as f64, c.batch_size as f64, c.timeout_s])
        .collect();
    let grid_pre = model.preprocess_feats(&Tensor::new(vec![s.grid.len(), 3], grid_feats));
    let sweep_s = mean_s(reps_db, || {
        model.predict_encoded_fast_pre(&encoded, &grid_pre)
    });

    report::banner("Table (§IV-F)", "prediction time: BATCH vs DeepBAT");
    report::table(
        &["solver", "total", "breakdown", "chosen_config"],
        &[
            vec![
                "BATCH".into(),
                format!("{batch_s:.3} s"),
                format!(
                    "fit {:.3}s + analytic grid {:.3}s ({} cfgs{})",
                    fit_s,
                    batch_s - fit_s,
                    s.grid.len(),
                    if fit.is_poisson {
                        ", poisson fit"
                    } else {
                        ", MMPP(2) fit"
                    }
                ),
                format!("{}", batch_best.config),
            ],
            vec![
                "DeepBAT".into(),
                format!("{:.3} ms", db_s * 1e3),
                format!(
                    "encode {:.3}ms + sweep {:.3}ms ({} cfgs)",
                    encode_s * 1e3,
                    sweep_s * 1e3,
                    s.grid.len()
                ),
                format!("{}", decision.chosen.config),
            ],
        ],
    );
    println!(
        "\nspeedup: {:.1}x (paper reports 55.93x: 40.83 s vs 0.73 s)",
        batch_s / db_s
    );

    report::banner("§IV-A", "deployment footprint of the surrogate");
    let n_params = dbat_nn::Module::num_parameters(&model);
    report::table(
        &["metric", "value"],
        &[
            vec!["parameters".into(), n_params.to_string()],
            vec![
                "weight memory".into(),
                format!("{:.2} MB (f64)", n_params as f64 * 8.0 / 1e6),
            ],
            vec!["decision latency".into(), format!("{:.3} ms", db_s * 1e3)],
            vec![
                "decisions/hour at 60 s cadence".into(),
                format!("60 ({:.2}s CPU)", 60.0 * db_s),
            ],
        ],
    );
}
