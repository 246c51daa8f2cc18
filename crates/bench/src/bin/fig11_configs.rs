//! Fig. 11 — the configuration parameters (memory, batch size, timeout)
//! returned by DeepBAT, BATCH, and the ground-truth oracle over hour 3→4 of
//! the synthetic trace.
//!
//! Paper shape: DeepBAT's choices track the ground truth's adjustments as
//! the workload shifts; BATCH's hourly choice is frozen and drifts away.

use dbat_bench::{compare, report, ExpSettings};
use dbat_core::estimate_gamma;
use dbat_sim::DecisionRecord;
use dbat_workload::{TraceKind, HOUR};
use std::sync::Arc;

fn main() {
    let s = ExpSettings::from_env();
    let _telemetry = s.init_telemetry("fig11_configs");
    let model = Arc::new(s.ensure_finetuned(TraceKind::SyntheticMap));
    let trace = s.trace(TraceKind::SyntheticMap);
    let h0 = if s.fast { 1.0 } else { 2.0 };
    let (w0, w1) = (h0 * HOUR, ((h0 + 1.0) * HOUR).min(trace.horizon()));

    let first_hour = trace.slice(0.0, HOUR.min(trace.horizon()));
    let gamma = estimate_gamma(&model, &first_hour, &s.grid, &s.params, 24, 81);

    let db =
        compare::run_policy(&mut compare::deepbat(model, &s, gamma), &trace, &s, w0, w1).records;
    let bt = compare::run_policy(&mut compare::batch(&s), &trace, &s, w0, w1).records;
    let or = compare::run_policy(&mut compare::oracle(&s), &trace, &s, w0, w1).records;

    report::banner(
        "Fig 11",
        &format!(
            "configurations over hour {h0}-{} of the synthetic trace",
            h0 + 1.0
        ),
    );
    let rows: Vec<Vec<String>> = db
        .iter()
        .zip(&bt)
        .zip(&or)
        .map(|((d, b), o)| {
            vec![
                report::f((d.start - w0) / 60.0, 0),
                d.config.memory_mb.to_string(),
                b.config.memory_mb.to_string(),
                o.config.memory_mb.to_string(),
                d.config.batch_size.to_string(),
                b.config.batch_size.to_string(),
                o.config.batch_size.to_string(),
                report::f(d.config.timeout_s * 1e3, 0),
                report::f(b.config.timeout_s * 1e3, 0),
                report::f(o.config.timeout_s * 1e3, 0),
            ]
        })
        .collect();
    report::table(
        &[
            "min", "M_db", "M_batch", "M_truth", "B_db", "B_batch", "B_truth", "T_db", "T_batch",
            "T_truth",
        ],
        &rows,
    );

    // Agreement score: how often each policy lands on the oracle's choice.
    let agree = |sched: &[DecisionRecord]| {
        let hits = sched
            .iter()
            .zip(&or)
            .filter(|(a, o)| a.config == o.config)
            .count();
        hits as f64 / or.len().max(1) as f64 * 100.0
    };
    // Distance in grid steps is more informative than exact hits.
    let mem_dev = |sched: &[DecisionRecord]| {
        sched
            .iter()
            .zip(&or)
            .map(|(a, o)| (a.config.memory_mb as f64 - o.config.memory_mb as f64).abs())
            .sum::<f64>()
            / or.len().max(1) as f64
    };
    report::banner("Fig 11 summary", "agreement with the ground truth");
    report::table(
        &["policy", "exact_match_%", "mean_|dM|_MB"],
        &[
            vec![
                "DeepBAT".into(),
                report::f(agree(&db), 1),
                report::f(mem_dev(&db), 0),
            ],
            vec![
                "BATCH".into(),
                report::f(agree(&bt), 1),
                report::f(mem_dev(&bt), 0),
            ],
        ],
    );
}
