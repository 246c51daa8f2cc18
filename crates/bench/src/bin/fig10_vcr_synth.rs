//! Fig. 10 — per-hour VCR over 12 hours of the synthetic MAP-generated
//! trace: BATCH vs fine-tuned DeepBAT (paper shape: BATCH's VCR spikes in
//! hours whose predecessor was a poor predictor; DeepBAT stays low).

use dbat_bench::{compare, report, ExpSettings};
use dbat_core::estimate_gamma;
use dbat_sim::hourly_vcr;
use dbat_workload::{TraceKind, HOUR};
use std::sync::Arc;

fn main() {
    let s = ExpSettings::from_env();
    let _telemetry = s.init_telemetry("fig10_vcr_synth");
    let trace = s.trace(TraceKind::SyntheticMap);
    let hours = s.eval_hours.min((trace.horizon() / HOUR) as usize);
    let t1 = hours as f64 * HOUR;

    let model = Arc::new(s.ensure_finetuned(TraceKind::SyntheticMap));
    let first_hour = trace.slice(0.0, HOUR.min(trace.horizon()));
    let gamma = estimate_gamma(&model, &first_hour, &s.grid, &s.params, 24, 80);
    println!("gamma = {gamma:.3}; evaluating {hours} hours");

    let m_db = compare::run_policy(&mut compare::deepbat(model, &s, gamma), &trace, &s, 0.0, t1)
        .measurements;
    let m_bt = compare::run_policy(&mut compare::batch(&s), &trace, &s, 0.0, t1).measurements;
    let v_db = hourly_vcr(&m_db, hours, HOUR);
    let v_bt = hourly_vcr(&m_bt, hours, HOUR);

    report::banner("Fig 10", "hourly VCR (%) on the MAP-generated trace");
    let rows: Vec<Vec<String>> = (0..hours)
        .map(|h| {
            vec![
                h.to_string(),
                report::f(v_bt[h], 1),
                report::f(v_db[h], 1),
                report::bar(v_bt[h] / 100.0, 20),
                report::bar(v_db[h] / 100.0, 20),
            ]
        })
        .collect();
    report::table(
        &["hour", "BATCH", "DeepBAT_ft", "BATCH_bar", "DeepBAT_bar"],
        &rows,
    );

    report::banner("Fig 10 summary", "overall");
    report::table(
        &compare::SUMMARY_HEADERS,
        &[
            compare::summary_row("BATCH", &m_bt),
            compare::summary_row("DeepBAT(ft)", &m_db),
        ],
    );
}
