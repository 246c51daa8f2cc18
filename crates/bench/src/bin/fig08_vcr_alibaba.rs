//! Fig. 8 — per-hour VCR over 12 hours of the Alibaba-like trace:
//! BATCH vs fine-tuned DeepBAT, plus the pretrained-without-fine-tuning
//! ablation the paper reports for hours 4–5 (14.18% / 17.06% vs the
//! fine-tuned 2.27% / 4.65%).

use dbat_bench::{compare, report, ExpSettings};
use dbat_core::estimate_gamma;
use dbat_sim::hourly_vcr;
use dbat_workload::{TraceKind, HOUR};
use std::sync::Arc;

fn main() {
    let s = ExpSettings::from_env();
    let _telemetry = s.init_telemetry("fig08_vcr_alibaba");
    let trace = s.trace(TraceKind::AlibabaLike);
    let hours = s.eval_hours.min((trace.horizon() / HOUR) as usize);
    let t1 = hours as f64 * HOUR;

    let ft = Arc::new(s.ensure_finetuned(TraceKind::AlibabaLike));
    let base = Arc::new(s.ensure_base_model());
    let first_hour = trace.slice(0.0, HOUR.min(trace.horizon()));
    let gamma = estimate_gamma(&ft, &first_hour, &s.grid, &s.params, 24, 78);
    println!("gamma = {gamma:.3}; evaluating {hours} hours");

    let m_ft =
        compare::run_policy(&mut compare::deepbat(ft, &s, gamma), &trace, &s, 0.0, t1).measurements;
    let m_base =
        compare::run_policy(&mut compare::deepbat(base, &s, 0.0), &trace, &s, 0.0, t1).measurements;
    let m_bt = compare::run_policy(&mut compare::batch(&s), &trace, &s, 0.0, t1).measurements;

    let v_ft = hourly_vcr(&m_ft, hours, HOUR);
    let v_base = hourly_vcr(&m_base, hours, HOUR);
    let v_bt = hourly_vcr(&m_bt, hours, HOUR);

    report::banner("Fig 8", "hourly VCR (%) on the Alibaba-like trace");
    let rows: Vec<Vec<String>> = (0..hours)
        .map(|h| {
            vec![
                h.to_string(),
                report::f(v_bt[h], 1),
                report::f(v_ft[h], 1),
                report::f(v_base[h], 1),
            ]
        })
        .collect();
    report::table(
        &["hour", "BATCH", "DeepBAT_ft", "DeepBAT_pretrained"],
        &rows,
    );

    report::banner("Fig 8 summary", "overall");
    report::table(
        &compare::SUMMARY_HEADERS,
        &[
            compare::summary_row("BATCH", &m_bt),
            compare::summary_row("DeepBAT(ft)", &m_ft),
            compare::summary_row("DeepBAT(pretrained)", &m_base),
        ],
    );
    println!("\npaper shape: BATCH spikes (65.9%/65.12% at hours 4-5 in the paper)");
    println!("around unpredicted peaks; fine-tuned DeepBAT stays far lower, and the");
    println!("non-fine-tuned model sits in between — fine-tuning buys a several-fold");
    println!("VCR reduction.");
}
