//! Ablation — fault injection and graceful degradation: sweep the fault
//! intensity (cold starts, invocation failures + retries, throttling,
//! stragglers) and compare DeepBAT, BATCH, and a static configuration,
//! each wrapped in the graceful-degradation controller.
//!
//! Intensity 0 is the control arm: the fault machinery is plumbed in but
//! inert, and the printed DeepBAT/BATCH rows must equal fig09's summary
//! for the same hour bit-for-bit (the zero-fault path delegates to the
//! plain simulator).

use dbat_bench::{compare, report, ExpSettings};
use dbat_core::{estimate_gamma, GracefulController};
use dbat_sim::{Controller, FaultPlan, LambdaConfig};
use dbat_workload::{TraceKind, HOUR};
use std::sync::Arc;

fn main() {
    let s = ExpSettings::from_env();
    let _telemetry = s.init_telemetry("abl_faults");
    let model = Arc::new(s.ensure_finetuned(TraceKind::SyntheticMap));
    let trace = s.trace(TraceKind::SyntheticMap);
    // Same showcase hour as fig09, so the zero-fault rows must reproduce
    // its summary numbers exactly.
    let h0 = if s.fast { 1.0 } else { 2.0 };
    let (w0, w1) = (h0 * HOUR, ((h0 + 1.0) * HOUR).min(trace.horizon()));

    let first_hour = trace.slice(0.0, HOUR.min(trace.horizon()));
    let gamma = estimate_gamma(&model, &first_hour, &s.grid, &s.params, 24, 79);
    println!("gamma = {gamma:.3}");

    let static_cfg = LambdaConfig::new(2048, 4, 0.05);
    let intensities = [0.0, 0.25, 0.5, 1.0];
    for (i, &level) in intensities.iter().enumerate() {
        let plan = if level == 0.0 {
            FaultPlan::default()
        } else {
            FaultPlan::intensity(level, 4242 + i as u64)
        };
        report::banner(
            "Faults",
            &format!(
                "intensity {level}: hour {h0}-{}, SLO {} ms, seed {}",
                h0 + 1.0,
                s.slo * 1e3,
                plan.seed
            ),
        );

        let mut rows = Vec::new();
        let mut engagements = Vec::new();
        if level == 0.0 {
            // Control arm, no degradation wrapper: these DeepBAT/BATCH
            // rows must match fig09's summary for the same hour.
            let mut db = compare::deepbat(model.clone(), &s, gamma);
            let out = compare::run_policy(&mut db, &trace, &s, w0, w1);
            rows.push(compare::fault_row("DeepBAT(ft)", &out));
            let mut bt = compare::batch(&s);
            let out = compare::run_policy(&mut bt, &trace, &s, w0, w1);
            rows.push(compare::fault_row("BATCH", &out));
            let mut st = compare::fixed(&s, static_cfg);
            let out = compare::run_policy(&mut st, &trace, &s, w0, w1);
            rows.push(compare::fault_row(&format!("static {static_cfg}"), &out));
        } else {
            {
                let mut ctl =
                    GracefulController::new(compare::deepbat(model.clone(), &s, gamma), s.slo);
                let out = compare::run_policy_faulted(&mut ctl, &trace, &s, w0, w1, plan);
                rows.push(compare::fault_row("DeepBAT(ft)", &out));
                engagements.push(("DeepBAT(ft)", ctl.monitor.engagements()));
            }
            {
                let mut ctl = GracefulController::new(compare::batch(&s), s.slo);
                let out = compare::run_policy_faulted(&mut ctl, &trace, &s, w0, w1, plan);
                rows.push(compare::fault_row("BATCH", &out));
                engagements.push(("BATCH", ctl.monitor.engagements()));
            }
            {
                let mut ctl = GracefulController::new(compare::fixed(&s, static_cfg), s.slo);
                let out = compare::run_policy_faulted(&mut ctl, &trace, &s, w0, w1, plan);
                rows.push(compare::fault_row(&format!("static {static_cfg}"), &out));
                engagements.push(("static", ctl.monitor.engagements()));

                // Make the fallback decisions visible: dump the degraded
                // spans from the audit trail of one policy per intensity.
                let degraded: Vec<String> = ctl
                    .audit()
                    .iter()
                    .filter(|r| r.degraded)
                    .map(|r| format!("{:.0}-{:.0}s", r.start - w0, r.end - w0))
                    .collect();
                if !degraded.is_empty() {
                    println!(
                        "static audit: {} degraded interval(s): {}",
                        degraded.len(),
                        degraded.join(", ")
                    );
                }
            }
        }
        report::table(&compare::FAULT_HEADERS, &rows);
        if !engagements.is_empty() {
            let eng: Vec<String> = engagements
                .iter()
                .map(|(n, e)| format!("{n}={e}"))
                .collect();
            println!("degradation engagements: {}", eng.join("  "));
        }
    }

    println!("\nexpected shape: at intensity 0 every policy matches its fault-free");
    println!("numbers; as intensity grows, VCR and cost rise (retries re-bill, cold");
    println!("starts stretch latency) and the graceful wrapper engages more often,");
    println!("capping VCR at the price of the safe configuration's cost.");
}
