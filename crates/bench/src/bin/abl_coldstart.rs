//! Ablation — cold starts and concurrency limits (extensions over the
//! paper's model; DESIGN.md §2): how the unlimited-warm-concurrency
//! assumption shared by BATCH and DeepBAT degrades when invocations pay a
//! cold-start penalty or queue behind an account concurrency quota.

use dbat_bench::{report, ExpSettings};
use dbat_sim::{
    simulate_batching, simulate_faults, ColdStart, FaultPlan, LambdaConfig, SimParams,
    ThrottleFault,
};
use dbat_workload::{TraceKind, HOUR};

fn main() {
    let s = ExpSettings::from_env();
    let _telemetry = s.init_telemetry("abl_coldstart");
    let trace = TraceKind::AzureLike.generate_for(s.seed_for(TraceKind::AzureLike), HOUR);
    let slice = trace.slice(10.0 * 60.0, 25.0 * 60.0);
    let arrivals = slice.timestamps();
    let cfg = LambdaConfig::new(2048, 8, 0.05);
    println!(
        "workload: 15-min azure-like slice, {} requests; config {cfg}",
        slice.len()
    );

    report::banner(
        "Ablation: cold starts",
        "p95/p99 vs cold-start probability (delay 400 ms)",
    );
    let mut rows = Vec::new();
    for prob in [0.0, 0.01, 0.05, 0.1, 0.25] {
        let params = SimParams {
            cold_start: if prob > 0.0 {
                Some(ColdStart {
                    probability: prob,
                    delay_s: 0.4,
                })
            } else {
                None
            },
            ..SimParams::default()
        };
        let mut rng = dbat_workload::Rng::new(999);
        let out = simulate_batching(arrivals, &cfg, &params, Some(&mut rng));
        let sum = out.summary();
        let cold_frac = out.batches.iter().filter(|b| b.cold_start_s > 0.0).count() as f64
            / out.batches.len().max(1) as f64;
        rows.push(vec![
            report::f(prob, 2),
            report::f(cold_frac * 100.0, 1),
            report::f(sum.p95 * 1e3, 1),
            report::f(sum.p99 * 1e3, 1),
            report::f(out.cost_per_request() * 1e6, 4),
        ]);
    }
    report::table(
        &["P(cold)", "cold_batches_%", "p95_ms", "p99_ms", "cost_u$"],
        &rows,
    );
    println!("\ncold starts inflate tail latency (p99 before p95) without changing");
    println!("billed cost — the SLO margin chosen by the optimizer must absorb them.");

    report::banner(
        "Ablation: concurrency quota",
        "p95 vs account concurrency limit",
    );
    let params = SimParams::default();
    let mut rows = Vec::new();
    for limit in [1usize, 2, 4, 8, 16, usize::MAX] {
        // The quota is the fault model's throttle channel on its own: batches
        // beyond the limit wait in an unbounded FIFO queue, nothing is shed.
        let quota = FaultPlan {
            throttle: Some(ThrottleFault {
                max_concurrency: limit,
                queue_capacity: usize::MAX,
            }),
            ..FaultPlan::default()
        };
        let sum = simulate_faults(arrivals, &cfg, &params, &quota).summary();
        rows.push(vec![
            if limit == usize::MAX {
                "unlimited".into()
            } else {
                limit.to_string()
            },
            report::f(sum.p50 * 1e3, 1),
            report::f(sum.p95 * 1e3, 1),
            report::f(sum.max * 1e3, 1),
        ]);
    }
    report::table(&["limit", "p50_ms", "p95_ms", "max_ms"], &rows);
    println!("\nthe paper's (and BATCH's) unlimited-concurrency assumption is safe once");
    println!("the quota comfortably exceeds the batch arrival rate x service time.");
}
