//! Ablation — cold starts and concurrency limits (extensions over the
//! paper's model; DESIGN.md §2): how the unlimited-warm-concurrency
//! assumption shared by BATCH and DeepBAT degrades when containers expire
//! between batches (the fault layer's keep-alive pool) or batches queue
//! behind an account concurrency quota (its throttle channel).

use dbat_bench::{report, ExpSettings};
use dbat_sim::{
    simulate_faults, ColdStartFault, FaultPlan, LambdaConfig, SimParams, ThrottleFault,
};
use dbat_workload::{TraceKind, HOUR};

/// Container keep-alive windows swept by the first table, longest first.
const KEEP_ALIVE_S: [f64; 8] = [f64::INFINITY, 10.0, 1.0, 0.5, 0.2, 0.1, 0.05, 0.0];

fn main() {
    let s = ExpSettings::from_env();
    let _telemetry = s.init_telemetry("abl_coldstart");
    let trace = TraceKind::AzureLike.generate_for(s.seed_for(TraceKind::AzureLike), HOUR);
    let slice = trace.slice(10.0 * 60.0, 25.0 * 60.0);
    let arrivals = slice.timestamps();
    let cfg = LambdaConfig::new(2048, 8, 0.05);
    let params = SimParams::default();
    println!(
        "workload: 15-min azure-like slice, {} requests; config {cfg}",
        slice.len()
    );

    report::banner(
        "Ablation: cold starts",
        "p95/p99 vs container keep-alive (init delay 400 ms)",
    );
    let mut rows = Vec::new();
    for keep_alive_s in KEEP_ALIVE_S {
        // The cold-start channel on its own: a fresh container pays the
        // init delay (billed), a warm one is reused LIFO until it has sat
        // idle for longer than the keep-alive.
        let plan = FaultPlan {
            cold_start: Some(ColdStartFault {
                delay_s: 0.4,
                ref_memory_mb: cfg.memory_mb,
                keep_alive_s,
            }),
            ..FaultPlan::default()
        };
        let out = simulate_faults(arrivals, &cfg, &params, &plan);
        let sum = out.summary();
        let cold_frac = out.counts.cold_starts as f64 / out.sim.batches.len().max(1) as f64;
        rows.push(vec![
            if keep_alive_s.is_infinite() {
                "inf".into()
            } else {
                report::f(keep_alive_s, 2)
            },
            report::f(cold_frac * 100.0, 1),
            report::f(sum.p95 * 1e3, 1),
            report::f(sum.p99 * 1e3, 1),
            report::f(out.cost_per_request() * 1e6, 4),
        ]);
    }
    report::table(
        &[
            "keep_alive_s",
            "cold_batches_%",
            "p95_ms",
            "p99_ms",
            "cost_u$",
        ],
        &rows,
    );
    println!("\nwhile containers outlive the gap between batches (keep-alive >= 10 s here)");
    println!("cold starts are a start-up transient. Below that the tail pays first (p99 at");
    println!("1 s, p95 at 0.5 s) and, because init time is billed, cost per request grows");
    println!("with the cold share: 0.71 -> 5.60 u$ with no reuse. The optimizer's SLO margin");
    println!("cannot absorb a 400 ms init; keeping instances warm is the platform's job.");

    report::banner(
        "Ablation: concurrency quota",
        "p95 vs account concurrency limit",
    );
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
