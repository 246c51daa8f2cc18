//! Ablation — cold starts and concurrency limits (extensions over the
//! paper's model; DESIGN.md §2): how the unlimited-warm-concurrency
//! assumption shared by BATCH and DeepBAT degrades when containers expire
//! between batches (the fault layer's keep-alive pool) or batches queue
//! behind an account concurrency quota (its throttle channel). Prints the
//! `abl_coldstart` entry of the reproduction ledger as two tables.

use dbat_bench::experiments::workload::abl_coldstart;
use dbat_bench::{report, ExpSettings};

fn main() {
    let s = ExpSettings::from_env();
    let _telemetry = s.init_telemetry("abl_coldstart");
    let a = abl_coldstart(&s);
    println!(
        "workload: 15-min azure-like slice, {} requests; config {}",
        a.requests, a.config
    );

    report::banner(
        "Ablation: cold starts",
        "p95/p99 vs container keep-alive (init delay 400 ms)",
    );
    let k = &a.keep_alive;
    let rows: Vec<Vec<String>> = (0..k.keep_alive_s.len())
        .map(|i| {
            vec![
                k.keep_alive_s[i].map_or("inf".into(), |v| report::f(v, 2)),
                report::f(k.cold_batches_pct[i], 1),
                report::f(k.p95_ms[i], 1),
                report::f(k.p99_ms[i], 1),
                report::f(k.cost_uusd[i], 4),
            ]
        })
        .collect();
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
    let q = &a.quota;
    let rows: Vec<Vec<String>> = (0..q.limit.len())
        .map(|i| {
            vec![
                q.limit[i].map_or("unlimited".into(), |l| l.to_string()),
                report::f(q.p50_ms[i], 1),
                report::f(q.p95_ms[i], 1),
                report::f(q.max_ms[i], 1),
            ]
        })
        .collect();
    report::table(&["limit", "p50_ms", "p95_ms", "max_ms"], &rows);
    println!("\nthe paper's (and BATCH's) unlimited-concurrency assumption is safe once");
    println!("the quota comfortably exceeds the batch arrival rate x service time.");
}
