//! The Fig. 2 request/control flow, end to end and online — now through
//! the serving gateway: requests stream into the gateway's batching
//! core, and every decision interval the surrogate-driven DeepBAT
//! controller hot-reconfigures `(M, B, T)` at the boundary (the open
//! window is sealed, never split). The run uses the deterministic
//! virtual clock ([`VirtualGateway`]), so the replay is exact and
//! instant; see `examples/live_gateway.rs` for the same loop on a real
//! (time-scaled) wall clock.
//!
//! With telemetry enabled the full decision-audit trail — one
//! `controller.decision` event per interval carrying a
//! [`DecisionRecord`] with predictions, measurements and wall-time
//! accounting — lands in
//! `target/deepbat/telemetry/online_controller.jsonl`.
//!
//! SLO, percentile, cadence and seeds come from the typed config
//! surface: pass `--config <path>` (TOML/JSON [`AppConfig`]) and/or
//! `--set section.key=value` overrides.
//!
//! ```sh
//! cargo run --release --example online_controller
//! cargo run --release --example online_controller -- \
//!     --set sim.slo=0.08 --set sim.decision_interval_s=20
//! ```

use deepbat::prelude::*;
use std::sync::Arc;

fn main() {
    let app = AppConfig::from_args(std::env::args().skip(1)).unwrap_or_else(|e| {
        eprintln!("config error: {e}");
        std::process::exit(2);
    });
    let slo = app.sim.slo;
    let seq_len = 64;
    let percentile = app.sim.percentile;
    let decision_interval = app.sim.decision_interval_s.min(60.0);
    let grid = ConfigGrid::paper_default();
    let params = SimParams::default();

    // Stream telemetry as JSONL next to the figure outputs.
    let tel = telemetry();
    let tel_dir = std::path::Path::new("target/deepbat/telemetry");
    std::fs::create_dir_all(tel_dir).expect("create telemetry dir");
    let jsonl = tel_dir.join("online_controller.jsonl");
    deepbat::telemetry::init_from_env(Some(&jsonl));

    // A workload that shifts intensity mid-stream (quiet -> burst).
    let quiet = Map::poisson(15.0);
    let bursty = Mmpp2::from_targets(80.0, 60.0, 10.0, 0.3).to_map().unwrap();
    let mut rng = Rng::new(app.sim.seed);
    let mut ts = quiet.simulate(&mut rng, 0.0, 300.0);
    ts.extend(bursty.simulate(&mut rng, 300.0, 300.0));
    let trace = Trace::new(ts, 600.0);
    println!("workload: {} requests, rate shift at t=300s", trace.len());

    // Train a small surrogate on the first 2 minutes (warm-up history).
    let warmup = trace.slice(0.0, 120.0);
    let data = generate_dataset(&warmup, &grid, &params, 300, seq_len, slo, 9);
    let mut model = Surrogate::new(
        SurrogateConfig {
            seq_len,
            ..SurrogateConfig::default()
        },
        5,
    );
    train(
        &mut model,
        &data,
        &TrainConfig {
            epochs: 10,
            ..TrainConfig::default()
        },
    );

    // DeepBAT as a closed-loop controller behind the gateway.
    let mut ctl = DeepBatController::new(grid, slo);
    ctl.optimizer.percentile = percentile;
    let mut ctl = ctl.with_model(Arc::new(model));

    // --- the online loop: gateway replay over the controlled span -----
    let opts = SimConfig::builder()
        .params(params)
        .slo(slo)
        .percentile(percentile)
        .decision_interval(decision_interval)
        .build()
        .expect("valid sim config");
    let mut gateway = VirtualGateway::from_params(&params);
    let out = gateway.replay_controlled(&mut ctl, &trace, 120.0, 600.0, &opts);

    // Emit the audit trail exactly like the offline driver does.
    for rec in &out.records {
        tel.emit(
            "controller.decision",
            deepbat::telemetry::serde_json::to_value(rec),
        );
        // log_mean is the mean log-interarrival: exp(-log_mean) ~ rate.
        let rate = rec.window_stats.map_or(0.0, |w| (-w.log_mean).exp());
        println!(
            "t={:>5.0}s  rate~{:>5.1}/s  ->  {}{}",
            rec.start,
            rate,
            rec.config,
            if rec.bootstrap {
                "  (bootstrap)"
            } else if rec.fallback {
                "  (fallback)"
            } else {
                ""
            }
        );
    }
    tel.emit("run.metrics", tel.metrics_json());
    tel.flush();

    let summary = out.summary();
    let worst = out
        .measurements
        .iter()
        .max_by(|a, b| a.summary.p95.total_cmp(&b.summary.p95));
    println!("\n--- outcome -------------------------------------------------");
    println!(
        "served {} requests in {} invocations (mean batch {:.2})",
        out.requests.len(),
        out.batches.len(),
        out.mean_batch_size()
    );
    println!(
        "latency p50 {:.1} ms, p95 {:.1} ms; cost {:.4} u$/request",
        summary.p50 * 1e3,
        summary.p95 * 1e3,
        out.cost_per_request() * 1e6
    );
    println!(
        "controlled intervals: {}, VCR {:.1}% (SLO p{:.0} <= {:.0} ms)",
        out.measurements.len(),
        out.vcr(),
        percentile,
        slo * 1e3
    );
    if let Some(m) = worst {
        println!(
            "worst interval p95: {:.1} ms at t={:.0}s",
            m.summary.p95 * 1e3,
            m.start
        );
    }
    assert!(
        out.counts.conserved(),
        "gateway lost or duplicated requests"
    );
    println!(
        "audit trail: {} decision records -> {}",
        out.records.len(),
        jsonl.display()
    );
    println!("\n{}", tel.summary_table());
}
