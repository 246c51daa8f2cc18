//! The Fig. 2 request/control flow, end to end: every decision interval
//! the surrogate-driven DeepBAT controller picks `(M, B, T)` from the
//! arrivals observed so far, the ground-truth simulator serves the
//! interval under that choice, and the measurement is fed back before
//! the next decision — [`run_controller`], the offline closed loop. See
//! `examples/live_gateway.rs` for a controller hot-reconfiguring the
//! threaded gateway on a real (time-scaled) wall clock.
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
    let jsonl = std::path::Path::new("target/deepbat/telemetry/online_controller.jsonl");
    let tel = Telemetry::from_env(Some(jsonl));

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
    let report = train(
        &mut model,
        &data,
        &TrainConfig {
            epochs: 10,
            ..TrainConfig::default()
        },
    );
    report.publish(&tel);

    // DeepBAT as a closed-loop controller.
    let mut ctl = DeepBatController::new(grid, slo);
    ctl.optimizer.percentile = percentile;
    let mut ctl = ctl.with_model(Arc::new(model));

    // --- the closed loop over the controlled span ----------------------
    let opts = SimConfig::builder()
        .params(params)
        .slo(slo)
        .percentile(percentile)
        .decision_interval(decision_interval)
        .telemetry(tel.clone())
        .build()
        .expect("valid sim config");
    // Emits every committed record as a `controller.decision` event.
    let out = run_controller(&mut ctl, &trace, 120.0, 600.0, &opts);

    for rec in &out.records {
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

    let served: usize = out.measurements.iter().map(|m| m.requests).sum();
    let worst = out
        .measurements
        .iter()
        .max_by(|a, b| a.summary.p95.total_cmp(&b.summary.p95));
    println!("\n--- outcome -------------------------------------------------");
    println!(
        "served {served} requests at {:.4} u$/request",
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
    assert_eq!(
        served,
        trace.slice(120.0, 600.0).len(),
        "an arrival of the controlled span went unmeasured"
    );
    println!(
        "audit trail: {} decision records -> {}",
        out.records.len(),
        jsonl.display()
    );
    println!("\n{}", tel.summary_table());
}
