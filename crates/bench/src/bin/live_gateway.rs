//! Live-gateway fidelity bench: **measured vs simulated vs predicted**.
//!
//! For a handful of fixed `(M, B, T)` configurations, replay the same
//! azure-like trace three ways and line up the latency percentiles and
//! cost per request:
//!
//! * **measured** — the threaded `dbat-serve` gateway on a time-scaled
//!   wall clock (real threads, real sleeps, real admission/batching).
//! * **simulated** — `simulate_batching`, the ground-truth oracle the
//!   gateway's virtual-clock replay matches bitwise.
//! * **predicted** — the trained Transformer surrogate evaluated on the
//!   arrival window preceding the serving span.
//!
//! The measured-vs-simulated gap isolates threading/scheduling jitter
//! (it shrinks as `gateway.speedup` decreases); the
//! predicted-vs-simulated gap is the surrogate's model error.
//!
//! The served span and the time scale come from the typed config surface
//! (`[gateway] horizon_s` / `speedup`, defaults 120 s at 60x), set with
//! `--config <path>` or `--set`; nothing else is read from the environment
//! beyond the shared `DEEPBAT_FAST` experiment switch.
//!
//! ```sh
//! cargo run --release --bin live_gateway                 # full
//! DEEPBAT_FAST=1 cargo run --release --bin live_gateway  # smoke model
//! cargo run --release --bin live_gateway -- \
//!     --set gateway.horizon_s=600 --set gateway.speedup=32
//! ```

use dbat_bench::report::{banner, f, table};
use dbat_bench::ExpSettings;
use dbat_core::DeepBatOptimizer;
use dbat_serve::{DrainMode, Gateway, GatewayConfig, ProfiledBackend, WallClock};
use dbat_sim::{simulate_batching, ConfigGrid, LambdaConfig, LatencySummary};
use dbat_workload::{window_at_time, AppConfig, TraceKind};
use std::sync::Arc;

fn row(source: &str, s: &LatencySummary, cost_micro: f64) -> Vec<String> {
    vec![
        source.to_string(),
        f(s.p50 * 1e3, 1),
        f(s.p90 * 1e3, 1),
        f(s.p95 * 1e3, 1),
        f(s.p99 * 1e3, 1),
        f(cost_micro, 4),
    ]
}

fn main() {
    let s = ExpSettings::from_env();
    let app = AppConfig::from_args(std::env::args().skip(1)).unwrap_or_else(|e| {
        eprintln!("config error: {e}");
        std::process::exit(2);
    });
    let _tel = s.init_telemetry("live_gateway");
    let horizon = app.gateway.horizon_s;
    let speedup = app.gateway.speedup;

    banner(
        "live_gateway",
        "gateway fidelity: measured vs simulated vs predicted",
    );
    let trace = TraceKind::AzureLike.generate_for(s.seed_for(TraceKind::AzureLike), horizon);
    println!(
        "azure-like trace: {} requests over {horizon:.0}s, gateway at {speedup:.0}x wall scale",
        trace.len()
    );

    // The surrogate sees the window of inter-arrivals preceding the span
    // it predicts for — here the whole trace, so the window ends at t=0
    // ... which has no history. Use the window ending mid-trace instead:
    // the trace is stationary enough for a fidelity table.
    let model = s.ensure_base_model();
    let window = window_at_time(&trace, horizon / 2.0, s.seq_len, 1.0);
    if window.is_none() {
        println!("(not enough arrivals for a surrogate window; predicted rows omitted)");
    }

    let configs = [
        LambdaConfig::new(2048, 8, 0.05),
        LambdaConfig::new(1536, 4, 0.025),
        LambdaConfig::new(3008, 16, 0.1),
    ];
    let headers = [
        "source",
        "p50_ms",
        "p90_ms",
        "p95_ms",
        "p99_ms",
        "cost_u$_per_req",
    ];

    for cfg in configs {
        // --- measured: the real threaded gateway, wall clock ----------
        let gw = Gateway::start(
            GatewayConfig {
                initial: cfg,
                queue_capacity: trace.len().max(1024),
                workers: 8,
                ..GatewayConfig::default()
            },
            Arc::new(WallClock::with_speedup(speedup)),
            Arc::new(ProfiledBackend::from_params(&s.params)),
        );
        let t_run = std::time::Instant::now();
        let stats = dbat_serve::drive(&gw, trace.timestamps());
        let out = gw.shutdown(DrainMode::Graceful);
        let wall = t_run.elapsed().as_secs_f64();
        assert!(
            out.counts.conserved(),
            "gateway lost requests: {:?}",
            out.counts
        );
        assert_eq!(out.counts.completed, stats.accepted, "drain was not clean");

        // --- simulated: the ground-truth oracle on the same arrivals --
        let sim = simulate_batching(trace.timestamps(), &cfg, &s.params, None);

        // --- predicted: the surrogate on the preceding window ---------
        let mut rows = vec![
            row("measured", &out.summary(), out.cost_per_request() * 1e6),
            row("simulated", &sim.summary(), sim.cost_per_request() * 1e6),
        ];
        if let Some(w) = &window {
            let grid = ConfigGrid {
                memories_mb: vec![cfg.memory_mb],
                batch_sizes: vec![cfg.batch_size],
                timeouts_s: vec![cfg.timeout_s],
            };
            let opt = DeepBatOptimizer::new(grid, s.slo);
            let p = &opt.predict_all(&model, &w.interarrivals)[0];
            rows.push(vec![
                "predicted".to_string(),
                f(p.percentiles[0] * 1e3, 1),
                f(p.percentiles[1] * 1e3, 1),
                f(p.percentiles[2] * 1e3, 1),
                f(p.percentiles[3] * 1e3, 1),
                f(p.cost_micro, 4),
            ]);
        }

        println!(
            "\n{cfg}: {} invocations (mean batch {:.2}), {:.2}s wall for {horizon:.0}s of trace",
            out.batches.len(),
            out.mean_batch_size(),
            wall
        );
        table(&headers, &rows);
    }
}
