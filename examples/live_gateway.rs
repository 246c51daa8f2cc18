//! Live-serving quickstart: the threaded gateway on a real (time-scaled)
//! wall clock, fed by the open-loop load generator, hot-reconfigured by
//! a scripted controller at every decision boundary.
//!
//! Configuration comes from the one typed surface: `--config <path>`
//! loads an [`AppConfig`] TOML/JSON file, and `--set section.key=value`
//! flags override individual fields. That is the only way to configure
//! the run (telemetry keeps its own `DEEPBAT_*` switches).
//!
//! ```sh
//! cargo run --release --example live_gateway
//! cargo run --release --example live_gateway -- \
//!     --set gateway.horizon_s=300 --set gateway.speedup=128
//! # a config file, with one field overridden at the command line:
//! cargo run --release --example live_gateway -- \
//!     --config exp.toml --set gateway.workers=8
//! # expose live metrics and keep serving them after the drain:
//! cargo run --release --example live_gateway -- \
//!     --set 'gateway.metrics_addr="127.0.0.1:9184"' \
//!     --set gateway.linger_s=20 &
//! curl -s http://127.0.0.1:9184/metrics | grep serve_completed_total
//! ```
//!
//! With `gateway.metrics_addr` set the pull-based exporter serves
//! Prometheus text at `/metrics` and JSON at `/snapshot`;
//! `gateway.linger_s` keeps the process alive that many seconds after
//! the drain so a scraper can still read the final counters. The flight
//! recorder keeps the most recent trace events and dumps them to the
//! telemetry sinks when the drain completes.

use deepbat::prelude::*;
use std::sync::Arc;

fn main() {
    let app = AppConfig::from_args(std::env::args().skip(1)).unwrap_or_else(|e| {
        eprintln!("config error: {e}");
        std::process::exit(2);
    });
    let horizon = app.gateway.horizon_s;
    let speedup = app.gateway.speedup;
    let decision_interval = app.sim.decision_interval_s.min(horizon);
    // The run's hub: enabled unless `DEEPBAT_TELEMETRY=0|off|false|no`.
    let tel = Telemetry::from_env(None);

    // Pull-based metrics endpoint (opt-in): Prometheus text at /metrics,
    // JSON at /snapshot, served from a plain std TcpListener thread.
    let exporter = app.gateway.metrics_addr.as_deref().map(|addr| {
        match MetricsExporter::start(tel.clone(), addr) {
            Ok(e) => {
                println!("metrics exporter listening on http://{}/metrics", e.addr());
                e
            }
            Err(err) => panic!("failed to bind metrics exporter on {addr}: {err}"),
        }
    });

    // Flight recorder: keep the most recent trace events in a bounded
    // ring; they are dumped to the sinks when the drain completes.
    tel.tracer().enable_flight(4096);

    let kind = TraceKind::parse(&app.sim.workload).unwrap_or_else(|| {
        eprintln!("config error: unknown sim.workload `{}`", app.sim.workload);
        std::process::exit(2);
    });
    let trace = kind.generate_for(app.sim.seed, horizon);
    println!(
        "{} trace: {} requests over {horizon:.0}s, replayed at {speedup:.0}x",
        kind.name(),
        trace.len()
    );

    // A predetermined reconfiguration script: alternate a batching-heavy
    // and a latency-lean configuration at every decision boundary, so the
    // run exercises hot reconfiguration without needing a trained model.
    // Swap in `DeepBatController` (see examples/online_controller.rs)
    // for the full closed loop.
    let script: Vec<LambdaConfig> = (0..(horizon / decision_interval).ceil() as usize + 1)
        .map(|i| {
            if i % 2 == 0 {
                LambdaConfig::new(2048, 8, 0.05)
            } else {
                LambdaConfig::new(1536, 4, 0.025)
            }
        })
        .collect();
    let ctl = ScriptedController::new(script, app.sim.slo);

    let workers = app.gateway.workers as usize;
    let cfg = GatewayConfig {
        // The config surface's 0 means "unbounded"; the gateway wants a
        // positive bound, so unbounded maps to the largest one.
        queue_capacity: if app.gateway.queue_capacity == 0 {
            usize::MAX
        } else {
            app.gateway.queue_capacity as usize
        },
        workers,
        backpressure: if app.gateway.backpressure {
            BackpressurePolicy::Reject { retry_after_s: 0.1 }
        } else {
            BackpressurePolicy::Block
        },
        decision_interval,
        slo: app.sim.slo,
        percentile: app.sim.percentile,
        telemetry: tel.clone(),
        ..GatewayConfig::default()
    };
    let gateway = Gateway::start_controlled(
        cfg,
        Arc::new(WallClock::with_speedup(speedup)),
        Arc::new(ProfiledBackend::default()),
        Box::new(ctl),
    );

    let t_run = std::time::Instant::now();
    let stats = deepbat::serve::drive(&gateway, trace.timestamps());
    let out = gateway.shutdown(DrainMode::Graceful);
    let wall = t_run.elapsed().as_secs_f64();

    let summary = out.summary();
    println!("\n--- outcome -------------------------------------------------");
    println!(
        "submitted {} | accepted {} | rejected {} | completed {}",
        stats.submitted, out.counts.accepted, out.counts.rejected, out.counts.completed
    );
    println!(
        "{} invocations (mean batch {:.2}), {} reconfigurations",
        out.batches.len(),
        out.mean_batch_size(),
        out.records.len().saturating_sub(1)
    );
    println!(
        "measured latency p50 {:.1} ms, p95 {:.1} ms; cost {:.4} u$/request",
        summary.p50 * 1e3,
        summary.p95 * 1e3,
        out.cost_per_request() * 1e6
    );
    println!(
        "{} measured intervals, VCR {:.1}%; {wall:.2}s wall for {horizon:.0}s of trace",
        out.measurements.len(),
        out.vcr()
    );

    // The gateway's conservation law, enforced: accepted == completed
    // after a graceful drain, and nothing vanished in between.
    assert!(
        out.counts.conserved(),
        "conservation violated: {:?}",
        out.counts
    );
    assert_eq!(
        out.counts.completed, out.counts.accepted,
        "graceful drain left requests unserved"
    );
    assert_eq!(out.counts.submitted, stats.submitted);
    println!("conservation: accepted == completed, no lost requests ✓");
    println!("\n{}", tel.summary_table());

    // Keep serving /metrics for scrapers after the drain, if asked.
    let linger = app.gateway.linger_s;
    if exporter.is_some() && linger > 0.0 {
        println!("lingering {linger:.0}s for metric scrapes...");
        std::thread::sleep(std::time::Duration::from_secs_f64(linger));
    }
    drop(exporter);
}
