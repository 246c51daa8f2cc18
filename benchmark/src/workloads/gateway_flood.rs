//! `gateway_flood` — the data-plane throughput workload. `Gateway::start`
//! with a null backend (plan and execute cost nothing),
//! `BackpressurePolicy::Block`, a 65 536-deep queue, `(2048, 64, 5 ms)`,
//! lanes = workers = `nproc`. `nproc` pinned producers submit flat out,
//! two million requests a pass. It uses the same `serve` layer
//! differently from `gateway_paced`: lock contention and batch hand-off
//! instead of timer wake-ups, so a change that trades one for the other
//! shows.
//!
//! * work unit: one request completed (closed loop, `nproc` clients that
//!   block when the queue is full);
//! * operation: one `Gateway::submit_to` call, every 32nd one timed.

use super::{passes, report_timings, PassTiming};
use crate::run::Ctx;
use crate::spans::Recorder;
use dbat_serve::{
    Admission, BackpressurePolicy, BatchPlan, Clock, DrainMode, FormedBatch, Gateway,
    GatewayConfig, InferenceBackend, Request, ServeCounts, WallClock,
};
use dbat_sim::LambdaConfig;
use dbat_telemetry::Telemetry;
use std::sync::Arc;
use std::time::Instant;

const REQUESTS_PER_PASS: u64 = 2_000_000;
const WARMUP_REQUESTS: u64 = 1_000_000;
/// Every n-th submit is timed: timing all of them would measure the
/// clock reads.
const SAMPLE_EVERY: u64 = 32;
/// Every n-th submit gets a span in a traced run; two thousand spans a
/// pass show the distribution without a 30 MB dump.
const SPAN_EVERY: u64 = 1024;

/// A backend that costs nothing and returns at once: the workload
/// measures the gateway, not a model.
struct NullBackend;

impl InferenceBackend for NullBackend {
    fn name(&self) -> &'static str {
        "null"
    }

    fn plan(&self, _config: &LambdaConfig, _batch_size: u32) -> BatchPlan {
        BatchPlan {
            service_s: 0.0,
            cost: 0.0,
        }
    }

    fn execute(&self, _clock: &dyn Clock, _plan: &BatchPlan, _batch: &FormedBatch) {}
}

fn gateway(nproc: usize) -> Gateway {
    Gateway::start(
        GatewayConfig {
            initial: LambdaConfig::new(2048, 64, 0.005),
            queue_capacity: 1 << 16,
            backpressure: BackpressurePolicy::Block,
            lanes: nproc,
            workers: nproc,
            // Millions of requests: keep the counts, skip the records.
            record_outcome: false,
            telemetry: Arc::new(Telemetry::new()),
            ..GatewayConfig::default()
        },
        Arc::new(WallClock::new()),
        Arc::new(NullBackend),
    )
}

struct Flood {
    counts: ServeCounts,
    wall_s: f64,
    drain_s: f64,
    /// Sampled `submit_to` latencies, seconds.
    submit_s: Vec<f64>,
    refused: u64,
}

/// One gateway, `nproc` pinned producers, `total` requests, drained.
fn flood(nproc: usize, total: u64, pass: usize, rec: &mut Recorder) -> Flood {
    let gw = gateway(nproc);
    let per_producer = total / nproc as u64;
    let root = rec.enter("bench.pass", pass as u64);
    let started = Instant::now();
    let produced: Vec<(Vec<f64>, u64, Recorder)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..nproc)
            .map(|p| {
                let gw = &gw;
                let mut rec = rec.sibling();
                scope.spawn(move || {
                    let mut sampled =
                        Vec::with_capacity((per_producer / SAMPLE_EVERY) as usize + 1);
                    let mut refused = 0u64;
                    for i in 0..per_producer {
                        let admission = if i % SPAN_EVERY == 0 {
                            let op = ((pass as u64) << 40) | ((p as u64) << 32) | i;
                            rec.span("serve.submit_to", op, || {
                                gw.submit_to(p, Request::default())
                            })
                        } else if i % SAMPLE_EVERY == 0 {
                            let t0 = Instant::now();
                            let a = gw.submit_to(p, Request::default());
                            sampled.push(t0.elapsed().as_secs_f64());
                            a
                        } else {
                            gw.submit_to(p, Request::default())
                        };
                        refused += u64::from(!matches!(admission, Admission::Accepted { .. }));
                    }
                    (sampled, refused, rec)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("producer thread panicked"))
            .collect()
    });
    let t_drain = Instant::now();
    let out = rec.span("serve.shutdown", pass as u64, || {
        gw.shutdown(DrainMode::Graceful)
    });
    let wall_s = started.elapsed().as_secs_f64();
    rec.exit(root);
    let mut flood = Flood {
        counts: out.counts,
        wall_s,
        drain_s: t_drain.elapsed().as_secs_f64(),
        submit_s: Vec::new(),
        refused: 0,
    };
    for (mut sampled, refused, producer_rec) in produced {
        flood.submit_s.append(&mut sampled);
        flood.refused += refused;
        rec.absorb(producer_rec);
    }
    flood
}

pub fn run(ctx: &mut Ctx) {
    let nproc = ctx.nproc;
    println!("{nproc} producer(s), lanes = workers = {nproc}");
    // Set-up is the warm-up flood: threads spawned once, allocator and
    // lane queues grown to their working size.
    let warm = ctx.setup(|| flood(nproc, WARMUP_REQUESTS, 0, &mut Recorder::new(false)));
    ctx.check.gateway_conserved("warm-up", &warm.counts);

    let all = passes(ctx.budget(), |i| {
        flood(nproc, REQUESTS_PER_PASS, i, &mut ctx.rec)
    });
    for (i, f) in all.iter().enumerate() {
        ctx.check.gateway_conserved(&format!("pass {i}"), &f.counts);
        ctx.check.ops(
            f.counts.submitted,
            f.refused + (f.counts.accepted - f.counts.completed),
        );
    }
    let last = all.last().expect("at least one pass");
    ctx.set("serve.steals", last.counts.steals as f64);
    ctx.set("serve.rejected", last.counts.rejected as f64);
    ctx.set("serve.drain_ms", last.drain_s * 1e3);
    let timings = all
        .into_iter()
        .map(|f| PassTiming {
            work_per_s: f.counts.completed as f64 / f.wall_s,
            op_s: f.submit_s,
        })
        .collect();
    let pooled = report_timings(ctx, "submit_to (sampled)", timings);
    ctx.set("serve.submit_p50_ns", pooled.p50 * 1e3);
    ctx.set("serve.submit_p99_ns", pooled.p99 * 1e3);
}
