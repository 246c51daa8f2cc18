//! Gateway integration tests: the simulator as the gateway's oracle.
//!
//! The virtual-clock replay must reproduce `simulate_batching` *bitwise*
//! — identical per-request dispatch/completion floats and identical
//! per-invocation costs. The threaded tests check the live invariants:
//! exactly-once delivery under concurrent submitters and drain, and
//! reconfigurations never splitting a formed batch.
//!
//! The observability tests ride on scoped (injected) telemetry hubs:
//! request tracing must not perturb the bitwise replay, virtual-clock
//! trace streams must be deterministic, the `serve.*` counters must
//! reconcile exactly with the outcome's accounting, and the `/metrics`
//! endpoint must serve Prometheus text that agrees with both.

use deepbat::prelude::*;
use deepbat::serve::{BatcherCore, FlushReason};
use std::sync::Arc;

fn azure_trace(horizon: f64) -> Trace {
    TraceKind::AzureLike.generate_for(11, horizon)
}

/// Fixed-configuration replay is bitwise-equal to the simulator on an
/// azure-like trace, for multiple (M, B, T) configurations.
#[test]
fn replay_is_bitwise_equivalent_to_simulator() {
    let params = SimParams::default();
    let trace = azure_trace(60.0);
    assert!(trace.len() > 500, "trace too small to be interesting");
    for cfg in [
        LambdaConfig::new(2048, 4, 0.05),
        LambdaConfig::new(1024, 8, 0.025),
        LambdaConfig::new(3008, 16, 0.1),
    ] {
        let sim = simulate_batching(trace.timestamps(), &cfg, &params, None);
        let mut gw = VirtualGateway::from_params(&params);
        let out = gw.replay(trace.timestamps(), &cfg);

        assert_eq!(out.requests.len(), sim.requests.len());
        for (r, s) in out.requests.iter().zip(&sim.requests) {
            assert_eq!(r.arrival.to_bits(), s.arrival.to_bits());
            assert_eq!(r.dispatched_at.to_bits(), s.dispatch.to_bits());
            assert_eq!(r.completed_at.to_bits(), s.completion.to_bits());
            assert_eq!(r.latency().to_bits(), s.latency().to_bits());
            assert_eq!(r.batch, s.batch);
        }
        assert_eq!(out.batches.len(), sim.batches.len());
        for (b, s) in out.batches.iter().zip(&sim.batches) {
            assert_eq!(b.opened_at.to_bits(), s.opened_at.to_bits());
            assert_eq!(b.dispatched_at.to_bits(), s.dispatched_at.to_bits());
            assert_eq!(b.service_s.to_bits(), s.service_s.to_bits());
            assert_eq!(b.cost.to_bits(), s.cost.to_bits());
            assert_eq!(b.size, s.size);
        }
        // Costs fold in the same dispatch order: totals are bitwise too.
        assert_eq!(out.total_cost.to_bits(), sim.total_cost.to_bits());
        assert_eq!(
            out.summary().p95.to_bits(),
            sim.summary().p95.to_bits(),
            "summary percentiles must agree bitwise"
        );
    }
}

/// The batching core itself: rotating the configuration mid-window seals
/// the formed batch — same members, same config, same deadline — instead
/// of splitting or dropping it.
#[test]
fn reconfiguration_never_splits_or_drops_a_formed_batch() {
    let cfg_a = LambdaConfig::new(2048, 4, 0.10);
    let cfg_b = LambdaConfig::new(1024, 2, 0.01);
    let mut core = BatcherCore::new(cfg_a);
    let mut out = Vec::new();
    core.on_arrival(
        deepbat::serve::Admitted {
            id: 0,
            arrival: 1.00,
            class: 0,
        },
        &mut out,
    );
    core.on_arrival(
        deepbat::serve::Admitted {
            id: 1,
            arrival: 1.02,
            class: 0,
        },
        &mut out,
    );
    core.rotate(cfg_b);
    core.due(2.0, &mut out);
    assert_eq!(out.len(), 1);
    assert_eq!(out[0].requests.len(), 2, "batch must not be split");
    assert_eq!(out[0].config, cfg_a, "sealed batch keeps its config epoch");
    assert_eq!(
        out[0].dispatched_at, 1.10,
        "sealed batch keeps its deadline"
    );
    assert_eq!(out[0].reason, FlushReason::Timeout);
    assert!(core.is_idle(), "nothing dropped");
}

/// Live threaded gateway with concurrent submitters and a backlog still
/// in flight when the graceful shutdown starts: every accepted request
/// is delivered exactly once, none lost, none duplicated.
#[test]
fn drain_during_shutdown_delivers_every_accepted_request_exactly_once() {
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

    let cfg = GatewayConfig {
        initial: LambdaConfig::new(2048, 4, 0.01),
        queue_capacity: 4096,
        workers: 4,
        decision_interval: 1.0,
        ..GatewayConfig::default()
    };
    let gateway = Gateway::start(
        cfg,
        Arc::new(WallClock::with_speedup(100.0)),
        Arc::new(ProfiledBackend::default()),
    );

    let stop = AtomicBool::new(false);
    let submitted = AtomicU64::new(0);
    let accepted = AtomicU64::new(0);
    std::thread::scope(|scope| {
        for _ in 0..4 {
            scope.spawn(|| {
                // Unpaced bursts so a backlog exists when shutdown starts.
                while !stop.load(Ordering::Relaxed) {
                    submitted.fetch_add(1, Ordering::Relaxed);
                    match gateway.submit(deepbat::serve::Request::default()) {
                        Admission::Accepted { .. } => {
                            accepted.fetch_add(1, Ordering::Relaxed);
                        }
                        Admission::Rejected { .. } => {
                            std::thread::sleep(std::time::Duration::from_micros(200));
                        }
                        Admission::Closed => break,
                    }
                }
            });
        }
        std::thread::sleep(std::time::Duration::from_millis(25));
        stop.store(true, Ordering::Relaxed);
    });
    // Submitters are done; the gateway still holds queued + in-flight
    // work. Graceful drain must serve all of it.
    let out = gateway.shutdown(DrainMode::Graceful);

    let accepted = accepted.load(Ordering::Relaxed);
    assert!(accepted > 0, "race produced no accepted requests");
    assert_eq!(out.counts.submitted, submitted.load(Ordering::Relaxed));
    assert_eq!(out.counts.accepted, accepted);
    assert_eq!(out.counts.completed, accepted, "drain must serve everyone");
    assert!(out.counts.conserved());
    // Exactly once: ids dense and strictly increasing, one record each.
    assert_eq!(out.requests.len(), accepted as usize);
    for (i, r) in out.requests.iter().enumerate() {
        assert_eq!(r.id, i as u64);
        assert!(r.completed_at >= r.dispatched_at && r.dispatched_at >= r.arrival);
    }
    let batch_sizes: u64 = out.batches.iter().map(|b| b.size as u64).sum();
    assert_eq!(batch_sizes, accepted, "batches partition the request set");
}

/// Live hot reconfiguration on a wall clock: the controller swaps configs
/// repeatedly while traffic flows, no batch is ever split or dropped, and
/// every formed batch carries exactly one of the scripted configurations.
/// (Exact epoch alignment is nondeterministic on a wall clock — the
/// control thread wakes *after* the boundary passes — so per-epoch
/// batching is asserted on the core itself, by `proptest_window`'s
/// `rotation_never_splits_or_drops_a_window`; here we assert the
/// structural invariants that must hold regardless of jitter.)
#[test]
fn live_reconfiguration_never_splits_or_loses_work() {
    let interval = 0.5;
    let cfg_a = LambdaConfig::new(2048, 16, 0.2);
    let cfg_b = LambdaConfig::new(1024, 4, 0.05);
    let script: Vec<LambdaConfig> = (0..12)
        .map(|i| if i % 2 == 0 { cfg_a } else { cfg_b })
        .collect();
    let cfg = GatewayConfig {
        queue_capacity: 4096,
        workers: 4,
        decision_interval: interval,
        ..GatewayConfig::default()
    };
    let gateway = Gateway::start_controlled(
        cfg,
        Arc::new(WallClock::with_speedup(20.0)),
        Arc::new(ProfiledBackend::default()),
        Box::new(ScriptedController::new(script, 0.1)),
    );
    // ~4 virtual seconds of steady traffic = ~8 decision boundaries.
    let ts: Vec<f64> = (0..160).map(|i| i as f64 * 0.025).collect();
    let stats = deepbat::serve::drive(&gateway, &ts);
    let out = gateway.shutdown(DrainMode::Graceful);

    assert_eq!(stats.accepted, out.counts.accepted);
    assert_eq!(out.counts.completed, out.counts.accepted);
    assert!(out.counts.conserved());
    assert!(out.records.len() >= 6, "expected several decisions");

    let configs: std::collections::HashSet<_> =
        out.batches.iter().map(|b| b.config.to_string()).collect();
    for b in &out.batches {
        assert!(b.size > 0, "empty batch dispatched");
        assert!(
            b.config == cfg_a || b.config == cfg_b,
            "batch carries a config never scripted: {}",
            b.config
        );
        assert!(b.dispatched_at >= b.opened_at);
    }
    assert!(
        configs.len() == 2,
        "reconfigurations never took effect: only {configs:?} observed"
    );
    // The request -> batch mapping is a partition: nothing split, nothing
    // double-counted, nothing dropped.
    let sizes: u64 = out.batches.iter().map(|b| b.size as u64).sum();
    assert_eq!(sizes, out.counts.completed);
}

/// The hard observability invariant: switching request tracing ON (both
/// the capture buffer and the flight ring) must not perturb the virtual
/// replay by a single bit — tracing only *reads* the already-settled
/// stamps, it performs no arithmetic of its own.
#[test]
fn tracing_enabled_replay_stays_bitwise_equivalent_to_simulator() {
    let params = SimParams::default();
    let trace = azure_trace(60.0);
    for cfg in [
        LambdaConfig::new(2048, 4, 0.05),
        LambdaConfig::new(1024, 8, 0.025),
    ] {
        let sim = simulate_batching(trace.timestamps(), &cfg, &params, None);

        let hub = Arc::new(Telemetry::new());
        hub.tracer().enable_capture();
        hub.tracer().enable_flight(512);
        let mut gw = VirtualGateway::from_params(&params).with_telemetry(hub.clone());
        let out = gw.replay(trace.timestamps(), &cfg);

        assert_eq!(out.requests.len(), sim.requests.len());
        for (r, s) in out.requests.iter().zip(&sim.requests) {
            assert_eq!(r.arrival.to_bits(), s.arrival.to_bits());
            assert_eq!(r.dispatched_at.to_bits(), s.dispatch.to_bits());
            assert_eq!(r.completed_at.to_bits(), s.completion.to_bits());
        }
        assert_eq!(out.batches.len(), sim.batches.len());
        for (b, s) in out.batches.iter().zip(&sim.batches) {
            assert_eq!(b.dispatched_at.to_bits(), s.dispatched_at.to_bits());
            assert_eq!(b.cost.to_bits(), s.cost.to_bits());
        }
        assert_eq!(out.total_cost.to_bits(), sim.total_cost.to_bits());

        // The trace stream itself is complete and causally faithful:
        // Admit/Enqueue/WindowJoin/Dispatch/Complete per request plus one
        // batch-level Flush per invocation, and every Complete timestamp
        // is the simulator's completion float, bit for bit.
        let events = hub.tracer().drain();
        assert_eq!(events.len(), 5 * sim.requests.len() + sim.batches.len());
        let mut completes: Vec<&TraceEvent> = events
            .iter()
            .filter(|e| e.stage == TraceStage::Complete)
            .collect();
        completes.sort_by_key(|e| e.trace);
        assert_eq!(completes.len(), sim.requests.len());
        for (e, s) in completes.iter().zip(&sim.requests) {
            assert_eq!(e.t.to_bits(), s.completion.to_bits());
        }
    }
}

/// Under the virtual clock the trace stream is fully deterministic: two
/// runs of the same replay produce event-for-event identical drains (same
/// stages, same spans, same float timestamps bit-for-bit) — which is what
/// makes dumped trace JSONL diffable across runs.
#[test]
fn virtual_clock_trace_stream_is_deterministic_across_runs() {
    let params = SimParams::default();
    let trace = azure_trace(90.0);
    let run = || {
        let hub = Arc::new(Telemetry::new());
        hub.tracer().enable_capture();
        let mut gw = VirtualGateway::from_params(&params).with_telemetry(hub.clone());
        gw.replay(trace.timestamps(), &LambdaConfig::new(2048, 8, 0.05));
        hub.tracer().drain()
    };
    let a = run();
    let b = run();
    assert!(!a.is_empty(), "expected a nonempty trace stream");
    assert_eq!(a, b, "virtual-clock trace streams must be identical");
    // The drain is causally ordered.
    for w in a.windows(2) {
        assert!(w[0].sort_key() <= w[1].sort_key());
    }
}

/// Wall-clock smoke test for the live gateway: a >=5k-request azure-like
/// trace replayed at high time-scale through the threaded gateway with a
/// scripted hot-reconfiguration schedule, ending in a graceful drain.
/// The gateway records into a scoped (injected) telemetry hub, so the
/// `serve.*` counters reconcile exactly against the outcome's own
/// accounting without needing a dedicated process.
#[test]
fn wall_clock_smoke_serves_5k_requests_and_reconciles_telemetry() {
    let horizon = 300.0;
    let speedup = 128.0;
    let decision_interval = 30.0;

    let hub = Arc::new(Telemetry::new());
    hub.enable();
    let trace = TraceKind::AzureLike.generate_for(7, horizon);
    assert!(
        trace.len() >= 5_000,
        "smoke trace too small: {} requests",
        trace.len()
    );

    let script: Vec<LambdaConfig> = (0..(horizon / decision_interval).ceil() as usize + 1)
        .map(|i| {
            if i % 2 == 0 {
                LambdaConfig::new(2048, 8, 0.05)
            } else {
                LambdaConfig::new(1536, 4, 0.025)
            }
        })
        .collect();

    let cfg = GatewayConfig {
        queue_capacity: 8192,
        workers: 8,
        decision_interval,
        slo: 0.1,
        percentile: 95.0,
        telemetry: hub.clone(),
        ..GatewayConfig::default()
    };
    let gateway = Gateway::start_controlled(
        cfg,
        Arc::new(WallClock::with_speedup(speedup)),
        Arc::new(ProfiledBackend::default()),
        Box::new(ScriptedController::new(script, 0.1)),
    );

    let stats = deepbat::serve::drive(&gateway, trace.timestamps());
    let out = gateway.shutdown(DrainMode::Graceful);

    // Zero lost requests, clean drain.
    assert_eq!(stats.submitted, trace.len() as u64);
    assert!(
        out.counts.conserved(),
        "conservation violated: {:?}",
        out.counts
    );
    assert_eq!(out.counts.submitted, stats.submitted);
    assert_eq!(
        out.counts.completed, out.counts.accepted,
        "graceful drain left requests unserved"
    );
    assert_eq!(out.requests.len(), out.counts.completed as usize);
    for (i, r) in out.requests.iter().enumerate() {
        assert_eq!(r.id, i as u64, "request ids must be dense, exactly once");
    }
    let batch_sizes: u64 = out.batches.iter().map(|b| b.size as u64).sum();
    assert_eq!(batch_sizes, out.counts.completed);

    // Hot reconfiguration happened while traffic flowed.
    assert!(
        out.records.len() >= 2,
        "expected reconfiguration decisions, got {}",
        out.records.len()
    );
    assert!(!out.measurements.is_empty());

    // The serve.* telemetry stream reconciles against the outcome.
    let c = |name: &str| hub.counter(name).get();
    assert_eq!(c("serve.submitted"), out.counts.submitted);
    assert_eq!(c("serve.accepted"), out.counts.accepted);
    assert_eq!(c("serve.rejected"), out.counts.rejected);
    assert_eq!(c("serve.completed"), out.counts.completed);
    assert_eq!(
        c("serve.flush.capacity") + c("serve.flush.timeout") + c("serve.flush.drain"),
        out.batches.len() as u64,
        "flush-reason counters must partition the invocation count"
    );
    assert_eq!(c("serve.reconfig"), out.records.len() as u64 - 1);
    assert_eq!(
        hub.histogram("serve.batch_size").count(),
        out.batches.len() as u64
    );
    assert_eq!(hub.histogram("serve.latency").count(), out.counts.completed);
}

/// The pull-based exporter over a real TCP socket: scrape `/metrics`
/// after a live run and check the Prometheus text reconciles with the
/// gateway outcome (counter families present, `serve_completed_total`
/// exactly the completed count).
#[test]
fn metrics_endpoint_reconciles_with_gateway_outcome() {
    use std::io::{Read as _, Write as _};

    let hub = Arc::new(Telemetry::new());
    hub.enable();
    let cfg = GatewayConfig {
        initial: LambdaConfig::new(2048, 4, 0.02),
        queue_capacity: 4096,
        workers: 4,
        telemetry: hub.clone(),
        ..GatewayConfig::default()
    };
    let gateway = Gateway::start(
        cfg,
        Arc::new(WallClock::with_speedup(100.0)),
        Arc::new(ProfiledBackend::default()),
    );
    let ts: Vec<f64> = (0..400).map(|i| i as f64 * 0.01).collect();
    deepbat::serve::drive(&gateway, &ts);
    let out = gateway.shutdown(DrainMode::Graceful);
    assert!(out.counts.completed > 0);

    let exporter = MetricsExporter::start(hub.clone(), "127.0.0.1:0").unwrap();
    let mut stream = std::net::TcpStream::connect(exporter.addr()).unwrap();
    write!(stream, "GET /metrics HTTP/1.1\r\nHost: test\r\n\r\n").unwrap();
    let mut response = String::new();
    stream.read_to_string(&mut response).unwrap();
    exporter.shutdown();

    assert!(response.starts_with("HTTP/1.1 200 OK"));
    assert!(response.contains("text/plain; version=0.0.4"));
    assert!(response.contains("# TYPE serve_completed_total counter"));
    let line = response
        .lines()
        .find(|l| l.starts_with("serve_completed_total "))
        .expect("serve_completed_total sample missing");
    let v: f64 = line.split_whitespace().nth(1).unwrap().parse().unwrap();
    assert_eq!(v as u64, out.counts.completed);
    // The latency summary carries the streaming p95/p99 quantile gauges.
    assert!(response.contains("serve_latency{quantile=\"0.95\"}"));
    assert!(response.contains("serve_latency{quantile=\"0.99\"}"));
}

/// One targeted wake per formed batch: a paced `B = 1` run over a pool of
/// 32 (mostly idle) workers wakes a worker about once per batch, where a
/// broadcast hand-off wakes all 32 for every batch. Conservation
/// and per-lane order (id order == admission order == dispatch order) are
/// checked on the same run, with the `serve.worker.wakeups` counter
/// reconciled against the outcome.
#[test]
fn paced_b1_run_wakes_about_one_worker_per_batch() {
    let workers = 32usize;
    let hub = Arc::new(Telemetry::new());
    hub.enable();
    let cfg = GatewayConfig {
        initial: LambdaConfig::new(3008, 1, 0.0),
        queue_capacity: 4096,
        workers,
        telemetry: hub.clone(),
        ..GatewayConfig::default()
    };
    let gateway = Gateway::start(
        cfg,
        Arc::new(WallClock::with_speedup(10.0)),
        Arc::new(ProfiledBackend::default()),
    );
    // 100/s virtual = one request per real millisecond; s(3008, 1) is
    // 2.5 ms real, so two or three invocations overlap and the rest of
    // the pool stays parked.
    let clock = gateway.clock();
    let n = 300u64;
    for i in 0..n {
        clock.sleep_until(0.05 + i as f64 * 0.01);
        // A single generator: ids come back in admission order.
        assert_eq!(
            gateway.submit(deepbat::serve::Request::default()),
            Admission::Accepted { id: i }
        );
    }
    let out = gateway.shutdown(DrainMode::Graceful);

    assert!(out.counts.conserved(), "{:?}", out.counts);
    assert_eq!(out.counts.accepted, n);
    assert_eq!(out.counts.completed, n);
    assert_eq!(out.batches.len() as u64, n, "B = 1: one batch per request");
    for (i, w) in out.requests.windows(2).enumerate() {
        assert_eq!(w[0].id, i as u64);
        assert!(w[1].arrival >= w[0].arrival, "admission order broke at {i}");
        assert!(
            w[1].dispatched_at >= w[0].dispatched_at,
            "dispatch order broke at {i}"
        );
    }

    let bound = out.batches.len() as u64 + workers as u64;
    assert!(
        out.worker_wakeups <= bound,
        "{} worker wake-ups for {} batches over {workers} workers: the hand-off is a herd",
        out.worker_wakeups,
        out.batches.len()
    );
    assert_eq!(
        hub.counter("serve.worker.wakeups").get(),
        out.worker_wakeups
    );
}

/// One `submit_to` call of the wake-up stress.
struct StressCall {
    /// Start and end of the call, nanoseconds since the leg's epoch.
    t0: u64,
    t1: u64,
    lane: usize,
    /// The id it was admitted under, `None` when refused or closed.
    id: Option<u64>,
}

/// A profiled backend that stamps the end of every execution, so the
/// stress can tell when queue space was about to be freed.
struct StampingBackend {
    inner: ProfiledBackend,
    epoch: std::time::Instant,
    completions_ns: std::sync::Mutex<Vec<u64>>,
}

impl InferenceBackend for StampingBackend {
    fn name(&self) -> &'static str {
        "stamping"
    }
    fn plan(&self, config: &LambdaConfig, batch_size: u32) -> deepbat::serve::BatchPlan {
        self.inner.plan(config, batch_size)
    }
    fn execute(
        &self,
        clock: &dyn Clock,
        plan: &deepbat::serve::BatchPlan,
        batch: &deepbat::serve::FormedBatch,
    ) {
        self.inner.execute(clock, plan, batch);
        let at = self.epoch.elapsed().as_nanos() as u64;
        self.completions_ns.lock().unwrap().push(at);
    }
}

/// One leg of the wake-up stress: three seeded submitters hammer a
/// controlled gateway whose queue holds three requests while the control
/// thread rotates the configuration every few real milliseconds; the
/// gateway is closed under them two thirds of the way through.
fn wakeup_stress_leg(
    seed: u64,
    policy: BackpressurePolicy,
    mode: DrainMode,
    lanes: usize,
    workers: usize,
) {
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::mpsc;
    use std::time::{Duration, Instant};

    const SUBMITTERS: usize = 3;
    const PER_SUBMITTER: u64 = 150;
    // A wait that outlives freed space by this much was not woken by it.
    const STALL: Duration = Duration::from_millis(20);
    let what = format!("seed {seed} {policy:?} {mode:?} lanes {lanes} workers {workers}");

    // s(M, B) is 25-60 ms virtual: 0.1-0.3 ms real at this speed-up, so
    // space is freed thousands of times a second and `STALL` is a long time.
    let speedup = 200.0;
    let cfg_a = LambdaConfig::new(2048, 2, 0.02);
    let cfg_b = LambdaConfig::new(1024, 1, 0.0);
    let script: Vec<LambdaConfig> = (0..4096)
        .map(|i| if i % 2 == 0 { cfg_a } else { cfg_b })
        .collect();
    let epoch = Instant::now();
    let backend = Arc::new(StampingBackend {
        inner: ProfiledBackend::default(),
        epoch,
        completions_ns: std::sync::Mutex::new(Vec::new()),
    });
    let gateway = Arc::new(Gateway::start_controlled(
        GatewayConfig {
            queue_capacity: 3,
            backpressure: policy,
            lanes,
            workers,
            decision_interval: 1.0,
            telemetry: Arc::new(Telemetry::new()),
            ..GatewayConfig::default()
        },
        Arc::new(WallClock::with_speedup(speedup)),
        backend.clone(),
        Box::new(ScriptedController::new(script, 0.1)),
    ));

    let offered = Arc::new(AtomicU64::new(0));
    let close_at = SUBMITTERS as u64 * PER_SUBMITTER * 2 / 3;
    let (close_tx, close_rx) = mpsc::channel::<()>();
    let (done_tx, done_rx) = mpsc::channel::<Vec<StressCall>>();
    for s in 0..SUBMITTERS {
        let (gw, offered) = (gateway.clone(), offered.clone());
        let (close_tx, done_tx) = (close_tx.clone(), done_tx.clone());
        std::thread::spawn(move || {
            let mut rng = Rng::new(seed ^ (0xB10C << 8) ^ s as u64);
            let mut calls = Vec::new();
            for _ in 0..PER_SUBMITTER {
                if offered.fetch_add(1, Ordering::Relaxed) + 1 == close_at {
                    close_tx.send(()).expect("main thread waits for the close");
                }
                let lane = rng.below(lanes);
                let t0 = epoch.elapsed().as_nanos() as u64;
                let admission = gw.submit_to(lane, deepbat::serve::Request::default());
                let t1 = epoch.elapsed().as_nanos() as u64;
                let id = match admission {
                    Admission::Accepted { id } => Some(id),
                    Admission::Rejected { .. } | Admission::Closed => None,
                };
                calls.push(StressCall { t0, t1, lane, id });
                // Bursts with short seeded gaps, so the queue is full most
                // of the time and now and then runs dry.
                if rng.bernoulli(0.3) {
                    std::thread::sleep(Duration::from_micros(rng.below(300) as u64));
                }
            }
            // Hand the gateway back first: once every tally is in, the
            // main thread holds the only handle.
            drop(gw);
            done_tx
                .send(calls)
                .expect("main thread collects the tallies");
        });
    }
    drop((close_tx, done_tx));

    // Every wait below is bounded: a submitter that never comes back is a
    // lost wake-up, reported as a failure and not as a hung test.
    let patience = Duration::from_secs(20);
    close_rx
        .recv_timeout(patience)
        .unwrap_or_else(|_| panic!("{what}: submitters stopped making progress"));
    gateway.close(mode);
    let mut calls: Vec<StressCall> = Vec::new();
    for _ in 0..SUBMITTERS {
        calls.extend(
            done_rx
                .recv_timeout(patience)
                .unwrap_or_else(|_| panic!("{what}: a blocked submitter never resolved")),
        );
    }
    let gateway = Arc::try_unwrap(gateway)
        .ok()
        .expect("every submitter handed its handle back");
    let out = gateway.shutdown(mode);

    // Conservation, exactly once.
    let accepted = calls.iter().filter(|c| c.id.is_some()).count() as u64;
    let refused = calls.len() as u64 - accepted;
    assert!(out.counts.conserved(), "{what}: {:?}", out.counts);
    assert_eq!(out.counts.submitted, calls.len() as u64, "{what}");
    assert_eq!(calls.len() as u64, SUBMITTERS as u64 * PER_SUBMITTER);
    assert_eq!(out.counts.accepted, accepted, "{what}");
    assert_eq!(out.counts.rejected, refused, "{what}");
    assert_eq!(
        out.counts.completed, accepted,
        "{what}: drain left work behind"
    );
    assert_eq!(out.requests.len() as u64, accepted, "{what}");
    assert!(refused > 0, "{what}: the close came after the last submit");
    for (i, r) in out.requests.iter().enumerate() {
        assert_eq!(r.id, i as u64, "{what}: ids dense, one record each");
    }
    for c in &calls {
        if let Some(id) = c.id {
            assert_eq!(out.requests[id as usize].lane, c.lane as u32, "{what}");
        }
    }

    // No window split or dropped across a rotate: batches partition the
    // requests, each carries one scripted configuration and fits it, and
    // along a lane (id order is admission order there) a batch's members
    // are consecutive and arrival stamps never run backwards. (Dispatch
    // stamps may: a sealed window runs out its old timeout while the new
    // configuration's windows already flush.)
    let mut members = vec![0u32; out.batches.len()];
    for lane in 0..lanes as u32 {
        let mut prev: Option<&deepbat::serve::ServedRequest> = None;
        let mut closed_batches = std::collections::HashSet::new();
        for r in out.requests.iter().filter(|r| r.lane == lane) {
            let b = &out.batches[r.batch];
            assert_eq!(b.lane, lane, "{what}: batch mixes lanes");
            assert!(r.dispatched_at >= r.arrival && r.completed_at >= r.dispatched_at);
            members[r.batch] += 1;
            if let Some(p) = prev {
                assert!(
                    r.arrival >= p.arrival,
                    "{what}: lane {lane} admission order"
                );
                if p.batch != r.batch {
                    assert!(
                        closed_batches.insert(p.batch),
                        "{what}: batch {} was split around request {}",
                        p.batch,
                        r.id
                    );
                }
            }
            assert!(
                !closed_batches.contains(&r.batch),
                "{what}: batch {} was split around request {}",
                r.batch,
                r.id
            );
            prev = Some(r);
        }
    }
    for (b, &n) in out.batches.iter().zip(&members) {
        assert_eq!(b.size, n, "{what}: batch size disagrees with its members");
        assert!(
            b.config == cfg_a || b.config == cfg_b,
            "{what}: {}",
            b.config
        );
        assert!(
            n >= 1 && n <= b.config.batch_size,
            "{what}: size {n} under {}",
            b.config
        );
        if b.reason == FlushReason::Capacity {
            assert_eq!(n, b.config.batch_size, "{what}: short capacity flush");
        }
    }
    assert!(
        out.records.len() >= 2,
        "{what}: no reconfiguration happened"
    );

    // No admitted submit came back long after the space it took was freed.
    // Measured from the last completion before the call returned: that is
    // at or after the completion that made room, so a wake-up that rides
    // on a timed backstop instead of the notify shows in full, while a
    // stall of the whole machine (every timer late at once, completions
    // included) does not. Nothing waits under `Reject`.
    let mut completions = backend.completions_ns.lock().unwrap().clone();
    completions.sort_unstable();
    let stall_ns = STALL.as_nanos() as u64;
    for c in calls.iter().filter(|c| c.id.is_some()) {
        if c.t1 - c.t0 <= stall_ns {
            continue;
        }
        let before = completions.partition_point(|&done| done <= c.t1);
        let freed = completions[..before]
            .last()
            .map_or(c.t0, |&done| done.max(c.t0));
        assert!(
            c.t1 - freed <= stall_ns,
            "{what}: a submit blocked {} us and came back {} us after space was freed",
            (c.t1 - c.t0) / 1000,
            (c.t1 - freed) / 1000
        );
    }
}

/// Wake-up stress (the first slice of a seeded scheduler for the live
/// gateway): every backpressure policy, drain mode, lane count and pool
/// size, with a queue of three, a reconfiguration every 5 ms and a close
/// under load. A lost wake-up fails as a stall or an unresolved
/// submitter; a herd or a mis-ordered hand-off fails conservation, the
/// never-split check or the per-lane order check. CI runs it unpinned
/// and under `taskset -c 0`.
#[test]
fn wakeup_stress_every_policy_drain_lane_and_pool_shape() {
    let mut seed = 0x17_u64;
    for policy in [
        BackpressurePolicy::Block,
        BackpressurePolicy::Reject {
            retry_after_s: 0.001,
        },
    ] {
        for mode in [DrainMode::Graceful, DrainMode::Immediate] {
            for lanes in [1usize, 2] {
                for workers in [1usize, 32] {
                    seed += 1;
                    wakeup_stress_leg(seed, policy, mode, lanes, workers);
                }
            }
        }
    }
}
