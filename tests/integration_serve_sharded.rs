//! Sharded-gateway integration tests: lane partitioning, work-stealing,
//! and the observability that rides on them.
//!
//! The invariants (each lane runs the same `BatcherCore` the unsharded
//! gateway runs, and `lanes = 1` *is* the unsharded gateway):
//!
//! * **Conservation across lanes** — ids are gateway-global and dense;
//!   per-lane completed counts sum to the global total; per-lane FIFO
//!   order survives concurrent submitters and work-stealing workers.
//! * **No shutdown deadlock** — submitters parked on a full lane under
//!   `BackpressurePolicy::Block` are woken by the drain and resolve as
//!   clean rejections.

use deepbat::prelude::*;
use deepbat::serve::{drive_concurrent, LaneAssignment};
use std::sync::{Arc, Condvar, Mutex};

/// Per-lane `serve.lane.<i>.*` metrics reconcile against the global
/// counters — in the hub and through a real `/metrics` scrape.
#[test]
fn lane_metrics_reconcile_with_global_completed_total() {
    use std::io::{Read as _, Write as _};

    let lanes = 4usize;
    let hub = Arc::new(Telemetry::new());
    hub.enable();
    let cfg = GatewayConfig {
        initial: LambdaConfig::new(2048, 8, 0.01),
        queue_capacity: 4096,
        backpressure: BackpressurePolicy::Block,
        lanes,
        workers: 4,
        telemetry: hub.clone(),
        ..GatewayConfig::default()
    };
    let gateway = Gateway::start(
        cfg,
        Arc::new(WallClock::with_speedup(100.0)),
        Arc::new(ProfiledBackend::default()),
    );
    for i in 0..400usize {
        assert!(matches!(
            gateway.submit_to(i % lanes, Request::default()),
            Admission::Accepted { .. }
        ));
    }
    let out = gateway.shutdown(DrainMode::Graceful);
    assert_eq!(out.counts.completed, 400);
    assert!(out.counts.conserved());

    // Hub-level reconciliation: lane-sum == global == outcome.
    let lane_sum: u64 = (0..lanes)
        .map(|i| hub.counter(&format!("serve.lane.{i}.completed")).get())
        .sum();
    assert_eq!(lane_sum, out.counts.completed);
    assert_eq!(hub.counter("serve.completed").get(), out.counts.completed);
    for i in 0..lanes {
        assert_eq!(
            hub.counter(&format!("serve.lane.{i}.completed")).get(),
            100,
            "round-robin over {lanes} lanes must balance exactly"
        );
        // Drained: every lane's depth gauge has settled back to zero.
        assert_eq!(hub.gauge(&format!("serve.lane.{i}.queue_depth")).get(), 0.0);
    }
    // The outcome's own per-lane view agrees with the lane counters.
    assert_eq!(out.completed_by_lane(), vec![100; lanes]);

    // Scrape /metrics and reconcile the rendered Prometheus text.
    let exporter = MetricsExporter::start(hub.clone(), "127.0.0.1:0").unwrap();
    let mut stream = std::net::TcpStream::connect(exporter.addr()).unwrap();
    write!(stream, "GET /metrics HTTP/1.1\r\nHost: test\r\n\r\n").unwrap();
    let mut response = String::new();
    stream.read_to_string(&mut response).unwrap();
    exporter.shutdown();
    assert!(response.starts_with("HTTP/1.1 200 OK"));

    let sample = |name: &str| -> f64 {
        response
            .lines()
            .find(|l| l.starts_with(name) && l[name.len()..].starts_with(' '))
            .unwrap_or_else(|| panic!("{name} sample missing"))
            .split_whitespace()
            .nth(1)
            .unwrap()
            .parse()
            .unwrap()
    };
    let scraped_lane_sum: f64 = (0..lanes)
        .map(|i| sample(&format!("serve_lane_{i}_completed_total")))
        .sum();
    assert_eq!(scraped_lane_sum as u64, out.counts.completed);
    assert_eq!(
        sample("serve_completed_total") as u64,
        out.counts.completed,
        "lane counters must sum to the scraped global total"
    );
    for i in 0..lanes {
        assert_eq!(sample(&format!("serve_lane_{i}_queue_depth")), 0.0);
    }
}

/// A backend whose executions block until the test opens the gate,
/// pinning requests in flight so admission capacity stays exhausted.
struct GatedBackend {
    inner: ProfiledBackend,
    gate: Arc<(Mutex<bool>, Condvar)>,
}

impl InferenceBackend for GatedBackend {
    fn name(&self) -> &'static str {
        "gated"
    }
    fn plan(&self, config: &LambdaConfig, batch_size: u32) -> deepbat::serve::BatchPlan {
        self.inner.plan(config, batch_size)
    }
    fn execute(
        &self,
        _clock: &dyn Clock,
        _plan: &deepbat::serve::BatchPlan,
        _batch: &deepbat::serve::FormedBatch,
    ) {
        let (m, cv) = &*self.gate;
        let mut open = m.lock().unwrap();
        while !*open {
            open = cv.wait(open).unwrap();
        }
    }
}

/// Submitters parked on a full lane under `Block` must not deadlock the
/// drain: shutdown wakes them, they resolve as rejections, and every
/// accepted request is still served exactly once.
#[test]
fn blocked_submitters_resolve_as_rejections_during_shutdown() {
    let gate = Arc::new((Mutex::new(false), Condvar::new()));
    let capacity = 4usize;
    let cfg = GatewayConfig {
        // Batch of 1, no timeout: each accepted request becomes an
        // in-flight invocation immediately, holding its capacity slot
        // until the gate opens.
        initial: LambdaConfig::new(2048, 1, 0.0),
        queue_capacity: capacity,
        backpressure: BackpressurePolicy::Block,
        lanes: 2,
        workers: 2,
        ..GatewayConfig::default()
    };
    let gateway = Arc::new(Gateway::start(
        cfg,
        Arc::new(WallClock::with_speedup(50.0)),
        Arc::new(GatedBackend {
            inner: ProfiledBackend::default(),
            gate: gate.clone(),
        }),
    ));

    // Fill capacity exactly; the gate is shut so nothing completes.
    for i in 0..capacity {
        assert!(matches!(
            gateway.submit_to(i % 2, Request::default()),
            Admission::Accepted { .. }
        ));
    }
    // Park concurrent submitters on both (full) lanes.
    let blocked: Vec<_> = (0..4)
        .map(|i| {
            let gw = gateway.clone();
            std::thread::spawn(move || gw.submit_to(i % 2, Request::default()))
        })
        .collect();
    // Let them reach the space_cv wait (timed waits make this robust
    // even if the sleep races the park).
    std::thread::sleep(std::time::Duration::from_millis(50));

    // Close while the submitters are parked and the gate is still shut:
    // the close broadcast — not freed capacity — is what wakes them.
    gateway.close(DrainMode::Graceful);
    let mut closed = 0;
    for h in blocked {
        match h.join().expect("submitter panicked") {
            Admission::Closed => closed += 1,
            Admission::Accepted { .. } => panic!("no capacity was ever freed before close"),
            Admission::Rejected { .. } => panic!("Block policy never emits Rejected"),
        }
    }
    assert_eq!(
        closed, 4,
        "every parked submitter must be woken and refused"
    );

    // Now let the in-flight work finish and drain: every submitter has
    // returned, so this thread holds the only Gateway handle.
    {
        let (m, cv) = &*gate;
        *m.lock().unwrap() = true;
        cv.notify_all();
    }
    let gateway = Arc::try_unwrap(gateway).ok().expect("submitters joined");
    let out = gateway.shutdown(DrainMode::Graceful);
    assert_eq!(out.counts.submitted, 8);
    assert_eq!(out.counts.accepted, capacity as u64);
    assert_eq!(out.counts.rejected, 4);
    assert_eq!(out.counts.completed, capacity as u64);
    assert!(out.counts.conserved());
}

/// Seeded stress: 8 concurrent submitters × 4 lanes with randomized
/// lane assignment. Exactly-once completion, dense global ids, requests
/// served on the lane they were submitted to, and per-lane FIFO order
/// (admission order == dispatch order within a lane) all hold under
/// work-stealing workers.
#[test]
fn stress_randomized_lanes_keep_fifo_and_exactly_once() {
    let lanes = 4usize;
    let submitters = 8usize;
    let per_thread = 250usize;
    let cfg = GatewayConfig {
        initial: LambdaConfig::new(2048, 4, 0.002),
        queue_capacity: 8192,
        backpressure: BackpressurePolicy::Block,
        lanes,
        workers: 4,
        ..GatewayConfig::default()
    };
    let gateway = Arc::new(Gateway::start(
        cfg,
        Arc::new(WallClock::with_speedup(200.0)),
        Arc::new(ProfiledBackend::default()),
    ));

    // Each submitter randomizes its lane per request from its own seeded
    // stream and records which lane each accepted id went to.
    let handles: Vec<_> = (0..submitters)
        .map(|s| {
            let gw = gateway.clone();
            std::thread::spawn(move || {
                let mut rng = Rng::new(0xD1CE + s as u64);
                let mut sent: Vec<(u64, usize)> = Vec::with_capacity(per_thread);
                for _ in 0..per_thread {
                    let lane = rng.below(lanes);
                    match gw.submit_to(lane, Request::default()) {
                        Admission::Accepted { id } => sent.push((id, lane)),
                        other => panic!("unexpected admission under Block: {other:?}"),
                    }
                }
                sent
            })
        })
        .collect();
    let mut lane_of: Vec<(u64, usize)> = Vec::new();
    for h in handles {
        lane_of.extend(h.join().expect("submitter panicked"));
    }
    let gateway = Arc::try_unwrap(gateway).ok().expect("submitters done");
    let out = gateway.shutdown(DrainMode::Graceful);

    let total = (submitters * per_thread) as u64;
    assert_eq!(out.counts.accepted, total);
    assert_eq!(out.counts.completed, total);
    assert!(out.counts.conserved());

    // Exactly once, dense ids: shutdown would already have panicked on a
    // hole; the outcome is in id order with every id present.
    assert_eq!(out.requests.len(), total as usize);
    for (i, r) in out.requests.iter().enumerate() {
        assert_eq!(r.id, i as u64);
    }
    // Served on the lane it was submitted to.
    for &(id, lane) in &lane_of {
        assert_eq!(
            out.requests[id as usize].lane, lane as u32,
            "request {id} hopped lanes"
        );
    }
    // Per-lane FIFO: global ids are allocated under the lane lock, so
    // within a lane id order == admission order; arrivals and dispatches
    // must both be non-decreasing along it (no reconfig in this run, so
    // windows flush strictly in formation order).
    for lane in 0..lanes as u32 {
        let mut prev_arrival = f64::NEG_INFINITY;
        let mut prev_dispatch = f64::NEG_INFINITY;
        let mut count = 0u64;
        for r in out.requests.iter().filter(|r| r.lane == lane) {
            assert!(
                r.arrival >= prev_arrival,
                "lane {lane}: arrival order broke at id {}",
                r.id
            );
            assert!(
                r.dispatched_at >= prev_dispatch,
                "lane {lane}: dispatch order broke at id {}",
                r.id
            );
            prev_arrival = r.arrival;
            prev_dispatch = r.dispatched_at;
            count += 1;
        }
        assert!(count > 0, "lane {lane} starved across 2000 random picks");
    }
    // Lane partition covers everything exactly once.
    let by_lane = out.completed_by_lane();
    assert_eq!(by_lane.iter().sum::<u64>(), total);

    // The multi-producer loadgen driver agrees with all of the above on
    // a fresh gateway (round-robin this time).
    let cfg = GatewayConfig {
        initial: LambdaConfig::new(2048, 4, 0.002),
        queue_capacity: 8192,
        backpressure: BackpressurePolicy::Block,
        lanes,
        workers: 4,
        ..GatewayConfig::default()
    };
    let gw = Gateway::start(
        cfg,
        Arc::new(WallClock::with_speedup(200.0)),
        Arc::new(ProfiledBackend::default()),
    );
    let stats = drive_concurrent(&gw, 4, 200, LaneAssignment::RoundRobin);
    assert_eq!(stats.accepted, 800);
    let out = gw.shutdown(DrainMode::Graceful);
    assert_eq!(out.counts.completed, 800);
    assert!(out.counts.conserved());
}

/// A backend that costs nothing and returns immediately, so the run
/// exercises the gateway's own hand-off and nothing else.
struct NullBackend;

impl InferenceBackend for NullBackend {
    fn name(&self) -> &'static str {
        "null"
    }
    fn plan(&self, _config: &LambdaConfig, _batch_size: u32) -> deepbat::serve::BatchPlan {
        deepbat::serve::BatchPlan {
            service_s: 0.0,
            cost: 0.0,
        }
    }
    fn execute(
        &self,
        _clock: &dyn Clock,
        _plan: &deepbat::serve::BatchPlan,
        _batch: &deepbat::serve::FormedBatch,
    ) {
    }
}

/// Four lanes fed by pinned producers but drained by a single worker
/// homed on lane 0: lanes 1–3 can only drain by stealing, so a nonzero
/// steal count is an invariant here, not a scheduling accident.
#[test]
fn single_worker_drains_four_fed_lanes_by_stealing() {
    let gw = Gateway::start(
        GatewayConfig {
            initial: LambdaConfig::new(2048, 64, 0.005),
            queue_capacity: 1 << 16,
            backpressure: BackpressurePolicy::Block,
            lanes: 4,
            workers: 1,
            ..GatewayConfig::default()
        },
        Arc::new(WallClock::new()),
        Arc::new(NullBackend),
    );
    let stats = drive_concurrent(&gw, 4, 2_000, LaneAssignment::Pinned);
    assert_eq!(stats.accepted, 8_000);
    let out = gw.shutdown(DrainMode::Graceful);
    assert!(out.counts.conserved(), "lost requests");
    assert_eq!(out.counts.completed, stats.accepted, "drain was not clean");
    assert!(
        out.counts.steals >= 1,
        "single worker over 4 fed lanes must steal (got {})",
        out.counts.steals
    );
}
