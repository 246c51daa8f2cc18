//! Grouped-gateway integration tests: one lane per function group, and
//! the one shared ready queue every group's batches reach the worker pool
//! through.
//!
//! The invariants (each group's lane runs the same `BatcherCore` an
//! ungrouped gateway's one lane runs):
//!
//! * **Conservation across lanes** — ids are gateway-global and dense;
//!   per-group completed counts sum to the global total; per-group FIFO
//!   order survives concurrent submitters and a pool of workers that each
//!   take any group's batches.
//! * **No shutdown deadlock** — submitters parked on several full lanes
//!   under `BackpressurePolicy::Block` are woken by the drain and resolve
//!   as clean rejections.

use deepbat::prelude::*;
use std::sync::{Arc, Condvar, Mutex};

/// `n` function groups under one configuration; group `g` serves class
/// `g`, so a class-tagged request rides lane `g`.
fn groups(n: u16, config: LambdaConfig) -> Vec<FunctionGroup> {
    (0..n)
        .map(|g| FunctionGroup::new(config, vec![g]))
        .collect()
}

/// Submit from `producers` concurrent threads, `per_producer` requests
/// each, flat out; producer `p` submits class `p`, so it feeds group
/// `p`'s lane. Returns the requests admitted.
fn flood_from_producers(gw: &Gateway, producers: u16, per_producer: u64) -> u64 {
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..producers)
            .map(|p| {
                scope.spawn(move || {
                    (0..per_producer)
                        .filter(|_| {
                            matches!(gw.submit(Request::of_class(p)), Admission::Accepted { .. })
                        })
                        .count() as u64
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("producer thread panicked"))
            .sum()
    })
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

/// Submitters parked on two full group lanes under `Block` must not
/// deadlock the drain: the close wakes them, they resolve as rejections,
/// and every accepted request is still served exactly once.
#[test]
fn blocked_submitters_resolve_as_rejections_during_shutdown() {
    let gate = Arc::new((Mutex::new(false), Condvar::new()));
    let capacity = 4usize;
    let cfg = GatewayConfig {
        queue_capacity: capacity,
        backpressure: BackpressurePolicy::Block,
        workers: 2,
        // Batch of 1, no timeout: each accepted request becomes an
        // in-flight invocation immediately, holding its capacity slot
        // until the gate opens.
        groups: groups(2, LambdaConfig::new(2048, 1, 0.0)),
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
    for i in 0..capacity as u16 {
        assert!(matches!(
            gateway.submit(Request::of_class(i % 2)),
            Admission::Accepted { .. }
        ));
    }
    // Park concurrent submitters on both groups' (full) lanes.
    let blocked: Vec<_> = (0..4u16)
        .map(|i| {
            let gw = gateway.clone();
            std::thread::spawn(move || gw.submit(Request::of_class(i % 2)))
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

/// Seeded stress: 8 concurrent submitters × 4 function groups with
/// randomized classes. Exactly-once completion, dense global ids,
/// requests served on their class's group lane, and per-group FIFO order
/// (admission order == dispatch order within a lane) all hold while four
/// workers take every group's batches from the one ready queue.
#[test]
fn stress_randomized_lanes_keep_fifo_and_exactly_once() {
    let lanes = 4usize;
    let submitters = 8usize;
    let per_thread = 250usize;
    let cfg = GatewayConfig {
        queue_capacity: 8192,
        backpressure: BackpressurePolicy::Block,
        workers: 4,
        groups: groups(lanes as u16, LambdaConfig::new(2048, 4, 0.002)),
        ..GatewayConfig::default()
    };
    let gateway = Arc::new(Gateway::start(
        cfg,
        Arc::new(WallClock::with_speedup(200.0)),
        Arc::new(ProfiledBackend::default()),
    ));

    // Each submitter randomizes its class per request from its own seeded
    // stream and records which lane (= class) each accepted id went to.
    let handles: Vec<_> = (0..submitters)
        .map(|s| {
            let gw = gateway.clone();
            std::thread::spawn(move || {
                let mut rng = Rng::new(0xD1CE + s as u64);
                let mut sent: Vec<(u64, usize)> = Vec::with_capacity(per_thread);
                for _ in 0..per_thread {
                    let lane = rng.below(lanes);
                    match gw.submit(Request::of_class(lane as u16)) {
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
    // Served on the lane its class routes to.
    for &(id, lane) in &lane_of {
        assert_eq!(
            out.requests[id as usize].lane, lane as u32,
            "request {id} hopped lanes"
        );
    }
    // Per-group FIFO: global ids are allocated under the lane lock, so
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
    // The group partition covers everything exactly once.
    let by_class = out.completed_by_class();
    assert_eq!(by_class.iter().sum::<u64>(), total);

    // Concurrent producers agree with all of the above on a fresh
    // gateway (one class per producer this time).
    let cfg = GatewayConfig {
        queue_capacity: 8192,
        backpressure: BackpressurePolicy::Block,
        workers: 4,
        groups: groups(lanes as u16, LambdaConfig::new(2048, 4, 0.002)),
        ..GatewayConfig::default()
    };
    let gw = Gateway::start(
        cfg,
        Arc::new(WallClock::with_speedup(200.0)),
        Arc::new(ProfiledBackend::default()),
    );
    assert_eq!(flood_from_producers(&gw, 4, 200), 800);
    let out = gw.shutdown(DrainMode::Graceful);
    assert_eq!(out.counts.completed, 800);
    assert!(out.counts.conserved());
    assert_eq!(out.completed_by_class(), vec![200; 4]);
}

/// Four concurrent producers, one class each, over two groups of two
/// classes: every request is served on its class's group lane, and the
/// drain conserves them all.
#[test]
fn concurrent_producers_conserve_across_lanes() {
    let config = LambdaConfig::new(2048, 16, 0.001);
    let gw = Gateway::start(
        GatewayConfig {
            queue_capacity: 4096,
            backpressure: BackpressurePolicy::Block,
            workers: 2,
            groups: vec![
                FunctionGroup::new(config, vec![0, 2]),
                FunctionGroup::new(config, vec![1, 3]),
            ],
            ..GatewayConfig::default()
        },
        Arc::new(WallClock::with_speedup(100.0)),
        Arc::new(ProfiledBackend::default()),
    );
    assert_eq!(flood_from_producers(&gw, 4, 100), 400);
    let out = gw.shutdown(DrainMode::Graceful);
    assert_eq!(out.counts.completed, 400);
    assert!(out.counts.conserved());
    assert_eq!(out.completed_by_class(), vec![100; 4]);
    for r in &out.requests {
        assert_eq!(r.lane, r.class as u32 % 2);
    }
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

/// Four group lanes, each fed by its own producer, drained by a single
/// worker: the shared ready queue hands it every group's batches, and the
/// drain is clean.
#[test]
fn single_worker_drains_four_fed_lanes() {
    let gw = Gateway::start(
        GatewayConfig {
            queue_capacity: 1 << 16,
            backpressure: BackpressurePolicy::Block,
            workers: 1,
            groups: groups(4, LambdaConfig::new(2048, 64, 0.005)),
            ..GatewayConfig::default()
        },
        Arc::new(WallClock::new()),
        Arc::new(NullBackend),
    );
    let accepted = flood_from_producers(&gw, 4, 2_000);
    assert_eq!(accepted, 8_000);
    let out = gw.shutdown(DrainMode::Graceful);
    assert!(out.counts.conserved(), "lost requests");
    assert_eq!(out.counts.completed, accepted, "drain was not clean");
    assert_eq!(out.completed_by_class(), vec![2_000; 4]);
}
