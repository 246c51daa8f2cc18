//! Multi-class, multi-group serving through the public API: the
//! single-class degenerate case must be bitwise the single-queue
//! simulator, per-class request accounting must balance under injected
//! faults, and a grouped gateway must serve every routed request
//! exactly once.

use deepbat::prelude::*;
use std::sync::Arc;

fn bursty_trace(seed: u64, horizon: f64) -> Trace {
    let map = Mmpp2::from_targets(80.0, 50.0, 8.0, 0.35).to_map().unwrap();
    let mut rng = Rng::new(seed);
    Trace::new(map.simulate(&mut rng, 0.0, horizon), horizon)
}

/// Two classes with a tight and a loose SLO, alternating weights so
/// both carry real traffic, tagged from a seeded stream.
fn two_class_trace(seed: u64, horizon: f64) -> (ClassedTrace, Vec<RequestClass>) {
    let classes = vec![
        RequestClass::with_weight(0, 0.08, 1.0),
        RequestClass::with_weight(1, 0.8, 2.0),
    ];
    let classed =
        ClassedTrace::tag_weighted(bursty_trace(seed, horizon), &classes, seed ^ 0xBEEF).unwrap();
    (classed, classes)
}

fn two_groups() -> Vec<FunctionGroup> {
    vec![
        FunctionGroup::new(LambdaConfig::new(3008, 1, 0.0), vec![0]),
        FunctionGroup::new(LambdaConfig::new(1024, 8, 0.025), vec![1]),
    ]
}

// --- gate 1: the multi path with one group IS the single-queue sim ----

#[test]
fn single_class_single_group_is_bitwise_simulate_batching() {
    let params = SimParams::default();
    let trace = bursty_trace(11, 180.0);
    let cfg = LambdaConfig::new(2048, 4, 0.05);

    let plain = simulate_batching(trace.timestamps(), &cfg, &params, None);

    let classed = ClassedTrace::uniform(trace, 0);
    let classes = vec![RequestClass::new(0, 0.1)];
    let groups = vec![FunctionGroup::new(cfg, vec![0])];
    let multi = simulate_batching_multi(&classed, &classes, &groups, &params).unwrap();

    assert!(multi.conserved(classed.len()));
    assert_eq!(multi.groups.len(), 1);
    let sim = &multi.groups[0].out.sim;

    // Bitwise, not approximately: every stamp, every batch cost, and
    // the total. The multi-queue path must not perturb a single queue.
    assert_eq!(multi.total_cost.to_bits(), plain.total_cost.to_bits());
    assert_eq!(sim.requests.len(), plain.requests.len());
    for (a, b) in sim.requests.iter().zip(&plain.requests) {
        assert_eq!(a.arrival.to_bits(), b.arrival.to_bits());
        assert_eq!(a.dispatch.to_bits(), b.dispatch.to_bits());
        assert_eq!(a.completion.to_bits(), b.completion.to_bits());
    }
    assert_eq!(sim.batches.len(), plain.batches.len());
    for (a, b) in sim.batches.iter().zip(&plain.batches) {
        assert_eq!(a.cost.to_bits(), b.cost.to_bits());
        assert_eq!(a.size, b.size);
    }

    // And the per-class rollup agrees with the whole-trace summary.
    let c = &multi.per_class[0];
    assert_eq!(c.requests, classed.len());
    assert_eq!(c.served, classed.len());
    // Class cost is attributed batch-by-batch (cost split across
    // members, then summed), so it agrees to rounding, not bit-for-bit.
    assert!((c.cost - plain.total_cost).abs() <= 1e-12 * plain.total_cost);
    assert_eq!(c.summary.p95.to_bits(), plain.summary().p95.to_bits());
}

// --- gate 2: per-class conservation under injected faults ------------

#[test]
fn per_class_accounting_balances_under_faults() {
    let params = SimParams::default();
    let (classed, classes) = two_class_trace(23, 240.0);
    let groups = two_groups();
    let plan = FaultPlan::intensity(0.7, 4242);

    let out = simulate_faults_multi(&classed, &classes, &groups, &params, &plan).unwrap();

    // Requests partition across classes exactly.
    let by_class = classed.class_counts();
    assert_eq!(out.per_class.len(), 2);
    for c in &out.per_class {
        assert_eq!(c.requests, by_class[c.class as usize]);
        assert!(c.served <= c.requests);
        assert_eq!(c.summary.count, c.served);
    }

    // Conservation: served + lost == offered, per the fault ledger.
    let served: usize = out.per_class.iter().map(|c| c.served).sum();
    let lost = out.counts.lost_requests();
    assert_eq!(served + lost, classed.len());
    assert!(
        lost > 0,
        "intensity 0.7 should lose some requests; the test would be vacuous"
    );

    // Group slices partition the trace and stay class-pure.
    let sliced: usize = out.groups.iter().map(|g| g.indices.len()).sum();
    assert_eq!(sliced, classed.len());
    for (g, grp) in out.groups.iter().enumerate() {
        for &i in &grp.indices {
            assert_eq!(classed.labels()[i] as usize, g);
        }
    }

    // Seeded: the same plan reproduces the same ledger bit-for-bit.
    let again = simulate_faults_multi(&classed, &classes, &groups, &params, &plan).unwrap();
    assert_eq!(out.total_cost.to_bits(), again.total_cost.to_bits());
    assert_eq!(out.counts.retries, again.counts.retries);
    assert_eq!(out.counts.lost_requests(), again.counts.lost_requests());
}

// --- gate 3: grouped gateway routing is exactly-once -----------------

#[test]
fn grouped_gateway_stress_serves_each_request_exactly_once() {
    let (classed, _) = two_class_trace(31, 12.0);
    assert!(classed.len() > 500, "stress needs a real burst");
    let groups = two_groups();
    let cfg = GatewayConfig {
        queue_capacity: 8192,
        backpressure: BackpressurePolicy::Block,
        workers: 2,
        decision_interval: 4.0,
        groups: groups.clone(),
        ..GatewayConfig::default()
    };
    let gateway = Gateway::start(
        cfg,
        Arc::new(WallClock::with_speedup(100.0)),
        Arc::new(ProfiledBackend::default()),
    );

    let stats = drive_classed(&gateway, &classed);
    let out = gateway.shutdown(DrainMode::Graceful);

    // Nothing lost, nothing refused, nothing served twice.
    assert_eq!(stats.submitted, classed.len() as u64);
    assert_eq!(stats.rejected, 0);
    assert_eq!(out.counts.accepted, classed.len() as u64);
    assert_eq!(out.counts.completed, classed.len() as u64);
    assert!(out.counts.conserved());

    let mut seen = std::collections::HashSet::new();
    for r in &out.requests {
        assert!(seen.insert(r.id), "request {} served twice", r.id);
        // The lane IS the function group; class c rides its group only.
        assert_eq!(r.lane, r.class as u32);
        assert_eq!(out.batches[r.batch].lane, r.lane);
    }
    assert_eq!(seen.len(), classed.len());

    // Per-class completion matches the trace's class mix exactly.
    let counts = classed.class_counts();
    assert_eq!(
        out.completed_by_class(),
        counts.iter().map(|&n| n as u64).collect::<Vec<_>>()
    );
    // Both classes saw real traffic under the weighted tagging.
    assert!(counts.iter().all(|&n| n > 100));
}
