//! Fault-injection integration: seeded determinism across the public API,
//! retry billing against hand-computed GB-seconds, the graceful
//! degradation loop engaging/disengaging under injected faults, and what
//! a faulted closed loop traces and reports into its own hub.

use deepbat::prelude::*;
use deepbat::sim::{ColdStartFault, FailureFault, RetryPolicy, StragglerFault, ThrottleFault};
use deepbat::telemetry::{Event, MemorySink};
use std::collections::HashMap;
use std::sync::Arc;
use TraceStage::{Admit, Complete, Dispatch, Enqueue, Flush};

fn bursty_trace(seed: u64, horizon: f64) -> Trace {
    let map = Mmpp2::from_targets(60.0, 40.0, 10.0, 0.3).to_map().unwrap();
    let mut rng = Rng::new(seed);
    Trace::new(map.simulate(&mut rng, 0.0, horizon), horizon)
}

#[test]
fn faulted_simulation_is_bitwise_deterministic() {
    let trace = bursty_trace(9, 300.0);
    let cfg = LambdaConfig::new(1024, 4, 0.05);
    let params = SimParams::default();
    let plan = FaultPlan::intensity(0.6, 12345);

    let a = simulate_faults(trace.timestamps(), &cfg, &params, &plan);
    let b = simulate_faults(trace.timestamps(), &cfg, &params, &plan);
    assert_eq!(a.sim.total_cost.to_bits(), b.sim.total_cost.to_bits());
    assert_eq!(a.events.len(), b.events.len());
    assert_eq!(a.counts.retries, b.counts.retries);
    let (la, lb) = (a.latencies(), b.latencies());
    assert_eq!(la.len(), lb.len());
    for (x, y) in la.iter().zip(&lb) {
        assert_eq!(x.to_bits(), y.to_bits());
    }

    // A different seed must change *something* at this intensity.
    let c = simulate_faults(
        trace.timestamps(),
        &cfg,
        &params,
        &plan.with_seed(plan.seed ^ 1),
    );
    assert_ne!(a.sim.total_cost.to_bits(), c.sim.total_cost.to_bits());
}

#[test]
fn retry_billing_matches_hand_computed_gb_seconds() {
    // One request, B = 1, T = 0, guaranteed failure, 3 attempts, no
    // backoff jitter, cold starts and throttling disabled: every billed
    // component can be written down by hand.
    let cfg = LambdaConfig::new(1024, 1, 0.0);
    let params = SimParams::default();
    let plan = FaultPlan::builder()
        .seed(7)
        .cold_start(ColdStartFault {
            delay_s: 0.0,
            ..ColdStartFault::default()
        })
        .failures(FailureFault {
            probability: 1.0,
            memory_exponent: 0.0,
            retry: RetryPolicy {
                max_attempts: 3,
                backoff_base_s: 0.01,
                backoff_factor: 2.0,
                jitter: 0.0,
            },
            ..FailureFault::default()
        })
        .build()
        .unwrap();

    let out = simulate_faults(&[0.0], &cfg, &params, &plan);
    assert_eq!(out.counts.failures, 3);
    assert_eq!(out.counts.retries, 2);
    assert_eq!(out.counts.exhausted_requests, 1);
    assert_eq!(out.served_count(), 0);

    // Hand computation: service time s(1024, 1), billed per attempt with
    // 1 ms ceil at 1 GB, plus the flat per-invocation fee — three times.
    let service = params.profile.service_time(1024, 1);
    let pricing = params.pricing;
    let billed_s = (service * 1000.0).ceil() / 1000.0;
    let one_attempt = billed_s * (1024.0 / 1024.0) * pricing.per_gb_second + pricing.per_invocation;
    let expected = 3.0 * one_attempt;
    assert!(
        (out.sim.total_cost - expected).abs() < 1e-15,
        "billed {} vs hand-computed {}",
        out.sim.total_cost,
        expected
    );
}

#[test]
fn closed_loop_survives_total_failure_and_recovers() {
    // 100% invocation failure for the whole run: every request is lost,
    // every interval violates, the wrapper engages — and nothing panics.
    let trace = bursty_trace(11, 600.0);
    let plan = FaultPlan::builder()
        .seed(3)
        .failures(FailureFault {
            probability: 1.0,
            ..FailureFault::default()
        })
        .build()
        .unwrap();
    let opts = SimConfig::builder()
        .slo(0.1)
        .decision_interval(60.0)
        .faults(plan)
        .build()
        .unwrap();

    let inner = StaticController::new(LambdaConfig::new(1024, 4, 0.05), 0.1);
    let mut ctl = GracefulController::new(inner, 0.1);
    let out = run_controller(&mut ctl, &trace, 0.0, 600.0, &opts);

    assert_eq!(out.records.len(), 10);
    assert!(out.measurements.iter().all(|m| m.violation));
    assert_eq!(
        out.counts.lost_requests(),
        out.measurements.iter().map(|m| m.requests).sum::<usize>()
    );
    // Engaged after the violation streak and stayed degraded (faults never
    // stop, so recovery must not trigger).
    assert!(ctl.is_degraded());
    assert_eq!(ctl.monitor.engagements(), 1);
    assert!(out.records.iter().skip(3).all(|r| r.degraded));
    assert!(out.degraded_rate() > 0.0);

    // Re-run the same wrapper on a clean config: three violation-free
    // intervals re-arm it.
    let clean = SimConfig::builder()
        .slo(10.0) // generous SLO: nothing violates
        .decision_interval(60.0)
        .build()
        .unwrap();
    let out2 = run_controller(&mut ctl, &trace, 0.0, 600.0, &clean);
    assert!(!ctl.is_degraded(), "clean run must disengage the fallback");
    assert!(out2.measurements.iter().all(|m| !m.violation));
    // The audit trail shows the transition: degraded decisions early in
    // the second run, inner-policy decisions after recovery.
    assert!(out2.records[0].degraded);
    assert!(!out2.records.last().unwrap().degraded);
}

#[test]
fn throttle_and_straggler_faults_surface_in_run_outcome() {
    let trace = bursty_trace(13, 300.0);
    let plan = FaultPlan::builder()
        .seed(21)
        .throttle(ThrottleFault {
            max_concurrency: 2,
            queue_capacity: 4,
        })
        .stragglers(StragglerFault {
            probability: 0.2,
            multiplier: 5.0,
        })
        .build()
        .unwrap();
    let opts = SimConfig::builder()
        .slo(0.1)
        .decision_interval(60.0)
        .faults(plan)
        .build()
        .unwrap();
    let mut ctl = StaticController::new(LambdaConfig::new(512, 1, 0.0), 0.1);
    let out = run_controller(&mut ctl, &trace, 0.0, 300.0, &opts);
    assert!(out.counts.stragglers > 0, "no stragglers drawn");
    assert!(
        out.counts.throttled > 0 || out.counts.shed_requests > 0,
        "tight concurrency cap never throttled"
    );
    // Conservation: every arrival is either served or lost.
    let arrived: usize = out.measurements.iter().map(|m| m.requests).sum();
    let lost: usize = out.measurements.iter().map(|m| m.lost).sum();
    assert_eq!(out.counts.lost_requests(), lost);
    assert!(lost <= arrived);
}

/// A request the fault model sheds or retries out is lost: it gets its
/// `Admit` and `Enqueue` events and nothing else. It is never dispatched
/// or completed (at t = 0 or at all), and it never anchors a batch's
/// `Flush`.
#[test]
fn lost_requests_are_traced_as_admitted_and_never_completed() {
    let trace = TraceKind::AzureLike.generate_for(11, 120.0);
    let throttle = ThrottleFault {
        max_concurrency: 1,
        queue_capacity: 1,
    };
    let plan = FaultPlan::builder().seed(3).throttle(throttle).build();
    let opts = SimConfig::builder()
        .slo(0.1)
        .faults(plan.unwrap())
        .build()
        .unwrap();
    let mut ctl = StaticController::new(LambdaConfig::new(1024, 1, 0.0), 0.1);
    opts.telemetry.tracer().enable_capture();
    let run = run_controller(&mut ctl, &trace, 0.0, 120.0, &opts);
    let events = opts.telemetry.tracer().drain();

    let offered: usize = run.measurements.iter().map(|m| m.requests).sum();
    let served = offered - run.counts.lost_requests();
    assert_eq!(offered, trace.len());
    assert!(served < offered, "the throttle must shed requests");
    let of = |stage| {
        events
            .iter()
            .filter(move |e: &&TraceEvent| e.stage == stage)
    };
    let counts = [Admit, Enqueue, Dispatch, Complete].map(|stage| of(stage).count());
    assert_eq!(counts, [offered, offered, served, served]);
    let stamps = |stage| of(stage).map(|e| (e.trace, e.t)).collect::<HashMap<_, _>>();
    let (admitted, completed) = (stamps(Admit), stamps(Complete));
    for (id, done) in &completed {
        assert!(
            *done >= admitted[id],
            "{id:?} completed before its admission"
        );
    }
    for flush in of(Flush) {
        let never_served = format!("{:?} anchors a flush but was never served", flush.trace);
        assert!(completed.contains_key(&flush.trace), "{never_served}");
    }
}

/// A policy that always violates, behind the degradation wrapper and run
/// on the same flight-armed hub: the wrapper's `controller.degradation`
/// events and its post-mortem reach that hub, and the dump holds this
/// run's own trace, up to the interval that tripped it.
#[test]
fn a_degradation_dumps_this_runs_flight_into_its_hub() {
    let trace = bursty_trace(17, 600.0);
    let (hub, sink) = (Arc::new(Telemetry::new()), Arc::new(MemorySink::new()));
    hub.enable();
    hub.add_sink(sink.clone());
    hub.tracer().enable_flight(4096);
    let opts = SimConfig::builder()
        .slo(0.1)
        .telemetry(hub.clone())
        .build()
        .unwrap();
    // A 5 s window timeout cannot meet a 100 ms SLO.
    let inner = StaticController::new(LambdaConfig::new(512, 32, 5.0), 0.1);
    let mut ctl = GracefulController::new(inner, 0.1);
    ctl.telemetry = hub.clone();
    let out = run_controller(&mut ctl, &trace, 0.0, 600.0, &opts);

    // Three violations engage the safe configuration, which meets the SLO
    // and re-arms the wrapper three intervals later, and so on.
    let transitions = sink.events_of_kind("controller.degradation");
    let index = |e: &Event| e.data["index"].as_u64().unwrap() as usize;
    let engaged: Vec<usize> = (transitions.iter())
        .filter(|e| e.data["engaged"].as_bool() == Some(true))
        .map(index)
        .collect();
    assert_eq!(engaged.len(), ctl.monitor.engagements());
    assert_eq!(engaged[0], 2, "the third violation engages");
    assert!(transitions.len() > engaged.len(), "the safe config re-arms");
    for e in &transitions {
        assert_eq!(e.data["at"].as_f64(), Some(out.records[index(e)].end));
    }

    // Each engagement dumps the ring: tagged, and naming only requests of
    // this run offered up to the interval that last engaged.
    let engaged_last = *engaged.last().unwrap();
    let offered: usize = out.measurements[..=engaged_last]
        .iter()
        .map(|m| m.requests)
        .sum();
    let flight = sink.events_of_kind("trace.flight");
    assert!(!flight.is_empty(), "the engagement dumped no flight events");
    for e in &flight {
        assert_eq!(e.data["why"].as_str(), Some("degradation"));
        assert!(e.data["trace"].as_u64().unwrap() < offered as u64);
    }
}
