//! The faulted closed loop's causal trace. Its own test binary: it arms
//! capture on the process-global tracer, which `run_controller` records
//! through, so no other test may record into it at the same time.

use deepbat::prelude::*;
use deepbat::sim::ThrottleFault;
use std::collections::HashMap;

/// A request the fault model sheds or retries out is lost: it gets its
/// `Admit` and `Enqueue` events and nothing else. It is never dispatched
/// or completed (at t = 0 or at all), and it never anchors a batch's
/// `Flush`.
#[test]
fn lost_requests_are_traced_as_admitted_and_never_completed() {
    let trace = TraceKind::AzureLike.generate_for(11, 120.0);
    let mut opts = SimConfig::new(0.1);
    opts.faults = FaultPlan::builder()
        .seed(3)
        .throttle(ThrottleFault {
            max_concurrency: 1,
            queue_capacity: 1,
        })
        .build()
        .unwrap();
    let mut ctl = StaticController::new(LambdaConfig::new(1024, 1, 0.0), 0.1);

    let tracer = telemetry().tracer();
    tracer.enable_capture();
    let run = run_controller(&mut ctl, &trace, 0.0, 120.0, &opts);
    let events = tracer.drain();

    let offered: usize = run.measurements.iter().map(|m| m.requests).sum();
    let lost = run.counts.lost_requests();
    assert_eq!(offered, trace.len());
    assert!(lost > 0, "the throttle must shed requests");
    let count = |stage: TraceStage| events.iter().filter(|e| e.stage == stage).count();
    assert_eq!(count(TraceStage::Admit), offered);
    assert_eq!(count(TraceStage::Enqueue), offered);
    assert_eq!(
        count(TraceStage::Complete),
        offered - lost,
        "one per served"
    );
    assert_eq!(count(TraceStage::Dispatch), offered - lost);

    let admitted: HashMap<_, f64> = events
        .iter()
        .filter(|e| e.stage == TraceStage::Admit)
        .map(|e| (e.trace, e.t))
        .collect();
    let completed: HashMap<_, f64> = events
        .iter()
        .filter(|e| e.stage == TraceStage::Complete)
        .map(|e| (e.trace, e.t))
        .collect();
    for (id, &done) in &completed {
        let admit = admitted[id];
        assert!(
            done >= admit,
            "{id:?} completed at {done} before its admission at {admit}"
        );
    }
    for flush in events.iter().filter(|e| e.stage == TraceStage::Flush) {
        assert!(
            completed.contains_key(&flush.trace),
            "{:?} anchors a flush but was never served",
            flush.trace
        );
    }
}
