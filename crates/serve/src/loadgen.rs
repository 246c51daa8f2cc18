//! Open-loop load generation: replay a trace's arrival timestamps
//! against a live gateway, paced by the gateway's own clock.
//!
//! Open-loop means the generator never waits for responses: it sleeps to
//! each timestamp and submits, exactly like the trace-driven simulations.
//! Rejected submissions are counted and dropped (the `retry_after_s`
//! hint is deliberately ignored — retrying would perturb the arrival
//! process being replayed). Time scaling is entirely the clock's
//! business: drive a [`crate::WallClock::with_speedup`] gateway to
//! compress hours of trace into seconds of wall time. Every pacing
//! thread drops the kernel timer slack first
//! (`clock::precise_timers`), so a request is offered when it is due and
//! not up to 50 µs later.

use crate::clock::precise_timers;
use crate::gateway::{Admission, Gateway, Request};
use dbat_workload::ClassedTrace;

/// Tally of one load-generation run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LoadStats {
    pub submitted: u64,
    pub accepted: u64,
    pub rejected: u64,
    /// Submissions refused because the gateway had closed; the generator
    /// stops at the first one.
    pub(crate) closed: u64,
}

/// The open-loop pacing loop: sleep to each due time on the gateway's
/// clock, submit, tally; stop at the first submission a closed gateway
/// refuses.
fn pace(gateway: &Gateway, due: impl Iterator<Item = (f64, Request)>) -> LoadStats {
    precise_timers();
    let clock = gateway.clock();
    let mut stats = LoadStats::default();
    for (t, req) in due {
        clock.sleep_until(t);
        stats.submitted += 1;
        match gateway.submit(req) {
            Admission::Accepted { .. } => stats.accepted += 1,
            Admission::Rejected { .. } => stats.rejected += 1,
            Admission::Closed => {
                stats.closed += 1;
                break;
            }
        }
    }
    stats
}

/// Replay `timestamps` (sorted, virtual seconds) into the gateway.
/// Blocks the calling thread until the last timestamp has been offered.
pub fn drive(gateway: &Gateway, timestamps: &[f64]) -> LoadStats {
    debug_assert!(
        timestamps.windows(2).all(|w| w[0] <= w[1]),
        "timestamps must be sorted"
    );
    pace(gateway, timestamps.iter().map(|&t| (t, Request::default())))
}

/// Replay a class-tagged trace into the gateway: each arrival is
/// submitted as its labelled class, so a grouped gateway routes it to
/// the function group serving that class. Same open-loop discipline as
/// [`drive`].
pub fn drive_classed(gateway: &Gateway, trace: &ClassedTrace) -> LoadStats {
    let timestamps = trace.trace().timestamps().iter();
    let due = timestamps
        .zip(trace.labels())
        .map(|(&t, &c)| (t, Request::of_class(c)));
    pace(gateway, due)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::ProfiledBackend;
    use crate::clock::WallClock;
    use crate::gateway::{BackpressurePolicy, DrainMode, GatewayConfig};
    use dbat_sim::LambdaConfig;
    use std::sync::Arc;

    #[test]
    fn drives_a_short_trace_to_completion() {
        let cfg = GatewayConfig {
            initial: LambdaConfig::new(2048, 4, 0.01),
            queue_capacity: 128,
            backpressure: BackpressurePolicy::Block,
            workers: 2,
            ..GatewayConfig::default()
        };
        let gw = crate::gateway::Gateway::start(
            cfg,
            Arc::new(WallClock::with_speedup(100.0)),
            Arc::new(ProfiledBackend::default()),
        );
        let ts: Vec<f64> = (0..30).map(|i| i as f64 * 0.05).collect();
        let stats = drive(&gw, &ts);
        assert_eq!(stats.submitted, 30);
        assert_eq!(stats.accepted, 30);
        assert_eq!(stats.rejected + stats.closed, 0);
        let out = gw.shutdown(DrainMode::Graceful);
        assert_eq!(out.counts.completed, 30);
        assert!(out.counts.conserved());
        // Arrival stamps respect the requested pacing (never early).
        for (r, &t) in out.requests.iter().zip(&ts) {
            assert!(r.arrival + 1e-9 >= t, "arrived {} before {}", r.arrival, t);
        }
    }

    #[test]
    fn classed_drive_routes_by_label_through_a_grouped_gateway() {
        use dbat_sim::FunctionGroup;
        use dbat_workload::Trace;
        let cfg = GatewayConfig {
            queue_capacity: 256,
            backpressure: BackpressurePolicy::Block,
            workers: 2,
            groups: vec![
                FunctionGroup::new(LambdaConfig::new(3008, 1, 0.0), vec![0]),
                FunctionGroup::new(LambdaConfig::new(1024, 8, 0.005), vec![1]),
            ],
            ..GatewayConfig::default()
        };
        let gw = crate::gateway::Gateway::start(
            cfg,
            Arc::new(WallClock::with_speedup(200.0)),
            Arc::new(ProfiledBackend::default()),
        );
        let ts: Vec<f64> = (0..40).map(|i| i as f64 * 0.02).collect();
        let labels = (0..40).map(|i| (i % 2) as u16).collect();
        let classed = ClassedTrace::new(Trace::new(ts, 1.0), labels).unwrap();
        let stats = drive_classed(&gw, &classed);
        assert_eq!(stats.accepted, 40);
        let out = gw.shutdown(DrainMode::Graceful);
        assert!(out.counts.conserved());
        assert_eq!(out.completed_by_class(), vec![20, 20]);
        for r in &out.requests {
            assert_eq!(r.lane, r.class as u32, "class routed to its group lane");
        }
    }
}
