//! A request's admit-to-complete overhead above its modelled service
//! time, from public [`dbat_serve::ServeOutcome`] fields only:
//!
//! ```text
//! overhead = (arrival - due)                               generator + admission
//!          + (batch.dispatched_at - ideal_flush)           window lag
//!          + (batch.completed_at - batch.dispatched_at     dispatch + execution lag
//!             - batch.service_s)
//! ```
//!
//! `ideal_flush` is when the window should have left the buffer: the last
//! member's arrival for a capacity flush, `opened_at + T` for a timeout
//! flush, and the dispatch stamp itself for a drain (a drain has no
//! schedule to be late against).

use dbat_serve::{FlushReason, ServedBatch};

pub fn ideal_flush(batch: &ServedBatch, last_member_arrival: f64) -> f64 {
    match batch.reason {
        FlushReason::Capacity => last_member_arrival,
        FlushReason::Timeout => batch.opened_at + batch.config.timeout_s,
        FlushReason::Drain => batch.dispatched_at,
    }
}

/// The three stages of one request's overhead, in seconds.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Stages {
    /// `arrival - due`: how late the request entered the gateway.
    pub admit_lag: f64,
    /// `dispatched_at - ideal_flush`: how late its window flushed.
    pub window_lag: f64,
    /// `completed_at - dispatched_at - service_s`: queueing for a worker,
    /// wake-ups and sleep overshoot around the modelled service time.
    pub exec_lag: f64,
}

impl Stages {
    pub fn of(due: f64, arrival: f64, batch: &ServedBatch, last_member_arrival: f64) -> Self {
        Stages {
            admit_lag: arrival - due,
            window_lag: batch.dispatched_at - ideal_flush(batch, last_member_arrival),
            exec_lag: batch.completed_at - batch.dispatched_at - batch.service_s,
        }
    }

    pub fn overhead(&self) -> f64 {
        self.admit_lag + self.window_lag + self.exec_lag
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbat_sim::LambdaConfig;

    fn batch(reason: FlushReason) -> ServedBatch {
        ServedBatch {
            opened_at: 1.000,
            dispatched_at: 1.060,
            completed_at: 1.175,
            size: 4,
            service_s: 0.100,
            cost: 1e-6,
            config: LambdaConfig::new(2048, 4, 0.050),
            reason,
            lane: 0,
        }
    }

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-12
    }

    #[test]
    fn capacity_flush_is_due_at_the_last_members_arrival() {
        let b = batch(FlushReason::Capacity);
        assert_eq!(ideal_flush(&b, 1.055), 1.055);
        let s = Stages::of(1.010, 1.012, &b, 1.055);
        assert!(close(s.admit_lag, 0.002));
        assert!(close(s.window_lag, 0.005));
        assert!(close(s.exec_lag, 0.015));
        assert!(close(s.overhead(), 0.022));
    }

    #[test]
    fn timeout_flush_is_due_at_open_plus_timeout() {
        let b = batch(FlushReason::Timeout);
        assert!(close(ideal_flush(&b, 1.020), 1.050));
        let s = Stages::of(1.000, 1.000, &b, 1.020);
        assert!(close(s.window_lag, 0.010));
        assert!(close(s.overhead(), 0.010 + 0.015));
    }

    #[test]
    fn drain_flush_has_no_window_lag() {
        let b = batch(FlushReason::Drain);
        assert_eq!(ideal_flush(&b, 1.020), b.dispatched_at);
        let s = Stages::of(0.999, 1.000, &b, 1.020);
        assert_eq!(s.window_lag, 0.0);
        assert!(close(s.overhead(), 0.001 + 0.015));
    }
}
