//! A small future-event list: a time-ordered event queue with
//! deterministic FIFO tie-breaking.
//!
//! Only the fault simulator's service stage runs on it (attempt ends and
//! retries). Window formation needs no queue: the window walk flushes
//! timeouts as it passes them.

use dbat_telemetry::Counter;
use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::sync::Arc;

struct Entry<E> {
    time: f64,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<E> Eq for Entry<E> {}
impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse: BinaryHeap is a max-heap, we want earliest-first, and FIFO
        // (lowest sequence number) among simultaneous events.
        other
            .time
            .total_cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// A future-event list. Time never goes backwards: scheduling an event
/// before the last popped time panics (debug) / clamps (release).
pub(crate) struct Scheduler<E> {
    heap: BinaryHeap<Entry<E>>,
    seq: u64,
    now: f64,
    /// Telemetry counter for events clamped into the present (resolved
    /// once at construction; `None` when telemetry is disabled).
    clamped: Option<Arc<Counter>>,
}

impl<E> Scheduler<E> {
    /// An empty queue with no past: any finite time may be scheduled
    /// until the first pop.
    pub(crate) fn new() -> Self {
        Scheduler {
            heap: BinaryHeap::new(),
            seq: 0,
            now: f64::NEG_INFINITY,
            clamped: dbat_telemetry::global().counter_if_enabled("sim.clamped_events"),
        }
    }

    /// Schedule `event` at absolute time `t`.
    pub(crate) fn schedule(&mut self, t: f64, event: E) {
        debug_assert!(t.is_finite(), "event time must be finite");
        debug_assert!(
            t >= self.now,
            "cannot schedule into the past: {t} < {}",
            self.now
        );
        if t < self.now {
            // Release builds clamp instead of panicking; the counter makes
            // that silent repair observable.
            if let Some(c) = &self.clamped {
                c.inc();
            }
        }
        let t = t.max(self.now);
        self.heap.push(Entry {
            time: t,
            seq: self.seq,
            event,
        });
        self.seq += 1;
    }

    /// Pop the earliest event, advancing the clock.
    pub(crate) fn pop(&mut self) -> Option<(f64, E)> {
        self.heap.pop().map(|e| {
            self.now = e.time;
            (e.time, e.event)
        })
    }

    /// Pop the earliest event if it falls strictly before `bound`.
    pub(crate) fn pop_before(&mut self, bound: f64) -> Option<(f64, E)> {
        if self.heap.peek()?.time < bound {
            self.pop()
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain<E>(s: &mut Scheduler<E>) -> Vec<(f64, E)> {
        std::iter::from_fn(|| s.pop()).collect()
    }

    #[test]
    fn pops_in_time_order() {
        let mut s = Scheduler::new();
        s.schedule(3.0, "c");
        s.schedule(1.0, "a");
        s.schedule(2.0, "b");
        assert_eq!(drain(&mut s), vec![(1.0, "a"), (2.0, "b"), (3.0, "c")]);
    }

    #[test]
    fn simultaneous_events_fifo() {
        let mut s = Scheduler::new();
        s.schedule(1.0, 1);
        s.schedule(1.0, 2);
        s.schedule(1.0, 3);
        assert_eq!(drain(&mut s), vec![(1.0, 1), (1.0, 2), (1.0, 3)]);
    }

    #[test]
    fn events_scheduled_while_popping_run_in_order() {
        let mut s = Scheduler::new();
        s.schedule(0.0, 0u32);
        let mut count = 0;
        while let Some((t, e)) = s.pop() {
            count += 1;
            if e < 5 {
                s.schedule(t + 1.0, e + 1);
            }
        }
        assert_eq!(count, 6);
        assert_eq!(s.now, 5.0);
    }

    #[test]
    fn clock_advances_monotonically() {
        let mut s = Scheduler::new();
        s.schedule(5.0, ());
        s.schedule(2.0, ());
        let mut prev = f64::NEG_INFINITY;
        while let Some((t, ())) = s.pop() {
            assert!(t >= prev);
            prev = t;
        }
    }

    #[test]
    fn pop_before_is_strict() {
        let mut s = Scheduler::new();
        s.schedule(1.0, "a");
        s.schedule(2.0, "b");
        assert_eq!(s.pop_before(1.0), None);
        assert_eq!(s.pop_before(2.0), Some((1.0, "a")));
        assert_eq!(s.pop_before(2.0), None);
        assert_eq!(s.pop_before(f64::INFINITY), Some((2.0, "b")));
    }

    #[test]
    fn empty_scheduler() {
        let mut s: Scheduler<()> = Scheduler::new();
        assert!(s.heap.is_empty());
        assert_eq!(s.pop(), None);
        assert_eq!(s.pop_before(f64::INFINITY), None);
        assert_eq!(s.now, f64::NEG_INFINITY);
    }
}
