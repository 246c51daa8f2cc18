//! A small discrete-event simulation core: a time-ordered event queue with
//! deterministic FIFO tie-breaking and a driver loop.
//!
//! The fault simulator and `dbat-serve`'s virtual replay run on it, each
//! with its own event type. (Plain `simulate_batching` needs no queue: the
//! window core flushes timeouts as the arrival walk passes them.)

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
/// before the current simulation time panics (debug) / clamps (release).
pub struct Scheduler<E> {
    heap: BinaryHeap<Entry<E>>,
    seq: u64,
    now: f64,
    /// Telemetry counter for events clamped into the present (resolved
    /// once at construction; `None` when telemetry is disabled).
    clamped: Option<Arc<Counter>>,
}

impl<E> Default for Scheduler<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> Scheduler<E> {
    pub fn new() -> Self {
        Scheduler {
            heap: BinaryHeap::new(),
            seq: 0,
            now: 0.0,
            clamped: dbat_telemetry::global().counter_if_enabled("sim.clamped_events"),
        }
    }

    /// Current simulation time (time of the last popped event).
    pub fn now(&self) -> f64 {
        self.now
    }

    pub fn len(&self) -> usize {
        self.heap.len()
    }

    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Schedule `event` at absolute time `t`.
    pub fn schedule(&mut self, t: f64, event: E) {
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
    pub fn pop(&mut self) -> Option<(f64, E)> {
        self.heap.pop().map(|e| {
            self.now = e.time;
            (e.time, e.event)
        })
    }
}

/// Drain the scheduler, invoking `handler` on each event in time order.
/// The handler may schedule further events.
pub fn run<E>(sched: &mut Scheduler<E>, mut handler: impl FnMut(f64, E, &mut Scheduler<E>)) {
    while let Some((t, ev)) = sched.pop() {
        // Temporarily move the event out so the handler can schedule freely.
        handler(t, ev, sched);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut s = Scheduler::new();
        s.schedule(3.0, "c");
        s.schedule(1.0, "a");
        s.schedule(2.0, "b");
        let mut seen = Vec::new();
        run(&mut s, |t, e, _| seen.push((t, e)));
        assert_eq!(seen, vec![(1.0, "a"), (2.0, "b"), (3.0, "c")]);
    }

    #[test]
    fn simultaneous_events_fifo() {
        let mut s = Scheduler::new();
        s.schedule(1.0, 1);
        s.schedule(1.0, 2);
        s.schedule(1.0, 3);
        let mut seen = Vec::new();
        run(&mut s, |_, e, _| seen.push(e));
        assert_eq!(seen, vec![1, 2, 3]);
    }

    #[test]
    fn handler_can_schedule_more() {
        let mut s = Scheduler::new();
        s.schedule(0.0, 0u32);
        let mut count = 0;
        run(&mut s, |t, e, sch| {
            count += 1;
            if e < 5 {
                sch.schedule(t + 1.0, e + 1);
            }
        });
        assert_eq!(count, 6);
        assert_eq!(s.now(), 5.0);
    }

    #[test]
    fn clock_advances_monotonically() {
        let mut s = Scheduler::new();
        s.schedule(5.0, ());
        s.schedule(2.0, ());
        let mut prev = f64::NEG_INFINITY;
        run(&mut s, |t, _, _| {
            assert!(t >= prev);
            prev = t;
        });
    }

    #[test]
    fn empty_scheduler() {
        let mut s: Scheduler<()> = Scheduler::new();
        assert!(s.is_empty());
        assert_eq!(s.pop(), None);
        assert_eq!(s.now(), 0.0);
    }
}
