//! Causal request tracing: a lightweight `TraceId`/`SpanId` event model
//! recorded into lock-cheap per-thread buffers, plus a fixed-size flight
//! recorder for post-mortems.
//!
//! A trace follows one request through the serving path:
//! `Admit → Enqueue → WindowJoin → (Flush) → Dispatch → Complete`, where
//! `Flush` is a batch-level event carrying the [`FlushKind`] and batch
//! size. Events are stamped in **virtual seconds** (whatever clock the
//! emitter runs on — the serve `Clock` trait for the gateway, simulated
//! time for the simulator and the replay), never wall time, so traces
//! from a deterministic replay are themselves deterministic and diffable.
//!
//! Two independent consumers can be armed on a [`Tracer`]:
//!
//! * **capture** — every recorded event is appended to a per-thread
//!   buffer; [`Tracer::drain`] merges the buffers into one deterministic,
//!   time-sorted stream. Buffers grow until drained, so capture is meant
//!   for bounded runs (tests, replays, benchmarks).
//! * **flight recorder** — a fixed-size ring of the most recent events,
//!   safe to leave armed on a long-lived gateway; it costs one short
//!   mutex hold per event while healthy and is dumped to the event sinks
//!   only on degradation engage or drain.
//!
//! When neither consumer is armed, [`Tracer::record_many`] is a single relaxed
//! atomic load and an early return.

use serde::{Deserialize, Serialize};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Identity of one request as it flows through the system; in the serving
/// path this is the gateway-assigned dense request id.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TraceId(pub u64);

/// Identity of one batching window / dispatched batch; in the serving
/// path this is the dense batch index shared with `ServedBatch`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SpanId(pub u64);

// The vendored serde derive handles named-field structs and unit enums
// only, so the newtype ids serialize by hand (as plain numbers).
impl Serialize for TraceId {
    fn serialize(&self) -> serde::Value {
        self.0.serialize()
    }
}

impl Deserialize for TraceId {
    fn deserialize(v: &serde::Value) -> Result<Self, serde::Error> {
        u64::deserialize(v).map(TraceId)
    }
}

impl Serialize for SpanId {
    fn serialize(&self) -> serde::Value {
        self.0.serialize()
    }
}

impl Deserialize for SpanId {
    fn deserialize(v: &serde::Value) -> Result<Self, serde::Error> {
        u64::deserialize(v).map(SpanId)
    }
}

/// Lifecycle stage of a traced request. The declaration order is the
/// causal order; `rank` exposes it for sorting.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum TraceStage {
    /// The gateway accepted the request (assigned it an id).
    Admit,
    /// The request entered the admission queue.
    Enqueue,
    /// The batcher placed the request into an open window.
    WindowJoin,
    /// The window sealed (batch-level event; carries reason and size).
    Flush,
    /// The batch was handed to a worker / the simulated backend.
    Dispatch,
    /// One continuous-batching decode step ran with this request active
    /// (token-aware disciplines only; anchored on the step's first
    /// active request, sized with the step cohort).
    DecodeStep,
    /// The request's response left the system.
    Complete,
}

impl TraceStage {
    /// Causal position, for deterministic tie-breaking at equal times.
    pub(crate) fn rank(self) -> u8 {
        match self {
            TraceStage::Admit => 0,
            TraceStage::Enqueue => 1,
            TraceStage::WindowJoin => 2,
            TraceStage::Flush => 3,
            TraceStage::Dispatch => 4,
            TraceStage::DecodeStep => 5,
            TraceStage::Complete => 6,
        }
    }
}

/// Why a window sealed. Mirrors the serve layer's `FlushReason` without
/// depending on it (the dependency points the other way).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum FlushKind {
    /// The B-th request arrived.
    Capacity,
    /// The window timeout expired.
    Timeout,
    /// Shutdown / reconfiguration drain sealed a partial window.
    Drain,
}

/// The live `(M, B, T)` serverless configuration attached to trace
/// events, so a post-mortem can see which config shaped each batch.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct TraceConfig {
    pub memory_mb: u32,
    pub batch_size: u32,
    pub timeout_s: f64,
    /// The function group this config belongs to (0 outside multi-SLO
    /// grouped serving, where each group runs its own `(M,B,T)`).
    pub group: u32,
}

/// One trace event. `Copy` and allocation-free so recording never touches
/// the heap beyond the buffer push.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct TraceEvent {
    pub trace: TraceId,
    /// The batching window / batch this event belongs to, once known.
    pub(crate) span: Option<SpanId>,
    pub stage: TraceStage,
    /// Virtual seconds on the emitter's clock — never wall time.
    pub t: f64,
    /// Live `(M,B,T)` config, attached from `WindowJoin` onward.
    pub config: Option<TraceConfig>,
    /// Flush reason, attached to `Flush` and `Dispatch`.
    pub reason: Option<FlushKind>,
    /// Batch size, attached to `Flush`.
    pub size: Option<u32>,
    /// Batcher lane that carried the request (0 in unsharded runs).
    pub lane: u32,
}

impl TraceEvent {
    pub fn new(trace: TraceId, stage: TraceStage, t: f64) -> Self {
        TraceEvent {
            trace,
            span: None,
            stage,
            t,
            config: None,
            reason: None,
            size: None,
            lane: 0,
        }
    }

    pub fn with_span(mut self, span: SpanId) -> Self {
        self.span = Some(span);
        self
    }

    pub fn with_config(mut self, config: TraceConfig) -> Self {
        self.config = Some(config);
        self
    }

    pub fn with_reason(mut self, reason: FlushKind) -> Self {
        self.reason = Some(reason);
        self
    }

    pub fn with_size(mut self, size: u32) -> Self {
        self.size = Some(size);
        self
    }

    pub fn with_lane(mut self, lane: u32) -> Self {
        self.lane = lane;
        self
    }

    /// Deterministic total order: time, then request, then causal stage,
    /// then span. Equal-time events of one request always appear in
    /// lifecycle order regardless of which thread recorded them.
    pub fn sort_key(&self) -> (f64, u64, u8, u64) {
        (
            self.t,
            self.trace.0,
            self.stage.rank(),
            self.span.map(|s| s.0).unwrap_or(u64::MAX),
        )
    }
}

/// One thread's append-only event buffer. The mutex is uncontended in
/// steady state: only the owning thread pushes; `drain` takes it briefly.
#[derive(Default)]
struct ThreadBuffer {
    events: Mutex<Vec<TraceEvent>>,
}

struct FlightRing {
    cap: usize,
    buf: VecDeque<TraceEvent>,
}

/// Per-tracer monotone identity, so thread-local buffer caches never
/// alias across hub instances (test hubs come and go at reused
/// addresses).
static NEXT_TRACER_ID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    /// (tracer id, buffer) cache: one entry per tracer this thread has
    /// recorded into. Tiny in practice (one or two tracers per process).
    /// Holds `Weak` so the cache never outlives a dropped hub's buffers
    /// (each can retain megabytes of capacity after a drain); the owning
    /// `Tracer` keeps the strong reference, and dead entries are pruned
    /// whenever a new tracer registers.
    static LOCAL: std::cell::RefCell<Vec<(u64, std::sync::Weak<ThreadBuffer>)>> =
        const { std::cell::RefCell::new(Vec::new()) };
}

/// Records [`TraceEvent`]s into per-thread buffers and/or a fixed-size
/// flight ring. Owned by a [`crate::Telemetry`] hub; reach it through
/// [`crate::Telemetry::tracer`].
pub struct Tracer {
    id: u64,
    /// Fast gate: true iff capture or the flight ring is armed.
    active: AtomicBool,
    capture: AtomicBool,
    buffers: Mutex<Vec<Arc<ThreadBuffer>>>,
    flight: Mutex<Option<FlightRing>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    pub(crate) fn new() -> Self {
        Tracer {
            id: NEXT_TRACER_ID.fetch_add(1, Ordering::Relaxed),
            active: AtomicBool::new(false),
            capture: AtomicBool::new(false),
            buffers: Mutex::new(Vec::new()),
            flight: Mutex::new(None),
        }
    }

    fn refresh_active(&self) {
        let on = self.capture.load(Ordering::Relaxed) || self.flight.lock().unwrap().is_some();
        self.active.store(on, Ordering::Relaxed);
    }

    // ---- arming -----------------------------------------------------

    /// Arm full capture: every recorded event is kept until [`drain`].
    ///
    /// [`drain`]: Tracer::drain
    pub fn enable_capture(&self) {
        self.capture.store(true, Ordering::Relaxed);
        self.refresh_active();
    }

    /// Arm the flight recorder with space for the most recent `capacity`
    /// events; `capacity == 0` disarms it.
    pub fn enable_flight(&self, capacity: usize) {
        {
            let mut f = self.flight.lock().unwrap();
            *f = if capacity == 0 {
                None
            } else {
                Some(FlightRing {
                    cap: capacity,
                    buf: VecDeque::with_capacity(capacity),
                })
            };
        }
        self.refresh_active();
    }

    pub fn disable_flight(&self) {
        self.enable_flight(0);
    }

    /// The no-op gate: false means [`Tracer::record_many`] returns after
    /// one relaxed load. Call sites building non-trivial events should check
    /// it first.
    #[inline]
    pub fn is_active(&self) -> bool {
        self.active.load(Ordering::Relaxed)
    }

    // ---- recording --------------------------------------------------

    /// Record a slice of events in one shot: the thread-local lookup, the
    /// capture-buffer lock, and the flight-ring lock are each taken once
    /// per call instead of once per event. Hot paths that emit several
    /// events per request (admission pairs, whole batch settlements)
    /// should stage into a local `Vec` and submit it here.
    pub fn record_many(&self, events: &[TraceEvent]) {
        if events.is_empty() || !self.is_active() {
            return;
        }
        if self.capture.load(Ordering::Relaxed) {
            LOCAL.with(|cell| {
                let mut cache = cell.borrow_mut();
                // A matching id always upgrades: `self` is alive and its
                // `buffers` list holds the strong reference.
                if let Some(buf) = cache
                    .iter()
                    .find(|(id, _)| *id == self.id)
                    .and_then(|(_, w)| w.upgrade())
                {
                    buf.events.lock().unwrap().extend_from_slice(events);
                    return;
                }
                // Registering against a new tracer: drop cache entries
                // whose hubs are gone so their buffers actually free.
                cache.retain(|(_, w)| w.strong_count() > 0);
                let buf = Arc::new(ThreadBuffer::default());
                buf.events.lock().unwrap().extend_from_slice(events);
                self.buffers.lock().unwrap().push(buf.clone());
                cache.push((self.id, Arc::downgrade(&buf)));
            });
        }
        if let Some(ring) = self.flight.lock().unwrap().as_mut() {
            if events.len() >= ring.cap {
                // The slice alone fills the ring: keep exactly its tail.
                ring.buf.clear();
                ring.buf.extend(&events[events.len() - ring.cap..]);
            } else {
                let overflow = (ring.buf.len() + events.len()).saturating_sub(ring.cap);
                ring.buf.drain(..overflow);
                ring.buf.extend(events);
            }
        }
    }

    // ---- consuming --------------------------------------------------

    /// Take every captured event, merged across threads and sorted by
    /// [`TraceEvent::sort_key`]. The per-thread buffers stay registered,
    /// so this is cheap to call repeatedly.
    pub fn drain(&self) -> Vec<TraceEvent> {
        let mut out = Vec::new();
        for buf in self.buffers.lock().unwrap().iter() {
            out.append(&mut buf.events.lock().unwrap());
        }
        out.sort_by(|a, b| {
            a.sort_key()
                .partial_cmp(&b.sort_key())
                .expect("trace timestamps are never NaN")
        });
        out
    }

    /// Take the flight ring's contents, oldest first, leaving it armed
    /// but empty.
    pub fn take_flight(&self) -> Vec<TraceEvent> {
        self.flight
            .lock()
            .unwrap()
            .as_mut()
            .map(|r| r.buf.drain(..).collect())
            .unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(id: u64, stage: TraceStage, t: f64) -> TraceEvent {
        TraceEvent::new(TraceId(id), stage, t)
    }

    #[test]
    fn inactive_tracer_records_nothing() {
        let tr = Tracer::new();
        assert!(!tr.is_active());
        tr.record_many(&[ev(0, TraceStage::Admit, 0.0)]);
        assert!(tr.drain().is_empty());
        assert!(tr.take_flight().is_empty());
    }

    #[test]
    fn capture_drains_sorted_by_time_then_stage() {
        let tr = Tracer::new();
        tr.enable_capture();
        tr.record_many(&[ev(1, TraceStage::Complete, 2.0)]);
        tr.record_many(&[ev(1, TraceStage::Admit, 0.5)]);
        // Same timestamp: causal stage order must win.
        tr.record_many(&[ev(2, TraceStage::Enqueue, 1.0)]);
        tr.record_many(&[ev(2, TraceStage::Admit, 1.0)]);
        let out = tr.drain();
        assert_eq!(out.len(), 4);
        assert_eq!(out[0].stage, TraceStage::Admit);
        assert_eq!(out[0].trace, TraceId(1));
        assert_eq!(out[1].stage, TraceStage::Admit);
        assert_eq!(out[1].trace, TraceId(2));
        assert_eq!(out[2].stage, TraceStage::Enqueue);
        assert_eq!(out[3].stage, TraceStage::Complete);
        // Drain empties the buffers.
        assert!(tr.drain().is_empty());
    }

    #[test]
    fn capture_merges_across_threads() {
        let tr = Arc::new(Tracer::new());
        tr.enable_capture();
        let mut handles = Vec::new();
        for k in 0..4u64 {
            let tr = tr.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..100u64 {
                    tr.record_many(&[ev(k * 100 + i, TraceStage::Admit, (k * 100 + i) as f64)]);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let out = tr.drain();
        assert_eq!(out.len(), 400);
        for (i, e) in out.iter().enumerate() {
            assert_eq!(e.trace, TraceId(i as u64), "events merged out of order");
        }
    }

    #[test]
    fn flight_ring_keeps_only_the_most_recent() {
        let tr = Tracer::new();
        tr.enable_flight(3);
        assert!(tr.is_active());
        for i in 0..10u64 {
            tr.record_many(&[ev(i, TraceStage::Admit, i as f64)]);
        }
        let snap = tr.take_flight();
        assert_eq!(snap.len(), 3);
        assert_eq!(snap[0].trace, TraceId(7));
        assert_eq!(snap[2].trace, TraceId(9));
        // Take leaves the ring armed but empty.
        assert!(tr.take_flight().is_empty());
        assert!(tr.is_active());
        tr.disable_flight();
        assert!(!tr.is_active());
    }

    #[test]
    fn record_many_matches_event_by_event_semantics() {
        let batch: Vec<TraceEvent> = (0..10u64)
            .map(|i| ev(i, TraceStage::Admit, i as f64))
            .collect();
        // Capture: bulk and one-at-a-time drains are identical.
        let (a, b) = (Tracer::new(), Tracer::new());
        a.enable_capture();
        b.enable_capture();
        a.record_many(&batch);
        for e in &batch {
            b.record_many(&[*e]);
        }
        assert_eq!(a.drain(), b.drain());
        // Ring smaller than the slice: keeps exactly the tail.
        let tr = Tracer::new();
        tr.enable_flight(3);
        tr.record_many(&batch);
        let snap = tr.take_flight();
        assert_eq!(snap.len(), 3);
        assert_eq!(snap[0].trace, TraceId(7));
        assert_eq!(snap[2].trace, TraceId(9));
        // Partial overflow: old entries evicted, order preserved.
        tr.record_many(&batch);
        tr.record_many(&batch[..2]);
        let snap = tr.take_flight();
        assert_eq!(snap[0].trace, TraceId(9));
        assert_eq!(snap[1].trace, TraceId(0));
        assert_eq!(snap[2].trace, TraceId(1));
    }

    #[test]
    fn two_tracers_do_not_alias_thread_buffers() {
        let a = Tracer::new();
        let b = Tracer::new();
        a.enable_capture();
        b.enable_capture();
        a.record_many(&[ev(1, TraceStage::Admit, 0.0)]);
        b.record_many(&[ev(2, TraceStage::Admit, 0.0)]);
        b.record_many(&[ev(3, TraceStage::Admit, 1.0)]);
        assert_eq!(a.drain().len(), 1);
        assert_eq!(b.drain().len(), 2);
    }

    #[test]
    fn trace_event_serde_round_trip() {
        let e = TraceEvent::new(TraceId(7), TraceStage::Flush, 1.25)
            .with_span(SpanId(3))
            .with_config(TraceConfig {
                memory_mb: 2048,
                batch_size: 8,
                timeout_s: 0.05,
                group: 1,
            })
            .with_reason(FlushKind::Timeout)
            .with_size(5)
            .with_lane(3);
        let v = crate::serde_json::to_value(&e);
        let back: TraceEvent = crate::serde_json::from_value(v).unwrap();
        assert_eq!(back, e);
    }
}
