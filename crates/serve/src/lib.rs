//! # dbat-serve
//!
//! A live, multi-threaded batching gateway for the DeepBAT policies —
//! the serving half of the paper's serverless-inference story, built
//! entirely on std primitives (threads + `Mutex`/`Condvar`, no async
//! runtime).
//!
//! ```text
//!  load generators ──▶ submit() ──▶ lane 0..N-1 ──▶ batcher threads
//!   (trace replay,      bounded, Block / Reject      one per lane, forms
//!    multi-producer)    backpressure, global cap     batches under (M,B,T)
//!                                                         │
//!  controller thread ── hot (M,B,T) reconfiguration ──────┤
//!   (DeepBAT, BATCH,    broadcast to every lane           ▼
//!    Static, Oracle)    at interval boundaries    work-stealing worker
//!                                                 pool · InferenceBackend
//! ```
//!
//! * [`Clock`] — the trait all gateway time flows through: [`WallClock`]
//!   (live, optionally time-scaled) and a virtual clock (deterministic
//!   replay).
//! * [`BatcherCore`] — the pure `(M, B, T)` window state machine. It
//!   lives in [`dbat_sim::window`], where the simulators drive it too, and
//!   is re-exported here; hot reconfiguration seals windows, never splits
//!   them.
//! * [`InferenceBackend`] — the pluggable executor; the default
//!   [`ProfiledBackend`] sleeps the calibrated `s(M, b)` and bills the
//!   simulator's pricing model.
//! * [`Gateway`] — N sharded batcher lanes with bounded admission and
//!   explicit backpressure, a work-stealing worker pool, a control thread
//!   running any [`dbat_sim::Controller`] (reconfigurations broadcast to
//!   every lane), graceful drain. Multi-class mode: configure
//!   [`GatewayConfig::groups`] with heterogeneous
//!   [`dbat_sim::FunctionGroup`]s and `submit` routes each [`Request`] to
//!   the lane serving its class, with per-class `serve.class.<i>.*`
//!   telemetry.
//! * [`VirtualGateway`] — the same core and backend under one
//!   single-threaded discrete-event loop (the closed-loop replay is the
//!   fixed one plus decision boundaries), **bitwise-equivalent** to
//!   [`dbat_sim::simulate_batching`] under the profiled backend
//!   (any lane count; `lanes = 1` is the anchored configuration).
//! * [`drive`] — open-loop trace replay against a live gateway, plus
//!   a multi-producer flat-out driver for the concurrency tests.
//! * [`ScriptedController`] — a controller replaying a fixed
//!   configuration script (predetermined reconfigurations for tests and
//!   ablations).
//!
//! Telemetry: live runs emit `serve.*` metrics (admission counters,
//! queue-depth gauge, flush-reason counters, reconfig events, per-batch
//! execution spans) through `dbat-telemetry` when enabled; the
//! deterministic replay is unsampled by design.

mod backend;
mod clock;
mod gateway;
mod loadgen;
mod outcome;
mod replay;
mod scripted;

pub use backend::{BatchPlan, InferenceBackend, ProfiledBackend};
pub use clock::{Clock, WallClock};
/// The window core lives in `dbat-sim`; re-exported so gateway callers
/// keep one import path.
pub use dbat_sim::window::{Admitted, BatcherCore, FlushReason, FormedBatch};
pub use gateway::{Admission, BackpressurePolicy, DrainMode, Gateway, GatewayConfig, Request};
pub use loadgen::{drive, drive_classed, drive_concurrent, LaneAssignment};
pub use outcome::{ServeCounts, ServeOutcome, ServedBatch, ServedRequest};
pub use replay::VirtualGateway;
pub use scripted::ScriptedController;
