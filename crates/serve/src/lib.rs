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
//!    Static, Oracle)    at interval boundaries    one shared ready queue
//!                                                 ──▶ worker pool
//!                                                 · InferenceBackend
//! ```
//!
//! * [`Clock`] — the trait all live gateway time flows through;
//!   [`WallClock`] is real time, optionally scaled.
//! * [`BatcherCore`] — the pure `(M, B, T)` window state machine. It
//!   lives in [`dbat_sim::window`], where the simulators drive it too, and
//!   is re-exported here; hot reconfiguration seals windows, never splits
//!   them.
//! * [`InferenceBackend`] — the pluggable executor; the default
//!   [`ProfiledBackend`] sleeps the calibrated `s(M, b)` and bills the
//!   simulator's pricing model.
//! * [`Gateway`] — N sharded batcher lanes with bounded admission and
//!   explicit backpressure, one ready queue that any worker of the pool
//!   takes the oldest formed batch from, a control thread
//!   running any [`dbat_sim::Controller`] (reconfigurations broadcast to
//!   every lane), graceful drain. Multi-class mode: configure
//!   [`GatewayConfig::groups`] with heterogeneous
//!   [`dbat_sim::FunctionGroup`]s and `submit` routes each [`Request`] to
//!   the lane serving its class, with per-class `serve.class.<i>.*`
//!   telemetry.
//! * [`VirtualGateway`] — the same core and the profiled backend's
//!   arithmetic run as `dbat_sim`'s one offline window walk (the
//!   closed-loop replay is the fixed one plus decision boundaries), so it
//!   is **bitwise-equivalent** to [`dbat_sim::simulate_batching`]; it has
//!   one batcher core (no lanes). Both gateways file each served batch —
//!   records, cost, trace events — through one settle
//!   (`outcome::Ledger::settle`), so their outcomes are built one way.
//! * [`drive`] — open-loop trace replay against a live gateway, plus
//!   a multi-producer flat-out driver for the concurrency tests.
//! * [`ScriptedController`] — a controller replaying a fixed
//!   configuration script (predetermined reconfigurations for tests and
//!   ablations).
//!
//! Telemetry: live runs emit `serve.*` metrics (admission counters,
//! queue-depth gauge, flush-reason counters, reconfig events, per-batch
//! execution spans) through `dbat-telemetry` when enabled; the
//! deterministic replay emits none of them (its window walk counts the
//! `sim.*` walk metrics, as every simulator does).

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
