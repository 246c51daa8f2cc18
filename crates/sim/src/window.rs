//! The windowed-batching core: the one place the paper's buffer rule
//! (§III-B) is written.
//!
//! A window opens when a request enters the empty buffer and dispatches at
//! `min(arrival of the B-th request, open + T)`. [`BatcherCore`] is that
//! rule as a pure, clock-free state machine: callers hand it every
//! arrival with its timestamp and tell it when time has passed, and it
//! hands back [`FormedBatch`]es. It has two drivers: [`walk_windows`], the
//! one plain loop over a finite arrival sequence under one configuration
//! that every offline driver shares — [`crate::simulate_batching`],
//! [`crate::simulate_tokens_windowed`], [`crate::simulate_faults`] and
//! `dbat-serve`'s `VirtualGateway` differ only in how they serve a formed
//! batch — and the live gateway's batcher threads, which wake on its
//! deadlines and rotate at decision boundaries. So they agree on window
//! membership and dispatch stamps by construction.
//!
//! Timeout flushes are stamped at the *deadline*, not at the observation
//! time, so a driver that looks late (a batcher thread that overslept, a
//! simulator that only looks at the next arrival) still produces the
//! dispatch times an exact event loop would. An arrival at exactly
//! `open + T` joins the window before it flushes.
//!
//! Hot reconfiguration is modelled by [`BatcherCore::rotate`]: the
//! currently open window is **sealed** — it keeps its original
//! configuration and `opened + T` deadline and can only gain no further
//! requests — and subsequent arrivals open fresh windows under the new
//! configuration. A formed window is therefore never split or dropped
//! by a reconfiguration, and every batch's requests arrived under a
//! single configuration epoch. The live batcher rotates at every decision
//! boundary (even when the configuration is unchanged), which makes each
//! control interval independent — matching the offline closed loop,
//! [`crate::run_controller`], which serves each interval with a walk of
//! its own.

use crate::config::LambdaConfig;
use dbat_workload::ClassId;
use serde::{Deserialize, Serialize};

/// Why a batch left the buffer.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum FlushReason {
    /// The B-th request arrived (or the config dispatches immediately).
    Capacity,
    /// The window's `opened + T` deadline expired.
    Timeout,
    /// Forced out by an immediate drain at shutdown.
    Drain,
}

/// An admitted request: its gateway-assigned id (ids are assigned in
/// arrival order), its arrival stamp in virtual seconds, and the
/// request class it was submitted under (0 in single-class runs).
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct Admitted {
    pub id: u64,
    pub arrival: f64,
    pub class: ClassId,
}

/// A dispatched batch, ready for a worker.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct FormedBatch {
    /// Members in arrival order.
    pub requests: Vec<Admitted>,
    /// The configuration the window was opened under (not necessarily
    /// the batcher's *current* configuration — sealed windows dispatch
    /// under the epoch they were formed in).
    pub config: LambdaConfig,
    /// When the first member entered the empty buffer.
    pub opened_at: f64,
    /// Dispatch stamp: the B-th arrival, the deadline, or the drain time.
    pub dispatched_at: f64,
    pub reason: FlushReason,
    /// The batcher lane that formed this window: its function group's
    /// index on a grouped gateway, 0 otherwise.
    pub lane: u32,
}

/// One open (or sealed) batch window.
#[derive(Clone, Debug)]
struct Window {
    requests: Vec<Admitted>,
    config: LambdaConfig,
    opened_at: f64,
}

impl Window {
    fn deadline(&self) -> f64 {
        self.opened_at + self.config.timeout_s
    }

    fn form(self, dispatched_at: f64, reason: FlushReason, lane: u32) -> FormedBatch {
        FormedBatch {
            requests: self.requests,
            config: self.config,
            opened_at: self.opened_at,
            dispatched_at,
            reason,
            lane,
        }
    }
}

/// The batching state machine. All methods take the caller's notion of
/// "now" explicitly; the core never reads a clock, which is what lets
/// the same code back the simulators, the deterministic virtual replay
/// and the live batcher thread.
#[derive(Clone, Debug)]
pub struct BatcherCore {
    config: LambdaConfig,
    /// The open window (always non-empty, always under `config`).
    active: Option<Window>,
    /// Windows sealed by [`BatcherCore::rotate`], oldest first, still
    /// waiting for their original deadlines.
    sealed: Vec<Window>,
    /// Lane id stamped onto every formed batch (the function group; 0 on
    /// an ungrouped gateway).
    lane: u32,
}

impl BatcherCore {
    pub fn new(config: LambdaConfig) -> Self {
        BatcherCore::for_lane(config, 0)
    }

    /// A core whose formed batches carry `lane` — one per function group's
    /// lane in a grouped gateway.
    pub fn for_lane(config: LambdaConfig, lane: u32) -> Self {
        config.validate().expect("invalid configuration");
        BatcherCore {
            config,
            active: None,
            sealed: Vec::new(),
            lane,
        }
    }

    /// No open or sealed window holds requests.
    pub fn is_idle(&self) -> bool {
        self.active.is_none() && self.sealed.is_empty()
    }

    /// Requests currently buffered across all windows.
    pub fn buffered(&self) -> usize {
        self.sealed.iter().map(|w| w.requests.len()).sum::<usize>()
            + self.active.as_ref().map_or(0, |w| w.requests.len())
    }

    fn immediate(config: &LambdaConfig) -> bool {
        config.batch_size == 1 || config.timeout_s == 0.0
    }

    /// Admit one request at its arrival time `req.arrival`, appending any
    /// batches this forms to `out`. Windows whose deadlines are strictly
    /// before the arrival are flushed first (a driver that has not
    /// looked since — a late batcher thread, the simulator's arrival
    /// walk — catches up here); a window whose deadline equals the
    /// arrival still admits the request: arrival beats timeout.
    pub fn on_arrival(&mut self, req: Admitted, out: &mut Vec<FormedBatch>) {
        let t = req.arrival;
        self.flush_matured(t, true, out);
        let config = self.config;
        match &mut self.active {
            Some(w) => w.requests.push(req),
            None => {
                self.active = Some(Window {
                    requests: vec![req],
                    config,
                    opened_at: t,
                });
            }
        }
        let full = {
            let w = self.active.as_ref().expect("window just populated");
            Self::immediate(&config) || w.requests.len() as u32 >= config.batch_size
        };
        if full {
            let w = self.active.take().expect("window just populated");
            out.push(w.form(t, FlushReason::Capacity, self.lane));
        }
    }

    /// Flush every window whose deadline is `<= now`, stamped at its own
    /// deadline (in deadline order). Call whenever the batcher wakes.
    pub fn due(&mut self, now: f64, out: &mut Vec<FormedBatch>) {
        self.flush_matured(now, false, out);
    }

    /// Flush matured windows, oldest deadline first. `strict` flushes
    /// `deadline < bound` only (pre-arrival catch-up); non-strict flushes
    /// `deadline <= bound`.
    fn flush_matured(&mut self, bound: f64, strict: bool, out: &mut Vec<FormedBatch>) {
        let matured = |w: &Window| {
            let d = w.deadline();
            if strict {
                d < bound
            } else {
                d <= bound
            }
        };
        let lane = self.lane;
        let timed_out = |w: Window| {
            let d = w.deadline();
            w.form(d, FlushReason::Timeout, lane)
        };
        let first = out.len();
        if self.sealed.iter().any(matured) {
            let (due, waiting): (Vec<_>, Vec<_>) = std::mem::take(&mut self.sealed)
                .into_iter()
                .partition(matured);
            self.sealed = waiting;
            out.extend(due.into_iter().map(timed_out));
        }
        if self.active.as_ref().is_some_and(matured) {
            out.extend(self.active.take().map(timed_out));
        }
        // Stable: equal deadlines keep oldest-window-first order.
        out[first..].sort_by(|a, b| a.dispatched_at.total_cmp(&b.dispatched_at));
    }

    /// The earliest pending deadline, if any window is waiting on one.
    pub fn next_deadline(&self) -> Option<f64> {
        self.sealed
            .iter()
            .map(Window::deadline)
            .chain(self.active.as_ref().map(Window::deadline))
            .reduce(f64::min)
    }

    /// Hot reconfiguration: seal the open window (it keeps its original
    /// configuration and deadline) and open subsequent windows under
    /// `config`. Sealing happens even when `config` equals the current
    /// one, so decision intervals never share a window.
    pub fn rotate(&mut self, config: LambdaConfig) {
        config.validate().expect("invalid configuration");
        if let Some(w) = self.active.take() {
            self.sealed.push(w);
        }
        self.config = config;
    }

    /// Force every buffered request out now (immediate shutdown),
    /// oldest window first.
    pub fn drain(&mut self, now: f64, out: &mut Vec<FormedBatch>) {
        for w in self.sealed.drain(..) {
            out.push(w.form(now, FlushReason::Drain, self.lane));
        }
        if let Some(w) = self.active.take() {
            out.push(w.form(now, FlushReason::Drain, self.lane));
        }
    }
}

/// Where the window walk puts time zero: a trace that starts below zero
/// (a sliced window rebased around its decision instant) is shifted to
/// start at zero for the core, and every stamp is shifted back by the same
/// amount on the way out — the arithmetic `tests/golden_windowed.rs` pins.
fn trace_origin(first_arrival: Option<f64>) -> f64 {
    first_arrival.unwrap_or(0.0).min(0.0)
}

/// Telemetry handles resolved once per walk, so the hot loop never touches
/// the metric registry. `None` when telemetry is disabled, making
/// instrumentation a single branch per use.
struct WalkTel {
    events: std::sync::Arc<dbat_telemetry::Counter>,
    batch_size: std::sync::Arc<dbat_telemetry::Histogram>,
    flush_timeout: std::sync::Arc<dbat_telemetry::Counter>,
    flush_capacity: std::sync::Arc<dbat_telemetry::Counter>,
    queue_depth: std::sync::Arc<dbat_telemetry::Gauge>,
}

impl WalkTel {
    fn resolve() -> Option<WalkTel> {
        let t = dbat_telemetry::global();
        if !t.is_enabled() {
            return None;
        }
        Some(WalkTel {
            events: t.counter("sim.events"),
            batch_size: t.histogram("sim.batch_size"),
            flush_timeout: t.counter("sim.flush.timeout"),
            flush_capacity: t.counter("sim.flush.capacity"),
            queue_depth: t.gauge("sim.queue_depth"),
        })
    }
}

/// Walk a finite, sorted arrival sequence through one [`BatcherCore`]
/// under `cfg`, then tell the core that time has run out, handing every
/// formed batch to `dispatch` in dispatch order. The core flushes a
/// window's timeout when the next arrival (or the end of the trace) shows
/// it has passed, stamped at the deadline, so no event queue is needed.
///
/// `arrivals` yields `(id, timestamp)`: the id comes back as
/// [`Admitted::id`], so a caller that feeds a filtered subsequence can
/// still index its own per-request data. `opened_at` and `dispatched_at`
/// of the batches handed out are in the caller's time; members' `arrival`
/// stamps are relative to the trace origin (equal unless the trace starts
/// below zero) — callers that need the arrival look it up by id.
pub fn walk_windows(
    arrivals: impl IntoIterator<Item = (usize, f64)>,
    cfg: &LambdaConfig,
    mut dispatch: impl FnMut(FormedBatch),
) {
    let mut arrivals = arrivals.into_iter().peekable();
    let t0 = trace_origin(arrivals.peek().map(|&(_, a)| a));
    let mut core = BatcherCore::new(*cfg);
    let mut formed: Vec<FormedBatch> = Vec::new();
    let tel = WalkTel::resolve();
    let (mut n_arrivals, mut n_batches) = (0u64, 0u64);
    let mut hand_out = |formed: &mut Vec<FormedBatch>| {
        for mut fb in formed.drain(..) {
            fb.opened_at += t0;
            fb.dispatched_at += t0;
            if let Some(tel) = &tel {
                tel.batch_size.record(fb.requests.len() as f64);
                match fb.reason {
                    FlushReason::Timeout => tel.flush_timeout.inc(),
                    _ => tel.flush_capacity.inc(),
                }
            }
            n_batches += 1;
            dispatch(fb);
        }
    };
    for (id, a) in arrivals {
        let req = Admitted {
            id: id as u64,
            arrival: a - t0,
            class: 0,
        };
        core.on_arrival(req, &mut formed);
        n_arrivals += 1;
        hand_out(&mut formed);
        if let Some(tel) = &tel {
            tel.queue_depth.set(core.buffered() as f64);
        }
    }
    core.due(f64::INFINITY, &mut formed);
    hand_out(&mut formed);
    if let Some(tel) = &tel {
        tel.events.add(n_arrivals + n_batches);
        tel.queue_depth.set(0.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req(id: u64, t: f64) -> Admitted {
        Admitted {
            id,
            arrival: t,
            class: 0,
        }
    }

    #[test]
    fn capacity_flush_at_bth_arrival() {
        let mut core = BatcherCore::new(LambdaConfig::new(2048, 3, 10.0));
        let mut out = Vec::new();
        core.on_arrival(req(0, 0.0), &mut out);
        core.on_arrival(req(1, 0.1), &mut out);
        assert!(out.is_empty());
        core.on_arrival(req(2, 0.2), &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].requests.len(), 3);
        assert_eq!(out[0].opened_at, 0.0);
        assert_eq!(out[0].dispatched_at, 0.2);
        assert_eq!(out[0].reason, FlushReason::Capacity);
        assert!(core.is_idle());
    }

    #[test]
    fn immediate_configs_never_buffer() {
        for cfg in [
            LambdaConfig::new(2048, 1, 5.0),
            LambdaConfig::new(2048, 8, 0.0),
        ] {
            let mut core = BatcherCore::new(cfg);
            let mut out = Vec::new();
            core.on_arrival(req(0, 1.0), &mut out);
            assert_eq!(out.len(), 1);
            assert_eq!(out[0].requests.len(), 1);
            assert_eq!(out[0].dispatched_at, 1.0);
            assert!(core.is_idle());
            assert_eq!(core.next_deadline(), None);
        }
    }

    #[test]
    fn timeout_flush_stamped_at_deadline_not_observation() {
        let mut core = BatcherCore::new(LambdaConfig::new(2048, 8, 0.05));
        let mut out = Vec::new();
        core.on_arrival(req(0, 1.0), &mut out);
        assert_eq!(core.next_deadline(), Some(1.05));
        // The batcher wakes late, at t = 1.2: dispatch stamp is still 1.05.
        core.due(1.2, &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].dispatched_at, 1.05);
        assert_eq!(out[0].reason, FlushReason::Timeout);
    }

    #[test]
    fn arrival_at_exact_deadline_joins_window() {
        // An arrival at the same instant as the timeout joins the batch
        // first.
        let mut core = BatcherCore::new(LambdaConfig::new(2048, 8, 0.05));
        let mut out = Vec::new();
        core.on_arrival(req(0, 1.0), &mut out);
        core.on_arrival(req(1, 1.05), &mut out); // == deadline: joins
        assert!(out.is_empty());
        core.due(1.05, &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].requests.len(), 2);
        assert_eq!(out[0].dispatched_at, 1.05);
    }

    #[test]
    fn late_arrival_flushes_overdue_window_first() {
        let mut core = BatcherCore::new(LambdaConfig::new(2048, 8, 0.05));
        let mut out = Vec::new();
        core.on_arrival(req(0, 1.0), &mut out);
        core.on_arrival(req(1, 2.0), &mut out); // way past 1.05
        assert_eq!(out.len(), 1, "overdue window must flush before admit");
        assert_eq!(out[0].requests.len(), 1);
        assert_eq!(out[0].dispatched_at, 1.05);
        assert_eq!(core.buffered(), 1); // the new arrival opened a window
        assert_eq!(core.next_deadline(), Some(2.05));
    }

    #[test]
    fn rotate_seals_without_splitting_or_dropping() {
        let mut core = BatcherCore::new(LambdaConfig::new(2048, 4, 0.10));
        let mut out = Vec::new();
        core.on_arrival(req(0, 1.00), &mut out);
        core.on_arrival(req(1, 1.02), &mut out);
        // Reconfigure mid-window: old window sealed under the old config.
        let new_cfg = LambdaConfig::new(1024, 2, 0.01);
        core.rotate(new_cfg);
        assert_eq!(core.config, new_cfg);
        assert_eq!(core.buffered(), 2);
        // Arrivals after the rotation open a fresh window under the new
        // config; the sealed window gains no members.
        core.on_arrival(req(2, 1.03), &mut out);
        core.on_arrival(req(3, 1.04), &mut out);
        assert_eq!(out.len(), 1, "new window fills B=2 and dispatches");
        assert_eq!(out[0].config, new_cfg);
        assert_eq!(out[0].requests.len(), 2);
        // Sealed window still waits for its *original* deadline.
        assert_eq!(core.next_deadline(), Some(1.10));
        core.due(1.10, &mut out);
        assert_eq!(out.len(), 2);
        let sealed = &out[1];
        assert_eq!(sealed.config, LambdaConfig::new(2048, 4, 0.10));
        assert_eq!(sealed.requests.len(), 2);
        assert_eq!(sealed.dispatched_at, 1.10);
        assert!(core.is_idle());
    }

    #[test]
    fn multiple_sealed_windows_flush_in_deadline_order() {
        let cfg_long = LambdaConfig::new(2048, 8, 0.50);
        let cfg_short = LambdaConfig::new(2048, 8, 0.05);
        let mut core = BatcherCore::new(cfg_long);
        let mut out = Vec::new();
        core.on_arrival(req(0, 0.0), &mut out); // deadline 0.50
        core.rotate(cfg_short);
        core.on_arrival(req(1, 0.10), &mut out); // deadline 0.10 + 0.05
        core.rotate(cfg_short);
        assert_eq!(core.next_deadline(), Some(0.10 + 0.05));
        core.due(1.0, &mut out);
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].dispatched_at, 0.10 + 0.05); // short deadline first
        assert_eq!(out[1].dispatched_at, 0.50);
    }

    #[test]
    fn drain_forces_everything_out() {
        let mut core = BatcherCore::new(LambdaConfig::new(2048, 8, 5.0));
        let mut out = Vec::new();
        core.on_arrival(req(0, 0.0), &mut out);
        core.rotate(LambdaConfig::new(2048, 8, 5.0));
        core.on_arrival(req(1, 0.1), &mut out);
        assert_eq!(core.buffered(), 2);
        core.drain(0.2, &mut out);
        assert_eq!(out.len(), 2);
        assert!(out.iter().all(|b| b.reason == FlushReason::Drain));
        assert!(out.iter().all(|b| b.dispatched_at == 0.2));
        assert!(core.is_idle());
    }
}
