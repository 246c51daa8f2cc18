//! Fault injection for the serverless substrate.
//!
//! The paper (like BATCH) evaluates on an idealized Lambda: deterministic
//! service times, instant scale-out, no failures. Real platforms inject
//! cold starts, invocation failures, throttling, and stragglers — exactly
//! the regime where SLO compliance is hard. This module adds a seeded,
//! deterministic fault layer on top of the window core:
//!
//! * **cold starts** — the first batch served by a fresh container pays a
//!   memory-dependent init delay `c(M)`; containers stay warm for a
//!   configurable keep-alive window, tracked by a LIFO warm-container pool;
//! * **invocation failures** — each attempt fails with probability
//!   `p_fail(M)`; failed attempts are re-billed and retried with bounded
//!   exponential backoff plus jitter;
//! * **throttling** — a concurrency cap queues formed batches (or sheds
//!   them beyond a finite queue capacity); with an unbounded queue and no
//!   other channel this is an account concurrency quota;
//! * **stragglers** — attempts are slowed by a service-time multiplier
//!   with some probability.
//!
//! Batches are formed by the shared window walk
//! ([`crate::window::walk_windows`]); this layer is a service stage that
//! only decides what happens to a formed batch. It admits each batch at
//! its dispatch stamp, after running the queued attempt-end and retry
//! events that fall strictly before it (so at a tie the batch goes
//! first). All randomness comes from one xoshiro stream seeded by
//! [`FaultPlan::seed`] and the event queue breaks ties FIFO, so the same
//! seed reproduces the same event trace, latencies, and cost bit-for-bit.
//! With an inert plan ([`FaultPlan::is_inert`]) the simulation delegates
//! to [`crate::batching::simulate_batching`], keeping the zero-fault path
//! bit-identical to the paper figures.

use crate::batching::{simulate_batching, BatchRecord, SimOutcome, SimParams};
use crate::config::LambdaConfig;
use crate::engine::Scheduler;
use crate::metrics::LatencySummary;
use crate::window::{walk_windows, Admitted, FormedBatch};
use dbat_workload::{DbatError, Rng};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// Cold-start model: a fresh container pays `c(M) = delay_s · ref/M` of
/// init time before its first batch (bigger functions get more CPU and
/// initialize faster). Containers stay reusable for `keep_alive_s` after
/// their last invocation ends.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct ColdStartFault {
    /// Init delay (seconds) at the reference memory size.
    pub delay_s: f64,
    /// Memory size (MB) at which the delay equals `delay_s`.
    pub ref_memory_mb: u32,
    /// Idle window (seconds) a warm container survives after completion.
    pub keep_alive_s: f64,
}

impl Default for ColdStartFault {
    fn default() -> Self {
        ColdStartFault {
            delay_s: 0.5,
            ref_memory_mb: 1792,
            keep_alive_s: 300.0,
        }
    }
}

impl ColdStartFault {
    /// Init delay for a container of `memory_mb`.
    pub(crate) fn delay(&self, memory_mb: u32) -> f64 {
        self.delay_s * self.ref_memory_mb as f64 / memory_mb as f64
    }
}

/// Bounded retry policy for failed invocations.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct RetryPolicy {
    /// Total attempts allowed per batch (1 = no retries).
    pub max_attempts: u32,
    /// First backoff delay (seconds).
    pub backoff_base_s: f64,
    /// Multiplier between consecutive backoffs (exponential backoff).
    pub backoff_factor: f64,
    /// Uniform jitter fraction: the actual backoff is scaled by
    /// `1 + jitter·U[0,1)`.
    pub jitter: f64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 3,
            backoff_base_s: 0.05,
            backoff_factor: 2.0,
            jitter: 0.1,
        }
    }
}

impl RetryPolicy {
    /// Deterministic part of the backoff before attempt `attempt + 1`
    /// (0-based failed-attempt count ≥ 1).
    pub(crate) fn backoff(&self, failed_attempts: u32) -> f64 {
        self.backoff_base_s
            * self
                .backoff_factor
                .powi(failed_attempts.saturating_sub(1) as i32)
    }
}

/// Invocation-failure model: each attempt independently fails with
/// `p_fail(M) = probability · (ref/M)^memory_exponent` (clamped to [0, 1]).
/// The default exponent 0 makes failures memory-independent.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct FailureFault {
    pub probability: f64,
    pub ref_memory_mb: u32,
    pub memory_exponent: f64,
    pub retry: RetryPolicy,
}

impl Default for FailureFault {
    fn default() -> Self {
        FailureFault {
            probability: 0.01,
            ref_memory_mb: 1792,
            memory_exponent: 0.0,
            retry: RetryPolicy::default(),
        }
    }
}

impl FailureFault {
    /// Failure probability at `memory_mb`.
    pub(crate) fn p_fail(&self, memory_mb: u32) -> f64 {
        let scale = (self.ref_memory_mb as f64 / memory_mb as f64).powf(self.memory_exponent);
        (self.probability * scale).clamp(0.0, 1.0)
    }
}

/// Throttling: at most `max_concurrency` attempts run at once; formed
/// batches beyond that wait in a FIFO queue of at most `queue_capacity`
/// entries, and batches arriving at a full queue are shed (their requests
/// count as failed).
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct ThrottleFault {
    pub max_concurrency: usize,
    pub queue_capacity: usize,
}

impl Default for ThrottleFault {
    fn default() -> Self {
        ThrottleFault {
            max_concurrency: 16,
            queue_capacity: usize::MAX,
        }
    }
}

/// Straggler model: an attempt's service time is multiplied by
/// `multiplier` with probability `probability`.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct StragglerFault {
    pub probability: f64,
    pub multiplier: f64,
}

impl Default for StragglerFault {
    fn default() -> Self {
        StragglerFault {
            probability: 0.02,
            multiplier: 4.0,
        }
    }
}

/// A seeded, deterministic fault-injection plan. `Default` is inert
/// (no faults); enable individual channels via the struct fields or
/// [`FaultPlan::builder`].
#[derive(Clone, Copy, Debug, PartialEq, Default, Serialize, Deserialize)]
pub struct FaultPlan {
    /// Seed of the fault RNG stream; the same seed reproduces the same
    /// event trace, latencies, and cost bit-for-bit.
    pub seed: u64,
    pub cold_start: Option<ColdStartFault>,
    pub failures: Option<FailureFault>,
    pub throttle: Option<ThrottleFault>,
    pub stragglers: Option<StragglerFault>,
}

impl FaultPlan {
    /// True when no fault channel is enabled; the simulator then takes
    /// the bit-identical zero-fault path.
    pub fn is_inert(&self) -> bool {
        self.cold_start.is_none()
            && self.failures.is_none()
            && self.throttle.is_none()
            && self.stragglers.is_none()
    }

    /// Validating builder (`FaultPlan::builder().failures(...).build()?`).
    pub fn builder() -> FaultPlanBuilder {
        FaultPlanBuilder {
            plan: FaultPlan::default(),
        }
    }

    /// The same plan with a different seed (used to derive per-interval
    /// substreams in the closed-loop controller driver).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// A preset plan whose severity scales with `level ∈ [0, 1]`:
    /// all four channels enabled, from barely-there (0) to hostile (1).
    /// Used by the `abl_faults` sweep; the scaling is a benchmark
    /// convention, not a platform measurement.
    pub fn intensity(level: f64, seed: u64) -> Self {
        let level = level.clamp(0.0, 1.0);
        FaultPlan {
            seed,
            cold_start: Some(ColdStartFault {
                delay_s: 0.8 * level,
                ref_memory_mb: 1792,
                keep_alive_s: 300.0,
            }),
            failures: Some(FailureFault {
                probability: 0.15 * level,
                ..FailureFault::default()
            }),
            throttle: Some(ThrottleFault {
                max_concurrency: (18.0 - 14.0 * level).round().max(2.0) as usize,
                queue_capacity: usize::MAX,
            }),
            stragglers: Some(StragglerFault {
                probability: 0.10 * level,
                multiplier: 3.0,
            }),
        }
    }

    /// Check every enabled channel's parameter domain.
    pub(crate) fn validate(&self) -> Result<(), DbatError> {
        if let Some(cs) = &self.cold_start {
            if !(cs.delay_s >= 0.0 && cs.delay_s.is_finite()) {
                return Err(DbatError::config(
                    "cold-start delay must be finite and >= 0",
                ));
            }
            if cs.keep_alive_s.is_nan() || cs.keep_alive_s < 0.0 {
                return Err(DbatError::config("keep-alive must be >= 0"));
            }
            if cs.ref_memory_mb == 0 {
                return Err(DbatError::config("cold-start ref memory must be > 0"));
            }
        }
        if let Some(fl) = &self.failures {
            if !(0.0..=1.0).contains(&fl.probability) {
                return Err(DbatError::config("failure probability must be in [0, 1]"));
            }
            if fl.ref_memory_mb == 0 {
                return Err(DbatError::config("failure ref memory must be > 0"));
            }
            // A NaN `p_fail` would make every draw a success.
            if !fl.memory_exponent.is_finite() {
                return Err(DbatError::config("failure memory exponent must be finite"));
            }
            let r = &fl.retry;
            if r.max_attempts < 1 {
                return Err(DbatError::config("retry max_attempts must be >= 1"));
            }
            if !(r.backoff_base_s >= 0.0 && r.backoff_base_s.is_finite()) {
                return Err(DbatError::config("backoff base must be finite and >= 0"));
            }
            if !(r.backoff_factor >= 1.0 && r.backoff_factor.is_finite()) {
                return Err(DbatError::config("backoff factor must be >= 1"));
            }
            if !(0.0..=1.0).contains(&r.jitter) {
                return Err(DbatError::config("retry jitter must be in [0, 1]"));
            }
        }
        if let Some(th) = &self.throttle {
            if th.max_concurrency < 1 {
                return Err(DbatError::config("max concurrency must be >= 1"));
            }
        }
        if let Some(st) = &self.stragglers {
            if !(0.0..=1.0).contains(&st.probability) {
                return Err(DbatError::config("straggler probability must be in [0, 1]"));
            }
            if !(st.multiplier >= 1.0 && st.multiplier.is_finite()) {
                return Err(DbatError::config("straggler multiplier must be >= 1"));
            }
        }
        Ok(())
    }
}

/// Builder for [`FaultPlan`] with validation at `build()`.
#[derive(Clone, Debug, Default)]
pub struct FaultPlanBuilder {
    plan: FaultPlan,
}

impl FaultPlanBuilder {
    pub fn seed(mut self, seed: u64) -> Self {
        self.plan.seed = seed;
        self
    }

    pub fn cold_start(mut self, cs: ColdStartFault) -> Self {
        self.plan.cold_start = Some(cs);
        self
    }

    pub fn failures(mut self, f: FailureFault) -> Self {
        self.plan.failures = Some(f);
        self
    }

    pub fn throttle(mut self, t: ThrottleFault) -> Self {
        self.plan.throttle = Some(t);
        self
    }

    pub fn stragglers(mut self, s: StragglerFault) -> Self {
        self.plan.stragglers = Some(s);
        self
    }

    pub fn build(self) -> Result<FaultPlan, DbatError> {
        self.plan.validate()?;
        Ok(self.plan)
    }
}

/// One injected fault, timestamped in trace time.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum FaultEvent {
    /// A fresh container paid `delay_s` of init before `batch`'s attempt.
    ColdStart { at: f64, batch: usize, delay_s: f64 },
    /// Attempt `attempt` (1-based) of `batch` failed at its end time.
    Failure { at: f64, batch: usize, attempt: u32 },
    /// A retry of `batch` was scheduled to start at `at` after backoff.
    Retry {
        at: f64,
        batch: usize,
        attempt: u32,
        backoff_s: f64,
    },
    /// `batch` exhausted its retry budget; its `requests` go unserved.
    Exhausted {
        at: f64,
        batch: usize,
        requests: usize,
    },
    /// `batch` hit the concurrency cap and entered the throttle queue.
    Throttled { at: f64, batch: usize },
    /// `batch` arrived at a full throttle queue and was shed.
    Shed {
        at: f64,
        batch: usize,
        requests: usize,
    },
    /// An attempt of `batch` was slowed by `multiplier`.
    Straggler {
        at: f64,
        batch: usize,
        multiplier: f64,
    },
}

impl FaultEvent {
    /// Event kind as a short label (telemetry / reports).
    pub(crate) fn kind(&self) -> &'static str {
        match self {
            FaultEvent::ColdStart { .. } => "cold_start",
            FaultEvent::Failure { .. } => "failure",
            FaultEvent::Retry { .. } => "retry",
            FaultEvent::Exhausted { .. } => "exhausted",
            FaultEvent::Throttled { .. } => "throttled",
            FaultEvent::Shed { .. } => "shed",
            FaultEvent::Straggler { .. } => "straggler",
        }
    }

    /// Timestamp (trace seconds).
    pub fn at(&self) -> f64 {
        match *self {
            FaultEvent::ColdStart { at, .. }
            | FaultEvent::Failure { at, .. }
            | FaultEvent::Retry { at, .. }
            | FaultEvent::Exhausted { at, .. }
            | FaultEvent::Throttled { at, .. }
            | FaultEvent::Shed { at, .. }
            | FaultEvent::Straggler { at, .. } => at,
        }
    }
}

// The vendored serde derive covers named-field structs only, so the
// event's tagged-object encoding is written by hand.
impl Serialize for FaultEvent {
    fn serialize(&self) -> serde::Value {
        let mut m = serde::Map::new();
        let mut put = |k: &str, v: f64| {
            m.insert(k.to_string(), serde::Value::Number(v));
        };
        put("at", self.at());
        match *self {
            FaultEvent::ColdStart { batch, delay_s, .. } => {
                put("batch", batch as f64);
                put("delay_s", delay_s);
            }
            FaultEvent::Failure { batch, attempt, .. } => {
                put("batch", batch as f64);
                put("attempt", attempt as f64);
            }
            FaultEvent::Retry {
                batch,
                attempt,
                backoff_s,
                ..
            } => {
                put("batch", batch as f64);
                put("attempt", attempt as f64);
                put("backoff_s", backoff_s);
            }
            FaultEvent::Exhausted {
                batch, requests, ..
            }
            | FaultEvent::Shed {
                batch, requests, ..
            } => {
                put("batch", batch as f64);
                put("requests", requests as f64);
            }
            FaultEvent::Throttled { batch, .. } => {
                put("batch", batch as f64);
            }
            FaultEvent::Straggler {
                batch, multiplier, ..
            } => {
                put("batch", batch as f64);
                put("multiplier", multiplier);
            }
        }
        m.insert(
            "kind".to_string(),
            serde::Value::String(self.kind().to_string()),
        );
        serde::Value::Object(m)
    }
}

/// Aggregated fault counts for one simulation (or one controller run).
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct FaultCounts {
    pub cold_starts: usize,
    pub failures: usize,
    pub retries: usize,
    /// Requests lost to retry exhaustion.
    pub exhausted_requests: usize,
    pub throttled: usize,
    /// Requests lost to queue-overflow shedding.
    pub shed_requests: usize,
    pub stragglers: usize,
}

impl FaultCounts {
    /// Requests that were never served (shed + retry-exhausted).
    pub fn lost_requests(&self) -> usize {
        self.exhausted_requests + self.shed_requests
    }

    pub(crate) fn absorb(&mut self, other: &FaultCounts) {
        self.cold_starts += other.cold_starts;
        self.failures += other.failures;
        self.retries += other.retries;
        self.exhausted_requests += other.exhausted_requests;
        self.throttled += other.throttled;
        self.shed_requests += other.shed_requests;
        self.stragglers += other.stragglers;
    }
}

/// Outcome of a fault-injected simulation. `sim.batches` holds one
/// batch record per *attempt* (so `sim.total_cost` includes re-billed
/// retries and cold-start GB-seconds); unserved requests keep zeroed
/// dispatch/completion fields and are excluded via [`FaultSimOutcome::served`].
#[derive(Clone, Debug, Serialize)]
pub struct FaultSimOutcome {
    pub sim: SimOutcome,
    /// Per-request served flag, parallel to `sim.requests`.
    pub served: Vec<bool>,
    /// The injected fault events in occurrence order.
    pub events: Vec<FaultEvent>,
    pub counts: FaultCounts,
}

impl FaultSimOutcome {
    /// Latencies of the served requests only.
    pub fn latencies(&self) -> Vec<f64> {
        self.sim
            .requests
            .iter()
            .zip(&self.served)
            .filter(|&(_, &s)| s)
            .map(|(r, _)| r.latency())
            .collect()
    }

    pub fn summary(&self) -> LatencySummary {
        LatencySummary::from_owned(self.latencies())
    }

    pub fn served_count(&self) -> usize {
        self.served.iter().filter(|&&s| s).count()
    }

    /// Total cost (including failed attempts) per served request.
    pub fn cost_per_request(&self) -> f64 {
        let n = self.served_count();
        if n == 0 {
            0.0
        } else {
            self.sim.total_cost / n as f64
        }
    }
}

/// Publish a finished run's fault counts as `sim.fault.*` counters.
fn publish_counts(hub: &dbat_telemetry::Telemetry, c: &FaultCounts) {
    for (name, n) in [
        ("sim.fault.cold_starts", c.cold_starts),
        ("sim.fault.failures", c.failures),
        ("sim.fault.retries", c.retries),
        ("sim.fault.exhausted_requests", c.exhausted_requests),
        ("sim.fault.throttled", c.throttled),
        ("sim.fault.shed_requests", c.shed_requests),
        ("sim.fault.stragglers", c.stragglers),
    ] {
        hub.counter(name).add(n as u64);
    }
}

/// Warm-container bookkeeping for the cold-start channel: each entry is
/// the time a container became idle. A container can serve a new
/// invocation at time `t` if it went idle no later than `t` and has not
/// sat idle longer than the keep-alive window. Reuse is LIFO
/// (most-recently-idle first), matching observed Lambda behaviour, and the
/// container count is unbounded — capacity limits are the throttle
/// channel's job, not the pool's.
struct ContainerPool {
    keep_alive_s: f64,
    /// Idle-since times; a container released with a future time is still
    /// busy until then.
    idle_since: Vec<f64>,
}

impl ContainerPool {
    /// Try to take a warm container at time `t`. Returns `true` on a warm
    /// hit (the container leaves the pool) and `false` when a cold
    /// container must be provisioned. Expired containers are pruned.
    fn acquire(&mut self, t: f64) -> bool {
        self.idle_since
            .retain(|&since| since + self.keep_alive_s >= t);
        // LIFO over the eligible (already idle) containers.
        let best = self
            .idle_since
            .iter()
            .enumerate()
            .filter(|&(_, &since)| since <= t)
            .max_by(|a, b| a.1.total_cmp(b.1))
            .map(|(i, _)| i);
        match best {
            Some(i) => {
                self.idle_since.swap_remove(i);
                true
            }
            None => false,
        }
    }

    /// Hand a container (warm or freshly provisioned) back to the pool;
    /// it is idle — and reusable — from `idle_at` on.
    fn release(&mut self, idle_at: f64) {
        self.idle_since.push(idle_at);
    }
}

/// A formed batch awaiting (re)execution.
struct PendingBatch {
    members: Vec<Admitted>,
    win_opened: f64,
    /// Attempts already started.
    attempts: u32,
    /// Terminal state reached (served, shed, or exhausted).
    done: bool,
}

/// One running attempt of a batch: `fail` was drawn at `start`, and
/// `record` indexes the attempt's [`BatchRecord`].
struct Attempt {
    batch: usize,
    /// 1-based attempt number.
    number: u32,
    start: f64,
    fail: bool,
    record: usize,
}

enum Ev {
    AttemptEnd(Attempt),
    /// A retry of `batch` becomes eligible after backoff.
    RetryStart(usize),
}

/// Everything a fault-injected run mutates: the service stage behind the
/// window walk. Its times are the caller's, like the formed batches'.
struct FaultRun<'a> {
    memory_mb: u32,
    params: &'a SimParams,
    plan: &'a FaultPlan,
    rng: Rng,
    /// Pending attempt ends and retries.
    sched: Scheduler<Ev>,
    pool: Option<ContainerPool>,
    /// Formed batches waiting for a concurrency slot, longest wait first.
    queue: VecDeque<usize>,
    running: usize,
    batches: Vec<PendingBatch>,
    out: FaultSimOutcome,
    /// The telemetry hub, when enabled: every fault is emitted as a
    /// `sim.fault` event as it happens.
    hub: Option<&'static dbat_telemetry::Telemetry>,
}

impl FaultRun<'_> {
    fn push_event(&mut self, ev: FaultEvent) {
        let counts = &mut self.out.counts;
        match ev {
            FaultEvent::ColdStart { .. } => counts.cold_starts += 1,
            FaultEvent::Failure { .. } => counts.failures += 1,
            FaultEvent::Retry { .. } => counts.retries += 1,
            FaultEvent::Exhausted { requests, .. } => counts.exhausted_requests += requests,
            FaultEvent::Throttled { .. } => counts.throttled += 1,
            FaultEvent::Shed { requests, .. } => counts.shed_requests += requests,
            FaultEvent::Straggler { .. } => counts.stragglers += 1,
        }
        if let Some(hub) = self.hub {
            hub.emit("sim.fault", serde_json::to_value(&ev));
        }
        self.out.events.push(ev);
    }

    /// Run the queued attempt ends and retries that fall strictly before
    /// `t`, in time order.
    fn run_until(&mut self, t: f64) {
        while let Some((at, ev)) = self.sched.pop_before(t) {
            match ev {
                Ev::AttemptEnd(a) => self.end_attempt(a, at),
                Ev::RetryStart(b) => {
                    if !self.batches[b].done {
                        self.admit(b, at);
                    }
                }
            }
        }
    }

    /// Register a batch the window walk formed and admit it at its
    /// dispatch stamp, once every earlier event has run.
    fn admit_formed(&mut self, fb: FormedBatch) {
        let t = fb.dispatched_at;
        self.run_until(t);
        let b = self.batches.len();
        self.batches.push(PendingBatch {
            members: fb.requests,
            win_opened: fb.opened_at,
            attempts: 0,
            done: false,
        });
        self.admit(b, t);
    }

    /// Admission: start, queue, or shed batch `b` at sim-time `t`.
    fn admit(&mut self, b: usize, t: f64) {
        let throttle = self.plan.throttle;
        if self.running < throttle.map_or(usize::MAX, |th| th.max_concurrency) {
            self.running += 1;
            self.start_attempt(b, t);
        } else if self.queue.len() < throttle.map_or(usize::MAX, |th| th.queue_capacity) {
            self.queue.push_back(b);
            self.push_event(FaultEvent::Throttled { at: t, batch: b });
        } else {
            self.batches[b].done = true;
            self.push_event(FaultEvent::Shed {
                at: t,
                batch: b,
                requests: self.batches[b].members.len(),
            });
        }
    }

    /// Start one attempt of batch `b` at sim-time `t` (concurrency slot
    /// already reserved by the caller).
    fn start_attempt(&mut self, b: usize, t: f64) {
        let pb = &mut self.batches[b];
        pb.attempts += 1;
        let attempt = pb.attempts;
        let size = pb.members.len() as u32;
        let win_opened = pb.win_opened;
        let memory_mb = self.memory_mb;

        // Container acquisition: cold delay on a fresh container.
        let warm = self.pool.as_mut().is_some_and(|pool| pool.acquire(t));
        let cold = match self.plan.cold_start {
            Some(cs) if !warm => cs.delay(memory_mb),
            _ => 0.0,
        };
        let mut service = self.params.profile.service_time(memory_mb, size);
        // Draw order per attempt is fixed (straggler, then failure, then
        // jitter on retry) so the event loop stays reproducible.
        if let Some(st) = self.plan.stragglers {
            if self.rng.bernoulli(st.probability) {
                service *= st.multiplier;
                self.push_event(FaultEvent::Straggler {
                    at: t,
                    batch: b,
                    multiplier: st.multiplier,
                });
            }
        }
        let fail = match self.plan.failures {
            Some(fl) => self.rng.bernoulli(fl.p_fail(memory_mb)),
            None => false,
        };
        let duration = cold + service;
        if cold > 0.0 {
            self.push_event(FaultEvent::ColdStart {
                at: t,
                batch: b,
                delay_s: cold,
            });
        }
        if let Some(pool) = self.pool.as_mut() {
            pool.release(t + duration);
        }
        // Every attempt is billed in full: cold-start GB-seconds and
        // failed invocations included.
        let cost = self
            .params
            .pricing
            .invocation_cost_with_init(memory_mb, cold, service);
        self.out.sim.total_cost += cost;
        let record = self.out.sim.batches.len();
        self.out.sim.batches.push(BatchRecord {
            opened_at: win_opened,
            dispatched_at: t,
            size,
            service_s: service,
            cold_start_s: cold,
            cost,
        });
        let running = Attempt {
            batch: b,
            number: attempt,
            start: t,
            fail,
            record,
        };
        self.sched.schedule(t + duration, Ev::AttemptEnd(running));
    }

    /// An attempt ends at `t`: stamp its requests, or retry / give up,
    /// then hand the freed slot on.
    fn end_attempt(&mut self, a: Attempt, t: f64) {
        let (b, attempt) = (a.batch, a.number);
        self.running -= 1;
        if !a.fail {
            self.batches[b].done = true;
            for r in &self.batches[b].members {
                let i = r.id as usize;
                let rec = &mut self.out.sim.requests[i];
                rec.dispatch = a.start;
                rec.completion = t;
                rec.batch = a.record;
                self.out.served[i] = true;
            }
        } else {
            self.push_event(FaultEvent::Failure {
                at: t,
                batch: b,
                attempt,
            });
            let retry = self.plan.failures.map(|f| f.retry).unwrap_or_default();
            if attempt < retry.max_attempts {
                let jitter = if retry.jitter > 0.0 {
                    1.0 + retry.jitter * self.rng.uniform()
                } else {
                    1.0
                };
                let backoff = retry.backoff(attempt) * jitter;
                self.push_event(FaultEvent::Retry {
                    at: t + backoff,
                    batch: b,
                    attempt: attempt + 1,
                    backoff_s: backoff,
                });
                self.sched.schedule(t + backoff, Ev::RetryStart(b));
            } else {
                self.batches[b].done = true;
                self.push_event(FaultEvent::Exhausted {
                    at: t,
                    batch: b,
                    requests: self.batches[b].members.len(),
                });
            }
        }
        // A slot freed: admit the longest-waiting queued batch.
        if let Some(nb) = self.queue.pop_front() {
            self.running += 1;
            self.start_attempt(nb, t);
        }
    }
}

/// Simulate the batching buffer with fault injection.
///
/// With `plan.is_inert()` this is exactly
/// [`crate::batching::simulate_batching`] (bit-identical outcome, no RNG
/// draws); otherwise the same window walk forms the batches and every
/// formed batch runs the attempt / retry / throttle events documented on
/// [`FaultPlan`]. Panics on an invalid plan (build one via
/// [`FaultPlan::builder`], which validates).
pub fn simulate_faults(
    arrivals: &[f64],
    cfg: &LambdaConfig,
    params: &SimParams,
    plan: &FaultPlan,
) -> FaultSimOutcome {
    if plan.is_inert() {
        let sim = simulate_batching(arrivals, cfg, params, None);
        let served = vec![true; sim.requests.len()];
        return FaultSimOutcome {
            sim,
            served,
            events: Vec::new(),
            counts: FaultCounts::default(),
        };
    }
    plan.validate().expect("invalid fault plan");
    debug_assert!(
        arrivals.windows(2).all(|w| w[0] <= w[1]),
        "arrivals must be sorted"
    );

    let mut st = FaultRun {
        memory_mb: cfg.memory_mb,
        params,
        plan,
        rng: Rng::new(plan.seed),
        sched: Scheduler::new(),
        pool: plan.cold_start.map(|cs| ContainerPool {
            keep_alive_s: cs.keep_alive_s,
            idle_since: Vec::new(),
        }),
        queue: VecDeque::new(),
        running: 0,
        batches: Vec::new(),
        out: FaultSimOutcome {
            sim: SimOutcome::unserved(arrivals),
            served: vec![false; arrivals.len()],
            events: Vec::new(),
            counts: FaultCounts::default(),
        },
        hub: Some(dbat_telemetry::global()).filter(|hub| hub.is_enabled()),
    };
    let windowed = arrivals.iter().copied().enumerate();
    walk_windows(windowed, cfg, |fb| st.admit_formed(fb));
    st.run_until(f64::INFINITY);

    if let Some(hub) = st.hub {
        publish_counts(hub, &st.out.counts);
    }
    st.out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params() -> SimParams {
        SimParams::default()
    }

    fn dense(n: usize, dt: f64) -> Vec<f64> {
        (0..n).map(|i| i as f64 * dt).collect()
    }

    #[test]
    fn inert_plan_is_bit_identical_to_base_simulator() {
        let arrivals = dense(200, 0.011);
        let cfg = LambdaConfig::new(2048, 4, 0.05);
        let base = simulate_batching(&arrivals, &cfg, &params(), None);
        let out = simulate_faults(&arrivals, &cfg, &params(), &FaultPlan::default());
        assert!(out.events.is_empty());
        assert_eq!(out.counts, FaultCounts::default());
        assert_eq!(base.total_cost.to_bits(), out.sim.total_cost.to_bits());
        assert_eq!(base.requests.len(), out.sim.requests.len());
        for (a, b) in base.requests.iter().zip(&out.sim.requests) {
            assert_eq!(a.completion.to_bits(), b.completion.to_bits());
            assert_eq!(a.dispatch.to_bits(), b.dispatch.to_bits());
        }
        assert!(out.served.iter().all(|&s| s));
    }

    #[test]
    fn cold_start_paid_once_within_keep_alive() {
        let plan = FaultPlan {
            cold_start: Some(ColdStartFault {
                delay_s: 0.5,
                ref_memory_mb: 2048,
                keep_alive_s: 100.0,
            }),
            ..FaultPlan::default()
        };
        // Two well-separated single-request batches; the second reuses the
        // warm container.
        let cfg = LambdaConfig::new(2048, 1, 0.0);
        let out = simulate_faults(&[0.0, 10.0], &cfg, &params(), &plan);
        assert_eq!(out.counts.cold_starts, 1);
        let s = params().profile.service_time(2048, 1);
        assert!((out.sim.requests[0].latency() - (0.5 + s)).abs() < 1e-12);
        assert!((out.sim.requests[1].latency() - s).abs() < 1e-12);
        // Cold GB-seconds are billed: first attempt costs more.
        assert!(out.sim.batches[0].cost > out.sim.batches[1].cost);
    }

    #[test]
    fn expired_keep_alive_pays_again() {
        let plan = FaultPlan {
            cold_start: Some(ColdStartFault {
                delay_s: 0.5,
                ref_memory_mb: 2048,
                keep_alive_s: 1.0,
            }),
            ..FaultPlan::default()
        };
        let cfg = LambdaConfig::new(2048, 1, 0.0);
        let out = simulate_faults(&[0.0, 50.0], &cfg, &params(), &plan);
        assert_eq!(out.counts.cold_starts, 2);
    }

    #[test]
    fn total_failure_exhausts_and_bills_every_attempt() {
        let plan = FaultPlan {
            failures: Some(FailureFault {
                probability: 1.0,
                retry: RetryPolicy {
                    max_attempts: 3,
                    backoff_base_s: 0.01,
                    backoff_factor: 2.0,
                    jitter: 0.0,
                },
                ..FailureFault::default()
            }),
            ..FaultPlan::default()
        };
        let cfg = LambdaConfig::new(2048, 1, 0.0);
        let out = simulate_faults(&[0.0], &cfg, &params(), &plan);
        assert_eq!(out.sim.batches.len(), 3, "three billed attempts");
        assert_eq!(out.counts.failures, 3);
        assert_eq!(out.counts.retries, 2);
        assert_eq!(out.counts.exhausted_requests, 1);
        assert_eq!(out.served_count(), 0);
        let one = params()
            .pricing
            .invocation_cost(2048, params().profile.service_time(2048, 1));
        assert!((out.sim.total_cost - 3.0 * one).abs() < 1e-15);
    }

    #[test]
    fn throttle_queues_and_sheds() {
        let plan = FaultPlan {
            throttle: Some(ThrottleFault {
                max_concurrency: 1,
                queue_capacity: 1,
            }),
            ..FaultPlan::default()
        };
        // Three immediate single-request batches: one runs, one queues,
        // one is shed.
        let cfg = LambdaConfig::new(2048, 1, 0.0);
        let out = simulate_faults(&[0.0, 0.001, 0.002], &cfg, &params(), &plan);
        assert_eq!(out.counts.throttled, 1);
        assert_eq!(out.counts.shed_requests, 1);
        assert_eq!(out.served_count(), 2);
        // The queued batch starts only after the first completes.
        let lat: Vec<f64> = out.latencies();
        let s = params().profile.service_time(2048, 1);
        assert!(lat.iter().any(|&l| l > 1.5 * s), "queued latency {lat:?}");
    }

    /// The account-concurrency-quota model: the throttle channel alone,
    /// with an unbounded queue (nothing is ever shed).
    fn quota(limit: usize) -> FaultPlan {
        FaultPlan {
            throttle: Some(ThrottleFault {
                max_concurrency: limit,
                queue_capacity: usize::MAX,
            }),
            ..FaultPlan::default()
        }
    }

    #[test]
    fn unlimited_quota_is_bitwise_the_base_simulator() {
        let arrivals = dense(300, 0.007);
        for cfg in [
            LambdaConfig::new(2048, 8, 0.05),
            LambdaConfig::new(1024, 1, 0.0),
            LambdaConfig::new(3008, 4, 0.02),
        ] {
            let base = simulate_batching(&arrivals, &cfg, &params(), None);
            let out = simulate_faults(&arrivals, &cfg, &params(), &quota(usize::MAX));
            assert!(
                out.events.is_empty() && out.served.iter().all(|&s| s),
                "{cfg}"
            );
            assert_eq!(base.batches.len(), out.sim.batches.len(), "{cfg}");
            assert_eq!(base.total_cost.to_bits(), out.sim.total_cost.to_bits());
            for (a, b) in base.requests.iter().zip(&out.sim.requests) {
                assert_eq!(a.dispatch.to_bits(), b.dispatch.to_bits(), "{cfg}");
                assert_eq!(a.completion.to_bits(), b.completion.to_bits(), "{cfg}");
                assert_eq!(a.batch, b.batch);
            }
        }
    }

    #[test]
    fn single_instance_serialises_batches() {
        // Two batches formed back-to-back; with a quota of 1 the second
        // must wait for the first to finish.
        let cfg = LambdaConfig::new(2048, 2, 1.0);
        let arrivals = [0.0, 0.001, 0.002, 0.003];
        let out = simulate_faults(&arrivals, &cfg, &params(), &quota(1));
        assert_eq!(out.sim.batches.len(), 2);
        assert_eq!(out.counts.throttled, 1);
        let service = params().profile.service_time(2048, 2);
        // Second batch completes after ~2 service times.
        let c2 = out.sim.requests[3].completion;
        assert!(
            c2 >= 2.0 * service - 1e-9,
            "completion {c2} vs 2x service {}",
            2.0 * service
        );
        // With an unlimited quota it completes after ~1 service time.
        let unl = simulate_faults(&arrivals, &cfg, &params(), &quota(usize::MAX));
        assert!(unl.sim.requests[3].completion < c2);
    }

    #[test]
    fn quota_conserves_requests_under_pressure() {
        let arrivals = dense(500, 0.002);
        let cfg = LambdaConfig::new(1024, 4, 0.01);
        let out = simulate_faults(&arrivals, &cfg, &params(), &quota(2));
        assert_eq!(out.served_count(), 500);
        let total: u32 = out.sim.batches.iter().map(|b| b.size).sum();
        assert_eq!(total, 500);
        assert!(out.counts.throttled > 0, "limit 2 must bind here");
        for r in &out.sim.requests {
            assert!(r.completion > r.arrival);
        }
    }

    #[test]
    fn tighter_quota_never_reduces_latency() {
        let arrivals = dense(400, 0.003);
        let cfg = LambdaConfig::new(2048, 8, 0.02);
        let mut prev_p95 = f64::INFINITY;
        for limit in [1usize, 2, 8, usize::MAX] {
            let p95 = simulate_faults(&arrivals, &cfg, &params(), &quota(limit))
                .summary()
                .p95;
            assert!(
                p95 <= prev_p95 + 1e-9,
                "p95 {p95} at limit {limit} worse than looser limit {prev_p95}"
            );
            prev_p95 = p95;
        }
    }

    #[test]
    fn straggler_inflates_latency() {
        let plan = FaultPlan {
            stragglers: Some(StragglerFault {
                probability: 1.0,
                multiplier: 5.0,
            }),
            ..FaultPlan::default()
        };
        let cfg = LambdaConfig::new(2048, 1, 0.0);
        let out = simulate_faults(&[0.0], &cfg, &params(), &plan);
        let s = params().profile.service_time(2048, 1);
        assert!((out.sim.requests[0].latency() - 5.0 * s).abs() < 1e-12);
        assert_eq!(out.counts.stragglers, 1);
    }

    #[test]
    fn same_seed_reproduces_bitwise() {
        let plan = FaultPlan::intensity(0.7, 42);
        let arrivals = dense(400, 0.004);
        let cfg = LambdaConfig::new(1024, 4, 0.02);
        let a = simulate_faults(&arrivals, &cfg, &params(), &plan);
        let b = simulate_faults(&arrivals, &cfg, &params(), &plan);
        assert_eq!(a.events, b.events);
        assert_eq!(a.counts, b.counts);
        assert_eq!(a.sim.total_cost.to_bits(), b.sim.total_cost.to_bits());
        for (x, y) in a.sim.requests.iter().zip(&b.sim.requests) {
            assert_eq!(x.completion.to_bits(), y.completion.to_bits());
        }
        // A different seed perturbs the outcome.
        let c = simulate_faults(&arrivals, &cfg, &params(), &plan.with_seed(43));
        assert_ne!(a.events, c.events);
    }

    #[test]
    fn builder_validates() {
        assert!(FaultPlan::builder()
            .failures(FailureFault {
                probability: 1.5,
                ..FailureFault::default()
            })
            .build()
            .is_err());
        assert!(FaultPlan::builder()
            .throttle(ThrottleFault {
                max_concurrency: 0,
                queue_capacity: 0,
            })
            .build()
            .is_err());
        for exponent in [f64::NAN, f64::INFINITY] {
            assert!(FaultPlan::builder()
                .failures(FailureFault {
                    memory_exponent: exponent,
                    ..FailureFault::default()
                })
                .build()
                .is_err());
        }
        let plan = FaultPlan::builder()
            .seed(9)
            .cold_start(ColdStartFault::default())
            .stragglers(StragglerFault::default())
            .build()
            .unwrap();
        assert_eq!(plan.seed, 9);
        assert!(!plan.is_inert());
    }

    #[test]
    #[should_panic(expected = "invalid fault plan")]
    fn nan_memory_exponent_is_an_invalid_plan() {
        let plan = FaultPlan {
            failures: Some(FailureFault {
                memory_exponent: f64::NAN,
                ..FailureFault::default()
            }),
            ..FaultPlan::default()
        };
        simulate_faults(&[0.0], &LambdaConfig::new(2048, 1, 0.0), &params(), &plan);
    }

    #[test]
    fn batch_at_an_attempt_end_is_admitted_before_the_slot_frees() {
        // The second arrival lands exactly when the first attempt ends:
        // the batch it forms is admitted first, finds the one slot busy
        // and queues, then starts as the slot frees.
        let s = params().profile.service_time(2048, 1);
        let cfg = LambdaConfig::new(2048, 1, 0.0);
        let out = simulate_faults(&[0.0, s], &cfg, &params(), &quota(1));
        assert_eq!(out.counts.throttled, 1);
        assert_eq!(out.sim.requests[1].dispatch, s);
        assert_eq!(out.sim.requests[1].completion, s + s);
    }

    #[test]
    fn trace_starting_below_zero_runs_in_its_own_time() {
        let plan = FaultPlan {
            cold_start: Some(ColdStartFault {
                delay_s: 0.5,
                ref_memory_mb: 2048,
                keep_alive_s: 100.0,
            }),
            ..FaultPlan::default()
        };
        let cfg = LambdaConfig::new(2048, 2, 0.05);
        let out = simulate_faults(&[-2.0, -1.99, -1.0], &cfg, &params(), &plan);
        assert_eq!(out.served_count(), 3);
        assert_eq!(out.counts.cold_starts, 1);
        assert!((out.sim.batches[0].dispatched_at - -1.99).abs() < 1e-12);
        assert!((out.sim.batches[1].dispatched_at - -0.95).abs() < 1e-12);
        assert!(out.sim.requests.iter().all(|r| r.completion > r.dispatch));
    }
}
