//! The live threaded gateway: N sharded batcher lanes, a work-stealing
//! worker pool, and an optional control thread for hot reconfiguration.
//!
//! Built entirely on std primitives (threads + `Mutex`/`Condvar`, no
//! async runtime). Thread layout (`lanes = N`, any number of submitters):
//!
//! ```text
//!  submit() ──▶ lane 0 [inbox] ──▶ batcher 0 ──▶ [lane 0 batches] ─┐
//!  submit() ──▶ lane 1 [inbox] ──▶ batcher 1 ──▶ [lane 1 batches] ─┤
//!     ...          ...                ...              ...         │
//!  submit() ──▶ lane N-1 [..] ──▶ batcher N-1 ─▶ [lane N-1 ..] ───┤
//!                                                                  ▼
//!  control thread ── Reconfig broadcast to every lane ──▶  work-stealing
//!  (any Controller)   at interval boundaries               worker pool
//! ```
//!
//! Sharding keeps the admission path free of cross-lane coordination:
//! a submitter touches exactly one lane mutex, one global id allocator,
//! and one global in-flight atomic (the capacity bound) — no lock is
//! ever taken on two lanes at once. Each lane runs its own
//! [`BatcherCore`] on its own batcher thread, so per-lane window
//! semantics (and the per-lane arrival log, stamped under the lane
//! lock) are identical to the unsharded gateway with `lanes = 1`.
//!
//! Workers have a *home lane* (`worker i % lanes`) whose batch queue
//! they drain first; when it is empty they steal the oldest batch from
//! the next non-empty lane. A single global `(ready, live_batchers)`
//! counter pair under one small mutex is the only cross-lane
//! synchronization point, and it is touched per *batch*, not per
//! request. Lock order is `lane.inbox → lane.batches → done`
//! (never two lanes of the same kind at once); no thread takes them in
//! the opposite direction.
//!
//! Wake-ups are exact and targeted (DESIGN.md §11 has the table): every
//! condition a thread parks on keeps, under the lock that already guards
//! it, a note of who is parked, so a notifier wakes exactly the threads
//! that can make progress and makes no futex call when nobody waits. No
//! wait is a poll: each is one park to its real deadline (or untimed),
//! and every gateway thread drops the kernel timer slack at start
//! ([`crate::clock`]) so timed parks and service sleeps fire when asked.
//!
//! Reconfigurations are broadcast to every lane and applied by each
//! lane's batcher at the requested boundary: arrivals stamped before
//! the boundary join the old configuration's window, the window is then
//! sealed (never split or dropped — see [`BatcherCore::rotate`]), and
//! later arrivals open windows under the new configuration. Boundary
//! ordering is preserved *per lane*, which is exactly the guarantee the
//! unsharded gateway gave.

use crate::backend::InferenceBackend;
use crate::clock::{precise_timers, Clock};
use crate::outcome::{ServeCounts, ServeOutcome, ServedBatch, ServedRequest};
use dbat_sim::{
    Admitted, BatcherCore, ClassAssignment, Controller, DecisionContext, DecisionRecord, Feedback,
    FlushReason, FormedBatch, FunctionGroup, IntervalMeasurement, LambdaConfig, LatencySummary,
};
use dbat_telemetry::{
    Counter, FlushKind, Gauge, Histogram, SpanId, Telemetry, TraceConfig, TraceEvent, TraceId,
    TraceStage,
};
use dbat_workload::ClassId;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::Instant;

/// One request offered for admission. The old bare-float surface is
/// subsumed: `Request::default()` is the legacy single-class submission
/// (class 0, stamped at admission on the gateway clock).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Request {
    /// Explicit arrival stamp in virtual seconds. `None` (the default)
    /// stamps the request at admission on the gateway clock — the only
    /// exact option under concurrent submitters. An explicit stamp is
    /// clamped to stay non-decreasing within its lane so the per-lane
    /// arrival log keeps its sorted invariant.
    pub(crate) arrival: Option<f64>,
    /// Request class (indexes [`GatewayConfig::groups`] assignments).
    pub(crate) class: ClassId,
}

impl Request {
    /// A class-tagged request, stamped at admission.
    pub fn of_class(class: ClassId) -> Self {
        Request {
            arrival: None,
            class,
        }
    }
}

/// What happens when a request meets a full admission queue.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum BackpressurePolicy {
    /// `submit` blocks until a worker frees queue space.
    Block,
    /// `submit` returns [`Admission::Rejected`] with a retry hint.
    Reject { retry_after_s: f64 },
}

/// The outcome of one `submit` call.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Admission {
    /// Admitted with a dense id (ids are allocated gateway-globally).
    Accepted { id: u64 },
    /// Refused. `retry_after_s` is the backpressure retry hint; `None`
    /// means retrying can never help (e.g. the request's class is not
    /// served by any group) — previously reported as `∞`, which does
    /// not survive a JSON round trip.
    Rejected { retry_after_s: Option<f64> },
    /// The gateway is shutting down and accepts no new work.
    Closed,
}

// Hand-written serde: the derive handles unit-only enums, and `∞` is
// not representable in JSON anyway — `Rejected` omits the field for
// "never retry" instead.
impl serde::Serialize for Admission {
    fn serialize(&self) -> serde::Value {
        let mut m = serde::Map::new();
        match self {
            Admission::Accepted { id } => {
                m.insert("status".into(), serde::Value::String("accepted".into()));
                m.insert("id".into(), serde::Value::Number(*id as f64));
            }
            Admission::Rejected { retry_after_s } => {
                m.insert("status".into(), serde::Value::String("rejected".into()));
                if let Some(s) = retry_after_s {
                    m.insert("retry_after_s".into(), serde::Value::Number(*s));
                }
            }
            Admission::Closed => {
                m.insert("status".into(), serde::Value::String("closed".into()));
            }
        }
        serde::Value::Object(m)
    }
}

impl serde::Deserialize for Admission {
    fn deserialize(v: &serde::Value) -> Result<Self, serde::Error> {
        let status = v
            .get("status")
            .and_then(|s| s.as_str())
            .ok_or_else(|| serde::Error::new("admission needs a status string"))?;
        match status {
            "accepted" => {
                let id = v
                    .get("id")
                    .and_then(|i| i.as_u64())
                    .ok_or_else(|| serde::Error::new("accepted admission needs an id"))?;
                Ok(Admission::Accepted { id })
            }
            "rejected" => {
                let retry_after_s = match v.get("retry_after_s") {
                    None => None,
                    Some(s) => Some(
                        s.as_f64()
                            .ok_or_else(|| serde::Error::new("retry_after_s must be a number"))?,
                    ),
                };
                Ok(Admission::Rejected { retry_after_s })
            }
            "closed" => Ok(Admission::Closed),
            other => Err(serde::Error::new(format!(
                "unknown admission status {other:?}"
            ))),
        }
    }
}

/// How `shutdown` disposes of buffered requests.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DrainMode {
    /// Serve everything already accepted: open windows run out their
    /// deadlines, every batch executes.
    Graceful,
    /// Flush open windows immediately (still serving every accepted
    /// request, just without waiting for timeouts).
    Immediate,
}

/// Gateway tuning knobs.
#[derive(Clone, Debug)]
pub struct GatewayConfig {
    /// Configuration applied until a controller decides otherwise.
    pub initial: LambdaConfig,
    /// Admission bound: maximum requests in flight gateway-wide
    /// (accepted but not yet completed). Enforced exactly, via one
    /// global atomic — lanes share the bound.
    pub queue_capacity: usize,
    pub backpressure: BackpressurePolicy,
    /// Batcher lanes. `1` reproduces the unsharded gateway exactly;
    /// more lanes shard the admission path so concurrent submitters
    /// stop contending on a single inbox mutex.
    pub lanes: usize,
    /// Worker threads executing batches (invocations run concurrently,
    /// mirroring serverless autoscaling; size for peak in-flight batches).
    /// Worker `i`'s home lane is `i % lanes`; it steals from other lanes
    /// when its home queue is empty.
    pub workers: usize,
    /// Decision interval for the control thread, virtual seconds.
    pub decision_interval: f64,
    /// SLO (seconds) and latency percentile the control loop measures.
    pub slo: f64,
    pub percentile: f64,
    /// Keep per-request / per-batch records for the final
    /// [`ServeOutcome`]. Disable for pure throughput harnesses, where
    /// millions of records would dominate memory and the worker's
    /// done-lock hold time; counts, telemetry, and conservation are
    /// unaffected. Controlled runs require records (measurements are
    /// computed from them) and panic if this is off.
    pub record_outcome: bool,
    /// The telemetry hub this gateway reports to. Defaults to the
    /// process-global hub; tests inject a scoped `Arc::new(Telemetry::new())`
    /// so parallel gateways never contend on shared counters.
    pub telemetry: Arc<Telemetry>,
    /// Heterogeneous function groups for multi-class serving. When
    /// non-empty, lane `g` runs `groups[g].config` and serves exactly
    /// the classes assigned to group `g`: submissions route by
    /// `Request::class` (covering every class exactly once is
    /// validated at startup), `lanes`/`initial` are superseded (one
    /// lane per group), and the `serve.class.<i>.*` counters track each
    /// class. Empty (the default) keeps the homogeneous sharded gateway.
    pub groups: Vec<FunctionGroup>,
}

impl Default for GatewayConfig {
    fn default() -> Self {
        GatewayConfig {
            initial: LambdaConfig::new(3008, 1, 0.0),
            queue_capacity: 1024,
            backpressure: BackpressurePolicy::Reject {
                retry_after_s: 0.05,
            },
            lanes: 1,
            workers: 4,
            decision_interval: 60.0,
            slo: 0.1,
            percentile: 95.0,
            record_outcome: true,
            telemetry: dbat_telemetry::global_arc(),
            groups: Vec::new(),
        }
    }
}

/// The trace-model mirror of a [`FlushReason`].
pub(crate) fn flush_kind(reason: FlushReason) -> FlushKind {
    match reason {
        FlushReason::Capacity => FlushKind::Capacity,
        FlushReason::Timeout => FlushKind::Timeout,
        FlushReason::Drain => FlushKind::Drain,
    }
}

/// The trace-model mirror of a [`LambdaConfig`], tagged with the
/// function group that owns it (0 outside multi-group serving).
pub(crate) fn trace_config(config: &LambdaConfig, group: u32) -> TraceConfig {
    TraceConfig {
        memory_mb: config.memory_mb,
        batch_size: config.batch_size,
        timeout_s: config.timeout_s,
        group,
    }
}

/// Stage the admission-side events for one request. Both gateways admit
/// and enqueue in the same instant (the live gateway stamps arrival
/// under the lane lock; the virtual one has no separate admission
/// queue), so the two events share the arrival timestamp. The live
/// worker stages these lazily at batch settle — trace events carry
/// their own timestamps, so deferring the recording keeps the admission
/// hot path free of tracing locks without changing event content.
pub(crate) fn push_admission_trace(out: &mut Vec<TraceEvent>, id: u64, t: f64, lane: u32) {
    out.push(TraceEvent::new(TraceId(id), TraceStage::Admit, t).with_lane(lane));
    out.push(TraceEvent::new(TraceId(id), TraceStage::Enqueue, t).with_lane(lane));
}

/// Stage the full per-request trace of one settled batch: window joins
/// at each member's arrival, the batch-level flush, per-request dispatch
/// and completion. Shared by the live worker and the virtual replay so
/// both emit an identical event shape. Every event carries the batch's
/// lane id, so a sharded stream can be filtered per lane and still
/// aggregate to the same reconciled totals. Events go into `out` so
/// callers can submit a whole batch (or a whole replay) through one
/// `Tracer::record_many` instead of paying per-event locks.
pub(crate) fn push_batch_trace(
    out: &mut Vec<TraceEvent>,
    fb: &FormedBatch,
    batch_idx: u64,
    completed_at: f64,
    group: u32,
) {
    let span = SpanId(batch_idx);
    let cfg = trace_config(&fb.config, group);
    let reason = flush_kind(fb.reason);
    let lane = fb.lane;
    out.reserve(1 + 3 * fb.requests.len());
    out.push(
        TraceEvent::new(
            TraceId(fb.requests[0].id),
            TraceStage::Flush,
            fb.dispatched_at,
        )
        .with_span(span)
        .with_config(cfg)
        .with_reason(reason)
        .with_size(fb.requests.len() as u32)
        .with_lane(lane),
    );
    for r in &fb.requests {
        let id = TraceId(r.id);
        out.push(
            TraceEvent::new(id, TraceStage::WindowJoin, r.arrival)
                .with_span(span)
                .with_config(cfg)
                .with_lane(lane),
        );
        out.push(
            TraceEvent::new(id, TraceStage::Dispatch, fb.dispatched_at)
                .with_span(span)
                .with_config(cfg)
                .with_reason(reason)
                .with_lane(lane),
        );
        out.push(
            TraceEvent::new(id, TraceStage::Complete, completed_at)
                .with_span(span)
                .with_lane(lane),
        );
    }
}

/// A reconfiguration command: apply `config` to arrivals from `boundary`.
#[derive(Clone, Copy, Debug)]
struct Reconfig {
    config: LambdaConfig,
    boundary: f64,
}

/// Admission-side state of one lane (guarded by `Lane::inbox`).
#[derive(Default)]
struct Inbox {
    /// Admitted on this lane, not yet handed to the lane's batcher.
    pending: VecDeque<Admitted>,
    /// `(id, arrival)` of every request accepted on this lane, sorted by
    /// arrival (stamps are taken under this lock from a monotonic
    /// clock). Only kept when a control thread needs the history.
    log: Vec<Admitted>,
    submitted: u64,
    accepted: u64,
    rejected: u64,
    /// Last arrival stamped on this lane: explicit `Request::arrival`
    /// stamps are clamped against it so the lane stays sorted.
    last_arrival: f64,
    closed: bool,
    drain: Option<DrainMode>,
    /// Boundary-ordered reconfiguration commands for this lane's batcher.
    reconfigs: VecDeque<Reconfig>,
    /// The lane's batcher is parked on `arrival_cv` and nobody has
    /// signalled it yet. Set by the batcher before it waits; taken by the
    /// first thread that gives it a reason to wake (see
    /// [`Lane::wake_batcher`]), so a running or already-signalled batcher
    /// costs its submitters no futex call.
    parked: bool,
}

/// Per-class telemetry handles (`serve.class.<i>.accepted` /
/// `serve.class.<i>.completed`; resolved only when telemetry is on).
struct ClassTel {
    accepted: Arc<Counter>,
    completed: Arc<Counter>,
}

/// Per-lane telemetry handles (`None` when telemetry is disabled).
struct LaneTel {
    /// `serve.lane.<i>.queue_depth`: admitted-not-completed on the lane.
    queue_depth: Arc<Gauge>,
    /// `serve.lane.<i>.completed`: requests completed from the lane's
    /// windows. Lane-sum equals `serve.completed` at drain.
    completed: Arc<Counter>,
}

/// One batcher lane: a bounded admission inbox feeding a dedicated
/// batcher thread, and a queue of formed batches for the worker pool.
struct Lane {
    inbox: Mutex<Inbox>,
    /// New work / reconfig / drain for this lane's batcher.
    arrival_cv: Condvar,
    /// Queue space for submitters blocked on this lane.
    space_cv: Condvar,
    /// Submitters parked (or about to park) on `space_cv`. Written only
    /// under the inbox lock; read lock-free by completing workers, which
    /// take the lock and notify only when it is non-zero. `SeqCst`
    /// against `Shared::in_flight`: a submitter publishes itself here and
    /// *then* re-reads `in_flight`, a worker lowers `in_flight` and *then*
    /// reads this, so one of the two always sees the other.
    blocked: AtomicUsize,
    /// Formed batches awaiting a worker (home workers first, thieves
    /// second).
    batches: Mutex<VecDeque<FormedBatch>>,
    /// Admitted-not-completed on this lane (feeds the lane gauge).
    depth: AtomicU64,
    tel: Option<LaneTel>,
}

impl Lane {
    fn new(tel: &Telemetry, idx: usize) -> Lane {
        Lane {
            inbox: Mutex::new(Inbox::default()),
            arrival_cv: Condvar::new(),
            space_cv: Condvar::new(),
            blocked: AtomicUsize::new(0),
            batches: Mutex::new(VecDeque::new()),
            depth: AtomicU64::new(0),
            tel: tel.is_enabled().then(|| LaneTel {
                queue_depth: tel.gauge(&format!("serve.lane.{idx}.queue_depth")),
                completed: tel.counter(&format!("serve.lane.{idx}.completed")),
            }),
        }
    }

    /// Release the inbox after giving the batcher a reason to run
    /// (arrival, reconfiguration, drain), waking it iff it is parked and
    /// not yet signalled. The notify happens after the unlock so the
    /// batcher does not wake into a held mutex.
    fn wake_batcher(&self, mut inbox: MutexGuard<'_, Inbox>) {
        let parked = std::mem::take(&mut inbox.parked);
        drop(inbox);
        if parked {
            self.arrival_cv.notify_one();
        }
    }
}

/// Work-stealing coordination: how many formed batches sit in lane
/// queues, and how many batcher threads are still alive. Touched once
/// per batch (not per request); the batch payloads live in the per-lane
/// queues.
struct WorkState {
    ready: usize,
    live_batchers: usize,
    /// Workers inside `work_cv.wait`: a batcher signals at most this many.
    parked: usize,
    /// Times a worker came back from `work_cv.wait` (the herd counter).
    wakeups: u64,
}

/// Completed work (guarded by `Shared::done`).
#[derive(Default)]
struct Done {
    /// Indexed by request id; `Some` once served. Empty when
    /// `record_outcome` is off.
    requests: Vec<Option<ServedRequest>>,
    /// In completion order (the live gateway cannot know dispatch order
    /// ahead of execution; replays use dispatch order instead).
    batches: Vec<ServedBatch>,
    completed: u64,
    total_cost: f64,
    /// `shutdown` is parked on `done_cv` until `completed` reaches this;
    /// the worker whose completion gets there makes the one notify.
    drain_target: Option<u64>,
}

/// Telemetry handles resolved once at startup (`None` when disabled).
struct ServeTel {
    submitted: Arc<Counter>,
    accepted: Arc<Counter>,
    rejected: Arc<Counter>,
    completed: Arc<Counter>,
    flush_capacity: Arc<Counter>,
    flush_timeout: Arc<Counter>,
    flush_drain: Arc<Counter>,
    reconfig: Arc<Counter>,
    /// Batches a worker stole from a non-home lane.
    steal: Arc<Counter>,
    /// Returns from `work_cv.wait`, pool-wide.
    worker_wakeups: Arc<Counter>,
    queue_depth: Arc<Gauge>,
    batch_size: Arc<Histogram>,
    latency: Arc<Histogram>,
    /// Worker execute duration in clock (virtual) seconds — replaces the
    /// old wall-time `serve.execute` span so summaries follow the
    /// gateway clock, not the host.
    execute: Arc<Histogram>,
}

impl ServeTel {
    fn resolve(t: &Telemetry) -> Option<ServeTel> {
        if !t.is_enabled() {
            return None;
        }
        Some(ServeTel {
            submitted: t.counter("serve.submitted"),
            accepted: t.counter("serve.accepted"),
            rejected: t.counter("serve.rejected"),
            completed: t.counter("serve.completed"),
            flush_capacity: t.counter("serve.flush.capacity"),
            flush_timeout: t.counter("serve.flush.timeout"),
            flush_drain: t.counter("serve.flush.drain"),
            reconfig: t.counter("serve.reconfig"),
            steal: t.counter("serve.steal"),
            worker_wakeups: t.counter("serve.worker.wakeups"),
            queue_depth: t.gauge("serve.queue_depth"),
            batch_size: t.histogram("serve.batch_size"),
            latency: t.histogram("serve.latency"),
            execute: t.histogram("span.serve.execute"),
        })
    }
}

struct Shared {
    cfg: GatewayConfig,
    clock: Arc<dyn Clock>,
    backend: Arc<dyn InferenceBackend>,
    lanes: Vec<Lane>,
    /// Cross-lane work accounting for the worker pool.
    work: Mutex<WorkState>,
    work_cv: Condvar,
    done: Mutex<Done>,
    done_cv: Condvar,
    /// Accepted − completed, gateway-wide: the single shared atomic the
    /// admission path checks against `queue_capacity`. Incremented under
    /// a lane lock (so the capacity check is exact per lane); decremented
    /// lock-free by workers (see [`Lane::blocked`] for the ordering).
    in_flight: AtomicU64,
    /// Dense gateway-global request ids (the only other shared word the
    /// admit path touches).
    next_id: AtomicU64,
    /// Batches claimed from a non-home lane.
    steals: AtomicU64,
    /// Keep the per-lane arrival logs (needed by the control thread).
    record_arrivals: bool,
    /// Class → lane routing for grouped gateways (`None` = homogeneous).
    routes: Option<ClassAssignment>,
    /// Initial configuration per lane: `groups[g].config` when grouped,
    /// `cfg.initial` on every lane otherwise.
    lane_configs: Vec<LambdaConfig>,
    /// Indexed by class id; empty when telemetry is disabled.
    class_tel: Vec<ClassTel>,
    tel: Option<ServeTel>,
}

/// Control-thread stop flag.
struct ControlStop {
    stop: Mutex<bool>,
    cv: Condvar,
}

/// Round-robin origin for submitter threads, so concurrent producers
/// start on different lanes instead of convoying on lane 0.
static NEXT_SUBMITTER: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Per-thread lane cursor: advances on every `submit`, seeded from
    /// `NEXT_SUBMITTER` so threads interleave across lanes without any
    /// shared-state traffic on the hot path.
    static LANE_CURSOR: std::cell::Cell<usize> = const { std::cell::Cell::new(usize::MAX) };
}

/// The running gateway. Dropping without `shutdown` detaches the
/// threads; always call [`Gateway::shutdown`] to collect the outcome.
pub struct Gateway {
    shared: Arc<Shared>,
    batchers: Vec<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
    control: Option<(Arc<ControlStop>, JoinHandle<Feedback>)>,
}

impl Gateway {
    /// Start with a fixed configuration (no control thread).
    pub fn start(
        cfg: GatewayConfig,
        clock: Arc<dyn Clock>,
        backend: Arc<dyn InferenceBackend>,
    ) -> Gateway {
        Gateway::launch(cfg, clock, backend, None)
    }

    /// Start under a closed-loop controller. The controller's first
    /// decision is taken synchronously here (interval `[0, I)`, empty
    /// history) and becomes the initial configuration; afterwards the
    /// control thread re-decides at every interval boundary, broadcasts
    /// the reconfiguration to every lane, and feeds measured intervals
    /// back through `observe`/`commit`.
    pub fn start_controlled(
        cfg: GatewayConfig,
        clock: Arc<dyn Clock>,
        backend: Arc<dyn InferenceBackend>,
        mut ctl: Box<dyn Controller + Send>,
    ) -> Gateway {
        let bootstrap = dbat_workload::Trace::new(Vec::new(), cfg.decision_interval);
        let ctx = DecisionContext {
            trace: &bootstrap,
            start: 0.0,
            end: cfg.decision_interval,
            index: 0,
        };
        let rec = Feedback::decide(ctl.as_mut(), &ctx);
        let mut cfg = cfg;
        cfg.initial = rec.config;
        Gateway::launch(cfg, clock, backend, Some((ctl, rec)))
    }

    fn launch(
        cfg: GatewayConfig,
        clock: Arc<dyn Clock>,
        backend: Arc<dyn InferenceBackend>,
        ctl: Option<(Box<dyn Controller + Send>, DecisionRecord)>,
    ) -> Gateway {
        assert!(cfg.workers >= 1, "need at least one worker");
        assert!(cfg.queue_capacity >= 1, "need a positive queue capacity");
        assert!(
            cfg.decision_interval > 0.0,
            "decision interval must be positive"
        );
        assert!(
            ctl.is_none() || cfg.record_outcome,
            "controlled runs measure intervals from per-request records; \
             record_outcome must stay enabled"
        );
        // Grouped gateways: one lane per function group, class-routed
        // admissions, per-group configs fixed at startup (the joint
        // decide runs offline — a control thread would overwrite the
        // heterogeneous per-group configs with one broadcast config).
        let (n_lanes, lane_configs, routes) = if cfg.groups.is_empty() {
            assert!(cfg.lanes >= 1, "need at least one batcher lane");
            cfg.initial
                .validate()
                .expect("invalid initial configuration");
            (cfg.lanes, vec![cfg.initial; cfg.lanes], None)
        } else {
            assert!(
                ctl.is_none(),
                "grouped gateways are statically configured; run the joint \
                 decide offline and restart with the new groups"
            );
            let n_classes = cfg
                .groups
                .iter()
                .flat_map(|g| g.classes.iter())
                .map(|&c| c as usize + 1)
                .max()
                .unwrap_or(0);
            let assignment = ClassAssignment::from_groups(&cfg.groups, n_classes)
                .expect("invalid function groups");
            let lane_configs: Vec<LambdaConfig> = cfg.groups.iter().map(|g| g.config).collect();
            (cfg.groups.len(), lane_configs, Some(assignment))
        };
        let tel = ServeTel::resolve(&cfg.telemetry);
        let n_classes = routes.as_ref().map_or(1, ClassAssignment::n_classes);
        let class_tel: Vec<ClassTel> = if cfg.telemetry.is_enabled() {
            (0..n_classes)
                .map(|i| ClassTel {
                    accepted: cfg.telemetry.counter(&format!("serve.class.{i}.accepted")),
                    completed: cfg.telemetry.counter(&format!("serve.class.{i}.completed")),
                })
                .collect()
        } else {
            Vec::new()
        };
        let lanes = (0..n_lanes).map(|i| Lane::new(&cfg.telemetry, i)).collect();
        let record_arrivals = ctl.is_some();
        let n_workers = cfg.workers;
        let shared = Arc::new(Shared {
            cfg,
            clock,
            backend,
            lanes,
            work: Mutex::new(WorkState {
                ready: 0,
                live_batchers: n_lanes,
                parked: 0,
                wakeups: 0,
            }),
            work_cv: Condvar::new(),
            done: Mutex::new(Done::default()),
            done_cv: Condvar::new(),
            in_flight: AtomicU64::new(0),
            next_id: AtomicU64::new(0),
            steals: AtomicU64::new(0),
            record_arrivals,
            routes,
            lane_configs,
            class_tel,
            tel,
        });
        let batchers = (0..n_lanes)
            .map(|i| {
                let s = shared.clone();
                std::thread::Builder::new()
                    .name(format!("dbat-serve-batcher-{i}"))
                    .spawn(move || batcher_loop(&s, i))
                    .expect("spawn batcher")
            })
            .collect();
        let workers = (0..n_workers)
            .map(|i| {
                let s = shared.clone();
                let home = i % n_lanes;
                std::thread::Builder::new()
                    .name(format!("dbat-serve-worker-{i}"))
                    .spawn(move || worker_loop(&s, home))
                    .expect("spawn worker")
            })
            .collect();
        let control = ctl.map(|(ctl, first)| {
            let stop = Arc::new(ControlStop {
                stop: Mutex::new(false),
                cv: Condvar::new(),
            });
            let s = shared.clone();
            let st = stop.clone();
            let handle = std::thread::Builder::new()
                .name("dbat-serve-control".into())
                .spawn(move || control_loop(&s, &st, ctl, first))
                .expect("spawn control");
            (stop, handle)
        });
        Gateway {
            shared,
            batchers,
            workers,
            control,
        }
    }

    /// The gateway's clock (the load generator paces itself on it).
    pub fn clock(&self) -> Arc<dyn Clock> {
        self.shared.clock.clone()
    }

    /// Offer one request. Grouped gateways route by `req.class` to the
    /// owning group's lane; homogeneous gateways round-robin per thread,
    /// so concurrent submitters spread across lanes. A class no group
    /// serves is refused (counted as rejected, `retry_after_s: None` —
    /// retrying cannot help). Blocks only under
    /// [`BackpressurePolicy::Block`] with a full queue.
    pub fn submit(&self, req: Request) -> Admission {
        if let Some(routes) = &self.shared.routes {
            if (req.class as usize) >= routes.n_classes() {
                let shared = &*self.shared;
                let mut inbox = shared.lanes[0].inbox.lock().unwrap();
                inbox.submitted += 1;
                if let Some(tel) = &shared.tel {
                    tel.submitted.inc();
                }
                return reject(
                    &mut inbox,
                    shared,
                    Admission::Rejected {
                        retry_after_s: None,
                    },
                );
            }
            let lane = routes.group_of(req.class) as usize;
            return self.submit_to(lane, req);
        }
        let n = self.shared.lanes.len();
        let lane = LANE_CURSOR.with(|c| {
            let mut v = c.get();
            if v == usize::MAX {
                // First submit from this thread: start threads on
                // different lanes.
                v = NEXT_SUBMITTER
                    .fetch_add(1, Ordering::Relaxed)
                    .wrapping_mul(0x9E37_79B9);
            }
            c.set(v.wrapping_add(1));
            v % n
        });
        self.submit_to(lane, req)
    }

    /// Offer one request on a specific lane (`lane % lanes()`), stamped
    /// on arrival. The explicit form exists for load harnesses and
    /// tests that pin producers to lanes; `submit` round-robins (and, on
    /// grouped gateways, routes by class — pinning bypasses the routes).
    pub fn submit_to(&self, lane: usize, req: Request) -> Admission {
        let shared = &*self.shared;
        let lane = &shared.lanes[lane % shared.lanes.len()];
        let mut inbox = lane.inbox.lock().unwrap();
        inbox.submitted += 1;
        if let Some(tel) = &shared.tel {
            tel.submitted.inc();
        }
        if inbox.closed {
            return reject(&mut inbox, shared, Admission::Closed);
        }
        // Capacity check is exact: increments happen under lane locks,
        // decrements (by workers) only ever free space.
        let full = || shared.in_flight.load(Ordering::SeqCst) as usize >= shared.cfg.queue_capacity;
        if full() {
            match shared.cfg.backpressure {
                BackpressurePolicy::Reject { retry_after_s } => {
                    return reject(
                        &mut inbox,
                        shared,
                        Admission::Rejected {
                            retry_after_s: Some(retry_after_s),
                        },
                    );
                }
                BackpressurePolicy::Block => {
                    // Publish the intent to park, then look again: a
                    // worker that freed space before it could see the
                    // count is seen here, one that frees space later sees
                    // the count and notifies under this lane's lock — so
                    // the untimed wait cannot miss its wake-up.
                    lane.blocked.fetch_add(1, Ordering::SeqCst);
                    while !inbox.closed && full() {
                        inbox = lane.space_cv.wait(inbox).unwrap();
                    }
                    lane.blocked.fetch_sub(1, Ordering::SeqCst);
                    if inbox.closed {
                        // `close` wakes every parked submitter and turns
                        // them into clean rejections, so drain can never
                        // deadlock on a full lane.
                        return reject(&mut inbox, shared, Admission::Closed);
                    }
                }
            }
        }
        // Explicit stamps are clamped to the lane's last arrival so the
        // per-lane log (and the batcher's arrival order) stays sorted.
        let arrival = req
            .arrival
            .unwrap_or_else(|| shared.clock.now())
            .max(inbox.last_arrival);
        inbox.last_arrival = arrival;
        let id = shared.next_id.fetch_add(1, Ordering::Relaxed);
        let admitted = Admitted {
            id,
            arrival,
            class: req.class,
        };
        if shared.record_arrivals {
            inbox.log.push(admitted);
        }
        inbox.pending.push_back(admitted);
        inbox.accepted += 1;
        if let Some(ct) = shared.class_tel.get(req.class as usize) {
            ct.accepted.inc();
        }
        let depth = shared.in_flight.fetch_add(1, Ordering::SeqCst) + 1;
        let lane_depth = lane.depth.fetch_add(1, Ordering::Relaxed) + 1;
        if let Some(tel) = &shared.tel {
            tel.accepted.inc();
            tel.queue_depth.set(depth as f64);
        }
        if let Some(lt) = &lane.tel {
            lt.queue_depth.set(lane_depth as f64);
        }
        lane.wake_batcher(inbox);
        Admission::Accepted { id }
    }

    /// Stop accepting new work without draining or consuming the
    /// gateway. Idempotent (the first mode wins); every submitter
    /// parked on a full lane under [`BackpressurePolicy::Block`] is
    /// woken and comes back with [`Admission::Closed`] — closing can
    /// never deadlock on blocked producers. Call [`Gateway::shutdown`]
    /// afterwards (or directly — it closes too) to drain and collect.
    pub fn close(&self, mode: DrainMode) {
        // No lane can accept once this loop ends, so the accepted counts
        // `shutdown` reads afterwards are final.
        for lane in &self.shared.lanes {
            let mut inbox = lane.inbox.lock().unwrap();
            inbox.closed = true;
            if inbox.drain.is_none() {
                inbox.drain = Some(mode);
            }
            // Wake the batcher *and* every parked submitter: blocked
            // `submit` calls must resolve to rejections, not deadlock
            // the drain. (`blocked` only changes under this lock.)
            if lane.blocked.load(Ordering::SeqCst) > 0 {
                lane.space_cv.notify_all();
            }
            lane.wake_batcher(inbox);
        }
    }

    /// Stop accepting work, serve everything accepted, join all threads
    /// and return the assembled outcome. Conservation:
    /// `submitted == accepted + rejected` and `completed == accepted`,
    /// summed across lanes.
    pub fn shutdown(mut self, mode: DrainMode) -> ServeOutcome {
        self.close(mode);
        let accepted: u64 = self
            .shared
            .lanes
            .iter()
            .map(|l| l.inbox.lock().unwrap().accepted)
            .sum();
        {
            let mut done = self.shared.done.lock().unwrap();
            done.drain_target = Some(accepted);
            while done.completed < accepted {
                done = self.shared.done_cv.wait(done).unwrap();
            }
        }
        for b in self.batchers.drain(..) {
            b.join().expect("batcher thread panicked");
        }
        for w in self.workers.drain(..) {
            w.join().expect("worker thread panicked");
        }
        let feedback = match self.control.take() {
            Some((stop, handle)) => {
                *stop.stop.lock().unwrap() = true;
                stop.cv.notify_one();
                handle.join().expect("control thread panicked")
            }
            None => Feedback::default(),
        };
        // The run is over: preserve the flight recorder's tail for
        // post-mortems before the gateway object goes away.
        self.shared.cfg.telemetry.dump_flight("drain");
        let counts = {
            let done = self.shared.done.lock().unwrap();
            let mut counts = ServeCounts {
                completed: done.completed,
                steals: self.shared.steals.load(Ordering::Relaxed),
                ..ServeCounts::default()
            };
            for lane in &self.shared.lanes {
                let inbox = lane.inbox.lock().unwrap();
                counts.submitted += inbox.submitted;
                counts.accepted += inbox.accepted;
                counts.rejected += inbox.rejected;
            }
            counts
        };
        let done = std::mem::take(&mut *self.shared.done.lock().unwrap());
        let worker_wakeups = self.shared.work.lock().unwrap().wakeups;
        ServeOutcome {
            requests: done
                .requests
                .into_iter()
                .map(|r| r.expect("accepted request not served"))
                .collect(),
            batches: done.batches,
            total_cost: done.total_cost,
            counts,
            worker_wakeups,
            measurements: feedback.measurements,
            records: feedback.records,
        }
    }
}

/// Count and report a refused submission (lane inbox lock held).
fn reject(inbox: &mut Inbox, shared: &Shared, outcome: Admission) -> Admission {
    inbox.rejected += 1;
    if let Some(tel) = &shared.tel {
        tel.rejected.inc();
    }
    outcome
}

/// One lane's batcher thread: drains the lane's admission queue into
/// batch windows, applies broadcast reconfigurations at their
/// boundaries, flushes due windows, and ships formed batches to the
/// lane's batch queue for the (work-stealing) worker pool.
fn batcher_loop(shared: &Shared, lane_idx: usize) {
    precise_timers();
    let lane = &shared.lanes[lane_idx];
    let clock = shared.clock.as_ref();
    let mut core = BatcherCore::for_lane(shared.lane_configs[lane_idx], lane_idx as u32);
    let mut formed: Vec<FormedBatch> = Vec::new();
    loop {
        let mut work: VecDeque<Admitted> = VecDeque::new();
        let mut reconfigs: VecDeque<Reconfig> = VecDeque::new();
        let drain_mode;
        let now;
        {
            let mut inbox = lane.inbox.lock().unwrap();
            loop {
                let deadline = core.next_deadline();
                let deadline_due = deadline.is_some_and(|d| d <= clock.now());
                if !inbox.pending.is_empty() || !inbox.reconfigs.is_empty() || deadline_due {
                    break;
                }
                if inbox.drain.is_some()
                    && (inbox.drain == Some(DrainMode::Immediate) || core.is_idle())
                {
                    break;
                }
                // One park: to the open window's deadline, or until an
                // arrival / reconfiguration / drain wakes the lane.
                inbox.parked = true;
                inbox = match deadline {
                    Some(d) => {
                        let wait = clock.real_duration_until(d);
                        lane.arrival_cv.wait_timeout(inbox, wait).unwrap().0
                    }
                    None => lane.arrival_cv.wait(inbox).unwrap(),
                };
                inbox.parked = false;
            }
            std::mem::swap(&mut work, &mut inbox.pending);
            std::mem::swap(&mut reconfigs, &mut inbox.reconfigs);
            drain_mode = inbox.drain;
            // Read the clock before the lock is released: a request
            // admitted after it is stamped no earlier than `now`, so no
            // window is flushed past a deadline that a request still
            // outside `work` arrived before (it would open a later window
            // that could dispatch first).
            now = clock.now();
        }
        // Interleave arrivals and reconfigurations by boundary: stamps
        // before a boundary join the old configuration's window, the
        // window is sealed, later stamps open windows under the new one.
        let mut work = work.into_iter().peekable();
        for rc in reconfigs {
            while let Some(&r) = work.peek() {
                if r.arrival < rc.boundary {
                    core.on_arrival(r, &mut formed);
                    work.next();
                } else {
                    break;
                }
            }
            core.rotate(rc.config);
        }
        for r in work {
            core.on_arrival(r, &mut formed);
        }
        core.due(now, &mut formed);
        if drain_mode == Some(DrainMode::Immediate) {
            core.drain(now, &mut formed);
        }
        if !formed.is_empty() {
            let n_formed = formed.len();
            {
                let mut q = lane.batches.lock().unwrap();
                for fb in formed.drain(..) {
                    if let Some(tel) = &shared.tel {
                        match fb.reason {
                            FlushReason::Capacity => tel.flush_capacity.inc(),
                            FlushReason::Timeout => tel.flush_timeout.inc(),
                            FlushReason::Drain => tel.flush_drain.inc(),
                        }
                        tel.batch_size.record(fb.requests.len() as f64);
                    }
                    q.push_back(fb);
                }
            }
            // Publish the batches *after* they are visible in the lane
            // queue: a worker that wins a claim always finds its batch.
            // One parked worker is woken per batch; busy workers find
            // the rest through `ready` when they come back.
            let mut ws = shared.work.lock().unwrap();
            ws.ready += n_formed;
            let wake = n_formed.min(ws.parked);
            drop(ws);
            for _ in 0..wake {
                shared.work_cv.notify_one();
            }
        }
        if drain_mode.is_some() {
            let inbox = lane.inbox.lock().unwrap();
            if inbox.pending.is_empty() && inbox.reconfigs.is_empty() && core.is_idle() {
                drop(inbox);
                let mut ws = shared.work.lock().unwrap();
                ws.live_batchers -= 1;
                // The last batcher out releases the whole pool.
                let release = ws.live_batchers == 0 && ws.parked > 0;
                drop(ws);
                if release {
                    shared.work_cv.notify_all();
                }
                return;
            }
        }
    }
}

/// Claim one formed batch for a worker whose home lane is `home`:
/// block until some lane has work (or all batchers exited), then pop
/// from the home lane, stealing from the next non-empty lane when home
/// is dry. Returns `None` when the gateway is fully drained.
fn next_batch(shared: &Shared, home: usize) -> Option<FormedBatch> {
    {
        let mut ws = shared.work.lock().unwrap();
        loop {
            if ws.ready > 0 {
                // Claim one batch. The batch is already visible in some
                // lane queue (batchers publish queue-first), so the scan
                // below always finds one.
                ws.ready -= 1;
                break;
            }
            if ws.live_batchers == 0 {
                return None;
            }
            ws.parked += 1;
            ws = shared.work_cv.wait(ws).unwrap();
            ws.parked -= 1;
            ws.wakeups += 1;
            if let Some(tel) = &shared.tel {
                tel.worker_wakeups.inc();
            }
        }
    }
    let n = shared.lanes.len();
    loop {
        for off in 0..n {
            let l = (home + off) % n;
            if let Some(fb) = shared.lanes[l].batches.lock().unwrap().pop_front() {
                if l != home {
                    shared.steals.fetch_add(1, Ordering::Relaxed);
                    if let Some(tel) = &shared.tel {
                        tel.steal.inc();
                    }
                }
                return Some(fb);
            }
        }
        // Transient: another claimant took the batch we scanned past
        // while ours sits in a lane we already visited. There are always
        // at least as many queued batches as outstanding claims, so a
        // rescan terminates.
        std::thread::yield_now();
    }
}

/// A worker: claims a formed batch (home lane first, stealing
/// otherwise), executes it through the backend (sleeping the planned
/// service time on the gateway clock), and files the completion records.
fn worker_loop(shared: &Shared, home: usize) {
    precise_timers();
    while let Some(fb) = next_batch(shared, home) {
        let size = fb.requests.len() as u32;
        let lane = &shared.lanes[fb.lane as usize];
        let plan = shared.backend.plan(&fb.config, size);
        // Execute time is measured on the gateway clock (virtual
        // seconds), not wall time, so the `span.serve.execute`
        // histogram is in the same units as every other stamp.
        let exec_started = shared.clock.now();
        shared.backend.execute(shared.clock.as_ref(), &plan, &fb);
        let completed_at = shared.clock.now();
        if let Some(tel) = &shared.tel {
            tel.execute.record(completed_at - exec_started);
        }
        let mut done = shared.done.lock().unwrap();
        let batch_idx = done.batches.len();
        if shared.cfg.record_outcome {
            done.batches.push(ServedBatch {
                opened_at: fb.opened_at,
                dispatched_at: fb.dispatched_at,
                completed_at,
                size,
                service_s: plan.service_s,
                cost: plan.cost,
                config: fb.config,
                reason: fb.reason,
                lane: fb.lane,
            });
            for r in &fb.requests {
                let id = r.id as usize;
                if done.requests.len() <= id {
                    done.requests.resize(id + 1, None);
                }
                debug_assert!(done.requests[id].is_none(), "request {id} served twice");
                done.requests[id] = Some(ServedRequest {
                    id: r.id,
                    arrival: r.arrival,
                    dispatched_at: fb.dispatched_at,
                    completed_at,
                    batch: batch_idx,
                    lane: fb.lane,
                    class: r.class,
                });
            }
        }
        if let Some(tel) = &shared.tel {
            for r in &fb.requests {
                tel.latency.record(completed_at - r.arrival);
            }
        }
        if !shared.class_tel.is_empty() {
            for r in &fb.requests {
                if let Some(ct) = shared.class_tel.get(r.class as usize) {
                    ct.completed.inc();
                }
            }
        }
        done.total_cost += plan.cost;
        done.completed += size as u64;
        let drained = done.drain_target.is_some_and(|n| done.completed >= n);
        drop(done);
        let tracer = shared.cfg.telemetry.tracer();
        if tracer.is_active() {
            // Admission events are staged here too (see
            // `push_admission_trace`): one `record_many` per batch is the
            // only tracing lock the serving path ever takes.
            let mut events = Vec::with_capacity(1 + 5 * fb.requests.len());
            for r in &fb.requests {
                push_admission_trace(&mut events, r.id, r.arrival, fb.lane);
            }
            // On grouped gateways the lane *is* the function group.
            let group = if shared.routes.is_some() { fb.lane } else { 0 };
            push_batch_trace(&mut events, &fb, batch_idx as u64, completed_at, group);
            tracer.record_many(&events);
        }
        let depth = shared.in_flight.fetch_sub(size as u64, Ordering::SeqCst) - size as u64;
        let lane_depth = lane.depth.fetch_sub(size as u64, Ordering::Relaxed) - size as u64;
        if let Some(tel) = &shared.tel {
            tel.completed.add(size as u64);
            tel.queue_depth.set(depth as f64);
        }
        if let Some(lt) = &lane.tel {
            lt.completed.add(size as u64);
            lt.queue_depth.set(lane_depth as f64);
        }
        if drained {
            shared.done_cv.notify_one();
        }
        // Capacity is global, so a completion may unblock a submitter
        // parked on *any* lane. Taking the lane lock orders the notify
        // after the submitter's park (it holds the lock until it waits).
        for l in &shared.lanes {
            if l.blocked.load(Ordering::SeqCst) > 0 {
                let _inbox = l.inbox.lock().unwrap();
                l.space_cv.notify_all();
            }
        }
    }
}

/// Snapshot every lane's arrival log, merged into one sorted sequence.
/// Lanes are locked one at a time (never two at once); each per-lane log
/// is already sorted, so this is a k-way merge done as concat + sort.
fn merged_arrivals(shared: &Shared) -> Vec<f64> {
    let mut all: Vec<f64> = Vec::new();
    for lane in &shared.lanes {
        let inbox = lane.inbox.lock().unwrap();
        all.extend(inbox.log.iter().map(|a| a.arrival));
    }
    all.sort_by(f64::total_cmp);
    all
}

/// The control thread: waits out each decision interval on the gateway
/// clock, re-decides at the boundary from the merged observed arrival
/// history, broadcasts the reconfiguration to every lane, and closes
/// completed intervals through the [`Feedback`] protocol, in order.
fn control_loop(
    shared: &Shared,
    stop: &ControlStop,
    mut ctl: Box<dyn Controller + Send>,
    first: DecisionRecord,
) -> Feedback {
    precise_timers();
    let interval = shared.cfg.decision_interval;
    let mut pending: VecDeque<(DecisionRecord, Instant)> = VecDeque::new();
    pending.push_back((first, Instant::now()));
    let mut feedback = Feedback::default();
    let mut k = 0usize;
    loop {
        let boundary = (k + 1) as f64 * interval;
        let stopped = {
            let mut guard = stop.stop.lock().unwrap();
            loop {
                if *guard {
                    break true;
                }
                if shared.clock.now() >= boundary {
                    break false;
                }
                let wait = shared.clock.real_duration_until(boundary);
                guard = stop.cv.wait_timeout(guard, wait).unwrap().0;
            }
        };
        if stopped {
            break;
        }
        // Decide for [boundary, boundary + interval) from what has been
        // observed so far (never peeking past the boundary).
        let arrivals = merged_arrivals(shared);
        let horizon = shared
            .clock
            .now()
            .max(boundary)
            .max(arrivals.last().copied().unwrap_or(0.0) + 1e-9);
        let trace = dbat_workload::Trace::new(arrivals, horizon);
        let ctx = DecisionContext {
            trace: &trace,
            start: boundary,
            end: boundary + interval,
            index: k + 1,
        };
        let rec = Feedback::decide(ctl.as_mut(), &ctx);
        // Broadcast: every lane gets the boundary-stamped command and
        // applies it in its own arrival order (per-lane boundary
        // ordering, exactly the unsharded guarantee).
        for lane in &shared.lanes {
            let mut inbox = lane.inbox.lock().unwrap();
            inbox.reconfigs.push_back(Reconfig {
                config: rec.config,
                boundary,
            });
            lane.wake_batcher(inbox);
        }
        if let Some(tel) = &shared.tel {
            tel.reconfig.inc();
            // Stamped at the decision boundary on the gateway clock, so
            // the event lines up with the requests' own stamps.
            shared.cfg.telemetry.emit_at(
                "serve.reconfig",
                boundary,
                dbat_telemetry::serde_json::to_value(&rec),
            );
        }
        pending.push_back((rec, Instant::now()));
        finalize_intervals(shared, ctl.as_mut(), &mut pending, &mut feedback, false);
        k += 1;
    }
    // Shutdown already waited for completed == accepted, so everything
    // left can be finalised unconditionally.
    finalize_intervals(shared, ctl.as_mut(), &mut pending, &mut feedback, true);
    feedback
}

/// Finalise decided intervals head-of-line: once an interval has ended
/// and every request that arrived in it (on any lane) has completed,
/// measure it from the served records and close it.
fn finalize_intervals(
    shared: &Shared,
    ctl: &mut dyn Controller,
    pending: &mut VecDeque<(DecisionRecord, Instant)>,
    feedback: &mut Feedback,
    force: bool,
) {
    while let Some(&(rec, wall)) = pending.front() {
        if !force && shared.clock.now() < rec.end {
            break;
        }
        // Ids of every request that arrived in [start, end), across all
        // lanes (each per-lane log is sorted by arrival).
        let mut ids: Vec<u64> = Vec::new();
        for lane in &shared.lanes {
            let inbox = lane.inbox.lock().unwrap();
            let lo = inbox.log.partition_point(|a| a.arrival < rec.start);
            let hi = inbox.log.partition_point(|a| a.arrival < rec.end);
            ids.extend(inbox.log[lo..hi].iter().map(|a| a.id));
        }
        // `None`: an interval nothing arrived in.
        let mut measured = None;
        if !ids.is_empty() {
            let done = shared.done.lock().unwrap();
            let served = ids
                .iter()
                .all(|&id| done.requests.get(id as usize).is_some_and(|r| r.is_some()));
            // An unserved request under `force` should be unreachable:
            // shutdown drains before stopping the control thread. Commit
            // unmeasured rather than hang.
            if !served && !force {
                break;
            }
            if served {
                let latencies: Vec<f64> = ids
                    .iter()
                    .map(|&id| {
                        done.requests[id as usize]
                            .as_ref()
                            .expect("checked")
                            .latency()
                    })
                    .collect();
                let cost: f64 = done
                    .batches
                    .iter()
                    .filter(|b| b.opened_at >= rec.start && b.opened_at < rec.end)
                    .map(|b| b.cost)
                    .sum();
                measured = Some(IntervalMeasurement::new(
                    (rec.start, rec.end),
                    rec.config,
                    LatencySummary::from_latencies(&latencies),
                    cost / ids.len() as f64,
                    ids.len(),
                    (shared.cfg.slo, shared.cfg.percentile),
                    wall.elapsed().as_secs_f64(),
                ));
            }
        }
        feedback.close(ctl, rec, measured);
        pending.pop_front();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::ProfiledBackend;
    use crate::clock::WallClock;
    use dbat_sim::SimParams;

    fn quick_gateway(capacity: usize, policy: BackpressurePolicy) -> Gateway {
        let cfg = GatewayConfig {
            initial: LambdaConfig::new(2048, 4, 0.002),
            queue_capacity: capacity,
            backpressure: policy,
            workers: 2,
            decision_interval: 1.0,
            ..GatewayConfig::default()
        };
        Gateway::start(
            cfg,
            Arc::new(WallClock::with_speedup(50.0)),
            Arc::new(ProfiledBackend::from_params(&SimParams::default())),
        )
    }

    #[test]
    fn serves_everything_submitted_and_conserves_counts() {
        let gw = quick_gateway(64, BackpressurePolicy::Block);
        let mut accepted = 0u64;
        for _ in 0..25 {
            match gw.submit(Request::default()) {
                Admission::Accepted { .. } => accepted += 1,
                other => panic!("unexpected admission {other:?}"),
            }
        }
        let out = gw.shutdown(DrainMode::Graceful);
        assert_eq!(out.counts.accepted, accepted);
        assert_eq!(out.counts.completed, accepted);
        assert_eq!(out.counts.rejected, 0);
        assert!(out.counts.conserved());
        assert_eq!(out.requests.len(), 25);
        // Ids are dense and arrival-ordered; everyone completed after
        // dispatching at or after arrival.
        for (i, r) in out.requests.iter().enumerate() {
            assert_eq!(r.id, i as u64);
            assert!(r.dispatched_at >= r.arrival - 1e-9);
            assert!(r.completed_at > r.dispatched_at);
        }
        let sizes: u64 = out.batches.iter().map(|b| b.size as u64).sum();
        assert_eq!(sizes, accepted);
    }

    /// A backend whose executions block until the test opens the gate,
    /// pinning the in-flight count for deterministic capacity tests.
    struct GatedBackend {
        inner: ProfiledBackend,
        gate: Arc<(Mutex<bool>, Condvar)>,
    }

    impl InferenceBackend for GatedBackend {
        fn name(&self) -> &'static str {
            "gated"
        }
        fn plan(&self, config: &LambdaConfig, batch_size: u32) -> crate::backend::BatchPlan {
            self.inner.plan(config, batch_size)
        }
        fn execute(
            &self,
            _clock: &dyn Clock,
            _plan: &crate::backend::BatchPlan,
            _batch: &FormedBatch,
        ) {
            let (m, cv) = &*self.gate;
            let mut open = m.lock().unwrap();
            while !*open {
                open = cv.wait(open).unwrap();
            }
        }
    }

    #[test]
    fn admission_rejects_exactly_at_full_capacity() {
        let gate = Arc::new((Mutex::new(false), Condvar::new()));
        let cfg = GatewayConfig {
            initial: LambdaConfig::new(2048, 1, 0.0),
            queue_capacity: 4,
            backpressure: BackpressurePolicy::Reject {
                retry_after_s: 0.25,
            },
            workers: 4,
            ..GatewayConfig::default()
        };
        let gw = Gateway::start(
            cfg,
            Arc::new(WallClock::with_speedup(50.0)),
            Arc::new(GatedBackend {
                inner: ProfiledBackend::default(),
                gate: gate.clone(),
            }),
        );
        // The gate is shut: nothing completes, so in-flight only grows.
        // The capacity-th request is still accepted ...
        for _ in 0..4 {
            assert!(matches!(
                gw.submit(Request::default()),
                Admission::Accepted { .. }
            ));
        }
        // ... and the one past exactly-full capacity is rejected with the
        // configured retry hint.
        assert_eq!(
            gw.submit(Request::default()),
            Admission::Rejected {
                retry_after_s: Some(0.25)
            }
        );
        // Release the executions and drain: every accepted request is
        // served, the rejection stays counted.
        {
            let (m, cv) = &*gate;
            *m.lock().unwrap() = true;
            cv.notify_all();
        }
        let out = gw.shutdown(DrainMode::Graceful);
        assert_eq!(out.counts.submitted, 5);
        assert_eq!(out.counts.accepted, 4);
        assert_eq!(out.counts.rejected, 1);
        assert_eq!(out.counts.completed, 4);
        assert!(out.counts.conserved());
    }

    #[test]
    fn admission_round_trips_through_json() {
        // `Rejected { retry_after_s: None }` used to be `∞`, which JSON
        // cannot represent; the sentinel must survive a full round trip.
        let cases = [
            Admission::Accepted { id: 42 },
            Admission::Rejected {
                retry_after_s: Some(0.25),
            },
            Admission::Rejected {
                retry_after_s: None,
            },
            Admission::Closed,
        ];
        for adm in cases {
            let text = serde_json::to_string(&adm).expect("serializable");
            let back: Admission = serde_json::from_str(&text).expect("parseable");
            assert_eq!(back, adm, "round trip of {text}");
        }
        // The no-retry sentinel omits the field entirely.
        let text = serde_json::to_string(&Admission::Rejected {
            retry_after_s: None,
        })
        .unwrap();
        assert!(!text.contains("retry_after_s"), "got {text}");
        // Unknown statuses are a clear error, not a silent default.
        assert!(serde_json::from_str::<Admission>("{\"status\":\"weird\"}").is_err());
    }

    #[test]
    fn closed_gateway_refuses_submissions() {
        let gw = quick_gateway(8, BackpressurePolicy::Reject { retry_after_s: 0.1 });
        assert!(matches!(
            gw.submit(Request::default()),
            Admission::Accepted { .. }
        ));
        // Shut down via a second handle is impossible (shutdown consumes);
        // instead verify the closed flag path through drain.
        let out = gw.shutdown(DrainMode::Immediate);
        assert_eq!(out.counts.accepted, 1);
        assert_eq!(out.counts.completed, 1);
        assert!(out.counts.conserved());
    }

    #[test]
    fn immediate_drain_flushes_open_windows() {
        // Long timeout: without the drain these would sit for 100 s.
        let cfg = GatewayConfig {
            initial: LambdaConfig::new(2048, 64, 100.0),
            queue_capacity: 64,
            backpressure: BackpressurePolicy::Block,
            workers: 1,
            ..GatewayConfig::default()
        };
        let gw = Gateway::start(
            cfg,
            Arc::new(WallClock::with_speedup(10.0)),
            Arc::new(ProfiledBackend::default()),
        );
        for _ in 0..5 {
            assert!(matches!(
                gw.submit(Request::default()),
                Admission::Accepted { .. }
            ));
        }
        let out = gw.shutdown(DrainMode::Immediate);
        assert_eq!(out.counts.completed, 5);
        assert!(out
            .batches
            .iter()
            .any(|b| b.reason == FlushReason::Drain || b.reason == FlushReason::Timeout));
    }

    #[test]
    fn sharded_lanes_partition_work_and_conserve() {
        let cfg = GatewayConfig {
            initial: LambdaConfig::new(2048, 4, 0.005),
            queue_capacity: 1024,
            backpressure: BackpressurePolicy::Block,
            lanes: 4,
            workers: 4,
            ..GatewayConfig::default()
        };
        let gw = Gateway::start(
            cfg,
            Arc::new(WallClock::with_speedup(100.0)),
            Arc::new(ProfiledBackend::default()),
        );
        for i in 0..200usize {
            assert!(matches!(
                gw.submit_to(i % 4, Request::default()),
                Admission::Accepted { .. }
            ));
        }
        let out = gw.shutdown(DrainMode::Graceful);
        assert_eq!(out.counts.accepted, 200);
        assert_eq!(out.counts.completed, 200);
        assert!(out.counts.conserved());
        // Every lane carried work, batches never mix lanes, and the
        // per-lane partition covers everything exactly once.
        let by_lane = out.completed_by_lane();
        assert_eq!(by_lane.len(), 4);
        assert_eq!(by_lane, vec![50, 50, 50, 50]);
        for b in &out.batches {
            assert!(b.lane < 4);
        }
        for r in &out.requests {
            assert_eq!(r.lane, out.batches[r.batch].lane);
        }
    }

    #[test]
    fn grouped_gateway_routes_classes_to_their_group_lane() {
        let hub = Arc::new(Telemetry::new());
        hub.enable();
        let fast = LambdaConfig::new(3008, 1, 0.0);
        let cheap = LambdaConfig::new(1024, 8, 0.01);
        let cfg = GatewayConfig {
            queue_capacity: 512,
            backpressure: BackpressurePolicy::Block,
            workers: 2,
            telemetry: hub.clone(),
            groups: vec![
                FunctionGroup::new(fast, vec![0]),
                FunctionGroup::new(cheap, vec![1]),
            ],
            ..GatewayConfig::default()
        };
        let gw = Gateway::start(
            cfg,
            Arc::new(WallClock::with_speedup(100.0)),
            Arc::new(ProfiledBackend::default()),
        );
        for i in 0..60u16 {
            assert!(matches!(
                gw.submit(Request::of_class(i % 2)),
                Admission::Accepted { .. }
            ));
        }
        // A class no group serves is refused, permanently.
        assert!(matches!(
            gw.submit(Request::of_class(7)),
            Admission::Rejected { .. }
        ));
        let out = gw.shutdown(DrainMode::Graceful);
        assert_eq!(out.counts.accepted, 60);
        assert_eq!(out.counts.completed, 60);
        assert_eq!(out.counts.rejected, 1);
        assert!(out.counts.conserved());
        // Class i rides lane i only, under its group's config.
        for r in &out.requests {
            assert_eq!(r.lane, r.class as u32);
        }
        for b in &out.batches {
            assert_eq!(b.config, if b.lane == 0 { fast } else { cheap });
        }
        // The serve.class.<i>.* stream reconciles with the outcome.
        for class in 0..2u64 {
            assert_eq!(
                hub.counter(&format!("serve.class.{class}.accepted")).get(),
                30
            );
            assert_eq!(
                hub.counter(&format!("serve.class.{class}.completed")).get(),
                30
            );
        }
    }

    #[test]
    fn record_outcome_off_keeps_counts_and_conservation() {
        let cfg = GatewayConfig {
            initial: LambdaConfig::new(2048, 8, 0.002),
            queue_capacity: 512,
            backpressure: BackpressurePolicy::Block,
            lanes: 2,
            workers: 2,
            record_outcome: false,
            ..GatewayConfig::default()
        };
        let gw = Gateway::start(
            cfg,
            Arc::new(WallClock::with_speedup(100.0)),
            Arc::new(ProfiledBackend::default()),
        );
        for _ in 0..100 {
            assert!(matches!(
                gw.submit(Request::default()),
                Admission::Accepted { .. }
            ));
        }
        let out = gw.shutdown(DrainMode::Graceful);
        assert_eq!(out.counts.accepted, 100);
        assert_eq!(out.counts.completed, 100);
        assert!(out.counts.conserved());
        // No per-request records were kept, by request.
        assert!(out.requests.is_empty());
        assert!(out.batches.is_empty());
        assert!(out.total_cost > 0.0, "cost still accumulates");
    }
}
