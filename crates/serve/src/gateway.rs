//! The live threaded gateway: one batcher lane per function group
//! feeding one shared ready queue, a worker pool, and an optional
//! control thread for hot reconfiguration.
//!
//! Built entirely on std primitives (threads + `Mutex`/`Condvar`, no
//! async runtime). Thread layout (any number of submitters):
//!
//! ```text
//!  submit() ──▶ lane 0 [inbox] ──▶ batcher 0 ───┐
//!     ...  (grouped: class ─▶ its group's lane)  ├──▶ [ready queue] ──▶ worker pool
//!  submit() ──▶ lane G-1 [..] ──▶ batcher G-1 ──┘
//!
//!  control thread ── Reconfig to lane 0
//!  (any Controller)   at interval boundaries
//! ```
//!
//! An ungrouped gateway has exactly one lane, like the paper's one
//! buffer per function (§III-B); a grouped gateway
//! ([`GatewayConfig::groups`]) has one lane per function group, and
//! `submit` routes each request to the lane serving its class. A
//! submitter touches one lane mutex, one global id allocator, and one
//! global in-flight atomic (the capacity bound) — no lock is ever taken
//! on two lanes at once. Each lane runs its own [`BatcherCore`] on its
//! own batcher thread and keeps its arrival log stamped under its lock.
//!
//! Formed batches go, in formation order, onto one FIFO under the small
//! `work` mutex, and any worker pops the front: like the paper's
//! autoscaled instances, no worker belongs to a lane. The queue is
//! touched once per *batch* by its batcher and once by its worker, never
//! per request. Lock order is `lane.inbox → work → done`, and `work` is
//! a leaf: nothing else is locked while it is held.
//!
//! Wake-ups are exact and targeted (DESIGN.md §11 has the table): every
//! condition a thread parks on keeps, under the lock that already guards
//! it, a note of who is parked, so a notifier wakes exactly the threads
//! that can make progress and makes no futex call when nobody waits. No
//! wait is a poll: each is one park to its real deadline (or untimed),
//! and every gateway thread drops the kernel timer slack at start
//! ([`crate::clock`]) so timed parks and service sleeps fire when asked.
//!
//! Only an ungrouped gateway runs a control thread, so reconfigurations
//! go to its one lane and are applied by its batcher at the requested
//! boundary: arrivals stamped before the boundary join the old
//! configuration's window, the window is then sealed (never split or
//! dropped — see [`BatcherCore::rotate`]), and later arrivals open
//! windows under the new configuration.

use crate::backend::InferenceBackend;
use crate::clock::{precise_timers, Clock};
use crate::outcome::{interval_of, Ledger, ServeCounts, ServeOutcome};
use dbat_sim::{
    publish_decision, Admitted, BatcherCore, ClassAssignment, Controller, DecisionContext,
    DecisionRecord, Feedback, FlushReason, FormedBatch, FunctionGroup, IntervalMeasurement,
    LambdaConfig, LatencySummary,
};
use dbat_telemetry::{Counter, Gauge, Histogram, Telemetry};
use dbat_workload::ClassId;
use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::Instant;

/// One request offered for admission, stamped on the gateway clock under
/// its lane's lock. `Request::default()` is the single-class submission
/// (class 0).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Request {
    /// Request class (indexes [`GatewayConfig::groups`] assignments).
    pub(crate) class: ClassId,
}

impl Request {
    /// A class-tagged request.
    pub fn of_class(class: ClassId) -> Self {
        Request { class }
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
    /// served by any group).
    Rejected { retry_after_s: Option<f64> },
    /// The gateway is shutting down and accepts no new work.
    Closed,
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
    /// global atomic — a grouped gateway's lanes share the bound.
    pub queue_capacity: usize,
    pub backpressure: BackpressurePolicy,
    /// Unread. Kept only because `benchmark/` sets it; ROADMAP item 1(e)
    /// removes it.
    pub lanes: usize,
    /// Worker threads executing batches (invocations run concurrently,
    /// mirroring serverless autoscaling; size for peak in-flight batches).
    /// Every worker serves every group's lane: each takes the oldest
    /// batch from the one shared ready queue.
    pub workers: usize,
    /// Decision interval for the control thread, virtual seconds.
    pub decision_interval: f64,
    /// SLO (seconds) and latency percentile the control loop measures.
    pub slo: f64,
    pub percentile: f64,
    /// Keep per-request / per-batch records for the final
    /// [`ServeOutcome`], and nothing else. Disable for long or
    /// throughput runs, where millions of records would dominate memory
    /// and the worker's done-lock hold time; counts, telemetry,
    /// conservation and a controlled run's interval measurements are
    /// unaffected.
    pub record_outcome: bool,
    /// The telemetry hub this gateway reports to, traces into and, when
    /// controlled, publishes its decisions' `controller.*` metrics to. A
    /// fresh, disabled hub by default.
    pub telemetry: Arc<Telemetry>,
    /// Heterogeneous function groups for multi-class serving. When
    /// non-empty, lane `g` runs `groups[g].config` and serves exactly
    /// the classes assigned to group `g`: submissions route by
    /// `Request::class` (covering every class exactly once is
    /// validated at startup), `initial` is superseded, and the
    /// `serve.class.<i>.*` counters track each class. Empty (the
    /// default) is the homogeneous gateway: one lane under `initial`.
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
            telemetry: Arc::default(),
            groups: Vec::new(),
        }
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
    /// Arrival stamps since the control thread last took them, sorted
    /// (stamped under this lock from a monotonic clock). Only kept for a
    /// control thread.
    log: Vec<f64>,
    submitted: u64,
    accepted: u64,
    rejected: u64,
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

/// One batcher lane (one per function group): a bounded admission inbox
/// feeding a dedicated batcher thread. Lanes sit side by side in
/// `Shared::lanes`, and every request writes its lane's inbox lock; the
/// alignment keeps two lanes off one cache line (and its prefetched
/// pair), so producers on different lanes do not contend through false
/// sharing.
#[repr(align(128))]
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
}

impl Lane {
    fn new() -> Lane {
        Lane {
            inbox: Mutex::new(Inbox::default()),
            arrival_cv: Condvar::new(),
            space_cv: Condvar::new(),
            blocked: AtomicUsize::new(0),
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

/// The worker pool's side of the gateway (guarded by `Shared::work`):
/// the formed batches of every lane, and how many batcher threads are
/// still alive. Touched once per batch by its batcher and once by its
/// worker, never per request.
struct WorkState {
    /// Formed batches awaiting a worker: each lane's in formation order,
    /// popped from the front by any worker.
    ready: VecDeque<FormedBatch>,
    live_batchers: usize,
    /// Workers inside `work_cv.wait`: a batcher signals at most this many.
    parked: usize,
    /// Times a worker came back from `work_cv.wait` (the herd counter).
    wakeups: u64,
}

/// Completed work (guarded by `Shared::done`).
struct Done {
    /// Batches settled so far, in completion order (the live gateway
    /// cannot know dispatch order ahead of execution).
    ledger: Ledger,
    /// `shutdown` is parked on `done_cv` until `ledger.completed` reaches
    /// this; the worker whose completion gets there makes the one notify.
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
    /// The shared ready queue every lane's batcher fills.
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
    /// Log arrival stamps for the control thread.
    record_arrivals: bool,
    /// Class → lane routing for grouped gateways (`None` = homogeneous).
    routes: Option<ClassAssignment>,
    /// Initial configuration per lane: `groups[g].config` when grouped,
    /// `cfg.initial` on the one lane otherwise.
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
    /// control thread re-decides at every interval boundary, hands the
    /// reconfiguration to the gateway's one lane, and feeds measured
    /// intervals back through `observe`/`commit`.
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
        publish_decision(&cfg.telemetry, &rec);
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
        // Grouped gateways: one lane per function group, class-routed
        // admissions, per-group configs fixed at startup (the joint
        // decide runs offline — a control thread would overwrite the
        // heterogeneous per-group configs with one broadcast config).
        let (lane_configs, routes) = if cfg.groups.is_empty() {
            cfg.initial
                .validate()
                .expect("invalid initial configuration");
            (vec![cfg.initial], None)
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
            (lane_configs, Some(assignment))
        };
        let n_lanes = lane_configs.len();
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
        let lanes = (0..n_lanes).map(|_| Lane::new()).collect();
        let record_arrivals = ctl.is_some();
        let n_workers = cfg.workers;
        let ledger = Ledger::new(
            cfg.record_outcome,
            record_arrivals.then_some(cfg.decision_interval),
        );
        let shared = Arc::new(Shared {
            cfg,
            clock,
            backend,
            lanes,
            work: Mutex::new(WorkState {
                ready: VecDeque::new(),
                live_batchers: n_lanes,
                parked: 0,
                wakeups: 0,
            }),
            work_cv: Condvar::new(),
            done: Mutex::new(Done {
                ledger,
                drain_target: None,
            }),
            done_cv: Condvar::new(),
            in_flight: AtomicU64::new(0),
            next_id: AtomicU64::new(0),
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
                std::thread::Builder::new()
                    .name(format!("dbat-serve-worker-{i}"))
                    .spawn(move || worker_loop(&s))
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
    /// owning group's lane; an ungrouped gateway has one lane. A class no
    /// group serves is refused (counted as rejected, `retry_after_s:
    /// None` — retrying cannot help). Blocks only under
    /// [`BackpressurePolicy::Block`] with a full queue.
    pub fn submit(&self, req: Request) -> Admission {
        let Some(routes) = &self.shared.routes else {
            return self.submit_to(0, req);
        };
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
        self.submit_to(routes.group_of(req.class) as usize, req)
    }

    /// Offer one request on a specific lane (`lane %` the lane count),
    /// stamped on arrival. On an ungrouped gateway every `lane` is its one
    /// lane; on a grouped one, pinning bypasses the class routes. Load
    /// harnesses call it; `submit` is the routed form.
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
        // Capacity check is exact: increments happen under a lane lock,
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
        // Stamped under the lane lock from a monotonic clock, so the
        // lane's log (and the batcher's arrival order) stays sorted.
        let arrival = shared.clock.now();
        let id = shared.next_id.fetch_add(1, Ordering::Relaxed);
        let admitted = Admitted {
            id,
            arrival,
            class: req.class,
        };
        if shared.record_arrivals {
            inbox.log.push(arrival);
        }
        inbox.pending.push_back(admitted);
        inbox.accepted += 1;
        if let Some(ct) = shared.class_tel.get(req.class as usize) {
            ct.accepted.inc();
        }
        let depth = shared.in_flight.fetch_add(1, Ordering::SeqCst) + 1;
        if let Some(tel) = &shared.tel {
            tel.accepted.inc();
            tel.queue_depth.set(depth as f64);
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
    /// summed over the lanes.
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
            while done.ledger.completed < accepted {
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
        let mut counts = ServeCounts::default();
        for lane in &self.shared.lanes {
            let inbox = lane.inbox.lock().unwrap();
            counts.submitted += inbox.submitted;
            counts.accepted += inbox.accepted;
            counts.rejected += inbox.rejected;
        }
        let ledger = std::mem::take(&mut self.shared.done.lock().unwrap().ledger);
        let worker_wakeups = self.shared.work.lock().unwrap().wakeups;
        ledger.finish(counts, worker_wakeups, feedback)
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
/// batch windows, applies reconfigurations at their boundaries, flushes
/// due windows, and publishes formed batches on the shared ready queue.
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
            if let Some(tel) = &shared.tel {
                for fb in &formed {
                    match fb.reason {
                        FlushReason::Capacity => tel.flush_capacity.inc(),
                        FlushReason::Timeout => tel.flush_timeout.inc(),
                        FlushReason::Drain => tel.flush_drain.inc(),
                    }
                    tel.batch_size.record(fb.requests.len() as f64);
                }
            }
            // One parked worker is woken per batch; busy workers find the
            // rest in the queue when they come back.
            let mut ws = shared.work.lock().unwrap();
            let wake = formed.len().min(ws.parked);
            ws.ready.extend(formed.drain(..));
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

/// Take the oldest formed batch, parking until a batcher publishes one.
/// A claim is checked before the exit condition, so no batch is
/// stranded; returns `None` once the queue is empty and every batcher
/// has exited.
fn next_batch(shared: &Shared) -> Option<FormedBatch> {
    let mut ws = shared.work.lock().unwrap();
    loop {
        if let Some(fb) = ws.ready.pop_front() {
            return Some(fb);
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

/// A worker: takes a formed batch from the ready queue, executes it
/// through the backend (sleeping the planned service time on the gateway
/// clock), and settles it into the ledger.
fn worker_loop(shared: &Shared) {
    precise_timers();
    let tracer = shared.cfg.telemetry.tracer();
    let mut events = Vec::new();
    while let Some(fb) = next_batch(shared) {
        let size = fb.requests.len() as u64;
        let plan = shared.backend.plan(&fb.config, size as u32);
        // Execute time is measured on the gateway clock (virtual
        // seconds), not wall time, so the `span.serve.execute`
        // histogram is in the same units as every other stamp.
        let exec_started = shared.clock.now();
        shared.backend.execute(shared.clock.as_ref(), &plan, &fb);
        let completed_at = shared.clock.now();
        if let Some(tel) = &shared.tel {
            tel.execute.record(completed_at - exec_started);
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
        let trace = tracer.is_active().then_some(&mut events);
        let mut done = shared.done.lock().unwrap();
        done.ledger.settle(&fb, &plan, completed_at, trace);
        let drained = done
            .drain_target
            .is_some_and(|n| done.ledger.completed >= n);
        drop(done);
        if !events.is_empty() {
            // One `record_many` per batch is the only tracing lock the
            // serving path ever takes.
            tracer.record_many(&events);
            events.clear();
        }
        let depth = shared.in_flight.fetch_sub(size, Ordering::SeqCst) - size;
        if let Some(tel) = &shared.tel {
            tel.completed.add(size);
            tel.queue_depth.set(depth as f64);
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

/// The control thread: waits out each decision interval on the gateway
/// clock, re-decides at the boundary from the arrivals it keeps, hands
/// the reconfiguration to the lane, and closes completed intervals
/// through the [`Feedback`] protocol, in order. A controlled gateway is
/// ungrouped, so lane 0 is its only lane.
///
/// It keeps the stamps its controller may still read, from
/// [`Controller::reads_from`] of the next boundary on, and a count of
/// admissions per open interval; measurements come from the ledger's
/// per-interval accumulators.
fn control_loop(
    shared: &Shared,
    stop: &ControlStop,
    mut ctl: Box<dyn Controller + Send>,
    first: DecisionRecord,
) -> Feedback {
    precise_timers();
    let lane = &shared.lanes[0];
    let interval = shared.cfg.decision_interval;
    let tel = &shared.cfg.telemetry;
    let retained = tel.is_enabled().then(|| tel.gauge("serve.control.history"));
    // Decided intervals not yet closed: index, record, decision instant.
    let mut decided = VecDeque::from([(0, first, Instant::now())]);
    let mut feedback = Feedback::default();
    // The sorted arrival stamps a decision may still read, and the
    // admissions counted into each interval not yet closed.
    let mut history: Vec<f64> = Vec::new();
    let mut arrived: BTreeMap<usize, usize> = BTreeMap::new();
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
        // Take what the lane logged since the last boundary (a swap); every
        // request stamped before `seen` is in it.
        let (fresh, seen) = {
            let mut inbox = lane.inbox.lock().unwrap();
            (std::mem::take(&mut inbox.log), shared.clock.now())
        };
        for &t in &fresh {
            *arrived.entry(interval_of(t, interval)).or_default() += 1;
        }
        history.extend(fresh);
        let next = (k + 2) as f64 * interval;
        // Every stamp taken is before `seen`.
        let trace = dbat_workload::Trace::new(history, seen.max(boundary));
        if !stopped {
            // Decide for [boundary, next) from what has been observed so
            // far (never peeking past the boundary).
            let ctx = DecisionContext {
                trace: &trace,
                start: boundary,
                end: next,
                index: k + 1,
            };
            let rec = Feedback::decide(ctl.as_mut(), &ctx);
            publish_decision(tel, &rec);
            // The batcher applies the boundary-stamped command in its
            // arrival order.
            let mut inbox = lane.inbox.lock().unwrap();
            inbox.reconfigs.push_back(Reconfig {
                config: rec.config,
                boundary,
            });
            lane.wake_batcher(inbox);
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
            decided.push_back((k + 1, rec, Instant::now()));
        }
        // Close decided intervals head-of-line: once one has ended by
        // `seen` and every request that arrived in it has settled, measure
        // it from its ledger accumulator. After the drain (`stopped`),
        // close everything decided.
        while let Some(&(i, rec, wall)) = decided.front() {
            if !stopped && seen < (i + 1) as f64 * interval {
                break;
            }
            let n = arrived.get(&i).copied().unwrap_or(0);
            let mut done = shared.done.lock().unwrap();
            let Some(acc) = done.ledger.close_interval(i, n, stopped) else {
                break;
            };
            drop(done);
            // `None`: an interval nothing arrived in. An unserved request
            // after the drain should be unreachable: commit it unmeasured
            // rather than hang.
            let measured = (n > 0 && acc.latencies.len() == n).then(|| {
                IntervalMeasurement::new(
                    (rec.start, rec.end),
                    rec.config,
                    LatencySummary::from_latencies(&acc.latencies),
                    acc.cost / n as f64,
                    n,
                    (shared.cfg.slo, shared.cfg.percentile),
                    wall.elapsed().as_secs_f64(),
                )
            });
            feedback.close(ctl.as_mut(), rec, measured);
            decided.pop_front();
            arrived.remove(&i);
        }
        if stopped {
            return feedback;
        }
        // Keep only what a later decision may read.
        let from = ctl.reads_from(&trace, next);
        history = trace.timestamps()[trace.lower_bound(from)..].to_vec();
        if let Some(gauge) = &retained {
            gauge.set(history.len() as f64);
        }
        k += 1;
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
        let config = LambdaConfig::new(2048, 4, 0.005);
        let cfg = GatewayConfig {
            queue_capacity: 1024,
            backpressure: BackpressurePolicy::Block,
            workers: 4,
            groups: (0..4)
                .map(|g| FunctionGroup::new(config, vec![g]))
                .collect(),
            ..GatewayConfig::default()
        };
        let gw = Gateway::start(
            cfg,
            Arc::new(WallClock::with_speedup(100.0)),
            Arc::new(ProfiledBackend::default()),
        );
        for i in 0..200u16 {
            assert!(matches!(
                gw.submit(Request::of_class(i % 4)),
                Admission::Accepted { .. }
            ));
        }
        let out = gw.shutdown(DrainMode::Graceful);
        assert_eq!(out.counts.accepted, 200);
        assert_eq!(out.counts.completed, 200);
        assert!(out.counts.conserved());
        // Every group's lane carried its class's work, batches never mix
        // lanes, and the partition covers everything exactly once.
        assert_eq!(out.completed_by_class(), vec![50, 50, 50, 50]);
        for b in &out.batches {
            assert!(b.lane < 4);
        }
        for r in &out.requests {
            assert_eq!(r.lane, r.class as u32);
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
        // Per-request cost and batch size come from the counts.
        assert!((1..=100).contains(&out.settled_batches));
        assert_eq!(
            out.cost_per_request().to_bits(),
            (out.total_cost / 100.0).to_bits()
        );
        assert_eq!(
            out.mean_batch_size().to_bits(),
            (100.0 / out.settled_batches as f64).to_bits()
        );
        assert!(out.cost_per_request() > 0.0 && out.mean_batch_size() >= 1.0);
    }

    /// A batch's span id is its settle index, which the ledger counts
    /// whether or not it keeps records: without records, every traced
    /// batch still gets a span of its own.
    #[test]
    fn traced_batches_get_distinct_spans_without_records() {
        let hub = Arc::new(Telemetry::new());
        hub.tracer().enable_capture();
        let n = 24u64;
        let cfg = GatewayConfig {
            initial: LambdaConfig::new(2048, 1, 0.0),
            queue_capacity: 64,
            backpressure: BackpressurePolicy::Block,
            workers: 2,
            record_outcome: false,
            telemetry: hub.clone(),
            ..GatewayConfig::default()
        };
        let gw = Gateway::start(
            cfg,
            Arc::new(WallClock::with_speedup(100.0)),
            Arc::new(ProfiledBackend::default()),
        );
        for _ in 0..n {
            assert!(matches!(
                gw.submit(Request::default()),
                Admission::Accepted { .. }
            ));
        }
        let out = gw.shutdown(DrainMode::Graceful);
        assert_eq!(out.counts.completed, n);
        let flushes: Vec<u64> = hub
            .tracer()
            .drain()
            .iter()
            .filter(|e| e.stage == dbat_telemetry::TraceStage::Flush)
            .map(|e| e.sort_key().3)
            .collect();
        assert_eq!(flushes.len() as u64, n, "B = 1: one flush per request");
        let spans: std::collections::BTreeSet<u64> = flushes.into_iter().collect();
        assert_eq!(spans.len() as u64, n, "span ids repeat");
    }
}
