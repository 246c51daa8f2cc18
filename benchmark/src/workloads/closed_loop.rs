//! `closed_loop` — the control-plane workload. `dbat_sim::run_controller`
//! drives a `DeepBatController` (fast scoring, window 128, the 216-config
//! paper grid) over one hour of a synthetic-MAP trace and one hour of an
//! alibaba-like trace at a 10 s decision interval: 720 decisions a pass.
//! `core` encode + score does most of the wall time, `sim` measures each
//! interval, `serve` is never called.
//!
//! * work unit: one decision interval decided and, if it held arrivals,
//!   measured;
//! * operation: one `Controller::decide` (`DecisionRecord::decide_s`).

use super::{passes, report_timings, trained_surrogate, PassTiming, SEQ_LEN, SLO};
use crate::gen::{fnv1a, FNV_OFFSET};
use crate::run::Ctx;
use crate::spans::Recorder;
use crate::stats::{median, TailSummary};
use dbat_core::{DeepBatController, Surrogate, WindowStats};
use dbat_sim::{
    run_controller, simulate_faults, vcr_of, ConfigGrid, Controller, FaultPlan,
    IntervalMeasurement, LambdaConfig, SimConfig,
};
use dbat_workload::{window_at_time, Trace, TraceKind, HOUR};
use std::sync::Arc;
use std::time::Instant;

const DECISION_INTERVAL_S: f64 = 10.0;
/// Each leg warms the window on a quarter hour, then runs an hour.
const WARMUP_S: f64 = 0.25 * HOUR;

/// One trace and the span of it the loop runs over.
struct Leg {
    trace: Trace,
    t0: f64,
    t1: f64,
}

struct Inputs {
    legs: Vec<Leg>,
    model: Arc<Surrogate>,
    opts: SimConfig,
}

fn build(seed: u64) -> Inputs {
    // The alibaba-like day is quiet until its first peak builds up after
    // hour 3; the leg rides that ramp so `sim` has real work per interval.
    let legs: Vec<Leg> = [
        (TraceKind::SyntheticMap, 0.0),
        (TraceKind::AlibabaLike, 3.0 * HOUR),
    ]
    .into_iter()
    .map(|(kind, from)| {
        let t0 = from + WARMUP_S;
        let t1 = t0 + HOUR;
        Leg {
            trace: kind.generate_for(seed, t1),
            t0,
            t1,
        }
    })
    .collect();
    // Trained on each leg's warm-up quarter hour only: the loop never
    // decides on windows the surrogate was fitted to.
    let warmups: Vec<Trace> = legs
        .iter()
        .map(|l| l.trace.slice(l.t0 - WARMUP_S, l.t0))
        .collect();
    let model = trained_surrogate(&warmups.iter().collect::<Vec<_>>(), seed);
    Inputs {
        legs,
        model: Arc::new(model),
        opts: SimConfig::builder()
            .slo(SLO)
            .decision_interval(DECISION_INTERVAL_S)
            .build()
            .expect("a valid loop configuration"),
    }
}

fn controller(inp: &Inputs) -> DeepBatController {
    let mut ctl =
        DeepBatController::new(ConfigGrid::paper_default(), SLO).with_model(inp.model.clone());
    ctl.decision_interval = DECISION_INTERVAL_S;
    ctl
}

/// Everything one pass over both legs produced.
#[derive(Default)]
struct Pass {
    wall_s: f64,
    decide_s: Vec<f64>,
    measure_busy_s: f64,
    measurements: Vec<IntervalMeasurement>,
    requests: u64,
    batches: u64,
    switches: u64,
    /// Fingerprint of the `(index, M, B, T)` decision sequence.
    hash: u64,
    last: Option<LambdaConfig>,
}

impl Pass {
    fn new() -> Self {
        Pass {
            hash: FNV_OFFSET,
            ..Pass::default()
        }
    }

    fn decided(&mut self, index: usize, config: LambdaConfig) {
        for word in [
            index as u64,
            config.memory_mb as u64,
            config.batch_size as u64,
            config.timeout_s.to_bits(),
        ] {
            self.hash = fnv1a(self.hash, word);
        }
        if self.last.is_some_and(|prev| prev != config) {
            self.switches += 1;
        }
        self.last = Some(config);
    }

    fn measured(&mut self, m: IntervalMeasurement) {
        self.measure_busy_s += m.wall_s;
        self.requests += m.requests as u64;
        self.measurements.push(m);
    }

    fn intervals(&self) -> usize {
        self.decide_s.len() + self.measurements.len()
    }

    /// Request-weighted cost per request, µUSD.
    fn cost_uusd(&self) -> f64 {
        let cost: f64 = self
            .measurements
            .iter()
            .map(|m| m.cost_per_request * m.requests as f64)
            .sum();
        cost / self.requests.max(1) as f64 * 1e6
    }

    fn vcr_pct(&self) -> f64 {
        vcr_of(&self.measurements)
    }
}

/// The untraced pass: the program's own closed-loop driver.
fn driver_pass(inp: &Inputs) -> Pass {
    let mut pass = Pass::new();
    let t0 = Instant::now();
    for leg in &inp.legs {
        let mut ctl = controller(inp);
        let out = run_controller(&mut ctl, &leg.trace, leg.t0, leg.t1, &inp.opts);
        for r in &out.records {
            pass.decide_s.push(r.decide_s);
            pass.decided(r.index, r.config);
        }
        out.measurements.into_iter().for_each(|m| pass.measured(m));
    }
    pass.wall_s = t0.elapsed().as_secs_f64();
    pass
}

/// The traced pass: the harness's own loop over the same public calls
/// `run_controller` and `DeepBatController::decide` make, with a span
/// around each, so every layer's share of an interval is visible. Its
/// decision sequence must equal the driver's bit for bit.
fn traced_pass(inp: &Inputs, rec: &mut Recorder) -> Pass {
    let mut pass = Pass::new();
    let inert = FaultPlan::default();
    let started = Instant::now();
    for (li, leg) in inp.legs.iter().enumerate() {
        let mut ctl = controller(inp);
        let (mut t, mut index) = (leg.t0, 0usize);
        while t < leg.t1 {
            let end = (t + DECISION_INTERVAL_S).min(leg.t1);
            let op = ((li as u64) << 32) | index as u64;
            let root = rec.enter("bench.interval", op);
            let t_decide = Instant::now();
            let window = rec.span("workload.window_at_time", op, || {
                window_at_time(&leg.trace, t, SEQ_LEN, 1.0)
            });
            let config = match window {
                Some(w) => {
                    let d = rec.span("core.choose", op, || {
                        ctl.optimizer.choose(&inp.model, &w.interarrivals)
                    });
                    rec.span("core.window_stats", op, || {
                        std::hint::black_box(WindowStats::from_window(&w.interarrivals));
                    });
                    d.chosen.config
                }
                None => ctl.bootstrap,
            };
            pass.decide_s.push(t_decide.elapsed().as_secs_f64());
            pass.decided(index, config);
            let slice = rec.span("workload.slice", op, || {
                leg.trace.slice(t, end.min(leg.trace.horizon()))
            });
            if !slice.is_empty() {
                let t_sim = Instant::now();
                let out = rec.span("sim.simulate_faults", op, || {
                    simulate_faults(slice.timestamps(), &config, &inp.opts.params, &inert)
                });
                let summary = rec.span("sim.summary", op, || out.summary());
                let m = IntervalMeasurement {
                    start: t,
                    end,
                    config,
                    summary,
                    cost_per_request: out.cost_per_request(),
                    requests: out.sim.requests.len(),
                    violation: summary.percentile(inp.opts.percentile) > inp.opts.slo,
                    cold_starts: 0,
                    retries: 0,
                    lost: 0,
                    wall_s: t_sim.elapsed().as_secs_f64(),
                };
                pass.batches += out.sim.batches.len() as u64;
                rec.span("core.observe", op, || ctl.observe(&m));
                pass.measured(m);
            }
            rec.exit(root);
            t = end;
            index += 1;
        }
    }
    pass.wall_s = started.elapsed().as_secs_f64();
    pass
}

pub fn run(ctx: &mut Ctx) {
    // One decision at a time is the workload: on one CPU it is not the
    // slower of two vCPUs that sets each decision's time.
    let _pinned = crate::cpu::pin_to_one_cpu();
    let seed = ctx.seed;
    let inp = ctx.setup(|| build(seed));
    for leg in &inp.legs {
        println!(
            "leg: {} arrivals in [{:.0}, {:.0}) s",
            leg.trace.count_in(leg.t0, leg.t1),
            leg.t0,
            leg.t1
        );
    }
    if ctx.traced {
        run_traced(ctx, &inp);
        return;
    }
    let all = passes(ctx.budget(), |_| driver_pass(&inp));
    let reference = all[0].hash;
    for (i, p) in all.iter().enumerate() {
        ctx.check.ops(p.intervals() as u64, 0);
        ctx.check.check(p.hash == reference, || {
            format!(
                "pass {i}: decision sequence repeats ({:#x} vs {reference:#x})",
                p.hash
            )
        });
    }
    let first = &all[0];
    println!(
        "decisions/pass {} | config switches {} | cost {:.4} uUSD/req | SLO violations {:.2} % | hash {reference:#x}",
        first.decide_s.len(),
        first.switches,
        first.cost_uusd(),
        first.vcr_pct()
    );
    let timings = all
        .into_iter()
        .map(|p| PassTiming {
            work_per_s: p.intervals() as f64 / p.wall_s,
            op_s: p.decide_s,
        })
        .collect();
    report_timings(ctx, "decide", timings);
}

/// Pairs of (driver pass, traced pass): the pair's wall times give the
/// tracing overhead, the traced pass's spans the per-layer ledger.
fn run_traced(ctx: &mut Ctx, inp: &Inputs) {
    let pairs = passes(ctx.budget(), |_| {
        (driver_pass(inp), traced_pass(inp, &mut ctx.rec))
    });
    let (mut overhead, mut gap) = (Vec::new(), Vec::new());
    let traced_passes = pairs.len() as f64;
    let layered = crate::spans::self_time_by_layer(ctx.rec.spans());
    let in_layers: f64 = layered
        .iter()
        .filter(|(layer, _)| **layer != "bench")
        .map(|(_, s)| s)
        .sum();
    for (i, (driver, traced)) in pairs.iter().enumerate() {
        ctx.check
            .ops((driver.intervals() + traced.intervals()) as u64, 0);
        ctx.check.check(traced.hash == driver.hash, || {
            format!(
                "pair {i}: traced decisions equal the driver's ({:#x} vs {:#x})",
                traced.hash, driver.hash
            )
        });
        overhead.push((traced.wall_s / driver.wall_s - 1.0) * 100.0);
        // Layer self times of an average traced pass against this
        // driver pass's wall: what no layer's span accounts for.
        gap.push((1.0 - in_layers / traced_passes / driver.wall_s) * 100.0);
    }
    // Checked on the quietest pair: a neighbour's burst between the two
    // passes of a pair is not a gap in the ledger.
    let closest = gap.iter().map(|g| g.abs()).fold(f64::INFINITY, f64::min);
    ctx.check.check(closest <= 10.0, || {
        format!(
            "layer self times reconcile with the driver's wall (gap {closest:.2} %, limit 10 %)"
        )
    });
    let gap = median(&mut gap);
    ctx.set("bench.trace_overhead_pct", median(&mut overhead));
    ctx.set("bench.reconcile_gap_pct", gap);

    let (driver, traced) = &pairs[0];
    let mut decide_us: Vec<f64> = driver.decide_s.iter().map(|s| s * 1e6).collect();
    let decide = TailSummary::of(&mut decide_us);
    ctx.set("core.decide_p90_us", decide.p90);
    ctx.set("core.decide_p99_us", decide.p99);
    ctx.set("core.decide_max_us", decide.max);
    ctx.set("core.decide_busy_s", driver.decide_s.iter().sum());
    ctx.set("core.decisions", driver.decide_s.len() as f64);
    ctx.set("core.config_switches", driver.switches as f64);
    ctx.set("core.cost_per_req_uusd", driver.cost_uusd());
    ctx.set("core.slo_violation_pct", driver.vcr_pct());
    ctx.set("sim.measure_busy_s", driver.measure_busy_s);
    ctx.set("sim.requests", driver.requests as f64);
    ctx.set("sim.batches", traced.batches as f64);
}
