//! The five workloads. Each builds its inputs from `--seed` under
//! [`Ctx::setup`], then repeats a pass of fixed work until the run's time
//! budget is spent and reports the median of the per-pass values, so a
//! noisy neighbour has to disturb most passes to move a metric.

pub mod closed_loop;
pub mod gateway_flood;
pub mod gateway_paced;
pub mod sim_replay;
pub mod train_finetune;

use crate::run::Ctx;
use crate::stats::{median, TailSummary};
use dbat_core::{generate_dataset, train, Surrogate, SurrogateConfig, TrainConfig, TrainSample};
use dbat_sim::{ConfigGrid, SimParams};
use dbat_workload::Trace;
use std::time::{Duration, Instant};

/// The paper's latency SLO (seconds) and the window length this
/// reproduction operates at.
pub const SLO: f64 = 0.1;
pub const SEQ_LEN: usize = 128;

/// Seed of every surrogate's initial weights: the model is part of the
/// program under test, only its training data follows `--seed`.
const MODEL_SEED: u64 = 2024;

/// A workload: its name and its entry point.
pub type Workload = (&'static str, fn(&mut Ctx));

/// The workloads, in `BENCHMARK.json` order.
pub const ALL: [Workload; 5] = [
    ("closed_loop", closed_loop::run),
    ("sim_replay", sim_replay::run),
    ("gateway_paced", gateway_paced::run),
    ("gateway_flood", gateway_flood::run),
    ("train_finetune", train_finetune::run),
];

pub fn fresh_surrogate() -> Surrogate {
    Surrogate::new(
        SurrogateConfig {
            seq_len: SEQ_LEN,
            ..SurrogateConfig::default()
        },
        MODEL_SEED,
    )
}

pub fn train_config(epochs: usize) -> TrainConfig {
    TrainConfig {
        epochs,
        lr: 3e-3,
        shards: 4,
        ..TrainConfig::default()
    }
}

/// `per_trace` simulator-labelled windows from each trace.
pub fn labelled(traces: &[&Trace], per_trace: usize, seed: u64) -> Vec<TrainSample> {
    let grid = ConfigGrid::paper_default();
    let params = SimParams::default();
    traces
        .iter()
        .enumerate()
        .flat_map(|(i, tr)| {
            generate_dataset(
                tr,
                &grid,
                &params,
                per_trace,
                SEQ_LEN,
                SLO,
                seed ^ (i as u64 + 1),
            )
        })
        .collect()
}

/// The short deterministic training the controller workloads do in
/// set-up: enough for the surrogate to spread its choices over the grid,
/// small enough to repeat three times a run. Decision *quality* is
/// watched per layer (`core.cost_per_req_uusd`, `core.slo_violation_pct`),
/// not gated end to end.
pub fn trained_surrogate(traces: &[&Trace], seed: u64) -> Surrogate {
    let data = labelled(traces, 64, seed);
    let mut model = fresh_surrogate();
    train(&mut model, &data, &train_config(4));
    model
}

/// Repeat `pass` until the budget is spent (at least once).
pub fn passes<T>(budget: Duration, mut pass: impl FnMut(usize) -> T) -> Vec<T> {
    let t0 = Instant::now();
    let mut out = Vec::new();
    loop {
        out.push(pass(out.len()));
        if t0.elapsed() >= budget {
            return out;
        }
    }
}

/// What one pass measured: the throughput of its bulk work and the
/// latencies (seconds) of its unit operations.
#[derive(Default)]
pub struct PassTiming {
    pub work_per_s: f64,
    pub op_s: Vec<f64>,
}

/// Reduce per-pass timings to the two timing metrics: each is the median
/// over passes of the per-pass value (the per-pass p90 is printed, not
/// gated: it moves with the neighbours more than with the code). Returns
/// the pooled summary for the caller's per-layer figures.
pub fn report_timings(ctx: &mut Ctx, op_name: &str, passes: Vec<PassTiming>) -> TailSummary {
    let mut work: Vec<f64> = passes.iter().map(|p| p.work_per_s).collect();
    let mut p50 = Vec::with_capacity(passes.len());
    let mut p90 = Vec::with_capacity(passes.len());
    let mut pooled = Vec::new();
    for p in passes {
        let mut us: Vec<f64> = p.op_s.iter().map(|s| s * 1e6).collect();
        let s = TailSummary::of(&mut us);
        p50.push(s.p50);
        p90.push(s.p90);
        pooled.append(&mut us);
    }
    println!("passes: {} | per-pass work/s {work:.1?}", work.len());
    println!("per-pass op p50 us {p50:.2?}");
    println!("per-pass op p90 us {p90:.2?}");
    let summary = TailSummary::of(&mut pooled);
    println!("{}", summary.line(&format!("{op_name}, pooled"), "us"));
    ctx.set("work_per_s", median(&mut work));
    ctx.set("op_p50_us", median(&mut p50));
    summary
}
