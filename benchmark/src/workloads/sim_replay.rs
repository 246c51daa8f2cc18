//! `sim_replay` — the ground-truth / label-generation workload. `sim`
//! does all of the work and `core`/`nn` none. It runs the windowed and
//! the continuous disciplines side by side, each under its own metric,
//! so a simulator change cannot speed one up at the other's expense
//! without it showing.
//!
//! * work unit: one request simulated under one configuration, by
//!   `dbat_sim::sweep` of the 216-config grid (rayon, all cores) over
//!   four synthetic-MAP slices of 10 000 arrivals, one from each of four
//!   hours (each hour has its own rate and burstiness);
//! * operation: one single-thread `simulate_tokens_continuous` call
//!   (4 replicas, long-decode token mix) over 1 000 consecutive requests
//!   of an azure-like trace, 100 calls a pass.
//!
//! Slices are cut by request count, not by time, so a pass does the same
//! amount of work whatever the seed.

use super::{passes, report_timings, PassTiming};
use crate::run::Ctx;
use dbat_serve::VirtualGateway;
use dbat_sim::{
    simulate_batching, simulate_tokens_continuous, sweep, ConfigGrid, LambdaConfig, SimParams,
    TokenParams,
};
use dbat_workload::{LognormalTokens, TokenMix, TokenizedTrace, Trace, TraceKind, HOUR};
use std::time::Instant;

const SWEEP_SLICES: usize = 4;
const SWEEP_SLICE_REQUESTS: usize = 10_000;
const CONTINUOUS_CALLS: usize = 100;
const CONTINUOUS_SLICE_REQUESTS: usize = 1_000;
const CONTINUOUS_REPLICAS: usize = 4;

struct Inputs {
    synth: Trace,
    tokens: TokenizedTrace,
    grid: ConfigGrid,
    params: SimParams,
    token_params: TokenParams,
    /// The engine configuration of the continuous passes.
    engine: LambdaConfig,
}

impl Inputs {
    /// Slice `i` of the sweep: the first arrivals of hour `i`.
    fn sweep_slice(&self, i: usize) -> &[f64] {
        let lo = self.synth.lower_bound(i as f64 * HOUR);
        &self.synth.timestamps()[lo..lo + SWEEP_SLICE_REQUESTS]
    }
}

fn build(seed: u64) -> Inputs {
    let azure = TraceKind::AzureLike.generate_for(seed, 1.5 * HOUR);
    assert!(
        azure.len() >= CONTINUOUS_CALLS * CONTINUOUS_SLICE_REQUESTS,
        "the azure-like trace is too short for the continuous passes"
    );
    Inputs {
        synth: TraceKind::SyntheticMap.generate_for(seed, SWEEP_SLICES as f64 * HOUR),
        tokens: TokenizedTrace::sample(
            azure,
            &TokenMix::Lognormal(LognormalTokens::long_decode()),
            seed,
        ),
        grid: ConfigGrid::paper_default(),
        params: SimParams::default(),
        token_params: TokenParams::llm_like(),
        engine: LambdaConfig::new(3008, 8, 0.05),
    }
}

#[derive(Default)]
struct Pass {
    timing: PassTiming,
    requests: u64,
    batches: f64,
    decode_steps: u64,
}

fn pass(ctx: &mut Ctx, inp: &Inputs, op_base: u64) -> Pass {
    let mut out = Pass::default();
    let root = ctx.rec.enter("bench.pass", op_base);
    let mut sweep_s = 0.0;
    let mut request_sims = 0u64;
    for i in 0..SWEEP_SLICES {
        let arrivals = inp.sweep_slice(i);
        let t0 = Instant::now();
        let evals = ctx.rec.span("sim.sweep", op_base + i as u64, || {
            sweep(arrivals, &inp.grid, &inp.params)
        });
        sweep_s += t0.elapsed().as_secs_f64();
        request_sims += (arrivals.len() * evals.len()) as u64;
        out.requests += arrivals.len() as u64;
        out.batches += evals
            .iter()
            .map(|e| arrivals.len() as f64 / e.mean_batch_size.max(1.0))
            .sum::<f64>();
        ctx.check.ops(evals.len() as u64, 0);
    }
    let mut op_s = Vec::with_capacity(CONTINUOUS_CALLS);
    for call in 0..CONTINUOUS_CALLS {
        let (lo, hi) = (
            call * CONTINUOUS_SLICE_REQUESTS,
            (call + 1) * CONTINUOUS_SLICE_REQUESTS,
        );
        let t0 = Instant::now();
        let sim = ctx
            .rec
            .span("sim.tokens_continuous", op_base + call as u64, || {
                simulate_tokens_continuous(
                    &inp.tokens.arrivals()[lo..hi],
                    &inp.tokens.specs()[lo..hi],
                    &inp.engine,
                    &inp.token_params,
                    CONTINUOUS_REPLICAS,
                )
            });
        op_s.push(t0.elapsed().as_secs_f64());
        out.decode_steps += sim.invocations.len() as u64;
        out.requests += sim.offered as u64;
        ctx.check.tokens_conserved("continuous slice", &sim);
    }
    ctx.rec.exit(root);
    out.timing = PassTiming {
        work_per_s: request_sims as f64 / sweep_s,
        op_s,
    };
    out
}

/// `VirtualGateway::replay` must equal `simulate_batching` bit for bit.
fn check_replay_equivalence(ctx: &mut Ctx, inp: &Inputs) {
    let arrivals = inp.sweep_slice(0);
    let config = LambdaConfig::new(2048, 8, 0.05);
    let sim = simulate_batching(arrivals, &config, &inp.params, None);
    let served = VirtualGateway::from_params(&inp.params).replay(arrivals, &config);
    let same = sim.requests.len() == served.requests.len()
        && sim.batches.len() == served.batches.len()
        && sim.total_cost.to_bits() == served.total_cost.to_bits()
        && sim.requests.iter().zip(&served.requests).all(|(a, b)| {
            a.arrival.to_bits() == b.arrival.to_bits()
                && a.dispatch.to_bits() == b.dispatched_at.to_bits()
                && a.completion.to_bits() == b.completed_at.to_bits()
        });
    ctx.check.check(same, || {
        format!(
            "VirtualGateway::replay == simulate_batching bitwise on {} arrivals",
            arrivals.len()
        )
    });
}

pub fn run(ctx: &mut Ctx) {
    let seed = ctx.seed;
    let inp = ctx.setup(|| build(seed));
    println!(
        "sweep: {SWEEP_SLICES} slices x {SWEEP_SLICE_REQUESTS} arrivals x {} configs | continuous: {CONTINUOUS_CALLS} calls x {CONTINUOUS_SLICE_REQUESTS} requests",
        inp.grid.len()
    );
    let all = passes(ctx.budget(), |i| pass(ctx, &inp, (i as u64) << 32));
    check_replay_equivalence(ctx, &inp);
    let first = &all[0];
    ctx.set("sim.requests", first.requests as f64);
    ctx.set("sim.batches", first.batches.round());
    ctx.set("sim.decode_steps", first.decode_steps as f64);
    let timings = all.into_iter().map(|p| p.timing).collect();
    report_timings(ctx, "continuous call", timings);
}
