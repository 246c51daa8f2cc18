//! Layer probes: one small timed call into each layer's public
//! functions, at the shapes the workloads use. Every traced run takes
//! all of them, whatever its workload, so each layer has a tracked
//! figure on every traced line of the ledger. A probe's figure is the
//! median over five timed blocks.

use crate::run::Ctx;
use crate::stats::median;
use crate::workloads::{fresh_surrogate, labelled, train_config, SEQ_LEN, SLO};
use dbat_core::{
    fit_standardizers, generate_dataset, to_tensors_weighted, DeepBatOptimizer, SurrogatePlan,
};
use dbat_linalg::{gemm, softmax_rows_inplace, Layout};
use dbat_nn::{gather_rows, Adam, Arena, InferencePlan, Tensor};
use dbat_serve::{Admitted, BatcherCore, VirtualGateway};
use dbat_sim::{
    evaluate, simulate_batching, simulate_batching_multi, simulate_faults,
    simulate_tokens_continuous, simulate_tokens_windowed, sweep, ConfigGrid, FaultPlan,
    FunctionGroup, LambdaConfig, LatencySummary, SimParams, TokenParams,
};
use dbat_telemetry::Telemetry;
use dbat_workload::{
    window_at_time, ClassedTrace, LognormalTokens, RequestClass, Rng, TokenMix, TokenizedTrace,
    TraceKind,
};
use std::hint::black_box;
use std::time::Instant;

const BLOCKS: usize = 5;
/// Target length of one timed block, seconds.
const BLOCK_S: f64 = 0.012;
/// Seconds of azure-like trace the probes share.
const TRACE_S: f64 = 600.0;

/// Seconds per call of `f`: one warm-up call, one calibration call, then
/// the median over [`BLOCKS`] blocks of the block's mean.
fn time_per_call(mut f: impl FnMut()) -> f64 {
    f();
    let t0 = Instant::now();
    f();
    let one = t0.elapsed().as_secs_f64().max(1e-9);
    let reps = ((BLOCK_S / one) as usize).clamp(1, 10_000_000);
    let mut blocks: Vec<f64> = (0..BLOCKS)
        .map(|_| {
            let t0 = Instant::now();
            for _ in 0..reps {
                f();
            }
            t0.elapsed().as_secs_f64() / reps as f64
        })
        .collect();
    median(&mut blocks)
}

fn noise(rng: &mut Rng, n: usize) -> Vec<f64> {
    (0..n).map(|_| rng.normal()).collect()
}

pub fn run(ctx: &mut Ctx) {
    let started = Instant::now();
    let seed = ctx.seed;
    let mut rng = Rng::new(seed);
    let grid = ConfigGrid::paper_default();
    let params = SimParams::default();
    let config = LambdaConfig::new(2048, 8, 0.05);

    // --- linalg: the encoder's small GEMM, the trainer's large one ------
    let gflops = |m: usize, n: usize, k: usize, rng: &mut Rng| {
        let (a, b) = (noise(rng, m * k), noise(rng, k * n));
        let mut out = vec![0.0; m * n];
        let s = time_per_call(|| {
            gemm(m, n, k, &a, Layout::Normal, &b, Layout::Normal, &mut out);
            black_box(&mut out);
        });
        2.0 * (m * n * k) as f64 / s / 1e9
    };
    ctx.set(
        "linalg.gemm_small_gflops",
        gflops(SEQ_LEN, 16, 16, &mut rng),
    );
    ctx.set("linalg.gemm_large_gflops", gflops(256, 256, 256, &mut rng));
    let mut scores = noise(&mut rng, SEQ_LEN * SEQ_LEN);
    let s = time_per_call(|| {
        softmax_rows_inplace(&mut scores, SEQ_LEN);
        black_box(&mut scores);
    });
    ctx.set("linalg.softmax_ns_per_row", s / SEQ_LEN as f64 * 1e9);

    // --- workload: generation and slicing --------------------------------
    let mut trace = TraceKind::AzureLike.generate_for(seed, TRACE_S);
    let s = time_per_call(|| trace = TraceKind::AzureLike.generate_for(seed, TRACE_S));
    ctx.set("workload.gen_mreq_per_s", trace.len() as f64 / s / 1e6);
    let s = time_per_call(|| {
        black_box(trace.slice(300.0, 310.0));
    });
    ctx.set("workload.slice_us", s * 1e6);
    let arrivals = trace.timestamps();

    // --- nn + core: the decision path, piece by piece --------------------
    let mut model = fresh_surrogate();
    let data = labelled(&[&trace], 16, seed);
    let tc = train_config(1);
    let (seq_raw, feats_raw, targets, weights) =
        to_tensors_weighted(&data, tc.violation_weight, tc.latency_weight);
    fit_standardizers(&mut model, &seq_raw, &feats_raw);
    let s = time_per_call(|| {
        black_box(SurrogatePlan::compile(&model));
    });
    ctx.set("nn.plan_compile_us", s * 1e6);
    let plan = InferencePlan::compile(&model.encoder);
    // Fresh input every call: the forward runs in place, and its own
    // output is not what the encoder sees in use.
    let embedded = noise(&mut rng, SEQ_LEN * model.cfg.dim);
    let mut x = embedded.clone();
    let mut arena = Arena::new();
    let s = time_per_call(|| {
        x.copy_from_slice(&embedded);
        plan.forward(1, SEQ_LEN, &mut x, &mut arena);
        black_box(&mut x);
    });
    ctx.set("nn.encoder_plan_us", s * 1e6);
    let rows: Vec<usize> = (0..8).collect();
    let (seq8_raw, feats8_raw) = (gather_rows(&seq_raw, &rows), gather_rows(&feats_raw, &rows));
    let s = time_per_call(|| {
        black_box(model.predict(&seq8_raw, &feats8_raw));
    });
    ctx.set("nn.graph_fwd_us", s * 1e6);

    let window = window_at_time(&trace, TRACE_S / 2.0, SEQ_LEN, 1.0)
        .expect("the probe trace has arrivals")
        .interarrivals;
    let s = time_per_call(|| {
        black_box(window_at_time(&trace, TRACE_S / 2.0, SEQ_LEN, 1.0));
    });
    ctx.set("core.window_us", s * 1e6);
    let s = time_per_call(|| {
        black_box(model.encode_window_fast(&window));
    });
    ctx.set("core.encode_us", s * 1e6);
    let encoded = model.encode_window_fast(&window);
    let grid_feats: Vec<f64> = grid
        .configs()
        .iter()
        .flat_map(|c| [c.memory_mb as f64, c.batch_size as f64, c.timeout_s])
        .collect();
    let grid_pre = model.preprocess_feats(&Tensor::new(vec![grid.len(), 3], grid_feats));
    let s = time_per_call(|| {
        black_box(model.predict_encoded_fast_pre(&encoded, &grid_pre));
    });
    ctx.set("core.score216_us", s * 1e6);
    let optimizer = DeepBatOptimizer::new(grid.clone(), SLO);
    let choose_s = time_per_call(|| {
        black_box(optimizer.choose(&model, &window));
    });
    ctx.set("core.choose_us", choose_s * 1e6);
    let s = time_per_call(|| {
        black_box(generate_dataset(
            &trace, &grid, &params, 64, SEQ_LEN, SLO, seed,
        ));
    });
    ctx.set("core.label_samples_per_s", 64.0 / s);

    // One optimiser step on a batch of 8 (mutates the model: last).
    let (seq, feats) = (
        model.preprocess_seq(&seq_raw),
        model.preprocess_feats(&feats_raw),
    );
    let (targets8, weights8) = (gather_rows(&targets, &rows), gather_rows(&weights, &rows));
    let mut adam = Adam::new(tc.lr);
    let s = time_per_call(|| {
        black_box(model.train_step_sharded(
            gather_rows(&seq, &rows),
            gather_rows(&feats, &rows),
            &targets8,
            &weights8,
            tc.alpha,
            tc.delta,
            &mut adam,
            tc.shards,
            true,
        ));
    });
    ctx.set("nn.train_step_ms", s * 1e3);

    // --- analytic: one BATCH refit + optimise, the paper's baseline ------
    let interarrivals = trace.interarrivals();
    let batch_s = time_per_call(|| {
        black_box(dbat_analytic::optimize_from_interarrivals(
            &interarrivals,
            &grid,
            &params,
            SLO,
            95.0,
        ));
    });
    ctx.set("analytic.batch_decide_ms", batch_s * 1e3);
    ctx.set("core.speedup_vs_batch", batch_s / choose_s);

    // --- sim: one rate per discipline ------------------------------------
    let n = arrivals.len() as f64;
    let windowed_s = time_per_call(|| {
        black_box(simulate_batching(arrivals, &config, &params, None));
    });
    ctx.set("sim.windowed_mreq_per_s", n / windowed_s / 1e6);
    let minute = trace.slice_raw(300.0, 360.0);
    let configs = grid.configs();
    let serial_s = time_per_call(|| {
        for c in &configs {
            black_box(evaluate(minute, c, &params));
        }
    });
    let parallel_s = time_per_call(|| {
        black_box(sweep(minute, &grid, &params));
    });
    ctx.set(
        "sim.sweep_parallel_eff",
        serial_s / (ctx.nproc as f64 * parallel_s),
    );
    let faults = FaultPlan::intensity(0.3, seed);
    let s = time_per_call(|| {
        black_box(simulate_faults(arrivals, &config, &params, &faults));
    });
    ctx.set("sim.faults_mreq_per_s", n / s / 1e6);
    let classes = [
        RequestClass::new(0, 0.05),
        RequestClass::new(1, 0.1),
        RequestClass::new(2, 0.2),
    ];
    let classed =
        ClassedTrace::tag_weighted(trace.clone(), &classes, seed).expect("three valid classes");
    let groups = [
        FunctionGroup::new(LambdaConfig::new(3008, 2, 0.01), vec![0]),
        FunctionGroup::new(config, vec![1, 2]),
    ];
    let s = time_per_call(|| {
        black_box(simulate_batching_multi(&classed, &classes, &groups, &params).is_ok());
    });
    ctx.set("sim.multi_mreq_per_s", n / s / 1e6);
    let tokens = TokenizedTrace::sample(
        trace.slice(0.0, 60.0),
        &TokenMix::Lognormal(LognormalTokens::long_decode()),
        seed,
    );
    let token_params = TokenParams::llm_like();
    let engine = LambdaConfig::new(3008, 8, 0.05);
    let s = time_per_call(|| {
        black_box(simulate_tokens_windowed(
            tokens.arrivals(),
            tokens.specs(),
            &engine,
            &token_params,
        ));
    });
    ctx.set(
        "sim.tokens_windowed_kreq_per_s",
        tokens.len() as f64 / s / 1e3,
    );
    let s = time_per_call(|| {
        black_box(simulate_tokens_continuous(
            tokens.arrivals(),
            tokens.specs(),
            &engine,
            &token_params,
            4,
        ));
    });
    ctx.set(
        "sim.tokens_continuous_kreq_per_s",
        tokens.len() as f64 / s / 1e3,
    );
    let latencies: Vec<f64> = (0..100_000).map(|_| rng.exp(10.0)).collect();
    let s = time_per_call(|| {
        black_box(LatencySummary::from_latencies(&latencies));
    });
    ctx.set("sim.summary_us", s * 1e6);

    // --- serve: the pure batching core, and the virtual replay -----------
    let s = time_per_call(|| {
        let mut core = BatcherCore::new(config);
        let mut formed = Vec::new();
        for (i, &t) in arrivals.iter().enumerate() {
            while core.next_deadline().is_some_and(|d| d <= t) {
                let d = core.next_deadline().expect("checked");
                core.due(d, &mut formed);
            }
            core.on_arrival(
                Admitted {
                    id: i as u64,
                    arrival: t,
                    class: 0,
                },
                &mut formed,
            );
            formed.clear();
        }
        black_box(core.buffered());
    });
    ctx.set("serve.batcher_core_ns_per_req", s / n * 1e9);
    let s = time_per_call(|| {
        black_box(VirtualGateway::from_params(&params).replay(arrivals, &config));
    });
    ctx.set("serve.replay_mreq_per_s", n / s / 1e6);

    // --- telemetry: one counter increment on an enabled hub --------------
    let hub = Telemetry::new();
    hub.enable();
    let counter = hub.counter("bench.probe");
    let s = time_per_call(|| {
        for _ in 0..1000 {
            counter.inc();
        }
    });
    ctx.set("telemetry.counter_ns", s / 1000.0 * 1e9);
    black_box(counter.get());

    println!("layer probes took {:.2} s", started.elapsed().as_secs_f64());
}
