//! `train_finetune` — the "write" side of the model that `closed_loop`
//! only reads. `generate_dataset` labels 96 windows (length 128) of a
//! two-hour azure-like trace in set-up; each pass trains a fresh
//! surrogate with `dbat_core::train` for two epochs and then takes 20
//! further `train_step_sharded` steps, the way an online fine-tune would.
//! `nn` autograd/backward and `linalg` packed GEMM do the work, so a
//! simplification of `nn` made for inference cannot silently slow
//! training.
//!
//! * work unit: one training sample through one epoch of `train`;
//! * operation: one `Surrogate::train_step_sharded` on a batch of 8.

use super::{fresh_surrogate, labelled, passes, report_timings, train_config, PassTiming};
use crate::run::Ctx;
use dbat_core::{to_tensors_weighted, train, TrainSample};
use dbat_nn::{gather_rows, Adam};
use dbat_workload::{TraceKind, HOUR};
use std::time::Instant;

const SAMPLES: usize = 96;
const EPOCHS: usize = 2;
const FINETUNE_STEPS: usize = 20;
const BATCH: usize = 8;

struct Pass {
    timing: PassTiming,
    val_mape: f64,
    learned: bool,
    finite_losses: bool,
}

fn pass(ctx: &mut Ctx, data: &[TrainSample], index: usize) -> Pass {
    let tc = train_config(EPOCHS);
    let mut model = fresh_surrogate();
    let root = ctx.rec.enter("bench.pass", index as u64);
    let t0 = Instant::now();
    let report = ctx
        .rec
        .span("core.train", index as u64, || train(&mut model, data, &tc));
    let train_s = t0.elapsed().as_secs_f64();
    let n_val = ((data.len() as f64 * tc.val_fraction) as usize).min(data.len() - 1);
    let trained = (data.len() - n_val) * EPOCHS;

    // Fine-tune steps on the trained model, its standardisers kept.
    let (seq_raw, feats_raw, targets, weights) =
        to_tensors_weighted(data, tc.violation_weight, tc.latency_weight);
    let seq = model.preprocess_seq(&seq_raw);
    let feats = model.preprocess_feats(&feats_raw);
    let mut adam = Adam::new(tc.lr * 0.3);
    let mut op_s = Vec::with_capacity(FINETUNE_STEPS);
    let mut finite_losses = report.train_losses.iter().all(|l| l.is_finite());
    for step in 0..FINETUNE_STEPS {
        let rows: Vec<usize> = (0..BATCH)
            .map(|j| (step * BATCH + j) % data.len())
            .collect();
        let op = ((index as u64) << 32) | step as u64;
        let open = ctx.rec.enter("core.train_step_sharded", op);
        let t0 = Instant::now();
        let loss = model.train_step_sharded(
            gather_rows(&seq, &rows),
            gather_rows(&feats, &rows),
            &gather_rows(&targets, &rows),
            &gather_rows(&weights, &rows),
            tc.alpha,
            tc.delta,
            &mut adam,
            tc.shards,
            true,
        );
        op_s.push(t0.elapsed().as_secs_f64());
        ctx.rec.exit(open);
        finite_losses &= loss.is_finite();
    }
    ctx.rec.exit(root);
    Pass {
        timing: PassTiming {
            work_per_s: trained as f64 / train_s,
            op_s,
        },
        val_mape: report.final_val_mape,
        learned: report.train_losses.last() < report.train_losses.first(),
        finite_losses,
    }
}

pub fn run(ctx: &mut Ctx) {
    // The four shards of a step are spawned and joined inside the step:
    // on one CPU they run back to back instead of waiting for the slower
    // of two vCPUs.
    let _pinned = crate::cpu::pin_to_one_cpu();
    let seed = ctx.seed;
    let data = ctx.setup(|| {
        let trace = TraceKind::AzureLike.generate_for(seed, 2.0 * HOUR);
        labelled(&[&trace], SAMPLES, seed)
    });
    let all = passes(ctx.budget(), |i| pass(ctx, &data, i));
    let reference = all[0].val_mape;
    for (i, p) in all.iter().enumerate() {
        ctx.check.ops(
            (EPOCHS + FINETUNE_STEPS) as u64,
            u64::from(!p.finite_losses),
        );
        ctx.check.check(p.finite_losses, || {
            format!("pass {i}: every loss is finite")
        });
        ctx.check.check(p.learned, || {
            format!("pass {i}: the training loss fell over {EPOCHS} epochs")
        });
        ctx.check
            .check(p.val_mape.to_bits() == reference.to_bits(), || {
                format!(
                    "pass {i}: training repeats exactly (val MAPE {} vs {reference})",
                    p.val_mape
                )
            });
    }
    println!(
        "{} samples x {EPOCHS} epochs, then {FINETUNE_STEPS} steps of {BATCH} | val MAPE {reference:.3} %",
        data.len()
    );
    ctx.set("core.val_mape_pct", reference);
    let timings = all.into_iter().map(|p| p.timing).collect();
    report_timings(ctx, "train_step_sharded", timings);
}
