//! Offline training and OOD fine-tuning of the surrogate (§III-D).

use crate::surrogate::{Surrogate, N_FEATURES, N_OUTPUTS};
use crate::traindata::TrainSample;
use dbat_nn::{gather_rows, shuffled_batches, Adam, InitRng, Standardizer, Tensor};
use dbat_telemetry::Telemetry;
use serde_json::json;

/// Training hyper-parameters (paper values in `Default`).
#[derive(Clone, Debug)]
pub struct TrainConfig {
    pub epochs: usize,
    pub batch_size: usize,
    pub lr: f64,
    /// MAPE weight α in the combined loss (paper: 0.05).
    pub alpha: f64,
    /// Huber δ (paper: 1.0).
    pub delta: f64,
    /// Extra loss weight on SLO-violating samples (§IV-D: "intentionally
    /// defined to penalize more for those configurations that violate the
    /// SLO").
    pub violation_weight: f64,
    /// Per-output weight on the four latency percentiles relative to the
    /// cost output. Latency targets (~0.1 s) are an order of magnitude
    /// smaller than cost targets (~1 µ$), so without this the Huber term is
    /// dominated by cost error; the SLO decision hinges on latency.
    pub latency_weight: f64,
    /// Fraction of the data held out for validation.
    pub val_fraction: f64,
    pub seed: u64,
    /// Fixed shard count for the data-parallel train step. Results are a
    /// pure function of this value — never of the thread count — so loss
    /// curves reproduce on any machine as long as `shards` is unchanged.
    pub shards: usize,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            epochs: 100,
            batch_size: 8,
            lr: 1e-3,
            alpha: 0.05,
            delta: 1.0,
            violation_weight: 3.0,
            latency_weight: 8.0,
            val_fraction: 0.1,
            seed: 1,
            shards: 4,
        }
    }
}

impl TrainConfig {
    /// Much shorter schedule for tests and smoke runs.
    pub fn fast() -> Self {
        TrainConfig {
            epochs: 5,
            ..TrainConfig::default()
        }
    }
}

/// Per-epoch training record: what [`train`] or [`fine_tune`] saw, which
/// [`TrainReport::publish`] emits as telemetry.
#[derive(Clone, Debug)]
pub struct TrainReport {
    pub train_losses: Vec<f64>,
    pub val_losses: Vec<f64>,
    /// Wall-clock seconds of each epoch, its validation pass included.
    pub epoch_s: Vec<f64>,
    /// The learning rate each epoch ran at.
    pub epoch_lr: Vec<f64>,
    /// Validation MAPE (%) over all outputs at the end of training.
    pub final_val_mape: f64,
    /// Wall-clock seconds per epoch (mean).
    pub secs_per_epoch: f64,
    /// Samples in the dataset and in its training split, the train step's
    /// shard count, and whether [`fine_tune`] made the report.
    samples: usize,
    train_samples: usize,
    shards: usize,
    fine_tune: bool,
}

impl TrainReport {
    /// Emit the report to `hub`: a training run as one `train.epoch` event
    /// per epoch (also recorded in the `train.epoch_s` and
    /// `train.throughput` histograms, throughput in training samples per
    /// second) and a closing `train.done`; a fine-tune as one
    /// `train.finetune_epoch` event per epoch.
    pub fn publish(&self, hub: &Telemetry) {
        if !hub.is_enabled() {
            return;
        }
        let throughput = |secs: f64| self.train_samples as f64 / secs.max(f64::MIN_POSITIVE);
        for (epoch, &secs) in self.epoch_s.iter().enumerate() {
            let (train_loss, val_loss) = (self.train_losses[epoch], self.val_losses[epoch]);
            if self.fine_tune {
                let data = json!({ "epoch": epoch, "train_loss": train_loss, "secs": secs });
                hub.emit("train.finetune_epoch", data);
                continue;
            }
            let (lr, per_s) = (self.epoch_lr[epoch], throughput(secs));
            hub.emit(
                "train.epoch",
                json!({ "epoch": epoch, "train_loss": train_loss, "val_loss": val_loss,
                        "lr": lr, "secs": secs, "throughput": per_s }),
            );
            hub.histogram("train.epoch_s").record(secs);
            hub.histogram("train.throughput").record(per_s);
        }
        if !self.fine_tune {
            let (epochs, per_s) = (self.epoch_s.len(), throughput(self.secs_per_epoch));
            hub.emit(
                "train.done",
                json!({ "epochs": epochs, "samples": self.samples, "shards": self.shards,
                        "final_val_mape": self.final_val_mape,
                        "secs_per_epoch": self.secs_per_epoch, "throughput": per_s }),
            );
        }
    }
}

/// Assemble `[N, L]` seq, `[N, 3]` feats, `[N, 5]` targets, `[N, 5]` weights
/// from samples: a sample weighs `violation_weight` if it violates the SLO
/// (else 1), times `latency_weight` on its four latency outputs.
pub fn to_tensors_weighted(
    data: &[TrainSample],
    violation_weight: f64,
    latency_weight: f64,
) -> (Tensor, Tensor, Tensor, Tensor) {
    let n = data.len();
    assert!(n > 0, "empty dataset");
    let l = data[0].window.len();
    let mut seq = Vec::with_capacity(n * l);
    let mut feats = Vec::with_capacity(n * N_FEATURES);
    let mut targets = Vec::with_capacity(n * N_OUTPUTS);
    let mut weights = Vec::with_capacity(n * N_OUTPUTS);
    for s in data {
        assert_eq!(s.window.len(), l, "ragged windows");
        seq.extend_from_slice(&s.window);
        feats.extend_from_slice(&s.feature_vec());
        targets.extend_from_slice(&s.target);
        let w = if s.violates { violation_weight } else { 1.0 };
        weights.push(w);
        weights.extend(std::iter::repeat_n(w * latency_weight, 4));
    }
    (
        Tensor::new(vec![n, l], seq),
        Tensor::new(vec![n, N_FEATURES], feats),
        Tensor::new(vec![n, N_OUTPUTS], targets),
        Tensor::new(vec![n, N_OUTPUTS], weights),
    )
}

/// Fit the model's input standardisers on the dataset (log-interarrival
/// channel and the three configuration features).
pub fn fit_standardizers(model: &mut Surrogate, seq_raw: &Tensor, feats_raw: &Tensor) {
    let logged = seq_raw.map(|x| (x + 1e-6).ln());
    let n = logged.numel();
    model.seq_std = Standardizer::fit(&logged.reshape(vec![n, 1]));
    model.feat_std = Standardizer::fit(feats_raw);
    // The compiled fast-path plan bakes the standardiser constants in.
    model.invalidate_plan();
}

/// One epoch over `rows` of the preprocessed `[seq, feats, targets,
/// weights]`, the batch loop [`train`] and [`fine_tune`] share: shuffle,
/// gather each batch, take one sharded step; returns the mean batch loss.
fn run_epoch(
    model: &mut Surrogate,
    data: [&Tensor; 4],
    rows: &[usize],
    tc: &TrainConfig,
    adam: &mut Adam,
    rng: &mut InitRng,
) -> f64 {
    let mut epoch_loss = 0.0;
    let mut batches = 0usize;
    for batch in shuffled_batches(rows.len(), tc.batch_size, rng) {
        let batch_rows: Vec<usize> = batch.iter().map(|&i| rows[i]).collect();
        let [seq, feats, targets, weights] = data.map(|t| gather_rows(t, &batch_rows));
        epoch_loss += model.train_step_sharded(
            seq, feats, &targets, &weights, tc.alpha, tc.delta, adam, tc.shards, true,
        );
        batches += 1;
    }
    epoch_loss / batches.max(1) as f64
}

/// Full offline training: fits standardisers, runs the epoch loop, tracks a
/// held-out validation loss, and reports the final validation MAPE.
pub fn train(model: &mut Surrogate, data: &[TrainSample], tc: &TrainConfig) -> TrainReport {
    let (seq_raw, feats_raw, targets, weights) =
        to_tensors_weighted(data, tc.violation_weight, tc.latency_weight);
    fit_standardizers(model, &seq_raw, &feats_raw);
    let seq = model.preprocess_seq(&seq_raw);
    let feats = model.preprocess_feats(&feats_raw);

    let n = data.len();
    let n_val = ((n as f64 * tc.val_fraction) as usize).min(n.saturating_sub(1));
    let n_train = n - n_val;
    let train_rows: Vec<usize> = (0..n_train).collect();
    let val_rows: Vec<usize> = (n_train..n).collect();

    let mut adam = Adam::new(tc.lr);
    let mut rng = InitRng::new(tc.seed);
    let mut train_losses = Vec::with_capacity(tc.epochs);
    let mut val_losses = Vec::with_capacity(tc.epochs);
    let mut epoch_s = Vec::with_capacity(tc.epochs);
    let mut epoch_lr = Vec::with_capacity(tc.epochs);
    let t0 = std::time::Instant::now();
    for epoch in 0..tc.epochs {
        let epoch_t0 = std::time::Instant::now();
        // Step decay: drop the learning rate for the final stretch.
        if tc.epochs >= 10 && epoch == tc.epochs * 7 / 10 {
            adam.lr *= 0.3;
        }
        train_losses.push(run_epoch(
            model,
            [&seq, &feats, &targets, &weights],
            &train_rows,
            tc,
            &mut adam,
            &mut rng,
        ));
        if val_rows.is_empty() {
            val_losses.push(train_losses.last().copied().unwrap_or(0.0));
        } else {
            val_losses.push(model.eval_loss(
                gather_rows(&seq, &val_rows),
                gather_rows(&feats, &val_rows),
                &gather_rows(&targets, &val_rows),
                &gather_rows(&weights, &val_rows),
                tc.alpha,
                tc.delta,
            ));
        }
        epoch_s.push(epoch_t0.elapsed().as_secs_f64());
        epoch_lr.push(adam.lr);
    }
    let secs_per_epoch = t0.elapsed().as_secs_f64() / tc.epochs.max(1) as f64;

    let eval_rows = if val_rows.is_empty() {
        &train_rows
    } else {
        &val_rows
    };
    let final_val_mape = validation_mape(model, data, eval_rows);
    // Release the batch-sized arenas training warmed up.
    model.trim_scratch();
    TrainReport {
        train_losses,
        val_losses,
        epoch_s,
        epoch_lr,
        final_val_mape,
        secs_per_epoch,
        samples: n,
        train_samples: n_train,
        shards: tc.shards,
        fine_tune: false,
    }
}

/// Fine-tune on a small OOD dataset (§III-D "Model Fine-Tuning"): reuse the
/// pre-trained weights *and standardisers*, run a short schedule at a lower
/// learning rate.
pub fn fine_tune(
    model: &mut Surrogate,
    data: &[TrainSample],
    epochs: usize,
    tc: &TrainConfig,
) -> TrainReport {
    let (seq_raw, feats_raw, targets, weights) =
        to_tensors_weighted(data, tc.violation_weight, tc.latency_weight);
    let seq = model.preprocess_seq(&seq_raw);
    let feats = model.preprocess_feats(&feats_raw);
    let rows: Vec<usize> = (0..data.len()).collect();
    let mut adam = Adam::new(tc.lr * 0.3);
    let mut rng = InitRng::new(tc.seed ^ 0xF17E);
    let mut train_losses = Vec::with_capacity(epochs);
    let mut epoch_s = Vec::with_capacity(epochs);
    let t0 = std::time::Instant::now();
    for _ in 0..epochs {
        let epoch_t0 = std::time::Instant::now();
        train_losses.push(run_epoch(
            model,
            [&seq, &feats, &targets, &weights],
            &rows,
            tc,
            &mut adam,
            &mut rng,
        ));
        epoch_s.push(epoch_t0.elapsed().as_secs_f64());
    }
    let secs_per_epoch = t0.elapsed().as_secs_f64() / epochs.max(1) as f64;
    let final_val_mape = validation_mape(model, data, &rows);
    model.trim_scratch();
    TrainReport {
        val_losses: train_losses.clone(),
        train_losses,
        epoch_lr: vec![adam.lr; epochs],
        epoch_s,
        final_val_mape,
        secs_per_epoch,
        samples: data.len(),
        train_samples: data.len(),
        shards: tc.shards,
        fine_tune: true,
    }
}

/// MAPE (%) of model predictions against ground-truth targets on the given
/// sample rows (all five outputs pooled).
pub fn validation_mape(model: &Surrogate, data: &[TrainSample], rows: &[usize]) -> f64 {
    let (c, l) = validation_mape_split(model, data, rows);
    (c + 4.0 * l) / 5.0
}

/// MAPE (%) split into (cost output, pooled latency percentiles).
pub fn validation_mape_split(
    model: &Surrogate,
    data: &[TrainSample],
    rows: &[usize],
) -> (f64, f64) {
    if rows.is_empty() {
        return (0.0, 0.0);
    }
    let samples: Vec<&TrainSample> = rows.iter().map(|&i| &data[i]).collect();
    let l = samples[0].window.len();
    let mut seq = Vec::new();
    let mut feats = Vec::new();
    for s in &samples {
        seq.extend_from_slice(&s.window);
        feats.extend_from_slice(&s.feature_vec());
    }
    let pred = model.predict(
        &Tensor::new(vec![samples.len(), l], seq),
        &Tensor::new(vec![samples.len(), N_FEATURES], feats),
    );
    let mut acc_cost = 0.0;
    let mut n_cost = 0usize;
    let mut acc_lat = 0.0;
    let mut n_lat = 0usize;
    for (i, s) in samples.iter().enumerate() {
        for (j, &t) in s.target.iter().enumerate() {
            if t != 0.0 {
                let e = ((pred.data()[i * 5 + j] - t) / t).abs();
                if j == 0 {
                    acc_cost += e;
                    n_cost += 1;
                } else {
                    acc_lat += e;
                    n_lat += 1;
                }
            }
        }
    }
    (
        acc_cost / n_cost.max(1) as f64 * 100.0,
        acc_lat / n_lat.max(1) as f64 * 100.0,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::surrogate::SurrogateConfig;
    use crate::traindata::generate_dataset;
    use dbat_sim::{ConfigGrid, SimParams};
    use dbat_workload::{Map, Rng, Trace};

    fn dataset(n: usize, l: usize) -> Vec<TrainSample> {
        let map = Map::poisson(40.0);
        let mut rng = Rng::new(11);
        let trace = Trace::new(map.simulate(&mut rng, 0.0, 200.0), 200.0);
        generate_dataset(
            &trace,
            &ConfigGrid::tiny(),
            &SimParams::default(),
            n,
            l,
            0.1,
            3,
        )
    }

    #[test]
    fn to_tensors_shapes_and_weights() {
        let data = dataset(10, 16);
        let (s, f, t, w) = to_tensors_weighted(&data, 3.0, 8.0);
        assert_eq!(s.shape(), &[10, 16]);
        assert_eq!(f.shape(), &[10, 3]);
        assert_eq!(t.shape(), &[10, 5]);
        assert_eq!(w.shape(), &[10, 5]);
        for (i, sample) in data.iter().enumerate() {
            let expect = if sample.violates { 3.0 } else { 1.0 };
            assert_eq!(w.data()[i * 5], expect);
            assert_eq!(w.data()[i * 5 + 1..(i + 1) * 5], [expect * 8.0; 4]);
        }
    }

    #[test]
    fn training_converges_on_small_dataset() {
        let data = dataset(48, 16);
        let mut model = Surrogate::new(SurrogateConfig::tiny(), 5);
        let tc = TrainConfig {
            epochs: 30,
            batch_size: 8,
            lr: 3e-3,
            val_fraction: 0.15,
            ..TrainConfig::default()
        };
        let report = train(&mut model, &data, &tc);
        assert_eq!(report.train_losses.len(), 30);
        let first = report.train_losses[0];
        let last = *report.train_losses.last().unwrap();
        assert!(
            last < first * 0.7,
            "loss should drop substantially: {first} -> {last}"
        );
        assert!(report.final_val_mape.is_finite());
        assert!(report.secs_per_epoch > 0.0);
    }

    /// Same data, same seeds: two runs agree to the bit in every epoch
    /// loss and every weight (shards run on whatever threads rayon has).
    #[test]
    fn training_is_bit_reproducible_run_to_run() {
        use dbat_nn::Module;
        let data = dataset(32, 16);
        let tc = TrainConfig {
            epochs: 3,
            lr: 3e-3,
            ..TrainConfig::default()
        };
        let run = || {
            let mut model = Surrogate::new(SurrogateConfig::tiny(), 5);
            let report = train(&mut model, &data, &tc);
            let weights: Vec<Vec<f64>> = model
                .parameters()
                .iter()
                .map(|t| t.data().to_vec())
                .collect();
            (report.train_losses, report.val_losses, weights)
        };
        let (first, second) = (run(), run());
        let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&first.0), bits(&second.0), "train losses");
        assert_eq!(bits(&first.1), bits(&second.1), "validation losses");
        for (a, b) in first.2.iter().zip(&second.2) {
            assert_eq!(bits(a), bits(b), "weights");
        }
    }

    #[test]
    fn fine_tune_improves_on_shifted_data() {
        // Train on Poisson(40), fine-tune on much slower Poisson(5) windows.
        let data = dataset(48, 16);
        let mut model = Surrogate::new(SurrogateConfig::tiny(), 5);
        let tc = TrainConfig {
            epochs: 25,
            lr: 3e-3,
            val_fraction: 0.0,
            ..TrainConfig::default()
        };
        train(&mut model, &data, &tc);

        let map = Map::poisson(5.0);
        let mut rng = Rng::new(21);
        let ood_trace = Trace::new(map.simulate(&mut rng, 0.0, 600.0), 600.0);
        let ood = generate_dataset(
            &ood_trace,
            &ConfigGrid::tiny(),
            &SimParams::default(),
            32,
            16,
            0.1,
            8,
        );
        let rows: Vec<usize> = (0..ood.len()).collect();
        let before = validation_mape(&model, &ood, &rows);
        fine_tune(&mut model, &ood, 15, &tc);
        let after = validation_mape(&model, &ood, &rows);
        assert!(
            after < before,
            "fine-tuning should reduce OOD MAPE: {before} -> {after}"
        );
    }

    #[test]
    #[should_panic(expected = "empty dataset")]
    fn empty_dataset_panics() {
        to_tensors_weighted(&[], 1.0, 1.0);
    }
}
