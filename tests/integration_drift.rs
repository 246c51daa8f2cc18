//! Adaptation to drift, end to end (§III-D): a surrogate trained on one
//! regime is fine-tuned on data collected after the shift to another, and
//! its held-out prediction error on the new regime drops.

use deepbat::core::{
    fine_tune, generate_dataset, train, validation_mape, Surrogate, SurrogateConfig, TrainConfig,
};
use deepbat::prelude::*;

#[test]
fn drift_triggers_fine_tune_and_error_drops() {
    let seq_len = 32;
    let grid = ConfigGrid {
        memories_mb: vec![1024, 3008],
        batch_sizes: vec![1, 8],
        timeouts_s: vec![0.0, 0.05],
    };
    let params = SimParams::default();
    let slo = 0.1;

    // Regime A: moderate Poisson-ish traffic. Train the surrogate.
    let regime_a = Map::poisson(35.0);
    let mut rng = Rng::new(61);
    let trace_a = Trace::new(regime_a.simulate(&mut rng, 0.0, 900.0), 900.0);
    let data_a = generate_dataset(&trace_a, &grid, &params, 160, seq_len, slo, 1);
    let mut model = Surrogate::new(
        SurrogateConfig {
            seq_len,
            ..SurrogateConfig::default()
        },
        8,
    );
    train(
        &mut model,
        &data_a,
        &TrainConfig {
            epochs: 10,
            lr: 3e-3,
            ..TrainConfig::default()
        },
    );

    // Regime B: slow, extremely bursty traffic — out of distribution.
    let regime_b = Mmpp2::from_targets(4.0, 80.0, 15.0, 0.25).to_map().unwrap();
    let trace_b = Trace::new(regime_b.simulate(&mut rng, 0.0, 3_000.0), 3_000.0);
    let data_b = generate_dataset(&trace_b, &grid, &params, 120, seq_len, slo, 2);

    // Fine-tune on regime-B data; held-out regime-B error must improve.
    let (tune, holdout) = data_b.split_at(80);
    // Short schedule: direction of improvement is what the test checks.
    let rows: Vec<usize> = (0..holdout.len()).collect();
    let before = validation_mape(&model, holdout, &rows);
    fine_tune(
        &mut model,
        tune,
        6,
        &TrainConfig {
            lr: 3e-3,
            ..TrainConfig::default()
        },
    );
    let after = validation_mape(&model, holdout, &rows);
    assert!(
        after < before,
        "fine-tuning did not improve OOD error: {before:.1}% -> {after:.1}%"
    );
}
