//! End-to-end integration: workload → dataset → training → optimizer →
//! simulator verification, across all six crates.

use deepbat::core::{
    generate_dataset, train, window_to_arrivals, DeepBatOptimizer, Surrogate, SurrogateConfig,
    TrainConfig,
};
use deepbat::prelude::*;

fn tiny_grid() -> ConfigGrid {
    ConfigGrid {
        memories_mb: vec![1024, 3008],
        batch_sizes: vec![1, 4, 16],
        timeouts_s: vec![0.0, 0.05, 0.2],
    }
}

#[test]
fn trained_surrogate_makes_mostly_feasible_decisions() {
    let slo = 0.1;
    let seq_len = 32;
    let grid = tiny_grid();
    let params = SimParams::default();

    // Train on one bursty stream…
    let map = Mmpp2::from_targets(40.0, 15.0, 6.0, 0.3).to_map().unwrap();
    let mut rng = Rng::new(100);
    let trace = Trace::new(map.simulate(&mut rng, 0.0, 1_200.0), 1_200.0);
    let data = generate_dataset(&trace, &grid, &params, 300, seq_len, slo, 3);
    let mut model = Surrogate::new(
        SurrogateConfig {
            seq_len,
            ..SurrogateConfig::default()
        },
        9,
    );
    let report = train(
        &mut model,
        &data,
        &TrainConfig {
            epochs: 18,
            lr: 2e-3,
            ..TrainConfig::default()
        },
    );
    assert!(
        report.final_val_mape < 60.0,
        "training collapsed: val MAPE {:.1}%",
        report.final_val_mape
    );

    // …then decide on fresh windows from the same process and verify with
    // the simulator. An imperfect tiny model may miss sometimes; require a
    // solid majority of SLO-feasible decisions.
    let mut rng = Rng::new(200);
    let test_trace = Trace::new(map.simulate(&mut rng, 0.0, 600.0), 600.0);
    let windows = deepbat::workload::sample_windows(&test_trace, seq_len, 20, &mut rng);
    let optimizer = DeepBatOptimizer::new(grid, slo);
    let mut feasible = 0;
    for w in &windows {
        let decision = optimizer.choose(&model, &w.interarrivals);
        let arrivals = window_to_arrivals(&w.interarrivals);
        let sim = simulate_batching(&arrivals, &decision.chosen.config, &params, None);
        if sim.summary().p95 <= slo {
            feasible += 1;
        }
    }
    assert!(
        feasible >= windows.len() * 7 / 10,
        "only {feasible}/{} decisions were SLO-feasible",
        windows.len()
    );
}

#[test]
fn deepbat_beats_single_request_serving_on_cost() {
    // Under a loose SLO the optimizer must discover batching and beat the
    // trivial "serve every request alone at high memory" policy on cost.
    let slo = 0.5;
    let seq_len = 32;
    let grid = tiny_grid();
    let params = SimParams::default();
    let map = Map::poisson(60.0);
    let mut rng = Rng::new(42);
    let trace = Trace::new(map.simulate(&mut rng, 0.0, 900.0), 900.0);
    let data = generate_dataset(&trace, &grid, &params, 250, seq_len, slo, 5);
    let mut model = Surrogate::new(
        SurrogateConfig {
            seq_len,
            ..SurrogateConfig::default()
        },
        1,
    );
    train(
        &mut model,
        &data,
        &TrainConfig {
            epochs: 15,
            lr: 2e-3,
            ..TrainConfig::default()
        },
    );

    let optimizer = DeepBatOptimizer::new(grid, slo);
    let mut rng = Rng::new(77);
    let windows = deepbat::workload::sample_windows(&trace, seq_len, 10, &mut rng);
    let single = LambdaConfig::new(3008, 1, 0.0);
    let mut batched_cheaper = 0;
    for w in &windows {
        let decision = optimizer.choose(&model, &w.interarrivals);
        let arrivals = window_to_arrivals(&w.interarrivals);
        let chosen = simulate_batching(&arrivals, &decision.chosen.config, &params, None);
        let naive = simulate_batching(&arrivals, &single, &params, None);
        if chosen.cost_per_request() < naive.cost_per_request() {
            batched_cheaper += 1;
        }
    }
    assert!(
        batched_cheaper >= windows.len() * 7 / 10,
        "optimizer failed to exploit batching ({batched_cheaper}/{})",
        windows.len()
    );
}

#[test]
fn checkpoint_roundtrip_through_optimizer() {
    // Save/load must preserve optimizer decisions bit-for-bit.
    let seq_len = 16;
    let model = Surrogate::new(
        SurrogateConfig {
            seq_len,
            ..SurrogateConfig::tiny()
        },
        33,
    );
    let dir = std::env::temp_dir().join(format!("deepbat_integration_ckpt-{}", std::process::id()));
    let path = dir.join("m.json");
    model.save(&path).unwrap();
    let loaded = Surrogate::load(&path).unwrap();
    let optimizer = DeepBatOptimizer::new(tiny_grid(), 0.1);
    let window: Vec<f64> = (0..seq_len).map(|i| 0.02 + 0.01 * (i % 3) as f64).collect();
    let a = optimizer.choose(&model, &window);
    let b = optimizer.choose(&loaded, &window);
    assert_eq!(a.chosen.config, b.chosen.config);
    assert_eq!(a.chosen.cost_micro, b.chosen.cost_micro);
    std::fs::remove_dir_all(dir).ok();
}
