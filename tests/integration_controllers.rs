//! Controller-level integration: DeepBAT's and BATCH's policies over a
//! shifting workload, driven and measured by `run_controller`.

use deepbat::core::SurrogateConfig;
use deepbat::prelude::*;
use std::sync::Arc;

fn shifting_trace(seed: u64) -> Trace {
    // 5 minutes quiet, 5 minutes bursty.
    let quiet = Map::poisson(12.0);
    let burst = Mmpp2::from_targets(90.0, 50.0, 8.0, 0.35).to_map().unwrap();
    let mut rng = Rng::new(seed);
    let mut ts = quiet.simulate(&mut rng, 0.0, 300.0);
    ts.extend(burst.simulate(&mut rng, 300.0, 300.0));
    Trace::new(ts, 600.0)
}

fn grid() -> ConfigGrid {
    ConfigGrid {
        memories_mb: vec![1024, 2048, 3008],
        batch_sizes: vec![1, 4, 8],
        timeouts_s: vec![0.0, 0.02, 0.05],
    }
}

fn every_30s(slo: f64) -> SimConfig {
    SimConfig::builder()
        .slo(slo)
        .decision_interval(30.0)
        .build()
        .unwrap()
}

#[test]
fn measurement_harness_conserves_requests() {
    let trace = shifting_trace(1);
    let mut ctl = StaticController::new(LambdaConfig::new(2048, 4, 0.05), 0.1);
    let out = run_controller(&mut ctl, &trace, 0.0, 600.0, &SimConfig::new(0.1));
    assert_eq!(out.measurements.len(), 10);
    let total: usize = out.measurements.iter().map(|m| m.requests).sum();
    assert_eq!(total, trace.len());
    for m in &out.measurements {
        assert!(m.cost_per_request > 0.0);
        assert_eq!(m.violation, m.summary.p95 > 0.1);
        assert_eq!(m.lost, 0);
    }
    // Every decision was measured and archived by the controller too.
    assert_eq!(ctl.audit().len(), 10);
    assert!(out.records.iter().all(|r| r.measured.is_some()));
}

#[test]
fn batch_controller_plans_and_measures() {
    let trace = shifting_trace(2);
    let mut ctl = deepbat::analytic::BatchController::new(grid(), 0.1);
    ctl.refit_interval = 120.0;
    let out = run_controller(&mut ctl, &trace, 0.0, 600.0, &every_30s(0.1));
    assert_eq!(out.records.len(), 20);
    // Every refit interval has data, so every fit succeeds.
    assert!(out.records.iter().all(|r| !r.fallback));
    // The configuration only changes at a refit boundary.
    for refit in out.records.chunks(4) {
        assert!(refit.iter().all(|r| r.config == refit[0].config));
    }
    assert_eq!(out.measurements.len(), 20);
    assert!((0.0..=100.0).contains(&out.vcr()));
}

#[test]
fn deepbat_controller_adapts_to_shift() {
    let trace = shifting_trace(3);
    let slo = 0.1;
    let seq_len = 32;
    // Train on a mixture so both regimes are in-distribution.
    let data = generate_dataset(&trace, &grid(), &SimParams::default(), 300, seq_len, slo, 6);
    let mut model = Surrogate::new(
        SurrogateConfig {
            seq_len,
            ..SurrogateConfig::default()
        },
        4,
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

    let mut ctl = DeepBatController::new(grid(), slo).with_model(Arc::new(model));
    let out = run_controller(&mut ctl, &trace, 0.0, 600.0, &every_30s(slo));
    assert_eq!(out.records.len(), 20);
    // No history at t = 0: the bootstrap config, then the optimizer's.
    assert!(out.records[0].bootstrap);
    assert_eq!(out.records[0].config, ctl.bootstrap);
    assert!(out.records[1..].iter().all(|r| !r.bootstrap));

    // The controller must not pick identical configurations for the quiet
    // and bursty halves (it sees very different windows).
    let first_half: Vec<_> = out
        .records
        .iter()
        .filter(|r| r.start < 300.0)
        .map(|r| r.config)
        .collect();
    let second_half: Vec<_> = out
        .records
        .iter()
        .filter(|r| r.start >= 330.0)
        .map(|r| r.config)
        .collect();
    assert!(
        first_half.iter().any(|c| !second_half.contains(c))
            || second_half.iter().any(|c| !first_half.contains(c)),
        "controller never adapted: {first_half:?} vs {second_half:?}"
    );
    // And the measured VCR should be well below total failure.
    assert!(out.vcr() < 60.0, "VCR {}", out.vcr());
}
