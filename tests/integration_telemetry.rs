//! End-to-end telemetry integration: the online controller must emit one
//! well-formed `DecisionRecord` per decision interval, the JSONL sink must
//! round-trip those records, and the simulator's counters must reconcile
//! with the simulation outcome.
//!
//! These tests share the process-global telemetry hub, so they run inside
//! one #[test] body (their own integration binary) to stay deterministic.

use deepbat::core::SurrogateConfig;
use deepbat::prelude::*;
use deepbat::telemetry::{read_jsonl, JsonlSink, MemorySink, Sink};
use std::sync::Arc;

fn trace() -> Trace {
    let map = Map::poisson(25.0);
    let mut rng = Rng::new(7);
    Trace::new(map.simulate(&mut rng, 0.0, 600.0), 600.0)
}

#[test]
fn online_controller_audit_trail() {
    let tel = deepbat::telemetry::global();
    let mem = Arc::new(MemorySink::new());
    let dir = std::env::temp_dir().join("deepbat-telemetry-it");
    std::fs::create_dir_all(&dir).unwrap();
    let jsonl_path = dir.join("decisions.jsonl");
    let jsonl = Arc::new(JsonlSink::create(&jsonl_path).unwrap());
    tel.enable();
    tel.add_sink(mem.clone());
    tel.add_sink(jsonl.clone());

    let tr = trace();
    let model = Arc::new(Surrogate::new(SurrogateConfig::tiny(), 2));
    let mut ctl = DeepBatController::new(ConfigGrid::tiny(), 0.1).with_model(model);
    let opts = SimConfig::new(0.1);
    let t1 = 300.0;
    let n_intervals = (t1 / opts.decision_interval) as usize;

    let RunOutcome {
        measurements: measured,
        records,
        ..
    } = run_controller(&mut ctl, &tr, 0.0, t1, &opts);

    // --- one record per decision interval, contiguous ------------------
    assert_eq!(records.len(), n_intervals);
    for (i, r) in records.iter().enumerate() {
        assert_eq!(r.index, i);
        assert_eq!(r.start, i as f64 * opts.decision_interval);
        assert_eq!(r.end, (i + 1) as f64 * opts.decision_interval);
        assert_eq!(r.grid_size, ctl.optimizer.grid.len());
        assert_eq!(r.slo, 0.1);
        assert_eq!(r.percentile, 95.0);
        if r.bootstrap {
            assert_eq!(r.config, ctl.bootstrap);
            assert!(r.predicted_percentiles.is_none());
        } else {
            assert!(ctl.optimizer.grid.configs().contains(&r.config));
            assert!(r.predicted_percentiles.is_some());
            assert!(r.predicted_cost_micro.unwrap() >= 0.0);
            assert!(r.infer_s > 0.0);
            assert!(r.window_stats.is_some());
        }
    }
    // The Poisson(25) trace is dense, so every interval is measured.
    assert_eq!(measured.len(), n_intervals);
    for (r, m) in records.iter().zip(&measured) {
        assert_eq!(r.requests, m.requests);
        assert_eq!(r.violation, Some(m.violation));
        assert_eq!(r.measured.unwrap().p95, m.summary.p95);
        assert_eq!(r.measured_cost_per_request, Some(m.cost_per_request));
    }
    // Online APE is defined exactly for the measured non-bootstrap records.
    for r in &records {
        match (r.bootstrap, r.measured) {
            (false, Some(_)) => assert!(r.online_ape().unwrap().is_finite()),
            _ => assert!(r.online_ape().is_none()),
        }
    }

    // --- every record reached both sinks as an event --------------------
    let events = mem.events_of_kind("controller.decision");
    assert_eq!(events.len(), n_intervals);

    // --- the JSONL file round-trips into identical DecisionRecords ------
    jsonl.flush();
    let parsed = read_jsonl(&jsonl_path).unwrap();
    let decision_events: Vec<_> = parsed
        .iter()
        .filter(|e| e.kind == "controller.decision")
        .collect();
    assert_eq!(decision_events.len(), n_intervals);
    for (e, r) in decision_events.iter().zip(&records) {
        let back: DecisionRecord =
            deepbat::telemetry::serde_json::from_value(e.data.clone()).unwrap();
        assert_eq!(back.index, r.index);
        assert_eq!(back.start, r.start);
        assert_eq!(back.end, r.end);
        assert_eq!(back.config, r.config);
        assert_eq!(back.bootstrap, r.bootstrap);
        assert_eq!(back.fallback, r.fallback);
        assert_eq!(back.requests, r.requests);
        assert_eq!(back.violation, r.violation);
        assert_eq!(back.predicted_percentiles, r.predicted_percentiles);
        match (back.measured, r.measured) {
            (Some(a), Some(b)) => assert_eq!(a.percentile_vector(), b.percentile_vector()),
            (None, None) => {}
            _ => panic!("measured mismatch after round-trip"),
        }
    }

    // --- simulator metrics reconcile with the simulation ----------------
    // The measurement pass replayed every interval through the simulator
    // with telemetry enabled, so batch counts and flush reasons add up.
    let batch_hist = tel.histogram("sim.batch_size");
    let flushes = tel.counter("sim.flush.timeout").get() + tel.counter("sim.flush.capacity").get();
    assert_eq!(batch_hist.count(), flushes);
    assert!(tel.counter("sim.events").get() >= tr.slice(0.0, t1).len() as u64);
    assert_eq!(tel.counter("sim.fault.cold_starts").get(), 0);
    assert_eq!(tel.counter("sim.clamped_events").get(), 0);

    // --- the decide split is readable from the hub -----------------------
    // One encode and one score sample per surrogate decision, and the two
    // legs add up to the predict_all they split.
    let decided = records.iter().filter(|r| !r.bootstrap).count() as u64;
    let (enc, score, all) = (
        tel.histogram("controller.encode_s"),
        tel.histogram("controller.score_s"),
        tel.histogram("controller.predict_all_s"),
    );
    assert!(decided > 0);
    assert_eq!(enc.count(), decided);
    assert_eq!(score.count(), decided);
    assert_eq!(all.count(), decided);
    assert!(enc.sum() > 0.0 && score.sum() > 0.0);
    assert!((enc.sum() + score.sum() - all.sum()).abs() <= 1e-9 * decided as f64);

    // --- token-aware closed-loop runs leave the same audit trail ---------
    // `run_controller_tokens` shares `run_controller`'s interval driver:
    // one `controller.decision` event per interval, flushed to the sinks.
    use deepbat::sim::{run_controller_tokens, TokenParams};
    use deepbat::workload::{LognormalTokens, TokenMix, TokenSlo, TokenizedTrace};
    let tokenized =
        TokenizedTrace::sample(tr.clone(), &TokenMix::Lognormal(LognormalTokens::chat()), 3);
    let mut fixed = StaticController::new(LambdaConfig::new(3008, 8, 0.05), 2.0);
    let out = run_controller_tokens(
        &mut fixed,
        &tokenized,
        0.0,
        t1,
        &SimConfig::new(2.0),
        &TokenParams::llm_like(),
        &TokenSlo::new(0.5, 0.05),
    );
    assert_eq!(out.records.len(), n_intervals);
    let events = mem.events_of_kind("controller.decision");
    assert_eq!(events.len(), 2 * n_intervals);
    for (e, r) in events[n_intervals..].iter().zip(&out.records) {
        let back: DecisionRecord =
            deepbat::telemetry::serde_json::from_value(e.data.clone()).unwrap();
        assert_eq!(
            (back.index, back.config, back.requests),
            (r.index, r.config, r.requests)
        );
    }
    let flushed = read_jsonl(&jsonl_path).unwrap();
    let on_disk = flushed.iter().filter(|e| e.kind == "controller.decision");
    assert_eq!(on_disk.count(), 2 * n_intervals);

    // --- training emits its three event kinds with their payload keys ----
    let data = generate_dataset(
        &tr,
        &ConfigGrid::tiny(),
        &SimParams::default(),
        16,
        16,
        0.1,
        5,
    );
    let mut trainee = Surrogate::new(SurrogateConfig::tiny(), 2);
    let tc = TrainConfig {
        epochs: 2,
        ..TrainConfig::default()
    };
    train(&mut trainee, &data, &tc);
    fine_tune(&mut trainee, &data, 1, &tc);
    let epoch_keys = [
        "epoch",
        "train_loss",
        "val_loss",
        "lr",
        "secs",
        "throughput",
    ];
    let done_keys = [
        "epochs",
        "samples",
        "shards",
        "final_val_mape",
        "secs_per_epoch",
        "throughput",
    ];
    for (kind, count, keys) in [
        ("train.epoch", 2, &epoch_keys[..]),
        (
            "train.finetune_epoch",
            1,
            &["epoch", "train_loss", "secs"][..],
        ),
        ("train.done", 1, &done_keys[..]),
    ] {
        let events = mem.events_of_kind(kind);
        assert_eq!(events.len(), count, "{kind}");
        for key in keys {
            assert!(!events[0].data[*key].is_null(), "{kind} lacks {key}");
        }
    }

    std::fs::remove_file(&jsonl_path).ok();
}
