//! Controller-level integration: DeepBAT's and BATCH's policies over a
//! shifting workload, driven and measured by `run_controller`; the audit
//! trail and metrics a closed loop publishes to the hub it was handed; and
//! two runs in one process, which see only their own hubs.

use deepbat::core::SurrogateConfig;
use deepbat::prelude::*;
use deepbat::telemetry::{read_jsonl, Event, JsonlSink, MemorySink, Sink};
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

fn poisson_trace() -> Trace {
    let map = Map::poisson(25.0);
    let mut rng = Rng::new(7);
    Trace::new(map.simulate(&mut rng, 0.0, 600.0), 600.0)
}

/// The `DecisionRecord`s that `controller.decision` events carry.
fn decisions(events: Vec<Event>) -> Vec<DecisionRecord> {
    let of = |e: Event| deepbat::telemetry::serde_json::from_value(e.data).unwrap();
    let decided = events
        .into_iter()
        .filter(|e| e.kind == "controller.decision");
    decided.map(of).collect()
}

/// The online controller emits one well-formed `DecisionRecord` per
/// decision interval into its run's hub, the JSONL sink round-trips those
/// records exactly, and the published metrics reconcile with the run.
#[test]
fn online_controller_audit_trail() {
    let (tel, mem) = (Arc::new(Telemetry::new()), Arc::new(MemorySink::new()));
    let dir = std::env::temp_dir().join(format!(
        "deepbat-online_controller_audit_trail-{}",
        std::process::id()
    ));
    std::fs::create_dir_all(&dir).unwrap();
    let jsonl_path = dir.join("decisions.jsonl");
    let jsonl = Arc::new(JsonlSink::create(&jsonl_path).unwrap());
    tel.enable();
    tel.add_sink(mem.clone());
    tel.add_sink(jsonl.clone());

    let tr = poisson_trace();
    let model = Arc::new(Surrogate::new(SurrogateConfig::tiny(), 2));
    let mut ctl = DeepBatController::new(ConfigGrid::tiny(), 0.1).with_model(model);
    let opts = SimConfig::builder().slo(0.1).telemetry(tel.clone()).build();
    let (t1, n) = (300.0, 5);
    let out = run_controller(&mut ctl, &tr, 0.0, t1, &opts.unwrap());

    // --- one record per decision interval, contiguous ------------------
    assert_eq!(out.records.len(), n);
    for (i, r) in out.records.iter().enumerate() {
        let interval = (i, i as f64 * 60.0, (i + 1) as f64 * 60.0);
        assert_eq!((r.index, r.start, r.end), interval);
        let target = (ctl.optimizer.grid.len(), 0.1, 95.0);
        assert_eq!((r.grid_size, r.slo, r.percentile), target);
        if r.bootstrap {
            assert_eq!(r.config, ctl.bootstrap);
            assert!(r.predicted_percentiles.is_none() && r.online_ape().is_none());
            assert_eq!((r.infer_s, r.encode_s), (0.0, 0.0));
        } else {
            assert!(ctl.optimizer.grid.configs().contains(&r.config));
            assert!(r.predicted_cost_micro.unwrap() >= 0.0 && r.window_stats.is_some());
            assert!(0.0 < r.encode_s && r.encode_s < r.infer_s && r.infer_s <= r.decide_s);
            assert!(r.online_ape().unwrap().is_finite());
        }
    }
    // The Poisson(25) trace is dense, so every interval is measured.
    assert_eq!(out.measurements.len(), n);
    for (r, m) in out.records.iter().zip(&out.measurements) {
        assert_eq!((r.requests, r.violation), (m.requests, Some(m.violation)));
        assert_eq!(r.measured.unwrap().p95, m.summary.p95);
        assert_eq!(r.measured_cost_per_request, Some(m.cost_per_request));
    }

    // --- simulator metrics reconcile with the measured intervals --------
    // Only the measured intervals publish `sim.*`: every arrival and every
    // batch of the ground-truth simulation of each decided configuration.
    let (mut arrivals, mut batches) = (0, 0);
    for r in &out.records {
        let slice = tr.slice(r.start, r.end);
        let sim = simulate_batching(slice.timestamps(), &r.config, &SimParams::default(), None);
        arrivals += sim.requests.len() as u64;
        batches += sim.batches.len() as u64;
    }
    let count = |name: &str| tel.counter(name).get();
    let flushes = count("sim.flush.timeout") + count("sim.flush.capacity");
    assert_eq!(
        (tel.histogram("sim.batch_size").count(), flushes),
        (batches, batches)
    );
    assert_eq!(count("sim.events"), arrivals + batches);
    assert_eq!(
        (count("sim.fault.cold_starts"), count("sim.clamped_events")),
        (0, 0)
    );

    // --- the decide split is readable from the hub -----------------------
    // One sample per decision; the encode and score legs add up to the
    // inference they split.
    assert_eq!(count("controller.decisions"), n as u64);
    let [enc, score, infer, decide] = ["encode_s", "score_s", "infer_s", "decide_s"]
        .map(|h| tel.histogram(&format!("controller.{h}")));
    assert!([&enc, &score, &infer, &decide]
        .iter()
        .all(|h| h.count() == n as u64));
    assert!(enc.sum() > 0.0 && score.sum() > 0.0);
    assert!((enc.sum() + score.sum() - infer.sum()).abs() <= 1e-9 * n as f64);

    // --- token-aware closed-loop runs leave the same audit trail ---------
    // `run_controller_tokens` shares `run_controller`'s interval driver.
    use deepbat::sim::{run_controller_tokens, TokenParams};
    use deepbat::workload::{LognormalTokens, TokenMix, TokenSlo, TokenizedTrace};
    let chat = TokenMix::Lognormal(LognormalTokens::chat());
    let tokenized = TokenizedTrace::sample(tr.clone(), &chat, 3);
    let mut fixed = StaticController::new(LambdaConfig::new(3008, 8, 0.05), 2.0);
    let opts = SimConfig::builder()
        .slo(2.0)
        .telemetry(tel.clone())
        .build()
        .unwrap();
    let (params, slo) = (TokenParams::llm_like(), TokenSlo::new(0.5, 0.05));
    let tokens = run_controller_tokens(&mut fixed, &tokenized, 0.0, t1, &opts, &params, &slo);
    let rejected: usize = tokens.measurements.iter().map(|m| m.lost).sum();
    assert_eq!(count("sim.tokens.rejected"), rejected as u64);

    // --- every record reaches both sinks, and the JSONL round-trips it --
    let both = [out.records, tokens.records].concat();
    jsonl.flush();
    for sunk in [
        mem.events_of_kind("controller.decision"),
        read_jsonl(&jsonl_path).unwrap(),
    ] {
        assert_eq!(format!("{:?}", decisions(sunk)), format!("{both:?}"));
    }

    // --- a training report emits its three event kinds with their keys --
    let grid = ConfigGrid::tiny();
    let data = generate_dataset(&tr, &grid, &SimParams::default(), 16, 16, 0.1, 5);
    let mut trainee = Surrogate::new(SurrogateConfig::tiny(), 2);
    let tc = TrainConfig {
        epochs: 2,
        ..TrainConfig::default()
    };
    let trained = train(&mut trainee, &data, &tc);
    let tuned = fine_tune(&mut trainee, &data, 1, &tc);
    assert!(
        mem.events_of_kind("train.epoch").is_empty(),
        "train publishes"
    );
    trained.publish(&tel);
    tuned.publish(&tel);
    let keys = |e: &Event| {
        e.data
            .as_object()
            .unwrap()
            .keys()
            .cloned()
            .collect::<Vec<_>>()
    };
    for (kind, count, want) in [
        (
            "train.epoch",
            2,
            "epoch lr secs throughput train_loss val_loss",
        ),
        ("train.finetune_epoch", 1, "epoch secs train_loss"),
        (
            "train.done",
            1,
            "epochs final_val_mape samples secs_per_epoch shards throughput",
        ),
    ] {
        let events = mem.events_of_kind(kind);
        assert_eq!(events.len(), count, "{kind}");
        assert!(
            events.iter().all(|e| keys(e).join(" ") == want),
            "{kind} keys"
        );
    }
    let epochs = mem.events_of_kind("train.epoch");
    for (e, (&secs, &lr)) in epochs
        .iter()
        .zip(trained.epoch_s.iter().zip(&trained.epoch_lr))
    {
        assert_eq!(
            (e.data["secs"].as_f64(), e.data["lr"].as_f64()),
            (Some(secs), Some(lr))
        );
    }

    std::fs::remove_dir_all(&dir).ok();
}

/// What one hub saw: its tracer's capture, its counters and its
/// `controller.decision` event count.
type Seen = (Vec<TraceEvent>, String, usize);

/// Run `run` against a fresh capture-armed hub and report what it saw.
fn on_own_hub(run: impl FnOnce(Arc<Telemetry>)) -> Seen {
    let (hub, sink) = (Arc::new(Telemetry::new()), Arc::new(MemorySink::new()));
    hub.enable();
    hub.add_sink(sink.clone());
    hub.tracer().enable_capture();
    run(hub.clone());
    let counters = format!("{:?}", hub.metrics_json()["counters"]);
    let decided = sink.events_of_kind("controller.decision").len();
    (hub.tracer().drain(), counters, decided)
}

/// Two closed loops on two threads, each with its own capture-armed hub,
/// leave in each hub exactly what that run leaves when it runs alone; so
/// do two virtual replays.
#[test]
fn runs_in_one_process_see_only_their_own_hub() {
    let trace = shifting_trace(5);
    let legs = [0.05, 0.02].map(|timeout_s| LambdaConfig::new(2048, 4, timeout_s));
    let closed_loop = |config| {
        on_own_hub(|hub| {
            let opts = SimConfig::builder()
                .slo(0.1)
                .telemetry(hub)
                .build()
                .unwrap();
            let mut ctl = StaticController::new(config, 0.1);
            run_controller(&mut ctl, &trace, 0.0, 600.0, &opts);
        })
    };
    let replay = |config| {
        on_own_hub(|hub| {
            let mut gw = VirtualGateway::from_params(&SimParams::default()).with_telemetry(hub);
            gw.replay(trace.timestamps(), &config);
        })
    };
    let runs: [&(dyn Fn(LambdaConfig) -> Seen + Sync); 2] = [&closed_loop, &replay];
    for run in runs {
        let alone = legs.map(run);
        let together = std::thread::scope(|scope| {
            let threads = legs.map(|config| scope.spawn(move || run(config)));
            threads.map(|t| t.join().unwrap())
        });
        assert!(alone.iter().all(|(events, ..)| !events.is_empty()));
        assert_ne!(alone[0].0, alone[1].0, "the legs must differ to show a mix");
        assert_eq!(together, alone);
    }
    // The closed loops also published every decision and interval.
    let (_, counters, decided) = closed_loop(legs[0]);
    assert_eq!(decided, 10);
    assert!(
        counters.contains("\"controller.decisions\": Number(10.0)"),
        "{counters}"
    );
}
