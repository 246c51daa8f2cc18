//! Causal trace ids of the token-aware closed loop: every request's
//! events carry its offered index, so a decode step's anchor joins the
//! request it names even after a KV rejection.
//!
//! `run_controller_tokens` records through the process-global tracer, so
//! this is the one test of its own integration binary.

use dbat_sim::{
    run_controller_tokens, simulate_tokens_windowed, LambdaConfig, SimConfig, StaticController,
    TokenParams,
};
use dbat_telemetry::serde_json::to_value;
use dbat_telemetry::{TraceEvent, TraceStage};
use dbat_workload::{LognormalTokens, TokenMix, TokenSlo, TokenizedTrace, TraceKind};
use std::collections::BTreeMap;

/// 640 MB less 512 MB of weights at 0.5 MiB per token: 256 resident
/// tokens, so about a third of chat-sized requests are rejected.
const MEMORY_MB: u32 = 640;
const CAPACITY_TOKENS: u64 = 256;
const INTERVAL_S: f64 = 10.0;
const INTERVALS: usize = 3;

/// The stamp of each trace id's one event at `stage`.
fn stamps(events: &[TraceEvent], stage: TraceStage) -> BTreeMap<u64, f64> {
    let mut out = BTreeMap::new();
    for ev in events.iter().filter(|e| e.stage == stage) {
        let prev = out.insert(ev.trace.0, ev.t);
        assert!(prev.is_none(), "two {stage:?} events for id {}", ev.trace.0);
    }
    out
}

#[test]
fn trace_ids_are_offered_indices_after_a_kv_rejection() {
    let tokenized = TokenizedTrace::sample(
        TraceKind::AzureLike.generate_for(3, 600.0),
        &TokenMix::Lognormal(LognormalTokens::chat()),
        8,
    );
    let (arrivals, specs) = (tokenized.arrivals(), tokenized.specs());
    let config = LambdaConfig::new(MEMORY_MB, 8, 0.05);
    let params = TokenParams::llm_like();
    let fits = |i: usize| specs[i].total_tokens() <= CAPACITY_TOKENS;

    // The run starts on an oversize request, so its first interval does.
    let first = (1..arrivals.len())
        .find(|&i| !fits(i) && arrivals[i - 1] < arrivals[i])
        .expect("an oversize request");
    let t0 = arrivals[first];
    let t1 = t0 + INTERVALS as f64 * INTERVAL_S;

    let tracer = dbat_telemetry::global().tracer();
    tracer.enable_capture();
    let opts = SimConfig::builder()
        .slo(2.0)
        .decision_interval(INTERVAL_S)
        .build()
        .unwrap();
    let mut ctl = StaticController::new(config, 2.0);
    let out = run_controller_tokens(
        &mut ctl,
        &tokenized,
        t0,
        t1,
        &opts,
        &params,
        &TokenSlo::new(0.5, 0.05),
    );
    let events = tracer.drain();
    assert_eq!(out.measurements.len(), INTERVALS);
    assert!(out.measurements.iter().all(|m| m.lost > 0));

    // Each interval's completions, keyed by the offered index counted
    // from `t0` (the ids the closed loop hands out).
    let mut completion = BTreeMap::new();
    for k in 0..INTERVALS {
        let start = t0 + k as f64 * INTERVAL_S;
        let (lo, hi) = tokenized.index_range(start, start + INTERVAL_S);
        let sim = simulate_tokens_windowed(&arrivals[lo..hi], &specs[lo..hi], &config, &params);
        let admitted = (lo..hi).filter(|&i| fits(i));
        for (i, r) in admitted.zip(sim.served.iter().map(to_value)) {
            let t = r["completion"].as_f64().expect("a stamp");
            completion.insert((i - first) as u64, t);
        }
    }

    let admit = stamps(&events, TraceStage::Admit);
    let complete = stamps(&events, TraceStage::Complete);
    // Exactly the admitted requests have events, each under its own id.
    assert_eq!(
        admit.len(),
        completion.len(),
        "one Admit per served request"
    );
    assert_eq!(complete.len(), completion.len(), "one Complete per served");
    for (&id, &t) in &admit {
        assert!(
            completion.contains_key(&id),
            "rejected id {id} has an Admit"
        );
        let arrival = arrivals[first + id as usize];
        assert_eq!(t.to_bits(), arrival.to_bits(), "Admit of id {id}");
    }
    for (&id, &t) in &complete {
        let want = completion.get(&id).copied().unwrap_or(f64::NAN);
        assert_eq!(t.to_bits(), want.to_bits(), "Complete of id {id}");
    }
    let steps: Vec<&TraceEvent> = events
        .iter()
        .filter(|e| e.stage == TraceStage::DecodeStep)
        .collect();
    assert!(!steps.is_empty());
    for step in steps {
        let id = step.trace.0;
        assert!(
            admit.contains_key(&id) && complete.contains_key(&id),
            "decode step at {} names id {id}, which has no Admit and Complete",
            step.t
        );
        assert!(admit[&id] <= step.t && step.t < complete[&id]);
    }
}
