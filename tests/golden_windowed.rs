//! Golden regression for every windowed-batching driver: the simulators,
//! the gateway replays and the closed-loop drivers, folded to one
//! FNV-1a hash per scenario over the bit patterns of everything they
//! stamp. The literals were generated at the commit *before* the window
//! core was unified (PR 12's tree), so a passing run means the refactored
//! drivers reproduce the hand-written event loops bit for bit.
//!
//! To regenerate after an intended behaviour change, run with
//! `--nocapture`: every mismatch prints the hash it computed.
//!
//! Two rows were deleted with the code they pinned: `replay/lanes_3` and
//! `replay/controlled_lanes_3` replayed through three virtual batcher
//! lanes, a replay-only feature that is gone (the replay is now the one
//! offline window walk, which has one core). The `lanes_1` rows keep
//! their names and literals.

use deepbat::prelude::*;
use deepbat::serve::{ServeOutcome, ServedBatch};
use deepbat::sim::{
    run_controller_tokens, ColdStartFault, FaultCounts, FaultEvent, FaultSimOutcome, ThrottleFault,
    TokenParams,
};
use deepbat::workload::{LognormalTokens, TokenMix, TokenSlo, TokenizedTrace};
use std::sync::Arc;

/// FNV-1a over little-endian 8-byte words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn u(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn f(&mut self, v: f64) {
        self.u(v.to_bits());
    }

    fn n(&mut self, v: usize) {
        self.u(v as u64);
    }

    /// Every drained trace event, byte by byte as its JSON text.
    fn events(&mut self, events: &[TraceEvent]) {
        self.n(events.len());
        for ev in events {
            let json = deepbat::telemetry::serde_json::to_string(ev).expect("serialisable");
            for b in json.bytes() {
                self.0 ^= b as u64;
                self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
    }

    fn sim(&mut self, out: &SimOutcome) {
        self.n(out.requests.len());
        for r in &out.requests {
            self.f(r.dispatch);
            self.f(r.completion);
            self.n(r.batch);
        }
        self.n(out.batches.len());
        for b in &out.batches {
            self.f(b.opened_at);
            self.f(b.dispatched_at);
            self.u(b.size as u64);
            self.f(b.cost);
        }
        self.f(out.total_cost);
    }

    fn counts(&mut self, c: &FaultCounts) {
        for v in [
            c.cold_starts,
            c.failures,
            c.retries,
            c.exhausted_requests,
            c.throttled,
            c.shed_requests,
            c.stragglers,
        ] {
            self.n(v);
        }
    }

    fn faults(&mut self, out: &FaultSimOutcome) {
        self.sim(&out.sim);
        for &s in &out.served {
            self.u(s as u64);
        }
        self.n(out.events.len());
        for ev in &out.events {
            self.f(ev.at());
            match *ev {
                FaultEvent::ColdStart { batch, delay_s, .. } => {
                    self.u(1);
                    self.n(batch);
                    self.f(delay_s);
                }
                FaultEvent::Failure { batch, attempt, .. } => {
                    self.u(2);
                    self.n(batch);
                    self.u(attempt as u64);
                }
                FaultEvent::Retry {
                    batch,
                    attempt,
                    backoff_s,
                    ..
                } => {
                    self.u(3);
                    self.n(batch);
                    self.u(attempt as u64);
                    self.f(backoff_s);
                }
                FaultEvent::Exhausted {
                    batch, requests, ..
                } => {
                    self.u(4);
                    self.n(batch);
                    self.n(requests);
                }
                FaultEvent::Throttled { batch, .. } => {
                    self.u(5);
                    self.n(batch);
                }
                FaultEvent::Shed {
                    batch, requests, ..
                } => {
                    self.u(6);
                    self.n(batch);
                    self.n(requests);
                }
                FaultEvent::Straggler {
                    batch, multiplier, ..
                } => {
                    self.u(7);
                    self.n(batch);
                    self.f(multiplier);
                }
            }
        }
        self.counts(&out.counts);
    }

    fn config(&mut self, c: &LambdaConfig) {
        self.u(c.memory_mb as u64);
        self.u(c.batch_size as u64);
        self.f(c.timeout_s);
    }

    fn batch(&mut self, b: &ServedBatch) {
        self.f(b.opened_at);
        self.f(b.dispatched_at);
        self.f(b.completed_at);
        self.u(b.size as u64);
        self.f(b.cost);
        self.config(&b.config);
        self.u(b.reason as u64);
        self.u(b.lane as u64);
    }

    /// Everything but `wall_s`, the one wall-clock field.
    fn measurements(&mut self, ms: &[IntervalMeasurement]) {
        self.n(ms.len());
        for m in ms {
            self.f(m.start);
            self.f(m.end);
            self.config(&m.config);
            for v in [
                m.summary.p50,
                m.summary.p90,
                m.summary.p95,
                m.summary.p99,
                m.summary.mean,
                m.summary.max,
            ] {
                self.f(v);
            }
            self.n(m.summary.count);
            self.f(m.cost_per_request);
            self.n(m.requests);
            self.u(m.violation as u64);
            self.n(m.cold_starts);
            self.n(m.retries);
            self.n(m.lost);
        }
    }

    fn serve(&mut self, out: &ServeOutcome) {
        self.n(out.requests.len());
        for r in &out.requests {
            self.f(r.dispatched_at);
            self.f(r.completed_at);
            self.n(r.batch);
            self.u(r.lane as u64);
            self.u(r.class as u64);
        }
        self.n(out.batches.len());
        for b in &out.batches {
            self.batch(b);
        }
        self.f(out.total_cost);
        self.measurements(&out.measurements);
        self.n(out.records.len());
        for r in &out.records {
            self.config(&r.config);
            self.n(r.requests);
        }
    }
}

/// Compare every `(scenario, computed, golden)` row, reporting all
/// mismatches at once so a regeneration needs one run.
fn check(rows: &[(&str, u64, u64)]) {
    let bad: Vec<String> = rows
        .iter()
        .filter(|(_, got, want)| got != want)
        .map(|(name, got, want)| format!("{name}: computed {got:#018x}, golden {want:#018x}"))
        .collect();
    assert!(bad.is_empty(), "golden mismatch:\n{}", bad.join("\n"));
}

/// The first `n` arrivals of a generated trace.
fn head(kind: TraceKind, seed: u64, n: usize) -> Vec<f64> {
    let tr = kind.generate_for(seed, 3600.0);
    assert!(tr.len() >= n, "{} arrivals from {}", tr.len(), kind.name());
    tr.timestamps()[..n].to_vec()
}

fn six_configs() -> [LambdaConfig; 6] {
    [
        LambdaConfig::new(512, 1, 0.0),
        LambdaConfig::new(1024, 2, 0.010),
        LambdaConfig::new(2048, 8, 0.050),
        LambdaConfig::new(3008, 4, 0.025),
        LambdaConfig::new(4096, 32, 0.200),
        LambdaConfig::new(1536, 16, 0.0),
    ]
}

#[test]
fn simulate_batching_grid_and_edge_windows() {
    let params = SimParams::default();
    let grid = ConfigGrid::paper_default().configs();
    assert_eq!(grid.len(), 216);
    let grid_hash = |kind: TraceKind| {
        let arrivals = head(kind, 7, 5000);
        let mut h = Fnv::new();
        for cfg in &grid {
            h.sim(&simulate_batching(&arrivals, cfg, &params, None));
        }
        h.0
    };

    // A window sliced before its rebase: the first stamp is negative.
    let negative: Vec<f64> = (0..400).map(|i| -1.5 + i as f64 * 0.0073).collect();
    // Duplicate stamps, and an arrival exactly at `open + T` (it joins).
    let t = 0.05;
    let ties = [
        1.0,
        1.0,
        1.0 + t,
        1.0 + t,
        2.0,
        2.0,
        2.0,
        2.0 + t,
        3.0,
        3.0 + t,
        3.0 + t + t,
    ];
    let edge_hash = |arrivals: &[f64]| {
        let mut h = Fnv::new();
        for cfg in [
            LambdaConfig::new(2048, 4, t),
            LambdaConfig::new(1024, 2, t),
            LambdaConfig::new(1024, 8, t),
            LambdaConfig::new(3008, 1, t),
            LambdaConfig::new(512, 8, 0.0),
        ] {
            h.sim(&simulate_batching(arrivals, &cfg, &params, None));
        }
        h.0
    };

    check(&[
        (
            "grid/azure",
            grid_hash(TraceKind::AzureLike),
            0xcc9b_621a_ebee_446c,
        ),
        (
            "grid/alibaba",
            grid_hash(TraceKind::AlibabaLike),
            0x7b3c_433d_42c1_cc8d,
        ),
        (
            "grid/synthetic",
            grid_hash(TraceKind::SyntheticMap),
            0xc417_49df_8dea_6031,
        ),
        (
            "edge/negative_start",
            edge_hash(&negative),
            0x3d9e_d7ad_3984_7958,
        ),
        (
            "edge/ties_and_deadline",
            edge_hash(&ties),
            0x44fa_00e1_ed60_1c44,
        ),
    ]);
}

#[test]
fn simulate_faults_channels() {
    let params = SimParams::default();
    let arrivals = head(TraceKind::AzureLike, 11, 5000);
    let run = |plan: &FaultPlan| {
        let mut h = Fnv::new();
        for cfg in six_configs() {
            h.faults(&simulate_faults(&arrivals, &cfg, &params, plan));
        }
        h.0
    };
    let cold_only = FaultPlan {
        seed: 3,
        cold_start: Some(ColdStartFault {
            delay_s: 0.4,
            ref_memory_mb: 1792,
            keep_alive_s: 2.0,
        }),
        ..FaultPlan::default()
    };
    let throttle = |limit: usize| FaultPlan {
        throttle: Some(ThrottleFault {
            max_concurrency: limit,
            queue_capacity: usize::MAX,
        }),
        ..FaultPlan::default()
    };
    check(&[
        (
            "faults/intensity_0.3",
            run(&FaultPlan::intensity(0.3, 42)),
            0x4568_7f70_ffc9_c199,
        ),
        (
            "faults/intensity_0.7",
            run(&FaultPlan::intensity(0.7, 42)),
            0xb313_9561_d414_52db,
        ),
        (
            "faults/intensity_1.0",
            run(&FaultPlan::intensity(1.0, 42)),
            0x192d_374a_cc35_b76c,
        ),
        (
            "faults/cold_start_only",
            run(&cold_only),
            0xc721_71c3_8c91_4f8b,
        ),
        (
            "faults/throttle_1",
            run(&throttle(1)),
            0x6600_adc0_5a48_09a0,
        ),
        (
            "faults/throttle_2",
            run(&throttle(2)),
            0xfc6e_2452_ef69_edeb,
        ),
        (
            "faults/throttle_8",
            run(&throttle(8)),
            0x3f2e_dbc1_f556_658f,
        ),
        (
            "faults/throttle_max",
            run(&throttle(usize::MAX)),
            0x6b99_cde1_6b1f_716d,
        ),
    ]);
}

fn two_class_trace() -> (ClassedTrace, Vec<RequestClass>, Vec<FunctionGroup>) {
    let classes = vec![RequestClass::new(0, 0.08), RequestClass::new(1, 0.8)];
    let trace = Trace::new(head(TraceKind::AlibabaLike, 5, 4000), 3600.0);
    let classed = ClassedTrace::tag_weighted(trace, &classes, 3).unwrap();
    let groups = vec![
        FunctionGroup::new(LambdaConfig::new(3008, 2, 0.010), vec![0]),
        FunctionGroup::new(LambdaConfig::new(1024, 16, 0.100), vec![1]),
    ];
    (classed, classes, groups)
}

#[test]
fn simulate_faults_multi_two_groups() {
    let (classed, classes, groups) = two_class_trace();
    let out = simulate_faults_multi(
        &classed,
        &classes,
        &groups,
        &SimParams::default(),
        &FaultPlan::intensity(0.6, 9),
    )
    .unwrap();
    let mut h = Fnv::new();
    for g in &out.groups {
        h.faults(&g.out);
    }
    h.counts(&out.counts);
    h.f(out.total_cost);
    for c in &out.per_class {
        h.n(c.served);
        h.f(c.cost);
        h.f(c.summary.p95);
    }
    check(&[("faults_multi/two_groups", h.0, 0xa84c_1fa8_863b_888a)]);
}

#[test]
fn virtual_gateway_replays() {
    let params = SimParams::default();
    let arrivals = head(TraceKind::AzureLike, 13, 5000);
    let mut h = Fnv::new();
    for cfg in six_configs() {
        h.serve(&VirtualGateway::from_params(&params).replay(&arrivals, &cfg));
    }
    let fixed = h.0;

    let trace = TraceKind::AzureLike.generate_for(13, 180.0);
    let opts = SimConfig::builder()
        .params(params)
        .slo(0.1)
        .decision_interval(20.0)
        .build()
        .unwrap();
    let mut ctl = ScriptedController::new(six_configs().to_vec(), 0.1);
    // Traced on a hub of its own: tracing reads only computed stamps, so
    // the outcome row is the untraced one.
    let hub = Arc::new(Telemetry::new());
    hub.tracer().enable_capture();
    let mut gw = VirtualGateway::from_params(&params).with_telemetry(hub.clone());
    let mut h = Fnv::new();
    h.serve(&gw.replay_controlled(&mut ctl, &trace, 0.0, 180.0, &opts));
    let controlled = h.0;
    let mut h = Fnv::new();
    h.events(&hub.tracer().drain());
    let stream = h.0;

    check(&[
        ("replay/lanes_1", fixed, 0xdc30_9c6e_cfec_f318),
        (
            "replay/controlled_lanes_1",
            controlled,
            0xd050_c5a8_3895_84f3,
        ),
        (
            "replay/controlled_trace_stream",
            stream,
            0x30ee_85b6_fff9_2890,
        ),
    ]);
}

#[test]
fn closed_loop_measurement_streams() {
    let trace = TraceKind::SyntheticMap.generate_for(21, 600.0);
    let run = |faults: FaultPlan| {
        let opts = SimConfig::builder()
            .slo(0.1)
            .decision_interval(30.0)
            .faults(faults)
            .build()
            .unwrap();
        let mut ctl = ScriptedController::new(six_configs().to_vec(), 0.1);
        let out = run_controller(&mut ctl, &trace, 0.0, 600.0, &opts);
        let mut h = Fnv::new();
        h.measurements(&out.measurements);
        h.counts(&out.counts);
        h.n(out.records.len());
        h.0
    };

    let tokenized = TokenizedTrace::sample(
        TraceKind::AzureLike.generate_for(17, 300.0),
        &TokenMix::Lognormal(LognormalTokens::chat()),
        42,
    );
    let opts = SimConfig::builder()
        .slo(2.0)
        .decision_interval(30.0)
        .build()
        .unwrap();
    let mut ctl = ScriptedController::new(six_configs().to_vec(), 2.0);
    let out = run_controller_tokens(
        &mut ctl,
        &tokenized,
        0.0,
        300.0,
        &opts,
        &TokenParams::llm_like(),
        &TokenSlo::new(0.5, 0.05),
    );
    let mut h_tok = Fnv::new();
    h_tok.measurements(&out.measurements);
    let g = out.goodput.expect("token runs report goodput");
    h_tok.n(g.served);
    h_tok.n(g.ok);
    h_tok.f(g.horizon_s);

    check(&[
        (
            "run_controller/inert",
            run(FaultPlan::default()),
            0xac3b_bb7f_2849_d569,
        ),
        (
            "run_controller/faulted",
            run(FaultPlan::intensity(0.5, 77)),
            0xa16e_6c13_00c2_065b,
        ),
        ("run_controller_tokens", h_tok.0, 0xa2af_2a94_fd04_b0fb),
    ]);
}
