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
//!
//! Two more went with the gateway's controlled replay, its second offline
//! closed loop: `replay/controlled_lanes_1` and
//! `replay/controlled_trace_stream`. The closed loop stays pinned by the
//! `run_controller*` rows, and the replay's trace staging (the one settle
//! it shares with the live worker) by `replay/trace_stream`, a traced
//! fixed replay whose literal was taken before that deletion.
//!
//! The `tokens_*` rows pin both token simulators' whole outcomes. Their
//! literals were taken before the decode step was tabulated.

use deepbat::prelude::*;
use deepbat::serve::{ServeOutcome, ServedBatch};
use deepbat::sim::{
    run_controller_tokens, simulate_tokens_continuous, simulate_tokens_windowed, sweep,
    ColdStartFault, FaultCounts, FaultEvent, FaultSimOutcome, LatencySummary, ThrottleFault,
    TokenParams, TokenSimOutcome,
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

    /// Every served record (stamps and spec), every invocation field, and
    /// the outcome's counts and total cost. The record fields are
    /// crate-private, so they are read through the outcome's serde form,
    /// which keeps every `f64` as it is.
    fn tokens(&mut self, out: &TokenSimOutcome) {
        use deepbat::telemetry::serde_json::{to_value, Value};
        let f = |v: &Value, key: &str| {
            v[key]
                .as_f64()
                .unwrap_or_else(|| panic!("`{key}` is a number"))
        };
        self.n(out.served.len());
        for r in out.served.iter().map(to_value) {
            for key in ["arrival", "dispatch", "first_token", "completion"] {
                self.f(f(&r, key));
            }
            self.u(f(&r["spec"], "prompt_tokens") as u64);
            self.u(f(&r["spec"], "output_tokens") as u64);
        }
        self.n(out.invocations.len());
        for inv in out.invocations.iter().map(to_value) {
            self.f(f(&inv, "start"));
            self.f(f(&inv, "busy_s"));
            for key in ["size", "joined"] {
                self.u(f(&inv, key) as u64);
            }
            self.f(f(&inv, "cost"));
            for key in ["engine", "anchor"] {
                self.u(f(&inv, key) as u64);
            }
        }
        self.n(out.rejected);
        self.n(out.offered);
        self.f(out.total_cost);
    }

    fn config(&mut self, c: &LambdaConfig) {
        self.u(c.memory_mb as u64);
        self.u(c.batch_size as u64);
        self.f(c.timeout_s);
    }

    fn summary(&mut self, s: &LatencySummary) {
        for v in [s.p50, s.p90, s.p95, s.p99, s.mean, s.max] {
            self.f(v);
        }
        self.n(s.count);
    }

    /// Every `Evaluation` of a sweep, in output order.
    fn sweep(&mut self, arrivals: &[f64], grid: &ConfigGrid, params: &SimParams) {
        let evals = sweep(arrivals, grid, params);
        self.n(evals.len());
        for e in &evals {
            self.config(&e.config);
            self.summary(&e.summary);
            self.f(e.cost_per_request);
            self.f(e.mean_batch_size);
        }
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
            self.summary(&m.summary);
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

/// The timeout the edge arrival sets are built around.
const EDGE_T: f64 = 0.05;

/// A window sliced before its rebase: the first stamp is negative.
fn negative_start() -> Vec<f64> {
    (0..400).map(|i| -1.5 + i as f64 * 0.0073).collect()
}

/// Duplicate stamps, and an arrival exactly at `open + T` (it joins).
fn ties_and_deadline() -> [f64; 11] {
    let t = EDGE_T;
    [
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

    let t = EDGE_T;
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
            edge_hash(&negative_start()),
            0x3d9e_d7ad_3984_7958,
        ),
        (
            "edge/ties_and_deadline",
            edge_hash(&ties_and_deadline()),
            0x44fa_00e1_ed60_1c44,
        ),
    ]);
}

/// `sweep`'s summaries, costs and mean batch sizes, in output order. The
/// literals were taken before `sweep` shared one window walk across the
/// memory sizes of a `(B, T)` pair.
#[test]
fn sweep_summaries() {
    let params = SimParams::default();
    let paper = ConfigGrid::paper_default();
    let grid_hash = |kind: TraceKind| {
        let mut h = Fnv::new();
        h.sweep(&head(kind, 7, 5000), &paper, &params);
        h.0
    };
    // `B = 1`, `T = 0`, a memory past the 3 008 MB saturation point and a
    // duplicated batch size (each duplicate still gets its own rows).
    let small = ConfigGrid {
        memories_mb: vec![512, 3008, 8192],
        batch_sizes: vec![1, 4, 4, 16],
        timeouts_s: vec![0.0, EDGE_T],
    };
    let edge_hash = |arrivals: &[f64]| {
        let mut h = Fnv::new();
        h.sweep(arrivals, &small, &params);
        h.0
    };
    check(&[
        (
            "sweep/azure",
            grid_hash(TraceKind::AzureLike),
            0x8c1f_05fc_44b2_97ed,
        ),
        (
            "sweep/alibaba",
            grid_hash(TraceKind::AlibabaLike),
            0x2904_acce_38b6_eec8,
        ),
        (
            "sweep/synthetic",
            grid_hash(TraceKind::SyntheticMap),
            0x5204_10ae_436a_7ef2,
        ),
        (
            "sweep/negative_start",
            edge_hash(&negative_start()),
            0x87c6_ad02_236c_324e,
        ),
        (
            "sweep/ties_and_deadline",
            edge_hash(&ties_and_deadline()),
            0x4ae0_5f7b_df12_5d0d,
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
    // Traced on a hub of its own: tracing reads only computed stamps, so
    // the outcome row is the untraced one.
    let hub = Arc::new(Telemetry::new());
    hub.tracer().enable_capture();
    let (mut fixed, mut stream) = (Fnv::new(), Fnv::new());
    for cfg in six_configs() {
        let mut gw = VirtualGateway::from_params(&params).with_telemetry(hub.clone());
        fixed.serve(&gw.replay(&arrivals, &cfg));
        stream.events(&hub.tracer().drain());
    }
    check(&[
        ("replay/lanes_1", fixed.0, 0xdc30_9c6e_cfec_f318),
        ("replay/trace_stream", stream.0, 0x98c6_04f9_6998_1c93),
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

/// Both token simulators over each lognormal mix: cohort bounds 4 and 32,
/// a roomy 3 008 MB and a KV-bound 1 024 MB (room for 1 024 resident
/// tokens, so long requests are rejected and cohorts are KV-limited), and
/// 1, 4 and 16 engine replicas for the continuous one.
#[test]
fn token_simulator_outcomes() {
    let arrivals = head(TraceKind::AzureLike, 17, 500);
    let trace = Trace::new(arrivals, 3600.0);
    let params = TokenParams::llm_like();
    let configs = [
        LambdaConfig::new(3008, 4, 0.05),
        LambdaConfig::new(3008, 32, 0.2),
        LambdaConfig::new(1024, 4, 0.05),
        LambdaConfig::new(1024, 32, 0.2),
    ];
    let mut rows = Vec::new();
    for (name, mix, golden) in [
        (
            "chat",
            LognormalTokens::chat(),
            [
                0xe7f7_d51a_52f2_7af8,
                0xf117_f07d_98c0_ac72,
                0x1ffe_bf35_c840_7fd8,
                0xd2ae_63e0_9ad4_ed75,
            ],
        ),
        (
            "summarize",
            LognormalTokens::summarize(),
            [
                0x79f0_4839_8106_94ad,
                0x0682_70fe_368e_b7c5,
                0x3174_a2b7_fd0b_285d,
                0x76a1_af1e_e460_c491,
            ],
        ),
        (
            "long_decode",
            LognormalTokens::long_decode(),
            [
                0x2ef9_0ebc_3c84_ec36,
                0x9974_ce50_3f7c_9648,
                0x77f3_b9f3_230c_dff4,
                0xd200_fc6d_2e54_78f7,
            ],
        ),
    ] {
        let tt = TokenizedTrace::sample(trace.clone(), &TokenMix::Lognormal(mix), 5);
        let mut h = Fnv::new();
        for cfg in &configs {
            let out = simulate_tokens_windowed(tt.arrivals(), tt.specs(), cfg, &params);
            // Only the KV-bound memory rejects, under every mix.
            assert_eq!(out.rejected > 0, cfg.memory_mb == 1024, "{name} {cfg:?}");
            h.tokens(&out);
        }
        rows.push((format!("tokens_windowed/{name}"), h.0, golden[0]));
        for (k, replicas) in [1, 4, 16].into_iter().enumerate() {
            let mut h = Fnv::new();
            for cfg in &configs {
                let out =
                    simulate_tokens_continuous(tt.arrivals(), tt.specs(), cfg, &params, replicas);
                h.tokens(&out);
            }
            rows.push((
                format!("tokens_continuous/{name}/replicas_{replicas}"),
                h.0,
                golden[k + 1],
            ));
        }
    }
    let rows: Vec<(&str, u64, u64)> = rows.iter().map(|(n, g, w)| (n.as_str(), *g, *w)).collect();
    check(&rows);
}
