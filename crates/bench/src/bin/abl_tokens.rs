//! Token-aware serving ablation: windowed batching vs continuous
//! batching under TTFT/TPOT SLOs, across LLM-shaped token distributions.
//!
//! The incumbent pipeline is token-blind: it picks `(M, B, T)` by the
//! ground-truth sweep against the end-to-end SLO of the *unit-work*
//! service model, then serves with window batching. This bench replays
//! that choice under the token-aware two-phase ground truth
//! ([`simulate_tokens_windowed`]) and compares three servers per token
//! distribution (chat / summarize / long-decode over the same arrival
//! trace):
//!
//! * `win/blind` — window batching at the token-blind sweep's config
//!   (what the shipped controller would deploy);
//! * `win/aware` — window batching at the config a token-aware sweep
//!   picks (best goodput, cheapest on ties);
//! * `cont/aware` — continuous batching ([`simulate_tokens_continuous`])
//!   with `(M, B)` and the replica count swept the same way.
//!
//! Goodput is SLO-satisfying requests/second ([`dbat_sim::Goodput`]).
//! The asserted gate: on the long-decode distribution, token-aware
//! continuous batching strictly beats the token-blind windowed
//! incumbent on goodput. A `StaticController` run through
//! [`run_controller_tokens`] reports the closed-loop goodput of the
//! incumbent config.
//!
//! Results land in `BENCH_tokens.json` (or `$DBAT_BENCH_OUT`). The
//! document carries no wall-clock fields, so re-runs are byte-identical
//! — CI asserts exactly that.
//!
//! ```sh
//! cargo run --release --bin abl_tokens                         # full
//! DBAT_BENCH_QUICK=1 cargo run --release --bin abl_tokens      # CI smoke
//! ```

use dbat_bench::report::{banner, f, goodput_pct, goodput_rps, table};
use dbat_bench::settings::ExpSettings;
use dbat_sim::{
    ground_truth, run_controller_tokens, simulate_tokens_continuous, simulate_tokens_windowed,
    Goodput, LambdaConfig, SimConfig, SimParams, StaticController, TokenParams, TokenSimOutcome,
};
use dbat_workload::{AppConfig, LognormalTokens, TokenMix, TokenSlo, TokenizedTrace, TraceKind};
use rayon::prelude::*;

/// One evaluated (discipline, config) cell.
struct Cell {
    config: LambdaConfig,
    replicas: usize,
    goodput: Goodput,
    out: TokenSimOutcome,
}

impl Cell {
    fn row(&self, dist: &str, server: &str) -> Vec<String> {
        vec![
            dist.to_string(),
            server.to_string(),
            format!(
                "{}MB/B{}/x{}",
                self.config.memory_mb, self.config.batch_size, self.replicas
            ),
            goodput_rps(&self.goodput),
            goodput_pct(&self.goodput),
            self.out.rejected.to_string(),
            f(self.out.cost_per_request() * 1e6, 3),
        ]
    }

    fn json(&self) -> serde_json::Value {
        serde_json::json!({
            "memory_mb": self.config.memory_mb,
            "batch_size": self.config.batch_size,
            "timeout_s": self.config.timeout_s,
            "replicas": self.replicas,
            "goodput_rps": self.goodput.rps(),
            "attainment_pct": self.goodput.attainment_pct(),
            "served": self.goodput.served,
            "ok": self.goodput.ok,
            "rejected": self.out.rejected,
            "total_cost_usd": self.out.total_cost,
            "cost_per_request_usd": self.out.cost_per_request(),
        })
    }
}

/// Best cell of a sweep: most SLO-satisfying completions, cheapest on
/// ties (stable against the deterministic sweep order).
fn best(cells: Vec<Cell>) -> Cell {
    cells
        .into_iter()
        .reduce(|a, b| {
            if b.goodput.ok > a.goodput.ok
                || (b.goodput.ok == a.goodput.ok && b.out.total_cost < a.out.total_cost)
            {
                b
            } else {
                a
            }
        })
        .expect("non-empty sweep")
}

fn main() {
    let settings = ExpSettings::from_env();
    let quick = settings.fast
        || std::env::var("DBAT_BENCH_QUICK")
            .map(|v| v == "1")
            .unwrap_or(false);
    let app = AppConfig::from_args(std::env::args().skip(1)).unwrap_or_else(|e| {
        eprintln!("config error: {e}");
        std::process::exit(2);
    });
    let _tel = settings.init_telemetry("abl_tokens");
    banner("abl_tokens", "token-aware continuous vs windowed batching");

    let kind = TraceKind::parse(&app.sim.workload).unwrap_or(TraceKind::AzureLike);
    let horizon = if quick {
        app.sim.horizon_s.min(300.0)
    } else {
        app.sim.horizon_s.min(1200.0)
    };
    let trace = kind.generate_for(app.sim.seed, horizon);

    let params = TokenParams::llm_like();

    // The incumbent, token-blind choice: ground-truth sweep against the
    // unit-work service model and the e2e SLO. This is what the shipped
    // controller deploys when it cannot see token lengths.
    let blind = ground_truth(
        trace.timestamps(),
        &settings.grid,
        &SimParams::default(),
        settings.slo,
        settings.percentile,
    )
    .expect("non-empty grid")
    .config;
    println!(
        "{} trace: {} requests over {horizon:.0}s; token-blind sweep picks {}MB/B{}/T{}ms",
        kind.name(),
        trace.len(),
        blind.memory_mb,
        blind.batch_size,
        (blind.timeout_s * 1e3) as u64,
    );

    // Three token distributions over the same arrivals. Chat and
    // summarization tolerate a few hundred ms to the first token; the
    // long-decode (interactive generation) class demands a 50 ms TTFT —
    // which window batching structurally spends waiting for the window
    // to dispatch.
    let dists: Vec<(&str, TokenMix, TokenSlo)> = vec![
        (
            "chat",
            TokenMix::Lognormal(LognormalTokens::chat()),
            TokenSlo::new(0.3, 0.02),
        ),
        (
            "summarize",
            TokenMix::Lognormal(LognormalTokens::summarize()),
            TokenSlo::new(0.5, 0.025),
        ),
        (
            "long_decode",
            TokenMix::Lognormal(LognormalTokens::long_decode()),
            TokenSlo::new(0.05, 0.012),
        ),
    ];
    // The azure trace is bursty: the fleet needs ~3x mean-demand headroom
    // before tail TTFT settles, hence the ladder reaching 16.
    let replica_ladder: &[usize] = &[1, 2, 4, 8, 16];

    let mut rows: Vec<Vec<String>> = Vec::new();
    let mut dists_json = serde_json::Map::new();
    let mut gate_cells: Option<(Cell, Cell)> = None; // (win/blind, cont/aware) on long_decode

    for (name, mix, slo) in &dists {
        let tokenized = TokenizedTrace::sample(trace.clone(), mix, app.sim.seed ^ 0x70CE25);
        let (arrivals, specs) = (tokenized.arrivals(), tokenized.specs());

        // The incumbent: token-blind config, window batching.
        let win_blind = {
            let out = simulate_tokens_windowed(arrivals, specs, &blind, &params);
            assert!(out.conserved(), "windowed conservation");
            Cell {
                config: blind,
                replicas: 1,
                goodput: out.goodput(slo, horizon),
                out,
            }
        };

        // Token-aware windowed sweep: same discipline, informed choice.
        let win_aware = best(
            settings
                .grid
                .configs()
                .par_iter()
                .map(|cfg| {
                    let out = simulate_tokens_windowed(arrivals, specs, cfg, &params);
                    Cell {
                        config: *cfg,
                        replicas: 1,
                        goodput: out.goodput(slo, horizon),
                        out,
                    }
                })
                .collect(),
        );

        // Token-aware continuous sweep: (M, B) × replicas. `timeout_s`
        // is meaningless under continuous batching (pin it to 0), and a
        // cohort cap below 4 is serial decoding — skip it.
        let cont_grid: Vec<(LambdaConfig, usize)> = settings
            .grid
            .memories_mb
            .iter()
            .flat_map(|&m| {
                settings
                    .grid
                    .batch_sizes
                    .iter()
                    .filter(|&&b| b >= 4)
                    .flat_map(move |&b| {
                        replica_ladder
                            .iter()
                            .map(move |&r| (LambdaConfig::new(m, b, 0.0), r))
                    })
            })
            .collect();
        let cont_aware = best(
            cont_grid
                .par_iter()
                .map(|&(cfg, r)| {
                    let out = simulate_tokens_continuous(arrivals, specs, &cfg, &params, r);
                    Cell {
                        config: cfg,
                        replicas: r,
                        goodput: out.goodput(slo, horizon),
                        out,
                    }
                })
                .collect(),
        );
        assert!(cont_aware.out.conserved(), "continuous conservation");

        // Closed-loop goodput of the incumbent (windowed discipline).
        let mut ctl = StaticController::new(blind, settings.slo);
        let opts = SimConfig::builder()
            .slo(horizon) // e2e violation flag: effectively off, the token SLOs judge
            .decision_interval(settings.decision_interval)
            .build()
            .expect("valid sim config");
        let run = run_controller_tokens(&mut ctl, &tokenized, 0.0, horizon, &opts, &params, slo);
        let ctl_goodput = run.goodput.expect("token driver reports goodput");

        rows.push(win_blind.row(name, "win/blind"));
        rows.push(win_aware.row(name, "win/aware"));
        rows.push(cont_aware.row(name, "cont/aware"));

        dists_json.insert(
            name.to_string(),
            serde_json::json!({
                "ttft_slo_s": slo.ttft_s,
                "tpot_slo_s": slo.tpot_s,
                "windowed_blind": win_blind.json(),
                "windowed_aware": win_aware.json(),
                "continuous_aware": cont_aware.json(),
                "controller": serde_json::json!({
                    "goodput_rps": ctl_goodput.rps(),
                    "attainment_pct": ctl_goodput.attainment_pct(),
                    "served": ctl_goodput.served,
                    "ok": ctl_goodput.ok,
                    "cost_per_request_usd": run.cost_per_request(),
                }),
            }),
        );
        if *name == "long_decode" {
            gate_cells = Some((win_blind, cont_aware));
        }
    }

    println!();
    table(
        &[
            "dist",
            "server",
            "config",
            "rps",
            "attain",
            "rej",
            "cost u$/req",
        ],
        &rows,
    );

    // --- the gate: token-aware continuous beats the token-blind ------
    // incumbent on goodput where it matters most (long decodes).
    let (win, cont) = gate_cells.expect("long_decode evaluated");
    println!(
        "\nlong_decode goodput: win/blind {} rps ({}) -> cont/aware {} rps ({})",
        goodput_rps(&win.goodput),
        goodput_pct(&win.goodput),
        goodput_rps(&cont.goodput),
        goodput_pct(&cont.goodput),
    );
    assert!(
        cont.goodput.ok > win.goodput.ok && cont.goodput.rps() > win.goodput.rps(),
        "continuous batching must strictly improve long-decode goodput \
         (windowed {}/{} ok, continuous {}/{} ok)",
        win.goodput.ok,
        win.goodput.served,
        cont.goodput.ok,
        cont.goodput.served,
    );

    let doc = serde_json::json!({
        "bench": "abl_tokens",
        "quick": quick,
        "workload": kind.name(),
        "horizon_s": horizon,
        "requests": trace.len(),
        "kv_bytes_per_token": params.kv_bytes_per_token,
        "model_mb": params.model_mb,
        "blind_config": serde_json::json!({
            "memory_mb": blind.memory_mb,
            "batch_size": blind.batch_size,
            "timeout_s": blind.timeout_s,
        }),
        "distributions": serde_json::Value::Object(dists_json),
        "gate": serde_json::json!({
            "windowed_blind_goodput_rps": win.goodput.rps(),
            "continuous_aware_goodput_rps": cont.goodput.rps(),
            "passed": true,
        }),
    });
    let path = std::env::var("DBAT_BENCH_OUT").unwrap_or_else(|_| "BENCH_tokens.json".to_string());
    std::fs::write(
        &path,
        serde_json::to_string_pretty(&doc).expect("serialisable"),
    )
    .expect("bench output writable");
    println!("results -> {path}");
}
