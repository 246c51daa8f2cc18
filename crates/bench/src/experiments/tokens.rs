//! Ablation: token-aware serving, windowed against continuous batching
//! under TTFT/TPOT SLOs, across LLM-shaped token distributions.
//!
//! The incumbent pipeline is token-blind: it picks `(M, B, T)` by the
//! ground-truth sweep against the end-to-end SLO of the unit-work service
//! model, then serves with window batching. The experiment replays that
//! choice under the token-aware two-phase ground truth and compares three
//! servers per token distribution (chat / summarize / long-decode over the
//! same arrivals):
//!
//! * `windowed_blind` — window batching at the token-blind sweep's config
//!   (what the shipped controller deploys);
//! * `windowed_aware` — window batching at the config a token-aware sweep
//!   picks (best goodput, cheapest on ties);
//! * `continuous_aware` — continuous batching with `(M, B)` and the replica
//!   count swept the same way.
//!
//! Goodput is SLO-satisfying requests per second ([`Goodput`]). A
//! `StaticController` at the blind config, run through
//! [`run_controller_tokens`], reports the incumbent's closed-loop goodput.

use super::r;
use crate::ledger::Claim::Reproduced;
use crate::ledger::{Claims, Summary};
use crate::ExpSettings;
use dbat_sim::{
    ground_truth, run_controller_tokens, simulate_tokens_continuous, simulate_tokens_windowed,
    Goodput, LambdaConfig, SimConfig, StaticController, TokenParams, TokenSimOutcome,
};
use dbat_telemetry::Telemetry;
use dbat_workload::{LognormalTokens, TokenMix, TokenSlo, TokenizedTrace, TraceKind};
use rayon::prelude::*;
use serde::Serialize;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Seed of the Azure-like arrivals (the token lengths draw from it too).
const SEED: u64 = 42;

/// What one server reports: goodput, admission rejections and cost.
#[derive(Serialize)]
pub(crate) struct Server {
    pub config: String,
    pub replicas: usize,
    pub goodput_rps: f64,
    pub attainment_pct: f64,
    pub served: usize,
    pub ok: usize,
    pub rejected: usize,
    pub cost_uusd: f64,
    pub total_cost_uusd: f64,
}

/// One evaluated (discipline, config) cell: only what it reports, so a
/// sweep never holds more than one outcome per worker.
struct Cell {
    config: LambdaConfig,
    replicas: usize,
    goodput: Goodput,
    rejected: usize,
    total_cost: f64,
    cost_per_request: f64,
}

impl Cell {
    fn of(
        config: LambdaConfig,
        replicas: usize,
        out: &TokenSimOutcome,
        slo: &TokenSlo,
        horizon: f64,
    ) -> Self {
        assert!(
            out.conserved(),
            "token conservation violated at {config} x{replicas}"
        );
        Cell {
            config,
            replicas,
            goodput: out.goodput(slo, horizon),
            rejected: out.rejected,
            total_cost: out.total_cost,
            cost_per_request: out.cost_per_request(),
        }
    }

    fn server(&self) -> Server {
        let g = &self.goodput;
        Server {
            config: self.config.to_string(),
            replicas: self.replicas,
            goodput_rps: r(g.rps(), 2),
            attainment_pct: r(g.attainment_pct(), 1),
            served: g.served,
            ok: g.ok,
            rejected: self.rejected,
            cost_uusd: r(self.cost_per_request * 1e6, 4),
            total_cost_uusd: r(self.total_cost * 1e6, 0),
        }
    }
}

/// The best cell of a sweep: most SLO-satisfying completions, cheapest on
/// ties, earliest in sweep order after that.
fn best(cells: Vec<Cell>) -> Cell {
    (cells.into_iter())
        .reduce(|a, b| {
            let better = b.goodput.ok > a.goodput.ok
                || (b.goodput.ok == a.goodput.ok && b.total_cost < a.total_cost);
            if better {
                b
            } else {
                a
            }
        })
        .expect("non-empty sweep")
}

/// The incumbent config in the closed loop.
#[derive(Serialize)]
pub(crate) struct ClosedLoop {
    pub goodput_rps: f64,
    pub attainment_pct: f64,
    pub served: usize,
    pub ok: usize,
    pub cost_uusd: f64,
}

/// One token distribution with its SLO and the servers run on it.
#[derive(Serialize)]
pub(crate) struct Distribution {
    pub ttft_slo_ms: f64,
    pub tpot_slo_ms: f64,
    pub windowed_blind: Server,
    pub windowed_aware: Server,
    pub continuous_aware: Server,
    pub controller: ClosedLoop,
}

/// Ablation: token-aware windowed and continuous batching against the
/// token-blind incumbent, on a 20-minute Azure-like trace (5 in fast mode).
#[derive(Serialize)]
pub(crate) struct AblTokens {
    pub horizon_s: f64,
    pub requests: usize,
    pub kv_bytes_per_token: f64,
    pub model_mb: u32,
    /// The token-blind ground-truth sweep's choice.
    pub blind_config: String,
    pub distributions: BTreeMap<String, Distribution>,
}

pub(crate) fn abl_tokens(s: &ExpSettings, hub: &Arc<Telemetry>) -> AblTokens {
    let horizon = if s.fast { 300.0 } else { 1200.0 };
    let trace = TraceKind::AzureLike.generate_for(SEED, horizon);
    let params = TokenParams::llm_like();
    let blind = ground_truth(trace.timestamps(), &s.grid, &s.params, s.slo, s.percentile)
        .expect("non-empty grid")
        .config;

    // Chat and summarization tolerate a few hundred ms to the first token;
    // the long-decode class demands a 50 ms TTFT, which window batching
    // structurally spends waiting for the window to dispatch.
    let dists = [
        ("chat", LognormalTokens::chat(), TokenSlo::new(0.3, 0.02)),
        (
            "summarize",
            LognormalTokens::summarize(),
            TokenSlo::new(0.5, 0.025),
        ),
        (
            "long_decode",
            LognormalTokens::long_decode(),
            TokenSlo::new(0.05, 0.012),
        ),
    ];
    // `timeout_s` is meaningless under continuous batching (pinned to 0), a
    // cohort cap below 4 is serial decoding, and the bursty Azure-like trace
    // needs ~3x mean-demand headroom before tail TTFT settles, hence
    // replicas up to 16.
    let continuous_grid: Vec<(LambdaConfig, usize)> = (s.grid.memories_mb.iter())
        .flat_map(|&m| {
            (s.grid.batch_sizes.iter().filter(|&&b| b >= 4)).flat_map(move |&b| {
                [1, 2, 4, 8, 16].map(|replicas| (LambdaConfig::new(m, b, 0.0), replicas))
            })
        })
        .collect();

    let distributions = (dists.into_iter())
        .map(|(name, lengths, slo)| {
            let tokenized = TokenizedTrace::sample(
                trace.clone(),
                &TokenMix::Lognormal(lengths),
                SEED ^ 0x70CE25,
            );
            let (arrivals, specs) = (tokenized.arrivals(), tokenized.specs());
            let windowed = |cfg: &LambdaConfig| {
                let out = simulate_tokens_windowed(arrivals, specs, cfg, &params);
                Cell::of(*cfg, 1, &out, &slo, horizon)
            };
            let windowed_aware = best(s.grid.configs().par_iter().map(windowed).collect());
            let continuous_aware = best(
                (continuous_grid.par_iter())
                    .map(|&(cfg, replicas)| {
                        let out =
                            simulate_tokens_continuous(arrivals, specs, &cfg, &params, replicas);
                        Cell::of(cfg, replicas, &out, &slo, horizon)
                    })
                    .collect(),
            );

            let mut ctl = StaticController::new(blind, s.slo);
            // The end-to-end violation flag is effectively off: the token
            // SLOs judge.
            let opts = SimConfig::builder()
                .slo(horizon)
                .decision_interval(s.decision_interval)
                .telemetry(hub.clone())
                .build()
                .expect("valid sim config");
            let run =
                run_controller_tokens(&mut ctl, &tokenized, 0.0, horizon, &opts, &params, &slo);
            let g = run.goodput.expect("the token driver reports goodput");
            let dist = Distribution {
                ttft_slo_ms: r(slo.ttft_s * 1e3, 0),
                tpot_slo_ms: r(slo.tpot_s * 1e3, 0),
                windowed_blind: windowed(&blind).server(),
                windowed_aware: windowed_aware.server(),
                continuous_aware: continuous_aware.server(),
                controller: ClosedLoop {
                    goodput_rps: r(g.rps(), 2),
                    attainment_pct: r(g.attainment_pct(), 1),
                    served: g.served,
                    ok: g.ok,
                    cost_uusd: r(run.cost_per_request() * 1e6, 4),
                },
            };
            (name.to_string(), dist)
        })
        .collect();
    AblTokens {
        horizon_s: horizon,
        requests: trace.len(),
        kv_bytes_per_token: params.kv_bytes_per_token,
        model_mb: params.model_mb,
        blind_config: blind.to_string(),
        distributions,
    }
}

impl Summary for AblTokens {
    fn claims(&self) -> Claims {
        let d = &self.distributions["long_decode"];
        let (win, cont) = (&d.windowed_blind, &d.continuous_aware);
        let beats = cont.ok > win.ok && cont.goodput_rps > win.goodput_rps;
        vec![(
            Reproduced,
            "long_decode_continuous_beats_windowed_blind",
            beats,
        )]
    }
}
