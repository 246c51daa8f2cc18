//! The model-free experiments: the motivation sweeps (Fig. 1), the four
//! workloads' arrival rates (Fig. 4) and burstiness (Fig. 5), and the
//! cold-start / concurrency-quota ablation.

use super::{non_decreasing, non_increasing, r};
use crate::ledger::Claim::Reproduced;
use crate::ledger::{Claims, Summary};
use crate::ExpSettings;
use dbat_sim::{
    evaluate, publish_sim, simulate_faults, ColdStartFault, FaultPlan, LambdaConfig, SimParams,
    ThrottleFault,
};
use dbat_telemetry::Telemetry;
use dbat_workload::{idc_series, TraceKind, HOUR};
use serde::Serialize;
use std::collections::BTreeMap;

/// One axis of Fig. 1, swept with the other two fixed.
#[derive(Serialize)]
pub(crate) struct Sweep {
    /// The swept value: memory (MB), batch size, or timeout (ms).
    pub at: Vec<f64>,
    pub mean_ms: Vec<f64>,
    pub p95_ms: Vec<f64>,
    pub cost_uusd: Vec<f64>,
    /// Realised mean batch size.
    pub mean_batch: Vec<f64>,
}

/// Fig. 1: latency and cost against memory, batch size and timeout on a
/// busy 10-minute slice of the Azure-like trace.
#[derive(Serialize)]
pub(crate) struct Fig01 {
    pub requests: usize,
    pub rate_per_s: f64,
    /// (a) memory at B = 8, T = 50 ms.
    pub memory: Sweep,
    /// (b) batch size at M = 2048 MB, T = 100 ms.
    pub batch: Sweep,
    /// (c) timeout at M = 2048 MB, B = 16.
    pub timeout: Sweep,
}

pub(crate) fn fig01(s: &ExpSettings) -> Fig01 {
    let trace = TraceKind::AzureLike.generate_for(s.seed_for(TraceKind::AzureLike), HOUR);
    let slice = trace.slice(20.0 * 60.0, 30.0 * 60.0);
    let arrivals = slice.timestamps();
    let sweep = |at: Vec<f64>, config: &dyn Fn(f64) -> LambdaConfig| {
        let evals: Vec<_> = (at.iter())
            .map(|&x| evaluate(arrivals, &config(x), &s.params))
            .collect();
        Sweep {
            mean_ms: evals.iter().map(|e| r(e.summary.mean * 1e3, 1)).collect(),
            p95_ms: evals.iter().map(|e| r(e.summary.p95 * 1e3, 1)).collect(),
            cost_uusd: evals
                .iter()
                .map(|e| r(e.cost_per_request * 1e6, 4))
                .collect(),
            mean_batch: evals.iter().map(|e| r(e.mean_batch_size, 2)).collect(),
            at,
        }
    };
    let memory = [
        512.0, 1024.0, 1536.0, 2048.0, 3008.0, 4096.0, 6144.0, 8192.0, 10240.0,
    ];
    Fig01 {
        requests: slice.len(),
        rate_per_s: r(slice.mean_rate(), 1),
        memory: sweep(memory.to_vec(), &|m| LambdaConfig::new(m as u32, 8, 0.05)),
        batch: sweep(vec![1.0, 2.0, 4.0, 8.0, 16.0, 32.0], &|b| {
            LambdaConfig::new(2048, b as u32, 0.1)
        }),
        timeout: sweep(vec![0.0, 10.0, 25.0, 50.0, 100.0, 200.0, 500.0], &|t| {
            LambdaConfig::new(2048, 16, t / 1e3)
        }),
    }
}

impl Summary for Fig01 {
    fn claims(&self) -> Claims {
        let (m, knee) = (&self.memory, 4); // 3008 MB
        let flat = m.p95_ms[knee..].iter().all(|&p| p == m.p95_ms[knee]);
        let saturates = non_increasing(&m.p95_ms) && m.p95_ms[0] > m.p95_ms[knee] && flat;
        let overpays = non_decreasing(&m.cost_uusd[knee..]) && m.cost_uusd[8] > m.cost_uusd[knee];
        let trades = |s: &Sweep| non_increasing(&s.cost_uusd) && non_decreasing(&s.p95_ms);
        vec![
            (Reproduced, "p95_flat_past_3008_mb", saturates),
            (Reproduced, "memory_past_3008_mb_costs", overpays),
            (Reproduced, "batch_trades_p95_for_cost", trades(&self.batch)),
            (
                Reproduced,
                "timeout_trades_p95_for_cost",
                trades(&self.timeout),
            ),
        ]
    }
}

/// One trace's arrival rate in 15-minute bins.
#[derive(Serialize)]
pub(crate) struct Rates {
    pub arrivals: usize,
    pub hours: f64,
    pub req_per_s: Vec<f64>,
}

/// Fig. 4: arrival rate over time for the four workloads.
#[derive(Serialize)]
pub(crate) struct Fig04 {
    pub traces: BTreeMap<String, Rates>,
}

pub(crate) fn fig04(s: &ExpSettings) -> Fig04 {
    let traces = (TraceKind::ALL.iter())
        .map(|&kind| {
            let trace = s.trace(kind);
            let rates = Rates {
                arrivals: trace.len(),
                hours: r(trace.horizon() / HOUR, 0),
                req_per_s: (trace.rate_series(900.0).iter())
                    .map(|&v| r(v, 1))
                    .collect(),
            };
            (kind.name().to_string(), rates)
        })
        .collect();
    Fig04 { traces }
}

impl Summary for Fig04 {
    fn claims(&self) -> Claims {
        // Peak 15-minute rate over the median one.
        let peakiness = |name: &str| {
            let mut rates = self.traces[name].req_per_s.clone();
            rates.sort_by(f64::total_cmp);
            rates[rates.len() - 1] / rates[rates.len() / 2].max(1e-9)
        };
        let peaky = peakiness("alibaba") > peakiness("azure").max(peakiness("twitter"));
        vec![(Reproduced, "alibaba_peakiest", peaky)]
    }
}

/// One trace's hourly index of dispersion for counts (30 s bins).
#[derive(Serialize)]
pub(crate) struct Idc {
    pub hourly: Vec<f64>,
    pub mean: f64,
    pub peak: f64,
}

/// Fig. 5: burstiness of the four workloads.
#[derive(Serialize)]
pub(crate) struct Fig05 {
    pub traces: BTreeMap<String, Idc>,
}

pub(crate) fn fig05(s: &ExpSettings) -> Fig05 {
    let traces = (TraceKind::ALL.iter())
        .map(|&kind| {
            let series = idc_series(&s.trace(kind), HOUR, 30.0);
            let idc = Idc {
                mean: r(series.iter().sum::<f64>() / series.len().max(1) as f64, 1),
                peak: r(series.iter().cloned().fold(1e-9, f64::max), 1),
                hourly: series.iter().map(|&v| r(v, 1)).collect(),
            };
            (kind.name().to_string(), idc)
        })
        .collect();
    Fig05 { traces }
}

impl Summary for Fig05 {
    fn paper(&self) -> Vec<(&'static str, f64, f64)> {
        // "around 4 for most periods".
        vec![("traces.twitter.mean", self.traces["twitter"].mean, 4.0)]
    }

    fn claims(&self) -> Claims {
        let mean = |name: &str| self.traces[name].mean;
        let ordered = mean("twitter") < mean("azure")
            && mean("azure") < mean("alibaba").min(mean("synthetic"));
        vec![(Reproduced, "idc_ordering", ordered)]
    }
}

/// Container keep-alive windows swept by the cold-start table, longest first.
const KEEP_ALIVE_S: [f64; 8] = [f64::INFINITY, 10.0, 1.0, 0.5, 0.2, 0.1, 0.05, 0.0];
/// Account concurrency limits swept by the quota table.
const QUOTAS: [usize; 6] = [1, 2, 4, 8, 16, usize::MAX];

/// The cold-start channel on its own, per keep-alive window.
#[derive(Serialize)]
pub(crate) struct KeepAlive {
    /// `null` for a container that never expires.
    pub keep_alive_s: Vec<Option<f64>>,
    pub cold_batches_pct: Vec<f64>,
    pub p95_ms: Vec<f64>,
    pub p99_ms: Vec<f64>,
    pub cost_uusd: Vec<f64>,
}

/// The throttle channel on its own, per account concurrency limit.
#[derive(Serialize)]
pub(crate) struct Quota {
    /// `null` for no limit.
    pub limit: Vec<Option<usize>>,
    pub p50_ms: Vec<f64>,
    pub p95_ms: Vec<f64>,
    pub max_ms: Vec<f64>,
}

/// Ablation: cold starts (400 ms init) and concurrency quotas, extensions
/// over the paper's unlimited-warm model, on a 15-minute Azure-like slice.
#[derive(Serialize)]
pub(crate) struct AblColdstart {
    pub requests: usize,
    pub config: String,
    pub keep_alive: KeepAlive,
    pub quota: Quota,
}

pub(crate) fn abl_coldstart(s: &ExpSettings, hub: &Telemetry) -> AblColdstart {
    let trace = TraceKind::AzureLike.generate_for(s.seed_for(TraceKind::AzureLike), HOUR);
    let slice = trace.slice(10.0 * 60.0, 25.0 * 60.0);
    let arrivals = slice.timestamps();
    let cfg = LambdaConfig::new(2048, 8, 0.05);
    let params = SimParams::default();
    let simulate = |plan: FaultPlan| {
        let out = simulate_faults(arrivals, &cfg, &params, &plan);
        publish_sim(hub, &out, &cfg);
        out
    };
    let cold: Vec<_> = (KEEP_ALIVE_S.iter())
        .map(|&keep_alive_s| {
            // A fresh container pays the init delay (billed); a warm one is
            // reused LIFO until it has sat idle longer than the keep-alive.
            let plan = FaultPlan {
                cold_start: Some(ColdStartFault {
                    delay_s: 0.4,
                    ref_memory_mb: cfg.memory_mb,
                    keep_alive_s,
                }),
                ..FaultPlan::default()
            };
            simulate(plan)
        })
        .collect();
    let quota: Vec<_> = (QUOTAS.iter())
        .map(|&limit| {
            // Batches beyond the limit wait in an unbounded FIFO queue.
            let plan = FaultPlan {
                throttle: Some(ThrottleFault {
                    max_concurrency: limit,
                    queue_capacity: usize::MAX,
                }),
                ..FaultPlan::default()
            };
            simulate(plan).summary()
        })
        .collect();
    let summaries: Vec<_> = cold.iter().map(|o| o.summary()).collect();
    AblColdstart {
        requests: slice.len(),
        config: cfg.to_string(),
        keep_alive: KeepAlive {
            keep_alive_s: (KEEP_ALIVE_S.iter())
                .map(|&k| k.is_finite().then(|| r(k, 2)))
                .collect(),
            cold_batches_pct: (cold.iter())
                .map(|o| {
                    r(
                        o.counts.cold_starts as f64 / o.sim.batches.len().max(1) as f64 * 1e2,
                        1,
                    )
                })
                .collect(),
            p95_ms: summaries.iter().map(|q| r(q.p95 * 1e3, 1)).collect(),
            p99_ms: summaries.iter().map(|q| r(q.p99 * 1e3, 1)).collect(),
            cost_uusd: cold
                .iter()
                .map(|o| r(o.cost_per_request() * 1e6, 4))
                .collect(),
        },
        quota: Quota {
            limit: QUOTAS
                .iter()
                .map(|&l| (l != usize::MAX).then_some(l))
                .collect(),
            p50_ms: quota.iter().map(|q| r(q.p50 * 1e3, 1)).collect(),
            p95_ms: quota.iter().map(|q| r(q.p95 * 1e3, 1)).collect(),
            max_ms: quota.iter().map(|q| r(q.max * 1e3, 1)).collect(),
        },
    }
}

impl Summary for AblColdstart {
    fn claims(&self) -> Claims {
        let k = &self.keep_alive;
        let q = &self.quota.p95_ms;
        let dearer = non_decreasing(&k.cold_batches_pct) && non_decreasing(&k.cost_uusd);
        let binds = non_increasing(q) && q[1..].iter().all(|&p| p == q[1]);
        vec![
            (Reproduced, "shorter_keep_alive_dearer", dearer),
            (Reproduced, "quota_binds_only_at_1", binds),
        ]
    }
}
