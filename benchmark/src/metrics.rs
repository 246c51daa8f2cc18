//! The metric tables: every name the harness may print, with its unit
//! and direction. `BENCHMARK.json` at the repo root lists the same names
//! in the same order; a unit test keeps the two in step.
//!
//! An untraced run prints every end-to-end metric. A traced run prints
//! every per-layer metric: a layer the workload never enters reads 0.

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Clone, Copy, Debug)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn lo(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn hi(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Higher,
    }
}

/// What a user of the system sees. Each workload names its own unit of
/// work and its own operation (see `benchmark/README.md`).
pub const END_TO_END: &[MetricDef] = &[
    lo("setup_s", "s"),
    hi("work_per_s", "1/s"),
    lo("op_p50_us", "us"),
];

/// One tracked figure (or a few) per layer; layer = crate name.
pub const PER_LAYER: &[MetricDef] = &[
    // linalg — kernel probes at the encoder's and the trainer's shapes.
    hi("linalg.gemm_small_gflops", "GF/s"),
    hi("linalg.gemm_large_gflops", "GF/s"),
    lo("linalg.softmax_ns_per_row", "ns"),
    // nn — compiled plan, autograd graph, one optimiser step.
    lo("nn.encoder_plan_us", "us"),
    lo("nn.graph_fwd_us", "us"),
    lo("nn.train_step_ms", "ms"),
    lo("nn.plan_compile_us", "us"),
    // core — the decision path piece by piece, then the loop's ledger.
    lo("core.window_us", "us"),
    lo("core.encode_us", "us"),
    lo("core.score216_us", "us"),
    lo("core.choose_us", "us"),
    hi("core.label_samples_per_s", "1/s"),
    hi("core.speedup_vs_batch", "x"),
    lo("core.decide_busy_s", "s"),
    hi("core.decisions", "count"),
    lo("core.config_switches", "count"),
    lo("core.decide_p90_us", "us"),
    lo("core.decide_p99_us", "us"),
    lo("core.decide_max_us", "us"),
    lo("core.cost_per_req_uusd", "uUSD"),
    lo("core.slo_violation_pct", "%"),
    lo("core.val_mape_pct", "%"),
    lo("core.self_share_pct", "%"),
    // analytic — the BATCH baseline's refit + optimise.
    lo("analytic.batch_decide_ms", "ms"),
    // sim — one rate per discipline, then the workload's counts.
    hi("sim.windowed_mreq_per_s", "Mreq/s"),
    hi("sim.sweep_parallel_eff", "share"),
    hi("sim.faults_mreq_per_s", "Mreq/s"),
    hi("sim.multi_mreq_per_s", "Mreq/s"),
    hi("sim.tokens_windowed_kreq_per_s", "kreq/s"),
    hi("sim.tokens_continuous_kreq_per_s", "kreq/s"),
    lo("sim.summary_us", "us"),
    lo("sim.measure_busy_s", "s"),
    hi("sim.requests", "count"),
    hi("sim.batches", "count"),
    hi("sim.decode_steps", "count"),
    lo("sim.self_share_pct", "%"),
    // serve — admission, window, dispatch, completion.
    lo("serve.batcher_core_ns_per_req", "ns"),
    hi("serve.replay_mreq_per_s", "Mreq/s"),
    lo("serve.submit_p50_ns", "ns"),
    lo("serve.submit_p99_ns", "ns"),
    lo("serve.window_lag_p50_us", "us"),
    lo("serve.exec_lag_p50_us", "us"),
    lo("serve.gen_late_p50_us", "us"),
    lo("serve.gen_late_p99_us", "us"),
    lo("serve.overhead_p90_us", "us"),
    lo("serve.overhead_p99_us", "us"),
    lo("serve.overhead_max_us", "us"),
    hi("serve.within_limit_share", "share"),
    lo("serve.unresolved", "flag"),
    lo("serve.drain_ms", "ms"),
    hi("serve.mean_batch", "req"),
    hi("serve.flush_capacity_share", "share"),
    lo("serve.flush_timeout_share", "share"),
    lo("serve.steals", "count"),
    lo("serve.rejected", "count"),
    hi("serve.reconfigs", "count"),
    lo("serve.control_share_pct", "%"),
    lo("serve.self_share_pct", "%"),
    // workload — trace generation and slicing.
    hi("workload.gen_mreq_per_s", "Mreq/s"),
    lo("workload.slice_us", "us"),
    lo("workload.self_share_pct", "%"),
    // telemetry — what observing costs.
    lo("telemetry.counter_ns", "ns"),
    lo("telemetry.trace_overhead_pct", "%"),
    // bench — the harness's own ledger.
    lo("bench.trace_overhead_pct", "%"),
    lo("bench.reconcile_gap_pct", "%"),
    lo("bench.self_share_pct", "%"),
    hi("bench.spans", "count"),
    lo("bench.peak_rss_mb", "MB"),
];

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(s: &str) -> bool {
        let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
        !s.is_empty()
            && s.len() <= 64
            && s.chars().next().unwrap().is_ascii_alphanumeric()
            && s.chars().all(ok)
    }

    fn valid_unit(s: &str) -> bool {
        let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-');
        !s.is_empty() && s.len() <= 16 && s.chars().all(ok)
    }

    #[test]
    fn names_and_units_fit_the_contract_and_are_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(m.name), "bad name {}", m.name);
            assert!(valid_unit(m.unit), "bad unit {} of {}", m.unit, m.name);
            assert!(seen.insert(m.name), "duplicate {}", m.name);
        }
        assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == Better::Lower));
    }

    /// `BENCHMARK.json` must list exactly these metrics, in this order.
    #[test]
    fn benchmark_json_lists_the_same_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let spec: dbat_telemetry::serde_json::Value =
            dbat_telemetry::serde_json::from_str(&text).expect("BENCHMARK.json parses");
        for (key, defs) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let listed: Vec<(&str, &str, &str)> = spec
                .field(key)
                .as_array()
                .unwrap_or_else(|| panic!("{key} is a list"))
                .iter()
                .map(|m| {
                    let text = |f: &str| m.field(f).as_str().unwrap_or_else(|| panic!("{key}.{f}"));
                    (text("name"), text("unit"), text("better"))
                })
                .collect();
            let expected: Vec<(&str, &str, &str)> = defs
                .iter()
                .map(|m| (m.name, m.unit, m.better.as_str()))
                .collect();
            assert_eq!(listed, expected, "{key}");
        }
    }
}
