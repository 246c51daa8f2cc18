//! Property-based tests: conservation laws of the batching simulator, the
//! grid sweep against one simulation per configuration, and the Eq. (10)
//! selection rule against a naive reference.

use dbat_sim::{
    evaluate, select_config, simulate_batching, sweep, ConfigGrid, LambdaConfig, LatencySummary,
    SimParams,
};
use proptest::prelude::*;

/// Strategy: a sorted arrival sequence of 1..200 points over ~[0, 20] s.
fn arrivals() -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(0.0f64..0.2, 1..200).prop_map(|gaps| {
        let mut t = 0.0;
        gaps.iter()
            .map(|g| {
                t += g;
                t
            })
            .collect()
    })
}

fn config() -> impl Strategy<Value = LambdaConfig> {
    (
        prop::sample::select(vec![512u32, 1024, 2048, 3008, 8192]),
        1u32..=32,
        prop::sample::select(vec![0.0f64, 0.01, 0.05, 0.1, 0.5]),
    )
        .prop_map(|(m, b, t)| LambdaConfig::new(m, b, t))
}

/// Sorted arrivals that may be empty or a single stamp, repeat stamps
/// (zero gaps) and start below zero.
fn edge_arrivals() -> impl Strategy<Value = Vec<f64>> {
    // Two in five gaps are zero.
    let gap = (0u32..5, 0.0f64..0.08).prop_map(|(k, g)| if k < 2 { 0.0 } else { g });
    (-1.0f64..0.5, prop::collection::vec(gap, 0..120)).prop_map(|(start, gaps)| {
        let mut t = start;
        gaps.iter()
            .map(|g| {
                t += g;
                t
            })
            .collect()
    })
}

/// A small grid drawn from few values, so entries repeat; `B = 1`, `T = 0`
/// and memories on both sides of the 3 008 MB saturation point all occur.
/// An empty memory list makes an empty grid.
fn small_grid() -> impl Strategy<Value = ConfigGrid> {
    let memory = prop::sample::select(vec![512u32, 1024, 3008, 4096, 10_240]);
    let batch = prop::sample::select(vec![1u32, 2, 4, 16]);
    let timeout = prop::sample::select(vec![0.0f64, 0.01, 0.05]);
    (
        prop::collection::vec(memory, 0..4),
        prop::collection::vec(batch, 1..4),
        prop::collection::vec(timeout, 1..4),
    )
        .prop_map(|(memories_mb, batch_sizes, timeouts_s)| ConfigGrid {
            memories_mb,
            batch_sizes,
            timeouts_s,
        })
}

/// The bit pattern of every field of an evaluation.
fn eval_bits(config: &LambdaConfig, s: &LatencySummary, cost: f64, mean_batch: f64) -> [u64; 12] {
    [
        config.memory_mb as u64,
        config.batch_size as u64,
        config.timeout_s.to_bits(),
        s.p50.to_bits(),
        s.p90.to_bits(),
        s.p95.to_bits(),
        s.p99.to_bits(),
        s.mean.to_bits(),
        s.max.to_bits(),
        s.count as u64,
        cost.to_bits(),
        mean_batch.to_bits(),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn every_request_served_exactly_once(arr in arrivals(), cfg in config()) {
        let out = simulate_batching(&arr, &cfg, &SimParams::default(), None);
        prop_assert_eq!(out.requests.len(), arr.len());
        let total: u32 = out.batches.iter().map(|b| b.size).sum();
        prop_assert_eq!(total as usize, arr.len());
    }

    #[test]
    fn batch_sizes_within_limit(arr in arrivals(), cfg in config()) {
        let out = simulate_batching(&arr, &cfg, &SimParams::default(), None);
        for b in &out.batches {
            prop_assert!(b.size >= 1 && b.size <= cfg.batch_size);
        }
    }

    #[test]
    fn latency_at_least_service_and_wait_bounded(arr in arrivals(), cfg in config()) {
        let params = SimParams::default();
        let out = simulate_batching(&arr, &cfg, &params, None);
        for r in &out.requests {
            let batch = out.batches[r.batch];
            prop_assert!(r.latency() >= batch.service_s - 1e-12);
            // Wait is bounded by the timeout (first request of a window
            // waits at most T; later ones strictly less).
            if cfg.batch_size > 1 && cfg.timeout_s > 0.0 {
                prop_assert!(r.wait() <= cfg.timeout_s + 1e-9,
                    "wait {} exceeds timeout {}", r.wait(), cfg.timeout_s);
            } else {
                prop_assert!(r.wait() <= 1e-12);
            }
        }
    }

    #[test]
    fn dispatch_order_and_cost_consistency(arr in arrivals(), cfg in config()) {
        let out = simulate_batching(&arr, &cfg, &SimParams::default(), None);
        // Batches are recorded in dispatch order.
        for w in out.batches.windows(2) {
            prop_assert!(w[0].dispatched_at <= w[1].dispatched_at + 1e-12);
        }
        let sum: f64 = out.batches.iter().map(|b| b.cost).sum();
        prop_assert!((out.total_cost - sum).abs() < 1e-12);
        prop_assert!(out.total_cost > 0.0);
    }

    #[test]
    fn more_memory_never_hurts_latency(arr in arrivals()) {
        // With B/T fixed, raising memory weakly decreases p95 latency.
        let params = SimParams::default();
        let mut prev = f64::INFINITY;
        for m in [512u32, 1024, 2048, 3008] {
            let cfg = LambdaConfig::new(m, 8, 0.05);
            let out = simulate_batching(&arr, &cfg, &params, None);
            let p95 = out.summary().p95;
            prop_assert!(p95 <= prev + 1e-9, "p95 {p95} rose at memory {m}");
            prev = p95;
        }
    }

    #[test]
    fn grid_configs_all_valid(idx in 0usize..216) {
        let grid = ConfigGrid::paper_default();
        let cfgs = grid.configs();
        let cfg = cfgs[idx % cfgs.len()];
        prop_assert!(cfg.validate().is_ok());
    }

    // One row per grid entry, in `ConfigGrid::configs` order, each equal
    // bit for bit to `evaluate` of its configuration.
    #[test]
    fn sweep_equals_evaluate_per_config(arr in edge_arrivals(), grid in small_grid()) {
        let params = SimParams::default();
        let evals = sweep(&arr, &grid, &params);
        let configs = grid.configs();
        prop_assert_eq!(evals.len(), configs.len());
        for (e, cfg) in evals.iter().zip(&configs) {
            let want = evaluate(&arr, cfg, &params);
            prop_assert_eq!(
                eval_bits(&e.config, &e.summary, e.cost_per_request, e.mean_batch_size),
                eval_bits(&want.config, &want.summary, want.cost_per_request, want.mean_batch_size),
                "{}", cfg
            );
        }
    }
}

/// Strategy: a hostile table value — NaN, ±∞, ±0 and a few repeated
/// values (so ties occur) among plain draws from `[0, 1)`.
fn table_value() -> impl Strategy<Value = f64> {
    (0u32..12, 0.0f64..1.0).prop_map(|(k, x)| match k {
        0 => f64::NAN,
        1 => f64::INFINITY,
        2 => f64::NEG_INFINITY,
        3 => -0.0,
        4 => 0.0,
        5..=7 => [0.1, 0.25, 0.5][k as usize - 5],
        _ => x,
    })
}

/// The naive reference of Eq. (10): drop the rows with a non-finite cost
/// or latency; stably sort the feasible rest by cost and take the first;
/// if none is feasible, stably sort them all by latency and take the first
/// as the fallback. Rows are `(cost, latency)`; the answer is an index.
fn reference_select(rows: &[(f64, f64)], meets: impl Fn(f64) -> bool) -> Option<(usize, bool)> {
    let finite: Vec<usize> = (0..rows.len())
        .filter(|&i| rows[i].0.is_finite() && rows[i].1.is_finite())
        .collect();
    let mut feasible: Vec<usize> = finite
        .iter()
        .copied()
        .filter(|&i| meets(rows[i].1))
        .collect();
    feasible.sort_by(|&a, &b| rows[a].0.total_cmp(&rows[b].0));
    if let Some(&i) = feasible.first() {
        return Some((i, false));
    }
    let mut fastest = finite;
    fastest.sort_by(|&a, &b| rows[a].1.total_cmp(&rows[b].1));
    fastest.first().map(|&i| (i, true))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    // DeepBAT's γ-tightened constraint (γ and the SLO may be hostile too)
    // and the plain one: the shared rule picks exactly the reference's row.
    #[test]
    fn select_config_matches_the_sorting_reference(
        rows in prop::collection::vec((table_value(), table_value()), 0..40),
        gamma in table_value(),
        slo in table_value(),
    ) {
        let tightened = |l: f64| l * (1.0 + gamma) <= slo;
        let plain = |l: f64| l <= slo;
        for meets in [&tightened as &dyn Fn(f64) -> bool, &plain] {
            let got = select_config(&rows, |r| r.0, |r| r.1, meets).map(|(chosen, fallback)| {
                let i = rows.iter().position(|r| std::ptr::eq(r, chosen));
                (i.expect("the choice is a row of the table"), fallback)
            });
            prop_assert_eq!(got, reference_select(&rows, meets), "{:?}", rows);
        }
    }
}
