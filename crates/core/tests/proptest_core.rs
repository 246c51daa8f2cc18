//! Property-based tests for DeepBAT's components.

use dbat_core::{label, window_to_arrivals};
use dbat_sim::{LambdaConfig, SimParams};
use proptest::prelude::*;

fn window() -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(0.001f64..0.5, 8..64)
}

fn config() -> impl Strategy<Value = LambdaConfig> {
    (
        prop::sample::select(vec![512u32, 1024, 2048, 3008]),
        1u32..=16,
        prop::sample::select(vec![0.0f64, 0.02, 0.05, 0.1]),
    )
        .prop_map(|(m, b, t)| LambdaConfig::new(m, b, t))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn window_arrival_roundtrip(w in window()) {
        let arrivals = window_to_arrivals(&w);
        prop_assert_eq!(arrivals.len(), w.len() + 1);
        prop_assert_eq!(arrivals[0], 0.0);
        // Interarrivals of the reconstruction equal the window.
        for (i, gap) in arrivals.windows(2).enumerate() {
            prop_assert!((gap[1] - gap[0] - w[i]).abs() < 1e-9);
        }
    }

    #[test]
    fn labels_are_valid_targets(w in window(), cfg in config()) {
        let s = label(&w, &cfg, &SimParams::default(), 0.1);
        // Cost positive, percentiles monotone, violation consistent.
        prop_assert!(s.target[0] > 0.0);
        prop_assert!(s.target[1] <= s.target[2] + 1e-12);
        prop_assert!(s.target[2] <= s.target[3] + 1e-12);
        prop_assert!(s.target[3] <= s.target[4] + 1e-12);
        prop_assert_eq!(s.violates, s.target[3] > 0.1);
        // Latency at least the best-case service time.
        let min_service = SimParams::default().profile.service_time(cfg.memory_mb, 1)
            .min(SimParams::default().profile.service_time(cfg.memory_mb, cfg.batch_size));
        prop_assert!(s.target[1] >= min_service - 1e-9);
    }

    #[test]
    fn replication_tightens_toward_mean(w in window(), cfg in config()) {
        // More replicas can only smooth the estimate; the realised target
        // must remain a valid (monotone, positive) percentile vector.
        let s1 = dbat_core::label_replicated(&w, &cfg, &SimParams::default(), 0.1, 1);
        let s8 = dbat_core::label_replicated(&w, &cfg, &SimParams::default(), 0.1, 8);
        prop_assert!(s8.target[0] > 0.0);
        prop_assert!(s8.target[1] <= s8.target[4] + 1e-12);
        // Identical window content either way.
        prop_assert_eq!(s1.window, s8.window);
    }
}
