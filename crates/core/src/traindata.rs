//! Offline training-set construction (§III-D "Offline Model Training"):
//! random windows of the historical arrival process crossed with random
//! configurations from the search grid, labelled by the ground-truth
//! simulator.

use crate::surrogate::{N_FEATURES, N_OUTPUTS};
use dbat_sim::{evaluate, ConfigGrid, LambdaConfig, SimParams};
use dbat_workload::{sample_windows, Rng, Trace, Window};
use rayon::prelude::*;

/// One supervised example.
#[derive(Clone, Debug)]
pub struct TrainSample {
    /// Raw interarrival window (seconds), length `seq_len`.
    pub window: Vec<f64>,
    pub(crate) config: LambdaConfig,
    /// `[cost µ$/req, p50, p90, p95, p99]` from the ground-truth simulator.
    pub target: [f64; N_OUTPUTS],
    /// Whether the simulated p95 violates the SLO (drives the loss penalty).
    pub violates: bool,
}

impl TrainSample {
    /// The scalar feature encoding: `[M, B, T]`.
    pub(crate) fn feature_vec(&self) -> [f64; N_FEATURES] {
        [
            self.config.memory_mb as f64,
            self.config.batch_size as f64,
            self.config.timeout_s,
        ]
    }
}

/// Convert a window of interarrivals back into arrival timestamps
/// (re-based at 0) so the simulator can replay it.
pub fn window_to_arrivals(window: &[f64]) -> Vec<f64> {
    let mut t = 0.0;
    let mut out = Vec::with_capacity(window.len() + 1);
    out.push(0.0);
    for &ia in window {
        t += ia;
        out.push(t);
    }
    out
}

/// How many times a window is replicated when labelling. The percentiles of
/// a single short window are an extremely jagged function of exact arrival
/// times; replicating the window before simulating gives a low-variance
/// bootstrap estimate of the *window-conditional* performance — the quantity
/// the surrogate is meant to learn (and what the optimizer needs: expected
/// behaviour of upcoming traffic that looks like this window).
pub(crate) const LABEL_REPLICAS: usize = 8;

/// Label one (window, config) pair with the ground-truth simulator,
/// replicating the window `LABEL_REPLICAS` times.
pub fn label(window: &[f64], config: &LambdaConfig, params: &SimParams, slo: f64) -> TrainSample {
    label_replicated(window, config, params, slo, LABEL_REPLICAS)
}

/// Label with an explicit replication factor (1 = raw window).
pub fn label_replicated(
    window: &[f64],
    config: &LambdaConfig,
    params: &SimParams,
    slo: f64,
    replicas: usize,
) -> TrainSample {
    assert!(replicas >= 1);
    let mut tiled = Vec::with_capacity(window.len() * replicas);
    for _ in 0..replicas {
        tiled.extend_from_slice(window);
    }
    let arrivals = window_to_arrivals(&tiled);
    let eval = evaluate(&arrivals, config, params);
    let s = eval.summary;
    TrainSample {
        window: window.to_vec(),
        config: *config,
        target: [eval.cost_per_request * 1e6, s.p50, s.p90, s.p95, s.p99],
        violates: s.p95 > slo,
    }
}

/// Build a dataset of `n` samples: uniformly random windows from the trace
/// crossed with uniformly random grid configurations, labelled in parallel.
pub fn generate_dataset(
    trace: &Trace,
    grid: &ConfigGrid,
    params: &SimParams,
    n: usize,
    seq_len: usize,
    slo: f64,
    seed: u64,
) -> Vec<TrainSample> {
    let mut rng = Rng::new(seed);
    let windows: Vec<Window> = sample_windows(trace, seq_len, n, &mut rng);
    let configs = grid.configs();
    let picks: Vec<usize> = (0..windows.len())
        .map(|_| rng.below(configs.len()))
        .collect();
    windows
        .par_iter()
        .zip(picks)
        .map(|(w, ci)| label(&w.interarrivals, &configs[ci], params, slo))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbat_workload::{Map, TraceKind, HOUR};

    fn trace() -> Trace {
        let map = Map::poisson(40.0);
        let mut rng = Rng::new(1);
        Trace::new(map.simulate(&mut rng, 0.0, 120.0), 120.0)
    }

    #[test]
    fn window_to_arrivals_reconstruction() {
        let arr = window_to_arrivals(&[0.5, 0.25, 1.0]);
        assert_eq!(arr, vec![0.0, 0.5, 0.75, 1.75]);
    }

    #[test]
    fn dataset_has_requested_size_and_valid_targets() {
        let data = generate_dataset(
            &trace(),
            &ConfigGrid::tiny(),
            &SimParams::default(),
            32,
            16,
            0.1,
            9,
        );
        assert_eq!(data.len(), 32);
        for s in &data {
            assert_eq!(s.window.len(), 16);
            assert!(s.target.iter().all(|x| x.is_finite() && *x >= 0.0));
            // Percentiles monotone.
            assert!(s.target[1] <= s.target[2]);
            assert!(s.target[2] <= s.target[3]);
            assert!(s.target[3] <= s.target[4]);
            assert!(s.target[0] > 0.0, "cost must be positive");
        }
    }

    #[test]
    fn dataset_deterministic_per_seed() {
        let params = SimParams::default();
        let a = generate_dataset(&trace(), &ConfigGrid::tiny(), &params, 8, 16, 0.1, 4);
        let b = generate_dataset(&trace(), &ConfigGrid::tiny(), &params, 8, 16, 0.1, 4);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.window, y.window);
            assert_eq!(x.config, y.config);
            assert_eq!(x.target, y.target);
        }
    }

    #[test]
    fn violation_flag_tracks_slo() {
        // A tiny SLO makes everything a violation; a huge one, nothing.
        let w: Vec<f64> = vec![0.02; 16];
        let cfg = LambdaConfig::new(1024, 8, 0.2);
        let tight = label(&w, &cfg, &SimParams::default(), 1e-6);
        let loose = label(&w, &cfg, &SimParams::default(), 10.0);
        assert!(tight.violates);
        assert!(!loose.violates);
    }

    #[test]
    fn bursty_trace_produces_varied_targets() {
        let tr = TraceKind::SyntheticMap.generate_for(3, HOUR / 2.0);
        let data = generate_dataset(
            &tr,
            &ConfigGrid::tiny(),
            &SimParams::default(),
            16,
            32,
            0.1,
            5,
        );
        let p95s: Vec<f64> = data.iter().map(|s| s.target[3]).collect();
        let min = p95s.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = p95s.iter().cloned().fold(0.0_f64, f64::max);
        assert!(max > min, "targets should vary across windows/configs");
    }
}
