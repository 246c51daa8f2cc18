//! The BATCH analytic latency/cost model (Ali et al., SC'20, §4).
//!
//! Given a MAP `(D0, D1)` for arrivals and a batching configuration
//! `(B, T)`, the model computes — analytically, via matrix exponentials of
//! the (phase × buffer-level) expanded CTMC — the per-cycle distribution of
//! (request wait, realised batch size). Combining that structure with the
//! deterministic service surface `s(M, b)` and the Lambda pricing model
//! yields latency percentiles and expected cost per request for every
//! memory size `M`, which the grid optimizer then searches.
//!
//! ## Construction
//!
//! A batch *cycle* opens when a request arrives to an empty buffer. With
//! `B ≥ 2` and `T > 0`, the buffer then needs `B − 1` further arrivals
//! before `T` elapses to dispatch full; otherwise it dispatches at `T` with
//! whatever accumulated. The expanded CTMC has transient states
//! `(level n, phase i)` for `n = 0..B−2` (level = additional arrivals so
//! far) and `P` absorbing states recording the phase at the fill instant.
//! Transient analysis on a uniform time grid over `[0, T]` (one matrix
//! exponential for the per-cell transition operator, then repeated
//! vector-matrix products) gives:
//!
//! * the realised batch-size pmf (absorbed mass = full batches; the level
//!   occupancy at `T` = timeout batches);
//! * the per-cycle expected mass of requests arriving in each grid cell,
//!   split by eventual outcome (fill after `w` further cells, or timeout at
//!   a given final level) — i.e. the joint (wait, batch-size) distribution.
//!
//! The phase distribution at cycle opening is resolved by a fixed-point
//! iteration over cycles (phase at dispatch → phase at next arrival).

use crate::fit::FittedMap;
use dbat_linalg::{expm, inverse, Mat};
use dbat_sim::{ConfigGrid, LambdaConfig, SimParams, PERCENTILE_KEYS};
use dbat_workload::Map;
use rayon::prelude::*;

/// Joint per-cycle (wait, realised batch size) structure for one `(B, T)`.
#[derive(Clone, Debug)]
pub struct WaitStructure {
    pub(crate) batch: u32,
    pub(crate) timeout: f64,
    /// `(wait_seconds, realised_batch, expected mass per cycle)`.
    /// Masses sum to the expected number of requests per cycle.
    pub outcomes: Vec<(f64, u32, f64)>,
    /// pmf over the realised batch size (index `b − 1` holds `P(size = b)`).
    pub batch_pmf: Vec<f64>,
    /// Expected requests per cycle, `E[b]`.
    pub mean_batch: f64,
}

/// Latency/cost prediction for one configuration.
#[derive(Clone, Copy, Debug)]
pub struct AnalyticEvaluation {
    pub config: LambdaConfig,
    /// Latency percentiles at [50, 90, 95, 99].
    pub percentiles: [f64; 4],
    pub mean_latency: f64,
    pub cost_per_request: f64,
    pub mean_batch_size: f64,
}

impl AnalyticEvaluation {
    /// Look up a percentile: exact at the computed keys (50/90/95/99),
    /// linearly interpolated between them otherwise (clamped at the ends).
    pub fn percentile(&self, p: f64) -> f64 {
        dbat_workload::stats::interp_tracked_percentile(&PERCENTILE_KEYS, &self.percentiles, p)
    }
}

/// The analytic model bound to one fitted arrival process and environment.
pub struct BatchModel {
    map: Map,
    params: SimParams,
    /// Number of grid cells over `[0, T]`; accuracy/cost trade-off.
    pub(crate) grid_cells: usize,
    /// Fixed-point iterations for the cycle-opening phase distribution.
    pub(crate) phase_iterations: usize,
}

impl BatchModel {
    pub fn new(map: Map, params: SimParams) -> Self {
        BatchModel {
            map,
            params,
            grid_cells: 48,
            phase_iterations: 12,
        }
    }

    pub fn from_fit(fit: &FittedMap, params: SimParams) -> Self {
        Self::new(fit.map.clone(), params)
    }

    /// Compute the per-cycle wait/batch-size structure for `(B, T)`.
    pub fn wait_structure(&self, batch: u32, timeout: f64) -> WaitStructure {
        assert!(batch >= 1);
        assert!(timeout >= 0.0);
        if batch == 1 || timeout == 0.0 {
            // Immediate dispatch: every request is its own batch, zero wait.
            let mut pmf = vec![0.0; batch as usize];
            pmf[0] = 1.0;
            return WaitStructure {
                batch,
                timeout,
                outcomes: vec![(0.0, 1, 1.0)],
                batch_pmf: pmf,
                mean_batch: 1.0,
            };
        }

        let p = self.map.order();
        let levels = (batch - 1) as usize; // transient levels 0..B-2
        let s_dim = levels * p;
        let g = self.grid_cells;
        let dt = timeout / g as f64;
        let d0 = self.map.d0();
        let d1 = self.map.d1();

        // Augmented generator: transient (level, phase) states + P absorbing
        // phase-tagged states.
        let mut qa = Mat::zeros(s_dim + p, s_dim + p);
        for n in 0..levels {
            for i in 0..p {
                let s = n * p + i;
                for j in 0..p {
                    qa[(s, n * p + j)] += d0[(i, j)];
                    if n + 1 < levels {
                        qa[(s, (n + 1) * p + j)] += d1[(i, j)];
                    } else {
                        qa[(s, s_dim + j)] += d1[(i, j)];
                    }
                }
            }
        }
        let pdt = expm(&qa.scale(dt));
        // Blocks: transient→transient and transient→absorbed-in-one-cell.
        let mut ptrans = Mat::zeros(s_dim, s_dim);
        let mut pabs = Mat::zeros(s_dim, p);
        for s in 0..s_dim {
            for s2 in 0..s_dim {
                ptrans[(s, s2)] = pdt[(s, s2)];
            }
            for j in 0..p {
                pabs[(s, j)] = pdt[(s, s_dim + j)];
            }
        }

        // Phase-at-next-arrival operator (-D0)^{-1} D1.
        let pemb = inverse(&d0.scale(-1.0)).expect("valid MAP").matmul(d1);

        // Fixed point for the cycle-opening phase distribution.
        let mut phi_open = self.map.embedded_stationary().to_vec();
        for _ in 0..self.phase_iterations {
            let (alphas, absorbed) = self.forward(&phi_open, &ptrans, &pabs, s_dim, p, g);
            // Phase at dispatch: absorbed phases + phase marginal at T.
            let mut phi_d = vec![0.0; p];
            for cell in &absorbed {
                for (acc, &m) in phi_d.iter_mut().zip(cell) {
                    *acc += m;
                }
            }
            let last = &alphas[g];
            for n in 0..levels {
                for i in 0..p {
                    phi_d[i] += last[n * p + i];
                }
            }
            let total: f64 = phi_d.iter().sum();
            for x in &mut phi_d {
                *x /= total;
            }
            let mut next = pemb.vecmat(&phi_d);
            let tot: f64 = next.iter().sum();
            for x in &mut next {
                *x /= tot;
            }
            let diff: f64 = next.iter().zip(&phi_open).map(|(a, b)| (a - b).abs()).sum();
            phi_open = next;
            if diff < 1e-10 {
                break;
            }
        }
        // Final forward pass with the converged opening distribution.
        let (alphas, absorbed) = self.forward(&phi_open, &ptrans, &pabs, s_dim, p, g);

        // Batch-size pmf.
        let mut pmf = vec![0.0; batch as usize];
        let full_mass: f64 = absorbed.iter().map(|c| c.iter().sum::<f64>()).sum();
        pmf[(batch - 1) as usize] = full_mass;
        for n in 0..levels {
            let m: f64 = (0..p).map(|i| alphas[g][n * p + i]).sum();
            pmf[n] += m; // level n at T => realised size n + 1
        }
        let mean_batch: f64 = pmf
            .iter()
            .enumerate()
            .map(|(i, &m)| (i + 1) as f64 * m)
            .sum();

        // Backward recursion: R_k[s][outcome], outcomes = w ∈ 0..G (fill
        // after w more cells) followed by timeout levels 0..levels-1.
        let n_out = g + levels;
        let mut outcomes: Vec<(f64, u32, f64)> = Vec::new();

        // Opener contributes mass 1 at window-open; absorbed (B-th) arrivals
        // contribute at their cells with zero wait.
        for cell in &absorbed {
            let m: f64 = cell.iter().sum();
            if m > 0.0 {
                outcomes.push((0.0, batch, m));
            }
        }

        let mut r_prev = vec![vec![0.0f64; n_out]; s_dim];
        for (s, row) in r_prev.iter_mut().enumerate() {
            let level = s / p;
            row[g + level] = 1.0;
        }
        let mut r_cur = vec![vec![0.0f64; n_out]; s_dim];
        // Scratch for flux accumulation.
        for k in 1..=g {
            let cell = g - k; // arrivals in this cell have k cells remaining
            for s in 0..s_dim {
                let out = &mut r_cur[s];
                out.iter_mut().for_each(|x| *x = 0.0);
                // Fill within the next cell.
                out[0] = (0..p).map(|j| pabs[(s, j)]).sum();
                for s2 in 0..s_dim {
                    let w = ptrans[(s, s2)];
                    if w == 0.0 {
                        continue;
                    }
                    let prev = &r_prev[s2];
                    // Shift fill-outcomes by one cell; timeout outcomes as-is.
                    for wcell in 0..k.min(g - 1) {
                        out[wcell + 1] += w * prev[wcell];
                    }
                    for lev in 0..levels {
                        out[g + lev] += w * prev[g + lev];
                    }
                }
            }
            std::mem::swap(&mut r_prev, &mut r_cur);
            // r_prev now holds R_k.

            // Mid-level arrival flux in this cell: level-up transitions that
            // stay transient (positions 2..B-1 of the batch).
            let a0 = &alphas[cell];
            let a1 = &alphas[cell + 1];
            let mut flux = vec![0.0f64; s_dim];
            for n in 0..levels.saturating_sub(1) {
                for i in 0..p {
                    let s = n * p + i;
                    let amid = 0.5 * (a0[s] + a1[s]);
                    if amid == 0.0 {
                        continue;
                    }
                    for j in 0..p {
                        let rate = d1[(i, j)];
                        if rate > 0.0 {
                            flux[(n + 1) * p + j] += amid * rate * dt;
                        }
                    }
                }
            }
            // Outcome mass for these arrivals.
            let mut per_outcome = vec![0.0f64; n_out];
            for (s, &f) in flux.iter().enumerate() {
                if f == 0.0 {
                    continue;
                }
                for (o, &r) in per_outcome.iter_mut().zip(&r_prev[s]) {
                    *o += f * r;
                }
            }
            for (o, &m) in per_outcome.iter().enumerate() {
                if m <= 0.0 {
                    continue;
                }
                if o < g {
                    // Fill after `o` further cells (midpoint-to-midpoint).
                    outcomes.push((o as f64 * dt, batch, m));
                } else {
                    let level = o - g;
                    let wait = (k as f64 - 0.5) * dt;
                    outcomes.push((wait, (level + 1) as u32, m));
                }
            }
        }
        // Opener outcomes, using R_G from the final swap (in r_prev).
        let mut opener = vec![0.0f64; n_out];
        for (s, &a) in alphas[0].iter().enumerate() {
            if a == 0.0 {
                continue;
            }
            for (o, &r) in opener.iter_mut().zip(&r_prev[s]) {
                *o += a * r;
            }
        }
        for (o, &m) in opener.iter().enumerate() {
            if m <= 0.0 {
                continue;
            }
            if o < g {
                outcomes.push(((o as f64 + 0.5) * dt, batch, m));
            } else {
                outcomes.push((timeout, (o - g + 1) as u32, m));
            }
        }

        WaitStructure {
            batch,
            timeout,
            outcomes,
            batch_pmf: pmf,
            mean_batch,
        }
    }

    fn forward(
        &self,
        phi_open: &[f64],
        ptrans: &Mat,
        pabs: &Mat,
        s_dim: usize,
        p: usize,
        g: usize,
    ) -> (Vec<Vec<f64>>, Vec<Vec<f64>>) {
        let mut alpha = vec![0.0f64; s_dim];
        alpha[..p].copy_from_slice(phi_open);
        let mut alphas = Vec::with_capacity(g + 1);
        let mut absorbed = Vec::with_capacity(g);
        alphas.push(alpha.clone());
        for _ in 0..g {
            let abs_cell = pabs.vecmat(&alpha);
            absorbed.push(abs_cell);
            alpha = ptrans.vecmat(&alpha);
            alphas.push(alpha.clone());
        }
        (alphas, absorbed)
    }

    /// Evaluate one configuration: latency percentiles + cost per request.
    pub fn evaluate(&self, cfg: &LambdaConfig) -> AnalyticEvaluation {
        let ws = self.wait_structure(cfg.batch_size, cfg.timeout_s);
        self.evaluate_with_structure(&ws, cfg.memory_mb)
    }

    /// Evaluate a memory size against a precomputed `(B, T)` structure
    /// (lets the optimizer share structures across the memory axis).
    pub(crate) fn evaluate_with_structure(
        &self,
        ws: &WaitStructure,
        memory_mb: u32,
    ) -> AnalyticEvaluation {
        let profile = &self.params.profile;
        let pricing = &self.params.pricing;
        // Latency = wait + s(M, realised b), weighted by per-cycle mass.
        let mut points: Vec<(f64, f64)> = ws
            .outcomes
            .iter()
            .map(|&(wait, b, m)| (wait + profile.service_time(memory_mb, b), m))
            .collect();
        points.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
        let total: f64 = points.iter().map(|p| p.1).sum();
        let mean_latency =
            points.iter().map(|(l, m)| l * m).sum::<f64>() / total.max(f64::MIN_POSITIVE);
        let mut percentiles = [0.0f64; 4];
        for (slot, target) in percentiles.iter_mut().zip([50.0, 90.0, 95.0, 99.0]) {
            let mut cum = 0.0;
            let thresh = target / 100.0 * total;
            let mut val = points.last().map_or(0.0, |p| p.0);
            for &(l, m) in &points {
                cum += m;
                if cum >= thresh {
                    val = l;
                    break;
                }
            }
            *slot = val;
        }
        // Cost: expected invocation cost per cycle over expected batch size.
        let cycle_cost: f64 = ws
            .batch_pmf
            .iter()
            .enumerate()
            .map(|(i, &m)| {
                let b = (i + 1) as u32;
                m * pricing.invocation_cost(memory_mb, profile.service_time(memory_mb, b))
            })
            .sum();
        let cost_per_request = cycle_cost / ws.mean_batch.max(f64::MIN_POSITIVE);
        AnalyticEvaluation {
            config: LambdaConfig {
                memory_mb,
                batch_size: ws.batch,
                timeout_s: ws.timeout,
            },
            percentiles,
            mean_latency,
            cost_per_request,
            mean_batch_size: ws.mean_batch,
        }
    }

    /// Evaluate the whole grid, sharing `(B, T)` structures across memory
    /// sizes and parallelising over `(B, T)` pairs.
    pub fn evaluate_grid(&self, grid: &ConfigGrid) -> Vec<AnalyticEvaluation> {
        let pairs: Vec<(u32, f64)> = grid
            .batch_sizes
            .iter()
            .flat_map(|&b| grid.timeouts_s.iter().map(move |&t| (b, t)))
            .collect();
        let by_pair: Vec<Vec<AnalyticEvaluation>> = pairs
            .par_iter()
            .map(|&(b, t)| {
                let ws = self.wait_structure(b, t);
                grid.memories_mb
                    .iter()
                    .map(|&m| self.evaluate_with_structure(&ws, m))
                    .collect()
            })
            .collect();
        // Flatten back into the grid's canonical (M, B, T) order.
        let mut out = Vec::with_capacity(grid.len());
        for (mi, _) in grid.memories_mb.iter().enumerate() {
            for (pi, _) in pairs.iter().enumerate() {
                out.push(by_pair[pi][mi]);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbat_sim::simulate_batching;
    use dbat_workload::{Map, Mmpp2, Rng};

    fn params() -> SimParams {
        SimParams::default()
    }

    #[test]
    fn trivial_structure_b1() {
        let model = BatchModel::new(Map::poisson(10.0), params());
        let ws = model.wait_structure(1, 0.1);
        assert_eq!(ws.mean_batch, 1.0);
        assert_eq!(ws.outcomes, vec![(0.0, 1, 1.0)]);
    }

    #[test]
    fn poisson_b2_closed_form_batch_pmf() {
        // P(full) = 1 − e^{−λT}.
        let lam = 10.0;
        let t = 0.08;
        let model = BatchModel::new(Map::poisson(lam), params());
        let ws = model.wait_structure(2, t);
        let p_full = 1.0 - (-lam * t).exp();
        assert!(
            (ws.batch_pmf[1] - p_full).abs() < 2e-3,
            "pmf {} vs closed form {}",
            ws.batch_pmf[1],
            p_full
        );
        assert!((ws.mean_batch - (1.0 + p_full)).abs() < 2e-3);
    }

    #[test]
    fn mass_conservation() {
        let model = BatchModel::new(Map::poisson(25.0), params());
        for (b, t) in [(4u32, 0.05f64), (8, 0.1), (2, 0.02)] {
            let ws = model.wait_structure(b, t);
            let pmf_sum: f64 = ws.batch_pmf.iter().sum();
            assert!((pmf_sum - 1.0).abs() < 1e-6, "pmf sums to {pmf_sum}");
            let mass: f64 = ws.outcomes.iter().map(|o| o.2).sum();
            assert!(
                (mass - ws.mean_batch).abs() / ws.mean_batch < 0.02,
                "outcome mass {mass} vs mean batch {}",
                ws.mean_batch
            );
        }
    }

    /// The analytic model must agree with Monte-Carlo simulation. This is
    /// the core cross-validation of the whole baseline.
    fn check_against_sim(map: &Map, cfg: &LambdaConfig, tol: f64) {
        let model = BatchModel::new(map.clone(), params());
        let eval = model.evaluate(cfg);

        let mut rng = Rng::new(2024);
        let horizon = 3_000.0 / map.rate(); // ~3000 arrivals
        let arrivals = map.simulate(&mut rng, 0.0, horizon);
        let out = simulate_batching(&arrivals, cfg, &params(), None);
        let s = out.summary();

        let rel = |a: f64, b: f64| (a - b).abs() / b.max(1e-9);
        assert!(
            rel(eval.mean_batch_size, out.mean_batch_size()) < tol,
            "mean batch: analytic {} vs sim {}",
            eval.mean_batch_size,
            out.mean_batch_size()
        );
        assert!(
            rel(eval.cost_per_request, out.cost_per_request()) < tol,
            "cost: analytic {} vs sim {}",
            eval.cost_per_request,
            out.cost_per_request()
        );
        assert!(
            rel(eval.percentiles[2], s.p95) < tol,
            "p95: analytic {} vs sim {}",
            eval.percentiles[2],
            s.p95
        );
        assert!(
            rel(eval.mean_latency, dbat_workload::mean(&out.latencies())) < tol,
            "mean latency: analytic {} vs sim {}",
            eval.mean_latency,
            dbat_workload::mean(&out.latencies())
        );
    }

    #[test]
    fn poisson_matches_simulation() {
        let map = Map::poisson(40.0);
        check_against_sim(&map, &LambdaConfig::new(2048, 4, 0.05), 0.08);
        check_against_sim(&map, &LambdaConfig::new(1024, 8, 0.1), 0.08);
        check_against_sim(&map, &LambdaConfig::new(3008, 1, 0.0), 0.02);
    }

    #[test]
    fn mmpp_matches_simulation() {
        let map = Mmpp2::from_targets(30.0, 20.0, 8.0, 0.3).to_map().unwrap();
        check_against_sim(&map, &LambdaConfig::new(2048, 8, 0.05), 0.12);
        check_against_sim(&map, &LambdaConfig::new(2048, 2, 0.02), 0.12);
    }

    #[test]
    fn grid_order_matches_config_grid() {
        let model = BatchModel::new(Map::poisson(20.0), params());
        let grid = ConfigGrid::tiny();
        let evals = model.evaluate_grid(&grid);
        let cfgs: Vec<LambdaConfig> = evals.iter().map(|e| e.config).collect();
        assert_eq!(cfgs, grid.configs());
    }

    #[test]
    fn percentiles_monotone() {
        let model = BatchModel::new(Map::poisson(30.0), params());
        let e = model.evaluate(&LambdaConfig::new(1024, 8, 0.1));
        assert!(e.percentiles[0] <= e.percentiles[1]);
        assert!(e.percentiles[1] <= e.percentiles[2]);
        assert!(e.percentiles[2] <= e.percentiles[3]);
    }

    #[test]
    fn higher_rate_fills_batches_faster() {
        let slow = BatchModel::new(Map::poisson(5.0), params());
        let fast = BatchModel::new(Map::poisson(100.0), params());
        let ws_slow = slow.wait_structure(8, 0.05);
        let ws_fast = fast.wait_structure(8, 0.05);
        assert!(ws_fast.mean_batch > ws_slow.mean_batch);
    }
}
