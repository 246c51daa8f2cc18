//! Surrogate-backed group scorer for the multi-class joint decision.
//!
//! [`dbat_sim::joint_decide`] partitions request classes into function
//! groups by sweeping candidate `(M, B, T)` configs per merged segment.
//! This scorer drives that sweep with the Transformer surrogate's
//! compiled fast path: the segment's recent interarrival history is
//! encoded once and the cached feature grid is swept through the cheap
//! head branch — the same sub-millisecond machinery as
//! [`DeepBatOptimizer::predict_all`].

use crate::optimizer::DeepBatOptimizer;
use crate::surrogate::Surrogate;
use dbat_sim::multi::{GroupScore, GroupScorer};
use dbat_sim::ConfigGrid;

/// Scores group configs with the surrogate's fast-path grid sweep.
pub struct SurrogateGroupScorer<'a> {
    pub(crate) model: &'a Surrogate,
    /// The underlying optimizer (grid cache, scoring mode, percentile).
    pub(crate) opt: DeepBatOptimizer,
}

impl<'a> SurrogateGroupScorer<'a> {
    pub fn new(model: &'a Surrogate, grid: ConfigGrid, percentile: f64) -> Self {
        // The SLO is per-segment in the joint decide, so the optimizer's
        // own SLO/γ gate is unused here — only its prediction sweep is.
        let mut opt = DeepBatOptimizer::new(grid, f64::INFINITY);
        opt.percentile = percentile;
        SurrogateGroupScorer { model, opt }
    }

    /// The surrogate's input window for a group's arrival stream: the
    /// most recent `seq_len` interarrivals, mean-padded at the front
    /// (the [`dbat_workload::window_ending_at`] convention).
    fn window_of(&self, arrivals: &[f64]) -> Vec<f64> {
        let l = self.model.cfg.seq_len;
        let ia: Vec<f64> = arrivals.windows(2).map(|w| w[1] - w[0]).collect();
        let tail = if ia.len() > l {
            &ia[ia.len() - l..]
        } else {
            &ia[..]
        };
        let mut w = Vec::with_capacity(l);
        let pad = if tail.is_empty() {
            1.0
        } else {
            tail.iter().sum::<f64>() / tail.len() as f64
        };
        for _ in 0..l - tail.len() {
            w.push(pad);
        }
        w.extend_from_slice(tail);
        w
    }
}

impl GroupScorer for SurrogateGroupScorer<'_> {
    fn name(&self) -> &'static str {
        "surrogate"
    }

    fn sweep(&mut self, arrivals: &[f64]) -> Vec<GroupScore> {
        let window = self.window_of(arrivals);
        let p = self.opt.percentile;
        self.opt
            .predict_all(self.model, &window)
            .into_iter()
            .map(|pred| GroupScore {
                config: pred.config,
                latency: pred.percentile(p),
                // cost_micro is µ$/request; GroupScore carries the
                // predicted total USD for the scored window.
                cost: pred.cost_micro * 1e-6 * arrivals.len() as f64,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::surrogate::SurrogateConfig;
    use dbat_sim::multi::joint_decide;
    use dbat_workload::{ClassedTrace, RequestClass, Trace};

    fn model() -> Surrogate {
        Surrogate::new(SurrogateConfig::tiny(), 3)
    }

    #[test]
    fn sweep_covers_grid_and_scales_cost_with_traffic() {
        let m = model();
        let mut scorer = SurrogateGroupScorer::new(&m, ConfigGrid::tiny(), 95.0);
        let few: Vec<f64> = (0..10).map(|i| i as f64 * 0.02).collect();
        let many: Vec<f64> = (0..100).map(|i| i as f64 * 0.02).collect();
        let a = scorer.sweep(&few);
        let b = scorer.sweep(&many);
        assert_eq!(a.len(), ConfigGrid::tiny().len());
        assert_eq!(b.len(), a.len());
        // Same per-request prediction (identical steady window), 10x the
        // requests ⇒ 10x the window cost.
        assert!((b[0].cost - 10.0 * a[0].cost).abs() <= 1e-12 * b[0].cost.abs().max(1.0));
        assert!(a.iter().all(|s| s.cost >= 0.0 && s.latency >= 0.0));
    }

    #[test]
    fn empty_and_tiny_streams_are_scoreable() {
        let m = model();
        let mut scorer = SurrogateGroupScorer::new(&m, ConfigGrid::tiny(), 95.0);
        assert_eq!(scorer.sweep(&[]).len(), ConfigGrid::tiny().len());
        let one = scorer.sweep(&[0.5]);
        assert!(
            one.iter().all(|s| s.cost == 0.0),
            "no interarrivals, no cost"
        );
    }

    #[test]
    fn joint_decide_runs_on_surrogate_scores() {
        let m = model();
        let trace = Trace::new((0..400).map(|i| i as f64 * 0.01).collect(), 4.0);
        let classes = vec![
            RequestClass::with_weight(0, 0.08, 1.0),
            RequestClass::with_weight(1, 0.8, 1.0),
        ];
        let classed = ClassedTrace::tag_weighted(trace, &classes, 3).unwrap();
        let mut scorer = SurrogateGroupScorer::new(&m, ConfigGrid::tiny(), 95.0);
        let joint = joint_decide(&classed, &classes, &mut scorer).unwrap();
        // Untrained model ⇒ the decision's quality is meaningless, but
        // its structure must hold: every class served exactly once.
        assert_eq!(joint.assignment.n_classes(), 2);
        let served: usize = joint.groups.iter().map(|g| g.classes.len()).sum();
        assert_eq!(served, 2);
    }
}
