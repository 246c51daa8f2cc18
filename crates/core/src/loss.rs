//! The training loss (§III-D): `α·MAPE + (1 − α)·Huber_δ`, weighted per
//! output, and its gradient.
//!
//! Both terms divide by weight sums taken over the *whole* batch
//! ([`ShardNorms`]), so shards of a batch evaluated over disjoint row
//! ranges give losses and gradients that sum exactly to the full batch's —
//! the contract the data-parallel train step relies on.

use dbat_nn::Tensor;

/// The loss terms' weight normalisers over a full batch: `Σw` for Huber,
/// `Σw` over nonzero targets for MAPE.
#[derive(Clone, Copy, Debug)]
pub(crate) struct ShardNorms {
    pub(crate) huber_wsum: f64,
    pub(crate) mape_wsum: f64,
}

impl ShardNorms {
    pub(crate) fn of(targets: &Tensor, weights: &Tensor) -> Self {
        ShardNorms {
            huber_wsum: weights.data().iter().sum(),
            mape_wsum: targets
                .data()
                .iter()
                .zip(weights.data())
                .filter(|&(&t, _)| t != 0.0)
                .map(|(_, &w)| w)
                .sum(),
        }
    }
}

/// Weighted Huber loss `Σ w_i·h_δ(p_i − t_i) / wsum`.
pub(crate) fn huber(pred: &[f64], target: &[f64], weights: &[f64], delta: f64, wsum: f64) -> f64 {
    let mut loss = 0.0;
    for ((&p, &t), &w) in pred.iter().zip(target).zip(weights) {
        let e = p - t;
        loss += w * if e.abs() <= delta {
            0.5 * e * e
        } else {
            delta * (e.abs() - 0.5 * delta)
        };
    }
    loss / wsum.max(f64::MIN_POSITIVE)
}

/// `g ·` the gradient of [`huber`], into `dp`.
fn huber_grad(
    pred: &[f64],
    target: &[f64],
    weights: &[f64],
    delta: f64,
    wsum: f64,
    g: f64,
    dp: &mut [f64],
) {
    let scale = g / wsum.max(f64::MIN_POSITIVE);
    for (o, ((&p, &t), &w)) in dp.iter_mut().zip(pred.iter().zip(target).zip(weights)) {
        *o = w * scale * (p - t).clamp(-delta, delta);
    }
}

/// Weighted MAPE in percent, `100 · Σ w_i·|p_i − t_i|/|t_i| / wsum`,
/// skipping `t_i = 0`.
pub(crate) fn mape(pred: &[f64], target: &[f64], weights: &[f64], wsum: f64) -> f64 {
    let mut loss = 0.0;
    for ((&p, &t), &w) in pred.iter().zip(target).zip(weights) {
        if t != 0.0 {
            loss += w * ((p - t) / t).abs();
        }
    }
    100.0 * loss / wsum.max(f64::MIN_POSITIVE)
}

/// `g ·` the gradient of [`mape`], added to `dp`.
fn add_mape_grad(pred: &[f64], target: &[f64], weights: &[f64], wsum: f64, g: f64, dp: &mut [f64]) {
    let scale = 100.0 * g / wsum.max(f64::MIN_POSITIVE);
    for (o, ((&p, &t), &w)) in dp.iter_mut().zip(pred.iter().zip(target).zip(weights)) {
        *o += if t == 0.0 {
            0.0
        } else {
            w * scale * (p - t).signum() / t.abs()
        };
    }
}

/// The combined loss over some rows of a batch: their targets and
/// weights, and the whole batch's normalisers.
pub(crate) struct Loss<'a> {
    pub(crate) targets: &'a [f64],
    pub(crate) weights: &'a [f64],
    pub(crate) alpha: f64,
    pub(crate) delta: f64,
    pub(crate) norms: ShardNorms,
}

impl Loss<'_> {
    pub(crate) fn value(&self, pred: &[f64]) -> f64 {
        let (t, w) = (self.targets, self.weights);
        let ml = mape(pred, t, w, self.norms.mape_wsum);
        let hl = huber(pred, t, w, self.delta, self.norms.huber_wsum);
        ml * self.alpha + hl * (1.0 - self.alpha)
    }

    /// `∂ value / ∂ pred` into `dp`: the Huber term's, plus the MAPE
    /// term's.
    pub(crate) fn grad(&self, pred: &[f64], dp: &mut [f64]) {
        let (t, w) = (self.targets, self.weights);
        let (h, m) = (self.norms.huber_wsum, self.norms.mape_wsum);
        huber_grad(pred, t, w, self.delta, h, 1.0 - self.alpha, dp);
        add_mape_grad(pred, t, w, m, self.alpha, dp);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Central differences of `f` at `x0` against `want`, at 1e-5
    /// relative tolerance.
    fn grad_check(f: impl Fn(&[f64]) -> f64, x0: &[f64], want: &[f64]) {
        let h = 1e-6;
        for i in 0..x0.len() {
            let mut x = x0.to_vec();
            x[i] = x0[i] + h;
            let fp = f(&x);
            x[i] = x0[i] - h;
            let numeric = (fp - f(&x)) / (2.0 * h);
            assert!(
                (want[i] - numeric).abs() <= 1e-5 * (1.0 + numeric.abs()),
                "element {i}: analytic {} vs numeric {numeric}",
                want[i]
            );
        }
    }

    #[test]
    fn grad_huber_loss() {
        let (target, weights) = ([1.0, 2.0, 3.0, 4.0], [1.0, 2.0, 1.0, 0.5]);
        // Mix of small (quadratic) and large (linear) errors.
        let x0 = [1.2, 1.5, 6.0, -1.0];
        let mut dp = [0.0; 4];
        huber_grad(&x0, &target, &weights, 1.0, 4.5, 1.0, &mut dp);
        grad_check(|p| huber(p, &target, &weights, 1.0, 4.5), &x0, &dp);
    }

    #[test]
    fn grad_mape_loss() {
        let (target, weights) = ([2.0, 4.0, 5.0, 0.0], [1.0, 1.0, 2.0, 3.0]);
        let x0 = [2.5, 3.0, 7.0, 0.4];
        let mut dp = [0.0; 4];
        add_mape_grad(&x0, &target, &weights, 4.0, 1.0, &mut dp);
        grad_check(|p| mape(p, &target, &weights, 4.0), &x0, &dp);
    }

    #[test]
    fn grad_combined_loss() {
        let (targets, weights) = ([1.0, 2.0, 0.0, 4.0], [1.0, 2.0, 1.0, 0.5]);
        let loss = Loss {
            targets: &targets,
            weights: &weights,
            alpha: 0.3,
            delta: 1.0,
            norms: ShardNorms {
                huber_wsum: 4.5,
                mape_wsum: 3.5,
            },
        };
        let x0 = [1.2, 1.5, 6.0, -1.0];
        let mut dp = [0.0; 4];
        loss.grad(&x0, &mut dp);
        grad_check(|p| loss.value(p), &x0, &dp);
    }

    #[test]
    fn huber_known_value() {
        // h(0.5) = 0.125; h(3.0) = 1*(3 - 0.5) = 2.5; mean = 1.3125
        let l = huber(&[1.5, 5.0], &[1.0, 2.0], &[1.0, 1.0], 1.0, 2.0);
        assert!((l - 1.3125).abs() < 1e-12);
    }

    #[test]
    fn mape_known_value() {
        // (10% + 20%) / 2 = 15%
        let l = mape(&[1.1, 4.0], &[1.0, 5.0], &[1.0, 1.0], 2.0);
        assert!((l - 15.0).abs() < 1e-9);
    }

    #[test]
    fn sharded_norm_losses_sum_to_full_batch() {
        // Split a batch in two; with the *global* normalisers, per-element
        // gradients are bitwise identical to the full-batch ones (same
        // formula, same normaliser), and shard losses sum to the full-batch
        // loss up to reassociation rounding (~1e-16 relative).
        let preds = [1.2, 1.5, 6.0, -1.0, 2.5, 3.0];
        let targets = [1.0, 2.0, 3.0, 4.0, 2.0, 0.0];
        let weights = [1.0, 2.0, 1.0, 0.5, 1.5, 1.0];
        let norms = ShardNorms::of(
            &Tensor::new(vec![6], targets.to_vec()),
            &Tensor::new(vec![6], weights.to_vec()),
        );
        for alpha in [0.0, 1.0, 0.05] {
            let loss = |r: std::ops::Range<usize>| Loss {
                targets: &targets[r.clone()],
                weights: &weights[r],
                alpha,
                delta: 1.0,
                norms,
            };
            let full = loss(0..6);
            let mut full_grad = [0.0; 6];
            full.grad(&preds, &mut full_grad);
            let (mut shard_loss, mut shard_grad) = (0.0, [0.0; 6]);
            for r in [0..3, 3..6] {
                shard_loss += loss(r.clone()).value(&preds[r.clone()]);
                loss(r.clone()).grad(&preds[r.clone()], &mut shard_grad[r]);
            }
            let full_loss = full.value(&preds);
            assert!(
                (shard_loss - full_loss).abs() <= 1e-12 * (1.0 + full_loss.abs()),
                "alpha {alpha}: shard losses must sum to the full-batch loss"
            );
            assert_eq!(
                shard_grad, full_grad,
                "alpha {alpha}: shard grads must match"
            );
        }
    }
}
