//! Optimisers: Adam (Kingma & Ba), as used by the paper (lr 1e-3), with
//! optional global-norm gradient clipping, plus the fixed-order gradient
//! tree reduction used by the data-parallel trainer.

use crate::tensor::Tensor;

/// Reduce per-shard gradient sets (`shards[s][p]` = shard `s`'s gradient for
/// parameter `p`) into their sum by pairwise rounds in fixed shard order:
/// `(0+1), (2+3), …` then again on the halved list. The reduction order
/// depends only on the shard count — never on thread scheduling — so the
/// summed gradients are bit-identical whether the shards ran serially or in
/// parallel.
pub fn tree_reduce_grads(mut shards: Vec<Vec<Tensor>>) -> Vec<Tensor> {
    assert!(!shards.is_empty(), "tree_reduce_grads needs >=1 shard");
    while shards.len() > 1 {
        let mut next = Vec::with_capacity(shards.len().div_ceil(2));
        let mut it = shards.into_iter();
        while let Some(mut a) = it.next() {
            if let Some(b) = it.next() {
                assert_eq!(a.len(), b.len(), "shard gradient sets must align");
                for (x, y) in a.iter_mut().zip(&b) {
                    x.add_assign(y);
                }
            }
            next.push(a);
        }
        shards = next;
    }
    shards.pop().unwrap()
}

/// Adam with bias correction.
pub struct Adam {
    pub lr: f64,
    pub(crate) beta1: f64,
    pub(crate) beta2: f64,
    pub(crate) eps: f64,
    /// Optional global-norm clip applied to the whole gradient set.
    pub(crate) clip_norm: Option<f64>,
    t: u64,
    m: Vec<Tensor>,
    v: Vec<Tensor>,
}

impl Adam {
    pub fn new(lr: f64) -> Self {
        Adam {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            clip_norm: Some(5.0),
            t: 0,
            m: Vec::new(),
            v: Vec::new(),
        }
    }

    /// Apply one update. `params` and `grads` must align (same order every
    /// call — the layer binding order).
    pub fn step(&mut self, params: &mut [&mut Tensor], grads: &[Tensor]) {
        assert_eq!(params.len(), grads.len(), "params/grads length mismatch");
        if self.m.is_empty() {
            self.m = params
                .iter()
                .map(|p| Tensor::zeros(p.shape().to_vec()))
                .collect();
            self.v = params
                .iter()
                .map(|p| Tensor::zeros(p.shape().to_vec()))
                .collect();
        }
        assert_eq!(
            self.m.len(),
            params.len(),
            "optimizer bound to a different model"
        );

        // Global-norm clipping.
        let scale = match self.clip_norm {
            Some(max) => {
                let norm: f64 = grads
                    .iter()
                    .map(|g| g.data().iter().map(|x| x * x).sum::<f64>())
                    .sum::<f64>()
                    .sqrt();
                if norm > max {
                    max / norm
                } else {
                    1.0
                }
            }
            None => 1.0,
        };

        self.t += 1;
        let bc1 = 1.0 - self.beta1.powi(self.t as i32);
        let bc2 = 1.0 - self.beta2.powi(self.t as i32);
        for ((p, g), (m, v)) in params
            .iter_mut()
            .zip(grads)
            .zip(self.m.iter_mut().zip(self.v.iter_mut()))
        {
            assert_eq!(p.shape(), g.shape(), "param/grad shape mismatch");
            let pd = p.data_mut();
            let gd = g.data();
            let md = m.data_mut();
            let vd = v.data_mut();
            for i in 0..pd.len() {
                let gi = gd[i] * scale;
                md[i] = self.beta1 * md[i] + (1.0 - self.beta1) * gi;
                vd[i] = self.beta2 * vd[i] + (1.0 - self.beta2) * gi * gi;
                let mhat = md[i] / bc1;
                let vhat = vd[i] / bc2;
                pd[i] -= self.lr * mhat / (vhat.sqrt() + self.eps);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn adam_minimises_quadratic() {
        // f(x) = (x - 3)^2, gradient 2(x-3).
        let mut x = Tensor::full(vec![1], 0.0);
        let mut adam = Adam::new(0.1);
        for _ in 0..500 {
            let g = Tensor::full(vec![1], 2.0 * (x.data()[0] - 3.0));
            adam.step(&mut [&mut x], &[g]);
        }
        assert!((x.data()[0] - 3.0).abs() < 1e-3, "x = {}", x.data()[0]);
    }

    #[test]
    fn adam_first_step_magnitude() {
        // With bias correction, the first step is ~lr regardless of grad scale.
        for grad in [1e-4, 1.0] {
            let mut x = Tensor::full(vec![1], 0.0);
            let mut adam = Adam::new(0.01);
            adam.clip_norm = None;
            adam.step(&mut [&mut x], &[Tensor::full(vec![1], grad)]);
            assert!(
                (x.data()[0].abs() - 0.01).abs() < 1e-6,
                "first step {} for grad {grad}",
                x.data()[0]
            );
        }
    }

    #[test]
    fn clipping_limits_update_direction_scale() {
        let mut a = Tensor::full(vec![1], 0.0);
        let mut adam = Adam::new(0.1);
        adam.clip_norm = Some(1.0);
        // A huge gradient gets rescaled to norm 1 before the Adam moments.
        adam.step(&mut [&mut a], &[Tensor::full(vec![1], 1e9)]);
        assert!(a.data()[0].is_finite());
        assert!(a.data()[0].abs() <= 0.11);
    }

    #[test]
    fn multiple_params_updated_independently() {
        let mut x = Tensor::new(vec![2], vec![1.0, 1.0]);
        let mut y = Tensor::full(vec![1], 5.0);
        let mut adam = Adam::new(0.05);
        for _ in 0..300 {
            let gx = Tensor::new(vec![2], vec![2.0 * x.data()[0], 2.0 * (x.data()[1] + 1.0)]);
            let gy = Tensor::full(vec![1], 2.0 * (y.data()[0] - 2.0));
            adam.step(&mut [&mut x, &mut y], &[gx, gy]);
        }
        assert!(x.data()[0].abs() < 0.01);
        assert!((x.data()[1] + 1.0).abs() < 0.01);
        assert!((y.data()[0] - 2.0).abs() < 0.01);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_inputs_panic() {
        let mut x = Tensor::full(vec![1], 0.0);
        let mut adam = Adam::new(0.1);
        adam.step(&mut [&mut x], &[]);
    }

    #[test]
    fn tree_reduce_sums_all_shards() {
        // 5 shards (odd count exercises the carry-over branch), 2 params.
        let shards: Vec<Vec<Tensor>> = (0..5)
            .map(|s| {
                vec![
                    Tensor::new(vec![2], vec![s as f64, 2.0 * s as f64]),
                    Tensor::full(vec![1], 10.0 * s as f64),
                ]
            })
            .collect();
        let sum = tree_reduce_grads(shards);
        assert_eq!(sum[0].data(), &[10.0, 20.0]); // 0+1+2+3+4
        assert_eq!(sum[1].data()[0], 100.0);
    }

    #[test]
    fn tree_reduce_order_is_shard_count_only() {
        // The same shard values always reduce through the same tree, so the
        // result is a pure function of the shard list.
        let mk = || {
            (0..4)
                .map(|s| {
                    vec![Tensor::new(
                        vec![2],
                        vec![0.1 * s as f64 + 0.7, 1e-9 * s as f64],
                    )]
                })
                .collect::<Vec<_>>()
        };
        let a = tree_reduce_grads(mk());
        let b = tree_reduce_grads(mk());
        assert_eq!(a[0].data(), b[0].data());
    }
}
