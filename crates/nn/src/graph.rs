//! Reverse-mode automatic differentiation on a flat tape.
//!
//! A [`Graph`] records every forward operation as a node holding its value,
//! its parent indices, and a boxed backward closure mapping the output
//! gradient to parent gradients. [`Graph::backward`] walks the tape in
//! reverse creation order (a valid topological order by construction) and
//! accumulates gradients, including into leaves — which is how parameters
//! receive their updates.
//!
//! Allocation reuse: the graph owns a length-keyed [`BufferPool`]. Forward
//! ops and backward closures draw their output buffers from it, and
//! [`Graph::reset`] drains every node's backing buffer back into the pool,
//! so repeated forward/backward cycles on same-shaped batches (the training
//! loop, `predict_all` over a fixed grid) stop churning the allocator. A
//! backward closure receives its node's gradient mutably and may move the
//! buffer into a parent gradient (reshape, add, add_bias, scale, relu do);
//! whatever it leaves behind is repooled.
//!
//! Attention is one op, [`Graph::attention`], over the merged `[B, S, D]`
//! projections: its forward is [`dbat_linalg::attention_head`] per head —
//! the kernel the compiled plans ([`crate::infer`]) call, so plan and tape
//! agree by construction — and its backward is
//! [`dbat_linalg::attention_head_backward`], which recomputes each block's
//! probabilities instead of reading them off the tape. No node of a
//! tape is `S × S`; the one caller that wants the weights themselves
//! (Fig. 14) computes them off-tape with
//! [`MultiHeadAttention::attention_weights`](crate::layers::MultiHeadAttention::attention_weights).

use crate::tensor::{matmul2d_into, matmul2d_nt_into, matmul2d_tn_into, Tensor};
use dbat_linalg::{
    attention_backward_scratch_len, attention_head, attention_head_backward, attention_scratch_len,
};
use std::collections::HashMap;

/// Handle to a node in the graph.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Var(pub usize);

/// Length-keyed pool of `f64` buffers recycled across graph rebuilds.
///
/// `take(len)` hands back a zeroed buffer of exactly `len` elements, reusing
/// a previously pooled allocation when one of that length exists. Lengths in
/// a training loop are highly repetitive (fixed batch/grid shapes), so the
/// hit rate approaches 100% after the first iteration.
#[derive(Default)]
pub struct BufferPool {
    free: HashMap<usize, Vec<Vec<f64>>>,
}

/// Cap on pooled buffers per distinct length, bounding worst-case retention.
const POOL_PER_LEN: usize = 64;

impl BufferPool {
    pub fn new() -> Self {
        BufferPool::default()
    }

    /// A pooled buffer of exactly `len` elements, contents unspecified.
    fn recycled(&mut self, len: usize) -> Option<Vec<f64>> {
        self.free.get_mut(&len).and_then(|v| v.pop())
    }

    /// A zeroed buffer of exactly `len` elements, pooled if available.
    pub fn take(&mut self, len: usize) -> Vec<f64> {
        match self.recycled(len) {
            Some(mut buf) => {
                buf.fill(0.0);
                buf
            }
            None => vec![0.0; len],
        }
    }

    /// A copy of `src` in a pooled buffer (no zero-fill pass).
    pub(crate) fn copy_of(&mut self, src: &[f64]) -> Vec<f64> {
        match self.recycled(src.len()) {
            Some(mut buf) => {
                buf.copy_from_slice(src);
                buf
            }
            None => src.to_vec(),
        }
    }

    /// A pooled copy of `t`.
    fn copy_tensor(&mut self, t: &Tensor) -> Tensor {
        Tensor::new(t.shape().to_vec(), self.copy_of(t.data()))
    }

    /// Return a buffer to the pool for later reuse.
    pub fn put(&mut self, buf: Vec<f64>) {
        if buf.is_empty() {
            return;
        }
        let slot = self.free.entry(buf.len()).or_default();
        if slot.len() < POOL_PER_LEN {
            slot.push(buf);
        }
    }

    /// Number of buffers currently held.
    pub fn pooled(&self) -> usize {
        self.free.values().map(Vec::len).sum()
    }
}

/// `(node gradient, parent values, node value, pool) -> parent gradients`.
/// The node gradient is the closure's to consume: it may edit it in place
/// and [`Tensor::take`] the buffer into a returned gradient.
type BackFn =
    Box<dyn Fn(&mut Tensor, &[&Tensor], &Tensor, &mut BufferPool) -> Vec<Tensor> + Send + Sync>;

/// The autograd tape.
#[derive(Default)]
pub struct Graph {
    values: Vec<Tensor>,
    parents: Vec<Vec<usize>>,
    back: Vec<Option<BackFn>>,
    pool: BufferPool,
}

impl Graph {
    pub fn new() -> Self {
        Graph::default()
    }

    pub fn len(&self) -> usize {
        self.values.len()
    }

    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// The forward value of a node.
    pub fn value(&self, v: Var) -> &Tensor {
        &self.values[v.0]
    }

    /// Clear the tape for rebuilding, recycling every node's backing buffer
    /// into the pool and retaining the tape vectors' capacity. The next
    /// forward pass over same-shaped inputs then allocates (almost) nothing.
    pub fn reset(&mut self) {
        for t in self.values.drain(..) {
            self.pool.put(t.into_data());
        }
        self.parents.clear();
        self.back.clear();
    }

    /// Direct access to the buffer pool (for callers staging inputs).
    pub fn pool_mut(&mut self) -> &mut BufferPool {
        &mut self.pool
    }

    fn push(&mut self, value: Tensor, parents: Vec<usize>, back: Option<BackFn>) -> Var {
        self.values.push(value);
        self.parents.push(parents);
        self.back.push(back);
        Var(self.values.len() - 1)
    }

    /// Elementwise map into a pooled buffer.
    fn map_pooled(&mut self, a: usize, f: impl Fn(f64) -> f64) -> Tensor {
        let pool = &mut self.pool;
        let src = &self.values[a];
        let mut out = pool.take(src.numel());
        for (o, &x) in out.iter_mut().zip(src.data()) {
            *o = f(x);
        }
        Tensor::new(src.shape().to_vec(), out)
    }

    /// Elementwise zip into a pooled buffer (exact shape match).
    fn zip_pooled(&mut self, a: usize, b: usize, f: impl Fn(f64, f64) -> f64) -> Tensor {
        let pool = &mut self.pool;
        let av = &self.values[a];
        let bv = &self.values[b];
        assert_eq!(av.shape(), bv.shape(), "elementwise op shape mismatch");
        let mut out = pool.take(av.numel());
        for ((o, &x), &y) in out.iter_mut().zip(av.data()).zip(bv.data()) {
            *o = f(x, y);
        }
        Tensor::new(av.shape().to_vec(), out)
    }

    /// Insert a leaf (parameter or input). Gradients accumulate into leaves.
    pub fn leaf(&mut self, t: Tensor) -> Var {
        self.push(t, vec![], None)
    }

    /// [`Graph::leaf`] of a pooled copy of `t` (parameters are re-bound on
    /// every tape build; the copy's buffer comes back on `reset`).
    pub(crate) fn leaf_copy(&mut self, t: &Tensor) -> Var {
        let copy = self.pool.copy_tensor(t);
        self.leaf(copy)
    }

    /// Alias for [`Graph::leaf`] used for non-trainable constants.
    pub fn constant(&mut self, t: Tensor) -> Var {
        self.leaf(t)
    }

    /// Elementwise addition (exact shape match).
    pub fn add(&mut self, a: Var, b: Var) -> Var {
        let v = self.zip_pooled(a.0, b.0, |x, y| x + y);
        self.push(
            v,
            vec![a.0, b.0],
            Some(Box::new(|g, _, _, pool| {
                vec![pool.copy_tensor(g), g.take()]
            })),
        )
    }

    /// Elementwise subtraction.
    pub fn sub(&mut self, a: Var, b: Var) -> Var {
        let v = self.zip_pooled(a.0, b.0, |x, y| x - y);
        self.push(
            v,
            vec![a.0, b.0],
            Some(Box::new(|g, _, _, pool| {
                let da = pool.copy_tensor(g);
                g.data_mut().iter_mut().for_each(|x| *x = -*x);
                vec![da, g.take()]
            })),
        )
    }

    /// Elementwise product.
    pub fn mul(&mut self, a: Var, b: Var) -> Var {
        let v = self.zip_pooled(a.0, b.0, |x, y| x * y);
        self.push(
            v,
            vec![a.0, b.0],
            Some(Box::new(|g, ps, _, pool| {
                let mut times = |other: &Tensor| {
                    let mut out = pool.take(g.numel());
                    for ((o, &gi), &x) in out.iter_mut().zip(g.data()).zip(other.data()) {
                        *o = gi * x;
                    }
                    Tensor::new(g.shape().to_vec(), out)
                };
                vec![times(ps[1]), times(ps[0])]
            })),
        )
    }

    /// Multiply by a compile-time constant.
    pub fn scale(&mut self, a: Var, c: f64) -> Var {
        let v = self.map_pooled(a.0, |x| x * c);
        self.push(
            v,
            vec![a.0],
            Some(Box::new(move |g, _, _, _| {
                g.data_mut().iter_mut().for_each(|x| *x *= c);
                vec![g.take()]
            })),
        )
    }

    /// Broadcast-add a bias vector `[D]` to the last axis of `x` `[..., D]`.
    pub fn add_bias(&mut self, x: Var, b: Var) -> Var {
        let pool = &mut self.pool;
        let xv = &self.values[x.0];
        let bv = &self.values[b.0];
        let d = *xv.shape().last().expect("add_bias needs >=1-D x");
        assert_eq!(bv.shape(), &[d], "bias must be [last_dim]");
        let mut out = pool.copy_of(xv.data());
        for row in out.chunks_mut(d) {
            for (o, &bb) in row.iter_mut().zip(bv.data()) {
                *o += bb;
            }
        }
        let v = Tensor::new(xv.shape().to_vec(), out);
        self.push(
            v,
            vec![x.0, b.0],
            Some(Box::new(move |g, _, _, pool| {
                let mut db = pool.take(d);
                for row in g.data().chunks(d) {
                    for (acc, &gg) in db.iter_mut().zip(row) {
                        *acc += gg;
                    }
                }
                vec![g.take(), Tensor::new(vec![d], db)]
            })),
        )
    }

    /// Matrix multiply over the last axis: `[..., k] @ [k, n] -> [..., n]`
    /// (the leading axes of `a` are its rows).
    pub fn matmul(&mut self, a: Var, b: Var) -> Var {
        let pool = &mut self.pool;
        let av = &self.values[a.0];
        let bv = &self.values[b.0];
        let mut shape = av.shape().to_vec();
        let k = shape.pop().expect("matmul lhs needs >=2-D");
        let n = bv.shape()[1];
        shape.push(n);
        let mut out = pool.take(av.numel() / k.max(1) * n);
        matmul2d_into(av, bv, &mut out);
        let v = Tensor::new(shape, out);
        self.push(
            v,
            vec![a.0, b.0],
            Some(Box::new(|g, ps, _, pool| {
                // dA = G·Bᵀ, dB = Aᵀ·G — transposed-layout kernels, no
                // materialised transposes.
                let mut da = pool.take(ps[0].numel());
                matmul2d_nt_into(g, ps[1], &mut da);
                let mut db = pool.take(ps[1].numel());
                matmul2d_tn_into(ps[0], g, &mut db);
                vec![
                    Tensor::new(ps[0].shape().to_vec(), da),
                    Tensor::new(ps[1].shape().to_vec(), db),
                ]
            })),
        )
    }

    /// Multi-head scaled-dot-product attention over merged projections:
    /// `q`, `k`, `v` are `[B, S, D]` with head `h` in columns
    /// `[h·D/heads, (h+1)·D/heads)`, and so is the result,
    /// `softmax(Q_h·K_hᵀ / √(D/heads)) · V_h` per head, as one node that
    /// keeps nothing `S × S` (see the module docs).
    pub fn attention(&mut self, q: Var, k: Var, v: Var, heads: usize) -> Var {
        let pool = &mut self.pool;
        let (qv, kv, vv) = (&self.values[q.0], &self.values[k.0], &self.values[v.0]);
        let shape = qv.shape().to_vec();
        assert_eq!(shape.len(), 3, "attention expects [B, S, D]");
        assert_eq!(kv.shape(), &shape[..], "attention k shape mismatch");
        assert_eq!(vv.shape(), &shape[..], "attention v shape mismatch");
        let (batch, seq, dim) = (shape[0], shape[1], shape[2]);
        assert!(
            heads > 0 && dim.is_multiple_of(heads),
            "model dim {dim} must divide into {heads} heads"
        );
        let dh = dim / heads;
        let scale = 1.0 / (dh as f64).sqrt();
        // One (batch, head) problem at a time in index order, each on its
        // strided columns of the merged buffers.
        let offsets =
            move || (0..batch).flat_map(move |b| (0..heads).map(move |h| b * seq * dim + h * dh));

        let mut out = pool.take(qv.numel());
        let mut scratch = pool.take(attention_scratch_len(seq, dh));
        for off in offsets() {
            attention_head(
                seq,
                dh,
                dim,
                scale,
                &qv.data()[off..],
                &kv.data()[off..],
                &vv.data()[off..],
                &mut out[off..],
                &mut scratch,
            );
        }
        pool.put(scratch);
        let value = Tensor::new(shape.clone(), out);
        self.push(
            value,
            vec![q.0, k.0, v.0],
            Some(Box::new(move |g, ps, out, pool| {
                let n = out.numel();
                let (mut dq, mut dk, mut dv) = (pool.take(n), pool.take(n), pool.take(n));
                let mut scratch = pool.take(attention_backward_scratch_len(seq, dh));
                for off in offsets() {
                    attention_head_backward(
                        seq,
                        dh,
                        dim,
                        scale,
                        &ps[0].data()[off..],
                        &ps[1].data()[off..],
                        &ps[2].data()[off..],
                        &out.data()[off..],
                        &g.data()[off..],
                        &mut dq[off..],
                        &mut dk[off..],
                        &mut dv[off..],
                        &mut scratch,
                    );
                }
                pool.put(scratch);
                [dq, dk, dv]
                    .into_iter()
                    .map(|d| Tensor::new(shape.clone(), d))
                    .collect()
            })),
        )
    }

    /// Reshape: a pooled copy forward (the parent keeps its buffer on the
    /// tape), a move of the gradient buffer backward.
    pub fn reshape(&mut self, a: Var, shape: Vec<usize>) -> Var {
        let old_shape = self.values[a.0].shape().to_vec();
        let v = Tensor::new(shape, self.pool.copy_of(self.values[a.0].data()));
        self.push(
            v,
            vec![a.0],
            Some(Box::new(move |g, _, _, _| {
                vec![g.take().with_shape(old_shape.clone())]
            })),
        )
    }

    /// ReLU.
    pub fn relu(&mut self, a: Var) -> Var {
        let v = self.map_pooled(a.0, |x| x.max(0.0));
        self.push(
            v,
            vec![a.0],
            Some(Box::new(|g, ps, _, _| {
                for (gi, &xi) in g.data_mut().iter_mut().zip(ps[0].data()) {
                    *gi = if xi > 0.0 { *gi } else { 0.0 };
                }
                vec![g.take()]
            })),
        )
    }

    /// Layer normalisation over the last axis with affine parameters.
    pub fn layer_norm(&mut self, x: Var, gamma: Var, beta: Var, eps: f64) -> Var {
        let pool = &mut self.pool;
        let xv = &self.values[x.0];
        let d = *xv.shape().last().expect("layer_norm needs >=1-D");
        assert_eq!(self.values[gamma.0].shape(), &[d]);
        assert_eq!(self.values[beta.0].shape(), &[d]);
        let gv = self.values[gamma.0].data();
        let bv = self.values[beta.0].data();
        let mut out = pool.take(xv.numel());
        for (row_idx, row) in xv.data().chunks(d).enumerate() {
            let mu: f64 = row.iter().sum::<f64>() / d as f64;
            let var: f64 = row.iter().map(|&v| (v - mu) * (v - mu)).sum::<f64>() / d as f64;
            let sigma = (var + eps).sqrt();
            for j in 0..d {
                let xhat = (row[j] - mu) / sigma;
                out[row_idx * d + j] = gv[j] * xhat + bv[j];
            }
        }
        let v = Tensor::new(xv.shape().to_vec(), out);
        self.push(
            v,
            vec![x.0, gamma.0, beta.0],
            Some(Box::new(move |g, ps, _, pool| {
                let xv = ps[0];
                let gv = ps[1].data();
                let d = *xv.shape().last().unwrap();
                let n = d as f64;
                let mut dx = pool.take(xv.numel());
                let mut dgamma = pool.take(d);
                let mut dbeta = pool.take(d);
                // Per-row scratch, reused by every row.
                let mut xhat = pool.take(d);
                let mut dxhat = pool.take(d);
                for (row_idx, (row, grow)) in
                    xv.data().chunks(d).zip(g.data().chunks(d)).enumerate()
                {
                    let mu: f64 = row.iter().sum::<f64>() / n;
                    let var: f64 = row.iter().map(|&v| (v - mu) * (v - mu)).sum::<f64>() / n;
                    let sigma = (var + eps).sqrt();
                    for j in 0..d {
                        xhat[j] = (row[j] - mu) / sigma;
                        // Parameter grads.
                        dgamma[j] += grow[j] * xhat[j];
                        dbeta[j] += grow[j];
                        // dxhat = g * gamma
                        dxhat[j] = grow[j] * gv[j];
                    }
                    let mean_dxhat: f64 = dxhat.iter().sum::<f64>() / n;
                    let mean_dxhat_xhat: f64 =
                        dxhat.iter().zip(&xhat).map(|(&a, &b)| a * b).sum::<f64>() / n;
                    for j in 0..d {
                        dx[row_idx * d + j] =
                            (dxhat[j] - mean_dxhat - xhat[j] * mean_dxhat_xhat) / sigma;
                    }
                }
                pool.put(xhat);
                pool.put(dxhat);
                vec![
                    Tensor::new(xv.shape().to_vec(), dx),
                    Tensor::new(vec![d], dgamma),
                    Tensor::new(vec![d], dbeta),
                ]
            })),
        )
    }

    /// Mean over axis 1 of a 3-D tensor: `[B, S, D] -> [B, D]`.
    pub fn mean_axis1(&mut self, x: Var) -> Var {
        let pool = &mut self.pool;
        let xv = &self.values[x.0];
        let s = xv.shape();
        assert_eq!(s.len(), 3, "mean_axis1 expects [B, S, D]");
        let (b, seq, d) = (s[0], s[1], s[2]);
        let mut out = pool.take(b * d);
        for bi in 0..b {
            for si in 0..seq {
                let base = (bi * seq + si) * d;
                for j in 0..d {
                    out[bi * d + j] += xv.data()[base + j];
                }
            }
        }
        for o in &mut out {
            *o /= seq as f64;
        }
        let v = Tensor::new(vec![b, d], out);
        self.push(
            v,
            vec![x.0],
            Some(Box::new(move |g, _, _, pool| {
                let mut dx = pool.take(b * seq * d);
                for bi in 0..b {
                    for si in 0..seq {
                        let base = (bi * seq + si) * d;
                        for j in 0..d {
                            dx[base + j] = g.data()[bi * d + j] / seq as f64;
                        }
                    }
                }
                vec![Tensor::new(vec![b, seq, d], dx)]
            })),
        )
    }

    /// Concatenate two 2-D tensors along the last axis: `[R,A] ++ [R,B]`.
    pub fn concat_lastdim(&mut self, a: Var, b: Var) -> Var {
        let pool = &mut self.pool;
        let av = &self.values[a.0];
        let bv = &self.values[b.0];
        assert_eq!(av.shape().len(), 2);
        assert_eq!(bv.shape().len(), 2);
        assert_eq!(av.shape()[0], bv.shape()[0], "row counts must match");
        let (r, ca, cb) = (av.shape()[0], av.shape()[1], bv.shape()[1]);
        let cw = ca + cb;
        let mut out = pool.take(r * cw);
        for i in 0..r {
            out[i * cw..i * cw + ca].copy_from_slice(&av.data()[i * ca..(i + 1) * ca]);
            out[i * cw + ca..(i + 1) * cw].copy_from_slice(&bv.data()[i * cb..(i + 1) * cb]);
        }
        let v = Tensor::new(vec![r, cw], out);
        self.push(
            v,
            vec![a.0, b.0],
            Some(Box::new(move |g, _, _, pool| {
                let mut da = pool.take(r * ca);
                let mut db = pool.take(r * cb);
                for i in 0..r {
                    let row = &g.data()[i * cw..(i + 1) * cw];
                    da[i * ca..(i + 1) * ca].copy_from_slice(&row[..ca]);
                    db[i * cb..(i + 1) * cb].copy_from_slice(&row[ca..]);
                }
                vec![Tensor::new(vec![r, ca], da), Tensor::new(vec![r, cb], db)]
            })),
        )
    }

    /// Prepend a single broadcast row `b` (`[B]` or `[1, B]`) to each row of
    /// 2-D `a` `[R, A]`: `out[i] = b ++ a[i]`, shape `[R, B+A]`. Replaces
    /// the tile-then-`concat_lastdim` pattern without materialising the
    /// `[R, B]` tile; the backward for `b` sums the left slice over rows.
    pub fn concat_broadcast_row(&mut self, b: Var, a: Var) -> Var {
        let pool = &mut self.pool;
        let av = &self.values[a.0];
        let bv = &self.values[b.0];
        assert_eq!(av.shape().len(), 2, "concat_broadcast_row rhs must be 2-D");
        assert!(
            bv.shape().len() == 1 || (bv.shape().len() == 2 && bv.shape()[0] == 1),
            "broadcast row must be [B] or [1, B]"
        );
        let (r, ca) = (av.shape()[0], av.shape()[1]);
        let cb = bv.numel();
        let cw = cb + ca;
        let mut out = pool.take(r * cw);
        for i in 0..r {
            out[i * cw..i * cw + cb].copy_from_slice(bv.data());
            out[i * cw + cb..(i + 1) * cw].copy_from_slice(&av.data()[i * ca..(i + 1) * ca]);
        }
        let v = Tensor::new(vec![r, cw], out);
        let bshape = bv.shape().to_vec();
        self.push(
            v,
            vec![b.0, a.0],
            Some(Box::new(move |g, _, _, pool| {
                let mut db = pool.take(cb);
                let mut da = pool.take(r * ca);
                for i in 0..r {
                    let row = &g.data()[i * cw..(i + 1) * cw];
                    for (acc, &gg) in db.iter_mut().zip(&row[..cb]) {
                        *acc += gg;
                    }
                    da[i * ca..(i + 1) * ca].copy_from_slice(&row[cb..]);
                }
                vec![
                    Tensor::new(bshape.clone(), db),
                    Tensor::new(vec![r, ca], da),
                ]
            })),
        )
    }

    /// Sum of every element (scalar output).
    pub fn sum_all(&mut self, a: Var) -> Var {
        let s: f64 = self.values[a.0].data().iter().sum();
        let shape = self.values[a.0].shape().to_vec();
        self.push(
            Tensor::scalar(s),
            vec![a.0],
            Some(Box::new(move |g, _, _, _| {
                vec![Tensor::full(shape.clone(), g.item())]
            })),
        )
    }

    /// Weighted Huber loss (scalar): `Σ w_i·h_δ(p_i − t_i) / wsum`.
    /// `target` and `weights` are plain tensors (non-differentiable), and
    /// the caller supplies the normaliser: `wsum` = Σw over the *full*
    /// batch. Shards of a batch evaluated over disjoint row ranges with
    /// the same `wsum` then produce losses (and gradients) that sum
    /// exactly to the full-batch values — the contract the data-parallel
    /// trainer relies on for bit-identical results.
    pub fn huber_loss(
        &mut self,
        pred: Var,
        target: &Tensor,
        weights: &Tensor,
        delta: f64,
        wsum: f64,
    ) -> Var {
        let pv = &self.values[pred.0];
        assert_eq!(pv.numel(), target.numel(), "huber target size mismatch");
        assert_eq!(pv.numel(), weights.numel(), "huber weight size mismatch");
        let wsum = wsum.max(f64::MIN_POSITIVE);
        let mut loss = 0.0;
        for ((&p, &t), &w) in pv.data().iter().zip(target.data()).zip(weights.data()) {
            let e = p - t;
            loss += w * if e.abs() <= delta {
                0.5 * e * e
            } else {
                delta * (e.abs() - 0.5 * delta)
            };
        }
        let target = target.clone();
        let weights = weights.clone();
        self.push(
            Tensor::scalar(loss / wsum),
            vec![pred.0],
            Some(Box::new(move |g, ps, _, pool| {
                let scale = g.item() / wsum;
                let mut dp = pool.take(ps[0].numel());
                for (o, ((&p, &t), &w)) in dp
                    .iter_mut()
                    .zip(ps[0].data().iter().zip(target.data()).zip(weights.data()))
                {
                    *o = w * scale * (p - t).clamp(-delta, delta);
                }
                vec![Tensor::new(ps[0].shape().to_vec(), dp)]
            })),
        )
    }

    /// Weighted MAPE loss in percent (scalar):
    /// `100 · Σ w_i·|p_i − t_i|/|t_i| / wsum`, skipping `t_i = 0`; `wsum` =
    /// Σ w_i over the full batch where `t_i ≠ 0` (see
    /// [`Graph::huber_loss`]).
    pub fn mape_loss(&mut self, pred: Var, target: &Tensor, weights: &Tensor, wsum: f64) -> Var {
        let pv = &self.values[pred.0];
        assert_eq!(pv.numel(), target.numel(), "mape target size mismatch");
        assert_eq!(pv.numel(), weights.numel(), "mape weight size mismatch");
        let wsum = wsum.max(f64::MIN_POSITIVE);
        let mut loss = 0.0;
        for ((&p, &t), &w) in pv.data().iter().zip(target.data()).zip(weights.data()) {
            if t != 0.0 {
                loss += w * ((p - t) / t).abs();
            }
        }
        let target = target.clone();
        let weights = weights.clone();
        self.push(
            Tensor::scalar(100.0 * loss / wsum),
            vec![pred.0],
            Some(Box::new(move |g, ps, _, pool| {
                let scale = 100.0 * g.item() / wsum;
                let mut dp = pool.take(ps[0].numel());
                for (o, ((&p, &t), &w)) in dp
                    .iter_mut()
                    .zip(ps[0].data().iter().zip(target.data()).zip(weights.data()))
                {
                    *o = if t == 0.0 {
                        0.0
                    } else {
                        w * scale * (p - t).signum() / t.abs()
                    };
                }
                vec![Tensor::new(ps[0].shape().to_vec(), dp)]
            })),
        )
    }

    /// Run reverse-mode accumulation from `root` (which must be scalar) and
    /// return per-node gradients (None where no gradient flowed).
    ///
    /// Interior-node gradients are recycled into the pool as soon as their
    /// backward closure has consumed them; only leaf gradients (and
    /// gradients that never propagated further) survive in the returned
    /// vector — which is all any caller reads.
    pub fn backward(&mut self, root: Var) -> Vec<Option<Tensor>> {
        assert_eq!(
            self.values[root.0].numel(),
            1,
            "backward root must be a scalar loss"
        );
        let mut grads: Vec<Option<Tensor>> = vec![None; self.values.len()];
        grads[root.0] = Some(Tensor::scalar(1.0));
        for idx in (0..=root.0).rev() {
            let Some(f) = self.back[idx].as_ref() else {
                continue;
            };
            let Some(mut g) = grads[idx].take() else {
                continue;
            };
            let parent_vals: Vec<&Tensor> =
                self.parents[idx].iter().map(|&p| &self.values[p]).collect();
            let parent_grads = f(&mut g, &parent_vals, &self.values[idx], &mut self.pool);
            debug_assert_eq!(parent_grads.len(), self.parents[idx].len());
            for (&p, pg) in self.parents[idx].iter().zip(parent_grads) {
                match &mut grads[p] {
                    Some(acc) => {
                        acc.add_assign(&pg);
                        self.pool.put(pg.into_data());
                    }
                    slot @ None => *slot = Some(pg),
                }
            }
            // This interior gradient is consumed — recycle what the
            // closure left of it.
            self.pool.put(g.into_data());
        }
        grads
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Central-difference gradient check of an arbitrary scalar function of
    /// one leaf tensor.
    fn grad_check(build: impl Fn(&mut Graph, Var) -> Var, x0: Tensor, tol: f64) {
        let mut g = Graph::new();
        let x = g.leaf(x0.clone());
        let y = build(&mut g, x);
        let grads = g.backward(y);
        let analytic = grads[x.0].clone().expect("gradient must flow to leaf");

        let h = 1e-6;
        for i in 0..x0.numel() {
            let mut plus = x0.clone();
            plus.data_mut()[i] += h;
            let mut minus = x0.clone();
            minus.data_mut()[i] -= h;
            let fp = {
                let mut g = Graph::new();
                let x = g.leaf(plus);
                let y = build(&mut g, x);
                g.value(y).item()
            };
            let fm = {
                let mut g = Graph::new();
                let x = g.leaf(minus);
                let y = build(&mut g, x);
                g.value(y).item()
            };
            let numeric = (fp - fm) / (2.0 * h);
            let a = analytic.data()[i];
            assert!(
                (a - numeric).abs() <= tol * (1.0 + numeric.abs()),
                "element {i}: analytic {a} vs numeric {numeric}"
            );
        }
    }

    fn t(shape: &[usize], data: &[f64]) -> Tensor {
        Tensor::new(shape.to_vec(), data.to_vec())
    }

    #[test]
    fn grad_add_mul_scale() {
        grad_check(
            |g, x| {
                let y = g.mul(x, x); // x^2
                let z = g.scale(y, 3.0);
                g.sum_all(z)
            },
            t(&[3], &[1.0, -2.0, 0.5]),
            1e-5,
        );
    }

    #[test]
    fn grad_matmul() {
        grad_check(
            |g, x| {
                let w = g.leaf(t(&[2, 3], &[0.3, -0.1, 0.5, 0.2, 0.7, -0.4]));
                let y = g.matmul(x, w);
                let y2 = g.mul(y, y);
                g.sum_all(y2)
            },
            t(&[2, 2], &[1.0, 2.0, -0.5, 0.3]),
            1e-5,
        );
    }

    /// Seeded standard-normal tensor.
    fn pseudo(shape: &[usize], seed: u64) -> Tensor {
        crate::init::normal_init(shape.to_vec(), 1.0, &mut crate::init::InitRng::new(seed))
    }

    #[test]
    fn grad_attention_wrt_q_k_and_v() {
        // One shape on each side of the kernel's FMA dispatch threshold.
        for &(shape, heads) in &[([2usize, 5, 4], 2usize), ([1, 32, 8], 2)] {
            let (q0, k0, v0) = (pseudo(&shape, 3), pseudo(&shape, 5), pseudo(&shape, 7));
            let w0 = pseudo(&shape, 11);
            for wrt in 0..3 {
                let (q0, k0, v0, w0) = (q0.clone(), k0.clone(), v0.clone(), w0.clone());
                let x0 = [&q0, &k0, &v0][wrt].clone();
                grad_check(
                    move |g, x| {
                        let mut qkv = [
                            g.constant(q0.clone()),
                            g.constant(k0.clone()),
                            g.constant(v0.clone()),
                        ];
                        qkv[wrt] = x;
                        let y = g.attention(qkv[0], qkv[1], qkv[2], heads);
                        let w = g.constant(w0.clone());
                        let yw = g.mul(y, w);
                        g.sum_all(yw)
                    },
                    x0,
                    1e-5,
                );
            }
        }
    }

    /// The op reduces within one `(batch, head)` problem only: a sample's
    /// output and `dQ`/`dK`/`dV` are the same bits alone, first, or last
    /// in a batch.
    #[test]
    fn attention_is_independent_of_batch_position() {
        let (seq, dim, heads) = (37usize, 8usize, 2usize);
        let sample = |i: u64| -> [Tensor; 4] {
            std::array::from_fn(|t| pseudo(&[1, seq, dim], 100 * i + t as u64))
        };
        // Forward value and q/k/v gradients of every sample in the batch.
        let run = |samples: &[[Tensor; 4]]| -> Vec<[Vec<f64>; 4]> {
            let n = samples.len();
            let stack = |t: usize| {
                let data = samples.iter().flat_map(|s| s[t].data().to_vec()).collect();
                Tensor::new(vec![n, seq, dim], data)
            };
            let mut g = Graph::new();
            let (q, k, v) = (g.leaf(stack(0)), g.leaf(stack(1)), g.leaf(stack(2)));
            let y = g.attention(q, k, v, heads);
            let w = g.constant(stack(3));
            let yw = g.mul(y, w);
            let l = g.sum_all(yw);
            let out = g.value(y).data().to_vec();
            let grads = g.backward(l);
            (0..n)
                .map(|i| {
                    let at = |x: &[f64]| x[i * seq * dim..(i + 1) * seq * dim].to_vec();
                    let grad = |v: Var| at(grads[v.0].as_ref().unwrap().data());
                    [at(&out), grad(q), grad(k), grad(v)]
                })
                .collect()
        };
        let (a, b, c) = (sample(1), sample(2), sample(3));
        let alone = run(std::slice::from_ref(&b));
        let last = run(&[a.clone(), c.clone(), b.clone()]);
        let first = run(&[b, c, a]);
        assert_eq!(alone[0], last[2]);
        assert_eq!(alone[0], first[0]);
    }

    #[test]
    fn grad_relu() {
        grad_check(
            |g, x| {
                let y = g.relu(x);
                let y2 = g.mul(y, y);
                g.sum_all(y2)
            },
            t(&[4], &[1.0, -1.0, 0.5, -0.2]),
            1e-5,
        );
    }

    #[test]
    fn grad_layer_norm() {
        grad_check(
            |g, x| {
                let gamma = g.leaf(t(&[3], &[1.2, 0.8, 1.0]));
                let beta = g.leaf(t(&[3], &[0.1, -0.1, 0.0]));
                let y = g.layer_norm(x, gamma, beta, 1e-5);
                let y2 = g.mul(y, y);
                g.sum_all(y2)
            },
            t(&[2, 3], &[0.5, -1.0, 2.0, 0.3, 0.7, -0.2]),
            1e-4,
        );
    }

    #[test]
    fn grad_layer_norm_params() {
        // Check gamma/beta gradients via the same machinery: make them the leaf.
        let x0 = t(&[2, 2], &[0.5, -1.0, 2.0, 0.3]);
        grad_check(
            |g, gamma| {
                let x = g.constant(x0.clone());
                let beta = g.constant(t(&[2], &[0.0, 0.1]));
                let y = g.layer_norm(x, gamma, beta, 1e-5);
                let y2 = g.mul(y, y);
                g.sum_all(y2)
            },
            t(&[2], &[1.0, 0.9]),
            1e-5,
        );
    }

    #[test]
    fn grad_mean_axis1_and_concat() {
        grad_check(
            |g, x| {
                let m = g.mean_axis1(x); // [2,2]
                let c = g.concat_lastdim(m, m); // [2,4]
                let c2 = g.mul(c, c);
                g.sum_all(c2)
            },
            t(
                &[2, 3, 2],
                &[
                    0.1, 0.2, 0.3, 0.4, 0.5, 0.6, -0.1, -0.2, -0.3, -0.4, -0.5, -0.6,
                ],
            ),
            1e-5,
        );
    }

    #[test]
    fn grad_concat_broadcast_row() {
        // Gradient w.r.t. the matrix operand.
        let row = t(&[3], &[0.4, -0.7, 0.2]);
        grad_check(
            {
                let row = row.clone();
                move |g, x| {
                    let b = g.constant(row.clone());
                    let c = g.concat_broadcast_row(b, x); // [2, 5]
                    let c2 = g.mul(c, c);
                    g.sum_all(c2)
                }
            },
            t(&[2, 2], &[0.5, -1.0, 2.0, 0.3]),
            1e-5,
        );
        // Gradient w.r.t. the broadcast row (summed over rows).
        let a0 = t(&[3, 2], &[0.1, 0.2, -0.3, 0.4, 0.5, -0.6]);
        grad_check(
            move |g, b| {
                let a = g.constant(a0.clone());
                let c = g.concat_broadcast_row(b, a);
                let c2 = g.mul(c, c);
                g.sum_all(c2)
            },
            row,
            1e-5,
        );
    }

    #[test]
    fn concat_broadcast_row_matches_tile_then_concat() {
        let mut g = Graph::new();
        let b = g.leaf(t(&[1, 2], &[7.0, 8.0]));
        let a = g.leaf(t(&[2, 3], &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]));
        let c = g.concat_broadcast_row(b, a);
        assert_eq!(g.value(c).shape(), &[2, 5]);
        assert_eq!(
            g.value(c).data(),
            &[7.0, 8.0, 1.0, 2.0, 3.0, 7.0, 8.0, 4.0, 5.0, 6.0]
        );
    }

    #[test]
    fn grad_add_bias_reshape() {
        grad_check(
            |g, x| {
                let b = g.leaf(t(&[2], &[0.3, -0.2]));
                let xb = g.add_bias(x, b);
                let f = g.reshape(xb, vec![4, 2]);
                let f2 = g.mul(f, f);
                g.sum_all(f2)
            },
            t(&[2, 2, 2], &[0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8]),
            1e-5,
        );
    }

    #[test]
    fn grad_huber_loss() {
        let target = t(&[4], &[1.0, 2.0, 3.0, 4.0]);
        let weights = t(&[4], &[1.0, 2.0, 1.0, 0.5]);
        grad_check(
            move |g, x| g.huber_loss(x, &target, &weights, 1.0, 4.5),
            // Mix of small (quadratic) and large (linear) errors.
            t(&[4], &[1.2, 1.5, 6.0, -1.0]),
            1e-5,
        );
    }

    #[test]
    fn grad_mape_loss() {
        let target = t(&[3], &[2.0, 4.0, 5.0]);
        let weights = t(&[3], &[1.0, 1.0, 2.0]);
        grad_check(
            move |g, x| g.mape_loss(x, &target, &weights, 4.0),
            t(&[3], &[2.5, 3.0, 7.0]),
            1e-4,
        );
    }

    #[test]
    fn huber_known_value() {
        let mut g = Graph::new();
        let p = g.leaf(t(&[2], &[1.5, 5.0]));
        let target = t(&[2], &[1.0, 2.0]);
        let w = t(&[2], &[1.0, 1.0]);
        let l = g.huber_loss(p, &target, &w, 1.0, 2.0);
        // h(0.5) = 0.125; h(3.0) = 1*(3 - 0.5) = 2.5; mean = 1.3125
        assert!((g.value(l).item() - 1.3125).abs() < 1e-12);
    }

    #[test]
    fn mape_known_value() {
        let mut g = Graph::new();
        let p = g.leaf(t(&[2], &[1.1, 4.0]));
        let target = t(&[2], &[1.0, 5.0]);
        let w = t(&[2], &[1.0, 1.0]);
        let l = g.mape_loss(p, &target, &w, 2.0);
        // (10% + 20%) / 2 = 15%
        assert!((g.value(l).item() - 15.0).abs() < 1e-9);
    }

    #[test]
    fn sharded_norm_losses_sum_to_full_batch() {
        // Split a batch in two; with the *global* normaliser, per-element
        // gradients are bitwise identical to the full-batch ones (same
        // formula, same normaliser), and shard losses sum to the full-batch
        // loss up to reassociation rounding (~1e-16 relative).
        let preds = [1.2, 1.5, 6.0, -1.0, 2.5, 3.0];
        let targets = [1.0, 2.0, 3.0, 4.0, 2.0, 0.0];
        let weights = [1.0, 2.0, 1.0, 0.5, 1.5, 1.0];
        let full_wsum: f64 = weights.iter().sum();
        let mape_wsum: f64 = targets
            .iter()
            .zip(&weights)
            .filter(|(&t, _)| t != 0.0)
            .map(|(_, &w)| w)
            .sum();

        let full = {
            let mut g = Graph::new();
            let p = g.leaf(t(&[6], &preds));
            let l = g.huber_loss(p, &t(&[6], &targets), &t(&[6], &weights), 1.0, full_wsum);
            let lv = g.value(l).item();
            let grads = g.backward(l);
            (lv, grads[p.0].clone().unwrap())
        };
        let mut shard_loss = 0.0;
        let mut shard_grad = Vec::new();
        for range in [0..3, 3..6] {
            let mut g = Graph::new();
            let p = g.leaf(t(&[3], &preds[range.clone()]));
            let l = g.huber_loss(
                p,
                &t(&[3], &targets[range.clone()]),
                &t(&[3], &weights[range.clone()]),
                1.0,
                full_wsum,
            );
            shard_loss += g.value(l).item();
            let grads = g.backward(l);
            shard_grad.extend_from_slice(grads[p.0].as_ref().unwrap().data());
        }
        assert!(
            (shard_loss - full.0).abs() <= 1e-12 * (1.0 + full.0.abs()),
            "huber shard losses must sum to the full-batch loss"
        );
        assert_eq!(shard_grad, full.1.data(), "huber shard grads must match");

        let full = {
            let mut g = Graph::new();
            let p = g.leaf(t(&[6], &preds));
            let l = g.mape_loss(p, &t(&[6], &targets), &t(&[6], &weights), mape_wsum);
            let lv = g.value(l).item();
            let grads = g.backward(l);
            (lv, grads[p.0].clone().unwrap())
        };
        let mut shard_loss = 0.0;
        let mut shard_grad = Vec::new();
        for range in [0..3, 3..6] {
            let mut g = Graph::new();
            let p = g.leaf(t(&[3], &preds[range.clone()]));
            let l = g.mape_loss(
                p,
                &t(&[3], &targets[range.clone()]),
                &t(&[3], &weights[range.clone()]),
                mape_wsum,
            );
            shard_loss += g.value(l).item();
            let grads = g.backward(l);
            shard_grad.extend_from_slice(grads[p.0].as_ref().unwrap().data());
        }
        assert!(
            (shard_loss - full.0).abs() <= 1e-12 * (1.0 + full.0.abs()),
            "mape shard losses must sum to the full-batch loss"
        );
        assert_eq!(shard_grad, full.1.data(), "mape shard grads must match");
    }

    #[test]
    fn gradient_accumulates_across_uses() {
        // y = x + x => dy/dx = 2
        let mut g = Graph::new();
        let x = g.leaf(Tensor::scalar(3.0));
        let y = g.add(x, x);
        let grads = g.backward(y);
        assert_eq!(grads[x.0].as_ref().unwrap().item(), 2.0);
    }

    #[test]
    fn no_grad_to_unrelated_nodes() {
        let mut g = Graph::new();
        let x = g.leaf(Tensor::scalar(1.0));
        let unrelated = g.leaf(Tensor::scalar(5.0));
        let y = g.mul(x, x);
        let grads = g.backward(y);
        assert!(grads[unrelated.0].is_none());
    }

    #[test]
    fn reset_recycles_buffers_and_results_are_identical() {
        let build = |g: &mut Graph| {
            let x = g.leaf(t(&[2, 3], &[0.5, -1.0, 2.0, 0.3, 0.7, -0.2]));
            let w = g.leaf(t(&[3, 2], &[0.3, -0.1, 0.5, 0.2, 0.7, -0.4]));
            let y = g.matmul(x, w);
            let y2 = g.mul(y, y);
            let l = g.sum_all(y2);
            let lv = g.value(l).item();
            let grads = g.backward(l);
            (lv, grads[w.0].clone().unwrap())
        };
        let mut g = Graph::new();
        let (l1, gw1) = build(&mut g);
        g.reset();
        assert!(g.is_empty());
        assert!(
            g.pool_mut().pooled() > 0,
            "reset must repool tensor buffers"
        );
        let (l2, gw2) = build(&mut g);
        assert_eq!(l1, l2);
        assert_eq!(gw1.data(), gw2.data());
    }

    #[test]
    fn buffer_pool_reuses_exact_lengths() {
        let mut pool = BufferPool::new();
        let mut b = pool.take(16);
        b[3] = 7.0;
        pool.put(b);
        assert_eq!(pool.pooled(), 1);
        let b2 = pool.take(16);
        assert_eq!(b2.len(), 16);
        assert!(b2.iter().all(|&x| x == 0.0), "reused buffers are zeroed");
        assert_eq!(pool.pooled(), 0);
        // Different length misses the pool.
        let b3 = pool.take(8);
        assert_eq!(b3.len(), 8);
    }
}
