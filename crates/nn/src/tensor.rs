//! Dense row-major `f64` tensors and the raw compute kernels the autograd
//! graph wraps.
//!
//! Matmul-family kernels (`matmul2d`, `bmm`, `bmm_nt`, `bmm_tn`) dispatch
//! to the packed, register-tiled [`dbat_linalg::gemm()`] engine when the
//! problem is large enough to amortise packing, falling back to the naive
//! triple loops for tiny operands. The naive loops are kept as `*_naive`
//! reference implementations: the property-test suite asserts the packed
//! path matches them within 1e-12 across ragged shapes. `*_into` variants
//! write into caller-provided buffers so the autograd graph can recycle
//! allocations across forward passes.

use dbat_linalg::gemm::{gemm, gemm_worthwhile, Layout};
use rayon::prelude::*;
use serde::{Deserialize, Serialize};

/// A dense tensor of `f64` in row-major order.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Tensor {
    shape: Vec<usize>,
    data: Vec<f64>,
}

impl Tensor {
    pub fn new(shape: Vec<usize>, data: Vec<f64>) -> Self {
        assert_eq!(
            shape.iter().product::<usize>(),
            data.len(),
            "shape {shape:?} does not match data length {}",
            data.len()
        );
        Tensor { shape, data }
    }

    pub fn zeros(shape: Vec<usize>) -> Self {
        let n = shape.iter().product();
        Tensor {
            shape,
            data: vec![0.0; n],
        }
    }

    pub fn full(shape: Vec<usize>, v: f64) -> Self {
        let n = shape.iter().product();
        Tensor {
            shape,
            data: vec![v; n],
        }
    }

    pub fn scalar(v: f64) -> Self {
        Tensor {
            shape: vec![1],
            data: vec![v],
        }
    }

    pub fn from_vec(data: Vec<f64>) -> Self {
        Tensor {
            shape: vec![data.len()],
            data,
        }
    }

    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    pub fn numel(&self) -> usize {
        self.data.len()
    }

    pub fn data(&self) -> &[f64] {
        &self.data
    }

    pub fn data_mut(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Consume the tensor and return its backing buffer (for pooled reuse).
    pub fn into_data(self) -> Vec<f64> {
        self.data
    }

    /// Move the tensor out, leaving `self` empty (fit only to be dropped
    /// or repooled). How a backward closure hands its gradient's buffer
    /// on instead of copying it.
    pub(crate) fn take(&mut self) -> Tensor {
        Tensor {
            shape: std::mem::take(&mut self.shape),
            data: std::mem::take(&mut self.data),
        }
    }

    /// [`Tensor::reshape`] by move: same buffer, new shape.
    pub(crate) fn with_shape(self, shape: Vec<usize>) -> Tensor {
        Tensor::new(shape, self.data)
    }

    /// The single value of a scalar tensor.
    pub fn item(&self) -> f64 {
        assert_eq!(self.numel(), 1, "item() requires a single-element tensor");
        self.data[0]
    }

    /// Reinterpret with a new shape (same element count).
    pub fn reshape(&self, shape: Vec<usize>) -> Tensor {
        assert_eq!(
            shape.iter().product::<usize>(),
            self.numel(),
            "reshape {shape:?} incompatible with {:?}",
            self.shape
        );
        Tensor {
            shape,
            data: self.data.clone(),
        }
    }

    /// Elementwise map.
    pub fn map(&self, f: impl Fn(f64) -> f64) -> Tensor {
        Tensor {
            shape: self.shape.clone(),
            data: self.data.iter().map(|&x| f(x)).collect(),
        }
    }

    /// Elementwise binary zip (shapes must match exactly).
    pub fn zip(&self, other: &Tensor, f: impl Fn(f64, f64) -> f64) -> Tensor {
        assert_eq!(self.shape, other.shape, "zip shape mismatch");
        Tensor {
            shape: self.shape.clone(),
            data: self
                .data
                .iter()
                .zip(&other.data)
                .map(|(&a, &b)| f(a, b))
                .collect(),
        }
    }

    /// In-place accumulation `self += other` (exact shape match).
    pub fn add_assign(&mut self, other: &Tensor) {
        assert_eq!(self.shape, other.shape, "add_assign shape mismatch");
        for (a, &b) in self.data.iter_mut().zip(&other.data) {
            *a += b;
        }
    }

    pub fn max_abs(&self) -> f64 {
        self.data.iter().fold(0.0_f64, |m, &x| m.max(x.abs()))
    }
}

/// `t` read as a matrix: its last axis as columns, every leading axis
/// flattened into rows (row-major storage makes that free). The `*_into`
/// kernels take activations this way, so a layer applied over the last
/// axis of `[B, S, D]` needs no reshape.
fn as_matrix(t: &Tensor, what: &str) -> (usize, usize) {
    assert!(t.shape().len() >= 2, "{what} must be at least 2-D");
    let cols = *t.shape().last().expect("checked non-empty");
    (t.shape()[..t.shape().len() - 1].iter().product(), cols)
}

fn matmul2d_dims(a: &Tensor, b: &Tensor) -> (usize, usize, usize) {
    assert_eq!(b.shape().len(), 2, "matmul2d rhs must be 2-D");
    let (m, k) = as_matrix(a, "matmul2d lhs");
    let (k2, n) = (b.shape()[0], b.shape()[1]);
    assert_eq!(k, k2, "matmul2d inner dimensions differ: {k} vs {k2}");
    (m, n, k)
}

/// 2-D matmul: `[m, k] @ [k, n] -> [m, n]`. Packed register-tiled kernel
/// (rayon-parallel over row blocks) above a size threshold, naive below.
pub fn matmul2d(a: &Tensor, b: &Tensor) -> Tensor {
    let (m, n, _) = matmul2d_dims(a, b);
    let mut out = vec![0.0; m * n];
    matmul2d_into(a, b, &mut out);
    Tensor::new(vec![m, n], out)
}

/// As [`matmul2d`], writing into a zeroed caller buffer of length `m * n`;
/// `a` may be `[..., k]`, its leading axes flattened into `m`.
pub fn matmul2d_into(a: &Tensor, b: &Tensor, out: &mut [f64]) {
    let (m, n, k) = matmul2d_dims(a, b);
    assert_eq!(out.len(), m * n, "matmul2d output buffer size mismatch");
    if gemm_worthwhile(m, n, k) {
        gemm(
            m,
            n,
            k,
            a.data(),
            Layout::Normal,
            b.data(),
            Layout::Normal,
            out,
        );
    } else {
        naive_gemm_acc(m, n, k, a.data(), b.data(), out);
    }
}

/// 2-D matmul with the right operand transposed: `[m, k] @ [n, k]ᵀ`.
/// The `dA = G·Bᵀ` backward of [`matmul2d`], without materialising `Bᵀ`.
pub fn matmul2d_nt(a: &Tensor, bt: &Tensor) -> Tensor {
    let m = a.shape()[0];
    let n = bt.shape()[0];
    let mut out = vec![0.0; m * n];
    matmul2d_nt_into(a, bt, &mut out);
    Tensor::new(vec![m, n], out)
}

/// As [`matmul2d_nt`], writing into a zeroed caller buffer of length
/// `m * n`; `a` may be `[..., k]`.
pub fn matmul2d_nt_into(a: &Tensor, bt: &Tensor, out: &mut [f64]) {
    assert_eq!(bt.shape().len(), 2, "matmul2d_nt rhs must be 2-D");
    let (m, k) = as_matrix(a, "matmul2d_nt lhs");
    let (n, k2) = (bt.shape()[0], bt.shape()[1]);
    assert_eq!(k, k2, "matmul2d_nt inner dimensions differ: {k} vs {k2}");
    assert_eq!(out.len(), m * n, "matmul2d_nt output buffer size mismatch");
    if gemm_worthwhile(m, n, k) {
        gemm(
            m,
            n,
            k,
            a.data(),
            Layout::Normal,
            bt.data(),
            Layout::Transposed,
            out,
        );
    } else {
        // Dot products over contiguous rows of A and Bᵀ.
        for (i, orow) in out.chunks_mut(n.max(1)).enumerate().take(m) {
            let arow = &a.data()[i * k..(i + 1) * k];
            for (o, brow) in orow.iter_mut().zip(bt.data().chunks_exact(k.max(1))) {
                *o = arow.iter().zip(brow).map(|(&x, &y)| x * y).sum();
            }
        }
    }
}

/// 2-D matmul with the left operand transposed: `[k, m]ᵀ @ [k, n]`.
/// The `dB = Aᵀ·G` backward of [`matmul2d`], without materialising `Aᵀ`.
pub fn matmul2d_tn(at: &Tensor, b: &Tensor) -> Tensor {
    let m = at.shape()[1];
    let n = b.shape()[1];
    let mut out = vec![0.0; m * n];
    matmul2d_tn_into(at, b, &mut out);
    Tensor::new(vec![m, n], out)
}

/// As [`matmul2d_tn`], writing into a zeroed caller buffer of length
/// `m * n`; `at` and `b` may be `[..., m]` and `[..., n]` with the same
/// leading axes.
pub fn matmul2d_tn_into(at: &Tensor, b: &Tensor, out: &mut [f64]) {
    let (k, m) = as_matrix(at, "matmul2d_tn lhs");
    let (k2, n) = as_matrix(b, "matmul2d_tn rhs");
    assert_eq!(k, k2, "matmul2d_tn inner dimensions differ: {k} vs {k2}");
    assert_eq!(out.len(), m * n, "matmul2d_tn output buffer size mismatch");
    if gemm_worthwhile(m, n, k) {
        gemm(
            m,
            n,
            k,
            at.data(),
            Layout::Transposed,
            b.data(),
            Layout::Normal,
            out,
        );
    } else {
        // Sum of rank-1 updates with contiguous inner rows.
        for p in 0..k {
            let arow = &at.data()[p * m..(p + 1) * m];
            let brow = &b.data()[p * n..(p + 1) * n];
            for (i, &av) in arow.iter().enumerate() {
                if av == 0.0 {
                    continue;
                }
                let orow = &mut out[i * n..(i + 1) * n];
                for (o, &bv) in orow.iter_mut().zip(brow) {
                    *o += av * bv;
                }
            }
        }
    }
}

/// Reference 2-D matmul: the naive rayon-parallel `ikj` triple loop the
/// packed kernel is property-tested against.
pub fn matmul2d_naive(a: &Tensor, b: &Tensor) -> Tensor {
    let (m, n, k) = matmul2d_dims(a, b);
    let mut out = vec![0.0; m * n];
    let ad = a.data();
    let bd = b.data();
    let kernel = |i: usize, row: &mut [f64]| {
        for p in 0..k {
            let aip = ad[i * k + p];
            if aip == 0.0 {
                continue;
            }
            let brow = &bd[p * n..(p + 1) * n];
            for (o, &bv) in row.iter_mut().zip(brow) {
                *o += aip * bv;
            }
        }
    };
    if m * n * k > 64 * 64 * 64 {
        out.par_chunks_mut(n)
            .enumerate()
            .for_each(|(i, row)| kernel(i, row));
    } else {
        for (i, row) in out.chunks_mut(n).enumerate() {
            kernel(i, row);
        }
    }
    Tensor::new(vec![m, n], out)
}

/// Naive accumulating `ikj` kernel into a zeroed buffer (serial). Shared
/// with the graph-free inference plans so both paths take bit-identical
/// small-operand fallbacks.
pub(crate) fn naive_gemm_acc(
    m: usize,
    n: usize,
    k: usize,
    ad: &[f64],
    bd: &[f64],
    out: &mut [f64],
) {
    for (i, row) in out.chunks_mut(n.max(1)).enumerate().take(m) {
        for p in 0..k {
            let aip = ad[i * k + p];
            if aip == 0.0 {
                continue;
            }
            let brow = &bd[p * n..(p + 1) * n];
            for (o, &bv) in row.iter_mut().zip(brow) {
                *o += aip * bv;
            }
        }
    }
}

fn bmm_dims(a: &Tensor, b: &Tensor, name: &str) -> (usize, usize, usize, usize) {
    assert_eq!(a.shape().len(), 3, "{name} lhs must be 3-D");
    assert_eq!(b.shape().len(), 3, "{name} rhs must be 3-D");
    let n = a.shape()[0];
    assert_eq!(n, b.shape()[0], "{name} batch dimensions differ");
    (n, a.shape()[1], a.shape()[2], b.shape()[2])
}

/// Batched matmul: `[N, r, k] @ [N, k, c] -> [N, r, c]`, parallel over `N`,
/// each batch on the packed kernel when large enough.
pub fn bmm(a: &Tensor, b: &Tensor) -> Tensor {
    let (n, r, k, c) = bmm_dims(a, b, "bmm");
    assert_eq!(k, b.shape()[1], "bmm inner dimensions differ");
    let mut out = vec![0.0; n * r * c];
    bmm_into(a, b, &mut out);
    Tensor::new(vec![n, r, c], out)
}

/// As [`bmm`], writing into a zeroed caller buffer of length `N * r * c`.
pub fn bmm_into(a: &Tensor, b: &Tensor, out: &mut [f64]) {
    let (n, r, k, c) = bmm_dims(a, b, "bmm");
    assert_eq!(k, b.shape()[1], "bmm inner dimensions differ");
    assert_eq!(out.len(), n * r * c, "bmm output buffer size mismatch");
    let ad = a.data();
    let bd = b.data();
    let packed = gemm_worthwhile(r, c, k);
    out.par_chunks_mut((r * c).max(1))
        .enumerate()
        .for_each(|(i, chunk)| {
            let ab = &ad[i * r * k..(i + 1) * r * k];
            let bb = &bd[i * k * c..(i + 1) * k * c];
            if packed {
                gemm(r, c, k, ab, Layout::Normal, bb, Layout::Normal, chunk);
            } else {
                naive_gemm_acc(r, c, k, ab, bb, chunk);
            }
        });
}

/// Batched matmul with the right operand transposed:
/// `[N, r, k] @ [N, c, k]ᵀ -> [N, r, c]` — attention scores (`Q Kᵀ`) and
/// the `dA = G Bᵀ` backward, without materialised transposes.
pub fn bmm_nt(a: &Tensor, b: &Tensor) -> Tensor {
    let (n, r, k, _) = bmm_dims(a, b, "bmm_nt");
    let c = b.shape()[1];
    assert_eq!(k, b.shape()[2], "bmm_nt inner dimensions differ");
    let mut out = vec![0.0; n * r * c];
    bmm_nt_into(a, b, &mut out);
    Tensor::new(vec![n, r, c], out)
}

/// As [`bmm_nt`], writing into a zeroed caller buffer.
pub fn bmm_nt_into(a: &Tensor, b: &Tensor, out: &mut [f64]) {
    let (n, r, k, _) = bmm_dims(a, b, "bmm_nt");
    let c = b.shape()[1];
    assert_eq!(k, b.shape()[2], "bmm_nt inner dimensions differ");
    assert_eq!(out.len(), n * r * c, "bmm_nt output buffer size mismatch");
    let ad = a.data();
    let bd = b.data();
    let packed = gemm_worthwhile(r, c, k);
    out.par_chunks_mut((r * c).max(1))
        .enumerate()
        .for_each(|(i, chunk)| {
            let ab = &ad[i * r * k..(i + 1) * r * k];
            let bb = &bd[i * c * k..(i + 1) * c * k];
            if packed {
                gemm(r, c, k, ab, Layout::Normal, bb, Layout::Transposed, chunk);
            } else {
                for row in 0..r {
                    let arow = &ab[row * k..(row + 1) * k];
                    let orow = &mut chunk[row * c..(row + 1) * c];
                    for (o, brow) in orow.iter_mut().zip(bb.chunks_exact(k.max(1))) {
                        let mut acc = 0.0;
                        for (&x, &y) in arow.iter().zip(brow) {
                            acc += x * y;
                        }
                        *o = acc;
                    }
                }
            }
        });
}

/// Reference batched `A·Bᵀ`: row-dot-product loops, kept for equivalence
/// testing against the packed path.
pub fn bmm_nt_naive(a: &Tensor, b: &Tensor) -> Tensor {
    let (n, r, k, _) = bmm_dims(a, b, "bmm_nt");
    let c = b.shape()[1];
    assert_eq!(k, b.shape()[2], "bmm_nt inner dimensions differ");
    let mut out = vec![0.0; n * r * c];
    let ad = a.data();
    let bd = b.data();
    for (i, chunk) in out.chunks_mut((r * c).max(1)).enumerate() {
        let ab = &ad[i * r * k..(i + 1) * r * k];
        let bb = &bd[i * c * k..(i + 1) * c * k];
        for row in 0..r {
            let arow = &ab[row * k..(row + 1) * k];
            let orow = &mut chunk[row * c..(row + 1) * c];
            for (o, brow) in orow.iter_mut().zip(bb.chunks_exact(k.max(1))) {
                let mut acc = 0.0;
                for (&x, &y) in arow.iter().zip(brow) {
                    acc += x * y;
                }
                *o = acc;
            }
        }
    }
    Tensor::new(vec![n, r, c], out)
}

/// Batched matmul with the left operand transposed:
/// `[N, k, r]ᵀ @ [N, k, c] -> [N, r, c]` — the `dB = Aᵀ G` backward kernel.
pub fn bmm_tn(a: &Tensor, b: &Tensor) -> Tensor {
    let (n, k, r, c) = bmm_dims(a, b, "bmm_tn");
    assert_eq!(k, b.shape()[1], "bmm_tn inner dimensions differ");
    let mut out = vec![0.0; n * r * c];
    bmm_tn_into(a, b, &mut out);
    Tensor::new(vec![n, r, c], out)
}

/// As [`bmm_tn`], writing into a zeroed caller buffer.
pub fn bmm_tn_into(a: &Tensor, b: &Tensor, out: &mut [f64]) {
    let (n, k, r, c) = bmm_dims(a, b, "bmm_tn");
    assert_eq!(k, b.shape()[1], "bmm_tn inner dimensions differ");
    assert_eq!(out.len(), n * r * c, "bmm_tn output buffer size mismatch");
    let ad = a.data();
    let bd = b.data();
    let packed = gemm_worthwhile(r, c, k);
    out.par_chunks_mut((r * c).max(1))
        .enumerate()
        .for_each(|(i, chunk)| {
            let ab = &ad[i * k * r..(i + 1) * k * r];
            let bb = &bd[i * k * c..(i + 1) * k * c];
            if packed {
                gemm(r, c, k, ab, Layout::Transposed, bb, Layout::Normal, chunk);
            } else {
                for kk in 0..k {
                    let arow = &ab[kk * r..(kk + 1) * r];
                    let brow = &bb[kk * c..(kk + 1) * c];
                    for (row, &av) in arow.iter().enumerate() {
                        if av == 0.0 {
                            continue;
                        }
                        let orow = &mut chunk[row * c..(row + 1) * c];
                        for (o, &bv) in orow.iter_mut().zip(brow) {
                            *o += av * bv;
                        }
                    }
                }
            }
        });
}

/// Reference batched `Aᵀ·B`: rank-1 update loops, kept for equivalence
/// testing against the packed path.
pub fn bmm_tn_naive(a: &Tensor, b: &Tensor) -> Tensor {
    let (n, k, r, c) = bmm_dims(a, b, "bmm_tn");
    assert_eq!(k, b.shape()[1], "bmm_tn inner dimensions differ");
    let mut out = vec![0.0; n * r * c];
    let ad = a.data();
    let bd = b.data();
    for (i, chunk) in out.chunks_mut((r * c).max(1)).enumerate() {
        let ab = &ad[i * k * r..(i + 1) * k * r];
        let bb = &bd[i * k * c..(i + 1) * k * c];
        for kk in 0..k {
            let arow = &ab[kk * r..(kk + 1) * r];
            let brow = &bb[kk * c..(kk + 1) * c];
            for (row, &av) in arow.iter().enumerate() {
                if av == 0.0 {
                    continue;
                }
                let orow = &mut chunk[row * c..(row + 1) * c];
                for (o, &bv) in orow.iter_mut().zip(brow) {
                    *o += av * bv;
                }
            }
        }
    }
    Tensor::new(vec![n, r, c], out)
}

/// Reference batched matmul: naive loops over every batch, kept for
/// equivalence testing against the packed path.
pub fn bmm_naive(a: &Tensor, b: &Tensor) -> Tensor {
    let (n, r, k, c) = bmm_dims(a, b, "bmm");
    assert_eq!(k, b.shape()[1], "bmm inner dimensions differ");
    let mut out = vec![0.0; n * r * c];
    let ad = a.data();
    let bd = b.data();
    for (i, chunk) in out.chunks_mut((r * c).max(1)).enumerate() {
        naive_gemm_acc(
            r,
            c,
            k,
            &ad[i * r * k..(i + 1) * r * k],
            &bd[i * k * c..(i + 1) * k * c],
            chunk,
        );
    }
    Tensor::new(vec![n, r, c], out)
}

/// Transpose the last two axes of a 2-D or 3-D tensor.
pub fn transpose_last2(t: &Tensor) -> Tensor {
    match t.shape() {
        [r, c] => {
            let (r, c) = (*r, *c);
            let mut out = vec![0.0; r * c];
            for i in 0..r {
                for j in 0..c {
                    out[j * r + i] = t.data()[i * c + j];
                }
            }
            Tensor::new(vec![c, r], out)
        }
        [n, r, c] => {
            let (n, r, c) = (*n, *r, *c);
            let mut out = vec![0.0; n * r * c];
            for b in 0..n {
                let base = b * r * c;
                for i in 0..r {
                    for j in 0..c {
                        out[base + j * r + i] = t.data()[base + i * c + j];
                    }
                }
            }
            Tensor::new(vec![n, c, r], out)
        }
        s => panic!("transpose_last2 expects 2-D or 3-D, got {s:?}"),
    }
}

/// Permute axes `[a, b, c, d] -> [a, c, b, d]` (head split/merge for
/// multi-head attention). The permutation is an involution.
pub fn permute_0213(t: &Tensor) -> Tensor {
    let s = t.shape();
    assert_eq!(s.len(), 4, "permute_0213 expects a 4-D tensor");
    let (a, b, c, d) = (s[0], s[1], s[2], s[3]);
    let mut out = vec![0.0; t.numel()];
    let src = t.data();
    for ia in 0..a {
        for ib in 0..b {
            for ic in 0..c {
                let src_base = ((ia * b + ib) * c + ic) * d;
                let dst_base = ((ia * c + ic) * b + ib) * d;
                out[dst_base..dst_base + d].copy_from_slice(&src[src_base..src_base + d]);
            }
        }
    }
    Tensor::new(vec![a, c, b, d], out)
}

/// Softmax over the last axis.
///
/// Runs on [`dbat_linalg::softmax_rows_inplace`] — the fused, vectorised
/// max/exp/sum/divide kernel — because the attention softmax dominates
/// the non-GEMM cost of a decision (`layers · heads · seq²`
/// exponentials per forward). The compiled inference plans call the same
/// kernel, which is what keeps the graph-free fast path bitwise equal to
/// this graph op.
pub fn softmax_lastdim(t: &Tensor) -> Tensor {
    let d = *t.shape().last().expect("softmax needs at least 1-D");
    let mut out = t.data().to_vec();
    dbat_linalg::softmax_rows_inplace(&mut out, d);
    Tensor::new(t.shape().to_vec(), out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_accessors() {
        let t = Tensor::new(vec![2, 3], vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert_eq!(t.shape(), &[2, 3]);
        assert_eq!(t.numel(), 6);
        assert_eq!(Tensor::scalar(7.0).item(), 7.0);
    }

    #[test]
    #[should_panic(expected = "does not match data length")]
    fn bad_shape_panics() {
        Tensor::new(vec![2, 2], vec![1.0]);
    }

    #[test]
    fn reshape_preserves_data() {
        let t = Tensor::new(vec![2, 3], (0..6).map(|i| i as f64).collect());
        let r = t.reshape(vec![3, 2]);
        assert_eq!(r.shape(), &[3, 2]);
        assert_eq!(r.data(), t.data());
    }

    #[test]
    fn matmul2d_known() {
        let a = Tensor::new(vec![2, 2], vec![1.0, 2.0, 3.0, 4.0]);
        let b = Tensor::new(vec![2, 2], vec![5.0, 6.0, 7.0, 8.0]);
        let c = matmul2d(&a, &b);
        assert_eq!(c.data(), &[19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn matmul2d_large_parallel_path() {
        let n = 70;
        let a = Tensor::new(vec![n, n], (0..n * n).map(|i| (i % 5) as f64).collect());
        let id = {
            let mut d = vec![0.0; n * n];
            for i in 0..n {
                d[i * n + i] = 1.0;
            }
            Tensor::new(vec![n, n], d)
        };
        let c = matmul2d(&a, &id);
        assert_eq!(c.data(), a.data());
    }

    #[test]
    fn bmm_batches_independent() {
        let a = Tensor::new(vec![2, 1, 2], vec![1.0, 2.0, 3.0, 4.0]);
        let b = Tensor::new(vec![2, 2, 1], vec![1.0, 1.0, 2.0, 0.5]);
        let c = bmm(&a, &b);
        assert_eq!(c.shape(), &[2, 1, 1]);
        assert_eq!(c.data(), &[3.0, 8.0]);
    }

    #[test]
    fn bmm_nt_matches_explicit_transpose() {
        let a = Tensor::new(
            vec![2, 3, 4],
            (0..24).map(|i| (i as f64) * 0.3 - 2.0).collect(),
        );
        let b = Tensor::new(
            vec![2, 5, 4],
            (0..40).map(|i| (i as f64) * 0.1 - 1.0).collect(),
        );
        let fused = bmm_nt(&a, &b);
        let explicit = bmm(&a, &transpose_last2(&b));
        assert_eq!(fused.shape(), &[2, 3, 5]);
        for (x, y) in fused.data().iter().zip(explicit.data()) {
            assert!((x - y).abs() < 1e-12);
        }
    }

    #[test]
    fn bmm_tn_matches_explicit_transpose() {
        let a = Tensor::new(
            vec![2, 4, 3],
            (0..24).map(|i| (i as f64) * 0.2 - 1.5).collect(),
        );
        let b = Tensor::new(vec![2, 4, 5], (0..40).map(|i| (i as f64) * 0.05).collect());
        let fused = bmm_tn(&a, &b);
        let explicit = bmm(&transpose_last2(&a), &b);
        assert_eq!(fused.shape(), &[2, 3, 5]);
        for (x, y) in fused.data().iter().zip(explicit.data()) {
            assert!((x - y).abs() < 1e-12);
        }
    }

    #[test]
    fn transpose_2d_and_3d() {
        let t = Tensor::new(vec![2, 3], (0..6).map(|i| i as f64).collect());
        let tt = transpose_last2(&t);
        assert_eq!(tt.shape(), &[3, 2]);
        assert_eq!(tt.data(), &[0.0, 3.0, 1.0, 4.0, 2.0, 5.0]);
        let t3 = Tensor::new(vec![2, 2, 2], (0..8).map(|i| i as f64).collect());
        let tt3 = transpose_last2(&t3);
        assert_eq!(tt3.data(), &[0.0, 2.0, 1.0, 3.0, 4.0, 6.0, 5.0, 7.0]);
    }

    #[test]
    fn permute_0213_involution() {
        let t = Tensor::new(vec![2, 3, 4, 5], (0..120).map(|i| i as f64).collect());
        let p = permute_0213(&t);
        assert_eq!(p.shape(), &[2, 4, 3, 5]);
        let back = permute_0213(&p);
        assert_eq!(back, t);
    }

    #[test]
    fn permute_0213_moves_elements_correctly() {
        // [1,2,2,1]: (b=0..2, c=0..2) element (ib, ic) -> (ic, ib)
        let t = Tensor::new(vec![1, 2, 2, 1], vec![0.0, 1.0, 2.0, 3.0]);
        let p = permute_0213(&t);
        assert_eq!(p.data(), &[0.0, 2.0, 1.0, 3.0]);
    }

    #[test]
    fn softmax_rows_sum_to_one() {
        let t = Tensor::new(vec![2, 3], vec![1.0, 2.0, 3.0, -1.0, 0.0, 1.0]);
        let s = softmax_lastdim(&t);
        for row in s.data().chunks(3) {
            let sum: f64 = row.iter().sum();
            assert!((sum - 1.0).abs() < 1e-12);
            assert!(
                row.windows(2).all(|w| w[0] < w[1]),
                "monotone inputs stay ordered"
            );
        }
    }

    #[test]
    fn softmax_stable_for_large_inputs() {
        let t = Tensor::new(vec![1, 2], vec![1000.0, 1001.0]);
        let s = softmax_lastdim(&t);
        assert!(s.data().iter().all(|x| x.is_finite()));
        assert!((s.data()[0] + s.data()[1] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn zip_and_add_assign() {
        let a = Tensor::from_vec(vec![1.0, 2.0]);
        let b = Tensor::from_vec(vec![3.0, 5.0]);
        assert_eq!(a.zip(&b, |x, y| x * y).data(), &[3.0, 10.0]);
        let mut c = a.clone();
        c.add_assign(&b);
        assert_eq!(c.data(), &[4.0, 7.0]);
    }
}
