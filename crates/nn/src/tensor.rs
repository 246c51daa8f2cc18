//! Dense row-major `f64` tensors and the matmul kernels the compiled
//! plans' backward runs.
//!
//! The matmul kernels (`matmul2d`, `matmul2d_nt`, `matmul2d_tn`) dispatch
//! to the packed, register-tiled [`dbat_linalg::gemm()`] engine when the
//! problem is large enough to amortise packing, falling back to naive
//! loops for tiny operands. [`matmul2d_naive`] is kept as the reference
//! implementation: the property-test suite asserts the packed path matches
//! it within 1e-12 across ragged shapes. The transposed-operand kernels
//! also run on caller slices (`gemm_nt_into`, `gemm_tn_into`): a linear
//! layer's `dX = dY·Wᵀ` and `dW = Xᵀ·dY`.

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

    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    pub fn numel(&self) -> usize {
        self.data.len()
    }

    pub fn data(&self) -> &[f64] {
        &self.data
    }

    pub(crate) fn data_mut(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Consume the tensor and return its backing buffer.
    pub fn into_data(self) -> Vec<f64> {
        self.data
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
    pub(crate) fn add_assign(&mut self, other: &Tensor) {
        assert_eq!(self.shape, other.shape, "add_assign shape mismatch");
        for (a, &b) in self.data.iter_mut().zip(&other.data) {
            *a += b;
        }
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
    let (m, n, k) = matmul2d_dims(a, b);
    let mut out = vec![0.0; m * n];
    if gemm_worthwhile(m, n, k) {
        gemm(
            m,
            n,
            k,
            a.data(),
            Layout::Normal,
            b.data(),
            Layout::Normal,
            &mut out,
        );
    } else {
        naive_gemm_acc(m, n, k, a.data(), b.data(), &mut out);
    }
    Tensor::new(vec![m, n], out)
}

/// 2-D matmul with the right operand transposed: `[m, k] @ [n, k]ᵀ`.
/// The `dA = G·Bᵀ` backward of [`matmul2d`], without materialising `Bᵀ`.
pub fn matmul2d_nt(a: &Tensor, bt: &Tensor) -> Tensor {
    assert_eq!(bt.shape().len(), 2, "matmul2d_nt rhs must be 2-D");
    let (m, k) = as_matrix(a, "matmul2d_nt lhs");
    let (n, k2) = (bt.shape()[0], bt.shape()[1]);
    assert_eq!(k, k2, "matmul2d_nt inner dimensions differ: {k} vs {k2}");
    let mut out = vec![0.0; m * n];
    gemm_nt_into(m, n, k, a.data(), bt.data(), &mut out);
    Tensor::new(vec![m, n], out)
}

/// `out[m, n] = a[m, k] · bt[n, k]ᵀ`, fully overwriting `out`: packed
/// above the `gemm_worthwhile` threshold, dot products over contiguous
/// rows below it.
pub(crate) fn gemm_nt_into(m: usize, n: usize, k: usize, a: &[f64], bt: &[f64], out: &mut [f64]) {
    assert_eq!(out.len(), m * n, "matmul2d_nt output buffer size mismatch");
    if gemm_worthwhile(m, n, k) {
        gemm(m, n, k, a, Layout::Normal, bt, Layout::Transposed, out);
    } else {
        for (i, orow) in out.chunks_mut(n.max(1)).enumerate().take(m) {
            let arow = &a[i * k..(i + 1) * k];
            for (o, brow) in orow.iter_mut().zip(bt.chunks_exact(k.max(1))) {
                *o = arow.iter().zip(brow).map(|(&x, &y)| x * y).sum();
            }
        }
    }
}

/// 2-D matmul with the left operand transposed: `[k, m]ᵀ @ [k, n]`.
/// The `dB = Aᵀ·G` backward of [`matmul2d`], without materialising `Aᵀ`.
pub fn matmul2d_tn(at: &Tensor, b: &Tensor) -> Tensor {
    let (k, m) = as_matrix(at, "matmul2d_tn lhs");
    let (k2, n) = as_matrix(b, "matmul2d_tn rhs");
    assert_eq!(k, k2, "matmul2d_tn inner dimensions differ: {k} vs {k2}");
    let mut out = vec![0.0; m * n];
    gemm_tn_into(m, n, k, at.data(), b.data(), &mut out);
    Tensor::new(vec![m, n], out)
}

/// `out[m, n] = at[k, m]ᵀ · b[k, n]`, fully overwriting `out`: packed
/// above the `gemm_worthwhile` threshold, a sum of rank-1 updates over
/// contiguous inner rows from zero below it.
pub(crate) fn gemm_tn_into(m: usize, n: usize, k: usize, at: &[f64], b: &[f64], out: &mut [f64]) {
    assert_eq!(out.len(), m * n, "matmul2d_tn output buffer size mismatch");
    if gemm_worthwhile(m, n, k) {
        gemm(m, n, k, at, Layout::Transposed, b, Layout::Normal, out);
    } else {
        out.fill(0.0);
        for p in 0..k {
            let arow = &at[p * m..(p + 1) * m];
            let brow = &b[p * n..(p + 1) * n];
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

/// Naive accumulating `ikj` kernel into a zeroed buffer (serial): the
/// small-operand fallback of [`matmul2d`] and of the compiled plans.
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_accessors() {
        let t = Tensor::new(vec![2, 3], vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert_eq!(t.shape(), &[2, 3]);
        assert_eq!(t.numel(), 6);
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
    fn zip_and_add_assign() {
        let a = Tensor::new(vec![2], vec![1.0, 2.0]);
        let b = Tensor::new(vec![2], vec![3.0, 5.0]);
        assert_eq!(a.zip(&b, |x, y| x * y).data(), &[3.0, 10.0]);
        let mut c = a.clone();
        c.add_assign(&b);
        assert_eq!(c.data(), &[4.0, 7.0]);
    }
}
