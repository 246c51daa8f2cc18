//! Dense, row-major, `f64` matrices.
//!
//! This is deliberately a small, predictable kernel set rather than a general
//! BLAS: the BATCH analytic model needs moderate-size (tens to a few hundred
//! states) generator matrices, repeated matrix-vector and matrix-matrix
//! products, and numerically careful reductions. Matrix-matrix products
//! switch to a rayon-parallel blocked kernel above a size threshold.

use rayon::prelude::*;
use std::fmt;
use std::ops::{Add, Index, IndexMut, Mul, Neg, Sub};

/// Side length above which `matmul` parallelises over row blocks.
const PAR_THRESHOLD: usize = 64;

/// A dense row-major matrix of `f64`.
#[derive(Clone, PartialEq)]
pub struct Mat {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Mat {
    /// Create a matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Mat {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Create a matrix filled with `v`.
    pub fn full(rows: usize, cols: usize, v: f64) -> Self {
        Mat {
            rows,
            cols,
            data: vec![v; rows * cols],
        }
    }

    /// Identity matrix of order `n`.
    pub fn eye(n: usize) -> Self {
        let mut m = Mat::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Build from a row-major `Vec`. Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), rows * cols, "data length must equal rows*cols");
        Mat { rows, cols, data }
    }

    /// Build from nested row slices (handy in tests).
    pub fn from_rows(rows: &[&[f64]]) -> Self {
        let r = rows.len();
        assert!(r > 0, "at least one row required");
        let c = rows[0].len();
        let mut data = Vec::with_capacity(r * c);
        for row in rows {
            assert_eq!(row.len(), c, "ragged rows");
            data.extend_from_slice(row);
        }
        Mat {
            rows: r,
            cols: c,
            data,
        }
    }

    /// Build an `n`-square diagonal matrix from the given diagonal entries.
    pub fn diag(entries: &[f64]) -> Self {
        let n = entries.len();
        let mut m = Mat::zeros(n, n);
        for (i, &v) in entries.iter().enumerate() {
            m[(i, i)] = v;
        }
        m
    }

    pub fn rows(&self) -> usize {
        self.rows
    }

    pub fn cols(&self) -> usize {
        self.cols
    }

    pub fn is_square(&self) -> bool {
        self.rows == self.cols
    }

    /// Raw row-major data.
    pub fn data(&self) -> &[f64] {
        &self.data
    }

    pub fn data_mut(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// A single row as a slice.
    pub fn row(&self, i: usize) -> &[f64] {
        assert!(i < self.rows);
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    pub fn row_mut(&mut self, i: usize) -> &mut [f64] {
        assert!(i < self.rows);
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Transpose.
    pub fn t(&self) -> Mat {
        let mut out = Mat::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                out[(j, i)] = self[(i, j)];
            }
        }
        out
    }

    /// Elementwise map.
    pub fn map(&self, f: impl Fn(f64) -> f64) -> Mat {
        Mat {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&x| f(x)).collect(),
        }
    }

    /// Scale every entry by `s`.
    pub fn scale(&self, s: f64) -> Mat {
        self.map(|x| x * s)
    }

    /// Matrix product `self * other`. Large operands run on the packed,
    /// register-tiled [`crate::gemm()`] engine (rayon-parallel over row
    /// blocks); small ones keep a naive `ikj` loop whose inner dimension
    /// the compiler vectorises.
    pub fn matmul(&self, other: &Mat) -> Mat {
        assert_eq!(
            self.cols, other.rows,
            "matmul dimension mismatch: {}x{} * {}x{}",
            self.rows, self.cols, other.rows, other.cols
        );
        let (m, k, n) = (self.rows, self.cols, other.cols);
        let mut out = vec![0.0; m * n];
        if crate::gemm::gemm_worthwhile(m, n, k) {
            crate::gemm::gemm(
                m,
                n,
                k,
                &self.data,
                crate::gemm::Layout::Normal,
                &other.data,
                crate::gemm::Layout::Normal,
                &mut out,
            );
        } else {
            self.matmul_naive_into(other, &mut out);
        }
        Mat {
            rows: m,
            cols: n,
            data: out,
        }
    }

    /// Reference triple-loop product into a zeroed buffer. Kept as the
    /// correctness baseline the packed engine is tested against, and used
    /// directly for operands too small to amortise packing.
    pub fn matmul_naive(&self, other: &Mat) -> Mat {
        assert_eq!(
            self.cols, other.rows,
            "matmul dimension mismatch: {}x{} * {}x{}",
            self.rows, self.cols, other.rows, other.cols
        );
        let (m, n) = (self.rows, other.cols);
        let mut out = vec![0.0; m * n];
        self.matmul_naive_into(other, &mut out);
        Mat {
            rows: m,
            cols: n,
            data: out,
        }
    }

    fn matmul_naive_into(&self, other: &Mat, out: &mut [f64]) {
        let (m, k, n) = (self.rows, self.cols, other.cols);
        let kernel = |i: usize, out_row: &mut [f64]| {
            for p in 0..k {
                let a = self.data[i * k + p];
                if a == 0.0 {
                    continue;
                }
                let brow = &other.data[p * n..(p + 1) * n];
                for (o, &b) in out_row.iter_mut().zip(brow) {
                    *o += a * b;
                }
            }
        };
        if m >= PAR_THRESHOLD && n >= PAR_THRESHOLD {
            out.par_chunks_mut(n)
                .enumerate()
                .for_each(|(i, row)| kernel(i, row));
        } else {
            for (i, row) in out.chunks_mut(n).enumerate() {
                kernel(i, row);
            }
        }
    }

    /// Matrix-vector product `self * v`.
    pub fn matvec(&self, v: &[f64]) -> Vec<f64> {
        assert_eq!(self.cols, v.len(), "matvec dimension mismatch");
        (0..self.rows)
            .map(|i| self.row(i).iter().zip(v).map(|(&a, &b)| a * b).sum())
            .collect()
    }

    /// Row-vector-matrix product `v * self` (the natural operation for
    /// probability vectors evolving under a transition matrix).
    pub fn vecmat(&self, v: &[f64]) -> Vec<f64> {
        assert_eq!(self.rows, v.len(), "vecmat dimension mismatch");
        let mut out = vec![0.0; self.cols];
        for (i, &vi) in v.iter().enumerate() {
            if vi == 0.0 {
                continue;
            }
            for (o, &a) in out.iter_mut().zip(self.row(i)) {
                *o += vi * a;
            }
        }
        out
    }

    /// Sum of each row (as a column vector).
    pub fn row_sums(&self) -> Vec<f64> {
        (0..self.rows).map(|i| self.row(i).iter().sum()).collect()
    }

    /// Maximum absolute entry.
    pub fn max_abs(&self) -> f64 {
        self.data.iter().fold(0.0_f64, |m, &x| m.max(x.abs()))
    }

    /// Infinity norm (maximum absolute row sum).
    pub fn norm_inf(&self) -> f64 {
        (0..self.rows)
            .map(|i| self.row(i).iter().map(|x| x.abs()).sum::<f64>())
            .fold(0.0_f64, f64::max)
    }

    /// `true` iff every entry of `self - other` is within `tol` in absolute value.
    pub fn approx_eq(&self, other: &Mat, tol: f64) -> bool {
        self.rows == other.rows
            && self.cols == other.cols
            && self
                .data
                .iter()
                .zip(&other.data)
                .all(|(a, b)| (a - b).abs() <= tol)
    }
}

impl Index<(usize, usize)> for Mat {
    type Output = f64;
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        debug_assert!(i < self.rows && j < self.cols);
        &self.data[i * self.cols + j]
    }
}

impl IndexMut<(usize, usize)> for Mat {
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        debug_assert!(i < self.rows && j < self.cols);
        &mut self.data[i * self.cols + j]
    }
}

impl Add for &Mat {
    type Output = Mat;
    fn add(self, rhs: &Mat) -> Mat {
        assert_eq!(
            (self.rows, self.cols),
            (rhs.rows, rhs.cols),
            "add shape mismatch"
        );
        Mat {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(&rhs.data)
                .map(|(a, b)| a + b)
                .collect(),
        }
    }
}

impl Sub for &Mat {
    type Output = Mat;
    fn sub(self, rhs: &Mat) -> Mat {
        assert_eq!(
            (self.rows, self.cols),
            (rhs.rows, rhs.cols),
            "sub shape mismatch"
        );
        Mat {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(&rhs.data)
                .map(|(a, b)| a - b)
                .collect(),
        }
    }
}

impl Mul for &Mat {
    type Output = Mat;
    fn mul(self, rhs: &Mat) -> Mat {
        self.matmul(rhs)
    }
}

impl Neg for &Mat {
    type Output = Mat;
    fn neg(self) -> Mat {
        self.scale(-1.0)
    }
}

impl fmt::Debug for Mat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Mat {}x{} [", self.rows, self.cols)?;
        for i in 0..self.rows {
            write!(f, "  ")?;
            for j in 0..self.cols {
                write!(f, "{:10.5} ", self[(i, j)])?;
            }
            writeln!(f)?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_eye() {
        let z = Mat::zeros(2, 3);
        assert_eq!(z.rows(), 2);
        assert_eq!(z.cols(), 3);
        assert!(z.data().iter().all(|&x| x == 0.0));
        let i = Mat::eye(3);
        assert_eq!(i[(0, 0)], 1.0);
        assert_eq!(i[(0, 1)], 0.0);
        assert_eq!(i.row_sums(), vec![1.0; 3]);
    }

    #[test]
    fn matmul_small() {
        let a = Mat::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Mat::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]);
        let c = a.matmul(&b);
        assert_eq!(c, Mat::from_rows(&[&[19.0, 22.0], &[43.0, 50.0]]));
    }

    #[test]
    fn matmul_identity() {
        let a = Mat::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        let c = a.matmul(&Mat::eye(3));
        assert!(c.approx_eq(&a, 1e-12));
    }

    #[test]
    fn matmul_parallel_matches_serial() {
        // Force the parallel path and compare with hand-rolled triple loop.
        let n = 80;
        let a = Mat::from_vec(n, n, (0..n * n).map(|i| (i % 13) as f64 - 6.0).collect());
        let b = Mat::from_vec(n, n, (0..n * n).map(|i| (i % 7) as f64 * 0.5).collect());
        let c = a.matmul(&b);
        let mut expect = Mat::zeros(n, n);
        for i in 0..n {
            for j in 0..n {
                let mut s = 0.0;
                for k in 0..n {
                    s += a[(i, k)] * b[(k, j)];
                }
                expect[(i, j)] = s;
            }
        }
        assert!(c.approx_eq(&expect, 1e-9));
    }

    #[test]
    fn packed_matmul_matches_naive_on_ragged_shapes() {
        for &(m, k, n) in &[(5, 9, 13), (33, 17, 66), (64, 3, 100), (70, 70, 70)] {
            let a = Mat::from_vec(m, k, (0..m * k).map(|i| (i % 11) as f64 - 5.0).collect());
            let b = Mat::from_vec(k, n, (0..k * n).map(|i| (i % 9) as f64 * 0.25).collect());
            let fast = a.matmul(&b);
            let slow = a.matmul_naive(&b);
            assert!(fast.approx_eq(&slow, 1e-10), "mismatch at {m}x{k}x{n}");
        }
    }

    #[test]
    fn matvec_vecmat() {
        let a = Mat::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        assert_eq!(a.matvec(&[1.0, 1.0]), vec![3.0, 7.0]);
        assert_eq!(a.vecmat(&[1.0, 1.0]), vec![4.0, 6.0]);
    }

    #[test]
    fn transpose_involutive() {
        let a = Mat::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        assert_eq!(a.t().t(), a);
        assert_eq!(a.t()[(2, 1)], 6.0);
    }

    #[test]
    fn norms() {
        let a = Mat::from_rows(&[&[3.0, -4.0], &[0.0, 0.0]]);
        assert_eq!(a.norm_inf(), 7.0);
        assert_eq!(a.max_abs(), 4.0);
    }

    #[test]
    fn arithmetic_ops() {
        let a = Mat::from_rows(&[&[1.0, 2.0]]);
        let b = Mat::from_rows(&[&[3.0, 5.0]]);
        assert_eq!(&a + &b, Mat::from_rows(&[&[4.0, 7.0]]));
        assert_eq!(&b - &a, Mat::from_rows(&[&[2.0, 3.0]]));
        assert_eq!((&a).neg(), Mat::from_rows(&[&[-1.0, -2.0]]));
        assert_eq!(a.scale(2.0), Mat::from_rows(&[&[2.0, 4.0]]));
    }

    #[test]
    fn diag_builder() {
        let d = Mat::diag(&[1.0, 2.0, 3.0]);
        assert_eq!(d[(1, 1)], 2.0);
        assert_eq!(d[(0, 1)], 0.0);
    }

    #[test]
    #[should_panic(expected = "matmul dimension mismatch")]
    fn matmul_mismatch_panics() {
        let a = Mat::zeros(2, 3);
        let b = Mat::zeros(2, 3);
        let _ = a.matmul(&b);
    }
}
