//! LU decomposition with partial pivoting; linear solves and inverses.

use crate::matrix::Mat;

/// An LU factorisation `P·A = L·U` with partial pivoting, stored compactly
/// (unit-lower `L` and upper `U` share one matrix).
#[derive(Clone, Debug)]
pub(crate) struct Lu {
    lu: Mat,
    /// Row permutation: `perm[i]` is the original row index now in position `i`.
    perm: Vec<usize>,
}

/// Errors from the direct solvers.
#[derive(Clone, Debug, PartialEq)]
pub enum LinalgError {
    /// The matrix is singular (or numerically so) at the given pivot column.
    Singular { pivot: usize },
    /// Shape mismatch between operands.
    ShapeMismatch(String),
}

impl std::fmt::Display for LinalgError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LinalgError::Singular { pivot } => {
                write!(f, "matrix is singular at pivot column {pivot}")
            }
            LinalgError::ShapeMismatch(s) => write!(f, "shape mismatch: {s}"),
        }
    }
}

impl std::error::Error for LinalgError {}

impl Lu {
    /// Factorise a square matrix. Returns an error on (numerical) singularity.
    pub(crate) fn new(a: &Mat) -> Result<Self, LinalgError> {
        if !a.is_square() {
            return Err(LinalgError::ShapeMismatch(format!(
                "LU requires a square matrix, got {}x{}",
                a.rows(),
                a.cols()
            )));
        }
        let n = a.rows();
        let mut lu = a.clone();
        let mut perm: Vec<usize> = (0..n).collect();
        for k in 0..n {
            // Partial pivot: largest |entry| in column k at or below the diagonal.
            let mut p = k;
            let mut best = lu[(k, k)].abs();
            for i in k + 1..n {
                let v = lu[(i, k)].abs();
                if v > best {
                    best = v;
                    p = i;
                }
            }
            if best < f64::EPSILON * 16.0 {
                return Err(LinalgError::Singular { pivot: k });
            }
            if p != k {
                for j in 0..n {
                    let tmp = lu[(k, j)];
                    lu[(k, j)] = lu[(p, j)];
                    lu[(p, j)] = tmp;
                }
                perm.swap(k, p);
            }
            let pivot = lu[(k, k)];
            for i in k + 1..n {
                let m = lu[(i, k)] / pivot;
                lu[(i, k)] = m;
                for j in k + 1..n {
                    let u = lu[(k, j)];
                    lu[(i, j)] -= m * u;
                }
            }
        }
        Ok(Lu { lu, perm })
    }

    /// Solve `A x = b` for a single right-hand side.
    // Triangular substitution reads y[j] while writing y[i]; the indexed
    // form mirrors the textbook kernel.
    #[allow(clippy::needless_range_loop)]
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>, LinalgError> {
        let n = self.lu.rows();
        if b.len() != n {
            return Err(LinalgError::ShapeMismatch(format!(
                "rhs has length {}, expected {}",
                b.len(),
                n
            )));
        }
        // Apply permutation, then forward substitution (unit lower).
        let mut y: Vec<f64> = self.perm.iter().map(|&i| b[i]).collect();
        for i in 1..n {
            let mut s = y[i];
            for j in 0..i {
                s -= self.lu[(i, j)] * y[j];
            }
            y[i] = s;
        }
        // Back substitution (upper).
        for i in (0..n).rev() {
            let mut s = y[i];
            for j in i + 1..n {
                s -= self.lu[(i, j)] * y[j];
            }
            y[i] = s / self.lu[(i, i)];
        }
        Ok(y)
    }

    /// Solve `A X = B` column-wise.
    pub(crate) fn solve_mat(&self, b: &Mat) -> Result<Mat, LinalgError> {
        let n = self.lu.rows();
        if b.rows() != n {
            return Err(LinalgError::ShapeMismatch(format!(
                "rhs has {} rows, expected {}",
                b.rows(),
                n
            )));
        }
        let mut out = Mat::zeros(n, b.cols());
        let mut col = vec![0.0; n];
        for j in 0..b.cols() {
            for i in 0..n {
                col[i] = b[(i, j)];
            }
            let x = self.solve(&col)?;
            for i in 0..n {
                out[(i, j)] = x[i];
            }
        }
        Ok(out)
    }
}

/// Convenience: solve `A x = b` in one call.
pub fn solve(a: &Mat, b: &[f64]) -> Result<Vec<f64>, LinalgError> {
    Lu::new(a)?.solve(b)
}

/// Matrix inverse via LU. Prefer [`solve`] when you only need `A⁻¹ b`.
pub fn inverse(a: &Mat) -> Result<Mat, LinalgError> {
    let lu = Lu::new(a)?;
    lu.solve_mat(&Mat::eye(a.rows()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn solve_2x2() {
        let a = Mat::from_rows(&[&[2.0, 1.0], &[1.0, 3.0]]);
        let x = solve(&a, &[3.0, 5.0]).unwrap();
        // 2x + y = 3; x + 3y = 5 => x = 4/5, y = 7/5
        assert!((x[0] - 0.8).abs() < 1e-12);
        assert!((x[1] - 1.4).abs() < 1e-12);
    }

    #[test]
    fn solve_requires_pivoting() {
        // Zero on the diagonal forces a row swap.
        let a = Mat::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]);
        let x = solve(&a, &[2.0, 3.0]).unwrap();
        assert!((x[0] - 3.0).abs() < 1e-12);
        assert!((x[1] - 2.0).abs() < 1e-12);
    }

    #[test]
    fn inverse_roundtrip() {
        let a = Mat::from_rows(&[&[4.0, 7.0, 2.0], &[3.0, 6.0, 1.0], &[2.0, 5.0, 3.0]]);
        let inv = inverse(&a).unwrap();
        assert!(a.matmul(&inv).approx_eq(&Mat::eye(3), 1e-10));
        assert!(inv.matmul(&a).approx_eq(&Mat::eye(3), 1e-10));
    }

    #[test]
    fn singular_detected() {
        let a = Mat::from_rows(&[&[1.0, 2.0], &[2.0, 4.0]]);
        assert!(matches!(Lu::new(&a), Err(LinalgError::Singular { .. })));
    }

    #[test]
    fn non_square_rejected() {
        let a = Mat::zeros(2, 3);
        assert!(matches!(Lu::new(&a), Err(LinalgError::ShapeMismatch(_))));
    }

    #[test]
    fn solve_mat_identity_gives_inverse() {
        let a = Mat::from_rows(&[&[2.0, 0.0], &[0.0, 4.0]]);
        let inv = inverse(&a).unwrap();
        assert!(inv.approx_eq(&Mat::from_rows(&[&[0.5, 0.0], &[0.0, 0.25]]), 1e-12));
    }
}
