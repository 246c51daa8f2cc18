//! Kronecker products, used to assemble expanded generators
//! (MAP phase ⊗ counting level) in the BATCH analytic model.

use crate::matrix::Mat;

/// Kronecker product `A ⊗ B`.
pub fn kron(a: &Mat, b: &Mat) -> Mat {
    let (ar, ac) = (a.rows(), a.cols());
    let (br, bc) = (b.rows(), b.cols());
    let mut out = Mat::zeros(ar * br, ac * bc);
    for i in 0..ar {
        for j in 0..ac {
            let s = a[(i, j)];
            if s == 0.0 {
                continue;
            }
            for p in 0..br {
                for q in 0..bc {
                    out[(i * br + p, j * bc + q)] = s * b[(p, q)];
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kron_small() {
        let a = Mat::from_rows(&[&[1.0, 2.0]]);
        let b = Mat::from_rows(&[&[0.0, 3.0], &[4.0, 5.0]]);
        let k = kron(&a, &b);
        assert_eq!(k.rows(), 2);
        assert_eq!(k.cols(), 4);
        assert_eq!(k[(0, 1)], 3.0);
        assert_eq!(k[(1, 0)], 4.0);
        assert_eq!(k[(0, 3)], 6.0);
        assert_eq!(k[(1, 2)], 8.0);
    }

    #[test]
    fn kron_identity() {
        let a = Mat::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        assert_eq!(kron(&Mat::eye(1), &a), a);
    }

    #[test]
    fn kron_mixed_product_property() {
        // (A⊗B)(C⊗D) = (AC)⊗(BD)
        let a = Mat::from_rows(&[&[1.0, 2.0], &[0.0, 1.0]]);
        let b = Mat::from_rows(&[&[2.0, 0.0], &[1.0, 1.0]]);
        let c = Mat::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]);
        let d = Mat::from_rows(&[&[1.0, 1.0], &[0.0, 2.0]]);
        let lhs = kron(&a, &b).matmul(&kron(&c, &d));
        let rhs = kron(&a.matmul(&c), &b.matmul(&d));
        assert!(lhs.approx_eq(&rhs, 1e-12));
    }
}
