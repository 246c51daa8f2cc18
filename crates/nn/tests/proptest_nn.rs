//! Property-based tests for tensors, kernels, and layer invariants.

use dbat_nn::{
    matmul2d, matmul2d_naive, matmul2d_nt, matmul2d_tn, InitRng, Linear, Module, PackedLinear,
    Standardizer, Tensor,
};
use proptest::prelude::*;

fn tensor(shape: Vec<usize>) -> impl Strategy<Value = Tensor> {
    let n: usize = shape.iter().product();
    prop::collection::vec(-3.0f64..3.0, n).prop_map(move |v| Tensor::new(shape.clone(), v))
}

/// Ragged matmul operand pair `[m,k] x [k,n]`: dims straddle the packed
/// kernel's register-tile sizes (MR=4, NR=8) and the `gemm_worthwhile`
/// dispatch threshold, so both the packed and the naive path get exercised.
fn matmul_pair() -> impl Strategy<Value = (Tensor, Tensor)> {
    (
        1usize..48,
        1usize..24,
        1usize..24,
        prop::collection::vec(-3.0f64..3.0, 48 * 24 + 24 * 24),
    )
        .prop_map(|(m, n, k, data)| {
            let a = Tensor::new(vec![m, k], data[..m * k].to_vec());
            let b = Tensor::new(vec![k, n], data[m * k..m * k + k * n].to_vec());
            (a, b)
        })
}

/// The transpose of a 2-D tensor (operand builder for the NT/TN kernels).
fn transpose(t: &Tensor) -> Tensor {
    let (r, c) = (t.shape()[0], t.shape()[1]);
    let data = (0..c * r).map(|i| t.data()[(i % r) * c + i / r]).collect();
    Tensor::new(vec![c, r], data)
}

/// Row softmax of `t` on the kernel the attention op runs.
fn softmax_rows(t: &Tensor) -> Vec<f64> {
    let mut out = t.data().to_vec();
    dbat_linalg::softmax_rows_inplace(&mut out, t.shape()[1]);
    out
}

fn assert_close(packed: &Tensor, naive: &Tensor, tol: f64) {
    assert_eq!(packed.shape(), naive.shape());
    for (x, y) in packed.data().iter().zip(naive.data()) {
        assert!(
            (x - y).abs() <= tol * (1.0 + y.abs()),
            "packed {x} vs naive {y}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn matmul_identity_neutral(a in tensor(vec![5, 7])) {
        let id = {
            let mut d = vec![0.0; 49];
            for i in 0..7 { d[i * 7 + i] = 1.0; }
            Tensor::new(vec![7, 7], d)
        };
        let out = matmul2d(&a, &id);
        for (x, y) in out.data().iter().zip(a.data()) {
            prop_assert!((x - y).abs() < 1e-12);
        }
    }

    #[test]
    fn softmax_rows_are_distributions(t in tensor(vec![4, 6])) {
        for row in softmax_rows(&t).chunks(6) {
            let sum: f64 = row.iter().sum();
            prop_assert!((sum - 1.0).abs() < 1e-10);
            prop_assert!(row.iter().all(|&x| x >= 0.0));
        }
    }

    #[test]
    fn softmax_invariant_to_row_shift(t in tensor(vec![2, 5]), c in -10.0f64..10.0) {
        let shifted = t.map(|x| x + c);
        for (x, y) in softmax_rows(&t).iter().zip(&softmax_rows(&shifted)) {
            prop_assert!((x - y).abs() < 1e-10);
        }
    }

    #[test]
    fn standardizer_roundtrips(t in tensor(vec![8, 3])) {
        let s = Standardizer::fit(&t);
        let back = s.inverse(&s.transform(&t));
        for (x, y) in back.data().iter().zip(t.data()) {
            prop_assert!((x - y).abs() < 1e-9);
        }
    }

    #[test]
    fn linear_is_affine(x1 in tensor(vec![1, 4]), x2 in tensor(vec![1, 4]), alpha in -2.0f64..2.0) {
        // f(a·x1 + (1-a)·x2) = a·f(x1) + (1-a)·f(x2) for affine f.
        let lin = PackedLinear::compile(&Linear::new(4, 3, &mut InitRng::new(5)));
        let apply = |x: &Tensor| {
            let mut y = vec![0.0; 3];
            lin.forward(1, x.data(), &mut y);
            Tensor::new(vec![1, 3], y)
        };
        let mix = x1.zip(&x2, |a, b| alpha * a + (1.0 - alpha) * b);
        let lhs = apply(&mix);
        let y1 = apply(&x1);
        let y2 = apply(&x2);
        for ((l, a), b) in lhs.data().iter().zip(y1.data()).zip(y2.data()) {
            let rhs = alpha * a + (1.0 - alpha) * b;
            prop_assert!((l - rhs).abs() < 1e-9);
        }
    }

    #[test]
    fn packed_matmul2d_matches_naive(ab in matmul_pair()) {
        let (a, b) = ab;
        assert_close(&matmul2d(&a, &b), &matmul2d_naive(&a, &b), 1e-12);
    }

    #[test]
    fn packed_matmul2d_nt_matches_naive(ab in matmul_pair()) {
        // [m,k] @ [n,k]ᵀ — build the NT operand by transposing b.
        let (a, b) = ab;
        let bt = transpose(&b);
        assert_close(&matmul2d_nt(&a, &bt), &matmul2d_naive(&a, &b), 1e-12);
    }

    #[test]
    fn packed_matmul2d_tn_matches_naive(ab in matmul_pair()) {
        // [k,m]ᵀ @ [k,n] — build the TN operand by transposing a.
        let (a, b) = ab;
        let at = transpose(&a);
        assert_close(&matmul2d_tn(&at, &b), &matmul2d_naive(&a, &b), 1e-12);
    }

    #[test]
    fn module_param_order_stable(seed in 0u64..1000) {
        let lin = Linear::new(3, 2, &mut InitRng::new(seed));
        let params = lin.parameters();
        prop_assert_eq!(params[0].shape(), &[3, 2]);
        prop_assert_eq!(params[1].shape(), &[2]);
        prop_assert_eq!(lin.num_parameters(), 8);
    }
}

/// Deterministic sweep over dims that sit exactly on and around the packed
/// kernel's tile edges (4- and 8-row tiles over 8-wide panels, 4-wide
/// vectors for the last columns), so
/// every remainder-handling branch is covered regardless of what proptest
/// happens to generate.
#[test]
fn packed_kernels_match_naive_on_tile_edges() {
    let dims = [1usize, 3, 4, 5, 7, 8, 9, 16, 17, 33];
    let fill = |shape: Vec<usize>, seed: usize| {
        let n: usize = shape.iter().product();
        let data = (0..n)
            .map(|i| (((i * 2654435761 + seed * 40503) % 1000) as f64 - 500.0) / 250.0)
            .collect();
        Tensor::new(shape, data)
    };
    for &m in &dims {
        for &n in &dims {
            for &k in &dims {
                let a = fill(vec![m, k], m + 7 * n);
                let b = fill(vec![k, n], k + 13 * m);
                let packed = matmul2d(&a, &b);
                let naive = matmul2d_naive(&a, &b);
                for (x, y) in packed.data().iter().zip(naive.data()) {
                    assert!(
                        (x - y).abs() <= 1e-12 * (1.0 + y.abs()),
                        "matmul2d {m}x{k}x{n}: packed {x} vs naive {y}"
                    );
                }
            }
        }
    }
}
