//! Property-based tests for the linear-algebra substrate.

use dbat_linalg::gemm::{gemm_prepacked_with, gemm_with};
use dbat_linalg::{
    ctmc_stationary, expm, gemm, gemm_prepacked, kron, solve, Chains, Layout, Mat, PackedMat, Tier,
    Uniformizer,
};
use proptest::prelude::*;

/// Strategy: a small random matrix with entries in [-5, 5].
fn mat(rows: usize, cols: usize) -> impl Strategy<Value = Mat> {
    prop::collection::vec(-5.0f64..5.0, rows * cols).prop_map(move |v| Mat::from_vec(rows, cols, v))
}

/// Strategy: an irreducible CTMC generator of order `n` with rates in
/// (0.05, 5): all off-diagonals strictly positive.
fn generator(n: usize) -> impl Strategy<Value = Mat> {
    prop::collection::vec(0.05f64..5.0, n * n).prop_map(move |v| {
        let mut q = Mat::from_vec(n, n, v);
        for i in 0..n {
            q[(i, i)] = 0.0;
            let s: f64 = q.row(i).iter().sum();
            q[(i, i)] = -s;
        }
        q
    })
}

proptest! {
    #[test]
    fn matmul_associative(a in mat(4, 3), b in mat(3, 5), c in mat(5, 2)) {
        let lhs = a.matmul(&b).matmul(&c);
        let rhs = a.matmul(&b.matmul(&c));
        prop_assert!(lhs.approx_eq(&rhs, 1e-8));
    }

    #[test]
    fn matmul_distributes_over_add(a in mat(3, 4), b in mat(4, 3), c in mat(4, 3)) {
        let lhs = a.matmul(&(&b + &c));
        let rhs = &a.matmul(&b) + &a.matmul(&c);
        prop_assert!(lhs.approx_eq(&rhs, 1e-9));
    }

    #[test]
    fn transpose_of_product(a in mat(3, 4), b in mat(4, 2)) {
        let lhs = a.matmul(&b).t();
        let rhs = b.t().matmul(&a.t());
        prop_assert!(lhs.approx_eq(&rhs, 1e-9));
    }

    #[test]
    fn solve_recovers_rhs(q in generator(4), x in prop::collection::vec(-3.0f64..3.0, 4)) {
        // Q + I is comfortably non-singular for generators with these rates.
        let mut a = q;
        for i in 0..4 { a[(i, i)] += 10.0; }
        let b = a.matvec(&x);
        let got = solve(&a, &b).unwrap();
        for (g, e) in got.iter().zip(&x) {
            prop_assert!((g - e).abs() < 1e-7, "{g} vs {e}");
        }
    }

    #[test]
    fn expm_of_generator_is_stochastic(q in generator(3), t in 0.01f64..3.0) {
        let e = expm(&q.scale(t));
        for s in e.row_sums() {
            prop_assert!((s - 1.0).abs() < 1e-9);
        }
        prop_assert!(e.data().iter().all(|&x| x >= -1e-10));
    }

    #[test]
    fn uniformizer_agrees_with_expm(q in generator(3), t in 0.0f64..2.0) {
        let u = Uniformizer::new(&q, 1e-12);
        let v = [0.3, 0.3, 0.4];
        let a = u.evolve(&v, t);
        let b = expm(&q.scale(t)).vecmat(&v);
        for (x, y) in a.iter().zip(&b) {
            prop_assert!((x - y).abs() < 1e-7, "{x} vs {y} at t={t}");
        }
    }

    #[test]
    fn stationary_is_fixed_point(q in generator(4)) {
        let pi = ctmc_stationary(&q).unwrap();
        prop_assert!((pi.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        let r = q.vecmat(&pi);
        for x in r {
            prop_assert!(x.abs() < 1e-10);
        }
    }

    #[test]
    fn kron_dimensions_and_bilinearity(a in mat(2, 3), b in mat(3, 2), s in -2.0f64..2.0) {
        let k = kron(&a, &b);
        prop_assert_eq!(k.rows(), 6);
        prop_assert_eq!(k.cols(), 6);
        // (sA) ⊗ B = s (A ⊗ B)
        let lhs = kron(&a.scale(s), &b);
        prop_assert!(lhs.approx_eq(&k.scale(s), 1e-9));
    }
}

proptest! {
    // Pre-packing B once is bitwise-identical to the per-call pack, on
    // ragged shapes straddling tile widths, for both the dispatched and
    // the pinned-scalar tile and both B layouts.
    #[test]
    fn prepacked_matches_per_call_pack_bitwise(
        m in 1usize..40, n in 1usize..40, k in 1usize..24, seed in 0u64..1000,
        flags in 0u8..4
    ) {
        check_prepacked(m, n, k, seed, flags & 1 != 0, flags & 2 != 0);
    }
}

fn check_prepacked(
    m: usize,
    n: usize,
    k: usize,
    seed: u64,
    b_transposed: bool,
    force_scalar: bool,
) {
    let a = pseudo(m * k, seed);
    let b = pseudo(k * n, seed ^ 0xBEEF);
    let layout = if b_transposed {
        Layout::Transposed
    } else {
        Layout::Normal
    };
    let mut want = vec![0.0; m * n];
    if force_scalar {
        gemm_with(
            m,
            n,
            k,
            &a,
            Layout::Normal,
            &b,
            layout,
            &mut want,
            Tier::Scalar,
        );
    } else {
        gemm(m, n, k, &a, Layout::Normal, &b, layout, &mut want);
    }
    let packed = PackedMat::pack(&b, layout, k, n);
    let mut got = vec![0.0; m * n];
    if force_scalar {
        gemm_prepacked_with(
            m,
            &a,
            Layout::Normal,
            &packed,
            Chains::default(),
            &mut got,
            Tier::Scalar,
        );
    } else {
        gemm_prepacked(m, &a, Layout::Normal, &packed, Chains::default(), &mut got);
    }
    assert_eq!(got, want);
}

/// Cheap deterministic pseudo-random values in [-2, 2].
fn pseudo(n: usize, seed: u64) -> Vec<f64> {
    let mut x = seed.wrapping_mul(0x9E3779B97F4A7C15).max(1);
    (0..n)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x % 4000) as f64 / 1000.0 - 2.0
        })
        .collect()
}

proptest! {
    // Each vector tier the CPU runs (A read in place, the bias and ReLU in
    // the tile's store) against a plain `mul_add` reference, and the two
    // against each other, bit for bit, on ragged `m`, `k` and the
    // encoder's widths; and on every tier, a product whose A rows share
    // their first `s` columns split there: the shared row's product
    // started into the rest is the whole product's bits.
    #[test]
    fn chained_gemm_matches_across_tiers_and_splits(
        m in 1usize..40, k in 1usize..=40, ni in 0usize..4, split in 0usize..=40,
        seed in 0u64..1000, flags in 0u8..8,
    ) {
        let n = [5, 16, 32, 48][ni];
        check_chains(m, k, n, split.min(k), seed, flags & 1 != 0, flags & 2 != 0, flags & 4 != 0);
    }
}

/// The vector tiers' reference, written apart from them: each output a
/// `mul_add` chain over `k` in ascending order from `start[j]`, then the
/// bias added and the ReLU applied.
fn reference_chains(m: usize, n: usize, k: usize, a: &[f64], b: &[f64], c: Chains) -> Vec<f64> {
    (0..m * n)
        .map(|e| {
            let (i, j) = (e / n, e % n);
            let from = c.start.map_or(0.0, |s| s[j]);
            let mut x = (0..k).fold(from, |acc, p| a[i * k + p].mul_add(b[p * n + j], acc));
            if let Some(bias) = c.bias {
                x += bias[j];
            }
            if c.relu {
                x = x.max(0.0);
            }
            x
        })
        .collect()
}

#[allow(clippy::too_many_arguments)]
fn check_chains(
    m: usize,
    k: usize,
    n: usize,
    s: usize,
    seed: u64,
    hostile: bool,
    with_bias: bool,
    relu: bool,
) {
    let mut a = pseudo(m * k, seed);
    let mut b = pseudo(k * n, seed ^ 0xF00D);
    let mut start = pseudo(n, seed ^ 0xCAFE);
    let mut bias = pseudo(n, seed ^ 0xBEAD);
    if hostile {
        // A zero row started from -0.0 with a -0.0 bias ends at -0.0
        // before the ReLU; ±∞, NaN and 1e300 poison their columns.
        a[(m / 2) * k..(m / 2 + 1) * k].fill(0.0);
        start[0] = -0.0;
        bias[0] = -0.0;
        a[0] = f64::INFINITY;
        b[k * n - 1] = f64::NAN;
        b[n / 2] = 1e300;
        start[n - 1] = f64::NEG_INFINITY;
    }
    let bias = with_bias.then_some(&bias[..]);
    let packed = PackedMat::pack(&b, Layout::Normal, k, n);
    let run = |a: &[f64], tier: Tier, chains: Chains| {
        let mut out = vec![0.0; m * n];
        gemm_prepacked_with(m, a, Layout::Normal, &packed, chains, &mut out, tier);
        out
    };
    let same = |got: &[f64], want: &[f64], what: &str| {
        for (i, (g, w)) in got.iter().zip(want).enumerate() {
            assert!(
                g.to_bits() == w.to_bits() || (g.is_nan() && w.is_nan()),
                "({m},{n},{k}) {what} element {i}: {g:e} vs {w:e}"
            );
        }
    };
    let chains = Chains {
        start: Some(&start),
        bias,
        relu,
    };
    let want = reference_chains(m, n, k, &a, &b, chains);
    let vector: Vec<Vec<f64>> = [Tier::Avx2, Tier::Avx512]
        .into_iter()
        .filter(|t| t.supported())
        .map(|tier| {
            let got = run(&a, tier, chains);
            same(&got, &want, &format!("{tier:?} vs reference"));
            got
        })
        .collect();
    if let [avx2, avx512] = &vector[..] {
        same(avx512, avx2, "AVX-512 vs AVX2");
    }
    // The split: rows share A[.., ..s] (row 0's), then go their own way.
    for row in 1..m {
        let (head, tail) = a.split_at_mut(row * k);
        tail[..s].copy_from_slice(&head[..s]);
    }
    let rest: Vec<f64> = a.chunks(k).flat_map(|r| r[s..].to_vec()).collect();
    let (top, bottom) = b.split_at(s * n);
    let (top, bottom) = (
        PackedMat::pack(top, Layout::Normal, s, n),
        PackedMat::pack(bottom, Layout::Normal, k - s, n),
    );
    for tier in Tier::ALL.into_iter().filter(|t| t.supported()) {
        let want = run(&a, tier, chains);
        let mut prefix = vec![0.0; n];
        let from = Chains {
            start: Some(&start),
            ..Chains::default()
        };
        gemm_prepacked_with(1, &a[..s], Layout::Normal, &top, from, &mut prefix, tier);
        let mut got = vec![0.0; m * n];
        let cont = Chains {
            start: Some(&prefix),
            ..chains
        };
        gemm_prepacked_with(m, &rest, Layout::Normal, &bottom, cont, &mut got, tier);
        same(&got, &want, &format!("{tier:?} split at {s}"));
    }
}
