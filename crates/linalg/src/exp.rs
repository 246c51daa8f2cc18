//! Deterministic vectorised `exp` for softmax rows.
//!
//! The attention softmax is the single hottest non-GEMM kernel on the
//! decision path: one full-grid decision at `seq_len = 128` evaluates
//! `layers · heads · seq²` ≈ 131 k exponentials, and libm's scalar `exp`
//! alone costs more than every matmul in the encoder combined. This
//! module replaces it with a branch-free Cody–Waite range reduction plus
//! a degree-13 Taylor–Horner polynomial, evaluated 4 lanes at a time
//! with AVX2+FMA where available, several vectors in flight at once. On
//! the decision path the caller is [`crate::attention`]'s fused head,
//! which runs the row softmax over one L1-resident block of score rows
//! at a time; the autograd graph calls the same routine over whole
//! `[rows, d]` tensors.
//!
//! Determinism contract (the same one the GEMM micro-kernels honour):
//! the scalar path executes the *same* sequence of correctly-rounded
//! IEEE operations (`mul_add` ≡ fused multiply-add) as the AVX2 lanes,
//! so both paths produce **bitwise identical** results and
//! `DBAT_GEMM_FORCE_SCALAR=1` swaps implementations without changing a
//! single output bit. Accuracy is a few ulps against libm `exp`; the
//! softmax callers only ever see max-subtracted inputs in `(-inf, 0]`.
//!
//! Out-of-range behaviour: inputs at or below [`EXP_LO`] flush to
//! exactly `0.0` (this covers `-inf`), inputs at or above [`EXP_HI`]
//! saturate to `+inf`, and NaN propagates.

// The range-reduction and polynomial constants are written with their
// full decimal expansions so they can be checked digit-for-digit against
// fdlibm; the extra digits round to the same f64.
#![allow(clippy::excessive_precision)]

/// log2(e), the range-reduction multiplier.
const LOG2E: f64 = std::f64::consts::LOG2_E;
/// `1.5 * 2^52`: adding then subtracting this rounds to the nearest
/// integer under the default round-to-nearest mode, leaving the integer
/// in the low mantissa bits of the sum.
const SHIFT: f64 = 6755399441055744.0;
/// Cody–Waite high part of ln 2 (fdlibm's split).
const LN2_HI: f64 = 6.931_471_803_691_238_16e-1;
/// Cody–Waite low part of ln 2.
const LN2_LO: f64 = 1.908_214_929_270_587_70e-10;
/// Below this the result flushes to `0.0` (exp(-708) ≈ 3.3e-308 is the
/// last comfortably-normal value).
pub const EXP_LO: f64 = -708.0;
/// At or above this the result saturates to `+inf`.
pub const EXP_HI: f64 = 709.0;

/// Taylor coefficients `1/k!` for `k = 13, 12, …, 2`; the final two
/// Horner steps add the implicit `1·r` and `1` terms. Truncation error
/// over `|r| ≤ ln2/2` is ≈ `r¹⁴/14!` ≈ 4e-18 — below one ulp.
const POLY: [f64; 12] = [
    1.612_059_739_071_444_7e-10, // 1/13!
    2.087_675_698_786_810_0e-9,  // 1/12!
    2.505_210_838_544_172_0e-8,  // 1/11!
    2.755_731_922_398_589_1e-7,  // 1/10!
    2.755_731_922_398_589_4e-6,  // 1/9!
    2.480_158_730_158_730_2e-5,  // 1/8!
    1.984_126_984_126_984_1e-4,  // 1/7!
    1.388_888_888_888_889_0e-3,  // 1/6!
    8.333_333_333_333_333_3e-3,  // 1/5!
    4.166_666_666_666_666_4e-2,  // 1/4!
    1.666_666_666_666_666_6e-1,  // 1/3!
    5.0e-1,                      // 1/2!
];

/// Scalar fast `exp`, bitwise identical to one AVX2 lane of
/// [`exp_inplace`]: every operation is a correctly-rounded IEEE
/// mul/add/fma, so the instruction set cannot change the result.
#[inline]
#[allow(clippy::neg_cmp_op_on_partial_ord)] // `!(x > LO)` must catch NaN
pub fn exp_rn(x: f64) -> f64 {
    if !(x > EXP_LO) {
        // Covers -inf and NaN (which falls through the comparison).
        return if x.is_nan() { x } else { 0.0 };
    }
    if x >= EXP_HI {
        return f64::INFINITY;
    }
    // n = round(x / ln2) via the magic-shifter trick; r = x - n·ln2 in
    // two Cody–Waite steps so r keeps full precision.
    let t = x.mul_add(LOG2E, SHIFT);
    let n = t - SHIFT;
    let mut r = n.mul_add(-LN2_HI, x);
    r = n.mul_add(-LN2_LO, r);
    // p ≈ exp(r) over |r| ≤ ln2/2, Horner with fma throughout.
    let mut p = POLY[0];
    for &c in &POLY[1..] {
        p = p.mul_add(r, c);
    }
    p = p.mul_add(r, 1.0);
    p = p.mul_add(r, 1.0);
    // 2^n assembled directly in the exponent field: the low bits of t
    // hold n (two's complement), so shifting into the exponent and
    // adding the bias of 1.0 yields the bit pattern of 2^n.
    let scale = f64::from_bits((t.to_bits() << 52).wrapping_add(0x3FF0_0000_0000_0000));
    p * scale
}

/// Vectors per iteration of the AVX2 exp passes. One vector's Horner
/// chain is 14 dependent FMAs, so a one-vector loop leaves the FMA ports
/// waiting on latency; [`exp_lanes`] steps `WIDE` independent vectors
/// together instead. Measured on a 128-wide softmax row: 0.66× the
/// one-vector loop at 4, 0.74× at 2, 0.63× at 8 (which leaves more of a
/// short row to the one-vector remainder).
#[cfg(target_arch = "x86_64")]
const WIDE: usize = 4;

/// `N` vectors of four [`exp_rn`] lanes each: per lane the same sequence
/// of correctly-rounded ops, with the flush (and, under `SATURATE`, the
/// saturate) guard applied as a mask. Each step is written across all
/// `N` vectors before the next begins (per-vector source order measured
/// 0.74× where this measures 0.66×). The one lane body shared by
/// [`exp_inplace`] and the softmax rows; softmax inputs are
/// max-subtracted (`<= 0` or NaN), so it skips the saturate guard that
/// can never fire there.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
#[inline]
fn exp_lanes<const N: usize, const SATURATE: bool>(
    x: [std::arch::x86_64::__m256d; N],
) -> [std::arch::x86_64::__m256d; N] {
    use std::arch::x86_64::*;
    let shift = _mm256_set1_pd(SHIFT);
    let one = _mm256_set1_pd(1.0);
    let t = x.map(|x| _mm256_fmadd_pd(x, _mm256_set1_pd(LOG2E), shift));
    let n = t.map(|t| _mm256_sub_pd(t, shift));
    let mut r = x;
    for i in 0..N {
        r[i] = _mm256_fmadd_pd(n[i], _mm256_set1_pd(-LN2_HI), x[i]);
    }
    for i in 0..N {
        r[i] = _mm256_fmadd_pd(n[i], _mm256_set1_pd(-LN2_LO), r[i]);
    }
    let mut p = [_mm256_set1_pd(POLY[0]); N];
    for &cf in &POLY[1..] {
        for i in 0..N {
            p[i] = _mm256_fmadd_pd(p[i], r[i], _mm256_set1_pd(cf));
        }
    }
    for _ in 0..2 {
        for i in 0..N {
            p[i] = _mm256_fmadd_pd(p[i], r[i], one);
        }
    }
    let mut y = p;
    for i in 0..N {
        let scale = _mm256_castsi256_pd(_mm256_add_epi64(
            _mm256_slli_epi64(_mm256_castpd_si256(t[i]), 52),
            _mm256_set1_epi64x(0x3FF0_0000_0000_0000_u64 as i64),
        ));
        y[i] = _mm256_mul_pd(p[i], scale);
        // Saturate/flush exactly as the scalar guards do; NaN lanes fail
        // both compares and keep the propagated NaN in y.
        if SATURATE {
            let hi = _mm256_cmp_pd::<_CMP_GE_OQ>(x[i], _mm256_set1_pd(EXP_HI));
            y[i] = _mm256_blendv_pd(y[i], _mm256_set1_pd(f64::INFINITY), hi);
        }
        let lo = _mm256_cmp_pd::<_CMP_LE_OQ>(x[i], _mm256_set1_pd(EXP_LO));
        y[i] = _mm256_andnot_pd(lo, y[i]);
    }
    y
}

/// `exp` over `N` consecutive vectors at `p`, in place.
///
/// # Safety
/// `p` must be valid for `4 * N` reads and writes.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
#[inline]
unsafe fn exp_vectors<const N: usize>(p: *mut f64) {
    use std::arch::x86_64::*;
    let mut x = [_mm256_setzero_pd(); N];
    for (i, x) in x.iter_mut().enumerate() {
        *x = _mm256_loadu_pd(p.add(4 * i));
    }
    for (i, y) in exp_lanes::<N, true>(x).into_iter().enumerate() {
        _mm256_storeu_pd(p.add(4 * i), y);
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn exp_inplace_avx2(xs: &mut [f64]) {
    let mut wide = xs.chunks_exact_mut(4 * WIDE);
    for c in &mut wide {
        exp_vectors::<WIDE>(c.as_mut_ptr());
    }
    let mut narrow = wide.into_remainder().chunks_exact_mut(4);
    for c in &mut narrow {
        exp_vectors::<1>(c.as_mut_ptr());
    }
    for x in narrow.into_remainder() {
        *x = exp_rn(*x);
    }
}

/// Replace every element of `xs` with its exponential. Dispatches to the
/// AVX2+FMA lanes on capable x86-64 hosts (unless
/// `DBAT_GEMM_FORCE_SCALAR=1`), the scalar mirror elsewhere — bitwise
/// identical either way.
pub fn exp_inplace(xs: &mut [f64]) {
    #[cfg(target_arch = "x86_64")]
    if crate::gemm::use_fma_kernels() {
        // SAFETY: use_fma_kernels() verified avx2+fma at runtime.
        unsafe { exp_inplace_avx2(xs) };
        return;
    }
    for x in xs.iter_mut() {
        *x = exp_rn(*x);
    }
}

/// Scalar mirror of one softmax row, executing the *same* chunk-of-4
/// accumulator structure as the AVX2 path so results are bitwise
/// identical: 4 partial sums over full chunks combined as
/// `(s0 + s2) + (s1 + s3)`, then the tail added left to right, then one
/// reciprocal shared by every element (one division per row, not `d`).
///
/// `scale` is folded into the max-subtract pass: because rounding is
/// monotone and `scale > 0`, `max_i rnd(scale·x_i) = rnd(scale·max_i
/// x_i)`, and each element recomputes `rnd(scale·x_i)` before the
/// subtract — so the result is bit-for-bit what a separate
/// multiply-by-`scale` pass followed by an unscaled softmax would give.
/// With `scale = 1.0` the multiply is exact and this *is* the unscaled
/// softmax.
fn softmax_row_scalar(row: &mut [f64], scale: f64) {
    let mut max = f64::NEG_INFINITY;
    for &v in row.iter() {
        max = max.max(v);
    }
    let m = scale * max;
    let mut acc = [0.0f64; 4];
    let mut chunks = row.chunks_exact_mut(4);
    for c in &mut chunks {
        for (a, v) in acc.iter_mut().zip(c.iter_mut()) {
            *v = exp_rn(*v * scale - m);
            *a += *v;
        }
    }
    let mut sum = (acc[0] + acc[2]) + (acc[1] + acc[3]);
    for v in chunks.into_remainder() {
        *v = exp_rn(*v * scale - m);
        sum += *v;
    }
    let inv = 1.0 / sum;
    for v in row.iter_mut() {
        *v *= inv;
    }
}

/// `exp(scale·x - m)` over `N` consecutive vectors at `p`, in place,
/// adding them to the row's 4-lane partial sums in order.
///
/// # Safety
/// `p` must be valid for `4 * N` reads and writes.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
#[inline]
unsafe fn softmax_exp_vectors<const N: usize>(
    p: *mut f64,
    scale: std::arch::x86_64::__m256d,
    m: std::arch::x86_64::__m256d,
    mut acc: std::arch::x86_64::__m256d,
) -> std::arch::x86_64::__m256d {
    use std::arch::x86_64::*;
    let mut x = [_mm256_setzero_pd(); N];
    for (i, x) in x.iter_mut().enumerate() {
        *x = _mm256_sub_pd(_mm256_mul_pd(_mm256_loadu_pd(p.add(4 * i)), scale), m);
    }
    for (i, y) in exp_lanes::<N, false>(x).into_iter().enumerate() {
        _mm256_storeu_pd(p.add(4 * i), y);
        acc = _mm256_add_pd(acc, y);
    }
    acc
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn softmax_row_avx2(row: &mut [f64], scale: f64) {
    use std::arch::x86_64::*;
    // Max scan over the *raw* values. Order-insensitive for the finite
    // scores softmax sees (±0 ties cannot change any downstream bit), so
    // two vector accumulators (halving the dependent max chain) plus a
    // scalar tail are safe. The scale is applied to the max once
    // afterwards — see softmax_row_scalar for why that is bitwise equal to
    // scaling first.
    let ninf = _mm256_set1_pd(f64::NEG_INFINITY);
    let (mut m4, mut n4) = (ninf, ninf);
    let mut chunks = row.chunks_exact(8);
    for c in &mut chunks {
        m4 = _mm256_max_pd(m4, _mm256_loadu_pd(c.as_ptr()));
        n4 = _mm256_max_pd(n4, _mm256_loadu_pd(c.as_ptr().add(4)));
    }
    let mut tail = chunks.remainder();
    if tail.len() >= 4 {
        m4 = _mm256_max_pd(m4, _mm256_loadu_pd(tail.as_ptr()));
        tail = &tail[4..];
    }
    m4 = _mm256_max_pd(m4, n4);
    let lo = _mm256_castpd256_pd128(m4);
    let hi = _mm256_extractf128_pd::<1>(m4);
    let m2 = _mm_max_pd(lo, hi);
    let mut max = _mm_cvtsd_f64(_mm_max_sd(m2, _mm_unpackhi_pd(m2, m2)));
    for &v in tail {
        max = max.max(v);
    }
    let m = scale * max;

    // exp(scale·x - m), accumulating the 4-lane partial sums in the same
    // pass, WIDE vectors at a time and then one at a time.
    let (cv, mv) = (_mm256_set1_pd(scale), _mm256_set1_pd(m));
    let mut acc = _mm256_setzero_pd();
    let mut wide = row.chunks_exact_mut(4 * WIDE);
    for c in &mut wide {
        acc = softmax_exp_vectors::<WIDE>(c.as_mut_ptr(), cv, mv, acc);
    }
    let mut narrow = wide.into_remainder().chunks_exact_mut(4);
    for c in &mut narrow {
        acc = softmax_exp_vectors::<1>(c.as_mut_ptr(), cv, mv, acc);
    }
    // (s0 + s2) + (s1 + s3), matching softmax_row_scalar.
    let a_lo = _mm256_castpd256_pd128(acc);
    let a_hi = _mm256_extractf128_pd::<1>(acc);
    let a2 = _mm_add_pd(a_lo, a_hi);
    let mut sum = _mm_cvtsd_f64(a2) + _mm_cvtsd_f64(_mm_unpackhi_pd(a2, a2));
    for v in narrow.into_remainder() {
        *v = exp_rn(*v * scale - m);
        sum += *v;
    }

    // One reciprocal per row, then a multiply pass; mul is correctly
    // rounded, so vector lanes match scalar bitwise.
    let inv = 1.0 / sum;
    let sv = _mm256_set1_pd(inv);
    let mut chunks = row.chunks_exact_mut(4);
    for c in &mut chunks {
        let y = _mm256_mul_pd(_mm256_loadu_pd(c.as_ptr()), sv);
        _mm256_storeu_pd(c.as_mut_ptr(), y);
    }
    for v in chunks.into_remainder() {
        *v *= inv;
    }
}

/// In-place softmax over consecutive rows of width `d`: max-subtract,
/// [`exp_rn`]-family exponentials, a fixed-order 4-lane sum, and one
/// reciprocal-multiply normalisation — all fused into three passes per
/// row. Dispatches like [`exp_inplace`] and is bitwise identical on
/// every path. This is *the* softmax for both the autograd graph and
/// the fused attention head of the compiled inference plans; keeping
/// them on one kernel is what lets the graph-free fast path mirror the
/// graph bit for bit.
pub fn softmax_rows_inplace(xs: &mut [f64], d: usize) {
    softmax_rows_scaled_inplace(xs, d, 1.0);
}

/// As [`softmax_rows_inplace`], computing `softmax(scale · x)` per row
/// without a separate scaling pass. Requires `scale > 0`; the result is
/// bitwise identical to multiplying every element by `scale` first and
/// then calling [`softmax_rows_inplace`] (monotone rounding makes the
/// fused max/subtract exact — see `softmax_row_scalar`'s notes). This
/// is what lets attention fold its `1/√d_h` score scaling into the
/// softmax for free while staying bit-equal to the graph path's
/// scale-then-softmax ops.
pub fn softmax_rows_scaled_inplace(xs: &mut [f64], d: usize, scale: f64) {
    debug_assert!(scale > 0.0, "softmax scale must be positive");
    if d == 0 {
        return;
    }
    #[cfg(target_arch = "x86_64")]
    if crate::gemm::use_fma_kernels() {
        for row in xs.chunks_mut(d) {
            // SAFETY: use_fma_kernels() verified avx2+fma at runtime.
            unsafe { softmax_row_avx2(row, scale) };
        }
        return;
    }
    for row in xs.chunks_mut(d) {
        softmax_row_scalar(row, scale);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ulp_diff(a: f64, b: f64) -> u64 {
        (a.to_bits() as i64 - b.to_bits() as i64).unsigned_abs()
    }

    #[test]
    fn matches_libm_within_a_few_ulps() {
        // The softmax domain (max-subtracted scores) plus a positive leg.
        let mut worst = 0u64;
        let mut i = 0u64;
        let mut x = -700.0;
        while x < 700.0 {
            let got = exp_rn(x);
            let want = x.exp();
            let d = ulp_diff(got, want);
            if d > worst {
                worst = d;
            }
            i += 1;
            x += 0.137 + (i % 7) as f64 * 1e-3;
        }
        assert!(worst <= 4, "worst-case {worst} ulps vs libm exp");
    }

    #[test]
    fn exact_special_values() {
        assert_eq!(exp_rn(0.0), 1.0);
        assert_eq!(exp_rn(f64::NEG_INFINITY), 0.0);
        assert_eq!(exp_rn(-800.0), 0.0);
        assert_eq!(exp_rn(EXP_LO), 0.0);
        assert_eq!(exp_rn(f64::INFINITY), f64::INFINITY);
        assert_eq!(exp_rn(800.0), f64::INFINITY);
        assert!(exp_rn(f64::NAN).is_nan());
    }

    #[test]
    fn softmax_rows_are_distributions_and_match_reference() {
        // Widths straddling the vector width so both the lane loop and
        // the tails run.
        for d in [1usize, 3, 4, 5, 8, 17, 128] {
            let rows = 6;
            let mut xs: Vec<f64> = (0..rows * d)
                .map(|i| ((i * 131) % 97) as f64 * 0.37 - 18.0)
                .collect();
            let reference: Vec<f64> = {
                let mut r = xs.clone();
                for row in r.chunks_mut(d) {
                    softmax_row_scalar(row, 1.0);
                }
                r
            };
            softmax_rows_inplace(&mut xs, d);
            for (g, w) in xs.iter().zip(&reference) {
                assert_eq!(g.to_bits(), w.to_bits(), "d={d}");
            }
            for row in xs.chunks(d) {
                let sum: f64 = row.iter().sum();
                assert!((sum - 1.0).abs() < 1e-12, "d={d} sum={sum}");
                assert!(row.iter().all(|&v| (0.0..=1.0).contains(&v)));
            }
        }
    }

    #[test]
    fn scaled_softmax_matches_scale_then_softmax_bitwise() {
        // The fusion claim: softmax(c·x) fused == multiply-pass + softmax,
        // bit for bit, on both dispatch paths. Widths straddle the vector
        // width; scales include the attention 1/sqrt(d_h) values.
        for &scale in &[0.5f64, 1.0, 1.0 / 2.0f64.sqrt(), 0.037, 3.5] {
            for d in [1usize, 4, 5, 17, 128] {
                let rows = 5;
                let xs: Vec<f64> = (0..rows * d)
                    .map(|i| ((i * 193) % 89) as f64 * 0.41 - 16.0)
                    .collect();
                let mut fused = xs.clone();
                softmax_rows_scaled_inplace(&mut fused, d, scale);
                let mut twopass = xs;
                for v in twopass.iter_mut() {
                    *v *= scale;
                }
                softmax_rows_inplace(&mut twopass, d);
                for (g, w) in fused.iter().zip(&twopass) {
                    assert_eq!(g.to_bits(), w.to_bits(), "scale={scale} d={d}");
                }
            }
        }
    }

    #[test]
    fn softmax_handles_extreme_rows() {
        // A huge spread: the small entries flush to exactly zero and the
        // max entry carries the mass.
        let mut xs = vec![-1000.0, 0.0, -1000.0, -999.0, 5.0, -3.0];
        softmax_rows_inplace(&mut xs, 3);
        assert_eq!(xs[0], 0.0);
        assert_eq!(xs[1], 1.0);
        assert_eq!(xs[2], 0.0);
        let s2: f64 = xs[3..].iter().sum();
        assert!((s2 - 1.0).abs() < 1e-12);
    }

    /// The AVX2 softmax lanes drop the saturate guard (max-subtracted
    /// inputs never reach it); rows with huge spreads, infinities and NaN
    /// must still match the guarded scalar mirror, on the wide, the
    /// one-vector and the scalar-tail segments of a row.
    #[test]
    fn softmax_extreme_rows_match_scalar_bitwise() {
        let d = 39;
        let mut xs: Vec<f64> = (0..7 * d)
            .map(|i| ((i * 211) % 101) as f64 * 37.0 - 1800.0)
            .collect();
        xs[d + 5] = f64::NEG_INFINITY;
        xs[2 * d + 20] = f64::INFINITY;
        xs[3 * d + 38] = f64::NAN;
        xs[4 * d..5 * d].fill(f64::NEG_INFINITY);
        xs[5 * d + 1] = 1e300;
        for scale in [1.0, 0.5, 3.5] {
            let mut want = xs.clone();
            for row in want.chunks_mut(d) {
                softmax_row_scalar(row, scale);
            }
            let mut got = xs.clone();
            softmax_rows_scaled_inplace(&mut got, d, scale);
            for (i, (g, w)) in got.iter().zip(&want).enumerate() {
                assert!(
                    g.to_bits() == w.to_bits() || (g.is_nan() && w.is_nan()),
                    "scale {scale} element {i}: {g:e} vs {w:e}"
                );
            }
            assert!(got[..d].contains(&0.0), "spread must flush weights");
        }
    }

    #[test]
    fn dispatched_matches_scalar_bitwise() {
        // Pseudo-random coverage of the hot domain, deliberately not a
        // multiple of the vector width so the tail path runs too.
        let mut state = 0x1234_5678_9abc_def0_u64;
        let mut xs: Vec<f64> = (0..1031)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                -((state % 70_000) as f64) * 0.01
            })
            .collect();
        xs.push(0.0);
        xs.push(-0.0);
        xs.push(EXP_LO);
        // Both guards, in a full vector so the lanes (not the scalar
        // tail) see them.
        xs.extend([EXP_HI, 800.0, f64::INFINITY, f64::NEG_INFINITY, 708.9]);
        let want: Vec<f64> = xs.iter().map(|&x| exp_rn(x)).collect();
        exp_inplace(&mut xs);
        for (g, w) in xs.iter().zip(&want) {
            assert_eq!(g.to_bits(), w.to_bits());
        }
    }
}
