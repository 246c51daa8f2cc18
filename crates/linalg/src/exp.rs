//! Deterministic vectorised `exp` for softmax rows.
//!
//! The attention softmax is the single hottest non-GEMM kernel on the
//! decision path: one full-grid decision at `seq_len = 128` evaluates
//! `layers · heads · seq²` ≈ 131 k exponentials, and libm's scalar `exp`
//! alone costs more than every matmul in the encoder combined. This
//! module replaces it with a branch-free Cody–Waite range reduction plus
//! a degree-13 Taylor–Horner polynomial, evaluated with several vectors
//! in flight at once on the widest [`Tier`] the CPU runs: 8 lanes per
//! vector under AVX-512, 4 under AVX2+FMA, one under `Scalar`. The
//! autograd graph and the `Scalar`/AVX2 attention flavours call the row
//! softmax ([`softmax_rows_scaled_inplace`]) over whole `[rows, d]`
//! tensors or one L1-resident block of score rows; the AVX-512 attention
//! flavour keeps its block of sixteen rows lane-interleaved and calls
//! [`softmax_lanes_avx512`], which runs each row's operations on one lane.
//!
//! Determinism contract (the same one the GEMM micro-kernels honour):
//! every tier executes the *same* sequence of correctly-rounded IEEE
//! operations per element (`mul_add` ≡ fused multiply-add), and every
//! row sums its exponentials in one order: four partial sums by column
//! mod 4 over the full chunks of four, combined as `(s0 + s2) + (s1 + s3)`,
//! then the tail left to right. An 8-lane vector adds its low half, then
//! its high half, into the same four partial sums. So all tiers produce
//! **bitwise identical** results, and `DBAT_GEMM_FORCE_SCALAR=1` swaps
//! implementations without changing a single output bit. Accuracy is a
//! few ulps against libm `exp`; the softmax callers only ever see
//! max-subtracted inputs in `(-inf, 0]`. On a 2.1 GHz AVX-512 host the
//! 8-lane row softmax took `linalg.softmax_ns_per_row` from 373 ns to
//! 189 ns (medians of ten `closed_loop` pairs in `BENCH_perf.jsonl`).
//!
//! Out-of-range behaviour: inputs at or below [`EXP_LO`] flush to
//! exactly `0.0` (this covers `-inf`), inputs at or above [`EXP_HI`]
//! saturate to `+inf`, and NaN propagates.

// The range-reduction and polynomial constants are written with their
// full decimal expansions so they can be checked digit-for-digit against
// fdlibm; the extra digits round to the same f64.
#![allow(clippy::excessive_precision)]

use crate::tier::{assert_runs, kernel_tier, Tier};

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
pub(crate) const EXP_LO: f64 = -708.0;
/// At or above this the result saturates to `+inf`.
pub(crate) const EXP_HI: f64 = 709.0;

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

/// Scalar fast `exp`, bitwise identical to one AVX2 lane of the softmax
/// rows: every operation is a correctly-rounded IEEE
/// mul/add/fma, so the instruction set cannot change the result.
#[inline(always)]
#[allow(clippy::neg_cmp_op_on_partial_ord)] // `!(x > LO)` must catch NaN
pub(crate) fn exp_rn(x: f64) -> f64 {
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
/// of correctly-rounded ops, with the flush guard applied as a mask. Each
/// step is written across all `N` vectors before the next begins
/// (per-vector source order measured 0.74× where this measures 0.66×).
/// Softmax inputs are max-subtracted (`<= 0` or NaN), so there is no
/// saturate guard: it could never fire.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
#[inline]
fn exp_lanes<const N: usize>(
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
        // Flush exactly as the scalar guard does; NaN lanes fail the
        // compare and keep the propagated NaN in y.
        let lo = _mm256_cmp_pd::<_CMP_LE_OQ>(x[i], _mm256_set1_pd(EXP_LO));
        y[i] = _mm256_andnot_pd(lo, y[i]);
    }
    y
}

/// [`exp_lanes`] on eight lanes per vector: per lane the same sequence of
/// correctly-rounded ops as [`exp_rn`], the flush guard applied as a mask,
/// no saturate guard (softmax inputs are max-subtracted).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx2,fma")]
#[inline]
pub(crate) fn exp_lanes512<const N: usize>(
    x: [std::arch::x86_64::__m512d; N],
) -> [std::arch::x86_64::__m512d; N] {
    use std::arch::x86_64::*;
    // The flush masks first: `x` dies with `r`, so 8 vectors fit.
    let lo = x.map(|x| _mm512_cmp_pd_mask::<_CMP_LE_OQ>(x, _mm512_set1_pd(EXP_LO)));
    let shift = _mm512_set1_pd(SHIFT);
    let one = _mm512_set1_pd(1.0);
    let t = x.map(|x| _mm512_fmadd_pd(x, _mm512_set1_pd(LOG2E), shift));
    let n = t.map(|t| _mm512_sub_pd(t, shift));
    let mut r = x;
    for i in 0..N {
        r[i] = _mm512_fmadd_pd(n[i], _mm512_set1_pd(-LN2_HI), x[i]);
    }
    for i in 0..N {
        r[i] = _mm512_fmadd_pd(n[i], _mm512_set1_pd(-LN2_LO), r[i]);
    }
    let mut p = [_mm512_set1_pd(POLY[0]); N];
    for &cf in &POLY[1..] {
        for i in 0..N {
            p[i] = _mm512_fmadd_pd(p[i], r[i], _mm512_set1_pd(cf));
        }
    }
    for _ in 0..2 {
        for i in 0..N {
            p[i] = _mm512_fmadd_pd(p[i], r[i], one);
        }
    }
    let mut y = p;
    for i in 0..N {
        // p · 2^n in one op, zeroing the flushed lanes (NaN lanes keep
        // their NaN). Above EXP_LO, n >= -1021: p · 2^n is normal, so this
        // and the other tiers' multiply by the assembled 2^n are exact.
        y[i] = _mm512_maskz_scalef_pd(!lo[i], p[i], n[i]);
    }
    y
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
#[inline(always)]
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

/// [`softmax_row_scalar`] compiled with `fma`: each `mul_add` is one
/// instruction, not a libm call (~45× on a 128-wide row), same bits.
///
/// # Safety
/// The CPU must support FMA.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "fma")]
unsafe fn softmax_row_scalar_fma(row: &mut [f64], scale: f64) {
    softmax_row_scalar(row, scale);
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
    for (i, y) in exp_lanes::<N>(x).into_iter().enumerate() {
        _mm256_storeu_pd(p.add(4 * i), y);
        acc = _mm256_add_pd(acc, y);
    }
    acc
}

/// As [`softmax_exp_vectors`] over `N` eight-lane vectors: each vector
/// adds its low half, then its high half, into the same 4-lane partial
/// sums, so every partial sum sees its elements in the AVX2 order.
///
/// # Safety
/// `p` must be valid for `8 * N` reads and writes.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx2,fma")]
#[inline]
unsafe fn softmax_exp_vectors512<const N: usize>(
    p: *mut f64,
    scale: std::arch::x86_64::__m512d,
    m: std::arch::x86_64::__m512d,
    mut acc: std::arch::x86_64::__m256d,
) -> std::arch::x86_64::__m256d {
    use std::arch::x86_64::*;
    let mut x = [_mm512_setzero_pd(); N];
    for (i, x) in x.iter_mut().enumerate() {
        *x = _mm512_sub_pd(_mm512_mul_pd(_mm512_loadu_pd(p.add(8 * i)), scale), m);
    }
    for (i, y) in exp_lanes512::<N>(x).into_iter().enumerate() {
        _mm512_storeu_pd(p.add(8 * i), y);
        acc = _mm256_add_pd(acc, _mm512_castpd512_pd256(y));
        acc = _mm256_add_pd(acc, _mm512_extractf64x4_pd::<1>(y));
    }
    acc
}

/// The row's 4-wide remainder and scalar tail after the vector passes,
/// then the sum `(s0 + s2) + (s1 + s3)` of the partial sums `acc` plus the
/// tail left to right, matching [`softmax_row_scalar`]; returns the
/// row's reciprocal `1 / sum`.
///
/// # Safety
/// The CPU must support AVX2 and FMA.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn softmax_row_close(
    rest: &mut [f64],
    scale: f64,
    m: f64,
    mut acc: std::arch::x86_64::__m256d,
) -> f64 {
    use std::arch::x86_64::*;
    let mut narrow = rest.chunks_exact_mut(4);
    for c in &mut narrow {
        acc = softmax_exp_vectors::<1>(
            c.as_mut_ptr(),
            _mm256_set1_pd(scale),
            _mm256_set1_pd(m),
            acc,
        );
    }
    let a_lo = _mm256_castpd256_pd128(acc);
    let a_hi = _mm256_extractf128_pd::<1>(acc);
    let a2 = _mm_add_pd(a_lo, a_hi);
    let mut sum = _mm_cvtsd_f64(a2) + _mm_cvtsd_f64(_mm_unpackhi_pd(a2, a2));
    for v in narrow.into_remainder() {
        *v = exp_rn(*v * scale - m);
        sum += *v;
    }
    1.0 / sum
}

/// One row of [`softmax_rows_scaled_inplace`] on 4-lane vectors.
///
/// # Safety
/// The CPU must support AVX2 and FMA.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn softmax_row_avx2(row: &mut [f64], scale: f64) {
    use std::arch::x86_64::*;
    // Max scan over the *raw* values. Order-insensitive for the finite
    // scores softmax sees (±0 ties cannot change any downstream bit, and a
    // NaN anywhere makes the whole row NaN), so two vector accumulators
    // (halving the dependent max chain) plus a scalar tail are safe. The
    // scale is applied to the max once afterwards — see
    // softmax_row_scalar for why that is bitwise equal to scaling first.
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
    let inv = softmax_row_close(wide.into_remainder(), scale, m, acc);

    // One reciprocal per row, then a multiply pass; mul is correctly
    // rounded, so vector lanes match scalar bitwise.
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

/// [`softmax_row_avx2`] eight lanes at a time: the same max, the same
/// exponentials, the same 4-lane partial sums in the same order (see
/// [`softmax_exp_vectors512`]), the same 4-wide remainder and scalar tail,
/// the same reciprocal — so the same bits.
///
/// # Safety
/// The CPU must support AVX-512F, AVX2 and FMA.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx2,fma")]
unsafe fn softmax_row_avx512(row: &mut [f64], scale: f64) {
    use std::arch::x86_64::*;
    let ninf = _mm512_set1_pd(f64::NEG_INFINITY);
    let (mut m8, mut n8) = (ninf, ninf);
    let mut chunks = row.chunks_exact(16);
    for c in &mut chunks {
        m8 = _mm512_max_pd(m8, _mm512_loadu_pd(c.as_ptr()));
        n8 = _mm512_max_pd(n8, _mm512_loadu_pd(c.as_ptr().add(8)));
    }
    let mut tail = chunks.remainder();
    if tail.len() >= 8 {
        m8 = _mm512_max_pd(m8, _mm512_loadu_pd(tail.as_ptr()));
        tail = &tail[8..];
    }
    let mut max = _mm512_reduce_max_pd(_mm512_max_pd(m8, n8));
    for &v in tail {
        max = max.max(v);
    }
    let m = scale * max;

    let (cv, mv) = (_mm512_set1_pd(scale), _mm512_set1_pd(m));
    let mut acc = _mm256_setzero_pd();
    let mut wide = row.chunks_exact_mut(8 * WIDE);
    for c in &mut wide {
        acc = softmax_exp_vectors512::<WIDE>(c.as_mut_ptr(), cv, mv, acc);
    }
    let mut one = wide.into_remainder().chunks_exact_mut(8);
    for c in &mut one {
        acc = softmax_exp_vectors512::<1>(c.as_mut_ptr(), cv, mv, acc);
    }
    let inv = softmax_row_close(one.into_remainder(), scale, m, acc);

    let sv = _mm512_set1_pd(inv);
    let mut chunks = row.chunks_exact_mut(8);
    for c in &mut chunks {
        let y = _mm512_mul_pd(_mm512_loadu_pd(c.as_ptr()), sv);
        _mm512_storeu_pd(c.as_mut_ptr(), y);
    }
    for v in chunks.into_remainder() {
        *v *= inv;
    }
}

/// The softmax of sixteen rows held lane-interleaved as two 8-lane halves
/// (the AVX-512 head's score tile): element `(r, j)` at `block[16 * j + r]`,
/// `max` each half's raw row maxima. Overwrites every element with
/// its numerator `exp(scale·x − scale·max)` and returns each half's
/// reciprocals `1 / sum`; the caller multiplies them in. Each lane runs
/// [`softmax_row_scalar`]'s operations in its order — partial sums by
/// `j mod 4` over the full chunks, `(s0 + s2) + (s1 + s3)`, then the tail —
/// so the normalised rows are the row softmax's bits.
///
/// # Safety
/// The CPU must support AVX-512F, AVX2 and FMA, and `block` must hold
/// `16 * seq` elements.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx2,fma")]
pub(crate) unsafe fn softmax_lanes_avx512(
    block: &mut [f64],
    seq: usize,
    scale: f64,
    max: [std::arch::x86_64::__m512d; 2],
) -> [std::arch::x86_64::__m512d; 2] {
    use std::arch::x86_64::*;
    let p = block[..16 * seq].as_mut_ptr();
    let cv = _mm512_set1_pd(scale);
    let mv = max.map(|m| _mm512_mul_pd(cv, m));
    // Vector `i` of a group of four keys is key `i / 2`, half `i % 2`.
    let at = |j: usize, i: usize| p.add(16 * (j + i / 2) + 8 * (i % 2));
    let seq4 = seq - seq % 4;
    let mut s = [_mm512_setzero_pd(); 8];
    for j in (0..seq4).step_by(4) {
        let x: [__m512d; 8] = std::array::from_fn(|i| {
            _mm512_sub_pd(_mm512_mul_pd(_mm512_loadu_pd(at(j, i)), cv), mv[i % 2])
        });
        for (i, (y, s)) in exp_lanes512::<8>(x).into_iter().zip(&mut s).enumerate() {
            _mm512_storeu_pd(at(j, i), y);
            *s = _mm512_add_pd(*s, y);
        }
    }
    let mut sum: [__m512d; 2] = std::array::from_fn(|h| {
        _mm512_add_pd(
            _mm512_add_pd(s[h], s[4 + h]),
            _mm512_add_pd(s[2 + h], s[6 + h]),
        )
    });
    for j in seq4..seq {
        let x = std::array::from_fn(|h| {
            _mm512_sub_pd(_mm512_mul_pd(_mm512_loadu_pd(at(j, h)), cv), mv[h])
        });
        for (h, y) in exp_lanes512::<2>(x).into_iter().enumerate() {
            _mm512_storeu_pd(at(j, h), y);
            sum[h] = _mm512_add_pd(sum[h], y);
        }
    }
    sum.map(|s| _mm512_div_pd(_mm512_set1_pd(1.0), s))
}

/// In-place softmax over consecutive rows of width `d`: max-subtract,
/// `exp_rn`-family exponentials, a fixed-order 4-lane sum, and one
/// reciprocal-multiply normalisation — all fused into three passes per
/// row. Dispatches on [`kernel_tier`] (AVX-512 or AVX2 lanes on capable
/// x86-64 hosts, the scalar mirror under `DBAT_GEMM_FORCE_SCALAR=1` and
/// elsewhere) and is bitwise identical on every tier. This is *the*
/// softmax for both the autograd graph and the fused attention head of the
/// compiled inference plans; keeping them on one kernel is what lets the
/// graph-free fast path mirror the graph bit for bit.
pub fn softmax_rows_inplace(xs: &mut [f64], d: usize) {
    softmax_rows_scaled_inplace(xs, d, 1.0);
}

/// As [`softmax_rows_inplace`], computing `softmax(scale · x)` per row
/// without a separate scaling pass. Requires `scale > 0` (checked: with
/// any other scale the max-subtract would subtract the minimum, and the
/// tiers would no longer agree); the result is bitwise identical to
/// multiplying every element by `scale` first and then calling
/// [`softmax_rows_inplace`] (monotone rounding makes the fused
/// max/subtract exact — see `softmax_row_scalar`'s notes). This is what
/// lets attention fold its `1/√d_h` score scaling into the softmax for
/// free while staying bit-equal to the graph path's scale-then-softmax
/// ops.
pub fn softmax_rows_scaled_inplace(xs: &mut [f64], d: usize, scale: f64) {
    softmax_rows_with(kernel_tier(), xs, d, scale);
}

/// [`softmax_rows_scaled_inplace`] on a given tier (panics on one the CPU
/// does not run).
pub(crate) fn softmax_rows_with(tier: Tier, xs: &mut [f64], d: usize, scale: f64) {
    assert!(scale > 0.0, "softmax scale must be positive, got {scale}");
    assert_runs(tier);
    if d == 0 {
        return;
    }
    #[cfg(target_arch = "x86_64")]
    match tier {
        Tier::Avx512 => {
            for row in xs.chunks_mut(d) {
                // SAFETY: the tier runs on this CPU (`assert_runs`).
                unsafe { softmax_row_avx512(row, scale) };
            }
            return;
        }
        Tier::Avx2 => {
            for row in xs.chunks_mut(d) {
                // SAFETY: the tier runs on this CPU (`assert_runs`).
                unsafe { softmax_row_avx2(row, scale) };
            }
            return;
        }
        Tier::Scalar if std::arch::is_x86_feature_detected!("fma") => {
            for row in xs.chunks_mut(d) {
                // SAFETY: FMA detected on this CPU.
                unsafe { softmax_row_scalar_fma(row, scale) };
            }
            return;
        }
        Tier::Scalar => {}
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

    /// Every tier the CPU runs, each called directly rather than through
    /// `DBAT_GEMM_FORCE_SCALAR`, against the scalar mirror bit for bit:
    /// widths straddling the 4-, 8- and 16-lane loops, and hostile rows
    /// (±∞, NaN, a 1e300 spread, all −∞). An AVX-512 or AVX2 leg the CPU
    /// lacks is skipped with a note.
    #[test]
    fn every_tier_matches_scalar_bitwise_on_ragged_and_hostile_rows() {
        for tier in Tier::ALL {
            if !tier.supported() {
                println!("{tier:?} not supported on this CPU: softmax leg skipped");
            }
        }
        for d in [1usize, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 33, 39, 128] {
            let rows = 8;
            let mut xs: Vec<f64> = (0..rows * d)
                .map(|i| ((i * 173) % 89) as f64 * 0.43 - 19.0)
                .collect();
            let at = |r: usize, j: usize| r * d + j * 7 % d;
            xs[at(1, 0)] = f64::INFINITY;
            xs[at(2, 1)] = f64::NEG_INFINITY;
            xs[at(3, 2)] = f64::NAN;
            xs[at(4, 3)] = 1e300;
            xs[at(4, 4)] = -1e300;
            xs[5 * d..6 * d].fill(f64::NEG_INFINITY);
            for scale in [1.0, 0.5, 1e-3] {
                let mut want = xs.clone();
                for row in want.chunks_mut(d) {
                    softmax_row_scalar(row, scale);
                }
                for tier in Tier::ALL.into_iter().filter(|t| t.supported()) {
                    let mut got = xs.clone();
                    softmax_rows_with(tier, &mut got, d, scale);
                    for (i, (g, w)) in got.iter().zip(&want).enumerate() {
                        assert!(
                            g.to_bits() == w.to_bits() || (g.is_nan() && w.is_nan()),
                            "{tier:?} d {d} scale {scale} element {i}: {g:e} vs {w:e}"
                        );
                    }
                }
            }
        }
    }

    /// The AVX-512 head's lane-interleaved softmax against the row softmax:
    /// sixteen rows transposed, exponentiated, normalised by the returned
    /// reciprocals, transposed back. The raw maxima are folded in several
    /// orders (the head folds four accumulators): rows with NaN, ±∞, ±0
    /// ties and all −∞ come out the same bits, NaN rows all-NaN, whatever
    /// the order.
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn lane_softmax_matches_row_softmax_bitwise() {
        use std::arch::x86_64::*;
        if !Tier::Avx512.supported() {
            println!("no AVX-512F on this CPU: lane softmax not checked");
            return;
        }
        for d in [1usize, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 33, 39, 128] {
            let mut xs: Vec<f64> = (0..16 * d)
                .map(|i| ((i * 211) % 101) as f64 * 37.0 - 1800.0)
                .collect();
            xs[d / 2] = f64::NAN;
            xs[d + d / 3] = f64::INFINITY;
            xs[2 * d..3 * d].fill(f64::NEG_INFINITY);
            xs[3 * d] = 1e300;
            xs[4 * d..5 * d].fill(0.0);
            xs[4 * d + d / 2] = -0.0;
            xs[9 * d + d - 1] = f64::NEG_INFINITY;
            xs[10 * d..11 * d].fill(-0.0);
            xs[11 * d] = f64::NAN;
            xs[11 * d + d - 1] = f64::INFINITY;
            let scale = 0.5;
            let mut want = xs.clone();
            softmax_rows_with(Tier::Scalar, &mut want, d, scale);
            let orders: [fn(usize) -> Vec<usize>; 3] = [
                |d| (0..d).collect(),
                |d| (0..d).rev().collect(),
                |d| (0..d).step_by(2).chain((1..d).step_by(2)).collect(),
            ];
            for order in orders {
                let mut block = vec![0.0; 16 * d];
                let mut max = [f64::NEG_INFINITY; 16];
                for (r, row) in xs.chunks(d).enumerate() {
                    for (j, &x) in row.iter().enumerate() {
                        block[16 * j + r] = x;
                    }
                    for j in order(d) {
                        // The vector max: the second operand on NaN or a tie.
                        // SAFETY: AVX-512F detected.
                        max[r] = unsafe {
                            let v = _mm512_max_pd(_mm512_set1_pd(max[r]), _mm512_set1_pd(row[j]));
                            _mm512_cvtsd_f64(v)
                        };
                    }
                }
                let mut inv = [0.0; 16];
                // SAFETY: AVX-512F detected; `block` holds 16 * d elements.
                unsafe {
                    let halves = [0, 8].map(|h| _mm512_loadu_pd(max[h..].as_ptr()));
                    let v = softmax_lanes_avx512(&mut block, d, scale, halves);
                    _mm512_storeu_pd(inv.as_mut_ptr(), v[0]);
                    _mm512_storeu_pd(inv[8..].as_mut_ptr(), v[1]);
                }
                for (r, row) in want.chunks(d).enumerate() {
                    for (j, &w) in row.iter().enumerate() {
                        let g = block[16 * j + r] * inv[r];
                        assert!(
                            g.to_bits() == w.to_bits() || (g.is_nan() && w.is_nan()),
                            "d {d} row {r} column {j}: {g:e} vs {w:e}"
                        );
                    }
                }
                for r in [0, 11] {
                    assert!(want[r * d..(r + 1) * d].iter().all(|x| x.is_nan()));
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "softmax scale must be positive")]
    fn non_positive_scale_is_rejected() {
        softmax_rows_scaled_inplace(&mut [1.0, 2.0, 3.0], 3, 0.0);
    }

    #[test]
    #[should_panic(expected = "softmax scale must be positive")]
    fn nan_scale_is_rejected() {
        softmax_rows_scaled_inplace(&mut [1.0, 2.0, 3.0], 3, f64::NAN);
    }
}
