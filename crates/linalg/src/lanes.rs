//! The lane types the vector kernels are written over, and the one module
//! of this crate that names an x86-64 intrinsic.
//!
//! [`Lanes`] has two impls: [`F64x4`], one 256-bit AVX2 register, and
//! [`F64x8`], one 512-bit AVX-512F register. The row softmax, the lane
//! softmax, the attention head and the GEMM tile are each one body generic
//! over it, run as a [`Kernel`]. Each tier's one `#[target_feature]` entry
//! ([`run_avx2`], [`run_avx512`]) only instantiates a kernel on its lanes,
//! and every method on the way is `#[inline(always)]`, so an instantiation
//! compiles to bare `ymm`/`zmm` instructions with no calls. (A closure over
//! lanes handed to `map` or `array::from_fn` can stay a call compiled
//! without the tier's features: the bodies use plain loops.)
//!
//! Every method is one correctly-rounded IEEE operation per lane, or a
//! fixed order of them, so the two instantiations of a body give the same
//! bits. Where the tiers differ, the difference is a method:
//! [`Lanes::pow2`] and [`Lanes::ldexp_flush`] (AVX2 assembles `2ⁿ` in the
//! exponent field, AVX-512 runs `vscalefpd`), [`Lanes::hmax`],
//! [`Lanes::fold`] and the masks. Register budgets (16 `ymm` against 32
//! `zmm`) are associated consts.
//!
//! Safety, for every method: the CPU runs the type's tier (AVX2 and FMA
//! for [`F64x4`]; AVX-512F as well for [`F64x8`]), and a pointer is valid
//! for the lanes it reads or writes (under a mask, the masked lanes only).

use std::arch::x86_64::*;

/// A vector kernel written once over [`Lanes`]: its arguments, and its body
/// as [`Kernel::run`].
pub(crate) trait Kernel {
    /// The body on `L` lanes; `#[inline(always)]` in every impl.
    ///
    /// # Safety
    /// As [`Lanes`], and the kernel's own bounds hold.
    unsafe fn run<L: Lanes>(self);
}

/// `k` on [`F64x4`].
///
/// # Safety
/// The CPU must support AVX2 and FMA; `k`'s own bounds hold.
#[target_feature(enable = "avx2,fma")]
pub(crate) unsafe fn run_avx2<K: Kernel>(k: K) {
    k.run::<F64x4>()
}

/// `k` on [`F64x8`].
///
/// # Safety
/// The CPU must support AVX-512F, AVX2 and FMA; `k`'s own bounds hold.
#[target_feature(enable = "avx512f,avx2,fma")]
pub(crate) unsafe fn run_avx512<K: Kernel>(k: K) {
    k.run::<F64x8>()
}

/// A vector of [`Lanes::N`] `f64` lanes (see the module docs).
pub(crate) trait Lanes: Copy {
    /// Lanes per vector.
    const N: usize;
    /// GEMM tile rows, two vectors each: the accumulators plus the B loads
    /// and the A broadcast fit the tier's registers.
    const TILE_ROWS: usize;
    /// A set of lanes.
    type Mask: Copy;

    /// Every lane `x`.
    unsafe fn splat(x: f64) -> Self;
    /// `N` lanes from `p`.
    unsafe fn load(p: *const f64) -> Self;
    /// `N` lanes to `p`.
    unsafe fn store(self, p: *mut f64);
    /// Lanes `0 .. n` (all of them for `n >= N`).
    unsafe fn first(n: usize) -> Self::Mask;
    /// The lanes of `m` from `p`, zero elsewhere; nothing else is read.
    unsafe fn load_masked(m: Self::Mask, p: *const f64) -> Self;
    /// The lanes of `m` to `p`; nothing else is written.
    unsafe fn store_masked(self, m: Self::Mask, p: *mut f64);
    unsafe fn add(self, b: Self) -> Self;
    unsafe fn sub(self, b: Self) -> Self;
    unsafe fn mul(self, b: Self) -> Self;
    unsafe fn div(self, b: Self) -> Self;
    /// `self · b + c`, rounded once.
    unsafe fn fmadd(self, b: Self, c: Self) -> Self;
    /// `vmaxpd`: `b` where either lane is NaN or both are zero, so
    /// `x.max(0)` is what `f64::max(x, 0.0)` gives (NaN and -0.0 → +0.0).
    unsafe fn max(self, b: Self) -> Self;
    /// The largest lane (any order: only the row softmax's max reads it,
    /// and there the order cannot change a bit).
    unsafe fn hmax(self) -> f64;
    /// `acc + self`, four lanes at a time from the lowest: the row
    /// softmax's partial sums by column mod 4.
    unsafe fn fold(self, acc: F64x4) -> F64x4;
    /// Lanes where `self <= b` (ordered: a NaN lane is not in it).
    unsafe fn le(self, b: Self) -> Self::Mask;
    /// What [`Lanes::ldexp_flush`] scales by, from `exp`'s shifted
    /// `t = x·log2e + 1.5·2⁵²` and `n = t − 1.5·2⁵²`: `2ⁿ` itself on AVX2
    /// (the low bits of `t` shifted into the exponent field), `n` on
    /// AVX-512.
    unsafe fn pow2(t: Self, n: Self) -> Self;
    /// `self · 2ⁿ` (`e` from [`Lanes::pow2`]), `+0.0` on the `flush` lanes;
    /// NaN lanes stay NaN. Above `exp`'s flush bound the product is
    /// normal, so both tiers' scaling is exact and agrees.
    unsafe fn ldexp_flush(self, e: Self, flush: Self::Mask) -> Self;
    /// `[a0, b0, a2, b2, ..]` and `[a1, b1, a3, b3, ..]` for `self = a`:
    /// the even lanes of both, then the odd lanes, in pairs. Moves bits
    /// only.
    unsafe fn zip(self, b: Self) -> [Self; 2];
    /// The two lanes at `p`, repeated across the vector.
    unsafe fn load_pair(p: *const f64) -> Self;
}

/// [`Lanes::add`], `sub`, `mul`, `div` and `max`, one intrinsic each.
macro_rules! binary_ops {
    ($($op:ident = $f:ident),*) => {$(
        #[inline(always)]
        unsafe fn $op(self, b: Self) -> Self {
            Self($f(self.0, b.0))
        }
    )*};
}

/// Four lanes in one AVX2 register.
#[derive(Clone, Copy)]
pub(crate) struct F64x4(__m256d);

impl F64x4 {
    /// `(l0 + l2) + (l1 + l3)`: four partial sums combined in the row
    /// softmax's order.
    #[inline(always)]
    pub(crate) unsafe fn sum(self) -> f64 {
        let lo = _mm256_castpd256_pd128(self.0);
        let a = _mm_add_pd(lo, _mm256_extractf128_pd::<1>(self.0));
        _mm_cvtsd_f64(a) + _mm_cvtsd_f64(_mm_unpackhi_pd(a, a))
    }
}

impl Lanes for F64x4 {
    const N: usize = 4;
    const TILE_ROWS: usize = 4;
    type Mask = __m256i;

    #[inline(always)]
    unsafe fn splat(x: f64) -> Self {
        Self(_mm256_set1_pd(x))
    }
    #[inline(always)]
    unsafe fn load(p: *const f64) -> Self {
        Self(_mm256_loadu_pd(p))
    }
    #[inline(always)]
    unsafe fn store(self, p: *mut f64) {
        _mm256_storeu_pd(p, self.0)
    }
    #[inline(always)]
    unsafe fn first(n: usize) -> __m256i {
        let lanes = _mm256_setr_epi64x(0, 1, 2, 3);
        _mm256_cmpgt_epi64(_mm256_set1_epi64x(n.min(4) as i64), lanes)
    }
    #[inline(always)]
    unsafe fn load_masked(m: __m256i, p: *const f64) -> Self {
        Self(_mm256_maskload_pd(p, m))
    }
    #[inline(always)]
    unsafe fn store_masked(self, m: __m256i, p: *mut f64) {
        _mm256_maskstore_pd(p, m, self.0)
    }
    binary_ops!(
        add = _mm256_add_pd,
        sub = _mm256_sub_pd,
        mul = _mm256_mul_pd,
        div = _mm256_div_pd,
        max = _mm256_max_pd
    );
    #[inline(always)]
    unsafe fn fmadd(self, b: Self, c: Self) -> Self {
        Self(_mm256_fmadd_pd(self.0, b.0, c.0))
    }
    #[inline(always)]
    unsafe fn hmax(self) -> f64 {
        let lo = _mm256_castpd256_pd128(self.0);
        let m = _mm_max_pd(lo, _mm256_extractf128_pd::<1>(self.0));
        _mm_cvtsd_f64(_mm_max_sd(m, _mm_unpackhi_pd(m, m)))
    }
    #[inline(always)]
    unsafe fn fold(self, acc: F64x4) -> F64x4 {
        acc.add(self)
    }
    #[inline(always)]
    unsafe fn le(self, b: Self) -> __m256i {
        _mm256_castpd_si256(_mm256_cmp_pd::<_CMP_LE_OQ>(self.0, b.0))
    }
    #[inline(always)]
    unsafe fn pow2(t: Self, _n: Self) -> Self {
        let bits = _mm256_slli_epi64::<52>(_mm256_castpd_si256(t.0));
        let one = _mm256_set1_epi64x(0x3FF0_0000_0000_0000_u64 as i64);
        Self(_mm256_castsi256_pd(_mm256_add_epi64(bits, one)))
    }
    #[inline(always)]
    unsafe fn ldexp_flush(self, e: Self, flush: __m256i) -> Self {
        Self(_mm256_andnot_pd(
            _mm256_castsi256_pd(flush),
            _mm256_mul_pd(self.0, e.0),
        ))
    }
    #[inline(always)]
    unsafe fn zip(self, b: Self) -> [Self; 2] {
        [
            Self(_mm256_unpacklo_pd(self.0, b.0)),
            Self(_mm256_unpackhi_pd(self.0, b.0)),
        ]
    }
    #[inline(always)]
    unsafe fn load_pair(p: *const f64) -> Self {
        let x = _mm_loadu_pd(p);
        Self(_mm256_set_m128d(x, x))
    }
}

/// Eight lanes in one AVX-512 register.
#[derive(Clone, Copy)]
pub(crate) struct F64x8(__m512d);

impl Lanes for F64x8 {
    const N: usize = 8;
    const TILE_ROWS: usize = 8;
    type Mask = __mmask8;

    #[inline(always)]
    unsafe fn splat(x: f64) -> Self {
        Self(_mm512_set1_pd(x))
    }
    #[inline(always)]
    unsafe fn load(p: *const f64) -> Self {
        Self(_mm512_loadu_pd(p))
    }
    #[inline(always)]
    unsafe fn store(self, p: *mut f64) {
        _mm512_storeu_pd(p, self.0)
    }
    #[inline(always)]
    unsafe fn first(n: usize) -> __mmask8 {
        ((1u32 << n.min(8)) - 1) as u8
    }
    #[inline(always)]
    unsafe fn load_masked(m: __mmask8, p: *const f64) -> Self {
        Self(_mm512_maskz_loadu_pd(m, p))
    }
    #[inline(always)]
    unsafe fn store_masked(self, m: __mmask8, p: *mut f64) {
        _mm512_mask_storeu_pd(p, m, self.0)
    }
    binary_ops!(
        add = _mm512_add_pd,
        sub = _mm512_sub_pd,
        mul = _mm512_mul_pd,
        div = _mm512_div_pd,
        max = _mm512_max_pd
    );
    #[inline(always)]
    unsafe fn fmadd(self, b: Self, c: Self) -> Self {
        Self(_mm512_fmadd_pd(self.0, b.0, c.0))
    }
    #[inline(always)]
    unsafe fn hmax(self) -> f64 {
        _mm512_reduce_max_pd(self.0)
    }
    #[inline(always)]
    unsafe fn fold(self, acc: F64x4) -> F64x4 {
        let low = acc.add(F64x4(_mm512_castpd512_pd256(self.0)));
        low.add(F64x4(_mm512_extractf64x4_pd::<1>(self.0)))
    }
    #[inline(always)]
    unsafe fn le(self, b: Self) -> __mmask8 {
        _mm512_cmp_pd_mask::<_CMP_LE_OQ>(self.0, b.0)
    }
    #[inline(always)]
    unsafe fn pow2(_t: Self, n: Self) -> Self {
        n
    }
    #[inline(always)]
    unsafe fn ldexp_flush(self, e: Self, flush: __mmask8) -> Self {
        Self(_mm512_maskz_scalef_pd(!flush, self.0, e.0))
    }
    #[inline(always)]
    unsafe fn zip(self, b: Self) -> [Self; 2] {
        [
            Self(_mm512_unpacklo_pd(self.0, b.0)),
            Self(_mm512_unpackhi_pd(self.0, b.0)),
        ]
    }
    #[inline(always)]
    unsafe fn load_pair(p: *const f64) -> Self {
        // The AVX-512F form (`f64x2` needs AVX-512DQ): bits move as they are.
        let x = _mm_castpd_ps(_mm_loadu_pd(p));
        Self(_mm512_castps_pd(_mm512_broadcast_f32x4(x)))
    }
}
