//! Packed, cache-blocked GEMM micro-kernel engine.
//!
//! One engine serves every dense matmul shape in the workspace: plain
//! `A·B`, `A·Bᵀ` (attention scores, `dA` backward), and `Aᵀ·B` (`dB`
//! backward), over both [`crate::Mat`] and the `dbat-nn` tensors. The
//! strategy is the classic three-step BLAS scheme, sized for the small-to-
//! medium operands this workspace produces:
//!
//! 1. **Pack** the B operand once per call into column panels of width
//!    `NR`, zero-padded, so the micro-kernel streams one contiguous panel
//!    per k-step regardless of the logical layout (normal or transposed).
//! 2. **Pack** each block of `MR` A rows into a `k × MR` panel, again
//!    zero-padded, so the micro-kernel broadcasts contiguous scalars.
//! 3. Run a fixed-size **register-tile micro-kernel** (`MR×NR` = 4×8, or
//!    4×4 for narrow outputs) whose accumulators live entirely in
//!    registers: output traffic drops from one read-modify-write per
//!    multiply (the naive `ikj` loop) to one store per `k` products.
//!
//! The micro-kernel follows the crate's [`Tier`]: AVX2+FMA 4×8 and 4×4
//! tiles, and under AVX-512 a 4×16 tile that reads two adjacent `NR`
//! panels at once (the pack is the same; an odd last panel and the narrow
//! tile stay on AVX2). Every output element is one FMA chain over `k` in
//! ascending order on both vector tiers, so they give the same bits; the
//! scalar tiles (the `Scalar` tier, and every non-x86-64 target) use plain
//! mul+add and autovectorise at whatever width the target offers. Products
//! are accumulated over `k` in the same order as the naive triple loop, so
//! results match the reference within a few ULPs (FMA keeps intermediate
//! products unrounded — it is *more* accurate, not differently ordered).
//! On a 2.1 GHz AVX-512 host the 4×16 tile took
//! `linalg.gemm_small_gflops` (the encoder's 128×16×16 product) from 7.9
//! to 10.9 GF/s and `core.score216_us` (the 216-row grid score) from 70 µs
//! to 57 µs (medians of ten `closed_loop` pairs in `BENCH_perf.jsonl`).
//!
//! Row-blocks dispatch over rayon above `PAR_FLOPS` (each worker packs
//! its own A panels; the shared B pack is read-only).

use crate::tier::{assert_runs, kernel_tier, Tier};
use rayon::prelude::*;

/// Rows per register tile.
pub(crate) const MR: usize = 4;
/// Columns per register tile (wide variant).
pub(crate) const NR: usize = 8;
/// Columns per register tile (narrow variant, for `n <= 4` outputs such
/// as per-head attention contexts).
const NR4: usize = 4;

/// `m·n·k` above which row-blocks are distributed over rayon workers.
const PAR_FLOPS: usize = 64 * 64 * 64;
/// Rows per parallel work unit (multiple of `MR`).
const ROW_BLOCK: usize = 64;
/// A-panel elements (`k · MR`) up to which `gemm_rows` packs into a stack
/// buffer instead of a heap `Vec`: `k <= 64`, 2 KB.
const A_PANEL_STACK: usize = 64 * MR;

/// How a packed operand is laid out in its source slice.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Layout {
    /// Row-major, logical orientation: `src[i * ld + j]` is element `(i, j)`.
    Normal,
    /// Row-major storage of the *transpose*: `src[j * ld + i]` is `(i, j)`.
    Transposed,
}

/// Pack columns `[j0, j0 + nr)` of the logical `k × n` operand B into
/// `panel` (`k * nr` elements, `panel[p * nr + jr] = B[p, j0 + jr]`),
/// zero-padding columns past `n`.
#[inline]
fn pack_b(b: &[f64], layout: Layout, k: usize, n: usize, j0: usize, nr: usize, panel: &mut [f64]) {
    let nw = nr.min(n - j0);
    match layout {
        Layout::Normal => {
            // B stored k × n row-major.
            for p in 0..k {
                let src = &b[p * n + j0..p * n + j0 + nw];
                let dst = &mut panel[p * nr..p * nr + nr];
                dst[..nw].copy_from_slice(src);
                dst[nw..].fill(0.0);
            }
        }
        Layout::Transposed => {
            // B stored n × k row-major (i.e. Bᵀ): walk nw source rows.
            for (jr, col) in (j0..j0 + nw).enumerate() {
                let src = &b[col * k..(col + 1) * k];
                for p in 0..k {
                    panel[p * nr + jr] = src[p];
                }
            }
            if nw < nr {
                for p in 0..k {
                    panel[p * nr + nw..(p + 1) * nr].fill(0.0);
                }
            }
        }
    }
}

/// Pack rows `[i0, i0 + MR)` of the logical `m × k` operand A into
/// `panel` (`k * MR` elements, `panel[p * MR + ir] = A[i0 + ir, p]`),
/// zero-padding rows past `m`.
#[inline]
fn pack_a(a: &[f64], layout: Layout, m: usize, k: usize, i0: usize, panel: &mut [f64]) {
    let mh = MR.min(m - i0);
    match layout {
        Layout::Normal => {
            for (ir, row) in (i0..i0 + mh).enumerate() {
                let src = &a[row * k..(row + 1) * k];
                for p in 0..k {
                    panel[p * MR + ir] = src[p];
                }
            }
        }
        Layout::Transposed => {
            // A stored k × m row-major (i.e. Aᵀ): columns are contiguous.
            for p in 0..k {
                let src = &a[p * m + i0..p * m + i0 + mh];
                panel[p * MR..p * MR + mh].copy_from_slice(src);
            }
        }
    }
    if mh < MR {
        for p in 0..k {
            panel[p * MR + mh..(p + 1) * MR].fill(0.0);
        }
    }
}

/// Scalar `MR × 8` micro-kernel: plain mul+add so the compiler can
/// autovectorise at the target's native width. Like the FMA kernels it
/// *overwrites* `acc` (accumulation happens in a local zero-initialised
/// tile), so callers never need to re-zero between tiles.
#[inline]
fn mk_scalar_4x8(k: usize, ap: &[f64], bp: &[f64], acc: &mut [f64; MR * NR]) {
    let mut c = [0.0; MR * NR];
    for p in 0..k {
        let a = &ap[p * MR..p * MR + MR];
        let b = &bp[p * NR..p * NR + NR];
        for ir in 0..MR {
            let av = a[ir];
            let row = &mut c[ir * NR..ir * NR + NR];
            for (o, &bv) in row.iter_mut().zip(b) {
                *o += av * bv;
            }
        }
    }
    *acc = c;
}

/// Scalar `MR × 4` micro-kernel; overwrites `acc` like [`mk_scalar_4x8`].
#[inline]
fn mk_scalar_4x4(k: usize, ap: &[f64], bp: &[f64], acc: &mut [f64; MR * NR4]) {
    let mut c = [0.0; MR * NR4];
    for p in 0..k {
        let a = &ap[p * MR..p * MR + MR];
        let b = &bp[p * NR4..p * NR4 + NR4];
        for ir in 0..MR {
            let av = a[ir];
            let row = &mut c[ir * NR4..ir * NR4 + NR4];
            for (o, &bv) in row.iter_mut().zip(b) {
                *o += av * bv;
            }
        }
    }
    *acc = c;
}

/// AVX2+FMA `4 × 8` micro-kernel: 8 ymm accumulators, 2 panel loads and 4
/// broadcasts per k-step.
///
/// # Safety
/// Caller must ensure the CPU supports AVX2 and FMA, `ap.len() >= k * MR`,
/// and `bp.len() >= k * NR`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn mk_fma_4x8(k: usize, ap: &[f64], bp: &[f64], acc: &mut [f64; MR * NR]) {
    use std::arch::x86_64::*;
    let mut c00 = _mm256_setzero_pd();
    let mut c01 = _mm256_setzero_pd();
    let mut c10 = _mm256_setzero_pd();
    let mut c11 = _mm256_setzero_pd();
    let mut c20 = _mm256_setzero_pd();
    let mut c21 = _mm256_setzero_pd();
    let mut c30 = _mm256_setzero_pd();
    let mut c31 = _mm256_setzero_pd();
    let a = ap.as_ptr();
    let b = bp.as_ptr();
    for p in 0..k {
        let b0 = _mm256_loadu_pd(b.add(p * NR));
        let b1 = _mm256_loadu_pd(b.add(p * NR + 4));
        let a0 = _mm256_broadcast_sd(&*a.add(p * MR));
        c00 = _mm256_fmadd_pd(a0, b0, c00);
        c01 = _mm256_fmadd_pd(a0, b1, c01);
        let a1 = _mm256_broadcast_sd(&*a.add(p * MR + 1));
        c10 = _mm256_fmadd_pd(a1, b0, c10);
        c11 = _mm256_fmadd_pd(a1, b1, c11);
        let a2 = _mm256_broadcast_sd(&*a.add(p * MR + 2));
        c20 = _mm256_fmadd_pd(a2, b0, c20);
        c21 = _mm256_fmadd_pd(a2, b1, c21);
        let a3 = _mm256_broadcast_sd(&*a.add(p * MR + 3));
        c30 = _mm256_fmadd_pd(a3, b0, c30);
        c31 = _mm256_fmadd_pd(a3, b1, c31);
    }
    let o = acc.as_mut_ptr();
    _mm256_storeu_pd(o, c00);
    _mm256_storeu_pd(o.add(4), c01);
    _mm256_storeu_pd(o.add(8), c10);
    _mm256_storeu_pd(o.add(12), c11);
    _mm256_storeu_pd(o.add(16), c20);
    _mm256_storeu_pd(o.add(20), c21);
    _mm256_storeu_pd(o.add(24), c30);
    _mm256_storeu_pd(o.add(28), c31);
}

/// AVX2+FMA `4 × 4` micro-kernel.
///
/// # Safety
/// Caller must ensure the CPU supports AVX2 and FMA, `ap.len() >= k * MR`,
/// and `bp.len() >= k * NR4`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn mk_fma_4x4(k: usize, ap: &[f64], bp: &[f64], acc: &mut [f64; MR * NR4]) {
    use std::arch::x86_64::*;
    let mut c0 = _mm256_setzero_pd();
    let mut c1 = _mm256_setzero_pd();
    let mut c2 = _mm256_setzero_pd();
    let mut c3 = _mm256_setzero_pd();
    let a = ap.as_ptr();
    let b = bp.as_ptr();
    for p in 0..k {
        let b0 = _mm256_loadu_pd(b.add(p * NR4));
        c0 = _mm256_fmadd_pd(_mm256_broadcast_sd(&*a.add(p * MR)), b0, c0);
        c1 = _mm256_fmadd_pd(_mm256_broadcast_sd(&*a.add(p * MR + 1)), b0, c1);
        c2 = _mm256_fmadd_pd(_mm256_broadcast_sd(&*a.add(p * MR + 2)), b0, c2);
        c3 = _mm256_fmadd_pd(_mm256_broadcast_sd(&*a.add(p * MR + 3)), b0, c3);
    }
    let o = acc.as_mut_ptr();
    _mm256_storeu_pd(o, c0);
    _mm256_storeu_pd(o.add(4), c1);
    _mm256_storeu_pd(o.add(8), c2);
    _mm256_storeu_pd(o.add(12), c3);
}

/// AVX-512 `4 × 16` micro-kernel over two adjacent `NR`-wide panels: 8 zmm
/// accumulators, 2 panel loads and 4 broadcasts per k-step. Each output
/// element is the same FMA chain over `k` as in [`mk_fma_4x8`], so the two
/// give the same bits.
///
/// # Safety
/// Caller must ensure the CPU supports AVX-512F, `ap.len() >= k * MR`, and
/// `bp.len() >= 2 * k * NR` (panel `jb` followed by panel `jb + 1`).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx2,fma")]
unsafe fn mk_avx512_4x16(k: usize, ap: &[f64], bp: &[f64], acc: &mut [f64; MR * 2 * NR]) {
    use std::arch::x86_64::*;
    let mut c = [[_mm512_setzero_pd(); 2]; MR];
    let a = ap.as_ptr();
    let (b0, b1) = (bp.as_ptr(), bp.as_ptr().add(k * NR));
    for p in 0..k {
        let bv = [
            _mm512_loadu_pd(b0.add(p * NR)),
            _mm512_loadu_pd(b1.add(p * NR)),
        ];
        for (ir, row) in c.iter_mut().enumerate() {
            let av = _mm512_set1_pd(*a.add(p * MR + ir));
            row[0] = _mm512_fmadd_pd(av, bv[0], row[0]);
            row[1] = _mm512_fmadd_pd(av, bv[1], row[1]);
        }
    }
    let o = acc.as_mut_ptr();
    for (ir, row) in c.iter().enumerate() {
        _mm512_storeu_pd(o.add(ir * 2 * NR), row[0]);
        _mm512_storeu_pd(o.add(ir * 2 * NR + NR), row[1]);
    }
}

/// Run the micro-kernel `tier` picks for one `MR`-row tile against
/// `panels` adjacent B panels (`bp`), writing the `MR × panels · nr` tile
/// row-major into `acc`. Two panels at once only under [`Tier::Avx512`].
fn micro_kernel(
    tier: Tier,
    k: usize,
    nr: usize,
    panels: usize,
    ap: &[f64],
    bp: &[f64],
    acc: &mut [f64],
) {
    #[cfg(target_arch = "x86_64")]
    match (tier, nr, panels) {
        // SAFETY (all arms): the tier runs on this CPU (`assert_runs`);
        // `ap` holds k*MR and `bp` panels*k*nr elements.
        (Tier::Avx512, NR, 2) => {
            return unsafe { mk_avx512_4x16(k, ap, bp, acc.try_into().unwrap()) }
        }
        (Tier::Avx2 | Tier::Avx512, NR, 1) => {
            return unsafe { mk_fma_4x8(k, ap, bp, acc.try_into().unwrap()) }
        }
        (Tier::Avx2 | Tier::Avx512, NR4, 1) => {
            return unsafe { mk_fma_4x4(k, ap, bp, acc.try_into().unwrap()) }
        }
        _ => {}
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = (tier, panels);
    match nr {
        NR => mk_scalar_4x8(k, ap, bp, acc.try_into().unwrap()),
        _ => mk_scalar_4x4(k, ap, bp, acc.try_into().unwrap()),
    }
}

/// Process rows `[row0, row1)` against the fully packed B.
#[allow(clippy::too_many_arguments)]
fn gemm_rows(
    a: &[f64],
    a_layout: Layout,
    bpack: &[f64],
    m: usize,
    n: usize,
    k: usize,
    nr: usize,
    row0: usize,
    row1: usize,
    out: &mut [f64],
    tier: Tier,
) {
    // The A panel lives on the stack for small `k` (every layer of the
    // surrogate), so a pre-packed product allocates nothing. Cache-line
    // aligned: at the stack's natural 8-byte alignment the 216-row score
    // sweep measured 39.8 µs against 34.5 µs aligned.
    #[repr(align(64))]
    struct Aligned([f64; A_PANEL_STACK]);
    let mut stack = Aligned([0.0; A_PANEL_STACK]);
    let mut heap = Vec::new();
    let apanel = if k * MR <= A_PANEL_STACK {
        &mut stack.0[..k * MR]
    } else {
        heap.resize(k * MR, 0.0);
        &mut heap[..]
    };
    let mut acc = [0.0; MR * 2 * NR];
    let n_panels = n.div_ceil(nr);
    let mut i0 = row0;
    while i0 < row1 {
        pack_a(a, a_layout, m, k, i0, apanel);
        let mh = MR.min(row1 - i0);
        let mut jb = 0;
        while jb < n_panels {
            let panels = if tier == Tier::Avx512 && nr == NR && jb + 1 < n_panels {
                2
            } else {
                1
            };
            let (j0, w) = (jb * nr, panels * nr);
            let nw = w.min(n - j0);
            let bp = &bpack[jb * k * nr..(jb + panels) * k * nr];
            let acc = &mut acc[..MR * w];
            micro_kernel(tier, k, nr, panels, apanel, bp, acc);
            for ir in 0..mh {
                let dst = &mut out[(i0 - row0 + ir) * n + j0..(i0 - row0 + ir) * n + j0 + nw];
                dst.copy_from_slice(&acc[ir * w..ir * w + nw]);
            }
            jb += panels;
        }
        i0 += MR;
    }
}

/// General packed matrix multiply: logical `(m × k) · (k × n) -> out`,
/// where each operand may be stored normally or as its transpose. `out`
/// is fully overwritten (`out.len() == m * n`).
#[allow(clippy::too_many_arguments)]
pub fn gemm(
    m: usize,
    n: usize,
    k: usize,
    a: &[f64],
    a_layout: Layout,
    b: &[f64],
    b_layout: Layout,
    out: &mut [f64],
) {
    gemm_with(m, n, k, a, a_layout, b, b_layout, out, kernel_tier());
}

/// [`gemm`] with the micro-kernel tier pinned, so tests can exercise every
/// tier the CPU runs (panics on one it does not).
#[doc(hidden)]
#[allow(clippy::too_many_arguments)]
pub fn gemm_with(
    m: usize,
    n: usize,
    k: usize,
    a: &[f64],
    a_layout: Layout,
    b: &[f64],
    b_layout: Layout,
    out: &mut [f64],
    tier: Tier,
) {
    debug_assert_eq!(out.len(), m * n);
    assert_runs(tier);
    if m == 0 || n == 0 {
        return;
    }
    if k == 0 {
        out.fill(0.0);
        return;
    }
    let nr = if n <= NR4 { NR4 } else { NR };
    let n_panels = n.div_ceil(nr);
    let mut bpack = vec![0.0; n_panels * k * nr];
    for jb in 0..n_panels {
        pack_b(
            b,
            b_layout,
            k,
            n,
            jb * nr,
            nr,
            &mut bpack[jb * k * nr..(jb + 1) * k * nr],
        );
    }
    if m * n * k > PAR_FLOPS && m > ROW_BLOCK {
        let bpack = &bpack;
        out.par_chunks_mut(ROW_BLOCK * n)
            .enumerate()
            .for_each(|(blk, chunk)| {
                let row0 = blk * ROW_BLOCK;
                let row1 = (row0 + ROW_BLOCK).min(m);
                gemm_rows(a, a_layout, bpack, m, n, k, nr, row0, row1, chunk, tier);
            });
    } else {
        gemm_rows(a, a_layout, &bpack, m, n, k, nr, 0, m, out, tier);
    }
}

/// A B operand packed once into micro-kernel column panels and kept for
/// reuse across many GEMM calls.
///
/// [`gemm`] re-packs B on every invocation, which is the right trade for
/// one-shot products but pure overhead when the same operand (a layer's
/// weight matrix) is multiplied every decision interval. `PackedMat`
/// hoists that pack to model load/refit time: the panel layout, the
/// `nr` choice, and therefore the micro-kernel dispatch are *identical*
/// to what [`gemm`] builds internally, so [`gemm_prepacked`] produces
/// bitwise-identical output to [`gemm`] over the same operands.
#[derive(Clone, Debug)]
pub struct PackedMat {
    k: usize,
    n: usize,
    nr: usize,
    panels: Vec<f64>,
}

impl PackedMat {
    /// Pack the logical `k × n` operand B (stored per `layout`).
    pub fn pack(b: &[f64], layout: Layout, k: usize, n: usize) -> Self {
        let nr = if n <= NR4 { NR4 } else { NR };
        let n_panels = n.div_ceil(nr);
        let mut panels = vec![0.0; n_panels * k * nr];
        for jb in 0..n_panels {
            pack_b(
                b,
                layout,
                k,
                n,
                jb * nr,
                nr,
                &mut panels[jb * k * nr..(jb + 1) * k * nr],
            );
        }
        PackedMat { k, n, nr, panels }
    }
}

/// Packed matrix multiply against a pre-packed B: logical
/// `(m × k) · (k × n) -> out` with `k`/`n` taken from `b`. `out` is fully
/// overwritten (`out.len() == m * n`). Bitwise-identical to [`gemm`] with
/// the same operands.
pub fn gemm_prepacked(m: usize, a: &[f64], a_layout: Layout, b: &PackedMat, out: &mut [f64]) {
    gemm_prepacked_with(m, a, a_layout, b, out, kernel_tier());
}

/// [`gemm_prepacked`] with the micro-kernel tier pinned, so tests can
/// exercise every tier the CPU runs (panics on one it does not).
#[doc(hidden)]
pub fn gemm_prepacked_with(
    m: usize,
    a: &[f64],
    a_layout: Layout,
    b: &PackedMat,
    out: &mut [f64],
    tier: Tier,
) {
    let (n, k, nr) = (b.n, b.k, b.nr);
    debug_assert_eq!(out.len(), m * n);
    assert_runs(tier);
    if m == 0 || n == 0 {
        return;
    }
    if k == 0 {
        out.fill(0.0);
        return;
    }
    if m * n * k > PAR_FLOPS && m > ROW_BLOCK {
        let bpack = &b.panels;
        out.par_chunks_mut(ROW_BLOCK * n)
            .enumerate()
            .for_each(|(blk, chunk)| {
                let row0 = blk * ROW_BLOCK;
                let row1 = (row0 + ROW_BLOCK).min(m);
                gemm_rows(a, a_layout, bpack, m, n, k, nr, row0, row1, chunk, tier);
            });
    } else {
        gemm_rows(a, a_layout, &b.panels, m, n, k, nr, 0, m, out, tier);
    }
}

/// `m·n·k` below which the packed path is not worth the packing traffic
/// and callers should prefer a naive loop.
pub(crate) const GEMM_MIN_FLOPS: usize = 4096;

/// Whether the packed engine is expected to beat a naive loop for this
/// problem shape.
#[inline]
pub fn gemm_worthwhile(m: usize, n: usize, k: usize) -> bool {
    m * n * k >= GEMM_MIN_FLOPS && n >= 2 && k >= 2
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive(m: usize, n: usize, k: usize, a: &[f64], b: &[f64]) -> Vec<f64> {
        let mut out = vec![0.0; m * n];
        for i in 0..m {
            for p in 0..k {
                for j in 0..n {
                    out[i * n + j] += a[i * k + p] * b[p * n + j];
                }
            }
        }
        out
    }

    fn transpose(src: &[f64], rows: usize, cols: usize) -> Vec<f64> {
        let mut out = vec![0.0; rows * cols];
        for i in 0..rows {
            for j in 0..cols {
                out[j * rows + i] = src[i * cols + j];
            }
        }
        out
    }

    fn fill(n: usize, seed: u64) -> Vec<f64> {
        // Cheap deterministic pseudo-random values in [-2, 2].
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

    /// Shapes spanning single-tile, ragged-edge, and multi-tile/multi-panel
    /// cases (the latter catch kernels that leak state between tiles).
    const SHAPES: &[(usize, usize, usize)] = &[
        (1, 1, 1),
        (3, 5, 7),
        (4, 8, 16),
        (5, 9, 3),
        (17, 13, 11),
        (64, 64, 64),
        (70, 33, 29),
        (128, 4, 128),
        (2, 100, 1),
    ];

    fn check_all_layouts(
        run: impl Fn(usize, usize, usize, &[f64], Layout, &[f64], Layout) -> Vec<f64>,
    ) {
        for &(m, n, k) in SHAPES {
            let a = fill(m * k, 1 + m as u64);
            let b = fill(k * n, 2 + n as u64);
            let expect = naive(m, n, k, &a, &b);
            let at = transpose(&a, m, k);
            let bt = transpose(&b, k, n);
            for (al, aa) in [(Layout::Normal, &a), (Layout::Transposed, &at)] {
                for (bl, bb) in [(Layout::Normal, &b), (Layout::Transposed, &bt)] {
                    let out = run(m, n, k, aa, al, bb, bl);
                    for (x, y) in out.iter().zip(&expect) {
                        assert!(
                            (x - y).abs() <= 1e-12 * (1.0 + y.abs()),
                            "({m},{n},{k}) {al:?}/{bl:?}: {x} vs {y}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn all_layouts_match_naive_across_ragged_shapes() {
        check_all_layouts(|m, n, k, a, al, b, bl| {
            let mut out = vec![0.0; m * n];
            gemm(m, n, k, a, al, b, bl, &mut out);
            out
        });
    }

    /// The scalar micro-kernels must match the naive reference even when
    /// the host CPU would normally dispatch to the FMA kernels — this is
    /// the path every non-AVX2 target (e.g. aarch64) takes.
    #[test]
    fn forced_scalar_kernels_match_naive_across_ragged_shapes() {
        check_all_layouts(|m, n, k, a, al, b, bl| {
            let mut out = vec![0.0; m * n];
            gemm_with(m, n, k, a, al, b, bl, &mut out, Tier::Scalar);
            out
        });
    }

    #[test]
    fn zero_k_zeroes_output() {
        let mut out = vec![7.0; 6];
        gemm(2, 3, 0, &[], Layout::Normal, &[], Layout::Normal, &mut out);
        assert!(out.iter().all(|&x| x == 0.0));
    }

    /// Pre-packing B once must reproduce the per-call pack bit for bit,
    /// on every micro-kernel tier the CPU runs and both B layouts.
    #[test]
    fn prepacked_matches_gemm_bitwise_across_ragged_shapes() {
        for tier in Tier::ALL.into_iter().filter(|t| t.supported()) {
            for &(m, n, k) in SHAPES {
                let a = fill(m * k, 1 + m as u64);
                let b = fill(k * n, 2 + n as u64);
                let bt = transpose(&b, k, n);
                for (bl, bb) in [(Layout::Normal, &b), (Layout::Transposed, &bt)] {
                    let mut want = vec![0.0; m * n];
                    gemm_with(m, n, k, &a, Layout::Normal, bb, bl, &mut want, tier);
                    let packed = PackedMat::pack(bb, bl, k, n);
                    assert_eq!((packed.k, packed.n), (k, n));
                    let mut got = vec![0.0; m * n];
                    gemm_prepacked_with(m, &a, Layout::Normal, &packed, &mut got, tier);
                    assert_eq!(got, want, "({m},{n},{k}) {bl:?} {tier:?}");
                }
            }
        }
    }

    /// Widths that straddle the 4-, 8- and 16-column tiles.
    const RAGGED: [usize; 14] = [1, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 33, 39, 128];

    /// The AVX2 and AVX-512 micro-kernels, each called directly, give the
    /// same bits on ragged widths and on operands holding ±∞, NaN and a
    /// 1e300 spread (an AVX-512 leg is skipped, with a note, on CPUs
    /// without it).
    #[test]
    fn fused_tiers_match_bitwise_on_ragged_and_hostile_operands() {
        if !Tier::Avx2.supported() {
            println!("no AVX2+FMA on this CPU: fused GEMM tiers not compared");
            return;
        }
        if !Tier::Avx512.supported() {
            println!("no AVX-512F on this CPU: AVX-512 GEMM leg skipped");
            return;
        }
        for &n in &RAGGED {
            for &(m, k) in &[(1usize, 1usize), (5, 3), (13, 16), (64, 33)] {
                for hostile in [false, true] {
                    let mut a = fill(m * k, 3 + n as u64);
                    let mut b = fill(k * n, 5 + m as u64);
                    if hostile {
                        let (na, nb) = (a.len(), b.len());
                        a[0] = f64::INFINITY;
                        a[na / 2] = 1e300;
                        b[nb - 1] = f64::NAN;
                        b[nb / 3] = f64::NEG_INFINITY;
                        b[0] = -1e-300;
                    }
                    let run = |tier| {
                        let mut out = vec![0.0; m * n];
                        gemm_with(
                            m,
                            n,
                            k,
                            &a,
                            Layout::Normal,
                            &b,
                            Layout::Normal,
                            &mut out,
                            tier,
                        );
                        out
                    };
                    let (want, got) = (run(Tier::Avx2), run(Tier::Avx512));
                    for (i, (g, w)) in got.iter().zip(&want).enumerate() {
                        assert!(
                            g.to_bits() == w.to_bits() || (g.is_nan() && w.is_nan()),
                            "({m},{n},{k}) hostile {hostile} element {i}: {g:e} vs {w:e}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn prepacked_zero_k_zeroes_output() {
        let packed = PackedMat::pack(&[], Layout::Normal, 0, 3);
        let mut out = vec![7.0; 6];
        gemm_prepacked(2, &[], Layout::Normal, &packed, &mut out);
        assert!(out.iter().all(|&x| x == 0.0));
    }
}
