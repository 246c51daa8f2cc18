//! Packed, cache-blocked GEMM engine.
//!
//! One engine serves every dense matmul shape in the workspace: plain
//! `A·B`, `A·Bᵀ` (attention scores, `dA` backward), and `Aᵀ·B` (`dB`
//! backward), over both [`crate::Mat`] and the `dbat-nn` tensors:
//!
//! 1. **Pack** B into zero-padded column panels `NR = 8` wide, whatever
//!    its layout: once per call, or once per model load ([`PackedMat`]).
//! 2. Run a **register tile** over each block of output, broadcasting
//!    `A[i, p]` straight from A in either layout (A is not packed): output
//!    traffic drops from one read-modify-write per multiply (the naive
//!    `ikj` loop) to one store per `k` products.
//!
//! The vector tile is one body over the lane types: `TILE_ROWS` rows of
//! two vectors (4 × 8 on AVX2, 8 × 16 on AVX-512), one vector for a last
//! strip of at most `N` columns, stored under a lane mask. Every output
//! element is one FMA chain over `k` in ascending order on both vector
//! tiers, so they give the same bits; the scalar 4 × 8 tile (the `Scalar`
//! tier, and every non-x86-64 target) uses plain mul+add and autovectorises
//! at whatever width the target offers. Products accumulate over `k` in the
//! naive loop's order, so results match it within a few ULPs (FMA keeps
//! intermediate products unrounded — more accurate, not reordered).
//! [`gemm_prepacked`]'s [`Chains`] start each chain from a given row and
//! add a bias and a ReLU in the store (DESIGN §9 has the tile's figures).
//!
//! Row-blocks dispatch over rayon above `PAR_FLOPS` (the B pack is shared
//! read-only).

#[cfg(target_arch = "x86_64")]
use crate::lanes::{run_avx2, run_avx512, Kernel, Lanes};
use crate::tier::{assert_runs, kernel_tier, Tier};
use rayon::prelude::*;

/// Rows per scalar tile.
const MR: usize = 4;
/// Columns per packed B panel, and per scalar tile.
const NR: usize = 8;

/// `m·n·k` above which row-blocks are distributed over rayon workers.
const PAR_FLOPS: usize = 64 * 64 * 64;
/// Rows per parallel work unit (a multiple of every tier's tile rows).
const ROW_BLOCK: usize = 64;
/// The most rows a vector tile holds ([`Lanes::TILE_ROWS`]).
#[cfg(target_arch = "x86_64")]
const MAX_TILE_ROWS: usize = 8;

/// How a packed operand is laid out in its source slice.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Layout {
    /// Row-major, logical orientation: `src[i * ld + j]` is element `(i, j)`.
    Normal,
    /// Row-major storage of the *transpose*: `src[j * ld + i]` is `(i, j)`.
    Transposed,
}

/// Each output's chain over `k` starts from `start[j]` (zero by default)
/// and is stored as `relu?(chain + bias[j])`. Starting from a row keeps a
/// split chain's bits: `[x | y] · [W₁; W₂]` is `y · W₂` started from
/// `x · W₁`.
#[derive(Clone, Copy, Debug, Default)]
pub struct Chains<'a> {
    /// Every row's chains start from this row (`n` values).
    pub start: Option<&'a [f64]>,
    /// Added to every finished chain (`n` values).
    pub bias: Option<&'a [f64]>,
    /// `v.max(0.0)` after the bias.
    pub relu: bool,
}

impl Chains<'_> {
    /// The store's bias and ReLU over the finished chains of columns
    /// `j0 .. j0 + row.len()` of one row.
    pub fn finish(&self, row: &mut [f64], j0: usize) {
        if let Some(bias) = self.bias {
            for (o, &b) in row.iter_mut().zip(&bias[j0..]) {
                *o += b;
            }
        }
        if self.relu {
            for o in row {
                *o = o.max(0.0);
            }
        }
    }
}

/// Rows `span` of one product against the packed B: the kernel every tier
/// runs, in its own tiles.
struct Product<'a> {
    /// `A[i, p]` is `a[i * rs + p * ps]`, `strides = [rs, ps]`.
    a: &'a [f64],
    strides: [usize; 2],
    bpack: &'a [f64],
    /// `[m, n, k]`.
    shape: [usize; 3],
    /// `[row0, row1)`; `out` holds these rows.
    span: [usize; 2],
    out: &'a mut [f64],
    chains: Chains<'a>,
}

impl Product<'_> {
    /// The rows in tiles of `mr` rows by `w` columns: `tile(self, i0, j0)`
    /// runs the one at row `i0`, column `j0`.
    #[inline(always)]
    fn tiles(mut self, [mr, w]: [usize; 2], mut tile: impl FnMut(&mut Self, usize, usize)) {
        for i0 in (self.span[0]..self.span[1]).step_by(mr) {
            for j0 in (0..self.shape[1]).step_by(w) {
                tile(&mut self, i0, j0);
            }
        }
    }
}

/// Scalar `MR × NR` tile at row `i0`, column `j0`: plain mul+add so the
/// compiler can autovectorise at the target's native width. Rows past the
/// span re-read its last row; their chains are dropped.
fn tile_scalar(t: &mut Product, i0: usize, j0: usize) {
    let ([_, n, k], [row0, row1], [rs, ps]) = (t.shape, t.span, t.strides);
    let (last, cols) = ((row1 - 1).min(i0 + MR - 1), (n - j0).min(NR));
    let mut c = [[0.0; NR]; MR];
    if let Some(start) = t.chains.start {
        c.iter_mut()
            .for_each(|row| row[..cols].copy_from_slice(&start[j0..][..cols]));
    }
    let panel = &t.bpack[j0 / NR * k * NR..];
    for p in 0..k {
        for (i, row) in (i0..).zip(&mut c) {
            let av = t.a[i.min(last) * rs + p * ps];
            for (o, &bv) in row.iter_mut().zip(&panel[p * NR..][..NR]) {
                *o += av * bv;
            }
        }
    }
    for (i, row) in (i0..=last).zip(&c) {
        let dst = &mut t.out[(i - row0) * n + j0..][..cols];
        dst.copy_from_slice(&row[..cols]);
        t.chains.finish(dst, j0);
    }
}

/// `TILE_ROWS × V·N` tile on `L` lanes at row `i0`, column `j0`, with no A
/// pack: each k-step broadcasts `A[i, p]` in place, loads `V` vectors of B
/// and runs `TILE_ROWS·V` FMAs into accumulators started from
/// [`Chains::start`]. The store adds the bias, applies the ReLU and writes
/// the tile's outputs under a lane mask. Each element is one FMA chain over
/// `k` in ascending order, whatever `L` and `V`: the same bits on every
/// vector tier. Rows past the span re-read its last row; their chains are
/// dropped.
///
/// # Safety
/// As [`Lanes`]; at most `V · N` columns are left from `j0`, A holds
/// `m × k`, and `bpack` every panel.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
unsafe fn tile<L: Lanes, const V: usize>(t: &mut Product, i0: usize, j0: usize) {
    let ([_, n, k], [row0, row1], [rs, ps]) = (t.shape, t.span, t.strides);
    let (last, cols) = ((row1 - 1).min(i0 + L::TILE_ROWS - 1), n - j0);
    let (mut mask, mut start, mut bias) =
        ([L::first(0); V], [L::splat(0.0); V], [L::splat(0.0); V]);
    let mut br = [t.bpack.as_ptr(); V];
    for v in 0..V {
        let c = j0 + v * L::N;
        mask[v] = L::first(cols.saturating_sub(v * L::N));
        if let Some(r) = t.chains.start {
            start[v] = L::load_masked(mask[v], r.as_ptr().add(c));
        }
        if let Some(r) = t.chains.bias {
            bias[v] = L::load_masked(mask[v], r.as_ptr().add(c));
        }
        // Columns `c ..` sit in panel `c / NR`.
        br[v] = br[v].wrapping_add(c / NR * k * NR + c % NR);
    }
    let mut ar = [t.a.as_ptr(); MAX_TILE_ROWS];
    for (i, a) in (i0..).zip(&mut ar) {
        *a = a.wrapping_add(i.min(last) * rs);
    }
    let mut c = [start; MAX_TILE_ROWS];
    for p in 0..k {
        let mut bv = start;
        for v in 0..V {
            bv[v] = L::load(br[v].add(p * NR));
        }
        for (acc, a) in c.iter_mut().zip(ar).take(L::TILE_ROWS) {
            let av = L::splat(*a.add(p * ps));
            for v in 0..V {
                acc[v] = av.fmadd(bv[v], acc[v]);
            }
        }
    }
    let out = t.out.as_mut_ptr();
    for (i, acc) in (i0..=last).zip(&c) {
        for v in 0..V {
            let mut x = acc[v];
            if t.chains.bias.is_some() {
                x = x.add(bias[v]);
            }
            if t.chains.relu {
                x = x.max(L::splat(0.0));
            }
            x.store_masked(mask[v], out.add((i - row0) * n + j0 + v * L::N));
        }
    }
}

/// Tiles of two vectors per row, one where at most `N` columns are left.
#[cfg(target_arch = "x86_64")]
impl Kernel for Product<'_> {
    #[inline(always)]
    unsafe fn run<L: Lanes>(self) {
        self.tiles([L::TILE_ROWS, 2 * L::N], |t, i0, j0| {
            if t.shape[1] - j0 > L::N {
                tile::<L, 2>(t, i0, j0)
            } else {
                tile::<L, 1>(t, i0, j0)
            }
        });
    }
}

/// One product's rows on the tier's tiles.
fn gemm_rows(p: Product, tier: Tier) {
    #[cfg(target_arch = "x86_64")]
    match tier {
        // SAFETY (both arms): the tier runs on this CPU (`assert_runs`); A
        // holds `m × k` (asserted) and `bpack` every panel.
        Tier::Avx512 => return unsafe { run_avx512(p) },
        Tier::Avx2 => return unsafe { run_avx2(p) },
        Tier::Scalar => {}
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = tier;
    p.tiles([MR, NR], tile_scalar);
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

/// [`gemm`] with the tile's tier pinned, so tests can exercise every
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
    let packed = PackedMat::pack(b, b_layout, k, n);
    gemm_prepacked_with(m, a, a_layout, &packed, Chains::default(), out, tier);
}

/// A B operand packed once into `NR`-column panels and kept for reuse
/// across many GEMM calls.
///
/// [`gemm`] re-packs B on every invocation, which is the right trade for
/// one-shot products but pure overhead when the same operand (a layer's
/// weight matrix) is multiplied every decision interval. `PackedMat`
/// hoists that pack to model load/refit time: the panel layout is
/// *identical* to what [`gemm`] builds internally, so [`gemm_prepacked`]
/// produces bitwise-identical output to [`gemm`] over the same operands.
#[derive(Clone, Debug)]
pub struct PackedMat {
    k: usize,
    n: usize,
    panels: Vec<f64>,
}

impl PackedMat {
    /// Pack the logical `k × n` operand B (stored per `layout`).
    pub fn pack(b: &[f64], layout: Layout, k: usize, n: usize) -> Self {
        // Panel `j0 / NR` holds columns `j0 ..` as `panel[p * NR + jr]`,
        // zero past `n`.
        let mut panels = vec![0.0; n.div_ceil(NR) * k * NR];
        for j0 in (0..n).step_by(NR) {
            let (panel, nw) = (&mut panels[j0 * k..][..k * NR], NR.min(n - j0));
            match layout {
                Layout::Normal => {
                    for p in 0..k {
                        panel[p * NR..][..nw].copy_from_slice(&b[p * n + j0..][..nw]);
                    }
                }
                // B stored n × k: walk the panel's source rows.
                Layout::Transposed => {
                    for (jr, row) in b[j0 * k..].chunks(k.max(1)).take(nw).enumerate() {
                        for (p, &x) in row.iter().enumerate() {
                            panel[p * NR + jr] = x;
                        }
                    }
                }
            }
        }
        PackedMat { k, n, panels }
    }
}

/// Packed matrix multiply against a pre-packed B: logical
/// `(m × k) · (k × n) -> out` with `k`/`n` taken from `b`, each chain
/// started and stored per `chains`. `out` is fully overwritten
/// (`out.len() == m * n`). With default [`Chains`], bitwise-identical to
/// [`gemm`] with the same operands.
pub fn gemm_prepacked(
    m: usize,
    a: &[f64],
    a_layout: Layout,
    b: &PackedMat,
    chains: Chains,
    out: &mut [f64],
) {
    gemm_prepacked_with(m, a, a_layout, b, chains, out, kernel_tier());
}

/// [`gemm_prepacked`] with the tile's tier pinned, so tests can
/// exercise every tier the CPU runs (panics on one it does not).
#[doc(hidden)]
pub fn gemm_prepacked_with(
    m: usize,
    a: &[f64],
    a_layout: Layout,
    b: &PackedMat,
    chains: Chains,
    out: &mut [f64],
    tier: Tier,
) {
    let (n, k) = (b.n, b.k);
    // The vector tiles read and write through raw pointers.
    assert!(a.len() >= m * k && out.len() == m * n);
    assert!([chains.start, chains.bias]
        .iter()
        .flatten()
        .all(|r| r.len() >= n));
    assert_runs(tier);
    if m == 0 || n == 0 {
        return;
    }
    let strides = match a_layout {
        Layout::Normal => [k, 1],
        Layout::Transposed => [1, m],
    };
    let rows = |span, out| {
        let (bpack, shape) = (&b.panels[..], [m, n, k]);
        gemm_rows(
            Product {
                a,
                strides,
                bpack,
                shape,
                span,
                out,
                chains,
            },
            tier,
        );
    };
    if m * n * k > PAR_FLOPS && m > ROW_BLOCK {
        out.par_chunks_mut(ROW_BLOCK * n)
            .enumerate()
            .for_each(|(blk, out)| {
                let row0 = blk * ROW_BLOCK;
                rows([row0, (row0 + ROW_BLOCK).min(m)], out);
            });
    } else {
        rows([0, m], out);
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

    /// The scalar tile must match the naive reference even when the host
    /// CPU would normally dispatch to the FMA tiles — this is
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
    /// on every tier the CPU runs and both B layouts.
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
                    let none = Chains::default();
                    gemm_prepacked_with(m, &a, Layout::Normal, &packed, none, &mut got, tier);
                    assert_eq!(got, want, "({m},{n},{k}) {bl:?} {tier:?}");
                }
            }
        }
    }

    /// Widths that straddle the 4-, 8- and 16-column tiles.
    const RAGGED: [usize; 14] = [1, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 33, 39, 128];

    /// The vector tiers' reference, written apart from them: each output a
    /// `mul_add` chain over `k` in ascending order from zero.
    fn reference(m: usize, n: usize, k: usize, a: &[f64], al: Layout, b: &[f64]) -> Vec<f64> {
        let at = |i: usize, p: usize| match al {
            Layout::Normal => a[i * k + p],
            Layout::Transposed => a[p * m + i],
        };
        (0..m * n)
            .map(|e| (0..k).fold(0.0, |acc, p| at(e / n, p).mul_add(b[p * n + e % n], acc)))
            .collect()
    }

    /// Each vector tier the CPU runs, called directly, against the
    /// independent `mul_add` reference, and the two against each other where
    /// both run: ragged widths, both A layouts, and operands holding ±∞, NaN
    /// and a 1e300 spread. A tier the CPU lacks is skipped with a note.
    #[test]
    fn fused_tiers_match_bitwise_on_ragged_and_hostile_operands() {
        let tiers: Vec<Tier> = [Tier::Avx2, Tier::Avx512]
            .into_iter()
            .filter(|t| {
                t.supported() || {
                    println!("{t:?} not supported on this CPU: its GEMM leg skipped");
                    false
                }
            })
            .collect();
        let same = |got: &[f64], want: &[f64], what: &str| {
            for (i, (g, w)) in got.iter().zip(want).enumerate() {
                assert!(
                    g.to_bits() == w.to_bits() || (g.is_nan() && w.is_nan()),
                    "{what} element {i}: {g:e} vs {w:e}"
                );
            }
        };
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
                    let at = transpose(&a, m, k);
                    for (al, a) in [(Layout::Normal, &a), (Layout::Transposed, &at)] {
                        let what = format!("({m},{n},{k}) {al:?} hostile {hostile}");
                        let want = reference(m, n, k, a, al, &b);
                        let got: Vec<Vec<f64>> = tiers
                            .iter()
                            .map(|&tier| {
                                let mut out = vec![0.0; m * n];
                                gemm_with(m, n, k, a, al, &b, Layout::Normal, &mut out, tier);
                                same(&out, &want, &format!("{what} {tier:?} vs reference"));
                                out
                            })
                            .collect();
                        if let [avx2, avx512] = &got[..] {
                            same(avx512, avx2, &format!("{what} AVX-512 vs AVX2"));
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn prepacked_zero_k_zeroes_output() {
        let packed = PackedMat::pack(&[], Layout::Normal, 0, 3);
        let mut out = vec![7.0; 6];
        gemm_prepacked(2, &[], Layout::Normal, &packed, Chains::default(), &mut out);
        assert!(out.iter().all(|&x| x == 0.0));
    }
}
