//! Fused single-head attention, forward and backward: scores → softmax →
//! context one block of query rows at a time, never materialising the
//! `S × S` matrix in either direction.
//!
//! The unfused pipeline is three calls per head — `gemm(Q·Kᵀ)`, a row
//! softmax, `gemm(attn·V)` — over an `S × S` intermediate that falls out
//! of L1 (128 KB at `S = 128`), with a `k = d_h` and an `n = d_h` GEMM
//! whose packing and tile write-back outweigh their arithmetic. Here each
//! block of query rows (`ROW_BLOCK` = 8, or `WIDE_BLOCK` = 16 under
//! AVX-512) writes its score rows into a scratch that stays in L1, runs the
//! softmax over them, and accumulates the context rows straight into the
//! caller's output.
//!
//! Operands are *strided views*: element `(i, p)` of Q, K, V and the
//! output lives at `i * ld + p`, so a head reads its columns of the merged
//! `[S, H·d_h]` projections and writes its columns of the merged context
//! in place — no head split, merge or gather copies.
//!
//! Determinism contract: every output element executes exactly the
//! operation sequence of the unfused pipeline. Each score is a chain from
//! zero over `p`, the softmax is the one shared row order, and each
//! context element is a chain from zero over `j`. The chains are fused
//! multiply-adds where [`gemm`](crate::gemm::gemm) would pick a vector
//! [`Tier`] *and* [`gemm_worthwhile`] holds, and plain multiply-then-add
//! otherwise (mirroring the scalar micro-kernels and the callers' naive
//! small-operand loops), so the result is **bitwise identical** to `gemm`
//! → softmax → `gemm` under the same dispatch.
//!
//! The two vector flavours differ only in how lanes are laid out. The
//! AVX2 flavour puts key positions (scores) and head columns (context)
//! across its 4 lanes and runs the row softmax over the block's score
//! rows (Kᵀ packed once per head). The AVX-512 flavour puts the block's
//! 16 query rows across the lanes of two 8-lane halves: a key's scores are
//! one vector per half, read straight from K with no Kᵀ pack; the softmax
//! needs no per-row horizontal step (`exp::softmax_lanes_avx512`); and a
//! head column's context is one vector per half, so a `d_h = 4` head runs
//! the 8 independent FMA chains two ports need. Lanes over rows made the
//! AVX-512 head pay (`core.encode_us` 494–548 µs with the AVX2 head
//! against 379–397 µs with 8 rows to the lanes); 16 rows took one 128-key
//! head from ~20 µs to ~16 µs (DESIGN §9).
//!
//! ## Backward
//!
//! [`attention_head_backward`] is the training half of the same kernel. The
//! forward saves nothing `S × S` — the tape keeps only Q, K, V and the
//! context O, all `[S, d_h]` views — so for each block of `ROW_BLOCK` query
//! rows the backward **recomputes** the block's probability rows `P` with
//! the forward's own score chains and the shared
//! [`softmax_rows_scaled_inplace`] (the same bits the forward produced),
//! then forms
//!
//! ```text
//! dP = dO·Vᵀ            dS = c · P ∘ (dP − rowsum(dO ∘ O))
//! dQ = dS·K             dK += dSᵀ·Q            dV += Pᵀ·dO
//! ```
//!
//! with scratch linear in `S`: packed Kᵀ and Vᵀ, transposed `dKᵀ`/`dVᵀ`
//! accumulators, and the `P` and `dS` rows of one block. `rowsum(dO ∘ O)`
//! equals the softmax backward's `rowsum(dP ∘ P)` because `O = P·V`; it
//! costs `d_h` instead of `S` multiplies per row.
//!
//! Summation order: every `dK`/`dV` element is one chain over the query
//! rows in ascending order (row blocks ascending, rows ascending within a
//! block), every `dQ` element is four interleaved partial sums over the
//! keys combined as `(s0 + s2) + (s1 + s3)` plus a left-to-right tail. All
//! of it stays inside one `(batch, head)` problem and depends only on
//! `seq`, `d_h` and that head's operands, so a sample's gradients do not
//! change with the batch it sits in, its position there, or the shard that
//! ran it. The chains are fused multiply-adds exactly when the forward's
//! are (see above), and plain multiply-then-add otherwise.

use crate::exp::softmax_rows_scaled_inplace;
#[cfg(target_arch = "x86_64")]
use crate::exp::{softmax_lanes_avx512, softmax_rows_with};
use crate::gemm::gemm_worthwhile;
use crate::tier::{kernel_tier, Tier};

/// Query rows per block: eight independent accumulator chains keep both
/// FMA ports busy, and `ROW_BLOCK · S` scores (8 KB at `S = 128`) plus the
/// packed Kᵀ stay L1-resident. The AVX2 and multiply-then-add forward
/// flavours and the backward use it.
const ROW_BLOCK: usize = 8;

/// Query rows per block of [`head_avx512`]: two 8-lane halves (16 KB of
/// scores at `S = 128`, still L1-resident).
const WIDE_BLOCK: usize = 16;

/// Scratch [`attention_head`] needs for one head: packed Kᵀ (`dh · seq`),
/// the score rows of one block (`WIDE_BLOCK · seq`), and the block's packed
/// query rows (`WIDE_BLOCK · dh`). Linear in `seq`.
pub fn attention_scratch_len(seq: usize, dh: usize) -> usize {
    (dh + WIDE_BLOCK) * seq + WIDE_BLOCK * dh
}

/// One attention head: `out = softmax(scale · Q·Kᵀ) · V` over strided
/// `[seq, dh]` views with row stride `ld` (see the module docs). `scratch`
/// must hold [`attention_scratch_len`] elements; its contents are
/// unspecified on entry and exit. Requires `scale > 0` (checked, as in
/// [`softmax_rows_scaled_inplace`]): the flavours agree only for a
/// positive scale. Bitwise identical to the unfused `gemm` →
/// [`softmax_rows_scaled_inplace`] → `gemm` pipeline, including the naive
/// small-operand fallback below [`gemm_worthwhile`].
#[allow(clippy::too_many_arguments)]
pub fn attention_head(
    seq: usize,
    dh: usize,
    ld: usize,
    scale: f64,
    q: &[f64],
    k: &[f64],
    v: &[f64],
    out: &mut [f64],
    scratch: &mut [f64],
) {
    assert!(scale > 0.0, "attention scale must be positive, got {scale}");
    if seq == 0 || dh == 0 {
        return;
    }
    // The vector flavours index through raw pointers; these bounds are
    // what their SAFETY arguments rest on.
    let span = (seq - 1) * ld + dh;
    assert!(ld >= dh, "row stride {ld} shorter than head width {dh}");
    assert!(q.len() >= span && k.len() >= span && v.len() >= span && out.len() >= span);
    assert!(scratch.len() >= attention_scratch_len(seq, dh));
    let (kt, rest) = scratch.split_at_mut(dh * seq);
    let (rows, qb) = rest.split_at_mut(WIDE_BLOCK * seq);
    let qb = &mut qb[..WIDE_BLOCK * dh];

    let packed = gemm_worthwhile(seq, seq, dh);
    #[cfg(target_arch = "x86_64")]
    match kernel_tier() {
        // SAFETY (both arms): `kernel_tier` returns only a tier detected on
        // this CPU; the slice bounds were asserted above.
        Tier::Avx512 if packed => {
            if dh == 4 {
                unsafe { head_avx512::<4>(seq, dh, ld, scale, q, k, v, out, rows, qb) };
            } else {
                unsafe { head_avx512::<0>(seq, dh, ld, scale, q, k, v, out, rows, qb) };
            }
            return;
        }
        Tier::Avx2 if packed => {
            pack_kt(seq, dh, ld, k, kt);
            unsafe { head_fma(seq, dh, ld, scale, q, v, out, kt, rows, qb) };
            return;
        }
        _ => {}
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = (qb, kernel_tier() == Tier::Scalar);
    pack_kt(seq, dh, ld, k, kt);
    head_mul_add(seq, dh, ld, scale, q, v, out, kt, rows, !packed);
}

/// Kᵀ packed once per head: `kt[p * seq + j] = K[j, p]`.
fn pack_kt(seq: usize, dh: usize, ld: usize, k: &[f64], kt: &mut [f64]) {
    for (j, krow) in k.chunks(ld).take(seq).enumerate() {
        for (p, &kv) in krow[..dh].iter().enumerate() {
            kt[p * seq + j] = kv;
        }
    }
}

/// Pack rows `[i0, i0 + rb)` of Q as `qb[p * w + r] = Q[i0 + r, p]` for
/// a block `w = qb.len() / dh` rows wide, zero-padding rows past `rb`, so
/// the tile loops read one contiguous panel and need no row tail.
fn pack_q_block(dh: usize, ld: usize, q: &[f64], i0: usize, rb: usize, qb: &mut [f64]) {
    let w = qb.len() / dh;
    qb.fill(0.0);
    for r in 0..rb {
        for (p, &qv) in q[(i0 + r) * ld..][..dh].iter().enumerate() {
            qb[p * w + r] = qv;
        }
    }
}

/// Multiply-then-add flavour, one row block at a time. `skip_zero` mirrors
/// the naive context loop's skip of exactly-zero attention weights (it
/// only shows when V holds a non-finite value); the scalar micro-kernels
/// do not skip.
#[allow(clippy::too_many_arguments)]
fn head_mul_add(
    seq: usize,
    dh: usize,
    ld: usize,
    scale: f64,
    q: &[f64],
    v: &[f64],
    out: &mut [f64],
    kt: &[f64],
    rows: &mut [f64],
    skip_zero: bool,
) {
    for i0 in (0..seq).step_by(ROW_BLOCK) {
        let rb = ROW_BLOCK.min(seq - i0);
        let block = &mut rows[..rb * seq];
        block.fill(0.0);
        for (r, srow) in block.chunks_exact_mut(seq).enumerate() {
            let qrow = &q[(i0 + r) * ld..][..dh];
            for (&qv, ktrow) in qrow.iter().zip(kt.chunks_exact(seq)) {
                for (s, &kv) in srow.iter_mut().zip(ktrow) {
                    *s += qv * kv;
                }
            }
        }
        softmax_rows_scaled_inplace(block, seq, scale);
        for (r, srow) in block.chunks_exact(seq).enumerate() {
            let orow = &mut out[(i0 + r) * ld..][..dh];
            orow.fill(0.0);
            for (j, &a) in srow.iter().enumerate() {
                if skip_zero && a == 0.0 {
                    continue;
                }
                for (o, &vv) in orow.iter_mut().zip(&v[j * ld..j * ld + dh]) {
                    *o += a * vv;
                }
            }
        }
    }
}

/// AVX2+FMA flavour: `ROW_BLOCK × 4` register tiles for the scores (lanes
/// over key positions) and for the context (lanes over head columns), with
/// scalar `mul_add` chains — the same correctly-rounded fused op — for the
/// key and column tails.
///
/// # Safety
/// Caller must ensure the CPU supports AVX2 and FMA, that `q`, `v` and
/// `out` hold at least `(seq - 1) * ld + dh` elements with `ld >= dh`, and
/// that `kt`, `rows`, `qb` hold `dh * seq`, `ROW_BLOCK * seq` and
/// `ROW_BLOCK * dh`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
#[allow(clippy::too_many_arguments)]
unsafe fn head_fma(
    seq: usize,
    dh: usize,
    ld: usize,
    scale: f64,
    q: &[f64],
    v: &[f64],
    out: &mut [f64],
    kt: &[f64],
    rows: &mut [f64],
    qb: &mut [f64],
) {
    use std::arch::x86_64::*;
    const RB: usize = ROW_BLOCK;
    let seq4 = seq - seq % 4;
    let dh4 = dh - dh % 4;
    for i0 in (0..seq).step_by(RB) {
        let rb = RB.min(seq - i0);
        pack_q_block(dh, ld, q, i0, rb, &mut qb[..RB * dh]);

        let (qp, ktp, rp) = (qb.as_ptr(), kt.as_ptr(), rows.as_mut_ptr());
        for j in (0..seq4).step_by(4) {
            let mut acc = [_mm256_setzero_pd(); RB];
            for p in 0..dh {
                let kv = _mm256_loadu_pd(ktp.add(p * seq + j));
                for (r, a) in acc.iter_mut().enumerate() {
                    *a = _mm256_fmadd_pd(_mm256_broadcast_sd(&*qp.add(p * RB + r)), kv, *a);
                }
            }
            for (r, a) in acc.iter().enumerate() {
                _mm256_storeu_pd(rp.add(r * seq + j), *a);
            }
        }
        for j in seq4..seq {
            for r in 0..rb {
                let mut acc = 0.0f64;
                for p in 0..dh {
                    acc = qb[p * RB + r].mul_add(kt[p * seq + j], acc);
                }
                rows[r * seq + j] = acc;
            }
        }

        softmax_rows_with(Tier::Avx2, &mut rows[..rb * seq], seq, scale);

        // Rows past `rb` were not normalised; their accumulators are
        // computed and dropped.
        let (vp, rp, op) = (v.as_ptr(), rows.as_ptr(), out.as_mut_ptr());
        for d in (0..dh4).step_by(4) {
            let mut acc = [_mm256_setzero_pd(); RB];
            for j in 0..seq {
                let vv = _mm256_loadu_pd(vp.add(j * ld + d));
                for (r, a) in acc.iter_mut().enumerate() {
                    *a = _mm256_fmadd_pd(_mm256_broadcast_sd(&*rp.add(r * seq + j)), vv, *a);
                }
            }
            for (r, a) in acc.iter().enumerate().take(rb) {
                _mm256_storeu_pd(op.add((i0 + r) * ld + d), *a);
            }
        }
        for d in dh4..dh {
            for r in 0..rb {
                let mut acc = 0.0f64;
                for j in 0..seq {
                    acc = rows[r * seq + j].mul_add(v[j * ld + d], acc);
                }
                out[(i0 + r) * ld + d] = acc;
            }
        }
    }
}

/// AVX-512 flavour, transposed: a block is `WIDE_BLOCK` (16) query rows
/// held as two 8-lane halves, lane `r` of half `h` being row `8h + r`.
/// Each key's scores are one vector per half, a chain from zero over `p`
/// of `fma(Q[r, p], K[j, p], ·)` read straight from K (no Kᵀ pack);
/// [`softmax_lanes_avx512`] exponentiates the tile with no per-row
/// horizontal step; and each context column is one vector per half, a
/// chain from zero over `j` of `fma(P[r, j], V[j, d], ·)` with
/// `P[r, j] = e[r, j] · (1 / sum_r)` formed on the fly, so a `d_h = 4`
/// head runs 8 independent chains. Every element's operations and their
/// order are [`head_fma`]'s, so the two give the same bits. The row maxima
/// fold from four accumulators per half: a finite row's maximum is the
/// same in any order, and a NaN or +∞ row normalises to all-NaN whatever
/// the fold keeps (tested in `exp`). `DH = 4` is compiled apart so its
/// loops unroll; `DH = 0` reads the width from `dh`.
///
/// # Safety
/// Caller must ensure the CPU supports AVX-512F, AVX2 and FMA, that `q`,
/// `k`, `v` and `out` hold at least `(seq - 1) * ld + dh` elements with
/// `ld >= dh`, and that `rows` and `qb` hold `WIDE_BLOCK * seq` and
/// `WIDE_BLOCK * dh`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx2,fma")]
#[allow(clippy::too_many_arguments)]
unsafe fn head_avx512<const DH: usize>(
    seq: usize,
    dh: usize,
    ld: usize,
    scale: f64,
    q: &[f64],
    k: &[f64],
    v: &[f64],
    out: &mut [f64],
    rows: &mut [f64],
    qb: &mut [f64],
) {
    use std::arch::x86_64::*;
    const RB: usize = WIDE_BLOCK;
    let dh = if DH == 0 { dh } else { DH };
    let (kp, vp) = (k.as_ptr(), v.as_ptr());
    for i0 in (0..seq).step_by(RB) {
        let rb = RB.min(seq - i0);
        pack_q_block(dh, ld, q, i0, rb, &mut qb[..RB * dh]);
        // Score tile, `rows[RB * j + r] = S[i0 + r, j]`, and its row maxima
        // in four accumulators per half (one per key of a group of four).
        let (qp, tp) = (qb.as_ptr(), rows.as_mut_ptr());
        let mut max = [[_mm512_set1_pd(f64::NEG_INFINITY); 2]; 4];
        let mut j = 0;
        while j + 4 <= seq {
            score_keys::<4>(j, dh, ld, qp, kp, tp, &mut max);
            j += 4;
        }
        while j < seq {
            score_keys::<1>(j, dh, ld, qp, kp, tp, std::array::from_mut(&mut max[0]));
            j += 1;
        }
        let fold = |h: usize| {
            _mm512_max_pd(
                _mm512_max_pd(max[0][h], max[1][h]),
                _mm512_max_pd(max[2][h], max[3][h]),
            )
        };
        let inv = softmax_lanes_avx512(&mut rows[..RB * seq], seq, scale, [fold(0), fold(1)]);
        // Rows past `rb` (zero queries) are computed and dropped.
        let mut d = 0;
        while d < dh {
            let n = if dh - d >= 4 { 4 } else { 1 };
            let mut tile = [[0.0f64; RB]; 4];
            let mut keep = |u: usize, acc: [__m512d; 2]| {
                _mm512_storeu_pd(tile[u].as_mut_ptr(), acc[0]);
                _mm512_storeu_pd(tile[u].as_mut_ptr().add(8), acc[1]);
            };
            if n == 4 {
                let acc = context_cols::<4>(seq, ld, d, rows.as_ptr(), inv, vp);
                acc.into_iter().enumerate().for_each(|(u, a)| keep(u, a));
            } else {
                let [a] = context_cols::<1>(seq, ld, d, rows.as_ptr(), inv, vp);
                keep(0, a);
            }
            for r in 0..rb {
                for (u, t) in tile[..n].iter().enumerate() {
                    out[(i0 + r) * ld + d + u] = t[r];
                }
            }
            d += n;
        }
    }
}

/// The score vectors of keys `j .. j + N` (see [`head_avx512`]), both
/// halves, stored at `t[WIDE_BLOCK * j ..]`; folds key `j + u`'s scores
/// into `max[u]`.
///
/// # Safety
/// As [`head_avx512`]; `qb` is the block's packed queries and `t` the
/// score tile.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx2,fma")]
#[inline]
#[allow(clippy::too_many_arguments)]
unsafe fn score_keys<const N: usize>(
    j: usize,
    dh: usize,
    ld: usize,
    qb: *const f64,
    k: *const f64,
    t: *mut f64,
    max: &mut [[std::arch::x86_64::__m512d; 2]; N],
) {
    use std::arch::x86_64::*;
    let mut s = [[_mm512_setzero_pd(); 2]; N];
    for p in 0..dh {
        let qv = [
            _mm512_loadu_pd(qb.add(p * WIDE_BLOCK)),
            _mm512_loadu_pd(qb.add(p * WIDE_BLOCK + 8)),
        ];
        for (u, s) in s.iter_mut().enumerate() {
            let kv = _mm512_set1_pd(*k.add((j + u) * ld + p));
            s[0] = _mm512_fmadd_pd(qv[0], kv, s[0]);
            s[1] = _mm512_fmadd_pd(qv[1], kv, s[1]);
        }
    }
    for (u, (s, m)) in s.into_iter().zip(max).enumerate() {
        for h in 0..2 {
            _mm512_storeu_pd(t.add(WIDE_BLOCK * (j + u) + 8 * h), s[h]);
            m[h] = _mm512_max_pd(m[h], s[h]);
        }
    }
}

/// The context vectors of head columns `d .. d + N` (see [`head_avx512`]),
/// both halves, from the exponentiated tile `t` and the row reciprocals
/// `inv`.
///
/// # Safety
/// As [`head_avx512`]; `t` holds `WIDE_BLOCK * seq` elements.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx2,fma")]
#[inline]
unsafe fn context_cols<const N: usize>(
    seq: usize,
    ld: usize,
    d: usize,
    t: *const f64,
    inv: [std::arch::x86_64::__m512d; 2],
    v: *const f64,
) -> [[std::arch::x86_64::__m512d; 2]; N] {
    use std::arch::x86_64::*;
    let mut acc = [[_mm512_setzero_pd(); 2]; N];
    for j in 0..seq {
        let pj = [
            _mm512_mul_pd(_mm512_loadu_pd(t.add(WIDE_BLOCK * j)), inv[0]),
            _mm512_mul_pd(_mm512_loadu_pd(t.add(WIDE_BLOCK * j + 8)), inv[1]),
        ];
        for (u, a) in acc.iter_mut().enumerate() {
            let vv = _mm512_set1_pd(*v.add(j * ld + d + u));
            a[0] = _mm512_fmadd_pd(pj[0], vv, a[0]);
            a[1] = _mm512_fmadd_pd(pj[1], vv, a[1]);
        }
    }
    acc
}

/// Scratch [`attention_head_backward`] needs for one head: packed Kᵀ and
/// Vᵀ and the transposed `dKᵀ`/`dVᵀ` accumulators (`dh · seq` each), the
/// `P` and `dS` rows of one block (`ROW_BLOCK · seq` each), and the
/// block's packed query and output-gradient rows (`ROW_BLOCK · dh` each).
/// Linear in `seq`.
pub fn attention_backward_scratch_len(seq: usize, dh: usize) -> usize {
    (4 * dh + 2 * ROW_BLOCK) * seq + 2 * ROW_BLOCK * dh
}

/// Backward of [`attention_head`]: given the forward's operands, its
/// output `o` and the output gradient `d_o`, write `dq`, `dk`, `dv` — all
/// strided `[seq, dh]` views with row stride `ld`; only those `dh` columns
/// of each row are written. `scratch` must hold
/// [`attention_backward_scratch_len`] elements; its contents are
/// unspecified on entry and exit. Requires `scale > 0`. Nothing `S × S` is
/// read or built: each block's probabilities are recomputed (see the
/// module docs for the formulas and the summation order).
#[allow(clippy::too_many_arguments)]
pub fn attention_head_backward(
    seq: usize,
    dh: usize,
    ld: usize,
    scale: f64,
    q: &[f64],
    k: &[f64],
    v: &[f64],
    o: &[f64],
    d_o: &[f64],
    dq: &mut [f64],
    dk: &mut [f64],
    dv: &mut [f64],
    scratch: &mut [f64],
) {
    if seq == 0 || dh == 0 {
        return;
    }
    let span = (seq - 1) * ld + dh;
    assert!(ld >= dh, "row stride {ld} shorter than head width {dh}");
    assert!([q, k, v, o, d_o].iter().all(|x| x.len() >= span));
    assert!(dq.len() >= span && dk.len() >= span && dv.len() >= span);
    let scratch = &mut scratch[..attention_backward_scratch_len(seq, dh)];
    // The flavour the forward took for this shape, so the recomputed
    // probabilities are the forward's, bit for bit.
    #[cfg(target_arch = "x86_64")]
    if gemm_worthwhile(seq, seq, dh) && kernel_tier().fused() {
        // SAFETY: a fused tier was detected at runtime, so AVX2 and FMA.
        unsafe { backward_fma(seq, dh, ld, scale, q, k, v, o, d_o, dq, dk, dv, scratch) };
        return;
    }
    backward_blocks::<false>(seq, dh, ld, scale, q, k, v, o, d_o, dq, dk, dv, scratch);
}

/// [`backward_blocks`] compiled with AVX2+FMA enabled, so its `mul_add`s
/// are single instructions and its lane loops use 256-bit registers.
///
/// # Safety
/// Caller must ensure the CPU supports AVX2 and FMA.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
#[allow(clippy::too_many_arguments)]
unsafe fn backward_fma(
    seq: usize,
    dh: usize,
    ld: usize,
    scale: f64,
    q: &[f64],
    k: &[f64],
    v: &[f64],
    o: &[f64],
    d_o: &[f64],
    dq: &mut [f64],
    dk: &mut [f64],
    dv: &mut [f64],
    scratch: &mut [f64],
) {
    backward_blocks::<true>(seq, dh, ld, scale, q, k, v, o, d_o, dq, dk, dv, scratch);
}

/// `a · b + c`, fused when `FMA`. Only instantiated with `FMA = true`
/// inside [`backward_fma`]: without the target feature `mul_add` is a libm
/// call.
#[inline(always)]
fn madd<const FMA: bool>(a: f64, b: f64, c: f64) -> f64 {
    if FMA {
        a.mul_add(b, c)
    } else {
        a * b + c
    }
}

/// Vector width the lane loops are written for (one AVX2 register). The
/// loops work on `[f64; LANES]` chunks so the compiler sees the width.
const LANES: usize = 4;

/// `out[r, j] = Σ_d coef[d, r] · panel[d, j]` for the `ROW_BLOCK` rows of
/// one block, each element a chain from zero over `d` — the forward's
/// score chain when `coef` is the packed query block and `panel` is Kᵀ.
/// `coef` is `[dh, ROW_BLOCK]`, `panel` is `[dh, seq]`, `out` is
/// `[ROW_BLOCK, seq]`.
#[inline(always)]
fn block_rows<const FMA: bool>(seq: usize, coef: &[f64], panel: &[f64], out: &mut [f64]) {
    const RB: usize = ROW_BLOCK;
    for jc in 0..seq / LANES {
        let mut acc = [[0.0f64; LANES]; RB];
        for (c, prow) in coef.chunks_exact(RB).zip(panel.chunks_exact(seq)) {
            let pv = prow.as_chunks::<LANES>().0[jc];
            for (a, &cr) in acc.iter_mut().zip(c) {
                for l in 0..LANES {
                    a[l] = madd::<FMA>(cr, pv[l], a[l]);
                }
            }
        }
        for (orow, a) in out.chunks_exact_mut(seq).zip(&acc) {
            orow.as_chunks_mut::<LANES>().0[jc] = *a;
        }
    }
    for j in seq - seq % LANES..seq {
        for (r, orow) in out.chunks_exact_mut(seq).enumerate() {
            let mut acc = 0.0;
            for (c, prow) in coef.chunks_exact(RB).zip(panel.chunks_exact(seq)) {
                acc = madd::<FMA>(c[r], prow[j], acc);
            }
            orow[j] = acc;
        }
    }
}

/// `acc[d, j] += Σ_r rows[r, j] · coef[d, r]`, continuing each element's
/// chain over the block's rows in ascending order. Shapes as
/// [`block_rows`], with `acc` in `panel`'s layout.
#[inline(always)]
fn block_accumulate<const FMA: bool>(seq: usize, coef: &[f64], rows: &[f64], acc: &mut [f64]) {
    const RB: usize = ROW_BLOCK;
    let rows: [&[f64]; RB] = std::array::from_fn(|r| &rows[r * seq..][..seq]);
    for (c, arow) in coef.chunks_exact(RB).zip(acc.chunks_exact_mut(seq)) {
        let (chunks, tail) = arow.as_chunks_mut::<LANES>();
        for (jc, a) in chunks.iter_mut().enumerate() {
            for (row, &cr) in rows.iter().zip(c) {
                let rv = row.as_chunks::<LANES>().0[jc];
                for l in 0..LANES {
                    a[l] = madd::<FMA>(rv[l], cr, a[l]);
                }
            }
        }
        for (j, a) in (seq - seq % LANES..seq).zip(tail) {
            for (row, &cr) in rows.iter().zip(c) {
                *a = madd::<FMA>(row[j], cr, *a);
            }
        }
    }
}

/// `out[r, d] = Σ_j rows[r, j] · panel[d, j]` for the first `rb` rows of
/// the block (`out` strided by `ld`): `LANES` interleaved partial sums
/// combined as `(s0 + s2) + (s1 + s3)`, then the tail left to right.
#[inline(always)]
fn block_dots<const FMA: bool>(
    seq: usize,
    ld: usize,
    rows: &[f64],
    panel: &[f64],
    out: &mut [f64],
    rb: usize,
) {
    const RB: usize = ROW_BLOCK;
    let rows: [&[f64]; RB] = std::array::from_fn(|r| &rows[r * seq..][..seq]);
    for (d, prow) in panel.chunks_exact(seq).enumerate() {
        let (pchunks, ptail) = prow.as_chunks::<LANES>();
        let mut acc = [[0.0f64; LANES]; RB];
        for (jc, pv) in pchunks.iter().enumerate() {
            for (a, row) in acc.iter_mut().zip(&rows) {
                let rv = row.as_chunks::<LANES>().0[jc];
                for l in 0..LANES {
                    a[l] = madd::<FMA>(rv[l], pv[l], a[l]);
                }
            }
        }
        for ((a, row), orow) in acc.iter().zip(&rows).zip(out.chunks_mut(ld)).take(rb) {
            let mut sum = (a[0] + a[2]) + (a[1] + a[3]);
            for (&s, &p) in row[seq - ptail.len()..].iter().zip(ptail) {
                sum = madd::<FMA>(s, p, sum);
            }
            orow[d] = sum;
        }
    }
}

/// The backward proper, one row block at a time in ascending order; both
/// flavours are this one body.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn backward_blocks<const FMA: bool>(
    seq: usize,
    dh: usize,
    ld: usize,
    scale: f64,
    q: &[f64],
    k: &[f64],
    v: &[f64],
    o: &[f64],
    d_o: &[f64],
    dq: &mut [f64],
    dk: &mut [f64],
    dv: &mut [f64],
    scratch: &mut [f64],
) {
    const RB: usize = ROW_BLOCK;
    let (kt, rest) = scratch.split_at_mut(dh * seq);
    let (vt, rest) = rest.split_at_mut(dh * seq);
    let (dkt, rest) = rest.split_at_mut(dh * seq);
    let (dvt, rest) = rest.split_at_mut(dh * seq);
    let (p, rest) = rest.split_at_mut(RB * seq);
    let (ds, rest) = rest.split_at_mut(RB * seq);
    let (qb, dob) = rest.split_at_mut(RB * dh);

    // Kᵀ and Vᵀ packed once per head: kt[d * seq + j] = K[j, d].
    for (j, (krow, vrow)) in k.chunks(ld).zip(v.chunks(ld)).take(seq).enumerate() {
        for (d, (&kv, &vv)) in krow[..dh].iter().zip(&vrow[..dh]).enumerate() {
            kt[d * seq + j] = kv;
            vt[d * seq + j] = vv;
        }
    }
    dkt.fill(0.0);
    dvt.fill(0.0);

    for i0 in (0..seq).step_by(RB) {
        let rb = RB.min(seq - i0);
        // The block's query and output-gradient rows as [dh, RB] panels,
        // zero past `rb` so a short last block needs no row tail: its
        // missing rows contribute exact zeros everywhere below.
        qb.fill(0.0);
        dob.fill(0.0);
        let mut delta = [0.0f64; RB];
        for r in 0..rb {
            let at = (i0 + r) * ld;
            for d in 0..dh {
                qb[d * RB + r] = q[at + d];
                dob[d * RB + r] = d_o[at + d];
                delta[r] = madd::<FMA>(d_o[at + d], o[at + d], delta[r]);
            }
        }

        block_rows::<FMA>(seq, qb, kt, p);
        softmax_rows_scaled_inplace(&mut p[..rb * seq], seq, scale);
        block_rows::<FMA>(seq, dob, vt, ds);
        for ((dsrow, prow), &dl) in ds
            .chunks_exact_mut(seq)
            .zip(p.chunks_exact(seq))
            .zip(&delta)
        {
            for (x, &pv) in dsrow.iter_mut().zip(prow) {
                *x = pv * (*x - dl) * scale;
            }
        }
        block_accumulate::<FMA>(seq, dob, p, dvt);
        block_accumulate::<FMA>(seq, qb, ds, dkt);
        block_dots::<FMA>(seq, ld, ds, kt, &mut dq[i0 * ld..], rb);
    }

    for (j, (krow, vrow)) in dk
        .chunks_mut(ld)
        .zip(dv.chunks_mut(ld))
        .take(seq)
        .enumerate()
    {
        for (d, (kg, vg)) in krow[..dh].iter_mut().zip(&mut vrow[..dh]).enumerate() {
            *kg = dkt[d * seq + j];
            *vg = dvt[d * seq + j];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm::{gemm_with, Layout, GEMM_MIN_FLOPS};

    fn fill(n: usize, seed: u64) -> Vec<f64> {
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

    /// The unfused pipeline on contiguous `[seq, dh]` operands with the
    /// micro-kernel choice pinned: the attention weights and the context.
    fn unfused(
        seq: usize,
        dh: usize,
        scale: f64,
        q: &[f64],
        k: &[f64],
        v: &[f64],
        tier: Tier,
    ) -> (Vec<f64>, Vec<f64>) {
        use Layout::{Normal, Transposed};
        let mut s = vec![0.0; seq * seq];
        gemm_with(seq, seq, dh, q, Normal, k, Transposed, &mut s, tier);
        softmax_rows_scaled_inplace(&mut s, seq, scale);
        let mut ctx = vec![0.0; seq * dh];
        gemm_with(seq, dh, seq, &s, Normal, v, Normal, &mut ctx, tier);
        (s, ctx)
    }

    /// One forward flavour called directly, whatever the shape or
    /// `kernel_tier` would pick, on strided operands with the head at
    /// column `off`: the whole `[seq, ld]` output, padding included.
    #[allow(clippy::too_many_arguments)]
    fn flavour(
        tier: Tier,
        skip_zero: bool,
        seq: usize,
        dh: usize,
        ld: usize,
        scale: f64,
        qs: &[f64],
        ks: &[f64],
        vs: &[f64],
        off: usize,
    ) -> Vec<f64> {
        assert!(tier.supported());
        let mut scratch = vec![f64::NAN; attention_scratch_len(seq, dh)];
        let (kt, rest) = scratch.split_at_mut(dh * seq);
        let (rows, qb) = rest.split_at_mut(WIDE_BLOCK * seq);
        let (q, k, v) = (&qs[off..], &ks[off..], &vs[off..]);
        let mut out = vec![-1.0; seq * ld];
        let o = &mut out[off..];
        match tier {
            Tier::Scalar => {
                pack_kt(seq, dh, ld, k, kt);
                head_mul_add(seq, dh, ld, scale, q, v, o, kt, rows, skip_zero);
            }
            // SAFETY (both arms): the tier is supported; slices sized as
            // in attention_head.
            #[cfg(target_arch = "x86_64")]
            Tier::Avx2 => unsafe {
                pack_kt(seq, dh, ld, k, kt);
                head_fma(seq, dh, ld, scale, q, v, o, kt, rows, qb);
            },
            #[cfg(target_arch = "x86_64")]
            Tier::Avx512 if dh == 4 => unsafe {
                head_avx512::<4>(seq, dh, ld, scale, q, k, v, o, rows, qb)
            },
            #[cfg(target_arch = "x86_64")]
            Tier::Avx512 => unsafe { head_avx512::<0>(seq, dh, ld, scale, q, k, v, o, rows, qb) },
            #[cfg(not(target_arch = "x86_64"))]
            _ => unreachable!("no vector tier off x86-64"),
        }
        #[cfg(not(target_arch = "x86_64"))]
        let _ = qb;
        out
    }

    /// Scatter contiguous `[seq, dh]` into a `[seq, heads·dh]` buffer at
    /// head `h`, the layout the plan hands the kernel.
    fn scatter(src: &[f64], seq: usize, dh: usize, ld: usize, h: usize, fill: f64) -> Vec<f64> {
        let mut dst = vec![fill; seq * ld];
        for i in 0..seq {
            dst[i * ld + h * dh..i * ld + (h + 1) * dh].copy_from_slice(&src[i * dh..(i + 1) * dh]);
        }
        dst
    }

    fn same_bits(got: &[f64], want: &[f64], what: &str) {
        assert_eq!(got.len(), want.len());
        for (i, (g, w)) in got.iter().zip(want).enumerate() {
            assert!(
                g.to_bits() == w.to_bits() || (g.is_nan() && w.is_nan()),
                "{what}: element {i}: {g:e} vs {w:e}"
            );
        }
    }

    /// Every flavour against the unfused pipeline, bit for bit, over
    /// sequence tails, head widths, both sides of `GEMM_MIN_FLOPS`, rows
    /// whose spread flushes weights to exactly 0, and NaN rows.
    #[test]
    fn fused_head_matches_unfused_pipeline_bitwise() {
        let mut below = 0;
        let mut above = 0;
        for &seq in &[1usize, 3, 8, 16, 63, 64, 128, 256] {
            for &dh in &[2usize, 4, 8] {
                if seq * seq * dh >= GEMM_MIN_FLOPS {
                    above += 1;
                } else {
                    below += 1;
                }
                for case in 0..3 {
                    let mut q = fill(seq * dh, 11 + seq as u64);
                    let k = fill(seq * dh, 13 + dh as u64);
                    let v = fill(seq * dh, 17);
                    match case {
                        // Huge spread: scores span thousands, so most
                        // weights of these rows flush to exactly 0.
                        1 => q.iter_mut().step_by(3).for_each(|x| *x *= 900.0),
                        // A NaN query entry poisons its whole score row.
                        2 => q[(seq / 2) * dh] = f64::NAN,
                        _ => {}
                    }
                    let scale = 1.0 / (dh as f64).sqrt();
                    let heads = 3;
                    let ld = heads * dh;
                    let h = 1;
                    let (qs, ks, vs) = (
                        scatter(&q, seq, dh, ld, h, 7.0),
                        scatter(&k, seq, dh, ld, h, 7.0),
                        scatter(&v, seq, dh, ld, h, 7.0),
                    );
                    let off = h * dh;
                    let mut scratch = vec![f64::NAN; attention_scratch_len(seq, dh)];
                    let what = format!("seq {seq} dh {dh} case {case}");

                    // Dispatched entry against the dispatch gemm makes.
                    let tier = if gemm_worthwhile(seq, seq, dh) {
                        kernel_tier()
                    } else {
                        Tier::Scalar
                    };
                    let (weights, want) = unfused(seq, dh, scale, &q, &k, &v, tier);
                    let mut out = vec![-1.0; seq * ld];
                    attention_head(
                        seq,
                        dh,
                        ld,
                        scale,
                        &qs[off..],
                        &ks[off..],
                        &vs[off..],
                        &mut out[off..],
                        &mut scratch,
                    );
                    same_bits(&scatter(&want, seq, dh, ld, h, -1.0), &out, &what);
                    if case == 1 && seq >= 16 {
                        assert!(weights.contains(&0.0), "{what}: no flushed weight");
                    }

                    // Each flavour pinned, whatever the shape would pick:
                    // multiply-then-add against the scalar pipeline, the
                    // fused ones against the AVX2 pipeline.
                    for skip_zero in [false, true] {
                        let want = unfused(seq, dh, scale, &q, &k, &v, Tier::Scalar).1;
                        let got = flavour(
                            Tier::Scalar,
                            skip_zero,
                            seq,
                            dh,
                            ld,
                            scale,
                            &qs,
                            &ks,
                            &vs,
                            off,
                        );
                        same_bits(
                            &got,
                            &scatter(&want, seq, dh, ld, h, -1.0),
                            &format!("{what} mul-add skip {skip_zero}"),
                        );
                    }
                    for tier in [Tier::Avx2, Tier::Avx512] {
                        if !tier.supported() {
                            continue;
                        }
                        let want = unfused(seq, dh, scale, &q, &k, &v, Tier::Avx2).1;
                        let got = flavour(tier, false, seq, dh, ld, scale, &qs, &ks, &vs, off);
                        same_bits(
                            &got,
                            &scatter(&want, seq, dh, ld, h, -1.0),
                            &format!("{what} {tier:?}"),
                        );
                    }
                }
            }
        }
        assert!(
            below > 0 && above > 0,
            "shapes must straddle GEMM_MIN_FLOPS"
        );
    }

    /// The AVX2 and AVX-512 forward flavours, each called directly, give
    /// the same bits over sequence lengths straddling the 4-, 8- and
    /// 16-lane tiles and hostile operands: ±∞ and NaN entries, a 1e300
    /// spread, and a query row whose scores are all −∞. An AVX-512 leg the
    /// CPU lacks is skipped with a note.
    #[test]
    fn fused_flavours_match_bitwise_on_ragged_and_hostile_heads() {
        if !Tier::Avx512.supported() {
            println!("no AVX-512F on this CPU: AVX-512 attention leg skipped");
            return;
        }
        for seq in [1usize, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 33, 39, 128] {
            for dh in [1usize, 4, 5, 8] {
                for case in 0..4 {
                    let mut q = fill(seq * dh, 3 + seq as u64);
                    let mut k = fill(seq * dh, 5 + dh as u64);
                    let mut v = fill(seq * dh, 7);
                    let last = seq * dh - 1;
                    match case {
                        1 => {
                            q[0] = f64::INFINITY;
                            k[last] = f64::NEG_INFINITY;
                            v[last / 2] = f64::NAN;
                        }
                        2 => {
                            q[last] = 1e300;
                            q[0] = -1e300;
                            v[0] = f64::INFINITY;
                        }
                        3 => {
                            // Row 0 scores −∞ against every key.
                            for j in 0..seq {
                                k[j * dh] = k[j * dh].abs() + 0.5;
                            }
                            q[..dh].fill(0.0);
                            q[0] = f64::NEG_INFINITY;
                        }
                        _ => {}
                    }
                    let (ld, h) = (dh + 3, 0);
                    let strided = |x: &[f64]| scatter(x, seq, dh, ld, h, 7.0);
                    let (qs, ks, vs) = (strided(&q), strided(&k), strided(&v));
                    let want = flavour(Tier::Avx2, false, seq, dh, ld, 0.5, &qs, &ks, &vs, 0);
                    let got = flavour(Tier::Avx512, false, seq, dh, ld, 0.5, &qs, &ks, &vs, 0);
                    same_bits(&got, &want, &format!("seq {seq} dh {dh} case {case}"));
                }
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(96))]
        // The 16-row AVX-512 head against the AVX2 head (the fused
        // reference chain; the scalar tier rounds its products apart),
        // bit for bit, on generated heads: every sequence length up to
        // 40 and around 128 and 256, head widths 1–8, padded strides, and
        // hostile entries (±∞, NaN, a 1e300 spread, an all −∞ score row).
        #[test]
        fn wide_head_matches_avx2_on_generated_heads(
            seq in seq_lengths(),
            dh in 1usize..=8,
            seed in 0u64..1000,
            variant in 0usize..12,
        ) {
            check_wide_head(seq, dh, seed, variant);
        }
    }

    /// Every length up to 40 and the three around 128 and 256.
    fn seq_lengths() -> impl proptest::strategy::Strategy<Value = usize> {
        let lens: Vec<usize> = (1..=40).chain(127..=129).chain(255..=257).collect();
        proptest::prelude::prop::sample::select(lens)
    }

    fn check_wide_head(seq: usize, dh: usize, seed: u64, variant: usize) {
        if !Tier::Avx512.supported() {
            return;
        }
        let (pad, case) = (variant % 3, variant / 3);
        let mut q = fill(seq * dh, seed);
        let mut k = fill(seq * dh, seed ^ 0x55);
        let mut v = fill(seq * dh, seed ^ 0xAA);
        let at = |i: usize| (i * 7919 + seed as usize) % (seq * dh);
        match case {
            1 => {
                q[at(1)] = f64::INFINITY;
                k[at(2)] = f64::NEG_INFINITY;
                v[at(3)] = f64::NAN;
            }
            2 => {
                q[at(4)] = 1e300;
                k[at(5)] = -1e300;
                v[at(6)] = f64::INFINITY;
            }
            3 => {
                let r = at(7) / dh;
                for j in 0..seq {
                    k[j * dh] = k[j * dh].abs() + 0.5;
                }
                q[r * dh..(r + 1) * dh].fill(0.0);
                q[r * dh] = f64::NEG_INFINITY;
            }
            _ => {}
        }
        let ld = dh + pad;
        let strided = |x: &[f64]| scatter(x, seq, dh, ld, 0, 7.0);
        let (qs, ks, vs) = (strided(&q), strided(&k), strided(&v));
        let scale = 1.0 / (dh as f64).sqrt();
        let want = flavour(Tier::Avx2, false, seq, dh, ld, scale, &qs, &ks, &vs, 0);
        let got = flavour(Tier::Avx512, false, seq, dh, ld, scale, &qs, &ks, &vs, 0);
        same_bits(
            &got,
            &want,
            &format!("seq {seq} dh {dh} ld {ld} case {case}"),
        );
    }

    #[test]
    #[should_panic(expected = "attention scale must be positive")]
    fn negative_scale_is_rejected() {
        let (seq, dh) = (4, 2);
        let x = fill(seq * dh, 3);
        let mut out = vec![0.0; seq * dh];
        let mut scratch = vec![0.0; attention_scratch_len(seq, dh)];
        attention_head(seq, dh, dh, -1.0, &x, &x, &x, &mut out, &mut scratch);
    }

    /// The zero-weight skip is the one place the two multiply-then-add
    /// callers differ: a flushed weight against an infinite value.
    #[test]
    fn zero_weight_skip_matches_the_naive_context_loop() {
        let (seq, dh) = (4usize, 2usize);
        let q = vec![900.0, 0.0, 1.0, 1.0, -900.0, 0.0, 0.5, 0.5];
        let k = vec![1.0, 0.0, -1.0, 0.0, 0.5, 0.5, 0.0, 1.0];
        let mut v = fill(seq * dh, 5);
        v[2] = f64::INFINITY; // V[1, 0]: row 0 gives key 1 weight exactly 0
        let mut scratch = vec![0.0; attention_scratch_len(seq, dh)];
        let mut out = vec![0.0; seq * dh];
        attention_head(seq, dh, dh, 1.0, &q, &k, &v, &mut out, &mut scratch);
        assert!(out[0].is_finite(), "skipped 0·inf must not poison the row");
        assert_eq!(out[4], f64::INFINITY, "a positive weight still sees it");
    }

    #[test]
    fn scratch_is_linear_in_seq() {
        // Kᵀ (4 · 128), a 16-row score block (16 · 128) and its queries.
        assert_eq!(attention_scratch_len(128, 4), 20 * 128 + 64);
        assert!(attention_scratch_len(256, 4) < 2 * attention_scratch_len(128, 4) + 1);
        assert_eq!(attention_backward_scratch_len(128, 4), 32 * 128 + 64);
        assert!(
            attention_backward_scratch_len(256, 4) < 2 * attention_backward_scratch_len(128, 4)
        );
    }

    /// The unfused backward on contiguous `[seq, dh]` operands with the
    /// micro-kernel choice pinned: four GEMMs around the softmax backward
    /// `dS = c · P ∘ (dP − rowsum(dP ∘ P))`, the textbook op-by-op form.
    #[allow(clippy::too_many_arguments)]
    fn unfused_backward(
        seq: usize,
        dh: usize,
        scale: f64,
        q: &[f64],
        k: &[f64],
        v: &[f64],
        d_o: &[f64],
        tier: Tier,
    ) -> [Vec<f64>; 3] {
        use Layout::{Normal, Transposed};
        let (p, _) = unfused(seq, dh, scale, q, k, v, tier);
        let mut dv = vec![0.0; seq * dh];
        gemm_with(seq, dh, seq, &p, Transposed, d_o, Normal, &mut dv, tier);
        let mut ds = vec![0.0; seq * seq];
        gemm_with(seq, seq, dh, d_o, Normal, v, Transposed, &mut ds, tier);
        for (dsrow, prow) in ds.chunks_mut(seq).zip(p.chunks(seq)) {
            let dot: f64 = dsrow.iter().zip(prow).map(|(&g, &y)| g * y).sum();
            for (x, &y) in dsrow.iter_mut().zip(prow) {
                *x = y * (*x - dot) * scale;
            }
        }
        let mut dq = vec![0.0; seq * dh];
        gemm_with(seq, dh, seq, &ds, Normal, k, Normal, &mut dq, tier);
        let mut dk = vec![0.0; seq * dh];
        gemm_with(seq, dh, seq, &ds, Transposed, q, Normal, &mut dk, tier);
        [dq, dk, dv]
    }

    /// Every flavour of the backward against the unfused oracle, over
    /// sequence tails, head widths, strided views whose padding columns
    /// must survive, and scratch poisoned on entry.
    #[test]
    fn fused_backward_matches_unfused_oracle() {
        for &seq in &[1usize, 3, 8, 9, 31, 128] {
            for &dh in &[1usize, 2, 4, 8] {
                let q = fill(seq * dh, 11 + seq as u64);
                let k = fill(seq * dh, 13 + dh as u64);
                let v = fill(seq * dh, 17);
                let d_o = fill(seq * dh, 19 + (seq * dh) as u64);
                let scale = 1.0 / (dh as f64).sqrt();
                let (heads, h) = (3, 1);
                let ld = heads * dh;
                let off = h * dh;
                let strided = |x: &[f64]| scatter(x, seq, dh, ld, h, 7.0);
                let (qs, ks, vs, dos) = (strided(&q), strided(&k), strided(&v), strided(&d_o));

                // 0: the dispatched entry; 1: multiply-then-add pinned;
                // 2: FMA pinned (where the CPU has it).
                for flavour in 0..3 {
                    let tier = match flavour {
                        0 if gemm_worthwhile(seq, seq, dh) => kernel_tier(),
                        0 | 1 => Tier::Scalar,
                        _ => Tier::Avx2,
                    };
                    if !tier.supported() {
                        continue;
                    }
                    let what = format!("seq {seq} dh {dh} flavour {flavour}");
                    // The forward output the backward reads, same flavour.
                    let o = strided(&unfused(seq, dh, scale, &q, &k, &v, tier).1);
                    let want = unfused_backward(seq, dh, scale, &q, &k, &v, &d_o, tier);
                    let mut scratch = vec![f64::NAN; attention_backward_scratch_len(seq, dh)];
                    let mut got = [
                        vec![-1.0; seq * ld],
                        vec![-1.0; seq * ld],
                        vec![-1.0; seq * ld],
                    ];
                    {
                        let [dq, dk, dv] = &mut got;
                        macro_rules! run {
                            ($kernel:expr) => {
                                $kernel(
                                    seq,
                                    dh,
                                    ld,
                                    scale,
                                    &qs[off..],
                                    &ks[off..],
                                    &vs[off..],
                                    &o[off..],
                                    &dos[off..],
                                    &mut dq[off..],
                                    &mut dk[off..],
                                    &mut dv[off..],
                                    &mut scratch,
                                )
                            };
                        }
                        match flavour {
                            0 => run!(attention_head_backward),
                            1 => run!(backward_blocks::<false>),
                            #[cfg(target_arch = "x86_64")]
                            // SAFETY: Tier::Avx2 supported, checked above.
                            _ => unsafe { run!(backward_fma) },
                            #[cfg(not(target_arch = "x86_64"))]
                            _ => unreachable!(),
                        }
                    }
                    for ((got, want), name) in got.iter().zip(&want).zip(["dQ", "dK", "dV"]) {
                        let max = want.iter().fold(0.0f64, |m, x| m.max(x.abs()));
                        for i in 0..seq {
                            for c in 0..ld {
                                let g = got[i * ld + c];
                                if (off..off + dh).contains(&c) {
                                    let w = want[i * dh + c - off];
                                    assert!(
                                        (g - w).abs() <= 1e-12 * max,
                                        "{what} {name}[{i},{c}]: {g:e} vs {w:e} (max {max:e})"
                                    );
                                } else {
                                    assert_eq!(g, -1.0, "{what} {name}: padding column written");
                                }
                            }
                        }
                    }
                }
            }
        }
    }

    /// The reduction stays inside one head: a head's gradients are the
    /// same bits whether it is the only problem in its buffers or one
    /// column group of a larger merged layout.
    #[test]
    fn backward_does_not_depend_on_the_surrounding_layout() {
        let (seq, dh) = (37usize, 4usize);
        let q = fill(seq * dh, 3);
        let k = fill(seq * dh, 5);
        let v = fill(seq * dh, 7);
        let d_o = fill(seq * dh, 9);
        let scale = 0.5;
        let run = |ld: usize, h: usize, pad: f64| {
            let strided = |x: &[f64]| scatter(x, seq, dh, ld, h, pad);
            let (qs, ks, vs, dos) = (strided(&q), strided(&k), strided(&v), strided(&d_o));
            let off = h * dh;
            let mut o = vec![0.0; seq * ld];
            let mut scratch = vec![0.0; attention_backward_scratch_len(seq, dh)];
            attention_head(
                seq,
                dh,
                ld,
                scale,
                &qs[off..],
                &ks[off..],
                &vs[off..],
                &mut o[off..],
                &mut scratch,
            );
            let mut g = [
                vec![0.0; seq * ld],
                vec![0.0; seq * ld],
                vec![0.0; seq * ld],
            ];
            let [dq, dk, dv] = &mut g;
            attention_head_backward(
                seq,
                dh,
                ld,
                scale,
                &qs[off..],
                &ks[off..],
                &vs[off..],
                &o[off..],
                &dos[off..],
                &mut dq[off..],
                &mut dk[off..],
                &mut dv[off..],
                &mut scratch,
            );
            g.map(|x| {
                (0..seq)
                    .flat_map(|i| x[i * ld + off..i * ld + off + dh].to_vec())
                    .collect::<Vec<f64>>()
            })
        };
        let alone = run(dh, 0, 0.0);
        let merged = run(5 * dh, 3, -3.5);
        for (a, m) in alone.iter().zip(&merged) {
            same_bits(a, m, "alone vs merged");
        }
    }
}
