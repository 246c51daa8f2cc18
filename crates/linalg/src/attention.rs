//! Fused single-head attention: scores → softmax → context, one block of
//! query rows at a time, never materialising the `S × S` matrix.
//!
//! The unfused pipeline is three calls per head — `gemm(Q·Kᵀ)`, a row
//! softmax, `gemm(attn·V)` — over an `S × S` intermediate that falls out
//! of L1 (128 KB at `S = 128`), with a `k = d_h` and an `n = d_h` GEMM
//! whose packing and tile write-back outweigh their arithmetic. Here Kᵀ is
//! packed once per head, and each block of `ROW_BLOCK` (8) query rows writes
//! its score rows into a scratch that stays in L1, runs the shared
//! [`softmax_rows_scaled_inplace`] over them, and accumulates the context
//! rows straight into the caller's output.
//!
//! Operands are *strided views*: element `(i, p)` of Q, K, V and the
//! output lives at `i * ld + p`, so a head reads its columns of the merged
//! `[S, H·d_h]` projections and writes its columns of the merged context
//! in place — no head split, merge or gather copies.
//!
//! Determinism contract: every output element executes exactly the
//! operation sequence of the unfused pipeline. Each score is a chain from
//! zero over `p`, the softmax is the one shared kernel, and each context
//! element is a chain from zero over `j`. The chains are fused
//! multiply-adds where [`gemm`](crate::gemm::gemm) would pick its FMA
//! micro-kernels *and* [`gemm_worthwhile`] holds, and plain
//! multiply-then-add otherwise (mirroring the scalar micro-kernels and the
//! callers' naive small-operand loops), so the result is **bitwise
//! identical** to `gemm` → softmax → `gemm` under the same dispatch.

use crate::exp::softmax_rows_scaled_inplace;
use crate::gemm::{gemm_worthwhile, use_fma_kernels};

/// Query rows per block: eight independent accumulator chains keep both
/// FMA ports busy, and `ROW_BLOCK · S` scores (8 KB at `S = 128`) plus the
/// packed Kᵀ stay L1-resident.
const ROW_BLOCK: usize = 8;

/// Scratch [`attention_head`] needs for one head: packed Kᵀ (`dh · seq`),
/// the score rows of one block (`ROW_BLOCK · seq`), and the block's packed
/// query rows (`ROW_BLOCK · dh`). Linear in `seq`.
pub fn attention_scratch_len(seq: usize, dh: usize) -> usize {
    (dh + ROW_BLOCK) * seq + ROW_BLOCK * dh
}

/// One attention head: `out = softmax(scale · Q·Kᵀ) · V` over strided
/// `[seq, dh]` views with row stride `ld` (see the module docs). `scratch`
/// must hold [`attention_scratch_len`] elements; its contents are
/// unspecified on entry and exit. Requires `scale > 0`. Bitwise identical
/// to the unfused `gemm` → [`softmax_rows_scaled_inplace`] → `gemm`
/// pipeline, including the naive small-operand fallback below
/// [`gemm_worthwhile`].
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
    if seq == 0 || dh == 0 {
        return;
    }
    // The FMA kernel indexes through raw pointers; these bounds are what
    // its SAFETY argument rests on.
    let span = (seq - 1) * ld + dh;
    assert!(ld >= dh, "row stride {ld} shorter than head width {dh}");
    assert!(q.len() >= span && k.len() >= span && v.len() >= span && out.len() >= span);
    assert!(scratch.len() >= attention_scratch_len(seq, dh));
    let (kt, rest) = scratch.split_at_mut(dh * seq);
    let (rows, qb) = rest.split_at_mut(ROW_BLOCK * seq);

    // Kᵀ packed once per head: kt[p * seq + j] = K[j, p].
    for (j, krow) in k.chunks(ld).take(seq).enumerate() {
        for (p, &kv) in krow[..dh].iter().enumerate() {
            kt[p * seq + j] = kv;
        }
    }

    let packed = gemm_worthwhile(seq, seq, dh);
    #[cfg(target_arch = "x86_64")]
    if packed && use_fma_kernels() {
        let qb = &mut qb[..ROW_BLOCK * dh];
        // SAFETY: use_fma_kernels() verified avx2+fma at runtime; the
        // slice bounds were asserted above.
        unsafe { head_fma(seq, dh, ld, scale, q, v, out, kt, rows, qb) };
        return;
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = (qb, use_fma_kernels);
    head_mul_add(seq, dh, ld, scale, q, v, out, kt, rows, !packed);
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
        // Pack the block's query rows as qb[p * RB + r] = Q[i0 + r, p],
        // zero-padding rows past the end, so the tile loop broadcasts
        // from one contiguous panel and needs no row tail.
        qb.fill(0.0);
        for r in 0..rb {
            for (p, &qv) in q[(i0 + r) * ld..][..dh].iter().enumerate() {
                qb[p * RB + r] = qv;
            }
        }

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

        softmax_rows_scaled_inplace(&mut rows[..rb * seq], seq, scale);

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
        fma: bool,
    ) -> (Vec<f64>, Vec<f64>) {
        use Layout::{Normal, Transposed};
        let mut s = vec![0.0; seq * seq];
        gemm_with(seq, seq, dh, q, Normal, k, Transposed, &mut s, fma);
        softmax_rows_scaled_inplace(&mut s, seq, scale);
        let mut ctx = vec![0.0; seq * dh];
        gemm_with(seq, dh, seq, &s, Normal, v, Normal, &mut ctx, fma);
        (s, ctx)
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
                    let fma = use_fma_kernels() && gemm_worthwhile(seq, seq, dh);
                    let (weights, want) = unfused(seq, dh, scale, &q, &k, &v, fma);
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

                    // Each flavour pinned, whatever the shape would pick.
                    let (kt, rest) = scratch.split_at_mut(dh * seq);
                    let (rows, qb) = rest.split_at_mut(ROW_BLOCK * seq);
                    for (j, krow) in k.chunks(dh).enumerate() {
                        for (p, &kv) in krow.iter().enumerate() {
                            kt[p * seq + j] = kv;
                        }
                    }
                    let want = scatter(
                        &unfused(seq, dh, scale, &q, &k, &v, false).1,
                        seq,
                        dh,
                        ld,
                        h,
                        -1.0,
                    );
                    for skip_zero in [false, true] {
                        let mut out = vec![-1.0; seq * ld];
                        head_mul_add(
                            seq,
                            dh,
                            ld,
                            scale,
                            &qs[off..],
                            &vs[off..],
                            &mut out[off..],
                            kt,
                            rows,
                            skip_zero,
                        );
                        same_bits(&out, &want, &format!("{what} mul-add skip {skip_zero}"));
                    }
                    #[cfg(target_arch = "x86_64")]
                    if use_fma_kernels() {
                        let want = scatter(
                            &unfused(seq, dh, scale, &q, &k, &v, true).1,
                            seq,
                            dh,
                            ld,
                            h,
                            -1.0,
                        );
                        let mut out = vec![-1.0; seq * ld];
                        // SAFETY: avx2+fma detected; slices sized as in
                        // attention_head.
                        unsafe {
                            head_fma(
                                seq,
                                dh,
                                ld,
                                scale,
                                &qs[off..],
                                &vs[off..],
                                &mut out[off..],
                                kt,
                                rows,
                                qb,
                            )
                        };
                        same_bits(&out, &want, &format!("{what} fma"));
                    }
                }
            }
        }
        assert!(
            below > 0 && above > 0,
            "shapes must straddle GEMM_MIN_FLOPS"
        );
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
        assert_eq!(attention_scratch_len(128, 4), 12 * 128 + 32);
        assert!(attention_scratch_len(256, 4) < 2 * attention_scratch_len(128, 4) + 1);
    }
}
