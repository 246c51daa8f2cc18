//! Fused single-head attention, forward and backward: scores → softmax →
//! context one block of query rows at a time, never materialising the
//! `S × S` matrix in either direction.
//!
//! The unfused pipeline is three calls per head — `gemm(Q·Kᵀ)`, a row
//! softmax, `gemm(attn·V)` — over an `S × S` intermediate that falls out
//! of L1 (128 KB at `S = 128`), with a `k = d_h` and an `n = d_h` GEMM
//! whose packing and tile write-back outweigh their arithmetic. Here each
//! block of query rows writes its scores into a scratch that stays in L1,
//! runs the softmax over them, and accumulates the context rows straight
//! into the caller's output. Operands are *strided views*: element `(i, p)`
//! of Q, K, V and the output lives at `i * ld + p`, so a head reads and
//! writes its columns of the merged `[S, H·d_h]` buffers in place.
//!
//! Determinism contract: every output element executes exactly the
//! operation sequence of the unfused pipeline — a score is a chain from
//! zero over `p`, the softmax is the one shared row order, a context
//! element is a chain from zero over `j`. The chains are fused
//! multiply-adds where [`gemm`](crate::gemm::gemm) would pick a vector
//! [`Tier`] *and* [`gemm_worthwhile`] holds, and plain multiply-then-add
//! otherwise, so the result is **bitwise identical** to `gemm` → softmax
//! → `gemm` under the same dispatch.
//!
//! The vector forward is one body over the lane types: a block is `2·N`
//! query rows across the lanes of two `N`-lane halves (8 rows on AVX2, 16
//! on AVX-512). A key's scores are one vector per half, read straight from
//! K; the softmax needs no per-row horizontal step (`exp::softmax_lanes`);
//! and a head column's context is one vector per half, so a `d_h = 4` head
//! runs the 8 independent FMA chains two ports need (DESIGN §9). The
//! multiply-then-add flavour packs Kᵀ and runs the row softmax over 8-row
//! blocks.
//!
//! ## Backward
//!
//! [`attention_head_backward`] is the training half of the same kernel. The
//! training forward keeps only Q, K, V and the context O, so for each block
//! of query rows the backward **recomputes** the probabilities `P` with the
//! forward's own score chains and softmax, then forms
//!
//! ```text
//! dP = dO·Vᵀ            dS = c · P ∘ (dP − rowsum(dO ∘ O))
//! dQ = dS·K             dK += dSᵀ·Q            dV += Pᵀ·dO
//! ```
//!
//! with scratch linear in `S`. `rowsum(dO ∘ O)` equals the softmax
//! backward's `rowsum(dP ∘ P)` because `O = P·V`, at `d_h` instead of `S`
//! multiplies per row.
//!
//! Every element has one operation sequence, whatever the tier runs it
//! on: a `dK`/`dV` element is one chain from zero over the query rows in
//! ascending order; a `dQ` element is four partial sums by `j mod 4` over
//! the keys, combined as `(s0 + s2) + (s1 + s3)`, then the tail keys left to
//! right; `dP` and `rowsum(dO ∘ O)` are chains from zero over `p`. All of it
//! stays inside one `(batch, head)` problem, so a sample's gradients do not
//! change with its batch, its position there, or the shard that ran it.
//! The chains are fused multiply-adds exactly when the forward's are.
//!
//! The fused tiers run one body over the lane types, in the forward's
//! layout: a block is `2·N` query rows across the lanes of two halves (16
//! rows on AVX-512, 8 on AVX2), scored and exponentiated as the forward
//! does (`block_exp`, then `exp::softmax_lanes`, whose rows are the row
//! softmax's bits). `P`, `dP`, `dS` and `dQ` then run one row per lane and
//! need no horizontal step. `dK` and `dV` chain over the rows, so they run
//! keys across lanes instead: `P` and `dS` of two adjacent keys are zipped
//! into pairs (`Lanes::zip`), and one vector accumulates `N/2` head columns
//! of a key pair, each lane fed by a broadcast pair (`Lanes::load_pair`)
//! times the row's Q or dO, so no tile is transposed. A block's keys are
//! walked in groups of 16 so that its tiles stay in L1. Neither the block
//! height nor the lane count enters an element's sequence (a row belongs to
//! one block whatever its height, and one lane holds one element's chain),
//! so AVX2 and AVX-512 give the same bits. The scalar tier runs the same
//! sequences with plain multiply-then-add over 8-row blocks.

#[cfg(target_arch = "x86_64")]
use crate::exp::softmax_lanes;
use crate::exp::softmax_rows_scaled_inplace;
use crate::gemm::gemm_worthwhile;
#[cfg(target_arch = "x86_64")]
use crate::lanes::{run_avx2, run_avx512, Kernel, Lanes};
use crate::tier::{kernel_tier, Tier};

/// Query rows per block of the multiply-then-add forward and of the scalar
/// backward: `ROW_BLOCK · S` scores (8 KB at `S = 128`) plus the packed Kᵀ
/// stay L1-resident.
const ROW_BLOCK: usize = 8;

/// The most query rows a block holds: two 8-lane halves (16 KB of scores
/// at `S = 128`, still L1-resident).
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
    let head = Head((seq, dh, ld, scale), [q, k, v], out, [qb, rows]);
    let packed = gemm_worthwhile(seq, seq, dh);
    #[cfg(target_arch = "x86_64")]
    if packed && kernel_tier().fused() {
        // SAFETY (both arms): `kernel_tier` returns only a tier detected on
        // this CPU; the slice bounds were asserted above.
        return match kernel_tier() {
            Tier::Avx512 => unsafe { run_avx512(head) },
            _ => unsafe { run_avx2(head) },
        };
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = kernel_tier() == Tier::Scalar;
    head_mul_add(head, kt, !packed);
}

/// Multiply-then-add flavour, one row block at a time, against the packed
/// Kᵀ. `skip_zero` mirrors the naive context loop's skip of exactly-zero
/// attention weights (it only shows when V holds a non-finite value); the
/// scalar GEMM tiles do not skip.
fn head_mul_add(h: Head, kt: &mut [f64], skip_zero: bool) {
    let Head((seq, dh, ld, scale), [q, k, v], out, [_, rows]) = h;
    // Kᵀ packed once per head: `kt[p * seq + j] = K[j, p]`.
    for (j, krow) in k.chunks(ld).take(seq).enumerate() {
        for (p, &kv) in krow[..dh].iter().enumerate() {
            kt[p * seq + j] = kv;
        }
    }
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

/// `(seq, dh, ld, scale)`: a head's length, width, row stride and scale.
type Shape = (usize, usize, usize, f64);

/// One head's forward: [`attention_head`]'s shape, Q, K and V, its output,
/// and the scratch of one block's packed queries and scores.
struct Head<'a>(Shape, [&'a [f64]; 3], &'a mut [f64], [&'a mut [f64]; 2]);

#[cfg(target_arch = "x86_64")]
impl Kernel for Head<'_> {
    #[inline(always)]
    unsafe fn run<L: Lanes>(self) {
        match self.0 .1 {
            4 => head_lanes::<L, 4>(self),
            _ => head_lanes::<L, 0>(self),
        }
    }
}

/// The vector flavour on `L` lanes, rows across the lanes: a block is
/// `2·N` query rows held as two `N`-lane halves, lane `r` of half `h`
/// being row `N·h + r`. [`block_exp`] scores and exponentiates the block;
/// each context column is then one vector per half, a chain from zero over
/// `j` of `fma(P[r, j], V[j, d], ·)` with `P[r, j] = e[r, j] · (1 / sum_r)`
/// formed on the fly, so a `d_h = 4` head runs 8 independent chains.
/// `DH = 4` is compiled apart so its loops unroll; `DH = 0` reads the width
/// from `dh`.
///
/// # Safety
/// As [`Lanes`]; `q`, `k`, `v` and `out` hold at least
/// `(seq - 1) * ld + dh` elements with `ld >= dh`, and `rows` and `qb` hold
/// `2·N·seq` and `2·N·dh`.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
unsafe fn head_lanes<L: Lanes, const DH: usize>(h: Head) {
    let Head((seq, dh, ld, scale), [q, k, v], out, [qb, rows]) = h;
    let (dh, w) = (if DH == 0 { dh } else { DH }, 2 * L::N);
    let (kp, vp) = (k.as_ptr(), v.as_ptr());
    for i0 in (0..seq).step_by(w) {
        let rb = w.min(seq - i0);
        let block = (&q[i0 * ld..], ld, rb);
        let inv = block_exp::<L>((seq, dh, scale), block, (kp, ld), [&mut *qb, &mut *rows]);
        // Rows past `rb` (zero queries) are computed and dropped.
        let t = rows.as_ptr();
        let mut d = 0;
        while d < dh {
            let out = &mut out[i0 * ld + d..];
            if dh - d >= 4 {
                store_cols(&context_cols::<L, 4>(seq, ld, d, t, inv, vp), rb, ld, out);
                d += 4;
            } else {
                store_cols(&context_cols::<L, 1>(seq, ld, d, t, inv, vp), rb, ld, out);
                d += 1;
            }
        }
    }
}

/// The start of a block in both directions: the `rb` query rows at `q`
/// packed into `qb` as `qb[p · 2N + r] = Q[r, p]` (zero past `rb`, so the
/// tile loops need no row tail), the score tile `rows[2N · j + r] =
/// S[r, j]`, and [`softmax_lanes`] over it. Returns each half's reciprocal
/// row sums; the tile holds the numerators. A score is a chain from zero
/// over `p` of `fma(Q[r, p], K[j, p], ·)` read straight from K. The row
/// maxima fold from four accumulators per half: a finite row's maximum is
/// the same in any order, and a NaN or +∞ row normalises to all-NaN
/// whatever the fold keeps (tested in `exp`).
///
/// # Safety
/// As [`head_lanes`]; `q` holds rows `0 .. rb` of Q.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
unsafe fn block_exp<L: Lanes>(
    (seq, dh, scale): (usize, usize, f64),
    (q, ld, rb): (&[f64], usize, usize),
    (k, kld): (*const f64, usize),
    [qb, rows]: [&mut [f64]; 2],
) -> [L; 2] {
    let w = 2 * L::N;
    qb.fill(0.0);
    for r in 0..rb {
        for (p, &qv) in q[r * ld..][..dh].iter().enumerate() {
            qb[p * w + r] = qv;
        }
    }
    let (qp, tp) = (qb.as_ptr(), rows.as_mut_ptr());
    let mut max = [[L::splat(f64::NEG_INFINITY); 2]; 4];
    let seq4 = seq - seq % 4;
    for j in (0..seq4).step_by(4) {
        score_keys::<L, 4>(j, dh, kld, qp, k, tp, &mut max);
    }
    for j in seq4..seq {
        score_keys::<L, 1>(j, dh, kld, qp, k, tp, std::array::from_mut(&mut max[0]));
    }
    let mut fold = max[0];
    for (half, m) in fold.iter_mut().enumerate() {
        *m = max[0][half]
            .max(max[1][half])
            .max(max[2][half].max(max[3][half]));
    }
    softmax_lanes::<L>(&mut rows[..w * seq], seq, scale, fold)
}

/// For keys `j .. j + N`, both halves: chains from zero over `p` of
/// `fma(c[p · 2L + r], x[(j + u) · ld + p], ·)` for `L` lanes, with `c` a
/// packed block (see [`block_exp`]). The scores when `c` holds the queries
/// and `x` is K; `dP` when they are `dO` and V.
///
/// # Safety
/// As [`head_lanes`]; `c` holds `2L · dh` elements.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
unsafe fn key_dots<L: Lanes, const N: usize>(
    j: usize,
    dh: usize,
    ld: usize,
    c: *const f64,
    x: *const f64,
) -> [[L; 2]; N] {
    let w = 2 * L::N;
    let mut s = [[L::splat(0.0); 2]; N];
    for p in 0..dh {
        let cv = [L::load(c.add(p * w)), L::load(c.add(p * w + L::N))];
        for (u, s) in s.iter_mut().enumerate() {
            let xv = L::splat(*x.add((j + u) * ld + p));
            s[0] = cv[0].fmadd(xv, s[0]);
            s[1] = cv[1].fmadd(xv, s[1]);
        }
    }
    s
}

/// The score vectors of keys `j .. j + N` ([`key_dots`] of the queries and
/// K), stored at `t[2L · j ..]` for `L` lanes; folds key `j + u`'s scores
/// into `max[u]`.
///
/// # Safety
/// As [`head_lanes`]; `qb` is the block's packed queries and `t` the score
/// tile.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
#[allow(clippy::too_many_arguments)]
unsafe fn score_keys<L: Lanes, const N: usize>(
    j: usize,
    dh: usize,
    ld: usize,
    qb: *const f64,
    k: *const f64,
    t: *mut f64,
    max: &mut [[L; 2]; N],
) {
    let w = 2 * L::N;
    let s = key_dots::<L, N>(j, dh, ld, qb, k);
    for (u, (s, m)) in s.into_iter().zip(max).enumerate() {
        for h in 0..2 {
            s[h].store(t.add(w * (j + u) + L::N * h));
            m[h] = m[h].max(s[h]);
        }
    }
}

/// The context vectors of head columns `d .. d + N` (see [`head_lanes`]),
/// both halves, from the exponentiated tile `t` and the row reciprocals
/// `inv`.
///
/// # Safety
/// As [`head_lanes`]; `t` holds `2L · seq` elements for `L` lanes.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
unsafe fn context_cols<L: Lanes, const N: usize>(
    seq: usize,
    ld: usize,
    d: usize,
    t: *const f64,
    inv: [L; 2],
    v: *const f64,
) -> [[L; 2]; N] {
    let w = 2 * L::N;
    let mut acc = [[L::splat(0.0); 2]; N];
    for j in 0..seq {
        let pj = [
            L::load(t.add(w * j)).mul(inv[0]),
            L::load(t.add(w * j + L::N)).mul(inv[1]),
        ];
        for (u, a) in acc.iter_mut().enumerate() {
            let vv = L::splat(*v.add(j * ld + d + u));
            a[0] = pj[0].fmadd(vv, a[0]);
            a[1] = pj[1].fmadd(vv, a[1]);
        }
    }
    acc
}

/// Lanes `0 .. rb` of the column vectors `cols` (rows across lanes, two
/// halves each) to rows `0 .. rb` of `out`: column `u` of row `r` at
/// `r · ld + u`.
///
/// # Safety
/// As [`Lanes`].
#[cfg(target_arch = "x86_64")]
#[inline(always)]
unsafe fn store_cols<L: Lanes, const N: usize>(
    cols: &[[L; 2]; N],
    rb: usize,
    ld: usize,
    out: &mut [f64],
) {
    // Room for the widest block.
    let mut tile = [[0.0f64; WIDE_BLOCK]; N];
    for (t, c) in tile.iter_mut().zip(cols) {
        c[0].store(t.as_mut_ptr());
        c[1].store(t.as_mut_ptr().add(L::N));
    }
    for r in 0..rb {
        for (u, t) in tile.iter().enumerate() {
            out[r * ld + u] = t[r];
        }
    }
}

/// Keys per group of the fused backward: a block's keys are walked this
/// many at a time, and the key-major buffers round up to it.
const KEY_GROUP: usize = 16;

/// Scratch [`attention_head_backward`] needs for one head, linear in `seq`:
/// the fused tiers' buffers (`lane_buffers`, plus room to start them on a
/// cache line) or the scalar tier's, whichever is larger.
pub fn attention_backward_scratch_len(seq: usize, dh: usize) -> usize {
    let lanes = lane_buffers(seq, dh, WIDE_BLOCK).iter().sum::<usize>() + 7;
    lanes.max((4 * dh + 2 * ROW_BLOCK) * seq + 2 * ROW_BLOCK * dh)
}

/// The fused backward's buffers for blocks of `w` rows, each a whole number
/// of cache lines: per key (rounded up to [`KEY_GROUP`]) the block's tile,
/// `dK`, `dV` and packed K and V, with `dQ`'s partial sums between `dK` and
/// `dV` so that the two are not a multiple of 4 KB apart; per key of a
/// group its `dS` tile and paired `P` and `dS`; and the block's packed dO
/// and Q rows, then both with every column twice.
fn lane_buffers(seq: usize, dh: usize, w: usize) -> [usize; 13] {
    let keys = seq.next_multiple_of(KEY_GROUP);
    let (d4, g, r) = (dh.next_multiple_of(4), w * KEY_GROUP, w * dh);
    let (t, kd, s, kv, x) = (w * keys, d4 * keys, 4 * r, dh * keys, 2 * w * d4);
    [t, kd, s, kd, kv, kv, g, g, g, r, r, x, x]
}

/// `buf` cut into consecutive pieces of the given lengths.
fn carve<const N: usize>(mut buf: &mut [f64], lens: [usize; N]) -> [&mut [f64]; N] {
    lens.map(|n| {
        let (piece, rest) = std::mem::take(&mut buf).split_at_mut(n);
        buf = rest;
        piece
    })
}

/// Backward of [`attention_head`]: given the forward's operands, its
/// output `o` and the output gradient `d_o`, write `dq`, `dk`, `dv` — all
/// strided `[seq, dh]` views with row stride `ld`; only those `dh` columns
/// of each row are written. `scratch` must hold
/// [`attention_backward_scratch_len`] elements; its contents are
/// unspecified on entry and exit. Requires `scale > 0` (checked, as in
/// [`attention_head`]). Nothing `S × S` is read or built: each block's
/// probabilities are recomputed (see the module docs).
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
    assert!(scale > 0.0, "attention scale must be positive, got {scale}");
    if seq == 0 || dh == 0 {
        return;
    }
    let span = (seq - 1) * ld + dh;
    assert!(ld >= dh, "row stride {ld} shorter than head width {dh}");
    assert!([q, k, v, o, d_o].iter().all(|x| x.len() >= span));
    assert!(dq.len() >= span && dk.len() >= span && dv.len() >= span);
    let scratch = &mut scratch[..attention_backward_scratch_len(seq, dh)];
    let (ops, grads) = ([q, k, v, o, d_o], [dq, dk, dv]);
    let b = Backward((seq, dh, ld, scale), ops, grads, scratch);
    // The flavour the forward took for this shape, so the recomputed
    // probabilities are the forward's, bit for bit.
    #[cfg(target_arch = "x86_64")]
    if gemm_worthwhile(seq, seq, dh) && kernel_tier().fused() {
        // SAFETY (both arms): `kernel_tier` returns only a tier detected on
        // this CPU; the slice bounds were asserted above.
        return match kernel_tier() {
            Tier::Avx512 => unsafe { run_avx512(b) },
            _ => unsafe { run_avx2(b) },
        };
    }
    backward_blocks(b);
}

/// One head's backward: its shape, Q, K, V, O and dO, dQ, dK and dV, and
/// the scratch.
struct Backward<'a>(Shape, [&'a [f64]; 5], [&'a mut [f64]; 3], &'a mut [f64]);

#[cfg(target_arch = "x86_64")]
impl Kernel for Backward<'_> {
    #[inline(always)]
    unsafe fn run<L: Lanes>(self) {
        match self.0 .1 {
            4 => backward_lanes::<L, 4>(self),
            _ => backward_lanes::<L, 0>(self),
        }
    }
}

/// The fused backward on `L` lanes, one block of `2·N` query rows at a
/// time in ascending order (see the module docs). A block starts as the
/// forward's ([`block_exp`], on K packed once per head); its keys are then
/// walked one [`KEY_GROUP`] at a time, so the group's tiles stay in L1 next
/// to the block's: [`grad_keys`] forms `P` and `dS` and pairs their keys,
/// [`dq_cols`] continues `dQ`'s partial sums and [`accumulate_pairs`] the
/// `dK`/`dV` chains. On 32 registers (AVX-512) two `dQ` columns and eight
/// key pairs run at once, on 16 one and four: more of the same chains in
/// flight.
///
/// # Safety
/// As [`Lanes`]; the operands hold `(seq - 1) * ld + dh` elements with
/// `ld >= dh`, and the scratch [`attention_backward_scratch_len`].
#[cfg(target_arch = "x86_64")]
#[inline(always)]
unsafe fn backward_lanes<L: Lanes, const DH: usize>(b: Backward) {
    let Backward((seq, dh, ld, scale), [q, k, v, o, d_o], [dq, dk, dv], scratch) = b;
    let dh = if DH == 0 { dh } else { DH };
    let (n, w, seq4) = (L::N, 2 * L::N, seq - seq % 4);
    let (wide, per_pair) = (L::TILE_ROWS >= 8, dh.next_multiple_of(4) / (n / 2));
    let skip = scratch.as_ptr().align_offset(64).min(7);
    let bufs = carve(&mut scratch[skip..], lane_buffers(seq, dh, w));
    let [t, dkt, sums, dvt, kh, vh, ds, pp, sp, dob, qb, q2, o2] = bufs;
    // K and V packed; the padding keys are never scored, and zeros keep
    // their (dropped) accumulator lanes finite.
    for (j, (kr, vr)) in k.chunks(ld).zip(v.chunks(ld)).take(seq).enumerate() {
        kh[j * dh..][..dh].copy_from_slice(&kr[..dh]);
        vh[j * dh..][..dh].copy_from_slice(&vr[..dh]);
    }
    kh[dh * seq..].fill(0.0);
    vh[dh * seq..].fill(0.0);
    t[w * seq..].fill(0.0);
    dkt.fill(0.0);
    dvt.fill(0.0);
    let kp = kh.as_ptr();
    for i0 in (0..seq).step_by(w) {
        let rb = w.min(seq - i0);
        let block = (&q[i0 * ld..], ld, rb);
        let inv = block_exp::<L>((seq, dh, scale), block, (kp, dh), [&mut *qb, &mut *t]);
        // dO packed as the queries are; `rowsum(dO ∘ O)`, a chain from zero
        // over `p`; and each row's Q and dO with every column twice, `N/2`
        // columns per vector, for the paired accumulators.
        for x in [&mut *dob, &mut *q2, &mut *o2, &mut *sums] {
            x.fill(0.0);
        }
        let mut delta = [0.0f64; WIDE_BLOCK];
        for (r, dl) in delta.iter_mut().enumerate().take(rb) {
            let at = (i0 + r) * ld;
            for p in 0..dh {
                dob[p * w + r] = d_o[at + p];
                *dl = d_o[at + p].mul_add(o[at + p], *dl);
                let two = r * per_pair * n + 2 * p;
                q2[two..two + 2].fill(q[at + p]);
                o2[two..two + 2].fill(d_o[at + p]);
            }
        }
        let dl = [L::load(delta.as_ptr()), L::load(delta.as_ptr().add(n))];
        let (tp, dsp, sump) = (t.as_mut_ptr(), ds.as_mut_ptr(), sums.as_mut_ptr());
        let (pair, from) = (
            [pp.as_mut_ptr(), sp.as_mut_ptr()],
            [dob.as_ptr(), vh.as_ptr()],
        );
        for j0 in (0..seq.next_multiple_of(KEY_GROUP)).step_by(KEY_GROUP) {
            // The padding keys too: their `dS` reaches only their own lanes.
            for j in (j0..j0 + KEY_GROUP).step_by(4) {
                let at = w * (j - j0);
                let to = [tp.add(w * j), dsp.add(at), pair[0].add(at), pair[1].add(at)];
                grad_keys::<L>(j, dh, scale, from, [inv, dl], to);
            }
            let last = j0 + KEY_GROUP >= seq;
            let tail = if last { seq4..seq } else { 0..0 };
            let group = (j0, seq4.clamp(j0, j0 + KEY_GROUP), tail);
            let mut d = 0;
            while d < dh {
                let out = last.then_some((rb, ld, i0 * ld + d));
                let (at, two) = ((d, sump.add(4 * w * d)), wide && dh - d >= 2);
                if two {
                    dq_cols::<L, 2>(group.clone(), dh, at, dsp, kp, out, dq);
                } else {
                    dq_cols::<L, 1>(group.clone(), dh, at, dsp, kp, out, dq);
                }
                d += 1 + two as usize;
            }
            let pairs = if wide { 8 } else { 4 };
            for k0 in (0..KEY_GROUP / 2).step_by(pairs) {
                for u in 0..per_pair {
                    let at = ((j0 / 2 + k0) * per_pair + u) * n;
                    let acc = [dkt.as_mut_ptr().add(at), dvt.as_mut_ptr().add(at)];
                    let from = [sp.as_ptr(), pp.as_ptr()].map(|x| x.add(k0 * 2 * w));
                    let rows = [q2.as_ptr(), o2.as_ptr()].map(|x| x.add(u * n));
                    match pairs {
                        8 => accumulate_pairs::<L, 8>(rb, per_pair, from, rows, acc),
                        _ => accumulate_pairs::<L, 4>(rb, per_pair, from, rows, acc),
                    }
                }
            }
        }
    }
    // Column `d` of key `j` is lane `2 (d mod N/2) + j mod 2` of vector
    // `d / (N/2)` of pair `j / 2`.
    for j in 0..seq {
        for d in 0..dh {
            let at = ((j / 2) * per_pair + d / (n / 2)) * n + 2 * (d % (n / 2)) + j % 2;
            (dk[j * ld + d], dv[j * ld + d]) = (dkt[at], dvt[at]);
        }
    }
}

/// For keys `j .. j + 4`, both halves: `dP` ([`key_dots`] of the packed dO
/// and V, `from`), `P = e · inv` from the numerators at `to[0]`, and
/// `dS = (P · (dP − delta)) · scale`. `dS` goes to the tile at `to[1]`,
/// rows across lanes, and `P` and `dS` to `to[2]` and `to[3]` as two key
/// pairs: per half, the even rows' lanes of both keys zipped, then the
/// odd rows' ([`Lanes::zip`]).
///
/// # Safety
/// As [`backward_lanes`].
#[cfg(target_arch = "x86_64")]
#[inline(always)]
unsafe fn grad_keys<L: Lanes>(
    j: usize,
    dh: usize,
    scale: f64,
    from: [*const f64; 2],
    [inv, delta]: [[L; 2]; 2],
    to: [*mut f64; 4],
) {
    let (n, w) = (L::N, 2 * L::N);
    let dp = key_dots::<L, 4>(j, dh, dh, from[0], from[1]);
    let mut ps = [[[L::splat(0.0); 2]; 4]; 2];
    for (u, g) in dp.iter().enumerate() {
        for h in 0..2 {
            let at = w * u + n * h;
            let p = L::load(to[0].add(at)).mul(inv[h]);
            let s = p.mul(g[h].sub(delta[h])).mul(L::splat(scale));
            s.store(to[1].add(at));
            [ps[0][u][h], ps[1][u][h]] = [p, s];
        }
    }
    for (x, to) in ps.iter().zip(&to[2..]) {
        for (k, [a, b]) in x.as_chunks::<2>().0.iter().enumerate() {
            for (h, (a, b)) in a.iter().zip(b).enumerate() {
                let [even, odd] = a.zip(*b);
                even.store(to.add(2 * w * k + 2 * n * h));
                odd.store(to.add(2 * w * k + 2 * n * h + n));
            }
        }
    }
}

/// `dQ`'s head columns `d .. d + C` (`at = (d, sums)`) over the key group
/// `(j0, full, tail)` with `dS` tile `ds`, rows across lanes: the keys
/// `j0 .. full`, whole chunks of four, continue the partial sums by
/// `j mod 4` of `fma(dS[r, j], K[j, d], ·)` kept in `sums` (vector
/// `(u · 4 + l) · 2 + h` for column `d + u`, sum `l`, half `h`). In the
/// last group (`out = Some((rb, ld, at))`) each half's sums are combined as
/// `(s0 + s2) + (s1 + s3)`, the `tail` keys added in order, and the block's
/// `rb` rows stored to `dq[at ..]`.
///
/// # Safety
/// As [`backward_lanes`].
#[cfg(target_arch = "x86_64")]
#[inline(always)]
unsafe fn dq_cols<L: Lanes, const C: usize>(
    (j0, full, tail): (usize, usize, std::ops::Range<usize>),
    ld: usize,
    (d, sums): (usize, *mut f64),
    ds: *const f64,
    k: *const f64,
    out: Option<(usize, usize, usize)>,
    dq: &mut [f64],
) {
    let (n, w) = (L::N, 2 * L::N);
    let at = |u: usize, l: usize, h: usize| sums.add(((u * 4 + l) * 2 + h) * n);
    let mut s = [[[L::splat(0.0); 2]; 4]; C];
    for (u, s) in s.iter_mut().enumerate() {
        for (l, s) in s.iter_mut().enumerate() {
            [s[0], s[1]] = [L::load(at(u, l, 0)), L::load(at(u, l, 1))];
        }
    }
    for j in (j0..full).step_by(4) {
        for l in 0..4 {
            let g = ds.add(w * (j - j0 + l));
            let g = [L::load(g), L::load(g.add(n))];
            for (u, s) in s.iter_mut().enumerate() {
                let kv = L::splat(*k.add((j + l) * ld + d + u));
                s[l] = [g[0].fmadd(kv, s[l][0]), g[1].fmadd(kv, s[l][1])];
            }
        }
    }
    let Some((rb, dq_ld, base)) = out else {
        for (u, s) in s.iter().enumerate() {
            for (l, s) in s.iter().enumerate() {
                s[0].store(at(u, l, 0));
                s[1].store(at(u, l, 1));
            }
        }
        return;
    };
    let mut cols = [[L::splat(0.0); 2]; C];
    for (u, (c, s)) in cols.iter_mut().zip(&s).enumerate() {
        for (h, c) in c.iter_mut().enumerate() {
            *c = s[0][h].add(s[2][h]).add(s[1][h].add(s[3][h]));
            for j in tail.clone() {
                let g = L::load(ds.add(w * (j - j0) + n * h));
                *c = g.fmadd(L::splat(*k.add(j * ld + d + u)), *c);
            }
        }
    }
    store_cols(&cols, rb, dq_ld, &mut dq[base..]);
}

/// `dK` and `dV` for `KP` key pairs, keys across lanes: lane `2c + t` of a
/// pair's vector `u` is column `u·N/2 + c` of the pair's key `t`, and
/// continues its chain over the block's rows `0 .. rb` in ascending order,
/// `fma(dS[r, j], Q[r, d], ·)` into `acc[0]` and `fma(P[r, j], dO[r, d], ·)`
/// into `acc[1]`. `from` holds the paired `dS` and `P` (see [`grad_keys`]),
/// `rows` each row's Q and dO with every column twice.
///
/// # Safety
/// As [`backward_lanes`].
#[cfg(target_arch = "x86_64")]
#[inline(always)]
unsafe fn accumulate_pairs<L: Lanes, const KP: usize>(
    rb: usize,
    per_pair: usize,
    from: [*const f64; 2],
    rows: [*const f64; 2],
    acc: [*mut f64; 2],
) {
    let (n, stride) = (L::N, per_pair * L::N);
    let mut a = [[L::splat(0.0); KP]; 2];
    for (a, acc) in a.iter_mut().zip(acc) {
        for (k, a) in a.iter_mut().enumerate() {
            *a = L::load(acc.add(k * stride));
        }
    }
    for r in 0..rb {
        // Row `r`'s place in a pair's vectors: per half, the even rows,
        // then the odd.
        let (h, l) = (r / n, r % n);
        let at = 2 * n * h + (l % 2) * n + (l - l % 2);
        for (g, a) in a.iter_mut().enumerate() {
            let (x, row) = (L::load(rows[g].add(r * stride)), from[g].add(at));
            for (k, a) in a.iter_mut().enumerate() {
                *a = L::load_pair(row.add(4 * n * k)).fmadd(x, *a);
            }
        }
    }
    for (a, acc) in a.iter().zip(acc) {
        for (k, a) in a.iter().enumerate() {
            a.store(acc.add(k * stride));
        }
    }
}

/// The scalar tier's backward, one `ROW_BLOCK` of rows at a time in
/// ascending order, every chain a multiply then an add, on packed Kᵀ and
/// Vᵀ: the block's scores and `dP` (`block_rows`), the row softmax, `dS`,
/// then `dV`/`dK` (`block_accumulate`) and `dQ` (`block_dots`). Rows past
/// a short last block are zero and add exact zeros.
fn backward_blocks(b: Backward) {
    const RB: usize = ROW_BLOCK;
    let Backward((seq, dh, ld, scale), [q, k, v, o, d_o], [dq, dk, dv], scratch) = b;
    let (ds, rs) = (dh * seq, RB * seq);
    let [kt, vt, dkt, dvt, p, ss, qb, dob] =
        carve(scratch, [ds, ds, ds, ds, rs, rs, RB * dh, RB * dh]);
    for (j, (krow, vrow)) in k.chunks(ld).zip(v.chunks(ld)).take(seq).enumerate() {
        for d in 0..dh {
            (kt[d * seq + j], vt[d * seq + j]) = (krow[d], vrow[d]);
        }
    }
    dkt.fill(0.0);
    dvt.fill(0.0);
    for i0 in (0..seq).step_by(RB) {
        let rb = RB.min(seq - i0);
        qb.fill(0.0);
        dob.fill(0.0);
        let mut delta = [0.0f64; RB];
        for r in 0..rb {
            let at = (i0 + r) * ld;
            for d in 0..dh {
                (qb[d * RB + r], dob[d * RB + r]) = (q[at + d], d_o[at + d]);
                delta[r] += d_o[at + d] * o[at + d];
            }
        }
        block_rows(seq, qb, kt, p);
        softmax_rows_scaled_inplace(&mut p[..rb * seq], seq, scale);
        block_rows(seq, dob, vt, ss);
        for ((srow, prow), &dl) in ss
            .chunks_exact_mut(seq)
            .zip(p.chunks_exact(seq))
            .zip(&delta)
        {
            for (x, &pv) in srow.iter_mut().zip(prow) {
                *x = pv * (*x - dl) * scale;
            }
        }
        block_accumulate(seq, dob, p, dvt);
        block_accumulate(seq, qb, ss, dkt);
        block_dots(seq, ld, ss, kt, &mut dq[i0 * ld..], rb);
    }
    for (j, (krow, vrow)) in dk
        .chunks_mut(ld)
        .zip(dv.chunks_mut(ld))
        .take(seq)
        .enumerate()
    {
        for d in 0..dh {
            (krow[d], vrow[d]) = (dkt[d * seq + j], dvt[d * seq + j]);
        }
    }
}

/// `out[r, j] = Σ_d coef[d, r] · panel[d, j]` for a block's rows, each a
/// chain from zero over `d`: `coef` is `[dh, ROW_BLOCK]`, `panel` `[dh,
/// seq]`, `out` `[ROW_BLOCK, seq]`.
fn block_rows(seq: usize, coef: &[f64], panel: &[f64], out: &mut [f64]) {
    out.fill(0.0);
    for (c, prow) in coef.chunks_exact(ROW_BLOCK).zip(panel.chunks_exact(seq)) {
        for (orow, &cr) in out.chunks_exact_mut(seq).zip(c) {
            for (o, &pv) in orow.iter_mut().zip(prow) {
                *o += cr * pv;
            }
        }
    }
}

/// `acc[d, j] += Σ_r rows[r, j] · coef[d, r]`, each chain continued over
/// the block's rows in ascending order (`acc` in `panel`'s layout).
fn block_accumulate(seq: usize, coef: &[f64], rows: &[f64], acc: &mut [f64]) {
    for (c, arow) in coef.chunks_exact(ROW_BLOCK).zip(acc.chunks_exact_mut(seq)) {
        for (row, &cr) in rows.chunks_exact(seq).zip(c) {
            for (a, &rv) in arow.iter_mut().zip(row) {
                *a += rv * cr;
            }
        }
    }
}

/// `out[r, d] = Σ_j rows[r, j] · panel[d, j]` for the block's first `rb`
/// rows (`out` strided by `ld`): partial sums by `j mod 4` combined as
/// `(s0 + s2) + (s1 + s3)`, then the tail left to right.
fn block_dots(seq: usize, ld: usize, rows: &[f64], panel: &[f64], out: &mut [f64], rb: usize) {
    let seq4 = seq - seq % 4;
    for (d, prow) in panel.chunks_exact(seq).enumerate() {
        for (row, orow) in rows.chunks_exact(seq).zip(out.chunks_mut(ld)).take(rb) {
            let mut s = [0.0f64; 4];
            for (rc, pc) in row.chunks_exact(4).zip(prow.chunks_exact(4)) {
                for l in 0..4 {
                    s[l] += rc[l] * pc[l];
                }
            }
            let tail = row[seq4..].iter().zip(&prow[seq4..]);
            orow[d] = tail.fold((s[0] + s[2]) + (s[1] + s[3]), |sum, (r, p)| sum + r * p);
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
    /// GEMM tier pinned: the attention weights and the context.
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
        let head = Head((seq, dh, ld, scale), [q, k, v], o, [qb, rows]);
        match tier {
            Tier::Scalar => head_mul_add(head, kt, skip_zero),
            // SAFETY (both arms): the tier is supported; slices sized as in
            // attention_head.
            #[cfg(target_arch = "x86_64")]
            Tier::Avx2 => unsafe { run_avx2(head) },
            #[cfg(target_arch = "x86_64")]
            Tier::Avx512 => unsafe { run_avx512(head) },
            #[cfg(not(target_arch = "x86_64"))]
            _ => unreachable!("no vector tier off x86-64"),
        }
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

    /// The fused flavours' reference, written apart from them, on the
    /// strided operands `flavour` takes: for each row a `mul_add` score
    /// chain from zero over `p`, the scalar row softmax (compiled with FMA
    /// where the CPU has it; the same bits either way), then a `mul_add`
    /// context chain from zero over `j` of `P[r, j] = e[r, j] · (1 / sum)`.
    #[allow(clippy::too_many_arguments)]
    fn reference_head(
        seq: usize,
        dh: usize,
        ld: usize,
        scale: f64,
        qs: &[f64],
        ks: &[f64],
        vs: &[f64],
        off: usize,
    ) -> Vec<f64> {
        let at = |x: &[f64], i: usize, p: usize| x[off + i * ld + p];
        let mut out = vec![-1.0; seq * ld];
        let mut s = vec![0.0; seq];
        for i in 0..seq {
            for (j, sj) in s.iter_mut().enumerate() {
                *sj = (0..dh).fold(0.0, |acc, p| at(qs, i, p).mul_add(at(ks, j, p), acc));
            }
            crate::exp::softmax_rows_with(Tier::Scalar, &mut s, seq, scale);
            for d in 0..dh {
                out[off + i * ld + d] =
                    (0..seq).fold(0.0, |acc, j| s[j].mul_add(at(vs, j, d), acc));
            }
        }
        out
    }

    /// Every vector flavour the CPU runs against [`reference_head`], and
    /// the two against each other where both run: the output's bits on
    /// the strided view, padding included.
    #[allow(clippy::too_many_arguments)]
    fn check_vector_flavours(
        seq: usize,
        dh: usize,
        ld: usize,
        scale: f64,
        qs: &[f64],
        ks: &[f64],
        vs: &[f64],
        what: &str,
    ) {
        let want = reference_head(seq, dh, ld, scale, qs, ks, vs, 0);
        let mut ran = Vec::new();
        for tier in [Tier::Avx2, Tier::Avx512] {
            if tier.supported() {
                let got = flavour(tier, false, seq, dh, ld, scale, qs, ks, vs, 0);
                same_bits(&got, &want, &format!("{what} {tier:?} vs reference"));
                ran.push(got);
            }
        }
        if let [avx2, avx512] = &ran[..] {
            same_bits(avx512, avx2, &format!("{what} AVX-512 vs AVX2"));
        }
    }

    /// Each vector forward flavour the CPU runs, called directly, against
    /// the independent reference over sequence lengths straddling the 4-,
    /// 8- and 16-lane tiles and hostile operands: ±∞ and NaN entries, a
    /// 1e300 spread, and a query row whose scores are all −∞. A tier the CPU
    /// lacks is skipped with a note.
    #[test]
    fn fused_flavours_match_bitwise_on_ragged_and_hostile_heads() {
        for tier in [Tier::Avx2, Tier::Avx512] {
            if !tier.supported() {
                println!("{tier:?} not supported on this CPU: attention leg skipped");
            }
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
                    let what = format!("seq {seq} dh {dh} case {case}");
                    check_vector_flavours(seq, dh, ld, 0.5, &qs, &ks, &vs, &what);
                }
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(96))]
        // Each vector head the CPU runs against the independent reference
        // (and the two against each other), bit for bit, on generated
        // heads: every sequence length up to 40 and around 128 and 256,
        // head widths 1–8, padded strides, and hostile entries (±∞, NaN, a
        // 1e300 spread, an all −∞ score row).
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
        let what = format!("seq {seq} dh {dh} ld {ld} case {case}");
        check_vector_flavours(seq, dh, ld, scale, &qs, &ks, &vs, &what);
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

    /// The backward checks the same precondition itself, so the panic
    /// names the attention and not the softmax inside it.
    #[test]
    #[should_panic(expected = "attention scale must be positive")]
    fn backward_rejects_a_negative_scale() {
        let (seq, dh) = (4, 2);
        let x = fill(seq * dh, 3);
        let mut g = [
            vec![0.0; seq * dh],
            vec![0.0; seq * dh],
            vec![0.0; seq * dh],
        ];
        let [dq, dk, dv] = &mut g;
        let mut scratch = vec![0.0; attention_backward_scratch_len(seq, dh)];
        attention_head_backward(
            seq,
            dh,
            dh,
            -1.0,
            &x,
            &x,
            &x,
            &x,
            &x,
            dq,
            dk,
            dv,
            &mut scratch,
        );
    }

    /// ... and checks it before it looks at the shape: an empty head with
    /// a zero scale is rejected too.
    #[test]
    #[should_panic(expected = "attention scale must be positive")]
    fn backward_rejects_a_non_positive_scale_even_on_an_empty_head() {
        let mut g = [Vec::new(), Vec::new(), Vec::new()];
        let [dq, dk, dv] = &mut g;
        let e: &[f64] = &[];
        attention_head_backward(0, 4, 4, 0.0, e, e, e, e, e, dq, dk, dv, &mut []);
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
        // The fused backward: per key the P tile of a 16-row block, dK and
        // dV, and K and V packed ((16 + 4 · 4) · 128); per row of the block
        // dQ's partial sums and the packed Q and dO rows (6 · 4), the rows
        // with every column twice (4 · 4) and a 16-key group's dS, P pairs
        // and dS pairs (3 · 16); and the room to align them.
        assert_eq!(
            attention_backward_scratch_len(128, 4),
            32 * 128 + 88 * 16 + 7
        );
        // A ragged length rounds the key-major buffers up to 16 keys.
        assert_eq!(attention_backward_scratch_len(37, 4), 32 * 48 + 88 * 16 + 7);
        assert!(
            attention_backward_scratch_len(256, 4) < 2 * attention_backward_scratch_len(128, 4)
        );
    }

    /// The unfused backward on contiguous `[seq, dh]` operands with the
    /// GEMM tier pinned: four GEMMs around the softmax backward
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

    /// One backward flavour called directly, whatever the shape or
    /// `kernel_tier` would pick, on strided operands `[q, k, v, o, dO]`
    /// with the head at column `off` and scratch poisoned on entry:
    /// `[dq, dk, dv]` over the whole `[seq, ld]` buffers, padding included.
    fn backward_flavour(
        tier: Tier,
        (seq, dh, ld, off): (usize, usize, usize, usize),
        scale: f64,
        ops: [&[f64]; 5],
    ) -> [Vec<f64>; 3] {
        assert!(tier.supported());
        let mut scratch = vec![f64::NAN; attention_backward_scratch_len(seq, dh)];
        let mut g: [Vec<f64>; 3] = std::array::from_fn(|_| vec![-1.0; seq * ld]);
        let ops = ops.map(|x| &x[off..]);
        let [dq, dk, dv] = &mut g;
        let grads = [&mut dq[off..], &mut dk[off..], &mut dv[off..]];
        let shape = (seq, dh, ld, scale);
        match tier {
            Tier::Scalar => backward_blocks(Backward(shape, ops, grads, &mut scratch)),
            #[cfg(target_arch = "x86_64")]
            _ => {
                let b = Backward(shape, ops, grads, &mut scratch[..]);
                // SAFETY (both arms): the tier is supported; slices sized as
                // in attention_head_backward.
                match tier {
                    Tier::Avx512 => unsafe { run_avx512(b) },
                    _ => unsafe { run_avx2(b) },
                }
            }
            #[cfg(not(target_arch = "x86_64"))]
            _ => unreachable!("no vector tier off x86-64"),
        }
        g
    }

    /// Every flavour of the backward against the unfused oracle, over
    /// sequence tails, head widths, strided views whose padding columns
    /// must survive, and scratch poisoned on entry; and every fused tier
    /// the CPU runs to the same bits. A tier the CPU lacks is skipped with
    /// a note.
    #[test]
    fn fused_backward_matches_unfused_oracle() {
        for tier in [Tier::Avx2, Tier::Avx512] {
            if !tier.supported() {
                println!("{tier:?} not supported on this CPU: backward leg skipped");
            }
        }
        for &seq in &[1usize, 3, 8, 9, 31, 37, 128] {
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

                // None: the dispatched entry; Some(tier): that flavour.
                let mut fused = Vec::new();
                for flavour in [
                    None,
                    Some(Tier::Scalar),
                    Some(Tier::Avx2),
                    Some(Tier::Avx512),
                ] {
                    let tier = match flavour {
                        None if gemm_worthwhile(seq, seq, dh) => kernel_tier(),
                        None => Tier::Scalar,
                        Some(tier) => tier,
                    };
                    if !tier.supported() {
                        continue;
                    }
                    let what = format!("seq {seq} dh {dh} flavour {flavour:?}");
                    // The forward output the backward reads, same flavour.
                    let o = strided(&unfused(seq, dh, scale, &q, &k, &v, tier).1);
                    let want = unfused_backward(seq, dh, scale, &q, &k, &v, &d_o, tier);
                    let ops = [&qs[..], &ks, &vs, &o, &dos];
                    let got = match flavour {
                        Some(tier) => backward_flavour(tier, (seq, dh, ld, off), scale, ops),
                        None => {
                            let mut scratch =
                                vec![f64::NAN; attention_backward_scratch_len(seq, dh)];
                            let mut g: [Vec<f64>; 3] =
                                std::array::from_fn(|_| vec![-1.0; seq * ld]);
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
                            g
                        }
                    };
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
                    if flavour.is_some() && tier.fused() {
                        fused.push(got);
                    }
                }
                if let [avx2, avx512] = &fused[..] {
                    for ((a, b), name) in avx512.iter().zip(avx2).zip(["dQ", "dK", "dV"]) {
                        same_bits(a, b, &format!("seq {seq} dh {dh} {name} AVX-512 vs AVX2"));
                    }
                }
            }
        }
    }

    /// The fused backward's reference, written apart from it, on operands
    /// at column 0 of stride `ld`: per query row, [`reference_head`]'s
    /// probabilities, then `mul_add` chains in the module docs' orders —
    /// `dK`/`dV` over the rows ascending, `dQ` as four partial sums by
    /// `j mod 4` combined `(s0 + s2) + (s1 + s3)`, then the tail.
    fn reference_backward(
        (seq, dh, ld): (usize, usize, usize),
        scale: f64,
        [qs, ks, vs, os, dos]: [&[f64]; 5],
    ) -> [Vec<f64>; 3] {
        let at = |x: &[f64], i: usize, p: usize| x[i * ld + p];
        let [mut dq, mut dk, mut dv]: [Vec<f64>; 3] = std::array::from_fn(|_| vec![-1.0; seq * ld]);
        let (mut dkt, mut dvt) = (vec![0.0; seq * dh], vec![0.0; seq * dh]);
        let (mut p, mut ds) = (vec![0.0; seq], vec![0.0; seq]);
        let seq4 = seq - seq % 4;
        for i in 0..seq {
            for (j, pj) in p.iter_mut().enumerate() {
                *pj = (0..dh).fold(0.0, |acc, d| at(qs, i, d).mul_add(at(ks, j, d), acc));
            }
            crate::exp::softmax_rows_with(Tier::Scalar, &mut p, seq, scale);
            let delta = (0..dh).fold(0.0, |acc, d| at(dos, i, d).mul_add(at(os, i, d), acc));
            for (j, (g, &pj)) in ds.iter_mut().zip(&p).enumerate() {
                let dp = (0..dh).fold(0.0, |acc, d| at(dos, i, d).mul_add(at(vs, j, d), acc));
                *g = pj * (dp - delta) * scale;
            }
            for j in 0..seq {
                for d in 0..dh {
                    dvt[j * dh + d] = p[j].mul_add(at(dos, i, d), dvt[j * dh + d]);
                    dkt[j * dh + d] = ds[j].mul_add(at(qs, i, d), dkt[j * dh + d]);
                }
            }
            for d in 0..dh {
                let mut s = [0.0f64; 4];
                for (j, g) in ds[..seq4].iter().enumerate() {
                    s[j % 4] = g.mul_add(at(ks, j, d), s[j % 4]);
                }
                let mut sum = (s[0] + s[2]) + (s[1] + s[3]);
                for (j, g) in ds.iter().enumerate().skip(seq4) {
                    sum = g.mul_add(at(ks, j, d), sum);
                }
                dq[i * ld + d] = sum;
            }
        }
        for j in 0..seq {
            dk[j * ld..][..dh].copy_from_slice(&dkt[j * dh..][..dh]);
            dv[j * ld..][..dh].copy_from_slice(&dvt[j * dh..][..dh]);
        }
        [dq, dk, dv]
    }

    /// Each fused backward the CPU runs, called directly, against the
    /// independent reference bit for bit over sequence lengths straddling
    /// the 4-, 8- and 16-row blocks and the 4- and 8-key chunks, and
    /// hostile operands: ±∞ and NaN entries, a 1e300 spread, and a query
    /// row whose scores are all −∞. A tier the CPU lacks is skipped with a
    /// note.
    #[test]
    fn fused_backward_matches_bitwise_on_ragged_and_hostile_heads() {
        for tier in [Tier::Avx2, Tier::Avx512] {
            if !tier.supported() {
                println!("{tier:?} not supported on this CPU: backward leg skipped");
            }
        }
        for seq in [1usize, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 33, 37, 128] {
            for dh in [1usize, 4, 5, 8] {
                for case in 0..4 {
                    let mut q = fill(seq * dh, 3 + seq as u64);
                    let mut k = fill(seq * dh, 5 + dh as u64);
                    let mut v = fill(seq * dh, 7);
                    let mut d_o = fill(seq * dh, 9);
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
                            d_o[last / 2] = f64::INFINITY;
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
                    let ld = dh + 3;
                    let strided = |x: &[f64]| scatter(x, seq, dh, ld, 0, 7.0);
                    let (qs, ks, vs, dos) = (strided(&q), strided(&k), strided(&v), strided(&d_o));
                    let os = reference_head(seq, dh, ld, 0.5, &qs, &ks, &vs, 0);
                    let ops = [&qs[..], &ks, &vs, &os, &dos];
                    let want = reference_backward((seq, dh, ld), 0.5, ops);
                    for tier in [Tier::Avx2, Tier::Avx512] {
                        if tier.supported() {
                            let got = backward_flavour(tier, (seq, dh, ld, 0), 0.5, ops);
                            for ((g, w), name) in got.iter().zip(&want).zip(["dQ", "dK", "dV"]) {
                                let what = format!("seq {seq} dh {dh} case {case} {tier:?} {name}");
                                same_bits(g, w, &what);
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

    /// FNV-1a over a stream of `f64` bit patterns.
    fn fnv1a<'a>(xs: impl IntoIterator<Item = &'a f64>) -> u64 {
        xs.into_iter().fold(0xcbf29ce484222325u64, |h, x| {
            (h ^ x.to_bits()).wrapping_mul(0x100000001b3)
        })
    }

    /// The dispatched backward's `dq`, `dk` and `dv` (head 1 of a strided
    /// layout, the forward's own output as `o`), hashed column by column.
    fn backward_hash(seq: usize, dh: usize, ld: usize) -> u64 {
        let strided = |seed: u64| scatter(&fill(seq * dh, seed), seq, dh, ld, 1, 7.0);
        let (q, k, v, d_o) = (strided(21), strided(23), strided(29), strided(31));
        let (off, scale) = (dh, 1.0 / (dh as f64).sqrt());
        let mut o = vec![0.0; seq * ld];
        let len = attention_scratch_len(seq, dh).max(attention_backward_scratch_len(seq, dh));
        let mut scratch = vec![f64::NAN; len];
        attention_head(
            seq,
            dh,
            ld,
            scale,
            &q[off..],
            &k[off..],
            &v[off..],
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
            &q[off..],
            &k[off..],
            &v[off..],
            &o[off..],
            &d_o[off..],
            &mut dq[off..],
            &mut dk[off..],
            &mut dv[off..],
            &mut scratch,
        );
        fnv1a(
            g.iter()
                .flat_map(|x| (0..seq).flat_map(move |i| &x[i * ld + off..i * ld + off + dh])),
        )
    }

    /// The backward's gradients to the bit at three fused shapes: the
    /// training head (128, 4, 16), a ragged length (37, 4, 12) and a wide
    /// head (64, 8, 16). One literal for the fused tiers, one for the
    /// scalar tier (`DBAT_GEMM_FORCE_SCALAR=1`).
    #[test]
    fn backward_bits_are_pinned() {
        let fused = kernel_tier().fused();
        for (seq, dh, ld, fma, scalar) in [
            (128, 4, 16, 0x9e6c4b32d835fe1f_u64, 0x1ded37b9b3dbdcc3_u64),
            (37, 4, 12, 0xc0576ca0abc9dbcc, 0x23ef3c76617aee10),
            (64, 8, 16, 0xdb909b18a644a53a, 0x11a3cafa3bda4514),
        ] {
            let hash = backward_hash(seq, dh, ld);
            let want = if fused { fma } else { scalar };
            assert_eq!(
                hash,
                want,
                "({seq}, {dh}, {ld}) backward hash {hash:#x} on {:?}",
                kernel_tier()
            );
        }
    }
}
