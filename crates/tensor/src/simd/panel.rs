//! The fused batched sampling step, [`sample_step_cols`], written once
//! over [`Lanes`] and stamped per arm: `[f64; 4]` / `[f32; 8]` portable,
//! `__m256d` / `__m256` AVX2, `__m512d` / `__m512` AVX-512.
//!
//! One call advances every batch row of a **transposed** `h × b`
//! activation panel `zt` (hidden unit `j` holds the rows
//! `zt[j·b .. (j+1)·b]`) by one autoregressive bit:
//!
//! 1. the *previous* bit's `W₁` column: `zt[j·b + r] += w_prev[j]` for
//!    the rows whose previous bit was drawn 1 (`prev_mask[r] > 0.5`);
//! 2. the current bit's logit:
//!    `logits[r] = bias + Σⱼ w_out[j]·max(zt[j·b + r], 0)`.
//!
//! Per row the sum is `relu_dot`'s: `S` stripes (unit `j` feeds stripe
//! `j % S` inside aligned blocks of `S`), a sequential tail stripe, then
//! `bias + (tree(s₀ … s_{S−1}) + tail)` with [`Lanes::hsum`]'s pairwise
//! tree.  `S` is `relu_dot`'s stripe count, 4 for `f64` and 8 for `f32`
//! on every arm; `f32` stripes widen exactly to `f64` for the combine.
//! A row's logit is therefore bit-identical to the row path's
//! update-then-`relu_dot` on that row alone, on every arm and in both
//! traversals:
//!
//! * **register** (panel ≤ 64 KiB): `G` vectors of rows at a time, each
//!   with its `S + 1` accumulators in registers across the whole hidden
//!   loop; the groups share each weight broadcast.
//! * **hidden-major** (larger panels, whose stride-`b` column walks
//!   outrun the dTLB and the stride prefetcher): hidden units outermost,
//!   stripes in `scratch`, every stream sequential.  The per-bit masks
//!   are stashed once in the last scratch stripe, and aligned pairs of
//!   units share each mask load.
//!
//! Rows past the last full vector run the same body at the one-lane
//! type.  Partial sums round-tripping through scratch are exact, and
//! the masked update keeps masked-off lanes (up to [`Lanes::masked_add`]'s
//! zero sign on `__m256d`), so the updated panel agrees across arms too.

use std::ops::Range;

use super::lanes::Lanes;

/// Panels over this many bytes take the hidden-major traversal.
const HIDDEN_MAJOR_BYTES: usize = 64 * 1024;

/// Units per pass over the rows in the hidden-major traversal, sharing
/// each mask load.  Wider blocks walk more row streams `b` elements
/// apart at once, and at the benchmarks' `b` (256 to 1024) those
/// streams alias in the L1's 4 KiB address bits; two measured fastest
/// on AVX2 and AVX-512, in both precisions.
const PAIR: usize = 2;

/// How one call walks the panel.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Traversal {
    /// Row blocks, accumulators in registers.
    Register,
    /// Hidden units outermost, accumulators in scratch.
    HiddenMajor,
}

/// The traversal of an `h × b` panel of `elem_bytes`-byte elements.
fn traversal(h: usize, b: usize, elem_bytes: usize) -> Traversal {
    if h * b * elem_bytes > HIDDEN_MAJOR_BYTES {
        Traversal::HiddenMajor
    } else {
        Traversal::Register
    }
}

/// One call's slices as raw pointers, lengths checked by
/// [`sample_step_cols`].
struct Panel<E> {
    zt: *mut E,
    h: usize,
    b: usize,
    w_prev: Option<*const E>,
    prev_mask: *const E,
    w_out: *const E,
    bias: f64,
    logits: *mut f64,
}

/// The fused bit step of the module docs over lanes `L`, with `S`
/// accumulator stripes per row and `G` row vectors per register block.
///
/// `w_out` has the `h` entries; `zt` holds at least `h·b`, `w_prev` at
/// least `h` (`None` skips the update: the first bit), `prev_mask` and
/// `logits` exactly `b`, and `scratch` at least `(S + 2)·b` — the
/// hidden-major traversal's `S + 1` stripes and its mask stash (`6·b`
/// for `f64`, `10·b` for `f32`).
///
/// Panics if a slice breaks that contract.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
pub(super) fn sample_step_cols<L: Lanes, const S: usize, const G: usize>(
    zt: &mut [L::Elem],
    b: usize,
    w_prev: Option<&[L::Elem]>,
    prev_mask: &[L::Elem],
    w_out: &[L::Elem],
    bias: f64,
    scratch: &mut [L::Elem],
    logits: &mut [f64],
) {
    const {
        // `relu_dot`'s stripes: one 256-bit row of elements.
        assert!(S * size_of::<L::Elem>() == 32);
        assert!(G >= 1 && S.is_multiple_of(PAIR));
    };
    let h = w_out.len();
    // `(S + 2)·b` cannot overflow once `logits` holds `b` `f64`s.
    assert!(
        h.checked_mul(b).is_some_and(|hb| zt.len() >= hb)
            && w_prev.is_none_or(|w| w.len() >= h)
            && prev_mask.len() == b
            && logits.len() == b
            && scratch.len() >= (S + 2) * b,
        "sample_step_cols: slice lengths break the kernel contract"
    );
    let p = Panel {
        zt: zt.as_mut_ptr(),
        h,
        b,
        w_prev: w_prev.map(<[_]>::as_ptr),
        prev_mask: prev_mask.as_ptr(),
        w_out: w_out.as_ptr(),
        bias,
        logits: logits.as_mut_ptr(),
    };
    match traversal(h, b, size_of::<L::Elem>()) {
        // SAFETY: the lengths were checked above.
        Traversal::Register => unsafe { register::<L, S, G>(&p) },
        Traversal::HiddenMajor => {
            let (acc, stash) = scratch.split_at_mut((S + 1) * b);
            acc.fill(L::Elem::zero());
            // SAFETY: as above; `acc` is `S + 1` zeroed stripes and
            // `stash` at least one more.
            unsafe { hidden_major::<L, S>(&p, acc.as_mut_ptr(), stash.as_mut_ptr()) }
        }
    }
}

/// The register traversal: `G`-vector row blocks, then single vectors,
/// then single rows.
///
/// # Safety
/// `p` points into slices that meet [`sample_step_cols`]'s contract:
/// `zt ≥ h·b`, `w_prev ≥ h`, `prev_mask = logits = b`.
#[inline(always)]
unsafe fn register<L: Lanes, const S: usize, const G: usize>(p: &Panel<L::Elem>) {
    let mut r = 0;
    while r + G * L::WIDTH <= p.b {
        row_block::<L, S, G>(p, r);
        r += G * L::WIDTH;
    }
    while r + L::WIDTH <= p.b {
        row_block::<L, S, 1>(p, r);
        r += L::WIDTH;
    }
    while r < p.b {
        row_block::<L::Elem, S, 1>(p, r);
        r += 1;
    }
}

/// `G` row vectors from row `r`, every accumulator in a register across
/// the whole hidden loop.
///
/// # Safety
/// As [`register`], and `r + G·WIDTH ≤ b`.
#[inline(always)]
unsafe fn row_block<L: Lanes, const S: usize, const G: usize>(p: &Panel<L::Elem>, r: usize) {
    let mut masks = [L::zero().gt_half(); G];
    for (g, m) in masks.iter_mut().enumerate() {
        *m = L::load(p.prev_mask.add(r + g * L::WIDTH)).gt_half();
    }
    let mut acc = [[L::zero(); G]; S];
    let mut tail = [L::zero(); G];
    let n = p.h - p.h % S;
    let mut j = 0;
    if r == 0 {
        // First block only: stage the *next* bit's weight rows (at `+h`
        // in both matrices) into L2 while this bit computes, one hint
        // per 64-byte line.
        let line = 64 / size_of::<L::Elem>();
        while j < n {
            if j % line == 0 {
                prefetch(p.w_out, p.h + j);
                if let Some(w) = p.w_prev {
                    prefetch(w, p.h + j);
                }
            }
            let pj = p.zt.add(j * p.b + r);
            for (t, a) in acc.iter_mut().enumerate() {
                *a = unit(p, &masks, pj.add(t * p.b), j + t, *a);
            }
            j += S;
        }
    }
    while j < n {
        let pj = p.zt.add(j * p.b + r);
        for (t, a) in acc.iter_mut().enumerate() {
            *a = unit(p, &masks, pj.add(t * p.b), j + t, *a);
        }
        j += S;
    }
    while j < p.h {
        tail = unit(p, &masks, p.zt.add(j * p.b + r), j, tail);
        j += 1;
    }
    for (g, &t) in tail.iter().enumerate() {
        let mut stripes = [L::zero(); S];
        for (s, a) in stripes.iter_mut().zip(&acc) {
            *s = a[g];
        }
        combine(stripes, t, p.bias, p.logits.add(r + g * L::WIDTH));
    }
}

/// Hidden unit `j`, whose rows from the block's first start at `pz`,
/// over the block's `G` row vectors: the masked update (stored back)
/// and one fused accumulate into each of `acc`.
///
/// # Safety
/// As [`row_block`], with `j < h` and `pz` at `zt[j·b + r]`.
#[inline(always)]
unsafe fn unit<L: Lanes, const G: usize>(
    p: &Panel<L::Elem>,
    masks: &[L::Mask; G],
    pz: *mut L::Elem,
    j: usize,
    mut acc: [L; G],
) -> [L; G] {
    let wo = L::splat(*p.w_out.add(j));
    for (g, (a, &m)) in acc.iter_mut().zip(masks).enumerate() {
        let pz = pz.add(g * L::WIDTH);
        let mut z = L::load(pz);
        if let Some(w) = p.w_prev {
            z = z.masked_add(m, L::splat(*w.add(j)));
            z.store(pz);
        }
        *a = wo.mul_add(z.relu(), *a);
    }
    acc
}

/// `bias + (tree(stripes) + tail)` per row, in `f64`, stored to the
/// `WIDTH` logits at `out`.
///
/// # Safety
/// `out` must be valid for `WIDTH` writes.
#[inline(always)]
unsafe fn combine<L: Lanes, const S: usize>(stripes: [L; S], tail: L, bias: f64, out: *mut f64) {
    const { assert!(S.is_power_of_two()) };
    let wide = <L::Wide as Lanes>::WIDTH;
    for part in 0..L::WIDTH / wide {
        let mut v = [L::Wide::zero(); S];
        for (x, s) in v.iter_mut().zip(&stripes) {
            *x = s.widen(part);
        }
        let mut n = S;
        while n > 1 {
            n /= 2;
            for i in 0..n {
                v[i] = v[2 * i].add(v[2 * i + 1]);
            }
        }
        let sum = v[0].add(tail.widen(part));
        L::Wide::splat(bias).add(sum).store(out.add(part * wide));
    }
}

/// The hidden-major traversal: per block of units, the vector rows,
/// then the row tail at the one-lane type.
///
/// # Safety
/// As [`register`]; `acc` holds `S + 1` zeroed stripes of `b` elements
/// and `stash` one more stripe — the `scratch ≥ (S + 2)·b` of the
/// contract (`6·b` for `f64`, `10·b` for `f32`).
#[inline(always)]
unsafe fn hidden_major<L: Lanes, const S: usize>(
    p: &Panel<L::Elem>,
    acc: *mut L::Elem,
    stash: *mut L::Elem,
) {
    let (h, b) = (p.h, p.b);
    let bv = b - b % L::WIDTH;
    let n = h - h % S;
    match p.w_prev {
        Some(w) => {
            stash_masks::<L>(p, stash, 0..bv);
            stash_masks::<L::Elem>(p, stash, bv..b);
            for j in (0..n).step_by(PAIR) {
                update_units::<L, PAIR>(p, w, acc, stash, j, j % S, 0..bv);
                update_units::<L::Elem, PAIR>(p, w, acc, stash, j, j % S, bv..b);
            }
            for j in n..h {
                update_units::<L, 1>(p, w, acc, stash, j, S, 0..bv);
                update_units::<L::Elem, 1>(p, w, acc, stash, j, S, bv..b);
            }
        }
        None => {
            for j in 0..h {
                let stripe = if j < n { j % S } else { S };
                accumulate_unit::<L>(p, acc, j, stripe, 0..bv);
                accumulate_unit::<L::Elem>(p, acc, j, stripe, bv..b);
            }
        }
    }
    combine_rows::<L, S>(p, acc, 0..bv);
    combine_rows::<L::Elem, S>(p, acc, bv..b);
}

/// Stashes each row vector's `prev_mask > 0.5`, packed from the stripe
/// element `rows.start` of `stash` (the vector rows' masks fit before
/// the row tail's start).
///
/// # Safety
/// As [`hidden_major`]; `rows` is a multiple of `WIDTH` long, within `b`.
#[inline(always)]
unsafe fn stash_masks<M: Lanes>(p: &Panel<M::Elem>, stash: *mut M::Elem, rows: Range<usize>) {
    let masks = stash.add(rows.start);
    for (i, r) in rows.step_by(M::WIDTH).enumerate() {
        M::stash(M::load(p.prev_mask.add(r)).gt_half(), masks, i);
    }
}

/// Units `j .. j + K` over `rows`, feeding stripes `stripe ..
/// stripe + K`: the masked update (stored back) and the fused
/// accumulate, the `K` units sharing each mask load.
///
/// # Safety
/// As [`stash_masks`], with the masks of `rows` stashed there by `M`,
/// and `j + K ≤ h`, `stripe + K ≤ S + 1`.
#[inline(always)]
unsafe fn update_units<M: Lanes, const K: usize>(
    p: &Panel<M::Elem>,
    w: *const M::Elem,
    acc: *mut M::Elem,
    stash: *const M::Elem,
    j: usize,
    stripe: usize,
    rows: Range<usize>,
) {
    let b = p.b;
    let mut wv = [M::zero(); K];
    let mut ov = [M::zero(); K];
    for (t, (wt, ot)) in wv.iter_mut().zip(&mut ov).enumerate() {
        *wt = M::splat(*w.add(j + t));
        *ot = M::splat(*p.w_out.add(j + t));
    }
    let masks = stash.add(rows.start);
    for (i, r) in rows.step_by(M::WIDTH).enumerate() {
        let m = M::unstash(masks, i);
        for (t, (&wt, &ot)) in wv.iter().zip(&ov).enumerate() {
            let pz = p.zt.add((j + t) * b + r);
            let z = M::load(pz).masked_add(m, wt);
            z.store(pz);
            let pa = acc.add((stripe + t) * b + r);
            ot.mul_add(z.relu(), M::load(pa)).store(pa);
        }
    }
}

/// Unit `j` over `rows` without an update, feeding stripe `stripe`.
///
/// # Safety
/// As [`stash_masks`], with `j < h` and `stripe ≤ S`.
#[inline(always)]
unsafe fn accumulate_unit<M: Lanes>(
    p: &Panel<M::Elem>,
    acc: *mut M::Elem,
    j: usize,
    stripe: usize,
    rows: Range<usize>,
) {
    let ot = M::splat(*p.w_out.add(j));
    let (row, accs) = (p.zt.add(j * p.b), acc.add(stripe * p.b));
    for r in rows.step_by(M::WIDTH) {
        let pa = accs.add(r);
        ot.mul_add(M::load(row.add(r)).relu(), M::load(pa))
            .store(pa);
    }
}

/// The logits of `rows` from the `S + 1` stripes in `acc`.
///
/// # Safety
/// As [`stash_masks`].
#[inline(always)]
unsafe fn combine_rows<M: Lanes, const S: usize>(
    p: &Panel<M::Elem>,
    acc: *const M::Elem,
    rows: Range<usize>,
) {
    for r in rows.step_by(M::WIDTH) {
        let mut stripes = [M::zero(); S];
        for (t, s) in stripes.iter_mut().enumerate() {
            *s = M::load(acc.add(t * p.b + r));
        }
        combine(
            stripes,
            M::load(acc.add(S * p.b + r)),
            p.bias,
            p.logits.add(r),
        );
    }
}

/// Hints the line holding `p[i]` into L2; `i` may lie past the slice.
#[inline(always)]
fn prefetch<E>(p: *const E, i: usize) {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: a prefetch is a hint and never faults, whatever the address.
    unsafe {
        use core::arch::x86_64::{_mm_prefetch, _MM_HINT_T1};
        _mm_prefetch::<_MM_HINT_T1>(p.wrapping_add(i).cast::<i8>());
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = (p, i);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The traversal each benchmark workload's panel takes, so a change
    /// that moves one across the 64 KiB split fails here rather than in
    /// a benchmark.
    #[test]
    fn traversal_pins_benchmark_shapes() {
        use Traversal::{HiddenMajor, Register};
        // (what, rows b, hidden h, element bytes, traversal)
        let cases = [
            ("serve_sample_n1024 f64", 64, 64, 8, Register),
            ("serve_sample_n1024 f32", 64, 64, 4, Register),
            ("dist_dp_r2", 32, 195, 8, Register),
            ("train_tim_n64", 512, 86, 8, HiddenMajor),
            ("train_maxcut_deep2 layer 1", 256, 192, 8, HiddenMajor),
            ("train_maxcut_deep2 output", 256, 96, 8, HiddenMajor),
            ("bench-e2e sample_step_cols_gbs", 1024, 240, 8, HiddenMajor),
            ("f64 at 64 KiB", 64, 128, 8, Register),
            ("f64 past 64 KiB", 64, 129, 8, HiddenMajor),
            ("f32 at 64 KiB", 64, 256, 4, Register),
            ("f32 past 64 KiB", 64, 257, 4, HiddenMajor),
        ];
        for (what, b, h, bytes, want) in cases {
            assert_eq!(traversal(h, b, bytes), want, "{what}");
        }
    }
}
