//! Portable scalar arm of the **f32** dispatch table.
//!
//! Mixed-precision discipline (see DESIGN.md "Precision"): weights and
//! activations are `f32` — half the bytes streamed, twice the SIMD
//! lanes — while every *reduction boundary* (a value that sums many
//! elements: logits, dots, row sums) is widened to `f64` before the
//! final combine.  Stripe accumulators stay `f32` (they are what the
//! vector arms hold in registers); only the cross-stripe combine runs
//! in `f64`.
//!
//! The f32 reductions are the generic bodies of `slices.rs` at
//! `[f32; 8]`, so the portable, AVX2 and AVX-512 f32 arms agree
//! bit-for-bit with *each other* (`tests/simd_f32_proptests.rs`);
//! agreement with the f64 arm is bound-based, never bit-based.  What
//! stays here is the transcendental route, the packed-GEMM microkernel
//! and the batched sampling step.
//!
//! The transcendental slice kernels are not native f32: each chunk is
//! widened into a stack buffer, run through the *same arm's* f64 slice
//! kernel, and narrowed back with one rounding per element.  That
//! inherits the f64 cross-arm bit-identity, halves the bytes streamed
//! through the caller's buffers, and is more accurate than a native f32
//! polynomial would be.

use super::lanes::Lanes;

/// Accumulator stripes of the f32 sampling step: the f32 reductions'
/// lane count.
pub(super) const LANES_F32: usize = <[f32; 8] as Lanes>::WIDTH;

/// Chunk size of the widen → f64 kernel → narrow transcendental route
/// (a 1 KiB stack buffer).
pub(super) const WIDEN_CHUNK: usize = 128;

/// Runs `kernel` (an f64 slice kernel) over `xs` chunk-wise through a
/// stack buffer: widen (exact), apply, narrow (one rounding).  Shared
/// by every arm's f32 transcendental entries; the arms differ only in
/// which f64 kernel they pass.
pub(super) fn map_via_f64(xs: &mut [f32], kernel: fn(&mut [f64])) {
    let mut buf = [0.0f64; WIDEN_CHUNK];
    for chunk in xs.chunks_mut(WIDEN_CHUNK) {
        let wide = &mut buf[..chunk.len()];
        for (d, &s) in wide.iter_mut().zip(chunk.iter()) {
            *d = s as f64;
        }
        kernel(wide);
        for (d, &w) in chunk.iter_mut().zip(wide.iter()) {
            *d = w as f32;
        }
    }
}

/// The scalar twin of the AVX2 8×4 **f32** GEMM microkernel: identical
/// per-element FMA chain over the packed panels (each `C[r,q]`
/// accumulates `a[p,r]·b[p,q]` in the same `p` order through fused
/// `f32` steps), so the arms are bit-identical.
///
/// Contract: `ap` holds `kc` groups of 8 A-values, `bp` holds `kc`
/// groups of 4 B-values, and the row-major 8×4 `tile` is overwritten.
///
/// # Safety
/// `ap`/`bp`/`tile` must be valid for `kc*8`, `kc*4` and 32 reads/
/// writes respectively.
pub unsafe fn micro_8x4(kc: usize, ap: *const f32, bp: *const f32, tile: *mut f32) {
    let mut acc = [0.0f32; 32];
    for p in 0..kc {
        for r in 0..8 {
            let a = *ap.add(p * 8 + r);
            for q in 0..4 {
                acc[r * 4 + q] = a.mul_add(*bp.add(p * 4 + q), acc[r * 4 + q]);
            }
        }
    }
    for (i, v) in acc.iter().enumerate() {
        *tile.add(i) = *v;
    }
}

/// Fused incremental-AUTO batched bit step over a **transposed** `h×b`
/// `f32` activation panel — the mixed-precision twin of the f64
/// `sample_step_cols`.
///
/// Like the f64 kernel, the vector arms may pick between a register
/// row-block traversal (small panels) and this hidden-major traversal
/// (`j` outermost, vectorised over batch rows); the portable arm has
/// only the hidden-major shape.  Cross-arm and cross-traversal
/// bit-identity is structural — every traversal produces the same nine
/// `f32` stripe partial sums and finishes through the same
/// `f64`-widened combine tree:
///
/// 1. masked update: rows whose previous bit was 1
///    (`prev_mask[r] > 0.5`) get `zt[j·b+r] += w_prev[j]` (`f32` add,
///    select semantics — masked-off rows keep their stored bits
///    exactly);
/// 2. logit accumulate: stripe `j % 8` (tail units → stripe 8) gets
///    `w_out[j].mul_add(max(z,0), acc)` per row, in `f32`;
/// 3. combine: per row, each of the 9 stripes widens to `f64` and
///    `logits[r] = bias + ((((s0+s1)+(s2+s3)) + ((s4+s5)+(s6+s7))) + s8)`.
///
/// `logits` is `f64` — the downstream Bernoulli draw, sigmoid and
/// `log σ` machinery is shared verbatim with the f64 sampling path, so
/// the f32 arm differs from f64 only in the panel arithmetic.
///
/// `scratch` must hold ≥ `10·b` `f32`: 9 accumulator stripes plus one
/// stripe the SIMD arms use to stash per-bit compare masks.
#[allow(clippy::too_many_arguments)]
pub fn sample_step_cols(
    zt: &mut [f32],
    b: usize,
    w_prev: Option<&[f32]>,
    prev_mask: &[f32],
    w_out: &[f32],
    bias: f64,
    scratch: &mut [f32],
    logits: &mut [f64],
) {
    let h = w_out.len();
    debug_assert_eq!(zt.len(), h * b);
    debug_assert_eq!(prev_mask.len(), b);
    debug_assert!(scratch.len() >= 10 * b);
    debug_assert_eq!(logits.len(), b);
    let acc = &mut scratch[..9 * b];
    acc.fill(0.0);
    let h8 = h - h % LANES_F32;
    for j in 0..h {
        let wo = w_out[j];
        let stripe = if j < h8 { j % LANES_F32 } else { LANES_F32 };
        let (_, rest) = acc.split_at_mut(stripe * b);
        let accs = &mut rest[..b];
        let row = &mut zt[j * b..(j + 1) * b];
        match w_prev {
            Some(w) => {
                let wj = w[j];
                for r in 0..b {
                    let mut z = row[r];
                    if prev_mask[r] > 0.5 {
                        z += wj;
                        row[r] = z;
                    }
                    let zp = if z > 0.0 { z } else { 0.0 };
                    accs[r] = wo.mul_add(zp, accs[r]);
                }
            }
            None => {
                for r in 0..b {
                    let z = row[r];
                    let zp = if z > 0.0 { z } else { 0.0 };
                    accs[r] = wo.mul_add(zp, accs[r]);
                }
            }
        }
    }
    combine_stripes(acc, b, bias, logits);
}

/// The shared 9-stripe → `f64` logit combine of [`sample_step_cols`];
/// scalar in every arm (it is `O(b)` next to the `O(h·b)` sweep).
pub(super) fn combine_stripes(acc: &[f32], b: usize, bias: f64, logits: &mut [f64]) {
    for r in 0..b {
        let s = |k: usize| acc[k * b + r] as f64;
        logits[r] =
            bias + ((((s(0) + s(1)) + (s(2) + s(3))) + ((s(4) + s(5)) + (s(6) + s(7)))) + s(8));
    }
}
