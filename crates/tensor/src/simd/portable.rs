//! Portable scalar arm of the kernels that are not yet one generic body:
//! the packed-GEMM microkernel and the batched sampling step.
//!
//! Each is the operation-for-operation twin of its AVX2 / AVX-512
//! counterpart (same fused steps — `f64::mul_add` where the vector code
//! issues `vfmadd` — and the same accumulator stripes), so the arms are
//! bit-identical.  The slice and reduction entries of the portable
//! table are the generic bodies of `slices.rs` at `[f64; 4]`.
//!
//! `f64::mul_add` without compile-time FMA lowers to libm's `fma()`,
//! which is correctly rounded (and uses the hardware instruction where
//! present), so the twin relationship holds on any IEEE-754 target.

use super::lanes::Lanes;

/// Accumulator stripes of [`sample_step_cols`]: `relu_dot`'s lane
/// count on this arm.
const LANES: usize = <[f64; 4] as Lanes>::WIDTH;

// ---------------------------------------------------------------------------
// Packed GEMM reference microkernel.
// ---------------------------------------------------------------------------

/// The scalar twin of the AVX2 8×4 GEMM microkernel: identical
/// per-element FMA chain over the packed panels, so the two are
/// bit-identical (each `C[r,q]` accumulates `a[p,r]·b[p,q]` in the
/// same `p` order through fused steps).
///
/// Contract (shared with the AVX2 kernel): `ap` holds `kc` groups of
/// `MR_SIMD` A-values, `bp` holds `kc` groups of `NR_SIMD` B-values,
/// and the `MR_SIMD×NR_SIMD` row-major `tile` is **overwritten** with
/// the product over this `kc` block.
///
/// # Safety
/// `ap`/`bp`/`tile` must be valid for `kc*8`, `kc*4` and 32 reads/
/// writes respectively.
pub unsafe fn micro_8x4(kc: usize, ap: *const f64, bp: *const f64, tile: *mut f64) {
    let mut acc = [0.0f64; 32];
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

/// Fused incremental-AUTO batched bit step over a **transposed**
/// `h × b` activation panel `zt` (hidden unit `j` occupies the
/// contiguous slice `zt[j·b .. (j+1)·b]`, one lane per batch row):
///
/// 1. apply the *previous* bit's `W₁` column — `zt[j·b + r] += w_prev[j]`
///    exactly for rows whose previous bit was drawn 1 (`prev_mask[r] > 0.5`);
/// 2. accumulate the current bit's logit — `Σⱼ w_out[j]·max(zt[j·b+r], 0)`
///    per row, written to `logits`.
///
/// Per row `r` the reduction reproduces `relu_dot`'s accumulation
/// order exactly (four lane accumulators over `j` in aligned blocks of
/// 4, a sequential tail, then `((a₀+a₁)+(a₂+a₃))+tail`), and
/// the update is applied with a select (not arithmetic masking), so a
/// row's logit is **bit-identical** to running the row-major
/// update-then-`relu_dot` path on that row alone.  That invariance is
/// what lets the serving engine batch K requests in one pass and still
/// return byte-identical replies to the single-request path.
///
/// `scratch` provides the 5 accumulator stripes (`≥ 5·b`); `logits`
/// (`b`) is overwritten with `bias + Σ` (the `b2[i] + relu_dot` shape
/// of the row path).  `w_prev = None` skips the update (first bit).
#[allow(clippy::too_many_arguments)]
pub fn sample_step_cols(
    zt: &mut [f64],
    b: usize,
    w_prev: Option<&[f64]>,
    prev_mask: &[f64],
    w_out: &[f64],
    bias: f64,
    scratch: &mut [f64],
    logits: &mut [f64],
) {
    let h = w_out.len();
    debug_assert_eq!(zt.len(), h * b);
    debug_assert_eq!(prev_mask.len(), b);
    debug_assert!(scratch.len() >= 5 * b);
    debug_assert_eq!(logits.len(), b);
    let acc = &mut scratch[..5 * b];
    acc.fill(0.0);
    let n4 = h - h % LANES;
    for j in 0..h {
        let wo = w_out[j];
        // Lane stripe j%4 inside aligned blocks, stripe 4 = sequential
        // tail — relu_dot's exact assignment.
        let stripe = if j < n4 { j % LANES } else { LANES };
        let (head, rest) = acc.split_at_mut(stripe * b);
        let _ = head;
        let accs = &mut rest[..b];
        let row = &mut zt[j * b..(j + 1) * b];
        match w_prev {
            Some(w) => {
                let wj = w[j];
                for r in 0..b {
                    let z = if prev_mask[r] > 0.5 { row[r] + wj } else { row[r] };
                    row[r] = z;
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
    let (a0, rest) = acc.split_at(b);
    let (a1, rest) = rest.split_at(b);
    let (a2, rest) = rest.split_at(b);
    let (a3, a4) = rest.split_at(b);
    for r in 0..b {
        logits[r] = bias + (((a0[r] + a1[r]) + (a2[r] + a3[r])) + a4[r]);
    }
}
