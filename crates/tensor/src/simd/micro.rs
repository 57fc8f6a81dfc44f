//! The packed-GEMM microkernel, [`gemm_micro`], written once over
//! [`Lanes`] and stamped per arm: `[f64; 4]` / `[f32; 8]` portable,
//! `__m256d` / `__m256` AVX2 (inherited by AVX-512).
//!
//! It multiplies a `kc × MR` packed A micro-panel by a `kc × NR` packed
//! B micro-panel and **overwrites** the row-major `MR × NR` `tile` with
//! the product, where `MR` is [`MR_SIMD`] and `NR = L::WIDTH` is the
//! element's [`PackedElem::NR`].  Per `k` step: one load of B, `MR`
//! splats of A, `MR` fused multiply-adds into `[L; MR]` accumulators.
//! Every `C[i][j]` is therefore its own FMA chain over `k`, in panel
//! order, starting from `+0` — the same bits whatever the lane type.

use super::lanes::Lanes;
use crate::gemm::{PackedElem, MR_SIMD as MR};

/// `tile ← A·B` over one `kc`-deep block of packed panels: `ap` holds
/// `kc` groups of `MR` A values, `bp` holds `kc` groups of `L::WIDTH`
/// B values.  Panics if a slice is shorter than that or `tile` holds
/// fewer than `MR·L::WIDTH` elements.
#[inline(always)]
pub(super) fn gemm_micro<L: Lanes>(kc: usize, ap: &[L::Elem], bp: &[L::Elem], tile: &mut [L::Elem])
where
    L::Elem: PackedElem,
{
    const { assert!(L::WIDTH == <L::Elem as PackedElem>::NR) };
    assert!(
        ap.len() >= kc * MR && bp.len() >= kc * L::WIDTH && tile.len() >= MR * L::WIDTH,
        "gemm_micro: slice lengths break the kernel contract"
    );
    let (ap, bp) = (&ap[..kc * MR], &bp[..kc * L::WIDTH]);
    let mut acc = [L::zero(); MR];
    for (a, b) in ap.chunks_exact(MR).zip(bp.chunks_exact(L::WIDTH)) {
        let b = L::read(b);
        for (c, &x) in acc.iter_mut().zip(a) {
            *c = L::splat(x).mul_add(b, *c);
        }
    }
    for (c, row) in acc.iter().zip(tile.chunks_exact_mut(L::WIDTH)) {
        c.write(row);
    }
}
