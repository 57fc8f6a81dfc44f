//! Portable scalar arm of the one kernel that is not yet a generic
//! body: the packed-GEMM microkernel.
//!
//! It is the operation-for-operation twin of its AVX2 counterpart (the
//! same fused steps — `f64::mul_add` where the vector code issues
//! `vfmadd`), so the arms are bit-identical.  The other entries of the
//! portable table are the generic bodies of `slices.rs` and `panel.rs`
//! at `[f64; 4]`.
//!
//! `f64::mul_add` without compile-time FMA lowers to libm's `fma()`,
//! which is correctly rounded (and uses the hardware instruction where
//! present), so the twin relationship holds on any IEEE-754 target.

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
