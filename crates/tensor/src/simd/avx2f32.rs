//! AVX2+FMA arm of the **f32** dispatch table (x86_64 only, compiled
//! out under `--features force-scalar`).
//!
//! The one kernel that is not yet a generic body: the 8×4 packed-GEMM
//! microkernel, the vector twin of `simd::portable32::micro_8x4`
//! (identical fused steps, so the arms are bit-identical).  The f32
//! reductions and the batched sampling step are the generic bodies of
//! `simd::slices` and `simd::panel` at `__m256`; the transcendental
//! slices widen through this arm's f64 kernels.
//!
//! # Safety
//! Every `fn` here is `unsafe` with `#[target_feature(enable = "avx2",
//! enable = "fma")]`: callers must have verified
//! `is_x86_feature_detected!` for both features.  The dispatch table in
//! `simd` is the only production caller and installs these pointers
//! strictly after detection.

#![allow(clippy::missing_safety_doc)]

use core::arch::x86_64::*;

/// The 8×4 FMA **f32** GEMM microkernel over packed panels: per
/// `k`-step one 4-wide B load (`xmm`), eight A broadcasts, eight
/// `vfmaddps` into eight independent `xmm` accumulator chains.  Same
/// contract as `portable32::micro_8x4`, to which it is bit-identical.
#[target_feature(enable = "avx2", enable = "fma")]
pub unsafe fn micro_8x4(kc: usize, ap: *const f32, bp: *const f32, tile: *mut f32) {
    let mut c0 = _mm_setzero_ps();
    let mut c1 = _mm_setzero_ps();
    let mut c2 = _mm_setzero_ps();
    let mut c3 = _mm_setzero_ps();
    let mut c4 = _mm_setzero_ps();
    let mut c5 = _mm_setzero_ps();
    let mut c6 = _mm_setzero_ps();
    let mut c7 = _mm_setzero_ps();
    for p in 0..kc {
        let b = _mm_loadu_ps(bp.add(p * 4));
        let a = ap.add(p * 8);
        c0 = _mm_fmadd_ps(_mm_set1_ps(*a), b, c0);
        c1 = _mm_fmadd_ps(_mm_set1_ps(*a.add(1)), b, c1);
        c2 = _mm_fmadd_ps(_mm_set1_ps(*a.add(2)), b, c2);
        c3 = _mm_fmadd_ps(_mm_set1_ps(*a.add(3)), b, c3);
        c4 = _mm_fmadd_ps(_mm_set1_ps(*a.add(4)), b, c4);
        c5 = _mm_fmadd_ps(_mm_set1_ps(*a.add(5)), b, c5);
        c6 = _mm_fmadd_ps(_mm_set1_ps(*a.add(6)), b, c6);
        c7 = _mm_fmadd_ps(_mm_set1_ps(*a.add(7)), b, c7);
    }
    _mm_storeu_ps(tile, c0);
    _mm_storeu_ps(tile.add(4), c1);
    _mm_storeu_ps(tile.add(8), c2);
    _mm_storeu_ps(tile.add(12), c3);
    _mm_storeu_ps(tile.add(16), c4);
    _mm_storeu_ps(tile.add(20), c5);
    _mm_storeu_ps(tile.add(24), c6);
    _mm_storeu_ps(tile.add(28), c7);
}
