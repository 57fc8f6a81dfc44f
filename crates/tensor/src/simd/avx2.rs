//! AVX2+FMA arm of the dispatch table (x86_64 only, compiled out under
//! `--features force-scalar`).
//!
//! The one kernel that is not yet a generic body: the 8×4 packed-GEMM
//! microkernel, the vector twin of `simd::portable::micro_8x4`
//! (identical operation sequence, so the arms are bit-identical).  The
//! other AVX2 entries are the generic bodies of `simd::slices` and
//! `simd::panel` at `__m256d`, stamped under `#[target_feature]` in
//! `simd`.
//!
//! # Safety
//! Every `fn` here is `unsafe` with `#[target_feature(enable = "avx2",
//! enable = "fma")]`: callers must have verified
//! `is_x86_feature_detected!` for both features.  The dispatch table in
//! `simd` is the only production caller and installs these pointers
//! strictly after detection.

#![allow(clippy::missing_safety_doc)]

use core::arch::x86_64::*;

/// The 8×4 FMA GEMM microkernel over packed panels: per `k`-step one
/// 4-wide B load, eight A broadcasts, eight `vfmaddpd` into eight
/// independent `ymm` accumulator chains (enough ILP to saturate both
/// FMA ports at 4-cycle latency).  Same contract as
/// `portable::micro_8x4`, to which it is bit-identical.
#[target_feature(enable = "avx2", enable = "fma")]
pub unsafe fn micro_8x4(kc: usize, ap: *const f64, bp: *const f64, tile: *mut f64) {
    let mut c0 = _mm256_setzero_pd();
    let mut c1 = _mm256_setzero_pd();
    let mut c2 = _mm256_setzero_pd();
    let mut c3 = _mm256_setzero_pd();
    let mut c4 = _mm256_setzero_pd();
    let mut c5 = _mm256_setzero_pd();
    let mut c6 = _mm256_setzero_pd();
    let mut c7 = _mm256_setzero_pd();
    for p in 0..kc {
        let b = _mm256_loadu_pd(bp.add(p * 4));
        let a = ap.add(p * 8);
        c0 = _mm256_fmadd_pd(_mm256_broadcast_sd(&*a), b, c0);
        c1 = _mm256_fmadd_pd(_mm256_broadcast_sd(&*a.add(1)), b, c1);
        c2 = _mm256_fmadd_pd(_mm256_broadcast_sd(&*a.add(2)), b, c2);
        c3 = _mm256_fmadd_pd(_mm256_broadcast_sd(&*a.add(3)), b, c3);
        c4 = _mm256_fmadd_pd(_mm256_broadcast_sd(&*a.add(4)), b, c4);
        c5 = _mm256_fmadd_pd(_mm256_broadcast_sd(&*a.add(5)), b, c5);
        c6 = _mm256_fmadd_pd(_mm256_broadcast_sd(&*a.add(6)), b, c6);
        c7 = _mm256_fmadd_pd(_mm256_broadcast_sd(&*a.add(7)), b, c7);
    }
    _mm256_storeu_pd(tile, c0);
    _mm256_storeu_pd(tile.add(4), c1);
    _mm256_storeu_pd(tile.add(8), c2);
    _mm256_storeu_pd(tile.add(12), c3);
    _mm256_storeu_pd(tile.add(16), c4);
    _mm256_storeu_pd(tile.add(20), c5);
    _mm256_storeu_pd(tile.add(24), c6);
    _mm256_storeu_pd(tile.add(28), c7);
}
