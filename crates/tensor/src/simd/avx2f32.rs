//! AVX2+FMA arm of the **f32** dispatch table (x86_64 only, compiled
//! out under `--features force-scalar`).
//!
//! The kernels that are not yet one generic body: the 8×4 packed-GEMM
//! microkernel and the batched sampling step, each the vector twin of
//! its `simd::portable32` counterpart (identical stripe layout, fused
//! steps and `f64`-widened combine, so the arms are bit-identical).
//! The f32 reductions are the generic bodies of `simd::slices` at
//! `__m256`; the transcendental slices widen through this arm's f64
//! kernels.
//!
//! # Safety
//! Every `fn` here is `unsafe` with `#[target_feature(enable = "avx2",
//! enable = "fma")]`: callers must have verified
//! `is_x86_feature_detected!` for both features.  The dispatch table in
//! `simd` is the only production caller and installs these pointers
//! strictly after detection.

#![allow(clippy::missing_safety_doc)]

use core::arch::x86_64::*;

use super::portable32::{self, LANES_F32};

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

/// Fused batched AUTO bit step over a transposed `h×b` **f32** panel;
/// twin of `portable32::sample_step_cols`, vectorised eight rows wide.
///
/// Like the f64 AVX-512 kernel, panels that fit a 64 KiB window
/// (`h·b·4` bytes) run a register row-block traversal — eight rows per
/// `__m256`, the nine `j%8` stripe accumulators in registers across
/// the hidden loop, no accumulator memory traffic — and larger panels
/// fall back to the hidden-major traversal.  Both produce the same
/// nine `f32` stripe partial sums (same stripe assignment, same
/// per-stripe FMA order) and the same `f64`-widened combine tree, so
/// logits are bit-identical to the portable arm either way.
#[allow(clippy::too_many_arguments)]
#[target_feature(enable = "avx2", enable = "fma")]
pub unsafe fn sample_step_cols(
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
    if h * b * 4 > HIDDEN_MAJOR_BYTES_F32 {
        return sample_step_cols_hidden_major(
            zt, b, w_prev, prev_mask, w_out, bias, scratch, logits,
        );
    }
    let _ = scratch; // register accumulators; scratch is a hidden-major concern
    let h8 = h - h % LANES_F32;
    let pz = zt.as_mut_ptr();
    let pm = prev_mask.as_ptr();
    let po = w_out.as_ptr();
    let wp = w_prev.map(|w| w.as_ptr());
    let zero = _mm256_setzero_ps();
    let half = _mm256_set1_ps(0.5);
    let mut r = 0;
    while r + 8 <= b {
        let m = _mm256_cmp_ps::<_CMP_GT_OQ>(_mm256_loadu_ps(pm.add(r)), half);
        let (mut a0, mut a1, mut a2, mut a3) = (zero, zero, zero, zero);
        let (mut a4, mut a5, mut a6, mut a7, mut a8) = (zero, zero, zero, zero, zero);
        // One hidden unit: select-based masked update + striped fused
        // accumulate (blendv with the panel value as pass-through, so
        // masked-off rows keep their stored bits exactly).
        macro_rules! step {
            ($acc:ident, $j:expr) => {{
                let j = $j;
                let p = pz.add(j * b + r);
                let mut z = _mm256_loadu_ps(p);
                if let Some(w) = wp {
                    z = _mm256_blendv_ps(z, _mm256_add_ps(z, _mm256_set1_ps(*w.add(j))), m);
                    _mm256_storeu_ps(p, z);
                }
                let zp = _mm256_max_ps(z, zero);
                $acc = _mm256_fmadd_ps(_mm256_set1_ps(*po.add(j)), zp, $acc);
            }};
        }
        let mut j = 0;
        while j + 8 <= h8 {
            step!(a0, j);
            step!(a1, j + 1);
            step!(a2, j + 2);
            step!(a3, j + 3);
            step!(a4, j + 4);
            step!(a5, j + 5);
            step!(a6, j + 6);
            step!(a7, j + 7);
            j += 8;
        }
        while j < h {
            step!(a8, j);
            j += 1;
        }
        // In-register combine, `f64`-widened per 4-lane half: the same
        // tree as `portable32::combine_stripes`, per lane (`cvtps_pd`
        // is exact, f64 vector adds are lane-wise — bit-identical).
        let bv = _mm256_set1_pd(bias);
        macro_rules! half_combine {
            ($lane:expr, $off:expr) => {{
                let w = |a: __m256| -> __m256d {
                    if $lane == 0 {
                        _mm256_cvtps_pd(_mm256_castps256_ps128(a))
                    } else {
                        _mm256_cvtps_pd(_mm256_extractf128_ps::<1>(a))
                    }
                };
                let s01 = _mm256_add_pd(w(a0), w(a1));
                let s23 = _mm256_add_pd(w(a2), w(a3));
                let s45 = _mm256_add_pd(w(a4), w(a5));
                let s67 = _mm256_add_pd(w(a6), w(a7));
                let s = _mm256_add_pd(
                    _mm256_add_pd(_mm256_add_pd(s01, s23), _mm256_add_pd(s45, s67)),
                    w(a8),
                );
                _mm256_storeu_pd(logits.as_mut_ptr().add(r + $off), _mm256_add_pd(bv, s));
            }};
        }
        half_combine!(0, 0);
        half_combine!(1, 4);
        r += 8;
    }
    // Remaining rows (b % 8): scalar, same stripe assignment and
    // combine tree, with the nine stripes in a local array.
    while r < b {
        let take = wp.is_some() && *pm.add(r) > 0.5;
        let mut acc = [0.0f32; 9];
        for j in 0..h {
            let p = pz.add(j * b + r);
            let mut z = *p;
            if take {
                z += *wp.unwrap_unchecked().add(j);
                *p = z;
            }
            let zp = if z > 0.0 { z } else { 0.0 };
            let stripe = if j < h8 { j % LANES_F32 } else { LANES_F32 };
            acc[stripe] = (*po.add(j)).mul_add(zp, acc[stripe]);
        }
        let s = |k: usize| acc[k] as f64;
        logits[r] =
            bias + ((((s(0) + s(1)) + (s(2) + s(3))) + ((s(4) + s(5)) + (s(6) + s(7)))) + s(8));
        r += 1;
    }
}

/// Above this f32 panel size (`h·b·4` bytes) the register row-block
/// traversal's stride-`b` column loads outrun the dTLB and the stride
/// prefetcher; the hidden-major traversal below streams sequentially
/// instead.  Same 64 KiB window as the f64 kernel's split (f32 panels
/// hold twice the elements per byte).
const HIDDEN_MAJOR_BYTES_F32: usize = 64 * 1024;

/// Hidden-major twin of the register traversal in [`sample_step_cols`]
/// for panels too large for it: per hidden unit, 8-row vectors run the
/// select-based masked update, `max(z,0)` and the `j%8`-striped fused
/// accumulate with the nine stripes resident in `scratch`; the
/// `prev_mask > 0.5` compares are hoisted into a per-bit mask stash
/// (the 10th scratch stripe).  The final per-row combine is the shared
/// scalar `f64`-widened tree.
#[allow(clippy::too_many_arguments)]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn sample_step_cols_hidden_major(
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
    let h8 = h - h % LANES_F32;
    let (acc, mask_stash) = scratch.split_at_mut(9 * b);
    acc.fill(0.0);
    let pa = acc.as_mut_ptr();
    let pz = zt.as_mut_ptr();
    let pm = prev_mask.as_ptr();
    let pk = mask_stash.as_mut_ptr();
    let zero = _mm256_setzero_ps();
    let half = _mm256_set1_ps(0.5);
    let bv = b - b % 8;
    if w_prev.is_some() {
        let mut r = 0;
        while r < bv {
            let m = _mm256_cmp_ps::<_CMP_GT_OQ>(_mm256_loadu_ps(pm.add(r)), half);
            _mm256_storeu_ps(pk.add(r), m);
            r += 8;
        }
    }
    match w_prev {
        Some(w) => {
            for j in 0..h {
                let wj = *w.get_unchecked(j);
                let wv = _mm256_set1_ps(wj);
                let wo = *w_out.get_unchecked(j);
                let wov = _mm256_set1_ps(wo);
                let stripe = if j < h8 { j % LANES_F32 } else { LANES_F32 };
                let accs = pa.add(stripe * b);
                let row = pz.add(j * b);
                let mut r = 0;
                while r < bv {
                    let m = _mm256_loadu_ps(pk.add(r));
                    let p = row.add(r);
                    let z = _mm256_loadu_ps(p);
                    let z = _mm256_blendv_ps(z, _mm256_add_ps(z, wv), m);
                    _mm256_storeu_ps(p, z);
                    let a = accs.add(r);
                    _mm256_storeu_ps(
                        a,
                        _mm256_fmadd_ps(wov, _mm256_max_ps(z, zero), _mm256_loadu_ps(a)),
                    );
                    r += 8;
                }
                while r < b {
                    let p = row.add(r);
                    let mut z = *p;
                    if *pm.add(r) > 0.5 {
                        z += wj;
                        *p = z;
                    }
                    let zp = if z > 0.0 { z } else { 0.0 };
                    let a = accs.add(r);
                    *a = wo.mul_add(zp, *a);
                    r += 1;
                }
            }
        }
        None => {
            for j in 0..h {
                let wo = *w_out.get_unchecked(j);
                let wov = _mm256_set1_ps(wo);
                let stripe = if j < h8 { j % LANES_F32 } else { LANES_F32 };
                let accs = pa.add(stripe * b);
                let row = pz.add(j * b);
                let mut r = 0;
                while r < bv {
                    let z = _mm256_loadu_ps(row.add(r));
                    let a = accs.add(r);
                    _mm256_storeu_ps(
                        a,
                        _mm256_fmadd_ps(wov, _mm256_max_ps(z, zero), _mm256_loadu_ps(a)),
                    );
                    r += 8;
                }
                while r < b {
                    let z = *row.add(r);
                    let zp = if z > 0.0 { z } else { 0.0 };
                    let a = accs.add(r);
                    *a = wo.mul_add(zp, *a);
                    r += 1;
                }
            }
        }
    }
    portable32::combine_stripes(acc, b, bias, logits);
}
