//! AVX2+FMA arm of the dispatch table (x86_64 only, compiled out under
//! `--features force-scalar`).
//!
//! The kernels that are not yet one generic body: the 8×4 packed-GEMM
//! microkernel and the batched sampling step, each the vector twin of
//! its `simd::portable` counterpart (identical operation sequence and
//! accumulator layout, so the arms are bit-identical).  The AVX2 slice
//! and reduction entries are the generic bodies of `simd::slices` at
//! `__m256d`, stamped under `#[target_feature]` in `simd`.
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

/// Fused batched AUTO bit step over a transposed `h × b` activation
/// panel; twin of `portable::sample_step_cols`. Vectorised across the
/// **batch** dimension (4 rows per register) with all five per-row
/// accumulator stripes held in registers, so the panel is streamed
/// exactly once per bit. Per row the operation sequence — select-based
/// `+w_prev[j]` update, `max(z,0)`, lane-striped fused
/// multiply-accumulate, `((a0+a1)+(a2+a3))+tail` combine — is the same
/// as the portable arm's, so results are bit-identical.
#[allow(clippy::too_many_arguments)]
#[target_feature(enable = "avx2", enable = "fma")]
pub unsafe fn sample_step_cols(
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
    debug_assert_eq!(logits.len(), b);
    if h * b * 8 > HIDDEN_MAJOR_BYTES {
        return sample_step_cols_hidden_major(
            zt, b, w_prev, prev_mask, w_out, bias, scratch, logits,
        );
    }
    let _ = scratch; // register accumulators; scratch is a portable-arm concern
    let n4 = h - h % 4;
    let pz = zt.as_mut_ptr();
    let pm = prev_mask.as_ptr();
    let po = w_out.as_ptr();
    let wp = w_prev.map(|w| w.as_ptr());
    let zero = _mm256_setzero_pd();
    let half = _mm256_set1_pd(0.5);
    let mut r = 0;
    // 8-row blocks: two 4-row register groups share each per-j weight
    // broadcast, cutting load-port pressure ~25% versus the 4-row loop.
    // Each row group keeps its own five accumulator stripes, so the
    // per-row operation order (and hence the result bits) is unchanged.
    // The masked update uses `z + (w AND mask)` rather than a blend:
    // masked-off lanes add `+0.0`, which at worst flips a stored `-0.0`
    // panel entry to `+0.0`.  That sign is unobservable downstream —
    // `max(±0.0, 0.0)` is `+0.0` either way and `±0.0 + w'` agree for
    // every `w'` — so logits, bits and `==`-comparisons are unchanged,
    // while the blend's extra µops disappear from the critical loop.
    while r + 8 <= b {
        let m0 = _mm256_cmp_pd(_mm256_loadu_pd(pm.add(r)), half, _CMP_GT_OQ);
        let m1 = _mm256_cmp_pd(_mm256_loadu_pd(pm.add(r + 4)), half, _CMP_GT_OQ);
        let (mut a00, mut a01, mut a02, mut a03, mut at0) = (zero, zero, zero, zero, zero);
        let (mut a10, mut a11, mut a12, mut a13, mut at1) = (zero, zero, zero, zero, zero);
        macro_rules! step2 {
            ($accA:ident, $accB:ident, $j:expr) => {{
                let j = $j;
                let p0 = pz.add(j * b + r);
                let p1 = pz.add(j * b + r + 4);
                let mut z0 = _mm256_loadu_pd(p0);
                let mut z1 = _mm256_loadu_pd(p1);
                if let Some(w) = wp {
                    let wv = _mm256_set1_pd(*w.add(j));
                    z0 = _mm256_add_pd(z0, _mm256_and_pd(wv, m0));
                    z1 = _mm256_add_pd(z1, _mm256_and_pd(wv, m1));
                    _mm256_storeu_pd(p0, z0);
                    _mm256_storeu_pd(p1, z1);
                }
                let wo = _mm256_set1_pd(*po.add(j));
                $accA = _mm256_fmadd_pd(wo, _mm256_max_pd(z0, zero), $accA);
                $accB = _mm256_fmadd_pd(wo, _mm256_max_pd(z1, zero), $accB);
            }};
        }
        // First row block only: stage the *next* bit's weight rows
        // (rows are contiguous in both matrices, so they live at
        // `base + h`) into L2 while this bit computes.  Prefetches past
        // the final row are harmless hints to out-of-bounds addresses,
        // reached via wrapping pointer arithmetic only.
        let mut j = 0;
        if r == 0 {
            while j + 4 <= n4 {
                if j % 8 == 0 {
                    let line = (h + j) as isize * 8;
                    _mm_prefetch(po.cast::<i8>().wrapping_offset(line), _MM_HINT_T1);
                    if let Some(w) = wp {
                        _mm_prefetch(w.cast::<i8>().wrapping_offset(line), _MM_HINT_T1);
                    }
                }
                step2!(a00, a10, j);
                step2!(a01, a11, j + 1);
                step2!(a02, a12, j + 2);
                step2!(a03, a13, j + 3);
                j += 4;
            }
        }
        while j + 4 <= n4 {
            step2!(a00, a10, j);
            step2!(a01, a11, j + 1);
            step2!(a02, a12, j + 2);
            step2!(a03, a13, j + 3);
            j += 4;
        }
        while j < h {
            step2!(at0, at1, j);
            j += 1;
        }
        let s0 = _mm256_add_pd(_mm256_add_pd(a00, a01), _mm256_add_pd(a02, a03));
        let s1 = _mm256_add_pd(_mm256_add_pd(a10, a11), _mm256_add_pd(a12, a13));
        let bias_v = _mm256_set1_pd(bias);
        _mm256_storeu_pd(
            logits.as_mut_ptr().add(r),
            _mm256_add_pd(bias_v, _mm256_add_pd(s0, at0)),
        );
        _mm256_storeu_pd(
            logits.as_mut_ptr().add(r + 4),
            _mm256_add_pd(bias_v, _mm256_add_pd(s1, at1)),
        );
        r += 8;
    }
    while r + 4 <= b {
        let mask = _mm256_cmp_pd(_mm256_loadu_pd(pm.add(r)), half, _CMP_GT_OQ);
        let (mut a0, mut a1, mut a2, mut a3, mut at) = (zero, zero, zero, zero, zero);
        // One hidden unit: masked update + striped fused accumulate.
        macro_rules! step {
            ($acc:ident, $j:expr) => {{
                let j = $j;
                let p = pz.add(j * b + r);
                let mut z = _mm256_loadu_pd(p);
                if let Some(w) = wp {
                    z = _mm256_add_pd(z, _mm256_and_pd(_mm256_set1_pd(*w.add(j)), mask));
                    _mm256_storeu_pd(p, z);
                }
                let zp = _mm256_max_pd(z, zero);
                $acc = _mm256_fmadd_pd(_mm256_set1_pd(*po.add(j)), zp, $acc);
            }};
        }
        // Aligned blocks of 4: the stripe assignment is static, so the
        // four accumulator chains interleave without per-j dispatch.
        let mut j = 0;
        while j + 4 <= n4 {
            step!(a0, j);
            step!(a1, j + 1);
            step!(a2, j + 2);
            step!(a3, j + 3);
            j += 4;
        }
        while j < h {
            step!(at, j);
            j += 1;
        }
        let s = _mm256_add_pd(_mm256_add_pd(a0, a1), _mm256_add_pd(a2, a3));
        let sum = _mm256_add_pd(s, at);
        _mm256_storeu_pd(
            logits.as_mut_ptr().add(r),
            _mm256_add_pd(_mm256_set1_pd(bias), sum),
        );
        r += 4;
    }
    // Remaining rows (b % 4): scalar, same per-row order.
    while r < b {
        let take = wp.is_some() && prev_mask[r] > 0.5;
        let mut acc = [0.0f64; 4];
        let mut tail = 0.0;
        for j in 0..h {
            let p = pz.add(j * b + r);
            let mut z = *p;
            if take {
                z += *wp.unwrap_unchecked().add(j);
                *p = z;
            }
            let zp = if z > 0.0 { z } else { 0.0 };
            let wo = *po.add(j);
            if j < n4 {
                acc[j % 4] = wo.mul_add(zp, acc[j % 4]);
            } else {
                tail = wo.mul_add(zp, tail);
            }
        }
        logits[r] = bias + (((acc[0] + acc[1]) + (acc[2] + acc[3])) + tail);
        r += 1;
    }
}

/// Above this panel size the row-block traversal's stride-`b` loads
/// outrun the dTLB and the stride prefetcher; see the AVX-512 arm for
/// the full analysis.  Both SIMD arms use the same constant so the
/// traversal switch happens at the same shape.
const HIDDEN_MAJOR_BYTES: usize = 64 * 1024;

/// Hidden-major twin of the row-block traversal in
/// [`sample_step_cols`], used for panels too large for it: the hidden
/// loop is outermost, so the panel row, the mask stash and the stripe
/// accumulators are all walked contiguously.  Per row the operation
/// sequence — `z + (w AND mask)` select-free update, `max(z,0)`,
/// lane-striped fused multiply-accumulate, `((a0+a1)+(a2+a3))+tail`
/// combine — matches the row-block traversal exactly, so results are
/// bit-identical; partial sums round-tripping through the `f64`
/// scratch stripes is exact.
///
/// The `prev_mask > 0.5` compares are hoisted into a per-bit mask
/// stash (the sixth scratch stripe), and aligned blocks of 4 hidden
/// units — one per accumulator stripe — share each mask load.
#[allow(clippy::too_many_arguments)]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn sample_step_cols_hidden_major(
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
    debug_assert!(scratch.len() >= 6 * b);
    let n4 = h - h % 4;
    let (acc, mask_stash) = scratch.split_at_mut(5 * b);
    acc.fill(0.0);
    let pa = acc.as_mut_ptr();
    let pz = zt.as_mut_ptr();
    let pm = prev_mask.as_ptr();
    let pk = mask_stash.as_mut_ptr();
    let zero = _mm256_setzero_pd();
    let half = _mm256_set1_pd(0.5);
    let bv = b - b % 4;
    if w_prev.is_some() {
        let mut r = 0;
        while r < bv {
            let m = _mm256_cmp_pd(_mm256_loadu_pd(pm.add(r)), half, _CMP_GT_OQ);
            _mm256_storeu_pd(pk.add(r), m);
            r += 4;
        }
    }
    match w_prev {
        Some(w) => {
            let mut j = 0;
            // Aligned blocks of 4 hidden units: unit `j+t` feeds stripe
            // `t`, so the four FMA chains are independent and the mask
            // load is shared.
            while j + 4 <= n4 {
                let w0 = _mm256_set1_pd(*w.get_unchecked(j));
                let w1 = _mm256_set1_pd(*w.get_unchecked(j + 1));
                let w2 = _mm256_set1_pd(*w.get_unchecked(j + 2));
                let w3 = _mm256_set1_pd(*w.get_unchecked(j + 3));
                let o0 = _mm256_set1_pd(*w_out.get_unchecked(j));
                let o1 = _mm256_set1_pd(*w_out.get_unchecked(j + 1));
                let o2 = _mm256_set1_pd(*w_out.get_unchecked(j + 2));
                let o3 = _mm256_set1_pd(*w_out.get_unchecked(j + 3));
                let row0 = pz.add(j * b);
                let row1 = pz.add((j + 1) * b);
                let row2 = pz.add((j + 2) * b);
                let row3 = pz.add((j + 3) * b);
                let mut r = 0;
                while r < bv {
                    let m = _mm256_loadu_pd(pk.add(r));
                    macro_rules! unit {
                        ($row:ident, $wv:ident, $ov:ident, $stripe:expr) => {{
                            let p = $row.add(r);
                            let z = _mm256_loadu_pd(p);
                            let z = _mm256_add_pd(z, _mm256_and_pd($wv, m));
                            _mm256_storeu_pd(p, z);
                            let a = pa.add($stripe * b + r);
                            _mm256_storeu_pd(
                                a,
                                _mm256_fmadd_pd($ov, _mm256_max_pd(z, zero), _mm256_loadu_pd(a)),
                            );
                        }};
                    }
                    unit!(row0, w0, o0, 0);
                    unit!(row1, w1, o1, 1);
                    unit!(row2, w2, o2, 2);
                    unit!(row3, w3, o3, 3);
                    r += 4;
                }
                while r < b {
                    let take = *pm.add(r) > 0.5;
                    macro_rules! unit {
                        ($row:ident, $jt:expr, $stripe:expr) => {{
                            let p = $row.add(r);
                            let mut z = *p;
                            if take {
                                z += *w.get_unchecked($jt);
                                *p = z;
                            }
                            let zp = if z > 0.0 { z } else { 0.0 };
                            let a = pa.add($stripe * b + r);
                            *a = (*w_out.get_unchecked($jt)).mul_add(zp, *a);
                        }};
                    }
                    unit!(row0, j, 0);
                    unit!(row1, j + 1, 1);
                    unit!(row2, j + 2, 2);
                    unit!(row3, j + 3, 3);
                    r += 1;
                }
                j += 4;
            }
            // Sequential tail units feed stripe 4.
            while j < h {
                let wj = *w.get_unchecked(j);
                let wv = _mm256_set1_pd(wj);
                let wo = *w_out.get_unchecked(j);
                let wov = _mm256_set1_pd(wo);
                let row = pz.add(j * b);
                let accs = pa.add(4 * b);
                let mut r = 0;
                while r < bv {
                    let m = _mm256_loadu_pd(pk.add(r));
                    let p = row.add(r);
                    let z = _mm256_loadu_pd(p);
                    let z = _mm256_add_pd(z, _mm256_and_pd(wv, m));
                    _mm256_storeu_pd(p, z);
                    let a = accs.add(r);
                    _mm256_storeu_pd(
                        a,
                        _mm256_fmadd_pd(wov, _mm256_max_pd(z, zero), _mm256_loadu_pd(a)),
                    );
                    r += 4;
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
                j += 1;
            }
        }
        None => {
            for j in 0..h {
                let stripe = if j < n4 { j % 4 } else { 4 };
                let accs = pa.add(stripe * b);
                let row = pz.add(j * b);
                let wo = *w_out.get_unchecked(j);
                let wov = _mm256_set1_pd(wo);
                let mut r = 0;
                while r < bv {
                    let z = _mm256_loadu_pd(row.add(r));
                    let a = accs.add(r);
                    _mm256_storeu_pd(
                        a,
                        _mm256_fmadd_pd(wov, _mm256_max_pd(z, zero), _mm256_loadu_pd(a)),
                    );
                    r += 4;
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
    let (a0, rest) = acc.split_at(b);
    let (a1, rest) = rest.split_at(b);
    let (a2, rest) = rest.split_at(b);
    let (a3, a4) = rest.split_at(b);
    let bias_v = _mm256_set1_pd(bias);
    let mut r = 0;
    while r < bv {
        let s = _mm256_add_pd(
            _mm256_add_pd(
                _mm256_loadu_pd(a0.as_ptr().add(r)),
                _mm256_loadu_pd(a1.as_ptr().add(r)),
            ),
            _mm256_add_pd(
                _mm256_loadu_pd(a2.as_ptr().add(r)),
                _mm256_loadu_pd(a3.as_ptr().add(r)),
            ),
        );
        let sum = _mm256_add_pd(s, _mm256_loadu_pd(a4.as_ptr().add(r)));
        _mm256_storeu_pd(logits.as_mut_ptr().add(r), _mm256_add_pd(bias_v, sum));
        r += 4;
    }
    while r < b {
        logits[r] = bias + (((a0[r] + a1[r]) + (a2[r] + a3[r])) + a4[r]);
        r += 1;
    }
}
