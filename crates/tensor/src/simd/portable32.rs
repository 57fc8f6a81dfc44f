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
//! The f32 reductions and the batched sampling step are the generic
//! bodies of `slices.rs` and `panel.rs` at `[f32; 8]`, so the portable,
//! AVX2 and AVX-512 f32 arms agree bit-for-bit with *each other*
//! (`tests/simd_f32_proptests.rs`); agreement with the f64 arm is
//! bound-based, never bit-based.  What stays here is the transcendental
//! route and the packed-GEMM microkernel.
//!
//! The transcendental slice kernels are not native f32: each chunk is
//! widened into a stack buffer, run through the *same arm's* f64 slice
//! kernel, and narrowed back with one rounding per element.  That
//! inherits the f64 cross-arm bit-identity, halves the bytes streamed
//! through the caller's buffers, and is more accurate than a native f32
//! polynomial would be.

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
