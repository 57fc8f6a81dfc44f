//! The packed-GEMM microkernel, [`gemm_micro`], written once over
//! [`Lanes`] and a vectors-per-row count `V`, and stamped per arm:
//! `[f64; 4]` / `[f32; 8]` portable and `__m256d` / `__m256` AVX2 at
//! `V = 1` (8×4 f64, 8×8 f32 tiles); `__m512d` / `__m512` AVX-512 at
//! `V = 2` (8×16 f64, 8×32 f32 tiles).
//!
//! It multiplies a `kc × MR` packed A micro-panel by a `kc × NR` packed
//! B micro-panel and **overwrites** the row-major `MR × NR` `tile` with
//! the product, where `MR` is [`MR_SIMD`] and `NR = V·L::WIDTH` is the
//! width the table entry carries ([`GemmMicro::nr`]).  Per `k` step:
//! `V` loads of B, `MR` splats of A, `MR·V` fused multiply-adds into
//! `[[L; V]; MR]` accumulators.  Every `C[i][j]` is therefore its own
//! FMA chain over `k`, in panel order, starting from `+0` — the same
//! bits whatever the lane type or tile width.
//!
//! AVX2 stays at `V = 1` because of its register file: sixteen `ymm`
//! registers cannot hold the sixteen accumulators of an 8×8 f64 tile
//! plus the operands, and the spilling stamp ran slower than 8×4.

use super::lanes::Lanes;
use super::GemmMicro;
use crate::gemm::MR_SIMD as MR;

/// `tile ← A·B` over one `kc`-deep block of packed panels: `ap` holds
/// `kc` groups of `MR` A values, `bp` holds `kc` groups of
/// `V·L::WIDTH` B values.  Panics if a slice is shorter than that or
/// `tile` holds fewer than `MR·V·L::WIDTH` elements.
#[inline(always)]
pub(super) fn gemm_micro<L: Lanes, const V: usize>(
    kc: usize,
    ap: &[L::Elem],
    bp: &[L::Elem],
    tile: &mut [L::Elem],
) {
    let nr = V * L::WIDTH;
    assert!(
        ap.len() >= kc * MR && bp.len() >= kc * nr && tile.len() >= MR * nr,
        "gemm_micro: slice lengths break the kernel contract"
    );
    let (ap, bp) = (&ap[..kc * MR], &bp[..kc * nr]);
    let mut acc = [[L::zero(); V]; MR];
    for (a, b) in ap.chunks_exact(MR).zip(bp.chunks_exact(nr)) {
        let b: [L; V] = std::array::from_fn(|v| L::read(&b[v * L::WIDTH..]));
        for (row, &x) in acc.iter_mut().zip(a) {
            let x = L::splat(x);
            for (c, &b) in row.iter_mut().zip(&b) {
                *c = x.mul_add(b, *c);
            }
        }
    }
    for (row, t) in acc.iter().zip(tile.chunks_exact_mut(nr)) {
        for (c, t) in row.iter().zip(t.chunks_exact_mut(L::WIDTH)) {
            c.write(t);
        }
    }
}

/// The signature of [`GemmMicro::run`].
type Run<E> = fn(usize, &[E], &[E], &mut [E]);

/// The table entry for `run`, which is [`gemm_micro::<L, V>`] itself or
/// a `target_feature` shim over it: the width travels with the kernel.
pub(super) const fn entry<L: Lanes, const V: usize>(run: Run<L::Elem>) -> GemmMicro<L::Elem> {
    GemmMicro {
        run,
        nr: V * L::WIDTH,
    }
}
