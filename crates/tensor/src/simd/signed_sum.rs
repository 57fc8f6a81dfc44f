//! The sample-tiled signed pair sum: `Σ_{i<j} B_ij σ_i σ_j` for
//! [`PAIR_TILE`] samples at once over a strict-upper-triangle CSR.
//!
//! One body, three arms.  [`portable`] is a plain lane loop over
//! `[u64; PAIR_TILE]` / `[f64; PAIR_TILE]`; the AVX2 / AVX-512 arms are
//! the same body inlined under `#[target_feature]`, where the lane loop
//! vectorises to 4- / 8-wide XORs and adds.  It uses no FMA and
//! reassociates nothing — each lane is one serial add chain in CSR
//! order — so the arms agree bit for bit by construction.
//!
//! Spins enter as sign masks, `m_i[s] = (x_i as u64) << 63`: a ±1
//! product is an exact sign flip, so `v.to_bits() ^ m_i[s] ^ m_j[s]` is
//! bit-for-bit `v · σ_i · σ_j` for every non-NaN `v`.

/// Samples per tile of [`portable`] and its arms: 16 lanes are two
/// 512-bit or four 256-bit accumulators.
pub const PAIR_TILE: usize = 16;

/// One tile's signed pair sums over a strict-upper-triangle CSR — the
/// portable arm, and the body every other arm inlines.
///
/// Row `i`'s entries are `cols[offsets[i]..offsets[i + 1]]` (all `> i`)
/// with weights `vals[..]`; `masks[i]` holds vertex `i`'s sign mask per
/// lane.  For every lane `s`, adds `v ⊕ m_i[s] ⊕ m_j[s]` to `acc[s]`
/// over rows `i` ascending, then columns in stored order.
///
/// Panics if a column indexes past `masks` or the CSR arrays disagree.
#[inline(always)]
pub fn portable(
    offsets: &[usize],
    cols: &[u32],
    vals: &[f64],
    masks: &[[u64; PAIR_TILE]],
    acc: &mut [f64; PAIR_TILE],
) {
    let mut a = *acc;
    for (row, mi) in offsets.windows(2).zip(masks) {
        let (lo, hi) = (row[0], row[1]);
        for (&j, &v) in cols[lo..hi].iter().zip(&vals[lo..hi]) {
            let mj = &masks[j as usize];
            let v = v.to_bits();
            for s in 0..PAIR_TILE {
                a[s] += f64::from_bits(v ^ mi[s] ^ mj[s]);
            }
        }
    }
    *acc = a;
}

/// The AVX2 arm: the same body compiled for 256-bit vectors.
///
/// # Safety
/// The CPU must support AVX2.
#[cfg(all(target_arch = "x86_64", not(feature = "force-scalar")))]
#[target_feature(enable = "avx2")]
pub unsafe fn avx2(
    offsets: &[usize],
    cols: &[u32],
    vals: &[f64],
    masks: &[[u64; PAIR_TILE]],
    acc: &mut [f64; PAIR_TILE],
) {
    portable(offsets, cols, vals, masks, acc)
}

/// The AVX-512 arm: the same body compiled for 512-bit vectors.
///
/// # Safety
/// The CPU must support AVX-512F.
#[cfg(all(target_arch = "x86_64", not(feature = "force-scalar")))]
#[target_feature(enable = "avx512f")]
pub unsafe fn avx512(
    offsets: &[usize],
    cols: &[u32],
    vals: &[f64],
    masks: &[[u64; PAIR_TILE]],
    acc: &mut [f64; PAIR_TILE],
) {
    portable(offsets, cols, vals, masks, acc)
}
