//! Vendored `exp` and `log1p` cores of the transcendental slice kernels.
//!
//! They are *vendored* (written here, not pulled from a libm crate)
//! and written once, over the [`ExpLanes`] lane types, so every
//! dispatch arm runs the **identical operation sequence**: every fused
//! step is a lane `mul_add`, one correctly rounded FMA per lane on
//! every arm, and the arms agree bit-for-bit on every lane
//! (property-tested in `tests/simd_proptests.rs`, pinned across commits
//! by the root `tests/simd_digests.rs`).  Besides the constants, this
//! module holds the only copy of the reduction, the two polynomials and
//! the full-range scalar [`exp`] the kernels use for exceptional lanes.
//!
//! ## `exp` algorithm
//!
//! Standard argument reduction plus a Taylor polynomial:
//!
//! 1. `n = round(x · log2 e)` via the add/subtract-magic-constant
//!    trick (round-to-nearest, ties to even — the same rounding
//!    `vroundpd` performs).
//! 2. Cody–Waite reduction `r = x − n·ln2` with a two-part `ln2`
//!    (`LN2_HI` carries 33 mantissa bits, so `n·LN2_HI` is exact for
//!    `|n| ≤ 2^19`), leaving `|r| ≤ ln2/2 + ε ≈ 0.3466`.
//! 3. Degree-13 Taylor polynomial in Horner form (truncation error
//!    `r^14/14! < 2^-57`, below the rounding noise).
//! 4. Scale by `2^n` through exponent-bit construction — exact for
//!    normal results, two exact steps plus one final rounding for
//!    subnormal results.
//!
//! Measured accuracy versus `f64::exp` (see the full-range ULP sweep
//! in `tests/simd_proptests.rs`): ≤ 2 ULP over the normal range and
//! the overflow/underflow edges.

// The published fdlibm/musl coefficients carry guard digits past f64
// precision; keeping them verbatim documents their provenance.
#![allow(clippy::excessive_precision)]

use super::lanes::ExpLanes;

/// Inputs above this overflow `exp` to `+inf`.
pub const EXP_OVERFLOW: f64 = 709.782712893384;
/// Inputs below this underflow `exp` to `0.0`.
pub const EXP_UNDERFLOW: f64 = -745.1332191019412;
/// `|x|` below this bound keeps the scale factor `2^n` a *normal*
/// number, which is the precondition of the vector fast path; lanes
/// outside it fall back to the scalar [`exp`] (which handles the
/// subnormal/overflow edges).
pub const EXP_SAFE_BOUND: f64 = 708.0;

/// `log2(e)`.
pub const LOG2E: f64 = std::f64::consts::LOG2_E;
/// High part of `ln 2` (33 significant bits; `n·LN2_HI` is exact for
/// the `|n| ≤ 1075` this module produces).
pub const LN2_HI: f64 = 6.931_471_803_691_238_164_9e-1;
/// Low part of `ln 2` (`LN2_HI + LN2_LO` ≈ `ln 2` to ~107 bits).
pub const LN2_LO: f64 = 1.908_214_929_270_587_700_02e-10;
/// `1.5 · 2^52`: adding then subtracting rounds a `|t| < 2^51` double
/// to the nearest integer (ties to even), and the low bits of the
/// intermediate's bit pattern hold that integer — one constant serves
/// both the rounding and the float→int extraction in the vector code.
pub const ROUND_MAGIC: f64 = 6_755_399_441_055_744.0;

/// Taylor coefficients `1/k!` for `e^r`, `k = 0..=13`.
pub const EXP_POLY: [f64; 14] = [
    1.0,
    1.0,
    0.5,
    1.666_666_666_666_666_6e-1,
    4.166_666_666_666_666_4e-2,
    8.333_333_333_333_333e-3,
    1.388_888_888_888_889e-3,
    1.984_126_984_126_984e-4,
    2.480_158_730_158_73e-5,
    2.755_731_922_398_589_3e-6,
    2.755_731_922_398_589e-7,
    2.505_210_838_544_172e-8,
    2.087_675_698_786_81e-9,
    1.605_904_383_682_161_3e-10,
];

/// The Cody–Waite reduction and degree-13 Horner chain shared by every
/// `exp`: returns `(p, m)` with `e^x = p · 2ⁿ`, where the magic sum
/// `m = x·log2 e + ROUND_MAGIC` carries the rounded `n` in its low bits.
#[inline(always)]
fn reduce<L: ExpLanes>(x: L) -> (L, L) {
    let magic = L::splat(ROUND_MAGIC);
    let m = x.mul(L::splat(LOG2E)).add(magic);
    let nf = m.sub(magic);
    let r = nf.neg().mul_add(L::splat(LN2_HI), x);
    let r = nf.neg().mul_add(L::splat(LN2_LO), r);
    let mut p = L::splat(EXP_POLY[13]);
    for &c in EXP_POLY[..13].iter().rev() {
        p = p.mul_add(r, L::splat(c));
    }
    (p, m)
}

/// `e^x` restricted to `|x| ≤` [`EXP_SAFE_BOUND`] — the kernels' fast
/// path (one exact scaling by a normal `2ⁿ`, no edge branches).
/// Callers must guarantee the bound.
#[inline(always)]
pub(super) fn exp_fast<L: ExpLanes>(x: L) -> L {
    let (p, m) = reduce(x);
    p.mul(m.pow2n())
}

/// `p · 2^n` with `n ∈ [-1075, 1024]`, exact except for the single
/// final rounding into the subnormal range.
#[inline]
fn scale2(p: f64, n: i64) -> f64 {
    if n >= -1021 {
        if n <= 1023 {
            p * f64::from_bits(((n + 1023) as u64) << 52)
        } else {
            // 2^n = 2^1023 · 2^(n-1023); n ≤ 1024 here.
            p * f64::from_bits(2046u64 << 52) * f64::from_bits((n as u64) << 52)
        }
    } else {
        // Subnormal result: 2^n = 2^(n+537) · 2^-537, both factors
        // normal, so only the last multiply rounds (once).
        p * f64::from_bits(((n + 537 + 1023) as u64) << 52) * f64::from_bits((486u64) << 52)
    }
}

/// Vendored `e^x` for all finite and non-finite `f64` inputs.
///
/// The per-lane fallback of every arm's `exp` kernels outside
/// [`EXP_SAFE_BOUND`]; inside it, bit-identical to [`exp_fast`].
#[inline]
pub fn exp(x: f64) -> f64 {
    if x.is_nan() {
        return x;
    }
    if x > EXP_OVERFLOW {
        return f64::INFINITY;
    }
    if x < EXP_UNDERFLOW {
        return 0.0;
    }
    let (p, m) = reduce(x);
    scale2(p, (m - ROUND_MAGIC) as i64)
}

/// `√2 − 1`: above this `1+z` exceeds `√2` and the argument is halved
/// with a `k=1` exponent rescale.
pub const SQRT2M1: f64 = 0.414_213_562_373_095_03;

/// musl/fdlibm `log` series coefficients (`Lg1..Lg7`).
pub const LOG_POLY: [f64; 7] = [
    6.666_666_666_666_735_1e-1,
    3.999_999_999_940_941_9e-1,
    2.857_142_874_366_239_1e-1,
    2.222_219_843_214_978_4e-1,
    1.818_357_216_161_805e-1,
    1.531_383_769_920_937_3e-1,
    1.479_819_860_511_658_6e-1,
];

/// `ln 2` as a single double.
pub const LN2: f64 = std::f64::consts::LN_2;

/// `ln(1 + z)` for `z ∈ [0, 1]`, the `t = e^{-|·|}` the composite
/// kernels (`log_sigmoid`, `ln_cosh`) need: a restricted-domain port of
/// musl/fdlibm `log1p` (the `s = f/(2+f)` series with `Lg1..Lg7`),
/// evaluated on both sides of `√2−1` and selected per lane.
///
/// For `z ≤ √2−1` the reduced argument is `f = z` itself — `1+z` is
/// never formed, so no input bits are lost.  Above `√2−1` the argument
/// is halved (`m = (1+z)/2`, `k = 1`): `u−1` and `0.5·u−1` are exact
/// by Sterbenz, and the one rounding `u = 1+z` does make is recovered
/// exactly as `c = z − (u−1)` and added back as `c/u`.  The `k·ln 2`
/// rescale uses the hi/lo split so its error stays below the final
/// rounding.
#[inline(always)]
pub(super) fn log1p01<L: ExpLanes>(z: L) -> L {
    let one = L::splat(1.0);
    let big = L::splat(SQRT2M1).lt(z);
    let u = one.add(z);
    let c = L::select(big, z.sub(u.sub(one)).div(u), L::zero());
    let f = L::select(big, L::splat(0.5).mul(u).sub(one), z);
    let kf = L::select(big, one, L::zero());
    let s = f.div(L::splat(2.0).add(f));
    let s2 = s.mul(s);
    let mut rp = L::splat(LOG_POLY[6]);
    for &lg in LOG_POLY[..6].iter().rev() {
        rp = rp.mul_add(s2, L::splat(lg));
    }
    let r = s2.mul(rp);
    let hfsq = L::splat(0.5).mul(f).mul(f);
    let main = f.sub(hfsq.sub(s.mul(hfsq.add(r))));
    kf.mul_add(L::splat(LN2_HI), main.add(kf.mul_add(L::splat(LN2_LO), c)))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ulp_diff(a: f64, b: f64) -> u64 {
        if a == b {
            return 0;
        }
        if a.is_nan() || b.is_nan() {
            return if a.is_nan() && b.is_nan() { 0 } else { u64::MAX };
        }
        let to_ordered = |x: f64| {
            let bits = x.to_bits() as i64;
            if bits < 0 {
                i64::MIN.wrapping_sub(bits) as u64
            } else {
                (bits as u64).wrapping_add(1 << 63)
            }
        };
        to_ordered(a).abs_diff(to_ordered(b))
    }

    #[test]
    fn exp_edges() {
        assert_eq!(exp(f64::INFINITY), f64::INFINITY);
        assert_eq!(exp(f64::NEG_INFINITY), 0.0);
        assert!(exp(f64::NAN).is_nan());
        assert_eq!(exp(0.0), 1.0);
        assert_eq!(exp(-0.0), 1.0);
        assert_eq!(exp(710.0), f64::INFINITY);
        assert_eq!(exp(-746.0), 0.0);
        // Just inside the overflow edge: finite and close to MAX.
        assert!(exp(709.78).is_finite());
        // Subnormal regime.
        let sub = exp(-744.0);
        assert!(sub > 0.0 && !sub.is_normal());
    }

    #[test]
    fn exp_close_to_std_on_grid() {
        let mut max_ulp = 0;
        let mut x = -708.0;
        while x <= 708.0 {
            max_ulp = max_ulp.max(ulp_diff(exp(x), x.exp()));
            x += 0.37;
        }
        assert!(max_ulp <= 2, "max ulp {max_ulp}");
    }

    #[test]
    fn exp_fast_matches_exp() {
        let mut x = -708.0;
        while x <= 708.0 {
            assert_eq!(exp_fast(x), exp(x), "x={x}");
            x += 1.7;
        }
    }

    #[test]
    fn log1p_close_to_std() {
        let mut max_ulp = 0;
        let mut z = 0.0f64;
        while z <= 1.0 {
            max_ulp = max_ulp.max(ulp_diff(log1p01(z), z.ln_1p()));
            z += 1e-3;
        }
        for &z in &[0.0, 1e-18, 1e-9, 2e-5, SQRT2M1, 0.42, 0.5, 1.0] {
            max_ulp = max_ulp.max(ulp_diff(log1p01(z), z.ln_1p()));
        }
        assert!(max_ulp <= 2, "max ulp {max_ulp}");
        assert_eq!(log1p01(1.0), LN2);
    }
}
