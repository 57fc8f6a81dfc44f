//! The slice and reduction kernels, each written once over [`Lanes`].
//!
//! Every arm's table entry is one of these bodies at that arm's lane
//! type (`[f64; 4]` / `[f32; 8]` portable, `__m256d` / `__m256` under
//! `#[target_feature]` for AVX2, inherited by AVX-512).  Lane ops round
//! alike on every arm and the layout below depends only on the width,
//! so the arms return the same bits by construction:
//!
//! * **elementwise** ([`map`]): full `WIDTH` chunks take the vector fast
//!   path, unless a lane is outside [`Elementwise::BOUND`] (or NaN) —
//!   then the chunk, like the tail, goes lane by lane through the scalar
//!   form;
//! * **reductions**: one accumulator per lane (`dot`: four registers,
//!   combined `(y₀+y₁)+(y₂+y₃)` lane-wise first), a sequential scalar
//!   tail, then `hsum(acc) + tail` ([`Lanes::hsum`]'s pairwise tree).

use super::exp::{self, exp_fast, log1p01, EXP_SAFE_BOUND, LN2};
use super::lanes::{ExpLanes, Lanes};

/// An elementwise `f64` kernel: a lane fast path valid for
/// `|x| < BOUND`, and a scalar rule for the lanes outside it.
pub(super) trait Elementwise {
    /// Lanes with `|x| ≥ BOUND`, or NaN, take [`Self::special`].
    const BOUND: f64;
    /// The result outside the bound (saturation, NaN propagation).
    fn special(x: f64) -> f64;
    /// The result inside the bound, given `x` and `ax = |x|`.
    fn fast<L: ExpLanes>(x: L, ax: L) -> L;
}

/// `|x|` bound for the `t = e^{-2|x|}` kernels (`2·354 ≤ 708`).
const HALF_BOUND: f64 = 354.0;

/// One element through `K`: the fast path at one lane, or the special rule.
#[inline(always)]
fn scalar<K: Elementwise>(x: f64) -> f64 {
    let ax = x.abs();
    if ax.any_ge(K::BOUND) {
        K::special(x)
    } else {
        K::fast(x, ax)
    }
}

/// Applies `K` in place, `L::WIDTH` elements at a time.
#[inline(always)]
pub(super) fn map<K: Elementwise, L: ExpLanes>(xs: &mut [f64]) {
    let mut chunks = xs.chunks_exact_mut(L::WIDTH);
    for c in &mut chunks {
        let x = L::read(c);
        let ax = x.abs();
        let y = if ax.any_ge(K::BOUND) {
            // Keeps the fast path's constants in registers.
            std::hint::cold_path();
            x.per_lane(scalar::<K>)
        } else {
            K::fast(x, ax)
        };
        y.write(c);
    }
    for v in chunks.into_remainder() {
        *v = scalar::<K>(*v);
    }
}

/// Chunk size of the widen → f64 kernel → narrow route (a 1 KiB stack
/// buffer).
const WIDEN_CHUNK: usize = 128;

/// The f32 transcendental entries of every table: `kernel` (that arm's
/// f64 slice kernel) over `xs` chunk-wise through a stack buffer —
/// widen (exact), apply, narrow (one rounding).  That inherits the f64
/// cross-arm bit-identity and is more accurate than a native f32
/// polynomial would be.
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

/// `σ(x) = 1/(1+e^{-x})` via `t = e^{-|x|}`, which never overflows:
/// `x ≥ 0 → 1/(1+t)`, `x < 0 → t/(1+t)`.
pub(super) struct Sigmoid;

impl Elementwise for Sigmoid {
    const BOUND: f64 = EXP_SAFE_BOUND;
    #[inline(always)]
    fn special(x: f64) -> f64 {
        // e^{-708} ≈ 3e-308 is below one ULP of 1.
        match x {
            _ if x > 0.0 => 1.0,
            _ if x.is_nan() => x,
            _ => 0.0,
        }
    }
    #[inline(always)]
    fn fast<L: ExpLanes>(x: L, ax: L) -> L {
        let one = L::splat(1.0);
        let t = exp_fast(ax.neg());
        L::select(x.lt(L::zero()), t, one).div(one.add(t))
    }
}

/// `log σ(x) = min(x, 0) − log1p(e^{-|x|})`.
pub(super) struct LogSigmoid;

impl Elementwise for LogSigmoid {
    const BOUND: f64 = EXP_SAFE_BOUND;
    #[inline(always)]
    fn special(x: f64) -> f64 {
        // log1p(e^{-708}) < 1e-307: invisible next to 0 or x.
        if x > 0.0 {
            0.0
        } else {
            x
        }
    }
    #[inline(always)]
    fn fast<L: ExpLanes>(x: L, ax: L) -> L {
        let t = exp_fast(ax.neg());
        L::select(x.lt(L::zero()), x, L::zero()).sub(log1p01(t))
    }
}

/// `ln cosh x = (|x| − ln 2) + log1p(e^{-2|x|})`.
///
/// Absolute error ~1e-16 (the `|x| − ln 2` cancellation); relative
/// error degrades for `|x| → 0` where `ln cosh x → x²/2`.  All
/// consumers bound *absolute* error — see DESIGN.md's ULP contract.
pub(super) struct LnCosh;

impl Elementwise for LnCosh {
    const BOUND: f64 = HALF_BOUND;
    #[inline(always)]
    fn special(x: f64) -> f64 {
        if x.is_nan() {
            x
        } else {
            x.abs() - LN2
        }
    }
    #[inline(always)]
    fn fast<L: ExpLanes>(_x: L, ax: L) -> L {
        let t = exp_fast(L::splat(-2.0).mul(ax));
        ax.sub(L::splat(LN2)).add(log1p01(t))
    }
}

/// `tanh x = sign(x)·(1 − t)/(1 + t)`, `t = e^{-2|x|}`; same
/// absolute-error contract as [`LnCosh`] (the `1 − t` cancellation).
pub(super) struct Tanh;

impl Elementwise for Tanh {
    const BOUND: f64 = HALF_BOUND;
    #[inline(always)]
    fn special(x: f64) -> f64 {
        match x {
            _ if x > 0.0 => 1.0,
            _ if x.is_nan() => x,
            _ => -1.0,
        }
    }
    #[inline(always)]
    fn fast<L: ExpLanes>(x: L, ax: L) -> L {
        let one = L::splat(1.0);
        let t = exp_fast(L::splat(-2.0).mul(ax));
        let r = one.sub(t).div(one.add(t));
        L::select(x.lt(L::zero()), r.neg(), r)
    }
}

/// `e^x` over the full input range.
pub(super) struct Exp;

impl Elementwise for Exp {
    const BOUND: f64 = EXP_SAFE_BOUND;
    #[inline(always)]
    fn special(x: f64) -> f64 {
        exp::exp(x)
    }
    #[inline(always)]
    fn fast<L: ExpLanes>(x: L, _ax: L) -> L {
        exp_fast(x)
    }
}

/// Lane-striped sum.
#[inline(always)]
pub(super) fn sum<L: Lanes>(xs: &[L::Elem]) -> f64 {
    let mut acc = L::zero();
    let mut chunks = xs.chunks_exact(L::WIDTH);
    for c in &mut chunks {
        acc = acc.add(L::read(c));
    }
    let mut tail = L::Elem::zero();
    for &x in chunks.remainder() {
        tail = tail.add(x);
    }
    acc.hsum() + tail.hsum()
}

/// Lane-striped `Σ (x−m)²` (the variance base block), one FMA per step.
#[inline(always)]
pub(super) fn sq_dev_sum<L: Lanes>(xs: &[L::Elem], m: L::Elem) -> f64 {
    let mv = L::splat(m);
    let mut acc = L::zero();
    let mut chunks = xs.chunks_exact(L::WIDTH);
    for c in &mut chunks {
        let d = L::read(c).sub(mv);
        acc = d.mul_add(d, acc);
    }
    let mut tail = L::Elem::zero();
    for &x in chunks.remainder() {
        let d = x.sub(m);
        tail = d.mul_add(d, tail);
    }
    acc.hsum() + tail.hsum()
}

/// Lane-striped `Σ e^{x−m}` (the `log_sum_exp` base block).  A chunk
/// with a shifted lane outside the fast range takes the full-range
/// scalar `exp` per lane but keeps the lane-striped accumulation.
#[inline(always)]
pub(super) fn sum_exp_shifted<L: ExpLanes>(xs: &[f64], m: f64) -> f64 {
    let mv = L::splat(m);
    let mut acc = L::zero();
    let mut chunks = xs.chunks_exact(L::WIDTH);
    for c in &mut chunks {
        let d = L::read(c).sub(mv);
        let e = if d.abs().any_ge(EXP_SAFE_BOUND) {
            std::hint::cold_path();
            d.per_lane(exp::exp)
        } else {
            exp_fast(d)
        };
        acc = acc.add(e);
    }
    let mut tail = 0.0;
    for &x in chunks.remainder() {
        tail += exp::exp(x - m);
    }
    acc.hsum() + tail
}

/// Dot product over four lane registers (`4·WIDTH` stripes, FMA per
/// step): the registers combine lane-wise as `(y₀+y₁)+(y₂+y₃)`, then
/// `hsum`, then `+ tail`.
#[inline(always)]
pub(super) fn dot<L: Lanes>(a: &[L::Elem], b: &[L::Elem]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    let w = L::WIDTH;
    let b = &b[..a.len()];
    let mut y = [L::zero(); 4];
    for (pa, pb) in a.chunks_exact(4 * w).zip(b.chunks_exact(4 * w)) {
        for (k, yk) in y.iter_mut().enumerate() {
            *yk = L::read(&pa[k * w..]).mul_add(L::read(&pb[k * w..]), *yk);
        }
    }
    let mut tail = L::Elem::zero();
    let n = a.len() - a.len() % (4 * w);
    for (&x, &z) in a[n..].iter().zip(&b[n..]) {
        tail = x.mul_add(z, tail);
    }
    y[0].add(y[1]).add(y[2].add(y[3])).hsum() + tail.hsum()
}

/// Lane-striped `Σ w·max(z, 0)` — the incremental sampler's masked
/// logit dot product.
#[inline(always)]
pub(super) fn relu_dot<L: Lanes>(w: &[L::Elem], z: &[L::Elem]) -> f64 {
    debug_assert_eq!(w.len(), z.len());
    let z = &z[..w.len()];
    let mut acc = L::zero();
    for (pw, pz) in w.chunks_exact(L::WIDTH).zip(z.chunks_exact(L::WIDTH)) {
        acc = L::read(pw).mul_add(L::read(pz).relu(), acc);
    }
    let mut tail = L::Elem::zero();
    let n = w.len() - w.len() % L::WIDTH;
    for (&x, &v) in w[n..].iter().zip(&z[n..]) {
        tail = x.mul_add(v.relu(), tail);
    }
    acc.hsum() + tail.hsum()
}

/// `y ← y + α·x`, one FMA per element.
#[inline(always)]
pub(super) fn axpy<L: Lanes>(y: &mut [L::Elem], alpha: L::Elem, x: &[L::Elem]) {
    debug_assert_eq!(y.len(), x.len());
    let a = L::splat(alpha);
    let n = y.len() - y.len() % L::WIDTH;
    let (x, (yv, yt)) = (&x[..y.len()], y.split_at_mut(n));
    for (py, px) in yv.chunks_exact_mut(L::WIDTH).zip(x.chunks_exact(L::WIDTH)) {
        a.mul_add(L::read(px), L::read(py)).write(py);
    }
    for (vy, &vx) in yt.iter_mut().zip(&x[n..]) {
        *vy = alpha.mul_add(vx, *vy);
    }
}

/// `y ← x + β·y` (the CG direction update), one FMA per element.
#[inline(always)]
pub(super) fn xpby<L: Lanes>(y: &mut [L::Elem], beta: L::Elem, x: &[L::Elem]) {
    debug_assert_eq!(y.len(), x.len());
    let b = L::splat(beta);
    let n = y.len() - y.len() % L::WIDTH;
    let (x, (yv, yt)) = (&x[..y.len()], y.split_at_mut(n));
    for (py, px) in yv.chunks_exact_mut(L::WIDTH).zip(x.chunks_exact(L::WIDTH)) {
        b.mul_add(L::read(py), L::read(px)).write(py);
    }
    for (vy, &vx) in yt.iter_mut().zip(&x[n..]) {
        *vy = beta.mul_add(*vy, vx);
    }
}
