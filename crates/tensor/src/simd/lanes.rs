//! The lane types every slice, reduction and panel kernel is written over.
//!
//! A [`Lanes`] value is `WIDTH` elements operated on together, one
//! IEEE-754 operation per lane with a single rounding (`mul_add` is
//! fused on every impl).  A kernel body instantiated at two lane types
//! of one width therefore returns the same bits; only the body's
//! striping and combine tree (written once, in `slices.rs` and
//! `panel.rs`) decide them.  [`ExpLanes`] adds the ops of the `f64`
//! transcendentals.
//!
//! Impls: `f64` / `f32` (one lane: scalar tails and exceptional-lane
//! fallbacks); `[f64; 4]` / `[f32; 8]` (the portable arm, one generic
//! array impl over the one-lane ops); `__m256d` / `__m256` (AVX2);
//! `__m512d` / `__m512` (AVX-512F).
//!
//! The x86 impls call vector intrinsics from safe methods.  That is
//! sound only because the traits are private to `simd` and those impls
//! are instantiated solely inside functions compiled with the matching
//! `#[target_feature]` — `enable = "avx2", enable = "fma"` for the
//! 256-bit types, `enable = "avx512f"` for the 512-bit ones — which the
//! dispatch tables install after runtime detection of those features.

// `!(x < bound)` routes NaN into the exceptional branch with one
// comparison; the `>=` clippy suggests would send NaN down the fast path.
#![allow(clippy::neg_cmp_op_on_partial_ord)]

use super::exp::ROUND_MAGIC;

/// `WIDTH` elements of type `Elem`, operated on lane by lane.
pub(super) trait Lanes: Copy {
    /// The element type — itself a one-lane `Lanes`, for scalar tails.
    type Elem: Lanes<Elem = Self::Elem>;
    /// Number of lanes.
    const WIDTH: usize;
    /// Per-lane comparison result.
    type Mask: Copy;
    /// The same lanes as `f64`: `Self` for `f64` lanes, half the lanes
    /// of an `f32` register, all lanes of an `f32` array.
    type Wide: Lanes<Elem = f64>;

    /// Reads `WIDTH` elements from `p`.
    ///
    /// # Safety
    /// `p` must be valid for `WIDTH` consecutive reads of `Elem`; no
    /// alignment beyond `Elem`'s is required.
    unsafe fn load(p: *const Self::Elem) -> Self;
    /// Writes the lanes to `p`.
    ///
    /// # Safety
    /// `p` must be valid for `WIDTH` consecutive writes of `Elem`; no
    /// alignment beyond `Elem`'s is required.
    unsafe fn store(self, p: *mut Self::Elem);
    /// The first `WIDTH` elements of `s`; panics if `s` is shorter (a
    /// check that folds away on `chunks_exact` chunks).
    #[inline(always)]
    fn read(s: &[Self::Elem]) -> Self {
        assert!(s.len() >= Self::WIDTH);
        // SAFETY: `s` holds at least `WIDTH` elements.
        unsafe { Self::load(s.as_ptr()) }
    }
    /// Writes the lanes to the first `WIDTH` elements of `s`; panics if
    /// `s` is shorter.
    #[inline(always)]
    fn write(self, s: &mut [Self::Elem]) {
        assert!(s.len() >= Self::WIDTH);
        // SAFETY: `s` holds at least `WIDTH` elements.
        unsafe { self.store(s.as_mut_ptr()) }
    }
    /// Every lane `x`.
    fn splat(x: Self::Elem) -> Self;
    /// Every lane `+0.0`.
    fn zero() -> Self;
    fn add(self, o: Self) -> Self;
    fn sub(self, o: Self) -> Self;
    fn mul(self, o: Self) -> Self;
    /// `self·b + c` with one rounding.
    fn mul_add(self, b: Self, c: Self) -> Self;
    /// `max(self, 0)`: positive lanes kept, everything else (`−0`, NaN)
    /// becomes `+0`.
    fn relu(self) -> Self;
    /// The lanes widened to `f64` and summed as the pairwise tree
    /// `((l₀+l₁)+(l₂+l₃)) + ((l₄+l₅)+(l₆+l₇))`.
    fn hsum(self) -> f64;
    /// `f` applied to each lane.
    fn per_lane(self, f: impl Fn(Self::Elem) -> Self::Elem) -> Self;
    /// `self > 0.5` (false on NaN).
    fn gt_half(self) -> Self::Mask;
    /// `self + w` in the lanes `m` sets; the other lanes keep `self`,
    /// bit for bit — except on `__m256d`, which adds `w AND m` and so
    /// may turn a kept `−0` into `+0`.
    fn masked_add(self, m: Self::Mask, w: Self) -> Self;
    /// Lanes `part·Wide::WIDTH ..` widened exactly to `f64`
    /// (`part < WIDTH / Wide::WIDTH`).
    fn widen(self, part: usize) -> Self::Wide;
    /// Stores `m` as entry `i` of a packed mask array at `p` (each entry
    /// `size_of::<Mask>()` bytes, no more than `WIDTH` elements).
    ///
    /// # Safety
    /// `p` must be valid for writes of masks `0..=i`.
    #[inline(always)]
    unsafe fn stash(m: Self::Mask, p: *mut Self::Elem, i: usize) {
        const { assert!(size_of::<Self::Mask>() <= Self::WIDTH * size_of::<Self::Elem>()) };
        p.cast::<Self::Mask>().add(i).write_unaligned(m)
    }
    /// Mask `i` of the array [`Lanes::stash`] filled at `p`.
    ///
    /// # Safety
    /// Mask `i` at `p` must have been stashed by this type.
    #[inline(always)]
    unsafe fn unstash(p: *const Self::Elem, i: usize) -> Self::Mask {
        p.cast::<Self::Mask>().add(i).read_unaligned()
    }
}

/// The extra `f64` ops of the transcendental kernels.
pub(super) trait ExpLanes: Lanes<Elem = f64> {
    fn div(self, o: Self) -> Self;
    fn abs(self) -> Self;
    fn neg(self) -> Self;
    /// `self < o` (false on NaN).
    fn lt(self, o: Self) -> Self::Mask;
    /// `a` where `m` is set, `b` elsewhere.
    fn select(m: Self::Mask, a: Self, b: Self) -> Self;
    /// True if any lane is `≥ bound` or NaN.
    fn any_ge(self, bound: f64) -> bool;
    /// `2ⁿ` from the magic sum `self = t + ROUND_MAGIC`, whose bit
    /// pattern exceeds `ROUND_MAGIC`'s by the rounded integer `n`
    /// (requires `|n| ≤ 1022`, so `2ⁿ` is normal).
    fn pow2n(self) -> Self;
}

/// `#[inline(always)] fn name(self, args: Self) -> Self`, one per
/// `name(x, args…) => body;` with `x` bound to `self`.
macro_rules! lane_ops {
    ($($name:ident($x:ident $(, $arg:ident)*) => $body:expr;)*) => {$(
        #[inline(always)]
        fn $name(self $(, $arg: Self)*) -> Self {
            let $x = self;
            $body
        }
    )*};
}

macro_rules! one_lane {
    ($t:ty) => {
        impl Lanes for $t {
            type Elem = $t;
            const WIDTH: usize = 1;
            type Mask = bool;
            type Wide = f64;

            #[inline(always)]
            unsafe fn load(p: *const $t) -> $t {
                *p
            }
            #[inline(always)]
            unsafe fn store(self, p: *mut $t) {
                *p = self;
            }
            #[inline(always)]
            fn splat(x: $t) -> $t {
                x
            }
            #[inline(always)]
            fn zero() -> $t {
                0.0
            }
            lane_ops! {
                add(x, o) => x + o;
                sub(x, o) => x - o;
                mul(x, o) => x * o;
                mul_add(x, b, c) => <$t>::mul_add(x, b, c);
                relu(x) => if x > 0.0 { x } else { 0.0 };
            }
            #[inline(always)]
            fn hsum(self) -> f64 {
                f64::from(self)
            }
            #[inline(always)]
            fn per_lane(self, f: impl Fn($t) -> $t) -> $t {
                f(self)
            }
            #[inline(always)]
            fn gt_half(self) -> bool {
                self > 0.5
            }
            #[inline(always)]
            fn masked_add(self, m: bool, w: $t) -> $t {
                if m {
                    self + w
                } else {
                    self
                }
            }
            #[inline(always)]
            fn widen(self, _part: usize) -> f64 {
                f64::from(self)
            }
        }
    };
}

one_lane!(f64);
one_lane!(f32);

impl ExpLanes for f64 {
    lane_ops! {
        div(x, o) => x / o;
        abs(x) => f64::abs(x);
        neg(x) => -x;
        pow2n(x) => {
            let n = x.to_bits().wrapping_sub(ROUND_MAGIC.to_bits());
            f64::from_bits(n.wrapping_add(1023) << 52)
        };
    }
    #[inline(always)]
    fn lt(self, o: f64) -> bool {
        self < o
    }
    #[inline(always)]
    fn select(m: bool, a: f64, b: f64) -> f64 {
        if m {
            a
        } else {
            b
        }
    }
    #[inline(always)]
    fn any_ge(self, bound: f64) -> bool {
        !(self < bound)
    }
}

impl<S: Lanes<Elem = S, Wide = f64>, const N: usize> Lanes for [S; N] {
    type Elem = S;
    const WIDTH: usize = N;
    type Mask = [S::Mask; N];
    type Wide = [f64; N];

    #[inline(always)]
    unsafe fn load(p: *const S) -> Self {
        p.cast::<Self>().read_unaligned()
    }
    #[inline(always)]
    unsafe fn store(self, p: *mut S) {
        p.cast::<Self>().write_unaligned(self)
    }
    #[inline(always)]
    fn splat(x: S) -> Self {
        [x; N]
    }
    #[inline(always)]
    fn zero() -> Self {
        [S::zero(); N]
    }
    lane_ops! {
        add(x, o) => std::array::from_fn(|l| x[l].add(o[l]));
        sub(x, o) => std::array::from_fn(|l| x[l].sub(o[l]));
        mul(x, o) => std::array::from_fn(|l| x[l].mul(o[l]));
        mul_add(x, b, c) => std::array::from_fn(|l| x[l].mul_add(b[l], c[l]));
        relu(x) => std::array::from_fn(|l| x[l].relu());
    }
    #[inline(always)]
    fn hsum(self) -> f64 {
        // Adjacent pairs, level by level: for a power-of-two `N` this is
        // the `((l₀+l₁)+(l₂+l₃)) + …` tree.
        const { assert!(N.is_power_of_two()) };
        let mut v: [f64; N] = std::array::from_fn(|l| self[l].hsum());
        let mut n = N;
        while n > 1 {
            n /= 2;
            for i in 0..n {
                v[i] = v[2 * i] + v[2 * i + 1];
            }
        }
        v[0]
    }
    #[inline(always)]
    fn per_lane(mut self, f: impl Fn(S) -> S) -> Self {
        // A loop rather than `array::map`, which leaves `f` out of line.
        for l in &mut self {
            *l = f(*l);
        }
        self
    }
    #[inline(always)]
    fn gt_half(self) -> Self::Mask {
        std::array::from_fn(|l| self[l].gt_half())
    }
    #[inline(always)]
    fn masked_add(self, m: Self::Mask, w: Self) -> Self {
        std::array::from_fn(|l| self[l].masked_add(m[l], w[l]))
    }
    #[inline(always)]
    fn widen(self, _part: usize) -> [f64; N] {
        std::array::from_fn(|l| self[l].widen(0))
    }
}

impl<const N: usize> ExpLanes for [f64; N] {
    lane_ops! {
        div(x, o) => std::array::from_fn(|l| x[l] / o[l]);
        abs(x) => std::array::from_fn(|l| x[l].abs());
        neg(x) => std::array::from_fn(|l| -x[l]);
        pow2n(x) => std::array::from_fn(|l| x[l].pow2n());
    }
    #[inline(always)]
    fn lt(self, o: Self) -> Self::Mask {
        std::array::from_fn(|l| self[l] < o[l])
    }
    #[inline(always)]
    fn select(m: Self::Mask, a: Self, b: Self) -> Self {
        std::array::from_fn(|l| if m[l] { a[l] } else { b[l] })
    }
    #[inline(always)]
    fn any_ge(self, bound: f64) -> bool {
        self.iter().any(|&l| l.any_ge(bound))
    }
}

#[cfg(all(target_arch = "x86_64", not(feature = "force-scalar")))]
mod x86 {
    use super::{ExpLanes, Lanes, ROUND_MAGIC};
    use core::arch::x86_64::*;

    // SAFETY (every `unsafe` block below): the intrinsics need the
    // register type's features, which the module docs' instantiation
    // rule guarantees.

    /// The `Lanes` impl of one x86 register type: `$v` holds `$w` lanes
    /// of `$e`, the next arguments are that type's intrinsics, then its
    /// mask type with the bodies of `gt_half` and `masked_add`, and its
    /// `f64` view with the body of `widen`.
    macro_rules! vector_lanes {
        ($v:ty, $e:ty, $w:literal, $loadu:ident, $storeu:ident, $set1:ident, $setzero:ident,
         $add:ident, $sub:ident, $mul:ident, $fmadd:ident, $max:ident;
         mask $mask:ty: gt_half($gx:ident) => $gt:expr, masked_add($mz:ident, $mm:ident, $mw:ident) => $madd:expr;
         wide $wide:ty: widen($wx:ident, $wp:ident) => $widen:expr) => {
            impl Lanes for $v {
                type Elem = $e;
                const WIDTH: usize = $w;
                type Mask = $mask;
                type Wide = $wide;

                #[inline(always)]
                unsafe fn load(p: *const $e) -> Self {
                    $loadu(p)
                }
                #[inline(always)]
                unsafe fn store(self, p: *mut $e) {
                    $storeu(p, self)
                }
                #[inline(always)]
                fn splat(x: $e) -> Self {
                    unsafe { $set1(x) }
                }
                #[inline(always)]
                fn zero() -> Self {
                    unsafe { $setzero() }
                }
                lane_ops! {
                    add(x, o) => unsafe { $add(x, o) };
                    sub(x, o) => unsafe { $sub(x, o) };
                    mul(x, o) => unsafe { $mul(x, o) };
                    mul_add(x, b, c) => unsafe { $fmadd(x, b, c) };
                    relu(x) => unsafe { $max(x, $setzero()) };
                }
                #[inline(always)]
                fn hsum(self) -> f64 {
                    let mut c = [0.0; $w];
                    self.write(&mut c);
                    c.hsum()
                }
                #[inline(always)]
                fn per_lane(self, f: impl Fn($e) -> $e) -> Self {
                    let mut c = [0.0; $w];
                    self.write(&mut c);
                    Self::read(&c.per_lane(f))
                }
                #[inline(always)]
                fn gt_half(self) -> $mask {
                    let $gx = self;
                    unsafe { $gt }
                }
                #[inline(always)]
                fn masked_add(self, m: $mask, w: Self) -> Self {
                    let ($mz, $mm, $mw) = (self, m, w);
                    unsafe { $madd }
                }
                #[inline(always)]
                fn widen(self, part: usize) -> $wide {
                    let ($wx, $wp) = (self, part);
                    $widen
                }
            }
        };
    }

    vector_lanes! {
        __m256d, f64, 4, _mm256_loadu_pd, _mm256_storeu_pd, _mm256_set1_pd, _mm256_setzero_pd,
        _mm256_add_pd, _mm256_sub_pd, _mm256_mul_pd, _mm256_fmadd_pd, _mm256_max_pd;
        // `z + (w AND m)` rather than a blend, for fewer µops in the
        // panel step's hot loop; a kept `−0` turns `+0`, a sign no
        // reader of the panel observes (`max(±0, 0)` is `+0`).
        mask __m256d: gt_half(x) => _mm256_cmp_pd::<_CMP_GT_OQ>(x, _mm256_set1_pd(0.5)),
            masked_add(z, m, w) => _mm256_add_pd(z, _mm256_and_pd(w, m));
        wide __m256d: widen(x, _part) => x
    }
    vector_lanes! {
        __m256, f32, 8, _mm256_loadu_ps, _mm256_storeu_ps, _mm256_set1_ps, _mm256_setzero_ps,
        _mm256_add_ps, _mm256_sub_ps, _mm256_mul_ps, _mm256_fmadd_ps, _mm256_max_ps;
        mask __m256: gt_half(x) => _mm256_cmp_ps::<_CMP_GT_OQ>(x, _mm256_set1_ps(0.5)),
            masked_add(z, m, w) => _mm256_blendv_ps(z, _mm256_add_ps(z, w), m);
        wide __m256d: widen(x, part) => unsafe {
            if part == 0 {
                _mm256_cvtps_pd(_mm256_castps256_ps128(x))
            } else {
                _mm256_cvtps_pd(_mm256_extractf128_ps::<1>(x))
            }
        }
    }
    vector_lanes! {
        __m512d, f64, 8, _mm512_loadu_pd, _mm512_storeu_pd, _mm512_set1_pd, _mm512_setzero_pd,
        _mm512_add_pd, _mm512_sub_pd, _mm512_mul_pd, _mm512_fmadd_pd, _mm512_max_pd;
        mask __mmask8: gt_half(x) => _mm512_cmp_pd_mask::<_CMP_GT_OQ>(x, _mm512_set1_pd(0.5)),
            masked_add(z, m, w) => _mm512_mask_add_pd(z, m, z, w);
        wide __m512d: widen(x, _part) => x
    }
    vector_lanes! {
        __m512, f32, 16, _mm512_loadu_ps, _mm512_storeu_ps, _mm512_set1_ps, _mm512_setzero_ps,
        _mm512_add_ps, _mm512_sub_ps, _mm512_mul_ps, _mm512_fmadd_ps, _mm512_max_ps;
        mask __mmask16: gt_half(x) => _mm512_cmp_ps_mask::<_CMP_GT_OQ>(x, _mm512_set1_ps(0.5)),
            masked_add(z, m, w) => _mm512_mask_add_ps(z, m, z, w);
        wide __m512d: widen(x, part) => unsafe {
            if part == 0 {
                _mm512_cvtps_pd(_mm512_castps512_ps256(x))
            } else {
                _mm512_cvtps_pd(_mm256_castpd_ps(_mm512_extractf64x4_pd::<1>(_mm512_castps_pd(x))))
            }
        }
    }

    impl ExpLanes for __m256d {
        lane_ops! {
            div(x, o) => unsafe { _mm256_div_pd(x, o) };
            abs(x) => unsafe { _mm256_andnot_pd(_mm256_set1_pd(-0.0), x) };
            neg(x) => unsafe { _mm256_xor_pd(x, _mm256_set1_pd(-0.0)) };
            pow2n(x) => unsafe {
                let magic = _mm256_castpd_si256(_mm256_set1_pd(ROUND_MAGIC));
                let n = _mm256_sub_epi64(_mm256_castpd_si256(x), magic);
                let e = _mm256_add_epi64(n, _mm256_set1_epi64x(1023));
                _mm256_castsi256_pd(_mm256_slli_epi64::<52>(e))
            };
        }
        #[inline(always)]
        fn lt(self, o: Self) -> Self {
            unsafe { _mm256_cmp_pd::<_CMP_LT_OQ>(self, o) }
        }
        #[inline(always)]
        fn select(m: Self, a: Self, b: Self) -> Self {
            unsafe { _mm256_blendv_pd(b, a, m) }
        }
        #[inline(always)]
        fn any_ge(self, bound: f64) -> bool {
            // `NLT_UQ`: not-less-than, true on unordered (NaN).
            let ge = unsafe { _mm256_cmp_pd::<_CMP_NLT_UQ>(self, Self::splat(bound)) };
            unsafe { _mm256_movemask_pd(ge) != 0 }
        }
    }
}
