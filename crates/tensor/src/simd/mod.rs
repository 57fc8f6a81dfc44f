//! Runtime-dispatched SIMD kernel table.
//!
//! One-time runtime feature detection
//! (`is_x86_feature_detected!("avx2")` + `"fma"`, and `"avx512f"`)
//! resolves into a [`OnceLock`]-cached [`Backend`] that selects, per
//! element, a table of plain function pointers — the [`Kernels<E>`]
//! struct — that every hot-path consumer reads through
//! [`KernelElem::kernels`] (`f64::kernels()` / `f32::kernels()`;
//! [`kernels()`] is the `f64` one).  Three arms exist, each with an
//! `f64` and an `f32` table:
//!
//! * **AVX-512**: the AVX2 table with 512-bit overrides where they pay
//!   (the batched sampling step, the signed pair sum, and the
//!   packed-GEMM microkernel at two `__m512d` / `__m512` per tile row).
//! * **AVX2+FMA**: 4-wide `f64` / 8-wide `f32` vectors.  Installed only
//!   after both features are detected, so the `target_feature` shims
//!   are sound to call through the table.
//! * **Portable**: the production arm on non-x86_64 targets and the
//!   fallback everywhere else.
//!
//! Every kernel is **one body** over the lane types of `lanes.rs`,
//! instantiated per arm: the slice and reduction kernels (`slices.rs`),
//! the batched sampling step (`panel.rs`) and the packed-GEMM
//! microkernel (`micro.rs`) at `[f64; 4]` / `[f32; 8]` portable and,
//! under `#[target_feature]`, `__m256d` / `__m256` for AVX2 (the
//! sampling step and the microkernel also at `__m512d` / `__m512` for
//! AVX-512, the microkernel two vectors per tile row);
//! [`signed_sum`] is one body over plain arrays.
//!
//! Fallback policy (first match wins):
//!
//! 1. `--features force-scalar`, or a non-x86_64 target → portable arm
//!    (the vector tables are not even compiled).
//! 2. `VQMC_SIMD` set to `off`/`0`/`scalar`/`false` (case-insensitive)
//!    → portable arm (runtime kill-switch, read once); `VQMC_SIMD=avx2`
//!    caps the dispatch at the AVX2 table.
//! 3. `avx512f` (with `avx2`+`fma`) detected → AVX-512 table.
//! 4. `avx2` **and** `fma` detected → AVX2 arm.
//! 5. Otherwise → portable arm.
//!
//! The resolution runs once per process; the `OnceLock` initialisation
//! (including the `env::var` read) happens on the first kernel call,
//! which in the training loop lands inside the warm-up iterations the
//! zero-allocation invariant already excludes.
//!
//! **Cross-arm contract: bitwise.**  Every arm returns the same bits
//! for every kernel on every input, saturation edges included, and NaN
//! wherever another arm does (property-tested across all tables in
//! `tests/simd_proptests.rs` and `tests/simd_f32_proptests.rs`, pinned
//! across commits by the root `tests/simd_digests.rs`).  Accuracy
//! versus libm is a separate contract: the vendored
//! [`exp`](exp::exp) is within 2 ULP of `f64::exp` over the full input
//! range, while the composite kernels (`ln_cosh`, `tanh`) carry an
//! *absolute* error bound of a few 1e-16 (see DESIGN.md).

use std::sync::OnceLock;

use crate::gemm::PackedElem;

pub mod exp;
mod lanes;
mod micro;
mod panel;
pub mod signed_sum;
mod slices;

use slices::{map_via_f64, Exp, LnCosh, LogSigmoid, Sigmoid, Tanh};

pub use signed_sum::PAIR_TILE;

/// Which kernel arm the dispatch resolved to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Backend {
    /// AVX2+FMA table with AVX-512 overrides where they pay
    /// (runtime-detected; requires `avx512f` on top of `avx2`+`fma`).
    Avx512,
    /// AVX2+FMA vector kernels (runtime-detected).
    Avx2Fma,
    /// Portable scalar kernels (fallback / `force-scalar` / `VQMC_SIMD=off`).
    Scalar,
}

/// The packed-GEMM microkernel over element `E` together with the tile
/// width it computes, so the driver packs B for the kernel it runs.
/// Every table builds its entry from the stamp (`V` vectors of `L` per
/// tile row, `nr = V·L::WIDTH`); an entry whose `nr` is narrower than
/// its kernel panics at the kernel's length check.
#[derive(Clone, Copy)]
pub struct GemmMicro<E> {
    /// `(kc, ap, bp, tile)` multiplies a `kc×8` packed A micro-panel by
    /// a `kc×nr` packed B micro-panel and **overwrites** the row-major
    /// `8×nr` `tile`.  Panics if a slice is shorter than that.
    pub run: fn(usize, &[E], &[E], &mut [E]),
    /// Tile width: vectors per tile row × lanes per vector of the stamp
    /// behind `run` (4 or 16 `f64`, 8 or 32 `f32`).
    pub nr: usize,
}

/// Fused batched AUTO bit-step over a transposed activation panel of
/// element `E`, `f64` logits:
/// `(zt, b, w_prev, prev_mask, w_out, bias, scratch, logits)`.
pub type SampleStepCols<E = f64> =
    fn(&mut [E], usize, Option<&[E]>, &[E], &[E], f64, &mut [E], &mut [f64]);

/// Sample-tiled signed pair sum over a strict-upper-triangle CSR:
/// `(offsets, cols, vals, masks, acc)` — see [`signed_sum`].
pub type SignedPairSum = fn(&[usize], &[u32], &[f64], &[[u64; PAIR_TILE]], &mut [f64; PAIR_TILE]);

/// The resolved kernel table over element `E`: one function pointer
/// per hot-path primitive.  `Copy` — consumers hold
/// `&'static Kernels<E>`.
///
/// `Kernels<f64>` (the default) is the training and reference table.
/// `Kernels<f32>` is the inference table: weights and activations are
/// `f32` — half the bytes streamed, twice the SIMD lanes — while
/// reduction results (`dot`, `relu_dot`, `sum`, `sq_dev_sum`, logits)
/// are `f64`: stripe accumulators stay `f32` in registers, the
/// cross-stripe combine widens.  Its agreement with the f64 table is
/// bound-based, never bit-based.  Its transcendental slice entries
/// route each chunk through the *same arm's* f64 kernel (widen → apply
/// → narrow), inheriting the f64 cross-arm bit-identity.  The
/// trainer-side entries (`tanh_slice`, `xpby`, `sq_dev_sum`,
/// `sum_exp_shifted`, `signed_pair_sum`) are `f64` in every table; the
/// `f32` table holds its arm's `f64` entries.
#[derive(Clone, Copy)]
pub struct Kernels<E: 'static = f64> {
    /// Which arm this table belongs to.
    pub backend: Backend,
    /// In-place sigmoid over a slice.
    pub sigmoid_slice: fn(&mut [E]),
    /// In-place `log σ` over a slice.
    pub log_sigmoid_slice: fn(&mut [E]),
    /// In-place `ln cosh` over a slice.
    pub ln_cosh_slice: fn(&mut [E]),
    /// In-place `tanh` over a slice, `f64` in every table.
    pub tanh_slice: fn(&mut [f64]),
    /// In-place `e^x` over a slice (full input range).
    pub exp_slice: fn(&mut [E]),
    /// Fused dot product, `f64` result.
    pub dot: fn(&[E], &[E]) -> f64,
    /// `y ← y + α·x`.
    pub axpy: fn(&mut [E], E, &[E]),
    /// `y ← x + β·y` (CG direction update), `f64` in every table.
    pub xpby: fn(&mut [f64], f64, &[f64]),
    /// `Σ w·max(z, 0)` (incremental-sampler logit), `f64` result.
    pub relu_dot: fn(&[E], &[E]) -> f64,
    /// Fused batched AUTO bit step over a transposed `h×b` activation
    /// panel: masked `+w_prev[j]` column update + per-row
    /// `Σⱼ w_out[j]·max(z,0)` in one memory pass.  Per-row results are
    /// bit-identical to `axpy` + `relu_dot` on that row alone.
    /// `(zt, b, w_prev, prev_mask, w_out, bias, scratch, logits)`;
    /// `logits[r] = bias + Σ` matches the row path's `b2[i] + relu_dot`,
    /// in `f64` for either panel element.  `scratch` holds at least
    /// [`KernelElem::STEP_SCRATCH`]`·b` elements.  Panics if a slice is
    /// short.
    pub sample_step_cols: SampleStepCols<E>,
    /// Plain lane-striped sum with `f64` combine (pairwise-summation
    /// base block).
    pub sum: fn(&[E]) -> f64,
    /// `Σ (x−m)²` (variance base block), `f64` in every table.
    pub sq_dev_sum: fn(&[f64], f64) -> f64,
    /// `Σ e^{x−m}` (`log_sum_exp` base block), `f64` in every table.
    pub sum_exp_shifted: fn(&[f64], f64) -> f64,
    /// The packed-GEMM microkernel: an 8×4 `f64` / 8×8 `f32` tile, one
    /// `__m256d` / `__m256` (or `[f64; 4]` / `[f32; 8]`) per tile row;
    /// 8×16 / 8×32 on AVX-512, two 512-bit vectors.
    pub gemm_micro: GemmMicro<E>,
    /// `Σ_{i<j} B_ij σ_i σ_j` for [`PAIR_TILE`] samples over an
    /// upper-triangle CSR, spins as sign masks (one body, all arms;
    /// `f64` in every table).
    pub signed_pair_sum: SignedPairSum,
}

/// The portable arm as a constant table.
static PORTABLE: Kernels = Kernels {
    backend: Backend::Scalar,
    sigmoid_slice: slices::map::<Sigmoid, [f64; 4]>,
    log_sigmoid_slice: slices::map::<LogSigmoid, [f64; 4]>,
    ln_cosh_slice: slices::map::<LnCosh, [f64; 4]>,
    tanh_slice: slices::map::<Tanh, [f64; 4]>,
    exp_slice: slices::map::<Exp, [f64; 4]>,
    dot: slices::dot::<[f64; 4]>,
    axpy: slices::axpy::<[f64; 4]>,
    xpby: slices::xpby::<[f64; 4]>,
    relu_dot: slices::relu_dot::<[f64; 4]>,
    sample_step_cols: panel::sample_step_cols::<[f64; 4], 4, 1>,
    sum: slices::sum::<[f64; 4]>,
    sq_dev_sum: slices::sq_dev_sum::<[f64; 4]>,
    sum_exp_shifted: slices::sum_exp_shifted::<[f64; 4]>,
    gemm_micro: micro::entry::<[f64; 4], 1>(micro::gemm_micro::<[f64; 4], 1>),
    signed_pair_sum: signed_sum::portable,
};

/// The portable f32 arm as a constant table.
static PORTABLE_F32: Kernels<f32> = Kernels {
    backend: Backend::Scalar,
    sigmoid_slice: |xs| map_via_f64(xs, PORTABLE.sigmoid_slice),
    log_sigmoid_slice: |xs| map_via_f64(xs, PORTABLE.log_sigmoid_slice),
    ln_cosh_slice: |xs| map_via_f64(xs, PORTABLE.ln_cosh_slice),
    tanh_slice: PORTABLE.tanh_slice,
    exp_slice: |xs| map_via_f64(xs, PORTABLE.exp_slice),
    dot: slices::dot::<[f32; 8]>,
    axpy: slices::axpy::<[f32; 8]>,
    xpby: PORTABLE.xpby,
    relu_dot: slices::relu_dot::<[f32; 8]>,
    sample_step_cols: panel::sample_step_cols::<[f32; 8], 8, 1>,
    sum: slices::sum::<[f32; 8]>,
    sq_dev_sum: PORTABLE.sq_dev_sum,
    sum_exp_shifted: PORTABLE.sum_exp_shifted,
    gemm_micro: micro::entry::<[f32; 8], 1>(micro::gemm_micro::<[f32; 8], 1>),
    signed_pair_sum: PORTABLE.signed_pair_sum,
};

/// Safe table shims over vector bodies: each `name(args) => body;`
/// becomes a plain `fn name(args)` that runs `body` inside an inner
/// function compiled with the given `target_feature` attribute.  Sound
/// because the shims are only reachable through the tables of their
/// arm, which are published after `is_x86_feature_detected!` confirmed
/// those features.
#[cfg(all(target_arch = "x86_64", not(feature = "force-scalar")))]
macro_rules! shims {
    (#[$tf:meta] $($(#[$m:meta])* $name:ident($($arg:ident: $ty:ty),*) $(-> $ret:ty)? => $body:expr;)*) => {$(
        $(#[$m])*
        pub(super) fn $name($($arg: $ty),*) $(-> $ret)? {
            $(#[$m])*
            #[$tf]
            unsafe fn stamped($($arg: $ty),*) $(-> $ret)? {
                $body
            }
            // SAFETY: see the macro docs.
            unsafe { stamped($($arg),*) }
        }
    )*};
}

#[cfg(all(target_arch = "x86_64", not(feature = "force-scalar")))]
mod avx2_table {
    use super::*;
    use core::arch::x86_64::{__m256, __m256d};

    shims! {
        #[target_feature(enable = "avx2", enable = "fma")]
        sigmoid_slice(xs: &mut [f64]) => slices::map::<Sigmoid, __m256d>(xs);
        log_sigmoid_slice(xs: &mut [f64]) => slices::map::<LogSigmoid, __m256d>(xs);
        ln_cosh_slice(xs: &mut [f64]) => slices::map::<LnCosh, __m256d>(xs);
        tanh_slice(xs: &mut [f64]) => slices::map::<Tanh, __m256d>(xs);
        exp_slice(xs: &mut [f64]) => slices::map::<Exp, __m256d>(xs);
        dot(a: &[f64], b: &[f64]) -> f64 => slices::dot::<__m256d>(a, b);
        axpy(y: &mut [f64], alpha: f64, x: &[f64]) => slices::axpy::<__m256d>(y, alpha, x);
        xpby(y: &mut [f64], beta: f64, x: &[f64]) => slices::xpby::<__m256d>(y, beta, x);
        relu_dot(w: &[f64], z: &[f64]) -> f64 => slices::relu_dot::<__m256d>(w, z);
        sum(xs: &[f64]) -> f64 => slices::sum::<__m256d>(xs);
        sq_dev_sum(xs: &[f64], m: f64) -> f64 => slices::sq_dev_sum::<__m256d>(xs, m);
        sum_exp_shifted(xs: &[f64], m: f64) -> f64 => slices::sum_exp_shifted::<__m256d>(xs, m);
        #[allow(clippy::too_many_arguments)]
        sample_step_cols(zt: &mut [f64], b: usize, w_prev: Option<&[f64]>, prev_mask: &[f64],
            w_out: &[f64], bias: f64, scratch: &mut [f64], logits: &mut [f64])
            => panel::sample_step_cols::<__m256d, 4, 2>(zt, b, w_prev, prev_mask, w_out, bias,
                scratch, logits);
        signed_pair_sum(offsets: &[usize], cols: &[u32], vals: &[f64],
            masks: &[[u64; PAIR_TILE]], acc: &mut [f64; PAIR_TILE])
            => signed_sum::avx2(offsets, cols, vals, masks, acc);
        gemm_micro(kc: usize, ap: &[f64], bp: &[f64], tile: &mut [f64])
            => micro::gemm_micro::<__m256d, 1>(kc, ap, bp, tile);
    }

    pub(super) static AVX2: Kernels = Kernels {
        backend: Backend::Avx2Fma,
        sigmoid_slice,
        log_sigmoid_slice,
        ln_cosh_slice,
        tanh_slice,
        exp_slice,
        dot,
        axpy,
        xpby,
        relu_dot,
        sample_step_cols,
        sum,
        sq_dev_sum,
        sum_exp_shifted,
        gemm_micro: micro::entry::<__m256d, 1>(gemm_micro),
        signed_pair_sum,
    };

    shims! {
        #[target_feature(enable = "avx2", enable = "fma")]
        dot_f32(a: &[f32], b: &[f32]) -> f64 => slices::dot::<__m256>(a, b);
        axpy_f32(y: &mut [f32], alpha: f32, x: &[f32]) => slices::axpy::<__m256>(y, alpha, x);
        relu_dot_f32(w: &[f32], z: &[f32]) -> f64 => slices::relu_dot::<__m256>(w, z);
        sum_f32(xs: &[f32]) -> f64 => slices::sum::<__m256>(xs);
        #[allow(clippy::too_many_arguments)]
        sample_step_cols_f32(zt: &mut [f32], b: usize, w_prev: Option<&[f32]>,
            prev_mask: &[f32], w_out: &[f32], bias: f64, scratch: &mut [f32], logits: &mut [f64])
            => panel::sample_step_cols::<__m256, 8, 1>(zt, b, w_prev, prev_mask, w_out, bias,
                scratch, logits);
        gemm_micro_f32(kc: usize, ap: &[f32], bp: &[f32], tile: &mut [f32])
            => micro::gemm_micro::<__m256, 1>(kc, ap, bp, tile);
    }

    /// The transcendental entries widen each chunk through this arm's
    /// f64 kernel.
    pub(super) static AVX2_F32: Kernels<f32> = Kernels {
        backend: Backend::Avx2Fma,
        sigmoid_slice: |xs| map_via_f64(xs, sigmoid_slice),
        log_sigmoid_slice: |xs| map_via_f64(xs, log_sigmoid_slice),
        ln_cosh_slice: |xs| map_via_f64(xs, ln_cosh_slice),
        tanh_slice,
        exp_slice: |xs| map_via_f64(xs, exp_slice),
        dot: dot_f32,
        axpy: axpy_f32,
        xpby,
        relu_dot: relu_dot_f32,
        sample_step_cols: sample_step_cols_f32,
        sum: sum_f32,
        sq_dev_sum,
        sum_exp_shifted,
        gemm_micro: micro::entry::<__m256, 1>(gemm_micro_f32),
        signed_pair_sum,
    };
}

#[cfg(all(target_arch = "x86_64", not(feature = "force-scalar")))]
mod avx512_table {
    use super::*;
    use core::arch::x86_64::{__m512, __m512d};

    shims! {
        #[target_feature(enable = "avx512f")]
        #[allow(clippy::too_many_arguments)]
        sample_step_cols(zt: &mut [f64], b: usize, w_prev: Option<&[f64]>, prev_mask: &[f64],
            w_out: &[f64], bias: f64, scratch: &mut [f64], logits: &mut [f64])
            => panel::sample_step_cols::<__m512d, 4, 2>(zt, b, w_prev, prev_mask, w_out, bias,
                scratch, logits);
        #[allow(clippy::too_many_arguments)]
        sample_step_cols_f32(zt: &mut [f32], b: usize, w_prev: Option<&[f32]>,
            prev_mask: &[f32], w_out: &[f32], bias: f64, scratch: &mut [f32], logits: &mut [f64])
            => panel::sample_step_cols::<__m512, 8, 2>(zt, b, w_prev, prev_mask, w_out, bias,
                scratch, logits);
        signed_pair_sum(offsets: &[usize], cols: &[u32], vals: &[f64],
            masks: &[[u64; PAIR_TILE]], acc: &mut [f64; PAIR_TILE])
            => signed_sum::avx512(offsets, cols, vals, masks, acc);
        gemm_micro(kc: usize, ap: &[f64], bp: &[f64], tile: &mut [f64])
            => micro::gemm_micro::<__m512d, 2>(kc, ap, bp, tile);
        gemm_micro_f32(kc: usize, ap: &[f32], bp: &[f32], tile: &mut [f32])
            => micro::gemm_micro::<__m512, 2>(kc, ap, bp, tile);
    }

    /// The AVX2 table with AVX-512 overrides.
    pub(super) static AVX512: Kernels = Kernels {
        backend: Backend::Avx512,
        sample_step_cols,
        signed_pair_sum,
        gemm_micro: micro::entry::<__m512d, 2>(gemm_micro),
        ..avx2_table::AVX2
    };

    /// The AVX2 f32 table with the 16-wide panel-step and 8×32 GEMM
    /// overrides.
    pub(super) static AVX512_F32: Kernels<f32> = Kernels {
        backend: Backend::Avx512,
        sample_step_cols: sample_step_cols_f32,
        signed_pair_sum,
        gemm_micro: micro::entry::<__m512, 2>(gemm_micro_f32),
        ..avx2_table::AVX2_F32
    };
}

/// Whether this CPU (and build) can run `arm`'s tables; `std` caches
/// the feature detection.
fn supports(arm: Backend) -> bool {
    #[cfg(all(target_arch = "x86_64", not(feature = "force-scalar")))]
    {
        let avx2 = is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma");
        match arm {
            Backend::Scalar => true,
            Backend::Avx2Fma => avx2,
            Backend::Avx512 => avx2 && is_x86_feature_detected!("avx512f"),
        }
    }
    #[cfg(not(all(target_arch = "x86_64", not(feature = "force-scalar"))))]
    {
        arm == Backend::Scalar
    }
}

/// An element with a kernel table per arm — `f64` (training and
/// reference) and `f32` (inference) — under one dispatch policy.
pub trait KernelElem: PackedElem {
    /// Per-row scratch of `sample_step_cols`, in elements: panels over
    /// 64 KiB keep five (`f64`) or nine (`f32`) accumulator stripes and
    /// a mask stash there, on every arm.
    const STEP_SCRATCH: usize;

    /// Accumulator stripes of `relu_dot` and `sample_step_cols` (one
    /// 256-bit row of elements, on every arm): unit `j` of a full block
    /// of `STRIPES` feeds stripe `j % STRIPES`, and the units past the
    /// last full block a sequential tail.  Cutting a reduction at a
    /// multiple of `STRIPES` inside the full blocks therefore leaves
    /// every kept term in its stripe and position.
    const STRIPES: usize;

    /// This element's table for `arm`, or `None` when this CPU (or
    /// build) cannot run it.  Property tests and benches use it to pit
    /// the arms against each other on one machine.
    fn table(arm: Backend) -> Option<&'static Kernels<Self>>;

    /// The production table (see the module docs for the fallback
    /// policy; one resolution serves every element), cached per element.
    fn kernels() -> &'static Kernels<Self>;

    /// The portable-scalar table, whatever the dispatch resolved to.
    fn portable_kernels() -> &'static Kernels<Self> {
        Self::table(Backend::Scalar).expect("the portable arm runs everywhere")
    }
}

/// One [`KernelElem`] impl per element over its three tables.
macro_rules! kernel_elem {
    ($($t:ty: $scratch:expr, $stripes:expr, $portable:ident, $avx2:ident, $avx512:ident;)*) => {$(
        impl KernelElem for $t {
            const STEP_SCRATCH: usize = $scratch;
            const STRIPES: usize = $stripes;

            fn table(arm: Backend) -> Option<&'static Kernels<$t>> {
                supports(arm).then_some(match arm {
                    #[cfg(all(target_arch = "x86_64", not(feature = "force-scalar")))]
                    Backend::Avx512 => &avx512_table::$avx512,
                    #[cfg(all(target_arch = "x86_64", not(feature = "force-scalar")))]
                    Backend::Avx2Fma => &avx2_table::$avx2,
                    _ => &$portable,
                })
            }

            fn kernels() -> &'static Kernels<$t> {
                static ACTIVE: OnceLock<&'static Kernels<$t>> = OnceLock::new();
                ACTIVE.get_or_init(|| Self::table(backend()).expect("the resolved arm runs here"))
            }
        }
    )*};
}

kernel_elem! {
    f64: 6, 4, PORTABLE, AVX2, AVX512;
    f32: 10, 8, PORTABLE_F32, AVX2_F32, AVX512_F32;
}

/// `VQMC_SIMD` runtime switch (read once at first dispatch):
/// `off`/`0`/`scalar`/`false` force the portable arm, `avx2` caps the
/// dispatch at the AVX2 table (no 512-bit kernels).
fn env_simd_cap() -> Option<Backend> {
    match std::env::var("VQMC_SIMD") {
        Ok(v) => match v.to_ascii_lowercase().as_str() {
            "off" | "0" | "scalar" | "false" => Some(Backend::Scalar),
            "avx2" => Some(Backend::Avx2Fma),
            _ => None,
        },
        Err(_) => None,
    }
}

/// The arm the production dispatch resolved to, once per process (see
/// the module docs for the fallback policy).
pub fn backend() -> Backend {
    static ACTIVE: OnceLock<Backend> = OnceLock::new();
    *ACTIVE.get_or_init(|| {
        let cap = match env_simd_cap() {
            Some(Backend::Scalar) => Backend::Scalar,
            Some(_) => Backend::Avx2Fma,
            None => Backend::Avx512,
        };
        // The widest supported arm at or below the cap.
        [cap, Backend::Avx2Fma, Backend::Scalar]
            .into_iter()
            .find(|&arm| supports(arm))
            .unwrap_or(Backend::Scalar)
    })
}

/// The production `f64` kernel table: [`KernelElem::kernels`] at
/// `f64`.
pub fn kernels() -> &'static Kernels {
    f64::kernels()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn portable_table_is_scalar() {
        assert_eq!(f64::portable_kernels().backend, Backend::Scalar);
        assert_eq!(f32::portable_kernels().backend, Backend::Scalar);
    }

    #[test]
    fn dispatch_is_stable() {
        assert_eq!(backend(), backend());
        assert!(std::ptr::eq(kernels(), kernels()));
        assert!(std::ptr::eq(f32::kernels(), f32::kernels()));
        assert_eq!(f32::kernels().backend, backend());
    }

    #[cfg(feature = "force-scalar")]
    #[test]
    fn force_scalar_feature_pins_scalar() {
        assert_eq!(backend(), Backend::Scalar);
        assert!(f64::table(Backend::Avx2Fma).is_none());
        assert!(f32::table(Backend::Avx512).is_none());
    }
}
