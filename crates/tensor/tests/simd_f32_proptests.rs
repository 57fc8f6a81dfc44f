//! Property tests for the **f32** kernel table (`simd::Kernels<f32>`).
//!
//! Two invariant classes, mirroring `simd_proptests.rs`:
//!
//! 1. **Cross-arm bit-identity within the f32 precision** — the
//!    portable, AVX2 and AVX-512 f32 arms share stripe layout (8
//!    lanes, the width of the f32 lane types), FMA placement and the
//!    widened combine tree, so they must agree bit-for-bit on every
//!    kernel, including the
//!    `sample_step_cols` activation *panel* (the masked update uses
//!    select semantics in every arm, so masked-off lanes keep their
//!    stored bits exactly).
//! 2. **Bounded agreement with f64** — the f32 arm's contract against
//!    the f64 reference is an error *bound*, never bits.  The bounds
//!    asserted here are the documented ones (DESIGN.md "Precision"):
//!    `O(k·ε₃₂)`-style dot bounds for reductions and GEMM, and a
//!    widen→f64-kernel→narrow route for transcendentals that is exact
//!    up to the final rounding.
//!
//! Cross-arm cases degenerate to trivially-true when the host lacks
//! the vector features (the accessors return `None`).

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use vqmc_tensor::gemm::{self, KC, MR_SIMD};
use vqmc_tensor::simd::{self, Backend, KernelElem, Kernels};

/// Asserts two f32 slices are bitwise identical (NaN ≡ NaN).
fn assert_bits_eq32(got: &[f32], want: &[f32], label: &str) {
    assert_eq!(got.len(), want.len(), "{label}: length");
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert!(
            g.to_bits() == w.to_bits() || (g.is_nan() && w.is_nan()),
            "{label}[{i}]: {g:?} != {w:?}"
        );
    }
}

fn assert_bits_eq64(got: &[f64], want: &[f64], label: &str) {
    assert_eq!(got.len(), want.len(), "{label}: length");
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert!(
            g.to_bits() == w.to_bits() || (g.is_nan() && w.is_nan()),
            "{label}[{i}]: {g:?} != {w:?}"
        );
    }
}

fn rand_f32(len: usize, seed: u64, lo: f64, hi: f64) -> Vec<f32> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..len).map(|_| rng.gen_range(lo..hi) as f32).collect()
}

fn run_slice_kernel(k: &Kernels<f32>, which: usize, xs: &mut [f32]) {
    match which {
        0 => (k.sigmoid_slice)(xs),
        1 => (k.log_sigmoid_slice)(xs),
        2 => (k.ln_cosh_slice)(xs),
        _ => (k.exp_slice)(xs),
    }
}

const KERNEL_NAMES: [&str; 4] = ["sigmoid", "log_sigmoid", "ln_cosh", "exp"];

/// The vector f32 tables that exist on this host, labelled.
fn vector_arms() -> Vec<(&'static str, &'static Kernels<f32>)> {
    let mut arms = Vec::new();
    if let Some(t) = f32::table(Backend::Avx2Fma) {
        arms.push(("avx2", t));
    }
    if let Some(t) = f32::table(Backend::Avx512) {
        arms.push(("avx512", t));
    }
    arms
}

/// Every f32 table's packed-GEMM tile width (`gemm_micro.nr`),
/// deduplicated: the `n` sweep oscillates around each of them.
fn gemm_tile_widths() -> Vec<usize> {
    let mut widths: Vec<usize> = std::iter::once(f32::portable_kernels())
        .chain(vector_arms().into_iter().map(|(_, arm)| arm))
        .map(|t| t.gemm_micro.nr)
        .collect();
    widths.sort_unstable();
    widths.dedup();
    widths
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Transcendental f32 slice kernels agree bit-for-bit across arms
    /// (they inherit the f64 arms' bit-identity through the widen →
    /// f64 kernel → narrow route, with one shared final rounding).
    #[test]
    fn slice_kernels_bit_identical_across_arms(len in 0usize..300, seed in 0u64..10_000, which in 0usize..4) {
        let xs = rand_f32(len, seed, -30.0, 30.0);
        let mut want = xs.clone();
        run_slice_kernel(f32::portable_kernels(), which, &mut want);
        for (name, arm) in vector_arms() {
            let mut got = xs.clone();
            run_slice_kernel(arm, which, &mut got);
            assert_bits_eq32(&got, &want, &format!("{name} {}", KERNEL_NAMES[which]));
        }
    }

    /// f32 reductions (`sum`, `dot`, `relu_dot`) and `axpy` agree
    /// bit-for-bit across arms, including scalar tails.
    #[test]
    fn reduction_kernels_bit_identical_across_arms(len in 0usize..300, seed in 0u64..10_000) {
        let xs = rand_f32(len, seed, -100.0, 100.0);
        let ys = rand_f32(len, seed ^ 0x9, -100.0, 100.0);
        let alpha = 1.5f32;
        let port = f32::portable_kernels();
        for (name, arm) in vector_arms() {
            prop_assert_eq!((arm.sum)(&xs).to_bits(), (port.sum)(&xs).to_bits(), "{} sum", name);
            prop_assert_eq!((arm.dot)(&xs, &ys).to_bits(), (port.dot)(&xs, &ys).to_bits(), "{} dot", name);
            prop_assert_eq!(
                (arm.relu_dot)(&xs, &ys).to_bits(),
                (port.relu_dot)(&xs, &ys).to_bits(),
                "{} relu_dot", name
            );
            let mut ya = ys.clone();
            let mut yp = ys.clone();
            (arm.axpy)(&mut ya, alpha, &xs);
            (port.axpy)(&mut yp, alpha, &xs);
            assert_bits_eq32(&ya, &yp, "axpy");
        }
    }

    /// f32 `dot` tracks the f64-accumulated reference within the
    /// documented `2k²·ε₃₂` bound (operands in [-1, 1]).
    #[test]
    fn dot_tracks_f64_reference(len in 0usize..600, seed in 0u64..10_000) {
        let xs = rand_f32(len, seed, -1.0, 1.0);
        let ys = rand_f32(len, seed ^ 0x7, -1.0, 1.0);
        let want: f64 = xs.iter().zip(&ys).map(|(&a, &b)| a as f64 * b as f64).sum();
        let got = (f32::kernels().dot)(&xs, &ys);
        let kf = len.max(1) as f64;
        prop_assert!((got - want).abs() <= (2.0 * kf * kf * f32::EPSILON as f64).max(1e-6));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The f32 `sample_step_cols` arms agree bit-for-bit on both the
    /// logits *and* the updated activation panel, across non-multiple
    /// `h`/`b`, first-bit (`w_prev = None`) and masked-update cases —
    /// and the logits track an f64 row-path reference within the
    /// `O(h·ε₃₂)` bound.
    #[test]
    fn sample_step_cols_bit_identical_across_arms(h in 0usize..133, b in 0usize..40, seed in 0u64..10_000, first_bit in 0u64..2) {
        let mut rng = StdRng::seed_from_u64(seed ^ 0xF32);
        let zt: Vec<f32> = (0..h * b).map(|_| rng.gen_range(-3.0..3.0) as f32).collect();
        let w_prev: Vec<f32> = (0..h).map(|_| rng.gen_range(-2.0..2.0) as f32).collect();
        let w_out: Vec<f32> = (0..h).map(|_| rng.gen_range(-2.0..2.0) as f32).collect();
        let mask: Vec<f32> = (0..b).map(|_| if rng.gen::<f64>() < 0.5 { 1.0 } else { 0.0 }).collect();
        let bias = rng.gen_range(-2.0..2.0f64);
        let wp = (first_bit == 0).then_some(&w_prev[..]);

        let mut scratch = vec![0.0f32; 10 * b];
        let mut zt_p = zt.clone();
        let mut logits_p = vec![0.0f64; b];
        (f32::portable_kernels().sample_step_cols)(
            &mut zt_p, b, wp, &mask, &w_out, bias, &mut scratch, &mut logits_p,
        );

        // f64 row-path reference bound: logits within O(h·ε₃₂) of the
        // exact (widened) computation.
        for r in 0..b {
            let mut want = bias;
            for j in 0..h {
                let mut z = zt[j * b + r] as f64;
                if let Some(w) = wp {
                    if mask[r] > 0.5 {
                        z += w[j] as f64;
                    }
                }
                want += w_out[j] as f64 * z.max(0.0);
            }
            let bound = (32.0 * h.max(1) as f64 * f32::EPSILON as f64).max(1e-5);
            prop_assert!(
                (logits_p[r] - want).abs() <= bound,
                "row {r}: {} vs {} (bound {bound})", logits_p[r], want
            );
        }

        for (name, arm) in vector_arms() {
            let mut zt_v = zt.clone();
            let mut logits_v = vec![0.0f64; b];
            (arm.sample_step_cols)(&mut zt_v, b, wp, &mask, &w_out, bias, &mut scratch, &mut logits_v);
            assert_bits_eq64(&logits_v, &logits_p, &format!("{name} f32 cols logits"));
            assert_bits_eq32(&zt_v, &zt_p, &format!("{name} f32 cols panel"));
        }
    }

    /// Packed f32 GEMM: driver + microkernel agree bit-for-bit across
    /// arms and track the f64 reference within the dot bound, across
    /// shapes oscillating around `MR_SIMD`, `KC` and every table's tile
    /// width (8×8, or 8×32 on AVX-512).
    #[test]
    fn packed_gemm_f32_remainder_sweep(mr in 0usize..40, nr in 0usize..40, kr in 0usize..512, seed in 0u64..1000) {
        let near = |tile: usize, raw: usize| match raw % 8 {
            0 => 0,
            1 => 1,
            2 => tile.saturating_sub(1),
            3 => tile,
            4 => tile + 1,
            5 => 2 * tile + 3,
            _ => raw % (2 * tile + 7),
        };
        for w in gemm_tile_widths() {
            let (m, n, k) = (near(MR_SIMD, mr), near(w, nr), near(KC, kr));
            let a = rand_f32(m * k, seed, -1.0, 1.0);
            let b = rand_f32(n * k, seed ^ 0xAB, -1.0, 1.0);
            let mut c_port = vec![0.0f32; m * n];
            gemm::gemm_nt_f32_with(m, n, k, &a, &b, &mut c_port, f32::portable_kernels().gemm_micro);
            let want = gemm::gemm_nt_f32_reference(m, n, k, &a, &b);
            let kf = k.max(1) as f64;
            let bound = (2.0 * kf * kf * f32::EPSILON as f64).max(1e-6);
            for (i, (&cv, &rv)) in c_port.iter().zip(&want).enumerate() {
                prop_assert!((cv as f64 - rv).abs() <= bound, "({m},{n},{k})[{i}]");
            }
            for (name, arm) in vector_arms() {
                let mut c_vec = vec![0.0f32; m * n];
                gemm::gemm_nt_f32_with(m, n, k, &a, &b, &mut c_vec, arm.gemm_micro);
                assert_bits_eq32(&c_vec, &c_port, &format!("{name} packed f32 nt"));
            }
        }
    }
}

/// Panel shapes straddling the 64 KiB register / hidden-major traversal
/// split (`h·b·4` bytes), plus tail-row and sub-block widths the
/// proptest's small shapes may miss: every vector arm must stay
/// bit-identical to the portable kernel on **both** traversals.
#[test]
fn sample_step_cols_traversal_split_bit_identical() {
    // (h, b): register path (≤ 64 KiB), exactly at the boundary, just
    // above it (hidden-major), deep hidden-major, and tail rows b%16≠0.
    let shapes = [
        (256usize, 16usize),
        (1024, 16),
        (1000, 16),
        (1024, 17),
        (512, 32),
        (2048, 16),
        (2048, 40),
        (256, 7),
        (4096, 8),
        (256, 64),
        (257, 64),
        (190, 91),
    ];
    for (h, b) in shapes {
        for first_bit in [true, false] {
            let mut rng = StdRng::seed_from_u64((h * 31 + b) as u64);
            let zt: Vec<f32> = (0..h * b).map(|_| rng.gen_range(-3.0..3.0) as f32).collect();
            let w_prev: Vec<f32> = (0..h).map(|_| rng.gen_range(-2.0..2.0) as f32).collect();
            let w_out: Vec<f32> = (0..h).map(|_| rng.gen_range(-2.0..2.0) as f32).collect();
            let mask: Vec<f32> = (0..b)
                .map(|_| if rng.gen::<f64>() < 0.5 { 1.0 } else { 0.0 })
                .collect();
            let bias = rng.gen_range(-2.0..2.0f64);
            let wp = (!first_bit).then_some(&w_prev[..]);

            let mut scratch = vec![0.0f32; 10 * b];
            let mut zt_p = zt.clone();
            let mut logits_p = vec![0.0f64; b];
            (f32::portable_kernels().sample_step_cols)(
                &mut zt_p, b, wp, &mask, &w_out, bias, &mut scratch, &mut logits_p,
            );
            for (name, arm) in vector_arms() {
                let mut zt_v = zt.clone();
                let mut logits_v = vec![0.0f64; b];
                (arm.sample_step_cols)(
                    &mut zt_v, b, wp, &mask, &w_out, bias, &mut scratch, &mut logits_v,
                );
                assert_bits_eq64(&logits_v, &logits_p, &format!("{name} h={h} b={b} logits"));
                assert_bits_eq32(&zt_v, &zt_p, &format!("{name} h={h} b={b} panel"));
            }
        }
    }
}

/// The production f32 dispatch only ever returns a published table and
/// honours the same `VQMC_SIMD`/`force-scalar` overrides as the f64
/// dispatch.
#[test]
fn dispatch_returns_a_published_table() {
    let k = f32::kernels();
    let is_portable = std::ptr::eq(k, f32::portable_kernels());
    let is_avx = f32::table(Backend::Avx2Fma)
        .map(|a| std::ptr::eq(k, a))
        .unwrap_or(false);
    let is_avx512 = f32::table(Backend::Avx512)
        .map(|a| std::ptr::eq(k, a))
        .unwrap_or(false);
    assert!(is_portable || is_avx || is_avx512);
    if cfg!(feature = "force-scalar") {
        assert!(is_portable);
    }
    // The f32 arm resolves to the same backend tier as the f64 arm.
    assert_eq!(k.backend, simd::backend());
}
