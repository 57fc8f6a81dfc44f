//! Property tests for the runtime-dispatched SIMD backend.
//!
//! Three invariant classes:
//!
//! 1. **Every published table ↔ portable table** — each slice,
//!    reduction, panel-step and GEMM microkernel is one generic body
//!    instantiated per arm (same FMA placement, same lane-striped
//!    accumulator layout, same horizontal reduction order), so the AVX2
//!    and AVX-512 tables must agree with the portable one
//!    **bit-for-bit** on every input, including non-lane-multiple
//!    lengths, the scalar tail, and exceptional lanes (saturated,
//!    infinite, NaN).
//! 2. **Packed GEMM remainder sweep** — the packed driver run with each
//!    vector table's microkernel (8×4, 8×16 on AVX-512) equals the same
//!    driver run with the portable one bit-for-bit, and both match the
//!    naive triple loop to a length-scaled tolerance, across shapes
//!    oscillating around every blocking boundary (`MR_SIMD`, every
//!    table's tile width, `KC`, and the `MC` / `NC_PACKED` outer
//!    blocks).
//! 3. **Vendored `exp` accuracy** — ≤ 2 ULP against `f64::exp` over the
//!    full finite range, including the overflow edge, the subnormal
//!    regime, and the underflow edge.
//!
//! The cross-arm tests are skipped (they degenerate to trivially-true)
//! when the host lacks the vector features or the `force-scalar`
//! feature compiled the vector arms out — the accessors return `None`
//! there.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use vqmc_tensor::gemm::{self, gemm_reference, KC, MR_SIMD};
use vqmc_tensor::simd::{self, Backend, KernelElem, Kernels};
use vqmc_tensor::Matrix;

/// Ordered-bits ULP distance (`0` for bitwise-equal or both-NaN).
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

/// An input slice mixing the moderate range the kernels are tuned for
/// with values that exercise every exceptional path: saturation bounds,
/// overflow/underflow edges, infinities, zeros and NaN — scattered at
/// random positions so they land in vector lanes *and* scalar tails.
fn adversarial_input(len: usize, seed: u64) -> Vec<f64> {
    const SPECIALS: &[f64] = &[
        0.0,
        -0.0,
        1e-300,
        -1e-300,
        353.9,
        -353.9,
        354.1,
        -354.1,
        707.9,
        -707.9,
        708.1,
        -708.1,
        709.9,
        -745.2,
        1e4,
        -1e4,
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::NAN,
    ];
    let mut rng = StdRng::seed_from_u64(seed);
    (0..len)
        .map(|_| match rng.gen_range(0..4u32) {
            0 => SPECIALS[rng.gen_range(0..SPECIALS.len())],
            1 => rng.gen_range(-700.0..700.0),
            _ => rng.gen_range(-8.0..8.0),
        })
        .collect()
}

/// Asserts two slices are bitwise identical (NaN ≡ NaN).
fn assert_bits_eq(got: &[f64], want: &[f64], label: &str) {
    assert_eq!(got.len(), want.len(), "{label}: length");
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert!(
            g.to_bits() == w.to_bits() || (g.is_nan() && w.is_nan()),
            "{label}[{i}]: {g:?} ({:#x}) != {w:?} ({:#x})",
            g.to_bits(),
            w.to_bits()
        );
    }
}

fn run_slice_kernel(k: &Kernels<f64>, which: usize, xs: &mut [f64]) {
    match which {
        0 => (k.sigmoid_slice)(xs),
        1 => (k.log_sigmoid_slice)(xs),
        2 => (k.ln_cosh_slice)(xs),
        3 => (k.tanh_slice)(xs),
        _ => (k.exp_slice)(xs),
    }
}

const KERNEL_NAMES: [&str; 5] = ["sigmoid", "log_sigmoid", "ln_cosh", "tanh", "exp"];

/// The vector tables that exist on this host, labelled.
fn vector_arms() -> Vec<(&'static str, &'static Kernels<f64>)> {
    let mut arms = Vec::new();
    if let Some(t) = f64::table(Backend::Avx2Fma) {
        arms.push(("avx2", t));
    }
    if let Some(t) = f64::table(Backend::Avx512) {
        arms.push(("avx512", t));
    }
    arms
}

/// Uniform(-1, 1) matrix from a seed.
fn rand_matrix(rows: usize, cols: usize, seed: u64) -> Matrix {
    let mut rng = StdRng::seed_from_u64(seed);
    Matrix::from_fn(rows, cols, |_, _| rng.gen_range(-1.0..1.0))
}

/// Every table's packed-GEMM tile width (`gemm_micro.nr`), deduplicated:
/// the `n` sweeps oscillate around each of them.
fn gemm_tile_widths() -> Vec<usize> {
    let mut widths: Vec<usize> = std::iter::once(f64::portable_kernels())
        .chain(vector_arms().into_iter().map(|(_, arm)| arm))
        .map(|t| t.gemm_micro.nr)
        .collect();
    widths.sort_unstable();
    widths.dedup();
    widths
}

/// Shape oscillating around a tile/block boundary (see
/// `kernel_proptests::near`).
fn near(tile: usize, raw: usize) -> usize {
    match raw % 8 {
        0 => 0,
        1 => 1,
        2 => tile.saturating_sub(1),
        3 => tile,
        4 => tile + 1,
        5 => 2 * tile + 3,
        _ => raw % (2 * tile + 7),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every transcendental slice kernel agrees bit-for-bit between
    /// every vector table and the portable one, across lengths that are
    /// not lane multiples and inputs hitting every exceptional path.
    #[test]
    fn slice_kernels_bit_identical_across_arms(len in 0usize..130, seed in 0u64..10_000, which in 0usize..5) {
        let xs = adversarial_input(len, seed);
        let mut want = xs.clone();
        run_slice_kernel(f64::portable_kernels(), which, &mut want);
        for (name, arm) in vector_arms() {
            let mut got = xs.clone();
            run_slice_kernel(arm, which, &mut got);
            assert_bits_eq(&got, &want, &format!("{name} {}", KERNEL_NAMES[which]));
        }
    }

    /// The reduction kernels (`sum`, `sq_dev_sum`, `sum_exp_shifted`,
    /// `dot`, `relu_dot`) agree bit-for-bit across arms — this is what
    /// makes `reduce::sum`/`variance`/`log_sum_exp` backend-independent.
    #[test]
    fn reduction_kernels_bit_identical_across_arms(len in 0usize..130, seed in 0u64..10_000) {
        let port = f64::portable_kernels();
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5EED);
        let xs: Vec<f64> = (0..len).map(|_| rng.gen_range(-1e3..1e3)).collect();
        let ys: Vec<f64> = (0..len).map(|_| rng.gen_range(-1e3..1e3)).collect();
        let m = rng.gen_range(-10.0..10.0);
        // Shifted exp sum: shift near max keeps arguments ≤ 0.
        let shift = xs.iter().cloned().fold(0.0, f64::max);

        for (name, arm) in vector_arms() {
            prop_assert_eq!((arm.sum)(&xs).to_bits(), (port.sum)(&xs).to_bits(), "{} sum", name);
            prop_assert_eq!(
                (arm.sq_dev_sum)(&xs, m).to_bits(),
                (port.sq_dev_sum)(&xs, m).to_bits(),
                "{} sq_dev_sum", name
            );
            prop_assert_eq!((arm.dot)(&xs, &ys).to_bits(), (port.dot)(&xs, &ys).to_bits(), "{} dot", name);
            prop_assert_eq!(
                (arm.relu_dot)(&xs, &ys).to_bits(),
                (port.relu_dot)(&xs, &ys).to_bits(),
                "{} relu_dot", name
            );
            prop_assert_eq!(
                (arm.sum_exp_shifted)(&xs, shift).to_bits(),
                (port.sum_exp_shifted)(&xs, shift).to_bits(),
                "{} sum_exp_shifted", name
            );

            let mut ya = ys.clone();
            let mut yp = ys.clone();
            (arm.axpy)(&mut ya, m, &xs);
            (port.axpy)(&mut yp, m, &xs);
            assert_bits_eq(&ya, &yp, &format!("{name} axpy"));
            let mut ya = ys.clone();
            let mut yp = ys.clone();
            (arm.xpby)(&mut ya, m, &xs);
            (port.xpby)(&mut yp, m, &xs);
            assert_bits_eq(&ya, &yp, &format!("{name} xpby"));
        }
    }

    /// The packed GEMM driver is microkernel-agnostic: every vector
    /// table's kernel (8×4, or 8×16 on AVX-512) and the portable one
    /// produce bit-identical C across shapes oscillating around
    /// `MR_SIMD`, `KC` and every table's tile width, and all match the
    /// naive reference.
    #[test]
    fn packed_gemm_remainder_sweep(mr in 0usize..64, nr in 0usize..64, kr in 0usize..512, seed in 0u64..1000) {
        for w in gemm_tile_widths() {
            let (m, n, k) = (near(MR_SIMD, mr), near(w, nr), near(KC, kr));
            let a = rand_matrix(m, k, seed);
            let b = rand_matrix(n, k, seed ^ 0xAB);
            let c_port = packed_across_arms(gemm::gemm_nt_packed_with, &a, &b, "packed nt");
            let want = gemm_reference(&a, &b.transpose());
            let tol = 1e-12 * (1.0 + k as f64);
            prop_assert!(c_port.max_abs_diff(&want) <= tol, "portable micro vs reference");
        }
    }

    /// Same sweep for the `nn` and `tn` packing variants (column
    /// gather paths).
    #[test]
    fn packed_gemm_variants_remainder_sweep(mr in 0usize..64, nr in 0usize..64, k in 0usize..40, seed in 0u64..1000) {
        for w in gemm_tile_widths() {
            let (m, n) = (near(MR_SIMD, mr), near(w, nr));
            let a_nn = rand_matrix(m, k, seed);
            let b_nn = rand_matrix(k, n, seed ^ 0x11);
            let a_tn = rand_matrix(k, m, seed ^ 0x12);
            let tol = 1e-12 * (1.0 + k as f64);

            let c_port = packed_across_arms(gemm::gemm_nn_packed_with, &a_nn, &b_nn, "packed nn");
            prop_assert!(c_port.max_abs_diff(&gemm_reference(&a_nn, &b_nn)) <= tol, "packed nn");

            let c_port = packed_across_arms(gemm::gemm_tn_packed_with, &a_tn, &b_nn, "packed tn");
            prop_assert!(c_port.max_abs_diff(&gemm_reference(&a_tn.transpose(), &b_nn)) <= tol, "packed tn");
        }
    }
}

/// A packed-GEMM seam (`gemm::gemm_{nt,nn,tn}_packed_with`).
type PackedSeam = fn(&Matrix, &Matrix, &mut Matrix, simd::GemmMicro<f64>);

/// `seam` with the portable microkernel, after asserting every vector
/// table's microkernel returns the same bits.
fn packed_across_arms(seam: PackedSeam, a: &Matrix, b: &Matrix, label: &str) -> Matrix {
    let mut c_port = Matrix::zeros(0, 0);
    seam(a, b, &mut c_port, f64::portable_kernels().gemm_micro);
    for (name, arm) in vector_arms() {
        let mut c_vec = Matrix::zeros(0, 0);
        seam(a, b, &mut c_vec, arm.gemm_micro);
        assert_bits_eq(
            c_vec.as_slice(),
            c_port.as_slice(),
            &format!("{name} {label}"),
        );
    }
    c_port
}

/// Deterministic crossings of the *outer* cache blocks (`MC` = 256
/// output rows, `NC_PACKED` = 2048 output columns), too large for the
/// randomized sweep.
#[test]
fn packed_gemm_crosses_outer_blocks() {
    for &(m, n, k) in &[(259usize, 7usize, 301usize), (9, 2051, 5)] {
        let a = rand_matrix(m, k, 42);
        let b = rand_matrix(n, k, 43);
        let c = packed_across_arms(gemm::gemm_nt_packed_with, &a, &b, "outer-block nt");
        let want = gemm_reference(&a, &b.transpose());
        let tol = 1e-12 * (1.0 + k as f64);
        assert!(
            c.max_abs_diff(&want) <= tol,
            "({m},{n},{k}): {:e}",
            c.max_abs_diff(&want)
        );
    }
}

/// Vendored `exp` stays within 2 ULP of `f64::exp` across the full
/// finite range: dense near zero, log-spaced across the normal range,
/// through the subnormal-result regime and both saturation edges.
#[test]
fn vendored_exp_full_range_ulp() {
    let mut worst = (0u64, 0.0f64);
    let mut check = |x: f64| {
        let d = ulp_diff(simd::exp::exp(x), x.exp());
        if d > worst.0 {
            worst = (d, x);
        }
    };
    // Dense near zero (reduction r ≈ x, n = 0 path).
    let mut x = -1.0;
    while x <= 1.0 {
        check(x);
        x += 1e-3;
    }
    // Whole normal range.
    let mut x = -709.0;
    while x <= 709.0 {
        check(x);
        check(x + 0.343);
        x += 0.761;
    }
    // Subnormal results: exp(x) < 2^-1022 for x < -708.39.
    let mut x = -745.13;
    while x <= -708.0 {
        check(x);
        x += 0.0137;
    }
    // Saturation edges.
    for &x in &[
        709.782712893384,
        709.7827128933841,
        -745.1332191019412,
        -745.133219101941,
        f64::MIN_POSITIVE,
        -f64::MIN_POSITIVE,
        5e-324,
        -5e-324,
    ] {
        check(x);
    }
    assert!(
        worst.0 <= 2,
        "max ulp {} at x = {:?}",
        worst.0,
        worst.1
    );
    // Non-finite edges are exact.
    assert_eq!(simd::exp::exp(f64::INFINITY), f64::INFINITY);
    assert_eq!(simd::exp::exp(f64::NEG_INFINITY), 0.0);
    assert!(simd::exp::exp(f64::NAN).is_nan());
}

/// The production dispatch only ever returns one of the two published
/// tables, and honours the `VQMC_SIMD=off`/`force-scalar` overrides.
#[test]
fn dispatch_returns_a_published_table() {
    let k = simd::kernels();
    let is_portable = std::ptr::eq(k, f64::portable_kernels());
    let is_avx = f64::table(Backend::Avx2Fma).map(|a| std::ptr::eq(k, a)).unwrap_or(false);
    let is_avx512 = f64::table(Backend::Avx512)
        .map(|a| std::ptr::eq(k, a))
        .unwrap_or(false);
    assert!(
        is_portable || is_avx || is_avx512,
        "kernels() returned an unknown table"
    );
    if cfg!(feature = "force-scalar") {
        assert!(is_portable, "force-scalar must pin the portable arm");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `sample_step_cols` — the fused batched AUTO bit step — is
    /// bit-identical per row to the unfused row path (`axpy` of the
    /// previous W₁ column, then `relu_dot`), and every vector arm agrees
    /// bit-for-bit with the portable one, across non-multiple `h`/`b`,
    /// first-bit (`w_prev = None`) and masked-update cases.
    #[test]
    fn sample_step_cols_matches_row_path(h in 0usize..133, b in 0usize..19, seed in 0u64..10_000, first_bit in 0u64..2) {
        let port = f64::portable_kernels();
        let mut rng = StdRng::seed_from_u64(seed ^ 0xC015);
        let zt: Vec<f64> = (0..h * b).map(|_| rng.gen_range(-3.0..3.0)).collect();
        let w_prev: Vec<f64> = (0..h).map(|_| rng.gen_range(-2.0..2.0)).collect();
        let w_out: Vec<f64> = (0..h).map(|_| rng.gen_range(-2.0..2.0)).collect();
        let mask: Vec<f64> = (0..b).map(|_| if rng.gen::<f64>() < 0.5 { 1.0 } else { 0.0 }).collect();
        let bias = rng.gen_range(-2.0..2.0);
        let first_bit = first_bit == 1;
        let wp = (!first_bit).then_some(&w_prev[..]);

        // Reference: per-row gather → axpy → relu_dot.
        let mut want_logits = vec![0.0f64; b];
        let mut want_zt = zt.clone();
        for r in 0..b {
            let mut row: Vec<f64> = (0..h).map(|j| zt[j * b + r]).collect();
            if !first_bit && mask[r] > 0.5 {
                (port.axpy)(&mut row, 1.0, &w_prev);
            }
            want_logits[r] = bias + (port.relu_dot)(&w_out, &row);
            for j in 0..h {
                want_zt[j * b + r] = row[j];
            }
        }

        let mut scratch = vec![0.0f64; 6 * b];
        let mut zt_p = zt.clone();
        let mut logits_p = vec![0.0f64; b];
        (port.sample_step_cols)(&mut zt_p, b, wp, &mask, &w_out, bias, &mut scratch, &mut logits_p);
        assert_bits_eq(&logits_p, &want_logits, "portable sample_step_cols logits");
        assert_bits_eq(&zt_p, &want_zt, "portable sample_step_cols panel");

        assert_step_cols_arms_match(&zt, b, wp, &mask, &w_out, bias, &zt_p, &logits_p, "");
    }
}

/// Every vector arm's `sample_step_cols` against the portable result
/// (`zt_p`, `logits_p`) on the same inputs, bit for bit.
#[allow(clippy::too_many_arguments)]
fn assert_step_cols_arms_match(
    zt: &[f64],
    b: usize,
    wp: Option<&[f64]>,
    mask: &[f64],
    w_out: &[f64],
    bias: f64,
    zt_p: &[f64],
    logits_p: &[f64],
    what: &str,
) {
    let mut scratch = vec![f64::NAN; 6 * b];
    for (arm, k) in vector_arms() {
        let mut zt_v = zt.to_vec();
        let mut logits_v = vec![0.0f64; b];
        (k.sample_step_cols)(&mut zt_v, b, wp, mask, w_out, bias, &mut scratch, &mut logits_v);
        assert_bits_eq(&logits_v, logits_p, &format!("{arm} sample_step_cols logits{what}"));
        assert_bits_eq(&zt_v, zt_p, &format!("{arm} sample_step_cols panel{what}"));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `signed_pair_sum` — one body stamped into every arm — agrees bit
    /// for bit across the portable, AVX2 and AVX-512 tables on random
    /// upper-triangle CSRs with wide-range weights, signed zeros and a
    /// non-zero starting accumulator.
    #[test]
    fn signed_pair_sum_bit_identical_across_arms(n in 0usize..70, density in 0u64..4, seed in 0u64..10_000) {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x51C4);
        let p = density as f64 / 3.0;
        let mut offsets = vec![0usize];
        let (mut cols, mut vals) = (Vec::new(), Vec::new());
        for i in 0..n {
            for j in (i + 1)..n {
                if rng.gen::<f64>() < p {
                    cols.push(j as u32);
                    vals.push(match rng.gen_range(0..8u32) {
                        0 => -0.0,
                        1 => 0.0,
                        _ => rng.gen_range(-1.0..1.0) * 10f64.powf(rng.gen_range(-200.0..200.0)),
                    });
                }
            }
            offsets.push(cols.len());
        }
        let masks: Vec<[u64; simd::PAIR_TILE]> = (0..n)
            .map(|_| std::array::from_fn(|_| u64::from(rng.gen::<bool>()) << 63))
            .collect();
        let acc0: [f64; simd::PAIR_TILE] = std::array::from_fn(|_| rng.gen_range(-1e3..1e3));

        let mut want = acc0;
        (f64::portable_kernels().signed_pair_sum)(&offsets, &cols, &vals, &masks, &mut want);
        for (arm, k) in [("avx2", f64::table(Backend::Avx2Fma)), ("avx512", f64::table(Backend::Avx512))] {
            if let Some(k) = k {
                let mut got = acc0;
                (k.signed_pair_sum)(&offsets, &cols, &vals, &masks, &mut got);
                assert_bits_eq(&got, &want, arm);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Same cross-arm identity on large panels, far past the 64 KiB
    /// traversal switch: every arm takes its hidden-major path (stripe
    /// accumulators in scratch instead of registers) for these shapes.
    #[test]
    fn sample_step_cols_large_panel_matches_portable(
        h in 48usize..100,
        b in 768usize..1100,
        seed in 0u64..10_000,
        first_bit in 0u64..2,
    ) {
        // Smallest shape is 48·768·8 = 294912 bytes.
        let port = f64::portable_kernels();
        let mut rng = StdRng::seed_from_u64(seed ^ 0xB16);
        let zt: Vec<f64> = (0..h * b).map(|_| rng.gen_range(-3.0..3.0)).collect();
        let w_prev: Vec<f64> = (0..h).map(|_| rng.gen_range(-2.0..2.0)).collect();
        let w_out: Vec<f64> = (0..h).map(|_| rng.gen_range(-2.0..2.0)).collect();
        let mask: Vec<f64> = (0..b).map(|_| if rng.gen::<f64>() < 0.5 { 1.0 } else { 0.0 }).collect();
        let bias = rng.gen_range(-2.0..2.0);
        let wp = (first_bit == 0).then_some(&w_prev[..]);

        let mut scratch = vec![0.0f64; 6 * b];
        let mut zt_p = zt.clone();
        let mut logits_p = vec![0.0f64; b];
        (port.sample_step_cols)(&mut zt_p, b, wp, &mask, &w_out, bias, &mut scratch, &mut logits_p);
        assert_step_cols_arms_match(&zt, b, wp, &mask, &w_out, bias, &zt_p, &logits_p, " (large)");
    }
}

/// Panel shapes straddling the 64 KiB register / hidden-major split
/// (`h·b·8` bytes) with row counts around multiples of 16 and 32, so
/// every arm's row groups, single vectors and one-lane row tail run on
/// both traversals: each vector arm stays bit-identical to the portable
/// kernel, and the portable kernel to the row path.
#[test]
fn sample_step_cols_traversal_split_bit_identical() {
    // (h, b): exactly 64 KiB (register), one unit past it (hidden-major),
    // and row tails of every width class on both sides.
    let shapes = [
        (128usize, 64usize),
        (129, 64),
        (256, 32),
        (257, 32),
        (64, 128),
        (64, 129),
        (40, 195),
        (43, 195),
        (8, 1023),
        (9, 1025),
        (510, 15),
        (511, 17),
        (67, 127),
    ];
    let port = f64::portable_kernels();
    for (h, b) in shapes {
        for first_bit in [true, false] {
            let mut rng = StdRng::seed_from_u64((h * 31 + b) as u64);
            let zt: Vec<f64> = (0..h * b).map(|_| rng.gen_range(-3.0..3.0)).collect();
            let w_prev: Vec<f64> = (0..h).map(|_| rng.gen_range(-2.0..2.0)).collect();
            let w_out: Vec<f64> = (0..h).map(|_| rng.gen_range(-2.0..2.0)).collect();
            let mask: Vec<f64> = (0..b)
                .map(|_| if rng.gen::<f64>() < 0.5 { 1.0 } else { 0.0 })
                .collect();
            let bias = rng.gen_range(-2.0..2.0);
            let wp = (!first_bit).then_some(&w_prev[..]);

            let mut scratch = vec![f64::NAN; 6 * b];
            let mut zt_p = zt.clone();
            let mut logits_p = vec![0.0f64; b];
            (port.sample_step_cols)(&mut zt_p, b, wp, &mask, &w_out, bias, &mut scratch, &mut logits_p);
            for r in 0..b {
                let mut row: Vec<f64> = (0..h).map(|j| zt[j * b + r]).collect();
                if !first_bit && mask[r] > 0.5 {
                    (port.axpy)(&mut row, 1.0, &w_prev);
                }
                let want = bias + (port.relu_dot)(&w_out, &row);
                assert_eq!(logits_p[r].to_bits(), want.to_bits(), "h={h} b={b} row {r}");
            }
            let what = format!(" h={h} b={b}");
            assert_step_cols_arms_match(&zt, b, wp, &mask, &w_out, bias, &zt_p, &logits_p, &what);
        }
    }
}

/// A slice shorter than the `sample_step_cols` contract panics on every
/// arm instead of reading or writing past its end.
#[test]
fn sample_step_cols_rejects_short_slices() {
    let (h, b) = (3usize, 5usize);
    let tables = std::iter::once(("portable", f64::portable_kernels())).chain(vector_arms());
    for (arm, k) in tables {
        // Which slice is one element short: zt, w_prev, prev_mask,
        // scratch, logits.
        for short in 0..5 {
            let len = |n: usize, which: usize| n - usize::from(short == which);
            let mut zt = vec![0.5; len(h * b, 0)];
            let w_prev = vec![0.25; len(h, 1)];
            let mask = vec![1.0; len(b, 2)];
            let mut scratch = vec![0.0; len(6 * b, 3)];
            let mut logits = vec![0.0; len(b, 4)];
            let w_out = vec![1.0; h];
            let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                (k.sample_step_cols)(&mut zt, b, Some(&w_prev), &mask, &w_out, 0.0, &mut scratch, &mut logits)
            }));
            assert!(run.is_err(), "{arm}: slice {short} short did not panic");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The cut the MADE sampler makes: when a weight row is masked (an
    /// exact ±0) from `live` on, reducing only its first `live` entries
    /// rounded up to [`KernelElem::STRIPES`] — or the whole row, once
    /// that rounding reaches the sequential tail block — gives the
    /// full reduction's bits.  Checked for `relu_dot` and for
    /// `sample_step_cols` without an update, both elements, every table
    /// on this host, panels on both sides of the traversal split.
    #[test]
    fn masked_suffix_cut_at_stripes_is_bit_exact(
        h in 0usize..150,
        b in 1usize..120,
        live_pct in 0usize..=100,
        seed in 0u64..10_000,
    ) {
        let live = h * live_pct / 100;
        assert_stripe_cut_exact::<f64>(h, b, live, seed);
        assert_stripe_cut_exact::<f32>(h, b, live, seed);
    }
}

/// [`masked_suffix_cut_at_stripes_is_bit_exact`] for element `E`.
fn assert_stripe_cut_exact<E: KernelElem + From<f32>>(h: usize, b: usize, live: usize, seed: u64) {
    let s = E::STRIPES;
    let cut = live.next_multiple_of(s);
    let cut = if cut <= h - h % s { cut } else { h };
    let mut rng = StdRng::seed_from_u64(seed ^ 0x57e1);
    let mut draw = |lo: f64, hi: f64| E::from(rng.gen_range(lo..hi) as f32);
    let w: Vec<E> = (0..h)
        .map(|j| match (j < live, j % 2) {
            (true, _) => draw(-2.0, 2.0),
            (false, 0) => E::from(0.0f32),
            (false, _) => E::from(-0.0f32),
        })
        .collect();
    let zt: Vec<E> = (0..h * b).map(|_| draw(-3.0, 3.0)).collect();
    let mask: Vec<E> = (0..b).map(|r| E::from((r % 2) as f32)).collect();
    let bias = 0.375;
    let arms = [Backend::Scalar, Backend::Avx2Fma, Backend::Avx512];
    for k in arms.into_iter().filter_map(E::table) {
        let arm = format!("{:?} {}", k.backend, std::any::type_name::<E>());
        let row = &zt[..h];
        let full = (k.relu_dot)(&w, row);
        let part = (k.relu_dot)(&w[..cut], &row[..cut]);
        assert_bits_eq(
            &[part],
            &[full],
            &format!("{arm} relu_dot h={h} live={live}"),
        );
        let mut scratch = vec![E::from(0.0f32); E::STEP_SCRATCH * b];
        let (mut want, mut got) = (vec![0.0; b], vec![0.0; b]);
        let mut panel = zt.clone();
        let mut step = |w: &[E], out: &mut [f64]| {
            (k.sample_step_cols)(&mut panel, b, None, &mask, w, bias, &mut scratch, out)
        };
        step(&w, &mut want);
        step(&w[..cut], &mut got);
        let what = format!("{arm} sample_step_cols h={h} b={b} live={live}");
        assert_bits_eq(&got, &want, &what);
    }
}
