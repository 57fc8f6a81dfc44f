//! Pinned output digests of the SIMD slice, reduction and panel-step
//! kernels, and of the packed GEMM.
//!
//! Every `Kernels` / `Kernels<f32>` entry for an elementwise slice
//! kernel, a reduction or the fused `sample_step_cols` is run over one
//! fixed input set, and its output bits are hashed (FNV-1a, 64-bit;
//! every NaN hashes as one canonical pattern).  The constants below
//! were captured before the kernels were rewritten as one lane-generic
//! body per kernel, and must never change: a refactor that moves one
//! output bit of one kernel on one arm fails here.  The cross-arm
//! property tests cannot catch that when a shared body drifts on every
//! arm at once.
//!
//! Inputs:
//!
//! * every length `0..=67` and 4096, mixing `±8`, `±700` and
//!   `1e-6`-scale values, so every tail length of a 4-, 8-, 16- and
//!   32-wide stripe is crossed;
//! * each exceptional value (`±0`, subnormals, `±354` and `±708` and
//!   their neighbours one ULP away, `±∞`, NaN) placed at every position
//!   of a two-chunk-plus-tail input, for 4- and 8-wide chunks;
//! * for `sample_step_cols`, three chained bit steps (first bit, then
//!   two masked updates) over panel shapes that cross every row and
//!   unit tail class and both sides of the 64 KiB traversal split, with
//!   `±0` panel and weight entries (see `STEP_SHAPES`);
//! * for the packed GEMM (f64 `nt`/`nn`/`tn` through the
//!   `gemm_*_packed_with` seams, f32 `nt` through `gemm_nt_f32_with`,
//!   each with every table's microkernel), shapes that cross the 8-row
//!   tile, both tile widths, the `KC`, `MC` and `NC_PACKED` blocks and
//!   `k ∈ {0, 1}`, with `±0`, subnormal and large operands (see
//!   `GEMM_SHAPES`).  These constants were captured with the per-arm
//!   8×4 microkernels, before the f32 tile became 8×8;
//! * for the same four products, `n` around the 512-bit tile widths
//!   (16 `f64`, 32 `f32`) and the `NC_PACKED` panel, crossed with `m`
//!   around the 8-row tile and `k` around `KC` (see
//!   `WIDE_GEMM_SHAPES`).  These constants were captured while every
//!   table still ran the 256-bit tile (8×4 f64, 8×8 f32), before the
//!   AVX-512 table got its 8×16 / 8×32 stamp.
//!
//! Every table the host publishes (`portable`, `avx2`, `avx512`) must
//! reproduce every digest, under any `VQMC_SIMD` setting and with
//! `--features force-scalar`.

use vqmc::tensor::gemm;
use vqmc::tensor::simd::{Backend, GemmMicro, KernelElem, Kernels, SampleStepCols};
use vqmc::tensor::Matrix;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv1a(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

fn hash64(hash: u64, x: f64) -> u64 {
    let bits = if x.is_nan() { u64::MAX } else { x.to_bits() };
    fnv1a(hash, &bits.to_le_bytes())
}

fn hash32(hash: u64, x: f32) -> u64 {
    let bits = if x.is_nan() { u32::MAX } else { x.to_bits() };
    fnv1a(hash, &bits.to_le_bytes())
}

/// Deterministic mixed-scale values (splitmix64 stream).
fn base(len: usize, seed: u64) -> Vec<f64> {
    let mut s = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ 0x5eed;
    (0..len)
        .map(|i| {
            s = s.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = s;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^= z >> 31;
            let u = (z >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0;
            match i % 3 {
                0 => 8.0 * u,
                1 => 700.0 * u,
                _ => 1e-6 * u,
            }
        })
        .collect()
}

/// `x` and its neighbours one ULP away, both signs.
fn around64(x: f64) -> [f64; 6] {
    let (dn, up) = (
        f64::from_bits(x.to_bits() - 1),
        f64::from_bits(x.to_bits() + 1),
    );
    [dn, x, up, -dn, -x, -up]
}

fn around32(x: f32) -> [f32; 6] {
    let (dn, up) = (
        f32::from_bits(x.to_bits() - 1),
        f32::from_bits(x.to_bits() + 1),
    );
    [dn, x, up, -dn, -x, -up]
}

fn specials64() -> Vec<f64> {
    let mut s = vec![
        0.0,
        -0.0,
        f64::from_bits(1),
        -f64::from_bits(0x0008_0000_0000_0000),
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::NAN,
    ];
    s.extend(around64(354.0));
    s.extend(around64(708.0));
    s
}

fn specials32() -> Vec<f32> {
    let mut s = vec![
        0.0,
        -0.0,
        f32::from_bits(1),
        -f32::from_bits(0x0040_0000),
        f32::INFINITY,
        f32::NEG_INFINITY,
        f32::NAN,
    ];
    s.extend(around32(354.0));
    s.extend(around32(708.0));
    s
}

/// The length sweep, then each special at each position of a
/// `2·w + 3` input for chunk widths `w ∈ {4, 8}`.
fn inputs<T: Copy>(cast: fn(f64) -> T, specials: &[T]) -> Vec<Vec<T>> {
    let mut out: Vec<Vec<T>> = (0..=67usize)
        .chain([4096])
        .map(|len| base(len, len as u64).into_iter().map(cast).collect())
        .collect();
    for w in [4usize, 8] {
        let len = 2 * w + 3;
        for (k, &s) in specials.iter().enumerate() {
            for p in 0..len {
                let mut xs: Vec<T> = base(len, 10_000 + k as u64).into_iter().map(cast).collect();
                xs[p] = s;
                out.push(xs);
            }
        }
    }
    out
}

/// The second operand of the binary kernels: finite, mixed-scale.
fn partner<T>(xs: &[T], cast: fn(f64) -> T) -> Vec<T> {
    base(xs.len(), 77_777 + xs.len() as u64)
        .into_iter()
        .map(cast)
        .collect()
}

/// Digest of each input's output slice, in input order.
fn digest_out<T>(inputs: &[Vec<T>], hash: fn(u64, T) -> u64, f: impl Fn(&[T]) -> Vec<T>) -> u64 {
    inputs
        .iter()
        .fold(FNV_OFFSET, |h, xs| f(xs).into_iter().fold(h, hash))
}

/// Digest of each input's scalar result, in input order.
fn digest_val<T>(inputs: &[Vec<T>], f: impl Fn(&[T]) -> f64) -> u64 {
    inputs.iter().fold(FNV_OFFSET, |h, xs| hash64(h, f(xs)))
}

/// `f` applied in place to a copy of `xs`.
fn apply<T: Copy>(f: fn(&mut [T]), xs: &[T]) -> Vec<T> {
    let mut v = xs.to_vec();
    f(&mut v);
    v
}

fn digests_f64(k: &Kernels<f64>, inputs: &[Vec<f64>]) -> Vec<(&'static str, u64)> {
    let y = |xs: &[f64]| partner(xs, |v| v);
    vec![
        (
            "sigmoid",
            digest_out(inputs, hash64, |x| apply(k.sigmoid_slice, x)),
        ),
        (
            "log_sigmoid",
            digest_out(inputs, hash64, |x| apply(k.log_sigmoid_slice, x)),
        ),
        (
            "ln_cosh",
            digest_out(inputs, hash64, |x| apply(k.ln_cosh_slice, x)),
        ),
        (
            "tanh",
            digest_out(inputs, hash64, |x| apply(k.tanh_slice, x)),
        ),
        ("exp", digest_out(inputs, hash64, |x| apply(k.exp_slice, x))),
        ("sum", digest_val(inputs, |x| (k.sum)(x))),
        (
            "sq_dev_sum",
            digest_val(inputs, |x| (k.sq_dev_sum)(x, 0.37)),
        ),
        (
            "sum_exp_shifted/1.5",
            digest_val(inputs, |x| (k.sum_exp_shifted)(x, 1.5)),
        ),
        (
            "sum_exp_shifted/700",
            digest_val(inputs, |x| (k.sum_exp_shifted)(x, 700.0)),
        ),
        ("dot", digest_val(inputs, |x| (k.dot)(x, &y(x)))),
        ("relu_dot", digest_val(inputs, |x| (k.relu_dot)(&y(x), x))),
        (
            "axpy",
            digest_out(inputs, hash64, |x| {
                let mut v = y(x);
                (k.axpy)(&mut v, -0.75, x);
                v
            }),
        ),
        (
            "xpby",
            digest_out(inputs, hash64, |x| {
                let mut v = y(x);
                (k.xpby)(&mut v, 1.25, x);
                v
            }),
        ),
    ]
}

fn digests_f32(k: &Kernels<f32>, inputs: &[Vec<f32>]) -> Vec<(&'static str, u64)> {
    let y = |xs: &[f32]| partner(xs, |v| v as f32);
    vec![
        (
            "f32/sigmoid",
            digest_out(inputs, hash32, |x| apply(k.sigmoid_slice, x)),
        ),
        (
            "f32/log_sigmoid",
            digest_out(inputs, hash32, |x| apply(k.log_sigmoid_slice, x)),
        ),
        (
            "f32/ln_cosh",
            digest_out(inputs, hash32, |x| apply(k.ln_cosh_slice, x)),
        ),
        (
            "f32/exp",
            digest_out(inputs, hash32, |x| apply(k.exp_slice, x)),
        ),
        ("f32/sum", digest_val(inputs, |x| (k.sum)(x))),
        ("f32/dot", digest_val(inputs, |x| (k.dot)(x, &y(x)))),
        (
            "f32/relu_dot",
            digest_val(inputs, |x| (k.relu_dot)(&y(x), x)),
        ),
        (
            "f32/axpy",
            digest_out(inputs, hash32, |x| {
                let mut v = y(x);
                (k.axpy)(&mut v, -0.75, x);
                v
            }),
        ),
    ]
}

/// `(h, b)` shapes of the `sample_step_cols` digests: every `h % 4` /
/// `h % 8` and `b % 4..32` tail class, and both sides of the 64 KiB
/// traversal split for each element size — `(128, 64)` / `(129, 64)`
/// in f64, `(256, 64)` / `(257, 64)` in f32 — with tail rows and tail
/// units on the hidden-major side too.
const STEP_SHAPES: [(usize, usize); 16] = [
    (0, 5),
    (1, 1),
    (3, 7),
    (4, 8),
    (5, 15),
    (7, 17),
    (8, 16),
    (9, 31),
    (13, 33),
    (31, 47),
    (40, 65),
    (17, 100),
    (128, 64),
    (129, 64),
    (256, 64),
    (257, 64),
];

/// Extra hidden-major shapes with row tails (`h·b·8` resp. `h·b·4`
/// just past 64 KiB).
const STEP_SHAPES_F64_HM: [(usize, usize); 1] = [(103, 91)];
const STEP_SHAPES_F32_HM: [(usize, usize); 1] = [(191, 91)];

/// Panel-step inputs for one shape, as `f64`: panel, `w_prev`,
/// `w_out`, and three bits' masks.  Every seventh panel entry is `−0`
/// and every eleventh `+0`; masks mix `0`, `1`, `0.5` (off: the test
/// is `> 0.5`) and `0.75`.
fn step_inputs(h: usize, b: usize) -> (Vec<f64>, Vec<f64>, Vec<f64>, [Vec<f64>; 3]) {
    let seed = (h * 1000 + b) as u64;
    let zt: Vec<f64> = base(h * b, seed)
        .into_iter()
        .enumerate()
        .map(|(i, v)| match i {
            _ if i % 7 == 3 => -0.0,
            _ if i % 11 == 5 => 0.0,
            _ => v.clamp(-4.0, 4.0),
        })
        .collect();
    let w = |s: u64| -> Vec<f64> {
        base(h, s)
            .into_iter()
            .enumerate()
            .map(|(i, v)| {
                if i % 13 == 6 {
                    -0.0
                } else {
                    v.clamp(-2.0, 2.0)
                }
            })
            .collect()
    };
    let mask = |s: u64| -> Vec<f64> {
        base(b, s)
            .into_iter()
            .map(|v| match ((v.abs() * 1e9) as u64) % 4 {
                0 => 0.0,
                1 => 1.0,
                2 => 0.5,
                _ => 0.75,
            })
            .collect()
    };
    (
        zt,
        w(seed ^ 0x11),
        w(seed ^ 0x22),
        [mask(seed ^ 0x33), mask(seed ^ 0x44), mask(seed ^ 0x55)],
    )
}

/// The panel entry with `−0` canonicalised to `+0`: the AVX2 f64 arm
/// applies the masked update as `z + (w AND mask)`, which may turn a
/// masked-off `−0` into `+0` (invisible to every downstream use).
fn canon64(x: f64) -> f64 {
    if x == 0.0 {
        0.0
    } else {
        x
    }
}

fn canon32(x: f32) -> f32 {
    if x == 0.0 {
        0.0
    } else {
        x
    }
}

/// `(logits digest, panel digest)` of three chained bit steps (the
/// first bit without an update, then two updates) over each shape.
fn step_digests<T: Copy>(
    step: SampleStepCols<T>,
    shapes: &[(usize, usize)],
    cast: fn(f64) -> T,
    hash_panel: impl Fn(u64, T) -> u64,
    nan: T,
    scratch_per_row: usize,
) -> (u64, u64) {
    let (mut dl, mut dp) = (FNV_OFFSET, FNV_OFFSET);
    for &(h, b) in shapes {
        let (zt, w_prev, w_out, masks) = step_inputs(h, b);
        let conv = |v: &[f64]| -> Vec<T> { v.iter().map(|&x| cast(x)).collect() };
        let (mut zt, w_prev, w_out) = (conv(&zt), conv(&w_prev), conv(&w_out));
        let mut scratch = vec![nan; scratch_per_row * b];
        let mut logits = vec![f64::NAN; b];
        for (bit, mask) in masks.iter().enumerate() {
            let wp = (bit > 0).then_some(&w_prev[..]);
            let bias = 0.25 - bit as f64;
            step(
                &mut zt,
                b,
                wp,
                &conv(mask),
                &w_out,
                bias,
                &mut scratch,
                &mut logits,
            );
            dl = logits.iter().fold(dl, |d, &x| hash64(d, x));
        }
        dp = zt.iter().fold(dp, |d, &x| hash_panel(d, x));
    }
    (dl, dp)
}

fn step_digests_f64(k: &Kernels<f64>) -> Vec<(&'static str, u64)> {
    let shapes: Vec<_> = STEP_SHAPES
        .iter()
        .chain(&STEP_SHAPES_F64_HM)
        .copied()
        .collect();
    let (dl, dp) = step_digests(
        k.sample_step_cols,
        &shapes,
        |v| v,
        |d, x| hash64(d, canon64(x)),
        f64::NAN,
        6,
    );
    vec![
        ("sample_step_cols/logits", dl),
        ("sample_step_cols/panel", dp),
    ]
}

fn step_digests_f32(k: &Kernels<f32>) -> Vec<(&'static str, u64)> {
    let shapes: Vec<_> = STEP_SHAPES
        .iter()
        .chain(&STEP_SHAPES_F32_HM)
        .copied()
        .collect();
    let (dl, dp) = step_digests(
        k.sample_step_cols,
        &shapes,
        |v| v as f32,
        |d, x| hash32(d, canon32(x)),
        f32::NAN,
        10,
    );
    vec![
        ("f32/sample_step_cols/logits", dl),
        ("f32/sample_step_cols/panel", dp),
    ]
}

/// Pinned digests, in kernel order (f64 table, then f32 table).
const EXPECTED: [(&str, u64); 25] = [
    ("sigmoid", 0x24f7091f330b4a7f),
    ("log_sigmoid", 0x1056b550fa775403),
    ("ln_cosh", 0x5f286b8ef8ab1dc6),
    ("tanh", 0xd6d941dec2b77be4),
    ("exp", 0x92358292d3949954),
    ("sum", 0x02b8794a69449d60),
    ("sq_dev_sum", 0x2aa0497ab9dcd967),
    ("sum_exp_shifted/1.5", 0x8552ae9cf660983a),
    ("sum_exp_shifted/700", 0xd699aeeb44d67cdb),
    ("dot", 0xdd72a95591ae7d6b),
    ("relu_dot", 0xf8ff7ef9d2ff06a1),
    ("axpy", 0x2808f3099257254a),
    ("xpby", 0x398d52f29896af19),
    ("sample_step_cols/logits", 0x6c7a159c93962e6a),
    ("sample_step_cols/panel", 0x1baae7e27e64ae0b),
    ("f32/sigmoid", 0xf4c4adf907e139af),
    ("f32/log_sigmoid", 0x68fb69464531989d),
    ("f32/ln_cosh", 0xff5802be305aa550),
    ("f32/exp", 0x795829b817b316e1),
    ("f32/sum", 0x4bbf42011161e9b3),
    ("f32/dot", 0x8c3e37a906d17157),
    ("f32/relu_dot", 0x41bedb6f37044cd8),
    ("f32/axpy", 0xc77f813981fb93c6),
    ("f32/sample_step_cols/logits", 0x1a2bca1e820d933e),
    ("f32/sample_step_cols/panel", 0x199c58a9bfd32b05),
];

/// Every published table this host can run, both elements, by arm.
fn arms() -> impl Iterator<Item = (&'static str, &'static Kernels<f64>, &'static Kernels<f32>)> {
    let arms = [
        ("portable", Backend::Scalar),
        ("avx2", Backend::Avx2Fma),
        ("avx512", Backend::Avx512),
    ];
    arms.into_iter()
        .filter_map(|(name, arm)| Some((name, f64::table(arm)?, f32::table(arm)?)))
}

#[test]
fn simd_kernel_output_is_pinned_on_every_arm() {
    let in64 = inputs(|v| v, &specials64());
    let in32 = inputs(|v| v as f32, &specials32());
    for (arm, k64, k32) in arms() {
        let mut got = digests_f64(k64, &in64);
        got.extend(step_digests_f64(k64));
        got.extend(digests_f32(k32, &in32));
        got.extend(step_digests_f32(k32));
        let table: String = got
            .iter()
            .map(|(name, d)| format!("    (\"{name}\", {d:#018x}),\n"))
            .collect();
        assert_eq!(got.len(), EXPECTED.len(), "kernel list changed");
        for (&(name, d), &(want_name, want)) in got.iter().zip(&EXPECTED) {
            assert_eq!(name, want_name, "kernel order changed");
            assert_eq!(
                d, want,
                "{arm} {name}: kernel output moved; current table:\n{table}"
            );
        }
    }
}

/// `(m, n, k)` shapes of the packed-GEMM digests: `m` around the
/// 8-row microtile and the 256-row `MC` block, `n` around both tile
/// widths (4 f64, 8 f32) and the 2 048-column `NC_PACKED` panel, `k`
/// around the 256-deep `KC` block, plus empty operands and `k ∈ {0, 1}`.
const GEMM_SHAPES: [(usize, usize, usize); 24] = [
    (0, 5, 3),
    (4, 0, 3),
    (5, 7, 0),
    (9, 5, 1),
    (1, 1, 1),
    (7, 3, 2),
    (8, 4, 8),
    (8, 8, 5),
    (9, 9, 13),
    (15, 15, 7),
    (16, 16, 9),
    (17, 17, 31),
    (23, 5, 64),
    (10, 11, 256),
    (11, 10, 257),
    (9, 13, 513),
    (256, 7, 4),
    (257, 6, 4),
    (263, 9, 3),
    (257, 9, 260),
    (9, 2048, 3),
    (9, 2049, 3),
    (3, 2056, 2),
    (5, 2049, 257),
];

/// `(m, n, k)` shapes of the wide-tile packed-GEMM digests: every
/// `n` in `WIDE_N` (around the 16-`f64` and 32-`f32` tile widths and
/// their multiples, and the 2 048-column `NC_PACKED` panel) crossed
/// with `m ∈ MR_SIMD−1..=MR_SIMD+1` and `k ∈ KC−1..=KC+1`.
const WIDE_GEMM_SHAPES: [(usize, usize, usize); 90] = {
    const WIDE_N: [usize; 10] = [15, 16, 17, 31, 32, 33, 47, 49, 2047, 2049];
    let mut shapes = [(0, 0, 0); 90];
    let mut i = 0;
    while i < shapes.len() {
        let (m, k) = (gemm::MR_SIMD - 1 + i % 3, gemm::KC - 1 + i / 3 % 3);
        shapes[i] = (m, WIDE_N[i / 9], k);
        i += 1;
    }
    shapes
};

/// A `rows × cols` GEMM operand: mixed-scale values with `−0`, `+0`,
/// subnormals and `±big` scattered through it.
fn gemm_operand(rows: usize, cols: usize, seed: u64, tiny: f64, big: f64) -> Vec<f64> {
    base(rows * cols, seed)
        .into_iter()
        .enumerate()
        .map(|(i, v)| match i {
            _ if i % 7 == 3 => -0.0,
            _ if i % 11 == 5 => 0.0,
            _ if i % 13 == 6 => tiny * (1 + i % 5) as f64 * if i % 2 == 0 { 1.0 } else { -1.0 },
            _ if i % 17 == 8 => big * if v < 0.0 { -1.0 } else { 1.0 },
            _ => v,
        })
        .collect()
}

/// Digest of `C` over every entry of `shapes`, for a product that
/// takes `(a, b, m, n, k)` with `a` and `b` already shaped for it.
fn gemm_digest<T: Copy>(
    shapes: &[(usize, usize, usize)],
    salt: u64,
    cast: fn(f64) -> T,
    hash: fn(u64, T) -> u64,
    tiny: f64,
    big: f64,
    product: impl Fn(&[T], &[T], usize, usize, usize) -> Vec<T>,
) -> u64 {
    shapes.iter().fold(FNV_OFFSET, |d, &(m, n, k)| {
        let seed = (m * 1_000_000 + n * 1000 + k) as u64 ^ salt << 40;
        let a: Vec<T> = gemm_operand(m, k, seed ^ 0xa, tiny, big)
            .into_iter()
            .map(cast)
            .collect();
        let b: Vec<T> = gemm_operand(k, n, seed ^ 0xb, tiny, big)
            .into_iter()
            .map(cast)
            .collect();
        product(&a, &b, m, n, k).into_iter().fold(d, hash)
    })
}

fn gemm_digests_f64(
    shapes: &[(usize, usize, usize)],
    micro: GemmMicro<f64>,
) -> Vec<(&'static str, u64)> {
    type Seam = fn(&Matrix, &Matrix, &mut Matrix, GemmMicro<f64>);
    // Each variant reads the same `m×k` / `k×n` values in its own layout.
    let run = |seam: Seam, salt: u64, a_t: bool, b_t: bool| {
        gemm_digest(
            shapes,
            salt,
            |v| v,
            hash64,
            f64::from_bits(3),
            1e100,
            |a, b, m, n, k| {
                let a = Matrix::from_vec(m, k, a.to_vec());
                let b = Matrix::from_vec(k, n, b.to_vec());
                let a = if a_t { a.transpose() } else { a };
                let b = if b_t { b.transpose() } else { b };
                let mut c = Matrix::zeros(0, 0);
                seam(&a, &b, &mut c, micro);
                assert_eq!(c.shape(), (m, n));
                c.as_slice().to_vec()
            },
        )
    };
    vec![
        ("gemm_nt", run(gemm::gemm_nt_packed_with, 1, false, true)),
        ("gemm_nn", run(gemm::gemm_nn_packed_with, 2, false, false)),
        ("gemm_tn", run(gemm::gemm_tn_packed_with, 3, true, false)),
    ]
}

fn gemm_digest_f32(shapes: &[(usize, usize, usize)], micro: GemmMicro<f32>) -> (&'static str, u64) {
    let d = gemm_digest(
        shapes,
        4,
        |v| v as f32,
        hash32,
        f32::from_bits(3) as f64,
        1e18,
        |a, b, m, n, k| {
            // `gemm_nt_f32` takes `B` as `n×k`.
            let bt: Vec<f32> = (0..n * k).map(|i| b[(i % k) * n + i / k]).collect();
            let mut c = vec![f32::NAN; m * n];
            gemm::gemm_nt_f32_with(m, n, k, a, &bt, &mut c, micro);
            c
        },
    );
    ("f32/gemm_nt", d)
}

/// Pinned packed-GEMM digests (f64 `nt`/`nn`/`tn`, then f32 `nt`).
const EXPECTED_GEMM: [(&str, u64); 4] = [
    ("gemm_nt", 0x2316bb793308349e),
    ("gemm_nn", 0xc9ca062971d3fb82),
    ("gemm_tn", 0x7bd96da4b5b196f2),
    ("f32/gemm_nt", 0xe0f3a50922f45b18),
];

/// Pinned wide-tile packed-GEMM digests over [`WIDE_GEMM_SHAPES`]
/// (f64 `nt`/`nn`/`tn`, then f32 `nt`).
const EXPECTED_WIDE_GEMM: [(&str, u64); 4] = [
    ("gemm_nt", 0x1358fad5637f584c),
    ("gemm_nn", 0x9b7f1c8d4d4f92bb),
    ("gemm_tn", 0x092f88cfc8ae3177),
    ("f32/gemm_nt", 0xfa350fb2488359bb),
];

/// Every published table's packed GEMM, through its
/// explicit-microkernel seams, must reproduce `expected` over `shapes`
/// in both precisions.
fn assert_gemm_pinned(shapes: &[(usize, usize, usize)], expected: &[(&str, u64); 4]) {
    for (arm, k64, k32) in arms() {
        let mut got = gemm_digests_f64(shapes, k64.gemm_micro);
        got.push(gemm_digest_f32(shapes, k32.gemm_micro));
        let table: String = got
            .iter()
            .map(|(name, d)| format!("    (\"{name}\", {d:#018x}),\n"))
            .collect();
        for (&(name, d), &(want_name, want)) in got.iter().zip(expected) {
            assert_eq!(name, want_name, "kernel order changed");
            assert_eq!(
                d, want,
                "{arm} {name}: GEMM output moved; current table:\n{table}"
            );
        }
    }
}

/// The packed GEMM over [`GEMM_SHAPES`] on every published table.
#[test]
fn packed_gemm_output_is_pinned_on_every_arm() {
    assert_gemm_pinned(&GEMM_SHAPES, &EXPECTED_GEMM);
}

/// The packed GEMM over [`WIDE_GEMM_SHAPES`], which straddle the
/// AVX-512 tile widths, on every published table.
#[test]
fn wide_packed_gemm_output_is_pinned_on_every_arm() {
    assert_gemm_pinned(&WIDE_GEMM_SHAPES, &EXPECTED_WIDE_GEMM);
}
