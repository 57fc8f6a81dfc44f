//! Pinned output digests of the SIMD slice and reduction kernels.
//!
//! Every `Kernels` / `KernelsF32` entry for an elementwise slice
//! kernel or a reduction is run over one fixed input set, and its
//! output bits are hashed (FNV-1a, 64-bit; every NaN hashes as one
//! canonical pattern).  The constants below were captured before the
//! kernels were rewritten as one lane-generic body per kernel, and must
//! never change: a refactor that moves one output bit of one kernel on
//! one arm fails here.  The cross-arm property tests cannot catch that
//! when a shared body drifts on every arm at once.
//!
//! Inputs:
//!
//! * every length `0..=67` and 4096, mixing `±8`, `±700` and
//!   `1e-6`-scale values, so every tail length of a 4-, 8-, 16- and
//!   32-wide stripe is crossed;
//! * each exceptional value (`±0`, subnormals, `±354` and `±708` and
//!   their neighbours one ULP away, `±∞`, NaN) placed at every position
//!   of a two-chunk-plus-tail input, for 4- and 8-wide chunks.
//!
//! Every table the host publishes (`portable`, `avx2`, `avx512`) must
//! reproduce every digest, under any `VQMC_SIMD` setting and with
//! `--features force-scalar`.

use vqmc::tensor::simd::{self, Kernels, KernelsF32};

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

fn digests_f64(k: &Kernels, inputs: &[Vec<f64>]) -> Vec<(&'static str, u64)> {
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

fn digests_f32(k: &KernelsF32, inputs: &[Vec<f32>]) -> Vec<(&'static str, u64)> {
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

/// Pinned digests, in kernel order (f64 table, then f32 table).
const EXPECTED: [(&str, u64); 21] = [
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
    ("f32/sigmoid", 0xf4c4adf907e139af),
    ("f32/log_sigmoid", 0x68fb69464531989d),
    ("f32/ln_cosh", 0xff5802be305aa550),
    ("f32/exp", 0x795829b817b316e1),
    ("f32/sum", 0x4bbf42011161e9b3),
    ("f32/dot", 0x8c3e37a906d17157),
    ("f32/relu_dot", 0x41bedb6f37044cd8),
    ("f32/axpy", 0xc77f813981fb93c6),
];

#[test]
fn simd_kernel_output_is_pinned_on_every_arm() {
    let in64 = inputs(|v| v, &specials64());
    let in32 = inputs(|v| v as f32, &specials32());
    let arms: [(&str, Option<&Kernels>, Option<&KernelsF32>); 3] = [
        (
            "portable",
            Some(simd::portable_kernels()),
            Some(simd::portable_kernels_f32()),
        ),
        ("avx2", simd::avx2_kernels(), simd::avx2_kernels_f32()),
        ("avx512", simd::avx512_kernels(), simd::avx512_kernels_f32()),
    ];
    for (arm, k64, k32) in arms {
        let (Some(k64), Some(k32)) = (k64, k32) else {
            continue;
        };
        let mut got = digests_f64(k64, &in64);
        got.extend(digests_f32(k32, &in32));
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
