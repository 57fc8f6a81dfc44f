//! Pinned output digests of the batched MADE sampler.
//!
//! Every case draws a batch and hashes (FNV-1a, 64-bit) the drawn bits
//! followed by each row's `logψ.to_bits()`.  The constants below were
//! captured before the panel sampler was refactored and must never
//! change: a refactor that moves one bit of one sample fails here.
//!
//! The grid covers depth {1, 2, 3} × precision {F64, F32} × three
//! shapes chosen for the depth-1 f64 dispatch:
//!
//! * `small` — 5 rows, below the cols threshold (row path);
//! * `cols`  — 40 rows of a narrow model (transposed panel path,
//!   striped over the pool);
//! * `capped` — 264 rows at h = 256, whose panel overflows the
//!   per-worker L2 cap at one thread (row fallback) but not at two or
//!   four (cols path),
//!
//! each drawn both as one caller-owned stream and as three coalesced
//! seeded requests, under `par::with_threads` 1, 2 and 4.  All widths
//! must produce the same digest, and the digests hold on every SIMD
//! arm (`VQMC_SIMD=off`, `force-scalar`).
//!
//! Those shapes all have `h ≥ n − 1`, where the round-robin degrees
//! wrap and almost every weight row is live to its end.  A second grid
//! ([`NARROW_SHAPES`]) pins the same three dispatch shapes at
//! `h₁ < n − 1`, where each unit has its own degree and most of every
//! mask is structural zero — the regime in which the sampler skips the
//! masked ranges.

use rand::rngs::StdRng;
use rand::SeedableRng;
use vqmc::nn::{Autoregressive, Made, MadeF32, MadeF32Workspace, WaveFunction};
use vqmc::sampler::{BatchSampler, SampleOutput, SampleRequest};
use vqmc::tensor::{par, simd, Matrix, Precision, SpinBatch, Vector, Workspace};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv1a(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

fn digest(hash: u64, batch: &SpinBatch, log_psi: &Vector) -> u64 {
    let mut hash = fnv1a(hash, batch.as_bytes());
    for lp in log_psi.iter() {
        hash = fnv1a(hash, &lp.to_bits().to_le_bytes());
    }
    hash
}

/// `(name, spins, first hidden width, rows)`.
const SHAPES: [(&str, usize, usize, usize); 3] = [
    ("small", 9, 12, 5),
    ("cols", 10, 16, 40),
    ("capped", 6, 256, 264),
];

/// Hidden widths of a depth-`depth` stack whose first layer is `h1`.
fn hidden(h1: usize, depth: usize) -> Vec<usize> {
    (1..=depth).map(|l| (h1 / l).max(1)).collect()
}

/// One case's digest: a stream call, then a three-request coalesced
/// call over the same total row count, hashed in that order.
fn case_digest(wf: &Made, precision: Precision, rows: usize, seed: u64) -> u64 {
    let mut bs = BatchSampler::new();
    bs.set_precision(precision);
    let mut out = SampleOutput::default();
    bs.sample_stream_into(wf, rows, &mut StdRng::seed_from_u64(seed), &mut out);
    let hash = digest(FNV_OFFSET, &out.batch, &out.log_psi);

    let first = rows / 4;
    let second = rows / 2;
    let reqs = [
        SampleRequest {
            count: first,
            seed: seed + 1,
        },
        SampleRequest {
            count: second - first,
            seed: seed + 2,
        },
        SampleRequest {
            count: rows - second,
            seed: seed + 3,
        },
    ];
    let mut batch = SpinBatch::default();
    let mut log_psi = Vector::default();
    bs.sample_requests(wf, &reqs, &mut batch, &mut log_psi);
    digest(hash, &batch, &log_psi)
}

/// Pinned digests, in `(depth, precision, shape)` iteration order.
const EXPECTED: [(&str, u64); 18] = [
    ("d1/F64/small", 0x8886192293d5faa1),
    ("d1/F64/cols", 0xa561d06af431e51a),
    ("d1/F64/capped", 0xa8ed75909c46a96e),
    ("d1/F32/small", 0x1432a8e8a14705a5),
    ("d1/F32/cols", 0x4e6616523bd41073),
    ("d1/F32/capped", 0x59f744adf449b82f),
    ("d2/F64/small", 0x9a0e335822ffeaf7),
    ("d2/F64/cols", 0x7c707193fa5c43b6),
    ("d2/F64/capped", 0xa295f7a4440f936a),
    ("d2/F32/small", 0x0db6ca43b15d6f6d),
    ("d2/F32/cols", 0xcfdcc05efd61abba),
    ("d2/F32/capped", 0xe74b6ae3601f2b41),
    ("d3/F64/small", 0x58001e0531d4a7a5),
    ("d3/F64/cols", 0xa6cb02eb38359388),
    ("d3/F64/capped", 0x18f5486731296385),
    ("d3/F32/small", 0x3b299c7b871663d6),
    ("d3/F32/cols", 0x62822becb90918d7),
    ("d3/F32/capped", 0x4a1b7f42ec8b5b03),
];

/// `(name, spins, first hidden width, rows)` at `h₁ < n − 1`: the row
/// path (5 rows), the cols path (40 rows) and the L2-capped shape (a
/// 528 KiB panel: row fallback at one thread, cols from two up).
const NARROW_SHAPES: [(&str, usize, usize, usize); 3] = [
    ("narrow_small", 300, 64, 5),
    ("narrow_cols", 300, 64, 40),
    ("narrow_capped", 300, 64, 1032),
];

/// Pinned narrow digests, in `(depth, precision, shape)` iteration
/// order; captured before the sampler learned to skip masked ranges.
const NARROW_EXPECTED: [(&str, u64); 18] = [
    ("d1/F64/narrow_small", 0x638d4d85e293039b),
    ("d1/F64/narrow_cols", 0xa8b864c1aa897e30),
    ("d1/F64/narrow_capped", 0x9c34eb24e75fb787),
    ("d1/F32/narrow_small", 0xc4c1e1ffdc715739),
    ("d1/F32/narrow_cols", 0x7eede989423a51af),
    ("d1/F32/narrow_capped", 0x2648e011831c139c),
    ("d2/F64/narrow_small", 0xb8326f4609eb5216),
    ("d2/F64/narrow_cols", 0x11e1256d01aa0614),
    ("d2/F64/narrow_capped", 0xaa8d0fb498e4f1de),
    ("d2/F32/narrow_small", 0x04c157cac1608c66),
    ("d2/F32/narrow_cols", 0x066e5a86e615e52b),
    ("d2/F32/narrow_capped", 0xdefa4fe6c34ebdee),
    ("d3/F64/narrow_small", 0x116d872d739a7077),
    ("d3/F64/narrow_cols", 0xeed4b86a02b1cdda),
    ("d3/F64/narrow_capped", 0x815695f9fa02718e),
    ("d3/F32/narrow_small", 0x4326d6aadaf51900),
    ("d3/F32/narrow_cols", 0x1ab6c181c1eeb9b7),
    ("d3/F32/narrow_capped", 0xe1c6006c3303e85c),
];

#[test]
fn made_sampler_output_is_pinned_at_every_width() {
    assert_grid_pinned(&SHAPES, 0, &EXPECTED);
}

#[test]
fn narrow_made_sampler_output_is_pinned_at_every_width() {
    assert_grid_pinned(&NARROW_SHAPES, 10, &NARROW_EXPECTED);
}

/// Draws every `(depth, precision, shape)` case of `shapes` at 1, 2 and
/// 4 threads, asserts the widths agree, then checks the digests against
/// `expected`.  Case `i` of a depth is seeded `100·depth + seed_base + i`.
fn assert_grid_pinned(
    shapes: &[(&str, usize, usize, usize)],
    seed_base: u64,
    expected: &[(&str, u64)],
) {
    let mut cases = Vec::new();
    for depth in 1..=3usize {
        for precision in [Precision::F64, Precision::F32] {
            for (i, &(shape, n, h1, rows)) in shapes.iter().enumerate() {
                let seed = 100 * depth as u64 + seed_base + i as u64;
                let wf = Made::with_hidden(n, &hidden(h1, depth), seed);
                cases.push((
                    format!("d{depth}/{precision:?}/{shape}"),
                    wf,
                    precision,
                    rows,
                    seed,
                ));
            }
        }
    }
    let mut actual = Vec::new();
    for threads in [1usize, 2, 4] {
        let digests: Vec<u64> = par::with_threads(threads, || {
            cases
                .iter()
                .map(|(_, wf, precision, rows, seed)| case_digest(wf, *precision, *rows, *seed))
                .collect()
        });
        actual.push(digests);
    }
    let table: String = cases
        .iter()
        .zip(&actual[0])
        .map(|((name, ..), d)| format!("    (\"{name}\", {d:#018x}),\n"))
        .collect();
    for (t, digests) in actual.iter().enumerate() {
        assert_eq!(digests, &actual[0], "width index {t} differs from width 1");
    }
    assert_eq!(cases.len(), expected.len(), "case count changed");
    for ((name, ..), (&got, &(want_name, want))) in cases.iter().zip(actual[0].iter().zip(expected))
    {
        assert_eq!(name, want_name, "case order changed");
        assert_eq!(
            got, want,
            "{name}: sampler output moved; current table:\n{table}"
        );
    }
}

/// `(spins, first hidden width, batch rows)` of the forward-pass
/// digests: n = 129 and 300 cross the pairwise-summation base block
/// (128), and the n = 300 GEMMs clear the pool's FLOP gate at four
/// threads.
const FORWARD_SHAPES: [(usize, usize, usize); 3] = [(10, 12, 9), (129, 40, 33), (300, 64, 64)];

/// FNV-1a over the bits of every element.
fn digest_f64s(hash: u64, xs: &[f64]) -> u64 {
    xs.iter()
        .fold(hash, |h, x| fnv1a(h, &x.to_bits().to_le_bytes()))
}

/// The input batch of the forward and per-sample-gradient digests.
fn digest_batch(rows: usize, n: usize) -> SpinBatch {
    SpinBatch::from_fn(rows, n, |s, i| ((s * 31 + i * 17 + s * i) % 7 < 3) as u8)
}

/// One forward case's digests: f64 `log_psi_into`, `conditionals_into`
/// and `weighted_log_psi_grad_into` hashed in that order, then the f32
/// `log_psi_into` on its own.
fn forward_digests(wf: &Made, rows: usize) -> (u64, u64) {
    let n = wf.num_spins();
    let batch = digest_batch(rows, n);
    let weights = Vector::from_fn(rows, |s| 0.25 + ((s * 13) % 11) as f64 / 7.0);
    let mut ws = Workspace::new();
    let (mut lp, mut grad, mut cond) = (Vector::default(), Vector::default(), Matrix::default());
    wf.log_psi_into(&batch, &mut ws, &mut lp);
    wf.conditionals_into(&batch, &mut ws, &mut cond);
    wf.weighted_log_psi_grad_into(&batch, &weights, &mut ws, &mut grad);
    let mut h64 = digest_f64s(FNV_OFFSET, lp.as_slice());
    h64 = digest_f64s(h64, cond.as_slice());
    h64 = digest_f64s(h64, grad.as_slice());

    let mut lp32 = Vector::default();
    MadeF32::for_log_psi(wf).log_psi_into(&batch, &mut MadeF32Workspace::new(), &mut lp32);
    (h64, digest_f64s(FNV_OFFSET, lp32.as_slice()))
}

/// Pinned forward digests, in `(shape, depth, precision)` order:
/// `(name, portable table, vector tables)`.  The f64 GEMM rounds
/// differently on the portable table (scalar loop nest) than on the
/// vector tables (packed driver); the f32 GEMM is packed on every
/// table, so its two columns agree.
const FORWARD_EXPECTED: [(&str, u64, u64); 12] = [
    ("n10/d1/F64", 0x2b92c41899445fcc, 0x1dbb59c2335fa070),
    ("n10/d1/F32", 0x56c7554a8310daaf, 0x56c7554a8310daaf),
    ("n10/d2/F64", 0x1aaca2ef3628802f, 0x1aaca2ef3628802f),
    ("n10/d2/F32", 0xf12214b2a7b649ed, 0xf12214b2a7b649ed),
    ("n129/d1/F64", 0x73a42ab31ecbccfd, 0x16bbdeaa858918b9),
    ("n129/d1/F32", 0xc1c96bfa0750b7fb, 0xc1c96bfa0750b7fb),
    ("n129/d2/F64", 0x91e3d4cd9c59b004, 0xe6e155e73431afca),
    ("n129/d2/F32", 0x5d7306ece00fb164, 0x5d7306ece00fb164),
    ("n300/d1/F64", 0x4fa74b85c1479530, 0xeb30c0916682a72c),
    ("n300/d1/F32", 0xc4c69fcfe10eb8df, 0xc4c69fcfe10eb8df),
    ("n300/d2/F64", 0x79a1f003700667d9, 0xbc978ebc2db627dc),
    ("n300/d2/F32", 0xa60044dca71b58cf, 0xa60044dca71b58cf),
];

#[test]
fn made_forward_output_is_pinned_at_every_width() {
    let vector_table = simd::backend() != simd::Backend::Scalar;
    let mut names = Vec::new();
    let mut actual = Vec::new();
    for threads in [1usize, 4] {
        let mut digests = Vec::new();
        par::with_threads(threads, || {
            for &(n, h1, rows) in &FORWARD_SHAPES {
                for depth in 1..=2usize {
                    let wf = Made::with_hidden(n, &hidden(h1, depth), n as u64 + depth as u64);
                    let (d64, d32) = forward_digests(&wf, rows);
                    if threads == 1 {
                        names.push(format!("n{n}/d{depth}/F64"));
                        names.push(format!("n{n}/d{depth}/F32"));
                    }
                    digests.extend([d64, d32]);
                }
            }
        });
        actual.push(digests);
    }
    assert_eq!(actual[1], actual[0], "four threads differ from one");
    let table: String = names
        .iter()
        .zip(&actual[0])
        .map(|(name, d)| format!("    (\"{name}\", {d:#018x}),\n"))
        .collect();
    for ((name, &got), &(want_name, portable, vector)) in
        names.iter().zip(&actual[0]).zip(&FORWARD_EXPECTED)
    {
        assert_eq!(name, want_name, "case order changed");
        let want = if vector_table { vector } else { portable };
        assert_eq!(
            got,
            want,
            "{name}: forward output moved on the {} table; current column:\n{table}",
            if vector_table { "vector" } else { "portable" }
        );
    }
}

/// Pinned `per_sample_grads_into` digests — the rows SR's Gram matrix
/// is built from — in `(shape, depth)` order: `(name, portable table,
/// vector tables)`.  Same shapes and batch as the forward digests
/// (n = 129 and 300 are narrow, `h₁ < n − 1`), at depths 1–3; the rows'
/// masked entries are hashed too, so a mask read that moved one entry
/// (or one zero's sign) fails here.
const PER_SAMPLE_EXPECTED: [(&str, u64, u64); 9] = [
    ("n10/d1", 0xd3850c857cf69415, 0x800df8056640d525),
    ("n10/d2", 0x0fbb18f1dccca270, 0x0fbb18f1dccca270),
    ("n10/d3", 0x2f5e85b271252352, 0x91060e99a77a2966),
    ("n129/d1", 0x0c42d16aa7773883, 0xe95833bb85118773),
    ("n129/d2", 0x62410bf922c900e1, 0xbbfe0433ce88ccaa),
    ("n129/d3", 0x0dccdbc1b1953148, 0xe2b3c130d77a7d80),
    ("n300/d1", 0xa5fae9ba2104809f, 0x71b48057a5383030),
    ("n300/d2", 0xf071052f1a50ee5a, 0xab6c2c1619e6537f),
    ("n300/d3", 0xb245f568dc366495, 0x6ae1a7c9b20c70af),
];

#[test]
fn made_per_sample_grads_are_pinned_at_every_width() {
    let vector_table = simd::backend() != simd::Backend::Scalar;
    let mut names = Vec::new();
    let mut actual = Vec::new();
    for threads in [1usize, 4] {
        let mut digests = Vec::new();
        par::with_threads(threads, || {
            for &(n, h1, rows) in &FORWARD_SHAPES {
                for depth in 1..=3usize {
                    let wf = Made::with_hidden(n, &hidden(h1, depth), n as u64 + depth as u64);
                    let mut grads = Matrix::default();
                    wf.per_sample_grads_into(
                        &digest_batch(rows, n),
                        &mut Workspace::new(),
                        &mut grads,
                    );
                    if threads == 1 {
                        names.push(format!("n{n}/d{depth}"));
                    }
                    digests.push(digest_f64s(FNV_OFFSET, grads.as_slice()));
                }
            }
        });
        actual.push(digests);
    }
    assert_eq!(actual[1], actual[0], "four threads differ from one");
    let table: String = names
        .iter()
        .zip(&actual[0])
        .map(|(name, d)| format!("    (\"{name}\", {d:#018x}),\n"))
        .collect();
    for ((name, &got), &(want_name, portable, vector)) in
        names.iter().zip(&actual[0]).zip(&PER_SAMPLE_EXPECTED)
    {
        assert_eq!(name, want_name, "case order changed");
        let want = if vector_table { vector } else { portable };
        assert_eq!(
            got,
            want,
            "{name}: per-sample gradients moved on the {} table; current column:\n{table}",
            if vector_table { "vector" } else { "portable" }
        );
    }
}
