//! Micro-benchmarks of the dense kernels: GEMM variants across sizes
//! straddling the rayon crossover threshold, validating the
//! `PAR_THRESHOLD_ELEMS` design choice called out in DESIGN.md, a
//! naive / blocked-scalar / packed-SIMD `gemm_nt` comparison at the
//! EXPERIMENTS.md acceptance shape (m,k,n) = (1024,512,512), and the
//! transcendental slice kernels (SIMD arm vs portable scalar arm).
//!
//! Run with `BENCH_JSON=BENCH_kernels.json cargo bench --bench
//! bench_tensor` to refresh the machine-readable medians.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use vqmc_tensor::simd::KernelElem;
use vqmc_tensor::vector::dot;
use vqmc_tensor::{gemm, ops, par, simd, Matrix};

fn mat(rows: usize, cols: usize, seed: u64) -> Matrix {
    let mut state = seed | 1;
    Matrix::from_fn(rows, cols, |_, _| {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state % 1000) as f64 / 500.0 - 1.0
    })
}

/// The pre-blocking `gemm_nt` inner loop (one dot product per output
/// element), kept as the durable "before" baseline for the blocked
/// kernel's speedup numbers.
fn gemm_nt_naive(a: &Matrix, b: &Matrix) -> Matrix {
    let (m, k) = a.shape();
    let (n, kb) = b.shape();
    assert_eq!(k, kb);
    let mut c = Matrix::zeros(m, n);
    for r in 0..m {
        let a_row = a.row(r);
        let c_row = c.row_mut(r);
        for (j, c_val) in c_row.iter_mut().enumerate() {
            *c_val = dot(a_row, b.row(j));
        }
    }
    c
}

fn bench_gemm(c: &mut Criterion) {
    let mut group = c.benchmark_group("gemm_nt");
    // Shapes mirroring the FC forward pass Y[bs,h] = X[bs,n] W[h,n]^T at
    // the paper's policy h = 5(ln n)^2.
    for &(bs, n) in &[(64usize, 50usize), (256, 100), (1024, 200)] {
        let h = {
            let ln = (n as f64).ln();
            (5.0 * ln * ln).round() as usize
        };
        let x = mat(bs, n, 1);
        let w = mat(h, n, 2);
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("bs{bs}_n{n}_h{h}")),
            &(x, w),
            |b, (x, w)| b.iter(|| black_box(gemm::gemm_nt(x, w))),
        );
    }
    group.finish();
}

fn bench_gemm_variants(c: &mut Criterion) {
    let mut group = c.benchmark_group("gemm_variants_256");
    let a = mat(256, 256, 3);
    let b_ = mat(256, 256, 4);
    group.bench_function("nt", |bch| bch.iter(|| black_box(gemm::gemm_nt(&a, &b_))));
    group.bench_function("nn", |bch| bch.iter(|| black_box(gemm::gemm_nn(&a, &b_))));
    group.bench_function("tn", |bch| bch.iter(|| black_box(gemm::gemm_tn(&a, &b_))));
    group.bench_function("reference", |bch| {
        bch.iter(|| black_box(gemm::gemm_reference(&a, &b_)))
    });
    group.finish();
}

fn bench_gemm_blocked_vs_naive(c: &mut Criterion) {
    // The acceptance shape: C[1024,512] = A[1024,512] · B[512,512]^T.
    // "blocked" / "blocked_into" pin the scalar 4×4 loop nest (the
    // pre-SIMD baseline); "simd" is the production dispatch, i.e. the
    // packed microkernel (8×4 on AVX2 hosts, 8×16 on AVX-512 hosts).
    let mut group = c.benchmark_group("gemm_nt_1024x512x512");
    group.sample_size(10);
    let a = mat(1024, 512, 5);
    let b_ = mat(512, 512, 6);
    group.bench_function("blocked", |bch| {
        bch.iter(|| {
            let mut out = Matrix::zeros(1024, 512);
            gemm::gemm_nt_blocked_scalar_into(&a, &b_, &mut out);
            black_box(out)
        })
    });
    group.bench_function("naive", |bch| {
        bch.iter(|| black_box(gemm_nt_naive(&a, &b_)))
    });
    let mut out = Matrix::zeros(1024, 512);
    group.bench_function("blocked_into", |bch| {
        bch.iter(|| {
            gemm::gemm_nt_blocked_scalar_into(&a, &b_, &mut out);
            black_box(out.get(0, 0))
        })
    });
    group.bench_function("simd", |bch| {
        bch.iter(|| black_box(gemm::gemm_nt(&a, &b_)))
    });
    group.finish();
}

/// Transcendental slice kernels at the MADE conditionals batch size:
/// the production dispatch (AVX2 on capable hosts) against the portable
/// scalar twin, same vendored algorithm on both arms.
fn bench_ops_slice(c: &mut Criterion) {
    const LEN: usize = 4096;
    let xs: Vec<f64> = {
        let m = mat(1, LEN, 9);
        m.as_slice().iter().map(|v| v * 6.0).collect()
    };
    let prod = simd::kernels();
    let port = f64::portable_kernels();
    let mut group = c.benchmark_group("ops_slice");
    let kernels: [(&str, fn(&mut [f64]), fn(&mut [f64])); 4] = [
        ("sigmoid_4096", prod.sigmoid_slice, port.sigmoid_slice),
        ("ln_cosh_4096", prod.ln_cosh_slice, port.ln_cosh_slice),
        ("log_sigmoid_4096", prod.log_sigmoid_slice, port.log_sigmoid_slice),
        ("exp_4096", prod.exp_slice, port.exp_slice),
    ];
    let mut buf = vec![0.0f64; LEN];
    for (name, simd_fn, scalar_fn) in kernels {
        group.bench_function(format!("{name}/simd"), |bch| {
            bch.iter(|| {
                buf.copy_from_slice(&xs);
                simd_fn(&mut buf);
                black_box(buf[0])
            })
        });
        group.bench_function(format!("{name}/scalar"), |bch| {
            bch.iter(|| {
                buf.copy_from_slice(&xs);
                scalar_fn(&mut buf);
                black_box(buf[0])
            })
        });
    }
    group.finish();
}

/// The f32 GEMM twin against the f64 kernel at the same shapes: the
/// mixed-precision arm's headline claim is that halving the streamed
/// bytes (and doubling the SIMD lanes) roughly doubles GEMM throughput
/// once the working set spills past cache.
fn bench_gemm_f32(c: &mut Criterion) {
    let mut group = c.benchmark_group("gemm_f32");
    group.sample_size(10);
    for &(m, n, k) in &[(256usize, 256usize, 256usize), (1024, 512, 512)] {
        let a64 = mat(m, k, 5);
        let b64 = mat(n, k, 6);
        let a32: Vec<f32> = a64.as_slice().iter().map(|&v| v as f32).collect();
        let b32: Vec<f32> = b64.as_slice().iter().map(|&v| v as f32).collect();
        let mut c32 = vec![0.0f32; m * n];
        group.bench_function(format!("{m}x{n}x{k}/f32"), |bch| {
            bch.iter(|| {
                vqmc_tensor::gemm::gemm_nt_f32(m, n, k, &a32, &b32, &mut c32);
                black_box(c32[0])
            })
        });
        group.bench_function(format!("{m}x{n}x{k}/f64"), |bch| {
            bch.iter(|| black_box(gemm::gemm_nt(&a64, &b64)))
        });
    }
    group.finish();
}

/// The f32 transcendental slice kernels (widen→f64-kernel→narrow
/// strategy) against the f64 production dispatch at the same element
/// count: documents how much of the f32 arm's win comes from the
/// bandwidth side rather than the transcendental side.
fn bench_ops_slice_f32(c: &mut Criterion) {
    const LEN: usize = 4096;
    let xs64: Vec<f64> = {
        let m = mat(1, LEN, 9);
        m.as_slice().iter().map(|v| v * 6.0).collect()
    };
    let xs32: Vec<f32> = xs64.iter().map(|&v| v as f32).collect();
    let (k64, k32) = (f64::kernels(), f32::kernels());
    let mut group = c.benchmark_group("ops_slice_f32");
    let pairs: [(&str, fn(&mut [f32]), fn(&mut [f64])); 3] = [
        ("sigmoid_4096", k32.sigmoid_slice, k64.sigmoid_slice),
        ("log_sigmoid_4096", k32.log_sigmoid_slice, k64.log_sigmoid_slice),
        ("exp_4096", k32.exp_slice, k64.exp_slice),
    ];
    let mut buf32 = vec![0.0f32; LEN];
    let mut buf64 = vec![0.0f64; LEN];
    for (name, f32_fn, f64_fn) in pairs {
        group.bench_function(format!("{name}/f32"), |bch| {
            bch.iter(|| {
                buf32.copy_from_slice(&xs32);
                f32_fn(&mut buf32);
                black_box(buf32[0])
            })
        });
        group.bench_function(format!("{name}/f64"), |bch| {
            bch.iter(|| {
                buf64.copy_from_slice(&xs64);
                f64_fn(&mut buf64);
                black_box(buf64[0])
            })
        });
    }
    group.finish();
}

/// Raw pool-region dispatch cost: one broadcast wake + join over an
/// (almost) empty job, per requested width.  This is the overhead every
/// `should_parallelize` gate amortises; `PAR_THRESHOLD_ELEMS` is sized
/// so the crossover sweep below clears it with margin.
fn bench_par_dispatch(c: &mut Criterion) {
    let mut group = c.benchmark_group("par_dispatch");
    for threads in [1usize, 2, 4, 8] {
        group.bench_function(format!("t{threads}"), |bch| {
            par::with_threads(threads, || {
                bch.iter(|| {
                    let sink = std::sync::atomic::AtomicUsize::new(0);
                    par::run(threads, &|w| {
                        sink.fetch_add(w + 1, std::sync::atomic::Ordering::Relaxed);
                    });
                    black_box(sink.into_inner())
                })
            })
        });
    }
    group.finish();
}

/// `PAR_THRESHOLD_ELEMS` crossover sweep: a pool-parallel transcendental
/// slice kernel at lengths straddling the 32 Ki-element gate, at 1 and
/// 4 threads.  On a multi-core host the t4 column should win from the
/// first gated length on; equal t1/t4 medians below the gate confirm
/// the threshold suppresses unprofitable dispatch.
fn bench_par_threshold(c: &mut Criterion) {
    let mut group = c.benchmark_group("par_threshold");
    for len in [8 * 1024usize, 16 * 1024, 32 * 1024, 64 * 1024, 128 * 1024] {
        let xs: Vec<f64> = (0..len).map(|i| ((i % 97) as f64) / 10.0 - 4.0).collect();
        let mut buf = vec![0.0f64; len];
        for threads in [1usize, 4] {
            group.bench_function(format!("exp_{}k/t{threads}", len / 1024), |bch| {
                par::with_threads(threads, || {
                    bch.iter(|| {
                        buf.copy_from_slice(&xs);
                        ops::exp_slice(&mut buf);
                        black_box(buf[0])
                    })
                })
            });
        }
    }
    group.finish();
}

/// The acceptance GEMM shape across pool widths (packed SIMD dispatch).
/// On this container `nproc` = 1, so t2/t4 time-slice one core — the
/// medians document dispatch overhead, not speedup; rerun on a
/// multi-core host for the scaling numbers.
fn bench_gemm_threads(c: &mut Criterion) {
    let mut group = c.benchmark_group("gemm_nt_1024x512x512_threads");
    group.sample_size(10);
    let a = mat(1024, 512, 5);
    let b_ = mat(512, 512, 6);
    for threads in [1usize, 2, 4] {
        group.bench_function(format!("simd_t{threads}"), |bch| {
            par::with_threads(threads, || {
                bch.iter(|| black_box(gemm::gemm_nt(&a, &b_)))
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_gemm,
    bench_gemm_variants,
    bench_gemm_blocked_vs_naive,
    bench_ops_slice,
    bench_gemm_f32,
    bench_ops_slice_f32,
    bench_par_dispatch,
    bench_par_threshold,
    bench_gemm_threads
);
criterion_main!(benches);
