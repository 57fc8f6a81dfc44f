//! The batched local-energy engine across pool widths: neighbour-batch
//! build + forward pass + vectorised ratio/exp + scatter, exactly the
//! per-iteration measurement path of `Trainer::step`.  As there, the
//! forward pass is `log_psi_into` on one warm `Workspace` per case.
//!
//! The neighbour build and log-ratio fill stripe over the worker pool;
//! the `logψ` forward pass rides the pool through the GEMM and slice
//! kernels.  On this container `nproc` = 1, so the t2/t4 entries
//! document dispatch overhead rather than speedup — rerun on a
//! multi-core host for the scaling columns (results are bit-identical
//! at any width).
//!
//! `tim_n64_b512_shuffled` evaluates the same neighbours in a fixed
//! shuffled row order.  The engine's order (sample-major, flips
//! ascending) lets the MADE forward pass copy what a flip cannot reach
//! from the row before; shuffled, no row shares a prefix with its
//! predecessor and the pass runs dense.  The gap between the two is the
//! reuse's payoff, and the shuffled case is what a batch without shared
//! prefixes costs.
//!
//! `maxcut_diag_n1024_b1024` times the Max-Cut diagonal alone (the
//! sample-tiled signed-sum kernel) at the shape behind the benchmark's
//! `hamiltonian.diag_ms`, one thread.
//!
//! Run with `BENCH_JSON=BENCH_kernels.json cargo bench --bench
//! bench_local_energy` to refresh the machine-readable medians.

use criterion::{criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;
use vqmc_hamiltonian::{
    local_energies_into, LocalEnergyConfig, LocalEnergyScratch, MaxCut, SparseRowHamiltonian,
    TransverseFieldIsing,
};
use vqmc_nn::{made_hidden_size, Made, WaveFunction};
use vqmc_sampler::MadeBatchSampler;
use vqmc_tensor::{par, SpinBatch, Vector, Workspace};

fn bench_local_energy(c: &mut Criterion) {
    let mut group = c.benchmark_group("local_energy");
    group.sample_size(10);
    let n = 64;
    let batch_size = 512; // 512 samples × 64 flip-neighbours ≈ 33k logψ rows
    let h = TransverseFieldIsing::random(n, 5);
    let wf = Made::new(n, made_hidden_size(n), 1);
    let mut rng = StdRng::seed_from_u64(11);
    let mut batch = SpinBatch::default();
    let mut log_psi_x = Vector::default();
    MadeBatchSampler::new().sample_stream(&wf, batch_size, &mut rng, &mut batch, &mut log_psi_x);
    for threads in [1usize, 2, 4] {
        group.bench_function(format!("tim_n64_b512/t{threads}"), |b| {
            par::with_threads(threads, || {
                let mut scratch = LocalEnergyScratch::new();
                let mut ws = Workspace::new();
                let mut out = Vector::default();
                b.iter(|| {
                    local_energies_into(
                        &h,
                        &batch,
                        &log_psi_x,
                        &mut |nb, dst: &mut Vector| wf.log_psi_into(nb, &mut ws, dst),
                        LocalEnergyConfig::default(),
                        &mut scratch,
                        &mut out,
                    );
                    black_box(out.as_slice()[0])
                })
            })
        });
        // The same neighbours evaluated in a fixed shuffled row order:
        // no row shares a prefix with the one before, so the forward
        // pass runs dense.  Against the case above it prices the
        // prefix reuse; the row shuffle itself is a byte copy.
        group.bench_function(format!("tim_n64_b512_shuffled/t{threads}"), |b| {
            par::with_threads(threads, || {
                let mut scratch = LocalEnergyScratch::new();
                let mut ws = Workspace::new();
                let mut out = Vector::default();
                let mut shuffled = SpinBatch::default();
                let mut lp = Vector::default();
                let mut order: Vec<usize> = Vec::new();
                b.iter(|| {
                    let mut eval = |nb: &SpinBatch, dst: &mut Vector| {
                        let rows = nb.batch_size();
                        if order.len() != rows {
                            let mut rng = StdRng::seed_from_u64(rows as u64);
                            order = (0..rows).collect();
                            for i in (1..rows).rev() {
                                order.swap(i, rng.gen_range(0..=i));
                            }
                        }
                        shuffled.resize(rows, n);
                        for (dst, &r) in shuffled.as_bytes_mut().chunks_exact_mut(n).zip(&order) {
                            dst.copy_from_slice(nb.sample(r));
                        }
                        wf.log_psi_into(&shuffled, &mut ws, &mut lp);
                        dst.resize(rows);
                        for (&r, &v) in order.iter().zip(lp.iter()) {
                            dst[r] = v;
                        }
                    };
                    local_energies_into(
                        &h,
                        &batch,
                        &log_psi_x,
                        &mut eval,
                        LocalEnergyConfig::default(),
                        &mut scratch,
                        &mut out,
                    );
                    black_box(out.as_slice()[0])
                })
            })
        });
    }

    let (n, batch_size) = (1024, 1024);
    let h = MaxCut::random(n, 11);
    let mut rng = StdRng::seed_from_u64(11);
    let batch = SpinBatch::from_fn(batch_size, n, |_, _| rng.gen_range(0..2u32) as u8);
    group.bench_function("maxcut_diag_n1024_b1024", |b| {
        par::with_threads(1, || {
            let mut ws = Workspace::new();
            let mut out = Vector::default();
            b.iter(|| {
                h.diagonal_batch_into(&batch, &mut ws, &mut out);
                black_box(out.as_slice()[0])
            })
        })
    });
    group.finish();
}

criterion_group!(benches, bench_local_energy);
criterion_main!(benches);
