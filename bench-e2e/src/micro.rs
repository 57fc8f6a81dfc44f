//! Per-layer measurements of the traced run: each layer's public
//! functions called directly, at the shapes the workloads use, next to
//! two machine ceilings (peak FMA rate, STREAM-triad bandwidth)
//! measured in the same process.
//!
//! Every traced run makes all of them, whatever its workload, so each
//! trace record carries the ceilings its kernel rates are held against.
//! Everything here runs on the calling thread with the kernel pool
//! pinned to one thread, except `tensor.par_speedup_t2`, which is
//! reported and never gated.

use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use vqmc_core::estimator::energy_gradient_into;
use vqmc_core::Collective;
use vqmc_dist::{peers_for_ports, reserve_loopback_ports, Mesh, MeshConfig};
use vqmc_hamiltonian::{LocalEnergyConfig, MaxCut, SparseRowHamiltonian};
use vqmc_net::{Connection, FrameDecoder};
use vqmc_nn::checkpoint::{load_any, Checkpoint};
use vqmc_nn::{made_hidden_size, Made, MadeF32, MadeF32Workspace, WaveFunction};
use vqmc_optim::{Adam, Optimizer, SrConfig, SrScratch, StochasticReconfiguration};
use vqmc_sampler::{BatchSampler, IncrementalAutoSampler, SampleOutput, SampleRequest, Sampler};
use vqmc_serve::protocol::{decode_request, encode_request};
use vqmc_serve::{Batcher, BatcherConfig, Engine, ReplySink, Request, WorkItem};
use vqmc_tensor::simd::{self, Backend};
use vqmc_tensor::{gemm, gemm32, ops, par, Matrix, Precision, SpinBatch, Vector, Workspace};

use crate::record::Outcome;
use crate::stats::median;
use crate::RunArgs;

/// Calls `f` once untimed, then repeatedly until `budget` is spent and
/// at least `min_reps` calls are timed; returns the median seconds and
/// the number of timed calls.
fn timed(min_reps: usize, budget: Duration, mut f: impl FnMut()) -> (f64, usize) {
    f();
    timed_cold(min_reps, budget, f)
}

/// [`timed`] without the untimed first call, for calls of a tenth of a
/// second and more, where sizing buffers on the way is lost in the
/// measurement and a second call is not worth its time.
fn timed_cold(min_reps: usize, budget: Duration, mut f: impl FnMut()) -> (f64, usize) {
    let started = Instant::now();
    let mut secs = Vec::new();
    while secs.len() < min_reps || started.elapsed() < budget {
        let t0 = Instant::now();
        f();
        secs.push(t0.elapsed().as_secs_f64());
    }
    (median(&secs), secs.len())
}

fn random_spins(rows: usize, n: usize, rng: &mut StdRng) -> SpinBatch {
    SpinBatch::from_fn(rows, n, |_, _| rng.gen_range(0..2u32) as u8)
}

/// Shapes and time slices; `--quick` shrinks both and keeps every call.
struct Scale {
    quick: bool,
    slice: Duration,
}

impl Scale {
    fn rows(&self, full: usize) -> usize {
        if self.quick {
            (full / 16).max(8)
        } else {
            full
        }
    }
}

/// Adds every microbenchmark's metrics to `o`.
pub fn run(args: &RunArgs, o: &mut Outcome) {
    let scale = Scale {
        quick: args.quick,
        slice: Duration::from_millis(if args.quick { 2 } else { 60 }),
    };
    let mut rng = StdRng::seed_from_u64(vqmc_core::derive_seed(args.seed, 0, 31));
    let peak = tensor(&scale, &mut rng, o);
    nn(&scale, &mut rng, o);
    sampler(&scale, args.seed, o);
    hamiltonian_and_optim(&scale, args.seed, &mut rng, o);
    serve_and_net(&scale, args.seed, &mut rng, o);
    dist(&scale, args.seed, o);
    o.note(format!("peak FMA rate {peak:.3} GFLOP/s on one thread"));
}

// ---------------------------------------------------------------------
// vqmc-tensor and the machine ceilings
// ---------------------------------------------------------------------

/// Independent accumulators in the FMA loop: enough to cover a 4-cycle
/// latency on two ports with room to spare.
const FMA_CHAINS: usize = 12;

#[cfg(target_arch = "x86_64")]
mod fma {
    use super::FMA_CHAINS;
    use std::arch::x86_64::*;

    /// `iters` rounds of [`FMA_CHAINS`] dependent-chain 8-lane FMAs.
    ///
    /// # Safety
    /// The CPU must support AVX-512F.
    #[target_feature(enable = "avx512f")]
    pub unsafe fn avx512(iters: u64, a: f64, b: f64) -> f64 {
        let (a, b) = (_mm512_set1_pd(a), _mm512_set1_pd(b));
        let mut acc = [_mm512_set1_pd(1.0); FMA_CHAINS];
        for _ in 0..iters {
            for x in acc.iter_mut() {
                *x = _mm512_fmadd_pd(*x, a, b);
            }
        }
        let mut sum = _mm512_setzero_pd();
        for x in acc {
            sum = _mm512_add_pd(sum, x);
        }
        _mm512_reduce_add_pd(sum)
    }

    /// `iters` rounds of [`FMA_CHAINS`] dependent-chain 4-lane FMAs.
    ///
    /// # Safety
    /// The CPU must support AVX2 and FMA.
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn avx2(iters: u64, a: f64, b: f64) -> f64 {
        let (a, b) = (_mm256_set1_pd(a), _mm256_set1_pd(b));
        let mut acc = [_mm256_set1_pd(1.0); FMA_CHAINS];
        for _ in 0..iters {
            for x in acc.iter_mut() {
                *x = _mm256_fmadd_pd(*x, a, b);
            }
        }
        let mut lanes = [0.0f64; 4];
        let mut total = 0.0;
        for x in acc {
            _mm256_storeu_pd(lanes.as_mut_ptr(), x);
            total += lanes.iter().sum::<f64>();
        }
        total
    }
}

/// Multiply-adds a second one thread can retire, in GFLOP/s (an FMA
/// counts two), from the widest vector unit the CPU reports — the
/// machine's ceiling, whatever arm `VQMC_SIMD` pins the library to.
fn peak_fma_gflops(slice: Duration) -> (f64, usize) {
    const ITERS: u64 = 200_000;
    let (lanes, run): (usize, fn(u64, f64, f64) -> f64) = {
        #[cfg(target_arch = "x86_64")]
        {
            if is_x86_feature_detected!("avx512f") {
                // SAFETY: AVX-512F was detected on this CPU just above.
                (8, |n, a, b| unsafe { fma::avx512(n, a, b) })
            } else if is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma") {
                // SAFETY: AVX2 and FMA were detected on this CPU just above.
                (4, |n, a, b| unsafe { fma::avx2(n, a, b) })
            } else {
                (1, scalar_fma)
            }
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            (1, scalar_fma)
        }
    };
    // The multiplier and addend reach the loop through `black_box`: with
    // constants the compiler sees the chain sit at a fixed point and
    // deletes the loop.
    let (secs, reps) = timed(3, slice, || {
        let (n, a, b) = std::hint::black_box((ITERS, 0.999_999, 1.5e-6));
        std::hint::black_box(run(n, a, b));
    });
    (
        (ITERS as usize * FMA_CHAINS * lanes * 2) as f64 / secs / 1e9,
        reps,
    )
}

fn scalar_fma(iters: u64, a: f64, b: f64) -> f64 {
    let mut acc = [1.0f64; FMA_CHAINS];
    for _ in 0..iters {
        for x in acc.iter_mut() {
            *x = *x * a + b;
        }
    }
    acc.iter().sum()
}

/// Size in bytes of the largest cache sysfs reports for cpu0.
fn last_level_cache_bytes() -> Option<usize> {
    let mut best = None;
    for index in 0..8 {
        let Ok(text) = std::fs::read_to_string(format!(
            "/sys/devices/system/cpu/cpu0/cache/index{index}/size"
        )) else {
            continue;
        };
        let text = text.trim();
        let bytes = if let Some(k) = text.strip_suffix('K') {
            k.parse::<usize>().ok().map(|k| k << 10)
        } else if let Some(m) = text.strip_suffix('M') {
            m.parse::<usize>().ok().map(|m| m << 20)
        } else {
            text.parse::<usize>().ok()
        };
        best = best.max(bytes);
    }
    best
}

fn total_ram_bytes() -> Option<usize> {
    let text = std::fs::read_to_string("/proc/meminfo").ok()?;
    let kb = text.lines().find_map(|l| l.strip_prefix("MemTotal:"))?;
    kb.trim()
        .trim_end_matches("kB")
        .trim()
        .parse::<usize>()
        .ok()
        .map(|kb| kb << 10)
}

/// Most one triad array may take.  Four times this machine's reported
/// last-level cache is 1 GiB an array; first-touching 3 GiB costs 15 s
/// of page faults in this sandbox, more than the whole run may take.
const TRIAD_ARRAY_CAP: usize = 128 << 20;

/// STREAM triad `a[i] = b[i] + s·c[i]` over arrays of four times the
/// last-level cache, capped at [`TRIAD_ARRAY_CAP`] and so that the
/// three together stay under a quarter of RAM; both sizes are noted,
/// and the result is labelled cache-resident when a cap binds.  Bytes
/// are computed (24 per element: two reads and a write), not counted;
/// the best of two passes is the ceiling.
fn triad_gbs(scale: &Scale, o: &mut Outcome) -> f64 {
    let llc = last_level_cache_bytes().unwrap_or(32 << 20);
    let ram = total_ram_bytes().unwrap_or(4 << 30);
    let want = if scale.quick { 1 << 20 } else { 4 * llc };
    let array_bytes = want.min(ram / 4 / 3).min(TRIAD_ARRAY_CAP);
    let len = array_bytes / 8;
    let (b, c) = (vec![1.5f64; len], vec![0.25f64; len]);
    let mut a = vec![0.0f64; len];
    let mut best = f64::INFINITY;
    for _ in 0..2 {
        let t0 = Instant::now();
        for ((x, y), z) in a.iter_mut().zip(&b).zip(&c) {
            *x = y + 3.0 * z;
        }
        std::hint::black_box(&mut a);
        best = best.min(t0.elapsed().as_secs_f64());
    }
    o.note(format!(
        "triad arrays {} MiB each, last-level cache {} MiB{}",
        array_bytes >> 20,
        llc >> 20,
        if array_bytes < 4 * llc {
            " — labelled cache-resident: under four times the cache"
        } else {
            ""
        }
    ));
    (24 * len) as f64 / best / 1e9
}

fn tensor(scale: &Scale, rng: &mut StdRng, o: &mut Outcome) -> f64 {
    let (peak, reps) = peak_fma_gflops(scale.slice);
    o.metric("tensor.peak_fma_gflops", peak, "GFLOP/s", reps);
    let triad = triad_gbs(scale, o);
    o.metric("tensor.triad_gbs", triad, "GB/s", 2);
    o.metric(
        "tensor.simd_arm",
        match simd::backend() {
            Backend::Scalar => 0.0,
            Backend::Avx2Fma => 1.0,
            Backend::Avx512 => 2.0,
        },
        "code",
        1,
    );

    // C[m×n] = A[m×k]·B[n×k]ᵀ at the shape BENCH_kernels.json used.
    let (m, n, k) = (scale.rows(1024), 512, 512);
    let a = Matrix::from_fn(m, k, |_, _| rng.gen::<f64>() - 0.5);
    let b = Matrix::from_fn(n, k, |_, _| rng.gen::<f64>() - 0.5);
    let mut c = Matrix::zeros(m, n);
    let flops = (2 * m * n * k) as f64;
    let (secs, reps) = timed(3, scale.slice, || gemm::gemm_nt_into(&a, &b, &mut c));
    let gemm_gflops = flops / secs / 1e9;
    o.metric("tensor.gemm_nt_gflops", gemm_gflops, "GFLOP/s", reps);
    o.metric(
        "tensor.gemm_roofline_share",
        gemm_gflops / peak,
        "ratio",
        reps,
    );
    let (secs_t2, reps_t2) = par::with_threads(2, || {
        timed(3, scale.slice, || gemm::gemm_nt_into(&a, &b, &mut c))
    });
    o.metric("tensor.par_speedup_t2", secs / secs_t2, "ratio", reps_t2);

    let narrow = |m: &Matrix| m.as_slice().iter().map(|&v| v as f32).collect::<Vec<f32>>();
    let (a32, b32) = (narrow(&a), narrow(&b));
    let mut c32 = vec![0.0f32; m * n];
    let (secs, reps) = timed(3, scale.slice, || {
        gemm32::gemm_nt_f32(m, n, k, &a32, &b32, &mut c32)
    });
    o.metric(
        "tensor.gemm_nt_f32_gflops",
        flops / secs / 1e9,
        "GFLOP/s",
        reps,
    );

    // One fused AUTO bit step over the training-shape panel of
    // `train_maxcut_n1024` (h=240, b=1024: 1.9 MB, hidden-major arm).
    // Bytes are computed: the panel read and written once, plus the
    // per-unit and per-row vectors.
    let (h, rows) = (made_hidden_size(1024), scale.rows(1024));
    let mut zt: Vec<f64> = (0..h * rows).map(|_| rng.gen::<f64>() - 0.5).collect();
    let w_prev: Vec<f64> = (0..h).map(|_| rng.gen::<f64>() - 0.5).collect();
    let w_out: Vec<f64> = (0..h).map(|_| rng.gen::<f64>() - 0.5).collect();
    let mask: Vec<f64> = (0..rows)
        .map(|_| f64::from(rng.gen_range(0..2u32)))
        .collect();
    let (mut scratch, mut logits) = (vec![0.0; 6 * rows], vec![0.0; rows]);
    let step = simd::kernels().sample_step_cols;
    let (secs, reps) = timed(3, scale.slice, || {
        step(
            &mut zt,
            rows,
            Some(&w_prev),
            &mask,
            &w_out,
            0.1,
            &mut scratch,
            &mut logits,
        )
    });
    let bytes = 8 * (2 * h * rows + 2 * h + 2 * rows);
    o.metric(
        "tensor.sample_step_cols_gbs",
        bytes as f64 / secs / 1e9,
        "GB/s",
        reps,
    );

    let mut xs: Vec<f64> = (0..16_384).map(|_| rng.gen::<f64>() * 4.0 - 2.0).collect();
    let (secs, reps) = timed(3, scale.slice, || {
        // Keep the inputs in range: exp of an exp overflows in a few rounds.
        for x in xs.iter_mut() {
            *x = x.fract();
        }
        ops::exp_slice(&mut xs);
    });
    o.metric(
        "tensor.exp_ns_per_elem",
        secs * 1e9 / xs.len() as f64,
        "ns",
        reps,
    );

    let (secs, reps) = par::with_threads(2, || timed(100, scale.slice, || par::run(2, &|_| {})));
    o.metric("tensor.par_dispatch_us", secs * 1e6, "us", reps);
    peak
}

// ---------------------------------------------------------------------
// vqmc-nn
// ---------------------------------------------------------------------

fn nn(scale: &Scale, rng: &mut StdRng, o: &mut Outcome) {
    let mut ws = Workspace::new();
    let mut out = Vector::default();

    // One neighbour chunk of `train_tim_n64`: 16 384 rows of 64 spins.
    let wf = Made::new(64, made_hidden_size(64), 3);
    let chunk = random_spins(scale.rows(16_384), 64, rng);
    let (secs, reps) = timed(3, scale.slice, || {
        wf.log_psi_into(&chunk, &mut ws, &mut out)
    });
    o.metric("nn.log_psi_ms", secs * 1e3, "ms", reps);
    let wf32 = MadeF32::for_log_psi(&wf);
    let mut ws32 = MadeF32Workspace::new();
    let (secs, reps) = timed(3, scale.slice, || {
        wf32.log_psi_into(&chunk, &mut ws32, &mut out)
    });
    o.metric("nn.log_psi_f32_ms", secs * 1e3, "ms", reps);

    let rows = random_spins(scale.rows(256), 64, rng);
    let mut o_rows = Matrix::default();
    let (secs, reps) = timed(3, scale.slice, || {
        wf.per_sample_grads_into(&rows, &mut ws, &mut o_rows)
    });
    o.metric("nn.per_sample_grads_ms", secs * 1e3, "ms", reps);

    // The backward pass of `train_maxcut_n1024`.
    let big = Made::new(1024, made_hidden_size(1024), 4);
    let batch = random_spins(scale.rows(1024), 1024, rng);
    let weights = Vector::from_fn(batch.batch_size(), |_| rng.gen::<f64>() - 0.5);
    let mut grad = Vector::default();
    let (secs, reps) = timed_cold(1, scale.slice, || {
        big.weighted_log_psi_grad_into(&batch, &weights, &mut ws, &mut grad)
    });
    o.metric("nn.weighted_grad_ms", secs * 1e3, "ms", reps);

    // The checkpoint `serve_sample_n1024_*` starts from.
    let served = crate::serve::model_of(&crate::serve::specs()[0], 5);
    let path = crate::out_dir().join(format!("micro-{}.ckpt", std::process::id()));
    let io = std::fs::create_dir_all(crate::out_dir()).and_then(|()| {
        let (save, save_reps) = timed_cold(1, scale.slice, || {
            served.save(&path).expect("write checkpoint")
        });
        let bytes = std::fs::metadata(&path)?.len();
        let (load, load_reps) = timed(3, scale.slice, || {
            std::hint::black_box(load_any(&path).expect("read checkpoint"));
        });
        std::fs::remove_file(&path)?;
        Ok((save, save_reps, load, load_reps, bytes))
    });
    match io {
        Ok((save, save_reps, load, load_reps, bytes)) => {
            o.metric("nn.ckpt_save_ms", save * 1e3, "ms", save_reps);
            o.metric("nn.ckpt_load_ms", load * 1e3, "ms", load_reps);
            o.metric("nn.ckpt_bytes", bytes as f64, "B", 1);
        }
        Err(e) => o.check("checkpoint_io", false, e.to_string()),
    }
}

// ---------------------------------------------------------------------
// vqmc-sampler
// ---------------------------------------------------------------------

fn sampler(scale: &Scale, seed: u64, o: &mut Outcome) {
    let mut rng = StdRng::seed_from_u64(vqmc_core::derive_seed(seed, 0, 32));
    let mut out = SampleOutput::default();

    // The sampling stage of `train_maxcut_n1024` (depth 1, hidden-major
    // panel) and of `train_maxcut_deep2` (the deep path).
    let d1 = Made::new(1024, made_hidden_size(1024), 6);
    let rows = scale.rows(1024);
    let mut s = IncrementalAutoSampler::new();
    let (secs, reps) = timed_cold(1, scale.slice, || {
        s.sample_into(&d1, rows, &mut rng, &mut out)
    });
    o.metric("sampler.train_d1_ms", secs * 1e3, "ms", reps);
    o.metric(
        "sampler.forward_passes",
        out.stats.forward_passes as f64,
        "count",
        1,
    );
    o.metric("sampler.rows_per_s", rows as f64 / secs, "1/s", reps);

    let deep = Made::with_hidden(512, &[192, 96], 7);
    let mut s = IncrementalAutoSampler::new();
    let rows = scale.rows(256);
    let (secs, reps) = timed_cold(1, scale.slice, || {
        s.sample_into(&deep, rows, &mut rng, &mut out)
    });
    o.metric("sampler.train_deep2_ms", secs * 1e3, "ms", reps);

    // One request of `serve_sample_n1024_*`: the small-panel
    // (register-traversal) shape training never runs.
    let served = crate::serve::model_of(&crate::serve::specs()[0], seed);
    let reqs = [SampleRequest {
        count: crate::serve::SAMPLE_COUNT as usize,
        seed: 11,
    }];
    let (mut batch, mut log_psi) = (SpinBatch::default(), Vector::default());
    let mut bs = BatchSampler::new();
    for (name, precision) in [
        ("sampler.coalesced_f64_ms", Precision::F64),
        ("sampler.coalesced_f32_ms", Precision::F32),
    ] {
        bs.set_precision(precision);
        let (secs, reps) = timed(3, scale.slice, || {
            bs.sample_requests(&served, &reqs, &mut batch, &mut log_psi);
        });
        o.metric(name, secs * 1e3, "ms", reps);
    }
}

// ---------------------------------------------------------------------
// vqmc-hamiltonian and vqmc-optim
// ---------------------------------------------------------------------

fn hamiltonian_and_optim(scale: &Scale, seed: u64, rng: &mut StdRng, o: &mut Outcome) {
    let mut ws = Workspace::new();
    let mut out = Vector::default();

    // The dense diagonal of `train_maxcut_n1024`.
    let h = MaxCut::random(1024, seed);
    let batch = random_spins(scale.rows(1024), 1024, rng);
    let (secs, reps) = timed_cold(1, scale.slice, || {
        h.diagonal_batch_into(&batch, &mut ws, &mut out)
    });
    o.metric("hamiltonian.diag_ms", secs * 1e3, "ms", reps);

    // Adam over the parameter vector of `train_maxcut_n1024`.
    let d = Made::new(1024, made_hidden_size(1024), 4).num_params();
    let mut params = Vector::from_fn(d, |_| rng.gen::<f64>() - 0.5);
    let grad = Vector::from_fn(d, |_| rng.gen::<f64>() - 0.5);
    let mut adam = Adam::new(0.01);
    let (secs, reps) = timed(3, scale.slice, || adam.step(&mut params, &grad));
    o.metric("optim.adam_step_us", secs * 1e6, "us", reps);

    // Stochastic reconfiguration at Max-Cut n=64, b=256: per-sample
    // rows, the energy gradient, then the CG solve being timed.
    let h = MaxCut::random(64, seed);
    let wf = Made::new(64, made_hidden_size(64), 8);
    let mut sampler = IncrementalAutoSampler::new();
    let sample = sampler.sample(&wf, scale.rows(256), rng);
    let local = h.diagonal_batch(&sample.batch);
    let (mut weights, mut grad, mut o_rows) =
        (Vector::default(), Vector::default(), Matrix::default());
    energy_gradient_into(
        &wf,
        &sample.batch,
        &local,
        local.mean(),
        &mut ws,
        &mut weights,
        &mut grad,
    );
    wf.per_sample_grads_into(&sample.batch, &mut ws, &mut o_rows);
    let sr = StochasticReconfiguration::new(SrConfig::default());
    let (mut scratch, mut direction) = (SrScratch::new(), Vector::default());
    let mut iterations = 0;
    let (secs, reps) = timed_cold(1, scale.slice, || {
        iterations = sr
            .precondition_into(&o_rows, &grad, &mut scratch, &mut direction)
            .iterations;
    });
    o.metric("optim.sr_precondition_ms", secs * 1e3, "ms", reps);
    o.metric("optim.cg_iters", iterations as f64, "count", 1);
}

// ---------------------------------------------------------------------
// vqmc-serve and vqmc-net
// ---------------------------------------------------------------------

/// A loopback peer that writes back every byte it reads, until EOF.
fn echo_server() -> std::io::Result<(std::net::SocketAddr, std::thread::JoinHandle<()>)> {
    let listener = TcpListener::bind("127.0.0.1:0")?;
    let addr = listener.local_addr()?;
    let handle = std::thread::spawn(move || {
        let Ok((mut stream, _)) = listener.accept() else {
            return;
        };
        let _ = stream.set_nodelay(true);
        let mut buf = [0u8; 4096];
        while let Ok(n @ 1..) = stream.read(&mut buf) {
            if stream.write_all(&buf[..n]).is_err() {
                break;
            }
        }
    });
    Ok((addr, handle))
}

/// Median time for `Connection` to queue, flush and read back one
/// 144-byte frame through a loopback echo, spinning on the read.
fn frame_roundtrip_us(slice: Duration) -> std::io::Result<(f64, usize)> {
    let (addr, echo) = echo_server()?;
    let mut conn = Connection::new(TcpStream::connect(addr)?, 1 << 20)?;
    let payload = vec![7u8; 144];
    let mut failure = None;
    let result = timed(50, slice, || {
        conn.queue_payload(&payload);
        let mut got = false;
        while !got && failure.is_none() {
            if let Err(e) = conn.flush().and_then(|_| conn.read_frames(|_| got = true)) {
                failure = Some(e);
            }
        }
    });
    drop(conn);
    echo.join().expect("echo thread");
    failure.map_or(Ok((result.0 * 1e6, result.1)), Err)
}

fn serve_and_net(scale: &Scale, seed: u64, rng: &mut StdRng, o: &mut Outcome) {
    // The request `serve_logpsi_n32_*` sends: LogPsi on 4 rows of 32 spins.
    let request = Request::LogPsi {
        batch: random_spins(4, 32, rng),
        precision: Some(Precision::F64),
    };
    let (secs, reps) = timed(100, scale.slice, || {
        std::hint::black_box(encode_request(std::hint::black_box(&request)));
    });
    o.metric("serve.encode_request_ns", secs * 1e9, "ns", reps);
    let encoded = encode_request(&request);
    let (secs, reps) = timed(100, scale.slice, || {
        std::hint::black_box(decode_request(std::hint::black_box(&encoded)).expect("own encoding"));
    });
    o.metric("serve.decode_request_ns", secs * 1e9, "ns", reps);

    // A full batch pushed and drained on one thread: the queue's own
    // cost per item, without the fill wait (a full batch drains at once).
    let config = BatcherConfig::default();
    let batcher = Batcher::new(config);
    let (secs, reps) = timed(10, scale.slice, || {
        for _ in 0..config.max_batch {
            let item = WorkItem {
                request: Request::Stats,
                reply: ReplySink::new(|_| {}),
                deadline: Instant::now() + Duration::from_secs(1),
            };
            assert!(
                batcher.push(item).is_ok(),
                "queue of {} refused a batch of {}",
                config.queue_cap,
                config.max_batch
            );
        }
        std::hint::black_box(batcher.next_batch());
    });
    o.metric(
        "serve.batcher_push_pop_ns",
        secs * 1e9 / config.max_batch as f64,
        "ns",
        reps,
    );

    let mut wire = Vec::new();
    for _ in 0..1024 {
        wire.extend_from_slice(&(encoded.len() as u32).to_le_bytes());
        wire.extend_from_slice(&encoded);
    }
    let (secs, reps) = timed(10, scale.slice, || {
        let mut decoder = FrameDecoder::new(1 << 20);
        let mut frames = 0;
        // 16 KiB at a time, as `Connection::read_frames` feeds it.
        for chunk in wire.chunks(16 * 1024) {
            decoder.extend(chunk);
            while let Ok(Some(frame)) = decoder.next_frame() {
                std::hint::black_box(frame);
                frames += 1;
            }
        }
        assert_eq!(frames, 1024, "decoder lost frames");
    });
    o.metric("net.decode_ns_per_frame", secs * 1e9 / 1024.0, "ns", reps);
    match frame_roundtrip_us(scale.slice) {
        Ok((us, reps)) => o.metric("net.frame_roundtrip_us", us, "us", reps),
        Err(e) => o.check("loopback_echo", false, e.to_string()),
    }

    // The engine passes behind the serving workloads, called directly.
    let specs = crate::serve::specs();
    let (sample_spec, logpsi_spec) = (&specs[0], &specs[1]);
    let mut engine = Engine::new(
        Arc::new(vqmc_nn::checkpoint::AnyModel::Made(crate::serve::model_of(
            sample_spec,
            seed,
        ))),
        None,
        LocalEnergyConfig::default(),
    );
    let reqs = [SampleRequest {
        count: crate::serve::SAMPLE_COUNT as usize,
        seed: 11,
    }];
    for (name, precision) in [
        ("serve.engine_sample_f64_ms", Precision::F64),
        ("serve.engine_sample_f32_ms", Precision::F32),
    ] {
        let (secs, reps) = timed(3, scale.slice, || {
            std::hint::black_box(engine.run_samples_with(precision, &reqs));
        });
        o.metric(name, secs * 1e3, "ms", reps);
    }
    match crate::serve::idle_probe(logpsi_spec, seed, if scale.quick { 30 } else { 300 }) {
        Ok((rtt_ms, engine_ms)) => {
            o.metric("serve.engine_logpsi_us", engine_ms * 1e3, "us", 300);
            o.metric("serve.idle_rtt_ms", rtt_ms, "ms", 300);
            // Wire, event loop, queue (with its fill wait) and hand-off.
            o.metric("serve.overhead_ms", rtt_ms - engine_ms, "ms", 300);
        }
        Err(e) => o.check("idle_probe", false, e),
    }
}

// ---------------------------------------------------------------------
// vqmc-dist
// ---------------------------------------------------------------------

/// Median allreduce (the gradient of `dist_dp_r2`) and allgather (its
/// 7-double statistics) on a fresh two-rank loopback mesh, timed on
/// rank 0, in microseconds.
fn dist(scale: &Scale, seed: u64, o: &mut Outcome) {
    let d = crate::dist::spec().model(seed).num_params();
    let rounds = if scale.quick { 5 } else { 60 };
    let ports = match reserve_loopback_ports(crate::dist::WORLD) {
        Ok(p) => p,
        Err(e) => return o.check("mesh_ports", false, e.to_string()),
    };
    let peers = peers_for_ports(&ports);
    let results: Vec<Result<(f64, f64), String>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..crate::dist::WORLD)
            .map(|rank| {
                let peers = peers.clone();
                s.spawn(move || {
                    let mut mesh =
                        Mesh::connect(MeshConfig::new(rank, peers)).map_err(|e| e.to_string())?;
                    let grad = Vector::from_fn(d, |i| (i as f64).sin());
                    let stats = Vector::from_fn(7, |i| i as f64);
                    let (mut reduce, mut gather) = (Vec::new(), Vec::new());
                    for _ in 0..rounds {
                        let v = grad.clone();
                        let t0 = Instant::now();
                        mesh.allreduce_mean(v).map_err(|e| e.to_string())?;
                        reduce.push(t0.elapsed().as_secs_f64() * 1e6);
                        let t0 = Instant::now();
                        mesh.allgather(&stats).map_err(|e| e.to_string())?;
                        gather.push(t0.elapsed().as_secs_f64() * 1e6);
                    }
                    Ok((median(&reduce), median(&gather)))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("mesh rank thread"))
            .collect()
    });
    match &results[0] {
        Ok((reduce, gather)) if results.iter().all(Result::is_ok) => {
            o.metric("dist.allreduce_us_p50", *reduce, "us", rounds);
            o.metric("dist.allgather_us_p50", *gather, "us", rounds);
        }
        _ => {
            let errors: Vec<String> = results.into_iter().filter_map(Result::err).collect();
            o.check("mesh_collectives", false, errors.join("; "));
        }
    }
}
