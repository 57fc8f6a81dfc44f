//! `dist_dp_r2`: data-parallel training on a two-rank `vqmc_dist::Mesh`
//! over loopback — rank threads, real sockets.
//!
//! The model is large next to the per-rank compute (Max-Cut n=512,
//! 32 samples a rank, ~1.6 MB of gradient allreduced every step), so
//! `dist::Mesh` and `core::distributed` are the work.  Both ranks must
//! report identical energies at every step.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use vqmc_core::{
    cost, Collective, CollectiveError, DistributedConfig, DistributedTrainer, OptimizerChoice,
    SoloCollective,
};
use vqmc_dist::{peers_for_ports, reserve_loopback_ports, Mesh, MeshConfig};
use vqmc_hamiltonian::{LocalEnergyConfig, SparseRowHamiltonian};
use vqmc_nn::{made_hidden_size, WaveFunction};
use vqmc_sampler::IncrementalAutoSampler;
use vqmc_tensor::Vector;

use crate::record::{peak_rss_mb, Outcome};
use crate::trace::{SpanId, Tracer};
use crate::train::{
    check_energies, measure_setup, timing_metrics, Problem, TrainSpec, LEARNING_RATE, WARMUP_ITERS,
};
use crate::RunArgs;

pub const NAME: &str = "dist_dp_r2";
pub const WORLD: usize = 2;
const MBS: usize = 32;
const MIN_TIMED_ITERS: usize = 8;
/// How far ahead rank 0 announces the last iteration.  The collectives
/// keep the ranks within one step of each other, so every rank reads
/// the announcement before it reaches that iteration.
const STOP_LEAD: u64 = 4;

pub fn spec() -> TrainSpec {
    TrainSpec {
        name: NAME,
        problem: Problem::MaxCut,
        n: 512,
        hidden: vec![made_hidden_size(512)],
        batch: MBS * WORLD,
    }
}

type RankTrainer = DistributedTrainer<vqmc_nn::Made, IncrementalAutoSampler>;

struct Rank {
    h: Box<dyn SparseRowHamiltonian>,
    trainer: RankTrainer,
}

fn config(spec: &TrainSpec, seed: u64) -> DistributedConfig {
    DistributedConfig {
        iterations: 0,
        minibatch_per_device: MBS,
        optimizer: OptimizerChoice::Adam { lr: LEARNING_RATE },
        local_energy: LocalEnergyConfig::default(),
        seed: vqmc_core::derive_seed(seed, 0, 13),
        cost_hidden: spec.hidden[0],
        cost_offdiag: 0,
    }
}

/// What one rank shares with the collective wrapper while tracing.
struct RankTrace {
    tracer: Tracer,
    iter: u64,
    step: Option<SpanId>,
}

/// A `Collective` that records a span around each call into the mesh.
struct TracedCollective {
    inner: Mesh,
    trace: Arc<Mutex<RankTrace>>,
}

impl TracedCollective {
    fn spanned<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Mesh) -> T) -> T {
        let id = {
            let mut t = self.trace.lock().expect("rank trace");
            let (parent, iter) = (t.step, t.iter);
            t.tracer.begin(name, parent, iter)
        };
        let out = f(&mut self.inner);
        self.trace.lock().expect("rank trace").tracer.end(id);
        out
    }
}

impl Collective for TracedCollective {
    fn rank(&self) -> usize {
        self.inner.rank()
    }
    fn world(&self) -> usize {
        self.inner.world()
    }
    fn allreduce_mean(&mut self, v: Vector) -> Result<Vector, CollectiveError> {
        self.spanned("allreduce", |m| m.allreduce_mean(v))
    }
    fn allgather(&mut self, v: &Vector) -> Result<Vec<Vector>, CollectiveError> {
        self.spanned("allgather", |m| m.allgather(v))
    }
}

/// Forms a loopback mesh of `WORLD` rank threads and builds each rank's
/// trainer on it; `traces`, when given, wraps each rank's mesh.
fn form(
    spec: &TrainSpec,
    seed: u64,
    traces: Option<&[Arc<Mutex<RankTrace>>]>,
) -> Result<Vec<Rank>, String> {
    let ports = reserve_loopback_ports(WORLD).map_err(|e| format!("reserve ports: {e}"))?;
    let peers = peers_for_ports(&ports);
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..WORLD)
            .map(|rank| {
                let peers = peers.clone();
                s.spawn(move || -> Result<Rank, String> {
                    let h = spec.hamiltonian(seed);
                    let wf = spec.model(seed);
                    let mut cfg = MeshConfig::new(rank, peers);
                    cfg.collective_timeout = Duration::from_secs(10);
                    let mesh = Mesh::connect(cfg).map_err(|e| format!("rank {rank}: {e}"))?;
                    let collective: Box<dyn Collective> = match traces {
                        Some(t) => Box::new(TracedCollective {
                            inner: mesh,
                            trace: Arc::clone(&t[rank]),
                        }),
                        None => Box::new(mesh),
                    };
                    let trainer = DistributedTrainer::over_mesh(
                        collective,
                        wf,
                        IncrementalAutoSampler::new(),
                        config(spec, seed),
                    );
                    Ok(Rank { h, trainer })
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("rank thread panicked"))
            .collect()
    })
}

#[derive(Default)]
struct RankRun {
    energies: Vec<f64>,
    iter_ms: Vec<f64>,
    wall_s: f64,
    error: Option<String>,
}

/// Steps every rank until rank 0 has timed for `seconds`.
fn train(ranks: Vec<Rank>, seconds: f64, traces: Option<&[Arc<Mutex<RankTrace>>]>) -> Vec<RankRun> {
    let stop_at = AtomicU64::new(u64::MAX);
    let budget = Duration::from_secs_f64(seconds);
    std::thread::scope(|s| {
        let handles: Vec<_> = ranks
            .into_iter()
            .enumerate()
            .map(|(rank, mut r)| {
                let stop_at = &stop_at;
                s.spawn(move || {
                    let mut run = RankRun::default();
                    let mut started = Instant::now();
                    let mut iter = 0u64;
                    while iter < stop_at.load(Ordering::SeqCst) {
                        if iter == WARMUP_ITERS as u64 {
                            started = Instant::now();
                        }
                        let timed = iter >= WARMUP_ITERS as u64;
                        if rank == 0
                            && stop_at.load(Ordering::SeqCst) == u64::MAX
                            && timed
                            && run.iter_ms.len() >= MIN_TIMED_ITERS
                            && started.elapsed() >= budget
                        {
                            stop_at.store(iter + STOP_LEAD, Ordering::SeqCst);
                        }
                        let span = traces.map(|t| {
                            let mut t = t[rank].lock().expect("rank trace");
                            t.iter = iter;
                            let id = t.tracer.begin("step", None, iter);
                            t.step = Some(id);
                            id
                        });
                        let t0 = Instant::now();
                        let result = r.trainer.try_step(r.h.as_ref());
                        let ms = t0.elapsed().as_secs_f64() * 1e3;
                        if let (Some(t), Some(id)) = (traces, span) {
                            t[rank].lock().expect("rank trace").tracer.end(id);
                        }
                        match result {
                            Ok(rec) => run.energies.push(rec.energy),
                            Err(e) => {
                                run.error = Some(format!("rank {rank} iteration {iter}: {e}"));
                                break;
                            }
                        }
                        if timed {
                            run.iter_ms.push(ms);
                        }
                        iter += 1;
                    }
                    run.wall_s = started.elapsed().as_secs_f64();
                    run
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("rank thread panicked"))
            .collect()
    })
}

/// Folds the ranks' runs into the outcome: counts, the cross-rank
/// identity check and the energy checks.  Returns rank 0's run.
fn account(o: &mut Outcome, mut runs: Vec<RankRun>, args: &RunArgs) -> RankRun {
    let errors: Vec<String> = runs.iter().filter_map(|r| r.error.clone()).collect();
    o.check("no_collective_error", errors.is_empty(), errors.join("; "));
    let same = runs.iter().all(|r| {
        r.energies.len() == runs[0].energies.len()
            && r.energies
                .iter()
                .zip(&runs[0].energies)
                .all(|(a, b)| a.to_bits() == b.to_bits())
    });
    o.check(
        "ranks_report_identical_energies",
        same,
        format!("{} steps on {WORLD} ranks", runs[0].energies.len()),
    );
    let rank0 = runs.swap_remove(0);
    o.attempted = rank0.energies.len() as u64 + errors.len() as u64;
    o.failed =
        rank0.energies.iter().filter(|e| !e.is_finite()).count() as u64 + errors.len() as u64;
    if !rank0.energies.is_empty() {
        check_energies(
            o,
            args.quick,
            crate::reference_energy(NAME, args),
            &rank0.energies,
        );
    }
    rank0
}

pub fn run(args: &RunArgs) -> Outcome {
    let mut o = Outcome::default();
    let spec = spec();
    let (setup_s, reps, ranks) = measure_setup(args.quick, || form(&spec, args.seed, None));
    o.metric("setup_s", setup_s, "s", reps);
    let ranks = match ranks {
        Ok(r) => r,
        Err(e) => {
            o.check("mesh_formed", false, e);
            return o;
        }
    };
    let runs = train(ranks, args.seconds, None);
    let rank0 = account(&mut o, runs, args);
    if !rank0.iter_ms.is_empty() {
        timing_metrics(&mut o, &rank0.iter_ms, MBS * WORLD, rank0.wall_s);
        o.metric("peak_rss_mb", peak_rss_mb(), "MiB", 1);
    }
    o
}

/// World-1 step time at the same per-rank minibatch: the plain
/// single-worker baseline the scaling numbers are taken against.
fn solo_step_ms(spec: &TrainSpec, seed: u64, seconds: f64) -> (f64, usize) {
    let h = spec.hamiltonian(seed);
    let mut trainer = DistributedTrainer::over_mesh(
        Box::new(SoloCollective),
        spec.model(seed),
        IncrementalAutoSampler::new(),
        config(spec, seed),
    );
    let mut ms = Vec::new();
    let started = Instant::now();
    let mut iter = 0;
    while ms.len() < MIN_TIMED_ITERS || started.elapsed().as_secs_f64() < seconds {
        let t0 = Instant::now();
        trainer.step(h.as_ref());
        if iter >= WARMUP_ITERS {
            ms.push(t0.elapsed().as_secs_f64() * 1e3);
        }
        iter += 1;
    }
    (crate::stats::median(&ms), ms.len())
}

/// The traced run: an untraced stretch, a stretch with spans around
/// every collective, and a world-1 stretch for the scaling numbers.
pub fn run_traced(args: &RunArgs) -> Outcome {
    let mut o = Outcome::default();
    let spec = spec();
    let share = args.seconds / 5.0;
    let traces: Vec<_> = (0..WORLD)
        .map(|_| {
            Arc::new(Mutex::new(RankTrace {
                tracer: Tracer::with_capacity(1 << 16),
                iter: 0,
                step: None,
            }))
        })
        .collect();
    let stretch = |traces: Option<&[Arc<Mutex<RankTrace>>]>| {
        form(&spec, args.seed, traces).map(|ranks| train(ranks, 2.0 * share, traces))
    };
    let (plain, runs) = match stretch(None).and_then(|plain| Ok((plain, stretch(Some(&traces))?))) {
        Ok(both) => both,
        Err(e) => {
            o.check("mesh_formed", false, e);
            return o;
        }
    };
    let plain_p50 = crate::stats::median(&plain[0].iter_ms);
    let rank0 = account(&mut o, runs, args);
    if rank0.iter_ms.is_empty() {
        return o;
    }
    let n = rank0.iter_ms.len();
    let traced_p50 = crate::stats::median(&rank0.iter_ms);
    o.metric("op_ms_p50", plain_p50, "ms", plain[0].iter_ms.len());
    o.metric(
        "driver.trace_overhead_pct",
        (traced_p50 - plain_p50) / plain_p50 * 100.0,
        "%",
        n,
    );

    let trace = traces[0].lock().expect("rank trace");
    let per_step_us = |name: &str| {
        let mut v = trace.tracer.per_trace_ms(name, false);
        v.drain(..WARMUP_ITERS.min(v.len()));
        crate::stats::median(&v) * 1e3
    };
    o.metric("dist.step_allreduce_us", per_step_us("allreduce"), "us", n);
    o.metric("dist.step_allgather_us", per_step_us("allgather"), "us", n);
    let params = spec.model(args.seed).num_params();
    // The gradient allreduce plus the 7-double statistics allgather.
    o.metric(
        "dist.bytes_per_step",
        (cost::allreduce_bytes(params) + 7 * 8) as f64,
        "B",
        1,
    );

    let (solo_ms, solo_n) = solo_step_ms(&spec, args.seed, share);
    o.metric(
        "dist.collective_share",
        1.0 - solo_ms / plain_p50,
        "ratio",
        solo_n,
    );
    o.metric(
        "dist.weak_scaling_eff",
        solo_ms / plain_p50,
        "ratio",
        solo_n,
    );
    o.note(format!(
        "world-1 step {solo_ms:.4} ms vs world-{WORLD} step {plain_p50:.4} ms at {MBS} samples a rank; \
         {WORLD} rank threads on {} cores",
        std::thread::available_parallelism().map_or(1, |n| n.get())
    ));
    o.spans = Some(trace.tracer.to_json(crate::SPAN_FILE_LIMIT));
    o
}
