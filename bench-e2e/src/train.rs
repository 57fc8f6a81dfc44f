//! The three single-process training workloads, and the stage-by-stage
//! replay of `Trainer::step` that attributes an iteration's time.
//!
//! `Trainer::step` is opaque from outside, but every stage it runs is a
//! public function: `Sampler::sample_into` → `local_energies_into` →
//! `energy_gradient_into` → `Optimizer::step`.  [`Replayer::step`] calls
//! them in the same order on its own buffers, from the same seeds, and
//! produces the trainer's energies bit for bit — which every run checks,
//! so a span around each call is a valid account of where the trainer's
//! time goes.

use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::SeedableRng;
use vqmc_core::estimator::{energy_gradient_into, EnergyStats};
use vqmc_core::{cost, derive_seed, OptimizerChoice, Trainer, TrainerConfig};
use vqmc_hamiltonian::{
    local_energies_into, LocalEnergyConfig, LocalEnergyScratch, MaxCut, SparseRowHamiltonian,
    TransverseFieldIsing,
};
use vqmc_nn::{made_hidden_size, Made, WaveFunction};
use vqmc_optim::Optimizer;
use vqmc_sampler::{IncrementalAutoSampler, SampleOutput, Sampler};
use vqmc_tensor::{SpinBatch, Vector, Workspace};

use crate::record::{peak_rss_mb, Outcome};
use crate::stats::{
    mean, median, percentile_sorted, sorted, tail_percentile, window_count, windowed_percentile,
    windows,
};
use crate::trace::Tracer;
use crate::RunArgs;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Problem {
    /// Transverse-field Ising: `n` off-diagonal neighbours per sample.
    Tim,
    /// Max-Cut: diagonal only.
    MaxCut,
}

#[derive(Clone, Debug)]
pub struct TrainSpec {
    pub name: &'static str,
    pub problem: Problem,
    pub n: usize,
    pub hidden: Vec<usize>,
    pub batch: usize,
}

pub fn specs() -> Vec<TrainSpec> {
    vec![
        TrainSpec {
            name: "train_tim_n64",
            problem: Problem::Tim,
            n: 64,
            hidden: vec![made_hidden_size(64)],
            batch: 512,
        },
        TrainSpec {
            name: "train_maxcut_n1024",
            problem: Problem::MaxCut,
            n: 1024,
            hidden: vec![made_hidden_size(1024)],
            batch: 1024,
        },
        TrainSpec {
            name: "train_maxcut_deep2",
            problem: Problem::MaxCut,
            n: 512,
            hidden: vec![192, 96],
            batch: 256,
        },
    ]
}

/// Untimed iterations before timing starts: the first sizes every
/// buffer, the second catches what is sized off the first one's data.
/// Both are replayed and compared bit for bit.
pub const WARMUP_ITERS: usize = 2;
/// A run times at least this many iterations however short `--seconds`.
const MIN_TIMED_ITERS: usize = 3;
/// Iteration (counted from the first warm-up one) whose energy is held
/// against `reference.json` at the default seed.
pub const REFERENCE_ITER: usize = 8;
/// Pairs of (trainer step, replayed step) a traced run needs before it
/// enforces the replay gap.
const MIN_PAIRS_FOR_GAP_CHECK: usize = 10;
/// Adam's step size, the paper's default.
pub const LEARNING_RATE: f64 = 0.01;

impl TrainSpec {
    /// `--quick` keeps every code path and shrinks the batch.
    fn batch(&self, quick: bool) -> usize {
        if quick {
            (self.batch / 16).max(16)
        } else {
            self.batch
        }
    }

    pub fn hamiltonian(&self, seed: u64) -> Box<dyn SparseRowHamiltonian> {
        let seed = derive_seed(seed, 0, 11);
        match self.problem {
            Problem::Tim => Box::new(TransverseFieldIsing::random(self.n, seed)),
            Problem::MaxCut => Box::new(MaxCut::random(self.n, seed)),
        }
    }

    pub fn model(&self, seed: u64) -> Made {
        Made::with_hidden(self.n, &self.hidden, derive_seed(seed, 0, 12))
    }

    fn config(&self, seed: u64, batch: usize) -> TrainerConfig {
        TrainerConfig {
            iterations: 0,
            batch_size: batch,
            optimizer: OptimizerChoice::Adam { lr: LEARNING_RATE },
            local_energy: LocalEnergyConfig::default(),
            seed: derive_seed(seed, 0, 13),
        }
    }

    /// Flops of one iteration by the paper's own accounting
    /// (`cost::auto_iteration_flops`, Eq. 15's numerator), in GFLOP.
    /// The cost model knows one hidden width; a deeper stack enters as
    /// the width of the two-layer network with the same multiply-adds.
    fn predicted_gflop(&self, batch: usize) -> f64 {
        let mut dims = vec![self.n];
        dims.extend(&self.hidden);
        dims.push(self.n);
        let macs: usize = dims.windows(2).map(|w| w[0] * w[1]).sum();
        let h_equiv = macs / (2 * self.n);
        let offdiag = if self.problem == Problem::Tim {
            self.n
        } else {
            0
        };
        cost::auto_iteration_flops(batch, self.n, h_equiv, offdiag) / 1e9
    }
}

/// Everything set-up builds for a training workload.
struct Built {
    h: Box<dyn SparseRowHamiltonian>,
    trainer: Trainer<Made, IncrementalAutoSampler>,
    opt: Box<dyn Optimizer>,
}

fn build(spec: &TrainSpec, seed: u64, batch: usize) -> Built {
    let h = spec.hamiltonian(seed);
    let trainer = Trainer::new(
        spec.model(seed),
        IncrementalAutoSampler::new(),
        spec.config(seed, batch),
    );
    let opt = trainer.make_optimizer();
    Built { h, trainer, opt }
}

/// Repeats `build` and returns the median wall time with the last
/// product.  Set-up is repeated because one construction is too short
/// to time to better than a quarter: at least `MIN_REPS` times and, for
/// cheap ones, until `BUDGET` is spent.
pub fn measure_setup<T>(quick: bool, mut build: impl FnMut() -> T) -> (f64, usize, T) {
    const MIN_REPS: usize = 5;
    const MAX_REPS: usize = 2000;
    const BUDGET: Duration = Duration::from_millis(500);
    let started = Instant::now();
    let mut times = Vec::new();
    loop {
        let t0 = Instant::now();
        let built = build();
        times.push(t0.elapsed().as_secs_f64());
        let enough = times.len() >= MIN_REPS && started.elapsed() >= BUDGET;
        if quick || enough || times.len() >= MAX_REPS {
            return (crate::stats::median(&times), times.len(), built);
        }
    }
}

/// `Trainer::step`, stage by stage, with a span around each stage.
pub struct Replayer {
    wf: Made,
    sampler: IncrementalAutoSampler,
    rng: StdRng,
    opt: Box<dyn Optimizer>,
    config: TrainerConfig,
    ws: Workspace,
    out: SampleOutput,
    local: Vector,
    le: LocalEnergyScratch,
    weights: Vector,
    grad: Vector,
    params: Vector,
    /// Rows pushed through the `log_psi` closure in the last step.
    pub neighbours: usize,
}

impl Replayer {
    fn new(spec: &TrainSpec, seed: u64, batch: usize) -> Replayer {
        let config = spec.config(seed, batch);
        Replayer {
            wf: spec.model(seed),
            sampler: IncrementalAutoSampler::new(),
            // The stream `Trainer::new` seeds for itself.
            rng: StdRng::seed_from_u64(derive_seed(config.seed, 0, 0)),
            opt: Box::new(vqmc_optim::Adam::new(LEARNING_RATE)),
            config,
            ws: Workspace::new(),
            out: SampleOutput::default(),
            local: Vector::default(),
            le: LocalEnergyScratch::new(),
            weights: Vector::default(),
            grad: Vector::default(),
            params: Vector::default(),
            neighbours: 0,
        }
    }

    /// One iteration; returns its mean local energy.
    fn step(&mut self, h: &dyn SparseRowHamiltonian, tracer: &mut Tracer, iter: u64) -> f64 {
        let root = tracer.begin("step", None, iter);

        let span = tracer.begin("sample", Some(root), iter);
        self.sampler.sample_into(
            &self.wf,
            self.config.batch_size,
            &mut self.rng,
            &mut self.out,
        );
        tracer.end(span);

        let span = tracer.begin("local_energy", Some(root), iter);
        let mut rows = 0;
        {
            let (wf, ws) = (&self.wf, &mut self.ws);
            let tr = &mut *tracer;
            let mut eval = |b: &SpinBatch, dst: &mut Vector| {
                let child = tr.begin("log_psi", Some(span), iter);
                rows += b.batch_size();
                wf.log_psi_into(b, ws, dst);
                tr.end(child);
            };
            local_energies_into(
                h,
                &self.out.batch,
                &self.out.log_psi,
                &mut eval,
                self.config.local_energy,
                &mut self.le,
                &mut self.local,
            );
        }
        tracer.end(span);
        self.neighbours = rows;
        let stats = EnergyStats::from_local_energies(&self.local);

        let span = tracer.begin("gradient", Some(root), iter);
        energy_gradient_into(
            &self.wf,
            &self.out.batch,
            &self.local,
            stats.mean,
            &mut self.ws,
            &mut self.weights,
            &mut self.grad,
        );
        tracer.end(span);

        let span = tracer.begin("update", Some(root), iter);
        self.wf.params_into(&mut self.params);
        self.opt.step(&mut self.params, &self.grad);
        self.wf.set_params(&self.params);
        tracer.end(span);

        tracer.end(root);
        stats.mean
    }
}

/// Steps trainer and replay once each and compares the energies' bits.
fn step_both(
    b: &mut Built,
    replay: &mut Replayer,
    tracer: &mut Tracer,
    iter: u64,
    mismatches: &mut Vec<String>,
) -> (f64, f64, f64) {
    let t0 = Instant::now();
    let rec = b.trainer.step(b.h.as_ref(), b.opt.as_mut());
    let opaque_ms = t0.elapsed().as_secs_f64() * 1e3;
    let t0 = Instant::now();
    let replayed = replay.step(b.h.as_ref(), tracer, iter);
    let replay_ms = t0.elapsed().as_secs_f64() * 1e3;
    if rec.energy.to_bits() != replayed.to_bits() {
        mismatches.push(format!(
            "iteration {iter}: trainer {} replay {replayed}",
            rec.energy
        ));
    }
    (rec.energy, opaque_ms, replay_ms)
}

/// Checks every training run makes on its energies (index 0 is the
/// first warm-up iteration).
pub fn check_energies(o: &mut Outcome, quick: bool, reference: Option<f64>, energies: &[f64]) {
    let first = energies[0];
    let last = *energies.last().expect("at least the warm-up energies");
    o.check(
        "energy_finite",
        energies.iter().all(|e| e.is_finite()),
        format!("{} energies", energies.len()),
    );
    // One batch's mean energy is noisy (tens of units at Max-Cut n=512,
    // b=256, where ten iterations gain as much), so the run is held to
    // its halves: the later half averages below the earlier one.
    // `--quick` takes a handful of steps at a sixteenth of the batch,
    // where the noise is the whole signal: there the check is skipped.
    let (early, late) = energies.split_at(energies.len() / 2);
    if !quick {
        let decreased = !early.is_empty() && mean(late) < mean(early);
        o.check(
            "energy_decreased",
            decreased,
            format!("iteration 0: {first}, final: {last}; later half averages below the earlier: {decreased}"),
        );
    }
    o.note(format!(
        "energy iteration 0 {first}, final {last} after {} iterations",
        energies.len()
    ));
    if let Some(&at_ref) = energies.get(REFERENCE_ITER) {
        o.note(format!("energy at iteration {REFERENCE_ITER}: {at_ref:?}"));
        if let Some(reference) = reference {
            let gap = ((at_ref - reference) / reference).abs();
            o.check(
                "energy_matches_reference",
                gap <= 0.02,
                format!("iteration {REFERENCE_ITER}: {at_ref} vs reference {reference}"),
            );
        }
    }
}

/// The three timing metrics of a training run — each the median over
/// the run's windows (`stats::windowed_percentile`) — and the note on
/// what the whole sample reads and what tail it supports.
pub fn timing_metrics(o: &mut Outcome, iter_ms: &[f64], samples_per_iter: usize, wall_s: f64) {
    let n = iter_ms.len();
    o.metric("op_ms_p50", windowed_percentile(iter_ms, 50.0), "ms", n);
    o.metric("op_ms_p90", windowed_percentile(iter_ms, 90.0), "ms", n);
    // Samples drawn per second of stepping, window by window.
    let per_window: Vec<f64> = windows(iter_ms)
        .map(|w| (w.len() * samples_per_iter) as f64 / (w.iter().sum::<f64>() / 1e3))
        .collect();
    o.metric("throughput_per_s", median(&per_window), "1/s", n);
    let s = sorted(iter_ms);
    let tail = tail_percentile(n);
    o.note(format!(
        "{n} timed iterations in {} windows over {wall_s:.3} s; whole sample p50 {:.4} ms, \
         p90 {:.4} ms, {:.1} samples/s; it supports p{tail}: {:.4} ms",
        window_count(n),
        percentile_sorted(&s, 50.0),
        percentile_sorted(&s, 90.0),
        (n * samples_per_iter) as f64 / wall_s,
        percentile_sorted(&s, tail)
    ));
}

/// The untraced run: the end-to-end metrics.
pub fn run(spec: &TrainSpec, args: &RunArgs) -> Outcome {
    let mut o = Outcome::default();
    let batch = spec.batch(args.quick);
    let (setup_s, reps, mut built) = measure_setup(args.quick, || build(spec, args.seed, batch));
    o.metric("setup_s", setup_s, "s", reps);

    let mut energies = Vec::new();
    let mut mismatches = Vec::new();
    let mut replay = Replayer::new(spec, args.seed, batch);
    let mut tracer = Tracer::with_capacity(64);
    for iter in 0..WARMUP_ITERS {
        energies.push(
            step_both(
                &mut built,
                &mut replay,
                &mut tracer,
                iter as u64,
                &mut mismatches,
            )
            .0,
        );
    }
    drop(replay);

    let mut iter_ms = Vec::new();
    let started = Instant::now();
    let budget = Duration::from_secs_f64(args.seconds);
    while iter_ms.len() < MIN_TIMED_ITERS || started.elapsed() < budget {
        let t0 = Instant::now();
        let rec = built.trainer.step(built.h.as_ref(), built.opt.as_mut());
        iter_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        energies.push(rec.energy);
    }
    let wall_s = started.elapsed().as_secs_f64();

    timing_metrics(&mut o, &iter_ms, batch, wall_s);
    o.metric("peak_rss_mb", peak_rss_mb(), "MiB", 1);
    o.attempted = energies.len() as u64;
    o.failed = energies.iter().filter(|e| !e.is_finite()).count() as u64;
    o.check(
        "replay_bitwise_equal",
        mismatches.is_empty(),
        format!(
            "{WARMUP_ITERS} iterations replayed; {}",
            mismatches.join("; ")
        ),
    );
    check_energies(
        &mut o,
        args.quick,
        crate::reference_energy(spec.name, args),
        &energies,
    );
    o
}

/// The traced run: trainer and replay step in turn from the same
/// state, so both see the same machine and every iteration is compared.
pub fn run_traced(spec: &TrainSpec, args: &RunArgs) -> Outcome {
    let mut o = Outcome::default();
    let batch = spec.batch(args.quick);
    let mut built = build(spec, args.seed, batch);
    let mut replay = Replayer::new(spec, args.seed, batch);
    let mut tracer = Tracer::with_capacity(1 << 16);

    let mut energies = Vec::new();
    let mut mismatches = Vec::new();
    let (mut opaque_ms, mut replay_ms) = (Vec::new(), Vec::new());
    let started = Instant::now();
    let budget = Duration::from_secs_f64(args.seconds);
    let mut iter = 0;
    while iter < WARMUP_ITERS + MIN_TIMED_ITERS || started.elapsed() < budget {
        let (e, a, c) = step_both(
            &mut built,
            &mut replay,
            &mut tracer,
            iter as u64,
            &mut mismatches,
        );
        energies.push(e);
        if iter >= WARMUP_ITERS {
            opaque_ms.push(a);
            replay_ms.push(c);
        }
        iter += 1;
    }

    let n = opaque_ms.len();
    // Stage medians over the timed iterations only.
    let stage = |name: &str, self_time: bool| -> Vec<f64> {
        let mut per_iter = tracer.per_trace_ms(name, self_time);
        per_iter.drain(..WARMUP_ITERS.min(per_iter.len()));
        per_iter
    };
    let p50 = |v: &[f64]| percentile_sorted(&sorted(v), 50.0);
    let stages = [
        ("core.step.sample_ms", stage("sample", false)),
        ("core.step.local_energy_ms", stage("local_energy", false)),
        ("core.step.gradient_ms", stage("gradient", false)),
        ("core.step.update_ms", stage("update", false)),
    ];
    let mut staged_mean = 0.0;
    for (name, values) in &stages {
        o.metric(name, p50(values), "ms", n);
        staged_mean += mean(values);
    }
    // What the replayed step spends outside its four stages (energy
    // statistics, span bookkeeping), from means so the parts add up.
    o.metric(
        "core.step.other_ms",
        (mean(&replay_ms) - staged_mean).max(0.0),
        "ms",
        n,
    );
    // Each replayed step runs right after the trainer's own, so the pair
    // sees the same machine: the gap is the median over pairs.
    let opaque_p50 = p50(&opaque_ms);
    let paired: Vec<f64> = opaque_ms
        .iter()
        .zip(&replay_ms)
        .map(|(a, c)| (c - a) / a * 100.0)
        .collect();
    let gap_pct = p50(&paired);
    o.metric("core.replay_gap_pct", gap_pct, "%", n);
    o.metric("driver.trace_overhead_pct", gap_pct, "%", n);
    o.metric(
        "core.predicted_gflop",
        spec.predicted_gflop(batch),
        "GFLOP",
        1,
    );
    o.metric(
        "hamiltonian.le_self_ms",
        p50(&stage("local_energy", true)),
        "ms",
        n,
    );
    let forward = stage("log_psi", false);
    o.metric(
        "hamiltonian.le_forward_ms",
        if forward.is_empty() {
            0.0
        } else {
            p50(&forward)
        },
        "ms",
        forward.len(),
    );
    o.metric(
        "hamiltonian.neighbours",
        replay.neighbours as f64,
        "count",
        1,
    );
    o.metric("op_ms_p50", opaque_p50, "ms", n);

    o.attempted = energies.len() as u64;
    o.failed = energies.iter().filter(|e| !e.is_finite()).count() as u64;
    o.check(
        "replay_bitwise_equal",
        mismatches.is_empty(),
        format!(
            "{} iterations replayed; {}",
            energies.len(),
            mismatches.join("; ")
        ),
    );
    // Under ten pairs the median is too loose to hold to five percent;
    // the gap is then reported and not enforced.
    if n >= MIN_PAIRS_FOR_GAP_CHECK {
        o.check(
            "replay_gap_under_5pct",
            gap_pct.abs() < 5.0,
            format!("{gap_pct:.3} % over {n} pairs"),
        );
    }
    check_energies(
        &mut o,
        args.quick,
        crate::reference_energy(spec.name, args),
        &energies,
    );
    o.spans = Some(tracer.to_json(crate::SPAN_FILE_LIMIT));
    o
}
