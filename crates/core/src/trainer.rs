//! The VQMC training loop — one step, at any world size.
//!
//! One iteration is the paper's Figure 1 right-hand side:
//!
//! 1. **Sample** a batch from `|ψθ|²` (AUTO or MCMC);
//! 2. **Measure** local energies `l(x)` (Eq. 3) and their statistics;
//! 3. **Gradient** via the baseline-subtracted estimator (Eq. 5);
//! 4. **Update** with SGD / Adam, optionally preconditioned by
//!    stochastic reconfiguration (natural gradient).
//!
//! Every iteration is recorded — energy, the zero-variance diagnostic,
//! wall-clock and sampler cost — which is exactly the data behind the
//! paper's Figure 2 training curves and the timing tables.
//!
//! ## Multi-rank: replicated sampling, sharded measurement
//!
//! [`Trainer::step_over`] runs the same iteration over any
//! [`Collective`]; [`Trainer::step`] is that step at world size 1.  The
//! parallel policy keeps the *numerics* identical at every world size
//! (the mode behind `vqmc-cli train --ranks N`):
//!
//! 1. **Sampling is replicated.**  Every rank runs the sampler over the
//!    full batch with the single-device RNG stream
//!    (`derive_seed(seed, 0, 0)`) — identical batches everywhere.
//! 2. **Measurement is sharded.**  Local energies are the dominant cost
//!    (`O(n²·bs·h)` for TIM — `n` neighbour evaluations per sample vs
//!    the sampler's one pass); each rank evaluates only its contiguous
//!    row shard ([`shard_bounds`]).  Per-sample local energies depend
//!    only on that sample's row (the neighbour forward pass is
//!    row-independent and the SIMD arms are proptested bit-identical to
//!    the row-sequential portable kernel), so a shard slice equals the
//!    same slice of the full-batch result — asserted by
//!    `shard_slices_match_full_batch` below.
//! 3. **The shards are allgathered** and reassembled in rank order,
//!    giving every rank the bit-identical full local-energy vector.  At
//!    world size 1 the shard is the whole batch: no rows are copied and
//!    no collective is called.
//! 4. **Statistics, gradient and update are replicated** on the same
//!    bits, in the same order, on every rank.
//!
//! Net effect: a rank over any backend — solo, thread mesh, or the
//! socket mesh of `vqmc-dist` — produces the exact byte sequence of the
//! single-process run at every iteration, which is what lets the golden
//! trace (-10.555253) be asserted under `--ranks ∈ {1,2,4}`.  The other
//! policy, per-rank data parallelism with its own RNG stream per rank,
//! is [`crate::DistributedTrainer`].

use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;
use vqmc_hamiltonian::{
    local_energies_into, LocalEnergyConfig, LocalEnergyScratch, SparseRowHamiltonian,
};
use vqmc_nn::WaveFunction;
use vqmc_optim::{Adam, Optimizer, Sgd, SrConfig, SrScratch, StochasticReconfiguration};
use vqmc_sampler::{SampleOutput, SampleStats, Sampler};
use vqmc_tensor::{Matrix, SpinBatch, Vector, Workspace};

use crate::backend::{Collective, CollectiveError, SoloCollective};
use crate::estimator::{energy_gradient_into, EnergyStats};

/// Which optimiser drives the update (paper §5.1 settings as defaults).
#[derive(Clone, Copy, Debug)]
pub enum OptimizerChoice {
    /// Plain SGD (paper lr 0.1).
    Sgd {
        /// Learning rate.
        lr: f64,
    },
    /// Adam (paper lr 0.01; the paper's default optimiser).
    Adam {
        /// Learning rate.
        lr: f64,
    },
    /// SGD on the stochastic-reconfiguration (natural-gradient)
    /// direction (paper: lr 0.1, λ = 10⁻³).
    SgdSr {
        /// Learning rate applied to the natural-gradient direction.
        lr: f64,
        /// SR solve configuration.
        sr: SrConfig,
    },
}

impl OptimizerChoice {
    /// The paper's default: Adam at lr 0.01.
    pub fn paper_default() -> Self {
        OptimizerChoice::Adam { lr: 0.01 }
    }

    /// The paper's SGD+SR setting.
    pub fn paper_sr() -> Self {
        OptimizerChoice::SgdSr {
            lr: 0.1,
            sr: SrConfig::default(),
        }
    }

    /// Table label ("SGD", "ADAM", "SGD+SR").
    pub fn label(&self) -> &'static str {
        match self {
            OptimizerChoice::Sgd { .. } => "SGD",
            OptimizerChoice::Adam { .. } => "ADAM",
            OptimizerChoice::SgdSr { .. } => "SGD+SR",
        }
    }

    /// Builds the base optimiser.  SR preconditions inside the trainer's
    /// step; its base step is SGD per the paper.
    pub fn build(&self) -> Box<dyn Optimizer> {
        match *self {
            OptimizerChoice::Sgd { lr } | OptimizerChoice::SgdSr { lr, .. } => Box::new(Sgd::new(lr)),
            OptimizerChoice::Adam { lr } => Box::new(Adam::new(lr)),
        }
    }
}

/// Contiguous row shard of a `total`-row batch owned by `rank`: the
/// first `total % world` ranks take one extra row.  Shards tile the
/// batch in rank order, which is the reassembly order after the
/// allgather.
pub fn shard_bounds(total: usize, world: usize, rank: usize) -> (usize, usize) {
    assert!(rank < world, "rank {rank} out of world {world}");
    let base = total / world;
    let extra = total % world;
    let lo = rank * base + rank.min(extra);
    let hi = lo + base + usize::from(rank < extra);
    (lo, hi)
}

/// Trainer configuration.
#[derive(Clone, Copy, Debug)]
pub struct TrainerConfig {
    /// Training iterations (paper: 300).
    pub iterations: usize,
    /// Batch size per iteration (paper single-GPU: 1024).
    pub batch_size: usize,
    /// Optimiser.
    pub optimizer: OptimizerChoice,
    /// Local-energy chunking.
    pub local_energy: LocalEnergyConfig,
    /// Master seed for the sampling RNG stream.
    pub seed: u64,
}

impl TrainerConfig {
    /// The paper's single-GPU setup: 300 iterations, batch 1024, Adam.
    pub fn paper_default(seed: u64) -> Self {
        TrainerConfig {
            iterations: 300,
            batch_size: 1024,
            optimizer: OptimizerChoice::paper_default(),
            local_energy: LocalEnergyConfig::default(),
            seed,
        }
    }
}

/// One training iteration's record.
#[derive(Clone, Debug)]
pub struct IterationRecord {
    /// Mean local energy (the training loss of Figure 2's red curves).
    pub energy: f64,
    /// Std-dev of the local energy (Figure 2's blue curves).
    pub std_dev: f64,
    /// Best (lowest) local energy in the batch.
    pub min_energy: f64,
    /// Wall-clock seconds spent in this iteration.
    pub wall_secs: f64,
    /// Sampler cost accounting.
    pub sample_stats: SampleStats,
}

/// A full training run's trace.
#[derive(Clone, Debug, Default)]
pub struct TrainingTrace {
    /// Per-iteration records, in order.
    pub records: Vec<IterationRecord>,
    /// Total wall-clock seconds.
    pub total_secs: f64,
}

impl TrainingTrace {
    /// Final recorded energy.
    pub fn final_energy(&self) -> f64 {
        self.records.last().expect("empty trace").energy
    }

    /// Minimum mean energy over the run.
    pub fn best_energy(&self) -> f64 {
        self.records
            .iter()
            .map(|r| r.energy)
            .fold(f64::INFINITY, f64::min)
    }
}

/// Evaluation result on a fresh test batch (the paper's protocol: draw
/// 1024 fresh samples from the trained model, report their mean).
#[derive(Clone, Debug)]
pub struct EvalResult {
    /// Energy statistics of the evaluation batch.
    pub stats: EnergyStats,
    /// The evaluation batch itself (for cut-value reporting etc.).
    pub batch: SpinBatch,
}

/// Every buffer one training iteration needs, owned across iterations
/// so that [`Trainer::step`] performs **zero heap allocations** once the
/// shapes are warm (two iterations suffice; verified by the
/// allocation-counter test in this crate).
#[derive(Debug, Default)]
struct TrainerScratch {
    /// Scratch pool for wavefunction forward/backward passes.
    ws: Workspace,
    /// The sampled batch and its `logψ`.
    sample_out: SampleOutput,
    /// Local energies `l(x)` per sample (the full batch, reassembled
    /// in rank order when sharded).
    local: Vector,
    /// This rank's rows of the sampled batch (world > 1 only).
    shard_batch: SpinBatch,
    /// This rank's slice of `logψ` (world > 1 only).
    shard_log_psi: Vector,
    /// Local energies of this rank's shard (world > 1 only).
    shard_local: Vector,
    /// Local-energy engine scratch (work items, neighbour batch).
    le: LocalEnergyScratch,
    /// Baseline-subtracted per-sample weights.
    weights: Vector,
    /// Energy gradient.
    grad: Vector,
    /// Parameter vector (round-tripped through the optimiser).
    params: Vector,
    /// Per-sample log-derivative rows `O` (SR only).
    o_rows: Matrix,
    /// SR solver scratch (mean row, CG vectors).
    sr: SrScratch,
    /// Natural-gradient direction (SR only).
    direction: Vector,
}

/// The VQMC trainer: one rank's state.  Multi-rank runs construct one
/// per rank with identical `(wf, sampler, config)`.
pub struct Trainer<W, S> {
    wf: W,
    sampler: S,
    config: TrainerConfig,
    rng: StdRng,
    scratch: TrainerScratch,
}

impl<W, S> Trainer<W, S>
where
    W: WaveFunction,
    S: Sampler<W>,
{
    /// Creates a trainer owning the wavefunction and sampler.  The RNG
    /// is the single-device stream (`derive_seed(seed, 0, 0)`) on every
    /// rank — replicated sampling needs no per-rank stream.
    pub fn new(wf: W, sampler: S, config: TrainerConfig) -> Self {
        let rng = StdRng::seed_from_u64(crate::derive_seed(config.seed, 0, 0));
        Trainer {
            wf,
            sampler,
            config,
            rng,
            scratch: TrainerScratch::default(),
        }
    }

    /// Read access to the (current) wavefunction.
    pub fn wavefunction(&self) -> &W {
        &self.wf
    }

    /// Consumes the trainer, returning the trained wavefunction.
    pub fn into_wavefunction(self) -> W {
        self.wf
    }

    /// The configuration.
    pub fn config(&self) -> &TrainerConfig {
        &self.config
    }

    /// Runs one training iteration, returning its record: the world-1
    /// [`Trainer::step_over`].
    ///
    /// Every intermediate lives in [`TrainerScratch`]; once buffer shapes
    /// are warm (two iterations) a step performs no heap allocation.
    pub fn step(&mut self, h: &dyn SparseRowHamiltonian, opt: &mut dyn Optimizer) -> IterationRecord {
        self.step_over(h, &mut SoloCollective, opt)
            .expect("a world-1 step calls no collective")
    }

    /// One training iteration as rank `coll.rank()` of `coll.world()`
    /// (see the module docs).  On any collective error the model
    /// parameters are untouched — the failure happens strictly before
    /// the optimiser step — so a surviving rank reports a clean
    /// [`CollectiveError`] without having applied a partial update.
    pub fn step_over(
        &mut self,
        h: &dyn SparseRowHamiltonian,
        coll: &mut dyn Collective,
        opt: &mut dyn Optimizer,
    ) -> Result<IterationRecord, CollectiveError> {
        let start = Instant::now();
        let bs = self.config.batch_size;
        let TrainerScratch {
            ws,
            sample_out,
            local,
            shard_batch,
            shard_log_psi,
            shard_local,
            le,
            weights,
            grad,
            params,
            o_rows,
            sr,
            direction,
        } = &mut self.scratch;

        // 1. Replicated sampling: the full batch on every rank.
        self.sampler
            .sample_into(&self.wf, bs, &mut self.rng, sample_out);

        // 2. Measurement: the whole batch at world 1, else this rank's
        // shard, allgathered and reassembled in rank order.
        let wf = &self.wf;
        let le_cfg = self.config.local_energy;
        let mut eval = |b: &SpinBatch, out: &mut Vector| wf.log_psi_into(b, ws, out);
        let world = coll.world();
        if world == 1 {
            local_energies_into(h, &sample_out.batch, &sample_out.log_psi, &mut eval, le_cfg, le, local);
        } else {
            let (lo, hi) = shard_bounds(bs, world, coll.rank());
            if hi > lo {
                sample_out.batch.copy_rows_into(lo..hi, shard_batch);
                shard_log_psi.resize(hi - lo);
                shard_log_psi
                    .as_mut_slice()
                    .copy_from_slice(&sample_out.log_psi.as_slice()[lo..hi]);
                local_energies_into(h, shard_batch, shard_log_psi, &mut eval, le_cfg, le, shard_local);
            } else {
                // More ranks than samples: this rank measures nothing but
                // still participates in the collective.
                shard_local.resize(0);
            }
            let gathered = coll.allgather(shard_local)?;
            local.resize(bs);
            for (r, part) in gathered.iter().enumerate() {
                let (rlo, rhi) = shard_bounds(bs, world, r);
                if part.len() != rhi - rlo {
                    return Err(CollectiveError::Protocol(format!(
                        "rank {r} gathered {} local energies, expected {}",
                        part.len(),
                        rhi - rlo
                    )));
                }
                local.as_mut_slice()[rlo..rhi].copy_from_slice(part.as_slice());
            }
        }

        // 3–4. Replicated statistics, gradient and update.
        let stats = EnergyStats::from_local_energies(local);
        energy_gradient_into(&self.wf, &sample_out.batch, local, stats.mean, ws, weights, grad);

        let update: &Vector = match self.config.optimizer {
            OptimizerChoice::SgdSr { sr: sr_cfg, .. } => {
                self.wf
                    .per_sample_grads_into(&sample_out.batch, ws, o_rows);
                StochasticReconfiguration::new(sr_cfg)
                    .precondition_into(o_rows, grad, sr, direction);
                direction
            }
            _ => grad,
        };
        self.wf.params_into(params);
        opt.step(params, update);
        self.wf.set_params(params);

        Ok(IterationRecord {
            energy: stats.mean,
            std_dev: stats.std_dev,
            min_energy: stats.min,
            wall_secs: start.elapsed().as_secs_f64(),
            sample_stats: sample_out.stats,
        })
    }

    /// Runs the configured number of iterations.
    pub fn run(&mut self, h: &dyn SparseRowHamiltonian) -> TrainingTrace {
        self.run_over(h, &mut SoloCollective)
            .expect("a world-1 run calls no collective")
    }

    /// Runs the configured number of iterations over `coll`, stopping at
    /// the first collective failure with no partial update applied.
    pub fn run_over(
        &mut self,
        h: &dyn SparseRowHamiltonian,
        coll: &mut dyn Collective,
    ) -> Result<TrainingTrace, CollectiveError> {
        let mut opt = self.make_optimizer();
        let start = Instant::now();
        let mut records = Vec::with_capacity(self.config.iterations);
        for _ in 0..self.config.iterations {
            records.push(self.step_over(h, coll, opt.as_mut())?);
        }
        Ok(TrainingTrace {
            records,
            total_secs: start.elapsed().as_secs_f64(),
        })
    }

    /// Builds the configured base optimiser ([`OptimizerChoice::build`]).
    pub fn make_optimizer(&self) -> Box<dyn Optimizer> {
        self.config.optimizer.build()
    }

    /// Draws a fresh evaluation batch from the trained model and
    /// reports its statistics (the paper's test protocol).
    pub fn evaluate(
        &mut self,
        h: &dyn SparseRowHamiltonian,
        eval_batch_size: usize,
    ) -> EvalResult {
        let out = self.sampler.sample(&self.wf, eval_batch_size, &mut self.rng);
        let TrainerScratch { ws, le, local, .. } = &mut self.scratch;
        let wf = &self.wf;
        let mut eval = |b: &SpinBatch, dst: &mut Vector| wf.log_psi_into(b, ws, dst);
        local_energies_into(
            h,
            &out.batch,
            &out.log_psi,
            &mut eval,
            self.config.local_energy,
            le,
            local,
        );
        EvalResult {
            stats: EnergyStats::from_local_energies(local),
            batch: out.batch,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vqmc_hamiltonian::{ground_state, MaxCut, TransverseFieldIsing};
    use vqmc_nn::{Made, Rbm};
    use vqmc_sampler::{AutoSampler, IncrementalAutoSampler, McmcSampler, RbmFastMcmc};

    fn small_config(iters: usize, bs: usize, opt: OptimizerChoice, seed: u64) -> TrainerConfig {
        TrainerConfig {
            iterations: iters,
            batch_size: bs,
            optimizer: opt,
            local_energy: LocalEnergyConfig::default(),
            seed,
        }
    }

    /// The invariant the incremental sampler's schedule rests on: a
    /// weight whose mask entry is 0 is stored as an exact zero, at init
    /// and after every optimiser step (Adam and SR alike), so skipping
    /// it skips an exact ±0 product.  The model is narrow (`h < n − 1`),
    /// where most of every mask is zero.
    #[test]
    fn masked_weights_stay_exactly_zero_through_adam_and_sr() {
        let n = 24;
        let h = TransverseFieldIsing::random(n, 5);
        for choice in [
            OptimizerChoice::paper_default(),
            OptimizerChoice::paper_sr(),
        ] {
            let cfg = small_config(4, 32, choice, 3);
            let wf = Made::with_hidden(n, &[10, 6], 3);
            let start = wf.params();
            let mut t = Trainer::new(wf, IncrementalAutoSampler::new(), cfg);
            let mut opt = t.make_optimizer();
            for step in 0..4 {
                t.step(&h, opt.as_mut());
                for (l, layer) in t.wavefunction().layers().iter().enumerate() {
                    let keys = layer.layer_mask().keys();
                    for (e, &w) in layer.w().as_slice().iter().enumerate() {
                        let (k, j) = (e / layer.in_dim(), e % layer.in_dim());
                        assert!(
                            keys.live(k, j) || w == 0.0,
                            "{choice:?} step {step}: layer {l} masked weight {e} is {w}"
                        );
                    }
                }
            }
            let end = t.wavefunction().params();
            assert_ne!(
                start.as_slice(),
                end.as_slice(),
                "{choice:?}: nothing trained"
            );
        }
    }

    #[test]
    fn energy_respects_variational_bound() {
        // L(θ) ≥ λ_min at every iteration (Eq. 1's inequality) — up to
        // Monte-Carlo noise, bounded here by 4σ/√bs.
        let n = 6;
        let h = TransverseFieldIsing::random(n, 3);
        let gs = ground_state(&h, 200, 1e-10);
        let cfg = small_config(30, 256, OptimizerChoice::paper_default(), 1);
        let mut t = Trainer::new(Made::new(n, 12, 7), AutoSampler::new(), cfg);
        let trace = t.run(&h);
        for (i, rec) in trace.records.iter().enumerate() {
            let tolerance = 4.0 * rec.std_dev / (256.0f64).sqrt() + 1e-9;
            assert!(
                rec.energy >= gs.energy - tolerance,
                "iter {i}: energy {} below λ_min {}",
                rec.energy,
                gs.energy
            );
        }
    }

    #[test]
    fn made_auto_converges_to_ground_state_small_tim() {
        let n = 5;
        let h = TransverseFieldIsing::random(n, 11);
        let gs = ground_state(&h, 200, 1e-10);
        let cfg = small_config(250, 512, OptimizerChoice::paper_default(), 5);
        let mut t = Trainer::new(Made::new(n, 12, 2), AutoSampler::new(), cfg);
        let trace = t.run(&h);
        let final_e = trace.records.last().unwrap().energy;
        let gap = (final_e - gs.energy) / gs.energy.abs();
        assert!(
            gap.abs() < 0.05,
            "converged to {final_e}, exact {}, relative gap {gap}",
            gs.energy
        );
        // Zero-variance diagnostic must have shrunk substantially.
        let first_std = trace.records[0].std_dev;
        let last_std = trace.records.last().unwrap().std_dev;
        assert!(last_std < first_std * 0.5, "{first_std} -> {last_std}");
    }

    #[test]
    fn sgd_sr_converges_faster_than_sgd_on_small_tim() {
        // The paper's observation: natural gradient reaches lower energy
        // in the same iteration budget.
        let n = 5;
        let h = TransverseFieldIsing::random(n, 21);
        let iters = 60;
        let run = |opt: OptimizerChoice| {
            let cfg = small_config(iters, 256, opt, 9);
            let mut t = Trainer::new(Made::new(n, 10, 9), AutoSampler::new(), cfg);
            t.run(&h).final_energy()
        };
        let sgd = run(OptimizerChoice::Sgd { lr: 0.1 });
        let sr = run(OptimizerChoice::paper_sr());
        assert!(
            sr <= sgd + 1e-6,
            "SR ({sr}) should not be worse than SGD ({sgd}) here"
        );
    }

    #[test]
    fn rbm_mcmc_trains_on_maxcut() {
        let n = 10;
        let mc = MaxCut::random(n, 5);
        let cfg = small_config(60, 128, OptimizerChoice::paper_default(), 2);
        let mut t = Trainer::new(
            Rbm::new(n, n, 4),
            RbmFastMcmc(McmcSampler::default()),
            cfg,
        );
        let trace = t.run(&mc);
        // Energy = −cut must improve over training.
        let first = trace.records[0].energy;
        let last = trace.final_energy();
        assert!(last < first, "no improvement: {first} -> {last}");
        // And the evaluation protocol returns a consistent batch.
        let eval = t.evaluate(&mc, 64);
        assert_eq!(eval.batch.batch_size(), 64);
        assert!(eval.stats.mean <= 0.0, "Max-Cut energies are non-positive");
    }

    #[test]
    fn trace_is_deterministic_given_seed() {
        let n = 5;
        let h = TransverseFieldIsing::random(n, 2);
        let run = || {
            let cfg = small_config(10, 64, OptimizerChoice::paper_default(), 77);
            let mut t = Trainer::new(Made::new(n, 8, 3), AutoSampler::new(), cfg);
            t.run(&h)
        };
        let a = run();
        let b = run();
        for (ra, rb) in a.records.iter().zip(&b.records) {
            assert_eq!(ra.energy, rb.energy);
            assert_eq!(ra.std_dev, rb.std_dev);
        }
    }

    #[test]
    fn optimizer_labels() {
        assert_eq!(OptimizerChoice::paper_default().label(), "ADAM");
        assert_eq!(OptimizerChoice::paper_sr().label(), "SGD+SR");
        assert_eq!(OptimizerChoice::Sgd { lr: 0.1 }.label(), "SGD");
    }

    #[test]
    fn shard_bounds_tile_the_batch() {
        for &(total, world) in &[(128usize, 1usize), (128, 2), (128, 3), (7, 4), (3, 5), (0, 2)] {
            let mut next = 0;
            for rank in 0..world {
                let (lo, hi) = shard_bounds(total, world, rank);
                assert_eq!(lo, next, "total {total}, world {world}, rank {rank}");
                assert!(hi >= lo);
                next = hi;
            }
            assert_eq!(next, total, "shards must cover the batch exactly");
            // Balanced: sizes differ by at most one row.
            let sizes: Vec<usize> = (0..world)
                .map(|r| {
                    let (lo, hi) = shard_bounds(total, world, r);
                    hi - lo
                })
                .collect();
            let (min, max) = (
                *sizes.iter().min().unwrap(),
                *sizes.iter().max().unwrap(),
            );
            assert!(max - min <= 1, "{sizes:?}");
        }
    }

    /// The design-carrying property: per-sample local energies are
    /// invariant to batch composition, so a shard's result equals the
    /// same slice of the full-batch result, bit for bit.
    #[test]
    fn shard_slices_match_full_batch() {
        let n = 8;
        let bs = 37;
        let h = TransverseFieldIsing::random(n, 5);
        let wf = Made::new(n, 12, 9);
        let mut rng = StdRng::seed_from_u64(1234);
        let mut sampler = IncrementalAutoSampler::new();
        let mut out = SampleOutput::default();
        sampler.sample_into(&wf, bs, &mut rng, &mut out);

        let mut ws = Workspace::default();
        let mut le = LocalEnergyScratch::default();
        let mut full = Vector::default();
        let mut eval = |b: &SpinBatch, dst: &mut Vector| wf.log_psi_into(b, &mut ws, dst);
        local_energies_into(
            &h,
            &out.batch,
            &out.log_psi,
            &mut eval,
            LocalEnergyConfig::default(),
            &mut le,
            &mut full,
        );

        for world in [2usize, 3, 5] {
            for rank in 0..world {
                let (lo, hi) = shard_bounds(bs, world, rank);
                let mut shard_batch = SpinBatch::default();
                out.batch.copy_rows_into(lo..hi, &mut shard_batch);
                let mut shard_lp = Vector::default();
                shard_lp.resize(hi - lo);
                shard_lp
                    .as_mut_slice()
                    .copy_from_slice(&out.log_psi.as_slice()[lo..hi]);
                let mut ws2 = Workspace::default();
                let mut le2 = LocalEnergyScratch::default();
                let mut shard = Vector::default();
                let mut eval2 =
                    |b: &SpinBatch, dst: &mut Vector| wf.log_psi_into(b, &mut ws2, dst);
                local_energies_into(
                    &h,
                    &shard_batch,
                    &shard_lp,
                    &mut eval2,
                    LocalEnergyConfig::default(),
                    &mut le2,
                    &mut shard,
                );
                assert_eq!(
                    shard.as_slice(),
                    &full.as_slice()[lo..hi],
                    "world {world}, rank {rank}: shard not bit-identical to full-batch slice"
                );
            }
        }
    }
}
