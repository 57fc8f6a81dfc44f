//! Data-parallel VQMC on the virtual cluster (paper §4, "Sampling
//! Parallelization").
//!
//! Every device holds an identical model replica, draws its own
//! `mbs` samples from its own RNG stream, measures local energies, and
//! computes a *partial* energy gradient against the **global** energy
//! baseline; the partials are combined by the deterministic tree
//! allreduce and every device applies the identical averaged gradient —
//! so the replicas stay bit-for-bit equal, which
//! [`DistributedTrainer::assert_replicas_consistent`] checks after every
//! iteration in debug builds (and tests check explicitly).
//!
//! Two collectives per iteration:
//!
//! 1. scalar statistics to form the global baseline `L̄` (an
//!    exact-global-batch refinement of the paper's "average the local
//!    gradients"; both are unbiased, the global baseline just removes
//!    an `O(1/mbs)` baseline-noise term, which matters at `mbs = 4`).
//!    Every rank allgathers 7 doubles — Σl, Σl², min and four sampler
//!    counters — and reduces the first three through a local
//!    [`allreduce_mean_tree`] pass.  The modelled clock charges this
//!    round as an allreduce of the 3 energy statistics;
//! 2. the `d`-double gradient — the `O(h·n)` communication of Eq. 15.
//!
//! **One step, two placements.**  Every iteration is the single rank
//! body `step_rank` over a [`Collective`]; where the other ranks live
//! is chosen at construction:
//!
//! * [`DistributedTrainer::new`] — the in-process [`Cluster`]: this
//!   process owns all `L` replica states and runs them as `L`
//!   [`ThreadMesh`] ranks on scoped threads, then charges the
//!   synthetic-cost model of `vqmc-cluster` (the modelled clock carries
//!   the weak-scaling figures).
//! * [`DistributedTrainer::over_mesh`] — one rank of a real
//!   multi-process mesh ([`Collective`], e.g. `vqmc_dist::Mesh` over
//!   TCP): this process owns exactly *its* replica.
//!
//! The gradient travels by the collective's allreduce, whose pairwise
//! schedule is that same tree.  Because per-rank RNG streams, reduction
//! order and update order are fixed, an `L`-rank socket run is
//! **bit-identical** to an `L`-device cluster run — property-tested in
//! `vqmc-dist`.
//!
//! Timing: the cluster arm charges the modelled clock from the flop
//! counts in [`crate::cost`] and the tree cost of each allreduce
//! ([`vqmc_cluster::tree_comm_secs`]).  See `vqmc-cluster` docs for why
//! modelled time carries the weak-scaling claims.

use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::{Duration, Instant};

use vqmc_cluster::{allreduce_mean_tree, Cluster, Topology};
use vqmc_hamiltonian::{local_energies_into, LocalEnergyConfig, LocalEnergyScratch, SparseRowHamiltonian};
use vqmc_nn::WaveFunction;
use vqmc_optim::Optimizer;
use vqmc_sampler::{SampleOutput, SampleStats, Sampler};
use vqmc_tensor::{SpinBatch, Vector, Workspace};

use crate::backend::{Collective, CollectiveError, ThreadMesh};
use crate::cost;
use crate::trainer::{IterationRecord, OptimizerChoice, TrainingTrace};

/// Configuration for a distributed run.
#[derive(Clone, Copy, Debug)]
pub struct DistributedConfig {
    /// Training iterations.
    pub iterations: usize,
    /// Per-device minibatch `mbs` (effective batch = `mbs × L`).
    pub minibatch_per_device: usize,
    /// Optimiser (the paper's scaling experiments use Adam).
    pub optimizer: OptimizerChoice,
    /// Local-energy chunking.
    pub local_energy: LocalEnergyConfig,
    /// Master seed; device `r` streams from `derive_seed(seed, r, ·)`.
    pub seed: u64,
    /// Hidden width `h` used for flop accounting.
    pub cost_hidden: usize,
    /// Off-diagonal connections per row for flop accounting (TIM: `n`,
    /// Max-Cut: 0).
    pub cost_offdiag: usize,
}

/// Everything one device owns: its model replica, RNG stream, optimiser
/// state, its **own sampler instance** (samplers carry mutable scratch —
/// activation workspaces, cached weight transposes — so they cannot be
/// shared across device threads), and the per-device buffers that make
/// the steady-state iteration allocation-free on every device.
struct DeviceState<W, S> {
    wf: W,
    rng: StdRng,
    opt: Box<dyn Optimizer>,
    sampler: S,
    /// Sampled batch + logψ, reused across iterations.
    out: SampleOutput,
    /// Local energies `l(x)` per sample.
    local: Vector,
    /// Local-energy engine scratch.
    le: LocalEnergyScratch,
    /// Scratch pool for wavefunction forward/backward passes.
    ws: Workspace,
    /// Baseline-subtracted per-sample weights.
    weights: Vector,
    /// Parameter vector round-tripped through the optimiser.
    params: Vector,
}

impl<W, S> DeviceState<W, S>
where
    W: WaveFunction + Clone,
    S: Sampler<W> + Clone,
{
    fn new(rank: usize, wf: &W, sampler: &S, config: &DistributedConfig) -> Self {
        assert!(
            !matches!(config.optimizer, OptimizerChoice::SgdSr { .. }),
            "DistributedTrainer does not support SGD+SR: SR needs the per-sample rows of the \
             global batch; use Sgd or Adam, or Trainer for SR"
        );
        DeviceState {
            wf: wf.clone(),
            rng: StdRng::seed_from_u64(crate::derive_seed(config.seed, rank as u64, 1)),
            opt: config.optimizer.build(),
            sampler: sampler.clone(),
            out: SampleOutput::default(),
            local: Vector::default(),
            le: LocalEnergyScratch::default(),
            ws: Workspace::default(),
            weights: Vector::default(),
            params: Vector::default(),
        }
    }
}

/// Where the other replicas live.
enum Backend {
    /// In-process: this trainer owns all `L` device states, steps them
    /// as `L` thread-mesh ranks and charges the synthetic-cost cluster.
    Cluster(Cluster),
    /// One rank of a real multi-process communicator; this trainer owns
    /// exactly one device state.
    Mesh(Box<dyn Collective>),
}

/// Data-parallel trainer over a [`Cluster`] or a rank mesh.
pub struct DistributedTrainer<W, S> {
    backend: Backend,
    states: Vec<DeviceState<W, S>>,
    config: DistributedConfig,
}

impl<W, S> DistributedTrainer<W, S>
where
    W: WaveFunction + Clone,
    S: Sampler<W> + Clone,
{
    /// Builds the in-process trainer: `wf` is replicated onto every
    /// device; each device gets an independent RNG stream, its own
    /// optimiser instance and its own sampler clone (identical
    /// construction ⇒ identical trajectories; sampler scratch is
    /// per-device).
    pub fn new(cluster: Cluster, wf: W, sampler: S, config: DistributedConfig) -> Self {
        let l = cluster.num_devices();
        let states = (0..l)
            .map(|rank| DeviceState::new(rank, &wf, &sampler, &config))
            .collect();
        DistributedTrainer {
            backend: Backend::Cluster(cluster),
            states,
            config,
        }
    }

    /// Builds one rank's trainer over a real communicator: this process
    /// owns the replica for `mesh.rank()` and nothing else.  All ranks
    /// must construct with identical `(wf, sampler, config)`; the
    /// per-rank RNG stream is derived exactly as in the cluster
    /// backend, so an `L`-rank mesh run is bit-identical to an
    /// `L`-device cluster run.
    pub fn over_mesh(mesh: Box<dyn Collective>, wf: W, sampler: S, config: DistributedConfig) -> Self {
        let state = DeviceState::new(mesh.rank(), &wf, &sampler, &config);
        DistributedTrainer {
            backend: Backend::Mesh(mesh),
            states: vec![state],
            config,
        }
    }

    /// Number of devices `L` (all ranks, whatever the backend).
    pub fn num_devices(&self) -> usize {
        match &self.backend {
            Backend::Cluster(c) => c.num_devices(),
            Backend::Mesh(m) => m.world(),
        }
    }

    /// Effective global batch size `mbs × L`.
    pub fn effective_batch_size(&self) -> usize {
        self.config.minibatch_per_device * self.num_devices()
    }

    /// The cluster (for clock readout).
    ///
    /// # Panics
    /// On a mesh-backed trainer, which has no modelled clock.
    pub fn cluster(&self) -> &Cluster {
        match &self.backend {
            Backend::Cluster(c) => c,
            Backend::Mesh(_) => panic!("cluster(): trainer runs on a socket mesh"),
        }
    }

    /// Asserts every replica held *by this process* is bit-identical.
    /// On the cluster backend that is all `L` replicas; on a mesh rank
    /// it is trivially true (cross-process consistency is asserted by
    /// the `vqmc-dist` oracle tests instead).
    pub fn assert_replicas_consistent(&self) {
        let reference = self.states[0].wf.params();
        for (rank, st) in self.states.iter().enumerate().skip(1) {
            let p = st.wf.params();
            assert_eq!(
                reference.as_slice(),
                p.as_slice(),
                "replica {rank} diverged from rank 0"
            );
        }
    }

    /// Final parameters of the (rank-0 or local) replica.
    pub fn params(&self) -> Vector {
        self.states[0].wf.params()
    }

    /// One distributed training iteration.
    ///
    /// # Panics
    /// On a collective failure (mesh backend only) — use
    /// [`DistributedTrainer::try_step`] where rank loss must be
    /// handled.
    pub fn step(&mut self, h: &dyn SparseRowHamiltonian) -> IterationRecord {
        self.try_step(h).expect("collective failed")
    }

    /// One distributed training iteration, surfacing collective
    /// failures.  On `Err` no partial update has been applied: every
    /// communication round completes before the optimiser step runs.
    pub fn try_step(
        &mut self,
        h: &dyn SparseRowHamiltonian,
    ) -> Result<IterationRecord, CollectiveError> {
        let config = self.config;
        let cluster = match &mut self.backend {
            Backend::Mesh(mesh) => {
                return step_rank(mesh.as_mut(), &mut self.states[0], &config, h)
            }
            Backend::Cluster(cluster) => cluster,
        };
        // The L replicas run as L ThreadMesh ranks.  A panicking rank
        // fails its peers' rounds at once (the mesh's drop guard), so
        // the deadline is only a backstop.
        let meshes = ThreadMesh::split(self.states.len(), Duration::from_secs(3600));
        let mut recs = fan_out(meshes.into_iter().zip(&mut self.states), |(mut mesh, st)| {
            step_rank(&mut mesh, st, &config, h)
        })
        .into_iter();
        let rec = recs.next().expect("rank 0");
        for peer in recs {
            peer?;
        }
        let rec = rec?;

        // Charge the modelled clock: phase-1 compute (streamed flops plus
        // the launch overhead of every batched pass — rank 0's sampling
        // passes, +2 for the measurement's own-batch and neighbour
        // evaluations), the 3-double scalar-stats allreduce, the backward
        // pass, the d-double gradient allreduce (the O(h·n) of Eq. 15).
        let (mbs, n, hid) = (config.minibatch_per_device, h.num_spins(), config.cost_hidden);
        cluster.charge_flops_all(
            cost::auto_sampling_flops(mbs, n, hid)
                + cost::measurement_flops(mbs, n, hid, config.cost_offdiag),
        );
        cluster.charge_passes_all(self.states[0].out.stats.forward_passes + 2);
        cluster.charge_allreduce(3);
        cluster.charge_flops_all(cost::backward_flops(mbs, n, hid));
        cluster.charge_passes_all(1);
        cluster.charge_allreduce(self.states[0].params.len());
        cluster.sync();
        if cfg!(debug_assertions) {
            self.assert_replicas_consistent();
        }
        Ok(rec)
    }

    /// Runs the configured number of iterations.
    ///
    /// # Panics
    /// On a collective failure — see [`DistributedTrainer::try_run`].
    pub fn run(&mut self, h: &dyn SparseRowHamiltonian) -> TrainingTrace {
        self.try_run(h).expect("collective failed")
    }

    /// Runs the configured number of iterations, stopping cleanly at
    /// the first collective failure.
    pub fn try_run(
        &mut self,
        h: &dyn SparseRowHamiltonian,
    ) -> Result<TrainingTrace, CollectiveError> {
        let start = std::time::Instant::now();
        let mut records = Vec::with_capacity(self.config.iterations);
        for _ in 0..self.config.iterations {
            records.push(self.try_step(h)?);
        }
        Ok(TrainingTrace {
            records,
            total_secs: start.elapsed().as_secs_f64(),
        })
    }

    /// A sampling-only round (the measurement of the paper's Figure 3):
    /// every device draws `mbs` samples; only sampling flops are
    /// charged.  Returns the modelled seconds the round took.
    ///
    /// # Panics
    /// On a mesh-backed trainer (no modelled clock).
    pub fn sampling_round(&mut self) -> f64 {
        let cluster = match &mut self.backend {
            Backend::Cluster(c) => c,
            Backend::Mesh(_) => panic!("sampling_round(): trainer runs on a socket mesh"),
        };
        let before = cluster.elapsed_modelled();
        let mbs = self.config.minibatch_per_device;
        let hid = self.config.cost_hidden;
        let (n, passes) = fan_out(&mut self.states, |st| {
            let DeviceState {
                wf, rng, sampler, out, ..
            } = st;
            sampler.sample_into(wf, mbs, rng, out);
            (out.batch.num_spins(), out.stats.forward_passes)
        })[0];
        cluster.charge_flops_all(cost::auto_sampling_flops(mbs, n, hid));
        cluster.charge_passes_all(passes);
        cluster.sync();
        cluster.elapsed_modelled() - before
    }

    /// Total modelled seconds elapsed on the cluster (0 on a mesh rank,
    /// which has wall-clock time only).
    pub fn elapsed_modelled(&self) -> f64 {
        match &self.backend {
            Backend::Cluster(c) => c.elapsed_modelled(),
            Backend::Mesh(_) => 0.0,
        }
    }
}

/// Runs `f` once per rank, all ranks concurrently: rank 0 on the
/// calling thread, the rest on scoped threads.  Each rank's input is
/// moved onto its own stack, so a rank that unwinds drops it; a peer's
/// panic is resumed here.  Returns the results in rank order.
fn fan_out<I, R>(ranks: impl IntoIterator<Item = I>, f: impl Fn(I) -> R + Sync) -> Vec<R>
where
    I: Send,
    R: Send,
{
    let mut ranks = ranks.into_iter();
    let first = ranks.next().expect("at least one rank");
    std::thread::scope(|scope| {
        let f = &f;
        let peers: Vec<_> = ranks.map(|input| scope.spawn(move || f(input))).collect();
        let mut results = Vec::with_capacity(peers.len() + 1);
        results.push(f(first));
        for peer in peers {
            results.push(peer.join().unwrap_or_else(|p| std::panic::resume_unwind(p)));
        }
        results
    })
}

/// One rank's iteration — the only step body, whatever the placement.
///
/// Three phases around two collectives.  The scalar statistics are
/// **allgathered** (7 doubles: Σl, Σl², min + 4 sampler counters) and
/// every rank runs the *same local* [`allreduce_mean_tree`] over the
/// rank-ordered triples — same function, same inputs, same bits on
/// every rank.  The gradient takes the collective's allreduce.  The
/// update runs only after every collective of the iteration has
/// succeeded, so an `Err` leaves no partial state.
fn step_rank<W, S>(
    coll: &mut dyn Collective,
    st: &mut DeviceState<W, S>,
    config: &DistributedConfig,
    h: &dyn SparseRowHamiltonian,
) -> Result<IterationRecord, CollectiveError>
where
    W: WaveFunction,
    S: Sampler<W>,
{
    let start = Instant::now();
    let mbs = config.minibatch_per_device;
    let l = coll.world();
    let DeviceState {
        wf,
        rng,
        opt,
        sampler,
        out,
        local,
        le,
        ws,
        weights,
        params,
    } = st;

    // Phase 1: this rank's sample + measure.
    sampler.sample_into(wf, mbs, rng, out);
    let wf_ref: &W = wf;
    let mut eval = |b: &SpinBatch, dst: &mut Vector| wf_ref.log_psi_into(b, ws, dst);
    local_energies_into(h, &out.batch, &out.log_psi, &mut eval, config.local_energy, le, local);

    // Collective 1: allgather the scalar stats, then reduce the
    // rank-ordered triples through the local tree.  The sampler
    // counters ride along as exact small integers in f64.
    let sum: f64 = local.sum();
    let sum_sq: f64 = local.iter().map(|l| l * l).sum();
    let sstats = out.stats;
    let packed = Vector(vec![
        sum,
        sum_sq,
        local.min(),
        sstats.forward_passes as f64,
        sstats.configurations_evaluated as f64,
        sstats.proposals as f64,
        sstats.accepted as f64,
    ]);
    let gathered = coll.allgather(&packed)?;
    if gathered.len() != l || gathered.iter().any(|g| g.len() != 7) {
        return Err(CollectiveError::Protocol(
            "scalar-stats allgather returned wrong shape".into(),
        ));
    }
    let scalar_vectors: Vec<Vector> = gathered
        .iter()
        .map(|g| Vector(vec![g[0], g[1], g[2]]))
        .collect();
    let scalar_mean = allreduce_mean_tree(scalar_vectors, &Topology::new(1, l)).0;
    let bs_global = (mbs * l) as f64;
    let energy = scalar_mean[0] * l as f64 / bs_global;
    let mean_sq = scalar_mean[1] * l as f64 / bs_global;
    let variance = (mean_sq - energy * energy).max(0.0);
    let min_energy = gathered.iter().map(|g| g[2]).fold(f64::INFINITY, f64::min);

    // Phase 2: the partial gradient against the global baseline,
    // normalised so the allreduce MEAN of partials is the global
    // gradient; collective 2 averages it.
    weights.resize(mbs);
    for (w, &l) in weights.iter_mut().zip(local.iter()) {
        *w = 2.0 * (l - energy) / mbs as f64;
    }
    let mut grad = Vector::default();
    wf.weighted_log_psi_grad_into(&out.batch, weights, ws, &mut grad);
    let avg_grad = coll.allreduce_mean(grad)?;

    // Phase 3: the identical local update.
    wf.params_into(params);
    opt.step(params, &avg_grad);
    wf.set_params(params);

    let agg_stats = gathered
        .iter()
        .fold(SampleStats::default(), |mut acc, g| {
            acc.forward_passes += g[3] as usize;
            acc.configurations_evaluated += g[4] as usize;
            acc.proposals += g[5] as usize;
            acc.accepted += g[6] as usize;
            acc
        });
    Ok(IterationRecord {
        energy,
        std_dev: variance.sqrt(),
        min_energy,
        wall_secs: start.elapsed().as_secs_f64(),
        sample_stats: agg_stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use vqmc_cluster::{DeviceSpec, Topology};
    use vqmc_hamiltonian::TransverseFieldIsing;
    use vqmc_nn::Made;
    use vqmc_sampler::AutoSampler;

    fn config(iters: usize, mbs: usize, seed: u64, h: usize, n: usize) -> DistributedConfig {
        DistributedConfig {
            iterations: iters,
            minibatch_per_device: mbs,
            optimizer: OptimizerChoice::paper_default(),
            local_energy: LocalEnergyConfig::default(),
            seed,
            cost_hidden: h,
            cost_offdiag: n,
        }
    }

    fn trainer(l1: usize, l2: usize, n: usize, mbs: usize) -> DistributedTrainer<Made, AutoSampler> {
        let cluster = Cluster::new(Topology::new(l1, l2), DeviceSpec::v100());
        let wf = Made::new(n, 10, 42);
        DistributedTrainer::new(cluster, wf, AutoSampler::new(), config(3, mbs, 7, 10, n))
    }

    #[test]
    fn replicas_stay_bit_identical() {
        let n = 6;
        let h = TransverseFieldIsing::random(n, 13);
        let mut t = trainer(2, 2, n, 8);
        for _ in 0..4 {
            t.step(&h);
            t.assert_replicas_consistent();
        }
    }

    #[test]
    fn single_device_matches_plain_trainer_energy_scale() {
        // A 1×1 distributed run must behave like the plain trainer (same
        // estimator; RNG streams differ so exact equality is not
        // expected, but the energies must be in the same regime and
        // finite).
        let n = 5;
        let h = TransverseFieldIsing::random(n, 3);
        let mut t = trainer(1, 1, n, 64);
        let rec = t.step(&h);
        assert!(rec.energy.is_finite());
        assert!(rec.std_dev >= 0.0);
    }

    #[test]
    #[should_panic(expected = "does not support SGD+SR")]
    fn sgd_sr_is_rejected_at_construction() {
        let cluster = Cluster::new(Topology::new(1, 2), DeviceSpec::v100());
        let mut cfg = config(1, 4, 1, 10, 5);
        cfg.optimizer = OptimizerChoice::paper_sr();
        DistributedTrainer::new(cluster, Made::new(5, 10, 1), AutoSampler::new(), cfg);
    }

    #[test]
    fn more_devices_increase_effective_batch() {
        let t1 = trainer(1, 2, 6, 4);
        let t2 = trainer(2, 4, 6, 4);
        assert_eq!(t1.effective_batch_size(), 8);
        assert_eq!(t2.effective_batch_size(), 32);
    }

    #[test]
    fn modelled_time_nearly_constant_in_device_count() {
        // Weak scaling: same mbs per device, more devices — the modelled
        // round time must stay within a few percent (only the log-depth
        // allreduce grows).
        let n = 8;
        let mut times = Vec::new();
        for (l1, l2) in [(1, 1), (1, 4), (4, 4)] {
            let mut t = trainer(l1, l2, n, 16);
            let secs = t.sampling_round();
            times.push(secs);
        }
        let t0 = times[0];
        for (i, &t) in times.iter().enumerate() {
            assert!(
                (t / t0 - 1.0).abs() < 0.05,
                "config {i}: {t} vs baseline {t0} breaks weak scaling"
            );
        }
    }

    #[test]
    fn distributed_energy_improves_with_training() {
        let n = 6;
        let h = TransverseFieldIsing::random(n, 8);
        let cluster = Cluster::new(Topology::new(1, 2), DeviceSpec::v100());
        let wf = Made::new(n, 12, 5);
        let mut t = DistributedTrainer::new(
            cluster,
            wf,
            AutoSampler::new(),
            config(40, 64, 3, 12, n),
        );
        let trace = t.run(&h);
        assert!(
            trace.final_energy() < trace.records[0].energy,
            "training must lower the energy"
        );
    }
}
