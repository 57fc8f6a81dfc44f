//! # vqmc-core
//!
//! The VQMC driver — the paper's primary contribution assembled from the
//! workspace's substrates:
//!
//! * [`estimator`] — the Monte-Carlo estimators of the paper's Eqs. 3–5:
//!   local-energy statistics (mean, the zero-variance diagnostic) and
//!   the baseline-subtracted energy gradient;
//! * [`trainer`] — the training loop (sample → measure → gradient →
//!   update), one step over any [`Collective`] with the single process
//!   as world size 1.  Its multi-rank policy is replicated sampling
//!   with sharded measurement, which reproduces the single-process
//!   golden trace at any `--ranks`; it produces the per-iteration
//!   [`trainer::TrainingTrace`] behind Figure 2 and Tables 1–5;
//! * [`distributed`] — the other policy, per-rank data parallelism:
//!   each rank samples its own minibatch from its own RNG stream, and a
//!   deterministic gradient allreduce keeps the replicas bit-identical
//!   (asserted, not assumed).  The same rank step runs over a real mesh
//!   or over the in-process [`vqmc_cluster::Cluster`] with its modelled
//!   clock — the engine of Figures 3–4 and Tables 6–7;
//! * [`backend`] — the [`backend::Collective`] seam both policies
//!   communicate through: world-size-1, in-process thread rendezvous
//!   (the oracle), or the real-socket mesh of `vqmc-dist`;
//! * [`hitting`] — the time-to-target harness of Table 5;
//! * [`cost`] — the flop/byte accounting that drives the modelled
//!   cluster clock (see `vqmc-cluster` for why modelled time, not
//!   wall-clock, carries the weak-scaling results on this host).

#![warn(missing_docs)]

pub mod backend;
pub mod cost;
pub mod distributed;
pub mod estimator;
pub mod hitting;
pub mod observables;
pub mod trainer;

pub use backend::{Collective, CollectiveError, SoloCollective, ThreadMesh};
pub use distributed::{DistributedConfig, DistributedTrainer};
pub use estimator::{energy_gradient, EnergyStats};
pub use hitting::{hitting_time, HittingConfig, HittingResult};
pub use trainer::{
    shard_bounds, EvalResult, IterationRecord, OptimizerChoice, Trainer, TrainerConfig,
    TrainingTrace,
};

/// Derives a per-(device, purpose) RNG seed from a master seed.
///
/// The constants are arbitrary odd multipliers; what matters is that
/// distinct `(master, rank, stream)` triples map to distinct,
/// well-separated seeds so device streams never collide.
pub fn derive_seed(master: u64, rank: u64, stream: u64) -> u64 {
    master
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(rank.wrapping_mul(0xBF58_476D_1CE4_E5B9))
        .wrapping_add(stream.wrapping_mul(0x94D0_49BB_1331_11EB))
}

/// A heap-allocation counter installed as the global allocator in this
/// crate's test build only.  Two counters are maintained: a **per
/// thread** count (concurrent tests do not pollute each other's
/// readings — used by the single-thread steady-state tests in
/// [`alloc_test`]) and a **process-wide** count (catches allocations
/// made by the `vqmc_tensor::par` pool workers, which a per-thread
/// counter on the test thread is blind to — used by the pool-active
/// steady-state test).
#[cfg(test)]
pub(crate) mod alloc_counter {
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::cell::Cell;
    use std::sync::atomic::{AtomicU64, Ordering};

    thread_local! {
        // `const` init: reading/writing never allocates, so the counter
        // is safe to touch from inside the allocator itself.
        static ALLOCS: Cell<u64> = const { Cell::new(0) };
    }

    static GLOBAL_ALLOCS: AtomicU64 = AtomicU64::new(0);

    #[inline]
    fn count() {
        ALLOCS.with(|c| c.set(c.get() + 1));
        GLOBAL_ALLOCS.fetch_add(1, Ordering::Relaxed);
    }

    /// Forwards to [`System`], counting `alloc`/`alloc_zeroed`/`realloc`
    /// calls made by the current thread and by the whole process.
    pub struct CountingAllocator;

    unsafe impl GlobalAlloc for CountingAllocator {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            count();
            System.alloc(layout)
        }

        unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
            count();
            System.alloc_zeroed(layout)
        }

        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            count();
            System.realloc(ptr, layout, new_size)
        }

        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            System.dealloc(ptr, layout)
        }
    }

    #[global_allocator]
    static COUNTER: CountingAllocator = CountingAllocator;

    /// Heap allocations made by the calling thread so far.
    pub fn current_thread_allocs() -> u64 {
        ALLOCS.with(|c| c.get())
    }

    /// Heap allocations made by the whole process so far (every thread,
    /// pool workers included).
    pub fn global_allocs() -> u64 {
        GLOBAL_ALLOCS.load(Ordering::Relaxed)
    }
}

/// The acceptance test for the zero-allocation training hot path: after
/// a two-iteration warm-up, a [`Trainer::step`] performs **zero** heap
/// allocations — sampling, local energies, backprop and the optimiser
/// update all run out of reused buffers.
#[cfg(test)]
mod alloc_test {
    use crate::alloc_counter::{current_thread_allocs, global_allocs};
    use crate::trainer::{OptimizerChoice, Trainer, TrainerConfig};
    use vqmc_hamiltonian::{LocalEnergyConfig, MaxCut, SparseRowHamiltonian, TransverseFieldIsing};
    use vqmc_nn::{Made, MadeF32, MadeF32Workspace};
    use vqmc_sampler::{
        AutoSampler, BatchSampler, IncrementalAutoSampler, MadeBatchSampler, SampleRequest,
    };
    use vqmc_tensor::{par, Precision, SpinBatch, Vector};

    fn config(opt: OptimizerChoice) -> TrainerConfig {
        TrainerConfig {
            iterations: 8,
            batch_size: 64,
            optimizer: opt,
            local_energy: LocalEnergyConfig::default(),
            seed: 11,
        }
    }

    /// After a two-call warm-up (the first call sizes every buffer; the
    /// second catches anything sized lazily off the first call's data),
    /// four more calls of `call` make no heap allocation on this thread.
    fn assert_calls_alloc_free(mut call: impl FnMut(), label: &str) {
        call();
        call();
        let before = current_thread_allocs();
        for _ in 0..4 {
            call();
        }
        let after = current_thread_allocs();
        assert_eq!(
            after - before,
            0,
            "{label}: {} heap allocations in 4 steady-state calls",
            after - before
        );
    }

    /// With the worker pool active (4 threads, work big enough that the
    /// kernels actually dispatch to workers), steady-state calls still
    /// perform **zero** heap allocations — measured with the
    /// *process-wide* counter, so worker threads are in scope.  Pool
    /// dispatch borrows the caller's job closure (no boxing), workers
    /// are spawned during warm-up, and every kernel runs out of buffers
    /// sized on the first calls.
    ///
    /// Other tests in this binary run concurrently and also allocate, so
    /// a single global-delta reading can be polluted.  A call that
    /// itself allocates does so on *every* round; we therefore require
    /// at least one clean round out of several, which is immune to
    /// transient pollution but still fails reliably on a real
    /// regression.
    fn assert_pool_calls_alloc_free(mut call: impl FnMut(), label: &str) {
        vqmc_tensor::par::with_threads(4, || {
            // Warm-up: sizes every buffer *and* spawns the pool workers
            // (their stacks and TLS are one-time costs, not steady state).
            call();
            call();
            let mut best = u64::MAX;
            for _ in 0..8 {
                let before = global_allocs();
                call();
                let after = global_allocs();
                best = best.min(after - before);
                if best == 0 {
                    break;
                }
            }
            assert_eq!(
                best, 0,
                "{label}: pool-active steady state: best round still made {best} heap allocations"
            );
        });
    }

    fn assert_steady_state_alloc_free(
        mut t: Trainer<Made, impl vqmc_sampler::Sampler<Made>>,
        h: &dyn SparseRowHamiltonian,
        label: &str,
    ) {
        let mut opt = t.make_optimizer();
        assert_calls_alloc_free(
            || {
                t.step(h, opt.as_mut());
            },
            label,
        );
    }

    fn assert_pool_active_alloc_free(
        mut t: Trainer<Made, impl vqmc_sampler::Sampler<Made>>,
        h: &dyn SparseRowHamiltonian,
        label: &str,
    ) {
        let mut opt = t.make_optimizer();
        assert_pool_calls_alloc_free(
            || {
                t.step(h, opt.as_mut());
            },
            label,
        );
    }

    #[test]
    fn trainer_step_is_allocation_free_at_steady_state() {
        let n = 6;
        let h = TransverseFieldIsing::random(n, 3);
        let t = Trainer::new(
            Made::new(n, 12, 7),
            AutoSampler::new(),
            config(OptimizerChoice::paper_default()),
        );
        assert_steady_state_alloc_free(t, &h, "AUTO + Adam");
    }

    #[test]
    fn incremental_sampler_step_is_allocation_free_at_steady_state() {
        let n = 6;
        let h = TransverseFieldIsing::random(n, 3);
        let t = Trainer::new(
            Made::new(n, 12, 7),
            IncrementalAutoSampler::new(),
            config(OptimizerChoice::paper_default()),
        );
        assert_steady_state_alloc_free(t, &h, "AUTO-incremental + Adam");
    }

    #[test]
    fn sr_step_is_allocation_free_at_steady_state() {
        let n = 6;
        let h = TransverseFieldIsing::random(n, 3);
        let t = Trainer::new(
            Made::new(n, 12, 7),
            AutoSampler::new(),
            config(OptimizerChoice::paper_sr()),
        );
        assert_steady_state_alloc_free(t, &h, "AUTO + SGD+SR");
    }

    /// A depth-2 stack changes the buffer story — per-layer activations,
    /// per-layer gradients, the deep sampling panels — but not the
    /// invariant: after warm-up, `Trainer::step` performs **zero** heap
    /// allocations at depth 2 as well.
    #[test]
    fn deep_trainer_step_is_allocation_free_at_steady_state() {
        let n = 6;
        let h = TransverseFieldIsing::random(n, 3);
        let t = Trainer::new(
            Made::with_hidden(n, &[12, 8], 7),
            AutoSampler::new(),
            config(OptimizerChoice::paper_default()),
        );
        assert_steady_state_alloc_free(t, &h, "depth-2 AUTO + Adam");
    }

    /// Same invariant through the incremental sampler, which at depth ≥ 2
    /// runs the deep panel pipeline with its retained stripe buffers.
    #[test]
    fn deep_incremental_sampler_step_is_allocation_free_at_steady_state() {
        let n = 6;
        let h = TransverseFieldIsing::random(n, 3);
        let t = Trainer::new(
            Made::with_hidden(n, &[12, 8], 7),
            IncrementalAutoSampler::new(),
            config(OptimizerChoice::paper_default()),
        );
        assert_steady_state_alloc_free(t, &h, "depth-2 AUTO-incremental + Adam");
    }

    /// Max-Cut's diagonal runs the sample-tiled sparse kernel: 70 spins
    /// (not a multiple of 64) and 40 samples (two full tiles of 16 plus a
    /// partial one).
    #[test]
    fn maxcut_step_is_allocation_free_at_steady_state() {
        let n = 70;
        let h = MaxCut::random(n, 3);
        let t = Trainer::new(
            Made::new(n, 16, 7),
            IncrementalAutoSampler::new(),
            TrainerConfig {
                batch_size: 40,
                ..config(OptimizerChoice::paper_default())
            },
        );
        assert_steady_state_alloc_free(t, &h, "Max-Cut AUTO-incremental + Adam");
    }

    #[test]
    fn pool_active_trainer_step_is_allocation_free_at_steady_state() {
        let n = 16;
        let h = TransverseFieldIsing::random(n, 5);
        let t = Trainer::new(
            Made::new(n, 32, 9),
            AutoSampler::new(),
            TrainerConfig {
                iterations: 8,
                batch_size: 256,
                optimizer: OptimizerChoice::paper_default(),
                local_energy: LocalEnergyConfig::default(),
                seed: 13,
            },
        );
        assert_pool_active_alloc_free(t, &h, "TIM AUTO + Adam");
    }

    /// Pool-active Max-Cut: 256 samples × ~600 edges is past the
    /// parallel threshold, so the diagonal's tiles stripe over 4 workers.
    #[test]
    fn pool_active_maxcut_step_is_allocation_free_at_steady_state() {
        let n = 70;
        let h = MaxCut::random(n, 5);
        let t = Trainer::new(
            Made::new(n, 16, 9),
            IncrementalAutoSampler::new(),
            TrainerConfig {
                batch_size: 256,
                seed: 13,
                ..config(OptimizerChoice::paper_default())
            },
        );
        assert_pool_active_alloc_free(t, &h, "Max-Cut AUTO-incremental + Adam");
    }

    /// The serving shape: a steady-state coalesced f32 `BatchSampler`
    /// pass allocates nothing, sequentially and with the pool active.
    fn assert_f32_sampling_alloc_free(wf: &Made, label: &str) {
        let reqs = [
            SampleRequest { count: 24, seed: 1 },
            SampleRequest { count: 40, seed: 2 },
            SampleRequest { count: 7, seed: 3 },
        ];
        let mut bs = BatchSampler::new();
        bs.set_precision(Precision::F32);
        let (mut batch, mut log_psi) = (SpinBatch::default(), Vector::default());
        let mut pass = || {
            bs.sample_requests(wf, &reqs, &mut batch, &mut log_psi);
        };
        par::with_threads(1, || assert_calls_alloc_free(&mut pass, label));
        assert_pool_calls_alloc_free(&mut pass, label);
    }

    #[test]
    fn f32_coalesced_sampling_is_allocation_free_at_steady_state() {
        assert_f32_sampling_alloc_free(&Made::new(12, 20, 5), "depth-1 f32");
        assert_f32_sampling_alloc_free(&Made::with_hidden(12, &[20, 10], 5), "depth-2 f32");
    }

    /// The serve path's f32 `LogPsi` forward: a warm
    /// `MadeF32::log_psi_into` allocates nothing, sequentially and with
    /// the pool active.  Its GEMMs draw their pack buffers from the
    /// `f32` pack pool; 300 rows cross the packed driver's 256-row block.
    fn assert_f32_log_psi_alloc_free(wf: &Made, label: &str) {
        let f32_wf = MadeF32::for_log_psi(wf);
        let batch = SpinBatch::from_fn(300, f32_wf.view().num_spins(), |s, i| {
            ((s * 7 + i * 3) % 5 < 2) as u8
        });
        let (mut ws, mut out) = (MadeF32Workspace::new(), Vector::default());
        let mut pass = || f32_wf.log_psi_into(&batch, &mut ws, &mut out);
        par::with_threads(1, || assert_calls_alloc_free(&mut pass, label));
        assert_pool_calls_alloc_free(&mut pass, label);
    }

    #[test]
    fn f32_log_psi_is_allocation_free_at_steady_state() {
        assert_f32_log_psi_alloc_free(&Made::new(12, 20, 5), "depth-1 f32 log_psi");
        assert_f32_log_psi_alloc_free(&Made::with_hidden(12, &[20, 10], 5), "depth-2 f32 log_psi");
    }

    /// Every trainer builds a `MadeBatchSampler` in its setup; a fresh
    /// one must not touch the heap (buffers grow on first use).
    #[test]
    fn made_batch_sampler_default_allocates_nothing() {
        let before = current_thread_allocs();
        let sampler = std::hint::black_box(MadeBatchSampler::default());
        let made = current_thread_allocs() - before;
        drop(sampler);
        assert_eq!(
            made, 0,
            "MadeBatchSampler::default made {made} heap allocations"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_seeds_distinct() {
        let mut seen = std::collections::HashSet::new();
        for master in 0..4u64 {
            for rank in 0..8u64 {
                for stream in 0..4u64 {
                    assert!(seen.insert(derive_seed(master, rank, stream)));
                }
            }
        }
    }

    #[test]
    fn derived_seed_deterministic() {
        assert_eq!(derive_seed(1, 2, 3), derive_seed(1, 2, 3));
    }
}
