//! # vqmc — scalable variational quantum Monte Carlo in Rust
//!
//! A from-scratch Rust reproduction of *“Overcoming barriers to
//! scalability in variational quantum Monte Carlo”* (Zhao, De, Chen,
//! Stokes, Veerapaneni — SC 2021): VQMC with **exact autoregressive
//! sampling** (MADE networks) versus the classical **RBM + MCMC**
//! pipeline, including the distributed (multi-device) sampling
//! parallelisation the paper scales to 10 000-dimensional problems.
//!
//! This crate is a facade: it re-exports the workspace's sub-crates
//! under stable module names so applications depend on one crate.
//!
//! ## Quickstart
//!
//! ```
//! use vqmc::prelude::*;
//!
//! // A 6-spin disordered transverse-field Ising model.
//! let h = TransverseFieldIsing::random(6, 42);
//!
//! // MADE wavefunction + exact autoregressive sampling + Adam.
//! let wf = Made::new(6, made_hidden_size(6), 1);
//! let mut trainer = Trainer::new(
//!     wf,
//!     AutoSampler::new(),
//!     TrainerConfig {
//!         iterations: 100,
//!         batch_size: 256,
//!         ..TrainerConfig::paper_default(7)
//!     },
//! );
//! let trace = trainer.run(&h);
//!
//! // The variational energy upper-bounds the true ground energy.
//! let exact = ground_state(&h, 200, 1e-10);
//! assert!(trace.final_energy() >= exact.energy - 0.5);
//! ```
//!
//! ## Module map
//!
//! | module | contents |
//! |---|---|
//! | [`tensor`] | dense kernels on the [`tensor::par`] worker pool, [`tensor::SpinBatch`] |
//! | [`autodiff`] | reverse-mode tape (gradient verification oracle) |
//! | [`hamiltonian`] | TIM, Max-Cut/QUBO, local energies, exact Lanczos |
//! | [`nn`] | MADE and RBM neural quantum states |
//! | [`sampler`] | exact AUTO sampling and Metropolis–Hastings MCMC |
//! | [`optim`] | SGD, Adam, stochastic reconfiguration + CG |
//! | [`cluster`] | virtual multi-GPU cluster (topology, tree allreduce, cost model) |
//! | [`baselines`] | random cut, Goemans–Williamson, Burer–Monteiro |
//! | [`core`] | the VQMC trainer, estimators, distributed trainer |
//! | [`serve`] | dynamic-batching TCP inference server + client |
//! | [`dist`] | real-socket rank mesh: multi-process TCP collectives |

#![warn(missing_docs)]

pub use vqmc_autodiff as autodiff;
pub use vqmc_baselines as baselines;
pub use vqmc_cluster as cluster;
pub use vqmc_core as core;
pub use vqmc_dist as dist;
pub use vqmc_hamiltonian as hamiltonian;
pub use vqmc_nn as nn;
pub use vqmc_optim as optim;
pub use vqmc_sampler as sampler;
pub use vqmc_serve as serve;
pub use vqmc_tensor as tensor;

/// The most common imports in one line.
pub mod prelude {
    pub use crate::baselines::{brute_force, goemans_williamson, random_cut, BurerMonteiro};
    pub use crate::cluster::{Cluster, DeviceSpec, Topology};
    pub use crate::core::{
        hitting_time, Collective, CollectiveError, DistributedConfig, DistributedTrainer,
        EnergyStats, HittingConfig, OptimizerChoice, Trainer, TrainerConfig, TrainingTrace,
    };
    pub use crate::dist::{Mesh, MeshConfig};
    pub use crate::hamiltonian::{
        ground_state, Graph, MaxCut, Qubo, SparseRowHamiltonian, TransverseFieldIsing,
    };
    pub use crate::nn::{
        made_hidden_size, rbm_hidden_size, Autoregressive, BatchedSampling, Made, Rbm,
        WaveFunction,
    };
    pub use crate::optim::{Adam, Optimizer, Sgd, SrConfig};
    pub use crate::sampler::{
        AutoSampler, BatchSampler, BurnIn, IncrementalAutoSampler, McmcConfig, McmcSampler,
        RbmFastMcmc, SampleRequest, Sampler, Thinning,
    };
    pub use crate::tensor::{Matrix, SpinBatch, Vector};
}
