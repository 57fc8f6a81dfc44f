//! # vqmc-sampler
//!
//! The two sampling engines whose contrast is the subject of the paper:
//!
//! * [`AutoSampler`] — **exact** autoregressive sampling (the paper's
//!   AUTO, Algorithm 1): `n` sequential forward passes transform
//!   i.i.d. uniform randomness into exact samples of `πθ`.  Embarrassingly
//!   parallel over the batch; no burn-in, no correlation, no convergence
//!   question.  An [`auto::IncrementalAutoSampler`] variant caches hidden
//!   pre-activations to cut the per-bit cost from `O(n·h)` to `O(h)` per
//!   sample — a distribution-identical optimisation, property-tested
//!   bit-for-bit against the naive path.
//! * [`McmcSampler`] — random-walk Metropolis–Hastings on single-spin
//!   flips (the paper's MCMC baseline): `c` parallel chains, `k` burn-in
//!   sweeps that are *inherently sequential per chain*, thinning every
//!   `j`-th state.  Asymptotically unbiased, but with undetermined
//!   convergence time — the bottleneck the paper quantifies.
//!
//! The [`efficiency`] module carries the paper's closed-form parallel
//! efficiency models (Eq. 14 for MCMC, Eq. 15 for AUTO).

#![warn(missing_docs)]

pub mod auto;
pub mod batch;
pub mod diagnostics;
pub mod efficiency;
pub mod mcmc;

use rand::rngs::StdRng;
use vqmc_nn::WaveFunction;
use vqmc_tensor::{SpinBatch, Vector};

pub use auto::{AutoSampler, IncrementalAutoSampler};
pub use batch::{BatchSampler, MadeBatchSampler, PanelLayout, SampleRequest};
pub use mcmc::{BurnIn, McmcConfig, McmcSampler, RbmFastMcmc, Thinning};

/// The product of one sampling call.
///
/// `Default` yields empty buffers: the natural initial state for a
/// caller-owned output that [`Sampler::sample_into`] resizes in place.
#[derive(Clone, Debug, Default)]
pub struct SampleOutput {
    /// The sampled configurations.
    pub batch: SpinBatch,
    /// `logψ` of every sample (already available from the sampling
    /// computation — callers must not pay another forward pass for it).
    pub log_psi: Vector,
    /// Cost accounting for the run.
    pub stats: SampleStats,
}

/// Cost and health accounting for a sampling run.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct SampleStats {
    /// Number of wavefunction forward passes executed (a *pass* is one
    /// batched evaluation, whatever its batch size — the unit of the
    /// paper's Figure 1 cost comparison).
    pub forward_passes: usize,
    /// Total configurations pushed through those passes.
    pub configurations_evaluated: usize,
    /// Metropolis proposals made (0 for exact samplers).
    pub proposals: usize,
    /// Metropolis proposals accepted (0 for exact samplers).
    pub accepted: usize,
}

impl SampleStats {
    /// Acceptance rate of the Metropolis walk, `NaN` when no proposals
    /// were made.
    pub fn acceptance_rate(&self) -> f64 {
        self.accepted as f64 / self.proposals as f64
    }
}

/// A strategy for drawing a batch of configurations from `|ψθ|²`.
///
/// Samplers take `&mut self`: the exact (AUTO) samplers carry scratch
/// state — activation workspaces, cached weight transposes — so that the
/// steady-state training loop performs no heap allocation per batch.
/// The stateless MCMC samplers simply ignore the mutability.
pub trait Sampler<W: WaveFunction + ?Sized>: Send + Sync {
    /// Draws `batch_size` configurations into a caller-owned output
    /// (buffers resized in place; allocation-free at steady state for
    /// the AUTO samplers).
    fn sample_into(
        &mut self,
        wf: &W,
        batch_size: usize,
        rng: &mut StdRng,
        out: &mut SampleOutput,
    );

    /// Draws `batch_size` configurations (allocating convenience form of
    /// [`Sampler::sample_into`]).
    fn sample(&mut self, wf: &W, batch_size: usize, rng: &mut StdRng) -> SampleOutput {
        let mut out = SampleOutput::default();
        self.sample_into(wf, batch_size, rng, &mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn acceptance_rate_math() {
        let stats = SampleStats {
            proposals: 200,
            accepted: 50,
            ..Default::default()
        };
        assert_eq!(stats.acceptance_rate(), 0.25);
    }

    #[test]
    fn acceptance_rate_nan_when_exact() {
        let stats = SampleStats::default();
        assert!(stats.acceptance_rate().is_nan());
    }
}
