//! # vqmc-nn
//!
//! Neural quantum states: the two trial-wavefunction architectures the
//! paper evaluates, with hand-derived analytic backprop.
//!
//! * [`Made`] — the masked autoencoder for distribution estimation
//!   (Germain et al. 2015) adapted as an *autoregressive neural quantum
//!   state*: a normalised `πθ(x) = Πᵢ πᵢ(xᵢ|x<ᵢ)` with
//!   `ψθ(x) = √πθ(x)`.  Because `πθ` is exactly normalised, expectation
//!   values can be estimated from **exact** samples — no MCMC.  One
//!   forward pass yields every conditional (the paper's §2.3).
//! * [`Rbm`] — the restricted-Boltzmann-machine log-amplitude of Carleo &
//!   Troyer (2017), §5.1 architecture: unnormalised, so it must be paired
//!   with MCMC sampling.
//!
//! ## Gradient interfaces
//!
//! VQMC needs two different gradient shapes (paper Eq. 5):
//!
//! * the *energy gradient* `2·E[(l(x) − L̄)·∇logψ(x)]` — a **weighted
//!   sum** of per-sample gradients, computed by
//!   [`WaveFunction::weighted_log_psi_grad`] in one backprop pass with
//!   `O(d)` memory at any batch size;
//! * the *Fisher / SR matrix* `S = cov(∇logψ)` — needs the **per-sample
//!   rows** `O(x) = ∇θ logψθ(x)`, provided by
//!   [`WaveFunction::per_sample_grads`] as a `bs × d` matrix (memory
//!   `8·bs·d` bytes; the stochastic-reconfiguration optimiser documents
//!   this bound).
//!
//! Every analytic gradient in this crate is verified in the test-suite
//! against the `vqmc-autodiff` tape *and* central finite differences.

#![warn(missing_docs)]

pub mod checkpoint;
pub mod init;
pub mod layers;
pub mod made;
pub mod masks;
pub mod rbm;
pub mod sampling;

use vqmc_tensor::{Matrix, SpinBatch, Vector, Workspace};

pub use made::{Made, MadeWorkspace, MaskedLinear, MAX_LAYERS};
pub use layers::{LayerView, MadeElem, MadeF32, MadeF32Workspace, MadeView};
pub use rbm::Rbm;
pub use sampling::{BatchedSampling, SamplingEngine};

/// A differentiable trial wavefunction `ψθ : {0,1}ⁿ → ℝ₊`, exposed in
/// log-amplitude form.
pub trait WaveFunction: Send + Sync {
    /// Number of spins `n` the wavefunction is defined over.
    fn num_spins(&self) -> usize;

    /// Total number of variational parameters `d`.
    fn num_params(&self) -> usize;

    /// `logψθ(x)` for every sample in the batch (one forward pass).
    fn log_psi(&self, batch: &SpinBatch) -> Vector;

    /// Weighted gradient `Σ_s w_s ∇θ logψθ(x_s)` — one backprop pass,
    /// `O(d)` memory.  This is the only gradient the plain SGD/Adam
    /// training path needs.
    fn weighted_log_psi_grad(&self, batch: &SpinBatch, weights: &Vector) -> Vector;

    /// Per-sample gradient rows `O_s = ∇θ logψθ(x_s)` as a `bs × d`
    /// matrix.  Required by stochastic reconfiguration; costs
    /// `8·bs·d` bytes.
    fn per_sample_grads(&self, batch: &SpinBatch) -> Matrix;

    /// Flattened copy of the parameters (layout documented per model).
    fn params(&self) -> Vector;

    /// Overwrites the parameters from a flattened vector.
    fn set_params(&mut self, params: &Vector);

    /// In-place parameter update `θ += δ` (the optimiser step).
    fn apply_step(&mut self, delta: &Vector) {
        let mut p = self.params();
        assert_eq!(p.len(), delta.len(), "apply_step: length mismatch");
        p.axpy(1.0, delta);
        self.set_params(&p);
    }

    // ----- allocation-free variants ------------------------------------
    //
    // Each `_into` method writes its result into a caller-owned buffer
    // (resized in place, so a warm buffer is never reallocated) and draws
    // any internal scratch from the caller's [`Workspace`] pool.  The
    // defaults delegate to the allocating methods so every implementor
    // stays correct; [`Made`] and [`Rbm`] override them with genuinely
    // allocation-free passes, which is what makes the training loop in
    // `vqmc-core` heap-quiet at steady state.

    /// [`WaveFunction::log_psi`] into a caller-owned vector.
    fn log_psi_into(&self, batch: &SpinBatch, ws: &mut Workspace, out: &mut Vector) {
        let _ = ws;
        out.copy_from(&self.log_psi(batch));
    }

    /// [`WaveFunction::weighted_log_psi_grad`] into a caller-owned
    /// vector.
    fn weighted_log_psi_grad_into(
        &self,
        batch: &SpinBatch,
        weights: &Vector,
        ws: &mut Workspace,
        out: &mut Vector,
    ) {
        let _ = ws;
        out.copy_from(&self.weighted_log_psi_grad(batch, weights));
    }

    /// [`WaveFunction::per_sample_grads`] into a caller-owned matrix.
    fn per_sample_grads_into(&self, batch: &SpinBatch, ws: &mut Workspace, out: &mut Matrix) {
        let _ = ws;
        out.copy_from(&self.per_sample_grads(batch));
    }

    /// [`WaveFunction::params`] into a caller-owned vector.
    fn params_into(&self, out: &mut Vector) {
        out.copy_from(&self.params());
    }
}

/// A wavefunction whose squared amplitude is an exactly normalised
/// autoregressive distribution — the property that unlocks exact (AUTO)
/// sampling.
pub trait Autoregressive: WaveFunction {
    /// Conditional probabilities `p(xᵢ = 1 | x_{<i})` for every position
    /// and sample, from one forward pass.  Entry `(s, i)` must depend
    /// only on bits `< i` of sample `s` (the autoregressive property,
    /// enforced by MADE's masks and property-tested).
    fn conditionals(&self, batch: &SpinBatch) -> Matrix;

    /// `log πθ(x) = 2·logψθ(x)`: per-sample log-probability under the
    /// normalised model.
    fn log_prob(&self, batch: &SpinBatch) -> Vector {
        let mut lp = self.log_psi(batch);
        lp.scale(2.0);
        lp
    }

    /// [`Autoregressive::conditionals`] into a caller-owned matrix,
    /// drawing scratch from the caller's [`Workspace`].  The default
    /// delegates to the allocating method; [`Made`] overrides it with an
    /// allocation-free pass (the AUTO sampler calls this `n` times per
    /// batch, so it is the hottest entry point in the whole loop).
    fn conditionals_into(&self, batch: &SpinBatch, ws: &mut Workspace, out: &mut Matrix) {
        let _ = ws;
        out.copy_from(&self.conditionals(batch));
    }
}

/// The paper's §5.1 hidden-size policy for MADE: `h = 5(ln n)²`
/// (natural log — the paper's own memory budget at `n = 10⁴`, "hidden
/// layer size 500 at maximum for 10M parameters", pins the base: with
/// `ln`, `5(ln 10⁴)² ≈ 424`; with `log₁₀` it would be 80).
pub fn made_hidden_size(n: usize) -> usize {
    let ln = (n as f64).ln();
    (5.0 * ln * ln).round().max(1.0) as usize
}

/// The paper's §5.1 hidden-size policy for RBM: `h = n`.
pub fn rbm_hidden_size(n: usize) -> usize {
    n
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hidden_size_policies() {
        // Spot values: n = 500 -> 5 (ln 500)^2 ≈ 193.
        let h = made_hidden_size(500);
        assert!((190..=197).contains(&h), "h = {h}");
        // n = 10_000 -> ≈ 424 (the paper's memory-budget anchor).
        let h = made_hidden_size(10_000);
        assert!((420..=428).contains(&h), "h = {h}");
        assert_eq!(rbm_hidden_size(123), 123);
    }

    #[test]
    fn hidden_size_minimum_one() {
        assert!(made_hidden_size(1) >= 1);
        assert!(made_hidden_size(2) >= 1);
    }
}
