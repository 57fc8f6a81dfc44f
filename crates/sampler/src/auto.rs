//! Exact autoregressive sampling (the paper's AUTO, Algorithm 1).
//!
//! Starting from the all-zero state, bit `i` is drawn from the model's
//! conditional `p(xᵢ = 1 | x_{<i})`; because the network's output `i`
//! provably cannot see bits `≥ i` (the MADE mask invariant), the
//! garbage suffix never influences the draw.  After `n` rounds the batch
//! is an exact i.i.d. sample of `πθ` — the property that removes every
//! MCMC pathology (burn-in, thinning, undetermined convergence).
//!
//! Two implementations:
//!
//! * [`AutoSampler`] — the literal Algorithm 1: one **full forward
//!   pass** per bit (`n` passes of `O(bs·n·h)` work each).  This is the
//!   cost the paper's Figure 1 and Table 1 account.
//! * [`IncrementalAutoSampler`] — caches the hidden pre-activations
//!   `z₁ = W₁x + b₁` and folds in each newly revealed bit with one
//!   `O(h)` column update, then evaluates a single output row per bit:
//!   `O(bs·h)` per bit, an `O(n)`-fold saving.  Given the same RNG it
//!   produces **bit-identical** batches (property-tested), so it is a
//!   pure implementation optimisation — the ablation bench
//!   `bench_auto_incremental` quantifies the win.

use rand::rngs::StdRng;
use rand::Rng;
use vqmc_nn::{Autoregressive, Made, WaveFunction};
use vqmc_tensor::{Matrix, Workspace};

use crate::{SampleOutput, SampleStats, Sampler};

/// Naive exact sampler: `n` full forward passes (paper Algorithm 1).
///
/// Carries a scratch workspace and a conditionals buffer so the per-bit
/// forward passes are allocation-free once warm.
#[derive(Debug, Default)]
pub struct AutoSampler {
    ws: Workspace,
    cond: Matrix,
}

impl AutoSampler {
    /// A fresh sampler (scratch buffers grow on first use).
    pub fn new() -> Self {
        AutoSampler::default()
    }
}

impl Clone for AutoSampler {
    /// Clones start cold: scratch state is per-instance, not shared.
    fn clone(&self) -> Self {
        AutoSampler::new()
    }
}

impl<W: Autoregressive + ?Sized> Sampler<W> for AutoSampler {
    fn sample_into(
        &mut self,
        wf: &W,
        batch_size: usize,
        rng: &mut StdRng,
        out: &mut SampleOutput,
    ) {
        let n = wf.num_spins();
        let batch = &mut out.batch;
        batch.resize(batch_size, n);
        batch.fill(0);
        let mut stats = SampleStats::default();
        for i in 0..n {
            // One full forward pass; only column i of the conditionals
            // is consumed this round (the naive algorithm's redundancy).
            wf.conditionals_into(batch, &mut self.ws, &mut self.cond);
            stats.forward_passes += 1;
            stats.configurations_evaluated += batch_size;
            for s in 0..batch_size {
                let p = self.cond.get(s, i);
                debug_assert!((0.0..=1.0).contains(&p), "conditional out of range");
                if rng.gen::<f64>() < p {
                    batch.set(s, i, 1);
                }
            }
        }
        // One more pass for logψ of the final configurations.
        wf.log_psi_into(batch, &mut self.ws, &mut out.log_psi);
        stats.forward_passes += 1;
        stats.configurations_evaluated += batch_size;
        out.stats = stats;
    }
}

/// Incremental exact sampler specialised to [`Made`] — a thin wrapper
/// over the unified [`MadeBatchSampler`](crate::MadeBatchSampler) panel engine
/// ([`crate::batch`]), run as one caller-owned RNG stream.
///
/// Draws the same `bs × n` uniform variates in the same order as
/// [`AutoSampler`], so outputs are bit-identical for a given RNG state
/// (property-tested).  Training shares the engine's dispatch with
/// coalesced serving: batches of 8+ rows whose panel fits the
/// per-worker L2 cap run the fused `sample_step_cols` panel, the rest
/// (tiny batches, and large depth-1 panels at few threads — e.g. the
/// `n = 1024` Max-Cut batch at one thread) run the row-major path.
///
/// The engine's scratch (activation panel, cached `W₁ᵀ` invalidated via
/// [`Made::params_version`]) is pooled across calls: at steady state
/// each `sample_into` call is allocation-free and skips the `O(n·h)`
/// transpose whenever parameters are unchanged.
#[derive(Debug, Default)]
pub struct IncrementalAutoSampler {
    engine: crate::batch::MadeBatchSampler,
}

impl IncrementalAutoSampler {
    /// A fresh sampler (scratch buffers grow on first use).
    pub fn new() -> Self {
        IncrementalAutoSampler::default()
    }
}

impl Clone for IncrementalAutoSampler {
    /// Clones start cold: scratch and cache are per-instance.
    fn clone(&self) -> Self {
        IncrementalAutoSampler::new()
    }
}

impl Sampler<Made> for IncrementalAutoSampler {
    fn sample_into(
        &mut self,
        wf: &Made,
        batch_size: usize,
        rng: &mut StdRng,
        out: &mut SampleOutput,
    ) {
        self.engine
            .sample_stream(wf, batch_size, rng, &mut out.batch, &mut out.log_psi);
        out.stats = SampleStats {
            // Equivalent *work* of one full forward pass per bit is
            // avoided; we report the n logical passes of Algorithm 1
            // so cost comparisons stay in the paper's unit.
            forward_passes: wf.num_spins(),
            configurations_evaluated: batch_size * wf.num_spins(),
            proposals: 0,
            accepted: 0,
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use vqmc_nn::Autoregressive;
    use vqmc_tensor::batch::{encode_config, enumerate_configs};

    fn model(n: usize, seed: u64) -> Made {
        Made::new(n, 2 * n + 1, seed)
    }

    #[test]
    fn incremental_is_bit_identical_to_naive() {
        for seed in 0..5u64 {
            let m = model(7, 100 + seed);
            let naive = AutoSampler::new().sample(&m, 16, &mut StdRng::seed_from_u64(seed));
            let fast =
                IncrementalAutoSampler::new().sample(&m, 16, &mut StdRng::seed_from_u64(seed));
            assert_eq!(
                naive.batch.as_bytes(),
                fast.batch.as_bytes(),
                "seed {seed}: sample batches differ"
            );
            for s in 0..16 {
                assert!(
                    (naive.log_psi[s] - fast.log_psi[s]).abs() < 1e-10,
                    "seed {seed} sample {s}: logψ differs"
                );
            }
        }
    }

    #[test]
    fn cached_transpose_survives_parameter_updates() {
        // One long-lived incremental sampler (warm W₁ᵀ cache) must stay
        // bit-identical to a fresh naive sampler across set_params calls
        // — i.e. the cache invalidation on params_version is correct.
        let mut m = model(6, 50);
        let mut fast = IncrementalAutoSampler::new();
        let mut naive = AutoSampler::new();
        for round in 0..4u64 {
            let a = naive.sample(&m, 12, &mut StdRng::seed_from_u64(round));
            let b = fast.sample(&m, 12, &mut StdRng::seed_from_u64(round));
            assert_eq!(
                a.batch.as_bytes(),
                b.batch.as_bytes(),
                "round {round}: batches diverged after set_params"
            );
            for s in 0..12 {
                assert!((a.log_psi[s] - b.log_psi[s]).abs() < 1e-10);
            }
            // Perturb the parameters (masked entries are re-zeroed by
            // set_params) and go again with the SAME sampler instances.
            let mut p = m.params();
            for (k, v) in p.iter_mut().enumerate() {
                *v += 0.01 * ((k + round as usize) % 7) as f64;
            }
            m.set_params(&p);
        }
    }

    #[test]
    fn stale_cache_would_be_detected() {
        // Same sampler, same RNG seed, before and after set_params: the
        // outputs must differ (guards against a cache that never
        // invalidates) yet stay equal to the naive path (guards against
        // one that invalidates wrongly).
        let mut m = model(6, 51);
        let mut fast = IncrementalAutoSampler::new();
        let before = fast.sample(&m, 32, &mut StdRng::seed_from_u64(9));
        let mut p = m.params();
        p.scale(1.5);
        m.set_params(&p);
        let after = fast.sample(&m, 32, &mut StdRng::seed_from_u64(9));
        assert_ne!(
            before.batch.as_bytes(),
            after.batch.as_bytes(),
            "parameter change did not alter samples — stale W₁ᵀ cache?"
        );
        let reference = AutoSampler::new().sample(&m, 32, &mut StdRng::seed_from_u64(9));
        assert_eq!(after.batch.as_bytes(), reference.batch.as_bytes());
    }

    #[test]
    fn sample_into_reuses_buffers_across_calls() {
        let m = model(8, 60);
        let mut sampler = AutoSampler::new();
        let mut out = SampleOutput::default();
        let mut rng = StdRng::seed_from_u64(3);
        sampler.sample_into(&m, 16, &mut rng, &mut out);
        let batch_ptr = out.batch.as_bytes().as_ptr();
        let lp_ptr = out.log_psi.as_slice().as_ptr();
        sampler.sample_into(&m, 16, &mut rng, &mut out);
        assert_eq!(out.batch.as_bytes().as_ptr(), batch_ptr);
        assert_eq!(out.log_psi.as_slice().as_ptr(), lp_ptr);
    }

    #[test]
    fn log_psi_matches_model_evaluation() {
        let m = model(6, 3);
        let out = AutoSampler::new().sample(&m, 32, &mut StdRng::seed_from_u64(9));
        let recomputed = m.log_psi(&out.batch);
        for s in 0..32 {
            assert!((out.log_psi[s] - recomputed[s]).abs() < 1e-10);
        }
    }

    #[test]
    fn forward_pass_accounting_matches_algorithm1() {
        let m = model(5, 1);
        let out = AutoSampler::new().sample(&m, 8, &mut StdRng::seed_from_u64(0));
        // n passes for sampling + 1 for logψ.
        assert_eq!(out.stats.forward_passes, 6);
        assert_eq!(out.stats.proposals, 0);
    }

    /// Chi-square goodness of fit of empirical AUTO samples against the
    /// exact model distribution — the "exactness" headline claim.
    #[test]
    fn samples_follow_exact_distribution() {
        let n = 4;
        let m = model(n, 77);
        let dim = 1 << n;
        // Exact probabilities.
        let all = enumerate_configs(n);
        let log_probs = m.log_prob(&all);
        let probs: Vec<f64> = log_probs.iter().map(|lp| lp.exp()).collect();

        let draws = 40_000usize;
        let mut rng = StdRng::seed_from_u64(5);
        let out = AutoSampler::new().sample(&m, draws, &mut rng);
        let mut counts = vec![0usize; dim];
        for s in out.batch.samples() {
            counts[encode_config(s)] += 1;
        }
        // Pearson chi-square; dof = dim − 1 = 15; the 0.999 quantile is
        // ≈ 37.7 — a seeded test comfortably below it when exact.
        let chi2: f64 = (0..dim)
            .map(|x| {
                let expected = probs[x] * draws as f64;
                let diff = counts[x] as f64 - expected;
                diff * diff / expected.max(1e-9)
            })
            .sum();
        assert!(chi2 < 37.7, "chi-square {chi2} rejects exactness");
    }

    #[test]
    fn empirical_mean_log_psi_is_finite_and_sane() {
        let m = model(10, 21);
        let out =
            IncrementalAutoSampler::new().sample(&m, 64, &mut StdRng::seed_from_u64(33));
        assert!(out.log_psi.all_finite());
        // logψ = ½ logπ ≤ 0 for a normalised distribution... not strictly
        // (individual π(x) can exceed... no: π(x) ≤ 1 always). So:
        assert!(out.log_psi.iter().all(|&lp| lp <= 1e-12));
    }

    #[test]
    fn deterministic_given_seed() {
        let m = model(6, 2);
        let a = AutoSampler::new().sample(&m, 10, &mut StdRng::seed_from_u64(4));
        let b = AutoSampler::new().sample(&m, 10, &mut StdRng::seed_from_u64(4));
        assert_eq!(a.batch.as_bytes(), b.batch.as_bytes());
    }
}
