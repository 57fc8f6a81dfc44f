//! Heat-bath (Gibbs) sampling — the classical alternative to
//! random-walk Metropolis the paper's §2.2 cites (Geman & Geman 1984).
//!
//! A sweep visits every site in order and resamples it from its exact
//! conditional under `π = |ψ|²`:
//!
//! ```text
//! p(xᵢ ← flipped) = π(flip) / (π(cur) + π(flip)) = σ(2·Δlogψ)
//! ```
//!
//! Every update is accepted by construction (rejection-free), which
//! improves mixing per sweep over Metropolis — but a sweep costs `n`
//! conditional evaluations, so the *work* per independent sample is not
//! obviously better, and the burn-in problem is untouched.  This is
//! exactly the paper's point: no amount of MCMC kernel engineering
//! removes the sequential-burn-in barrier that exact autoregressive
//! sampling sidesteps.  `repro_diagnostics` compares the two kernels'
//! autocorrelation times.

use rand::rngs::StdRng;
use rand::Rng;
use vqmc_nn::WaveFunction;
use vqmc_sampler::{SampleOutput, SampleStats, Sampler};
use vqmc_tensor::{ops, SpinBatch, Vector};

/// Configuration of the Gibbs sampler.
#[derive(Clone, Copy, Debug)]
pub struct GibbsConfig {
    /// Parallel chains evolved in lock-step.
    pub chains: usize,
    /// Burn-in, in *sweeps* (each sweep = `n` site updates).
    pub burn_in_sweeps: usize,
    /// Keep one state every this many sweeps.
    pub thin_sweeps: usize,
}

impl Default for GibbsConfig {
    fn default() -> Self {
        GibbsConfig {
            chains: 2,
            burn_in_sweeps: 30,
            thin_sweeps: 1,
        }
    }
}

/// Rejection-free heat-bath sampler over single sites.
#[derive(Clone, Copy, Debug, Default)]
pub struct GibbsSampler {
    /// Sampler configuration.
    pub config: GibbsConfig,
}

impl GibbsSampler {
    /// Creates a Gibbs sampler.
    pub fn new(config: GibbsConfig) -> Self {
        GibbsSampler { config }
    }

    /// One sweep over all sites for all chains; returns updated logψ.
    fn sweep<W: WaveFunction + ?Sized>(
        wf: &W,
        current: &mut SpinBatch,
        log_psi: &mut Vector,
        rng: &mut StdRng,
        stats: &mut SampleStats,
    ) {
        let n = current.num_spins();
        let c = current.batch_size();
        for site in 0..n {
            // Batched evaluation of the flipped configurations.
            let mut flipped = current.clone();
            for chain in 0..c {
                flipped.flip(chain, site);
            }
            let flipped_log_psi = wf.log_psi(&flipped);
            stats.forward_passes += 1;
            stats.configurations_evaluated += c;
            for chain in 0..c {
                stats.proposals += 1;
                let p_flip = ops::sigmoid(2.0 * (flipped_log_psi[chain] - log_psi[chain]));
                if rng.gen::<f64>() < p_flip {
                    current.flip(chain, site);
                    log_psi[chain] = flipped_log_psi[chain];
                    stats.accepted += 1;
                }
            }
        }
    }
}

impl<W: WaveFunction + ?Sized> Sampler<W> for GibbsSampler {
    fn sample_into(&mut self, wf: &W, batch_size: usize, rng: &mut StdRng, dst: &mut SampleOutput) {
        let n = wf.num_spins();
        let c = self.config.chains.max(1);
        let thin = self.config.thin_sweeps.max(1);
        let mut stats = SampleStats::default();

        let mut current = SpinBatch::from_fn(c, n, |_, _| rng.gen::<bool>() as u8);
        let mut log_psi = wf.log_psi(&current);
        stats.forward_passes += 1;
        stats.configurations_evaluated += c;

        for _ in 0..self.config.burn_in_sweeps {
            Self::sweep(wf, &mut current, &mut log_psi, rng, &mut stats);
        }

        let mut out = SpinBatch::zeros(batch_size, n);
        let mut out_log_psi = Vector::zeros(batch_size);
        let mut collected = 0usize;
        while collected < batch_size {
            for _ in 0..thin {
                Self::sweep(wf, &mut current, &mut log_psi, rng, &mut stats);
            }
            for chain in 0..c {
                if collected == batch_size {
                    break;
                }
                out.sample_mut(collected)
                    .copy_from_slice(current.sample(chain));
                out_log_psi[collected] = log_psi[chain];
                collected += 1;
            }
        }
        *dst = SampleOutput {
            batch: out,
            log_psi: out_log_psi,
            stats,
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use vqmc_core::{OptimizerChoice, Trainer, TrainerConfig};
    use vqmc_hamiltonian::{ground_state, TransverseFieldIsing};
    use vqmc_nn::Rbm;
    use vqmc_tensor::batch::{encode_config, enumerate_configs};
    use vqmc_tensor::reduce::log_sum_exp;

    #[test]
    fn produces_requested_batch_with_consistent_log_psi() {
        let wf = Rbm::new(6, 6, 3);
        let out = GibbsSampler::default().sample(&wf, 17, &mut StdRng::seed_from_u64(1));
        assert_eq!(out.batch.batch_size(), 17);
        let fresh = wf.log_psi(&out.batch);
        for s in 0..17 {
            assert!((out.log_psi[s] - fresh[s]).abs() < 1e-10);
        }
    }

    #[test]
    fn converges_to_target_distribution() {
        let n = 4;
        let dim = 1usize << n;
        let wf = Rbm::new(n, 5, 9);
        let all = enumerate_configs(n);
        let lp = wf.log_psi(&all);
        let lw: Vec<f64> = lp.iter().map(|l| 2.0 * l).collect();
        let z = log_sum_exp(&lw);
        let probs: Vec<f64> = lw.iter().map(|l| (l - z).exp()).collect();

        let draws = 20_000;
        let config = GibbsConfig {
            chains: 2,
            burn_in_sweeps: 100,
            thin_sweeps: 1,
        };
        let out = GibbsSampler::new(config).sample(&wf, draws, &mut StdRng::seed_from_u64(7));
        let mut counts = vec![0usize; dim];
        for s in out.batch.samples() {
            counts[encode_config(s)] += 1;
        }
        let tv: f64 = (0..dim)
            .map(|x| (counts[x] as f64 / draws as f64 - probs[x]).abs())
            .sum::<f64>()
            / 2.0;
        assert!(tv < 0.03, "TV distance {tv} too large");
    }

    #[test]
    fn heat_bath_acceptance_exceeds_metropolis_on_same_model() {
        // Gibbs accepts with σ(2Δ) ≥ min(1, e^{2Δ})/2 pointwise and in
        // practice accepts far more often once chains equilibrate.
        use vqmc_sampler::{McmcConfig, McmcSampler};
        let wf = Rbm::new(10, 10, 4);
        let g = GibbsSampler::default().sample(&wf, 400, &mut StdRng::seed_from_u64(3));
        let m = McmcSampler::new(McmcConfig::default()).sample_rbm(
            &wf,
            400,
            &mut StdRng::seed_from_u64(3),
        );
        // Not a theorem — but on a smooth freshly-initialised model the
        // heat-bath rate should not be lower.
        assert!(
            g.stats.acceptance_rate() > 0.2,
            "gibbs rate {}",
            g.stats.acceptance_rate()
        );
        assert!(m.stats.proposals > 0);
    }

    #[test]
    fn sweep_cost_accounting() {
        // forward passes = 1 (init) + sweeps·n.
        let n = 5;
        let wf = Rbm::new(n, 4, 1);
        let config = GibbsConfig {
            chains: 3,
            burn_in_sweeps: 2,
            thin_sweeps: 1,
        };
        let out = GibbsSampler::new(config).sample(&wf, 3, &mut StdRng::seed_from_u64(2));
        // 2 burn-in sweeps + 1 collection sweep = 3 sweeps of n passes.
        assert_eq!(out.stats.forward_passes, 1 + 3 * n);
    }

    /// Gibbs sampling drives RBM training just like Metropolis — the
    /// trainer is sampler-agnostic — and both respect the variational bound.
    #[test]
    fn gibbs_sampling_trains_rbm() {
        let n = 6;
        let h = TransverseFieldIsing::random(n, 41);
        let exact = ground_state(&h, 200, 1e-10);
        let config = TrainerConfig {
            iterations: 80,
            batch_size: 128,
            optimizer: OptimizerChoice::paper_default(),
            ..TrainerConfig::paper_default(3)
        };
        let mut t = Trainer::new(Rbm::new(n, n, 2), GibbsSampler::default(), config);
        let trace = t.run(&h);
        assert!(trace.final_energy() < trace.records[0].energy);
        let last = trace.records.last().unwrap();
        assert!(last.energy >= exact.energy - 6.0 * last.std_dev / (128.0f64).sqrt() - 1e-6);
    }
}
