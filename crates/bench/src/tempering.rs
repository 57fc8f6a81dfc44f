//! Parallel tempering (replica-exchange MCMC) — the strongest classical
//! fix for the slow mixing the paper attributes to random-walk
//! Metropolis.  `K` replicas sample the *flattened* targets
//! `π^{βₖ}` at inverse temperatures `1 = β₁ > β₂ > … > β_K`, and
//! adjacent replicas periodically propose to swap states with the
//! detailed-balance probability
//!
//! ```text
//! p(swap k, k+1) = min(1, exp((βₖ − βₖ₊₁)(log π(x_{k+1}) − log π(x_k))))
//! ```
//!
//! Hot replicas cross probability barriers easily and feed diverse
//! states down to the cold (`β = 1`) replica, whose states are the
//! output.  Even so, burn-in remains sequential and the output remains
//! correlated — tempering narrows, but does not close, the gap to
//! exact autoregressive sampling (measured in the tests).

use rand::rngs::StdRng;
use rand::Rng;
use vqmc_nn::WaveFunction;
use vqmc_sampler::{SampleOutput, SampleStats, Sampler};
use vqmc_tensor::{SpinBatch, Vector};

/// Configuration of the parallel-tempering sampler.
#[derive(Clone, Debug)]
pub struct TemperingConfig {
    /// Inverse temperatures, strictly decreasing, starting at 1.0
    /// (the physical replica).
    pub betas: Vec<f64>,
    /// Burn-in sweeps (one Metropolis step per replica per sweep).
    pub burn_in: usize,
    /// Propose replica swaps every this many sweeps.
    pub swap_interval: usize,
    /// Keep one cold-replica state every this many sweeps.
    pub thin: usize,
}

impl Default for TemperingConfig {
    fn default() -> Self {
        TemperingConfig {
            betas: vec![1.0, 0.7, 0.45, 0.25],
            burn_in: 200,
            swap_interval: 5,
            thin: 1,
        }
    }
}

impl TemperingConfig {
    /// Geometric temperature ladder `βₖ = ratio^k` with `k = 0..K`.
    pub fn geometric(replicas: usize, ratio: f64) -> Self {
        assert!(replicas >= 2, "tempering needs at least 2 replicas");
        assert!((0.0..1.0).contains(&ratio), "ratio must be in (0,1)");
        TemperingConfig {
            betas: (0..replicas).map(|k| ratio.powi(k as i32)).collect(),
            ..TemperingConfig::default()
        }
    }

    fn validate(&self) {
        assert!(!self.betas.is_empty(), "tempering: empty ladder");
        assert!(
            (self.betas[0] - 1.0).abs() < 1e-12,
            "tempering: the first replica must be at β = 1"
        );
        assert!(
            self.betas.windows(2).all(|w| w[0] > w[1] && w[1] > 0.0),
            "tempering: betas must be strictly decreasing and positive"
        );
    }
}

/// Replica-exchange Metropolis sampler.
#[derive(Clone, Debug, Default)]
pub struct TemperingSampler {
    /// Sampler configuration.
    pub config: TemperingConfig,
}

impl TemperingSampler {
    /// Creates a sampler.
    pub fn new(config: TemperingConfig) -> Self {
        config.validate();
        TemperingSampler { config }
    }

    /// Per-run swap statistics of the last call (for diagnostics the
    /// trait interface can't carry, swap counts are also folded into
    /// `SampleStats::proposals/accepted`).
    fn metropolis_step<W: WaveFunction + ?Sized>(
        wf: &W,
        replicas: &mut SpinBatch,
        log_psi: &mut Vector,
        betas: &[f64],
        rng: &mut StdRng,
        stats: &mut SampleStats,
    ) {
        let n = replicas.num_spins();
        let k = betas.len();
        // One proposed flip per replica, evaluated in a single batched
        // pass.
        let sites: Vec<usize> = (0..k).map(|_| rng.gen_range(0..n)).collect();
        let mut proposal = replicas.clone();
        for (r, &site) in sites.iter().enumerate() {
            proposal.flip(r, site);
        }
        let proposal_log_psi = wf.log_psi(&proposal);
        stats.forward_passes += 1;
        stats.configurations_evaluated += k;
        for r in 0..k {
            stats.proposals += 1;
            // Target at replica r is π^βᵣ = exp(2 βᵣ logψ).
            let log_ratio = 2.0 * betas[r] * (proposal_log_psi[r] - log_psi[r]);
            if log_ratio >= 0.0 || rng.gen::<f64>() < log_ratio.exp() {
                let row: Vec<u8> = proposal.sample(r).to_vec();
                replicas.sample_mut(r).copy_from_slice(&row);
                log_psi[r] = proposal_log_psi[r];
                stats.accepted += 1;
            }
        }
    }

    fn swap_step(
        replicas: &mut SpinBatch,
        log_psi: &mut Vector,
        betas: &[f64],
        rng: &mut StdRng,
        swap_attempts: &mut usize,
        swap_accepts: &mut usize,
    ) {
        let n = replicas.num_spins();
        for r in 0..betas.len() - 1 {
            *swap_attempts += 1;
            let log_pi_r = 2.0 * log_psi[r];
            let log_pi_s = 2.0 * log_psi[r + 1];
            let log_ratio = (betas[r] - betas[r + 1]) * (log_pi_s - log_pi_r);
            if log_ratio >= 0.0 || rng.gen::<f64>() < log_ratio.exp() {
                for i in 0..n {
                    let a = replicas.get(r, i);
                    let b = replicas.get(r + 1, i);
                    replicas.set(r, i, b);
                    replicas.set(r + 1, i, a);
                }
                log_psi.as_mut_slice().swap(r, r + 1);
                *swap_accepts += 1;
            }
        }
    }
}

impl<W: WaveFunction + ?Sized> Sampler<W> for TemperingSampler {
    fn sample_into(&mut self, wf: &W, batch_size: usize, rng: &mut StdRng, dst: &mut SampleOutput) {
        self.config.validate();
        let betas = &self.config.betas;
        let k = betas.len();
        let n = wf.num_spins();
        let mut stats = SampleStats::default();

        let mut replicas = SpinBatch::from_fn(k, n, |_, _| rng.gen::<bool>() as u8);
        let mut log_psi = wf.log_psi(&replicas);
        stats.forward_passes += 1;
        stats.configurations_evaluated += k;

        let mut swap_attempts = 0;
        let mut swap_accepts = 0;
        let mut sweep = 0usize;
        let mut run_sweep = |replicas: &mut SpinBatch,
                             log_psi: &mut Vector,
                             rng: &mut StdRng,
                             stats: &mut SampleStats,
                             sweep: &mut usize| {
            Self::metropolis_step(wf, replicas, log_psi, betas, rng, stats);
            *sweep += 1;
            if sweep.is_multiple_of(self.config.swap_interval) {
                Self::swap_step(
                    replicas,
                    log_psi,
                    betas,
                    rng,
                    &mut swap_attempts,
                    &mut swap_accepts,
                );
            }
        };

        for _ in 0..self.config.burn_in {
            run_sweep(&mut replicas, &mut log_psi, rng, &mut stats, &mut sweep);
        }

        let mut out = SpinBatch::zeros(batch_size, n);
        let mut out_log_psi = Vector::zeros(batch_size);
        let thin = self.config.thin.max(1);
        for slot in 0..batch_size {
            for _ in 0..thin {
                run_sweep(&mut replicas, &mut log_psi, rng, &mut stats, &mut sweep);
            }
            // Output only the cold (β = 1) replica.
            out.sample_mut(slot).copy_from_slice(replicas.sample(0));
            out_log_psi[slot] = log_psi[0];
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
    use vqmc_nn::Rbm;
    use vqmc_tensor::batch::{encode_config, enumerate_configs};
    use vqmc_tensor::reduce::log_sum_exp;

    #[test]
    fn geometric_ladder_shape() {
        let c = TemperingConfig::geometric(4, 0.5);
        assert_eq!(c.betas, vec![1.0, 0.5, 0.25, 0.125]);
    }

    #[test]
    #[should_panic(expected = "decreasing")]
    fn non_monotone_ladder_rejected() {
        let c = TemperingConfig {
            betas: vec![1.0, 0.5, 0.7],
            ..Default::default()
        };
        let _ = TemperingSampler::new(c);
    }

    #[test]
    fn cold_replica_converges_to_target() {
        let n = 4;
        let dim = 1usize << n;
        let wf = Rbm::new(n, 5, 9);
        let all = enumerate_configs(n);
        let lw: Vec<f64> = wf.log_psi(&all).iter().map(|l| 2.0 * l).collect();
        let z = log_sum_exp(&lw);
        let probs: Vec<f64> = lw.iter().map(|l| (l - z).exp()).collect();

        let draws = 20_000;
        let mut sampler = TemperingSampler::new(TemperingConfig {
            burn_in: 300,
            ..Default::default()
        });
        let out = sampler.sample(&wf, draws, &mut StdRng::seed_from_u64(11));
        let mut counts = vec![0usize; dim];
        for s in out.batch.samples() {
            counts[encode_config(s)] += 1;
        }
        let tv: f64 = (0..dim)
            .map(|x| (counts[x] as f64 / draws as f64 - probs[x]).abs())
            .sum::<f64>()
            / 2.0;
        assert!(tv < 0.05, "TV distance {tv}");
    }

    #[test]
    fn log_psi_output_consistent() {
        let wf = Rbm::new(6, 6, 3);
        let out = TemperingSampler::default().sample(&wf, 20, &mut StdRng::seed_from_u64(1));
        let fresh = wf.log_psi(&out.batch);
        for s in 0..20 {
            assert!((out.log_psi[s] - fresh[s]).abs() < 1e-10);
        }
    }

    #[test]
    fn tempering_mixes_better_than_plain_metropolis_on_peaked_target() {
        // Sharpen an RBM (scale its parameters) so the landscape has
        // deep modes; compare integrated autocorrelation times.
        use vqmc_sampler::diagnostics::integrated_autocorrelation_time;
        use vqmc_sampler::{BurnIn, McmcConfig, McmcSampler, Thinning};
        let n = 8;
        let mut wf = Rbm::new(n, n, 21);
        let mut p = wf.params();
        p.scale(3.0);
        wf.set_params(&p);

        let draws = 4000;
        let plain_cfg = McmcConfig {
            chains: 1,
            burn_in: BurnIn::Fixed(300),
            thinning: Thinning(1),
        };
        let plain =
            McmcSampler::new(plain_cfg).sample_rbm(&wf, draws, &mut StdRng::seed_from_u64(2));
        let tau_plain = integrated_autocorrelation_time(plain.log_psi.as_slice());

        let tempered = TemperingSampler::new(TemperingConfig {
            burn_in: 300,
            ..Default::default()
        })
        .sample(&wf, draws, &mut StdRng::seed_from_u64(2));
        let tau_temp = integrated_autocorrelation_time(tempered.log_psi.as_slice());

        assert!(
            tau_temp < tau_plain,
            "tempering τ = {tau_temp} should beat plain Metropolis τ = {tau_plain}"
        );
        // ... but it still cannot reach the i.i.d. τ = 1 of exact
        // sampling for free: the cost is k-fold replicas per sweep.
        assert!(tempered.stats.configurations_evaluated > draws);
    }
}
