//! **§2.2 claims, quantified** — not a paper table, but the measurement
//! that grounds the paper's central argument: MCMC samples are
//! correlated with undetermined convergence, exact autoregressive
//! samples are i.i.d.  For each engine we report integrated
//! autocorrelation time τ, effective sample size, Gelman–Rubin R̂
//! across independent chains, and the forward-pass budget spent.
//!
//! ```sh
//! cargo run --release -p vqmc-bench --bin repro_diagnostics [-- --dims 16,32]
//! ```

use rand::rngs::StdRng;
use rand::SeedableRng;
use vqmc_bench::gibbs::GibbsSampler;
use vqmc_bench::tempering::TemperingSampler;
use vqmc_bench::{parse_scale, write_csv, Table};
use vqmc_nn::{made_hidden_size, rbm_hidden_size, Made, Rbm};
use vqmc_sampler::diagnostics::{
    effective_sample_size, gelman_rubin, integrated_autocorrelation_time,
};
use vqmc_sampler::{AutoSampler, BurnIn, McmcConfig, McmcSampler, Sampler, Thinning};

fn main() {
    let scale = parse_scale(&[16, 32], &[20, 50, 100, 200], 1);
    let draws = 3000usize;
    println!(
        "Sampler diagnostics (batch {draws}): the paper's §2.2 argument, measured\n"
    );
    let mut table = Table::new(&["n", "engine", "tau_int", "ESS", "R-hat(4)", "passes"]);

    for &n in &scale.dims {
        let made = Made::new(n, made_hidden_size(n), 1);
        let rbm = Rbm::new(n, rbm_hidden_size(n), 1);

        // Independent-chain series for R̂ (4 runs with distinct seeds);
        // returns the chains plus the pass count of the last run.
        fn series_of(
            f: &dyn Fn(&mut StdRng) -> (Vec<f64>, usize),
        ) -> (Vec<Vec<f64>>, usize) {
            let mut passes = 0;
            let chains = (0..4u64)
                .map(|s| {
                    let (series, p) = f(&mut StdRng::seed_from_u64(100 + s));
                    passes = p;
                    series
                })
                .collect();
            (chains, passes)
        }

        let mut row = |engine: &str, chains: Vec<Vec<f64>>, passes: usize| {
            let tau = integrated_autocorrelation_time(&chains[0]);
            let ess = effective_sample_size(&chains[0]);
            let rhat = gelman_rubin(&chains);
            table.row(vec![
                n.to_string(),
                engine.into(),
                format!("{tau:.2}"),
                format!("{ess:.0}"),
                format!("{rhat:.3}"),
                passes.to_string(),
            ]);
        };

        let (auto, passes) = series_of(&|rng| {
            let out = AutoSampler::new().sample(&made, draws, rng);
            (out.log_psi.into_vec(), out.stats.forward_passes)
        });
        row("MADE+AUTO (exact)", auto, passes);

        let mcmc_cfg = McmcConfig {
            chains: 1,
            burn_in: BurnIn::paper_default(),
            thinning: Thinning(1),
        };
        let (mcmc, passes) = series_of(&|rng| {
            let out = McmcSampler::new(mcmc_cfg).sample_rbm(&rbm, draws, rng);
            (out.log_psi.into_vec(), out.stats.forward_passes)
        });
        row("RBM+Metropolis", mcmc, passes);

        let (gibbs, passes) = series_of(&|rng| {
            let out = GibbsSampler::default().sample(&rbm, draws, rng);
            (out.log_psi.into_vec(), out.stats.forward_passes)
        });
        row("RBM+Gibbs", gibbs, passes);

        let (tempered, passes) = series_of(&|rng| {
            let out = TemperingSampler::default().sample(&rbm, draws, rng);
            (out.log_psi.into_vec(), out.stats.forward_passes)
        });
        row("RBM+Tempering", tempered, passes);
    }
    table.print();
    if let Some(path) = &scale.csv {
        write_csv(&table, path);
    }
    println!(
        "\nReading: AUTO's τ ≈ 1 / ESS ≈ batch at n passes; every Markov \
         kernel trades passes for correlation (τ > 1) and none removes the \
         sequential burn-in — kernel engineering narrows but cannot close \
         the gap to exact sampling."
    );
}
