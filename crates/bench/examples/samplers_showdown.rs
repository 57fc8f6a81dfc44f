//! Sampler & architecture showdown on one fixed problem: every sampling
//! engine (exact AUTO — naive and incremental — Metropolis MCMC,
//! heat-bath Gibbs) and both wavefunctions (MADE, RBM), with
//! sample-quality diagnostics (integrated autocorrelation time,
//! effective sample size) that quantify the paper's §2.2 argument.
//!
//! ```sh
//! cargo run --release -p vqmc-bench --example samplers_showdown -- [n]
//! ```

use rand::rngs::StdRng;
use rand::SeedableRng;
use vqmc_bench::gibbs::GibbsSampler;
use vqmc_nn::{made_hidden_size, rbm_hidden_size, Made, Rbm};
use vqmc_sampler::diagnostics::{effective_sample_size, integrated_autocorrelation_time};
use vqmc_sampler::{AutoSampler, IncrementalAutoSampler, McmcSampler, SampleOutput, Sampler};

fn main() {
    let n: usize = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(16);
    let batch = 2048;
    println!("== sampler showdown, n = {n}, batch = {batch} ==\n");

    let made = Made::new(n, made_hidden_size(n), 1);
    let rbm = Rbm::new(n, rbm_hidden_size(n), 1);

    println!(
        "{:<26} {:>8} {:>10} {:>8} {:>9} {:>8}",
        "engine", "passes", "proposals", "accept", "tau_int", "ESS"
    );

    let report = |label: &str, out: &SampleOutput| {
        let tau = integrated_autocorrelation_time(out.log_psi.as_slice());
        let ess = effective_sample_size(out.log_psi.as_slice());
        let accept = if out.stats.proposals > 0 {
            format!("{:.2}", out.stats.acceptance_rate())
        } else {
            "-".into()
        };
        println!(
            "{label:<26} {:>8} {:>10} {accept:>8} {tau:>9.2} {ess:>8.0}",
            out.stats.forward_passes, out.stats.proposals
        );
    };

    let mut rng = StdRng::seed_from_u64(7);
    report("MADE + AUTO (naive)", &AutoSampler::new().sample(&made, batch, &mut rng));
    report(
        "MADE + AUTO (incremental)",
        &IncrementalAutoSampler::new().sample(&made, batch, &mut rng),
    );
    report(
        "RBM + Metropolis MCMC",
        &McmcSampler::default().sample_rbm(&rbm, batch, &mut rng),
    );
    report(
        "RBM + Gibbs (heat bath)",
        &GibbsSampler::default().sample(&rbm, batch, &mut rng),
    );
    report(
        "MADE + Metropolis MCMC",
        &McmcSampler::default().sample(&made, batch, &mut rng),
    );

    println!(
        "\nReading: exact engines (AUTO) deliver tau ≈ 1 — every sample is \
         independent.  Markov-chain engines deliver correlated samples \
         (tau > 1, ESS < batch), and no kernel choice removes the \
         sequential burn-in — the paper's core argument, measured."
    );
}
