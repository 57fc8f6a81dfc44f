//! Integration tests for the extension features built on top of the
//! paper's core reproduction: the Sherrington–Kirkpatrick workload,
//! checkpointing and sampler diagnostics — each exercised through the
//! same public API as the headline pipeline.

use vqmc::core::observables::fidelity;
use vqmc::nn::checkpoint::Checkpoint;
use vqmc::prelude::*;

/// The SK spin glass end to end: SR training reaches high fidelity with
/// the exact ground state.
#[test]
fn sk_model_high_fidelity_with_sr() {
    let n = 8;
    let h = TransverseFieldIsing::sherrington_kirkpatrick(n, 0.7, 2021);
    let gs = ground_state(&h, 300, 1e-12);
    let config = TrainerConfig {
        iterations: 250,
        batch_size: 256,
        optimizer: OptimizerChoice::paper_sr(),
        ..TrainerConfig::paper_default(1)
    };
    let mut t = Trainer::new(Made::new(n, 14, 7), AutoSampler::new(), config);
    let trace = t.run(&h);
    let f = fidelity(t.wavefunction(), &gs.vector);
    // Glassy landscapes can trap finite-iteration runs in near-degenerate
    // states; require high fidelity OR an energy within 2% of exact.
    let rel = (trace.final_energy() - gs.energy).abs() / gs.energy.abs();
    assert!(f > 0.9 || rel < 0.02, "fidelity {f}, energy gap {rel}");
}

/// Checkpoint round-trip across a training run: restore and continue
/// evaluating with bit-identical amplitudes.
#[test]
fn checkpoint_preserves_trained_model() {
    let n = 5;
    let mc = MaxCut::random(n, 4);
    let config = TrainerConfig {
        iterations: 40,
        batch_size: 128,
        optimizer: OptimizerChoice::paper_default(),
        ..TrainerConfig::paper_default(6)
    };
    let mut t = Trainer::new(Made::new(n, 8, 1), AutoSampler::new(), config);
    t.run(&mc);
    let path = std::env::temp_dir().join(format!(
        "vqmc-integration-ckpt-{}.bin",
        std::process::id()
    ));
    t.wavefunction().save(&path).unwrap();
    let restored = Made::load(&path).unwrap();
    std::fs::remove_file(&path).ok();
    let batch = vqmc::tensor::batch::enumerate_configs(n);
    assert_eq!(
        t.wavefunction().log_psi(&batch).as_slice(),
        restored.log_psi(&batch).as_slice()
    );
}

/// Diagnostics integrate with the samplers: AUTO's effective sample
/// size is the full batch; Metropolis' is far smaller on the same
/// model size.
#[test]
fn diagnostics_separate_exact_from_markov_sampling() {
    use rand::SeedableRng;
    use vqmc::sampler::diagnostics::effective_sample_size;
    let n = 12;
    let made = Made::new(n, made_hidden_size(n), 1);
    let rbm = Rbm::new(n, n, 1);
    let batch = 2000;
    let mut rng = rand::rngs::StdRng::seed_from_u64(3);
    let auto = AutoSampler::new().sample(&made, batch, &mut rng);
    let mcmc = McmcSampler::default().sample_rbm(&rbm, batch, &mut rng);
    let ess_auto = effective_sample_size(auto.log_psi.as_slice());
    let ess_mcmc = effective_sample_size(mcmc.log_psi.as_slice());
    assert!(ess_auto > 0.8 * batch as f64, "AUTO ESS {ess_auto}");
    assert!(
        ess_mcmc < 0.5 * ess_auto,
        "MCMC ESS {ess_mcmc} not clearly below AUTO's {ess_auto}"
    );
}
