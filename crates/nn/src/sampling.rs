//! The batched-sampling dispatch layer: one object-safe surface that
//! every sampling consumer (the trainer, the distributed trainer, the
//! serve engine, the CLI) goes through, so a model loaded as an
//! [`AnyModel`](crate::checkpoint::AnyModel) can be sampled without the
//! caller matching on its architecture.
//!
//! The actual sampling engines live **above** this crate (in
//! `vqmc-sampler`), and Rust's orphan rule keeps them from implementing
//! an nn-side trait for nn-side types — so the dispatch is a double
//! dispatch: a model implements [`BatchedSampling`] by handing *itself*
//! to the matching arm of a caller-provided [`SamplingEngine`], and the
//! engine implementation (which owns the request list, the scratch and
//! the output buffers) does the architecture-specific work:
//!
//! ```text
//! caller ──▶ model.sample_via(engine) ──▶ engine.sample_made(self)
//!                                        └▶ engine.sample_rbm(self)
//! ```
//!
//! Adding a new architecture means one new arm here and one new engine
//! branch in `vqmc-sampler` — the compiler walks every consumer for us.

use crate::{Made, Rbm, WaveFunction};

/// The architecture-specific arms of a batched sampling call.
///
/// Implementors (in `vqmc-sampler`) carry the call's context — request
/// list or stream length, RNG state, pooled scratch, output buffers —
/// in their own fields; each arm runs the whole call for one model kind.
pub trait SamplingEngine {
    /// Sample from a MADE wavefunction (exact AUTO, fused panel pass).
    fn sample_made(&mut self, wf: &Made);
    /// Sample from an RBM wavefunction (MCMC fallback — RBMs are
    /// unnormalised, so exact sampling is unavailable).
    fn sample_rbm(&mut self, wf: &Rbm);
}

/// A wavefunction that can be sampled through the unified batched
/// layer.  Object-safe: consumers hold `&dyn BatchedSampling` and never
/// match on the concrete architecture.
pub trait BatchedSampling: WaveFunction {
    /// Routes `engine` to the arm matching this model's architecture.
    fn sample_via(&self, engine: &mut dyn SamplingEngine);
}

impl BatchedSampling for Made {
    fn sample_via(&self, engine: &mut dyn SamplingEngine) {
        engine.sample_made(self);
    }
}

impl BatchedSampling for Rbm {
    fn sample_via(&self, engine: &mut dyn SamplingEngine) {
        engine.sample_rbm(self);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Default)]
    struct ArmRecorder {
        arm: Option<&'static str>,
    }

    impl SamplingEngine for ArmRecorder {
        fn sample_made(&mut self, _wf: &Made) {
            self.arm = Some("made");
        }
        fn sample_rbm(&mut self, _wf: &Rbm) {
            self.arm = Some("rbm");
        }
    }

    #[test]
    fn each_model_routes_to_its_own_arm() {
        let cases: Vec<(Box<dyn BatchedSampling>, &str)> = vec![
            (Box::new(Made::new(4, 5, 1)), "made"),
            (Box::new(Rbm::new(4, 4, 1)), "rbm"),
        ];
        for (model, expect) in cases {
            let mut rec = ArmRecorder::default();
            model.sample_via(&mut rec);
            assert_eq!(rec.arm, Some(expect));
        }
    }
}
