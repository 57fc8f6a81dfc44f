//! # vqmc-tensor
//!
//! Dense linear-algebra kernels used throughout the `vqmc-rs` workspace.
//!
//! The SC'21 paper this workspace reproduces ("Overcoming barriers to
//! scalability in variational quantum Monte Carlo") executes its neural
//! wavefunctions on NVIDIA V100 GPUs.  A GPU earns its speed by
//! parallelising the *batch* axis of every dense kernel; this crate plays
//! the same role on CPU by parallelising the identical axis over the
//! fixed worker pool in [`par`].  The flop counts per device and the bytes moved per
//! collective — the only quantities the paper's scaling analysis (its
//! Eq. 15) depends on — are therefore preserved exactly.
//!
//! ## Contents
//!
//! * [`Vector`] — a contiguous `f64` vector with the BLAS-1 operations the
//!   optimisers need (axpy, dot, scaling, norms).
//! * [`Matrix`] — a row-major `f64` matrix with cache-blocked,
//!   pool-parallel GEMM variants ([`Matrix::matmul_nt`] and friends).
//! * [`SpinBatch`] — a `bs x n` batch of binary spin configurations, the
//!   sample container shared by Hamiltonians, samplers and wavefunctions.
//! * [`ops`] — numerically stable elementwise activations (`sigmoid`,
//!   `ln_cosh`, `relu`, ...) and their derivatives.
//! * [`reduce`] — reductions (mean, variance, log-sum-exp, weighted dots),
//!   pairwise-compensated for batch-scale accumulations.
//! * [`simd`] — the runtime-dispatched kernel tables (AVX-512, AVX2+FMA,
//!   portable), each kernel one lane-generic body stamped per table
//!   (packed GEMM microkernel, vectorised transcendentals, reductions,
//!   the batched sampling step), selected once per process (see
//!   [`simd::kernels`]).  Disable with `--features force-scalar` or
//!   `VQMC_SIMD=off`.
//!
//! ## Shape discipline
//!
//! Kernels `assert!` on shape mismatches rather than returning `Result`:
//! a shape error in this workspace is always a programming bug, never a
//! runtime condition, and the branch predictor eats the cost.
//!
//! ## Parallelism policy
//!
//! Real threads live in [`par`]: a lazily-spawned fixed pool of workers
//! (sized by `VQMC_THREADS`, default one per core) that every parallel
//! kernel dispatches onto.  Every parallel kernel has a sequential twin,
//! and crossover thresholds ([`par::PAR_THRESHOLD_ELEMS`] for
//! memory-bound slices, [`par::PAR_GEMM_MIN_FLOPS`] for GEMM) below
//! which the entry points degrade to the sequential implementation; the
//! thresholds were calibrated by the `bench_tensor` criterion group in
//! `vqmc-bench`.  The binding contract is *bit-identical results at any
//! thread count* — see the [`par`] module docs for how each kernel
//! family earns that.

#![warn(missing_docs)]

pub mod batch;
pub mod gemm;
pub mod matrix;
pub mod ops;
pub mod par;
pub mod reduce;
pub mod simd;
pub mod vector;
pub mod workspace;

/// The f32 GEMM's former home, kept as a path only: the end-to-end
/// benchmark crate (`bench-e2e/src/micro.rs`) imports
/// `vqmc_tensor::gemm32::gemm_nt_f32`, and that crate is held fixed so
/// its measurements compare across commits.  New code uses
/// [`gemm::gemm_nt_f32`].
pub mod gemm32 {
    pub use crate::gemm::gemm_nt_f32;
}

pub use batch::SpinBatch;
pub use matrix::Matrix;
pub use vector::Vector;
pub use workspace::Workspace;

/// Numeric precision of an inference pass.
///
/// `F64` is the reference arm: every kernel is bit-identical across
/// SIMD arms and thread counts.  `F32` stores weights and activations
/// in single precision (half the bytes streamed, twice the SIMD lanes)
/// and widens to `f64` at reduction boundaries; its correctness
/// contract is bound-based (documented error bounds against the f64
/// arm), not bit-based, but *within* the f32 arm results are still
/// bit-identical across SIMD arms and thread counts.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum Precision {
    /// Double precision (the default and reference arm).
    #[default]
    F64,
    /// Single-precision weights/activations with f64 accumulation.
    F32,
}

impl Precision {
    /// Stable on-the-wire / on-disk tag (`0` = f64, `1` = f32).
    pub fn tag(self) -> u8 {
        match self {
            Precision::F64 => 0,
            Precision::F32 => 1,
        }
    }

    /// Inverse of [`Precision::tag`]; `None` for unknown tags.
    pub fn from_tag(tag: u8) -> Option<Self> {
        match tag {
            0 => Some(Precision::F64),
            1 => Some(Precision::F32),
            _ => None,
        }
    }

    /// Parses the CLI spelling (`"f64"` / `"f32"`, case-insensitive).
    pub fn parse(s: &str) -> Option<Self> {
        match s.to_ascii_lowercase().as_str() {
            "f64" | "double" => Some(Precision::F64),
            "f32" | "single" => Some(Precision::F32),
            _ => None,
        }
    }

    /// The CLI / JSON spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            Precision::F64 => "f64",
            Precision::F32 => "f32",
        }
    }
}

/// Absolute tolerance used by the test-suites of this workspace when
/// comparing two floating point computations that are algebraically equal
/// but may differ in association order (e.g. parallel reductions).
pub const TEST_EPS: f64 = 1e-9;

/// Relative comparison used across the workspace's tests: `a ~= b` up to
/// `tol` relative to the larger magnitude (falling back to absolute
/// comparison near zero).
pub fn approx_eq(a: f64, b: f64, tol: f64) -> bool {
    let scale = a.abs().max(b.abs()).max(1.0);
    (a - b).abs() <= tol * scale
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn approx_eq_absolute_near_zero() {
        assert!(approx_eq(0.0, 1e-12, 1e-9));
        assert!(!approx_eq(0.0, 1e-6, 1e-9));
    }

    #[test]
    fn approx_eq_relative_for_large() {
        assert!(approx_eq(1e12, 1e12 + 1.0, 1e-9));
        assert!(!approx_eq(1e12, 1.001e12, 1e-9));
    }
}
