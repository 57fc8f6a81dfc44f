//! # vqmc-hamiltonian
//!
//! Problem definitions for the VQMC workspace: sparse-row-computable
//! Hamiltonians in the sense of the paper's Definition 2.1, concrete
//! instances (the disordered transverse-field Ising model and Max-Cut /
//! QUBO), the batched local-energy engine of Eq. 3, and an exact
//! ground-state oracle (matrix-free Lanczos) used by the test-suite.
//!
//! ## The sparsity contract (Definition 2.1)
//!
//! A Hamiltonian `H ∈ ℝ^{2ⁿ×2ⁿ}` is *row-s-sparse and efficiently row
//! computable* when, for any basis state `x`, the list of non-zero
//! entries `{(y, H_xy)}` of row `x` can be produced in `O(s)` time.  The
//! [`SparseRowHamiltonian`] trait encodes exactly this: `diagonal(x)`
//! plus a visitor over off-diagonal connections.  Both concrete models
//! here have only *single-spin-flip* off-diagonals, so a connection is
//! identified by the index of the flipped spin — no `2ⁿ`-sized object is
//! ever materialised.
//!
//! ## Models
//!
//! * [`TransverseFieldIsing`] — the paper's Eq. 11/13 with
//!   `αᵢ ~ U(0,1)`, `βᵢ, βᵢⱼ ~ U(−1,1)`: n single-flip connections of
//!   weight `−αᵢ` plus a dense-coupling diagonal.
//! * [`MaxCut`] — the diagonal Hamiltonian `H_xx = −cut(x)` over a random
//!   Bernoulli graph (the paper's §5.1 generator).  Note the paper's
//!   §2.4 states `βᵢⱼ = ¼Lᵢⱼ`, which with its Eq. 11 sign convention
//!   would make the *ferromagnetic* (cut-minimising) state the ground
//!   state; the physically intended mapping is antiferromagnetic, so we
//!   use `H_xx = −cut(x)` directly (an affine relabelling; the argmin is
//!   the maximum cut, as in the paper's experiments).
//! * [`Qubo`] — general quadratic unconstrained binary optimisation,
//!   `H_xx = xᵀQx + cᵀx`, of which Max-Cut is the canonical instance.

#![warn(missing_docs)]

pub mod couplings;
pub mod dense;
pub mod exact;
pub mod local_energy;
pub mod maxcut;
pub mod tim;

use vqmc_tensor::{SpinBatch, Vector, Workspace};

pub use couplings::Couplings;
pub use dense::DenseHamiltonian;
pub use exact::{ground_state, GroundState};
pub use local_energy::{local_energies, local_energies_into, LocalEnergyConfig, LocalEnergyScratch};
pub use maxcut::{Graph, MaxCut, Qubo};
pub use tim::TransverseFieldIsing;

/// A real-symmetric matrix over the `2ⁿ` spin basis that satisfies the
/// paper's Definition 2.1 (row-sparse, efficiently row computable).
///
/// Off-diagonal structure is restricted to single-spin flips, which both
/// paper models satisfy: row `x` connects to `y = flip_i(x)` with matrix
/// element given by the visitor.
pub trait SparseRowHamiltonian: Send + Sync {
    /// Number of spins `n` (the matrix is `2ⁿ × 2ⁿ`).
    fn num_spins(&self) -> usize;

    /// Diagonal element `H_xx`.
    fn diagonal(&self, x: &[u8]) -> f64;

    /// Visits every non-zero off-diagonal element of row `x` as
    /// `(flip_index i, H_{x, flip_i(x)})`.
    fn for_each_offdiag(&self, x: &[u8], visit: &mut dyn FnMut(usize, f64));

    /// Row sparsity `s`: an upper bound on the number of non-zeros per
    /// row, including the diagonal.
    fn sparsity(&self) -> usize;

    /// Batched diagonal.  The default loops over samples; models with
    /// pairwise couplings override this with the batched
    /// [`Couplings`] kernel (GEMM when dense, tiled when sparse).
    fn diagonal_batch(&self, batch: &SpinBatch) -> Vector {
        let mut ws = Workspace::new();
        let mut out = Vector::default();
        self.diagonal_batch_into(batch, &mut ws, &mut out);
        out
    }

    /// [`SparseRowHamiltonian::diagonal_batch`] into a caller-owned
    /// vector, with scratch drawn from `ws` — allocation-free at steady
    /// state.  The default loops over samples; overrides must produce
    /// identical values.
    fn diagonal_batch_into(&self, batch: &SpinBatch, ws: &mut Workspace, out: &mut Vector) {
        let _ = ws;
        out.resize(batch.batch_size());
        for s in 0..batch.batch_size() {
            out[s] = self.diagonal(batch.sample(s));
        }
    }

    /// Number of off-diagonal connections of row `x` (default: count via
    /// the visitor).
    fn num_offdiag(&self, x: &[u8]) -> usize {
        let mut count = 0;
        self.for_each_offdiag(x, &mut |_, _| count += 1);
        count
    }

    /// Matrix element `H_xy` between two explicit configurations.
    /// Intended for tests (O(s) via the visitor).
    fn matrix_element(&self, x: &[u8], y: &[u8]) -> f64 {
        assert_eq!(x.len(), y.len());
        let diff: Vec<usize> = (0..x.len()).filter(|&i| x[i] != y[i]).collect();
        match diff.len() {
            0 => self.diagonal(x),
            1 => {
                let mut elem = 0.0;
                self.for_each_offdiag(x, &mut |i, v| {
                    if i == diff[0] {
                        elem = v;
                    }
                });
                elem
            }
            _ => 0.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Toy 2-spin Hamiltonian for trait-default tests:
    /// diagonal = number of up spins, flips with weight -1.
    struct Toy;
    impl SparseRowHamiltonian for Toy {
        fn num_spins(&self) -> usize {
            2
        }
        fn diagonal(&self, x: &[u8]) -> f64 {
            x.iter().map(|&b| b as f64).sum()
        }
        fn for_each_offdiag(&self, _x: &[u8], visit: &mut dyn FnMut(usize, f64)) {
            visit(0, -1.0);
            visit(1, -1.0);
        }
        fn sparsity(&self) -> usize {
            3
        }
    }

    #[test]
    fn default_diagonal_batch_matches_scalar() {
        let h = Toy;
        let batch = vqmc_tensor::batch::enumerate_configs(2);
        let d = h.diagonal_batch(&batch);
        assert_eq!(d.as_slice(), &[0.0, 1.0, 1.0, 2.0]);
    }

    #[test]
    fn default_num_offdiag_counts() {
        let h = Toy;
        assert_eq!(h.num_offdiag(&[0, 0]), 2);
    }

    #[test]
    fn matrix_element_dispatch() {
        let h = Toy;
        assert_eq!(h.matrix_element(&[1, 0], &[1, 0]), 1.0); // diagonal
        assert_eq!(h.matrix_element(&[1, 0], &[0, 0]), -1.0); // single flip
        assert_eq!(h.matrix_element(&[1, 0], &[0, 1]), 0.0); // double flip
    }
}
