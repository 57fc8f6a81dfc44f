//! The batched local-energy engine (paper Eq. 3).
//!
//! For a sample `x` the local energy is
//!
//! ```text
//! l(x) = (Hψ)(x) / ψ(x) = H_xx + Σ_i H_{x,yᵢ} · ψ(yᵢ)/ψ(x),   yᵢ = flip_i(x)
//! ```
//!
//! The wavefunction ratios are evaluated in *log space*
//! (`ψ(y)/ψ(x) = exp(logψ(y) − logψ(x))`), which is the standard VQMC
//! trick to avoid under/overflow of raw amplitudes.
//!
//! Cost profile: the diagonal is one vectorised pass; the off-diagonal
//! terms need `logψ` at every flip-neighbour of every sample — up to
//! `bs · n` extra configurations.  Those are gathered into *neighbour
//! batches* and pushed through the wavefunction in chunks (the chunk
//! size caps peak memory), one call per chunk, as the paper describes
//! ("a fixed number of forward passes for physical quantity
//! measurements").
//!
//! The rows of a chunk are sample-major with flips ascending, and that
//! order is part of the cost model: a sample's neighbour with flip `j`
//! shares every bit before the previous neighbour's flip with it.  An
//! autoregressive wavefunction reads a conditional `i` off bits `< i`
//! only, so the MADE forward pass copies everything those shared bits
//! determine from the row before and recomputes only what the flip
//! reaches — about half the work of `bs · n` full passes, bit for bit
//! the same `logψ` (`vqmc_nn`'s `layers` module).  The order is pinned
//! by `neighbour_rows_share_their_prefix_with_the_row_before`.

use vqmc_tensor::{par, SpinBatch, Vector, Workspace};

use crate::SparseRowHamiltonian;

/// Tuning for the local-energy engine.
#[derive(Clone, Copy, Debug)]
pub struct LocalEnergyConfig {
    /// Maximum number of neighbour configurations evaluated per forward
    /// pass.  Bounds peak memory at `chunk_rows × n` spin bytes plus the
    /// wavefunction's activation footprint.
    pub chunk_rows: usize,
}

impl Default for LocalEnergyConfig {
    fn default() -> Self {
        LocalEnergyConfig { chunk_rows: 16_384 }
    }
}

/// Reusable scratch state for [`local_energies_into`].
///
/// Owns every intermediate the engine needs — the off-diagonal work-item
/// list, the neighbour batch, the neighbour `logψ` buffer, and a scratch
/// pool for the diagonal kernel — so that repeated calls with stable
/// shapes perform no heap allocation.
#[derive(Debug, Default)]
pub struct LocalEnergyScratch {
    /// Scratch pool for the batched diagonal.
    ws: Workspace,
    /// Off-diagonal work items `(sample index, flip index, H_xy)`.
    items: Vec<(usize, usize, f64)>,
    /// Neighbour configurations of the current chunk.
    neigh: SpinBatch,
    /// `logψ` of the current neighbour chunk.
    log_psi_y: Vector,
    /// Wavefunction ratios `ψ(y)/ψ(x)` of the current chunk (filled with
    /// the log-ratios, exponentiated in one vectorised pass).
    ratios: Vec<f64>,
}

impl LocalEnergyScratch {
    /// Fresh scratch (buffers grow on first use).
    pub fn new() -> Self {
        LocalEnergyScratch::default()
    }
}

/// Computes the local energies of every sample in `batch`.
///
/// * `log_psi_x` — `logψ` of the batch itself (the caller already has it
///   from the sampling step; recomputation would waste a forward pass).
/// * `log_psi` — evaluator for arbitrary configuration batches.
///
/// Returns the vector `l(x)` per sample.
pub fn local_energies(
    h: &dyn SparseRowHamiltonian,
    batch: &SpinBatch,
    log_psi_x: &Vector,
    log_psi: &mut dyn FnMut(&SpinBatch) -> Vector,
    cfg: LocalEnergyConfig,
) -> Vector {
    let mut scratch = LocalEnergyScratch::new();
    let mut out = Vector::default();
    local_energies_into(
        h,
        batch,
        log_psi_x,
        &mut |b, dst: &mut Vector| dst.copy_from(&log_psi(b)),
        cfg,
        &mut scratch,
        &mut out,
    );
    out
}

/// [`local_energies`] into a caller-owned vector with reusable scratch —
/// the steady-state training path performs no heap allocation here.
///
/// `log_psi` writes the neighbour-batch `logψ` into a caller-owned
/// vector so the wavefunction's workspace variants plug in directly.
pub fn local_energies_into(
    h: &dyn SparseRowHamiltonian,
    batch: &SpinBatch,
    log_psi_x: &Vector,
    log_psi: &mut dyn FnMut(&SpinBatch, &mut Vector),
    cfg: LocalEnergyConfig,
    scratch: &mut LocalEnergyScratch,
    out: &mut Vector,
) {
    let bs = batch.batch_size();
    let n = batch.num_spins();
    assert_eq!(log_psi_x.len(), bs, "local_energies: logψ(x) length mismatch");
    assert_eq!(h.num_spins(), n, "local_energies: spin-count mismatch");
    assert!(cfg.chunk_rows > 0, "local_energies: zero chunk size");

    // Diagonal part, vectorised.
    h.diagonal_batch_into(batch, &mut scratch.ws, out);

    // Gather neighbour work items: (sample index, flip index, H_xy).
    scratch.items.clear();
    for s in 0..bs {
        let items = &mut scratch.items;
        h.for_each_offdiag(batch.sample(s), &mut |i, v| {
            items.push((s, i, v));
        });
    }
    if scratch.items.is_empty() {
        return; // purely diagonal Hamiltonian (Max-Cut / QUBO)
    }

    // Evaluate neighbours in chunks: one big forward pass per chunk.
    //
    // The neighbour build and the log-ratio fill are striped over the
    // pool (each worker owns a contiguous row range of the chunk — a
    // static partition, so results are bit-identical at any thread
    // count); the final scatter-accumulate stays sequential because
    // many rows can target the same sample `s` and the accumulation
    // order must not depend on the partition.
    for chunk in scratch.items.chunks(cfg.chunk_rows) {
        let rows = chunk.len();
        scratch.neigh.resize(rows, n);
        let parts = if par::should_parallelize(rows * n) {
            par::active_threads().min(rows.max(1))
        } else {
            1
        };
        {
            let pneigh = par::SendPtr(scratch.neigh.as_bytes_mut().as_mut_ptr());
            par::run(parts, &|w| {
                let r = par::stripe(rows, parts, w);
                for row in r {
                    // SAFETY: row ranges are disjoint across workers and
                    // every row lies inside the `rows × n` byte buffer
                    // resized above; the region joins before the borrow
                    // of `neigh` ends.
                    let dst = unsafe {
                        std::slice::from_raw_parts_mut(pneigh.get().add(row * n), n)
                    };
                    let (s, flip, _) = chunk[row];
                    dst.copy_from_slice(batch.sample(s));
                    dst[flip] ^= 1;
                }
            });
        }
        log_psi(&scratch.neigh, &mut scratch.log_psi_y);
        debug_assert_eq!(scratch.log_psi_y.len(), rows);
        // Ratios in one vectorised exp over the chunk: fill with the
        // log-ratios, exponentiate through the dispatched kernel, then
        // scatter-accumulate weighted by the matrix elements.
        scratch.ratios.resize(rows, 0.0);
        {
            let log_psi_y = &scratch.log_psi_y;
            let pratios = par::SendPtr(scratch.ratios.as_mut_ptr());
            par::run(parts, &|w| {
                let r = par::stripe(rows, parts, w);
                for row in r {
                    let (s, _, _) = chunk[row];
                    // SAFETY: disjoint per-row writes, same partition as
                    // above.
                    unsafe {
                        *pratios.get().add(row) = log_psi_y[row] - log_psi_x[s];
                    }
                }
            });
        }
        vqmc_tensor::ops::exp_slice(&mut scratch.ratios);
        for (row, &(s, _, hxy)) in chunk.iter().enumerate() {
            out[s] += hxy * scratch.ratios[row];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::maxcut::MaxCut;
    use crate::tim::TransverseFieldIsing;
    use crate::{DenseHamiltonian, SparseRowHamiltonian};
    use vqmc_tensor::batch::{encode_config, enumerate_configs};

    /// An explicit positive wavefunction over the full basis, for exact
    /// cross-checks: ψ(x) given by a fixed formula.
    fn log_psi_formula(config: &[u8]) -> f64 {
        // Arbitrary smooth positive amplitude.
        let idx = encode_config(config) as f64;
        0.3 * (idx * 0.17).sin() - 0.05 * idx.sqrt()
    }

    fn eval_log_psi(batch: &SpinBatch) -> Vector {
        Vector::from_fn(batch.batch_size(), |s| log_psi_formula(batch.sample(s)))
    }

    /// Local energy from the dense materialisation:
    /// `l(x) = Σ_y H_xy ψ(y) / ψ(x)`.
    fn dense_local_energy(dense: &DenseHamiltonian, n: usize, x: &[u8]) -> f64 {
        let xi = encode_config(x);
        let all = enumerate_configs(n);
        let mut acc = 0.0;
        for (y, config) in all.samples().enumerate() {
            let hxy = dense.matrix().get(xi, y);
            if hxy != 0.0 {
                acc += hxy * (log_psi_formula(config) - log_psi_formula(x)).exp();
            }
        }
        acc
    }

    #[test]
    fn tim_local_energy_matches_dense_definition() {
        let n = 5;
        let h = TransverseFieldIsing::random(n, 91);
        let dense = DenseHamiltonian::from_sparse(&h);
        let batch = enumerate_configs(n);
        let log_psi_x = eval_log_psi(&batch);
        let local = local_energies(
            &h,
            &batch,
            &log_psi_x,
            &mut eval_log_psi,
            LocalEnergyConfig::default(),
        );
        for (s, config) in batch.samples().enumerate() {
            let expected = dense_local_energy(&dense, n, config);
            assert!(
                (local[s] - expected).abs() < 1e-9,
                "sample {s}: {} vs {expected}",
                local[s]
            );
        }
    }

    #[test]
    fn diagonal_hamiltonian_local_energy_is_diagonal() {
        let mc = MaxCut::random(6, 12);
        let batch = enumerate_configs(6);
        let log_psi_x = eval_log_psi(&batch);
        let local = local_energies(
            &mc,
            &batch,
            &log_psi_x,
            &mut |_b: &SpinBatch| panic!("diagonal model must not evaluate neighbours"),
            LocalEnergyConfig::default(),
        );
        for (s, config) in batch.samples().enumerate() {
            assert_eq!(local[s], mc.diagonal(config));
        }
    }

    #[test]
    fn chunking_is_transparent() {
        let n = 4;
        let h = TransverseFieldIsing::random(n, 7);
        let batch = enumerate_configs(n);
        let log_psi_x = eval_log_psi(&batch);
        let big = local_energies(
            &h,
            &batch,
            &log_psi_x,
            &mut eval_log_psi,
            LocalEnergyConfig { chunk_rows: 1_000_000 },
        );
        let tiny = local_energies(
            &h,
            &batch,
            &log_psi_x,
            &mut eval_log_psi,
            LocalEnergyConfig { chunk_rows: 3 },
        );
        for s in 0..batch.batch_size() {
            assert!((big[s] - tiny[s]).abs() < 1e-12);
        }
    }

    #[test]
    fn scratch_reuse_is_bit_identical_to_allocating() {
        let n = 5;
        let h = TransverseFieldIsing::random(n, 17);
        let mut scratch = LocalEnergyScratch::new();
        let mut out = Vector::default();
        // Reuse one scratch across differently sized batches; every call
        // must agree bit-for-bit with the allocating path.
        for bs in [1usize, 7, 32, 4] {
            let batch = SpinBatch::from_fn(bs, n, |s, i| ((s * 31 + i * 7) % 3 == 0) as u8);
            let log_psi_x = eval_log_psi(&batch);
            local_energies_into(
                &h,
                &batch,
                &log_psi_x,
                &mut |b, dst: &mut Vector| dst.copy_from(&eval_log_psi(b)),
                LocalEnergyConfig { chunk_rows: 6 },
                &mut scratch,
                &mut out,
            );
            let alloc = local_energies(
                &h,
                &batch,
                &log_psi_x,
                &mut eval_log_psi,
                LocalEnergyConfig { chunk_rows: 6 },
            );
            assert_eq!(out.as_slice(), alloc.as_slice(), "bs={bs}");
        }
    }

    /// The row order the MADE forward pass reuses: neighbours come
    /// sample-major, flips ascending, so a row after its sample's first
    /// differs from the row before it first at that row's flip — it
    /// shares `j − 1` bits when flip `j − 1` came just before, and the
    /// bits before the last present flip when some `αᵢ = 0` drop flips.
    /// A reorder would silently turn the reuse off; it fails here.
    #[test]
    fn neighbour_rows_share_their_prefix_with_the_row_before() {
        let n = 9;
        let batch = SpinBatch::from_fn(5, n, |s, i| ((s * 7 + i * 3 + s * i) % 4 < 2) as u8);
        let log_psi_x = Vector::zeros(batch.batch_size());
        let full = TransverseFieldIsing::random(n, 4);
        let alpha = Vector::from_fn(n, |i| if i % 3 == 1 { 0.0 } else { full.alpha()[i] });
        let missing =
            TransverseFieldIsing::new(alpha, full.beta().clone(), full.couplings().clone());
        for h in [&full, &missing] {
            let flips: Vec<usize> = (0..n).filter(|&i| h.alpha()[i] != 0.0).collect();
            let mut rows: Vec<Vec<u8>> = Vec::new();
            let mut capture = |b: &SpinBatch, out: &mut Vector| {
                rows.extend(b.samples().map(<[u8]>::to_vec));
                out.resize(b.batch_size());
            };
            let mut scratch = LocalEnergyScratch::new();
            let cfg = LocalEnergyConfig::default();
            let mut out = Vector::default();
            local_energies_into(
                h,
                &batch,
                &log_psi_x,
                &mut capture,
                cfg,
                &mut scratch,
                &mut out,
            );
            assert_eq!(rows.len(), batch.batch_size() * flips.len());
            for (k, row) in rows.iter().enumerate() {
                let (s, t) = (k / flips.len(), k % flips.len());
                let mut want = batch.sample(s).to_vec();
                want[flips[t]] ^= 1;
                assert_eq!(row, &want, "row {k}: sample {s}, flip {}", flips[t]);
                if t > 0 {
                    let prev = &rows[k - 1];
                    let shared = row.iter().zip(prev).take_while(|(a, b)| a == b).count();
                    assert_eq!(shared, flips[t - 1], "row {k} against the row before");
                }
            }
        }
    }

    #[test]
    fn exact_eigenvector_gives_constant_local_energy() {
        // At an exact eigenvector, l(x) = λ for every x (zero-variance
        // principle, Eq. 4).
        let n = 4;
        let h = TransverseFieldIsing::random(n, 3);
        let gs = crate::exact::ground_state(&h, 100, 1e-13);
        let batch = enumerate_configs(n);
        let logpsi = |b: &SpinBatch| {
            Vector::from_fn(b.batch_size(), |s| {
                let idx = encode_config(b.sample(s));
                gs.vector[idx].max(1e-300).ln()
            })
        };
        let mut eval = logpsi;
        let log_psi_x = eval(&batch);
        let local = local_energies(&h, &batch, &log_psi_x, &mut eval, LocalEnergyConfig::default());
        for s in 0..batch.batch_size() {
            // Components with non-negligible amplitude must sit at λ_min.
            if gs.vector[s] > 1e-4 {
                assert!(
                    (local[s] - gs.energy).abs() < 1e-4,
                    "x={s}: l={} λ={}",
                    local[s],
                    gs.energy
                );
            }
        }
    }
}
