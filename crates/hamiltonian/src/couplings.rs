//! Storage strategies for the pairwise couplings `βᵢⱼ`.
//!
//! The paper's disordered TIM draws a coupling for **every** pair
//! `i < j`, i.e. a dense symmetric matrix.  At `n = 10 000` that matrix
//! is `8·n² = 800 MB` of `f64` — storable once on this machine, but not
//! per-replica.  [`Couplings`] therefore offers two backings:
//!
//! * [`Couplings::Dense`] — the literal `n×n` symmetric matrix (zero
//!   diagonal, `βᵢⱼ` mirrored into both triangles) used up to a few
//!   thousand spins and shared across device replicas behind an `Arc`.
//! * [`Couplings::SparseRows`] — the strict upper triangle once, as CSR
//!   ([`UpperCsr`]: row offsets, `u32` columns, `f64` values — 12 B an
//!   edge), for graphs / diluted disorder.  Used by Max-Cut (whose
//!   adjacency is ~25 % dense under the paper's generator, but stored
//!   sparsely for uniformity at large `n`).
//!
//! Both expose the two bulk kernels the energy engine needs: the
//! quadratic form `σᵀ B σ` per batch row, and the *field*
//! `f_i(σ) = Σ_j B_ij σ_j` used for O(1)-per-flip energy deltas.
//!
//! ## The sparse batched diagonal
//!
//! The dense backing takes one GEMM.  The sparse one works on tiles of
//! [`PAIR_TILE`] samples: each tile's spins are written vertex-major as
//! sign masks `(x as u64) << 63`, and the dispatched
//! [`signed_pair_sum`](vqmc_tensor::simd::Kernels::signed_pair_sum)
//! kernel adds `v ⊕ m_i[s] ⊕ m_j[s]` per lane over rows `i` ascending,
//! then columns ascending.  A ±1 product is an exact sign flip, so per
//! sample that is the same sequence of operations as the scalar oracle
//! [`Couplings::pair_energy`]'s `acc += v · σ_i · σ_j`: the two agree
//! **bit for bit** for any finite weights, at every SIMD arm and thread
//! count (tiles are striped over the pool; each lane's sum is serial).

use serde::{Deserialize, Serialize};
use vqmc_tensor::simd::{self, PAIR_TILE};
use vqmc_tensor::{par, Matrix, SpinBatch, Vector, Workspace};

/// Symmetric pairwise couplings with a zero diagonal.
#[derive(Clone, Serialize, Deserialize)]
pub enum Couplings {
    /// Explicit dense symmetric matrix (both triangles populated).
    Dense(Matrix),
    /// Sparse strict upper triangle (each edge stored once, on row
    /// `min(i, j)`).
    SparseRows(UpperCsr),
}

/// The strict upper triangle of a sparse symmetric matrix in CSR form:
/// row `i` holds `(j, B_ij)` for `j > i`, columns ascending.
#[derive(Clone)]
pub struct UpperCsr {
    /// `n + 1` row starts into `cols` / `vals`.
    offsets: Vec<usize>,
    cols: Vec<u32>,
    vals: Vec<f64>,
}

impl UpperCsr {
    /// Number of rows (spins).
    pub fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    /// True when there are no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of stored couplings (edges).
    pub fn nnz(&self) -> usize {
        self.cols.len()
    }

    /// Row `i`: its columns (all `> i`, ascending) and their weights.
    pub fn row(&self, i: usize) -> (&[u32], &[f64]) {
        let r = self.offsets[i]..self.offsets[i + 1];
        (&self.cols[r.clone()], &self.vals[r])
    }
}

impl Couplings {
    /// Builds a dense backing from the strict upper triangle visitor
    /// `f(i, j) -> βᵢⱼ` (called once per `i < j`).
    pub fn dense_from_upper(n: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            for j in (i + 1)..n {
                let v = f(i, j);
                m.set(i, j, v);
                m.set(j, i, v);
            }
        }
        Couplings::Dense(m)
    }

    /// Builds a sparse backing from an edge list `(i, j, βᵢⱼ)` with
    /// `i ≠ j`, in either orientation.  Panics on a self-loop, an
    /// out-of-range vertex or a duplicate edge.
    pub fn sparse_from_edges(n: usize, edges: &[(usize, usize, f64)]) -> Self {
        assert!(n <= u32::MAX as usize, "Couplings: n exceeds u32 columns");
        // Bucket by row, then flatten rows in order, columns sorted.
        let mut rows: Vec<Vec<(u32, f64)>> = vec![Vec::new(); n];
        for &(i, j, v) in edges {
            assert!(i != j, "Couplings: self-loop ({i},{i})");
            assert!(i < n && j < n, "Couplings: vertex out of range");
            rows[i.min(j)].push((i.max(j) as u32, v));
        }
        let mut offsets = Vec::with_capacity(n + 1);
        let mut cols = Vec::with_capacity(edges.len());
        let mut vals = Vec::with_capacity(edges.len());
        offsets.push(0);
        for row in &mut rows {
            row.sort_unstable_by_key(|&(j, _)| j);
            assert!(
                row.windows(2).all(|w| w[0].0 != w[1].0),
                "Couplings: duplicate edge"
            );
            cols.extend(row.iter().map(|&(j, _)| j));
            vals.extend(row.iter().map(|&(_, v)| v));
            offsets.push(cols.len());
        }
        Couplings::SparseRows(UpperCsr {
            offsets,
            cols,
            vals,
        })
    }

    /// Number of spins.
    pub fn len(&self) -> usize {
        match self {
            Couplings::Dense(m) => m.rows(),
            Couplings::SparseRows(csr) => csr.len(),
        }
    }

    /// True when there are no spins.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Single coupling `B_ij` (O(1) dense, O(log deg) sparse).
    pub fn get(&self, i: usize, j: usize) -> f64 {
        if i == j {
            return 0.0;
        }
        match self {
            Couplings::Dense(m) => m.get(i, j),
            Couplings::SparseRows(csr) => {
                let (cols, vals) = csr.row(i.min(j));
                u32::try_from(i.max(j))
                    .ok()
                    .and_then(|hi| cols.binary_search(&hi).ok())
                    .map_or(0.0, |idx| vals[idx])
            }
        }
    }

    /// The field `f_i = Σ_j B_ij σ_j` for one Ising configuration
    /// `σ ∈ {±1}ⁿ`.
    pub fn field(&self, sigma: &[f64]) -> Vector {
        match self {
            Couplings::Dense(m) => m.matvec(&Vector(sigma.to_vec())),
            Couplings::SparseRows(csr) => {
                // Scattering each edge to both ends in row order visits
                // every f_i's terms in ascending j, as a full row would;
                // -0.0 is the neutral start `Iterator::sum` uses.
                let mut f = Vector::full(csr.len(), -0.0);
                for i in 0..csr.len() {
                    let (cols, vals) = csr.row(i);
                    for (&j, &v) in cols.iter().zip(vals) {
                        let j = j as usize;
                        f[i] += v * sigma[j];
                        f[j] += v * sigma[i];
                    }
                }
                f
            }
        }
    }

    /// Quadratic pair energy `Σ_{i<j} B_ij σ_i σ_j = ½ σᵀ B σ` for one
    /// configuration.  The sparse arm is the scalar oracle of the tiled
    /// batch kernel.
    pub fn pair_energy(&self, sigma: &[f64]) -> f64 {
        match self {
            Couplings::Dense(m) => {
                let mut acc = 0.0;
                for (i, &si) in sigma.iter().enumerate() {
                    let row = m.row(i);
                    // Strict upper triangle only.
                    let mut partial = 0.0;
                    for j in (i + 1)..sigma.len() {
                        partial += row[j] * sigma[j];
                    }
                    acc += si * partial;
                }
                acc
            }
            Couplings::SparseRows(csr) => {
                let mut acc = 0.0;
                for i in 0..csr.len() {
                    let (cols, vals) = csr.row(i);
                    for (&j, &v) in cols.iter().zip(vals) {
                        acc += v * sigma[i] * sigma[j as usize];
                    }
                }
                acc
            }
        }
    }

    /// Batched pair energies `½ diag(Σ B Σᵀ)` where `Σ` is the batch of
    /// Ising rows.  Dense backing uses one GEMM; sparse runs the
    /// sample-tiled signed-sum kernel (module docs).
    pub fn pair_energy_batch(&self, batch: &SpinBatch) -> Vector {
        let mut ws = Workspace::new();
        let mut out = Vector::default();
        self.pair_energy_batch_into(batch, &mut ws, &mut out);
        out
    }

    /// [`Couplings::pair_energy_batch`] into a caller-owned vector, with
    /// scratch drawn from `ws` — allocation-free at steady state.
    pub fn pair_energy_batch_into(&self, batch: &SpinBatch, ws: &mut Workspace, out: &mut Vector) {
        let bs = batch.batch_size();
        out.resize(bs);
        match self {
            Couplings::Dense(m) => {
                let mut sigma = Matrix::from_vec(0, 0, ws.take(0));
                let mut sb = Matrix::from_vec(0, 0, ws.take(0));
                batch.to_ising_matrix_into(&mut sigma);
                // (Σ B) has shape bs×n; rowwise dot with Σ gives σᵀBσ.
                sigma.matmul_nt_into(m, &mut sb); // B symmetric: Bᵀ = B
                for s in 0..bs {
                    out[s] = 0.5 * vqmc_tensor::vector::dot(sb.row(s), sigma.row(s));
                }
                ws.give(sb.into_vec());
                ws.give(sigma.into_vec());
            }
            Couplings::SparseRows(csr) => csr.pair_energy_tiles(batch, ws, out.as_mut_slice()),
        }
    }

    /// Bytes of storage used by the backing (memory-model input).
    pub fn storage_bytes(&self) -> usize {
        match self {
            Couplings::Dense(m) => std::mem::size_of_val(m.as_slice()),
            Couplings::SparseRows(csr) => {
                std::mem::size_of_val(csr.offsets.as_slice())
                    + std::mem::size_of_val(csr.cols.as_slice())
                    + std::mem::size_of_val(csr.vals.as_slice())
            }
        }
    }
}

impl UpperCsr {
    /// The tiled batch kernel: tiles of [`PAIR_TILE`] samples striped
    /// over the pool, each worker's sign masks (`n × PAIR_TILE` words)
    /// carved from one `ws` buffer.  Padding lanes of a partial tile
    /// read mask 0 and are never written out.
    fn pair_energy_tiles(&self, batch: &SpinBatch, ws: &mut Workspace, out: &mut [f64]) {
        let (n, bs) = (self.len(), batch.batch_size());
        assert_eq!(batch.num_spins(), n, "Couplings: spin-count mismatch");
        let tiles = bs.div_ceil(PAIR_TILE);
        let parts = if par::should_parallelize(bs * self.nnz()) {
            par::active_threads().min(tiles)
        } else {
            1
        };
        let kernel = simd::kernels().signed_pair_sum;
        // Masks start on a cache line: a 128-byte mask row then spans two
        // lines, not three (1.8× on the AVX-512 arm at n = 1024).
        const LINE: usize = 64 / std::mem::size_of::<f64>();
        let mut scratch = ws.take(parts * n * PAIR_TILE + LINE);
        let skip = scratch.as_ptr().align_offset(64).min(LINE);
        let pmasks = par::SendPtr(scratch[skip..].as_mut_ptr().cast::<[u64; PAIR_TILE]>());
        let pout = par::SendPtr(out.as_mut_ptr());
        par::run(parts, &|w| {
            // SAFETY: worker `w` owns masks `[w·n, (w+1)·n)` of the
            // `parts·n` rows that follow the `skip ≤ LINE` spare words
            // (`[u64; 16]` has f64's alignment) and the output samples of
            // its own tiles; both buffers outlive the region.
            let masks = unsafe { std::slice::from_raw_parts_mut(pmasks.get().add(w * n), n) };
            for t in par::stripe(tiles, parts, w) {
                let s0 = t * PAIR_TILE;
                let lanes = (bs - s0).min(PAIR_TILE);
                for lane in 0..PAIR_TILE {
                    if lane < lanes {
                        for (m, &x) in masks.iter_mut().zip(batch.sample(s0 + lane)) {
                            m[lane] = u64::from(x) << 63;
                        }
                    } else {
                        masks.iter_mut().for_each(|m| m[lane] = 0);
                    }
                }
                let mut acc = [0.0; PAIR_TILE];
                kernel(&self.offsets, &self.cols, &self.vals, masks, &mut acc);
                // SAFETY: samples `s0..s0 + lanes` belong to tile `t` only.
                let dst = unsafe { std::slice::from_raw_parts_mut(pout.get().add(s0), lanes) };
                dst.copy_from_slice(&acc[..lanes]);
            }
        });
        ws.give(scratch);
    }
}

impl std::fmt::Debug for Couplings {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Couplings::Dense(m) => write!(f, "Couplings::Dense({}x{})", m.rows(), m.cols()),
            Couplings::SparseRows(csr) => write!(
                f,
                "Couplings::SparseRows(n={}, edges={})",
                csr.len(),
                csr.nnz()
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn both_backings() -> (Couplings, Couplings) {
        // 4-spin system: edges (0,1)=2.0, (1,2)=-1.0, (0,3)=0.5
        let edges = [(0usize, 1usize, 2.0), (1, 2, -1.0), (0, 3, 0.5)];
        let dense = Couplings::dense_from_upper(4, |i, j| {
            edges
                .iter()
                .find(|&&(a, b, _)| (a, b) == (i, j))
                .map(|&(_, _, v)| v)
                .unwrap_or(0.0)
        });
        let sparse = Couplings::sparse_from_edges(4, &edges);
        (dense, sparse)
    }

    #[test]
    fn get_is_symmetric_and_zero_diagonal() {
        for c in [both_backings().0, both_backings().1] {
            assert_eq!(c.get(0, 1), 2.0);
            assert_eq!(c.get(1, 0), 2.0);
            assert_eq!(c.get(2, 2), 0.0);
            assert_eq!(c.get(2, 3), 0.0);
        }
    }

    #[test]
    fn field_matches_manual() {
        let (dense, sparse) = both_backings();
        let sigma = [1.0, -1.0, 1.0, -1.0];
        // f_0 = 2*(-1) + 0.5*(-1) = -2.5 ; f_1 = 2*1 + (-1)*1 = 1
        for c in [dense, sparse] {
            let f = c.field(&sigma);
            assert_eq!(f[0], -2.5);
            assert_eq!(f[1], 1.0);
            assert_eq!(f[2], 1.0); // -1 * σ_1 = 1
            assert_eq!(f[3], 0.5); // 0.5 * σ_0
        }
    }

    #[test]
    fn pair_energy_consistent_across_backings() {
        let (dense, sparse) = both_backings();
        for bits in 0..16u8 {
            let sigma: Vec<f64> = (0..4)
                .map(|i| if bits >> i & 1 == 1 { -1.0 } else { 1.0 })
                .collect();
            let ed = dense.pair_energy(&sigma);
            let es = sparse.pair_energy(&sigma);
            assert!((ed - es).abs() < 1e-12, "bits={bits}: {ed} vs {es}");
        }
    }

    #[test]
    fn pair_energy_batch_matches_scalar() {
        let (dense, sparse) = both_backings();
        let batch = vqmc_tensor::batch::enumerate_configs(4);
        for c in [dense, sparse] {
            let batched = c.pair_energy_batch(&batch);
            for (s, config) in batch.samples().enumerate() {
                let sigma: Vec<f64> = config.iter().map(|&b| 1.0 - 2.0 * b as f64).collect();
                assert!(
                    (batched[s] - c.pair_energy(&sigma)).abs() < 1e-12,
                    "sample {s}"
                );
            }
        }
    }

    #[test]
    fn field_gives_flip_delta() {
        // Flipping spin i changes pair energy by -2 σ_i f_i.
        let (dense, _) = both_backings();
        let sigma = [1.0, 1.0, -1.0, 1.0];
        let e0 = dense.pair_energy(&sigma);
        let f = dense.field(&sigma);
        for i in 0..4 {
            let mut flipped = sigma;
            flipped[i] = -flipped[i];
            let e1 = dense.pair_energy(&flipped);
            assert!(
                ((e1 - e0) - (-2.0 * sigma[i] * f[i])).abs() < 1e-12,
                "flip {i}"
            );
        }
    }

    #[test]
    fn storage_bytes_positive_for_nonempty() {
        let (dense, sparse) = both_backings();
        assert_eq!(dense.storage_bytes(), 16 * 8);
        assert!(sparse.storage_bytes() > 0);
        assert!(!dense.is_empty());
    }

    #[test]
    #[should_panic(expected = "self-loop")]
    fn sparse_rejects_self_loop() {
        let _ = Couplings::sparse_from_edges(3, &[(1, 1, 1.0)]);
    }

    #[test]
    #[should_panic(expected = "duplicate edge")]
    fn sparse_rejects_duplicate_edge() {
        // The reversed orientation is the same edge.
        let _ = Couplings::sparse_from_edges(3, &[(0, 2, 1.0), (2, 0, 1.0)]);
    }

    #[test]
    fn sparse_stores_each_edge_once() {
        let (_, sparse) = both_backings();
        let Couplings::SparseRows(csr) = &sparse else {
            unreachable!()
        };
        assert_eq!(csr.nnz(), 3);
        assert_eq!(csr.row(0), (&[1u32, 3][..], &[2.0, 0.5][..]));
        assert_eq!(csr.row(3), (&[][..], &[][..]));
        assert_eq!(sparse.storage_bytes(), 5 * 8 + 3 * 12);
        assert_eq!(format!("{sparse:?}"), "Couplings::SparseRows(n=4, edges=3)");
    }
}
