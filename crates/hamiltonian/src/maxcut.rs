//! Max-Cut and QUBO as diagonal Hamiltonians.
//!
//! Following the paper's §2.4, Max-Cut on a graph `G = (V, E)` is the
//! ground-state problem of a purely diagonal Ising Hamiltonian; VQMC
//! then acts as a combinatorial-optimisation heuristic (equivalent to a
//! natural evolution strategy, [Zhao et al. 2020]).  We realise the
//! mapping as `H_xx = −cut(x)`, so energy minimisation maximises the
//! cut.  (The paper's `βᵢⱼ = ¼Lᵢⱼ` with its Eq. 11 sign would point the
//! wrong way — see the crate-level docs.)
//!
//! The random instance generator mirrors §5.1: a Bernoulli(0.5) matrix
//! `B` is symmetrised as `(B + Bᵀ)/2` and *rounded half-to-even* (the
//! NumPy convention the reference implementation would have used), which
//! keeps an edge only where both `B_ij` and `B_ji` are 1 — effective
//! edge density ¼.  The paper's own Table 2 confirms this: the random-cut
//! baseline at `n = 500` scores ≈ 15 696 ≈ ¼·n(n−1)/2 / 2.

use rand::distributions::{Bernoulli, Distribution};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use vqmc_tensor::{Matrix, SpinBatch, Vector};

use crate::couplings::Couplings;
use crate::SparseRowHamiltonian;

/// An undirected simple graph stored as an edge list plus adjacency rows.
#[derive(Clone, Serialize, Deserialize)]
pub struct Graph {
    n: usize,
    edges: Vec<(usize, usize)>,
}

impl Graph {
    /// Builds a graph from an edge list; edges are deduplicated and
    /// normalised to `i < j`, self-loops rejected.
    pub fn from_edges(n: usize, edges: impl IntoIterator<Item = (usize, usize)>) -> Self {
        let mut set = std::collections::BTreeSet::new();
        for (a, b) in edges {
            assert!(a != b, "Graph: self-loop at {a}");
            assert!(a < n && b < n, "Graph: vertex out of range");
            set.insert((a.min(b), a.max(b)));
        }
        Graph {
            n,
            edges: set.into_iter().collect(),
        }
    }

    /// The paper's §5.1 generator: `B_ij ~ Bernoulli(0.5)`, adjacency
    /// `A = round((B + Bᵀ)/2)` with round-half-to-even, diagonal zeroed.
    /// Equivalent to keeping edge `(i,j)` iff `B_ij = B_ji = 1`.
    pub fn random_bernoulli(n: usize, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let coin = Bernoulli::new(0.5).expect("valid probability");
        // Draw the full asymmetric matrix B row-major, like the
        // reference generator, so the instance depends only on the seed.
        let mut b = vec![false; n * n];
        for cell in b.iter_mut() {
            *cell = coin.sample(&mut rng);
        }
        let mut edges = Vec::new();
        for i in 0..n {
            for j in (i + 1)..n {
                if b[i * n + j] && b[j * n + i] {
                    edges.push((i, j));
                }
            }
        }
        Graph { n, edges }
    }

    /// Erdős–Rényi `G(n, p)` generator (for tests and extra workloads).
    pub fn random_gnp(n: usize, p: f64, seed: u64) -> Self {
        assert!((0.0..=1.0).contains(&p), "Graph: p out of [0,1]");
        let mut rng = StdRng::seed_from_u64(seed);
        let coin = Bernoulli::new(p).expect("valid probability");
        let mut edges = Vec::new();
        for i in 0..n {
            for j in (i + 1)..n {
                if coin.sample(&mut rng) {
                    edges.push((i, j));
                }
            }
        }
        Graph { n, edges }
    }

    /// Complete graph `K_n`.
    pub fn complete(n: usize) -> Self {
        let mut edges = Vec::with_capacity(n * (n - 1) / 2);
        for i in 0..n {
            for j in (i + 1)..n {
                edges.push((i, j));
            }
        }
        Graph { n, edges }
    }

    /// Cycle graph `C_n`.
    pub fn cycle(n: usize) -> Self {
        assert!(n >= 3, "Graph::cycle needs n >= 3");
        Graph {
            n,
            edges: (0..n).map(|i| (i.min((i + 1) % n), i.max((i + 1) % n))).collect(),
        }
    }

    /// Random `d`-regular graph by the configuration (pairing) model
    /// with rejection of self-loops and multi-edges; `n·d` must be even.
    /// Standard Max-Cut benchmark family (e.g. the G-set graphs).
    pub fn random_regular(n: usize, d: usize, seed: u64) -> Self {
        assert!(d < n, "Graph::random_regular: degree must be < n");
        assert!((n * d).is_multiple_of(2), "Graph::random_regular: n·d must be even");
        let mut rng = StdRng::seed_from_u64(seed);
        'attempt: for _ in 0..200 {
            // Half-edge stubs, shuffled and paired.
            let mut stubs: Vec<usize> = (0..n).flat_map(|v| std::iter::repeat_n(v, d)).collect();
            // Fisher-Yates.
            for i in (1..stubs.len()).rev() {
                let j = rand::Rng::gen_range(&mut rng, 0..=i);
                stubs.swap(i, j);
            }
            let mut set = std::collections::BTreeSet::new();
            for pair in stubs.chunks_exact(2) {
                let (a, b) = (pair[0].min(pair[1]), pair[0].max(pair[1]));
                if a == b || !set.insert((a, b)) {
                    continue 'attempt; // self-loop or duplicate: redraw
                }
            }
            return Graph {
                n,
                edges: set.into_iter().collect(),
            };
        }
        panic!("Graph::random_regular: no simple pairing found (d too large?)");
    }

    /// `w × h` grid graph (planar Max-Cut is polynomial; a useful sanity
    /// family because the optimum is the full edge set for even cases).
    pub fn grid(width: usize, height: usize) -> Self {
        assert!(width >= 1 && height >= 1, "Graph::grid: empty grid");
        let idx = |r: usize, c: usize| r * width + c;
        let mut edges = Vec::new();
        for r in 0..height {
            for c in 0..width {
                if c + 1 < width {
                    edges.push((idx(r, c), idx(r, c + 1)));
                }
                if r + 1 < height {
                    edges.push((idx(r, c), idx(r + 1, c)));
                }
            }
        }
        Graph {
            n: width * height,
            edges,
        }
    }

    /// Number of vertices.
    pub fn num_vertices(&self) -> usize {
        self.n
    }

    /// Number of edges.
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// The edge list (each edge once, `i < j`).
    pub fn edges(&self) -> &[(usize, usize)] {
        &self.edges
    }

    /// Cut value of a binary partition `x ∈ {0,1}ⁿ`: the number of edges
    /// whose endpoints fall on different sides.
    pub fn cut_value(&self, x: &[u8]) -> usize {
        debug_assert_eq!(x.len(), self.n);
        self.edges
            .iter()
            .filter(|&&(a, b)| x[a] != x[b])
            .count()
    }

    /// Dense adjacency matrix (tests / baselines; O(n²) memory).
    pub fn adjacency_matrix(&self) -> Matrix {
        let mut m = Matrix::zeros(self.n, self.n);
        for &(a, b) in &self.edges {
            m.set(a, b, 1.0);
            m.set(b, a, 1.0);
        }
        m
    }
}

impl std::fmt::Debug for Graph {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Graph(n={}, |E|={})", self.n, self.edges.len())
    }
}

/// Max-Cut as a diagonal Hamiltonian: `H_xx = −cut(x)`.
///
/// Ground energy is `−maxcut(G)`; the VQMC objective value is therefore
/// directly comparable with the classical baselines in `vqmc-baselines`.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct MaxCut {
    graph: Graph,
    /// Unit-weight couplings on the edges (for the batched cut kernel).
    adjacency: Couplings,
}

impl MaxCut {
    /// Wraps a graph.
    pub fn new(graph: Graph) -> Self {
        let edges: Vec<(usize, usize, f64)> = graph
            .edges()
            .iter()
            .map(|&(a, b)| (a, b, 1.0))
            .collect();
        let adjacency = Couplings::sparse_from_edges(graph.num_vertices(), &edges);
        MaxCut { graph, adjacency }
    }

    /// Random instance per the paper's generator.
    pub fn random(n: usize, seed: u64) -> Self {
        MaxCut::new(Graph::random_bernoulli(n, seed))
    }

    /// The underlying graph.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// Cut value of one configuration.
    pub fn cut_value(&self, x: &[u8]) -> usize {
        self.graph.cut_value(x)
    }

    /// Batched cut values via the Ising identity
    /// `cut(x) = (|E| − Σ_{i<j} L_ij σᵢσⱼ) / 2`.
    pub fn cut_values(&self, batch: &SpinBatch) -> Vector {
        let pair = self.adjacency.pair_energy_batch(batch);
        let m = self.graph.num_edges() as f64;
        Vector::from_fn(batch.batch_size(), |s| (m - pair[s]) / 2.0)
    }
}

impl SparseRowHamiltonian for MaxCut {
    fn num_spins(&self) -> usize {
        self.graph.num_vertices()
    }

    fn diagonal(&self, x: &[u8]) -> f64 {
        -(self.graph.cut_value(x) as f64)
    }

    fn for_each_offdiag(&self, _x: &[u8], _visit: &mut dyn FnMut(usize, f64)) {
        // Purely diagonal: no off-diagonal elements.
    }

    fn sparsity(&self) -> usize {
        1
    }

    fn diagonal_batch_into(
        &self,
        batch: &SpinBatch,
        ws: &mut vqmc_tensor::Workspace,
        out: &mut Vector,
    ) {
        // `H_xx = −cut(x) = −(|E| − Σ L_ij σᵢσⱼ)/2` via the batched
        // pair-energy kernel.
        self.adjacency.pair_energy_batch_into(batch, ws, out);
        let m = self.graph.num_edges() as f64;
        for s in 0..batch.batch_size() {
            out[s] = (out[s] - m) / 2.0;
        }
    }
}

/// Quadratic unconstrained binary optimisation:
/// `H_xx = Σ_{i<j} Q_ij x_i x_j + Σ_i c_i x_i` over `x ∈ {0,1}ⁿ`.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Qubo {
    quadratic: Couplings,
    linear: Vector,
}

impl Qubo {
    /// Builds a QUBO from symmetric pairwise terms and a linear term.
    pub fn new(quadratic: Couplings, linear: Vector) -> Self {
        assert_eq!(quadratic.len(), linear.len(), "Qubo: size mismatch");
        Qubo { quadratic, linear }
    }

    /// The Max-Cut objective as a QUBO: maximising
    /// `Σ_(i,j)∈E (x_i + x_j − 2 x_i x_j)` equals maximising the cut, so
    /// the *minimisation* form has `Q_ij = +2` on edges and
    /// `c_i = −deg(i)`.
    pub fn from_maxcut(graph: &Graph) -> Self {
        let n = graph.num_vertices();
        let mut degree = vec![0.0f64; n];
        let edges: Vec<(usize, usize, f64)> = graph
            .edges()
            .iter()
            .map(|&(a, b)| {
                degree[a] += 1.0;
                degree[b] += 1.0;
                (a, b, 2.0)
            })
            .collect();
        Qubo {
            quadratic: Couplings::sparse_from_edges(n, &edges),
            linear: Vector(degree.into_iter().map(|d| -d).collect()),
        }
    }

    /// Objective value for one configuration.
    pub fn value(&self, x: &[u8]) -> f64 {
        let mut acc = 0.0;
        for (&xi, &li) in x.iter().zip(self.linear.iter()) {
            if xi == 1 {
                acc += li;
            }
        }
        // Σ_{i<j} Q_ij x_i x_j: add Q_ij for each upper-triangle pair with both bits set.
        match &self.quadratic {
            Couplings::SparseRows(csr) => {
                for i in (0..csr.len()).filter(|&i| x[i] == 1) {
                    let (cols, vals) = csr.row(i);
                    for (&j, &q) in cols.iter().zip(vals) {
                        if x[j as usize] == 1 {
                            acc += q;
                        }
                    }
                }
            }
            Couplings::Dense(m) => {
                for (i, &xi) in x.iter().enumerate() {
                    if xi == 1 {
                        for (j, &xj) in x.iter().enumerate().skip(i + 1) {
                            if xj == 1 {
                                acc += m.get(i, j);
                            }
                        }
                    }
                }
            }
        }
        acc
    }
}

impl SparseRowHamiltonian for Qubo {
    fn num_spins(&self) -> usize {
        self.linear.len()
    }

    fn diagonal(&self, x: &[u8]) -> f64 {
        self.value(x)
    }

    fn for_each_offdiag(&self, _x: &[u8], _visit: &mut dyn FnMut(usize, f64)) {}

    fn sparsity(&self) -> usize {
        1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vqmc_tensor::batch::enumerate_configs;

    #[test]
    fn bernoulli_generator_deterministic_and_quarter_dense() {
        let g1 = Graph::random_bernoulli(100, 5);
        let g2 = Graph::random_bernoulli(100, 5);
        assert_eq!(g1.edges(), g2.edges());
        // Edge density should be near 1/4 of all pairs.
        let pairs = 100 * 99 / 2;
        let density = g1.num_edges() as f64 / pairs as f64;
        assert!(
            (0.18..0.32).contains(&density),
            "density {density} not ≈ 0.25"
        );
    }

    #[test]
    fn cut_value_hand_check() {
        // Triangle: any 2-1 split cuts 2 edges.
        let g = Graph::complete(3);
        assert_eq!(g.cut_value(&[0, 0, 0]), 0);
        assert_eq!(g.cut_value(&[1, 0, 0]), 2);
        assert_eq!(g.cut_value(&[1, 1, 0]), 2);
    }

    #[test]
    fn cycle_even_has_perfect_cut() {
        let g = Graph::cycle(6);
        let alternating = [0u8, 1, 0, 1, 0, 1];
        assert_eq!(g.cut_value(&alternating), 6);
    }

    #[test]
    fn batched_cuts_match_scalar() {
        let mc = MaxCut::random(8, 13);
        let batch = enumerate_configs(8);
        let cuts = mc.cut_values(&batch);
        for (s, config) in batch.samples().enumerate() {
            assert!(
                (cuts[s] - mc.cut_value(config) as f64).abs() < 1e-9,
                "config {s}"
            );
        }
    }

    #[test]
    fn hamiltonian_is_negative_cut() {
        let mc = MaxCut::random(10, 21);
        let x = [0, 1, 0, 0, 1, 1, 0, 1, 0, 1];
        assert_eq!(mc.diagonal(&x), -(mc.cut_value(&x) as f64));
        let mut visits = 0;
        mc.for_each_offdiag(&x, &mut |_, _| visits += 1);
        assert_eq!(visits, 0, "Max-Cut must be diagonal");
    }

    #[test]
    fn diagonal_batch_override_consistent() {
        let mc = MaxCut::random(7, 3);
        let batch = enumerate_configs(7);
        let d = mc.diagonal_batch(&batch);
        for (s, config) in batch.samples().enumerate() {
            assert!((d[s] - mc.diagonal(config)).abs() < 1e-9);
        }
    }

    #[test]
    fn complement_partition_has_equal_cut() {
        let g = Graph::random_bernoulli(20, 9);
        let x: Vec<u8> = (0..20).map(|i| (i % 3 == 0) as u8).collect();
        let xc: Vec<u8> = x.iter().map(|&b| 1 - b).collect();
        assert_eq!(g.cut_value(&x), g.cut_value(&xc));
    }

    #[test]
    fn qubo_from_maxcut_equals_negative_cut() {
        let g = Graph::random_bernoulli(9, 77);
        let q = Qubo::from_maxcut(&g);
        let batch = enumerate_configs(9);
        for config in batch.samples() {
            // Q(x) = −cut(x): Σ (x_i + x_j − 2 x_i x_j) over edges is the
            // cut, and from_maxcut negates it for minimisation.
            assert!(
                (q.value(config) + g.cut_value(config) as f64).abs() < 1e-9,
                "mismatch on {config:?}"
            );
        }
    }

    #[test]
    fn random_regular_has_uniform_degree() {
        let g = Graph::random_regular(24, 3, 5);
        let mut deg = vec![0usize; 24];
        for &(a, b) in g.edges() {
            deg[a] += 1;
            deg[b] += 1;
        }
        assert!(deg.iter().all(|&d| d == 3), "degrees {deg:?}");
        assert_eq!(g.num_edges(), 24 * 3 / 2);
        // Deterministic per seed.
        assert_eq!(g.edges(), Graph::random_regular(24, 3, 5).edges());
    }

    #[test]
    fn grid_is_bipartite_fully_cuttable() {
        let g = Graph::grid(4, 3);
        assert_eq!(g.num_vertices(), 12);
        assert_eq!(g.num_edges(), 3 * 3 + 4 * 2); // 9 horizontal + 8 vertical
        // Checkerboard partition cuts every edge.
        let x: Vec<u8> = (0..12).map(|v| (((v / 4) + (v % 4)) % 2) as u8).collect();
        assert_eq!(g.cut_value(&x), g.num_edges());
    }

    #[test]
    #[should_panic(expected = "even")]
    fn random_regular_rejects_odd_stub_count() {
        let _ = Graph::random_regular(5, 3, 1);
    }

    #[test]
    fn graph_from_edges_dedupes_and_orders() {
        let g = Graph::from_edges(4, [(2, 1), (1, 2), (0, 3)]);
        assert_eq!(g.edges(), &[(0, 3), (1, 2)]);
    }

    #[test]
    #[should_panic(expected = "self-loop")]
    fn self_loops_rejected() {
        let _ = Graph::from_edges(3, [(1, 1)]);
    }
}
