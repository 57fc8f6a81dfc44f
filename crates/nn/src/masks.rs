//! MADE masks (Germain et al. 2015).
//!
//! The autoregressive property — output `i` may depend only on inputs
//! `< i` — is enforced with two binary masks:
//!
//! * hidden mask `M¹ ∈ {0,1}^{h×n}`:  `M¹[k, d] = 1 ⇔ m(k) ≥ d + 1`,
//!   i.e. hidden unit `k` (with *degree* `m(k) ∈ [1, n−1]`) may see
//!   inputs with 1-based index `≤ m(k)`;
//! * output mask `M² ∈ {0,1}^{n×k}`:  `M²[i, k] = 1 ⇔ i + 1 > m(k)`,
//!   i.e. output `i` (1-based `i+1`) may use hidden units of strictly
//!   smaller degree.
//!
//! Composing the two: output `i` sees input `d` iff some `k` has
//! `d + 1 ≤ m(k) < i + 1`, which implies `d < i` — exactly the strict
//! autoregressive ordering.  Output 0 is connected to nothing and learns
//! the marginal `p(x₁)` through its bias alone.
//!
//! Degrees are assigned deterministically and evenly
//! (`m(k) = (k mod (n−1)) + 1`), so every degree class is populated when
//! `h ≥ n − 1`; determinism keeps cluster replicas identical.
//!
//! A mask is its keys ([`MaskKeys`]): a layer stores one per row and
//! column, never the `out × in` matrix, whose dense form
//! ([`MaskKeys::mask`], [`connectivity`]) is only the tests' oracle.

use vqmc_tensor::Matrix;

/// Degree assignment for `h` hidden units over `n` inputs:
/// `m(k) ∈ [1, n−1]` cycling evenly.  For `n == 1` there are no valid
/// degrees (the single output depends on nothing); all degrees are 0 and
/// both masks come out empty.
pub fn hidden_degrees(n: usize, h: usize) -> Vec<usize> {
    if n <= 1 {
        return vec![0; h];
    }
    (0..h).map(|k| (k % (n - 1)) + 1).collect()
}

/// A MADE mask in threshold form: `M[k, j] = 1 ⇔ rows[k] ≥ cols[j]`.
/// All three MADE masks have this form, so the keys are the mask: the
/// masking of weights and gradients ([`MaskKeys::apply`]) and the
/// live ranges of a [`LayerMask`] are read off them.
#[derive(Clone, Debug, Default)]
pub struct MaskKeys {
    /// One key per output unit (mask row).
    pub rows: Vec<usize>,
    /// One key per input (mask column); a key above every row key is
    /// never live.
    pub cols: Vec<usize>,
}

impl MaskKeys {
    /// Hidden-layer mask `M¹ (h×n)`: unit `k` sees inputs `0..m(k)`,
    /// i.e. `m(k) ≥ d + 1`.
    pub fn input(n: usize, degrees: &[usize]) -> Self {
        MaskKeys {
            rows: degrees.to_vec(),
            cols: (1..=n).collect(),
        }
    }

    /// Hidden-to-hidden mask `Mˡ (next×prev)` for stacks deeper than
    /// one hidden layer: unit `k` of the next layer (degree `m_l(k)`)
    /// may see unit `j` of the previous layer (degree `m_{l-1}(j)`) iff
    /// `m_l(k) ≥ m_{l-1}(j)` — **non-strict**, unlike the output mask.
    /// Strictness is only needed at the output: composing
    /// `d + 1 ≤ m_1 ≤ m_2 ≤ … ≤ m_L < i + 1` still implies `d < i`,
    /// while non-strict interior hops keep every degree class reachable
    /// at depth.  Degree-0 units (the `n == 1` degenerate case) carry no
    /// input information, so connecting them is harmless; the composed
    /// connectivity test below pins the invariant either way.
    pub fn hidden(prev_degrees: &[usize], degrees: &[usize]) -> Self {
        MaskKeys {
            rows: degrees.to_vec(),
            cols: prev_degrees.to_vec(),
        }
    }

    /// Output-layer mask `M² (n×h)`: output `i` uses units with
    /// `m(k) < i + 1`, but never units with degree 0 (the `n == 1`
    /// degenerate case).
    pub fn output(n: usize, degrees: &[usize]) -> Self {
        let never = |m: usize| if m >= 1 { m } else { usize::MAX };
        MaskKeys {
            rows: (0..n).collect(),
            cols: degrees.iter().map(|&m| never(m)).collect(),
        }
    }

    /// Whether entry `(k, j)` is unmasked.
    pub fn live(&self, k: usize, j: usize) -> bool {
        self.rows[k] >= self.cols[j]
    }

    /// Masks the row-major `rows × cols` matrix `w` in place: entry
    /// `(k, j)` is multiplied by its 0/1 mask entry.  A multiply, not a
    /// select, so a masked entry becomes the signed zero `x · 0`, bit
    /// for bit the elementwise product with [`MaskKeys::mask`].
    pub fn apply(&self, w: &mut [f64]) {
        let cols = self.cols.len();
        assert_eq!(w.len(), self.rows.len() * cols, "MaskKeys::apply: shape");
        for (row, &r) in w.chunks_exact_mut(cols.max(1)).zip(&self.rows) {
            for (v, &c) in row.iter_mut().zip(&self.cols) {
                *v *= if r >= c { 1.0 } else { 0.0 };
            }
        }
    }

    /// The dense 0/1 mask: the oracle tests hold [`MaskKeys::apply`]
    /// and [`LayerMask`] to.
    pub fn mask(&self) -> Matrix {
        Matrix::from_fn(self.rows.len(), self.cols.len(), |k, j| {
            f64::from(u8::from(self.rows[k] >= self.cols[j]))
        })
    }
}

/// One masked layer's mask: its [`MaskKeys`] and the live structure
/// read off them, in the order the incremental sampler reveals bits.
/// Built once per model ([`crate::Made::with_hidden`], which checkpoint
/// loads go through too), so no pass scans a mask.
///
/// * `live_end(k)`: one past row `k`'s last unmasked entry — a logit or
///   hidden unit reads only that prefix of its inputs;
/// * `col_start(d)`: column `d`'s first unmasked row — revealing input
///   `d` changes only the units from there on (`out_dim` when the
///   column is fully masked);
/// * `ready_at(i)`: the rows whose key is `i` — for a hidden layer the
///   units of degree `i`, for the output layer logit `i`.  A unit of
///   degree `m` reads, through every layer below it, only inputs
///   `< m`, so its value is final from bit `m` on — its *ready bit* —
///   and the units that read it (degree `≥ m`) are first needed there
///   too.
#[derive(Clone, Debug, Default)]
pub struct LayerMask {
    keys: MaskKeys,
    live_end: Vec<usize>,
    col_start: Vec<usize>,
    /// The rows by ready bit (stable).
    by_ready: Vec<usize>,
    /// `by_ready[ready_start[i]..ready_start[i + 1]]` are ready at bit
    /// `i` (`n + 1` offsets).
    ready_start: Vec<usize>,
}

impl LayerMask {
    /// The mask of no layer.
    pub const EMPTY: LayerMask = LayerMask {
        keys: MaskKeys {
            rows: Vec::new(),
            cols: Vec::new(),
        },
        live_end: Vec::new(),
        col_start: Vec::new(),
        by_ready: Vec::new(),
        ready_start: Vec::new(),
    };

    /// The mask given by `keys`, over `n` inputs.  Linear in the
    /// layer's width, not its mask.
    pub fn new(keys: MaskKeys, n: usize) -> Self {
        let rows = keys.rows.len();
        let top = keys.rows.iter().copied().max().unwrap_or(0);
        // `last_le[t]`: one past the last column whose key is ≤ t;
        // `first_ge[t]`: the first row whose key is ≥ t.
        let mut last_le = vec![0; top + 1];
        for (j, &c) in keys.cols.iter().enumerate().filter(|(_, &c)| c <= top) {
            last_le[c] = j + 1;
        }
        for t in 1..=top {
            last_le[t] = last_le[t].max(last_le[t - 1]);
        }
        let mut first_ge = vec![rows; top + 2];
        for (k, &r) in keys.rows.iter().enumerate().rev() {
            first_ge[r] = k;
        }
        for t in (0..=top).rev() {
            first_ge[t] = first_ge[t].min(first_ge[t + 1]);
        }
        let live_end = keys.rows.iter().map(|&r| last_le[r]).collect();
        let col_start = keys
            .cols
            .iter()
            .map(|&c| first_ge[c.min(top + 1)])
            .collect();
        let mut ready_start = vec![0; n + 1];
        for &r in &keys.rows {
            assert!(r < n.max(1), "LayerMask: row key {r} past the last bit");
            ready_start[r + 1] += 1;
        }
        for i in 0..n {
            ready_start[i + 1] += ready_start[i];
        }
        let mut by_ready: Vec<usize> = (0..rows).collect();
        by_ready.sort_by_key(|&k| keys.rows[k]);
        LayerMask {
            keys,
            live_end,
            col_start,
            by_ready,
            ready_start,
        }
    }

    /// The keys: the mask itself.
    pub fn keys(&self) -> &MaskKeys {
        &self.keys
    }

    /// One past the last unmasked entry of weight row `k`.
    pub fn live_end(&self, k: usize) -> usize {
        self.live_end[k]
    }

    /// The first unmasked row of input column `d` (the layer's output
    /// width if none).
    pub fn col_start(&self, d: usize) -> usize {
        self.col_start[d]
    }

    /// The rows whose ready bit is `i`, ascending.
    pub fn ready_at(&self, i: usize) -> &[usize] {
        &self.by_ready[self.ready_start[i]..self.ready_start[i + 1]]
    }

    /// The last bit at which some unit becomes ready, if any does.
    pub fn last_ready(&self) -> Option<usize> {
        let total = self.by_ready.len();
        let past = self.ready_start.partition_point(|&s| s < total);
        (total > 0).then(|| past - 1)
    }
}

/// The effective input-to-output connectivity `C = M² · M¹ (n×n)`:
/// `C[i, d] > 0` iff output `i` can be influenced by input `d`.
/// Strictly lower-triangular by construction; the tests assert it.
pub fn connectivity(input_mask: &Matrix, output_mask: &Matrix) -> Matrix {
    output_mask.matmul_nn(input_mask)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn degrees_cover_all_classes() {
        let d = hidden_degrees(5, 12);
        for deg in 1..5 {
            assert!(d.contains(&deg), "degree {deg} missing");
        }
        assert!(d.iter().all(|&m| (1..=4).contains(&m)));
    }

    #[test]
    fn connectivity_is_strictly_lower_triangular() {
        for (n, h) in [(2usize, 3usize), (5, 8), (8, 20), (10, 7)] {
            let deg = hidden_degrees(n, h);
            let m1 = MaskKeys::input(n, &deg).mask();
            let m2 = MaskKeys::output(n, &deg).mask();
            let c = connectivity(&m1, &m2);
            for i in 0..n {
                for d in 0..n {
                    if d >= i {
                        assert_eq!(c.get(i, d), 0.0, "n={n} h={h}: output {i} sees input {d}");
                    }
                }
            }
        }
    }

    #[test]
    fn connectivity_is_maximal_below_diagonal_when_wide() {
        // With h >= n-1 every allowed (i, d) pair with d < i is realised.
        let (n, h) = (6, 16);
        let deg = hidden_degrees(n, h);
        let c = connectivity(
            &MaskKeys::input(n, &deg).mask(),
            &MaskKeys::output(n, &deg).mask(),
        );
        for i in 0..n {
            for d in 0..i {
                assert!(
                    c.get(i, d) > 0.0,
                    "output {i} cannot see input {d} despite d < i"
                );
            }
        }
    }

    #[test]
    fn deep_connectivity_is_strictly_lower_triangular() {
        // Compose M_out · M_hid … · M_in through 2- and 3-hidden-layer
        // stacks: the end-to-end connectivity must stay strictly
        // lower-triangular, and with wide layers every d < i pair must
        // survive the extra hops.
        for widths in [vec![8usize, 6], vec![12, 9, 7]] {
            let n = 6usize;
            let degs: Vec<Vec<usize>> = widths.iter().map(|&h| hidden_degrees(n, h)).collect();
            let mut c = MaskKeys::input(n, &degs[0]).mask();
            for l in 1..degs.len() {
                c = MaskKeys::hidden(&degs[l - 1], &degs[l])
                    .mask()
                    .matmul_nn(&c);
            }
            let c = MaskKeys::output(n, degs.last().unwrap())
                .mask()
                .matmul_nn(&c);
            for i in 0..n {
                for d in 0..n {
                    if d >= i {
                        assert_eq!(
                            c.get(i, d),
                            0.0,
                            "depth {}: output {i} sees input {d}",
                            widths.len()
                        );
                    } else {
                        assert!(
                            c.get(i, d) > 0.0,
                            "depth {}: output {i} lost input {d}",
                            widths.len()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn first_output_disconnected() {
        let deg = hidden_degrees(4, 9);
        let m2 = MaskKeys::output(4, &deg).mask();
        assert!(m2.row(0).iter().all(|&v| v == 0.0));
    }

    #[test]
    fn single_spin_degenerate_masks_empty() {
        let deg = hidden_degrees(1, 4);
        let m1 = MaskKeys::input(1, &deg).mask();
        let m2 = MaskKeys::output(1, &deg).mask();
        assert!(m1.as_slice().iter().all(|&v| v == 0.0));
        assert!(m2.as_slice().iter().all(|&v| v == 0.0));
    }

    /// The keyed mask is the dense one, exactly: `apply` gives the bits
    /// of `hadamard_inplace` with the dense mask (masked negatives turn
    /// into `−0`, which a select would make `+0`), `live` is the dense
    /// entry, row `k` is masked from `live_end(k)` on and live just
    /// before it, column `d` masked above `col_start(d)` and live
    /// there, and `ready_at` lists every row once, at its key (a unit's
    /// degree, an output's index).
    #[test]
    fn schedule_matches_masks_and_degrees() {
        let bits = |xs: &[f64]| xs.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let mut negative_zeros = 0;
        for (n, h) in [
            (1usize, 4usize),
            (2, 3),
            (6, 16),
            (10, 7),
            (40, 12),
            (300, 64),
        ] {
            let deg = hidden_degrees(n, h);
            let prev = hidden_degrees(n, (h / 2).max(1));
            let layers = [
                MaskKeys::input(n, &deg),
                MaskKeys::hidden(&prev, &deg),
                MaskKeys::output(n, &deg),
            ];
            for (l, keys) in layers.iter().enumerate() {
                let (mask, sched) = (keys.mask(), LayerMask::new(keys.clone(), n));
                let (rows, cols) = mask.shape();
                let mut dense =
                    Matrix::from_fn(rows, cols, |k, j| ((k * 7 + j + l) % 11) as f64 - 5.0);
                let mut keyed = dense.as_slice().to_vec();
                keys.apply(&mut keyed);
                dense.hadamard_inplace(&mask);
                assert_eq!(bits(&keyed), bits(dense.as_slice()), "n={n} layer {l}");
                negative_zeros += bits(&keyed).contains(&(-0.0f64).to_bits()) as usize;
                for k in 0..mask.rows() {
                    let (row, end) = (mask.row(k), sched.live_end(k));
                    assert!(
                        row[end..].iter().all(|&v| v == 0.0),
                        "n={n} layer {l} row {k}"
                    );
                    assert!(end == 0 || row[end - 1] == 1.0, "n={n} layer {l} row {k}");
                    let live = (0..cols).map(|j| keys.live(k, j));
                    assert!(
                        live.eq(row.iter().map(|&v| v == 1.0)),
                        "n={n} layer {l} row {k}"
                    );
                }
                for d in 0..mask.cols() {
                    let start = sched.col_start(d);
                    assert!(
                        (0..start).all(|k| mask.get(k, d) == 0.0),
                        "n={n} layer {l} col {d}"
                    );
                    assert!(start == mask.rows() || mask.get(start, d) == 1.0);
                }
                let mut seen = vec![false; mask.rows()];
                for i in 0..n {
                    for &k in sched.ready_at(i) {
                        assert_eq!(keys.rows[k], i, "n={n} layer {l} row {k}");
                        assert!(!std::mem::replace(&mut seen[k], true), "row {k} twice");
                    }
                }
                assert!(
                    seen.iter().all(|&s| s),
                    "n={n} layer {l}: a row is never ready"
                );
                assert_eq!(sched.last_ready(), keys.rows.iter().copied().max());
                // The panel sampler carries each W₁ update on a layer-2
                // unit ready at that bit, so no bit up to the last ready
                // one may be empty.
                let last = sched.last_ready().unwrap_or(0);
                assert!(
                    (1..=last).all(|i| !sched.ready_at(i).is_empty()),
                    "n={n} layer {l}"
                );
            }
        }
        assert!(negative_zeros > 0, "no masked negative entry: vacuous");
    }

    #[test]
    fn masks_are_binary() {
        let deg = hidden_degrees(7, 15);
        for m in [
            MaskKeys::input(7, &deg).mask(),
            MaskKeys::output(7, &deg).mask(),
        ] {
            assert!(m.as_slice().iter().all(|&v| v == 0.0 || v == 1.0));
        }
    }
}
