//! The **f32 inference arm** of [`crate::Made`] (DESIGN.md §4.1.1).
//!
//! [`MadeF32`] is a read-only, single-precision copy of a trained MADE:
//! weights and activations are `f32` — half the bytes streamed through
//! the GEMMs and panels, twice the SIMD lanes — while every reduction
//! boundary (per-sample log-probability sums, sampler logits) is
//! accumulated in `f64` by the [`vqmc_tensor::simd::KernelsF32`] table.
//! It is *not* a [`crate::WaveFunction`]: it has no gradients, no
//! `set_params`, and exists only on the serving path (the trainer stays
//! f64 end-to-end).  The stack mirrors the source model layer for
//! layer, so deep checkpoints serve through the same arm.
//!
//! ## Correctness contract
//!
//! Bound-based against the f64 model, never bit-based: for parameters
//! and inputs in the trained range, `|logψ₃₂ − logψ₆₄| ≤ 1e-5·n`
//! (tested by this module's `log_psi_tracks_f64_within_bound` and
//! `deep_log_psi_tracks_f64_within_bound` — the bound is dominated by
//! the `O(h·ε₃₂)` GEMM rounding entering `n` log-sigmoid terms).
//! *Within* the f32 arm, results are bit-identical across SIMD arms and
//! thread counts, inherited from the kernel-table contracts.
//!
//! ## Selective weight storage
//!
//! The two consumers need different derived layouts of `W₁` — the
//! forward pass streams its rows (`h×n`), the incremental AUTO sampler
//! streams its columns (`W₁ᵀ`, `n×h`) — and at `n = 65536, h = 256`
//! each copy is 67 MB.  Constructors therefore build only the layout
//! their caller needs ([`MadeF32::for_log_psi`] /
//! [`MadeF32::for_sampling`]); the accessors panic if the wrong arm is
//! asked for.  Layers past the first are always stored in row layout —
//! both the forward GEMMs and the deep sampling panels stream their
//! rows.

use vqmc_tensor::gemm::gemm_nt_f32;
use vqmc_tensor::simd;
use vqmc_tensor::{SpinBatch, Vector};

use crate::Made;

/// One narrowed layer: row-major `f32` weights plus bias.
struct LayerF32 {
    /// Row-major weights (`out × in`).  Empty for layer 0 of a
    /// sampling-arm copy (the transposed `w1t` is stored instead).
    w: Vec<f32>,
    b: Vec<f32>,
    out_dim: usize,
    in_dim: usize,
}

/// Single-precision inference copy of a [`Made`] (see module docs).
pub struct MadeF32 {
    n: usize,
    /// `W₁ᵀ` rows (`n×h₁`) — incremental-sampler layout of layer 0.
    /// Empty if built [`MadeF32::for_log_psi`].
    w1t: Vec<f32>,
    layers: Vec<LayerF32>,
    /// The source model's `params_version()` at conversion time, so
    /// caches can detect staleness.
    version: u64,
}

/// Scratch buffers for [`MadeF32::log_psi_into`]; resized in place, so
/// a warm workspace makes the pass allocation-free.
#[derive(Default)]
pub struct MadeF32Workspace {
    /// Network input (`bs×n` as f32 0/1).
    x: Vec<f32>,
    /// Per-layer activations (`bs×out_l`); the last is the logits,
    /// sign-flipped and log-sigmoided in place.
    acts: Vec<Vec<f32>>,
}

impl MadeF32Workspace {
    /// A fresh workspace (buffers grow on first use).
    pub fn new() -> Self {
        Self::default()
    }
}

fn narrow(src: &[f64]) -> Vec<f32> {
    src.iter().map(|&v| v as f32).collect()
}

impl MadeF32 {
    /// Conversion carrying only the forward-pass (`log_psi` /
    /// local-energy) weights.
    pub fn for_log_psi(made: &Made) -> Self {
        Self::convert(made, true, false)
    }

    /// Conversion carrying only the incremental-sampler weights
    /// (`W₁ᵀ` instead of `W₁`; deeper layers in row layout either way).
    pub fn for_sampling(made: &Made) -> Self {
        Self::convert(made, false, true)
    }

    fn convert(made: &Made, rows: bool, cols: bool) -> Self {
        let (h, n) = (made.hidden_size(), made.w1().cols());
        let layers = made
            .layers()
            .iter()
            .enumerate()
            .map(|(l, layer)| LayerF32 {
                w: if rows || l > 0 {
                    narrow(layer.w().as_slice())
                } else {
                    Vec::new()
                },
                b: narrow(layer.b().as_slice()),
                out_dim: layer.out_dim(),
                in_dim: layer.in_dim(),
            })
            .collect();
        let w1t = if cols {
            let src = made.w1();
            let mut t = vec![0.0f32; n * h];
            for j in 0..h {
                let row = src.row(j);
                for (i, &v) in row.iter().enumerate() {
                    t[i * h + j] = v as f32;
                }
            }
            t
        } else {
            Vec::new()
        };
        MadeF32 {
            n,
            w1t,
            layers,
            version: made.params_version(),
        }
    }

    /// Number of spins.
    pub fn num_spins(&self) -> usize {
        self.n
    }

    /// First hidden layer's width (the sampler's panel width).
    pub fn hidden_size(&self) -> usize {
        self.layers[0].out_dim
    }

    /// Number of stacked layers (`depth + 1`).
    pub fn num_layers(&self) -> usize {
        self.layers.len()
    }

    /// The source model's `params_version()` at conversion time.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// `W₁ᵀ` row `i` (column `i` of `W₁`, length `h₁`) — the sampler's
    /// per-bit weight slice.  Panics unless built [`MadeF32::for_sampling`].
    pub fn w1t_row(&self, i: usize) -> &[f32] {
        assert!(!self.w1t.is_empty(), "MadeF32 built without sampler weights");
        let h = self.layers[0].out_dim;
        &self.w1t[i * h..(i + 1) * h]
    }

    /// First-layer bias (`h₁`).
    pub fn b1(&self) -> &[f32] {
        &self.layers[0].b
    }

    /// Output-layer weight row `i` (length `h_D`).
    pub fn w2_row(&self, i: usize) -> &[f32] {
        self.layer_w_row(self.layers.len() - 1, i)
    }

    /// Output-layer bias (`n`).
    pub fn b2(&self) -> &[f32] {
        &self.layers[self.layers.len() - 1].b
    }

    /// Weight row `i` of layer `l` (length `in_dim` of that layer).
    /// Layers past the first are stored in row layout on both arms.
    pub fn layer_w_row(&self, l: usize, i: usize) -> &[f32] {
        let layer = &self.layers[l];
        assert!(!layer.w.is_empty(), "MadeF32 built without forward weights");
        &layer.w[i * layer.in_dim..(i + 1) * layer.in_dim]
    }

    /// Bias of layer `l` (length `out_dim` of that layer).
    pub fn layer_b(&self, l: usize) -> &[f32] {
        &self.layers[l].b
    }

    /// `logψ` for every sample, through the f32 GEMM path with `f64`
    /// row sums: `X → Z₁ = XW₁ᵀ+b₁ → relu → … → A = H_D W₂ᵀ+b₂ →
    /// ½·Σᵢ logσ(±aᵢ)`.  Panics unless built [`MadeF32::for_log_psi`].
    pub fn log_psi_into(&self, batch: &SpinBatch, ws: &mut MadeF32Workspace, out: &mut Vector) {
        assert_eq!(batch.num_spins(), self.n, "MadeF32: spin-count mismatch");
        assert!(
            !self.layers[0].w.is_empty(),
            "MadeF32 built without forward weights"
        );
        let bs = batch.batch_size();
        let n = self.n;
        let ll = self.layers.len();
        let k32 = simd::kernels_f32();

        ws.x.clear();
        ws.x.resize(bs * n, 0.0);
        for s in 0..bs {
            let row = &mut ws.x[s * n..(s + 1) * n];
            for (dst, &bit) in row.iter_mut().zip(batch.sample(s)) {
                *dst = bit as f32;
            }
        }
        ws.acts.resize(ll, Vec::new());

        for l in 0..ll {
            let layer = &self.layers[l];
            let (od, id) = (layer.out_dim, layer.in_dim);
            // Split so the previous activation can be read while this
            // layer's output is written.
            let (prev_acts, rest) = ws.acts.split_at_mut(l);
            let dst = &mut rest[0];
            let src: &[f32] = if l == 0 { &ws.x } else { &prev_acts[l - 1] };
            dst.resize(bs * od, 0.0);
            gemm_nt_f32(bs, od, id, src, &layer.w, dst);
            if l < ll - 1 {
                // Hidden layer: bias + ReLU in one pass.
                for s in 0..bs {
                    let row = &mut dst[s * od..(s + 1) * od];
                    for (z, &b) in row.iter_mut().zip(&layer.b) {
                        let v = *z + b;
                        *z = if v > 0.0 { v } else { 0.0 };
                    }
                }
            } else {
                // Output layer: add b₂ and fold the bit into the sign
                // in one pass.
                for s in 0..bs {
                    let row = &mut dst[s * od..(s + 1) * od];
                    for ((a, &b), &bit) in row.iter_mut().zip(&layer.b).zip(batch.sample(s)) {
                        let v = *a + b;
                        *a = if bit == 1 { v } else { -v };
                    }
                }
            }
        }

        // One vectorised log-sigmoid over the whole logit matrix and
        // per-row f64 sums: logπ(x) = Σᵢ logσ(aᵢ if xᵢ=1 else −aᵢ),
        // logψ = ½ logπ.
        out.resize(bs);
        let logits = &mut ws.acts[ll - 1];
        (k32.log_sigmoid_slice)(&mut logits[..bs * n]);
        for s in 0..bs {
            out[s] = 0.5 * (k32.sum)(&logits[s * n..(s + 1) * n]);
        }
    }
}

impl std::fmt::Debug for MadeF32 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "MadeF32(n={}, layers={}, v={})",
            self.n,
            self.layers.len(),
            self.version
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vqmc_tensor::batch::enumerate_configs;
    use vqmc_tensor::reduce::log_sum_exp;

    use crate::MadeWorkspace;

    /// The documented serving bound: `|logψ₃₂ − logψ₆₄| ≤ 1e-5·n`.
    #[test]
    fn log_psi_tracks_f64_within_bound() {
        for (n, h, seed) in [(6, 9, 17), (10, 24, 3), (33, 48, 8)] {
            let made = Made::new(n, h, seed);
            check_bound(&made, n);
        }
    }

    /// The same bound holds layer-for-layer through deep stacks.
    #[test]
    fn deep_log_psi_tracks_f64_within_bound() {
        for (n, hidden, seed) in [
            (6usize, vec![9usize, 7], 17u64),
            (10, vec![24, 12], 3),
            (12, vec![16, 12, 8], 8),
        ] {
            let made = Made::with_hidden(n, &hidden, seed);
            check_bound(&made, n);
        }
    }

    fn check_bound(made: &Made, n: usize) {
        let m32 = MadeF32::for_log_psi(made);
        let batch = SpinBatch::from_fn(16, n, |s, i| ((s * 7 + i * 3) % 2) as u8);
        let mut ws64 = MadeWorkspace::new();
        let mut want = Vector::default();
        made.log_psi_with(&batch, &mut ws64, &mut want);
        let mut ws32 = MadeF32Workspace::new();
        let mut got = Vector::default();
        m32.log_psi_into(&batch, &mut ws32, &mut got);
        let bound = 1e-5 * n as f64;
        for s in 0..batch.batch_size() {
            assert!(
                (got[s] - want[s]).abs() <= bound,
                "n={n} sample {s}: {} vs {} (bound {bound})",
                got[s],
                want[s]
            );
        }
    }

    /// The f32 arm still represents a normalised distribution to within
    /// the rounding bound (Σ exp(2·logψ₃₂) ≈ 1).
    #[test]
    fn distribution_stays_normalised_within_bound() {
        let made = Made::new(8, 13, 5);
        let m32 = MadeF32::for_log_psi(&made);
        let all = enumerate_configs(8);
        let mut ws = MadeF32Workspace::new();
        let mut lp = Vector::default();
        m32.log_psi_into(&all, &mut ws, &mut lp);
        lp.scale(2.0);
        let total = log_sum_exp(&lp);
        assert!(total.abs() < 1e-4, "Σπ = exp({total})");
    }

    /// `w1t` rows are exactly the narrowed columns of `W₁`.
    #[test]
    fn sampler_layout_matches_transpose() {
        let made = Made::new(7, 11, 2);
        let m32 = MadeF32::for_sampling(&made);
        for i in 0..7 {
            let row = m32.w1t_row(i);
            for j in 0..11 {
                assert_eq!(row[j], made.w1().get(j, i) as f32);
            }
        }
    }

    /// Deeper-layer rows are stored in row layout on the sampling arm
    /// too, exactly the narrowed f64 rows.
    #[test]
    fn sampling_arm_keeps_deep_rows() {
        let made = Made::with_hidden(6, &[9, 7], 4);
        let m32 = MadeF32::for_sampling(&made);
        for (l, layer) in made.layers().iter().enumerate().skip(1) {
            for i in 0..layer.out_dim() {
                let row = m32.layer_w_row(l, i);
                for j in 0..layer.in_dim() {
                    assert_eq!(row[j], layer.w().get(i, j) as f32, "layer {l} ({i},{j})");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "without forward weights")]
    fn sampling_copy_rejects_log_psi() {
        let made = Made::new(4, 5, 1);
        let m32 = MadeF32::for_sampling(&made);
        let batch = SpinBatch::zeros(1, 4);
        m32.log_psi_into(&batch, &mut MadeF32Workspace::new(), &mut Vector::default());
    }
}
