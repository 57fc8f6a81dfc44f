//! The MADE autoregressive neural quantum state (paper §2.3 / §5.1),
//! generalised to a composable stack of masked layers.
//!
//! Architecture (depth `D ≥ 1` hidden layers; the paper's ansatz is
//! `D = 1`):
//!
//! ```text
//! Input ──[bs,n]──> MaskedFC₁ ──[bs,h₁]──> ReLU
//!       ──[bs,h₁]─> MaskedFC₂ ──[bs,h₂]──> ReLU ── … ──
//!       ──[bs,h_D]─> MaskedFCout ──[bs,n]──> Sigmoid ──> conditionals
//! ```
//!
//! The sigmoid outputs are the conditionals `pᵢ = p(xᵢ = 1 | x_{<i})`;
//! the model distribution is `πθ(x) = Πᵢ pᵢ^{xᵢ}(1−pᵢ)^{1−xᵢ}` and the
//! wavefunction is its square root, `logψθ(x) = ½ log πθ(x)` —
//! legitimate for ground states of Hamiltonians with non-positive
//! off-diagonals, which are entrywise non-negative (Perron–Frobenius,
//! paper §2.1).
//!
//! ## Parameter layout (flattened)
//!
//! Per layer `[W_l (out·in, row-major) | b_l (out)]`, layers in order —
//! at depth 1 exactly the historical
//! `[W₁ (h·n) | b₁ (h) | W₂ (n·h) | b₂ (n)]`, total `d = 2hn + h + n`
//! (the gradient-vector length quoted in the paper's §4).
//!
//! ## Mask invariant
//!
//! Masked weight entries are identically zero for the lifetime of the
//! model: they are zero-initialised, every gradient is masked, and
//! [`Made::set_params`] re-applies the masks defensively.  Each layer
//! holds its mask as keys ([`LayerMask`]), and masking multiplies by
//! the 0/1 entry they give ([`MaskKeys::apply`]), so a masked entry is
//! a signed zero and no dense mask matrix is stored.  The layer masks
//! compose (strict input/output rule, non-strict interior rule —
//! see [`crate::masks`]) so the autoregressive property is structural
//! at any depth, not statistical; `tests` property-check it by
//! perturbing suffix bits.

use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use vqmc_tensor::{ops, Matrix, SpinBatch, Vector, Workspace};

use crate::layers::{self, LayerView, MadeView};
use crate::masks::{self, LayerMask, MaskKeys};
use crate::{init, Autoregressive, WaveFunction};

/// Hard cap on stack size (hidden layers + output layer).  Lets the
/// workspace use fixed inline storage so pool checkout stays
/// allocation-free at any depth; 8 hidden layers is far beyond the
/// regime where this ansatz family is competitive.
pub const MAX_LAYERS: usize = 9;

/// One masked affine layer `y = x Wᵀ + b` with a structural mask
/// (`W ⊙ M = W` always).  The activation between layers is ReLU; the
/// final layer's outputs are the conditional logits.
#[derive(Clone, Serialize, Deserialize)]
pub struct MaskedLinear {
    w: Matrix,
    b: Vector,
    /// The mask, as keys.  A function of the shape:
    /// [`Made::with_hidden`] builds it.
    #[serde(skip)]
    mask: LayerMask,
}

impl MaskedLinear {
    /// Masked weights (`out × in`, row-major).
    pub fn w(&self) -> &Matrix {
        &self.w
    }

    /// Bias (`out`).
    pub fn b(&self) -> &Vector {
        &self.b
    }

    /// The mask: its keys and live structure (see [`LayerMask`]).
    pub fn layer_mask(&self) -> &LayerMask {
        &self.mask
    }

    /// Output width.
    pub fn out_dim(&self) -> usize {
        self.w.rows()
    }

    /// Input width.
    pub fn in_dim(&self) -> usize {
        self.w.cols()
    }
}

/// Masked autoencoder wavefunction: a stack of [`MaskedLinear`] layers
/// with ReLU between them.
#[derive(Clone, Serialize, Deserialize)]
pub struct Made {
    n: usize,
    hidden: Vec<usize>,
    layers: Vec<MaskedLinear>,
    /// Bumped on every [`Made::set_params`].  Lets callers that cache
    /// derived quantities (e.g. the incremental sampler's `W₁ᵀ` or the
    /// per-layer f32 weight caches) detect staleness without holding a
    /// borrow of the model.
    #[serde(default)]
    version: u64,
}

/// Named scratch buffers for MADE forward and backward passes.
///
/// Holding one of these across calls makes every `_with` method on
/// [`Made`] allocation-free at steady state: all activations, gradient
/// accumulators and per-sample scratch rows live here and are `resize`d
/// in place (capacity is kept, so after the first call on a given batch
/// shape no heap traffic occurs).  Per-layer buffers sit in fixed
/// `[_; MAX_LAYERS]` arrays — unused slots are empty and never touch
/// the heap — so checkout stays zero-alloc at every depth.
///
/// A `MadeWorkspace` can also be checked out of a generic
/// [`Workspace`] pool ([`MadeWorkspace::from_pool`]) and returned to it
/// ([`MadeWorkspace::into_pool`]); because the pool is LIFO and the
/// checkout order is fixed for a given stack shape, each slot gets the
/// same backing buffer every iteration.
#[derive(Default)]
pub struct MadeWorkspace {
    /// Network input (the batch as `f64` 0/1 rows).
    pub x: Matrix,
    /// Layers this workspace is currently shaped for.
    num_layers: usize,
    /// Pre-activations per layer; `z[num_layers-1]` is the output
    /// logits.
    z: [Matrix; MAX_LAYERS],
    /// ReLU activations per hidden layer (`h[l] = relu(z[l])`,
    /// `l < num_layers - 1`).
    h: [Matrix; MAX_LAYERS],
    /// Backprop: `δ` per layer (`bs × out_l`).
    delta: [Matrix; MAX_LAYERS],
    /// Weight-gradient accumulators (`out_l × in_l`).
    dw: [Matrix; MAX_LAYERS],
    /// Bias-gradient accumulators (`out_l`).
    db: [Vector; MAX_LAYERS],
    /// Per-sample `δ` scratch rows (length `out_l`).
    delta_rows: [Vec<f64>; MAX_LAYERS],
}

impl MadeWorkspace {
    /// A fresh workspace with empty buffers (they grow on first use).
    pub fn new() -> Self {
        MadeWorkspace::default()
    }

    /// Output logits of the last [`Made::forward_with`] (`bs × n`).
    fn logits(&self) -> &Matrix {
        &self.z[self.num_layers - 1]
    }

    fn ensure_layers(&mut self, num_layers: usize) {
        assert!(
            (1..=MAX_LAYERS).contains(&num_layers),
            "MadeWorkspace: {num_layers} layers exceeds MAX_LAYERS"
        );
        self.num_layers = num_layers;
    }

    /// Checks the workspace's buffers out of a shared pool for a stack
    /// of `num_layers` layers.  Pair with [`MadeWorkspace::into_pool`];
    /// the fixed LIFO checkout order means each slot reuses the same
    /// pool buffer every iteration.
    pub fn from_pool(ws: &mut Workspace, num_layers: usize) -> Self {
        // `take(0)` hands back a parked buffer with its capacity intact;
        // the zero-shape matrix/vector wrappers are then grown in place
        // by the first `_into` kernel that writes them.  Checkout order:
        // x, z[..], h[..], delta[..], dw[..], db[..], delta_rows[..].
        let mut out = MadeWorkspace::default();
        out.ensure_layers(num_layers);
        out.x = Matrix::from_vec(0, 0, ws.take(0));
        for slot in out.z.iter_mut().take(num_layers) {
            *slot = Matrix::from_vec(0, 0, ws.take(0));
        }
        for slot in out.h.iter_mut().take(num_layers - 1) {
            *slot = Matrix::from_vec(0, 0, ws.take(0));
        }
        for slot in out.delta.iter_mut().take(num_layers) {
            *slot = Matrix::from_vec(0, 0, ws.take(0));
        }
        for slot in out.dw.iter_mut().take(num_layers) {
            *slot = Matrix::from_vec(0, 0, ws.take(0));
        }
        for slot in out.db.iter_mut().take(num_layers) {
            *slot = Vector(ws.take(0));
        }
        for slot in out.delta_rows.iter_mut().take(num_layers) {
            *slot = ws.take(0);
        }
        out
    }

    /// Returns every buffer to the pool, in reverse checkout order so
    /// the next [`MadeWorkspace::from_pool`] (same stack shape) sees
    /// them in the same positions (LIFO discipline).
    pub fn into_pool(mut self, ws: &mut Workspace) {
        let ll = self.num_layers;
        for l in (0..ll).rev() {
            ws.give(std::mem::take(&mut self.delta_rows[l]));
        }
        for l in (0..ll).rev() {
            ws.give_vector(std::mem::take(&mut self.db[l]));
        }
        for l in (0..ll).rev() {
            ws.give_matrix(std::mem::take(&mut self.dw[l]));
        }
        for l in (0..ll).rev() {
            ws.give_matrix(std::mem::take(&mut self.delta[l]));
        }
        for l in (0..ll.saturating_sub(1)).rev() {
            ws.give_matrix(std::mem::take(&mut self.h[l]));
        }
        for l in (0..ll).rev() {
            ws.give_matrix(std::mem::take(&mut self.z[l]));
        }
        ws.give_matrix(self.x);
    }

    /// Number of pool buffers a checkout for `num_layers` layers uses
    /// (tests assert the pool parks exactly this many).
    pub fn pool_buffers(num_layers: usize) -> usize {
        1 + 5 * num_layers + (num_layers - 1)
    }
}

impl Made {
    /// Creates a depth-1 MADE with `n` spins and `h` hidden units,
    /// parameters initialised from `seed` (Xavier weights,
    /// PyTorch-style biases), masks applied.  Bit-identical to the
    /// historical two-matrix constructor.
    pub fn new(n: usize, h: usize, seed: u64) -> Self {
        Made::with_hidden(n, &[h], seed)
    }

    /// Creates a MADE with `n` spins and one hidden layer per entry of
    /// `hidden`, parameters initialised from `seed`.  The RNG draw
    /// order is fixed per layer (Xavier weights, then bias), so
    /// `with_hidden(n, &[h], seed)` reproduces `new(n, h, seed)`
    /// exactly.
    pub fn with_hidden(n: usize, hidden: &[usize], seed: u64) -> Self {
        assert!(
            n >= 1 && !hidden.is_empty() && hidden.iter().all(|&h| h >= 1),
            "Made: degenerate shape"
        );
        assert!(
            hidden.len() < MAX_LAYERS,
            "Made: {} hidden layers exceeds the {} supported",
            hidden.len(),
            MAX_LAYERS - 1
        );
        let mut rng = StdRng::seed_from_u64(seed);
        let degrees: Vec<Vec<usize>> = hidden
            .iter()
            .map(|&h| masks::hidden_degrees(n, h))
            .collect();
        let mut layers = Vec::with_capacity(hidden.len() + 1);
        let mut in_dim = n;
        for l in 0..=hidden.len() {
            let keys = match l {
                0 => MaskKeys::input(n, &degrees[0]),
                l if l < hidden.len() => MaskKeys::hidden(&degrees[l - 1], &degrees[l]),
                _ => MaskKeys::output(n, &degrees[l - 1]),
            };
            let out_dim = keys.rows.len();
            let mut w = init::xavier_uniform(out_dim, in_dim, &mut rng);
            keys.apply(w.as_mut_slice());
            let b = init::linear_bias(in_dim, out_dim, &mut rng);
            let mask = LayerMask::new(keys, n);
            layers.push(MaskedLinear { w, b, mask });
            in_dim = out_dim;
        }
        Made {
            n,
            hidden: hidden.to_vec(),
            layers,
            version: 0,
        }
    }

    /// Monotone counter bumped by every [`Made::set_params`].  Callers
    /// caching quantities derived from the parameters (the incremental
    /// AUTO sampler caches `W₁ᵀ`, the serve engine caches f32 weights)
    /// compare this against their cached value to decide whether to
    /// recompute.
    pub fn params_version(&self) -> u64 {
        self.version
    }

    /// First hidden layer's width (the panel width of the fused
    /// sampling kernel).
    pub fn hidden_size(&self) -> usize {
        self.hidden[0]
    }

    /// All hidden-layer widths, input to output.
    pub fn hidden_sizes(&self) -> &[usize] {
        &self.hidden
    }

    /// Number of hidden layers.
    pub fn depth(&self) -> usize {
        self.hidden.len()
    }

    /// The full layer stack (`depth() + 1` masked layers).
    pub fn layers(&self) -> &[MaskedLinear] {
        &self.layers
    }

    /// Masked first-layer weights (`h₁ × n`).
    pub fn w1(&self) -> &Matrix {
        &self.layers[0].w
    }

    /// First-layer bias (`h₁`).
    pub fn b1(&self) -> &Vector {
        &self.layers[0].b
    }

    /// Masked output-layer weights (`n × h_D`).
    pub fn w2(&self) -> &Matrix {
        &self.layers[self.layers.len() - 1].w
    }

    /// Output-layer bias (`n`).
    pub fn b2(&self) -> &Vector {
        &self.layers[self.layers.len() - 1].b
    }

    /// The model's weights as a [`MadeView`], borrowed from its own
    /// layers (no `W₁ᵀ`).
    pub fn view(&self) -> MadeView<'_, f64> {
        let layers = self.layers.iter().map(|l| LayerView {
            w: l.w.as_slice(),
            b: l.b.as_slice(),
            out_dim: l.out_dim(),
            in_dim: l.in_dim(),
            mask: &l.mask,
        });
        MadeView::new(layers)
    }

    /// Forward pass into `ws` (fills `ws.x`, the per-layer
    /// pre-activations and ReLU activations; allocation-free once `ws`
    /// is warm).
    pub fn forward_with(&self, batch: &SpinBatch, ws: &mut MadeWorkspace) {
        ws.ensure_layers(self.layers.len());
        let MadeWorkspace { x, z, h, .. } = ws;
        layers::forward(&self.view(), batch, x, z, h);
    }

    /// Output logits `aᵢ` (pre-sigmoid conditionals) for a batch — the
    /// numerically safe representation for log-probabilities.
    pub fn logits(&self, batch: &SpinBatch) -> Matrix {
        let mut ws = MadeWorkspace::new();
        self.forward_with(batch, &mut ws);
        let ll = self.layers.len();
        std::mem::take(&mut ws.z[ll - 1])
    }

    /// [`WaveFunction::log_psi`] with caller-owned scratch and output:
    /// the one `logψ` body of [`crate::layers`] at `f64` (it overwrites
    /// the logits in `ws` with the per-bit log-probabilities).
    pub fn log_psi_with(&self, batch: &SpinBatch, ws: &mut MadeWorkspace, out: &mut Vector) {
        ws.ensure_layers(self.layers.len());
        let MadeWorkspace { x, z, h, .. } = ws;
        layers::log_psi_into(&self.view(), batch, x, z, h, out);
    }

    /// [`Autoregressive::conditionals`] with caller-owned scratch and
    /// output.
    pub fn conditionals_with(&self, batch: &SpinBatch, ws: &mut MadeWorkspace, out: &mut Matrix) {
        self.forward_with(batch, ws);
        out.copy_from(ws.logits());
        ops::sigmoid_slice(out.as_mut_slice());
    }

    /// [`WaveFunction::weighted_log_psi_grad`] with caller-owned scratch
    /// and output.
    pub fn weighted_log_psi_grad_with(
        &self,
        batch: &SpinBatch,
        weights: &Vector,
        ws: &mut MadeWorkspace,
        out: &mut Vector,
    ) {
        assert_eq!(weights.len(), batch.batch_size());
        self.forward_with(batch, ws);
        self.backward_with(batch, weights, ws, out);
    }

    /// Shared backward pass over the activations left in `ws` by
    /// [`Made::forward_with`].
    ///
    /// `out_weights[s]` scales sample `s`'s contribution to `logψ`; `out`
    /// receives the flat vector `Σ_s out_weights[s] · ∇θ logψ(x_s)`.
    fn backward_with(
        &self,
        batch: &SpinBatch,
        out_weights: &Vector,
        ws: &mut MadeWorkspace,
        out: &mut Vector,
    ) {
        let bs = batch.batch_size();
        let ll = self.layers.len();
        let last = ll - 1;
        // Split the workspace into per-field borrows so reads of the
        // forward activations can overlap writes to the gradient buffers.
        let MadeWorkspace {
            x,
            z,
            h,
            delta,
            dw,
            db,
            ..
        } = ws;
        // δA[s,i] = w_s · ½ (xᵢ − σ(aᵢ))   (∂logψ/∂aᵢ = ½ ∂logπ/∂aᵢ).
        // One matrix-wide vectorised sigmoid over a copy of the logits,
        // then the cheap affine combine per row.
        delta[last].copy_from(&z[last]);
        ops::sigmoid_slice(delta[last].as_mut_slice());
        for s in 0..bs {
            let w = out_weights[s];
            let x_row = batch.sample(s);
            let out_row = delta[last].row_mut(s);
            for i in 0..self.n {
                out_row[i] = w * 0.5 * (x_row[i] as f64 - out_row[i]);
            }
        }
        // Walk the stack top-down: dW_l = δ_lᵀ act_l ⊙ M_l,
        // db_l = colsum δ_l, then δ_{l-1} = δ_l W_l ⊙ relu'(Z_{l-1}).
        for l in (0..ll).rev() {
            let act: &Matrix = if l == 0 { x } else { &h[l - 1] };
            delta[l].matmul_tn_into(act, &mut dw[l]);
            self.layers[l].mask.keys().apply(dw[l].as_mut_slice());
            column_sums_into(&delta[l], &mut db[l]);
            if l > 0 {
                let (lo, hi) = delta.split_at_mut(l);
                hi[0].matmul_nn_into(&self.layers[l].w, &mut lo[l - 1]);
                for (dz, &zv) in lo[l - 1].as_mut_slice().iter_mut().zip(z[l - 1].as_slice()) {
                    *dz *= ops::relu_prime(zv);
                }
            }
        }
        // Flatten `[dW_0 | db_0 | dW_1 | db_1 | …]` into `out`.
        out.0.clear();
        out.0.reserve(self.num_params());
        for (dw, db) in dw.iter().zip(db.iter()).take(ll) {
            out.0.extend_from_slice(dw.as_slice());
            out.0.extend_from_slice(db);
        }
    }

    /// [`WaveFunction::per_sample_grads`] with caller-owned scratch and
    /// output.
    pub fn per_sample_grads_with(
        &self,
        batch: &SpinBatch,
        ws: &mut MadeWorkspace,
        out: &mut Matrix,
    ) {
        let bs = batch.batch_size();
        let d = self.num_params();
        let ll = self.layers.len();
        let last = ll - 1;
        self.forward_with(batch, ws);
        out.resize(bs, d);
        out.fill(0.0);
        let MadeWorkspace {
            x,
            z,
            h,
            delta_rows,
            ..
        } = ws;
        for (row, layer) in delta_rows.iter_mut().zip(&self.layers) {
            row.resize(layer.out_dim(), 0.0);
        }
        // One-sample backward per row: exact but explicit.  The weight
        // structure (δᵀ·act outer products) is computed directly into
        // the row to avoid a temporary per-layer matrix per sample.
        for s in 0..bs {
            let x_row = batch.sample(s);
            // δ_out (length n): vectorised sigmoid on a copy of the
            // logit row, then the affine combine.
            let dr = &mut delta_rows[last];
            dr.copy_from_slice(z[last].row(s));
            ops::sigmoid_slice(dr);
            for i in 0..self.n {
                dr[i] = 0.5 * (x_row[i] as f64 - dr[i]);
            }
            // δ_{l-1} = (δ_l W_l) ⊙ relu'(z_{l-1}).
            for l in (1..ll).rev() {
                let (lo, hi) = delta_rows.split_at_mut(l);
                let src = &hi[0];
                let dst = &mut lo[l - 1];
                dst.fill(0.0);
                for (i, &dv) in src.iter().enumerate() {
                    if dv != 0.0 {
                        vqmc_tensor::vector::axpy(dst, dv, self.layers[l].w.row(i));
                    }
                }
                for (dz, &zv) in dst.iter_mut().zip(z[l - 1].row(s)) {
                    *dz *= ops::relu_prime(zv);
                }
            }
            let row = out.row_mut(s);
            let mut off = 0;
            for l in 0..ll {
                let layer = &self.layers[l];
                let (od, id) = (layer.out_dim(), layer.in_dim());
                let keys = layer.mask.keys();
                let dr = &delta_rows[l];
                // dW_l[i, k] = δ_i · act_k on live entries.  Layer 0's
                // act is the 0/1 input: its zeros are skipped, so they
                // stay +0 rather than δ · 0.
                let act = if l == 0 { x.row(s) } else { h[l - 1].row(s) };
                for (i, &dv) in dr.iter().enumerate() {
                    if dv != 0.0 {
                        let base = off + i * id;
                        for k in 0..id {
                            if keys.live(i, k) && (l > 0 || act[k] != 0.0) {
                                row[base + k] = dv * act[k];
                            }
                        }
                    }
                }
                off += od * id;
                row[off..off + od].copy_from_slice(dr);
                off += od;
            }
        }
    }
}

fn column_sums_into(m: &Matrix, out: &mut Vector) {
    out.resize(m.cols());
    out.fill(0.0);
    for row in m.rows_iter() {
        vqmc_tensor::vector::axpy(out, 1.0, row);
    }
}

impl WaveFunction for Made {
    fn num_spins(&self) -> usize {
        self.n
    }

    fn num_params(&self) -> usize {
        self.layers
            .iter()
            .map(|l| l.out_dim() * (l.in_dim() + 1))
            .sum()
    }

    fn log_psi(&self, batch: &SpinBatch) -> Vector {
        let mut ws = MadeWorkspace::new();
        let mut out = Vector::default();
        self.log_psi_with(batch, &mut ws, &mut out);
        out
    }

    fn weighted_log_psi_grad(&self, batch: &SpinBatch, weights: &Vector) -> Vector {
        let mut ws = MadeWorkspace::new();
        let mut out = Vector::default();
        self.weighted_log_psi_grad_with(batch, weights, &mut ws, &mut out);
        out
    }

    fn per_sample_grads(&self, batch: &SpinBatch) -> Matrix {
        let mut ws = MadeWorkspace::new();
        let mut out = Matrix::default();
        self.per_sample_grads_with(batch, &mut ws, &mut out);
        out
    }

    fn params(&self) -> Vector {
        let mut out = Vector::default();
        self.params_into(&mut out);
        out
    }

    fn set_params(&mut self, params: &Vector) {
        assert_eq!(params.len(), self.num_params(), "Made: param length");
        let mut rest = params.as_slice();
        // In place: the existing weight/bias buffers are overwritten, so
        // a training step performs no parameter-storage allocation.
        for layer in &mut self.layers {
            for dst in [layer.w.as_mut_slice(), layer.b.as_mut_slice()] {
                let (src, tail) = rest.split_at(dst.len());
                dst.copy_from_slice(src);
                rest = tail;
            }
            // Defensive: the mask invariant survives arbitrary inputs.
            layer.mask.keys().apply(layer.w.as_mut_slice());
        }
        self.version = self.version.wrapping_add(1);
    }

    fn log_psi_into(&self, batch: &SpinBatch, ws: &mut Workspace, out: &mut Vector) {
        let mut mws = MadeWorkspace::from_pool(ws, self.layers.len());
        self.log_psi_with(batch, &mut mws, out);
        mws.into_pool(ws);
    }

    fn weighted_log_psi_grad_into(
        &self,
        batch: &SpinBatch,
        weights: &Vector,
        ws: &mut Workspace,
        out: &mut Vector,
    ) {
        let mut mws = MadeWorkspace::from_pool(ws, self.layers.len());
        self.weighted_log_psi_grad_with(batch, weights, &mut mws, out);
        mws.into_pool(ws);
    }

    fn per_sample_grads_into(&self, batch: &SpinBatch, ws: &mut Workspace, out: &mut Matrix) {
        let mut mws = MadeWorkspace::from_pool(ws, self.layers.len());
        self.per_sample_grads_with(batch, &mut mws, out);
        mws.into_pool(ws);
    }

    fn params_into(&self, out: &mut Vector) {
        out.0.clear();
        out.0.reserve(self.num_params());
        for layer in &self.layers {
            out.0.extend_from_slice(layer.w.as_slice());
            out.0.extend_from_slice(&layer.b);
        }
    }
}

impl Autoregressive for Made {
    fn conditionals(&self, batch: &SpinBatch) -> Matrix {
        let mut ws = MadeWorkspace::new();
        let mut out = Matrix::default();
        self.conditionals_with(batch, &mut ws, &mut out);
        out
    }

    fn conditionals_into(&self, batch: &SpinBatch, ws: &mut Workspace, out: &mut Matrix) {
        let mut mws = MadeWorkspace::from_pool(ws, self.layers.len());
        self.conditionals_with(batch, &mut mws, out);
        mws.into_pool(ws);
    }
}

impl std::fmt::Debug for Made {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Made(n={}, hidden={:?}, d={})",
            self.n,
            self.hidden,
            self.num_params()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vqmc_tensor::batch::enumerate_configs;
    use vqmc_tensor::reduce::log_sum_exp;

    fn tiny() -> Made {
        Made::new(5, 9, 42)
    }

    /// The stack shapes the deep tests sweep: depths 1–3.
    fn stack_shapes() -> Vec<Vec<usize>> {
        vec![vec![9], vec![7, 5], vec![6, 5, 4]]
    }

    #[test]
    fn shapes_and_param_count() {
        let m = tiny();
        assert_eq!(m.num_spins(), 5);
        assert_eq!(m.num_params(), 2 * 9 * 5 + 9 + 5);
        assert_eq!(m.params().len(), m.num_params());
        assert_eq!(m.depth(), 1);
        assert_eq!(m.hidden_sizes(), &[9]);
    }

    #[test]
    fn with_hidden_single_layer_matches_new_exactly() {
        // `new` is now a thin wrapper; pin the RNG draw order so the
        // refactor cannot silently reshuffle initialisation.
        let a = Made::new(7, 11, 123);
        let b = Made::with_hidden(7, &[11], 123);
        assert_eq!(a.params().as_slice(), b.params().as_slice());
    }

    #[test]
    fn deep_param_count() {
        let m = Made::with_hidden(5, &[7, 5], 1);
        assert_eq!(m.num_params(), 7 * (5 + 1) + 5 * (7 + 1) + 5 * (5 + 1));
        assert_eq!(m.depth(), 2);
        assert_eq!(m.layers().len(), 3);
    }

    #[test]
    fn distribution_is_exactly_normalised() {
        // Σ_x π(x) = 1 — THE property that makes AUTO sampling exact.
        for n in 1..=10 {
            let m = Made::new(n, 2 * n + 3, 7 + n as u64);
            let all = enumerate_configs(n);
            let log_probs = m.log_prob(&all);
            let total = log_sum_exp(&log_probs);
            assert!(
                total.abs() < 1e-10,
                "n={n}: Σπ = exp({total}) deviates from 1"
            );
        }
    }

    #[test]
    fn deep_distribution_is_exactly_normalised() {
        for hidden in stack_shapes() {
            for n in 1..=8 {
                let m = Made::with_hidden(n, &hidden, 31 + n as u64);
                let all = enumerate_configs(n);
                let total = log_sum_exp(&m.log_prob(&all));
                assert!(
                    total.abs() < 1e-10,
                    "n={n} hidden={hidden:?}: Σπ = exp({total}) deviates from 1"
                );
            }
        }
    }

    #[test]
    fn conditionals_ignore_suffix_bits() {
        // Autoregressive property: p(x_i|·) must not change when any bit
        // j >= i changes — at every depth.
        for hidden in stack_shapes() {
            let m = Made::with_hidden(5, &hidden, 42);
            let mut batch = SpinBatch::zeros(1, 5);
            batch.set(0, 0, 1);
            batch.set(0, 2, 1);
            let base = m.conditionals(&batch);
            for j in 0..5 {
                let mut perturbed = batch.clone();
                perturbed.flip(0, j);
                let cond = m.conditionals(&perturbed);
                for i in 0..=j {
                    assert!(
                        (cond.get(0, i) - base.get(0, i)).abs() < 1e-14,
                        "hidden={hidden:?}: conditional {i} changed when bit {j} flipped"
                    );
                }
            }
        }
    }

    #[test]
    fn log_psi_is_half_log_prob() {
        let m = tiny();
        let batch = enumerate_configs(5);
        let lp = m.log_psi(&batch);
        let lpr = m.log_prob(&batch);
        for s in 0..batch.batch_size() {
            assert!((2.0 * lp[s] - lpr[s]).abs() < 1e-14);
        }
    }

    #[test]
    fn params_round_trip_preserves_log_psi() {
        for hidden in stack_shapes() {
            let mut m = Made::with_hidden(5, &hidden, 42);
            let batch = enumerate_configs(5);
            let before = m.log_psi(&batch);
            let p = m.params();
            m.set_params(&p);
            let after = m.log_psi(&batch);
            for s in 0..batch.batch_size() {
                assert_eq!(before[s], after[s]);
            }
        }
    }

    #[test]
    fn set_params_enforces_masks() {
        for hidden in stack_shapes() {
            let mut m = Made::with_hidden(5, &hidden, 42);
            let mut p = m.params();
            // Poison every parameter, including masked slots.
            for v in p.iter_mut() {
                *v += 1.0;
            }
            m.set_params(&p);
            // Masked entries must still be zero — in every layer.
            for (l, layer) in m.layers().iter().enumerate() {
                for i in 0..layer.out_dim() {
                    for j in 0..layer.in_dim() {
                        if !layer.layer_mask().keys().live(i, j) {
                            assert_eq!(
                                layer.w().get(i, j),
                                0.0,
                                "hidden={hidden:?} layer {l}: masked ({i},{j}) nonzero"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn weighted_grad_matches_finite_difference() {
        let m = tiny();
        let batch = SpinBatch::from_fn(3, 5, |s, i| ((s + i) % 2) as u8);
        let weights = Vector(vec![1.0, -0.5, 2.0]);
        let analytic = m.weighted_log_psi_grad(&batch, &weights);

        let p0 = m.params();
        let f = |p: &[f64]| {
            let mut probe = m.clone();
            probe.set_params(&Vector(p.to_vec()));
            let lp = probe.log_psi(&batch);
            lp.iter().zip(weights.iter()).map(|(l, w)| l * w).sum()
        };
        // Masked coordinates receive no gradient from either method;
        // check_gradient covers every coordinate.
        vqmc_autodiff::check_gradient("made-weighted", &f, &p0, &analytic, 1e-5);
    }

    /// Rebuilds the stack's computation on the autodiff tape and
    /// returns the parameter gradient of `Σ_s w_s logψ(x_s)` in the
    /// `Made` flat layout.
    fn tape_weighted_grad(m: &Made, batch: &SpinBatch, weights: &Vector) -> Vec<f64> {
        use vqmc_autodiff::Tape;
        let mut tape = Tape::new();
        let x = tape.input(batch.to_matrix());
        let mut param_ids = Vec::new();
        let mut cur = x;
        for (l, layer) in m.layers().iter().enumerate() {
            let w = tape.input(layer.w().clone());
            let b = tape.input(Matrix::from_vec(1, layer.b().len(), layer.b().to_vec()));
            param_ids.push((w, b));
            // Masks as constants (so gradients arrive masked like
            // analytic).
            let wm = tape.mul_const(w, layer.layer_mask().keys().mask());
            if l > 0 {
                cur = tape.relu(cur);
            }
            let zz = tape.matmul_nt(cur, wm);
            cur = tape.add_row_bias(zz, b);
        }
        let logpi = tape.bernoulli_log_prob(cur, batch.to_matrix()); // bs×1
        let logpsi = tape.scale(logpi, 0.5);
        let weighted = tape.mul_const(
            logpsi,
            Matrix::from_vec(weights.len(), 1, weights.to_vec()),
        );
        let loss = tape.sum(weighted);
        let grads = tape.backward(loss);
        let mut tape_grad = Vec::new();
        for (w, b) in param_ids {
            tape_grad.extend_from_slice(grads.get(w).as_slice());
            tape_grad.extend_from_slice(grads.get(b).as_slice());
        }
        tape_grad
    }

    fn assert_close_rel(analytic: &[f64], oracle: &[f64], tag: &str) {
        assert_eq!(analytic.len(), oracle.len(), "{tag}: length");
        for (i, (a, t)) in analytic.iter().zip(oracle).enumerate() {
            let tol = 1e-10 * t.abs().max(1.0);
            assert!(
                (a - t).abs() <= tol,
                "{tag} param {i}: analytic {a} vs tape {t}"
            );
        }
    }

    #[test]
    fn weighted_grad_matches_autodiff_tape() {
        // The historical depth-1 oracle check, kept verbatim in spirit.
        let m = tiny();
        let batch = SpinBatch::from_fn(4, 5, |s, i| ((s * 3 + i * 2) % 2) as u8);
        let weights = Vector(vec![0.7, 1.3, -1.0, 0.25]);
        let analytic = m.weighted_log_psi_grad(&batch, &weights);
        let oracle = tape_weighted_grad(&m, &batch, &weights);
        assert_close_rel(analytic.as_slice(), &oracle, "depth-1");
    }

    #[test]
    fn deep_weighted_grad_matches_autodiff_tape() {
        // The tentpole oracle: hand-derived backprop through the stack
        // vs the tape, ≤1e-10 relative, at depths 1–3, several seeds
        // and batch patterns.
        for hidden in stack_shapes() {
            for seed in [3u64, 17, 91] {
                let m = Made::with_hidden(6, &hidden, seed);
                let bs = 5;
                let batch = SpinBatch::from_fn(bs, 6, |s, i| {
                    (((s + 1) * (i + 2) + seed as usize) % 2) as u8
                });
                let weights =
                    Vector::from_fn(bs, |s| 0.4 * s as f64 - 0.7 + 0.1 * seed as f64);
                let analytic = m.weighted_log_psi_grad(&batch, &weights);
                let oracle = tape_weighted_grad(&m, &batch, &weights);
                assert_close_rel(
                    analytic.as_slice(),
                    &oracle,
                    &format!("hidden={hidden:?} seed={seed}"),
                );
            }
        }
    }

    #[test]
    fn deep_per_sample_grads_match_autodiff_tape() {
        // Each per-sample row must equal the tape gradient with a
        // one-hot weight on that sample.
        for hidden in stack_shapes() {
            let m = Made::with_hidden(6, &hidden, 5);
            let bs = 3;
            let batch =
                SpinBatch::from_fn(bs, 6, |s, i| (((s * 5) + i * 3) % 2) as u8);
            let rows = m.per_sample_grads(&batch);
            for s in 0..bs {
                let onehot = Vector::from_fn(bs, |q| if q == s { 1.0 } else { 0.0 });
                let oracle = tape_weighted_grad(&m, &batch, &onehot);
                assert_close_rel(
                    rows.row(s),
                    &oracle,
                    &format!("hidden={hidden:?} sample {s}"),
                );
            }
        }
    }

    #[test]
    fn per_sample_grads_sum_to_weighted_grad() {
        for hidden in stack_shapes() {
            let m = Made::with_hidden(5, &hidden, 42);
            let batch = SpinBatch::from_fn(6, 5, |s, i| ((s + 2 * i) % 2) as u8);
            let rows = m.per_sample_grads(&batch);
            assert_eq!(rows.shape(), (6, m.num_params()));
            let weights = Vector(vec![0.3, -1.0, 0.5, 2.0, 1.0, -0.25]);
            let weighted = m.weighted_log_psi_grad(&batch, &weights);
            // Σ_s w_s · row_s must equal the one-pass weighted gradient.
            let mut acc = Vector::zeros(m.num_params());
            for s in 0..6 {
                vqmc_tensor::vector::axpy(&mut acc, weights[s], rows.row(s));
            }
            for k in 0..m.num_params() {
                assert!(
                    (acc[k] - weighted[k]).abs() < 1e-10,
                    "hidden={hidden:?} param {k}: {} vs {}",
                    acc[k],
                    weighted[k]
                );
            }
        }
    }

    #[test]
    fn workspace_paths_are_bit_identical_to_allocating() {
        // One reused MadeWorkspace across calls and batch shapes must
        // reproduce the allocating entry points exactly (the `_with`
        // paths ARE the implementation; this pins the wrapper plumbing)
        // — including when the same workspace is reused across models
        // of different depth.
        for hidden in stack_shapes() {
            let m = Made::with_hidden(5, &hidden, 42);
            let mut ws = MadeWorkspace::new();
            let mut lp = Vector::default();
            let mut cond = Matrix::default();
            let mut grad = Vector::default();
            let mut rows = Matrix::default();
            for bs in [1usize, 3, 8, 2] {
                let batch = SpinBatch::from_fn(bs, 5, |s, i| ((s * 7 + i * 3) % 2) as u8);
                let weights = Vector::from_fn(bs, |s| 0.25 * s as f64 - 0.5);

                m.log_psi_with(&batch, &mut ws, &mut lp);
                assert_eq!(lp.as_slice(), m.log_psi(&batch).as_slice());

                m.conditionals_with(&batch, &mut ws, &mut cond);
                assert_eq!(cond.as_slice(), m.conditionals(&batch).as_slice());

                m.weighted_log_psi_grad_with(&batch, &weights, &mut ws, &mut grad);
                assert_eq!(
                    grad.as_slice(),
                    m.weighted_log_psi_grad(&batch, &weights).as_slice()
                );

                m.per_sample_grads_with(&batch, &mut ws, &mut rows);
                assert_eq!(rows.as_slice(), m.per_sample_grads(&batch).as_slice());
            }
        }
    }

    #[test]
    fn pool_checkout_roundtrip_parks_all_buffers() {
        for hidden in stack_shapes() {
            let m = Made::with_hidden(5, &hidden, 42);
            let expected = MadeWorkspace::pool_buffers(m.layers().len());
            let batch = SpinBatch::from_fn(4, 5, |s, i| ((s + i) % 2) as u8);
            let mut pool = vqmc_tensor::Workspace::new();
            let mut out = Vector::default();
            m.log_psi_into(&batch, &mut pool, &mut out);
            assert_eq!(out.as_slice(), m.log_psi(&batch).as_slice());
            // Every MadeWorkspace buffer went back to the pool...
            assert_eq!(pool.parked(), expected, "hidden={hidden:?}");
            // ...and a second call reuses them without growing the pool.
            m.log_psi_into(&batch, &mut pool, &mut out);
            assert_eq!(pool.parked(), expected, "hidden={hidden:?}");
        }
    }

    #[test]
    fn depth1_pool_footprint_unchanged() {
        // The historical depth-1 workspace used exactly 12 pool
        // buffers; the stack refactor must not change that.
        assert_eq!(MadeWorkspace::pool_buffers(2), 12);
    }

    #[test]
    fn set_params_bumps_version() {
        let mut m = tiny();
        let v0 = m.params_version();
        let p = m.params();
        m.set_params(&p);
        assert_eq!(m.params_version(), v0 + 1);
        m.set_params(&p);
        assert_eq!(m.params_version(), v0 + 2);
    }

    #[test]
    fn params_into_matches_params() {
        for hidden in stack_shapes() {
            let m = Made::with_hidden(5, &hidden, 42);
            let mut out = Vector::default();
            m.params_into(&mut out);
            assert_eq!(out.as_slice(), m.params().as_slice());
        }
    }

    #[test]
    fn single_spin_model_learns_its_bias() {
        // n = 1: π(x₁=1) = σ(b₂); logψ([1]) = ½ logσ(b₂) — and the
        // output layer is fully masked at any depth, so this holds for
        // deep stacks too.
        for hidden in stack_shapes() {
            let m = Made::with_hidden(1, &hidden, 5);
            let batch = SpinBatch::from_single(&[1]);
            let lp = m.log_psi(&batch);
            let expected = 0.5 * ops::log_sigmoid(m.b2()[0]);
            assert!((lp[0] - expected).abs() < 1e-12, "hidden={hidden:?}");
        }
    }
}
