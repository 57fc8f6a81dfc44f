//! The MADE layer stack written once over its element (DESIGN.md
//! §4.1.1): a borrowed weight view ([`MadeView`]), one forward body and
//! one `logψ` body over it, and the narrowed `f32` store ([`MadeF32`]).
//!
//! [`Made`] hands out a view of its own `f64` layers, [`MadeF32`] of
//! its `Vec<f32>`s; the batched sampler's panel pass reads the same
//! view.  What differs between precisions belongs to the element
//! ([`MadeElem`]), never to a setting.
//!
//! The `f32` arm is bound-checked against the `f64` model, never
//! bit-checked: `|logψ₃₂ − logψ₆₄| ≤ 1e-5·n` for parameters and inputs
//! in the trained range (this module's `*_tracks_f64_within_bound`
//! tests; the `O(h·ε₃₂)` GEMM rounding enters `n` log-sigmoid terms).
//! Within the `f32` arm, results are bit-identical across SIMD arms and
//! thread counts, as the kernel tables are.

use std::ops::Neg;

use vqmc_tensor::gemm::{gemm_nt_f32, gemm_nt_slices};
use vqmc_tensor::simd::KernelElem;
use vqmc_tensor::{par, reduce, Matrix, SpinBatch, Vector};

use crate::masks::LayerMask;
use crate::{Made, MAX_LAYERS};

/// An element the MADE stack runs on: `f64` (training and reference)
/// or `f32` (inference).
pub trait MadeElem:
    KernelElem + Send + From<u8> + Into<f64> + PartialOrd + Neg<Output = Self>
{
    /// Activation buffer: `Matrix` for `f64` (the backward pass reads
    /// it), `Vec` for `f32`.
    type Buf: Default + Send;
    /// `buf` reshaped to `rows × cols`, contents unspecified.
    fn shape(buf: &mut Self::Buf, rows: usize, cols: usize) -> &mut [Self];
    /// The elements of `buf`.
    fn elems(buf: &Self::Buf) -> &[Self];
    /// `C[m,n] = A[m,k]·B[n,k]ᵀ`, `C` overwritten: pooled for `f64`,
    /// sequential for `f32` (serving parallelises across requests).
    fn gemm_nt(m: usize, n: usize, k: usize, a: &[Self], b: &[Self], c: &mut [Self]);
    /// The slice kernel `f` over `xs`: pooled for `f64`, one call for `f32`.
    fn apply(xs: &mut [Self], f: fn(&mut [Self]));
    /// A row's log-probability sum: pairwise for `f64`, flat for `f32`.
    fn row_sum(xs: &[Self]) -> f64;
}

impl MadeElem for f64 {
    type Buf = Matrix;
    fn shape(buf: &mut Matrix, rows: usize, cols: usize) -> &mut [f64] {
        buf.resize(rows, cols);
        buf.as_mut_slice()
    }
    fn elems(buf: &Matrix) -> &[f64] {
        buf.as_slice()
    }
    fn gemm_nt(m: usize, n: usize, k: usize, a: &[f64], b: &[f64], c: &mut [f64]) {
        gemm_nt_slices(m, n, k, a, b, c)
    }
    fn apply(xs: &mut [f64], f: fn(&mut [f64])) {
        par::par_apply(xs, f)
    }
    fn row_sum(xs: &[f64]) -> f64 {
        reduce::sum(xs)
    }
}

impl MadeElem for f32 {
    type Buf = Vec<f32>;
    fn shape(buf: &mut Vec<f32>, rows: usize, cols: usize) -> &mut [f32] {
        buf.resize(rows * cols, 0.0);
        buf
    }
    fn elems(buf: &Vec<f32>) -> &[f32] {
        buf
    }
    fn gemm_nt(m: usize, n: usize, k: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
        gemm_nt_f32(m, n, k, a, b, c)
    }
    fn apply(xs: &mut [f32], f: fn(&mut [f32])) {
        f(xs)
    }
    fn row_sum(xs: &[f32]) -> f64 {
        (f32::kernels().sum)(xs)
    }
}

/// One masked layer, borrowed: row-major `w` (`out_dim × in_dim`;
/// empty when the owner keeps only `W₁ᵀ`), bias `b`, and the layer's
/// mask.
#[derive(Clone, Copy, Debug)]
pub struct LayerView<'a, E> {
    /// Row-major weights.
    pub w: &'a [E],
    /// Bias.
    pub b: &'a [E],
    /// Output width.
    pub out_dim: usize,
    /// Input width.
    pub in_dim: usize,
    /// The mask (keys and the incremental sampler's schedule).
    pub mask: &'a LayerMask,
}

/// The mask of a view slot that holds no layer.
static NO_MASK: LayerMask = LayerMask::EMPTY;

impl<E> Default for LayerView<'_, E> {
    fn default() -> Self {
        LayerView {
            w: &[],
            b: &[],
            out_dim: 0,
            in_dim: 0,
            mask: &NO_MASK,
        }
    }
}

impl<'a, E> LayerView<'a, E> {
    /// Weight row `k`.
    pub fn row(&self, k: usize) -> &'a [E] {
        &self.w[k * self.in_dim..(k + 1) * self.in_dim]
    }
}

/// A MADE stack's weights borrowed from their owner: a [`LayerView`]
/// per masked layer, plus `W₁ᵀ` (`n × h₁`) when the owner keeps it.
#[derive(Clone, Copy, Debug)]
pub struct MadeView<'a, E> {
    layers: [LayerView<'a, E>; MAX_LAYERS],
    len: usize,
    w1t: Option<&'a [E]>,
}

impl<'a, E: Copy + Default> MadeView<'a, E> {
    /// A view over `layers`, input to output (at most [`MAX_LAYERS`]).
    pub fn new(layers: impl IntoIterator<Item = LayerView<'a, E>>) -> Self {
        let mut view = MadeView {
            layers: [LayerView::default(); MAX_LAYERS],
            len: 0,
            w1t: None,
        };
        for layer in layers {
            view.layers[view.len] = layer;
            view.len += 1;
        }
        view
    }

    /// This view with `w1t` as its `W₁ᵀ`.
    pub fn with_w1t(mut self, w1t: &'a [E]) -> Self {
        self.w1t = Some(w1t);
        self
    }

    /// The layers, input to output.
    pub fn layers(&self) -> &[LayerView<'a, E>] {
        &self.layers[..self.len]
    }

    /// Number of spins.
    pub fn num_spins(&self) -> usize {
        self.layers[0].in_dim
    }

    /// `W₁ᵀ` row `i` (column `i` of `W₁`) — the sampler's per-bit
    /// weights.  Panics if the owner keeps no `W₁ᵀ`.
    pub fn w1t_row(&self, i: usize) -> &'a [E] {
        let h = self.layers[0].out_dim;
        &self.w1t.expect("MADE weights without sampler weights")[i * h..(i + 1) * h]
    }
}

/// The forward pass over `view`: the batch as 0/1 rows in `x`, each
/// layer's pre-activation (bias added) in `z` — the last is the
/// logits — and each hidden layer's ReLU in `h`.  Allocation-free once
/// the buffers are warm.
pub(crate) fn forward<E: MadeElem>(
    view: &MadeView<'_, E>,
    batch: &SpinBatch,
    x: &mut E::Buf,
    z: &mut [E::Buf],
    h: &mut [E::Buf],
) {
    let (layers, n, bs) = (view.layers(), view.num_spins(), batch.batch_size());
    assert_eq!(batch.num_spins(), n, "Made: spin-count mismatch");
    assert!(
        !layers[0].w.is_empty(),
        "MADE weights without forward weights"
    );
    for (v, &bit) in E::shape(x, bs, n).iter_mut().zip(batch.as_bytes()) {
        *v = E::from(bit);
    }
    for (l, layer) in layers.iter().enumerate() {
        let (od, zero) = (layer.out_dim, E::default());
        let src = E::elems(if l == 0 { x } else { &h[l - 1] });
        let zl = E::shape(&mut z[l], bs, od);
        E::gemm_nt(bs, od, layer.in_dim, src, layer.w, zl);
        if l + 1 == layers.len() {
            for row in zl.chunks_exact_mut(od) {
                for (v, &b) in row.iter_mut().zip(layer.b) {
                    *v += b;
                }
            }
            break;
        }
        // Bias and ReLU in one pass; the ReLU is a select (`ops::relu`),
        // so it stays branch-free.
        let hl = E::shape(&mut h[l], bs, od);
        for (zr, hr) in zl.chunks_exact_mut(od).zip(hl.chunks_exact_mut(od)) {
            for ((zv, hv), &b) in zr.iter_mut().zip(hr).zip(layer.b) {
                *zv += b;
                *hv = if *zv > zero { *zv } else { zero };
            }
        }
    }
}

/// `logψ` over `view`: [`forward`], then `½·Σᵢ logσ(±aᵢ)` per sample
/// (`ln(1−σ(a)) = ln σ(−a)`): the logits in `z` are sign-flipped in
/// place where the bit is 0, one `log σ` slice kernel runs over them
/// all, and each row takes the element's row sum.
pub(crate) fn log_psi_into<E: MadeElem>(
    view: &MadeView<'_, E>,
    batch: &SpinBatch,
    x: &mut E::Buf,
    z: &mut [E::Buf],
    h: &mut [E::Buf],
    out: &mut Vector,
) {
    forward(view, batch, x, z, h);
    let (n, bs) = (view.num_spins(), batch.batch_size());
    let logits = E::shape(&mut z[view.layers().len() - 1], bs, n);
    for (a, &bit) in logits.iter_mut().zip(batch.as_bytes()) {
        *a = if bit == 1 { *a } else { -*a };
    }
    E::apply(logits, E::kernels().log_sigmoid_slice);
    out.resize(bs);
    for (o, row) in out.iter_mut().zip(logits.chunks_exact(n)) {
        *o = 0.5 * E::row_sum(row);
    }
}

/// One narrowed layer (`w` empty for layer 0 of a sampling copy).
struct LayerF32 {
    w: Vec<f32>,
    b: Vec<f32>,
    out_dim: usize,
    in_dim: usize,
    mask: LayerMask,
}

/// Single-precision inference copy of a [`Made`]: `f32` weights and
/// activations, `f64` reduction boundaries (per-sample log-probability
/// sums, sampler logits).  No gradients — the trainer stays `f64`; this
/// is the serving arm, layer for layer, at any depth.
///
/// Only the `W₁` layout its caller streams is kept (at `n = 65536,
/// h = 256` each is 67 MB): rows for the forward pass
/// ([`MadeF32::for_log_psi`]), `W₁ᵀ` for the incremental sampler
/// ([`MadeF32::for_sampling`]).  Deeper layers are rows either way.
pub struct MadeF32 {
    /// `W₁ᵀ` (`n×h₁`); empty unless built for sampling.
    w1t: Vec<f32>,
    layers: Vec<LayerF32>,
    /// The source model's `params_version()` at conversion.
    version: u64,
}

/// Scratch for [`MadeF32::log_psi_into`], resized in place: a warm
/// workspace makes the pass allocation-free.
#[derive(Default)]
pub struct MadeF32Workspace {
    x: Vec<f32>,
    z: [Vec<f32>; MAX_LAYERS],
    h: [Vec<f32>; MAX_LAYERS],
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
    /// The forward-pass (`log_psi` / local-energy) copy.
    pub fn for_log_psi(made: &Made) -> Self {
        Self::convert(made, true)
    }

    /// The incremental-sampler copy (`W₁ᵀ` instead of `W₁`).
    pub fn for_sampling(made: &Made) -> Self {
        Self::convert(made, false)
    }

    fn convert(made: &Made, rows: bool) -> Self {
        let view = made.view();
        let layers = view.layers().iter().enumerate();
        let layers = layers.map(|(l, layer)| LayerF32 {
            w: if rows || l > 0 {
                narrow(layer.w)
            } else {
                Vec::new()
            },
            b: narrow(layer.b),
            out_dim: layer.out_dim,
            in_dim: layer.in_dim,
            mask: layer.mask.clone(),
        });
        let mut w1t = Vec::new();
        if !rows {
            let h = made.hidden_size();
            w1t.resize(view.num_spins() * h, 0.0f32);
            for (j, w_row) in made.w1().rows_iter().enumerate() {
                for (i, &v) in w_row.iter().enumerate() {
                    w1t[i * h + j] = v as f32;
                }
            }
        }
        MadeF32 {
            w1t,
            layers: layers.collect(),
            version: made.params_version(),
        }
    }

    /// The narrowed weights as a [`MadeView`].
    pub fn view(&self) -> MadeView<'_, f32> {
        let view = MadeView::new(self.layers.iter().map(|l| LayerView {
            w: &l.w,
            b: &l.b,
            out_dim: l.out_dim,
            in_dim: l.in_dim,
            mask: &l.mask,
        }));
        if self.w1t.is_empty() {
            view
        } else {
            view.with_w1t(&self.w1t)
        }
    }

    /// The source model's `params_version()` at conversion.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// `logψ` for every sample (`f32` GEMMs, `f64` row sums).  Panics
    /// unless built [`MadeF32::for_log_psi`].
    pub fn log_psi_into(&self, batch: &SpinBatch, ws: &mut MadeF32Workspace, out: &mut Vector) {
        let MadeF32Workspace { x, z, h } = ws;
        log_psi_into(&self.view(), batch, x, z, h, out);
    }
}

impl std::fmt::Debug for MadeF32 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (n, ll) = (self.layers[0].in_dim, self.layers.len());
        write!(f, "MadeF32(n={n}, layers={ll}, v={})", self.version)
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
        for (n, h, seed) in [(6, 9, 17), (10, 24, 3), (33, 48, 8), (300, 64, 5)] {
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
            (300, vec![64, 32], 5),
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
            for (j, &v) in m32.view().w1t_row(i).iter().enumerate() {
                assert_eq!(v, made.w1().get(j, i) as f32);
            }
        }
    }

    /// Deeper-layer rows are stored in row layout on the sampling arm
    /// too, exactly the narrowed f64 rows.
    #[test]
    fn sampling_arm_keeps_deep_rows() {
        let made = Made::with_hidden(6, &[9, 7], 4);
        let m32 = MadeF32::for_sampling(&made);
        let view = m32.view();
        for (l, layer) in made.layers().iter().enumerate().skip(1) {
            for i in 0..layer.out_dim() {
                for (j, &v) in view.layers()[l].row(i).iter().enumerate() {
                    assert_eq!(v, layer.w().get(i, j) as f32, "layer {l} ({i},{j})");
                }
            }
        }
    }

    /// `Made`'s view borrows the model's own buffers: no copy.
    #[test]
    fn f64_view_borrows_the_model() {
        let made = Made::with_hidden(6, &[9, 7], 4);
        let view = made.view();
        assert!(view.w1t.is_none());
        for (v, layer) in view.layers().iter().zip(made.layers()) {
            assert!(std::ptr::eq(v.w, layer.w().as_slice()));
            assert!(std::ptr::eq(v.b, layer.b().as_slice()));
            assert_eq!((v.out_dim, v.in_dim), (layer.out_dim(), layer.in_dim()));
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
