//! The MADE layer stack written once over its element (DESIGN.md
//! §4.1.1): a borrowed weight view ([`MadeView`]), one forward body and
//! one `logψ` body over it, and the narrowed `f32` store ([`MadeF32`]).
//!
//! [`Made`] hands out a view of its own `f64` layers, [`MadeF32`] of
//! its `Vec<f32>`s; the batched sampler's panel pass reads the same
//! view.  What differs between precisions belongs to the element
//! ([`MadeElem`]), never to a setting.
//!
//! Where a batch's rows share leading bits with the row before them —
//! a local-energy batch's flip neighbours — the forward body copies
//! what those bits determine and recomputes the rest ([`Plan`]), with
//! the dense pass's bits.
//!
//! The `f32` arm is bound-checked against the `f64` model, never
//! bit-checked: `|logψ₃₂ − logψ₆₄| ≤ 1e-5·n` for parameters and inputs
//! in the trained range (this module's `*_tracks_f64_within_bound`
//! tests; the `O(h·ε₃₂)` GEMM rounding enters `n` log-sigmoid terms).
//! Within the `f32` arm, results are bit-identical across SIMD arms and
//! thread counts, as the kernel tables are.

use std::cell::Cell;
use std::ops::{Neg, Range};

use vqmc_tensor::gemm::{self, gemm_nt_f32, gemm_nt_slices};
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
    /// Whether [`MadeElem::gemm_nt`] gives each entry the same bits for
    /// any subset of rows of either operand (see
    /// [`gemm::nt_is_entrywise`]): the condition for reusing rows.
    fn gemm_entrywise() -> bool;
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
    fn gemm_entrywise() -> bool {
        gemm::nt_is_entrywise()
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
    fn gemm_entrywise() -> bool {
        true
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

/// Rows per window of the prefix-reusing pass: every layer runs over
/// one window before the next starts, so the window's activations stay
/// in L2 between the gathers, GEMMs, scatters and copies.
const REUSE_WINDOW: usize = 1024;

/// Groups per window: a row's copied keys are rounded down to a
/// multiple of `⌈n / REUSE_GROUPS⌉` (recomputing a unit it could copy
/// gives the same bits), so each layer runs a few GEMMs of many rows.
const REUSE_GROUPS: usize = 8;

thread_local! {
    /// The row plan's storage, kept per thread (like the GEMM's pack
    /// buffers) so a warm pass plans without allocating.
    static PLAN_BUF: Cell<Vec<usize>> = const { Cell::new(Vec::new()) };
}

/// Which rows of a batch reuse the row before them, and how much.
///
/// Row `r ≥ 1` shares `shared(r)` leading bits with row `r − 1`.  A
/// layer row (hidden unit or logit) with key `m` reads inputs `< m`
/// only, so every layer row with key `≤ shared(r)` has the same value
/// in both, and row `r` may copy it.  It copies the keys below
/// `keep(r)`, which is `min(shared(r) + 1, n)` rounded down to a
/// multiple of the group step (or `n`: an identical row copies all),
/// and recomputes the rest; a row that shares nothing copies nothing.
/// Rows go in windows of [`REUSE_WINDOW`] that share nothing (a
/// window's first row counts as sharing no bit), so the windows can
/// run on different workers.  Within a window, the rows
/// with one `keep` form a group: one GEMM of their gathered input rows
/// against the weight rows they recompute.
pub(crate) struct Plan {
    /// `[shared (bs) | keep (bs) | each window's rows by group (bs) |
    /// each window's group starts (n + 2 a window)]`.
    buf: Vec<usize>,
    bs: usize,
    n: usize,
    step: usize,
}

impl Plan {
    /// The plan for `batch`, or `None` when the copies would skip less
    /// than a quarter of the GEMM work: a batch of unrelated rows
    /// (serving, gradients) then costs one byte compare per row over
    /// the dense pass.
    fn new<E>(layers: &[LayerView<'_, E>], batch: &SpinBatch) -> Option<Plan> {
        let (bs, n) = (batch.batch_size(), batch.num_spins());
        if bs < 2 {
            return None;
        }
        let mut buf = PLAN_BUF.take();
        buf.clear();
        let rows = batch.as_bytes().chunks_exact(n);
        buf.push(0);
        buf.extend(
            rows.clone()
                .zip(rows.skip(1))
                .enumerate()
                .map(|(r, (a, b))| {
                    if (r + 1) % REUSE_WINDOW == 0 {
                        0
                    } else {
                        shared_prefix(a, b)
                    }
                }),
        );
        let step = n.div_ceil(REUSE_GROUPS);
        for r in 0..bs {
            let keep = match buf[r] + 1 {
                1 => 0,
                k if k >= n => n,
                k => k - k % step,
            };
            buf.push(keep);
        }
        let mut plan = Plan { buf, bs, n, step };
        let saved: usize = (1..bs)
            .map(|r| {
                let keep = plan.keep(r);
                let rows = layers.iter().map(|l| l.mask.ready_before(keep) * l.in_dim);
                rows.sum::<usize>()
            })
            .sum();
        let total: usize = layers.iter().map(|l| bs * l.out_dim * l.in_dim).sum();
        if 4 * saved < total {
            return None;
        }
        // Each window's rows by group: a counting sort over `keep`.
        let windows = bs.div_ceil(REUSE_WINDOW);
        plan.buf.resize(3 * bs + windows * (n + 2), 0);
        let (keeps, rest) = plan.buf[bs..].split_at_mut(bs);
        let (order, starts) = rest.split_at_mut(bs);
        for (i, start) in starts.chunks_exact_mut(n + 2).enumerate() {
            let window = i * REUSE_WINDOW..((i + 1) * REUSE_WINDOW).min(bs);
            for &g in &keeps[window.clone()] {
                start[g + 1] += 1;
            }
            start[0] = window.start;
            for g in 0..=n {
                start[g + 1] += start[g];
            }
            for r in window {
                let at = &mut start[keeps[r]];
                order[*at] = r;
                *at += 1;
            }
            // Each start now ends its group: shift back to starts.
            start.copy_within(0..=n, 1);
            start[0] = i * REUSE_WINDOW;
        }
        Some(plan)
    }

    /// Leading bits row `r` shares with row `r − 1` (0 for a window's
    /// first row).
    fn shared(&self, r: usize) -> usize {
        self.buf[r]
    }

    /// How many keys row `r` copies from row `r − 1`.
    fn keep(&self, r: usize) -> usize {
        self.buf[self.bs + r]
    }

    /// Every value `keep` can take: 0, the multiples of the step, `n`.
    fn groups(&self) -> impl Iterator<Item = usize> + '_ {
        (0..=self.n).filter(|&g| g % self.step == 0 || g == self.n)
    }

    /// The rows of `window` (the `i`-th) that copy `g` keys, ascending.
    fn group(&self, i: usize, g: usize) -> &[usize] {
        let start = &self.buf[3 * self.bs + i * (self.n + 2)..];
        &self.buf[2 * self.bs + start[g]..2 * self.bs + start[g + 1]]
    }
}

/// How many leading bytes `a` and `b` share, compared eight at a time.
fn shared_prefix(a: &[u8], b: &[u8]) -> usize {
    let words = a.chunks_exact(8).zip(b.chunks_exact(8));
    for (i, (x, y)) in words.enumerate() {
        let word = |w: &[u8]| u64::from_le_bytes(w.try_into().expect("eight bytes"));
        let diff = word(x) ^ word(y);
        if diff != 0 {
            return 8 * i + diff.trailing_zeros() as usize / 8;
        }
    }
    let done = a.len() / 8 * 8;
    done + a[done..]
        .iter()
        .zip(&b[done..])
        .take_while(|(x, y)| x == y)
        .count()
}

impl Drop for Plan {
    fn drop(&mut self) {
        PLAN_BUF.set(std::mem::take(&mut self.buf));
    }
}

/// Scratch of the prefix-reusing pass: a group's gathered input rows
/// and their product with a run of the weight rows they recompute.
/// The owners lend buffers a `logψ` pass leaves idle.
pub(crate) struct ReuseBufs<'a, E: MadeElem> {
    /// Gathered input rows (`≤ REUSE_WINDOW × in`).
    pub rows: &'a mut E::Buf,
    /// Their GEMM output (`≤ REUSE_WINDOW × out`).
    pub product: &'a mut E::Buf,
}

/// What a forward pass leaves in its buffers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Keep {
    /// The input rows and every layer's pre-activation and ReLU (the
    /// backward pass reads them all).
    All,
    /// The logits: a reusing pass then writes neither the input rows nor
    /// the hidden pre-activations, which `logψ` never reads.
    Logits,
}

/// The forward pass over `view`: the batch as 0/1 rows in `x`, each
/// layer's pre-activation (bias added) in `z` — the last is the
/// logits — and each hidden layer's ReLU in `h` (see [`Keep`]).
/// Allocation-free once the buffers are warm.  `done(plan, rows,
/// logits)` runs on the logits of each range of rows as it is final,
/// while they are still in cache (on the worker that made them).
///
/// Where rows share leading bits with the row before them (a local-
/// energy batch's flip neighbours, repeated samples), and the GEMM is
/// entrywise ([`MadeElem::gemm_entrywise`]), the pass follows a
/// [`Plan`]: each layer row reading only shared bits is copied from the
/// row before, the rest recomputed by gathered GEMMs.  Every recomputed
/// entry is the same FMA chain the dense GEMM runs, so the output is
/// the dense pass's, bit for bit.  Rows go in windows of
/// [`REUSE_WINDOW`], every layer over one window before the next, the
/// windows striped over the pool (their GEMMs then run inline).
#[allow(clippy::too_many_arguments)]
pub(crate) fn forward<E: MadeElem>(
    view: &MadeView<'_, E>,
    batch: &SpinBatch,
    x: &mut E::Buf,
    z: &mut [E::Buf],
    h: &mut [E::Buf],
    bufs: ReuseBufs<'_, E>,
    keep: Keep,
    done: impl Fn(Option<&Plan>, Range<usize>, &mut [E]) + Sync,
) {
    let (layers, n, bs) = (view.layers(), view.num_spins(), batch.batch_size());
    assert_eq!(batch.num_spins(), n, "Made: spin-count mismatch");
    assert!(
        !layers[0].w.is_empty(),
        "MADE weights without forward weights"
    );
    let last = layers.len() - 1;
    let plan = E::gemm_entrywise()
        .then(|| Plan::new(layers, batch))
        .flatten();
    let Some(plan) = plan else {
        return dense(layers, batch, x, z, h, done);
    };
    let fill_x = keep == Keep::All;
    if fill_x {
        fill_input::<E>(batch, x);
    }
    // Each worker's scratch at its largest, whatever the groups come to
    // (they depend on the data; a warm pass must not allocate).
    let windows = bs.div_ceil(REUSE_WINDOW);
    let parts = par::active_threads().min(windows);
    let win = bs.min(REUSE_WINDOW);
    let (wide_in, wide_out) = layers
        .iter()
        .fold((0, 0), |(i, o), l| (i.max(l.in_dim), o.max(l.out_dim)));
    let ReuseBufs { rows, product } = bufs;
    let rows = par::SendPtr(E::shape(rows, parts * win, wide_in).as_mut_ptr());
    let product = par::SendPtr(E::shape(product, parts * win, wide_out).as_mut_ptr());
    // Every layer buffer, by base pointer: each window touches its own
    // rows only.
    let mut zs = [const { None }; MAX_LAYERS];
    let mut hs = [const { None }; MAX_LAYERS];
    for (l, layer) in layers.iter().enumerate() {
        let od = layer.out_dim;
        if l == last || keep == Keep::All {
            zs[l] = Some(par::SendPtr(E::shape(&mut z[l], bs, od).as_mut_ptr()));
        }
        if l < last {
            hs[l] = Some(par::SendPtr(E::shape(&mut h[l], bs, od).as_mut_ptr()));
        }
    }
    let (x, plan) = (E::elems(x), &plan);
    par::run(parts, &|w| {
        // SAFETY (every `rows_of` below): worker `w` alone touches its
        // scratch rows `w·win..(w + 1)·win` and its windows' rows of each
        // layer buffer, which were shaped above to hold them; a window
        // reads nothing outside itself, and the region joins before any
        // buffer's borrow ends.
        let rows = unsafe { rows_of(&rows, w * win..(w + 1) * win, wide_in) };
        let product = unsafe { rows_of(&product, w * win..(w + 1) * win, wide_out) };
        for i in par::stripe(windows, parts, w) {
            let window = i * REUSE_WINDOW..((i + 1) * REUSE_WINDOW).min(bs);
            let block = |buf: &Option<par::SendPtr<E>>, width| {
                let buf = buf.as_ref()?;
                Some(unsafe { rows_of(buf, window.clone(), width) })
            };
            for (l, layer) in layers.iter().enumerate() {
                let (k, od, at) = (layer.in_dim, layer.out_dim, window.start * layer.in_dim);
                let src = match l {
                    0 if !fill_x => Source::Bits(&batch.as_bytes()[at..at + window.len() * k]),
                    0 => Source::Rows(&x[at..at + window.len() * k]),
                    _ => Source::Rows(block(&hs[l - 1], k).expect("a hidden layer")),
                };
                let out = LayerOut {
                    z: block(&zs[l], od),
                    h: block(&hs[l], od),
                    fresh: l == last && keep == Keep::Logits,
                };
                reuse_layer(plan, (i, window.clone()), layer, src, out, rows, product);
            }
            done(
                Some(plan),
                window.clone(),
                block(&zs[last], n).expect("the logits"),
            );
        }
    });
}

/// Rows `range` of the row-major, `width`-wide buffer at `base`.
///
/// # Safety
///
/// `base` must point into a live buffer of at least `range.end · width`
/// elements, and nothing else may touch those rows while the slice
/// lives.
unsafe fn rows_of<'a, E>(base: &par::SendPtr<E>, range: Range<usize>, width: usize) -> &'a mut [E] {
    std::slice::from_raw_parts_mut(base.get().add(range.start * width), range.len() * width)
}

/// The dense pass: one GEMM per layer over the whole batch.
fn dense<E: MadeElem>(
    layers: &[LayerView<'_, E>],
    batch: &SpinBatch,
    x: &mut E::Buf,
    z: &mut [E::Buf],
    h: &mut [E::Buf],
    done: impl Fn(Option<&Plan>, Range<usize>, &mut [E]),
) {
    let (bs, last) = (batch.batch_size(), layers.len() - 1);
    fill_input::<E>(batch, x);
    for (l, layer) in layers.iter().enumerate() {
        let od = layer.out_dim;
        let (below, rest) = h.split_at_mut(l);
        let src = E::elems(if l == 0 { x } else { &below[l - 1] });
        let zl = E::shape(&mut z[l], bs, od);
        E::gemm_nt(bs, od, layer.in_dim, src, layer.w, zl);
        let hl = (l < last).then(|| E::shape(&mut rest[0], bs, od));
        finish_rows(layer.b, zl, hl);
    }
    done(
        None,
        0..bs,
        E::shape(&mut z[last], bs, layers[last].out_dim),
    );
}

/// The batch as 0/1 element rows in `x`.
fn fill_input<E: MadeElem>(batch: &SpinBatch, x: &mut E::Buf) {
    let (bs, n) = (batch.batch_size(), batch.num_spins());
    for (v, &bit) in E::shape(x, bs, n).iter_mut().zip(batch.as_bytes()) {
        *v = E::from(bit);
    }
}

/// The maximal runs of consecutive `keys` that satisfy `pred`.
fn runs<'a>(
    keys: &'a [usize],
    pred: impl Fn(usize) -> bool + 'a,
) -> impl Iterator<Item = Range<usize>> + 'a {
    let mut u = 0;
    std::iter::from_fn(move || {
        let start = u + keys[u..].iter().position(|&k| pred(k))?;
        let len = keys[start..].iter().position(|&k| !pred(k));
        u = start + len.unwrap_or(keys.len() - start);
        Some(start..u)
    })
}

/// The ReLU, as a select (`ops::relu`), so it stays branch-free.
fn relu<E: MadeElem>(v: E) -> E {
    let zero = E::default();
    if v > zero {
        v
    } else {
        zero
    }
}

/// Adds the bias to every row of `zl` and, for a hidden layer, writes
/// the ReLU into `hl`, in one pass.
fn finish_rows<E: MadeElem>(b: &[E], zl: &mut [E], hl: Option<&mut [E]>) {
    let od = b.len();
    match hl {
        None => {
            for row in zl.chunks_exact_mut(od) {
                for (v, &b) in row.iter_mut().zip(b) {
                    *v += b;
                }
            }
        }
        Some(hl) => {
            for (zr, hr) in zl.chunks_exact_mut(od).zip(hl.chunks_exact_mut(od)) {
                for ((zv, hv), &b) in zr.iter_mut().zip(hr).zip(b) {
                    *zv += b;
                    *hv = relu(*zv);
                }
            }
        }
    }
}

/// A layer's input rows over a window: the batch's bytes (layer 0,
/// when `x` is not kept) or element rows.
#[derive(Clone, Copy)]
enum Source<'a, E> {
    Bits(&'a [u8]),
    Rows(&'a [E]),
}

/// A layer's outputs over a window: the pre-activation (when kept)
/// and, for a hidden layer, the ReLU.  `fresh` marks the logits of a
/// `logψ` pass: it reads row `r`'s logits only from its first differing
/// bit on (`shared(r) ≥ keep(r) − 1`), so each row recomputes its
/// logits from `keep(r) − 1` on and copies none.
struct LayerOut<'a, E> {
    z: Option<&'a mut [E]>,
    h: Option<&'a mut [E]>,
    fresh: bool,
}

/// One layer of the prefix-reusing pass over one window (`src` and
/// `out` hold the window's rows): per group, its gathered rows times
/// each run of consecutive weight rows whose key it does not copy,
/// written into place with bias and ReLU; then the copies, in row
/// order, so row `r − 1` is final when row `r` reads it.  Keys ascend
/// on the output layer and on hidden layers with `h ≤ n − 1`, one run
/// each; wider hidden layers' degrees wrap, a run per wrap.
fn reuse_layer<E: MadeElem>(
    plan: &Plan,
    (i, window): (usize, Range<usize>),
    layer: &LayerView<'_, E>,
    src: Source<'_, E>,
    mut out: LayerOut<'_, E>,
    rows: &mut [E],
    product: &mut [E],
) {
    let (od, k, keys) = (layer.out_dim, layer.in_dim, &layer.mask.keys().rows[..]);
    let w0 = window.start;
    for g in plan.groups() {
        let from = g.saturating_sub(usize::from(out.fresh));
        if layer.mask.ready_before(from) == od {
            continue;
        }
        let group = plan.group(i, g);
        let m = group.len();
        if m == 0 {
            continue;
        }
        for (dst, &r) in rows.chunks_exact_mut(k).zip(group) {
            let at = (r - w0) * k..(r - w0 + 1) * k;
            match src {
                Source::Bits(bits) => {
                    for (v, &bit) in dst.iter_mut().zip(&bits[at]) {
                        *v = E::from(bit);
                    }
                }
                Source::Rows(src) => dst.copy_from_slice(&src[at]),
            }
        }
        for run in runs(keys, |key| key >= from) {
            let wide = run.len();
            let c = &mut product[..m * wide];
            E::gemm_nt(
                m,
                wide,
                k,
                &rows[..m * k],
                &layer.w[run.start * k..run.end * k],
                c,
            );
            let bias = &layer.b[run.clone()];
            for (cr, &r) in c.chunks_exact(wide).zip(group) {
                let at = (r - w0) * od + run.start..(r - w0) * od + run.end;
                match (out.z.as_deref_mut(), out.h.as_deref_mut()) {
                    (Some(zl), Some(hl)) => {
                        let (zr, hr) = (&mut zl[at.clone()], &mut hl[at]);
                        for (((zv, hv), &v), &b) in zr.iter_mut().zip(hr).zip(cr).zip(bias) {
                            *zv = v;
                            *zv += b;
                            *hv = relu(*zv);
                        }
                    }
                    (Some(zl), None) => {
                        for ((zv, &v), &b) in zl[at].iter_mut().zip(cr).zip(bias) {
                            *zv = v;
                            *zv += b;
                        }
                    }
                    (None, Some(hl)) => {
                        for ((hv, &v), &b) in hl[at].iter_mut().zip(cr).zip(bias) {
                            let mut zv = v;
                            zv += b;
                            *hv = relu(zv);
                        }
                    }
                    (None, None) => {}
                }
            }
        }
    }
    if out.fresh {
        return;
    }
    // The copied runs of the last `keep` seen (rows of one sample step
    // through a few values): up to `spans.len()` of them, else found
    // afresh per row.
    let (mut seen, mut spans, mut count) = (usize::MAX, [(0, 0); 8], 0);
    for r in w0 + 1..window.end {
        let keep = plan.keep(r);
        if keep != seen {
            seen = keep;
            count = 0;
            for run in runs(keys, |key| key < keep) {
                if count < spans.len() {
                    spans[count] = (run.start, run.end);
                }
                count += 1;
            }
        }
        let (cur, prev) = ((r - w0) * od, (r - 1 - w0) * od);
        for buf in [out.z.as_deref_mut(), out.h.as_deref_mut()]
            .into_iter()
            .flatten()
        {
            let mut copy =
                |(lo, hi): (usize, usize)| buf.copy_within(prev + lo..prev + hi, cur + lo);
            if count <= spans.len() {
                spans[..count].iter().for_each(|&span| copy(span));
            } else {
                runs(keys, |key| key < keep).for_each(|run| copy((run.start, run.end)));
            }
        }
    }
}

/// `logψ` over `view`: [`forward`], then `½·Σᵢ logσ(±aᵢ)` per sample
/// (`ln(1−σ(a)) = ln σ(−a)`): the logits in `z` are sign-flipped in
/// place where the bit is 0, the `log σ` slice kernel runs over them,
/// and each row takes the element's row sum.  Under a reuse [`Plan`]
/// a row's terms before its first differing bit are copied from the
/// row before instead (the kernel is elementwise, so they are its
/// bits).
pub(crate) fn log_psi_into<E: MadeElem>(
    view: &MadeView<'_, E>,
    batch: &SpinBatch,
    x: &mut E::Buf,
    z: &mut [E::Buf],
    h: &mut [E::Buf],
    bufs: ReuseBufs<'_, E>,
    out: &mut Vector,
) {
    let (n, bs) = (view.num_spins(), batch.batch_size());
    let sign = |row: &mut [E], bits: &[u8]| {
        for (a, &bit) in row.iter_mut().zip(bits) {
            *a = if bit == 1 { *a } else { -*a };
        }
    };
    let log_sigmoid = E::kernels().log_sigmoid_slice;
    out.resize(bs);
    let sums = par::SendPtr(out.as_mut_slice().as_mut_ptr());
    let done = |plan: Option<&Plan>, rows: Range<usize>, logits: &mut [E]| {
        let bits = &batch.as_bytes()[rows.start * n..rows.end * n];
        match plan {
            None => {
                sign(logits, bits);
                E::apply(logits, log_sigmoid);
            }
            Some(plan) => {
                for (i, r) in rows.clone().enumerate() {
                    let from = plan.shared(r);
                    if from > 0 {
                        logits.copy_within((i - 1) * n..(i - 1) * n + from, i * n);
                    }
                    let at = i * n + from..(i + 1) * n;
                    sign(&mut logits[at.clone()], &bits[at.clone()]);
                    log_sigmoid(&mut logits[at]);
                }
            }
        }
        // SAFETY: each call owns its rows of `out` (windows are
        // disjoint), and `forward` returns before `out`'s borrow ends.
        let out = unsafe { std::slice::from_raw_parts_mut(sums.get().add(rows.start), rows.len()) };
        for (o, row) in out.iter_mut().zip(logits.chunks_exact(n)) {
            *o = 0.5 * E::row_sum(row);
        }
    };
    forward(view, batch, x, z, h, bufs, Keep::Logits, done);
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
    /// The prefix-reusing pass's scratch ([`ReuseBufs`]).
    reuse: [Vec<f32>; 2],
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
        let MadeF32Workspace { x, z, h, reuse } = ws;
        let [rows, product] = reuse;
        log_psi_into(
            &self.view(),
            batch,
            x,
            z,
            h,
            ReuseBufs { rows, product },
            out,
        );
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

    /// Flip neighbours take the reuse plan, whose groups partition each
    /// window and never copy a key a row does not share; unrelated rows
    /// (a serving or gradient batch) and lone rows stay dense.  This is
    /// what keeps `tests/prefix_reuse.rs` from passing on the dense
    /// pass alone.
    #[test]
    fn plan_is_taken_for_flip_neighbours_only() {
        let n = 64;
        let made = Made::new(n, 86, 1);
        let view = made.view();
        let samples = SpinBatch::from_fn(40, n, |s, i| ((s * 13 + i * i * 7) % 5 < 2) as u8);
        let neighbours = SpinBatch::from_fn(40 * n, n, |r, i| {
            samples.sample(r / n)[i] ^ u8::from(r % n == i)
        });
        let plan = Plan::new(view.layers(), &neighbours).expect("neighbours share prefixes");
        for r in 0..neighbours.batch_size() {
            let keep = plan.keep(r);
            assert!(
                keep == 0 || keep <= plan.shared(r) + 1,
                "row {r} copies {keep}"
            );
            if r % n > 1 {
                assert_eq!(plan.shared(r), r % n - 1, "row {r}");
            }
        }
        let window = REUSE_WINDOW..2 * REUSE_WINDOW;
        let mut seen: Vec<usize> = plan
            .groups()
            .flat_map(|g| plan.group(1, g).to_vec())
            .collect();
        assert!(plan
            .groups()
            .all(|g| plan.group(1, g).iter().all(|&r| plan.keep(r) == g)));
        seen.sort_unstable();
        assert!(seen.into_iter().eq(window));
        let random =
            SpinBatch::from_fn(512, n, |s, i| ((s * 2654435761 + i * 40503) >> 7) as u8 & 1);
        assert!(Plan::new(view.layers(), &random).is_none());
        assert!(Plan::new(view.layers(), &SpinBatch::zeros(1, n)).is_none());
        assert!(Plan::new(view.layers(), &SpinBatch::zeros(4, n)).is_some());
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
