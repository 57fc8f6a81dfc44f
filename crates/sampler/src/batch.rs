//! The unified batched sampling layer: **one** incremental AUTO engine
//! shared by the training hot path (`Trainer` / `DistributedTrainer`
//! via [`IncrementalAutoSampler`](crate::IncrementalAutoSampler)), the
//! serving engine (`vqmc-serve` coalesces concurrent client requests
//! into one pass here), and the CLI's `evaluate`/`sample` commands.
//!
//! ```text
//! Trainer ─────────┐
//! DistributedTrainer ├─▶ BatchedSampling ─▶ BatchSampler ─┬▶ MadeBatchSampler (row path or fused panel)
//! serve::Engine ───┤       (vqmc-nn)                      ├▶ NadeBatchSampler (native recursion)
//! CLI evaluate/sample ┘                                   └▶ McmcSampler      (RBM fallback)
//! ```
//!
//! Two call shapes, same arithmetic:
//!
//! * **coalesced requests** ([`BatchSampler::sample_requests`]) — every
//!   request's rows are drawn inside one combined pass, but from that
//!   request's *own* seeded RNG stream, so the result is bit-identical
//!   to sampling each request alone (property-tested);
//! * **single stream** ([`BatchSampler::sample_stream_into`]) — one
//!   caller-owned RNG drives the whole batch: the training path.  It is
//!   the one-request special case of the coalesced pass, so every
//!   kernel-level optimisation lands on training and serving at once.
//!
//! The MADE pass is driven by the mask structure
//! ([`LayerMask`](vqmc_nn::masks::LayerMask), built with the model):
//! each deep hidden unit is computed once per sample, at the bit its
//! inputs become final, and no reduction or update touches a weight
//! range its mask zeroes (see `panel_pass`).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use vqmc_nn::{
    BatchedSampling, Made, MadeElem, MadeF32, MadeView, Nade, Rbm, SamplingEngine, WaveFunction,
};
use vqmc_tensor::simd::KernelElem;
use vqmc_tensor::{ops, par, Matrix, Precision, SpinBatch, Vector};

use crate::{McmcSampler, SampleOutput, SampleStats};

/// A `Sample` request normalised for execution: callers (the serve
/// admission layer, tests) resolve seedless requests to a concrete seed
/// before reaching this layer, so execution is deterministic from here
/// on.
#[derive(Clone, Copy, Debug)]
pub struct SampleRequest {
    /// Number of configurations to draw.
    pub count: usize,
    /// RNG seed for this request's private stream.
    pub seed: u64,
}

/// Which activation layout the MADE sampler uses at depth 1.
///
/// `Auto` (the default) picks by combined row count; the forced
/// variants exist for the cross-layout bit-identity tests and the
/// before/after kernel benchmarks — both layouts compute the same
/// arithmetic in the same per-row accumulation order, so forcing is
/// observationally invisible apart from speed.  Deep stacks have only
/// the panel layout; there, and in the f32 arm at any depth, forcing
/// `Rows` means "run the f64 arithmetic" (see [`MadeBatchSampler`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum PanelLayout {
    /// Dispatch on the combined shape: cols at ≥ 8 rows, unless the
    /// transposed panel would overflow L2 (see `COLS_PANEL_CAP_BYTES`).
    #[default]
    Auto,
    /// Always the row-major path (the pre-unification training layout).
    Rows,
    /// Always the transposed fused-kernel panel path.
    Cols,
}

/// Below this combined row count the row path wins: the fused kernel
/// vectorises along the batch, so tiny batches would run scalar.
const COLS_THRESHOLD: usize = 8;

/// Above this transposed-panel footprint (`h · rows · 8` bytes **per
/// pool worker**) the cols path loses its edge: the fused kernel writes
/// the whole panel back every bit, and once a worker's panel outgrows
/// L2 that full writeback costs more than the row path's half-the-rows
/// `axpy` traffic.  Auto falls back to the row path there (forced
/// layouts are unaffected — both compute bit-identical results, so the
/// thread-count-dependent dispatch cannot change any output bit).
const COLS_PANEL_CAP_BYTES: usize = 512 * 1024;

/// Row-stripe granularity of the parallel cols path: stripes are
/// multiples of 8 rows so the fused kernel's widest (8-row) register
/// blocks stay saturated on every worker but the last.
const PAR_ROW_UNIT: usize = 8;

/// How many pool stripes the panel pass splits `rows` into, for a
/// layer-1 panel `width` units wide at `threads` workers.  The pass
/// forks once per bit, so it splits only when a bit's work — the
/// `rows × width` panel its `W₁` update streams — clears the pool's
/// elementwise floor ([`par::PAR_THRESHOLD_ELEMS`]): below it the
/// dispatch costs more than the bit (64 rows at `h₁ = 96`, n = 4096:
/// 73 ms a pass split over two workers, 12.7 ms on one).  The split
/// never moves a bit (see [`panel_pass`]).
fn panel_parts(rows: usize, width: usize, threads: usize) -> usize {
    if threads > 1 && rows * width >= par::PAR_THRESHOLD_ELEMS {
        threads.min(rows.div_ceil(PAR_ROW_UNIT))
    } else {
        1
    }
}

/// Bits per `log σ` chunk of the panel path (see [`DrawBufs::ls_buf`]).
const LS_CHUNK: usize = 512;

/// Which implementation a MADE pass runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum SamplerPath {
    /// Row-major activations, per-row `relu_dot` + `axpy` (depth 1, f64).
    Rows,
    /// The transposed panel pass on f64 panels.
    PanelF64,
    /// The transposed panel pass on f32 panels (f64 logits).
    PanelF32,
}

/// The MADE path choice — a pure function of the pass's shape, so the
/// dispatch can be pinned per workload without running it.
///
/// The f32 arm rides the panel *unconditionally* unless `Rows` is
/// forced.  The f64 Auto heuristics must not apply to it: the L2 panel
/// cap depends on the thread count and the small-batch threshold on the
/// *combined* row count, and in the f32 arm a layout flip changes
/// precision (the row path is f64), not just speed — which would break
/// bit-identity across thread counts and the coalesced≡solo invariant.
/// Forcing `Rows` under f32 means the f64 arithmetic instead
/// (documented fallback): the row path at depth 1, the f64 panel deeper.
/// Deep stacks have no row path.
fn choose_path(
    precision: Precision,
    depth: usize,
    layout: PanelLayout,
    rows: usize,
    h: usize,
    threads: usize,
) -> SamplerPath {
    if precision == Precision::F32 && layout != PanelLayout::Rows {
        return SamplerPath::PanelF32;
    }
    let cols = depth > 1
        || match layout {
            PanelLayout::Auto => {
                rows >= COLS_THRESHOLD && h * rows * 8 <= COLS_PANEL_CAP_BYTES * threads
            }
            PanelLayout::Rows => false,
            PanelLayout::Cols => true,
        };
    if cols {
        SamplerPath::PanelF64
    } else {
        SamplerPath::Rows
    }
}

/// The coalesced MADE sampler: the incremental AUTO pass, generalised
/// to draw each row-range of the combined batch from its own
/// request-seeded RNG — or the whole batch from one external stream
/// (the training path).
///
/// Invariant (property-tested): for every request `r`, rows
/// `[offset_r, offset_r + count_r)` of the output are bit-identical —
/// configurations *and* `logψ` — to a solo
/// `sample_stream(wf, count_r, StdRng::seed_from_u64(seed_r))`.
///
/// Two layouts, same arithmetic:
///
/// * **row path** — one `rows·h` row-major activation buffer, per-row
///   `relu_dot` + `axpy`, vectorised along `h`.  Depth 1, f64 only: it
///   runs below 8 combined rows and, under `Auto`, whenever the
///   transposed panel would outgrow `COLS_PANEL_CAP_BYTES` per pool
///   worker.  That includes large training batches at one thread (the
///   `n = 1024`, `h = 240`, 1024-row Max-Cut step's 1.97 MB panel), so
///   training does **not** always run the panel;
/// * **panel path** — a *transposed* `h·rows` panel per hidden layer
///   driven by the fused `sample_step_cols` kernel: the deferred `W₁`
///   column update and the next reduction happen in **one** memory pass
///   over the panel, vectorised along the batch, so the per-bit weight
///   rows are streamed once per *batch* instead of once per *row*.  One
///   generic body serves f64 and f32 panels at every depth; depth 1 is
///   the case with no hidden-to-hidden layers, and a deep unit is
///   reduced once per pass, at its ready bit.
///
/// Both paths read only the live part of each mask: a logit or deep
/// unit reduces its row's live prefix, and a drawn bit updates only the
/// units its `W₁` column reaches.
///
/// The kernel reproduces `relu_dot`'s per-row accumulation order
/// exactly (property-tested in `vqmc-tensor`), so both paths produce
/// bit-identical output and the solo-identity invariant holds
/// regardless of which one dispatched.  See `choose_path` for the
/// dispatch rule.
#[derive(Debug, Default)]
pub struct MadeBatchSampler {
    /// Layout override (tests / benchmarks only).
    layout: PanelLayout,
    /// Execution precision (DESIGN.md §4.1.1).  `F32` runs the panel
    /// path on the `Kernels<f32>` table — `f32` panels and weights, `f64`
    /// logit accumulation, so the RNG draw loop and `logπ` pipeline are
    /// *shared verbatim* with the f64 arm; NADE/RBM stay f64 (no f32
    /// twins — documented fallback).
    precision: Precision,
    /// Per-row hidden pre-activations (`rows · h`, row path).
    z1: Vec<f64>,
    /// f64 panel buffers.
    panel64: PanelBufs<f64>,
    /// f32 panel buffers.
    panel32: PanelBufs<f32>,
    /// Precision-independent per-row state.
    draw: DrawBufs,
    /// Per-request row counts (pooled mirror of the request list).
    counts: Vec<usize>,
    /// Cached `W₁ᵀ`, invalidated via [`Made::params_version`].
    w1_t: Matrix,
    cached_version: Option<u64>,
    /// Cached narrowed sampler weights (`W₁ᵀ`, deeper layers, biases as
    /// f32), invalidated via [`MadeF32::version`] against
    /// [`Made::params_version`].
    m32: Option<MadeF32>,
}

/// One element type's panel buffers.  Each is stripe-blocked: pool
/// stripe `w` owns the contiguous slice at its row offset `start`
/// (`h·start` for an `h`-wide panel, `[j·bw + local_s]` inside).
#[derive(Debug, Default)]
struct PanelBufs<T> {
    /// Layer-1 transposed pre-activation panel (`h₁ · rows`).
    z1t: Vec<T>,
    /// Panels of hidden layers `l ≥ 2`, layer-major (`Σ h_l · rows`;
    /// offsets are a pure function of the widths).  Zeroed at pass
    /// start; a unit's row is written once, at its ready bit, and read
    /// before then only through masked (zero) weights.
    zdeep: Vec<T>,
    /// Which rows drew the previous bit as 1 (`1`/`0`) — the deferred
    /// update mask for `sample_step_cols`.
    prev_mask: Vec<T>,
    /// Kernel accumulator stripes plus mask stash, honouring the
    /// kernel's scratch contract per stripe (`KernelElem::STEP_SCRATCH · rows`).
    scratch: Vec<T>,
}

/// Precision-independent per-row state of a MADE pass.
#[derive(Debug, Default)]
struct DrawBufs {
    /// Per-request RNG streams (rebuilt each coalesced call; capacity
    /// reused).
    rngs: Vec<StdRng>,
    /// Pre-drawn uniform variates for one bit (`rows`, panel path),
    /// drawn sequentially before the parallel region consumes them.
    u_buf: Vec<f64>,
    /// Per-row accumulated `log π`.
    log_prob: Vec<f64>,
    /// Per-row logits of the current output bit.
    logits: Vec<f64>,
    /// `σ(logits)` scratch.
    probs: Vec<f64>,
    /// Drawn bits in transposed `n · rows` layout (panel path): stored
    /// sequentially per bit instead of striding across the row-major
    /// output, then transposed in one tiled pass at the end.
    bits_t: Vec<u8>,
    /// Sign-flipped logits for a chunk of bits (panel path): `log σ` is
    /// applied to `LS_CHUNK·rows` elements at a time so the
    /// transcendental kernel runs at vector-friendly slice lengths
    /// instead of once per bit.  Elementwise results and the ascending
    /// bit-order accumulation into `log_prob` are unchanged, so this
    /// stays bit-identical to the per-bit path.
    ls_buf: Vec<f64>,
}

impl MadeBatchSampler {
    /// A fresh sampler (scratch buffers grow on first use).
    pub fn new() -> Self {
        MadeBatchSampler::default()
    }

    /// Overrides the layout dispatch (cross-layout identity tests and
    /// before/after benchmarks).  Only depth-1 f64 passes have a
    /// layout choice; elsewhere `Rows` only selects the f64 arithmetic
    /// and `Cols` is the default (see [`PanelLayout`]).
    pub fn force_layout(&mut self, layout: PanelLayout) {
        self.layout = layout;
    }

    /// Selects the execution precision for subsequent passes.  `F32`
    /// runs the panel path on f32 panels (see the `precision` field
    /// docs); results within the f32 arm remain bit-identical across
    /// SIMD arms, thread counts and coalescing, but are only
    /// *bound*-close to the f64 arm.
    pub fn set_precision(&mut self, precision: Precision) {
        self.precision = precision;
    }

    /// Draws every request inside one combined incremental pass, each
    /// request's rows from its own seeded RNG stream.
    pub fn sample_coalesced(
        &mut self,
        wf: &Made,
        reqs: &[SampleRequest],
        out_batch: &mut SpinBatch,
        out_log_psi: &mut Vector,
    ) {
        self.draw.rngs.clear();
        let mut counts = std::mem::take(&mut self.counts);
        counts.clear();
        for req in reqs {
            self.draw.rngs.push(StdRng::seed_from_u64(req.seed));
            counts.push(req.count);
        }
        self.sample_core(wf, &counts, None, out_batch, out_log_psi);
        self.counts = counts;
    }

    /// Draws one batch from a caller-owned RNG stream — the training
    /// path (`IncrementalAutoSampler` is a thin wrapper over this).
    pub fn sample_stream(
        &mut self,
        wf: &Made,
        count: usize,
        rng: &mut StdRng,
        out_batch: &mut SpinBatch,
        out_log_psi: &mut Vector,
    ) {
        self.sample_core(wf, &[count], Some(rng), out_batch, out_log_psi);
    }

    /// The shared pass.  `counts[q]` rows are drawn for stream `q`; the
    /// RNG of a stream is `external` when given (single caller-owned
    /// stream), else `draw.rngs[q]` (seeded per request).  The draw
    /// order within a stream is always bit-major then
    /// row-within-stream, so a stream sees the exact variate sequence
    /// it would see alone.
    fn sample_core(
        &mut self,
        wf: &Made,
        counts: &[usize],
        external: Option<&mut StdRng>,
        out_batch: &mut SpinBatch,
        out_log_psi: &mut Vector,
    ) {
        let rows: usize = counts.iter().sum();
        out_batch.resize(rows, wf.num_spins());
        out_batch.fill(0);
        let draw = &mut self.draw;
        draw.log_prob.clear();
        draw.log_prob.resize(rows, 0.0);
        draw.logits.resize(rows, 0.0);
        draw.probs.resize(rows, 0.0);

        let path = choose_path(
            self.precision,
            wf.depth(),
            self.layout,
            rows,
            wf.hidden_size(),
            par::active_threads(),
        );
        if path == SamplerPath::PanelF32 {
            if self.m32.as_ref().map(|m| m.version()) != Some(wf.params_version()) {
                self.m32 = Some(MadeF32::for_sampling(wf));
            }
            let m32 = self.m32.as_ref().expect("f32 weights cached above");
            panel_pass(
                &m32.view(),
                &mut self.panel32,
                draw,
                counts,
                external,
                out_batch,
            );
        } else {
            if self.cached_version != Some(wf.params_version()) {
                wf.w1().transpose_into(&mut self.w1_t);
                self.cached_version = Some(wf.params_version());
            }
            if path == SamplerPath::PanelF64 {
                panel_pass(
                    &wf.view().with_w1t(self.w1_t.as_slice()),
                    &mut self.panel64,
                    draw,
                    counts,
                    external,
                    out_batch,
                );
            } else {
                self.row_pass(wf, counts, external, out_batch);
            }
        }
        out_log_psi.resize(rows);
        for (o, &lp) in out_log_psi.iter_mut().zip(&self.draw.log_prob) {
            *o = 0.5 * lp;
        }
    }

    /// The depth-1 f64 row path: `z1[s]` starts at `b1` and absorbs
    /// `W₁`'s column `i` when bit `i` is drawn 1 — only from the
    /// column's first unmasked unit on.  Logit `i` reads only its row's
    /// live prefix ([`live_prefix`]).
    fn row_pass(
        &mut self,
        wf: &Made,
        counts: &[usize],
        mut external: Option<&mut StdRng>,
        out_batch: &mut SpinBatch,
    ) {
        let n = wf.num_spins();
        let h = wf.hidden_size();
        let rows: usize = counts.iter().sum();
        let (b1, w2, b2) = (wf.b1(), wf.w2(), wf.b2());
        let (mask1, mask2) = (wf.layers()[0].layer_mask(), wf.layers()[1].layer_mask());
        let relu_dot = vqmc_tensor::simd::kernels().relu_dot;
        let draw = &mut self.draw;
        self.z1.clear();
        self.z1.reserve(rows * h);
        for _ in 0..rows {
            self.z1.extend_from_slice(b1);
        }
        for i in 0..n {
            let w2_row = &w2.row(i)[..live_prefix::<f64>(mask2.live_end(i), h)];
            let first = mask1.col_start(i);
            let w1_col = &self.w1_t.row(i)[first..];
            for s in 0..rows {
                let z_row = &self.z1[s * h..s * h + w2_row.len()];
                draw.logits[s] = b2[i] + relu_dot(w2_row, z_row);
            }
            draw.probs.copy_from_slice(&draw.logits);
            ops::sigmoid_slice(&mut draw.probs);
            // Draw order per stream matches the panel path exactly:
            // bit-major, then row-within-stream.
            let mut s = 0;
            for (q, &count) in counts.iter().enumerate() {
                let rng: &mut StdRng = match external.as_deref_mut() {
                    Some(r) => r,
                    None => &mut draw.rngs[q],
                };
                for _ in 0..count {
                    let p = draw.probs[s];
                    debug_assert!((0.0..=1.0).contains(&p), "conditional out of range");
                    if rng.gen::<f64>() < p {
                        out_batch.set(s, i, 1);
                        let z_live = &mut self.z1[s * h + first..(s + 1) * h];
                        vqmc_tensor::vector::axpy(z_live, 1.0, w1_col);
                    } else {
                        draw.logits[s] = -draw.logits[s];
                    }
                    s += 1;
                }
            }
            ops::log_sigmoid_slice(&mut draw.logits);
            vqmc_tensor::vector::axpy(&mut draw.log_prob, 1.0, &draw.logits);
        }
    }
}

/// A panel element: where a deep hidden unit's `f64` kernel results
/// land in its panel row.
trait PanelElem: MadeElem {
    /// Runs `f`, which writes the unit's `f64` results, for panel row
    /// `row`: in place for `f64`, through `stage` narrowed for `f32`.
    fn unit(row: &mut [Self], stage: &mut [f64], f: impl FnOnce(&mut [f64]));
}

impl PanelElem for f64 {
    fn unit(row: &mut [f64], _stage: &mut [f64], f: impl FnOnce(&mut [f64])) {
        f(row)
    }
}

impl PanelElem for f32 {
    fn unit(row: &mut [f32], stage: &mut [f64], f: impl FnOnce(&mut [f64])) {
        f(stage);
        for (dst, &v) in row.iter_mut().zip(&*stage) {
            *dst = v as f32;
        }
    }
}

/// How much of a weight row a reduction without an update reads: the
/// live prefix `[0, live)` rounded up to whole stripes, or the whole
/// row once that reaches the sequential tail block.  Every skipped
/// term is a masked weight (an exact ±0) times a finite activation,
/// which would leave its `+0`-started stripe accumulator bit-exact, and
/// every kept term stays in its stripe and position
/// ([`KernelElem::STRIPES`]) — so the logit's bits do not move.
fn live_prefix<E: KernelElem>(live: usize, len: usize) -> usize {
    let cut = live.next_multiple_of(E::STRIPES);
    if cut <= len - len % E::STRIPES {
        cut
    } else {
        len
    }
}

/// The panel pass — one body for f64 and f32 panels at every depth,
/// over the weights of a [`MadeView`] (the model's own layers plus the
/// cached `W₁ᵀ`, or the narrowed f32 copy), driven by the layers'
/// [`LayerMask`](vqmc_nn::masks::LayerMask)s.
///
/// Per bit `i`, each pool stripe runs one fused `sample_step_cols` call
/// per hidden unit of layers `2…D` whose *ready bit* is `i` (each a
/// `bias + Σⱼ w[j]·relu(panel[j])` reduction over the previous layer's
/// panel), then one for output logit `i` over the last panel.  A deep
/// unit of degree `m` reads only inputs `< m`, so it is final from bit
/// `m` on, and nothing reads it earlier: each is computed **once** per
/// sample and stays in its panel.  Then `σ`, the draw against the
/// pre-drawn variates, and the deferred-update mask for bit `i+1`.
///
/// Bit `i−1`'s deferred `W₁`-column update rides the first call that
/// reads the layer-1 panel (a ready unit of layer 2, or at depth 1 the
/// output logit), which runs over the whole row.  It is dropped when
/// the column is fully masked, and at depth ≥ 2 after layer 2's last
/// ready bit, when the layer-1 panel is never read again.  Every other
/// call reads only its row's live prefix ([`live_prefix`]).  The
/// skipped terms are products of a masked weight — an exact ±0, which
/// `Made::set_params` re-masks on every write — and a finite panel
/// entry: `zdeep` is zeroed at pass start, so a unit not yet computed
/// reads as `0`.  A skipped update leaves a ±0 difference in the panel,
/// which the ReLU select erases.  No output bit moves.
///
/// Parallelism: the batch is split into at most one contiguous,
/// 8-row-aligned stripe per pool worker (a pure function of `(rows,
/// parts)` — no stealing).  Each stripe owns its own contiguous panels
/// plus its slices of every per-row buffer, so the fused kernel simply
/// sees a narrower panel.  Per-row results are independent of the panel
/// width (the kernel reproduces the row path's per-row accumulation
/// order at any width — property-tested), and the RNG variates are
/// pre-drawn sequentially, so output is **bit-identical at every thread
/// count**, and coalesced ≡ solo per request.
fn panel_pass<E: PanelElem>(
    view: &MadeView<'_, E>,
    panel: &mut PanelBufs<E>,
    draw: &mut DrawBufs,
    counts: &[usize],
    mut external: Option<&mut StdRng>,
    out_batch: &mut SpinBatch,
) {
    let n = view.num_spins();
    let layers = view.layers();
    let depth = layers.len() - 1;
    let h1 = layers[0].out_dim;
    let rows: usize = counts.iter().sum();
    let step = E::kernels().sample_step_cols;
    let sigmoid = vqmc_tensor::simd::kernels().sigmoid_slice;
    // The last bit whose W₁ update is still read: at depth ≥ 2 only
    // layer 2 reads the layer-1 panel.  Every bit up to there has a
    // ready layer-2 unit to carry the update, because each layer's
    // degrees are `1..=last` (`masks::hidden_degrees`).
    let last_update = if depth == 1 {
        n
    } else {
        layers[1].mask.last_ready().unwrap_or(0)
    };
    debug_assert!(
        depth == 1 || (1..=last_update).all(|i| !layers[1].mask.ready_at(i).is_empty()),
        "a bit before layer 2's last ready bit has no unit to carry the W₁ update"
    );
    // Panel offsets, on the stack (no per-call allocation): hidden
    // layer `l ≥ 2` (index `l−1 ≥ 1`) owns `hidden[l−1]·rows` elements
    // of `zdeep`, stripe-blocked like `z1t`.
    let mut doff = [0usize; vqmc_nn::MAX_LAYERS];
    let mut total = 0usize;
    for l in 1..depth {
        doff[l] = total;
        total += layers[l].out_dim * rows;
    }
    // No clear first: every byte is overwritten in the bit loop, so
    // only grow (and zero) when the geometry changes.
    draw.bits_t.resize(n * rows, 0);
    draw.bits_t.truncate(n * rows);
    let units = rows.div_ceil(PAR_ROW_UNIT);
    let parts = panel_parts(rows, h1, par::active_threads());
    let stripe = |w: usize| {
        let u = par::stripe(units, parts, w);
        (
            (u.start * PAR_ROW_UNIT).min(rows),
            (u.end * PAR_ROW_UNIT).min(rows),
        )
    };
    // Stripe-blocked layer-1 panel init: every stripe starts at b1.
    panel.z1t.clear();
    panel.z1t.reserve(h1 * rows);
    for w in 0..parts {
        let (start, end) = stripe(w);
        for &bj in layers[0].b {
            panel.z1t.extend(std::iter::repeat_n(bj, end - start));
        }
    }
    // Deep units not yet computed are read (times a masked ±0 weight)
    // by the stripe-rounded prefixes, so they must be finite: zero.
    let zero = E::from(0);
    panel.zdeep.clear();
    panel.zdeep.resize(total, zero);
    panel.prev_mask.clear();
    panel.prev_mask.resize(rows, zero);
    panel.scratch.resize(E::STEP_SCRATCH * rows, zero);
    draw.ls_buf.clear();
    draw.ls_buf.resize(LS_CHUNK.min(n.max(1)) * rows, 0.0);
    draw.u_buf.clear();
    draw.u_buf.resize(rows, 0.0);
    for i in 0..n {
        // Pre-draw this bit's variates sequentially, in the exact
        // (stream, row-within-stream) order of the draw loop: every RNG
        // stream advances identically at any thread count.
        let mut s = 0;
        for (q, &count) in counts.iter().enumerate() {
            let rng: &mut StdRng = match external.as_deref_mut() {
                Some(r) => r,
                None => &mut draw.rngs[q],
            };
            for _ in 0..count {
                draw.u_buf[s] = rng.gen::<f64>();
                s += 1;
            }
        }
        let w_prev = (i > 0 && i <= last_update && layers[0].mask.col_start(i - 1) < h1)
            .then(|| view.w1t_row(i - 1));
        let c = i % LS_CHUNK;
        let pz = par::SendPtr(panel.z1t.as_mut_ptr());
        let pzd = par::SendPtr(panel.zdeep.as_mut_ptr());
        let pscratch = par::SendPtr(panel.scratch.as_mut_ptr());
        let plogits = par::SendPtr(draw.logits.as_mut_ptr());
        let pprobs = par::SendPtr(draw.probs.as_mut_ptr());
        let pmask = par::SendPtr(panel.prev_mask.as_mut_ptr());
        let pbits = par::SendPtr(draw.bits_t[i * rows..(i + 1) * rows].as_mut_ptr());
        let psigned = par::SendPtr(draw.ls_buf[c * rows..(c + 1) * rows].as_mut_ptr());
        let u_ref: &[f64] = &draw.u_buf;
        par::run(parts, &|w| {
            let (start, end) = stripe(w);
            if start >= end {
                return;
            }
            let bw = end - start;
            // SAFETY: stripes are disjoint row ranges; every pointer
            // below is offset into its stripe's slice of a buffer sized
            // above (panel regions are additionally disjoint per
            // (layer, stripe) by the offset arithmetic), and the region
            // joins before any of the borrows end.
            unsafe {
                use std::slice::from_raw_parts_mut;
                let spr = E::STEP_SCRATCH;
                let scratch_s = from_raw_parts_mut(pscratch.get().add(spr * start), spr * bw);
                let logits_s = from_raw_parts_mut(plogits.get().add(start), bw);
                let probs_s = from_raw_parts_mut(pprobs.get().add(start), bw);
                let mask_s = from_raw_parts_mut(pmask.get().add(start), bw);
                let bits_s = from_raw_parts_mut(pbits.get().add(start), bw);
                let signed_s = from_raw_parts_mut(psigned.get().add(start), bw);
                // One fused reduction of weight row `w` over a panel:
                // the whole row when it carries the update, else the
                // row's live prefix.
                let mut wp = w_prev;
                let mut reduce = |src: &mut [E], w: &[E], live, bias: E, out: &mut [f64]| {
                    let update = wp.take();
                    let w = match update {
                        Some(_) => w,
                        None => &w[..live_prefix::<E>(live, w.len())],
                    };
                    step(src, bw, update, &*mask_s, w, bias.into(), scratch_s, out)
                };
                let mut src = from_raw_parts_mut(pz.get().add(h1 * start), h1 * bw);
                for (l, layer) in layers.iter().enumerate().take(depth).skip(1) {
                    let hl = layer.out_dim;
                    let dst = from_raw_parts_mut(pzd.get().add(doff[l] + hl * start), hl * bw);
                    // The logits stripe is free until the output
                    // reduction, so it stages the f32 arm's units.
                    for &k in layer.mask.ready_at(i) {
                        let live = layer.mask.live_end(k);
                        E::unit(&mut dst[k * bw..(k + 1) * bw], logits_s, |out| {
                            reduce(src, layer.row(k), live, layer.b[k], out)
                        });
                    }
                    src = dst;
                }
                let out_layer = &layers[depth];
                let live = out_layer.mask.live_end(i);
                reduce(src, out_layer.row(i), live, out_layer.b[i], logits_s);
                probs_s.copy_from_slice(logits_s);
                sigmoid(probs_s);
                // Same draw order as the row path; the update is
                // recorded in prev_mask instead of applied eagerly.
                // Branchless: the drawn bit is data, not control flow,
                // so the 50/50 outcome can't mispredict.  `-x` and the
                // select are exact, so this stays bit-identical to the
                // row path's `if`.
                for s in 0..bw {
                    let u = u_ref[start + s];
                    let p = probs_s[s];
                    debug_assert!((0.0..=1.0).contains(&p), "conditional out of range");
                    let bit = (u < p) as u8;
                    bits_s[s] = bit;
                    mask_s[s] = E::from(bit);
                    signed_s[s] = if bit == 1 { logits_s[s] } else { -logits_s[s] };
                }
            }
        });
        if c + 1 == LS_CHUNK || i + 1 == n {
            let filled = (c + 1) * rows;
            ops::log_sigmoid_slice(&mut draw.ls_buf[..filled]);
            for chunk in draw.ls_buf[..filled].chunks_exact(rows) {
                for (lp, &v) in draw.log_prob.iter_mut().zip(chunk) {
                    *lp += v;
                }
            }
        }
    }
    // Tiled transpose of the drawn bits into the row-major output
    // (64-bit tiles keep both sides L1-resident), striped by output row
    // only when the bit loop was (one whole-batch stripe stays inline).
    const TILE: usize = 64;
    let bits_t: &[u8] = &draw.bits_t;
    let unit = if parts == 1 { rows } else { PAR_ROW_UNIT };
    par::for_each_stripe_mut(out_batch.as_bytes_mut(), n * unit, |off, out| {
        for i0 in (0..n).step_by(TILE) {
            for (s, row) in (off / n..).zip(out.chunks_exact_mut(n)) {
                for i in i0..(i0 + TILE).min(n) {
                    row[i] = bits_t[i * rows + s];
                }
            }
        }
    });
}

/// The coalesced NADE sampler: the model's native `O(h)`-per-site
/// recursion over the combined batch, each request's rows drawn from
/// its own seeded RNG stream.
///
/// Invariant (property-tested): rows `[offset_r, offset_r + count_r)`
/// are bit-identical — configurations *and* `logψ` — to a solo
/// `Nade::sample_native(count_r, StdRng::seed_from_u64(seed_r))`.  The
/// recursion reuses `sample_native`'s exact scalar `σ` / `ln σ` ops in
/// the same `(site, row-within-request)` order, so the identity is
/// bitwise, not just numerical (the vectorised slice kernels are only
/// ≤ 2 ULP-equal to the scalar ops and would break it).
#[derive(Debug, Default)]
pub struct NadeBatchSampler {
    /// Per-row shared hidden pre-activations (`rows · h`).
    a: Vec<f64>,
    /// `σ(a)` scratch for one row.
    hidden: Vec<f64>,
    /// Per-row accumulated `log π`.
    log_prob: Vec<f64>,
    /// Per-request RNG streams (rebuilt each coalesced call).
    rngs: Vec<StdRng>,
    /// Per-request row counts (pooled mirror of the request list).
    counts: Vec<usize>,
}

impl NadeBatchSampler {
    /// A fresh sampler (scratch buffers grow on first use).
    pub fn new() -> Self {
        NadeBatchSampler::default()
    }

    /// Draws every request inside one combined native recursion, each
    /// request's rows from its own seeded RNG stream.
    pub fn sample_coalesced(
        &mut self,
        wf: &Nade,
        reqs: &[SampleRequest],
        out_batch: &mut SpinBatch,
        out_log_psi: &mut Vector,
    ) {
        self.rngs.clear();
        let mut counts = std::mem::take(&mut self.counts);
        counts.clear();
        for req in reqs {
            self.rngs.push(StdRng::seed_from_u64(req.seed));
            counts.push(req.count);
        }
        self.sample_core(wf, &counts, None, out_batch, out_log_psi);
        self.counts = counts;
    }

    /// Draws one batch from a caller-owned RNG stream (the training
    /// path — pooled-scratch equivalent of [`Nade::sample_native`]).
    pub fn sample_stream(
        &mut self,
        wf: &Nade,
        count: usize,
        rng: &mut StdRng,
        out_batch: &mut SpinBatch,
        out_log_psi: &mut Vector,
    ) {
        self.sample_core(wf, &[count], Some(rng), out_batch, out_log_psi);
    }

    fn sample_core(
        &mut self,
        wf: &Nade,
        counts: &[usize],
        mut external: Option<&mut StdRng>,
        out_batch: &mut SpinBatch,
        out_log_psi: &mut Vector,
    ) {
        let n = wf.num_spins();
        let h = wf.hidden_size();
        let rows: usize = counts.iter().sum();
        out_batch.resize(rows, n);
        out_batch.fill(0);
        let b = wf.b().as_slice();
        self.a.clear();
        self.a.reserve(rows * h);
        for _ in 0..rows {
            self.a.extend_from_slice(b);
        }
        self.hidden.clear();
        self.hidden.resize(h, 0.0);
        self.log_prob.clear();
        self.log_prob.resize(rows, 0.0);
        let (v, c, w_t) = (wf.v(), wf.c(), wf.w_t());
        for i in 0..n {
            let v_row = v.row(i);
            let w_col = w_t.row(i);
            let mut s = 0;
            for (q, &count) in counts.iter().enumerate() {
                let rng: &mut StdRng = match external.as_deref_mut() {
                    Some(r) => r,
                    None => &mut self.rngs[q],
                };
                for _ in 0..count {
                    let a_row = &mut self.a[s * h..(s + 1) * h];
                    for (hk, &ak) in self.hidden.iter_mut().zip(a_row.iter()) {
                        *hk = ops::sigmoid(ak);
                    }
                    let logit = vqmc_tensor::vector::dot(v_row, &self.hidden) + c[i];
                    if rng.gen::<f64>() < ops::sigmoid(logit) {
                        out_batch.set(s, i, 1);
                        self.log_prob[s] += ops::log_sigmoid(logit);
                        vqmc_tensor::vector::axpy(a_row, 1.0, w_col);
                    } else {
                        self.log_prob[s] += ops::log_one_minus_sigmoid(logit);
                    }
                    s += 1;
                }
            }
        }
        out_log_psi.resize(rows);
        for (o, &lp) in out_log_psi.iter_mut().zip(&self.log_prob) {
            *o = 0.5 * lp;
        }
    }
}

/// Exact-AUTO accounting in the paper's Algorithm-1 unit: the
/// equivalent work of one logical forward pass per bit.
fn auto_stats(n: usize, rows: usize) -> SampleStats {
    SampleStats {
        forward_passes: n,
        configurations_evaluated: rows * n,
        proposals: 0,
        accepted: 0,
    }
}

/// The architecture-dispatching batch sampler: owns one engine per
/// model family and routes a [`BatchedSampling`] model to the right one
/// via double dispatch — no `AnyModel` match anywhere in the consumers.
#[derive(Debug, Default)]
pub struct BatchSampler {
    made: MadeBatchSampler,
    nade: NadeBatchSampler,
    mcmc: McmcSampler,
}

impl BatchSampler {
    /// A fresh sampler (per-architecture scratch grows on first use).
    pub fn new() -> Self {
        BatchSampler::default()
    }

    /// A sampler whose RBM fallback uses a custom MCMC configuration.
    pub fn with_mcmc(mcmc: McmcSampler) -> Self {
        BatchSampler {
            mcmc,
            ..BatchSampler::default()
        }
    }

    /// Selects the execution precision for subsequent passes.  Only
    /// the MADE panel sampler has an f32 arm; NADE and RBM have no f32
    /// twins and silently run f64 (the serving layer documents this
    /// fallback).
    pub fn set_precision(&mut self, precision: Precision) {
        self.made.set_precision(precision);
    }

    /// Draws every request into one coalesced output batch (request
    /// `r`'s rows at `[Σ_{q<r} count_q, …)`), bit-identical per request
    /// to a solo call with that request's seed.  Exact-AUTO models run
    /// as one combined pass; RBM falls back to per-request MCMC chains
    /// (inherently sequential per chain).
    pub fn sample_requests(
        &mut self,
        model: &dyn BatchedSampling,
        reqs: &[SampleRequest],
        out_batch: &mut SpinBatch,
        out_log_psi: &mut Vector,
    ) -> SampleStats {
        let mut call = RequestCall {
            made: &mut self.made,
            nade: &mut self.nade,
            mcmc: &self.mcmc,
            reqs,
            out_batch,
            out_log_psi,
            stats: SampleStats::default(),
        };
        model.sample_via(&mut call);
        call.stats
    }

    /// Draws one batch from a caller-owned RNG stream into a
    /// caller-owned output — the single-stream shape the CLI's
    /// `evaluate`/`sample` commands use on a loaded checkpoint.
    pub fn sample_stream_into(
        &mut self,
        model: &dyn BatchedSampling,
        count: usize,
        rng: &mut StdRng,
        out: &mut SampleOutput,
    ) {
        let mut call = StreamCall {
            made: &mut self.made,
            nade: &mut self.nade,
            mcmc: &self.mcmc,
            count,
            rng,
            out,
        };
        model.sample_via(&mut call);
    }

    /// Allocating convenience form of [`BatchSampler::sample_stream_into`].
    pub fn sample_stream(
        &mut self,
        model: &dyn BatchedSampling,
        count: usize,
        rng: &mut StdRng,
    ) -> SampleOutput {
        let mut out = SampleOutput::default();
        self.sample_stream_into(model, count, rng, &mut out);
        out
    }
}

/// [`SamplingEngine`] arms for a coalesced multi-request call.
struct RequestCall<'a> {
    made: &'a mut MadeBatchSampler,
    nade: &'a mut NadeBatchSampler,
    mcmc: &'a McmcSampler,
    reqs: &'a [SampleRequest],
    out_batch: &'a mut SpinBatch,
    out_log_psi: &'a mut Vector,
    stats: SampleStats,
}

impl RequestCall<'_> {
    fn rows(&self) -> usize {
        self.reqs.iter().map(|r| r.count).sum()
    }
}

impl SamplingEngine for RequestCall<'_> {
    fn sample_made(&mut self, wf: &Made) {
        self.made
            .sample_coalesced(wf, self.reqs, self.out_batch, self.out_log_psi);
        self.stats = auto_stats(wf.num_spins(), self.rows());
    }

    fn sample_nade(&mut self, wf: &Nade) {
        self.nade
            .sample_coalesced(wf, self.reqs, self.out_batch, self.out_log_psi);
        self.stats = auto_stats(wf.num_spins(), self.rows());
    }

    fn sample_rbm(&mut self, wf: &Rbm) {
        let n = wf.num_spins();
        let rows = self.rows();
        self.out_batch.resize(rows, n);
        self.out_log_psi.resize(rows);
        let mut stats = SampleStats::default();
        let mut offset = 0;
        for req in self.reqs {
            let mut rng = StdRng::seed_from_u64(req.seed);
            let out = self.mcmc.sample_rbm(wf, req.count, &mut rng);
            for s in 0..req.count {
                self.out_batch
                    .sample_mut(offset + s)
                    .copy_from_slice(out.batch.sample(s));
            }
            self.out_log_psi.as_mut_slice()[offset..offset + req.count]
                .copy_from_slice(out.log_psi.as_slice());
            offset += req.count;
            stats.forward_passes += out.stats.forward_passes;
            stats.configurations_evaluated += out.stats.configurations_evaluated;
            stats.proposals += out.stats.proposals;
            stats.accepted += out.stats.accepted;
        }
        self.stats = stats;
    }
}

/// [`SamplingEngine`] arms for a single caller-owned RNG stream.
struct StreamCall<'a> {
    made: &'a mut MadeBatchSampler,
    nade: &'a mut NadeBatchSampler,
    mcmc: &'a McmcSampler,
    count: usize,
    rng: &'a mut StdRng,
    out: &'a mut SampleOutput,
}

impl SamplingEngine for StreamCall<'_> {
    fn sample_made(&mut self, wf: &Made) {
        self.made.sample_stream(
            wf,
            self.count,
            self.rng,
            &mut self.out.batch,
            &mut self.out.log_psi,
        );
        self.out.stats = auto_stats(wf.num_spins(), self.count);
    }

    fn sample_nade(&mut self, wf: &Nade) {
        self.nade.sample_stream(
            wf,
            self.count,
            self.rng,
            &mut self.out.batch,
            &mut self.out.log_psi,
        );
        self.out.stats = auto_stats(wf.num_spins(), self.count);
    }

    fn sample_rbm(&mut self, wf: &Rbm) {
        // The `O(h)`-per-proposal RBM fast path, same as the trainer's
        // `RbmFastMcmc` adapter.
        *self.out = self.mcmc.sample_rbm(wf, self.count, self.rng);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Sampler;

    #[test]
    fn coalesced_rows_land_at_request_offsets() {
        let wf = Made::new(7, 11, 5);
        let reqs = [
            SampleRequest { count: 3, seed: 1 },
            SampleRequest { count: 9, seed: 2 },
        ];
        let mut bs = BatchSampler::new();
        let mut batch = SpinBatch::default();
        let mut log_psi = Vector::default();
        let stats = bs.sample_requests(&wf, &reqs, &mut batch, &mut log_psi);
        assert_eq!(batch.batch_size(), 12);
        assert_eq!(log_psi.len(), 12);
        assert_eq!(stats.forward_passes, 7);
        assert_eq!(stats.configurations_evaluated, 12 * 7);
        // Solo redraw of the second request lands exactly at offset 3.
        let mut solo_b = SpinBatch::default();
        let mut solo_lp = Vector::default();
        MadeBatchSampler::new().sample_stream(
            &wf,
            9,
            &mut StdRng::seed_from_u64(2),
            &mut solo_b,
            &mut solo_lp,
        );
        for s in 0..9 {
            assert_eq!(batch.sample(3 + s), solo_b.sample(s));
            assert_eq!(log_psi[3 + s].to_bits(), solo_lp[s].to_bits());
        }
    }

    #[test]
    fn stream_call_dispatches_every_architecture() {
        let mut bs = BatchSampler::new();
        let mut rng = StdRng::seed_from_u64(3);
        let made = Made::new(6, 9, 1);
        let out = bs.sample_stream(&made, 10, &mut rng);
        assert_eq!(out.batch.batch_size(), 10);
        assert_eq!(out.stats.forward_passes, 6);

        let nade = Nade::new(6, 5, 1);
        let out = bs.sample_stream(&nade, 10, &mut StdRng::seed_from_u64(3));
        assert_eq!(out.batch.batch_size(), 10);
        // Bit-identical to the model's own native sampler.
        let (nb, nlp) = nade.sample_native(10, &mut StdRng::seed_from_u64(3));
        assert_eq!(out.batch.as_bytes(), nb.as_bytes());
        for s in 0..10 {
            assert_eq!(out.log_psi[s].to_bits(), nlp[s].to_bits());
        }

        let rbm = Rbm::new(6, 6, 1);
        let out = bs.sample_stream(&rbm, 10, &mut StdRng::seed_from_u64(3));
        assert_eq!(out.batch.batch_size(), 10);
        assert!(out.stats.proposals > 0, "RBM must go through MCMC");
    }

    #[test]
    fn rbm_requests_match_solo_mcmc_per_seed() {
        let wf = Rbm::new(5, 5, 7);
        let reqs = [
            SampleRequest { count: 4, seed: 21 },
            SampleRequest { count: 6, seed: 22 },
        ];
        let mut bs = BatchSampler::new();
        let mut batch = SpinBatch::default();
        let mut log_psi = Vector::default();
        let stats = bs.sample_requests(&wf, &reqs, &mut batch, &mut log_psi);
        assert!(stats.proposals > 0);
        let mut offset = 0;
        for req in &reqs {
            let solo = McmcSampler::default().sample_rbm(
                &wf,
                req.count,
                &mut StdRng::seed_from_u64(req.seed),
            );
            for s in 0..req.count {
                assert_eq!(batch.sample(offset + s), solo.batch.sample(s));
                assert_eq!(log_psi[offset + s].to_bits(), solo.log_psi[s].to_bits());
            }
            offset += req.count;
        }
    }

    #[test]
    fn forced_layouts_are_bit_identical() {
        let wf = Made::new(11, 15, 42);
        for count in [1usize, 4, 8, 33] {
            let mut row_b = SpinBatch::default();
            let mut row_lp = Vector::default();
            let mut sampler = MadeBatchSampler::new();
            sampler.force_layout(PanelLayout::Rows);
            sampler.sample_stream(
                &wf,
                count,
                &mut StdRng::seed_from_u64(9),
                &mut row_b,
                &mut row_lp,
            );
            let mut col_b = SpinBatch::default();
            let mut col_lp = Vector::default();
            let mut sampler = MadeBatchSampler::new();
            sampler.force_layout(PanelLayout::Cols);
            sampler.sample_stream(
                &wf,
                count,
                &mut StdRng::seed_from_u64(9),
                &mut col_b,
                &mut col_lp,
            );
            assert_eq!(row_b.as_bytes(), col_b.as_bytes(), "count {count}");
            for s in 0..count {
                assert_eq!(row_lp[s].to_bits(), col_lp[s].to_bits(), "count {count} row {s}");
            }
        }
    }

    /// The path each benchmark workload's sampling call takes at one
    /// thread (the benchmark pins `VQMC_THREADS=1`), plus the forced
    /// layouts and the f32 `Rows` fallback.
    #[test]
    fn dispatch_pins_benchmark_shapes() {
        use vqmc_nn::made_hidden_size as h;
        use PanelLayout::{Auto, Cols, Rows as ForceRows};
        use Precision::{F32, F64};
        use SamplerPath::{PanelF32, PanelF64, Rows};
        // (what, precision, depth, layout, rows, h₁, threads, path)
        let cases = [
            ("train_maxcut_n1024", F64, 1, Auto, 1024, h(1024), 1, Rows),
            // The 1.97 MB Max-Cut panel fits the cap from four workers up.
            ("maxcut @4", F64, 1, Auto, 1024, h(1024), 4, PanelF64),
            ("train_tim_n64", F64, 1, Auto, 512, h(64), 1, PanelF64),
            ("dist_dp_r2", F64, 1, Auto, 32, h(512), 1, PanelF64),
            ("serve_sample_n1024", F64, 1, Auto, 64, 64, 1, PanelF64),
            ("serve_sample_n1024", F32, 1, Auto, 64, 64, 1, PanelF32),
            ("train_maxcut_deep2", F64, 2, Auto, 256, 192, 1, PanelF64),
            ("tiny batch", F64, 1, Auto, 7, 64, 1, Rows),
            ("tiny f32 batch", F32, 1, Auto, 1, 64, 1, PanelF32),
            ("forced cols", F64, 1, Cols, 1, 64, 1, PanelF64),
            ("forced rows", F64, 1, ForceRows, 64, 64, 1, Rows),
            ("f32 forced rows", F32, 1, ForceRows, 64, 64, 1, Rows),
            ("deep forced rows", F64, 2, ForceRows, 4, 64, 1, PanelF64),
            ("deep f32 rows", F32, 3, ForceRows, 64, 64, 1, PanelF64),
        ];
        for (what, precision, depth, layout, rows, h1, threads, path) in cases {
            let got = choose_path(precision, depth, layout, rows, h1, threads);
            assert_eq!(got, path, "{what} ({precision:?})");
        }
    }

    /// The panel pass forks per bit only where a bit's work pays for
    /// the dispatch, pinned per shape at a two-worker pool.
    #[test]
    fn fork_pins_benchmark_shapes() {
        use vqmc_nn::made_hidden_size as h;
        // (what, rows, h₁, parts at two workers)
        let cases = [
            ("bench_deep depth 1", 64, 96, 1),
            ("bench_deep depth 3", 64, 64, 1),
            ("serve_sample_n1024", 64, 64, 1),
            ("dist_dp_r2", 32, h(512), 1),
            ("train_tim_n64", 512, h(64), 2),
            ("train_maxcut_deep2", 256, 192, 2),
            ("maxcut n1024", 1024, h(1024), 2),
            ("two units", 9, 1 << 14, 2),
        ];
        for (what, rows, h1, parts) in cases {
            assert_eq!(panel_parts(rows, h1, 2), parts, "{what}");
            assert_eq!(panel_parts(rows, h1, 1), 1, "{what} at one worker");
        }
    }

    /// The f32 arm draws a valid, deterministic batch whose `logψ`
    /// tracks the f64 arm within the documented serving bound (the two
    /// arms see identical logits up to `O(h·ε₃₂)` per bit, so with the
    /// same seed the drawn bits *almost always* agree; we assert only
    /// determinism and shape, never cross-precision bits).
    #[test]
    fn f32_stream_is_deterministic_and_well_formed() {
        let wf = Made::new(12, 17, 11);
        let draw = || {
            let mut sampler = MadeBatchSampler::new();
            sampler.set_precision(Precision::F32);
            let mut b = SpinBatch::default();
            let mut lp = Vector::default();
            sampler.sample_stream(&wf, 20, &mut StdRng::seed_from_u64(3), &mut b, &mut lp);
            (b, lp)
        };
        let (b1, lp1) = draw();
        let (b2, lp2) = draw();
        assert_eq!(b1.as_bytes(), b2.as_bytes());
        assert_eq!(b1.batch_size(), 20);
        for s in 0..20 {
            assert_eq!(lp1[s].to_bits(), lp2[s].to_bits());
            assert!(lp1[s] < 0.0, "logψ of a normalised π must be negative");
        }
        // Warm (cached-weights) redraws stay identical after the first
        // pass built the f32 weight cache.
        let mut sampler = MadeBatchSampler::new();
        sampler.set_precision(Precision::F32);
        for _ in 0..2 {
            let mut b = SpinBatch::default();
            let mut lp = Vector::default();
            sampler.sample_stream(&wf, 20, &mut StdRng::seed_from_u64(3), &mut b, &mut lp);
            assert_eq!(b.as_bytes(), b1.as_bytes());
            for s in 0..20 {
                assert_eq!(lp[s].to_bits(), lp1[s].to_bits());
            }
        }
    }

    #[test]
    fn training_wrapper_equals_engine_stream() {
        // IncrementalAutoSampler is a thin wrapper over MadeBatchSampler:
        // same output, same stats.
        let wf = Made::new(8, 12, 3);
        let via_wrapper =
            crate::IncrementalAutoSampler::new().sample(&wf, 20, &mut StdRng::seed_from_u64(4));
        let mut batch = SpinBatch::default();
        let mut log_psi = Vector::default();
        MadeBatchSampler::new().sample_stream(
            &wf,
            20,
            &mut StdRng::seed_from_u64(4),
            &mut batch,
            &mut log_psi,
        );
        assert_eq!(via_wrapper.batch.as_bytes(), batch.as_bytes());
        for s in 0..20 {
            assert_eq!(via_wrapper.log_psi[s].to_bits(), log_psi[s].to_bits());
        }
    }

    /// Deep stacks: the incremental panel pipeline draws the same
    /// configurations as the naive full-recompute AUTO sampler and its
    /// `logψ` agrees within the incremental-vs-naive contract (same
    /// arithmetic, different accumulation order) — at depths 2 and 3,
    /// across batch sizes that land on either side of the striping
    /// minimum.  The `n = 40` stacks are narrow (`h < n − 1`): every
    /// unit has its own ready bit, the layer-1 updates stop at layer
    /// 2's last one, and most reductions read a stripe-rounded prefix.
    #[test]
    fn deep_stream_matches_naive_auto_sampler() {
        let stacks = [
            (7, vec![11usize, 6]),
            (7, vec![9, 7, 5]),
            (40, vec![12, 6]),
            (40, vec![16, 10, 6]),
        ];
        for (n, hidden) in stacks {
            for seed in 0..4u64 {
                let wf = Made::with_hidden(n, &hidden, 100 + seed);
                for count in [3usize, 16, 40] {
                    let naive = crate::AutoSampler::new().sample(
                        &wf,
                        count,
                        &mut StdRng::seed_from_u64(seed),
                    );
                    let mut b = SpinBatch::default();
                    let mut lp = Vector::default();
                    MadeBatchSampler::new().sample_stream(
                        &wf,
                        count,
                        &mut StdRng::seed_from_u64(seed),
                        &mut b,
                        &mut lp,
                    );
                    assert_eq!(
                        naive.batch.as_bytes(),
                        b.as_bytes(),
                        "n {n} hidden {hidden:?} seed {seed} count {count}: batches differ"
                    );
                    for s in 0..count {
                        assert!(
                            (naive.log_psi[s] - lp[s]).abs() < 1e-10,
                            "n {n} hidden {hidden:?} seed {seed} count {count} row {s}: logψ differs"
                        );
                    }
                }
            }
        }
    }

    /// The coalesced≡solo invariant holds at depths 1 and 2 in both
    /// precisions: every request's rows in a combined pass are
    /// bit-identical to a solo stream with that request's seed —
    /// including a request small enough that the f64 Auto dispatch
    /// sends it down the row path solo.
    #[test]
    fn coalesced_rows_match_solo_streams() {
        let reqs = [
            SampleRequest { count: 3, seed: 5 },
            SampleRequest { count: 13, seed: 9 },
            SampleRequest { count: 6, seed: 31 },
        ];
        let cases = [Precision::F64, Precision::F32].into_iter().flat_map(|p| {
            [
                (p, Made::new(8, 12, 19)),
                (p, Made::with_hidden(8, &[12, 7], 19)),
            ]
        });
        for (precision, wf) in cases {
            let mut bs = BatchSampler::new();
            bs.set_precision(precision);
            let mut batch = SpinBatch::default();
            let mut lp = Vector::default();
            bs.sample_requests(&wf, &reqs, &mut batch, &mut lp);
            assert_eq!(batch.batch_size(), 22);
            let mut offset = 0;
            for req in &reqs {
                let mut sampler = MadeBatchSampler::new();
                sampler.set_precision(precision);
                let mut sb = SpinBatch::default();
                let mut slp = Vector::default();
                sampler.sample_stream(
                    &wf,
                    req.count,
                    &mut StdRng::seed_from_u64(req.seed),
                    &mut sb,
                    &mut slp,
                );
                for s in 0..req.count {
                    assert_eq!(
                        batch.sample(offset + s),
                        sb.sample(s),
                        "{precision:?} depth {} seed {}",
                        wf.depth(),
                        req.seed
                    );
                    assert_eq!(
                        lp[offset + s].to_bits(),
                        slp[s].to_bits(),
                        "{precision:?} depth {} seed {}",
                        wf.depth(),
                        req.seed
                    );
                }
                offset += req.count;
            }
        }
    }

    /// The f32 deep arm is deterministic, well-formed, and tracks the
    /// f64 deep arm's `logψ` within the documented serving bound.
    #[test]
    fn deep_f32_stream_tracks_f64_within_bound() {
        let n = 10;
        let wf = Made::with_hidden(n, &[16, 9], 7);
        let draw = |precision: Precision| {
            let mut sampler = MadeBatchSampler::new();
            sampler.set_precision(precision);
            let mut b = SpinBatch::default();
            let mut lp = Vector::default();
            sampler.sample_stream(&wf, 24, &mut StdRng::seed_from_u64(3), &mut b, &mut lp);
            (b, lp)
        };
        let (b32a, lp32a) = draw(Precision::F32);
        let (b32b, lp32b) = draw(Precision::F32);
        assert_eq!(b32a.as_bytes(), b32b.as_bytes());
        for s in 0..24 {
            assert_eq!(lp32a[s].to_bits(), lp32b[s].to_bits());
            assert!(lp32a[s] < 0.0, "logψ of a normalised π must be negative");
        }
        // Same drawn bits imply logψ within the f32 drift bound.
        let (b64, lp64) = draw(Precision::F64);
        if b64.as_bytes() == b32a.as_bytes() {
            for s in 0..24 {
                assert!(
                    (lp64[s] - lp32a[s]).abs() <= 1e-5 * n as f64,
                    "row {s}: f32 logψ drifted {} vs {}",
                    lp32a[s],
                    lp64[s]
                );
            }
        }
    }

    /// A warm deep sampler tracks parameter updates (the cached `W₁ᵀ`
    /// and f32 weight copies invalidate on `params_version`).
    #[test]
    fn deep_warm_sampler_survives_parameter_updates() {
        let mut wf = Made::with_hidden(6, &[9, 5], 3);
        let mut warm = MadeBatchSampler::new();
        for round in 0..3u64 {
            let mut wb = SpinBatch::default();
            let mut wlp = Vector::default();
            warm.sample_stream(
                &wf,
                12,
                &mut StdRng::seed_from_u64(round),
                &mut wb,
                &mut wlp,
            );
            let mut fresh_b = SpinBatch::default();
            let mut fresh_lp = Vector::default();
            MadeBatchSampler::new().sample_stream(
                &wf,
                12,
                &mut StdRng::seed_from_u64(round),
                &mut fresh_b,
                &mut fresh_lp,
            );
            assert_eq!(wb.as_bytes(), fresh_b.as_bytes(), "round {round}");
            for s in 0..12 {
                assert_eq!(wlp[s].to_bits(), fresh_lp[s].to_bits(), "round {round}");
            }
            let mut p = wf.params();
            for v in p.iter_mut() {
                *v += 0.01;
            }
            wf.set_params(&p);
        }
    }
}
