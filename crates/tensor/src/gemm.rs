//! Cache-blocked, pool-parallel GEMM kernels.
//!
//! Four entry points cover every dense product in the workspace:
//!
//! * [`gemm_nt`] — `C[m,n] = A[m,k] * B[n,k]^T`.  The forward pass of a
//!   fully-connected layer (`Y = X W^T`).
//! * [`gemm_nn`] — `C[m,n] = A[m,k] * B[k,n]`.  Backprop's input gradient
//!   (`dX = dY W`).
//! * [`gemm_tn`] — `C[m,n] = A[k,m]^T * B[k,n]`.  Backprop's weight
//!   gradient (`dW = dY^T X`).
//! * [`gemm_nt_f32`] — `nt` over row-major `f32` slices, the forward
//!   pass of the f32 inference arm (`vqmc_nn::MadeF32`).
//!
//! Each f64 kernel has an `_into` twin writing into a caller-owned
//! matrix (reshaped in place, so a warm buffer is never reallocated);
//! the allocating forms are thin wrappers over those.  The f64 `nt`
//! also runs over row-major slices ([`gemm_nt_slices`]), the MADE
//! forward pass's entry for weights it borrows rather than owns.
//!
//! ## Packed path (every vector table, both precisions)
//!
//! When the [`crate::simd`] dispatch resolves to a vector table (AVX2
//! or AVX-512), the three f64 variants run one BLIS-style packed
//! driver (`gemm_packed`), and `gemm_nt_f32` runs the same driver on
//! every table.  The driver is generic over the element
//! ([`PackedElem`]): operands are repacked into contiguous micro-panels
//! (`kc×MR` for A, `kc×NR` for B) and the inner loop is the table's
//! `MR×NR` FMA microkernel (`Kernels<E>::gemm_micro`, one lane-generic
//! body in `simd/micro.rs`).
//! `MR` is [`MR_SIMD`] = 8 rows; `NR` is the width the table entry
//! carries ([`GemmMicro::nr`]): one 256-bit vector of elements per tile
//! row on the portable and AVX2 tables (4 `f64`, 8 `f32`), two 512-bit
//! vectors on the AVX-512 table (16 `f64`, 32 `f32`).  Packing is what makes
//! the layouts converge — `nn`/`tn` differ from `nt` only in whether
//! `pack_rows` or `pack_cols` gathers each operand — and it keeps
//! the microkernel reading sequential memory.  Blocking: `k` by [`KC`]
//! (micro-panel depth), output rows by `MC` (`MC×KC×8 B = 512 KiB`
//! in f64, half the L2), output columns by `NC_PACKED` (the packed B
//! panel, L3-resident).  Pack buffers come from one thread-local LIFO
//! pool per element type, zero-filled, so steady-state training and
//! serving perform zero heap allocations.
//!
//! ## Scalar path (the portable f64 table)
//!
//! On the portable table the f64 variants keep loop nests of their
//! own: `gemm_nt` a 4×4 register tile ([`MR`]×[`NR`]) with `k` blocked
//! by [`KC`] and B's rows by [`NC`]; `gemm_nn` / `gemm_tn` an axpy and
//! an outer-product accumulation.  The packed driver with the portable
//! microkernel measured 14× slower on a 2-vCPU AVX-512 Xeon at one
//! thread (876 vs 64 ms at 1024×512×512, 830 vs 56 ms at the
//! `train_maxcut_n1024` forward shape 1024×240×1024): built without
//! `+fma`, `f64::mul_add` lowers to a libm `fma` call per element.  The two paths round differently, so f64 results
//! are bit-identical across the vector tables but not between them and
//! the portable one.
//!
//! ## Parallelisation (the [`crate::par`] pool)
//!
//! All three f64 variants parallelise over **output-row slabs**: the
//! packed driver splits `m` into one [`MR_SIMD`]-aligned contiguous
//! slab per worker (`packed_driver`), each worker running the full
//! BLIS loop nest on its slab with its *own* thread-local pack buffers
//! (workers re-pack the shared B panel redundantly — an
//! `O(1/slab_rows)` overhead that buys the absence of any cross-worker
//! handoff).  The scalar arm stripes the same way at [`MR`] alignment.
//! Either way a `C` element's value is a function of its row and column
//! alone — the per-element `k`-summation order (sequential within a
//! `KC` block, blocks ascending) does not depend on which slab the row
//! landed in — so the parallel results are **bit-identical** to the
//! sequential ones at every thread count (`tests/thread_identity.rs`).
//! `tn` avoids a partial-`C` reduction by having each worker scan the
//! whole shared `k` dimension for its rows.  `gemm_nt_f32` is
//! sequential: the serving path parallelises one level up, across
//! requests.

use std::cell::RefCell;
use std::ops::AddAssign;
use std::thread::LocalKey;

use crate::matrix::Matrix;
use crate::par;
use crate::simd::{self, Backend, GemmMicro, KernelElem};
use crate::vector::{axpy, dot};

/// Scalar-path accumulator tile height (A rows per tile).
pub const MR: usize = 4;
/// Scalar-path accumulator tile width (B rows per tile).
pub const NR: usize = 4;
/// `k`-dimension block: `MR` A-rows × `KC` f64 = 8 KiB, safely L1.
pub const KC: usize = 256;
/// B-row block: `NC` rows × `KC` f64 = 128 KiB, sized for L2 residency.
pub const NC: usize = 64;

/// Packed-path microtile height (A rows per tile).
pub const MR_SIMD: usize = 8;
/// Packed A-block rows: `MC`×[`KC`]×8 B = 512 KiB in f64, half the L2.
const MC: usize = 256;
/// Packed B-panel columns: [`KC`]×`NC_PACKED`×8 B = 4 MiB in f64,
/// L3-resident.
const NC_PACKED: usize = 2048;
/// Capacity of the driver's tile buffer: `MR_SIMD × NR` elements for
/// any `NR ≤ 32`.
const TILE: usize = MR_SIMD * 32;

/// An element type the packed driver runs on: `f64` and `f32`.
pub trait PackedElem: Copy + Default + AddAssign + Sync + 'static {
    /// This element's thread-local pack pool.  Being thread-local,
    /// every pool worker owns its own pack buffers — the parallel
    /// driver needs no handoff and no locking.  Capacities grow to the
    /// high-water mark of the shapes seen on that thread, after which
    /// `take_pack` allocates nothing (asserted by the counting-allocator
    /// tests in `vqmc-core`).
    #[doc(hidden)]
    fn pack_pool() -> &'static LocalKey<RefCell<Vec<Vec<Self>>>>;
}

macro_rules! packed_elem {
    ($($t:ty),*) => {$(
        impl PackedElem for $t {
            fn pack_pool() -> &'static LocalKey<RefCell<Vec<Vec<$t>>>> {
                thread_local! {
                    static POOL: RefCell<Vec<Vec<$t>>> = const { RefCell::new(Vec::new()) };
                }
                &POOL
            }
        }
    )*};
}

packed_elem!(f64, f32);

/// A zeroed pool buffer of exactly `len` elements, most recently
/// returned first (zero-fill is what lets the pack routines skip
/// writing the padded panel tails).
fn take_pack<E: PackedElem>(len: usize) -> Vec<E> {
    E::pack_pool().with(|p| {
        let mut buf = p.borrow_mut().pop().unwrap_or_default();
        buf.clear();
        buf.resize(len, E::default());
        buf
    })
}

fn give_pack<E: PackedElem>(buf: Vec<E>) {
    E::pack_pool().with(|p| p.borrow_mut().push(buf))
}

/// A panel-packing routine: `(block_start, block_len, k_start, k_len, dst)`
/// fills `dst` with the packed micro-panel layout the microkernel reads.
type PackPanel<'a, E> = dyn Fn(usize, usize, usize, usize, &mut [E]) + Sync + 'a;

/// The f64 packed-path microkernel, when the production dispatch
/// resolved to a vector table.
fn packed_micro() -> Option<GemmMicro<f64>> {
    let k = simd::kernels();
    (k.backend != Backend::Scalar).then_some(k.gemm_micro)
}

/// A matrix as the `(elements, row stride)` pair the pack routines read.
fn op(m: &Matrix) -> (&[f64], usize) {
    (m.as_slice(), m.cols())
}

/// Parallel front-end for [`gemm_packed`]: when the shape clears
/// [`par::should_parallelize_gemm`], the output rows are split into one
/// `MR_SIMD`-aligned contiguous slab per worker and each worker runs
/// the *full* packed loop nest on its slab (own thread-local pack
/// buffers, shared read-only operands).  Slab boundaries land on
/// microtile edges, so every `C` element sees exactly the `k`-block
/// accumulation order it sees in the sequential sweep — bit-identical
/// output at any thread count.  Below the gate (or at one thread) this
/// is exactly `gemm_packed`.
fn packed_driver<E: PackedElem>(
    m: usize,
    n: usize,
    k: usize,
    pack_a: &PackPanel<'_, E>,
    pack_b: &PackPanel<'_, E>,
    c: &mut [E],
    micro: GemmMicro<E>,
) {
    let units = m.div_ceil(MR_SIMD);
    let parts = par::active_threads().min(units.max(1));
    if parts <= 1 || !par::should_parallelize_gemm(m * n * k) {
        gemm_packed(m, n, k, pack_a, pack_b, c, micro);
        return;
    }
    let base = par::SendPtr(c.as_mut_ptr());
    par::run(parts, &|w| {
        let u = par::stripe(units, parts, w);
        let r0 = (u.start * MR_SIMD).min(m);
        let r1 = (u.end * MR_SIMD).min(m);
        if r0 < r1 {
            // SAFETY: stripes are disjoint, contiguous row ranges of `c`,
            // and the region joins before `c`'s borrow ends.
            let slab =
                unsafe { std::slice::from_raw_parts_mut(base.get().add(r0 * n), (r1 - r0) * n) };
            gemm_packed(
                r1 - r0,
                n,
                k,
                |i0, ic, l0, lc, buf| pack_a(r0 + i0, ic, l0, lc, buf),
                pack_b,
                slab,
                micro,
            );
        }
    });
}

/// Packs *rows* of the row-major operand `(src, stride)` into
/// `ph`-high micro-panels: rows `[r0, r0+rc)`, k-slice `[l0, l0+lc)`
/// land at `buf[panel*ph*lc + p*ph + r] = src[(r0 + panel*ph + r)*stride
/// + l0 + p]`.  Panel tails beyond `rc` stay at the pool's zero fill.
fn pack_rows<E: PackedElem>(
    (src, stride): (&[E], usize),
    ph: usize,
) -> impl Fn(usize, usize, usize, usize, &mut [E]) + Sync + '_ {
    move |r0, rc, l0, lc, buf| {
        for (ip, panel) in buf.chunks_mut(ph * lc).enumerate() {
            let rows_here = ph.min(rc.saturating_sub(ip * ph));
            for r in 0..rows_here {
                let row = &src[(r0 + ip * ph + r) * stride + l0..][..lc];
                for (p, &v) in row.iter().enumerate() {
                    panel[p * ph + r] = v;
                }
            }
        }
    }
}

/// Packs *columns* of the row-major operand `(src, stride)` into
/// `ph`-wide micro-panels: columns `[c0, c0+cc)` of rows `[l0, l0+lc)`
/// land at `buf[panel*ph*lc + p*ph + q] = src[(l0 + p)*stride + c0 +
/// panel*ph + q]`.  Reads are contiguous runs of `ph`, so packing a
/// `k`-major operand streams it row-major exactly once.
fn pack_cols<E: PackedElem>(
    (src, stride): (&[E], usize),
    ph: usize,
) -> impl Fn(usize, usize, usize, usize, &mut [E]) + Sync + '_ {
    move |c0, cc, l0, lc, buf| {
        let panels = cc.div_ceil(ph);
        for p in 0..lc {
            let row = &src[(l0 + p) * stride + c0..][..cc];
            for jp in 0..panels {
                let w = ph.min(cc - jp * ph);
                buf[jp * ph * lc + p * ph..][..w].copy_from_slice(&row[jp * ph..jp * ph + w]);
            }
        }
    }
}

/// The shared BLIS-style packed driver: loop nest `l0 (KC) → j0
/// (NC_PACKED, pack B) → i0 (MC, pack A) → jp → ip (microkernel)`.
/// The microkernel overwrites an `MR_SIMD×NR` tile with the product
/// over the current `k`-block; the valid `iv×jv` region is then
/// accumulated into `C`, which also handles the partial-tile edges
/// (packed tails are zero, so the extra lanes compute zeros).
///
/// The `k`-summation order per element is identical to the scalar
/// blocked path: sequential within a `KC` block, blocks in ascending
/// order — only the fused rounding of the FMA differs.
fn gemm_packed<E: PackedElem>(
    m: usize,
    n: usize,
    k: usize,
    pack_a: impl Fn(usize, usize, usize, usize, &mut [E]),
    pack_b: impl Fn(usize, usize, usize, usize, &mut [E]),
    c: &mut [E],
    micro: GemmMicro<E>,
) {
    debug_assert_eq!(c.len(), m * n);
    c.fill(E::default());
    if m == 0 || n == 0 || k == 0 {
        return;
    }
    let nr = micro.nr;
    assert!(
        (1..=TILE / MR_SIMD).contains(&nr),
        "gemm_packed: tile width {nr} does not fit the tile buffer"
    );
    let mut tile = [E::default(); TILE];
    let tile = &mut tile[..MR_SIMD * nr];
    let mut l0 = 0;
    while l0 < k {
        let lc = KC.min(k - l0);
        let mut j0 = 0;
        while j0 < n {
            let jc = NC_PACKED.min(n - j0);
            let jpanels = jc.div_ceil(nr);
            let mut bbuf = take_pack(jpanels * nr * lc);
            pack_b(j0, jc, l0, lc, &mut bbuf);
            let mut i0 = 0;
            while i0 < m {
                let ic = MC.min(m - i0);
                let ipanels = ic.div_ceil(MR_SIMD);
                let mut abuf = take_pack(ipanels * MR_SIMD * lc);
                pack_a(i0, ic, l0, lc, &mut abuf);
                for jp in 0..jpanels {
                    let j = j0 + jp * nr;
                    let jv = nr.min(j0 + jc - j);
                    let bp = &bbuf[jp * nr * lc..];
                    for ip in 0..ipanels {
                        let i = i0 + ip * MR_SIMD;
                        let iv = MR_SIMD.min(i0 + ic - i);
                        (micro.run)(lc, &abuf[ip * MR_SIMD * lc..], bp, tile);
                        for (r, t) in tile.chunks_exact(nr).take(iv).enumerate() {
                            let base = (i + r) * n + j;
                            for (cv, &tv) in c[base..base + jv].iter_mut().zip(t) {
                                *cv += tv;
                            }
                        }
                    }
                }
                give_pack(abuf);
                i0 += ic;
            }
            give_pack(bbuf);
            j0 += jc;
        }
        l0 += lc;
    }
}

/// `(m, n, k)` of `A[m,k] * B[n,k]^T`, panicking on disagreement.
fn nt_dims(a: &Matrix, b: &Matrix) -> (usize, usize, usize) {
    let (m, k) = a.shape();
    let (n, kb) = b.shape();
    assert_eq!(
        k, kb,
        "gemm_nt: inner dimensions disagree (A is {m}x{k}, B^T is {kb}x{n})"
    );
    (m, n, k)
}

/// `(m, n, k)` of `A[m,k] * B[k,n]`, panicking on disagreement.
fn nn_dims(a: &Matrix, b: &Matrix) -> (usize, usize, usize) {
    let (m, k) = a.shape();
    let (kb, n) = b.shape();
    assert_eq!(
        k, kb,
        "gemm_nn: inner dimensions disagree (A is {m}x{k}, B is {kb}x{n})"
    );
    (m, n, k)
}

/// `(m, n, k)` of `A[k,m]^T * B[k,n]`, panicking on disagreement.
fn tn_dims(a: &Matrix, b: &Matrix) -> (usize, usize, usize) {
    let (k, m) = a.shape();
    let (kb, n) = b.shape();
    assert_eq!(
        k, kb,
        "gemm_tn: outer dimensions disagree (A^T is {m}x{k}, B is {kb}x{n})"
    );
    (m, n, k)
}

/// Packed `nt` with an explicit microkernel, sequential.  Hidden: the
/// property and digest tests use it to run every table's microkernel
/// on one machine; production code goes through [`gemm_nt_into`].
#[doc(hidden)]
pub fn gemm_nt_packed_with(a: &Matrix, b: &Matrix, c: &mut Matrix, micro: GemmMicro<f64>) {
    let (m, n, k) = nt_dims(a, b);
    c.resize(m, n);
    let (pa, pb) = (pack_rows(op(a), MR_SIMD), pack_rows(op(b), micro.nr));
    gemm_packed(m, n, k, pa, pb, c.as_mut_slice(), micro);
}

/// Packed `nn` with an explicit microkernel (see [`gemm_nt_packed_with`]).
#[doc(hidden)]
pub fn gemm_nn_packed_with(a: &Matrix, b: &Matrix, c: &mut Matrix, micro: GemmMicro<f64>) {
    let (m, n, k) = nn_dims(a, b);
    c.resize(m, n);
    let (pa, pb) = (pack_rows(op(a), MR_SIMD), pack_cols(op(b), micro.nr));
    gemm_packed(m, n, k, pa, pb, c.as_mut_slice(), micro);
}

/// Packed `tn` with an explicit microkernel (see [`gemm_nt_packed_with`]).
#[doc(hidden)]
pub fn gemm_tn_packed_with(a: &Matrix, b: &Matrix, c: &mut Matrix, micro: GemmMicro<f64>) {
    let (m, n, k) = tn_dims(a, b);
    c.resize(m, n);
    let (pa, pb) = (pack_cols(op(a), MR_SIMD), pack_cols(op(b), micro.nr));
    gemm_packed(m, n, k, pa, pb, c.as_mut_slice(), micro);
}

/// `C[m,n] = A[m,k] * B[n,k]^T` over row-major `f32` slices, `C`
/// overwritten: the packed driver with the dispatched f32 microkernel,
/// on every table.  Sequential (see the module docs).  Its error
/// against the f64 product is pure rounding, within the usual
/// `O(k·ε₃₂)` dot-product bound (`tests/simd_f32_proptests.rs`).
pub fn gemm_nt_f32(m: usize, n: usize, k: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
    gemm_nt_f32_with(m, n, k, a, b, c, f32::kernels().gemm_micro)
}

/// [`gemm_nt_f32`] with an explicit microkernel.  Hidden: the property
/// and digest tests use it to run every table's microkernel on one
/// machine.
#[doc(hidden)]
#[allow(clippy::too_many_arguments)]
pub fn gemm_nt_f32_with(
    m: usize,
    n: usize,
    k: usize,
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
    micro: GemmMicro<f32>,
) {
    assert_eq!(a.len(), m * k, "gemm_nt_f32: A is not {m}x{k}");
    assert_eq!(b.len(), n * k, "gemm_nt_f32: B^T is not {n}x{k}");
    assert_eq!(c.len(), m * n, "gemm_nt_f32: C is not {m}x{n}");
    let (pa, pb) = (pack_rows((a, k), MR_SIMD), pack_rows((b, k), micro.nr));
    gemm_packed(m, n, k, pa, pb, c, micro);
}

/// `C[m,n] = A[m,k] * B[n,k]^T` (B transposed: both row-major streams).
pub fn gemm_nt(a: &Matrix, b: &Matrix) -> Matrix {
    let mut c = Matrix::zeros(a.rows(), b.rows());
    gemm_nt_into(a, b, &mut c);
    c
}

/// [`gemm_nt`] into a caller-owned output (reshaped in place).
pub fn gemm_nt_into(a: &Matrix, b: &Matrix, c: &mut Matrix) {
    let (m, n, k) = nt_dims(a, b);
    c.resize(m, n);
    gemm_nt_slices(m, n, k, a.as_slice(), b.as_slice(), c.as_mut_slice());
}

/// [`gemm_nt_into`] over row-major slices: `C[m,n] = A[m,k] * B[n,k]^T`,
/// `C` overwritten, pooled like every f64 kernel.
pub fn gemm_nt_slices(m: usize, n: usize, k: usize, a: &[f64], b: &[f64], c: &mut [f64]) {
    assert_eq!(a.len(), m * k, "gemm_nt: A is not {m}x{k}");
    assert_eq!(b.len(), n * k, "gemm_nt: B^T is not {n}x{k}");
    assert_eq!(c.len(), m * n, "gemm_nt: C is not {m}x{n}");
    if let Some(micro) = packed_micro() {
        let (pa, pb) = (pack_rows((a, k), MR_SIMD), pack_rows((b, k), micro.nr));
        packed_driver(m, n, k, &pa, &pb, c, micro);
    } else {
        nt_striped(m, n, k, a, b, c);
    }
}

/// Scalar-arm `nt`: `MR`-aligned row stripes over the pool when the
/// shape clears the FLOP gate, one sequential [`nt_panel`] otherwise.
/// Stripe starts are multiples of `MR`, so each row keeps the
/// quad-tile/remainder classification it has in the sequential sweep
/// (quad rows hit [`micro_4x4`], remainder rows hit [`dot`]) — the
/// per-row value is partition-invariant, hence bit-identical.
fn nt_striped(m: usize, n: usize, k: usize, a: &[f64], b: &[f64], c: &mut [f64]) {
    let units = m.div_ceil(MR);
    let parts = par::active_threads().min(units.max(1));
    if parts <= 1 || !par::should_parallelize_gemm(m * n * k) {
        nt_panel(k, n, a, b, c, 0);
        return;
    }
    let base = par::SendPtr(c.as_mut_ptr());
    par::run(parts, &|w| {
        let u = par::stripe(units, parts, w);
        let r0 = (u.start * MR).min(m);
        let r1 = (u.end * MR).min(m);
        if r0 < r1 {
            // SAFETY: disjoint contiguous row ranges; region joins before
            // the borrow of `c` ends.
            let slab =
                unsafe { std::slice::from_raw_parts_mut(base.get().add(r0 * n), (r1 - r0) * n) };
            nt_panel(k, n, a, b, slab, r0);
        }
    });
}

/// The scalar blocked `nt` path, bypassing SIMD dispatch.  Hidden:
/// kept callable so the benches can report the pre-SIMD baseline.
#[doc(hidden)]
pub fn gemm_nt_blocked_scalar_into(a: &Matrix, b: &Matrix, c: &mut Matrix) {
    let (m, n, k) = nt_dims(a, b);
    c.resize(m, n);
    nt_panel(k, n, a.as_slice(), b.as_slice(), c.as_mut_slice(), 0);
}

/// The 4×4 register-tile inner product: `acc[i][j] = aᵢ · bⱼ` over one
/// `k`-block.  All eight operand slices are trimmed to a common length
/// up front so the bounds checks vanish from the unrolled loop.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn micro_4x4(
    a0: &[f64],
    a1: &[f64],
    a2: &[f64],
    a3: &[f64],
    b0: &[f64],
    b1: &[f64],
    b2: &[f64],
    b3: &[f64],
) -> [[f64; NR]; MR] {
    let lc = a0.len();
    let (a1, a2, a3) = (&a1[..lc], &a2[..lc], &a3[..lc]);
    let (b0, b1, b2, b3) = (&b0[..lc], &b1[..lc], &b2[..lc], &b3[..lc]);
    let (mut c00, mut c01, mut c02, mut c03) = (0.0f64, 0.0f64, 0.0f64, 0.0f64);
    let (mut c10, mut c11, mut c12, mut c13) = (0.0f64, 0.0f64, 0.0f64, 0.0f64);
    let (mut c20, mut c21, mut c22, mut c23) = (0.0f64, 0.0f64, 0.0f64, 0.0f64);
    let (mut c30, mut c31, mut c32, mut c33) = (0.0f64, 0.0f64, 0.0f64, 0.0f64);
    for i in 0..lc {
        let (x0, x1, x2, x3) = (a0[i], a1[i], a2[i], a3[i]);
        let (y0, y1, y2, y3) = (b0[i], b1[i], b2[i], b3[i]);
        c00 += x0 * y0;
        c01 += x0 * y1;
        c02 += x0 * y2;
        c03 += x0 * y3;
        c10 += x1 * y0;
        c11 += x1 * y1;
        c12 += x1 * y2;
        c13 += x1 * y3;
        c20 += x2 * y0;
        c21 += x2 * y1;
        c22 += x2 * y2;
        c23 += x2 * y3;
        c30 += x3 * y0;
        c31 += x3 * y1;
        c32 += x3 * y2;
        c33 += x3 * y3;
    }
    [
        [c00, c01, c02, c03],
        [c10, c11, c12, c13],
        [c20, c21, c22, c23],
        [c30, c31, c32, c33],
    ]
}

/// Blocked `nt` sweep over row-major `A` (`·×k`) and `B` (`n×k`)
/// writing output rows `[row0, row0 + c_panel.len()/n)`.
fn nt_panel(k: usize, n: usize, a: &[f64], b: &[f64], c_panel: &mut [f64], row0: usize) {
    let a_row = |r: usize| &a[r * k..(r + 1) * k];
    let b_row = |j: usize| &b[j * k..(j + 1) * k];
    if n == 0 || c_panel.is_empty() {
        return;
    }
    let rows_here = c_panel.len() / n;
    c_panel.fill(0.0);

    let mut l0 = 0;
    while l0 < k {
        let lc = KC.min(k - l0);
        let mut j0 = 0;
        while j0 < n {
            let j_end = j0 + NC.min(n - j0);
            let mut r = 0;
            while r + MR <= rows_here {
                let a0 = &a_row(row0 + r)[l0..l0 + lc];
                let a1 = &a_row(row0 + r + 1)[l0..l0 + lc];
                let a2 = &a_row(row0 + r + 2)[l0..l0 + lc];
                let a3 = &a_row(row0 + r + 3)[l0..l0 + lc];
                let mut j = j0;
                while j + NR <= j_end {
                    let b0 = &b_row(j)[l0..l0 + lc];
                    let b1 = &b_row(j + 1)[l0..l0 + lc];
                    let b2 = &b_row(j + 2)[l0..l0 + lc];
                    let b3 = &b_row(j + 3)[l0..l0 + lc];
                    let acc = micro_4x4(a0, a1, a2, a3, b0, b1, b2, b3);
                    for (ri, acc_row) in acc.iter().enumerate() {
                        let base = (r + ri) * n + j;
                        for (cv, av) in c_panel[base..base + NR].iter_mut().zip(acc_row) {
                            *cv += av;
                        }
                    }
                    j += NR;
                }
                // Column remainder: one B row against the four A rows.
                while j < j_end {
                    let bj = &b_row(j)[l0..l0 + lc];
                    c_panel[r * n + j] += dot(a0, bj);
                    c_panel[(r + 1) * n + j] += dot(a1, bj);
                    c_panel[(r + 2) * n + j] += dot(a2, bj);
                    c_panel[(r + 3) * n + j] += dot(a3, bj);
                    j += 1;
                }
                r += MR;
            }
            // Row remainder: plain dots over the current block.
            while r < rows_here {
                let ar = &a_row(row0 + r)[l0..l0 + lc];
                for j in j0..j_end {
                    c_panel[r * n + j] += dot(ar, &b_row(j)[l0..l0 + lc]);
                }
                r += 1;
            }
            j0 = j_end;
        }
        l0 += lc;
    }
}

/// `C[m,n] = A[m,k] * B[k,n]`.
pub fn gemm_nn(a: &Matrix, b: &Matrix) -> Matrix {
    let mut c = Matrix::zeros(a.rows(), b.cols());
    gemm_nn_into(a, b, &mut c);
    c
}

/// [`gemm_nn`] into a caller-owned output (reshaped in place).
pub fn gemm_nn_into(a: &Matrix, b: &Matrix, c: &mut Matrix) {
    let (m, n, k) = nn_dims(a, b);
    c.resize(m, n);
    if let Some(micro) = packed_micro() {
        let (pa, pb) = (pack_rows(op(a), MR_SIMD), pack_cols(op(b), micro.nr));
        packed_driver(m, n, k, &pa, &pb, c.as_mut_slice(), micro);
        return;
    }
    c.fill(0.0);
    if n == 0 {
        return;
    }
    if par::should_parallelize_gemm(m * n * k) {
        // Row stripes: each output row is an independent axpy
        // accumulation over A's row, so the partition is bit-identical.
        par::for_each_stripe_mut(c.as_mut_slice(), n, |off, c_rows| {
            let row0 = off / n;
            for (local_r, c_row) in c_rows.chunks_exact_mut(n).enumerate() {
                accumulate_row_nn(a.row(row0 + local_r), b, c_row);
            }
        });
    } else {
        for r in 0..m {
            // Split borrows: read A's row, write C's row.
            let a_row: &[f64] = a.row(r);
            let c_row = c.row_mut(r);
            accumulate_row_nn(a_row, b, c_row);
        }
    }
}

/// One output row of `gemm_nn`: `c_row += sum_l a_row[l] * B[l, :]`,
/// streaming B row-major.
#[inline]
fn accumulate_row_nn(a_row: &[f64], b: &Matrix, c_row: &mut [f64]) {
    for (l, &a_val) in a_row.iter().enumerate() {
        if a_val != 0.0 {
            axpy(c_row, a_val, b.row(l));
        }
    }
}

/// `C[m,n] = A[k,m]^T * B[k,n]` (outer-product accumulation over `k`).
pub fn gemm_tn(a: &Matrix, b: &Matrix) -> Matrix {
    let mut c = Matrix::zeros(a.cols(), b.cols());
    gemm_tn_into(a, b, &mut c);
    c
}

/// [`gemm_tn`] into a caller-owned output (reshaped in place).
pub fn gemm_tn_into(a: &Matrix, b: &Matrix, c: &mut Matrix) {
    let (m, n, k) = tn_dims(a, b);
    c.resize(m, n);
    if let Some(micro) = packed_micro() {
        let (pa, pb) = (pack_cols(op(a), MR_SIMD), pack_cols(op(b), micro.nr));
        packed_driver(m, n, k, &pa, &pb, c.as_mut_slice(), micro);
        return;
    }
    c.fill(0.0);
    if n == 0 {
        return;
    }
    if par::should_parallelize_gemm(m * n * k) && m >= 2 {
        // Each worker owns a stripe of output rows and scans the full
        // shared k dimension for them: no partial-C reduction needed,
        // and each row's l-ascending axpy chain matches the sequential
        // sweep exactly — bit-identical at any thread count.
        par::for_each_stripe_mut(c.as_mut_slice(), n, |off, c_rows| {
            let row0 = off / n;
            for l in 0..k {
                let a_row = a.row(l);
                let b_row = b.row(l);
                for (local_r, c_row) in c_rows.chunks_exact_mut(n).enumerate() {
                    let coeff = a_row[row0 + local_r];
                    if coeff != 0.0 {
                        axpy(c_row, coeff, b_row);
                    }
                }
            }
        });
    } else {
        for l in 0..k {
            let a_row = a.row(l);
            let b_row = b.row(l);
            for (r, &coeff) in a_row.iter().take(m).enumerate() {
                if coeff != 0.0 {
                    axpy(c.row_mut(r), coeff, b_row);
                }
            }
        }
    }
}

/// Naive triple-loop reference used by the tests to validate the blocked
/// kernels. Public so downstream crates' tests can reuse it.
pub fn gemm_reference(a: &Matrix, b: &Matrix) -> Matrix {
    let (m, k) = a.shape();
    let (kb, n) = b.shape();
    assert_eq!(k, kb);
    let mut c = Matrix::zeros(m, n);
    for r in 0..m {
        for j in 0..n {
            let mut acc = 0.0;
            for l in 0..k {
                acc += a.get(r, l) * b.get(l, j);
            }
            c.set(r, j, acc);
        }
    }
    c
}

/// Naive triple-loop f64-accumulated reference for [`gemm_nt_f32`]: the
/// "infinitely precise" answer the f32 kernel is bounded against.
pub fn gemm_nt_f32_reference(m: usize, n: usize, k: usize, a: &[f32], b: &[f32]) -> Vec<f64> {
    let mut c = vec![0.0f64; m * n];
    for r in 0..m {
        for j in 0..n {
            let mut acc = 0.0f64;
            for l in 0..k {
                acc += a[r * k + l] as f64 * b[j * k + l] as f64;
            }
            c[r * n + j] = acc;
        }
    }
    c
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mat(rows: usize, cols: usize, seed: u64) -> Matrix {
        // Small deterministic pseudo-random fill without pulling in rand.
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
        Matrix::from_fn(rows, cols, |_, _| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % 1000) as f64 / 500.0 - 1.0
        })
    }

    #[test]
    fn nt_matches_reference() {
        let a = mat(7, 5, 1);
        let b = mat(9, 5, 2);
        let c = gemm_nt(&a, &b);
        let c_ref = gemm_reference(&a, &b.transpose());
        assert!(c.max_abs_diff(&c_ref) < 1e-12);
    }

    #[test]
    fn nt_matches_reference_across_tile_remainders() {
        // Sweep shapes around the MR/NR/KC/NC boundaries so every
        // remainder path of the blocked loop nest is exercised.
        for &(m, n, k) in &[
            (1, 1, 1),
            (3, 3, 3),
            (4, 4, 4),
            (5, 7, 9),
            (8, 8, KC),
            (9, NC + 3, KC + 5),
            (MR * 3 + 2, NR * 5 + 1, 17),
        ] {
            let a = mat(m, k, m as u64 + 1);
            let b = mat(n, k, n as u64 + 100);
            let c = gemm_nt(&a, &b);
            let c_ref = gemm_reference(&a, &b.transpose());
            assert!(
                c.max_abs_diff(&c_ref) < 1e-10,
                "mismatch at shape ({m},{n},{k})"
            );
        }
    }

    #[test]
    fn into_variants_reuse_and_reshape_output() {
        let a = mat(6, 8, 3);
        let b_nt = mat(5, 8, 4);
        let b_nn = mat(8, 5, 5);
        let a_tn = mat(8, 6, 6);

        // Start from a wrong-shaped, dirty output buffer.
        let mut c = mat(2, 2, 9);
        gemm_nt_into(&a, &b_nt, &mut c);
        assert!(c.max_abs_diff(&gemm_nt(&a, &b_nt)) == 0.0);

        gemm_nn_into(&a, &b_nn, &mut c);
        assert!(c.max_abs_diff(&gemm_nn(&a, &b_nn)) == 0.0);

        gemm_tn_into(&a_tn, &b_nn, &mut c);
        assert!(c.max_abs_diff(&gemm_tn(&a_tn, &b_nn)) == 0.0);
    }

    #[test]
    fn nn_matches_reference() {
        let a = mat(6, 8, 3);
        let b = mat(8, 4, 4);
        let c = gemm_nn(&a, &b);
        let c_ref = gemm_reference(&a, &b);
        assert!(c.max_abs_diff(&c_ref) < 1e-12);
    }

    #[test]
    fn tn_matches_reference() {
        let a = mat(8, 6, 5);
        let b = mat(8, 3, 6);
        let c = gemm_tn(&a, &b);
        let c_ref = gemm_reference(&a.transpose(), &b);
        assert!(c.max_abs_diff(&c_ref) < 1e-12);
    }

    #[test]
    fn large_parallel_paths_match_reference() {
        // Big enough to cross PAR_GEMM_MIN_FLOPS (m*n*k >= 2^20) so the
        // pool branches of all three kernels actually fire under
        // with_threads.  Results must match the reference loosely and
        // the sequential sweep *bitwise* at every thread count.
        let a = mat(160, 96, 7);
        let b_nt = mat(112, 96, 8);
        let b_nn = mat(96, 112, 9);
        let a_tn = mat(96, 160, 10);
        assert!(160 * 112 * 96 >= par::PAR_GEMM_MIN_FLOPS);

        let seq_nt = par::with_threads(1, || gemm_nt(&a, &b_nt));
        let seq_nn = par::with_threads(1, || gemm_nn(&a, &b_nn));
        let seq_tn = par::with_threads(1, || gemm_tn(&a_tn, &b_nn));
        assert!(seq_nt.max_abs_diff(&gemm_reference(&a, &b_nt.transpose())) < 1e-10);
        assert!(seq_nn.max_abs_diff(&gemm_reference(&a, &b_nn)) < 1e-10);
        assert!(seq_tn.max_abs_diff(&gemm_reference(&a_tn.transpose(), &b_nn)) < 1e-10);

        for threads in [2, 3, 4, 8] {
            let (p_nt, p_nn, p_tn) = par::with_threads(threads, || {
                (gemm_nt(&a, &b_nt), gemm_nn(&a, &b_nn), gemm_tn(&a_tn, &b_nn))
            });
            for (seq, par_c, name) in [
                (&seq_nt, &p_nt, "nt"),
                (&seq_nn, &p_nn, "nn"),
                (&seq_tn, &p_tn, "tn"),
            ] {
                assert!(
                    seq.as_slice()
                        .iter()
                        .zip(par_c.as_slice())
                        .all(|(x, y)| x.to_bits() == y.to_bits()),
                    "{name} not bit-identical at {threads} threads"
                );
            }
        }
    }

    #[test]
    fn degenerate_shapes() {
        let a = Matrix::zeros(0, 5);
        let b = Matrix::zeros(3, 5);
        let c = gemm_nt(&a, &b);
        assert_eq!(c.shape(), (0, 3));

        let a = Matrix::zeros(4, 0);
        let b = Matrix::zeros(3, 0);
        let c = gemm_nt(&a, &b);
        assert_eq!(c.shape(), (4, 3));
        assert!(c.as_slice().iter().all(|&v| v == 0.0));

        let a = mat(1, 1, 11);
        let b = mat(1, 1, 12);
        let c = gemm_nt(&a, &b);
        assert!((c.get(0, 0) - a.get(0, 0) * b.get(0, 0)).abs() < 1e-15);
    }

    fn fill_f32(len: usize, seed: u64) -> Vec<f32> {
        mat(1, len, seed)
            .as_slice()
            .iter()
            .map(|&v| v as f32)
            .collect()
    }

    /// `|C - C_ref| ≤ 2k²·ε₃₂` — the standard `γ_k·Σ|aᵢbᵢ|` dot bound
    /// with operands in [-1, 1] (so `Σ|aᵢbᵢ| ≤ k`), doubled for slack.
    #[test]
    fn nt_f32_matches_reference_across_tile_remainders() {
        for &(m, n, k) in &[
            (1, 1, 1),
            (3, 3, 3),
            (8, 8, 8),
            (5, 7, 9),
            (9, 11, KC + 5),
            (MR_SIMD * 3 + 2, f32::kernels().gemm_micro.nr * 5 + 1, 17),
            (64, 33, 300),
        ] {
            let a = fill_f32(m * k, m as u64 + 1);
            let b = fill_f32(n * k, n as u64 + 100);
            let mut c = vec![0.0f32; m * n];
            gemm_nt_f32(m, n, k, &a, &b, &mut c);
            let kf = k as f64;
            let bound = (2.0 * kf * kf * f32::EPSILON as f64).max(1e-6);
            let c_ref = gemm_nt_f32_reference(m, n, k, &a, &b);
            for (i, (&cv, &rv)) in c.iter().zip(&c_ref).enumerate() {
                assert!(
                    (cv as f64 - rv).abs() <= bound,
                    "({m},{n},{k}) element {i}: {cv} vs {rv}"
                );
            }
        }
    }

    #[test]
    fn nt_f32_degenerate_shapes() {
        let mut c = vec![7.0f32; 6];
        gemm_nt_f32(2, 3, 0, &[], &[], &mut c);
        assert!(c.iter().all(|&v| v == 0.0));
        let mut empty: Vec<f32> = Vec::new();
        gemm_nt_f32(0, 3, 4, &[], &fill_f32(12, 1), &mut empty);
    }

    /// Runs `micro` on one `kc = 3` block with a tile of exactly
    /// `MR_SIMD·nr` NaNs: a body wider than `nr` panics at its length
    /// assert, a narrower one leaves NaN behind.  Small integer
    /// operands make every product exact, so each element must equal
    /// its dot product whatever the arm.
    fn assert_entry_width<E: PackedElem + From<i8> + Into<f64>>(
        label: &str,
        micro: GemmMicro<E>,
        nan: E,
        want_nr: usize,
    ) {
        let nr = micro.nr;
        assert_eq!(nr, want_nr, "{label}: tile width");
        assert!(MR_SIMD * nr <= TILE, "{label}: width {nr} overflows the tile buffer");
        let kc = 3;
        let ap: Vec<E> = (0..kc * MR_SIMD).map(|i| E::from((i % 7) as i8 - 3)).collect();
        let bp: Vec<E> = (0..kc * nr).map(|i| E::from((i % 5) as i8 - 2)).collect();
        let mut tile = vec![nan; MR_SIMD * nr];
        (micro.run)(kc, &ap, &bp, &mut tile);
        for (i, row) in tile.chunks_exact(nr).enumerate() {
            for (j, &got) in row.iter().enumerate() {
                let want: f64 = (0..kc)
                    .map(|p| ap[p * MR_SIMD + i].into() * bp[p * nr + j].into())
                    .sum();
                assert_eq!(got.into(), want, "{label}: tile[{i}][{j}]");
            }
        }
    }

    /// The width travels with the kernel: every published table's
    /// entry carries vectors per row × lane width of its stamp — one
    /// 256-bit vector (4 `f64`, 8 `f32`) on the portable and AVX2
    /// tables, two 512-bit vectors (16 `f64`, 32 `f32`) on AVX-512 —
    /// and fits the driver's tile buffer.
    #[test]
    fn every_table_entry_carries_its_stamp_width() {
        let tables = [
            ("portable", Some(f64::portable_kernels()), Some(f32::portable_kernels()), 4, 8),
            ("avx2", f64::table(Backend::Avx2Fma), f32::table(Backend::Avx2Fma), 4, 8),
            ("avx512", f64::table(Backend::Avx512), f32::table(Backend::Avx512), 16, 32),
        ];
        for (label, k64, k32, nr64, nr32) in tables {
            if let Some(k) = k64 {
                assert_entry_width(label, k.gemm_micro, f64::NAN, nr64);
            }
            if let Some(k) = k32 {
                assert_entry_width(label, k.gemm_micro, f32::NAN, nr32);
            }
        }
    }

    /// An entry whose `nr` is narrower than its body must stop at the
    /// kernel's length assert rather than write past the tile.
    #[test]
    #[should_panic(expected = "gemm_micro: slice lengths break the kernel contract")]
    fn an_entry_narrower_than_its_stamp_panics_in_the_kernel() {
        let widest = f64::table(Backend::Avx512)
            .or_else(|| f64::table(Backend::Avx2Fma))
            .unwrap_or(f64::portable_kernels())
            .gemm_micro;
        let narrow = GemmMicro {
            nr: widest.nr / 2,
            ..widest
        };
        let (a, b) = (mat(9, 5, 1), mat(40, 5, 2));
        let mut c = Matrix::zeros(0, 0);
        gemm_nt_packed_with(&a, &b, &mut c, narrow);
    }

    #[test]
    #[should_panic(expected = "inner dimensions")]
    fn nt_shape_mismatch_panics() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 4);
        let _ = gemm_nt(&a, &b);
    }
}
