//! The MADE forward pass reuses the row before: where a row shares its
//! first bits with its predecessor, every unit and logit that reads
//! only those bits is copied, and the rest recomputed by gathered
//! GEMMs.  That must not move a bit.
//!
//! A one-row batch has no predecessor, so it always runs the dense
//! pass: it is the oracle.  Every batch below — the local-energy
//! engine's neighbour batches (all flips, and with some `αᵢ = 0`),
//! duplicated rows, sorted rows, random rows, and the 0- and 1-row
//! batches — must give, row for row, the bits of its rows evaluated one
//! at a time.  The grid is `n ∈ {1, 2, 5, 64, 300}` (300 runs past one
//! `KC = 256` GEMM block), depths 1–3, `f64` and `f32`, at 1, 2 and 4
//! pool threads.
//!
//! The packed GEMM computes each entry alone, so the oracle holds for
//! `f32` on every table and for `f64` on the vector tables.  The
//! portable `f64` GEMM rounds its full 4×4 tiles and remainder dots
//! differently, so there a row's bits depend on its position and batch
//! size; the forward pass never reuses rows on that table, and the
//! `f64` half of the oracle is skipped (`VQMC_SIMD=off`,
//! `force-scalar`).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use vqmc::hamiltonian::{
    local_energies_into, LocalEnergyConfig, LocalEnergyScratch, TransverseFieldIsing,
};
use vqmc::nn::{Autoregressive, Made, MadeF32, MadeF32Workspace, MadeWorkspace, WaveFunction};
use vqmc::tensor::{gemm, par, SpinBatch, Vector};

/// `(spins, hidden widths)`: every depth at every `n`, wide enough at
/// small `n` that every degree class is populated, narrow at `n = 300`.
fn models() -> Vec<Made> {
    let mut out = Vec::new();
    for (n, w) in [(1usize, 3usize), (2, 4), (5, 9), (64, 40), (300, 48)] {
        for depth in 1..=3 {
            let hidden: Vec<usize> = [w, w * 3 / 4, w / 2][..depth].to_vec();
            out.push(Made::with_hidden(n, &hidden, 7 + n as u64 + depth as u64));
        }
    }
    out
}

fn random_rows(rows: usize, n: usize, rng: &mut StdRng) -> SpinBatch {
    SpinBatch::from_fn(rows, n, |_, _| rng.gen_range(0..2u32) as u8)
}

/// The neighbour batches the local-energy engine hands its evaluator,
/// in the order it emits them.
fn neighbour_batches(
    h: &TransverseFieldIsing,
    batch: &SpinBatch,
    chunk_rows: usize,
) -> Vec<SpinBatch> {
    let mut seen = Vec::new();
    let log_psi_x = Vector::zeros(batch.batch_size());
    let mut capture = |b: &SpinBatch, out: &mut Vector| {
        seen.push(b.clone());
        out.resize(b.batch_size());
        out.fill(0.0);
    };
    local_energies_into(
        h,
        batch,
        &log_psi_x,
        &mut capture,
        LocalEnergyConfig { chunk_rows },
        &mut LocalEnergyScratch::new(),
        &mut Vector::default(),
    );
    seen
}

/// Every batch kind for an `n`-spin model.
fn batches(n: usize, seed: u64) -> Vec<(String, SpinBatch)> {
    let mut rng = StdRng::seed_from_u64(seed);
    // At n = 5 and 64 the neighbours span two and three forward windows
    // (1 024 rows each), which run on different workers at two threads
    // and more.
    let count = match n {
        5 => 220,
        64 => 40,
        n if n > 64 => 3,
        _ => 9,
    };
    let samples = random_rows(count, n, &mut rng);
    let mut out = Vec::new();
    let tim = TransverseFieldIsing::random(n, seed);
    for (i, b) in neighbour_batches(&tim, &samples, 1 << 20)
        .into_iter()
        .enumerate()
    {
        out.push((format!("neighbours[{i}]"), b));
    }
    // Chunks cut samples apart: a chunk's first row has no predecessor.
    let chunk = (2 * n).saturating_sub(3).max(1);
    for (i, b) in neighbour_batches(&tim, &samples, chunk)
        .into_iter()
        .enumerate()
    {
        out.push((format!("neighbour chunk[{i}]"), b));
    }
    // Some transverse fields zero: flips go missing from each sample's run.
    let alpha = Vector::from_fn(n, |i| if i % 3 == 1 { 0.0 } else { tim.alpha()[i] });
    let sparse = TransverseFieldIsing::new(alpha, tim.beta().clone(), tim.couplings().clone());
    for (i, b) in neighbour_batches(&sparse, &samples, 1 << 20)
        .into_iter()
        .enumerate()
    {
        out.push((format!("missing flips[{i}]"), b));
    }
    let random = random_rows(37, n, &mut rng);
    let dup = SpinBatch::from_fn(3 * 13, n, |s, i| random.sample(s / 3)[i]);
    out.push(("duplicated".into(), dup));
    let mut rows: Vec<Vec<u8>> = random.samples().map(<[u8]>::to_vec).collect();
    rows.sort();
    out.push((
        "sorted".into(),
        SpinBatch::from_fn(rows.len(), n, |s, i| rows[s][i]),
    ));
    out.push(("random".into(), random));
    out.push(("empty".into(), SpinBatch::zeros(0, n)));
    out.push(("one row".into(), random_rows(1, n, &mut rng)));
    out
}

fn bits(v: &Vector) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// `eval` over the whole batch, against `eval` row by row.
fn assert_rowwise(label: &str, batch: &SpinBatch, mut eval: impl FnMut(&SpinBatch) -> Vector) {
    let whole = bits(&eval(batch));
    assert_eq!(whole.len(), batch.batch_size(), "{label}");
    for (s, got) in whole.iter().enumerate() {
        let row = SpinBatch::from_fn(1, batch.num_spins(), |_, i| batch.sample(s)[i]);
        let want = bits(&eval(&row))[0];
        assert_eq!(
            *got,
            want,
            "{label}: row {s} is {} in the batch, {} alone",
            f64::from_bits(*got),
            f64::from_bits(want)
        );
    }
}

#[test]
fn batch_log_psi_is_row_by_row_bitwise() {
    let f64_entrywise = gemm::nt_is_entrywise();
    for made in models() {
        let n = made.layers()[0].in_dim();
        let m32 = MadeF32::for_log_psi(&made);
        let batches = batches(n, 3 + made.depth() as u64);
        for threads in [1, 2, 4] {
            par::with_threads(threads, || {
                // One workspace per precision across every batch, as a
                // trainer or server holds it.
                let (mut ws64, mut ws32) = (MadeWorkspace::new(), MadeF32Workspace::new());
                for (kind, batch) in &batches {
                    let label = format!("n={n} depth={} t={threads} {kind}", made.depth());
                    if f64_entrywise {
                        assert_rowwise(&format!("f64 {label}"), batch, |b| {
                            let mut out = Vector::default();
                            made.log_psi_with(b, &mut ws64, &mut out);
                            out
                        });
                    }
                    assert_rowwise(&format!("f32 {label}"), batch, |b| {
                        let mut out = Vector::default();
                        m32.log_psi_into(b, &mut ws32, &mut out);
                        out
                    });
                }
            });
        }
    }
}

/// The training pass keeps every activation (`forward_with`): the
/// conditionals and the per-sample gradients, which read each row's
/// input, pre-activations and ReLUs, must also be the row's own bits —
/// here over neighbour batches that span three forward windows, and over
/// duplicated rows, the shape of a collapsed sample batch.
#[test]
fn kept_activations_are_row_by_row_bitwise() {
    if !gemm::nt_is_entrywise() {
        return;
    }
    let (n, samples) = (32usize, 70usize);
    let mut rng = StdRng::seed_from_u64(9);
    let tim = TransverseFieldIsing::random(n, 9);
    let mut kinds = neighbour_batches(&tim, &random_rows(samples, n, &mut rng), 1 << 20);
    let random = random_rows(50, n, &mut rng);
    kinds.push(SpinBatch::from_fn(150, n, |s, i| random.sample(s / 3)[i]));
    for depth in 1..=3 {
        let made = Made::with_hidden(n, &[24, 18, 12][..depth], depth as u64);
        for batch in &kinds {
            let row = |s: usize| SpinBatch::from_fn(1, n, |_, i| batch.sample(s)[i]);
            for threads in [1, 2] {
                par::with_threads(threads, || {
                    let cond = made.conditionals(batch);
                    let grads = made.per_sample_grads(batch);
                    for s in 0..batch.batch_size() {
                        let (c1, g1) = (made.conditionals(&row(s)), made.per_sample_grads(&row(s)));
                        let same = |a: &[f64], b: &[f64]| {
                            a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
                        };
                        assert!(
                            same(cond.row(s), c1.row(0)),
                            "depth {depth} t={threads}: conditionals of row {s}"
                        );
                        assert!(
                            same(grads.row(s), g1.row(0)),
                            "depth {depth} t={threads}: gradient of row {s}"
                        );
                    }
                });
            }
        }
    }
}
