//! Bit-identity of the sample-tiled sparse diagonal.
//!
//! The tiled `pair_energy_batch_into` must equal the per-sample scalar
//! oracle `pair_energy` **bitwise** — not within a tolerance — for any
//! finite weights: the kernel flips signs where the oracle multiplies by
//! ±1 and otherwise performs the same adds in the same order.  Weights
//! span 1e-200..1e200 with both signs and signed zeros so that any
//! change of summation order would show up as a rounding difference.
//! Every case runs at 1, 2 and 4 pool threads.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use vqmc_hamiltonian::{Couplings, MaxCut, SparseRowHamiltonian};
use vqmc_tensor::{par, SpinBatch, Vector, Workspace};

const THREADS: [usize; 3] = [1, 2, 4];

/// A weight of random sign and magnitude 1e-200..1e200, or ±0.0.
fn weight(rng: &mut StdRng) -> f64 {
    let sign = if rng.gen::<bool>() { -1.0 } else { 1.0 };
    match rng.gen_range(0..10u32) {
        0 => sign * 0.0,
        _ => sign * 10f64.powf(rng.gen_range(-200.0..200.0)),
    }
}

type Edges = Vec<(usize, usize, f64)>;

/// Edge lists: empty, complete, and a ~30 % random graph.  Orientation
/// is randomised so construction has to normalise it.
fn graphs(n: usize, rng: &mut StdRng) -> [(&'static str, Edges); 3] {
    let mut complete = Vec::new();
    let mut random = Vec::new();
    for i in 0..n {
        for j in (i + 1)..n {
            let e = if rng.gen::<bool>() { (i, j) } else { (j, i) };
            complete.push((e.0, e.1, weight(rng)));
            if rng.gen::<f64>() < 0.3 {
                random.push((e.0, e.1, weight(rng)));
            }
        }
    }
    [
        ("empty", Vec::new()),
        ("complete", complete),
        ("random", random),
    ]
}

fn random_batch(bs: usize, n: usize, rng: &mut StdRng) -> SpinBatch {
    SpinBatch::from_fn(bs, n, |_, _| rng.gen_range(0..2u32) as u8)
}

fn oracle(c: &Couplings, batch: &SpinBatch) -> Vec<u64> {
    batch
        .samples()
        .map(|x| {
            let sigma: Vec<f64> = x.iter().map(|&b| 1.0 - 2.0 * b as f64).collect();
            c.pair_energy(&sigma).to_bits()
        })
        .collect()
}

fn bits(v: &Vector) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

#[test]
fn tiled_pair_energy_is_bitwise_the_scalar_oracle() {
    let mut rng = StdRng::seed_from_u64(0xD1A6);
    for n in [1usize, 2, 63, 64, 65, 300] {
        for (family, edges) in graphs(n, &mut rng) {
            let c = Couplings::sparse_from_edges(n, &edges);
            for bs in [0usize, 1, 15, 16, 17, 100] {
                let batch = random_batch(bs, n, &mut rng);
                let want = oracle(&c, &batch);
                for t in THREADS {
                    // A warm, dirty workspace and output must not leak
                    // into the result.
                    let mut ws = Workspace::new();
                    let mut out = Vector::full(bs + 3, f64::NAN);
                    par::with_threads(t, || {
                        c.pair_energy_batch_into(&batch, &mut ws, &mut out);
                        c.pair_energy_batch_into(&batch, &mut ws, &mut out);
                    });
                    assert_eq!(
                        bits(&out),
                        want,
                        "n={n} {family} ({} edges) batch={bs} threads={t}",
                        edges.len()
                    );
                }
            }
        }
    }
}

#[test]
fn maxcut_diagonal_batch_is_exactly_minus_cut() {
    let mut rng = StdRng::seed_from_u64(0xC07);
    for (n, seed) in [(1usize, 1u64), (17, 2), (64, 3), (70, 4), (257, 5)] {
        let mc = MaxCut::random(n, seed);
        for bs in [1usize, 16, 40, 133] {
            let batch = random_batch(bs, n, &mut rng);
            for t in THREADS {
                let d = par::with_threads(t, || mc.diagonal_batch(&batch));
                // Exact in value (a zero cut may come out as +0.0 here
                // and -0.0 from the scalar `diagonal`).
                for (s, x) in batch.samples().enumerate() {
                    assert_eq!(
                        d[s],
                        -(mc.cut_value(x) as f64),
                        "n={n} batch={bs} sample={s} threads={t}"
                    );
                }
            }
        }
    }
}
