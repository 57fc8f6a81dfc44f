//! Property tests for the unified batched sampling layer: coalesced
//! multi-request passes must be **bit-identical** — configurations and
//! `logψ` — to solo per-request sampling, and the MADE panel sampler's
//! two layouts must agree bit-for-bit.
//!
//! The verify skill runs this suite on both SIMD dispatch arms
//! (default and `VQMC_SIMD=off` / `--features vqmc/force-scalar`), so
//! the invariants are pinned across every kernel implementation.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use vqmc_nn::Made;
use vqmc_sampler::{BatchSampler, MadeBatchSampler, PanelLayout, SampleRequest};
use vqmc_tensor::{par, SpinBatch, Vector};

/// Request sizes derived from a seed (the vendored proptest stub has no
/// collection strategies). Sizes span 1..=11 so the coalesced row count
/// crosses the cols-path threshold in some cases and not in others.
fn request_list(nreq: usize, seed0: u64) -> Vec<SampleRequest> {
    (0..nreq)
        .map(|r| SampleRequest {
            count: 1 + ((seed0 >> (5 * r)) % 11) as usize,
            seed: seed0.wrapping_add(r as u64),
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// MADE: every request's rows in a coalesced pass match a solo
    /// `sample_stream` with that request's seed, bit for bit.
    #[test]
    fn made_coalesced_requests_match_solo_streams(
        n in 3usize..12,
        h in 2usize..16,
        model_seed in 0u64..500,
        nreq in 2usize..5,
        seed0 in 0u64..10_000,
    ) {
        let wf = Made::new(n, h, model_seed);
        let reqs = request_list(nreq, seed0);

        let mut bs = BatchSampler::new();
        let mut batch = SpinBatch::default();
        let mut log_psi = Vector::default();
        bs.sample_requests(&wf, &reqs, &mut batch, &mut log_psi);

        let mut offset = 0;
        for req in &reqs {
            let mut solo_b = SpinBatch::default();
            let mut solo_lp = Vector::default();
            MadeBatchSampler::new().sample_stream(
                &wf,
                req.count,
                &mut StdRng::seed_from_u64(req.seed),
                &mut solo_b,
                &mut solo_lp,
            );
            for s in 0..req.count {
                prop_assert_eq!(batch.sample(offset + s), solo_b.sample(s));
                prop_assert_eq!(log_psi[offset + s].to_bits(), solo_lp[s].to_bits());
            }
            offset += req.count;
        }
    }

    /// MADE: the row-major and transposed fused-kernel panel layouts
    /// produce bit-identical output on random shapes — so the `Auto`
    /// threshold dispatch is observationally invisible.
    #[test]
    fn made_forced_layouts_agree_on_random_shapes(
        n in 3usize..14,
        h in 2usize..18,
        model_seed in 0u64..500,
        nreq in 1usize..4,
        seed0 in 0u64..10_000,
    ) {
        let wf = Made::new(n, h, model_seed);
        let reqs = request_list(nreq, seed0);

        let mut row_b = SpinBatch::default();
        let mut row_lp = Vector::default();
        let mut sampler = MadeBatchSampler::new();
        sampler.force_layout(PanelLayout::Rows);
        sampler.sample_coalesced(&wf, &reqs, &mut row_b, &mut row_lp);

        let mut col_b = SpinBatch::default();
        let mut col_lp = Vector::default();
        let mut sampler = MadeBatchSampler::new();
        sampler.force_layout(PanelLayout::Cols);
        sampler.sample_coalesced(&wf, &reqs, &mut col_b, &mut col_lp);

        prop_assert_eq!(row_b.as_bytes(), col_b.as_bytes());
        for s in 0..row_lp.len() {
            prop_assert_eq!(row_lp[s].to_bits(), col_lp[s].to_bits());
        }
    }

    /// MADE cols path (the pool-parallel arm): configurations and `logψ`
    /// are **bit-identical at every thread count** — the per-worker
    /// panel stripes and the pre-drawn variates must be observationally
    /// invisible.
    #[test]
    fn made_sampling_bit_identical_across_thread_counts(
        n in 3usize..14,
        h in 2usize..18,
        model_seed in 0u64..500,
        count in 16usize..160,
        seed in 0u64..10_000,
    ) {
        let wf = Made::new(n, h, model_seed);
        let run = |threads: usize| {
            par::with_threads(threads, || {
                let mut sampler = MadeBatchSampler::new();
                sampler.force_layout(PanelLayout::Cols);
                let mut b = SpinBatch::default();
                let mut lp = Vector::default();
                sampler.sample_stream(
                    &wf,
                    count,
                    &mut StdRng::seed_from_u64(seed),
                    &mut b,
                    &mut lp,
                );
                (b, lp)
            })
        };
        let seq = run(1);
        for threads in [2usize, 4, 8] {
            let par_out = run(threads);
            prop_assert_eq!(par_out.0.as_bytes(), seq.0.as_bytes(), "bits at {} threads", threads);
            for s in 0..count {
                prop_assert_eq!(par_out.1[s].to_bits(), seq.1[s].to_bits());
            }
        }
    }
    /// Deep MADE stacks (depth 2): every request's rows in a coalesced
    /// pass match a solo `sample_stream` with that request's seed, bit
    /// for bit — the deep panel pipeline preserves the invariant the
    /// serving layer depends on.
    #[test]
    fn deep_made_coalesced_requests_match_solo_streams(
        n in 3usize..12,
        h1 in 3usize..14,
        h2 in 2usize..10,
        model_seed in 0u64..500,
        nreq in 2usize..5,
        seed0 in 0u64..10_000,
    ) {
        let wf = Made::with_hidden(n, &[h1, h2], model_seed);
        let reqs = request_list(nreq, seed0);

        let mut bs = BatchSampler::new();
        let mut batch = SpinBatch::default();
        let mut log_psi = Vector::default();
        bs.sample_requests(&wf, &reqs, &mut batch, &mut log_psi);

        let mut offset = 0;
        for req in &reqs {
            let mut solo_b = SpinBatch::default();
            let mut solo_lp = Vector::default();
            MadeBatchSampler::new().sample_stream(
                &wf,
                req.count,
                &mut StdRng::seed_from_u64(req.seed),
                &mut solo_b,
                &mut solo_lp,
            );
            for s in 0..req.count {
                prop_assert_eq!(batch.sample(offset + s), solo_b.sample(s));
                prop_assert_eq!(log_psi[offset + s].to_bits(), solo_lp[s].to_bits());
            }
            offset += req.count;
        }
    }

    /// Deep MADE stacks: configurations and `logψ` are bit-identical
    /// at every thread count, like the depth-1 cols path.
    #[test]
    fn deep_made_sampling_bit_identical_across_thread_counts(
        n in 3usize..12,
        h1 in 3usize..14,
        h2 in 2usize..10,
        model_seed in 0u64..500,
        count in 16usize..120,
        seed in 0u64..10_000,
    ) {
        let wf = Made::with_hidden(n, &[h1, h2], model_seed);
        let run = |threads: usize| {
            par::with_threads(threads, || {
                let mut sampler = MadeBatchSampler::new();
                let mut b = SpinBatch::default();
                let mut lp = Vector::default();
                sampler.sample_stream(
                    &wf,
                    count,
                    &mut StdRng::seed_from_u64(seed),
                    &mut b,
                    &mut lp,
                );
                (b, lp)
            })
        };
        let seq = run(1);
        for threads in [2usize, 4, 8] {
            let par_out = run(threads);
            prop_assert_eq!(par_out.0.as_bytes(), seq.0.as_bytes(), "bits at {} threads", threads);
            for s in 0..count {
                prop_assert_eq!(par_out.1[s].to_bits(), seq.1[s].to_bits());
            }
        }
    }
}

/// The acceptance training shape (rows = 16384): one deterministic pass
/// through the cols path at 1/2/4/8 threads must agree bit-for-bit.
/// Moderate hidden size keeps the debug-mode runtime reasonable; the
/// stripe arithmetic being exercised is identical at any `h`.
#[test]
fn training_shape_sampling_bit_identical_across_thread_counts() {
    let n = 16;
    let wf = Made::new(n, 24, 41);
    let count = 16_384;
    let run = |threads: usize| {
        par::with_threads(threads, || {
            let mut sampler = MadeBatchSampler::new();
            sampler.force_layout(PanelLayout::Cols);
            let mut b = SpinBatch::default();
            let mut lp = Vector::default();
            sampler.sample_stream(
                &wf,
                count,
                &mut StdRng::seed_from_u64(2021),
                &mut b,
                &mut lp,
            );
            (b, lp)
        })
    };
    let seq = run(1);
    for threads in [2usize, 4, 8] {
        let par_out = run(threads);
        assert_eq!(par_out.0.as_bytes(), seq.0.as_bytes(), "bits at {threads} threads");
        assert!(
            par_out
                .1
                .as_slice()
                .iter()
                .zip(seq.1.as_slice())
                .all(|(a, b)| a.to_bits() == b.to_bits()),
            "logψ differs at {threads} threads"
        );
    }
}
