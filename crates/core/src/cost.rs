//! Flop and byte accounting for VQMC iterations — the inputs to the
//! virtual cluster's modelled clock (paper §4's complexity analysis,
//! made executable).
//!
//! All counts are *dense-kernel* flops (multiply-adds counted as 2).
//! The constants match the paper's `O(h·n)` -per-forward-pass analysis;
//! absolute values only shift modelled times by a constant that cancels
//! in every normalised figure.

/// Flops of one MADE/RBM forward pass over `bs` samples: two dense
/// `n×h` layers, `2·n·h` multiply-adds each.
pub fn forward_flops(bs: usize, n: usize, h: usize) -> f64 {
    4.0 * (bs * n * h) as f64
}

/// Flops of one backward pass (canonical 2× the forward).
pub fn backward_flops(bs: usize, n: usize, h: usize) -> f64 {
    2.0 * forward_flops(bs, n, h)
}

/// Flops of AUTO sampling a batch: Algorithm 1's `n` sequential forward
/// passes (the naive paper-accounted cost).
pub fn auto_sampling_flops(bs: usize, n: usize, h: usize) -> f64 {
    n as f64 * forward_flops(bs, n, h)
}

/// Flops of AUTO sampling with the incremental hidden-state cache:
/// `O(h)` per revealed bit per sample, i.e. one forward pass total.
pub fn auto_sampling_flops_incremental(bs: usize, n: usize, h: usize) -> f64 {
    forward_flops(bs, n, h)
}

/// Flops of MCMC sampling: `steps` lock-step sweeps of `chains` chains,
/// each sweep one batched forward pass of `chains` configurations.
pub fn mcmc_sampling_flops(chains: usize, steps: usize, n: usize, h: usize) -> f64 {
    steps as f64 * forward_flops(chains, n, h)
}

/// Sweeps an MCMC run needs to deliver `bs` samples with `chains`
/// chains, burn-in `k` and thinning `j` (the paper's `k + bs·j/c`).
pub fn mcmc_steps(bs: usize, chains: usize, k: usize, j: usize) -> usize {
    k + bs.div_ceil(chains) * j
}

/// Flops of the local-energy measurement for a Hamiltonian with
/// `offdiag` single-flip connections per row (TIM: `n`; Max-Cut: 0):
/// one forward pass over the batch plus one over all neighbours, plus
/// the `O(n²)`-per-sample dense-coupling diagonal.
pub fn measurement_flops(bs: usize, n: usize, h: usize, offdiag: usize) -> f64 {
    let neighbour = forward_flops(bs * offdiag, n, h);
    let own = forward_flops(bs, n, h);
    let diagonal = 2.0 * (bs * n * n) as f64;
    neighbour + own + diagonal
}

/// Modelled device time for a phase of `passes` batched forward/backward
/// passes moving `flops` total flops: every pass pays the fixed launch
/// overhead, and the flops stream at the device's sustained rate.
///
/// This two-term model is what reproduces the paper's Table 1: at its
/// problem sizes the per-pass flops are far too small to hide the launch
/// overhead, so time ≈ `passes × overhead` — hence MCMC's `k + bs/c`
/// passes cost an order of magnitude more than AUTO's `n`, even though
/// AUTO moves more flops in total.
pub fn modelled_pass_time(passes: usize, flops: f64, spec: &vqmc_cluster::DeviceSpec) -> f64 {
    passes as f64 * spec.pass_overhead_secs + flops / spec.flops_per_sec
}

/// Bytes moved per device by the gradient allreduce (`d` doubles).
pub fn allreduce_bytes(num_params: usize) -> usize {
    num_params * std::mem::size_of::<f64>()
}

/// Communication volumes (bytes per training iteration) of the two
/// parallelisation avenues of the paper's §4, for a direct comparison:
///
/// * **data parallel** — one `d = 2hn + h + n` gradient allreduce;
/// * **model parallel** (the hidden layer sharded across devices) — one
///   `bs × n` logit allreduce per forward pass: `n + 1` passes for
///   sampling (Algorithm 1) plus the measurement's neighbour pass over
///   `bs·offdiag` rows.
///
/// Returns `(data-parallel bytes, model-parallel bytes)`.
pub fn comm_comparison(
    n: usize,
    h: usize,
    bs: usize,
    offdiag: usize,
) -> (usize, usize) {
    let f = std::mem::size_of::<f64>();
    let data = (2 * h * n + h + n) * f;
    let sampling_passes = n + 1;
    let model = (sampling_passes * bs * n + bs * offdiag * n) * f;
    (data, model)
}

/// Total flops of one AUTO training iteration on one device (sampling +
/// measurement + backward) — the paper's per-GPU `O(h·n²·mbs)`.
pub fn auto_iteration_flops(mbs: usize, n: usize, h: usize, offdiag: usize) -> f64 {
    auto_sampling_flops(mbs, n, h)
        + measurement_flops(mbs, n, h, offdiag)
        + backward_flops(mbs, n, h)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_scaling() {
        assert_eq!(forward_flops(2, 10, 5), 400.0);
        // Linear in each factor.
        assert_eq!(forward_flops(4, 10, 5), 2.0 * forward_flops(2, 10, 5));
    }

    #[test]
    fn auto_iteration_is_order_h_n2_mbs() {
        // Doubling n should roughly quadruple the AUTO iteration cost
        // (the n² of the paper's Eq. 15 numerator).
        let base = auto_iteration_flops(16, 100, 50, 100);
        let doubled = auto_iteration_flops(16, 200, 50, 200);
        let ratio = doubled / base;
        assert!((3.5..4.5).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn mcmc_step_model_matches_figure1() {
        // k + (bs/c)·j.
        assert_eq!(mcmc_steps(1024, 2, 400, 1), 400 + 512);
        assert_eq!(mcmc_steps(10, 3, 5, 2), 5 + 4 * 2);
    }

    #[test]
    fn incremental_auto_saves_factor_n() {
        let naive = auto_sampling_flops(8, 256, 32);
        let incr = auto_sampling_flops_incremental(8, 256, 32);
        assert_eq!(naive / incr, 256.0);
    }

    #[test]
    fn maxcut_measurement_has_no_neighbour_term() {
        let with = measurement_flops(10, 50, 20, 50);
        let without = measurement_flops(10, 50, 20, 0);
        assert!(with > 10.0 * without);
    }

    #[test]
    fn allreduce_bytes_is_8d() {
        assert_eq!(allreduce_bytes(1000), 8000);
    }

    #[test]
    fn comm_crossover_favors_data_parallel_at_large_batch() {
        // Model parallelism ships bs×n per pass; data parallelism ships
        // d once. For the paper's single-GPU setup (bs = 1024) data
        // parallelism moves far fewer bytes...
        let (data, model) = comm_comparison(500, 193, 1024, 500);
        assert!(model > 10 * data);
        // ...but at mbs = 4 with a huge model the gap narrows by orders
        // of magnitude (the regime where sharding pays for memory).
        let (data_large, model_large) = comm_comparison(10_000, 424, 4, 10_000);
        let ratio_small = model as f64 / data as f64;
        let ratio_large = model_large as f64 / data_large as f64;
        assert!(ratio_large < ratio_small / 10.0);
    }
}
