//! Model parallelisation of MADE — the paper's §4 avenue (1), which it
//! describes but leaves unexplored ("we restrict our attention to only
//! parallelizing the sampling step").  Implemented here as the natural
//! follow-up study.
//!
//! ## Sharding scheme
//!
//! The hidden layer is split across `L` devices: device `r` owns a
//! contiguous block of hidden units — the corresponding **rows** of
//! `W₁` (and of `b₁`) and **columns** of `W₂`.  With the input batch
//! replicated, the forward pass becomes
//!
//! ```text
//! Z₁⁽ʳ⁾ = X W₁⁽ʳ⁾ᵀ + b₁⁽ʳ⁾           (local)
//! H₁⁽ʳ⁾ = relu(Z₁⁽ʳ⁾)                 (local)
//! A     = Σᵣ H₁⁽ʳ⁾ W₂⁽ʳ⁾ᵀ  + b₂      (ONE allreduce of bs×n partials)
//! ```
//!
//! and — the interesting part — backprop needs **no further
//! communication**: once every device holds the summed logits `A`, the
//! output delta `δA` is computable redundantly everywhere, and every
//! sharded weight gradient (`dW₂⁽ʳ⁾ = δAᵀH₁⁽ʳ⁾`, `dW₁⁽ʳ⁾ = δZ₁⁽ʳ⁾ᵀX`)
//! is a purely local contraction.  The communication pattern is
//! therefore *one `bs×n` allreduce per forward pass* instead of data
//! parallelism's one `d`-vector allreduce per iteration — exactly the
//! "intimately linked with the choice of the autoregressive network"
//! coupling the paper predicted.  The [`comm_comparison`] helper
//! quantifies the crossover; the `model_parallel` bench sweeps it.
//!
//! Memory per device drops from `O(h·n)` to `O(h·n/L)`, which is the
//! avenue's whole point: it lifts the hidden-size ceiling the paper's
//! §4 memory discussion derives (h ≤ 500 at n = 10⁴ on one 32 GB card).

use vqmc_cluster::Cluster;
use vqmc_nn::masks::MaskKeys;
use vqmc_nn::{Made, WaveFunction};
use vqmc_tensor::{ops, Matrix, SpinBatch, Vector};

/// One device's slice of a MADE model (a block of hidden units).
#[derive(Clone, Debug)]
pub struct MadeShard {
    /// Shard index.
    pub rank: usize,
    /// Rows `[lo, hi)` of the hidden layer this shard owns.
    pub hidden_range: (usize, usize),
    /// `W₁` rows (hᵣ × n), pre-masked.
    pub w1_rows: Matrix,
    /// `b₁` slice (hᵣ).
    pub b1: Vector,
    /// `W₂` columns as an `n × hᵣ` matrix, pre-masked.
    pub w2_cols: Matrix,
    /// Rows `lo..hi` of the input mask's keys (gradients stay masked).
    pub mask1: MaskKeys,
    /// Columns `lo..hi` of the output mask's keys.
    pub mask2: MaskKeys,
}

/// The shared (replicated) remainder of the model: the output bias.
#[derive(Clone, Debug)]
pub struct MadeSharedParams {
    /// Output bias `b₂` (n), replicated on every device.
    pub b2: Vector,
}

/// A MADE split into `L` hidden-axis shards.
#[derive(Clone, Debug)]
pub struct ShardedMade {
    shards: Vec<MadeShard>,
    shared: MadeSharedParams,
    n: usize,
    h: usize,
}

impl ShardedMade {
    /// Splits a dense [`Made`] into `num_shards` contiguous hidden
    /// blocks (block sizes differ by at most one).
    pub fn from_made(made: &Made, num_shards: usize) -> Self {
        assert!(num_shards >= 1, "ShardedMade: zero shards");
        let h = made.hidden_size();
        let n = made.num_spins();
        assert!(
            num_shards <= h,
            "ShardedMade: more shards ({num_shards}) than hidden units ({h})"
        );
        // The hidden units' degrees: the input mask's row keys.
        let degrees = &made.layers()[0].layer_mask().keys().rows;
        let mut shards = Vec::with_capacity(num_shards);
        let base = h / num_shards;
        let extra = h % num_shards;
        let mut lo = 0;
        for rank in 0..num_shards {
            let size = base + usize::from(rank < extra);
            let hi = lo + size;
            let w1_rows = Matrix::from_fn(size, n, |k, d| made.w1().get(lo + k, d));
            let b1 = Vector::from_fn(size, |k| made.b1()[lo + k]);
            let w2_cols = Matrix::from_fn(n, size, |i, k| made.w2().get(i, lo + k));
            shards.push(MadeShard {
                rank,
                hidden_range: (lo, hi),
                w1_rows,
                b1,
                w2_cols,
                mask1: MaskKeys::input(n, &degrees[lo..hi]),
                mask2: MaskKeys::output(n, &degrees[lo..hi]),
            });
            lo = hi;
        }
        ShardedMade {
            shards,
            shared: MadeSharedParams {
                b2: made.b2().clone(),
            },
            n,
            h,
        }
    }

    /// Number of shards `L`.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Spin count.
    pub fn num_spins(&self) -> usize {
        self.n
    }

    /// Total hidden width.
    pub fn hidden_size(&self) -> usize {
        self.h
    }

    /// The shards (read access).
    pub fn shards(&self) -> &[MadeShard] {
        &self.shards
    }

    /// Parameter bytes held by the largest shard — the per-device
    /// memory the sharding is meant to shrink.
    pub fn max_shard_bytes(&self) -> usize {
        self.shards
            .iter()
            .map(|s| {
                (s.w1_rows.as_slice().len() + s.b1.len() + s.w2_cols.as_slice().len())
                    * std::mem::size_of::<f64>()
            })
            .max()
            .unwrap_or(0)
    }

    /// Distributed forward pass on the cluster: every device computes
    /// its partial logits in a real thread, the partials are combined by
    /// the tree allreduce (cost charged to the modelled clock), and the
    /// shared bias is added.  Returns the full logit matrix.
    pub fn logits_distributed(&self, cluster: &mut Cluster, batch: &SpinBatch) -> Matrix {
        assert_eq!(
            cluster.num_devices(),
            self.num_shards(),
            "cluster size must match shard count"
        );
        let x = batch.to_matrix();
        let bs = batch.batch_size();
        let partials: Vec<Vector> = cluster.run_round(|rank| {
            let shard = &self.shards[rank];
            let mut z1 = x.matmul_nt(&shard.w1_rows);
            z1.add_row_bias(&shard.b1);
            z1.map_inplace(ops::relu);
            let partial = z1.matmul_nt(&shard.w2_cols); // bs × n
            Vector(partial.into_vec())
        });
        // The allreduce returns the MEAN; rescale to the sum.
        let l = self.num_shards() as f64;
        let mut summed = cluster.allreduce_mean(partials);
        summed.scale(l);
        let mut logits = Matrix::from_vec(bs, self.n, summed.into_vec());
        logits.add_row_bias(&self.shared.b2);
        logits
    }

    /// Distributed `logψ` (forward + the per-sample Bernoulli
    /// log-likelihood, which is local once the logits are replicated).
    pub fn log_psi_distributed(&self, cluster: &mut Cluster, batch: &SpinBatch) -> Vector {
        let logits = self.logits_distributed(cluster, batch);
        Vector::from_fn(batch.batch_size(), |s| {
            let a_row = logits.row(s);
            0.5 * batch
                .sample(s)
                .iter()
                .zip(a_row)
                .map(|(&bit, &a)| {
                    if bit == 1 {
                        ops::log_sigmoid(a)
                    } else {
                        ops::log_one_minus_sigmoid(a)
                    }
                })
                .sum::<f64>()
        })
    }

    /// Distributed weighted gradient: after one forward allreduce, every
    /// shard computes its own weight gradients with **zero further
    /// communication**.  Returns per-shard `(dW₁ rows, db₁, dW₂ cols)`
    /// plus the replicated `db₂`.
    #[allow(clippy::type_complexity)]
    pub fn weighted_grad_distributed(
        &self,
        cluster: &mut Cluster,
        batch: &SpinBatch,
        weights: &Vector,
    ) -> (Vec<(Matrix, Vector, Matrix)>, Vector) {
        let bs = batch.batch_size();
        assert_eq!(weights.len(), bs);
        let logits = self.logits_distributed(cluster, batch);
        // δA — identical on every device (computed once here; each real
        // device would compute it redundantly from the replicated
        // logits).
        let mut delta_a = Matrix::zeros(bs, self.n);
        for s in 0..bs {
            let w = weights[s];
            let a_row = logits.row(s);
            let x_row = batch.sample(s);
            let out = delta_a.row_mut(s);
            for i in 0..self.n {
                out[i] = w * 0.5 * (x_row[i] as f64 - ops::sigmoid(a_row[i]));
            }
        }
        let db2 = {
            let mut acc = Vector::zeros(self.n);
            for row in delta_a.rows_iter() {
                vqmc_tensor::vector::axpy(&mut acc, 1.0, row);
            }
            acc
        };
        let x = batch.to_matrix();
        let delta_a_ref = &delta_a;
        let x_ref = &x;
        let shard_grads: Vec<(Matrix, Vector, Matrix)> = cluster.run_round(|rank| {
            let shard = &self.shards[rank];
            // Recompute the local activations (cheaper than shipping
            // them; real model-parallel frameworks cache them locally).
            let mut z1 = x_ref.matmul_nt(&shard.w1_rows);
            z1.add_row_bias(&shard.b1);
            let h1 = z1.map(ops::relu);
            // dW₂ᵣ = δAᵀ H₁ᵣ  (n × hᵣ), masked like the dense path.
            let mut dw2 = delta_a_ref.matmul_tn(&h1);
            shard.mask2.apply(dw2.as_mut_slice());
            // δH₁ᵣ = δA W₂ᵣ  (bs × hᵣ); δZ₁ᵣ = δH₁ᵣ ⊙ relu'(Z₁ᵣ)
            let mut dz1 = delta_a_ref.matmul_nn(&shard.w2_cols);
            for (dz, &z) in dz1.as_mut_slice().iter_mut().zip(z1.as_slice()) {
                *dz *= ops::relu_prime(z);
            }
            let mut dw1 = dz1.matmul_tn(x_ref); // hᵣ × n
            shard.mask1.apply(dw1.as_mut_slice());
            let mut db1 = Vector::zeros(shard.b1.len());
            for row in dz1.rows_iter() {
                vqmc_tensor::vector::axpy(&mut db1, 1.0, row);
            }
            (dw1, db1, dw2)
        });
        cluster.sync();
        (shard_grads, db2)
    }
}

/// Communication volumes (bytes per training iteration) of the two
/// parallelisation avenues, for a direct comparison:
///
/// * **data parallel** — one `d = 2hn + h + n` gradient allreduce;
/// * **model parallel** — one `bs × n` logit allreduce per forward
///   pass: `n + 1` passes for sampling (Algorithm 1) plus the
///   measurement's neighbour pass over `bs·offdiag` rows.
///
/// Returns `(data_parallel_bytes, model_parallel_bytes)`.
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

#[cfg(test)]
mod tests {
    use super::*;
    use vqmc_cluster::{DeviceSpec, Topology};
    use vqmc_nn::Autoregressive;

    fn setup(n: usize, h: usize, shards: usize) -> (Made, ShardedMade, Cluster) {
        let made = Made::new(n, h, 42);
        let sharded = ShardedMade::from_made(&made, shards);
        let l2 = shards.min(4);
        let l1 = shards.div_ceil(l2);
        // Build an exact-size topology.
        let cluster = Cluster::new(Topology::new(l1, l2), DeviceSpec::v100());
        assert_eq!(cluster.num_devices(), shards, "test topology mismatch");
        (made, sharded, cluster)
    }

    #[test]
    fn shard_sizes_partition_hidden_layer() {
        let made = Made::new(6, 11, 1);
        let sharded = ShardedMade::from_made(&made, 4);
        let total: usize = sharded
            .shards()
            .iter()
            .map(|s| s.hidden_range.1 - s.hidden_range.0)
            .sum();
        assert_eq!(total, 11);
        // Contiguity.
        let mut expect = 0;
        for s in sharded.shards() {
            assert_eq!(s.hidden_range.0, expect);
            expect = s.hidden_range.1;
        }
    }

    #[test]
    fn distributed_logits_match_dense_forward() {
        let (made, sharded, mut cluster) = setup(7, 12, 4);
        let batch = SpinBatch::from_fn(5, 7, |s, i| (((s + 1) * (i + 2)) % 2) as u8);
        let dense = made.logits(&batch);
        let dist = sharded.logits_distributed(&mut cluster, &batch);
        assert!(
            dense.max_abs_diff(&dist) < 1e-12,
            "sharded forward diverged: {}",
            dense.max_abs_diff(&dist)
        );
    }

    #[test]
    fn distributed_log_psi_matches_dense() {
        let (made, sharded, mut cluster) = setup(6, 8, 2);
        let batch = SpinBatch::from_fn(4, 6, |s, i| ((s * i) % 2) as u8);
        let dense = made.log_psi(&batch);
        let dist = sharded.log_psi_distributed(&mut cluster, &batch);
        for s in 0..4 {
            assert!((dense[s] - dist[s]).abs() < 1e-12, "sample {s}");
        }
    }

    #[test]
    fn distributed_gradients_reassemble_to_dense_gradient() {
        let (made, sharded, mut cluster) = setup(5, 9, 3);
        let batch = SpinBatch::from_fn(6, 5, |s, i| (((s + 2) * (i + 1)) % 2) as u8);
        let weights = Vector(vec![1.0, -0.5, 0.25, 2.0, -1.0, 0.5]);
        let dense_grad = made.weighted_log_psi_grad(&batch, &weights);

        let (shard_grads, db2) =
            sharded.weighted_grad_distributed(&mut cluster, &batch, &weights);

        // Reassemble into the Made flat layout [W1 | b1 | W2 | b2].
        let (h, n) = (9usize, 5usize);
        let mut dw1 = Matrix::zeros(h, n);
        let mut db1 = Vector::zeros(h);
        let mut dw2 = Matrix::zeros(n, h);
        for (shard, (g_w1, g_b1, g_w2)) in sharded.shards().iter().zip(&shard_grads) {
            let (lo, hi) = shard.hidden_range;
            for (local, global) in (lo..hi).enumerate() {
                dw1.row_mut(global).copy_from_slice(g_w1.row(local));
                db1[global] = g_b1[local];
                for i in 0..n {
                    dw2.set(i, global, g_w2.get(i, local));
                }
            }
        }
        let mut flat = Vec::new();
        flat.extend_from_slice(dw1.as_slice());
        flat.extend_from_slice(&db1);
        flat.extend_from_slice(dw2.as_slice());
        flat.extend_from_slice(&db2);

        // Masked coordinates: the dense gradient is masked, the sharded
        // one may carry (numerically zero) unmasked contractions; the
        // dense path's masks make those entries exactly zero too because
        // the masked weights are zero — compare everything.
        assert_eq!(flat.len(), dense_grad.len());
        for (k, (a, b)) in flat.iter().zip(dense_grad.iter()).enumerate() {
            assert!(
                (a - b).abs() < 1e-10,
                "param {k}: sharded {a} vs dense {b}"
            );
        }
    }

    #[test]
    fn sharding_divides_memory() {
        let made = Made::new(50, 40, 2);
        let whole = ShardedMade::from_made(&made, 1).max_shard_bytes();
        let split = ShardedMade::from_made(&made, 8).max_shard_bytes();
        assert!(
            split * 6 < whole,
            "8-way sharding should cut memory ~8x ({whole} -> {split})"
        );
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

    #[test]
    fn forward_allreduce_is_charged_to_the_clock() {
        let (_, sharded, mut cluster) = setup(6, 8, 2);
        let batch = SpinBatch::zeros(16, 6);
        let before = cluster.elapsed_modelled();
        let _ = sharded.logits_distributed(&mut cluster, &batch);
        assert!(cluster.elapsed_modelled() > before);
    }

    #[test]
    fn masked_entries_stay_masked_in_shards() {
        let made = Made::new(8, 10, 3);
        let sharded = ShardedMade::from_made(&made, 2);
        let in_keys = made.layers()[0].layer_mask().keys();
        for shard in sharded.shards() {
            let (lo, _) = shard.hidden_range;
            for k in 0..shard.b1.len() {
                for d in 0..8 {
                    if !in_keys.live(lo + k, d) {
                        assert_eq!(shard.w1_rows.get(k, d), 0.0);
                    }
                }
            }
        }
    }

    /// End-to-end: sample with the dense model, compute the energy
    /// gradient through the sharded path, apply it to the dense model —
    /// the physics must match a purely dense step.
    #[test]
    fn sharded_gradient_drives_the_same_training_step() {
        use vqmc_hamiltonian::{local_energies, LocalEnergyConfig, TransverseFieldIsing};
        let n = 6;
        let h = TransverseFieldIsing::random(n, 5);
        let (made, sharded, mut cluster) = setup(n, 10, 2);
        let batch = {
            use rand::SeedableRng;
            use vqmc_sampler::{AutoSampler, Sampler};
            AutoSampler::new()
                .sample(&made, 64, &mut rand::rngs::StdRng::seed_from_u64(3))
                .batch
        };
        let log_psi = made.log_psi(&batch);
        let mut eval = |b: &SpinBatch| made.log_psi(b);
        let local = local_energies(&h, &batch, &log_psi, &mut eval, LocalEnergyConfig::default());
        let mean = local.mean();
        let weights = Vector::from_fn(64, |s| 2.0 * (local[s] - mean) / 64.0);

        let dense_grad = made.weighted_log_psi_grad(&batch, &weights);
        let (shard_grads, db2) =
            sharded.weighted_grad_distributed(&mut cluster, &batch, &weights);
        // Norm of the reassembled sharded gradient equals the dense one.
        let mut sq = db2.dot(&db2);
        for (g_w1, g_b1, g_w2) in &shard_grads {
            sq += vqmc_tensor::vector::dot(g_w1.as_slice(), g_w1.as_slice());
            sq += g_b1.dot(g_b1);
            sq += vqmc_tensor::vector::dot(g_w2.as_slice(), g_w2.as_slice());
        }
        assert!(
            (sq.sqrt() - dense_grad.norm2()).abs() < 1e-9,
            "gradient norms diverge: {} vs {}",
            sq.sqrt(),
            dense_grad.norm2()
        );
        let _ = made.conditionals(&batch); // the model is still intact
    }
}
