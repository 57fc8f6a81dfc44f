//! The tentpole contract: collectives over **real TCP sockets** are
//! bit-identical to the in-process oracle.
//!
//! * `allreduce_mean` over a loopback mesh must reproduce
//!   [`vqmc_cluster::allreduce_mean_tree`] — the PR 3 property-tested
//!   reduction — bit for bit, for power-of-two and ragged world sizes,
//!   for adversarial float values, and across many sequential rounds.
//! * `allgather` must return every rank's contribution in rank order,
//!   tolerating ragged lengths (shard sizes differ by one).
//! * The full training stacks ([`Trainer::run_over`] replicated-sampling
//!   mode and [`DistributedTrainer`]'s mesh backend) must match their
//!   single-process / in-process-cluster references bitwise when the
//!   collective actually crosses the kernel's TCP stack.

use std::time::Duration;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use vqmc_cluster::{allreduce_mean_tree, Cluster, DeviceSpec, Topology};
use vqmc_core::trainer::{OptimizerChoice, Trainer, TrainerConfig};
use vqmc_core::{Collective, DistributedConfig, DistributedTrainer};
use vqmc_dist::{peers_for_ports, reserve_loopback_ports, Mesh, MeshConfig};
use vqmc_hamiltonian::{LocalEnergyConfig, TransverseFieldIsing};
use vqmc_nn::{Made, WaveFunction};
use vqmc_sampler::IncrementalAutoSampler;
use vqmc_tensor::Vector;

/// Forms a `world`-rank loopback mesh, one thread per rank, and runs
/// `f(mesh, rank)` on each.  Returns the per-rank results in rank
/// order; panics in any rank propagate.
fn with_mesh<T, F>(world: usize, f: F) -> Vec<T>
where
    T: Send + 'static,
    F: Fn(Mesh, usize) -> T + Send + Sync + 'static,
{
    let ports = reserve_loopback_ports(world).expect("reserve ports");
    let peers = peers_for_ports(&ports);
    let f = std::sync::Arc::new(f);
    let handles: Vec<_> = (0..world)
        .map(|rank| {
            let peers = peers.clone();
            let f = f.clone();
            std::thread::spawn(move || {
                let mut cfg = MeshConfig::new(rank, peers);
                cfg.connect_timeout = Duration::from_secs(20);
                cfg.collective_timeout = Duration::from_secs(60);
                let mesh = Mesh::connect(cfg).expect("mesh formation");
                f(mesh, rank)
            })
        })
        .collect();
    handles
        .into_iter()
        .map(|h| h.join().expect("rank panicked"))
        .collect()
}

/// Adversarially-spread magnitudes: catastrophic cancellation bait,
/// denormals, and ulp-separated values — any re-association or
/// reciprocal-multiply shortcut shows up as a bit flip.
fn gen_vector(rng: &mut StdRng, len: usize) -> Vec<f64> {
    (0..len)
        .map(|_| {
            let mag = match rng.gen_range(0..5u32) {
                0 => 1e-300,
                1 => 1e-8,
                2 => 1.0,
                3 => 1e8,
                _ => 1e300,
            };
            let sign = if rng.gen_range(0..2u32) == 0 { -1.0 } else { 1.0 };
            sign * mag * (1.0 + rng.gen_range(0..1_000_000u32) as f64 * 1e-9)
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Socket allreduce == in-process oracle tree, bit for bit, across
    /// several sequential rounds (exercising the per-collective seq).
    #[test]
    fn socket_allreduce_matches_oracle_bitwise(
        seed in 0u64..1u64 << 48,
        world in 1usize..=5,
        len in 0usize..40,
        rounds in 1usize..4,
    ) {
        // Oracle: the PR 3 tree over the same rank-ordered inputs.
        let mut expected = Vec::with_capacity(rounds);
        for round in 0..rounds {
            let mut rng = StdRng::seed_from_u64(seed ^ (round as u64) << 32);
            let vectors: Vec<Vector> = (0..world)
                .map(|_| Vector(gen_vector(&mut rng, len)))
                .collect();
            let topo = Topology::new(1, world);
            expected.push(allreduce_mean_tree(vectors, &topo).0);
        }

        let results = with_mesh(world, move |mut mesh, rank| {
            let mut got = Vec::with_capacity(rounds);
            for round in 0..rounds {
                let mut rng = StdRng::seed_from_u64(seed ^ (round as u64) << 32);
                // Re-derive this rank's contribution: ranks 0..r burn
                // the earlier draws in order.
                let mut mine = Vec::new();
                for r in 0..=rank {
                    mine = gen_vector(&mut rng, len);
                    let _ = r;
                }
                got.push(mesh.allreduce_mean(Vector(mine)).expect("allreduce"));
            }
            mesh.shutdown();
            got
        });

        for (rank, got) in results.iter().enumerate() {
            for (round, (g, e)) in got.iter().zip(&expected).enumerate() {
                prop_assert_eq!(g.len(), e.len());
                for (i, (a, b)) in g.iter().zip(e.iter()).enumerate() {
                    prop_assert_eq!(
                        a.to_bits(), b.to_bits(),
                        "rank {} round {} elem {}: socket {} != oracle {}",
                        rank, round, i, a, b
                    );
                }
            }
        }
    }
}

/// Allgather returns every rank's contribution, in rank order, with
/// ragged lengths (rank r contributes r+1 values tagged by rank).
#[test]
fn socket_allgather_preserves_rank_order_and_ragged_lengths() {
    for world in [1usize, 2, 3, 5] {
        let results = with_mesh(world, |mut mesh, rank| {
            let mine = Vector::from_fn(rank + 1, |i| (rank * 100 + i) as f64);
            let parts = mesh.allgather(&mine).expect("allgather");
            mesh.shutdown();
            parts
        });
        for (rank, parts) in results.iter().enumerate() {
            assert_eq!(parts.len(), world, "world {world} rank {rank}");
            for (q, part) in parts.iter().enumerate() {
                assert_eq!(part.len(), q + 1, "world {world} rank {rank} part {q}");
                for (i, v) in part.iter().enumerate() {
                    assert_eq!(*v, (q * 100 + i) as f64);
                }
            }
        }
    }
}

/// Interleaved allreduce/allgather rounds stay in phase — the seq and
/// op tags keep frames from one collective out of the next.
#[test]
fn mixed_collectives_stay_in_phase() {
    let world = 3;
    let results = with_mesh(world, |mut mesh, rank| {
        let mut log = Vec::new();
        for round in 0..6u64 {
            if round % 2 == 0 {
                let v = Vector::from_fn(4, |i| (rank as f64 + 1.0) * (round + 1) as f64 + i as f64);
                log.push(mesh.allreduce_mean(v).expect("allreduce").0);
            } else {
                let v = Vector::from_fn(2, |i| rank as f64 * 10.0 + round as f64 + i as f64);
                let parts = mesh.allgather(&v).expect("allgather");
                log.push(parts.into_iter().flat_map(|p| p.0).collect());
            }
        }
        mesh.shutdown();
        log
    });
    // All ranks see identical allreduce results and identical gathers.
    for rank in 1..world {
        assert_eq!(results[0], results[rank], "rank {rank} diverged from rank 0");
    }
    // Spot-check round 0 against the oracle.
    let vectors: Vec<Vector> = (0..world)
        .map(|r| Vector::from_fn(4, |i| (r as f64 + 1.0) + i as f64))
        .collect();
    let expected = allreduce_mean_tree(vectors, &Topology::new(1, world)).0.clone();
    assert_eq!(results[0][0], expected.0);
}

fn training_config(iters: usize, bs: usize, seed: u64) -> TrainerConfig {
    TrainerConfig {
        iterations: iters,
        batch_size: bs,
        optimizer: OptimizerChoice::paper_default(),
        local_energy: LocalEnergyConfig::default(),
        seed,
    }
}

/// End-to-end golden-path contract: `Trainer::run_over` over real sockets
/// reproduces the plain single-process `Trainer` bitwise — the property
/// that makes `train --ranks N` emit the same trace at any N.
#[test]
fn sharded_training_over_sockets_matches_plain_trainer_bitwise() {
    let n = 7;
    let h = TransverseFieldIsing::random(n, 17);
    let cfg = training_config(5, 50, 3);

    let mut plain = Trainer::new(Made::new(n, 10, 4), IncrementalAutoSampler::new(), cfg);
    let reference = plain.run(&h);
    let ref_params = plain.into_wavefunction().params();

    // 3 ranks: non-power-of-two tree + ragged 17/17/16 shard split.
    for world in [2usize, 3] {
        let h = h.clone();
        let results = with_mesh(world, move |mut mesh, _rank| {
            let mut t = Trainer::new(
                Made::new(n, 10, 4),
                IncrementalAutoSampler::new(),
                cfg,
            );
            let trace = t.run_over(&h, &mut mesh).unwrap();
            mesh.shutdown();
            (trace, t.into_wavefunction().params())
        });
        for (rank, (trace, params)) in results.iter().enumerate() {
            for (i, (a, b)) in reference.records.iter().zip(&trace.records).enumerate() {
                assert_eq!(
                    a.energy.to_bits(),
                    b.energy.to_bits(),
                    "world {world} rank {rank} iter {i}: energy diverged over sockets"
                );
                assert_eq!(a.std_dev.to_bits(), b.std_dev.to_bits());
                assert_eq!(a.min_energy.to_bits(), b.min_energy.to_bits());
            }
            assert_eq!(
                ref_params.as_slice(),
                params.as_slice(),
                "world {world} rank {rank}: parameters diverged over sockets"
            );
        }
    }
}

/// The data-parallel arm: `DistributedTrainer` over a socket mesh is
/// bit-identical to the same trainer over the in-process simulated
/// cluster (per-rank sampling, tree-reduced stats and gradient).
#[test]
fn distributed_trainer_over_sockets_matches_cluster_backend_bitwise() {
    let n = 6;
    let h = TransverseFieldIsing::random(n, 11);
    let cfg = DistributedConfig {
        iterations: 4,
        minibatch_per_device: 24,
        optimizer: OptimizerChoice::paper_default(),
        local_energy: LocalEnergyConfig::default(),
        seed: 5,
        cost_hidden: 8,
        cost_offdiag: n,
    };

    for world in [2usize, 3] {
        // Reference: the simulated cluster backend.
        let cluster = Cluster::new(Topology::new(1, world), DeviceSpec::v100());
        let mut reference = DistributedTrainer::new(
            cluster,
            Made::new(n, 8, 2),
            IncrementalAutoSampler::new(),
            cfg,
        );
        let ref_trace = reference.run(&h);
        let ref_params = reference.params();

        let h2 = h.clone();
        let results = with_mesh(world, move |mesh, _rank| {
            let mut t = DistributedTrainer::over_mesh(
                Box::new(mesh),
                Made::new(n, 8, 2),
                IncrementalAutoSampler::new(),
                cfg,
            );
            let trace = t.try_run(&h2).unwrap();
            (trace, t.params())
        });
        for (rank, (trace, params)) in results.iter().enumerate() {
            for (i, (a, b)) in ref_trace.records.iter().zip(&trace.records).enumerate() {
                assert_eq!(
                    a.energy.to_bits(),
                    b.energy.to_bits(),
                    "world {world} rank {rank} iter {i}"
                );
                assert_eq!(a.std_dev.to_bits(), b.std_dev.to_bits());
                assert_eq!(a.min_energy.to_bits(), b.min_energy.to_bits());
            }
            assert_eq!(
                ref_params.as_slice(),
                params.as_slice(),
                "world {world} rank {rank}: parameters diverged"
            );
        }
    }
}

/// World size 1 short-circuits without any sockets and still applies
/// the oracle's exact mean (true division by 1).
#[test]
fn world_of_one_needs_no_sockets() {
    let mut mesh = Mesh::connect(MeshConfig::new(0, vec!["127.0.0.1:1".into()])).unwrap();
    assert_eq!(mesh.rank(), 0);
    assert_eq!(mesh.world(), 1);
    let v = Vector::from_fn(5, |i| i as f64 + 0.5);
    let expected = allreduce_mean_tree(vec![v.clone()], &Topology::new(1, 1)).0.clone();
    let got = mesh.allreduce_mean(v.clone()).unwrap();
    assert_eq!(got.0, expected.0);
    let parts = mesh.allgather(&v).unwrap();
    assert_eq!(parts.len(), 1);
    assert_eq!(parts[0].0, v.0);
    mesh.shutdown();
}
