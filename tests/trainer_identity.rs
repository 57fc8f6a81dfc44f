//! One step, any world size: the cross-placement bit-identities of both
//! training policies.
//!
//! * Replicated sampling with sharded measurement: `Trainer::run` (world
//!   size 1) and `Trainer::run_over` on every rank of a `ThreadMesh`
//!   produce the same records and parameters, bit for bit.
//! * Per-rank data parallelism: `DistributedTrainer::new` over the
//!   in-process cluster and `DistributedTrainer::over_mesh` on every rank
//!   of a `ThreadMesh` produce the same records and parameters.
//!
//! World sizes 2, 3 and 4 cover power-of-two and ragged trees; the
//! Trainer's batch of 50 splits raggedly (50 = 17 + 17 + 16 at world 3).

use std::time::Duration;

use vqmc::core::{IterationRecord, ThreadMesh};
use vqmc::prelude::*;

const WORLDS: [usize; 3] = [2, 3, 4];

fn assert_records_identical(a: &[IterationRecord], b: &[IterationRecord], ctx: &str) {
    assert_eq!(a.len(), b.len(), "{ctx}: record count");
    for (i, (a, b)) in a.iter().zip(b).enumerate() {
        assert_eq!(a.energy.to_bits(), b.energy.to_bits(), "{ctx}, iter {i}: energy");
        assert_eq!(a.std_dev.to_bits(), b.std_dev.to_bits(), "{ctx}, iter {i}: std_dev");
        assert_eq!(a.min_energy.to_bits(), b.min_energy.to_bits(), "{ctx}, iter {i}: min");
        assert_eq!(
            a.sample_stats.forward_passes, b.sample_stats.forward_passes,
            "{ctx}, iter {i}: forward passes"
        );
    }
}

/// Runs `f` once per rank of a `world`-rank `ThreadMesh`, each on its own
/// thread, and returns the results in rank order.
fn on_mesh<T: Send + 'static>(
    world: usize,
    f: impl Fn(ThreadMesh) -> T + Send + Clone + 'static,
) -> Vec<T> {
    let handles: Vec<_> = ThreadMesh::split(world, Duration::from_secs(30))
        .into_iter()
        .map(|mesh| {
            let f = f.clone();
            std::thread::spawn(move || f(mesh))
        })
        .collect();
    handles.into_iter().map(|h| h.join().unwrap()).collect()
}

#[test]
fn trainer_run_over_mesh_is_bit_identical_to_run() {
    let n = 7;
    let h = TransverseFieldIsing::random(n, 17);
    let cfg = TrainerConfig {
        iterations: 6,
        batch_size: 50,
        optimizer: OptimizerChoice::paper_default(),
        local_energy: Default::default(),
        seed: 3,
    };
    let mut solo = Trainer::new(Made::new(n, 10, 4), IncrementalAutoSampler::new(), cfg);
    let reference = solo.run(&h);
    let ref_params = solo.into_wavefunction().params();

    for world in WORLDS {
        let h = h.clone();
        let ranks = on_mesh(world, move |mut mesh| {
            let mut t = Trainer::new(Made::new(n, 10, 4), IncrementalAutoSampler::new(), cfg);
            let trace = t.run_over(&h, &mut mesh).unwrap();
            (trace, t.into_wavefunction().params())
        });
        for (rank, (trace, params)) in ranks.iter().enumerate() {
            let ctx = format!("world {world}, rank {rank}");
            assert_records_identical(&reference.records, &trace.records, &ctx);
            assert_eq!(ref_params.as_slice(), params.as_slice(), "{ctx}: parameters");
        }
    }
}

#[test]
fn distributed_cluster_is_bit_identical_to_mesh() {
    let n = 6;
    let h = TransverseFieldIsing::random(n, 13);
    let cfg = DistributedConfig {
        iterations: 4,
        minibatch_per_device: 8,
        optimizer: OptimizerChoice::paper_default(),
        local_energy: Default::default(),
        seed: 7,
        cost_hidden: 10,
        cost_offdiag: n,
    };
    for world in WORLDS {
        let cluster = Cluster::new(Topology::new(1, world), DeviceSpec::v100());
        let mut reference =
            DistributedTrainer::new(cluster, Made::new(n, 10, 42), AutoSampler::new(), cfg);
        let ref_trace = reference.run(&h);
        let ref_params = reference.params();

        let h = h.clone();
        let ranks = on_mesh(world, move |mesh| {
            let mut t = DistributedTrainer::over_mesh(
                Box::new(mesh),
                Made::new(n, 10, 42),
                AutoSampler::new(),
                cfg,
            );
            let trace = t.try_run(&h).unwrap();
            (trace, t.params())
        });
        for (rank, (trace, params)) in ranks.iter().enumerate() {
            let ctx = format!("world {world}, rank {rank}");
            assert_records_identical(&ref_trace.records, &trace.records, &ctx);
            assert_eq!(ref_params.as_slice(), params.as_slice(), "{ctx}: parameters");
        }
    }
}
