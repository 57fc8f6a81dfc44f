//! Multi-process (socket-mesh) scaling measurements over loopback.
//!
//! Three sections:
//!
//! 1. **Collective latency** — wall time of one socket `allreduce_mean`
//!    at world sizes 1/2/4 for gradient-sized vectors, next to the
//!    synthetic cluster's *modelled* tree time for the same collective
//!    ([`vqmc_cluster::allreduce_mean_tree`]'s cost accounting with the
//!    V100-era link model).  Loopback is not NVLink: the comparison
//!    shows how far kernel TCP is from the modelled interconnect, not a
//!    validation of either.
//! 2. **Sharded training** (`train --ranks N` mode) — wall s/iter of
//!    `Trainer::run_over` on the socket mesh at a fixed global batch.
//!    Sampling is replicated (per-rank cost constant) and measurement
//!    is sharded (per-rank cost ∝ 1/L), so multi-core hosts see the
//!    measurement phase shrink.
//! 3. **Data-parallel training** — `DistributedTrainer` over the mesh
//!    (per-rank sampling, wire allreduce) wall s/iter next to the same
//!    configuration on the simulated cluster's modelled clock.
//!
//! All world sizes run as threads of this process over 127.0.0.1 —
//! real sockets, same kernel path as separate processes.
//!
//! **Single-core caveat**: on a 1-core container every rank time-slices
//! one CPU, so per-iteration wall time *grows* with world size —
//! compute is serialised while the collectives add latency.  The
//! numbers document protocol overhead; rerun on a multi-core host (or
//! across hosts) for speedup curves.
//!
//! Usage: `repro_dist_scaling [--iters N] [--rounds R] [--json PATH]`
//! (defaults 4, 20, BENCH_dist.json); table goes to stdout — redirect
//! into `results/dist_scaling.txt`.

use std::time::{Duration, Instant};

use vqmc_cluster::{allreduce_mean_tree, Cluster, DeviceSpec, Topology};
use vqmc_core::trainer::{OptimizerChoice, Trainer, TrainerConfig};
use vqmc_core::{Collective, DistributedConfig, DistributedTrainer};
use vqmc_dist::{peers_for_ports, reserve_loopback_ports, Mesh, MeshConfig};
use vqmc_hamiltonian::{LocalEnergyConfig, TransverseFieldIsing};
use vqmc_nn::{made_hidden_size, Made};
use vqmc_sampler::IncrementalAutoSampler;
use vqmc_tensor::Vector;

/// Forms a loopback mesh and runs `f` on every rank; returns rank 0's
/// result.
fn on_mesh<T, F>(world: usize, f: F) -> T
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
                cfg.connect_timeout = Duration::from_secs(30);
                cfg.collective_timeout = Duration::from_secs(120);
                let mesh = Mesh::connect(cfg).expect("mesh formation");
                f(mesh, rank)
            })
        })
        .collect();
    let mut results: Vec<T> = handles
        .into_iter()
        .map(|h| h.join().expect("rank panicked"))
        .collect();
    results.swap_remove(0)
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let flag = |name: &str, default: usize| -> usize {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1))
            .map(|v| v.parse().expect("integer flag"))
            .unwrap_or(default)
    };
    let iters = flag("--iters", 4);
    let rounds = flag("--rounds", 20);
    let json_path = args
        .iter()
        .position(|a| a == "--json")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "BENCH_dist.json".to_string());
    let cores = std::thread::available_parallelism()
        .map(|c| c.get())
        .unwrap_or(1);
    let mut json: Vec<String> = Vec::new();

    println!("Socket-mesh (multi-process) scaling over loopback TCP");
    println!("host cores (available_parallelism): {cores}");
    if cores < 4 {
        println!(
            "NOTE: {cores}-core host — ranks time-slice CPUs, so wall times\n\
             grow with world size; these rows document protocol overhead,\n\
             not speedup. Rerun on a multi-core host for scaling curves."
        );
    }

    // ---- 1. collective latency ------------------------------------
    println!("\n[1] socket allreduce_mean latency ({rounds} rounds/cell)");
    println!("  world      dim     wall µs/op    modelled µs (V100 tree)");
    for &world in &[1usize, 2, 4] {
        for &dim in &[1_024usize, 65_536] {
            let modelled_s = {
                let vectors: Vec<Vector> = (0..world).map(|_| Vector::zeros(dim)).collect();
                allreduce_mean_tree(vectors, &Topology::new(1, world)).1
            };
            let wall_us = on_mesh(world, move |mut mesh, rank| {
                let v = Vector::from_fn(dim, |i| (rank + i) as f64);
                // Warm-up: page in buffers, settle TCP.
                for _ in 0..3 {
                    mesh.allreduce_mean(v.clone()).expect("allreduce");
                }
                let start = Instant::now();
                for _ in 0..rounds {
                    mesh.allreduce_mean(v.clone()).expect("allreduce");
                }
                let us = start.elapsed().as_secs_f64() * 1e6 / rounds as f64;
                mesh.shutdown();
                us
            });
            println!(
                "  {world:>5} {dim:>8}   {wall_us:>10.1}    {:>10.3}",
                modelled_s * 1e6
            );
            json.push(format!(
                "{{\"section\": \"allreduce\", \"world\": {world}, \"dim\": {dim}, \
                 \"wall_us_per_op\": {wall_us:.1}, \"modelled_us\": {:.3}, \
                 \"rounds\": {rounds}, \"cores\": {cores}}}",
                modelled_s * 1e6
            ));
        }
    }

    // ---- 2. sharded training (the --ranks mode) -------------------
    let n = 20;
    let batch = 256;
    println!("\n[2] Trainer over sockets: TIM n={n}, global batch {batch}, {iters} iters");
    println!("  world    wall s/iter   (sampling replicated, measurement sharded 1/L)");
    for &world in &[1usize, 2, 4] {
        let cfg = TrainerConfig {
            iterations: iters,
            batch_size: batch,
            optimizer: OptimizerChoice::paper_default(),
            local_energy: LocalEnergyConfig::default(),
            seed: 3,
        };
        let h = TransverseFieldIsing::random(n, 2021);
        let s_per_iter = on_mesh(world, move |mut mesh, _rank| {
            let wf = Made::new(n, made_hidden_size(n), 4);
            let mut t = Trainer::new(wf, IncrementalAutoSampler::new(), cfg);
            let start = Instant::now();
            let trace = t.run_over(&h, &mut mesh).expect("train");
            let s = start.elapsed().as_secs_f64() / trace.records.len() as f64;
            mesh.shutdown();
            s
        });
        println!("  {world:>5}   {s_per_iter:>10.4}");
        json.push(format!(
            "{{\"section\": \"sharded_train\", \"world\": {world}, \"n\": {n}, \
             \"batch\": {batch}, \"iters\": {iters}, \
             \"wall_s_per_iter\": {s_per_iter:.5}, \"cores\": {cores}}}"
        ));
    }

    // ---- 3. data-parallel training: real sockets vs modelled ------
    let mbs = 64;
    println!(
        "\n[3] DistributedTrainer: TIM n={n}, mbs {mbs}/rank, {iters} iters \
         (socket wall vs simulated-cluster modelled clock)"
    );
    println!("  world    socket s/iter   modelled s/iter");
    for &world in &[1usize, 2, 4] {
        let dcfg = DistributedConfig {
            iterations: iters,
            minibatch_per_device: mbs,
            optimizer: OptimizerChoice::paper_default(),
            local_energy: LocalEnergyConfig::default(),
            seed: 9,
            cost_hidden: made_hidden_size(n),
            cost_offdiag: n,
        };
        let h = TransverseFieldIsing::random(n, 2021);

        let cluster = Cluster::new(Topology::new(1, world), DeviceSpec::v100());
        let mut sim = DistributedTrainer::new(
            cluster,
            Made::new(n, made_hidden_size(n), 4),
            IncrementalAutoSampler::new(),
            dcfg,
        );
        sim.run(&h);
        let modelled_per_iter = sim.elapsed_modelled() / iters as f64;

        let h2 = TransverseFieldIsing::random(n, 2021);
        let socket_per_iter = on_mesh(world, move |mesh, _rank| {
            let mut t = DistributedTrainer::over_mesh(
                Box::new(mesh),
                Made::new(n, made_hidden_size(n), 4),
                IncrementalAutoSampler::new(),
                dcfg,
            );
            let start = Instant::now();
            t.try_run(&h2).expect("train");
            start.elapsed().as_secs_f64() / iters as f64
        });
        println!("  {world:>5}   {socket_per_iter:>13.4}   {modelled_per_iter:>15.6}");
        json.push(format!(
            "{{\"section\": \"data_parallel\", \"world\": {world}, \"n\": {n}, \
             \"mbs\": {mbs}, \"iters\": {iters}, \
             \"socket_s_per_iter\": {socket_per_iter:.5}, \
             \"modelled_s_per_iter\": {modelled_per_iter:.6}, \"cores\": {cores}}}"
        ));
    }

    let body = format!("[\n{}\n]\n", json.join(",\n"));
    std::fs::write(&json_path, body).expect("write json");
    println!("\nwrote {json_path}");
}
