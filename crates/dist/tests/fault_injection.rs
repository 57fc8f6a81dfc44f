//! Fault injection: ranks die mid-job and the survivors must get a
//! clean [`CollectiveError`] — promptly, on every survivor, with no
//! hang and **no partial update** — rather than wedging in a poll loop.
//!
//! `Mesh::abandon` closes the TCP connections without the orderly
//! GOODBYE, which is exactly what a SIGKILL'd process looks like from
//! the other end of the socket.

use std::time::{Duration, Instant};

use vqmc_core::backend::CollectiveError;
use vqmc_core::trainer::{OptimizerChoice, Trainer, TrainerConfig};
use vqmc_core::Collective;
use vqmc_dist::{peers_for_ports, reserve_loopback_ports, Mesh, MeshConfig};
use vqmc_hamiltonian::{LocalEnergyConfig, TransverseFieldIsing};
use vqmc_nn::{Made, WaveFunction};
use vqmc_sampler::IncrementalAutoSampler;
use vqmc_tensor::Vector;

fn spawn_ranks<T, F>(world: usize, timeout: Duration, f: F) -> Vec<T>
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
                cfg.collective_timeout = timeout;
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

/// A rank dying between collectives surfaces as `RankLost` on every
/// survivor — far inside the collective timeout (the EOF is detected
/// eagerly, not discovered by deadline expiry) — and the mesh stays
/// poisoned: later collectives fail instantly instead of re-waiting.
#[test]
fn rank_death_mid_job_yields_rank_lost_on_all_survivors() {
    let timeout = Duration::from_secs(30);
    let results = spawn_ranks(3, timeout, |mut mesh, rank| {
        let v = Vector::from_fn(8, |i| (rank * 10 + i) as f64);
        // Round 1: everyone participates; must succeed on all ranks.
        let first = mesh.allreduce_mean(v.clone());
        if rank == 2 {
            assert!(first.is_ok(), "rank 2 round 1: {first:?}");
            // Give the survivors time to finish draining round 1 so the
            // dirty EOF is unambiguously "between collectives".
            std::thread::sleep(Duration::from_millis(200));
            mesh.abandon();
            return (first, None, Duration::ZERO);
        }
        assert!(first.is_ok(), "rank {rank} round 1: {first:?}");
        // Round 2: rank 2 is gone.
        let start = Instant::now();
        let second = mesh.allreduce_mean(v.clone());
        let elapsed = start.elapsed();
        // Sticky: a third attempt fails immediately with the same error.
        let third = mesh.allreduce_mean(v);
        assert_eq!(second.as_ref().err(), third.as_ref().err());
        (first, Some(second), elapsed)
    });
    for (rank, (first, second, elapsed)) in results.iter().enumerate() {
        assert!(first.is_ok(), "rank {rank} round 1 failed: {first:?}");
        if rank == 2 {
            continue;
        }
        let second = second.as_ref().unwrap();
        match second {
            Err(CollectiveError::RankLost { rank: lost }) => {
                assert_eq!(*lost, 2, "rank {rank} blamed the wrong rank")
            }
            other => panic!("rank {rank}: expected RankLost, got {other:?}"),
        }
        assert!(
            *elapsed < timeout / 2,
            "rank {rank} took {elapsed:?} — EOF not detected eagerly"
        );
    }
}

/// The no-partial-update contract end to end: a rank crashes after `k`
/// full training iterations; the survivors' step `k+1` fails and their
/// parameters are bit-identical to a single-process trainer stopped at
/// iteration `k` — the failed iteration left no trace.
#[test]
fn crashed_rank_leaves_no_partial_update() {
    let n = 6;
    let k = 3;
    let seed = 7;
    let h = TransverseFieldIsing::random(n, 13);
    let cfg = TrainerConfig {
        iterations: k,
        batch_size: 33,
        optimizer: OptimizerChoice::paper_default(),
        local_energy: LocalEnergyConfig::default(),
        seed,
    };

    // Reference: k clean single-process iterations.
    let mut reference = Trainer::new(Made::new(n, 8, 3), IncrementalAutoSampler::new(), cfg);
    reference.run(&h);
    let ref_params = reference.into_wavefunction().params();

    let h2 = h.clone();
    let results = spawn_ranks(3, Duration::from_secs(30), move |mut mesh, rank| {
        let mut t = Trainer::new(Made::new(n, 8, 3), IncrementalAutoSampler::new(), cfg);
        let mut opt = t.make_optimizer();
        for i in 0..k {
            t.step_over(&h2, &mut mesh, opt.as_mut())
                .unwrap_or_else(|e| panic!("rank {rank} iter {i}: {e}"));
        }
        if rank == 2 {
            std::thread::sleep(Duration::from_millis(200));
            mesh.abandon();
            return (None, t.into_wavefunction().params());
        }
        let failed = t.step_over(&h2, &mut mesh, opt.as_mut());
        (Some(failed.err()), t.into_wavefunction().params())
    });

    for (rank, (failure, params)) in results.iter().enumerate() {
        assert_eq!(
            ref_params.as_slice(),
            params.as_slice(),
            "rank {rank}: parameters diverged from the k-iteration reference"
        );
        if rank == 2 {
            continue;
        }
        match failure {
            Some(Some(CollectiveError::RankLost { rank: lost })) => {
                assert_eq!(*lost, 2, "rank {rank} blamed the wrong rank")
            }
            other => panic!("rank {rank}: expected Some(RankLost), got {other:?}"),
        }
    }
}

/// A peer that never comes up: the dialing side gives up with a clean
/// `Handshake` error near the connect deadline — no infinite backoff.
#[test]
fn connect_backoff_gives_up_cleanly_when_peer_never_binds() {
    let ports = reserve_loopback_ports(2).unwrap();
    let peers = peers_for_ports(&ports);
    // Rank 1 dials rank 0's address; nothing ever binds it.
    let mut cfg = MeshConfig::new(1, peers);
    cfg.connect_timeout = Duration::from_millis(600);
    let start = Instant::now();
    let err = Mesh::connect(cfg).err().expect("must not form a mesh");
    let elapsed = start.elapsed();
    assert!(
        matches!(err, CollectiveError::Handshake(_)),
        "expected Handshake, got {err:?}"
    );
    assert!(
        elapsed < Duration::from_secs(5),
        "gave up after {elapsed:?} — backoff did not respect the deadline"
    );
}

/// The accept side of the same failure: a higher rank that never dials
/// in leaves the acceptor with a clean `Handshake` error naming the
/// missing ranks.
#[test]
fn accept_times_out_cleanly_when_higher_rank_never_dials() {
    let ports = reserve_loopback_ports(2).unwrap();
    let peers = peers_for_ports(&ports);
    // Rank 0 binds and waits for rank 1; rank 1 never starts.
    let mut cfg = MeshConfig::new(0, peers);
    cfg.connect_timeout = Duration::from_millis(600);
    let start = Instant::now();
    let err = Mesh::connect(cfg).err().expect("must not form a mesh");
    let elapsed = start.elapsed();
    match &err {
        CollectiveError::Handshake(msg) => {
            assert!(msg.contains("[1]"), "error should name rank 1: {msg}")
        }
        other => panic!("expected Handshake, got {other:?}"),
    }
    assert!(elapsed < Duration::from_secs(5), "took {elapsed:?}");
}

/// Dying *inside* a collective (after sending a reduce contribution but
/// before the broadcast completes) also resolves: the survivors see
/// either the dirty EOF or a failed send to the dead rank, and nobody
/// waits out the full deadline.
#[test]
fn rank_death_mid_collective_does_not_hang() {
    let timeout = Duration::from_secs(30);
    let results = spawn_ranks(4, timeout, |mut mesh, rank| {
        if rank == 3 {
            // Rank 3's reduce role at stride 1 is to send to rank 2 and
            // exit the reduce loop; it dies before the broadcast phase
            // can reach it.  Sending the frame manually and abandoning
            // reproduces that window.
            std::thread::sleep(Duration::from_millis(100));
            mesh.abandon();
            return (Ok(Vector::default()), Duration::ZERO);
        }
        let start = Instant::now();
        let out = mesh.allreduce_mean(Vector::from_fn(4, |i| (rank + i) as f64));
        (out, start.elapsed())
    });
    for (rank, (out, elapsed)) in results.iter().enumerate() {
        if rank == 3 {
            continue;
        }
        match out {
            Err(CollectiveError::RankLost { rank: lost }) => {
                assert_eq!(*lost, 3, "rank {rank} blamed rank {lost}")
            }
            Err(other) => panic!("rank {rank}: {other:?}"),
            Ok(_) => panic!("rank {rank}: collective succeeded without rank 3"),
        }
        assert!(
            *elapsed < timeout / 2,
            "rank {rank} took {elapsed:?} — not eager"
        );
    }
}
