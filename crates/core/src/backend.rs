//! The collective-communication seam behind multi-rank training.
//!
//! Everything distributed in this workspace reduces to two collectives:
//! an **allreduce-mean** (gradients, scalar energy statistics) and an
//! **allgather** (local-energy shards, replica-consistency probes).
//! [`Collective`] abstracts over *where the other ranks live*:
//!
//! * [`SoloCollective`] — world size 1; the degenerate case, exact by
//!   construction (it literally runs the one-vector tree).
//! * [`ThreadMesh`] — ranks are threads in this process meeting at a
//!   mutex+condvar rendezvous; the combine is a verbatim call to
//!   [`vqmc_cluster::allreduce_mean_tree`], making this backend the
//!   **oracle** the socket mesh (`vqmc-dist`) is property-tested
//!   against.
//! * `vqmc_dist::Mesh` — ranks are OS processes joined by TCP sockets;
//!   it re-implements the same binomial-tree schedule over the wire and
//!   must (and is tested to) produce bit-identical results.
//!
//! The contract every implementation upholds: for rank-ordered inputs
//! `v_0 … v_{L-1}`, `allreduce_mean` returns **exactly**
//! `allreduce_mean_tree(vec![v_0, …, v_{L-1}], topo).0` — same pairwise
//! combination order, true division by `L` — so replicas updated from
//! the result stay bit-for-bit equal, whatever the transport.

use std::fmt;
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

use vqmc_cluster::{allreduce_mean_tree, Topology};
use vqmc_tensor::Vector;

/// Why a collective failed.  All errors are sticky: once a mesh
/// returns one, every later collective on it fails the same way, so a
/// caller can never apply a half-reduced gradient.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CollectiveError {
    /// A peer hung up (EOF / reset) while the run still needed it.
    RankLost {
        /// The rank that disappeared.
        rank: usize,
    },
    /// The per-collective deadline expired while waiting on a peer.
    Timeout {
        /// The rank being waited on, when known.
        rank: Option<usize>,
    },
    /// Mesh formation failed (connect backoff exhausted, bad hello…).
    Handshake(String),
    /// The peer spoke, but not the expected frame (desync, bad tag).
    Protocol(String),
    /// An I/O error outside the cases above.
    Io(String),
}

impl fmt::Display for CollectiveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CollectiveError::RankLost { rank } => write!(f, "rank {rank} lost mid-collective"),
            CollectiveError::Timeout { rank: Some(r) } => {
                write!(f, "collective timed out waiting on rank {r}")
            }
            CollectiveError::Timeout { rank: None } => write!(f, "collective timed out"),
            CollectiveError::Handshake(m) => write!(f, "mesh handshake failed: {m}"),
            CollectiveError::Protocol(m) => write!(f, "mesh protocol violation: {m}"),
            CollectiveError::Io(m) => write!(f, "mesh i/o error: {m}"),
        }
    }
}

impl std::error::Error for CollectiveError {}

/// A rank's handle on its communicator.
pub trait Collective: Send {
    /// This rank's index in `0..world()`.
    fn rank(&self) -> usize;

    /// Number of participating ranks `L`.
    fn world(&self) -> usize;

    /// Tree allreduce-mean: every rank contributes one vector, every
    /// rank receives the bitwise-identical mean, combined in the exact
    /// pairwise order of [`vqmc_cluster::allreduce_mean_tree`].
    fn allreduce_mean(&mut self, v: Vector) -> Result<Vector, CollectiveError>;

    /// Allgather: every rank contributes one vector (lengths may differ
    /// across ranks), every rank receives all `L` vectors in rank order.
    fn allgather(&mut self, v: &Vector) -> Result<Vec<Vector>, CollectiveError>;
}

/// World-size-1 communicator: both collectives are identities (the
/// allreduce still runs the one-vector tree so that the `x / 1.0`
/// division happens exactly as it would on any other backend).
#[derive(Debug, Default)]
pub struct SoloCollective;

impl Collective for SoloCollective {
    fn rank(&self) -> usize {
        0
    }

    fn world(&self) -> usize {
        1
    }

    fn allreduce_mean(&mut self, v: Vector) -> Result<Vector, CollectiveError> {
        Ok(allreduce_mean_tree(vec![v], &Topology::new(1, 1)).0)
    }

    fn allgather(&mut self, v: &Vector) -> Result<Vec<Vector>, CollectiveError> {
        Ok(vec![v.clone()])
    }
}

/// What one rendezvous round computed, shared to every waiting rank.
enum RoundOutput {
    Mean(Vector),
    Gathered(Vec<Vector>),
}

struct RoundState {
    /// Index of the round currently accepting deposits.
    depositing_round: u64,
    /// One slot per rank; `Some` once that rank has deposited.
    slots: Vec<Option<Vector>>,
    deposited: usize,
    /// Op tag (0 = allreduce, 1 = allgather) of the first depositor —
    /// later depositors must match or the program is not SPMD.
    op: u8,
    /// Finished round's output, keyed by its round index.
    result: Option<(u64, Arc<RoundOutput>)>,
    taken: usize,
    /// Sticky failure: set once, fails every current and future waiter.
    failed: Option<CollectiveError>,
}

struct MeshInner {
    world: usize,
    timeout: Duration,
    state: Mutex<RoundState>,
    cv: Condvar,
}

/// In-process rendezvous communicator: `world` threads each hold one
/// [`ThreadMesh`]; each collective blocks until every rank has
/// deposited, then the **last depositor** combines all inputs with a
/// single verbatim [`allreduce_mean_tree`] call (unit topology — the
/// cost model is irrelevant here, the combination order is everything)
/// and every rank picks up the shared result.
///
/// This is the oracle backend: it *is* the PR 3 tree, just fed from
/// threads, so any transport claiming bit-identity can be diffed
/// against it directly.
pub struct ThreadMesh {
    rank: usize,
    inner: Arc<MeshInner>,
}

impl ThreadMesh {
    /// Creates the `world` rank handles for one communicator.  Hand one
    /// to each participating thread.
    pub fn split(world: usize, timeout: Duration) -> Vec<ThreadMesh> {
        assert!(world >= 1, "empty mesh");
        let inner = Arc::new(MeshInner {
            world,
            timeout,
            state: Mutex::new(RoundState {
                depositing_round: 0,
                slots: (0..world).map(|_| None).collect(),
                deposited: 0,
                op: 0,
                result: None,
                taken: 0,
                failed: None,
            }),
            cv: Condvar::new(),
        });
        (0..world)
            .map(|rank| ThreadMesh {
                rank,
                inner: Arc::clone(&inner),
            })
            .collect()
    }

    fn round(&self, op: u8, v: Vector) -> Result<Arc<RoundOutput>, CollectiveError> {
        let inner = &*self.inner;
        let deadline = Instant::now() + inner.timeout;
        let mut st = inner.state.lock().expect("mesh lock poisoned");
        if let Some(e) = &st.failed {
            return Err(e.clone());
        }
        debug_assert!(st.slots[self.rank].is_none(), "rank deposited twice");
        let my_round = st.depositing_round;
        if st.deposited == 0 {
            st.op = op;
        } else if st.op != op {
            let e = CollectiveError::Protocol(format!(
                "rank {} started op {} while round ran op {}",
                self.rank, op, st.op
            ));
            st.failed = Some(e.clone());
            inner.cv.notify_all();
            return Err(e);
        }
        st.slots[self.rank] = Some(v);
        st.deposited += 1;
        if st.deposited == inner.world {
            // Last depositor combines; everyone else is (or will be)
            // waiting on the result.
            let vectors: Vec<Vector> = st
                .slots
                .iter_mut()
                .map(|s| s.take().expect("missing deposit"))
                .collect();
            let output = match op {
                0 => RoundOutput::Mean(
                    allreduce_mean_tree(vectors, &Topology::new(1, inner.world)).0,
                ),
                _ => RoundOutput::Gathered(vectors),
            };
            st.deposited = 0;
            st.depositing_round += 1;
            st.result = Some((my_round, Arc::new(output)));
            st.taken = 0;
            inner.cv.notify_all();
        }
        // Wait for this round's result.
        loop {
            if let Some(e) = &st.failed {
                return Err(e.clone());
            }
            if let Some((round, out)) = &st.result {
                if *round == my_round {
                    let out = Arc::clone(out);
                    st.taken += 1;
                    if st.taken == inner.world {
                        st.result = None;
                    }
                    inner.cv.notify_all();
                    return Ok(out);
                }
            }
            let now = Instant::now();
            if now >= deadline {
                let e = CollectiveError::Timeout { rank: None };
                st.failed = Some(e.clone());
                inner.cv.notify_all();
                return Err(e);
            }
            let (guard, _) = inner
                .cv
                .wait_timeout(st, deadline - now)
                .expect("mesh lock poisoned");
            st = guard;
        }
    }
}

impl Drop for ThreadMesh {
    /// A rank unwinding out of a panic fails the current and every later
    /// round with [`CollectiveError::RankLost`], so its peers return at
    /// once instead of waiting out the deadline.
    fn drop(&mut self) {
        if std::thread::panicking() {
            let inner = &*self.inner;
            let mut st = inner.state.lock().unwrap_or_else(PoisonError::into_inner);
            st.failed
                .get_or_insert(CollectiveError::RankLost { rank: self.rank });
            inner.cv.notify_all();
        }
    }
}

impl Collective for ThreadMesh {
    fn rank(&self) -> usize {
        self.rank
    }

    fn world(&self) -> usize {
        self.inner.world
    }

    fn allreduce_mean(&mut self, v: Vector) -> Result<Vector, CollectiveError> {
        match &*self.round(0, v)? {
            RoundOutput::Mean(m) => Ok(m.clone()),
            RoundOutput::Gathered(_) => {
                Err(CollectiveError::Protocol("allreduce got gather result".into()))
            }
        }
    }

    fn allgather(&mut self, v: &Vector) -> Result<Vec<Vector>, CollectiveError> {
        match &*self.round(1, v.clone())? {
            RoundOutput::Gathered(g) => Ok(g.clone()),
            RoundOutput::Mean(_) => {
                Err(CollectiveError::Protocol("allgather got reduce result".into()))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    fn run_world<F, T>(world: usize, f: F) -> Vec<T>
    where
        F: Fn(ThreadMesh) -> T + Send + Sync + Clone + 'static,
        T: Send + 'static,
    {
        let meshes = ThreadMesh::split(world, Duration::from_secs(5));
        let handles: Vec<_> = meshes
            .into_iter()
            .map(|m| {
                let f = f.clone();
                thread::spawn(move || f(m))
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    }

    #[test]
    fn solo_allreduce_matches_tree() {
        let v = Vector(vec![1.0, -3.5, 7.0]);
        let expect = allreduce_mean_tree(vec![v.clone()], &Topology::new(1, 1)).0;
        let got = SoloCollective.allreduce_mean(v).unwrap();
        assert_eq!(got.as_slice(), expect.as_slice());
    }

    #[test]
    fn thread_mesh_allreduce_matches_oracle_all_world_sizes() {
        for world in 1..=5usize {
            let inputs: Vec<Vector> = (0..world)
                .map(|r| Vector::from_fn(9, |i| ((r * 31 + i) as f64).sin()))
                .collect();
            let expect =
                allreduce_mean_tree(inputs.clone(), &Topology::new(1, world)).0;
            let results = run_world(world, move |mut mesh| {
                let v = inputs[mesh.rank()].clone();
                mesh.allreduce_mean(v).unwrap()
            });
            for (r, got) in results.iter().enumerate() {
                assert_eq!(
                    got.as_slice(),
                    expect.as_slice(),
                    "world {world}, rank {r} not bit-identical to the tree"
                );
            }
        }
    }

    #[test]
    fn thread_mesh_allgather_rank_order_and_ragged_lengths() {
        let world = 3;
        let results = run_world(world, |mut mesh| {
            let r = mesh.rank();
            let v = Vector::from_fn(r + 1, |i| (r * 10 + i) as f64);
            mesh.allgather(&v).unwrap()
        });
        for gathered in results {
            assert_eq!(gathered.len(), world);
            for (r, v) in gathered.iter().enumerate() {
                assert_eq!(v.len(), r + 1);
                assert_eq!(v[0], (r * 10) as f64);
            }
        }
    }

    #[test]
    fn thread_mesh_back_to_back_rounds_do_not_cross() {
        let world = 4;
        let results = run_world(world, |mut mesh| {
            let mut out = Vec::new();
            for round in 0..20u64 {
                let v = Vector(vec![(mesh.rank() as f64) + round as f64]);
                out.push(mesh.allreduce_mean(v).unwrap()[0]);
            }
            out
        });
        for r in &results {
            assert_eq!(r, &results[0]);
        }
        for (round, &x) in results[0].iter().enumerate() {
            // mean of rank + round over ranks 0..4 = 1.5 + round
            assert_eq!(x, 1.5 + round as f64);
        }
    }

    #[test]
    fn missing_rank_times_out_not_hangs() {
        let mut meshes = ThreadMesh::split(2, Duration::from_millis(100));
        let mut rank0 = meshes.remove(0);
        // Rank 1 never deposits; keep its handle alive so the mesh
        // cannot tell it is gone — only the deadline saves us.
        let start = Instant::now();
        let err = rank0.allreduce_mean(Vector(vec![1.0])).unwrap_err();
        assert!(matches!(err, CollectiveError::Timeout { .. }), "{err}");
        assert!(start.elapsed() < Duration::from_secs(2), "hung");
        // Sticky: the next call fails immediately.
        let err2 = rank0.allreduce_mean(Vector(vec![1.0])).unwrap_err();
        assert!(matches!(err2, CollectiveError::Timeout { .. }));
    }

    #[test]
    fn panicking_rank_fails_its_peers_not_hangs() {
        let start = Instant::now();
        let meshes = ThreadMesh::split(3, Duration::from_secs(30));
        let handles: Vec<_> = meshes
            .into_iter()
            .map(|mut m| {
                thread::spawn(move || {
                    if m.rank() == 1 {
                        panic!("rank 1 dies before depositing");
                    }
                    m.allreduce_mean(Vector(vec![1.0]))
                })
            })
            .collect();
        for (rank, handle) in handles.into_iter().enumerate() {
            match handle.join() {
                Ok(res) => assert_eq!(res.unwrap_err(), CollectiveError::RankLost { rank: 1 }),
                Err(_) => assert_eq!(rank, 1, "only rank 1 panics"),
            }
        }
        assert!(start.elapsed() < Duration::from_secs(1), "peers waited out the deadline");
    }

    #[test]
    fn mismatched_ops_detected() {
        let meshes = ThreadMesh::split(2, Duration::from_secs(2));
        let handles: Vec<_> = meshes
            .into_iter()
            .map(|mut m| {
                thread::spawn(move || {
                    if m.rank() == 0 {
                        m.allreduce_mean(Vector(vec![0.0])).map(|_| ())
                    } else {
                        m.allgather(&Vector(vec![0.0])).map(|_| ())
                    }
                })
            })
            .collect();
        let results: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        assert!(
            results
                .iter()
                .any(|r| matches!(r, Err(CollectiveError::Protocol(_)))),
            "{results:?}"
        );
    }
}
