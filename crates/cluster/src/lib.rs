//! # vqmc-cluster
//!
//! A virtual multi-GPU cluster: the substrate substitution that lets
//! this workspace reproduce the paper's multi-node scaling study
//! (Figures 3–4, Tables 6–7) without NVIDIA hardware.
//!
//! ## What is real and what is modelled
//!
//! * **Real**: every device is executed by a real OS thread with its own
//!   model replica and RNG stream ([`Cluster::run_round`] uses
//!   `std::thread::scope`); the gradient allreduce really moves and
//!   combines the data through a deterministic binomial tree
//!   ([`Cluster::allreduce_mean`]), so replica consistency and
//!   reduction-order determinism are *tested properties*, not
//!   assumptions.
//! * **Modelled**: wall-clock time.  The host machine may have fewer
//!   cores than the simulated cluster has devices (this repo's CI box
//!   has one), so measured wall-clock cannot show weak scaling.  Instead
//!   a [`SimClock`] charges each device `flops / flops_per_sec` for its
//!   compute and charges the binomial-tree allreduce per hop
//!   (`latency + bytes / bandwidth`, intra- vs inter-node links priced
//!   separately).  This is exactly the quantity the paper's Eq. 15
//!   analysis predicts, and the weak-scaling experiments report it.
//!
//! ## Memory model
//!
//! [`DeviceSpec::max_minibatch`] reproduces the paper's Table 7 header
//! row — the largest per-GPU batch that saturates a 32 GB V100 for each
//! problem size (`2¹⁹` samples at `n = 20` down to `2²` at `n = 10⁴`) —
//! from a two-term footprint (neighbour-evaluation buffers `∝ n²`,
//! activations `∝ n·h`) calibrated once against that row.

#![warn(missing_docs)]

pub mod clock;
pub mod collective;
pub mod device;
pub mod topology;

pub use clock::SimClock;
pub use collective::{allreduce_mean_tree, tree_comm_secs};
pub use device::DeviceSpec;
pub use topology::Topology;

use vqmc_tensor::Vector;

/// A virtual cluster: a topology plus the modelled clock.
#[derive(Debug)]
pub struct Cluster {
    topology: Topology,
    spec: DeviceSpec,
    clock: SimClock,
}

impl Cluster {
    /// Builds a cluster of `nodes × devices_per_node` devices of the
    /// given spec (the paper's `L₁ × L₂` notation).
    pub fn new(topology: Topology, spec: DeviceSpec) -> Self {
        let clock = SimClock::new(topology.num_devices());
        Cluster {
            topology,
            spec,
            clock,
        }
    }

    /// Total device count `L`.
    pub fn num_devices(&self) -> usize {
        self.topology.num_devices()
    }

    /// The topology.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// The device spec.
    pub fn spec(&self) -> &DeviceSpec {
        &self.spec
    }

    /// The modelled clock (read access for reporting).
    pub fn clock(&self) -> &SimClock {
        &self.clock
    }

    /// Executes `f(rank)` on every device concurrently (one real thread
    /// per device) and returns the per-rank results in rank order.
    ///
    /// The closure must be `Sync` because all threads borrow it; devices
    /// communicate only through their return values (message-passing
    /// discipline — no shared mutable state, hence no locks).
    pub fn run_round<T: Send>(&self, f: impl Fn(usize) -> T + Sync) -> Vec<T> {
        let l = self.num_devices();
        if l == 1 {
            return vec![f(0)];
        }
        let mut results: Vec<Option<T>> = (0..l).map(|_| None).collect();
        std::thread::scope(|scope| {
            let mut handles = Vec::with_capacity(l);
            for (rank, slot) in results.iter_mut().enumerate() {
                let f = &f;
                handles.push(scope.spawn(move || {
                    *slot = Some(f(rank));
                }));
            }
            for h in handles {
                h.join().expect("device thread panicked");
            }
        });
        results
            .into_iter()
            .map(|r| r.expect("device produced no result"))
            .collect()
    }

    /// Like [`Cluster::run_round`], but gives each device exclusive
    /// mutable access to its own slot of `states` (the replica pattern:
    /// model, RNG stream and optimiser state live per device and never
    /// alias).
    pub fn run_round_mut<S: Send, T: Send>(
        &self,
        states: &mut [S],
        f: impl Fn(usize, &mut S) -> T + Sync,
    ) -> Vec<T> {
        assert_eq!(
            states.len(),
            self.num_devices(),
            "run_round_mut: one state per device required"
        );
        if states.len() == 1 {
            return vec![f(0, &mut states[0])];
        }
        let mut results: Vec<Option<T>> = (0..states.len()).map(|_| None).collect();
        std::thread::scope(|scope| {
            for ((rank, state), slot) in states.iter_mut().enumerate().zip(results.iter_mut()) {
                let f = &f;
                scope.spawn(move || {
                    *slot = Some(f(rank, state));
                });
            }
        });
        results
            .into_iter()
            .map(|r| r.expect("device produced no result"))
            .collect()
    }

    /// Charges `flops` of compute to device `rank` on the modelled
    /// clock.
    pub fn charge_flops(&mut self, rank: usize, flops: f64) {
        self.clock
            .charge_device(rank, flops / self.spec.flops_per_sec);
    }

    /// Charges the same `flops` to every device (the SPMD common case).
    pub fn charge_flops_all(&mut self, flops: f64) {
        for rank in 0..self.num_devices() {
            self.charge_flops(rank, flops);
        }
    }

    /// Charges the fixed launch overhead of `passes` batched kernel
    /// dispatches to every device.  At small per-pass flop counts this
    /// term dominates device time (see [`DeviceSpec::pass_overhead_secs`]).
    pub fn charge_passes_all(&mut self, passes: usize) {
        let secs = passes as f64 * self.spec.pass_overhead_secs;
        for rank in 0..self.num_devices() {
            self.clock.charge_device(rank, secs);
        }
    }

    /// Averages the per-device gradient vectors through a deterministic
    /// binomial tree (reduce to rank 0, then broadcast), charging the
    /// modelled clock for every hop, and returns the average (identical
    /// on every device, bit-for-bit, because the combination order is
    /// fixed by the tree, not by thread timing).
    pub fn allreduce_mean(&mut self, vectors: Vec<Vector>) -> Vector {
        assert_eq!(
            vectors.len(),
            self.num_devices(),
            "allreduce_mean: one vector per device required"
        );
        let (mean, comm_secs) = allreduce_mean_tree(vectors, &self.topology);
        self.clock.sync_round(comm_secs);
        mean
    }

    /// Ends a round closed by an allreduce of `len` doubles whose data
    /// moved elsewhere: charges [`tree_comm_secs`] exactly as
    /// [`Cluster::allreduce_mean`] would, without moving anything.
    pub fn charge_allreduce(&mut self, len: usize) {
        self.clock.sync_round(tree_comm_secs(len, &self.topology));
    }

    /// Ends a compute-only round (no collective): folds the slowest
    /// device's time into the cluster total.
    pub fn sync(&mut self) {
        self.clock.sync_round(0.0);
    }

    /// Total modelled elapsed seconds.
    pub fn elapsed_modelled(&self) -> f64 {
        self.clock.total()
    }

    /// Resets the modelled clock (between experiments).
    pub fn reset_clock(&mut self) {
        self.clock = SimClock::new(self.num_devices());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cluster(l1: usize, l2: usize) -> Cluster {
        Cluster::new(Topology::new(l1, l2), DeviceSpec::v100())
    }

    #[test]
    fn run_round_returns_rank_ordered_results() {
        let c = small_cluster(2, 3);
        let out = c.run_round(|rank| rank * 10);
        assert_eq!(out, vec![0, 10, 20, 30, 40, 50]);
    }

    #[test]
    fn allreduce_mean_averages_and_is_deterministic() {
        let mut c = small_cluster(2, 2);
        let vectors: Vec<Vector> = (0..4)
            .map(|r| Vector::from_fn(5, |i| (r * 5 + i) as f64))
            .collect();
        let mean = c.allreduce_mean(vectors.clone());
        // Expected mean of 0..20 arranged by rank: element i = mean of
        // {i, 5+i, 10+i, 15+i} = i + 7.5.
        for i in 0..5 {
            assert_eq!(mean[i], i as f64 + 7.5);
        }
        // Determinism: identical input → identical bits.
        let mut c2 = small_cluster(2, 2);
        let mean2 = c2.allreduce_mean(vectors);
        assert_eq!(mean.as_slice(), mean2.as_slice());
    }

    #[test]
    fn clock_accumulates_max_per_round_plus_comm() {
        let mut c = small_cluster(1, 2);
        c.charge_flops(0, 1e12);
        c.charge_flops(1, 2e12); // slower device dominates
        let before = c.elapsed_modelled();
        assert_eq!(before, 0.0, "time folds in only at sync");
        c.sync();
        let per_sec = c.spec().flops_per_sec;
        assert!((c.elapsed_modelled() - 2e12 / per_sec).abs() < 1e-12);
    }

    #[test]
    fn allreduce_charges_communication_time() {
        let mut c = small_cluster(2, 2);
        let vectors: Vec<Vector> = (0..4).map(|_| Vector::zeros(1000)).collect();
        c.allreduce_mean(vectors);
        assert!(c.elapsed_modelled() > 0.0, "comm must cost time");
    }

    #[test]
    fn charge_allreduce_matches_allreduce_clock() {
        let (mut moved, mut charged) = (small_cluster(3, 2), small_cluster(3, 2));
        moved.allreduce_mean((0..6).map(|_| Vector::zeros(777)).collect());
        charged.charge_allreduce(777);
        assert_eq!(moved.elapsed_modelled().to_bits(), charged.elapsed_modelled().to_bits());
    }

    #[test]
    fn single_device_round_has_no_comm() {
        let mut c = small_cluster(1, 1);
        let v = vec![Vector::from_fn(10, |i| i as f64)];
        let mean = c.allreduce_mean(v);
        assert_eq!(mean[3], 3.0);
        assert_eq!(c.elapsed_modelled(), 0.0);
    }
}
