//! # vqmc-cluster
//!
//! A virtual multi-GPU cluster: the substrate substitution that lets
//! this workspace reproduce the paper's multi-node scaling study
//! (Figures 3–4, Tables 6–7) without NVIDIA hardware.
//!
//! ## What is real and what is modelled
//!
//! * **Real**: the data.  `vqmc-core`'s `DistributedTrainer` runs every
//!   device as a real OS thread with its own model replica and RNG
//!   stream, and every vector combine goes through the deterministic
//!   binomial tree [`allreduce_mean_tree`] — directly, or behind a
//!   collective that replays its pairwise schedule — so replica
//!   consistency and reduction-order determinism are *tested
//!   properties*, not assumptions.  A [`Cluster`] moves no data: it is
//!   the topology, the device spec and the modelled clock.
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

/// A virtual cluster: a topology, a device spec and the modelled clock.
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

    /// Ends a round closed by an allreduce of `len` doubles whose data
    /// moved elsewhere (a [`allreduce_mean_tree`] pass, or a collective
    /// replaying its schedule): charges the [`tree_comm_secs`] that the
    /// tree reports for it, without moving anything.
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
    use vqmc_tensor::Vector;

    fn small_cluster(l1: usize, l2: usize) -> Cluster {
        Cluster::new(Topology::new(l1, l2), DeviceSpec::v100())
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
        c.charge_allreduce(1000);
        assert!(c.elapsed_modelled() > 0.0, "comm must cost time");
    }

    #[test]
    fn charge_allreduce_matches_allreduce_clock() {
        let mut c = small_cluster(3, 2);
        c.charge_allreduce(777);
        let vectors = (0..6).map(|_| Vector::zeros(777)).collect();
        let (_, comm_secs) = allreduce_mean_tree(vectors, c.topology());
        assert_eq!(comm_secs.to_bits(), tree_comm_secs(777, c.topology()).to_bits());
        assert_eq!(c.elapsed_modelled().to_bits(), comm_secs.to_bits());
    }

    #[test]
    fn single_device_round_has_no_comm() {
        let mut c = small_cluster(1, 1);
        c.charge_allreduce(10);
        assert_eq!(c.elapsed_modelled(), 0.0);
    }
}
