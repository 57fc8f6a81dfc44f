//! Collective operations: the gradient allreduce of the paper's §4
//! ("local gradient vectors … averaged over the GPUs using a parallel
//! reduction"), implemented as a binomial tree with per-hop cost
//! accounting.
//!
//! The combination order is fixed by the tree structure, so the result
//! is bitwise deterministic — the property that lets the distributed
//! trainer assert exact replica consistency after every update.

use vqmc_tensor::Vector;

use crate::topology::Topology;

/// Binomial-tree allreduce-mean.
///
/// Reduces rank-ordered `vectors` to rank 0 (log₂L steps), divides by
/// `L`, and broadcasts back down the same tree.  Returns the mean and
/// the modelled communication time [`tree_comm_secs`].
pub fn allreduce_mean_tree(mut vectors: Vec<Vector>, topo: &Topology) -> (Vector, f64) {
    let l = vectors.len();
    assert!(l >= 1, "allreduce of zero vectors");
    assert_eq!(l, topo.num_devices(), "vector count != device count");
    let len = vectors[0].len();
    assert!(
        vectors.iter().all(|v| v.len() == len),
        "allreduce: ragged vectors"
    );

    // Reduce phase: at stride s, rank r (r multiple of 2s) absorbs r+s.
    let mut stride = 1;
    while stride < l {
        let mut r = 0;
        while r + stride < l {
            // Move the sender's buffer to the receiver and add.
            let sender = std::mem::replace(&mut vectors[r + stride], Vector::zeros(0));
            vectors[r].axpy(1.0, &sender);
            r += 2 * stride;
        }
        stride *= 2;
    }
    // True division, not multiplication by a rounded reciprocal: for
    // non-power-of-two L the reciprocal of `l` is inexact and
    // `x * (1/l)` can differ from `x / l` by 1 ulp.
    for x in vectors[0].as_mut_slice() {
        *x /= l as f64;
    }

    let mean = std::mem::take(&mut vectors[0]);
    (mean, tree_comm_secs(len, topo))
}

/// Modelled time of the binomial-tree allreduce of `len` doubles over
/// `topo`: each reduce step and each (reverse-order) broadcast step
/// costs the *slowest active link* of that step (`latency +
/// bytes/bandwidth`), steps being internally parallel but mutually
/// sequential.  Zero on one device.
pub fn tree_comm_secs(len: usize, topo: &Topology) -> f64 {
    let l = topo.num_devices();
    if l == 1 {
        return 0.0;
    }
    let bytes = len * std::mem::size_of::<f64>();
    let step_cost = |stride: usize| {
        (0..l - stride)
            .step_by(2 * stride)
            .map(|r| topo.link(r, r + stride).transfer_time(bytes))
            .fold(0.0f64, f64::max)
    };
    let mut comm = 0.0f64;
    let mut stride = 1;
    while stride < l {
        comm += step_cost(stride);
        stride *= 2;
    }
    stride = l.next_power_of_two() / 2;
    while stride >= 1 {
        comm += step_cost(stride);
        stride /= 2;
    }
    comm
}

/// Number of tree steps for `l` devices (`⌈log₂ l⌉`), exposed for the
/// analytical scaling model in the benches.
pub fn tree_depth(l: usize) -> usize {
    assert!(l >= 1);
    (usize::BITS - (l - 1).leading_zeros()) as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vectors(l: usize, len: usize) -> Vec<Vector> {
        (0..l)
            .map(|r| Vector::from_fn(len, |i| (r * len + i) as f64))
            .collect()
    }

    fn exact_mean(vs: &[Vector]) -> Vector {
        let mut acc = Vector::zeros(vs[0].len());
        for v in vs {
            acc.axpy(1.0, v);
        }
        acc.scale(1.0 / vs.len() as f64);
        acc
    }

    #[test]
    fn mean_correct_for_all_device_counts() {
        for l in 1..=17 {
            let topo = Topology::new(1, l);
            let vs = vectors(l, 7);
            let expect = exact_mean(&vs);
            let (mean, _) = allreduce_mean_tree(vs, &topo);
            for i in 0..7 {
                assert!(
                    (mean[i] - expect[i]).abs() < 1e-12,
                    "L={l}, element {i}"
                );
            }
        }
    }

    #[test]
    fn comm_time_grows_logarithmically() {
        let len = 1 << 16;
        let mut prev = 0.0;
        for &l in &[2usize, 4, 8, 16] {
            let topo = Topology::new(1, l);
            let (_, comm) = allreduce_mean_tree(vectors(l, len), &topo);
            assert!(comm > prev, "comm must grow with L");
            prev = comm;
        }
        // Doubling L adds one reduce step and one broadcast step, not a
        // doubling: 16 devices should cost far less than 8× the 2-device
        // time.
        let t2 = {
            let topo = Topology::new(1, 2);
            allreduce_mean_tree(vectors(2, len), &topo).1
        };
        assert!(prev < 8.0 * t2);
    }

    #[test]
    fn inter_node_hops_cost_more() {
        let len = 1 << 16;
        let intra = allreduce_mean_tree(vectors(4, len), &Topology::new(1, 4)).1;
        let inter = allreduce_mean_tree(vectors(4, len), &Topology::new(4, 1)).1;
        assert!(inter > intra);
    }

    #[test]
    fn single_device_free() {
        let topo = Topology::new(1, 1);
        let (mean, comm) = allreduce_mean_tree(vectors(1, 5), &topo);
        assert_eq!(comm, 0.0);
        assert_eq!(mean[2], 2.0);
    }

    #[test]
    fn tree_depth_values() {
        assert_eq!(tree_depth(1), 0);
        assert_eq!(tree_depth(2), 1);
        assert_eq!(tree_depth(3), 2);
        assert_eq!(tree_depth(4), 2);
        assert_eq!(tree_depth(24), 5);
    }

    #[test]
    #[should_panic(expected = "ragged")]
    fn ragged_vectors_rejected() {
        let topo = Topology::new(1, 2);
        let _ = allreduce_mean_tree(vec![Vector::zeros(3), Vector::zeros(4)], &topo);
    }
}
