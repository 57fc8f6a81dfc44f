//! Live serving statistics: lock-free counters and log-bucketed
//! histograms, snapshotted on demand by the `Stats` frame.
//!
//! Everything here is plain atomics, relaxed except for one
//! release/acquire pair — recording a latency or a batch occupancy is a
//! handful of `fetch_add`s on shared cache lines, cheap enough to sit on
//! the per-request hot path.  The pair orders a latency record after
//! its request's admission: a snapshot reads the latency buckets
//! (acquire) before `accepted`, so a histogram never counts more
//! requests than the snapshot says were accepted.
//! Percentiles are derived from power-of-two latency buckets at
//! snapshot time, so a reported p99 is the *upper edge* of the bucket
//! containing the 99th-percentile request (≤ 2× the true value — the
//! usual log-histogram trade: O(1) recording, bounded relative error).

use std::sync::atomic::{AtomicU64, Ordering};

use crate::protocol::{
    OpLatency, StatsSnapshot, OCCUPANCY_BUCKETS, STATS_OPS, STATS_PRECISIONS,
};

/// Latency buckets: powers of two in microseconds, 1 µs … ~2.1 s, plus
/// a final overflow bucket.
const LATENCY_BUCKETS: usize = 32;

/// Operation indices into the stats arrays (wire order).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(usize)]
pub enum StatOp {
    /// `Request::Sample`.
    Sample = 0,
    /// `Request::LogPsi`.
    LogPsi = 1,
    /// `Request::LocalEnergy`.
    LocalEnergy = 2,
}

#[derive(Default)]
struct LatencyHist {
    /// Requests per bucket; their sum is the histogram's count.
    buckets: [AtomicU64; LATENCY_BUCKETS],
    sum_us: AtomicU64,
}

impl LatencyHist {
    /// The count increment is `Release`, so a snapshot that sees it
    /// (`Acquire`) also sees everything recorded before it — the
    /// request's `accepted` increment included.
    fn record(&self, us: u64) {
        let bucket = (64 - us.leading_zeros() as usize).min(LATENCY_BUCKETS - 1);
        self.buckets[bucket].fetch_add(1, Ordering::Release);
        self.sum_us.fetch_add(us, Ordering::Relaxed);
    }

    fn snapshot(&self) -> OpLatency {
        let counts: Vec<u64> = self
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Acquire))
            .collect();
        let total: u64 = counts.iter().sum();
        let percentile = |p: f64| -> u64 {
            if total == 0 {
                return 0;
            }
            let rank = ((total as f64) * p).ceil() as u64;
            let mut seen = 0u64;
            for (i, &c) in counts.iter().enumerate() {
                seen += c;
                if seen >= rank {
                    // Upper edge of bucket i: 2^i - 1 µs (bucket 0 holds
                    // sub-µs latencies).
                    return (1u64 << i).saturating_sub(1);
                }
            }
            (1u64 << (LATENCY_BUCKETS - 1)).saturating_sub(1)
        };
        OpLatency {
            count: total,
            sum_us: self.sum_us.load(Ordering::Relaxed),
            p50_us: percentile(0.50),
            p95_us: percentile(0.95),
            p99_us: percentile(0.99),
        }
    }
}

/// The shared serving counters (one instance per server, updated by
/// every event-loop and worker thread).
#[derive(Default)]
pub struct ServerStats {
    accepted: AtomicU64,
    shed: AtomicU64,
    refused: AtomicU64,
    reloads: AtomicU64,
    connections: AtomicU64,
    latency: [[LatencyHist; STATS_PRECISIONS]; STATS_OPS],
    occupancy: [AtomicU64; OCCUPANCY_BUCKETS],
}

impl ServerStats {
    /// A request was admitted to the batcher.
    pub fn on_accepted(&self) {
        self.accepted.fetch_add(1, Ordering::Relaxed);
    }

    /// A request was refused by the shedding tier.
    pub fn on_shed(&self) {
        self.shed.fetch_add(1, Ordering::Relaxed);
    }

    /// A request was refused because the queue is saturated.
    pub fn on_refused(&self) {
        self.refused.fetch_add(1, Ordering::Relaxed);
    }

    /// A checkpoint hot-reload completed.
    pub fn on_reload(&self) {
        self.reloads.fetch_add(1, Ordering::Relaxed);
    }

    /// Completed reloads so far.
    pub fn reloads(&self) -> u64 {
        self.reloads.load(Ordering::Relaxed)
    }

    /// A connection opened.
    pub fn on_connect(&self) {
        self.connections.fetch_add(1, Ordering::Relaxed);
    }

    /// A connection closed.
    pub fn on_disconnect(&self) {
        self.connections.fetch_sub(1, Ordering::Relaxed);
    }

    /// Records one request's admission→reply latency.
    pub fn record_latency(&self, op: StatOp, precision_tag: u8, us: u64) {
        self.latency[op as usize][(precision_tag as usize).min(STATS_PRECISIONS - 1)]
            .record(us);
    }

    /// Records the size of one drained batch.
    pub fn record_occupancy(&self, batch_len: usize) {
        if batch_len == 0 {
            return;
        }
        // log2 buckets 1, 2, 4, …, ≥64.
        let bucket = (usize::BITS - 1 - batch_len.leading_zeros()) as usize;
        self.occupancy[bucket.min(OCCUPANCY_BUCKETS - 1)].fetch_add(1, Ordering::Relaxed);
    }

    /// Builds the wire snapshot; `queue_depth` and `tier` are owned by
    /// the admission layer and passed in.  The latency cells are read
    /// first (see the module docs), so no histogram count exceeds
    /// `accepted`.
    pub fn snapshot(&self, queue_depth: u32, tier: u8) -> StatsSnapshot {
        let mut latency = [[OpLatency::default(); STATS_PRECISIONS]; STATS_OPS];
        for (op, hists) in latency.iter_mut().zip(&self.latency) {
            for (arm, hist) in op.iter_mut().zip(hists) {
                *arm = hist.snapshot();
            }
        }
        let mut s = StatsSnapshot {
            latency,
            accepted: self.accepted.load(Ordering::Relaxed),
            shed: self.shed.load(Ordering::Relaxed),
            refused: self.refused.load(Ordering::Relaxed),
            reloads: self.reloads.load(Ordering::Relaxed),
            queue_depth,
            connections: self.connections.load(Ordering::Relaxed) as u32,
            tier,
            ..StatsSnapshot::default()
        };
        for (dst, src) in s.occupancy.iter_mut().zip(&self.occupancy) {
            *dst = src.load(Ordering::Relaxed);
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_percentiles_track_buckets() {
        let stats = ServerStats::default();
        // 99 fast requests (~100 µs) and one slow outlier (~50 ms).
        for _ in 0..99 {
            stats.record_latency(StatOp::LogPsi, 0, 100);
        }
        stats.record_latency(StatOp::LogPsi, 0, 50_000);
        let s = stats.snapshot(0, 0);
        let arm = s.latency[StatOp::LogPsi as usize][0];
        assert_eq!(arm.count, 100);
        assert!(arm.p50_us >= 100 && arm.p50_us < 256, "p50 = {}", arm.p50_us);
        assert!(arm.p99_us >= 100 && arm.p99_us < 256, "p99 = {}", arm.p99_us);
        // The mean sees the outlier even though p99 does not.
        assert_eq!(arm.sum_us, 99 * 100 + 50_000);
    }

    #[test]
    fn occupancy_buckets_are_log2() {
        let stats = ServerStats::default();
        for size in [1, 2, 3, 4, 63, 64, 1000] {
            stats.record_occupancy(size);
        }
        let s = stats.snapshot(0, 0);
        assert_eq!(s.occupancy, [1, 2, 1, 0, 0, 1, 2]);
    }

    #[test]
    fn connection_gauge_tracks_open_close() {
        let stats = ServerStats::default();
        for _ in 0..5 {
            stats.on_connect();
        }
        stats.on_disconnect();
        assert_eq!(stats.snapshot(0, 0).connections, 4);
    }
}
