//! Concurrency contract of [`ServerStats`]: many server threads
//! hammer the counters while other threads probe snapshots, and every
//! snapshot must be *internally sane* — counters monotone across
//! consecutive probes, the connection gauge never negative (recorders
//! pair connect-before-disconnect, as the event loops do), and histogram
//! totals consistent with the number of recorded events.  After all
//! recorders join, the totals must be exact — relaxed atomics may
//! reorder between cells, but nothing may be lost.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use vqmc_serve::stats::{ServerStats, StatOp};

const OPS: [StatOp; 3] = [StatOp::Sample, StatOp::LogPsi, StatOp::LocalEnergy];

#[test]
fn hammered_stats_stay_sane_under_concurrent_snapshots() {
    let stats = Arc::new(ServerStats::default());
    let stop = Arc::new(AtomicBool::new(false));
    let writers = 4;
    let rounds = 20_000u64;

    let recorders: Vec<_> = (0..writers)
        .map(|w| {
            let stats = stats.clone();
            std::thread::spawn(move || {
                for i in 0..rounds {
                    // Gauge discipline mirrors the event loops: a connect
                    // always precedes its disconnect on the same thread.
                    stats.on_connect();
                    stats.on_accepted();
                    if i % 7 == 0 {
                        stats.on_shed();
                    }
                    if i % 13 == 0 {
                        stats.on_refused();
                    }
                    let op = OPS[(w + i as usize) % OPS.len()];
                    let precision = (i % 2) as u8;
                    stats.record_latency(op, precision, i % 900);
                    stats.record_occupancy((i % 70) as usize + 1);
                    stats.on_disconnect();
                }
            })
        })
        .collect();

    // Snapshot probes run concurrently with the recorders and check
    // every invariant that must hold *mid-flight*.
    let probes: Vec<_> = (0..2)
        .map(|_| {
            let stats = stats.clone();
            let stop = stop.clone();
            std::thread::spawn(move || {
                let mut prev_accepted = 0u64;
                let mut prev_shed = 0u64;
                let mut prev_refused = 0u64;
                let mut prev_latency_counts = [[0u64; 2]; 3];
                let mut snapshots = 0u64;
                // Do-while: every probe takes at least one snapshot,
                // even when the recorders finish before it is scheduled.
                loop {
                    let s = stats.snapshot(3, 1);
                    // Pass-through fields.
                    assert_eq!(s.queue_depth, 3);
                    assert_eq!(s.tier, 1);
                    // Monotone counters.
                    assert!(s.accepted >= prev_accepted, "accepted went backwards");
                    assert!(s.shed >= prev_shed, "shed went backwards");
                    assert!(s.refused >= prev_refused, "refused went backwards");
                    prev_accepted = s.accepted;
                    prev_shed = s.shed;
                    prev_refused = s.refused;
                    // Gauge: connect-before-disconnect pairing means the
                    // u64 underneath never wraps, so the u32 cast stays
                    // a small non-negative number.
                    assert!(
                        s.connections <= writers as u32,
                        "gauge {} exceeds the number of live recorders",
                        s.connections
                    );
                    // Histograms: per-arm monotone, and each arm's
                    // bucket-derived count can never exceed what the
                    // counters imply happened.
                    for (op, arms) in s.latency.iter().enumerate() {
                        for (arm, lat) in arms.iter().enumerate() {
                            assert!(
                                lat.count >= prev_latency_counts[op][arm],
                                "latency[{op}][{arm}] count went backwards"
                            );
                            prev_latency_counts[op][arm] = lat.count;
                            assert!(
                                lat.count <= s.accepted,
                                "latency[{op}][{arm}] count {} > accepted {}",
                                lat.count,
                                s.accepted
                            );
                            if lat.count > 0 {
                                // p50 ≤ p95 ≤ p99 by construction.
                                assert!(lat.p50_us <= lat.p95_us);
                                assert!(lat.p95_us <= lat.p99_us);
                            }
                        }
                    }
                    snapshots += 1;
                    if stop.load(Ordering::Relaxed) {
                        break;
                    }
                }
                snapshots
            })
        })
        .collect();

    for r in recorders {
        r.join().unwrap();
    }
    stop.store(true, Ordering::Relaxed);
    let probe_rounds: u64 = probes.into_iter().map(|p| p.join().unwrap()).sum();
    assert!(probe_rounds > 0, "probes never ran");

    // Quiescent totals are exact.
    let s = stats.snapshot(0, 0);
    let total = writers as u64 * rounds;
    assert_eq!(s.accepted, total);
    assert_eq!(s.shed, writers as u64 * rounds.div_ceil(7));
    assert_eq!(s.refused, writers as u64 * rounds.div_ceil(13));
    assert_eq!(s.connections, 0, "every connect had its disconnect");
    let latency_total: u64 = s
        .latency
        .iter()
        .flat_map(|arms| arms.iter())
        .map(|l| l.count)
        .sum();
    assert_eq!(latency_total, total, "latency records lost or duplicated");
    let occupancy_total: u64 = s.occupancy.iter().sum();
    assert_eq!(occupancy_total, total, "occupancy records lost");
    // Latency sums are exact too (relaxed adds still sum correctly).
    let expect_sum: u64 = (0..rounds).map(|i| i % 900).sum::<u64>() * writers as u64;
    let got_sum: u64 = s
        .latency
        .iter()
        .flat_map(|arms| arms.iter())
        .map(|l| l.sum_us)
        .sum();
    assert_eq!(got_sum, expect_sum, "latency sums drifted");
}
