//! The open-loop load generator: one thread, one nonblocking
//! connection per stream, requests sent *at their due time*.
//!
//! Each stream sends on a fixed schedule whatever the server does, and
//! pipelines: a slow reply does not delay the next request.  A request
//! is flushed to the socket the moment it is queued; between arrivals
//! the thread sleeps in the poller (waking early for replies) until one
//! millisecond before the next is due, then spins.  Latency runs from
//! the *due* time, so a stall in the generator or the server is charged
//! to every request it delays, and the generator's own lateness
//! (`sent − due`) is reported next to the latencies it could have
//! distorted.
//!
//! `vqmc-loadgen --mode swarm` is deliberately not reused: it queues a
//! request and then blocks in `poller.wait` before flushing it, and the
//! polling shim rounds timeouts up to whole milliseconds, so it reports
//! milliseconds for a server that answers in a third of one.

use std::collections::VecDeque;
use std::io;
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use polling::{Event, Poller};
use vqmc_net::{Connection, ReadStatus};

/// How close to the next arrival the generator stops sleeping and spins.
const SPIN_WINDOW: Duration = Duration::from_millis(1);
/// How long after the last send the generator waits for late replies.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(2);

/// When request `i` of stream `stream` is due, in nanoseconds from the
/// start of the step: evenly spaced at the stream's rate, the streams'
/// phases spread evenly over one period so they never fire together.
pub fn due_ns(stream: usize, streams: usize, rate_rps: f64, i: u64) -> u64 {
    let period_ns = 1e9 / rate_rps;
    let phase = period_ns * stream as f64 / streams as f64;
    (phase + period_ns * i as f64).round() as u64
}

/// Requests stream `stream` sends in a step of `step_s` seconds.
pub fn requests_in_step(rate_rps: f64, step_s: f64) -> u64 {
    (rate_rps * step_s).floor().max(1.0) as u64
}

/// One stream's traffic: a rate and a pool of encoded request payloads
/// sent round-robin (request `i` carries `payloads[i % len]`).
pub struct StreamPlan<'a> {
    pub rate_rps: f64,
    pub payloads: &'a [Vec<u8>],
}

/// One answered request: whose it was and when it was due, sent and
/// read.  The reply's bytes go to the step's `on_reply` and are not kept.
#[derive(Clone, Debug)]
pub struct Reply {
    pub stream: usize,
    /// Position in the stream's schedule (and, modulo the pool size,
    /// in its payload pool).
    pub index: u64,
    pub due_ns: u64,
    pub sent_ns: u64,
    pub done_ns: u64,
}

impl Reply {
    /// Due → reply frame read, the latency the benchmark reports.
    pub fn latency_ms(&self) -> f64 {
        (self.done_ns - self.due_ns) as f64 / 1e6
    }
    /// How late the generator sent it.
    pub fn lag_ms(&self) -> f64 {
        (self.sent_ns - self.due_ns) as f64 / 1e6
    }
}

/// What a step observed.
#[derive(Default)]
pub struct StepLog {
    pub replies: Vec<Reply>,
    /// Requests sent per stream.
    pub sent: Vec<u64>,
    /// Requests never answered within [`DRAIN_TIMEOUT`], or lost to a
    /// closed connection.
    pub unanswered: u64,
    /// Requests in flight, sampled at every send.
    pub in_flight: Vec<usize>,
    /// First send to last reply, seconds.
    pub wall_s: f64,
}

struct Pending {
    index: u64,
    due_ns: u64,
    sent_ns: u64,
}

/// The generator's connections, kept across steps.
pub struct Driver {
    conns: Vec<Connection>,
    poller: Poller,
    events: Vec<Event>,
}

impl Driver {
    /// Opens one connection per stream and registers it for reads.
    pub fn connect(addr: SocketAddr, streams: usize, max_payload: usize) -> io::Result<Driver> {
        let poller = Poller::new()?;
        let mut conns = Vec::with_capacity(streams);
        for key in 0..streams {
            let conn = Connection::new(TcpStream::connect(addr)?, max_payload)?;
            poller.add(conn.raw_fd(), key, true, false)?;
            conns.push(conn);
        }
        Ok(Driver {
            conns,
            poller,
            events: Vec::new(),
        })
    }

    /// Runs one step of `step_s` seconds of the planned traffic.
    ///
    /// `on_reply` is handed each reply's timing and payload as its frame
    /// is read; the timings are also kept in the log.  What it does
    /// delays the generator's next send, so it should do little.
    pub fn run_step(
        &mut self,
        plans: &[StreamPlan<'_>],
        step_s: f64,
        mut on_reply: impl FnMut(&Reply, Vec<u8>),
    ) -> io::Result<StepLog> {
        assert_eq!(plans.len(), self.conns.len(), "one plan per connection");
        let streams = plans.len();
        let totals: Vec<u64> = plans
            .iter()
            .map(|p| requests_in_step(p.rate_rps, step_s))
            .collect();
        let mut next: Vec<u64> = vec![0; streams];
        let mut fifos: Vec<VecDeque<Pending>> = (0..streams).map(|_| VecDeque::new()).collect();
        let mut open = vec![true; streams];
        let mut log = StepLog {
            sent: vec![0; streams],
            ..StepLog::default()
        };
        log.replies.reserve(totals.iter().sum::<u64>() as usize);

        let origin = Instant::now();
        let now_ns = || origin.elapsed().as_nanos() as u64;
        let mut last_send = origin;
        let mut last_done_ns = 0;

        loop {
            // Send everything that is due, flushing as it is queued.
            let now = now_ns();
            let mut next_due = u64::MAX;
            for s in 0..streams {
                while open[s] && next[s] < totals[s] {
                    let due = due_ns(s, streams, plans[s].rate_rps, next[s]);
                    if due > now {
                        next_due = next_due.min(due);
                        break;
                    }
                    let pool = plans[s].payloads;
                    self.conns[s].queue_payload(&pool[(next[s] % pool.len() as u64) as usize]);
                    if let Err(e) = self.conns[s].flush() {
                        eprintln!("stream {s}: send failed: {e}");
                        open[s] = false;
                        break;
                    }
                    fifos[s].push_back(Pending {
                        index: next[s],
                        due_ns: due,
                        sent_ns: now_ns(),
                    });
                    next[s] += 1;
                    log.sent[s] += 1;
                    log.in_flight.push(fifos.iter().map(VecDeque::len).sum());
                    last_send = Instant::now();
                }
                // A socket buffer that filled earlier gets its tail now.
                if open[s] && self.conns[s].wants_write() && self.conns[s].flush().is_err() {
                    open[s] = false;
                }
            }

            // Take every reply that has arrived (replies are in order
            // on a connection, so the oldest pending request owns it).
            for s in 0..streams {
                if !open[s] {
                    continue;
                }
                let fifo = &mut fifos[s];
                let replies = &mut log.replies;
                let status = self.conns[s].read_frames(|payload| {
                    if let Some(p) = fifo.pop_front() {
                        let done_ns = now_ns();
                        last_done_ns = done_ns;
                        let reply = Reply {
                            stream: s,
                            index: p.index,
                            due_ns: p.due_ns,
                            sent_ns: p.sent_ns,
                            done_ns,
                        };
                        on_reply(&reply, payload);
                        replies.push(reply);
                    }
                });
                if !matches!(status, Ok(ReadStatus::Open)) {
                    open[s] = false;
                }
            }

            let all_sent = (0..streams).all(|s| !open[s] || next[s] >= totals[s]);
            let outstanding: usize = (0..streams)
                .filter(|&s| open[s])
                .map(|s| fifos[s].len())
                .sum();
            if all_sent && (outstanding == 0 || last_send.elapsed() > DRAIN_TIMEOUT) {
                break;
            }

            // Sleep in the poller while the next arrival is more than
            // the spin window away; a reply wakes it early.  The shim
            // takes whole milliseconds, so only those are slept.
            let gap = if all_sent {
                Duration::from_millis(2)
            } else {
                Duration::from_nanos(next_due.saturating_sub(now_ns())).saturating_sub(SPIN_WINDOW)
            };
            if gap >= Duration::from_millis(1) {
                self.events.clear();
                self.poller.wait(
                    &mut self.events,
                    Some(Duration::from_millis(gap.as_millis() as u64)),
                )?;
            } else {
                std::thread::yield_now();
            }
        }

        log.unanswered = fifos.iter().map(|f| f.len() as u64).sum();
        log.wall_s = last_done_ns.max(1) as f64 / 1e9;
        Ok(log)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arrivals_are_evenly_spaced_and_streams_interleave() {
        // Two streams at 250 rps: 4 ms apart, the second 2 ms after the first.
        assert_eq!(due_ns(0, 2, 250.0, 0), 0);
        assert_eq!(due_ns(1, 2, 250.0, 0), 2_000_000);
        assert_eq!(due_ns(0, 2, 250.0, 1), 4_000_000);
        assert_eq!(due_ns(1, 2, 250.0, 3), 14_000_000);
        // No drift: the millionth arrival is where the rate puts it.
        assert_eq!(due_ns(0, 1, 16_000.0, 1_000_000), 62_500_000_000);
        // Strictly increasing within a stream, even at high rates.
        let mut last = 0;
        for i in 1..10_000 {
            let d = due_ns(0, 2, 31_337.0, i);
            assert!(d > last);
            last = d;
        }
    }

    #[test]
    fn a_step_sends_rate_times_seconds() {
        assert_eq!(requests_in_step(250.0, 4.0), 1_000);
        assert_eq!(requests_in_step(24.0, 8.5), 204);
        assert_eq!(requests_in_step(0.5, 1.0), 1);
    }

    #[test]
    fn reply_latency_runs_from_the_due_time() {
        let r = Reply {
            stream: 0,
            index: 3,
            due_ns: 1_000_000,
            sent_ns: 1_250_000,
            done_ns: 3_000_000,
        };
        assert_eq!(r.latency_ms(), 2.0);
        assert_eq!(r.lag_ms(), 0.25);
    }
}
