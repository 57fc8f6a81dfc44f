//! `vqmc-loadgen` — load generator for the `vqmc-serve` inference
//! server. Measures sustained throughput and latency percentiles under
//! two standard load models:
//!
//! * **closed loop** (default): `--connections` clients each issue
//!   `--requests` back-to-back requests (a new request the moment the
//!   previous reply lands). Offered load self-regulates to the server's
//!   capacity — this is the mode the dynamic-batching speedup criterion
//!   is judged in.
//! * **open loop**: requests are fired on a fixed schedule
//!   (`--rate` req/s split across the connections) regardless of
//!   completions, so queueing delay shows up in the tail latencies
//!   instead of throttling the client.
//! * **swarm**: open-loop arrivals over *thousands* of connections
//!   (1k–10k) driven by a single nonblocking event-loop thread
//!   (`vqmc-net` poller + frame decoder), so client-side thread
//!   scheduling never caps the offered connection count.  Latency is
//!   measured from each request's *scheduled* arrival time, so
//!   queueing delay is charged to the server, never hidden by client
//!   send backpressure (no coordinated omission).
//!
//! Results append to a JSON array (default `BENCH_serving.json`):
//!
//! ```sh
//! vqmc-cli serve --checkpoint model.ckpt --max-batch 64 &   # prints the address
//! vqmc-loadgen --addr 127.0.0.1:PORT --connections 32 --requests 200 \
//!              --count 16 --label batch64
//! ```

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use vqmc_serve::{Client, Request};
use vqmc_tensor::{Precision, SpinBatch};

const USAGE: &str = "\
vqmc-loadgen — load generator for vqmc-serve

USAGE:
  vqmc-loadgen --addr <host:port> [--flag value]...

FLAGS:
  --addr <host:port>   server address (required)
  --mode closed|open|swarm  load model (default closed)
  --connections <N>    concurrent client connections (default 8)
  --requests <N>       requests per connection (default 100)
  --rate <R>           open/swarm: total offered req/s (default 500)
  --op sample|logpsi|localenergy  request type (default sample)
  --precision f64|f32  execution precision tag on every request
                       (default: omit the tag — server default applies)
  --count <N>          rows per request (default 16)
  --seed <N>           base seed for request payloads (default 0)
  --warmup <N>         unrecorded warm-up requests per connection (default 5)
  --reload <path>      send a checkpoint hot-reload (server-side path)
                       from a side connection at the midpoint of the
                       measured run; the run fails if the reload errs
  --label <s>          run label recorded in the JSON output
  --out <path>         output JSON array (default BENCH_serving.json; 'none' to skip)
  --stats true         fetch and print the server's live stats snapshot
                       (standalone with --requests 0, or after the run)
  --shutdown true      send Shutdown to the server when done
                       (with --requests 0: send it without any load)";

/// Every flag `parse_opts` reads; any other name fails the run.
const FLAGS: &[&str] = &[
    "addr", "mode", "connections", "requests", "rate", "op", "precision", "count", "seed",
    "warmup", "reload", "label", "out", "stats", "shutdown",
];

#[derive(Clone)]
struct Opts {
    addr: String,
    mode: String,
    connections: usize,
    requests: usize,
    rate: f64,
    op: String,
    precision: Option<Precision>,
    count: u32,
    seed: u64,
    warmup: usize,
    reload: Option<String>,
    label: String,
    out: String,
    shutdown: bool,
    stats: bool,
}

fn parse_opts() -> Result<Opts, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut flags = std::collections::BTreeMap::new();
    let mut i = 0;
    while i < args.len() {
        let Some(name) = args[i].strip_prefix("--") else {
            return Err(format!("expected a --flag, found {:?}", args[i]));
        };
        if name == "help" || name == "h" {
            println!("{USAGE}");
            std::process::exit(0);
        }
        if !FLAGS.contains(&name) {
            return Err(format!("unknown flag --{name}"));
        }
        let Some(value) = args.get(i + 1) else {
            return Err(format!("flag --{name} is missing its value"));
        };
        flags.insert(name.to_string(), value.clone());
        i += 2;
    }
    let get = |k: &str, d: &str| flags.get(k).cloned().unwrap_or_else(|| d.to_string());
    let opts = Opts {
        addr: flags.get("addr").cloned().ok_or("--addr is required")?,
        mode: get("mode", "closed"),
        connections: get("connections", "8").parse().map_err(|_| "--connections")?,
        requests: get("requests", "100").parse().map_err(|_| "--requests")?,
        rate: get("rate", "500").parse().map_err(|_| "--rate")?,
        op: get("op", "sample"),
        precision: match flags.get("precision") {
            None => None,
            Some(s) => Some(
                Precision::parse(s).ok_or(format!("--precision {s:?} (f64|f32)"))?,
            ),
        },
        count: get("count", "16").parse().map_err(|_| "--count")?,
        seed: get("seed", "0").parse().map_err(|_| "--seed")?,
        warmup: get("warmup", "5").parse().map_err(|_| "--warmup")?,
        reload: flags.get("reload").cloned(),
        label: get("label", ""),
        out: get("out", "BENCH_serving.json"),
        shutdown: get("shutdown", "false") == "true",
        stats: get("stats", "false") == "true",
    };
    if !matches!(opts.mode.as_str(), "closed" | "open" | "swarm") {
        return Err(format!("--mode {:?} (closed|open|swarm)", opts.mode));
    }
    if !matches!(opts.op.as_str(), "sample" | "logpsi" | "localenergy") {
        return Err(format!("--op {:?} (sample|logpsi|localenergy)", opts.op));
    }
    if opts.connections == 0 || opts.count == 0 {
        return Err("--connections/--count must be positive".into());
    }
    if opts.requests == 0 && !opts.shutdown && !opts.stats {
        return Err("--requests 0 only makes sense with --shutdown/--stats true".into());
    }
    Ok(opts)
}

/// Builds the r-th request for connection c (deterministic payloads so
/// runs are comparable).
fn build_request(opts: &Opts, num_spins: usize, c: usize, r: usize) -> Request {
    let seed = opts
        .seed
        .wrapping_add((c as u64) << 32)
        .wrapping_add(r as u64);
    match opts.op.as_str() {
        "sample" => Request::Sample {
            count: opts.count,
            seed: Some(seed),
            precision: opts.precision,
        },
        op => {
            let batch = SpinBatch::from_fn(opts.count as usize, num_spins, |s, i| {
                (seed as usize + s * 31 + i * 7).wrapping_mul(2654435761) as u8 & 1
            });
            if op == "logpsi" {
                Request::LogPsi {
                    batch,
                    precision: opts.precision,
                }
            } else {
                Request::LocalEnergy {
                    batch,
                    precision: opts.precision,
                }
            }
        }
    }
}

struct RunStats {
    latencies_us: Vec<u64>,
    ok: u64,
    errors: u64,
    wall: Duration,
}

/// Swarm mode: one event-loop thread drives every connection
/// nonblocking — open-loop arrivals at `--rate` req/s dealt
/// round-robin across `--connections` sockets, replies matched FIFO
/// per connection (the server guarantees in-order replies), latency
/// measured from the scheduled arrival instant.
fn run_swarm(opts: &Opts, num_spins: usize) -> RunStats {
    use std::collections::VecDeque;
    use vqmc_net::{Connection, Event, Poller};

    struct SwarmConn {
        conn: Connection,
        /// Scheduled arrival instants of in-flight requests, FIFO.
        inflight: VecDeque<Instant>,
        open: bool,
    }

    let n_conns = opts.connections;
    let total = n_conns * opts.requests;
    let period = Duration::from_secs_f64(1.0 / opts.rate);
    let poller = Poller::new().expect("create poller");

    // Ramp the swarm up with bounded retries: thousands of sequential
    // connects can outrun the server's accept backlog, which shows up
    // as transient refusals, not fatal errors.
    let mut conns: Vec<SwarmConn> = Vec::with_capacity(n_conns);
    for key in 0..n_conns {
        let stream = {
            let mut attempt = 0;
            loop {
                match std::net::TcpStream::connect(&opts.addr[..]) {
                    Ok(s) => break s,
                    Err(e) if attempt < 50 => {
                        attempt += 1;
                        let _ = e;
                        std::thread::sleep(Duration::from_millis(2 * attempt));
                    }
                    Err(e) => panic!("connect {key}/{n_conns}: {e}"),
                }
            }
        };
        let conn =
            Connection::new(stream, vqmc_serve::protocol::MAX_FRAME_LEN).expect("nonblocking");
        poller
            .add(conn.raw_fd(), key, true, false)
            .expect("register connection");
        conns.push(SwarmConn {
            conn,
            inflight: VecDeque::new(),
            open: true,
        });
    }
    println!("  swarm: {n_conns} connections open");

    let started = Instant::now();
    // Generous overall guard: the scheduled span plus a drain margin.
    let guard = started
        + Duration::from_secs_f64(total as f64 / opts.rate)
        + Duration::from_secs(120);
    let mut latencies_us: Vec<u64> = Vec::with_capacity(total);
    let mut errors = 0u64;
    let mut sent = 0usize;
    let mut answered = 0usize;
    let mut lost = 0usize;
    let mut events: Vec<Event> = Vec::new();
    let mut dirty: Vec<usize> = Vec::new();

    while answered + lost < total {
        if Instant::now() > guard {
            eprintln!("  swarm: guard timeout with {} unanswered", total - answered - lost);
            errors += (total - answered - lost) as u64;
            break;
        }

        // Fire every arrival that is due; deal round-robin.
        let now = started.elapsed();
        while sent < total && period.mul_f64(sent as f64) <= now {
            let key = sent % n_conns;
            let due = started + period.mul_f64(sent as f64);
            let sc = &mut conns[key];
            if sc.open {
                let request = build_request(opts, num_spins, key, sent / n_conns);
                sc.conn
                    .queue_payload(&vqmc_serve::protocol::encode_request(&request));
                sc.inflight.push_back(due);
                dirty.push(key);
            } else {
                // The connection died earlier: this arrival can never
                // be answered — it is a failed request, not a no-op.
                lost += 1;
                errors += 1;
            }
            sent += 1;
        }

        // Wait for socket readiness, but never past the next arrival;
        // requests queued above go out now, not after the wait.
        let timeout = if !dirty.is_empty() {
            Duration::ZERO
        } else if sent < total {
            let next_due = period.mul_f64(sent as f64);
            next_due
                .checked_sub(started.elapsed())
                .unwrap_or(Duration::ZERO)
                .min(Duration::from_millis(50))
        } else {
            Duration::from_millis(50)
        };
        poller.wait(&mut events, Some(timeout)).expect("poller wait");
        for ev in events.drain(..) {
            dirty.push(ev.key);
        }

        // Service marked connections: read replies, flush queued
        // requests, resync poller interest.
        dirty.sort_unstable();
        dirty.dedup();
        for key in dirty.drain(..) {
            let sc = &mut conns[key];
            if !sc.open {
                continue;
            }
            let inflight = &mut sc.inflight;
            let mut failed = false;
            let read = sc.conn.read_frames(&mut |payload: Vec<u8>| {
                let due = inflight.pop_front().expect("reply without a request");
                answered += 1;
                // An Error frame (0xEF) is a protocol-level failure.
                if payload.first() == Some(&0xEF) {
                    errors += 1;
                } else {
                    latencies_us.push(due.elapsed().as_micros() as u64);
                }
            });
            match read {
                Ok(vqmc_net::ReadStatus::Open) => {}
                Ok(vqmc_net::ReadStatus::Eof) => failed = true,
                Err(_) => failed = true,
            }
            if !failed && sc.conn.flush().is_err() {
                failed = true;
            }
            if failed {
                // Connection died: unanswered in-flight requests are
                // lost, and the slot stops accepting arrivals.
                let _ = poller.delete(sc.conn.raw_fd());
                sc.open = false;
                let dropped = sc.inflight.len();
                lost += dropped;
                errors += dropped as u64;
                sc.inflight.clear();
                continue;
            }
            let _ = poller.modify(sc.conn.raw_fd(), key, true, sc.conn.wants_write());
        }
    }

    let wall = started.elapsed();
    latencies_us.sort_unstable();
    RunStats {
        ok: latencies_us.len() as u64,
        errors,
        latencies_us,
        wall,
    }
}

fn percentile(sorted_us: &[u64], p: f64) -> f64 {
    if sorted_us.is_empty() {
        return f64::NAN;
    }
    let rank = (p / 100.0 * (sorted_us.len() - 1) as f64).round() as usize;
    sorted_us[rank.min(sorted_us.len() - 1)] as f64 / 1000.0
}

fn run(opts: &Opts, num_spins: usize) -> RunStats {
    let errors = Arc::new(AtomicU64::new(0));
    let started = Instant::now();
    // Open loop: each connection fires on its own fixed schedule at
    // rate/connections, offset so the aggregate arrivals interleave.
    let per_conn_period = Duration::from_secs_f64(opts.connections as f64 / opts.rate);
    let handles: Vec<_> = (0..opts.connections)
        .map(|c| {
            let opts = opts.clone();
            let errors = Arc::clone(&errors);
            std::thread::spawn(move || {
                let mut client = Client::connect(&opts.addr[..]).expect("connect");
                client.set_timeout(Some(Duration::from_secs(60))).unwrap();
                for w in 0..opts.warmup {
                    let _ = client.call(&build_request(&opts, num_spins, c, usize::MAX - w));
                }
                let mut lats = Vec::with_capacity(opts.requests);
                let open = opts.mode == "open";
                let t0 = Instant::now();
                let offset = per_conn_period.mul_f64(c as f64 / opts.connections as f64);
                for r in 0..opts.requests {
                    if open {
                        let due = offset + per_conn_period.mul_f64(r as f64);
                        if let Some(wait) = due.checked_sub(t0.elapsed()) {
                            std::thread::sleep(wait);
                        }
                    }
                    let req = build_request(&opts, num_spins, c, r);
                    let t = Instant::now();
                    match client.call(&req) {
                        Ok(_) => lats.push(t.elapsed().as_micros() as u64),
                        Err(_) => {
                            errors.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
                lats
            })
        })
        .collect();
    let mut latencies_us = Vec::new();
    for handle in handles {
        latencies_us.extend(handle.join().expect("loadgen thread"));
    }
    let wall = started.elapsed();
    latencies_us.sort_unstable();
    RunStats {
        ok: latencies_us.len() as u64,
        errors: errors.load(Ordering::Relaxed),
        latencies_us,
        wall,
    }
}

/// Appends one record to a JSON array file (creates it if missing).
fn append_record(path: &str, record: &str) -> std::io::Result<()> {
    let body = match std::fs::read_to_string(path) {
        Ok(existing) => {
            let trimmed = existing.trim_end();
            let head = trimmed
                .strip_suffix(']')
                .ok_or_else(|| {
                    std::io::Error::new(
                        std::io::ErrorKind::InvalidData,
                        format!("{path} is not a JSON array"),
                    )
                })?
                .trim_end();
            if head == "[" {
                format!("[\n{record}\n]\n")
            } else {
                format!("{head},\n{record}\n]\n")
            }
        }
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => format!("[\n{record}\n]\n"),
        Err(e) => return Err(e),
    };
    std::fs::write(path, body)
}

fn main() {
    let opts = match parse_opts() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            std::process::exit(1);
        }
    };

    // One probe connection: model shape for payload construction.
    let mut probe = Client::connect(&opts.addr[..]).expect("connect to server");
    let (num_spins, kind) = probe.ping().expect("ping server");
    println!(
        "server at {} serves a {kind} model with {num_spins} spins",
        opts.addr
    );

    // Probe-only invocations (--requests 0): skip the load phase.
    if opts.requests == 0 {
        if opts.stats {
            print_stats(&mut probe);
        }
        if opts.shutdown {
            probe.shutdown().expect("shutdown server");
            println!("  sent Shutdown");
        }
        return;
    }

    // Optional mid-run hot-reload: a side connection fires a Reload
    // frame halfway through the scheduled load, proving the swap is
    // invisible to in-flight traffic (the run's error count stays 0).
    let reloader = opts.reload.clone().map(|path| {
        let addr = opts.addr.clone();
        let midpoint = if opts.mode == "closed" {
            Duration::from_millis(500)
        } else {
            Duration::from_secs_f64(
                (opts.connections * opts.requests) as f64 / opts.rate / 2.0,
            )
        };
        std::thread::spawn(move || {
            std::thread::sleep(midpoint);
            let mut side = Client::connect(&addr[..]).expect("reload connection");
            side.reload(&path).expect("mid-run reload");
            println!("  mid-run reload of {path} acked");
        })
    });

    let stats = if opts.mode == "swarm" {
        run_swarm(&opts, num_spins)
    } else {
        run(&opts, num_spins)
    };
    if let Some(h) = reloader {
        h.join().expect("reload thread");
    }
    let throughput = stats.ok as f64 / stats.wall.as_secs_f64();
    let row_throughput = throughput * opts.count as f64;
    let (p50, p95, p99) = (
        percentile(&stats.latencies_us, 50.0),
        percentile(&stats.latencies_us, 95.0),
        percentile(&stats.latencies_us, 99.0),
    );
    let mean_ms = if stats.latencies_us.is_empty() {
        f64::NAN
    } else {
        stats.latencies_us.iter().sum::<u64>() as f64 / stats.latencies_us.len() as f64 / 1000.0
    };
    println!(
        "{} loop, op {}: {} ok, {} errors in {:.3}s",
        opts.mode, opts.op, stats.ok, stats.errors, stats.wall.as_secs_f64()
    );
    println!("  throughput : {throughput:>10.1} req/s  ({row_throughput:.0} rows/s)");
    println!("  latency ms : p50 {p50:.3}  p95 {p95:.3}  p99 {p99:.3}  mean {mean_ms:.3}");

    if opts.out != "none" {
        let record = format!(
            "{{\"label\": \"{}\", \"mode\": \"{}\", \"op\": \"{}\", \
             \"precision\": \"{}\", \
             \"connections\": {}, \"requests_per_conn\": {}, \"count\": {}, \
             \"offered_rps\": {:.1}, \
             \"num_spins\": {}, \"ok\": {}, \"errors\": {}, \"wall_s\": {:.4}, \
             \"throughput_rps\": {:.2}, \"rows_per_s\": {:.1}, \
             \"p50_ms\": {:.4}, \"p95_ms\": {:.4}, \"p99_ms\": {:.4}, \"mean_ms\": {:.4}}}",
            opts.label,
            opts.mode,
            opts.op,
            opts.precision.map_or("default", |p| p.as_str()),
            opts.connections,
            opts.requests,
            opts.count,
            // Closed loop has no fixed offered rate; record 0.
            if opts.mode == "closed" { 0.0 } else { opts.rate },
            num_spins,
            stats.ok,
            stats.errors,
            stats.wall.as_secs_f64(),
            throughput,
            row_throughput,
            p50,
            p95,
            p99,
            mean_ms,
        );
        append_record(&opts.out, &record).expect("write output JSON");
        println!("  recorded to {}", opts.out);
    }

    if opts.stats {
        print_stats(&mut probe);
    }

    if opts.shutdown {
        probe.shutdown().expect("shutdown server");
        println!("  sent Shutdown");
    }
}

/// Fetches and pretty-prints the server's live stats snapshot.
fn print_stats(probe: &mut Client) {
    let s = probe.stats().expect("fetch server stats");
    println!(
        "server stats: accepted {} · shed {} · refused {} · reloads {} · \
         queue {} · tier {} · connections {}",
        s.accepted, s.shed, s.refused, s.reloads, s.queue_depth, s.tier, s.connections
    );
    const OPS: [&str; 3] = ["sample", "logpsi", "localenergy"];
    const PRECS: [&str; 2] = ["f64", "f32"];
    for (oi, op) in OPS.iter().enumerate() {
        for (pi, prec) in PRECS.iter().enumerate() {
            let l = &s.latency[oi][pi];
            if l.count == 0 {
                continue;
            }
            println!(
                "  {op}/{prec}: n {} · mean {:.3} ms · p50 {:.3} · p95 {:.3} · p99 {:.3}",
                l.count,
                l.sum_us as f64 / l.count as f64 / 1000.0,
                l.p50_us as f64 / 1000.0,
                l.p95_us as f64 / 1000.0,
                l.p99_us as f64 / 1000.0,
            );
        }
    }
    let total: u64 = s.occupancy.iter().sum();
    if total > 0 {
        let cells: Vec<String> = s
            .occupancy
            .iter()
            .enumerate()
            .map(|(i, &c)| format!("{}:{c}", 1u32 << i))
            .collect();
        println!("  batch occupancy (size:count): {}", cells.join(" "));
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn usage_lists_exactly_the_accepted_flags() {
        let mut listed: Vec<&str> = super::USAGE
            .split("FLAGS:")
            .nth(1)
            .unwrap()
            .lines()
            .filter_map(|line| line.trim_start().strip_prefix("--"))
            .map(|flag| flag.split(' ').next().unwrap())
            .collect();
        let mut accepted = super::FLAGS.to_vec();
        listed.sort_unstable();
        accepted.sort_unstable();
        assert_eq!(listed, accepted);
    }
}
