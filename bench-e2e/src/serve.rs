//! The two serving workloads: an in-process `Server` on the epoll
//! runtime over a checkpoint written and read back through
//! `vqmc_nn::checkpoint`, driven open-loop by [`crate::driver`].
//!
//! A workload is one traffic mix at one rate, one connection a stream.
//! `serve_sample_n1024` tags connection 0's requests f64 and connection
//! 1's f32, at equal rates, so the server runs both precisions side by
//! side.  `serve_logpsi_n32` sends at a rate where the server must
//! coalesce to keep up; its traced run adds a stretch at a rate where
//! the server idles between arrivals.
//!
//! A latency the workload reports is the mean over its streams of the
//! stream's own windowed percentile: the two precisions have different
//! medians, and a percentile of their pooled latencies would sit on the
//! gap between them.

use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use vqmc_core::derive_seed;
use vqmc_hamiltonian::LocalEnergyConfig;
use vqmc_nn::checkpoint::{load_any, Checkpoint};
use vqmc_nn::Made;
use vqmc_serve::protocol::{decode_response, encode_request, MAX_FRAME_LEN};
use vqmc_serve::{Client, Engine, Request, Response, ServeConfig, Server, StatsSnapshot};
use vqmc_tensor::{Precision, SpinBatch, Vector};

use crate::driver::{Driver, Reply, StepLog, StreamPlan};
use crate::record::{peak_rss_mb, Outcome};
use crate::stats::{
    backlog_growing, mean, percentile_sorted, sorted, tail_percentile, windowed_percentile,
};
use crate::trace::Tracer;
use crate::train::measure_setup;
use crate::RunArgs;

#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Op {
    /// `Sample{count, seed}`: the engine's panel sampler is the work.
    Sample { count: u32 },
    /// `LogPsi` on `rows` configurations: a forward pass of ~0.3 ms at
    /// most, so the event loop, batcher and protocol are the work.
    LogPsi { rows: usize },
}

#[derive(Clone, Debug)]
pub struct ServeSpec {
    pub name: &'static str,
    pub n: usize,
    pub hidden: usize,
    pub op: Op,
    /// Precision tag and rate of each stream (one connection each).
    pub streams: Vec<(Precision, f64)>,
    /// Latency limit on the reported p90.
    pub limit_ms: f64,
    /// A total rate at which the server idles between arrivals.  The
    /// traced run sends a stretch at it, measures the idle round trip of
    /// a blocking client, and fails as driver-limited when the open-loop
    /// median is over twice that.
    pub idle_rate_rps: Option<f64>,
}

pub fn specs() -> Vec<ServeSpec> {
    // 1 MiB of f64 weights: a pass stays inside a 2 MiB L2 and is bound
    // by compute.  At h=256 it streams 4 MiB per request and its median
    // moved by a quarter between runs of one commit on a shared host.
    vec![
        ServeSpec {
            name: "serve_sample_n1024",
            n: 1024,
            hidden: 64,
            op: Op::Sample {
                count: SAMPLE_COUNT,
            },
            streams: vec![(Precision::F64, SAMPLE_RPS), (Precision::F32, SAMPLE_RPS)],
            limit_ms: 150.0,
            idle_rate_rps: None,
        },
        ServeSpec {
            name: "serve_logpsi_n32",
            n: 32,
            hidden: 64,
            op: Op::LogPsi { rows: 4 },
            streams: vec![(Precision::F64, LOGPSI_RPS / 2.0); 2],
            limit_ms: 5.0,
            idle_rate_rps: Some(LOGPSI_IDLE_RPS),
        },
    ]
}

/// Configurations drawn per `Sample` request: a 64-row panel of 32 KiB,
/// inside the samplers' register-traversal range (panels to 64 KiB).
pub const SAMPLE_COUNT: u32 = 64;
/// Requests a second on each of the two `Sample` streams.
pub const SAMPLE_RPS: f64 = 100.0;
/// Total `LogPsi` requests a second at the coalescing rate the workload
/// runs at, and at the idle rate of its traced run.
pub const LOGPSI_RPS: f64 = 8_000.0;
pub const LOGPSI_IDLE_RPS: f64 = 250.0;

/// Distinct request payloads per stream; request `i` sends number
/// `i % POOL`, so every payload is repeated and its replies can be
/// compared byte for byte.
const POOL: usize = 64;
/// One `LogPsi` reply in this many is held against an in-process
/// engine pass on the same checkpoint.
const VERIFY_EVERY: u64 = 100;
/// Warm-up traffic before the timed step, at the step's own rates.
const WARMUP_S: f64 = 1.0;

impl ServeSpec {
    /// `--quick` keeps the traffic and shrinks a `Sample` request to an
    /// eighth, so an unoptimised build still keeps up with it.
    fn sized_for(&self, args: &RunArgs) -> ServeSpec {
        let mut spec = self.clone();
        if let (true, Op::Sample { count }) = (args.quick, &mut spec.op) {
            *count /= 8;
        }
        spec
    }

    pub fn precision_label(&self) -> &'static str {
        let mut tags = self.streams.iter().map(|s| s.0);
        let first = tags.next().expect("a stream");
        if tags.all(|p| p == first) {
            first.as_str()
        } else {
            "mixed"
        }
    }

    pub fn total_rps(&self) -> f64 {
        self.streams.iter().map(|s| s.1).sum()
    }

    /// The request pool of each stream, from the seed.
    fn payloads(&self, seed: u64) -> Vec<Vec<Request>> {
        self.streams
            .iter()
            .enumerate()
            .map(|(s, &(precision, _))| {
                let mut rng = StdRng::seed_from_u64(derive_seed(seed, s as u64, 21));
                (0..POOL)
                    .map(|_| match self.op {
                        Op::Sample { count } => Request::Sample {
                            count,
                            seed: Some(rng.gen()),
                            precision: Some(precision),
                        },
                        Op::LogPsi { rows } => Request::LogPsi {
                            batch: SpinBatch::from_fn(rows, self.n, |_, _| {
                                rng.gen_range(0..2u32) as u8
                            }),
                            precision: Some(precision),
                        },
                    })
                    .collect()
            })
            .collect()
    }
}

/// A running server and everything set-up made on the way to it.
struct Served {
    server: Option<Server>,
    addr: SocketAddr,
    driver: Driver,
    ckpt: PathBuf,
}

impl Served {
    /// Model init → checkpoint write → checkpoint load → server start →
    /// one connection per stream.
    fn start(spec: &ServeSpec, seed: u64) -> Result<Served, String> {
        let dir = crate::out_dir();
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        let ckpt = dir.join(format!("{}-{}.ckpt", spec.name, std::process::id()));
        Made::new(spec.n, spec.hidden, derive_seed(seed, 0, 12))
            .save(&ckpt)
            .map_err(|e| format!("save checkpoint: {e}"))?;
        let (model, _) = load_any(&ckpt).map_err(|e| format!("load checkpoint: {e}"))?;
        let server = Server::start(model, None, ServeConfig::default())
            .map_err(|e| format!("start server: {e}"))?;
        let addr = server.local_addr();
        let driver = Driver::connect(addr, spec.streams.len(), MAX_FRAME_LEN)
            .map_err(|e| format!("connect: {e}"))?;
        Ok(Served {
            server: Some(server),
            addr,
            driver,
            ckpt,
        })
    }

    /// Sends `Shutdown`, then waits for every server thread to exit.
    fn drain(&mut self) -> Result<(), String> {
        let server = self.server.take().ok_or("server already drained")?;
        let ack = Client::connect(self.addr).and_then(|mut c| c.shutdown());
        if ack.is_err() {
            server.shutdown();
        }
        let (tx, rx) = mpsc::channel();
        let joiner = std::thread::spawn(move || {
            server.join();
            let _ = tx.send(());
        });
        match rx.recv_timeout(Duration::from_secs(10)) {
            Ok(()) => {
                joiner
                    .join()
                    .map_err(|_| "server join panicked".to_string())?;
                ack.map_err(|e| format!("shutdown frame: {e}"))
            }
            // The joiner stays blocked on a server that will not stop;
            // the process is about to report failure and exit.
            Err(_) => Err("server threads still running 10 s after Shutdown".into()),
        }
    }
}

impl Drop for Served {
    fn drop(&mut self) {
        if self.server.is_some() {
            let _ = self.drain();
        }
        let _ = std::fs::remove_file(&self.ckpt);
    }
}

/// Latencies and counts of one step.
struct StepView {
    /// Due → received of each stream's well-formed replies, in the order
    /// they arrived, ms.
    latency_ms: Vec<Vec<f64>>,
    /// Sent → received over all streams, ms.
    flight_ms: Vec<f64>,
    /// Sent − due over all streams, ms.
    lag_ms: Vec<f64>,
    /// Well-formed replies.
    ok: u64,
    /// Replies that were error frames or did not decode.
    errors: u64,
    unanswered: u64,
    sent: u64,
    growing: bool,
    wall_s: f64,
}

impl StepView {
    /// The mean over the streams of each stream's windowed `p`-th
    /// percentile (see the module's head).
    fn percentile(&self, p: f64) -> f64 {
        let per_stream: Vec<f64> = self
            .latency_ms
            .iter()
            .map(|ms| windowed_percentile(ms, p))
            .collect();
        mean(&per_stream)
    }

    /// Every stream's latencies together, sorted.
    fn pooled_sorted(&self) -> Vec<f64> {
        sorted(&self.latency_ms.concat())
    }
}

/// Looks at each reply as it arrives and keeps what the checks need —
/// not the replies themselves, whose bytes would otherwise be most of
/// the process's resident set.
struct Examiner<'a> {
    spec: &'a ServeSpec,
    requests: &'a [Vec<Request>],
    /// First reply seen for each (stream, pool slot): a repeat must
    /// return the same bytes.
    first: Vec<Vec<Option<Vec<u8>>>>,
    repeats_differ: u64,
    malformed: Vec<String>,
    /// Whether each reply, in arrival order, was a well-formed answer.
    ok: Vec<bool>,
    /// `LogPsi` values held for the comparison with the in-process
    /// engine after the step: (stream, pool slot, values).
    sampled: Vec<(usize, usize, Vector)>,
}

impl<'a> Examiner<'a> {
    fn new(spec: &'a ServeSpec, requests: &'a [Vec<Request>]) -> Self {
        Examiner {
            spec,
            requests,
            first: vec![vec![None; POOL]; spec.streams.len()],
            repeats_differ: 0,
            malformed: Vec::new(),
            ok: Vec::new(),
            sampled: Vec::new(),
        }
    }

    fn take(&mut self, r: &Reply, payload: Vec<u8>) {
        let slot = (r.index % POOL as u64) as usize;
        let ok = match (decode_response(&payload), &self.requests[r.stream][slot]) {
            (Ok(Response::Samples { batch, log_psi }), Request::Sample { count, .. }) => {
                let shaped = batch.batch_size() == *count as usize
                    && batch.num_spins() == self.spec.n
                    && log_psi.len() == *count as usize;
                if !shaped {
                    self.malformed.push(format!(
                        "stream {} request {}: {}x{} spins",
                        r.stream,
                        r.index,
                        batch.batch_size(),
                        batch.num_spins()
                    ));
                }
                shaped
            }
            (Ok(Response::Values(values)), Request::LogPsi { batch, .. }) => {
                let shaped = values.len() == batch.batch_size();
                if shaped && r.index.is_multiple_of(VERIFY_EVERY) {
                    self.sampled.push((r.stream, slot, values));
                }
                shaped
            }
            _ => false,
        };
        self.ok.push(ok);
        if ok {
            match &self.first[r.stream][slot] {
                None => self.first[r.stream][slot] = Some(payload),
                Some(bytes) => self.repeats_differ += u64::from(*bytes != payload),
            }
        }
    }

    /// Runs the checks and splits the step's timings the way the spec
    /// reports them.
    fn finish(self, log: &StepLog, engine: &mut Engine, o: &mut Outcome) -> StepView {
        let spec = self.spec;
        let mut view = StepView {
            latency_ms: vec![Vec::new(); spec.streams.len()],
            flight_ms: Vec::with_capacity(log.replies.len()),
            lag_ms: Vec::with_capacity(log.replies.len()),
            ok: 0,
            errors: 0,
            unanswered: log.unanswered,
            sent: log.sent.iter().sum(),
            growing: backlog_growing(&log.in_flight),
            wall_s: log.wall_s,
        };
        for (r, &ok) in log.replies.iter().zip(&self.ok) {
            view.flight_ms.push((r.done_ns - r.sent_ns) as f64 / 1e6);
            view.lag_ms.push(r.lag_ms());
            if ok {
                view.ok += 1;
                view.latency_ms[r.stream].push(r.latency_ms());
            } else {
                view.errors += 1;
            }
        }
        o.check(
            "replies_well_formed",
            self.malformed.is_empty(),
            self.malformed.join("; "),
        );
        o.check(
            "repeated_request_same_bytes",
            self.repeats_differ == 0,
            format!("{} repeats differed", self.repeats_differ),
        );
        if matches!(spec.op, Op::LogPsi { .. }) {
            let mismatched: Vec<String> = self
                .sampled
                .iter()
                .filter(
                    |(stream, slot, values)| match &self.requests[*stream][*slot] {
                        Request::LogPsi { batch, .. } => !bits_equal(
                            values,
                            &engine.run_log_psi_with(batch, spec.streams[*stream].0),
                        ),
                        _ => true,
                    },
                )
                .map(|(stream, slot, _)| format!("stream {stream} pool slot {slot}"))
                .collect();
            o.check(
                "logpsi_equals_in_process_engine",
                mismatched.is_empty() && !self.sampled.is_empty(),
                format!(
                    "{} replies compared bitwise; {}",
                    self.sampled.len(),
                    mismatched.join("; ")
                ),
            );
        }
        view
    }
}

fn bits_equal(a: &Vector, b: &Vector) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b.iter())
            .all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Runs one step at the spec's rates, handing each reply to `on_reply`.
fn step(
    spec: &ServeSpec,
    served: &mut Served,
    encoded: &[Vec<Vec<u8>>],
    step_s: f64,
    on_reply: impl FnMut(&Reply, Vec<u8>),
) -> Result<StepLog, String> {
    let plans: Vec<StreamPlan<'_>> = spec
        .streams
        .iter()
        .zip(encoded)
        .map(|(&(_, rate_rps), payloads)| StreamPlan { rate_rps, payloads })
        .collect();
    served
        .driver
        .run_step(&plans, step_s, on_reply)
        .map_err(|e| format!("driver: {e}"))
}

/// [`step`] with every reply examined.
fn examined_step<'a>(
    spec: &'a ServeSpec,
    served: &mut Served,
    h: &'a Harness,
    step_s: f64,
) -> Result<(StepLog, Examiner<'a>), String> {
    let mut examiner = Examiner::new(spec, &h.requests);
    let log = step(spec, served, &h.encoded, step_s, |r, payload| {
        examiner.take(r, payload)
    })?;
    Ok((log, examiner))
}

/// Median round trip of a blocking client sending one request at a
/// time to an otherwise idle server, ms.
fn idle_rtt_ms(addr: SocketAddr, requests: &[Request], rounds: usize) -> Result<f64, String> {
    let mut client = Client::connect(addr).map_err(|e| format!("idle client: {e}"))?;
    let mut ms = Vec::with_capacity(rounds);
    for k in 0..rounds + 10 {
        let t0 = Instant::now();
        client
            .call(&requests[k % requests.len()])
            .map_err(|e| format!("idle call: {e}"))?;
        if k >= 10 {
            ms.push(t0.elapsed().as_secs_f64() * 1e3);
        }
    }
    Ok(crate::stats::median(&ms))
}

fn stats_of(addr: SocketAddr) -> Result<StatsSnapshot, String> {
    Client::connect(addr)
        .and_then(|mut c| c.stats())
        .map_err(|e| format!("stats frame: {e}"))
}

/// Everything a serving run needs besides the server.
struct Harness {
    requests: Vec<Vec<Request>>,
    encoded: Vec<Vec<Vec<u8>>>,
    warmup_s: f64,
}

impl Harness {
    fn new(spec: &ServeSpec, args: &RunArgs) -> Harness {
        let requests = spec.payloads(args.seed);
        let encoded = requests
            .iter()
            .map(|pool| pool.iter().map(encode_request).collect())
            .collect();
        Harness {
            requests,
            encoded,
            warmup_s: if args.quick { 0.1 } else { WARMUP_S },
        }
    }
}

/// The in-process reference: an engine over the same checkpoint file
/// the server was started from.
fn reference_engine(served: &Served) -> Result<Engine, String> {
    let (model, _) = load_any(&served.ckpt).map_err(|e| format!("load checkpoint: {e}"))?;
    Ok(Engine::new(
        Arc::new(model),
        None,
        LocalEnergyConfig::default(),
    ))
}

/// A step of a run that can fail, with the name of the check its
/// failure is reported under.
type Stage<T> = Result<T, (&'static str, String)>;

fn stage<T>(check: &'static str, result: Result<T, String>) -> Stage<T> {
    result.map_err(|e| (check, e))
}

/// Runs `body` on a fresh outcome; a failed stage becomes a failed check.
fn outcome_of(body: impl FnOnce(&mut Outcome) -> Stage<()>) -> Outcome {
    let mut o = Outcome::default();
    if let Err((check, e)) = body(&mut o) {
        o.check(check, false, e);
    }
    o
}

/// Whether the step met the workload's latency limit without failures
/// or a growing backlog — the condition for a rate to count as served.
fn rate_ok(spec: &ServeSpec, view: &StepView, p90: f64) -> bool {
    let ok_share = view.ok as f64 / view.sent.max(1) as f64;
    p90 <= spec.limit_ms && ok_share >= 0.999 && !view.growing
}

/// Counts, the drain check and the "any reply at all" gate shared by
/// both kinds of run.
fn settle(o: &mut Outcome, served: &mut Served, views: &[&StepView]) -> Stage<()> {
    let view = views[0];
    o.attempted = view.sent;
    o.failed = view.errors + view.unanswered;
    o.check(
        "server_drains_cleanly",
        served.drain().is_ok(),
        "Shutdown acknowledged and every thread joined",
    );
    if views.iter().any(|v| v.latency_ms.iter().any(Vec::is_empty)) {
        return Err(("replies_received", "a stream got no reply".into()));
    }
    Ok(())
}

pub fn run(spec: &ServeSpec, args: &RunArgs) -> Outcome {
    outcome_of(|o| run_stages(&spec.sized_for(args), args, o))
}

fn run_stages(spec: &ServeSpec, args: &RunArgs, o: &mut Outcome) -> Stage<()> {
    let (setup_s, reps, served) = measure_setup(args.quick, || Served::start(spec, args.seed));
    o.metric("setup_s", setup_s, "s", reps);
    let mut served = stage("server_started", served)?;
    let h = Harness::new(spec, args);
    let mut engine = stage("reference_engine", reference_engine(&served))?;

    stage(
        "warmup_traffic",
        step(spec, &mut served, &h.encoded, h.warmup_s, |_, _| {}),
    )?;
    let (log, examiner) = stage(
        "timed_step",
        examined_step(spec, &mut served, &h, args.seconds),
    )?;
    let view = examiner.finish(&log, &mut engine, o);
    settle(o, &mut served, &[&view])?;

    let s = view.pooled_sorted();
    let n = s.len();
    let (p50, p90) = (view.percentile(50.0), view.percentile(90.0));
    o.metric("op_ms_p50", p50, "ms", n);
    o.metric("op_ms_p90", p90, "ms", n);
    o.metric("throughput_per_s", view.ok as f64 / view.wall_s, "1/s", n);
    o.metric("peak_rss_mb", peak_rss_mb(), "MiB", 1);
    let tail = tail_percentile(n);
    let lag_p99 = percentile_sorted(&sorted(&view.lag_ms), 99.0);
    let met = rate_ok(spec, &view, p90);
    o.metric("driver.gen_lag_ms_p99", lag_p99, "ms", view.lag_ms.len());
    o.metric("serve.offered_rps", spec.total_rps(), "1/s", 1);
    o.metric("serve.rate_ok", f64::from(u8::from(met)), "bool", 1);
    o.note(format!(
        "{n} replies to {} requests; pooled over the streams and the whole step: p50 {:.4} ms, \
         p90 {:.4} ms, and the sample supports p{tail}: {:.4} ms; generator lag p99 {lag_p99:.4} ms; \
         limit p90 <= {} ms at {} rps: {}",
        view.sent,
        percentile_sorted(&s, 50.0),
        percentile_sorted(&s, 90.0),
        percentile_sorted(&s, tail),
        spec.limit_ms,
        spec.total_rps(),
        if met { "met" } else { "missed" },
    ));
    Ok(())
}

/// The traced run: a stretch at the idle rate where the spec names one,
/// an untraced stretch, then a stretch in which every request leaves
/// three client-side spans, joined with the server's own `Stats`
/// counters read before and after.
pub fn run_traced(spec: &ServeSpec, args: &RunArgs) -> Outcome {
    outcome_of(|o| traced_stages(&spec.sized_for(args), args, o))
}

fn traced_stages(spec: &ServeSpec, args: &RunArgs, o: &mut Outcome) -> Stage<()> {
    let mut served = stage("server_started", Served::start(spec, args.seed))?;
    let h = Harness::new(spec, args);
    let mut engine = stage("reference_engine", reference_engine(&served))?;
    let idle_s = spec.idle_rate_rps.map_or(0.0, |_| args.seconds / 5.0);
    let half = (args.seconds - idle_s) / 2.0;
    if let Some(total_rps) = spec.idle_rate_rps {
        stage(
            "idle_stretch",
            idle_stretch(spec, &mut served, &h, total_rps, idle_s, args.quick, o),
        )?;
    }
    stage(
        "warmup_traffic",
        step(spec, &mut served, &h.encoded, h.warmup_s, |_, _| {}),
    )?;
    let (plain, plain_examiner) =
        stage("untraced_step", examined_step(spec, &mut served, &h, half))?;
    let before = stage("traced_step", stats_of(served.addr))?;
    let (log, examiner) = stage("traced_step", examined_step(spec, &mut served, &h, half))?;
    let after = stage("traced_step", stats_of(served.addr))?;

    // The spans are built from the timestamps the generator already
    // keeps, so the traced stretch costs the generator nothing extra
    // while it runs; the overhead below is therefore a noise floor.
    let mut tracer = Tracer::with_capacity(3 * log.replies.len());
    for r in &log.replies {
        let id = ((r.stream as u64) << 48) | r.index;
        let root = tracer.record("request", r.due_ns, r.done_ns, None, id);
        tracer.record("gen_lag", r.due_ns, r.sent_ns, Some(root), id);
        tracer.record("in_flight", r.sent_ns, r.done_ns, Some(root), id);
    }

    let plain_view = plain_examiner.finish(&plain, &mut engine, &mut Outcome::default());
    let view = examiner.finish(&log, &mut engine, o);
    settle(o, &mut served, &[&view, &plain_view])?;

    let s = view.pooled_sorted();
    let n = s.len();
    let (p50, p90) = (view.percentile(50.0), view.percentile(90.0));
    let plain_p50 = plain_view.percentile(50.0);
    let lag_p99 = percentile_sorted(&sorted(&view.lag_ms), 99.0);
    o.metric("op_ms_p50", plain_p50, "ms", plain_view.ok as usize);
    // Each precision's own median, where the streams differ in it.
    if spec.precision_label() == "mixed" {
        for (&(precision, _), ms) in spec.streams.iter().zip(&plain_view.latency_ms) {
            o.metric(
                &format!("serve.stream_{}_ms_p50", precision.as_str()),
                windowed_percentile(ms, 50.0),
                "ms",
                ms.len(),
            );
        }
    }
    o.metric(
        "driver.trace_overhead_pct",
        (p50 - plain_p50) / plain_p50 * 100.0,
        "%",
        n,
    );
    o.metric("driver.gen_lag_ms_p99", lag_p99, "ms", view.lag_ms.len());

    // Server-side admission → reply time and batch sizes over the
    // traced stretch, from the differences of two `Stats` snapshots.
    let op = match spec.op {
        Op::Sample { .. } => 0,
        Op::LogPsi { .. } => 1,
    };
    let (mut count, mut sum_us) = (0, 0);
    for (a, b) in after.latency[op].iter().zip(&before.latency[op]) {
        count += a.count - b.count;
        sum_us += a.sum_us - b.sum_us;
    }
    let batches: u64 = after.occupancy.iter().sum::<u64>() - before.occupancy.iter().sum::<u64>();
    let server_ms = sum_us as f64 / count.max(1) as f64 / 1e3;
    let occupancy = (after.accepted - before.accepted) as f64 / batches.max(1) as f64;
    let within = s.partition_point(|&ms| ms <= spec.limit_ms);
    o.metric("serve.server_side_ms_mean", server_ms, "ms", count as usize);
    o.metric(
        "serve.batch_occupancy_mean",
        occupancy,
        "count",
        batches as usize,
    );
    o.metric(
        "serve.wire_and_loop_ms",
        mean(&view.flight_ms) - server_ms,
        "ms",
        view.flight_ms.len(),
    );
    o.metric(
        "serve.rate_ok",
        f64::from(u8::from(rate_ok(spec, &view, p90))),
        "bool",
        1,
    );
    o.metric(
        "serve.within_limit_share",
        within as f64 / view.sent.max(1) as f64,
        "ratio",
        n,
    );
    o.metric("serve.offered_rps", spec.total_rps(), "1/s", 1);
    o.note(format!(
        "traced stretch: {} sent, {} failed, p50 {p50:.4} ms, p90 {p90:.4} ms (limit {} ms), backlog {}",
        view.sent,
        view.errors + view.unanswered,
        spec.limit_ms,
        if view.growing { "growing" } else { "steady" },
    ));
    o.spans = Some(tracer.to_json(crate::SPAN_FILE_LIMIT));
    Ok(())
}

/// A stretch at `total_rps`, where the server idles between arrivals
/// and every request pays the wake-up path in full.  The open-loop
/// median must be within twice the round trip of a blocking client
/// sending one request at a time: over that, the generator and not the
/// server is what the latencies measure.
fn idle_stretch(
    spec: &ServeSpec,
    served: &mut Served,
    h: &Harness,
    total_rps: f64,
    seconds: f64,
    quick: bool,
    o: &mut Outcome,
) -> Result<(), String> {
    let rounds = if quick { 50 } else { 300 };
    let idle = idle_rtt_ms(served.addr, &h.requests[0], rounds)?;
    let slow = ServeSpec {
        streams: spec
            .streams
            .iter()
            .map(|&(p, _)| (p, total_rps / spec.streams.len() as f64))
            .collect(),
        ..spec.clone()
    };
    // Half a second at least: the handful of requests `--quick` would
    // send are the cold first ones, and their median fails the check.
    let log = step(&slow, served, &h.encoded, seconds.max(0.5), |_, _| {})?;
    if log.replies.is_empty() {
        return Err("no reply at the idle rate".into());
    }
    let ms: Vec<f64> = log.replies.iter().map(Reply::latency_ms).collect();
    let p50 = crate::stats::median(&ms);
    o.metric("serve.idle_rate_ms_p50", p50, "ms", ms.len());
    o.check(
        "not_driver_limited",
        p50 <= 2.0 * idle,
        format!(
            "open-loop p50 at {total_rps} rps {p50:.4} ms vs idle round trip {idle:.4} ms \
             (blocking client, one request at a time)"
        ),
    );
    Ok(())
}

/// The served model of a spec, for the layer microbenchmarks.
pub fn model_of(spec: &ServeSpec, seed: u64) -> Made {
    Made::new(spec.n, spec.hidden, derive_seed(seed, 0, 12))
}

/// Idle round trip against a fresh server of `spec`, for the layer
/// microbenchmarks: `(round trip ms, engine pass ms)`.
pub fn idle_probe(spec: &ServeSpec, seed: u64, rounds: usize) -> Result<(f64, f64), String> {
    let mut served = Served::start(spec, seed)?;
    let requests = spec.payloads(seed);
    let rtt = idle_rtt_ms(served.addr, &requests[0], rounds)?;
    let mut engine = reference_engine(&served)?;
    let mut ms = Vec::with_capacity(rounds);
    for k in 0..rounds {
        if let Request::LogPsi { batch, .. } = &requests[0][k % POOL] {
            let t0 = Instant::now();
            std::hint::black_box(engine.run_log_psi(batch));
            ms.push(t0.elapsed().as_secs_f64() * 1e3);
        }
    }
    served.drain()?;
    Ok((
        rtt,
        if ms.is_empty() {
            0.0
        } else {
            crate::stats::median(&ms)
        },
    ))
}
