//! The TCP server front end: `vqmc-net` event loops over one execution
//! layer (batcher → engine-replica pool).
//!
//! ```text
//!  clients ──TCP──▶ 1..k event-loop threads: nonblocking accept/read/
//!                   write, thousands of connections, replies via
//!                   completion queues
//!                              │ admit (validate · seed · tier · stats)
//!                              ▼
//!                        [ Batcher ] ──drain──▶ engine replicas (N workers,
//!                                               shared hot-swappable ModelSlot)
//! ```
//!
//! `admit` does shape validation, server-side seeding, precision
//! resolution, the **graduated admission tier** (accept →
//! shed-`LocalEnergy` → saturated, driven by queue depth) and
//! latency-stats wrapping before the batcher sees the item; the
//! execution layer only sees a [`ReplySink`].
//!
//! * `Shutdown` (frame or [`Server::shutdown`]) triggers the graceful
//!   drain: the batcher closes, workers finish everything admitted,
//!   the event loops stop reading, flush every queued reply byte
//!   (partial writes resume mid-frame), and exit.  Every admitted
//!   request is answered — the drain drops nothing.
//! * `Reload` swaps the served checkpoint atomically via the shared
//!   [`ModelSlot`]: no connection is dropped, no request errs; each
//!   batch runs entirely on old or new weights.  The checkpoint loads
//!   on a spawned thread so file I/O never stalls an event loop.
//! * `Stats` answers a point-in-time [`StatsSnapshot`] from lock-free
//!   counters: queue depth, admission tier, connection gauge,
//!   per-op/per-precision latency percentiles, batch occupancy.

use std::io;
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use vqmc_hamiltonian::{LocalEnergyConfig, SparseRowHamiltonian};
use vqmc_net::{
    Completions, EventLoop, EventLoopConfig, FrameHandler, FrameOutcome, Ticket,
};
use vqmc_nn::checkpoint::{load_any, AnyModel};
use vqmc_tensor::Precision;

use crate::batcher::{Batcher, BatcherConfig, PushError, ReplySink, WorkItem};
use crate::engine::{Engine, ModelSlot};
use crate::protocol::{
    self, decode_request, encode_response, ErrorCode, Request, Response, StatsSnapshot,
};
use crate::stats::{ServerStats, StatOp};

/// Server configuration.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Bind address; port 0 picks an ephemeral port (read it back via
    /// [`Server::local_addr`]).
    pub addr: String,
    /// Batching knobs (max batch, fill wait, admission queue bound).
    pub batcher: BatcherConfig,
    /// Engine replicas (worker threads), each with its own scratch,
    /// all draining the one shared admission queue.
    pub workers: usize,
    /// Per-request deadline measured from admission.
    pub request_timeout: Duration,
    /// Base seed for server-assigned sample seeds (seedless requests
    /// get `splitmix64(base_seed + k)` for the k-th admission).
    pub base_seed: u64,
    /// Chunking for the local-energy neighbour passes.
    pub local_energy: LocalEnergyConfig,
    /// Default execution precision for requests that carry no explicit
    /// precision tag (old clients).  Requests that do carry one always
    /// win; the default only fills the gap.
    pub precision: Precision,
    /// Event-loop threads.  Loop 0 accepts and deals connections
    /// round-robin across all loops.
    pub event_loops: usize,
    /// Queue-depth fraction at which the admission tier starts
    /// shedding `LocalEnergy` requests (the most expensive op) while
    /// still accepting the rest; at a full queue everything is
    /// refused.  `1.0` disables shedding (binary accept/overloaded).
    pub shed_threshold: f64,
    /// Connection cap (accepts beyond it are dropped).
    pub max_connections: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".into(),
            batcher: BatcherConfig::default(),
            workers: 1,
            request_timeout: Duration::from_secs(2),
            base_seed: 0,
            local_energy: LocalEnergyConfig::default(),
            precision: Precision::F64,
            event_loops: 1,
            shed_threshold: 0.75,
            max_connections: 16 * 1024,
        }
    }
}

/// The admission tiers, most permissive first.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum AdmissionTier {
    /// Everything admitted.
    Accept = 0,
    /// Queue depth past the shed threshold: `LocalEnergy` requests are
    /// refused (`Overloaded`), cheaper ops still admitted.
    ShedLocalEnergy = 1,
    /// Queue saturated: every batchable request is refused.
    Saturated = 2,
}

struct Shared {
    batcher: Batcher,
    stop_accepting: AtomicBool,
    seed_counter: AtomicU64,
    base_seed: u64,
    request_timeout: Duration,
    num_spins: usize,
    kind: &'static str,
    precision: Precision,
    shed_threshold: f64,
    slot: Arc<ModelSlot>,
    stats: Arc<ServerStats>,
    /// Event-loop wakeups, poked on shutdown so drains start without
    /// waiting out a poll tick.
    pollers: Vec<Arc<vqmc_net::Poller>>,
}

impl Shared {
    /// Initiates the graceful drain (idempotent).
    fn begin_shutdown(&self) {
        self.stop_accepting.store(true, Ordering::SeqCst);
        self.batcher.close();
        for p in &self.pollers {
            let _ = p.notify();
        }
    }

    fn next_seed(&self) -> u64 {
        let k = self.seed_counter.fetch_add(1, Ordering::Relaxed);
        splitmix64(self.base_seed.wrapping_add(k).wrapping_add(0x9E37_79B9_7F4A_7C15))
    }

    /// The current admission tier, derived from queue depth.
    fn tier(&self) -> AdmissionTier {
        let depth = self.batcher.queued();
        let cap = self.batcher.config().queue_cap;
        if depth >= cap {
            AdmissionTier::Saturated
        } else if (depth as f64) >= self.shed_threshold * (cap as f64) {
            AdmissionTier::ShedLocalEnergy
        } else {
            AdmissionTier::Accept
        }
    }

    fn stats_snapshot(&self) -> StatsSnapshot {
        self.stats
            .snapshot(self.batcher.queued() as u32, self.tier() as u8)
    }
}

/// SplitMix64 finaliser — decorrelates consecutive admission counters
/// into well-spread seeds.
fn splitmix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A running server; dropping it does **not** stop it — call
/// [`Server::shutdown`] or send a `Shutdown` frame, then
/// [`Server::join`].
pub struct Server {
    shared: Arc<Shared>,
    local_addr: SocketAddr,
    loop_handles: Vec<JoinHandle<()>>,
    worker_handles: Vec<JoinHandle<()>>,
}

impl Server {
    /// Binds and starts serving `model` (and optionally `hamiltonian`,
    /// required for `LocalEnergy` requests).
    pub fn start(
        model: AnyModel,
        hamiltonian: Option<Arc<dyn SparseRowHamiltonian>>,
        config: ServeConfig,
    ) -> io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        let local_addr = listener.local_addr()?;

        // Every fallible set-up step runs before the first thread
        // starts, so an error here leaves nothing blocked behind it.
        let el_config = EventLoopConfig {
            max_payload: protocol::MAX_FRAME_LEN,
            max_connections: config.max_connections,
            ..EventLoopConfig::default()
        };
        let mut listener = Some(listener);
        let mut loops = (0..config.event_loops.max(1))
            .map(|_| EventLoop::new(listener.take(), el_config.clone()))
            .collect::<io::Result<Vec<_>>>()?;
        let handoffs: Vec<_> = loops.iter().map(|l| l.handoff()).collect();
        loops[0].set_peers(handoffs);

        let shared = Arc::new(Shared {
            batcher: Batcher::new(config.batcher),
            stop_accepting: AtomicBool::new(false),
            seed_counter: AtomicU64::new(0),
            base_seed: config.base_seed,
            request_timeout: config.request_timeout,
            num_spins: model.num_spins(),
            kind: model.kind(),
            precision: config.precision,
            shed_threshold: config.shed_threshold.clamp(0.0, 1.0),
            slot: Arc::new(ModelSlot::new(Arc::new(model))),
            stats: Arc::new(ServerStats::default()),
            pollers: loops.iter().map(|l| l.poller()).collect(),
        });

        let mut server = Server {
            shared,
            local_addr,
            loop_handles: Vec::with_capacity(loops.len()),
            worker_handles: Vec::with_capacity(config.workers.max(1)),
        };
        if let Err(e) = server.spawn_threads(loops, hamiltonian, &config) {
            // Whatever did start sees the drain and exits.
            server.shared.begin_shutdown();
            return Err(e);
        }
        Ok(server)
    }

    /// Starts the engine workers, then one thread per event loop.
    fn spawn_threads(
        &mut self,
        loops: Vec<EventLoop>,
        hamiltonian: Option<Arc<dyn SparseRowHamiltonian>>,
        config: &ServeConfig,
    ) -> io::Result<()> {
        for w in 0..config.workers.max(1) {
            let shared = Arc::clone(&self.shared);
            let mut engine = Engine::with_slot(
                Arc::clone(&shared.slot),
                hamiltonian.clone(),
                config.local_energy,
            );
            self.worker_handles.push(
                std::thread::Builder::new()
                    .name(format!("vqmc-serve-worker-{w}"))
                    .spawn(move || {
                        while let Some(batch) = shared.batcher.next_batch() {
                            shared.stats.record_occupancy(batch.len());
                            engine.execute(batch);
                        }
                    })?,
            );
        }
        for (i, ev) in loops.into_iter().enumerate() {
            let mut handler = ServeHandler {
                shared: Arc::clone(&self.shared),
                completions: ev.completions(),
            };
            self.loop_handles.push(
                std::thread::Builder::new()
                    .name(format!("vqmc-serve-loop-{i}"))
                    .spawn(move || {
                        let _ = ev.run(&mut handler);
                    })?,
            );
        }
        Ok(())
    }

    /// The bound address (resolves ephemeral ports).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Initiates the graceful drain from the hosting process (same
    /// effect as a client `Shutdown` frame).
    pub fn shutdown(&self) {
        self.shared.begin_shutdown();
    }

    /// Blocks until the server has fully drained and every thread has
    /// exited.  Returns only after a shutdown was initiated.
    pub fn join(self) {
        for h in self.loop_handles.into_iter().chain(self.worker_handles) {
            let _ = h.join();
        }
    }
}

// ---------------------------------------------------------------------
// Admission
// ---------------------------------------------------------------------

/// Classifies a batchable request for the stats arrays.
fn stat_op(request: &Request) -> (StatOp, Option<Precision>) {
    match request {
        Request::Sample { precision, .. } => (StatOp::Sample, *precision),
        Request::LogPsi { precision, .. } => (StatOp::LogPsi, *precision),
        Request::LocalEnergy { precision, .. } => (StatOp::LocalEnergy, *precision),
        _ => unreachable!("only batchable requests are classified"),
    }
}

/// Validates, seeds, resolves precision, applies the admission tier,
/// wraps latency recording, and enqueues — or answers `sink`
/// immediately with the refusal/validation error.  Every call consumes
/// the sink exactly once, now or when the engine replies.
fn admit(shared: &Arc<Shared>, mut request: Request, sink: ReplySink) {
    // Shape validation happens here, before admission, so malformed
    // requests never occupy queue capacity.
    match &mut request {
        Request::Sample {
            count,
            seed,
            precision,
        } => {
            if *count == 0 {
                return sink.send(Response::error(
                    ErrorCode::BadRequest,
                    "sample count must be positive",
                ));
            }
            if seed.is_none() {
                *seed = Some(shared.next_seed());
            }
            // Resolve the server default here, at admission, so the
            // engine only ever coalesces items of one concrete
            // precision per pass.
            *precision = Some(precision.unwrap_or(shared.precision));
        }
        Request::LogPsi { batch, precision }
        | Request::LocalEnergy { batch, precision } => {
            if batch.num_spins() != shared.num_spins {
                return sink.send(Response::error(
                    ErrorCode::BadRequest,
                    format!(
                        "batch has {} spins but the model has {}",
                        batch.num_spins(),
                        shared.num_spins
                    ),
                ));
            }
            if batch.batch_size() == 0 {
                return sink.send(Response::Values(Default::default()));
            }
            *precision = Some(precision.unwrap_or(shared.precision));
        }
        _ => unreachable!("inline requests are answered by `ServeHandler::on_frame`"),
    }

    // Graduated admission: shed the expensive op first, then refuse
    // everything once the queue saturates (`push` below double-checks
    // capacity under the queue lock — the tier read is advisory).
    let tier = shared.tier();
    let (op, precision) = stat_op(&request);
    match tier {
        AdmissionTier::Accept => {}
        AdmissionTier::ShedLocalEnergy if op == StatOp::LocalEnergy => {
            shared.stats.on_shed();
            return sink.send(Response::error(
                ErrorCode::Overloaded,
                "shedding local-energy requests under load",
            ));
        }
        AdmissionTier::ShedLocalEnergy => {}
        AdmissionTier::Saturated => {
            shared.stats.on_refused();
            return sink.send(Response::error(
                ErrorCode::Overloaded,
                "admission queue is full",
            ));
        }
    }

    // Wrap latency recording around the reply path.
    let stats = Arc::clone(&shared.stats);
    let tag = precision.map_or(0, |p| p.tag());
    let t0 = Instant::now();
    let sink = ReplySink::new(move |resp| {
        stats.record_latency(op, tag, t0.elapsed().as_micros() as u64);
        sink.send(resp)
    });

    let item = WorkItem {
        request,
        reply: sink,
        deadline: Instant::now() + shared.request_timeout,
    };
    match shared.batcher.push(item) {
        Ok(()) => shared.stats.on_accepted(),
        Err((item, PushError::Overloaded)) => {
            shared.stats.on_refused();
            item.respond(Response::error(
                ErrorCode::Overloaded,
                "admission queue is full",
            ));
        }
        Err((item, PushError::ShuttingDown)) => {
            item.respond(Response::error(
                ErrorCode::ShuttingDown,
                "server is draining",
            ));
        }
    }
}

/// Loads, validates and swaps in a checkpoint (called from a spawned
/// thread, so checkpoint I/O never stalls an event loop).
fn do_reload(shared: &Shared, path: &str) -> Response {
    if shared.stop_accepting.load(Ordering::SeqCst) {
        return Response::error(ErrorCode::ShuttingDown, "server is draining");
    }
    let model = match load_any(std::path::Path::new(path)) {
        Ok((model, _ckpt_precision)) => model,
        Err(e) => {
            return Response::error(
                ErrorCode::BadRequest,
                format!("cannot load checkpoint {path:?}: {e}"),
            )
        }
    };
    if model.kind() != shared.kind {
        return Response::error(
            ErrorCode::BadRequest,
            format!(
                "checkpoint kind {:?} does not match served kind {:?}",
                model.kind(),
                shared.kind
            ),
        );
    }
    if model.num_spins() != shared.num_spins {
        return Response::error(
            ErrorCode::BadRequest,
            format!(
                "checkpoint has {} spins but the server serves {}",
                model.num_spins(),
                shared.num_spins
            ),
        );
    }
    shared.slot.swap(Arc::new(model));
    shared.stats.on_reload();
    Response::ReloadAck
}

// ---------------------------------------------------------------------
// Event-loop glue
// ---------------------------------------------------------------------

/// Per-event-loop glue between `vqmc-net` and the execution layer.
struct ServeHandler {
    shared: Arc<Shared>,
    completions: Arc<Completions>,
}

impl FrameHandler for ServeHandler {
    fn on_frame(&mut self, ticket: Ticket, payload: Vec<u8>) -> FrameOutcome {
        let reply = |resp: Response| FrameOutcome::Reply(encode_response(&resp));
        let request = match decode_request(&payload) {
            // Malformed payload inside an intact frame: answer and keep
            // the connection (framing is still synchronised).
            Err(e) => return reply(Response::error(ErrorCode::BadRequest, e.to_string())),
            Ok(r) => r,
        };
        match request {
            Request::Ping => reply(Response::Pong {
                num_spins: self.shared.num_spins as u32,
                kind: self.shared.kind.into(),
            }),
            Request::Stats => reply(Response::StatsReport(Box::new(self.shared.stats_snapshot()))),
            Request::Shutdown => {
                // The drain flag is shared: every loop sees it via
                // `draining()` and begins its own flush-and-exit.
                self.shared.begin_shutdown();
                reply(Response::ShutdownAck)
            }
            Request::Reload { path } => {
                // Checkpoint I/O must not stall the event loop; load on
                // a helper thread and post the outcome as a completion.
                let shared = Arc::clone(&self.shared);
                let completions = Arc::clone(&self.completions);
                std::thread::spawn(move || {
                    let resp = do_reload(&shared, &path);
                    completions.post(ticket, encode_response(&resp));
                });
                FrameOutcome::Pending
            }
            batchable => {
                let completions = Arc::clone(&self.completions);
                let sink = ReplySink::new(move |resp| {
                    completions.post(ticket, encode_response(&resp));
                });
                admit(&self.shared, batchable, sink);
                FrameOutcome::Pending
            }
        }
    }

    fn draining(&self) -> bool {
        self.shared.stop_accepting.load(Ordering::SeqCst)
    }

    fn on_accept(&mut self) {
        self.shared.stats.on_connect();
    }

    fn on_close(&mut self) {
        self.shared.stats.on_disconnect();
    }
}
