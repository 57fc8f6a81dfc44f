//! Readiness-driven event loop: many connections, one (or a few)
//! threads.
//!
//! The loop owns a [`Poller`](polling::Poller) plus a slab of
//! [`Connection`]s and drives four inputs each iteration:
//!
//! 1. **handoffs** — sockets accepted elsewhere and adopted by this
//!    loop (how a single accepting loop spreads connections across
//!    several event loops),
//! 2. **completions** — replies produced off-loop (engine worker
//!    threads) and posted through [`Completions`], which wakes the
//!    poller,
//! 3. **socket readiness** — nonblocking accept / read / write,
//! 4. **drain** — once [`FrameHandler::draining`] reports true, the
//!    loop stops accepting and reading, lets in-flight work finish,
//!    flushes every queued reply byte (partial writes included), and
//!    exits.
//!
//! ## In-order replies under pipelining
//!
//! A client may pipeline many requests on one connection, and the
//! engine completes batches out of order.  Every decoded frame gets a
//! per-connection sequence number ([`Ticket::seq`]); completed replies
//! park in a per-connection `BTreeMap` and only the contiguous prefix
//! is queued to the socket.  The wire order seen by a client is
//! therefore exactly its request order.
//!
//! ## Stale completions
//!
//! Tokens (slab indices) are reused after a connection closes.  Each
//! slot carries a generation counter, captured in the [`Ticket`]; a
//! completion whose generation no longer matches is dropped on the
//! floor instead of being delivered to an unrelated connection.

use std::collections::BTreeMap;
use std::io;
use std::net::{TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use polling::{Event, Poller};

use crate::conn::{Connection, ReadStatus};

/// Poller key reserved for the accept socket (`usize::MAX` is the
/// poller's own wakeup key).
const LISTENER_KEY: usize = usize::MAX - 1;

/// Identifies one decoded frame on one connection incarnation.
///
/// Handlers that defer work ([`FrameOutcome::Pending`]) carry the
/// ticket to the worker and post the reply back through
/// [`Completions::post`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Ticket {
    /// Slab index of the connection.
    pub token: usize,
    /// Generation of the slab slot (guards against token reuse).
    pub generation: u64,
    /// Per-connection frame sequence number (0, 1, 2, …) used to
    /// restore request order on the reply stream.
    pub seq: u64,
}

/// What the handler decided about one inbound frame.
#[derive(Debug)]
pub enum FrameOutcome {
    /// Reply immediately with this payload.
    Reply(Vec<u8>),
    /// The reply will arrive later via [`Completions::post`] with the
    /// frame's [`Ticket`].
    Pending,
    /// Reply with this payload, then close the connection once every
    /// queued byte (this reply and any earlier ones) has flushed.
    ReplyClose(Vec<u8>),
    /// Close the connection without a reply (after flushing replies
    /// to earlier frames).
    Close,
}

/// Application hook driven by the event loop.
///
/// `on_frame` runs on the loop thread — it must not block.  Work that
/// needs real compute returns [`FrameOutcome::Pending`] and completes
/// from another thread via [`Completions`].
pub trait FrameHandler {
    /// One complete inbound frame payload.
    fn on_frame(&mut self, ticket: Ticket, payload: Vec<u8>) -> FrameOutcome;

    /// Polled every iteration; returning `true` moves the loop into
    /// its drain phase (stop accepting/reading, finish in-flight,
    /// flush, exit).
    fn draining(&self) -> bool {
        false
    }

    /// A connection was accepted and registered.
    fn on_accept(&mut self) {}

    /// A connection was closed (any cause).
    fn on_close(&mut self) {}
}

/// Cross-thread reply queue: workers post `(ticket, payload)`, the
/// loop wakes and delivers in request order per connection.
pub struct Completions {
    queue: Mutex<Vec<(Ticket, Vec<u8>)>>,
    poller: Arc<Poller>,
}

impl Completions {
    /// Posts a completed reply payload for `ticket` and wakes the loop.
    pub fn post(&self, ticket: Ticket, payload: Vec<u8>) {
        self.queue.lock().expect("completions poisoned").push((ticket, payload));
        let _ = self.poller.notify();
    }

    fn drain_into(&self, into: &mut Vec<(Ticket, Vec<u8>)>) {
        let mut q = self.queue.lock().expect("completions poisoned");
        into.append(&mut q);
    }
}

/// Socket hand-off target: the accepting loop pushes fresh streams
/// here; the owning loop wakes and adopts them.
pub struct Handoff {
    queue: Mutex<Vec<TcpStream>>,
    poller: Arc<Poller>,
}

impl Handoff {
    /// Transfers a freshly-accepted stream to the owning loop.
    pub fn push(&self, stream: TcpStream) {
        self.queue.lock().expect("handoff poisoned").push(stream);
        let _ = self.poller.notify();
    }

    fn take(&self) -> Vec<TcpStream> {
        std::mem::take(&mut *self.queue.lock().expect("handoff poisoned"))
    }
}

/// Tunables for one event loop.
#[derive(Clone, Debug)]
pub struct EventLoopConfig {
    /// Inbound frame payload ceiling (bytes).
    pub max_payload: usize,
    /// Hard cap on concurrently registered connections; accepts beyond
    /// it are dropped (the client sees a reset).
    pub max_connections: usize,
    /// Per-connection cap on frames handed to the application but not
    /// yet replied; beyond it the loop stops reading that socket until
    /// completions catch up (pipelining backpressure).
    pub max_inflight: usize,
    /// Per-connection high-water mark on queued-but-unflushed reply
    /// bytes; beyond it the loop stops reading that socket until the
    /// peer drains its replies (outbound backpressure — a client that
    /// pipelines requests without reading cannot grow the reply queue
    /// without bound).  A single reply larger than the mark is still
    /// queued whole; only further reads stall.
    pub max_out_bytes: usize,
    /// How long the drain phase waits for in-flight work and flushes
    /// before force-closing stragglers.
    pub drain_timeout: Duration,
    /// Poll timeout — the latency with which out-of-band state changes
    /// (e.g. `draining()`) are noticed absent any wakeup.
    pub tick: Duration,
}

impl Default for EventLoopConfig {
    fn default() -> Self {
        EventLoopConfig {
            max_payload: 64 * 1024 * 1024,
            max_connections: 16 * 1024,
            max_inflight: 256,
            max_out_bytes: 16 * 1024 * 1024,
            drain_timeout: Duration::from_secs(10),
            tick: Duration::from_millis(50),
        }
    }
}

/// A reply waiting in the per-connection reorder buffer.
#[derive(Debug)]
enum Parked {
    Frame(Vec<u8>),
    FrameClose(Vec<u8>),
    CloseMarker,
}

/// Live per-connection state.
struct ConnState {
    conn: Connection,
    /// Sequence number the next decoded frame will get.
    next_seq: u64,
    /// Sequence number the next queued-to-socket reply must have.
    write_seq: u64,
    /// Out-of-order completed replies, keyed by seq.
    parked: BTreeMap<u64, Parked>,
    /// Frames handed to the application, reply not yet produced.
    outstanding: usize,
    /// Reading stopped (EOF, poison, or close pending).
    read_open: bool,
    /// Close once `parked` drains and the socket flushes.
    closing: bool,
    /// Interest bits currently registered with the poller.
    reg_read: bool,
    reg_write: bool,
}

struct Slot {
    generation: u64,
    conn: Option<ConnState>,
}

/// One readiness event loop (see module docs).
pub struct EventLoop {
    poller: Arc<Poller>,
    listener: Option<TcpListener>,
    handoff: Arc<Handoff>,
    completions: Arc<Completions>,
    config: EventLoopConfig,
    slots: Vec<Slot>,
    free: Vec<usize>,
    live: usize,
    /// Round-robin adoption targets for accepted sockets (usually the
    /// handoffs of every loop in the pool, this one included).  Empty
    /// means "register locally".
    peers: Vec<Arc<Handoff>>,
    rr: usize,
    /// Tokens touched this iteration, swept once per iteration.
    dirty: Vec<usize>,
}

impl EventLoop {
    /// Builds a loop; `listener` is `Some` only for the loop that
    /// accepts (it is switched to nonblocking mode here).
    pub fn new(listener: Option<TcpListener>, config: EventLoopConfig) -> io::Result<Self> {
        if let Some(l) = &listener {
            l.set_nonblocking(true)?;
        }
        let poller = Arc::new(Poller::new()?);
        Ok(EventLoop {
            handoff: Arc::new(Handoff {
                queue: Mutex::new(Vec::new()),
                poller: Arc::clone(&poller),
            }),
            completions: Arc::new(Completions {
                queue: Mutex::new(Vec::new()),
                poller: Arc::clone(&poller),
            }),
            poller,
            listener,
            config,
            slots: Vec::new(),
            free: Vec::new(),
            live: 0,
            peers: Vec::new(),
            rr: 0,
            dirty: Vec::new(),
        })
    }

    /// The reply queue workers post into.
    pub fn completions(&self) -> Arc<Completions> {
        Arc::clone(&self.completions)
    }

    /// This loop's adoption queue (hand to the accepting loop).
    pub fn handoff(&self) -> Arc<Handoff> {
        Arc::clone(&self.handoff)
    }

    /// The underlying poller (for out-of-band wakeups, e.g. when an
    /// external shutdown flag flips).
    pub fn poller(&self) -> Arc<Poller> {
        Arc::clone(&self.poller)
    }

    /// Sets the round-robin adoption targets for accepted sockets.
    /// Include this loop's own [`Handoff`] to keep distribution
    /// uniform across the pool.
    pub fn set_peers(&mut self, peers: Vec<Arc<Handoff>>) {
        self.peers = peers;
    }

    /// Runs until the handler reports draining and the drain phase
    /// finishes (or times out).  Consumes the loop.
    pub fn run(mut self, handler: &mut impl FrameHandler) -> io::Result<()> {
        if let Some(l) = &self.listener {
            self.poller.add(l.as_raw_fd(), LISTENER_KEY, true, false)?;
        }
        let mut events: Vec<Event> = Vec::new();
        let mut comps: Vec<(Ticket, Vec<u8>)> = Vec::new();
        let mut draining = false;
        let mut drain_deadline = Instant::now(); // set when drain starts

        loop {
            // `wait` appends; without this clear every event ever seen
            // would be replayed each iteration (unbounded growth, and
            // stale readable events would defeat read backpressure).
            events.clear();
            self.poller.wait(&mut events, Some(self.config.tick))?;

            for stream in self.handoff.take() {
                if draining {
                    drop(stream);
                } else {
                    self.register(stream, handler);
                }
            }

            self.completions.drain_into(&mut comps);
            for (ticket, payload) in comps.drain(..) {
                self.deliver(ticket, payload);
            }

            for &ev in events.iter() {
                if ev.key == LISTENER_KEY {
                    self.accept_ready(handler, draining);
                } else {
                    self.socket_ready(ev, handler);
                }
            }

            if !draining && handler.draining() {
                draining = true;
                drain_deadline = Instant::now() + self.config.drain_timeout;
                if let Some(l) = self.listener.take() {
                    let _ = self.poller.delete(l.as_raw_fd());
                }
                // Stop reading everywhere; in-flight work and queued
                // reply bytes still complete and flush below.
                for token in 0..self.slots.len() {
                    if let Some(cs) = self.slots[token].conn.as_mut() {
                        cs.read_open = false;
                        self.dirty.push(token);
                    }
                }
            }

            self.sweep(handler);

            if draining && (self.live == 0 || Instant::now() >= drain_deadline) {
                self.close_all(handler);
                return Ok(());
            }
        }
    }

    /// Adopts an accepted stream into the slab and the poller.
    fn register(&mut self, stream: TcpStream, handler: &mut impl FrameHandler) {
        if self.live >= self.config.max_connections {
            return; // dropped: client sees a reset
        }
        let conn = match Connection::new(stream, self.config.max_payload) {
            Ok(c) => c,
            Err(_) => return,
        };
        let token = match self.free.pop() {
            Some(t) => t,
            None => {
                self.slots.push(Slot { generation: 0, conn: None });
                self.slots.len() - 1
            }
        };
        debug_assert!(token < LISTENER_KEY);
        if self.poller.add(conn.raw_fd(), token, true, false).is_err() {
            self.free.push(token);
            return;
        }
        self.slots[token].conn = Some(ConnState {
            conn,
            next_seq: 0,
            write_seq: 0,
            parked: BTreeMap::new(),
            outstanding: 0,
            read_open: true,
            closing: false,
            reg_read: true,
            reg_write: false,
        });
        self.live += 1;
        self.dirty.push(token);
        handler.on_accept();
    }

    /// Accept until `WouldBlock`, handing off or registering locally.
    fn accept_ready(&mut self, handler: &mut impl FrameHandler, draining: bool) {
        loop {
            let listener = match &self.listener {
                Some(l) => l,
                None => return,
            };
            match listener.accept() {
                Ok((stream, _)) => {
                    if draining {
                        drop(stream);
                    } else if self.peers.is_empty() {
                        self.register(stream, handler);
                    } else {
                        let target = self.rr % self.peers.len();
                        self.rr = self.rr.wrapping_add(1);
                        self.peers[target].push(stream);
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                // Transient accept failure (e.g. fd exhaustion): back
                // off until the next readiness report.
                Err(_) => return,
            }
        }
    }

    /// Applies a readiness event to one connection.
    fn socket_ready(&mut self, ev: Event, handler: &mut impl FrameHandler) {
        let token = ev.key;
        let Some(slot) = self.slots.get_mut(token) else { return };
        let generation = slot.generation;
        let Some(cs) = slot.conn.as_mut() else { return };
        self.dirty.push(token);

        if !(ev.readable && cs.read_open) {
            return; // writable progress happens in the sweep
        }

        // Split the borrow: the read callback needs the bookkeeping
        // fields while `conn` is exclusively lent to `read_frames`.
        let ConnState {
            conn,
            next_seq,
            parked,
            outstanding,
            closing,
            ..
        } = cs;
        let result = conn.read_frames(|payload| {
            if *closing {
                return; // discard frames pipelined after a close decision
            }
            let seq = *next_seq;
            *next_seq += 1;
            let ticket = Ticket { token, generation, seq };
            match handler.on_frame(ticket, payload) {
                FrameOutcome::Reply(p) => {
                    parked.insert(seq, Parked::Frame(p));
                }
                FrameOutcome::Pending => {
                    *outstanding += 1;
                }
                FrameOutcome::ReplyClose(p) => {
                    parked.insert(seq, Parked::FrameClose(p));
                    *closing = true;
                }
                FrameOutcome::Close => {
                    parked.insert(seq, Parked::CloseMarker);
                    *closing = true;
                }
            }
        });
        match result {
            Ok(ReadStatus::Open) => {}
            Ok(ReadStatus::Eof) => {
                cs.read_open = false;
            }
            // Framing poison or transport error: the stream is dead in
            // both directions; replies cannot be delivered reliably.
            Err(_) => self.close(token, handler),
        }
    }

    /// Delivers one worker completion into its connection's reorder
    /// buffer (dropped if the connection is gone or reincarnated).
    fn deliver(&mut self, ticket: Ticket, payload: Vec<u8>) {
        let Some(slot) = self.slots.get_mut(ticket.token) else { return };
        if slot.generation != ticket.generation {
            return;
        }
        let Some(cs) = slot.conn.as_mut() else { return };
        cs.outstanding = cs.outstanding.saturating_sub(1);
        cs.parked.insert(ticket.seq, Parked::Frame(payload));
        self.dirty.push(ticket.token);
    }

    /// Pumps reorder buffers to sockets, flushes, syncs poller
    /// interest, and closes finished connections.  Idempotent per
    /// token, so duplicate dirty entries are harmless.
    fn sweep(&mut self, handler: &mut impl FrameHandler) {
        let mut dirty = std::mem::take(&mut self.dirty);
        for token in dirty.drain(..) {
            let Some(slot) = self.slots.get_mut(token) else { continue };
            let Some(cs) = slot.conn.as_mut() else { continue };

            // Queue the contiguous completed prefix, in request order.
            while let Some(parked) = cs.parked.remove(&cs.write_seq) {
                cs.write_seq += 1;
                match parked {
                    Parked::Frame(p) => cs.conn.queue_payload(&p),
                    Parked::FrameClose(p) => {
                        cs.conn.queue_payload(&p);
                        cs.closing = true;
                        cs.read_open = false;
                    }
                    Parked::CloseMarker => {
                        cs.closing = true;
                        cs.read_open = false;
                    }
                }
            }

            if cs.conn.flush().is_err() {
                self.close(token, handler);
                continue;
            }

            let idle =
                cs.outstanding == 0 && cs.parked.is_empty() && !cs.conn.wants_write();
            if idle && (cs.closing || !cs.read_open) {
                self.close(token, handler);
                continue;
            }

            let want_read = cs.read_open
                && !cs.closing
                && cs.outstanding < self.config.max_inflight
                && cs.conn.pending_out_bytes() < self.config.max_out_bytes;
            let want_write = cs.conn.wants_write();
            if (want_read, want_write) != (cs.reg_read, cs.reg_write) {
                if self
                    .poller
                    .modify(cs.conn.raw_fd(), token, want_read, want_write)
                    .is_err()
                {
                    self.close(token, handler);
                    continue;
                }
                cs.reg_read = want_read;
                cs.reg_write = want_write;
            }
        }
        self.dirty = dirty; // reuse the allocation
    }

    /// Deregisters and drops one connection, recycling its token.
    fn close(&mut self, token: usize, handler: &mut impl FrameHandler) {
        let Some(slot) = self.slots.get_mut(token) else { return };
        let Some(cs) = slot.conn.take() else { return };
        let _ = self.poller.delete(cs.conn.raw_fd());
        slot.generation += 1;
        self.free.push(token);
        self.live -= 1;
        handler.on_close();
    }

    /// Force-closes every remaining connection (drain deadline).
    fn close_all(&mut self, handler: &mut impl FrameHandler) {
        for token in 0..self.slots.len() {
            self.close(token, handler);
        }
    }
}
