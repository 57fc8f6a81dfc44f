//! `vqmc-net` — nonblocking serving runtime for the vqmc stack.
//!
//! `vqmc-serve` runs on this crate: a readiness-driven runtime that
//! serves thousands of connections from one or a few event-loop
//! threads, with one file descriptor and no thread per client.  The
//! pieces:
//!
//! * [`FrameDecoder`] — incremental reassembly of the length-prefixed
//!   wire frames from arbitrarily-split reads,
//! * [`Connection`] — one nonblocking socket with partial-read and
//!   partial-write tracking,
//! * [`EventLoop`] — the poller-driven loop: accept, read, dispatch to
//!   a [`FrameHandler`], reorder out-of-order completions back into
//!   request order, flush, and drain on shutdown,
//! * [`Completions`] — the cross-thread queue worker threads use to
//!   post replies for frames the handler deferred
//!   ([`FrameOutcome::Pending`]).
//!
//! The readiness primitive itself (epoll on Linux, portable `poll(2)`
//! elsewhere) is the vendored [`polling`] shim, re-exported here.
//!
//! Nothing in this crate knows the vqmc request schema: payloads are
//! opaque byte vectors, so the crate is testable with toy echo
//! handlers and reusable by the load generator for its open-loop
//! connection swarm.

#![warn(missing_docs)]

mod conn;
mod decoder;
mod event_loop;

pub use conn::{Connection, ReadStatus};
pub use decoder::{FrameDecoder, FrameError};
pub use event_loop::{
    Completions, EventLoop, EventLoopConfig, FrameHandler, FrameOutcome, Handoff, Ticket,
};
pub use polling::{Event, Poller};
