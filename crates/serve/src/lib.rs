//! # vqmc-serve
//!
//! A dynamic-batching inference server for trained wavefunctions — the
//! serving counterpart of the paper's §4 observation that exact (AUTO)
//! sampling of an autoregressive wavefunction is embarrassingly
//! batch-parallel.  Concurrent client requests are coalesced into
//! *single* batched SIMD passes over the model, which is the same lever
//! the paper pulls for multi-GPU training throughput, applied to
//! serving: one forward pass for 64 coalesced requests costs barely
//! more than one pass for a single request.
//!
//! ## Architecture
//!
//! ```text
//!  clients ──TCP──▶ event loops (epoll) ──▶ [ dynamic batcher ] ──▶ engine replicas
//!                    nonblocking accept/      bounded queue,          N workers, one
//!                    read/write, frame        graduated admission,    coalesced SIMD
//!                    reassembly, in-order     coalesce ≤ max_batch    pass per batch,
//!                    pipelined replies        or max_wait_us          shared ModelSlot
//! ```
//!
//! * [`protocol`] — length-prefixed binary frames: `Ping`, `Sample`,
//!   `LogPsi`, `LocalEnergy`, `Shutdown`, `Reload`, `Stats`.
//! * [`batcher`] — the coalescing bounded queue: admission control
//!   (`Overloaded` instead of OOM), deadline propagation, graceful
//!   drain; replies travel through single-use [`ReplySink`]s.
//! * [`engine`] — batched execution over a hot-swappable checkpoint
//!   slot ([`ModelSlot`]); coalesced replies are **bit-identical** to
//!   the single-request path (property-tested), including `Sample`,
//!   which draws each request's bits from its own seeded RNG stream
//!   inside one combined incremental AUTO pass.
//! * [`server`] — the TCP front end: nonblocking `vqmc-net` event
//!   loops whose completion queues carry the engine's replies back;
//!   graduated admission, atomic checkpoint hot-reload, live stats.
//! * [`client`] — a blocking client (integration tests, `vqmc-loadgen`).
//! * [`stats`] — lock-free serving counters behind the `Stats` frame.

#![warn(missing_docs)]

pub mod batcher;
pub mod client;
pub mod engine;
pub mod protocol;
pub mod server;
pub mod stats;

pub use batcher::{Batcher, BatcherConfig, PushError, ReplySink, WorkItem};
pub use client::{Client, ClientError};
pub use engine::{Engine, ModelSlot, SampleRequest};
pub use protocol::{ErrorCode, OpLatency, Request, Response, StatsSnapshot};
pub use server::{AdmissionTier, ServeConfig, Server};
pub use stats::{ServerStats, StatOp};
