//! The dynamic batcher: a bounded coalescing queue between the server's
//! event loops and model worker threads.
//!
//! State machine (per queue):
//!
//! ```text
//!             push ok                 drain (≤ max_batch or max_wait)
//!   clients ───────────▶ [ queue ] ─────────────────────▶ workers
//!      │                    │  ▲
//!      │ queue full         │  │ close() — shutdown signal
//!      ▼                    ▼  │
//!   Overloaded        ShuttingDown for new pushes;
//!   (immediate)       queued items still drain (graceful)
//! ```
//!
//! * **Admission control** — `push` fails immediately with
//!   [`PushError::Overloaded`] when the queue holds `queue_cap` items:
//!   backpressure is an error reply, never unbounded memory.
//! * **Coalescing** — a worker calling [`Batcher::next_batch`] blocks
//!   until the queue is non-empty, then keeps collecting until it holds
//!   `max_batch` items or `max_wait` has elapsed since the first item
//!   was seen, and drains up to `max_batch` in arrival order.  With
//!   `max_batch = 1` it degenerates to a plain work queue (the baseline
//!   the serving benchmark compares against).
//! * **Graceful drain** — [`Batcher::close`] flips the queue to
//!   draining: new pushes fail with [`PushError::ShuttingDown`], but
//!   workers keep draining until the queue is empty, after which
//!   `next_batch` returns `None` and workers exit.  Every item that was
//!   ever accepted gets exactly one reply.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

use crate::protocol::{Request, Response};

/// Single-use reply path back to whoever admitted the request.
///
/// The server posts the encoded reply into an event loop's completion
/// queue; in-process callers and tests block on an `mpsc` channel.  The
/// batcher and engine only see this closure.  Stats recording wraps
/// here too, transparently to the execution layer.
pub struct ReplySink(Box<dyn FnOnce(Response) + Send>);

impl ReplySink {
    /// Wraps an arbitrary single-use reply delivery.
    pub fn new(f: impl FnOnce(Response) + Send + 'static) -> Self {
        ReplySink(Box::new(f))
    }

    /// A channel-backed sink plus its receiver (in-process callers and
    /// tests).
    pub fn channel() -> (Self, std::sync::mpsc::Receiver<Response>) {
        let (tx, rx) = std::sync::mpsc::channel();
        (ReplySink::from(tx), rx)
    }

    /// Delivers the reply, consuming the sink.
    pub fn send(self, response: Response) {
        (self.0)(response)
    }
}

impl From<std::sync::mpsc::Sender<Response>> for ReplySink {
    /// A hung-up receiver (client vanished while queued) is ignored —
    /// there is nobody left to answer.
    fn from(tx: std::sync::mpsc::Sender<Response>) -> Self {
        ReplySink::new(move |r| {
            let _ = tx.send(r);
        })
    }
}

impl std::fmt::Debug for ReplySink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("ReplySink(..)")
    }
}

/// One queued request plus everything needed to answer it.
#[derive(Debug)]
pub struct WorkItem {
    /// The decoded request (never `Ping`/`Shutdown` — those are handled
    /// inline by the event loop).
    pub request: Request,
    /// Single-use reply path back to whoever admitted the request.
    pub reply: ReplySink,
    /// Absolute deadline; items drained past it are answered with
    /// `DeadlineExceeded` instead of being executed.
    pub deadline: Instant,
}

impl WorkItem {
    /// Delivers the reply for this item.
    pub fn respond(self, response: Response) {
        self.reply.send(response);
    }
}

/// Why a push was refused (the item is handed back for the error reply).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PushError {
    /// The queue is at capacity.
    Overloaded,
    /// The batcher is draining.
    ShuttingDown,
}

/// Batching knobs.
#[derive(Clone, Copy, Debug)]
pub struct BatcherConfig {
    /// Maximum items coalesced into one worker batch.
    pub max_batch: usize,
    /// Maximum time a worker waits for the batch to fill once the first
    /// item is available.
    pub max_wait: Duration,
    /// Admission-control bound on queued items.
    pub queue_cap: usize,
}

impl Default for BatcherConfig {
    fn default() -> Self {
        BatcherConfig {
            max_batch: 64,
            max_wait: Duration::from_micros(200),
            queue_cap: 1024,
        }
    }
}

struct State {
    queue: VecDeque<WorkItem>,
    open: bool,
}

/// The coalescing queue shared by the event loops and workers.
pub struct Batcher {
    config: BatcherConfig,
    state: Mutex<State>,
    notify: Condvar,
}

impl Batcher {
    /// A fresh, open batcher.
    pub fn new(config: BatcherConfig) -> Self {
        assert!(config.max_batch >= 1, "max_batch must be at least 1");
        assert!(config.queue_cap >= 1, "queue_cap must be at least 1");
        Batcher {
            config,
            state: Mutex::new(State {
                queue: VecDeque::new(),
                open: true,
            }),
            notify: Condvar::new(),
        }
    }

    /// The configuration the batcher was built with.
    pub fn config(&self) -> &BatcherConfig {
        &self.config
    }

    /// Enqueues a work item, or hands it back with the refusal reason.
    pub fn push(&self, item: WorkItem) -> Result<(), (WorkItem, PushError)> {
        let mut st = self.state.lock().unwrap();
        if !st.open {
            return Err((item, PushError::ShuttingDown));
        }
        if st.queue.len() >= self.config.queue_cap {
            return Err((item, PushError::Overloaded));
        }
        st.queue.push_back(item);
        drop(st);
        self.notify.notify_all();
        Ok(())
    }

    /// Number of items currently queued (diagnostics only).
    pub fn queued(&self) -> usize {
        self.state.lock().unwrap().queue.len()
    }

    /// Blocks until work is available, coalesces up to
    /// `max_batch`/`max_wait`, and drains the batch in arrival order.
    ///
    /// Returns `None` when the batcher is closed *and* empty — the
    /// worker-exit signal.
    pub fn next_batch(&self) -> Option<Vec<WorkItem>> {
        let mut st = self.state.lock().unwrap();
        // Phase 1: wait for the first item (or exit on drained close).
        loop {
            if !st.queue.is_empty() {
                break;
            }
            if !st.open {
                return None;
            }
            st = self.notify.wait(st).unwrap();
        }
        // Phase 2: let the batch fill, bounded by max_wait.  A closed
        // batcher drains immediately — no point waiting for arrivals
        // that can no longer be admitted.
        if self.config.max_batch > 1 {
            let fill_deadline = Instant::now() + self.config.max_wait;
            while st.queue.len() < self.config.max_batch && st.open {
                let now = Instant::now();
                if now >= fill_deadline {
                    break;
                }
                let (guard, timeout) = self
                    .notify
                    .wait_timeout(st, fill_deadline - now)
                    .unwrap();
                st = guard;
                if timeout.timed_out() {
                    break;
                }
            }
        }
        let take = st.queue.len().min(self.config.max_batch);
        let batch: Vec<WorkItem> = st.queue.drain(..take).collect();
        drop(st);
        // Wake peers: more items may remain, or a closer may be waiting.
        self.notify.notify_all();
        Some(batch)
    }

    /// Switches to draining mode: new pushes fail, queued items still
    /// drain, and workers exit once the queue is empty.
    pub fn close(&self) {
        self.state.lock().unwrap().open = false;
        self.notify.notify_all();
    }

    /// Whether [`Batcher::close`] has been called.
    pub fn is_closed(&self) -> bool {
        !self.state.lock().unwrap().open
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;
    use std::sync::Arc;

    fn item() -> (WorkItem, mpsc::Receiver<Response>) {
        let (sink, rx) = ReplySink::channel();
        (
            WorkItem {
                request: Request::Sample {
                    count: 1,
                    seed: Some(0),
                    precision: None,
                },
                reply: sink,
                deadline: Instant::now() + Duration::from_secs(5),
            },
            rx,
        )
    }

    fn batcher(max_batch: usize, queue_cap: usize) -> Batcher {
        Batcher::new(BatcherConfig {
            max_batch,
            max_wait: Duration::from_millis(20),
            queue_cap,
        })
    }

    #[test]
    fn overload_refused_at_capacity() {
        let b = batcher(4, 2);
        let mut rxs = Vec::new();
        for _ in 0..2 {
            let (it, rx) = item();
            b.push(it).unwrap();
            rxs.push(rx);
        }
        let (it, _rx) = item();
        let (_, err) = b.push(it).unwrap_err();
        assert_eq!(err, PushError::Overloaded);
        assert_eq!(b.queued(), 2);
    }

    #[test]
    fn push_after_close_refused_but_queue_drains() {
        let b = batcher(8, 8);
        let (it, _rx1) = item();
        b.push(it).unwrap();
        b.close();
        let (it, _rx2) = item();
        let (_, err) = b.push(it).unwrap_err();
        assert_eq!(err, PushError::ShuttingDown);
        // The queued item still drains...
        let batch = b.next_batch().expect("queued item must drain");
        assert_eq!(batch.len(), 1);
        // ...and then workers are told to exit.
        assert!(b.next_batch().is_none());
    }

    #[test]
    fn coalesces_up_to_max_batch() {
        let b = batcher(3, 16);
        let mut rxs = Vec::new();
        for _ in 0..5 {
            let (it, rx) = item();
            b.push(it).unwrap();
            rxs.push(rx);
        }
        let first = b.next_batch().unwrap();
        assert_eq!(first.len(), 3, "batch capped at max_batch");
        let second = b.next_batch().unwrap();
        assert_eq!(second.len(), 2, "remainder drained next");
    }

    #[test]
    fn max_wait_bounds_the_fill_delay() {
        let b = batcher(64, 16);
        let (it, _rx) = item();
        b.push(it).unwrap();
        let t0 = Instant::now();
        let batch = b.next_batch().unwrap();
        let waited = t0.elapsed();
        assert_eq!(batch.len(), 1);
        assert!(
            waited < Duration::from_secs(2),
            "worker must not wait unboundedly for a full batch ({waited:?})"
        );
    }

    #[test]
    fn worker_wakes_on_late_arrivals() {
        let b = Arc::new(batcher(2, 16));
        let b2 = Arc::clone(&b);
        let worker = std::thread::spawn(move || b2.next_batch());
        std::thread::sleep(Duration::from_millis(5));
        let (it, _rx) = item();
        b.push(it).unwrap();
        let batch = worker.join().unwrap().unwrap();
        assert_eq!(batch.len(), 1);
    }

    #[test]
    fn close_unblocks_idle_workers() {
        let b = Arc::new(batcher(4, 4));
        let b2 = Arc::clone(&b);
        let worker = std::thread::spawn(move || b2.next_batch());
        std::thread::sleep(Duration::from_millis(5));
        b.close();
        assert!(worker.join().unwrap().is_none());
    }
}
