//! The wire protocol: length-prefixed binary frames over TCP.
//!
//! ```text
//! frame    := u32le payload_len · payload        (payload_len ≤ 64 MiB)
//! payload  := u8 opcode · body
//! ```
//!
//! All integers are little-endian; floats are IEEE-754 `f64` in
//! little-endian byte order; spin configurations are one byte per spin
//! (`0`/`1`), row-major — exactly the in-memory layout of
//! [`SpinBatch`], so encode/decode is a `memcpy`.
//!
//! Request opcodes (client → server):
//!
//! | op | name | body |
//! |---|---|---|
//! | `0x01` | `Ping` | — |
//! | `0x02` | `Sample` | `u32 count · u8 has_seed · u64 seed · [u8 precision]` |
//! | `0x03` | `LogPsi` | `u32 bs · u32 n · bs·n spin bytes · [u8 precision]` |
//! | `0x04` | `LocalEnergy` | `u32 bs · u32 n · bs·n spin bytes · [u8 precision]` |
//! | `0x05` | `Shutdown` | — |
//! | `0x06` | `Reload` | `u16 path_len · path bytes (UTF-8)` |
//! | `0x07` | `Stats` | — |
//!
//! `[u8 precision]` is an **optional trailing byte** on the batchable
//! requests: absent (the pre-precision frame layout, and what encoding
//! `precision: None` produces) means "server default"; present it is a
//! [`Precision::tag`] (`0` = f64, `1` = f32) forcing that execution
//! arm.  Old clients never send the byte and old servers reject frames
//! that carry it, so the flag is strictly opt-in.
//!
//! Response opcodes (server → client):
//!
//! | op | name | body |
//! |---|---|---|
//! | `0x81` | `Pong` | `u32 n · u8 kind_len · kind bytes` |
//! | `0x82` | `Samples` | `u32 count · u32 n · count·n spin bytes · count f64 logψ` |
//! | `0x83` | `Values` | `u32 len · len f64` |
//! | `0x84` | `ShutdownAck` | — |
//! | `0x85` | `StatsReport` | fixed-layout counters + histograms (see [`StatsSnapshot`]) |
//! | `0x86` | `ReloadAck` | — |
//! | `0xEF` | `Error` | `u8 code · u16 msg_len · msg bytes` |
//!
//! Unknown opcodes, oversized frames and truncated bodies are decode
//! errors; the server answers them with `Error(BadRequest)` and the
//! connection stays usable (framing is still intact — the bad bytes are
//! confined to their frame).

use std::io::{self, Read, Write};

use vqmc_tensor::{Precision, SpinBatch, Vector};

/// Hard ceiling on a frame payload (bounds per-connection memory).
pub const MAX_FRAME_LEN: usize = 64 << 20;

/// Hard ceiling on `Sample.count` (bounds one request's work).
pub const MAX_SAMPLE_COUNT: usize = 1 << 20;

/// Hard ceiling on configurations per `LogPsi`/`LocalEnergy` request.
pub const MAX_BATCH_ROWS: usize = 1 << 20;

/// A decoded client request.
#[derive(Clone, Debug, PartialEq)]
pub enum Request {
    /// Health check; answered inline (never batched).
    Ping,
    /// Draw `count` exact samples from the served wavefunction.
    Sample {
        /// Number of configurations to draw.
        count: u32,
        /// RNG seed for a deterministic reply; `None` lets the server
        /// pick a fresh stream.
        seed: Option<u64>,
        /// Execution precision; `None` defers to the server default.
        precision: Option<Precision>,
    },
    /// Evaluate `logψ` on the supplied configurations.
    LogPsi {
        /// The configurations to evaluate.
        batch: SpinBatch,
        /// Execution precision; `None` defers to the server default.
        precision: Option<Precision>,
    },
    /// Evaluate local energies `l(x)` on the supplied configurations.
    LocalEnergy {
        /// The configurations to evaluate.
        batch: SpinBatch,
        /// Execution precision; `None` defers to the server default.
        precision: Option<Precision>,
    },
    /// Begin graceful drain: queued work completes, new work is
    /// refused, then the server exits.
    Shutdown,
    /// Atomically swap the served model for the checkpoint at `path`
    /// (same model kind and spin count required).  In-flight and
    /// concurrent requests are never dropped: each one executes
    /// against either the old or the new weights, atomically.
    Reload {
        /// Server-side filesystem path of the checkpoint to load.
        path: String,
    },
    /// Fetch live serving statistics (queue depth, admission tier,
    /// latency percentiles, batch occupancy).
    Stats,
}

/// Error codes carried by [`Response::Error`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum ErrorCode {
    /// The admission queue is full — back off and retry.
    Overloaded = 1,
    /// The request sat in the queue past its deadline.
    DeadlineExceeded = 2,
    /// The server is draining and accepts no new work.
    ShuttingDown = 3,
    /// The request was malformed or violates a server limit.
    BadRequest = 4,
    /// The server failed internally.
    Internal = 5,
}

impl ErrorCode {
    fn from_u8(v: u8) -> Option<ErrorCode> {
        Some(match v {
            1 => ErrorCode::Overloaded,
            2 => ErrorCode::DeadlineExceeded,
            3 => ErrorCode::ShuttingDown,
            4 => ErrorCode::BadRequest,
            5 => ErrorCode::Internal,
            _ => return None,
        })
    }
}

/// A server reply.
#[derive(Clone, Debug, PartialEq)]
pub enum Response {
    /// Reply to [`Request::Ping`]: spin count and model kind tag.
    Pong {
        /// Number of spins of the served model.
        num_spins: u32,
        /// Model kind tag (`"made"` / `"rbm"`).
        kind: String,
    },
    /// Reply to [`Request::Sample`].
    Samples {
        /// The sampled configurations.
        batch: SpinBatch,
        /// `logψ` of every sample.
        log_psi: Vector,
    },
    /// Reply to [`Request::LogPsi`] / [`Request::LocalEnergy`].
    Values(Vector),
    /// Reply to [`Request::Shutdown`].
    ShutdownAck,
    /// Reply to [`Request::Stats`].  Boxed: the fixed-layout snapshot
    /// is ~50× the size of the other variants.
    StatsReport(Box<StatsSnapshot>),
    /// Reply to [`Request::Reload`]: the swap is complete and every
    /// request admitted from now on runs the new weights.
    ReloadAck,
    /// Any failure; the connection remains usable.
    Error {
        /// Machine-readable failure class.
        code: ErrorCode,
        /// Human-readable detail.
        message: String,
    },
}

impl Response {
    /// Convenience constructor for error replies.
    pub fn error(code: ErrorCode, message: impl Into<String>) -> Response {
        Response::Error {
            code,
            message: message.into(),
        }
    }
}

/// Batchable operations tracked by the stats, in wire order:
/// `Sample`, `LogPsi`, `LocalEnergy`.
pub const STATS_OPS: usize = 3;

/// Precision arms tracked by the stats, in wire order: f64, f32.
pub const STATS_PRECISIONS: usize = 2;

/// Batch-occupancy histogram buckets: log2-spaced upper edges
/// 1, 2, 4, 8, 16, 32, and 64-or-more items per drained batch.
pub const OCCUPANCY_BUCKETS: usize = 7;

/// Latency summary for one (operation, precision) arm, microseconds
/// measured from admission to reply.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OpLatency {
    /// Requests answered on this arm.
    pub count: u64,
    /// Sum of latencies (for the mean).
    pub sum_us: u64,
    /// 50th-percentile latency (log-bucket upper edge).
    pub p50_us: u64,
    /// 95th-percentile latency (log-bucket upper edge).
    pub p95_us: u64,
    /// 99th-percentile latency (log-bucket upper edge).
    pub p99_us: u64,
}

/// One point-in-time view of the serving counters, carried by
/// [`Response::StatsReport`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// Requests admitted to the batcher since startup.
    pub accepted: u64,
    /// Requests shed by the graduated admission tier (load-shedding of
    /// expensive operations before full saturation).
    pub shed: u64,
    /// Requests refused outright (queue saturated).
    pub refused: u64,
    /// Completed checkpoint hot-reloads.
    pub reloads: u64,
    /// Items in the admission queue right now.
    pub queue_depth: u32,
    /// Open client connections right now.
    pub connections: u32,
    /// Current admission tier: 0 = accept, 1 = shedding
    /// `LocalEnergy`, 2 = saturated.
    pub tier: u8,
    /// Per-op (`Sample`, `LogPsi`, `LocalEnergy`), per-precision
    /// (f64, f32) latency summaries.
    pub latency: [[OpLatency; STATS_PRECISIONS]; STATS_OPS],
    /// Drained-batch size histogram (log2 buckets: 1, 2, 4, …, ≥64).
    pub occupancy: [u64; OCCUPANCY_BUCKETS],
}

/// A malformed payload (distinct from transport-level `io::Error`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DecodeError(pub String);

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "protocol decode error: {}", self.0)
    }
}

impl std::error::Error for DecodeError {}

fn de(msg: impl Into<String>) -> DecodeError {
    DecodeError(msg.into())
}

// ---------------------------------------------------------------------
// Payload encode/decode (frame-length prefix handled by read/write_frame)
// ---------------------------------------------------------------------

fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Cursor { buf, pos: 0 }
    }

    fn bytes(&mut self, len: usize) -> Result<&'a [u8], DecodeError> {
        let end = self
            .pos
            .checked_add(len)
            .filter(|&e| e <= self.buf.len())
            .ok_or_else(|| de("truncated payload"))?;
        let out = &self.buf[self.pos..end];
        self.pos = end;
        Ok(out)
    }

    fn u8(&mut self) -> Result<u8, DecodeError> {
        Ok(self.bytes(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, DecodeError> {
        Ok(u16::from_le_bytes(self.bytes(2)?.try_into().unwrap()))
    }

    fn u32(&mut self) -> Result<u32, DecodeError> {
        Ok(u32::from_le_bytes(self.bytes(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, DecodeError> {
        Ok(u64::from_le_bytes(self.bytes(8)?.try_into().unwrap()))
    }

    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn finish(self) -> Result<(), DecodeError> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(de(format!(
                "{} trailing bytes after payload",
                self.buf.len() - self.pos
            )))
        }
    }
}

fn put_batch(buf: &mut Vec<u8>, batch: &SpinBatch) {
    put_u32(buf, batch.batch_size() as u32);
    put_u32(buf, batch.num_spins() as u32);
    buf.extend_from_slice(batch.as_bytes());
}

fn get_batch(c: &mut Cursor) -> Result<SpinBatch, DecodeError> {
    let bs = c.u32()? as usize;
    let n = c.u32()? as usize;
    if bs > MAX_BATCH_ROWS {
        return Err(de(format!("batch of {bs} rows exceeds limit {MAX_BATCH_ROWS}")));
    }
    let bytes = c.bytes(bs.checked_mul(n).ok_or_else(|| de("batch size overflow"))?)?;
    // The fallible constructor owns the value/shape validation, so a
    // garbage frame becomes this request's `BadRequest` instead of a
    // panic in the decoding worker.
    SpinBatch::try_from_bytes(bs, n, bytes).map_err(de)
}

fn put_precision(buf: &mut Vec<u8>, precision: Option<Precision>) {
    if let Some(p) = precision {
        buf.push(p.tag());
    }
}

/// The optional trailing precision byte: absent → `None` (server
/// default), present but unknown → decode error.
fn get_precision(c: &mut Cursor) -> Result<Option<Precision>, DecodeError> {
    if c.remaining() == 0 {
        return Ok(None);
    }
    let tag = c.u8()?;
    Precision::from_tag(tag)
        .map(Some)
        .ok_or_else(|| de(format!("unknown precision tag {tag}")))
}

fn put_f64s(buf: &mut Vec<u8>, vals: &[f64]) {
    for v in vals {
        buf.extend_from_slice(&v.to_le_bytes());
    }
}

fn get_f64s(c: &mut Cursor, len: usize) -> Result<Vector, DecodeError> {
    let bytes = c.bytes(len.checked_mul(8).ok_or_else(|| de("f64 count overflow"))?)?;
    Ok(Vector(
        bytes
            .chunks_exact(8)
            .map(|b| f64::from_le_bytes(b.try_into().unwrap()))
            .collect(),
    ))
}

/// Serialises a request into a frame payload (no length prefix).
pub fn encode_request(req: &Request) -> Vec<u8> {
    let mut buf = Vec::new();
    match req {
        Request::Ping => buf.push(0x01),
        Request::Sample {
            count,
            seed,
            precision,
        } => {
            buf.push(0x02);
            put_u32(&mut buf, *count);
            buf.push(seed.is_some() as u8);
            put_u64(&mut buf, seed.unwrap_or(0));
            put_precision(&mut buf, *precision);
        }
        Request::LogPsi { batch, precision } => {
            buf.push(0x03);
            put_batch(&mut buf, batch);
            put_precision(&mut buf, *precision);
        }
        Request::LocalEnergy { batch, precision } => {
            buf.push(0x04);
            put_batch(&mut buf, batch);
            put_precision(&mut buf, *precision);
        }
        Request::Shutdown => buf.push(0x05),
        Request::Reload { path } => {
            buf.push(0x06);
            let p = &path.as_bytes()[..path.len().min(u16::MAX as usize)];
            buf.extend_from_slice(&(p.len() as u16).to_le_bytes());
            buf.extend_from_slice(p);
        }
        Request::Stats => buf.push(0x07),
    }
    buf
}

/// Parses a frame payload into a request.
pub fn decode_request(payload: &[u8]) -> Result<Request, DecodeError> {
    let mut c = Cursor::new(payload);
    let op = c.u8()?;
    let req = match op {
        0x01 => Request::Ping,
        0x02 => {
            let count = c.u32()?;
            if count as usize > MAX_SAMPLE_COUNT {
                return Err(de(format!(
                    "sample count {count} exceeds limit {MAX_SAMPLE_COUNT}"
                )));
            }
            let has_seed = c.u8()?;
            let seed = c.u64()?;
            Request::Sample {
                count,
                seed: (has_seed != 0).then_some(seed),
                precision: get_precision(&mut c)?,
            }
        }
        0x03 => Request::LogPsi {
            batch: get_batch(&mut c)?,
            precision: get_precision(&mut c)?,
        },
        0x04 => Request::LocalEnergy {
            batch: get_batch(&mut c)?,
            precision: get_precision(&mut c)?,
        },
        0x05 => Request::Shutdown,
        0x06 => {
            let path_len = c.u16()? as usize;
            let path = String::from_utf8(c.bytes(path_len)?.to_vec())
                .map_err(|_| de("reload path is not UTF-8"))?;
            Request::Reload { path }
        }
        0x07 => Request::Stats,
        other => return Err(de(format!("unknown request opcode {other:#04x}"))),
    };
    c.finish()?;
    Ok(req)
}

/// Serialises a response into a frame payload (no length prefix).
pub fn encode_response(resp: &Response) -> Vec<u8> {
    let mut buf = Vec::new();
    match resp {
        Response::Pong { num_spins, kind } => {
            buf.push(0x81);
            put_u32(&mut buf, *num_spins);
            buf.push(kind.len() as u8);
            buf.extend_from_slice(kind.as_bytes());
        }
        Response::Samples { batch, log_psi } => {
            buf.push(0x82);
            put_batch(&mut buf, batch);
            put_f64s(&mut buf, log_psi.as_slice());
        }
        Response::Values(vals) => {
            buf.push(0x83);
            put_u32(&mut buf, vals.len() as u32);
            put_f64s(&mut buf, vals.as_slice());
        }
        Response::ShutdownAck => buf.push(0x84),
        Response::StatsReport(s) => {
            buf.push(0x85);
            put_u64(&mut buf, s.accepted);
            put_u64(&mut buf, s.shed);
            put_u64(&mut buf, s.refused);
            put_u64(&mut buf, s.reloads);
            put_u32(&mut buf, s.queue_depth);
            put_u32(&mut buf, s.connections);
            buf.push(s.tier);
            for op in &s.latency {
                for arm in op {
                    put_u64(&mut buf, arm.count);
                    put_u64(&mut buf, arm.sum_us);
                    put_u64(&mut buf, arm.p50_us);
                    put_u64(&mut buf, arm.p95_us);
                    put_u64(&mut buf, arm.p99_us);
                }
            }
            for &b in &s.occupancy {
                put_u64(&mut buf, b);
            }
        }
        Response::ReloadAck => buf.push(0x86),
        Response::Error { code, message } => {
            buf.push(0xEF);
            buf.push(*code as u8);
            let msg = &message.as_bytes()[..message.len().min(u16::MAX as usize)];
            buf.extend_from_slice(&(msg.len() as u16).to_le_bytes());
            buf.extend_from_slice(msg);
        }
    }
    buf
}

/// Parses a frame payload into a response.
pub fn decode_response(payload: &[u8]) -> Result<Response, DecodeError> {
    let mut c = Cursor::new(payload);
    let op = c.u8()?;
    let resp = match op {
        0x81 => {
            let num_spins = c.u32()?;
            let kind_len = c.u8()? as usize;
            let kind = String::from_utf8(c.bytes(kind_len)?.to_vec())
                .map_err(|_| de("kind tag is not UTF-8"))?;
            Response::Pong { num_spins, kind }
        }
        0x82 => {
            let batch = get_batch(&mut c)?;
            let log_psi = get_f64s(&mut c, batch.batch_size())?;
            Response::Samples { batch, log_psi }
        }
        0x83 => {
            let len = c.u32()? as usize;
            Response::Values(get_f64s(&mut c, len)?)
        }
        0x84 => Response::ShutdownAck,
        0x85 => {
            let mut s = StatsSnapshot {
                accepted: c.u64()?,
                shed: c.u64()?,
                refused: c.u64()?,
                reloads: c.u64()?,
                queue_depth: c.u32()?,
                connections: c.u32()?,
                tier: c.u8()?,
                ..StatsSnapshot::default()
            };
            for op in &mut s.latency {
                for arm in op.iter_mut() {
                    *arm = OpLatency {
                        count: c.u64()?,
                        sum_us: c.u64()?,
                        p50_us: c.u64()?,
                        p95_us: c.u64()?,
                        p99_us: c.u64()?,
                    };
                }
            }
            for b in &mut s.occupancy {
                *b = c.u64()?;
            }
            Response::StatsReport(Box::new(s))
        }
        0x86 => Response::ReloadAck,
        0xEF => {
            let code = ErrorCode::from_u8(c.u8()?).ok_or_else(|| de("unknown error code"))?;
            let msg_len = c.u16()? as usize;
            let message = String::from_utf8(c.bytes(msg_len)?.to_vec())
                .map_err(|_| de("error message is not UTF-8"))?;
            Response::Error { code, message }
        }
        other => return Err(de(format!("unknown response opcode {other:#04x}"))),
    };
    c.finish()?;
    Ok(resp)
}

// ---------------------------------------------------------------------
// Framing
// ---------------------------------------------------------------------

/// Writes one length-prefixed frame.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    assert!(payload.len() <= MAX_FRAME_LEN, "frame exceeds MAX_FRAME_LEN");
    w.write_all(&(payload.len() as u32).to_le_bytes())?;
    w.write_all(payload)?;
    w.flush()
}

/// Reads one length-prefixed frame into `buf` (resized in place).
///
/// Returns `Ok(false)` on clean EOF at a frame boundary, `Ok(true)` when
/// a full frame was read, and an error for oversized or truncated
/// frames.
pub fn read_frame(r: &mut impl Read, buf: &mut Vec<u8>) -> io::Result<bool> {
    let mut len_bytes = [0u8; 4];
    match r.read_exact(&mut len_bytes) {
        Ok(()) => {}
        Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => return Ok(false),
        Err(e) => return Err(e),
    }
    let len = u32::from_le_bytes(len_bytes) as usize;
    if len > MAX_FRAME_LEN {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame of {len} bytes exceeds limit {MAX_FRAME_LEN}"),
        ));
    }
    buf.resize(len, 0);
    r.read_exact(buf)?;
    Ok(true)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn batch(bs: usize, n: usize, seed: u8) -> SpinBatch {
        SpinBatch::from_fn(bs, n, |s, i| ((s + i + seed as usize) % 2) as u8)
    }

    /// One of every request shape (precision tagged and untagged).
    fn requests() -> Vec<Request> {
        vec![
            Request::Ping,
            Request::Sample {
                count: 128,
                seed: Some(7),
                precision: None,
            },
            Request::Sample {
                count: 1,
                seed: None,
                precision: Some(Precision::F32),
            },
            Request::LogPsi {
                batch: batch(3, 5, 0),
                precision: None,
            },
            Request::LogPsi {
                batch: batch(3, 5, 0),
                precision: Some(Precision::F32),
            },
            Request::LocalEnergy {
                batch: batch(2, 4, 1),
                precision: Some(Precision::F64),
            },
            Request::Shutdown,
            Request::Reload {
                path: "/tmp/ckpt-v2.vqmc".into(),
            },
            Request::Stats,
        ]
    }

    #[test]
    fn request_round_trips() {
        for req in requests() {
            let payload = encode_request(&req);
            assert_eq!(decode_request(&payload).unwrap(), req, "{req:?}");
        }
    }

    /// A frame in the pre-precision layout (no trailing byte) decodes
    /// to `precision: None` — old clients keep working unchanged.
    #[test]
    fn precisionless_frames_decode_as_default() {
        let b = batch(2, 3, 0);
        let mut legacy = vec![0x03];
        put_batch(&mut legacy, &b);
        assert_eq!(
            decode_request(&legacy).unwrap(),
            Request::LogPsi {
                batch: b,
                precision: None
            }
        );
    }

    #[test]
    fn unknown_precision_tag_rejected() {
        let mut p = encode_request(&Request::LogPsi {
            batch: batch(1, 3, 0),
            precision: Some(Precision::F32),
        });
        *p.last_mut().unwrap() = 9;
        assert!(decode_request(&p).is_err());
    }

    /// One of every response shape.
    fn responses() -> Vec<Response> {
        vec![
            Response::Pong {
                num_spins: 20,
                kind: "made".into(),
            },
            Response::Samples {
                batch: batch(4, 6, 0),
                log_psi: Vector::from_fn(4, |i| -(i as f64) - 0.25),
            },
            Response::Values(Vector::from_fn(7, |i| i as f64 * 1.5 - 3.0)),
            Response::ShutdownAck,
            Response::ReloadAck,
            Response::StatsReport(Box::new({
                let mut s = StatsSnapshot {
                    accepted: 1000,
                    shed: 17,
                    refused: 3,
                    reloads: 2,
                    queue_depth: 42,
                    connections: 2048,
                    tier: 1,
                    ..StatsSnapshot::default()
                };
                s.latency[1][0] = OpLatency {
                    count: 900,
                    sum_us: 123_456,
                    p50_us: 128,
                    p95_us: 512,
                    p99_us: 1024,
                };
                s.occupancy = [1, 2, 4, 8, 16, 32, 64];
                s
            })),
            Response::error(ErrorCode::Overloaded, "queue full"),
        ]
    }

    #[test]
    fn response_round_trips() {
        for resp in responses() {
            let payload = encode_response(&resp);
            assert_eq!(decode_response(&payload).unwrap(), resp, "{resp:?}");
        }
    }

    /// Decodes every single-byte replacement of `payload` (each
    /// position × 0x00, 0x01, 0x7F, 0x80, 0xFF and the byte with its
    /// low bit flipped); any result is fine, a panic is not.
    fn decode_mutations<T>(payload: &[u8], decode: fn(&[u8]) -> Result<T, DecodeError>) {
        for i in 0..payload.len() {
            for v in [0x00, 0x01, 0x7F, 0x80, 0xFF, payload[i] ^ 0x01] {
                let mut m = payload.to_vec();
                m[i] = v;
                let decoded = std::panic::catch_unwind(|| decode(&m).is_ok());
                assert!(decoded.is_ok(), "decode panicked: byte {i} = {v:#04x} in {payload:?}");
            }
        }
    }

    /// The event loop decodes every frame on its own thread, so a
    /// decoder panic would take down every connection on the loop.
    /// Every prefix cut of an encoded frame is an error, except the cut
    /// that drops only a request's optional trailing precision byte,
    /// which decodes to the same request untagged; every single-byte
    /// replacement decodes without panicking.
    #[test]
    fn decoders_reject_cuts_and_survive_byte_mutations() {
        for req in requests() {
            let payload = encode_request(&req);
            let tagged = matches!(
                req,
                Request::Sample { precision: Some(_), .. }
                    | Request::LogPsi { precision: Some(_), .. }
                    | Request::LocalEnergy { precision: Some(_), .. }
            );
            for k in 0..payload.len() {
                let decoded = decode_request(&payload[..k]);
                let untagged_cut = tagged && k + 1 == payload.len();
                assert_eq!(decoded.is_ok(), untagged_cut, "{req:?} cut at {k}: {decoded:?}");
                if let Ok(cut) = decoded {
                    // Same bytes minus the tag: the same request, untagged.
                    assert_eq!(encode_request(&cut), &payload[..k], "{req:?}");
                }
            }
            decode_mutations(&payload, decode_request);
        }
        for resp in responses() {
            let payload = encode_response(&resp);
            for k in 0..payload.len() {
                let decoded = decode_response(&payload[..k]);
                assert!(decoded.is_err(), "{resp:?} cut at {k} decoded: {decoded:?}");
            }
            decode_mutations(&payload, decode_response);
        }
    }

    #[test]
    fn malformed_payloads_rejected() {
        assert!(decode_request(&[]).is_err());
        assert!(decode_request(&[0x99]).is_err());
        // Truncated Sample body.
        assert!(decode_request(&[0x02, 1, 0, 0]).is_err());
        // Truncated Reload path.
        assert!(decode_request(&[0x06, 5, 0, b'a']).is_err());
        // Trailing garbage after a valid Ping.
        assert!(decode_request(&[0x01, 0xAB]).is_err());
        // Spin byte out of {0, 1}.
        let mut p = encode_request(&Request::LogPsi {
            batch: batch(1, 3, 0),
            precision: None,
        });
        *p.last_mut().unwrap() = 2;
        assert!(decode_request(&p).is_err());
        // Batch row count beyond the limit.
        let mut huge = vec![0x03];
        huge.extend_from_slice(&(MAX_BATCH_ROWS as u32 + 1).to_le_bytes());
        huge.extend_from_slice(&4u32.to_le_bytes());
        assert!(decode_request(&huge).is_err());
    }

    #[test]
    fn framing_round_trips_and_detects_eof() {
        let mut wire = Vec::new();
        write_frame(&mut wire, b"hello").unwrap();
        write_frame(&mut wire, b"").unwrap();
        let mut r = &wire[..];
        let mut buf = Vec::new();
        assert!(read_frame(&mut r, &mut buf).unwrap());
        assert_eq!(buf, b"hello");
        assert!(read_frame(&mut r, &mut buf).unwrap());
        assert_eq!(buf, b"");
        assert!(!read_frame(&mut r, &mut buf).unwrap()); // clean EOF
    }

    #[test]
    fn oversized_frame_rejected() {
        let mut wire = Vec::new();
        wire.extend_from_slice(&(MAX_FRAME_LEN as u32 + 1).to_le_bytes());
        let mut r = &wire[..];
        assert!(read_frame(&mut r, &mut Vec::new()).is_err());
    }

    #[test]
    fn truncated_frame_is_an_error_not_eof() {
        let mut wire = Vec::new();
        write_frame(&mut wire, b"hello").unwrap();
        wire.truncate(wire.len() - 2);
        let mut r = &wire[..];
        assert!(read_frame(&mut r, &mut Vec::new()).is_err());
    }
}
