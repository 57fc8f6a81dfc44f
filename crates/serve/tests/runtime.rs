//! End-to-end tests of the serving event loops: checkpoint hot-reload
//! under load, graduated admission, live stats, pipelined in-order
//! replies, drain-mid-burst frame integrity, malformed frames on a
//! live connection, and bit-identity of served replies against the
//! in-process engine.

use std::io::Write as _;
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use vqmc_hamiltonian::{LocalEnergyConfig, SparseRowHamiltonian, TransverseFieldIsing};
use vqmc_nn::checkpoint::{AnyModel, Checkpoint};
use vqmc_nn::Made;
use vqmc_serve::protocol::{
    encode_request, read_frame, write_frame, decode_response,
};
use vqmc_serve::{
    BatcherConfig, Client, ClientError, Engine, ErrorCode, ReplySink, Request, Response,
    SampleRequest, ServeConfig, Server, WorkItem,
};
use vqmc_tensor::{Precision, SpinBatch, Vector};

const N: usize = 8;
const HIDDEN: usize = 12;

fn model() -> AnyModel {
    AnyModel::Made(Made::new(N, HIDDEN, 5))
}

fn hamiltonian() -> Arc<dyn SparseRowHamiltonian> {
    Arc::new(TransverseFieldIsing::random(N, 2021))
}

fn start(config: ServeConfig) -> Server {
    Server::start(model(), Some(hamiltonian()), config).expect("bind ephemeral port")
}

fn test_batch(tweak: usize) -> SpinBatch {
    SpinBatch::from_fn(4, N, |s, i| ((s + i + tweak) % 2) as u8)
}

/// A unique temp path that is removed when dropped.
struct TempCkpt(PathBuf);

impl TempCkpt {
    fn new(name: &str) -> Self {
        TempCkpt(std::env::temp_dir().join(format!(
            "vqmc-serve-test-{}-{}.ckpt",
            name,
            std::process::id()
        )))
    }
    fn path(&self) -> &str {
        self.0.to_str().unwrap()
    }
}

impl Drop for TempCkpt {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

/// A mid-load `Reload` atomically swaps the served weights: logψ flips
/// from the old model's values to the new model's, concurrent traffic
/// sees zero errors, and every reply matches exactly one of the two
/// models — never a mixture.
#[test]
fn hot_reload_swaps_model_mid_load_without_errors() {
    let ckpt = TempCkpt::new("reload-b");
    Made::new(N, HIDDEN, 99).save(&ckpt.0).unwrap();

    let server = start(ServeConfig::default());
    let addr = server.local_addr();
    let batch = test_batch(0);

    let mut client = Client::connect(addr).unwrap();
    let before = client.log_psi(&batch).unwrap();

    // Sustained background load across the swap.
    let stop = Arc::new(AtomicBool::new(false));
    let loaders: Vec<_> = (0..4)
        .map(|_| {
            let stop = Arc::clone(&stop);
            let batch = batch.clone();
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                let mut replies = Vec::new();
                while !stop.load(Ordering::Relaxed) {
                    // Any error here fails the test: a hot swap must be
                    // invisible to in-flight traffic.
                    replies.push(client.log_psi(&batch).expect("no errors during reload"));
                    client.sample(2, Some(7)).expect("no errors during reload");
                }
                replies
            })
        })
        .collect();

    std::thread::sleep(Duration::from_millis(30));
    client.reload(ckpt.path()).expect("reload must succeed");
    std::thread::sleep(Duration::from_millis(30));
    stop.store(true, Ordering::Relaxed);

    let after = client.log_psi(&batch).unwrap();
    assert_ne!(
        before.0, after.0,
        "the mutated checkpoint must be distinguishable from the original"
    );

    for handle in loaders {
        let replies = handle.join().unwrap();
        assert!(!replies.is_empty(), "loader made progress");
        for v in replies {
            // Atomicity: old or new weights, never a torn mixture.
            assert!(
                v.0 == before.0 || v.0 == after.0,
                "reply matches neither old nor new model: {:?}",
                v.0
            );
        }
    }

    assert_eq!(client.stats().unwrap().reloads, 1);
    client.shutdown().unwrap();
    server.join();
}

/// Reload refuses checkpoints that do not match the served model shape
/// and unreadable paths, without disturbing the running server.
#[test]
fn reload_rejects_mismatched_or_missing_checkpoints() {
    let wrong = TempCkpt::new("reload-wrong-shape");
    Made::new(N / 2, HIDDEN, 1).save(&wrong.0).unwrap();

    let server = start(ServeConfig::default());
    let mut client = Client::connect(server.local_addr()).unwrap();

    let err = client.reload(wrong.path()).unwrap_err();
    assert_eq!(err.server_code(), Some(ErrorCode::BadRequest));

    let err = client.reload("/nonexistent/vqmc.ckpt").unwrap_err();
    assert_eq!(err.server_code(), Some(ErrorCode::BadRequest));

    // Still serving, still on the original weights.
    assert_eq!(client.stats().unwrap().reloads, 0);
    client.log_psi(&test_batch(0)).unwrap();
    client.shutdown().unwrap();
    server.join();
}

/// Killing the server mid-burst must never truncate a reply frame: a
/// client sees complete frames up to a clean connection end, never a
/// partial frame (`UnexpectedEof` mid-reply).
#[test]
fn shutdown_mid_burst_never_truncates_replies() {
    let server = start(ServeConfig::default());
    let addr = server.local_addr();

    let clients: Vec<_> = (0..8)
        .map(|c| {
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                let mut ok = 0u64;
                loop {
                    match client.sample(32, Some(c)) {
                        Ok((batch, log_psi)) => {
                            assert_eq!(batch.batch_size(), 32);
                            assert_eq!(log_psi.len(), 32);
                            ok += 1;
                        }
                        // The one outcome this regression test exists
                        // to forbid: EOF in the middle of a frame.
                        Err(ClientError::Io(e))
                            if e.kind() == std::io::ErrorKind::UnexpectedEof =>
                        {
                            panic!("truncated reply frame during drain");
                        }
                        // Acceptable ends: drain refusal or the
                        // connection closing at a frame boundary.
                        Err(_) => break,
                    }
                }
                ok
            })
        })
        .collect();

    std::thread::sleep(Duration::from_millis(50));
    server.shutdown();
    let total: u64 = clients.into_iter().map(|h| h.join().unwrap()).sum();
    assert!(total > 0, "burst made progress before the drain");
    server.join();
}

/// With the shed threshold at zero the admission tier permanently sits
/// at `ShedLocalEnergy`: local-energy requests get `Overloaded`,
/// cheaper ops keep flowing, and the stats report the tier and count.
#[test]
fn graduated_admission_sheds_local_energy_first() {
    let server = start(ServeConfig {
        shed_threshold: 0.0,
        ..ServeConfig::default()
    });
    let mut client = Client::connect(server.local_addr()).unwrap();

    let err = client.local_energy(&test_batch(0)).unwrap_err();
    assert_eq!(err.server_code(), Some(ErrorCode::Overloaded));
    match &err {
        ClientError::Server { message, .. } => {
            assert!(message.contains("shed"), "sheds are labelled: {message}")
        }
        other => panic!("expected a server error, got {other}"),
    }

    // Cheaper ops are still admitted under the shedding tier.
    client.log_psi(&test_batch(0)).unwrap();
    client.sample(2, Some(1)).unwrap();

    let stats = client.stats().unwrap();
    assert_eq!(stats.tier, 1, "tier is ShedLocalEnergy");
    assert_eq!(stats.shed, 1);
    assert_eq!(stats.accepted, 2);

    client.shutdown().unwrap();
    server.join();
}

/// The stats snapshot tracks admissions, per-op/per-precision latency
/// counts, connections, and batch occupancy.
#[test]
fn stats_snapshot_tracks_traffic() {
    let server = start(ServeConfig::default());
    let mut client = Client::connect(server.local_addr()).unwrap();

    for r in 0..3 {
        client.sample(2, Some(r)).unwrap();
    }
    client.log_psi(&test_batch(0)).unwrap();
    client
        .log_psi_with(&test_batch(0), Some(vqmc_tensor::Precision::F32))
        .unwrap();

    let stats = client.stats().unwrap();
    assert_eq!(stats.accepted, 5);
    assert_eq!(stats.refused, 0);
    assert_eq!(stats.tier, 0);
    assert_eq!(stats.connections, 1);
    // latency arrays are [op][precision] with f64 = 0, f32 = 1.
    assert_eq!(stats.latency[0][0].count, 3, "three f64 samples");
    assert_eq!(stats.latency[1][0].count, 1, "one f64 logψ");
    assert_eq!(stats.latency[1][1].count, 1, "one f32 logψ");
    let batches: u64 = stats.occupancy.iter().sum();
    assert!(batches >= 1, "drained batches land in occupancy buckets");

    client.shutdown().unwrap();
    server.join();
}

/// A client that pipelines K requests down one connection before
/// reading anything back gets K replies in request order, each
/// bit-identical to the same request issued solo.
#[test]
fn pipelined_requests_reply_in_order() {
    let server = start(ServeConfig::default());
    let addr = server.local_addr();
    let k = 16usize;

    // Solo references, one request at a time.
    let mut solo = Vec::new();
    {
        let mut client = Client::connect(addr).unwrap();
        for r in 0..k {
            solo.push(client.log_psi(&test_batch(r)).unwrap());
        }
    }

    // One connection, all K requests flushed before the first read.
    let mut stream = TcpStream::connect(addr).unwrap();
    stream.set_nodelay(true).unwrap();
    for r in 0..k {
        let payload = encode_request(&Request::LogPsi {
            batch: test_batch(r),
            precision: None,
        });
        write_frame(&mut stream, &payload).unwrap();
    }
    stream.flush().unwrap();

    let mut frame = Vec::new();
    for r in 0..k {
        assert!(read_frame(&mut stream, &mut frame).unwrap(), "reply {r}");
        match decode_response(&frame).unwrap() {
            Response::Values(v) => assert_eq!(v, solo[r], "reply {r} in request order"),
            other => panic!("unexpected reply to pipelined LogPsi: {other:?}"),
        }
    }

    drop(stream);
    server.shutdown();
    server.join();
}

/// Served replies equal the in-process [`Engine`] over the same model
/// bit for bit, at `f64` and at `f32`: a seeded `Sample` against
/// `run_samples_with`, `LogPsi` against `run_log_psi_with`, and
/// `LocalEnergy` against `execute`.  The reference skips the whole
/// front end (event loop, wire codec, admission, batcher), so a fault
/// anywhere on the served path shows here.
#[test]
fn served_replies_match_in_process_engine() {
    let server = start(ServeConfig::default());
    let mut client = Client::connect(server.local_addr()).unwrap();
    let mut engine = Engine::new(
        Arc::new(model()),
        Some(hamiltonian()),
        LocalEnergyConfig::default(),
    );
    let bits = |v: &Vector| v.as_slice().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    let batch = test_batch(1);

    for precision in [Precision::F64, Precision::F32] {
        let (served, served_lp) = client.sample_with(5, Some(42), Some(precision)).unwrap();
        match &engine.run_samples_with(precision, &[SampleRequest { count: 5, seed: 42 }])[..] {
            [Response::Samples { batch, log_psi }] => {
                assert_eq!(served.as_bytes(), batch.as_bytes(), "{precision:?} sample bits");
                assert_eq!(bits(&served_lp), bits(log_psi), "{precision:?} sample logψ");
            }
            other => panic!("unexpected engine reply to Sample: {other:?}"),
        }

        assert_eq!(
            bits(&client.log_psi_with(&batch, Some(precision)).unwrap()),
            bits(&engine.run_log_psi_with(&batch, precision)),
            "{precision:?} logψ"
        );

        let (sink, rx) = ReplySink::channel();
        engine.execute(vec![WorkItem {
            request: Request::LocalEnergy {
                batch: batch.clone(),
                precision: Some(precision),
            },
            reply: sink,
            deadline: Instant::now() + Duration::from_secs(60),
        }]);
        match rx.recv().unwrap() {
            Response::Values(expect) => assert_eq!(
                bits(&client.local_energy_with(&batch, Some(precision)).unwrap()),
                bits(&expect),
                "{precision:?} local energy"
            ),
            other => panic!("unexpected engine reply to LocalEnergy: {other:?}"),
        }
    }

    client.shutdown().unwrap();
    server.join();
}

/// A malformed payload inside an intact frame is answered with
/// `BadRequest` on the event loop that decoded it, and the same
/// connection keeps serving.
#[test]
fn mutated_frame_gets_bad_request_and_connection_survives() {
    let server = start(ServeConfig::default());
    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    let mut frame = Vec::new();
    let mut call = |payload: &[u8]| {
        write_frame(&mut stream, payload).unwrap();
        assert!(read_frame(&mut stream, &mut frame).unwrap(), "reply frame");
        decode_response(&frame).unwrap()
    };

    let mut bad = encode_request(&Request::LogPsi {
        batch: test_batch(0),
        precision: None,
    });
    *bad.last_mut().unwrap() = 0x7F; // a spin byte outside {0, 1}
    match call(&bad) {
        Response::Error { code, .. } => assert_eq!(code, ErrorCode::BadRequest),
        other => panic!("expected BadRequest, got {other:?}"),
    }
    match call(&encode_request(&Request::Ping)) {
        Response::Pong { num_spins, .. } => assert_eq!(num_spins as usize, N),
        other => panic!("expected Pong after a bad frame, got {other:?}"),
    }

    drop(stream);
    server.shutdown();
    server.join();
}

/// Multiple event loops split connections without changing results.
#[test]
fn multiple_event_loops_serve_consistently() {
    let server = start(ServeConfig {
        event_loops: 2,
        batcher: BatcherConfig {
            max_batch: 64,
            max_wait: Duration::from_millis(10),
            queue_cap: 1024,
        },
        ..ServeConfig::default()
    });
    let addr = server.local_addr();

    let mut reference = Client::connect(addr).unwrap();
    let expect = reference.log_psi(&test_batch(0)).unwrap();

    let handles: Vec<_> = (0..6)
        .map(|_| {
            let expect = expect.clone();
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                for _ in 0..5 {
                    assert_eq!(client.log_psi(&test_batch(0)).unwrap(), expect);
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }

    reference.shutdown().unwrap();
    server.join();
}
