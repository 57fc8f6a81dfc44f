//! Subcommand implementations for `vqmc-cli`.

use std::collections::BTreeMap;

use vqmc::baselines::{brute_force, goemans_williamson, local_search_1opt, random_cut};
use vqmc::core::observables::fidelity;
use vqmc::nn::checkpoint::{load_any, AnyModel, Checkpoint};
use vqmc::prelude::*;
use vqmc::serve::{BatcherConfig, ServeConfig, Server};

/// Top-level usage text.
pub const USAGE: &str = "\
vqmc-cli — variational quantum Monte Carlo (SC'21 reproduction)

USAGE:
  vqmc-cli <command> [--flag value]...

COMMANDS:
  train      train a wavefunction on a problem instance
             --problem tim|maxcut|sk   (default tim)
             --n <spins>               (default 16)
             --model made|rbm          (default made)
             --sampler auto|mcmc       (default: auto for made, mcmc for rbm)
             --optimizer adam|sgd|sr   (default adam)
             --iters <N>               (default 300)
             --hidden <N[,N...]>       hidden widths, comma-separated for a
                                       deep stack, e.g. 256,128 (default:
                                       size heuristic; made only for >1)
             --batch <N>               (default 512)
             --seed <N>                (default 0)
             --instance-seed <N>       (default 2021)
             --checkpoint <path>       save the trained model
             --save-model <path>       alias for --checkpoint
             --save-precision f64|f32  checkpoint parameter storage width
                                       (default f64; f32 halves the file)
             --load-model <path>       warm-start from a saved checkpoint
             --exact true              compare against Lanczos (n <= 16)
             --ranks <N>               single-box multi-process run: spawn N
                                       OS processes over loopback TCP; the
                                       trace is bit-identical to --ranks 1
                                       at any N (made+auto only)
             --dist-timeout-ms <N>     per-collective deadline (default 30000)
             --connect-timeout-ms <N>  mesh-formation deadline (default 10000)
             --rank k --world N --peers a:p,b:p,...
                                       run as ONE rank of an existing mesh
                                       (what --ranks passes to its children;
                                       usable directly across machines)
  evaluate   load a checkpoint and report energy statistics
             --checkpoint <path> --problem ... --n ... [--batch N]
             [--seed N] [--instance-seed N] [--exact true]
  sample     draw configurations from a checkpointed model
             --checkpoint <path> [--count N] [--seed N]
  serve      dynamic-batching TCP inference server over a checkpoint
             --checkpoint <path>       model to serve (required)
             --addr <host:port>        (default 127.0.0.1:0 = ephemeral)
             --port <N>                shorthand for --addr 127.0.0.1:N
             --max-batch <N>           coalesce ceiling (default 64)
             --max-wait-us <N>         batch fill window (default 200)
             --queue-cap <N>           admission bound (default 1024)
             --workers <N>             engine replicas (default:
                                       VQMC_THREADS if set, else 1)
             --timeout-ms <N>          per-request deadline (default 2000)
             --seed <N>                base of the server-assigned seeds
                                       for seedless Sample requests
                                       (default 0)
             --event-loops <N>         event-loop threads (default 1)
             --shed-threshold <F>      queue fraction where LocalEnergy
                                       shedding starts (default 0.75)
             --precision f64|f32       default execution precision for
                                       untagged requests (default: the
                                       checkpoint's storage precision)
             --problem tim|sk|maxcut|none  LocalEnergy hamiltonian
                                       (default tim; n from the model)
             --instance-seed <N>       (default 2021)
  baselines  classical Max-Cut solvers on one instance
             --n <vertices> [--instance-seed N] [--seed N]
  scaling    mini weak-scaling report on the virtual cluster
             [--n N] [--mbs N] [--iters N]
  help       show this text";

type Flags = BTreeMap<String, String>;

/// A subcommand's entry point.
pub type Command = fn(&Flags) -> Result<(), String>;

/// Every subcommand with the flags it reads; `main` rejects any other
/// flag.  `train` lists the mesh flags `train --ranks N` forwards to
/// each rank.
pub const COMMANDS: &[(&str, &[&str], Command)] = &[
    ("train", &[
        "problem", "n", "instance-seed", "model", "sampler", "optimizer", "iters", "hidden",
        "batch", "seed", "checkpoint", "save-model", "save-precision", "load-model", "exact",
        "ranks", "rank", "world", "peers", "dist-timeout-ms", "connect-timeout-ms",
    ], train),
    ("evaluate", &["checkpoint", "problem", "n", "instance-seed", "batch", "seed", "exact"], evaluate),
    ("sample", &["checkpoint", "count", "seed"], sample),
    ("serve", &[
        "checkpoint", "addr", "port", "max-batch", "max-wait-us", "queue-cap", "workers",
        "timeout-ms", "event-loops", "shed-threshold", "precision", "problem", "instance-seed",
        "seed",
    ], serve),
    ("baselines", &["n", "instance-seed", "seed"], baselines),
    ("scaling", &["n", "mbs", "iters"], scaling),
];

fn get<'a>(flags: &'a Flags, key: &str, default: &'a str) -> &'a str {
    flags.get(key).map(String::as_str).unwrap_or(default)
}

fn get_usize(flags: &Flags, key: &str, default: usize) -> Result<usize, String> {
    match flags.get(key) {
        None => Ok(default),
        Some(v) => v
            .parse()
            .map_err(|_| format!("--{key} wants an integer, got {v:?}")),
    }
}

fn get_u64(flags: &Flags, key: &str, default: u64) -> Result<u64, String> {
    match flags.get(key) {
        None => Ok(default),
        Some(v) => v
            .parse()
            .map_err(|_| format!("--{key} wants an integer, got {v:?}")),
    }
}

/// `--hidden 256,128` → `Some(vec![256, 128])`; absent → `None` (size
/// heuristic).  Every width must be a positive integer.
fn get_hidden_list(flags: &Flags) -> Result<Option<Vec<usize>>, String> {
    match flags.get("hidden") {
        None => Ok(None),
        Some(v) => {
            let widths: Result<Vec<usize>, _> =
                v.split(',').map(|t| t.trim().parse::<usize>()).collect();
            let widths = widths.map_err(|_| {
                format!("--hidden wants a comma-separated list of integers, got {v:?}")
            })?;
            if widths.is_empty() || widths.contains(&0) {
                return Err(format!("--hidden widths must be positive, got {v:?}"));
            }
            Ok(Some(widths))
        }
    }
}

/// Single-hidden-layer models accept exactly one `--hidden` width.
fn single_hidden(
    hidden: &Option<Vec<usize>>,
    model: &str,
    fallback: usize,
) -> Result<usize, String> {
    match hidden {
        None => Ok(fallback),
        Some(ws) if ws.len() == 1 => Ok(ws[0]),
        Some(ws) => Err(format!(
            "--model {model} supports one hidden layer, got {} widths \
             (deep stacks are made-only)",
            ws.len()
        )),
    }
}

/// The problem instances the CLI can build.
enum Problem {
    Tim(TransverseFieldIsing),
    MaxCut(MaxCut),
}

impl Problem {
    fn build(flags: &Flags) -> Result<(Self, usize), String> {
        let n = get_usize(flags, "n", 16)?;
        let instance_seed = get_u64(flags, "instance-seed", 2021)?;
        let problem = match get(flags, "problem", "tim") {
            "tim" => Problem::Tim(TransverseFieldIsing::random(n, instance_seed)),
            "sk" => Problem::Tim(TransverseFieldIsing::sherrington_kirkpatrick(
                n,
                0.7,
                instance_seed,
            )),
            "maxcut" => Problem::MaxCut(MaxCut::random(n, instance_seed)),
            other => return Err(format!("unknown problem {other:?} (tim|maxcut|sk)")),
        };
        Ok((problem, n))
    }

    fn hamiltonian(&self) -> &dyn SparseRowHamiltonian {
        match self {
            Problem::Tim(h) => h,
            Problem::MaxCut(h) => h,
        }
    }
}

fn optimizer_choice(flags: &Flags) -> Result<OptimizerChoice, String> {
    Ok(match get(flags, "optimizer", "adam") {
        "adam" => OptimizerChoice::paper_default(),
        "sgd" => OptimizerChoice::Sgd { lr: 0.1 },
        "sr" => OptimizerChoice::paper_sr(),
        other => return Err(format!("unknown optimizer {other:?} (adam|sgd|sr)")),
    })
}

fn trainer_config(flags: &Flags) -> Result<TrainerConfig, String> {
    Ok(TrainerConfig {
        iterations: get_usize(flags, "iters", 300)?,
        batch_size: get_usize(flags, "batch", 512)?,
        optimizer: optimizer_choice(flags)?,
        ..TrainerConfig::paper_default(get_u64(flags, "seed", 0)?)
    })
}

fn report_trace(trace: &TrainingTrace) {
    let stride = (trace.records.len() / 10).max(1);
    for (it, rec) in trace.records.iter().enumerate() {
        if it % stride == 0 || it + 1 == trace.records.len() {
            println!(
                "iter {it:>5}: energy {:>12.4}  std {:>9.4}",
                rec.energy, rec.std_dev
            );
        }
    }
    println!(
        "done: final energy {:.6}, best {:.6}, {:.2}s",
        trace.final_energy(),
        trace.best_energy(),
        trace.total_secs
    );
}

fn maybe_exact(flags: &Flags, h: &dyn SparseRowHamiltonian, final_energy: f64) {
    if get(flags, "exact", "false") == "true" {
        let n = h.num_spins();
        if n > 16 {
            eprintln!("(skipping --exact: n = {n} > 16)");
            return;
        }
        let gs = ground_state(h, 400, 1e-12);
        println!(
            "exact λ_min = {:.6}, relative gap = {:.3e}",
            gs.energy,
            (final_energy - gs.energy).abs() / gs.energy.abs()
        );
    }
}

/// Builds the initial wavefunction for `train`: fresh, or warm-started
/// from `--load-model` (spin count must match the problem).
fn init_model<M: Checkpoint + WaveFunction>(
    flags: &Flags,
    n: usize,
    fresh: impl FnOnce() -> M,
) -> Result<M, String> {
    match flags.get("load-model") {
        None => Ok(fresh()),
        Some(path) => {
            let m = M::load(path).map_err(|e| format!("--load-model {path}: {e}"))?;
            if m.num_spins() != n {
                return Err(format!(
                    "--load-model {path} has {} spins but the problem has {n} \
                     (its kind must also match --model)",
                    m.num_spins()
                ));
            }
            println!("warm-starting from {path}");
            Ok(m)
        }
    }
}

/// `vqmc-cli train`.
pub fn train(flags: &Flags) -> Result<(), String> {
    // Multi-process arms: `--rank` means we ARE one rank of a mesh;
    // `--ranks N` (N > 1) means spawn the mesh on this box.
    if flags.contains_key("rank") {
        return train_worker(flags);
    }
    let ranks = get_usize(flags, "ranks", 1)?;
    if ranks > 1 {
        return train_launch(flags, ranks);
    }
    let (problem, n) = Problem::build(flags)?;
    let h = problem.hamiltonian();
    let config = trainer_config(flags)?;
    let model = get(flags, "model", "made");
    let model_seed = get_u64(flags, "seed", 0)?.wrapping_add(1);
    let hidden = get_hidden_list(flags)?;
    let default_sampler = if model == "rbm" { "mcmc" } else { "auto" };
    let sampler_name = get(flags, "sampler", default_sampler);
    println!(
        "training {model} (+{sampler_name}) on {} with {} for {} iterations, batch {}",
        get(flags, "problem", "tim"),
        config.optimizer.label(),
        config.iterations,
        config.batch_size
    );

    let save_precision = match flags.get("save-precision") {
        None => vqmc::tensor::Precision::F64,
        Some(s) => vqmc::tensor::Precision::parse(s)
            .ok_or_else(|| format!("--save-precision wants f64|f32, got {s:?}"))?,
    };

    // Dispatch over (model, sampler): each arm builds its model and
    // sampler, and `train_and_save` runs the rest.
    match (model, sampler_name) {
        ("made", "auto") => {
            let hs = hidden.unwrap_or_else(|| vec![made_hidden_size(n)]);
            let wf = init_model(flags, n, || Made::with_hidden(n, &hs, model_seed))?;
            train_and_save(flags, h, wf, IncrementalAutoSampler::new(), config, save_precision)
        }
        ("made", "mcmc") => {
            let hs = hidden.unwrap_or_else(|| vec![made_hidden_size(n)]);
            let wf = init_model(flags, n, || Made::with_hidden(n, &hs, model_seed))?;
            train_and_save(flags, h, wf, McmcSampler::default(), config, save_precision)
        }
        ("rbm", "mcmc") => {
            let h1 = single_hidden(&hidden, "rbm", rbm_hidden_size(n))?;
            let wf = init_model(flags, n, || Rbm::new(n, h1, model_seed))?;
            let sampler = RbmFastMcmc(McmcSampler::default());
            train_and_save(flags, h, wf, sampler, config, save_precision)
        }
        (m, s) => Err(format!(
            "unsupported combination --model {m} --sampler {s} (made+auto, made+mcmc, rbm+mcmc)"
        )),
    }
}

/// The body every `train` arm shares: run the trainer, report its
/// trace, compare against the exact energy when asked, and write the
/// checkpoint when asked.
fn train_and_save<W, S>(
    flags: &Flags,
    h: &dyn SparseRowHamiltonian,
    wf: W,
    sampler: S,
    config: TrainerConfig,
    save_precision: vqmc::tensor::Precision,
) -> Result<(), String>
where
    W: Checkpoint + WaveFunction,
    S: Sampler<W>,
{
    let mut t = Trainer::new(wf, sampler, config);
    let trace = t.run(h);
    report_trace(&trace);
    maybe_exact(flags, h, trace.final_energy());
    if let Some(path) = flags.get("checkpoint").or_else(|| flags.get("save-model")) {
        t.wavefunction()
            .save_with_precision(path, save_precision)
            .map_err(|e| e.to_string())?;
        println!("checkpoint written to {path}");
    }
    Ok(())
}

/// `train --ranks N`: re-executes this binary N times over reserved
/// loopback ports, forwarding every training flag plus the per-rank
/// mesh coordinates.  Rank 0's child inherits stdout (it is the
/// printing rank); the launcher returns when all ranks have exited and
/// surfaces the first failure.
fn train_launch(flags: &Flags, ranks: usize) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let exe = exe
        .to_str()
        .ok_or("current_exe is not valid UTF-8")?
        .to_string();
    let flags = flags.clone();
    vqmc::dist::run_ranks(&exe, ranks, move |rank, peers| {
        let mut args = vec!["train".to_string()];
        for (k, v) in &flags {
            if k != "ranks" {
                args.push(format!("--{k}"));
                args.push(v.clone());
            }
        }
        args.push("--rank".into());
        args.push(rank.to_string());
        args.push("--world".into());
        args.push(ranks.to_string());
        args.push("--peers".into());
        args.push(peers.join(","));
        args
    })
    .map_err(|e| e.to_string())
}

/// One rank of a multi-process training mesh: replicated sampling,
/// sharded local-energy measurement, socket allgather — bit-identical
/// to the single-process trainer at any world size (the `vqmc-dist`
/// oracle tests assert this; `tests/dist_train.rs` asserts it through
/// this exact code path).  Only the golden made+auto arm is wired: the
/// rank-count-invariance contract is stated for it, and silently
/// accepting other arms would imply a guarantee nobody has tested.
fn train_worker(flags: &Flags) -> Result<(), String> {
    use std::time::Duration;
    use vqmc::dist::{Mesh, MeshConfig};

    let rank = get_usize(flags, "rank", 0)?;
    let world = get_usize(flags, "world", 1)?;
    let peers: Vec<String> = flags
        .get("peers")
        .ok_or("--rank needs --peers a:port,b:port,... (one per rank)")?
        .split(',')
        .map(str::to_string)
        .collect();
    if peers.len() != world {
        return Err(format!(
            "--world {world} but --peers lists {} addresses",
            peers.len()
        ));
    }
    let model = get(flags, "model", "made");
    let sampler_name = get(flags, "sampler", "auto");
    if (model, sampler_name) != ("made", "auto") {
        return Err(format!(
            "multi-process training supports --model made --sampler auto \
             (got {model}+{sampler_name})"
        ));
    }
    let (problem, n) = Problem::build(flags)?;
    let h = problem.hamiltonian();
    let config = trainer_config(flags)?;
    let model_seed = get_u64(flags, "seed", 0)?.wrapping_add(1);
    let hidden =
        get_hidden_list(flags)?.unwrap_or_else(|| vec![made_hidden_size(n)]);
    let save_precision = match flags.get("save-precision") {
        None => vqmc::tensor::Precision::F64,
        Some(s) => vqmc::tensor::Precision::parse(s)
            .ok_or_else(|| format!("--save-precision wants f64|f32, got {s:?}"))?,
    };
    // Quiet warm-start (every rank loads the identical file; only rank 0
    // narrates).
    let wf = match flags.get("load-model") {
        None => Made::with_hidden(n, &hidden, model_seed),
        Some(path) => {
            let m = Made::load(path).map_err(|e| format!("--load-model {path}: {e}"))?;
            if m.num_spins() != n {
                return Err(format!(
                    "--load-model {path} has {} spins but the problem has {n}",
                    m.num_spins()
                ));
            }
            if rank == 0 {
                println!("warm-starting from {path}");
            }
            m
        }
    };

    let mut mesh_cfg = MeshConfig::new(rank, peers);
    mesh_cfg.connect_timeout =
        Duration::from_millis(get_u64(flags, "connect-timeout-ms", 10_000)?);
    mesh_cfg.collective_timeout =
        Duration::from_millis(get_u64(flags, "dist-timeout-ms", 30_000)?);
    let mut mesh = Mesh::connect(mesh_cfg).map_err(|e| format!("rank {rank}: {e}"))?;

    if rank == 0 {
        println!(
            "training made (+auto) on {} with {} for {} iterations, batch {} \
             across {world} ranks",
            get(flags, "problem", "tim"),
            config.optimizer.label(),
            config.iterations,
            config.batch_size
        );
    }
    let mut t = Trainer::new(wf, IncrementalAutoSampler::new(), config);
    let trace = t.run_over(h, &mut mesh).map_err(|e| format!("rank {rank}: {e}"))?;
    mesh.shutdown();

    if rank == 0 {
        report_trace(&trace);
        maybe_exact(flags, h, trace.final_energy());
        if let Some(path) = flags.get("checkpoint").or_else(|| flags.get("save-model")) {
            t.into_wavefunction()
                .save_with_precision(path, save_precision)
                .map_err(|e| e.to_string())?;
            println!("checkpoint written to {path}");
        }
    }
    Ok(())
}

/// Draws `count` configurations from a loaded checkpoint through the
/// unified batched sampling layer — the one sampling call `evaluate`
/// and `sample` share, regardless of the model's architecture.
fn sample_checkpoint(model: &AnyModel, count: usize, seed: u64) -> vqmc::sampler::SampleOutput {
    use rand::SeedableRng;
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    BatchSampler::new().sample_stream(model.as_batched_sampling(), count, &mut rng)
}

/// `vqmc-cli evaluate`.
pub fn evaluate(flags: &Flags) -> Result<(), String> {
    let path = flags
        .get("checkpoint")
        .ok_or("evaluate needs --checkpoint <path>")?;
    let (problem, _) = Problem::build(flags)?;
    let h = problem.hamiltonian();
    let batch_size = get_usize(flags, "batch", 1024)?;

    // The file header's kind tag disambiguates the model type.
    let (model, _) = load_any(path).map_err(|e| format!("{path}: {e}"))?;
    if model.num_spins() != h.num_spins() {
        return Err(format!(
            "checkpoint has {} spins but the problem has {}",
            model.num_spins(),
            h.num_spins()
        ));
    }
    // Evaluate through the unified batched sampling layer: exact AUTO
    // for checkpointed MADE (normalised), MCMC fallback for RBM —
    // the dispatch lives in the sampler, not here.
    let out = sample_checkpoint(&model, batch_size, get_u64(flags, "seed", 0)?);
    let wf = model.as_wavefunction();
    let mut eval = |b: &SpinBatch| wf.log_psi(b);
    let local = vqmc::hamiltonian::local_energies(
        h,
        &out.batch,
        &out.log_psi,
        &mut eval,
        Default::default(),
    );
    let stats = EnergyStats::from_local_energies(&local);
    println!(
        "energy = {:.6} ± {:.6} (batch {batch_size}), best sample {:.6}",
        stats.mean,
        stats.std_dev / (batch_size as f64).sqrt(),
        stats.min
    );
    if h.num_spins() <= 14 && get(flags, "exact", "false") == "true" {
        let gs = ground_state(h, 400, 1e-12);
        println!(
            "exact λ_min = {:.6}; fidelity = {:.4}",
            gs.energy,
            fidelity(wf, &gs.vector)
        );
    }
    Ok(())
}

/// `vqmc-cli sample`.
pub fn sample(flags: &Flags) -> Result<(), String> {
    let path = flags
        .get("checkpoint")
        .ok_or("sample needs --checkpoint <path>")?;
    let count = get_usize(flags, "count", 16)?;
    let (model, _) = load_any(path).map_err(|e| format!("{path}: {e}"))?;
    let out = sample_checkpoint(&model, count, get_u64(flags, "seed", 0)?);
    let (batch, log_psi) = (out.batch, out.log_psi);
    for s in 0..batch.batch_size() {
        let bits: String = batch
            .sample(s)
            .iter()
            .map(|&b| if b == 1 { '1' } else { '0' })
            .collect();
        println!("{bits}  logψ = {:.4}", log_psi[s]);
    }
    Ok(())
}

/// `vqmc-cli serve` — load a checkpoint and serve it over TCP with
/// dynamic request batching until a client sends `Shutdown` (or the
/// process is killed).
pub fn serve(flags: &Flags) -> Result<(), String> {
    use std::sync::Arc;
    use std::time::Duration;

    let path = flags
        .get("checkpoint")
        .ok_or("serve needs --checkpoint <path>")?;
    let (model, ckpt_precision) = load_any(path).map_err(|e| format!("{path}: {e}"))?;
    let n = model.num_spins();

    // Execution precision: defaults to the checkpoint's own storage
    // precision, overridable with --precision.
    let precision = match flags.get("precision") {
        None => ckpt_precision,
        Some(s) => vqmc::tensor::Precision::parse(s)
            .ok_or_else(|| format!("--precision wants f64|f32, got {s:?}"))?,
    };

    // The hamiltonian (for LocalEnergy requests) is built over the
    // model's own spin count — there is no --n here by design.
    let instance_seed = get_u64(flags, "instance-seed", 2021)?;
    let hamiltonian: Option<Arc<dyn SparseRowHamiltonian>> = match get(flags, "problem", "tim") {
        "none" => None,
        "tim" => Some(Arc::new(TransverseFieldIsing::random(n, instance_seed))),
        "sk" => Some(Arc::new(TransverseFieldIsing::sherrington_kirkpatrick(
            n,
            0.7,
            instance_seed,
        ))),
        "maxcut" => Some(Arc::new(MaxCut::random(n, instance_seed))),
        other => return Err(format!("unknown problem {other:?} (tim|sk|maxcut|none)")),
    };

    let addr = match (flags.get("addr"), flags.get("port")) {
        (Some(_), Some(_)) => return Err("give --addr or --port, not both".into()),
        (Some(a), None) => a.clone(),
        (None, Some(p)) => format!("127.0.0.1:{p}"),
        (None, None) => "127.0.0.1:0".to_string(),
    };
    // Engine replicas follow the kernel thread-pool convention: an
    // explicit flag wins, then VQMC_THREADS, then 1.
    let default_workers = std::env::var("VQMC_THREADS")
        .ok()
        .and_then(|s| s.parse::<usize>().ok())
        .filter(|&w| w >= 1)
        .unwrap_or(1);
    let shed_threshold = match flags.get("shed-threshold") {
        None => 0.75,
        Some(s) => s
            .parse::<f64>()
            .ok()
            .filter(|t| (0.0..=1.0).contains(t))
            .ok_or_else(|| format!("--shed-threshold wants a fraction in [0, 1], got {s:?}"))?,
    };
    let config = ServeConfig {
        addr,
        batcher: BatcherConfig {
            max_batch: get_usize(flags, "max-batch", 64)?,
            max_wait: Duration::from_micros(get_u64(flags, "max-wait-us", 200)?),
            queue_cap: get_usize(flags, "queue-cap", 1024)?,
        },
        workers: get_usize(flags, "workers", default_workers)?,
        request_timeout: Duration::from_millis(get_u64(flags, "timeout-ms", 2000)?),
        base_seed: get_u64(flags, "seed", 0)?,
        precision,
        event_loops: get_usize(flags, "event-loops", 1)?,
        shed_threshold,
        ..ServeConfig::default()
    };
    let max_batch = config.batcher.max_batch;
    let workers = config.workers;

    let server = Server::start(model, hamiltonian, config).map_err(|e| e.to_string())?;
    println!(
        "serving {} ({} spins, max_batch {max_batch}, {workers} worker(s), precision {}) — listening on {}",
        path,
        n,
        precision.as_str(),
        server.local_addr()
    );
    use std::io::Write;
    std::io::stdout().flush().ok();
    server.join();
    println!("server drained and stopped");
    Ok(())
}

/// `vqmc-cli baselines`.
pub fn baselines(flags: &Flags) -> Result<(), String> {
    let n = get_usize(flags, "n", 30)?;
    let instance_seed = get_u64(flags, "instance-seed", 2021)?;
    let seed = get_u64(flags, "seed", 0)?;
    let mc = MaxCut::random(n, instance_seed);
    let graph = mc.graph();
    println!("Max-Cut instance: n = {n}, |E| = {}", graph.num_edges());
    use rand::SeedableRng;
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let (_, rc) = random_cut(graph, 1, &mut rng);
    println!("random cut            : {rc}");
    let gw = goemans_williamson(graph, 100, &mut rng);
    println!(
        "Goemans-Williamson    : {} (SDP bound {:.2})",
        gw.cut, gw.sdp_value
    );
    let bm = BurerMonteiro::default().solve(graph, &mut rng);
    let (mut x, _) = vqmc::baselines::hyperplane_round(graph, &bm.v, 100, &mut rng);
    let bm_cut = local_search_1opt(graph, &mut x);
    println!("Burer-Monteiro + 1opt : {bm_cut}");
    if n <= 22 {
        let (_, opt) = brute_force(graph);
        println!("exact optimum         : {opt}");
    }
    Ok(())
}

/// `vqmc-cli scaling`.
pub fn scaling(flags: &Flags) -> Result<(), String> {
    let n = get_usize(flags, "n", 128)?;
    let mbs = get_usize(flags, "mbs", 16)?;
    let iters = get_usize(flags, "iters", 10)?;
    let hidden = made_hidden_size(n);
    let h = TransverseFieldIsing::random(n, 2021);
    println!("weak scaling: TIM n = {n}, mbs = {mbs}, {iters} iterations\n");
    println!("config    L   modelled s/iter   energy");
    for topo in Topology::paper_configurations() {
        let label = topo.label();
        let l = topo.num_devices();
        let cluster = Cluster::new(topo, DeviceSpec::v100());
        let wf = Made::new(n, hidden, 1);
        let config = DistributedConfig {
            iterations: iters,
            minibatch_per_device: mbs,
            optimizer: OptimizerChoice::paper_default(),
            local_energy: Default::default(),
            seed: 9,
            cost_hidden: hidden,
            cost_offdiag: n,
        };
        let mut t = DistributedTrainer::new(cluster, wf, IncrementalAutoSampler::new(), config);
        let trace = t.run(&h);
        println!(
            "{label:>6} {l:>4}   {:>15.4}   {:>10.4}",
            t.elapsed_modelled() / iters as f64,
            trace.final_energy()
        );
    }
    Ok(())
}
