//! `vqmc-e2e` — the repository's end-to-end benchmark.
//!
//! ```text
//! vqmc-e2e --workload W --seed N --seconds S --trace 0|1 [--quick]
//! vqmc-e2e run     [--seed N] [--seconds S] [--repeat K] [--only W] [--quick]
//! vqmc-e2e trace   [--seed N] [--seconds S] [--only W] [--quick]
//! vqmc-e2e compare A.json B.json
//! ```
//!
//! The first form runs one workload and prints, as the last line of
//! standard output, the result object `BENCHMARK.json`'s contract asks
//! for.  `run` and `trace` run every workload that way and gather the
//! records into `out/result.json` and `out/trace.json`.  Either way a
//! workload runs in a fresh worker process of this binary: clean
//! allocator and thread-pool state, a peak resident set of its own.  `compare`
//! holds two such files against the bounds in `BENCHMARK.json`.
//!
//! Workloads, metrics, units, directions and bounds are read from
//! `BENCHMARK.json` itself (compiled in), so the program and the
//! contract cannot drift apart.  See `README.md` for what each name
//! means and why each workload exists.

mod alloc;
mod compare;
mod dist;
mod driver;
mod json;
mod micro;
mod record;
mod serve;
mod stats;
mod trace;
mod train;

use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

use json::Json;
use record::{contract_line, record_json, Outcome, Provenance};

#[global_allocator]
static ALLOCATOR: alloc::PageAligned = alloc::PageAligned;

/// The contract this program implements, compiled in.
const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");
/// Energies the default-seed training runs must reproduce.
const REFERENCE_JSON: &str = include_str!("../reference.json");
/// Spans written per workload; a high-rate serving run records more
/// than anyone will read, and the file keeps the first.
pub const SPAN_FILE_LIMIT: usize = 30_000;
/// `--quick` measures for at most this long.
const QUICK_SECONDS: f64 = 0.25;
/// Share of a traced run's `--seconds` spent replaying the workload;
/// the layer microbenchmarks take about as long again.
const TRACED_WORKLOAD_SHARE: f64 = 0.5;

/// Arguments of one workload run.
#[derive(Clone, Debug)]
pub struct RunArgs {
    pub seed: u64,
    pub seconds: f64,
    pub quick: bool,
}

/// Where this program writes: `out/` beside its manifest.
pub fn out_dir() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out"))
}

/// The stored energy of `workload` at `train::REFERENCE_ITER`, when the
/// run is one the reference was taken from (default seed, full shapes).
pub fn reference_energy(workload: &str, args: &RunArgs) -> Option<f64> {
    let reference = Json::parse(REFERENCE_JSON).expect("reference.json parses");
    let seed = reference.get("seed")?.as_f64()? as u64;
    if args.quick || args.seed != seed {
        return None;
    }
    reference.get("energies")?.get(workload)?.as_f64()
}

/// One metric as `BENCHMARK.json` declares it.
#[derive(Clone, Debug)]
pub struct MetricSpec {
    pub name: String,
    pub unit: String,
    pub lower_is_better: bool,
    /// End-to-end metrics only.
    pub bound: Option<f64>,
}

/// `BENCHMARK.json`, parsed.
pub struct Contract {
    pub workloads: Vec<String>,
    pub end_to_end: Vec<MetricSpec>,
    pub per_layer: Vec<MetricSpec>,
    pub run_seconds: f64,
}

impl Contract {
    pub fn load() -> Contract {
        let doc = Json::parse(BENCHMARK_JSON).expect("BENCHMARK.json parses");
        let text = |j: &Json, key: &str| {
            j.get(key)
                .and_then(Json::as_str)
                .expect("string field")
                .to_string()
        };
        let metrics = |key: &str| -> Vec<MetricSpec> {
            doc.get(key)
                .expect("metric list")
                .as_arr()
                .iter()
                .map(|m| MetricSpec {
                    name: text(m, "name"),
                    unit: text(m, "unit"),
                    lower_is_better: text(m, "better") == "lower",
                    bound: m.get("bound").and_then(Json::as_f64),
                })
                .collect()
        };
        Contract {
            workloads: doc
                .get("workloads")
                .expect("workloads")
                .as_arr()
                .iter()
                .map(|w| text(w, "name"))
                .collect(),
            end_to_end: metrics("end_to_end"),
            per_layer: metrics("per_layer"),
            run_seconds: doc
                .get("run_seconds")
                .and_then(Json::as_f64)
                .expect("run_seconds"),
        }
    }
}

enum Workload {
    Train(train::TrainSpec),
    Dist,
    Serve(serve::ServeSpec),
}

impl Workload {
    fn all() -> Vec<(String, Workload)> {
        let mut all: Vec<(String, Workload)> = train::specs()
            .into_iter()
            .map(|s| (s.name.to_string(), Workload::Train(s)))
            .collect();
        all.push((dist::NAME.to_string(), Workload::Dist));
        all.extend(
            serve::specs()
                .into_iter()
                .map(|s| (s.name.to_string(), Workload::Serve(s))),
        );
        all
    }

    fn find(name: &str) -> Result<Workload, String> {
        let mut all = Workload::all();
        match all.iter().position(|(known, _)| known == name) {
            Some(at) => Ok(all.swap_remove(at).1),
            None => {
                let known: Vec<String> = all.into_iter().map(|(n, _)| n).collect();
                Err(format!(
                    "unknown workload {name}; known: {}",
                    known.join(", ")
                ))
            }
        }
    }

    fn precision(&self) -> &'static str {
        match self {
            Workload::Serve(s) => s.precision_label(),
            _ => "f64",
        }
    }

    fn run(&self, args: &RunArgs) -> Outcome {
        match self {
            Workload::Train(s) => train::run(s, args),
            Workload::Dist => dist::run(args),
            Workload::Serve(s) => serve::run(s, args),
        }
    }

    fn run_traced(&self, args: &RunArgs) -> Outcome {
        match self {
            Workload::Train(s) => train::run_traced(s, args),
            Workload::Dist => dist::run_traced(args),
            Workload::Serve(s) => serve::run_traced(s, args),
        }
    }
}

/// A traced run: the workload with spans, then the layer
/// microbenchmarks, then the per-layer list completed — a layer the
/// workload never enters reads 0 there.
fn traced_outcome(workload: &Workload, args: &RunArgs, contract: &Contract) -> Outcome {
    let part = RunArgs {
        seconds: args.seconds * TRACED_WORKLOAD_SHARE,
        ..args.clone()
    };
    let mut o = workload.run_traced(&part);
    micro::run(args, &mut o);
    if let (Some(gflop), Some(step_ms), Some(peak)) = (
        o.value("core.predicted_gflop"),
        o.value("op_ms_p50"),
        o.value("tensor.peak_fma_gflops"),
    ) {
        // Eq. 15's time at the measured peak rate, over the measured step.
        o.metric(
            "core.predicted_over_measured",
            gflop / peak / (step_ms / 1e3),
            "ratio",
            1,
        );
    }
    let unlisted: Vec<&str> = o
        .metrics
        .iter()
        .map(|m| m.name.as_str())
        .filter(|n| n.contains('.') && !contract.per_layer.iter().any(|p| p.name == *n))
        .collect();
    o.check(
        "per_layer_names_listed",
        unlisted.is_empty(),
        unlisted.join(", "),
    );
    for spec in &contract.per_layer {
        if o.value(&spec.name).is_none() {
            o.metric(&spec.name, 0.0, &spec.unit, 0);
        }
    }
    o
}

fn print_outcome(name: &str, o: &Outcome) {
    println!("== {name}");
    for m in &o.metrics {
        println!(
            "  {:<34} {:>16.6} {:<8} n={}",
            m.name, m.value, m.unit, m.samples
        );
    }
    for c in &o.checks {
        println!(
            "  check {:<32} {} {}",
            c.name,
            if c.ok { "ok  " } else { "FAIL" },
            c.detail
        );
    }
    for n in &o.notes {
        println!("  note  {n}");
    }
    println!("  attempted {} failed {}", o.attempted, o.failed);
}

fn record_path(workload: &str, traced: bool) -> PathBuf {
    out_dir().join(format!(
        "{workload}.{}.json",
        if traced { "trace" } else { "run" }
    ))
}

/// A worker: one workload, in this process.
fn single(workload: &str, args: &RunArgs, traced: bool, contract: &Contract) -> Result<(), String> {
    let w = Workload::find(workload)?;
    let provenance = Provenance::collect();
    let mut o = if traced {
        traced_outcome(&w, args, contract)
    } else {
        w.run(args)
    };
    print_outcome(workload, &o);

    let wanted = if traced {
        &contract.per_layer
    } else {
        &contract.end_to_end
    };
    let line = contract_line(&o, wanted)?;
    let mode = if traced { "trace" } else { "run" };
    let mut rec = record_json(&provenance, mode, workload, w.precision(), args, &o);
    if let Some(spans) = o.spans.take() {
        rec.put("spans", spans);
    }
    std::fs::create_dir_all(out_dir())
        .and_then(|()| std::fs::write(record_path(workload, traced), rec.pretty()))
        .map_err(|e| format!("write record: {e}"))?;
    println!("{line}");
    Ok(())
}

/// Set in the environment of a process that is to run one workload
/// itself; without it, the contract's form launches such a worker.
const WORKER_ENV: &str = "VQMC_E2E_WORKER";

/// Runs one workload in a fresh child process of this binary — clean
/// thread-pool state, a peak resident set of its own, and the allocator
/// mode the workload calls for (see `alloc.rs`) — and waits for it.
/// The child inherits standard output, so its last line is ours.
fn launch(workload: &str, args: &RunArgs, traced: bool) -> Result<bool, String> {
    let w = Workload::find(workload)?;
    let exe = std::env::current_exe().map_err(|e| format!("own path: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload, "--seed", &args.seed.to_string()])
        .args([
            "--seconds",
            &args.seconds.to_string(),
            "--trace",
            if traced { "1" } else { "0" },
        ])
        .env(WORKER_ENV, "1")
        .stdin(Stdio::null());
    if args.quick {
        cmd.arg("--quick");
    }
    if matches!(w, Workload::Train(_)) {
        cmd.env(alloc::PAGE_ALIGN_ENV.to_str().expect("ASCII name"), "1");
    }
    let status = cmd
        .status()
        .map_err(|e| format!("spawn worker for {workload}: {e}"))?;
    Ok(status.success())
}

/// `run` / `trace`: every workload, each in a worker process.
fn suite(
    traced: bool,
    args: &RunArgs,
    repeat: usize,
    only: Option<&str>,
    contract: &Contract,
) -> Result<bool, String> {
    let mut records = Vec::new();
    let mut all_ok = true;
    for name in contract
        .workloads
        .iter()
        .filter(|w| only.is_none_or(|o| o == w.as_str()))
    {
        for rep in 0..repeat {
            let _ = std::fs::remove_file(record_path(name, traced));
            let exited_ok = launch(name, args, traced)?;
            let rec = std::fs::read_to_string(record_path(name, traced))
                .map_err(|e| e.to_string())
                .and_then(|t| Json::parse(&t));
            match rec {
                Ok(rec) if exited_ok => {
                    let ok = rec.get("correct").and_then(Json::as_bool) == Some(true)
                        && rec.get("failed").and_then(Json::as_f64) == Some(0.0);
                    all_ok &= ok;
                    records.push(rec);
                }
                _ => {
                    eprintln!("{name} (repeat {rep}): the worker failed and left no usable record");
                    all_ok = false;
                }
            }
        }
    }
    let doc = Json::obj()
        .set("schema", record::SCHEMA)
        .set("provenance", Provenance::collect().to_json())
        .set("mode", if traced { "trace" } else { "run" })
        .set("seed", args.seed)
        .set("records", records);
    let path = out_dir().join(if traced { "trace.json" } else { "result.json" });
    std::fs::write(&path, doc.pretty()).map_err(|e| format!("write {}: {e}", path.display()))?;
    println!("wrote {}", path.display());
    if !traced {
        compare::summarise(&doc, contract);
    }
    Ok(all_ok)
}

struct Cli {
    positional: Vec<String>,
    workload: Option<String>,
    only: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    quick: bool,
    repeat: usize,
}

fn parse_cli(argv: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        positional: Vec::new(),
        workload: None,
        only: None,
        seed: 1,
        seconds: None,
        trace: false,
        quick: false,
        repeat: 1,
    };
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        let number = |flag: &str, v: String| {
            v.parse::<f64>()
                .map_err(|_| format!("{flag}: {v:?} is not a number"))
        };
        match arg.as_str() {
            "--workload" => cli.workload = Some(value(arg)?),
            "--only" => cli.only = Some(value(arg)?),
            "--seed" => {
                let v = value(arg)?;
                cli.seed = v
                    .parse()
                    .map_err(|_| format!("--seed: {v:?} is not a whole number"))?;
            }
            "--seconds" => {
                let s = number(arg, value(arg)?)?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {s} is outside (0, 600]"));
                }
                cli.seconds = Some(s);
            }
            "--repeat" => cli.repeat = (number(arg, value(arg)?)? as usize).clamp(1, 100),
            "--trace" => cli.trace = value(arg)? != "0",
            "--quick" => cli.quick = true,
            flag if flag.starts_with("--") => return Err(format!("unknown flag {flag}")),
            _ => cli.positional.push(arg.clone()),
        }
    }
    Ok(cli)
}

fn real_main() -> Result<bool, String> {
    // Fix the allocator's mode before anything touches the environment.
    alloc::page_aligning();
    // The benchmark is defined at one kernel thread — the plain
    // single-threaded baseline, and the only width that repeats to
    // within a tenth on a shared two-core machine.  The server's
    // workers and the rank threads read the same setting.  Nothing has
    // spawned a thread yet, so the environment is safe to change.
    std::env::set_var("VQMC_THREADS", "1");

    let argv: Vec<String> = std::env::args().skip(1).collect();
    let cli = parse_cli(&argv)?;
    let contract = Contract::load();
    let args = RunArgs {
        seed: cli.seed,
        seconds: if cli.quick {
            QUICK_SECONDS
        } else {
            cli.seconds.unwrap_or(contract.run_seconds)
        },
        quick: cli.quick,
    };
    match (cli.positional.first().map(String::as_str), &cli.workload) {
        (None, Some(workload)) if std::env::var_os(WORKER_ENV).is_some() => {
            single(workload, &args, cli.trace, &contract).map(|()| true)
        }
        (None, Some(workload)) => launch(workload, &args, cli.trace),
        (Some("run"), None) => suite(false, &args, cli.repeat, cli.only.as_deref(), &contract),
        (Some("trace"), None) => suite(true, &args, 1, cli.only.as_deref(), &contract),
        (Some("compare"), None) if cli.positional.len() == 3 => {
            compare::compare_files(&cli.positional[1], &cli.positional[2], &contract)
        }
        _ => Err("usage: vqmc-e2e --workload W --seed N --seconds S --trace 0|1 [--quick]\n       \
                  vqmc-e2e run|trace [--seed N] [--seconds S] [--repeat K] [--only W] [--quick]\n       \
                  vqmc-e2e compare A.json B.json"
            .into()),
    }
}

fn main() -> ExitCode {
    match real_main() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("vqmc-e2e: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contract_lists_every_workload_this_program_runs() {
        let contract = Contract::load();
        let ours: Vec<String> = Workload::all().into_iter().map(|(n, _)| n).collect();
        assert_eq!(contract.workloads, ours);
        assert!(contract
            .end_to_end
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && m.lower_is_better));
        assert!(contract
            .end_to_end
            .iter()
            .all(|m| m.bound.is_some_and(|b| b > 0.0 && b <= 0.25)));
        assert!(contract.per_layer.len() <= 128 && contract.end_to_end.len() <= 16);
    }

    #[test]
    fn reference_applies_to_the_default_seed_at_full_size_only() {
        let full = RunArgs {
            seed: 1,
            seconds: 10.0,
            quick: false,
        };
        assert!(reference_energy("train_tim_n64", &full).is_some());
        assert!(reference_energy(
            "train_tim_n64",
            &RunArgs {
                seed: 2,
                ..full.clone()
            }
        )
        .is_none());
        assert!(reference_energy(
            "train_tim_n64",
            &RunArgs {
                quick: true,
                ..full.clone()
            }
        )
        .is_none());
        assert!(reference_energy("serve_logpsi_n32", &full).is_none());
    }

    #[test]
    fn cli_reads_the_contract_flags() {
        let argv: Vec<String> = "--workload dist_dp_r2 --seed 7 --seconds 2.5 --trace 1"
            .split(' ')
            .map(String::from)
            .collect();
        let cli = parse_cli(&argv).unwrap();
        assert_eq!(cli.workload.as_deref(), Some("dist_dp_r2"));
        assert_eq!(
            (cli.seed, cli.seconds, cli.trace, cli.quick),
            (7, Some(2.5), true, false)
        );
        assert!(parse_cli(&["--seconds".into(), "0".into()]).is_err());
        assert!(parse_cli(&["--bogus".into()]).is_err());
        assert!(parse_cli(&["--seed".into()]).is_err());
    }
}
