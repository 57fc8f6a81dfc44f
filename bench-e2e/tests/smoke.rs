//! One `--quick` pass of the whole program: every workload runs, every
//! output check holds, every metric `BENCHMARK.json` names is produced,
//! and `compare` accepts a result against itself.

#[path = "../src/json.rs"]
#[allow(dead_code)]
mod json;

use std::path::PathBuf;
use std::process::Command;

use json::Json;

fn exe() -> Command {
    Command::new(env!("CARGO_BIN_EXE_vqmc-e2e"))
}

fn out(file: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(file)
}

fn names(contract: &Json, list: &str) -> Vec<String> {
    contract
        .get(list)
        .expect(list)
        .as_arr()
        .iter()
        .map(|m| {
            m.get("name")
                .and_then(Json::as_str)
                .expect("name")
                .to_string()
        })
        .collect()
}

/// Runs `mode --quick`, then checks the file it wrote: one correct
/// record per workload, each with every metric of `list`.
fn suite(mode: &str, file: &str, list: &str) -> PathBuf {
    let status = exe()
        .args([mode, "--quick", "--seed", "5"])
        .status()
        .expect("spawn vqmc-e2e");
    assert!(
        status.success(),
        "`vqmc-e2e {mode} --quick` exited with {status}"
    );
    let contract = Json::parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json");
    let path = out(file);
    let doc =
        Json::parse(&std::fs::read_to_string(&path).expect("output file")).expect("output parses");
    let records = doc.get("records").expect("records").as_arr();
    let workloads = names(&contract, "workloads");
    assert_eq!(records.len(), workloads.len());
    for (rec, workload) in records.iter().zip(&workloads) {
        assert_eq!(
            rec.get("workload").and_then(Json::as_str),
            Some(workload.as_str())
        );
        assert_eq!(
            rec.get("correct").and_then(Json::as_bool),
            Some(true),
            "{workload}: {}",
            rec.get("checks").expect("checks").pretty()
        );
        assert_eq!(
            rec.get("failed").and_then(Json::as_f64),
            Some(0.0),
            "{workload}"
        );
        for key in [
            "commit",
            "dirty",
            "nproc",
            "threads",
            "simd_arm",
            "rustc",
            "started_at",
        ] {
            assert!(
                rec.get("provenance").and_then(|p| p.get(key)).is_some(),
                "{workload}: provenance.{key}"
            );
        }
        let metrics = rec.get("metrics").expect("metrics");
        for name in names(&contract, list) {
            let m = metrics
                .get(&name)
                .unwrap_or_else(|| panic!("{workload}: no {name}"));
            assert!(
                m.get("value")
                    .and_then(Json::as_f64)
                    .is_some_and(f64::is_finite),
                "{workload}: {name}"
            );
            assert!(
                m.get("samples").is_some() && m.get("unit").is_some(),
                "{workload}: {name}"
            );
        }
    }
    path
}

// One test, so the two suites and `compare` never share the machine or
// the `out/` directory with each other.
#[test]
fn quick_run_trace_and_compare() {
    let result = suite("run", "result.json", "end_to_end");
    let compared = exe()
        .arg("compare")
        .arg(&result)
        .arg(&result)
        .status()
        .expect("spawn compare");
    assert!(
        compared.success(),
        "a result must not regress against itself"
    );

    let trace = suite("trace", "trace.json", "per_layer");
    let doc =
        Json::parse(&std::fs::read_to_string(trace).expect("trace.json")).expect("trace parses");
    for rec in doc.get("records").expect("records").as_arr() {
        let spans = rec
            .get("spans")
            .expect("a traced record carries its spans")
            .as_arr();
        assert!(!spans.is_empty(), "{:?}: no spans", rec.get("workload"));
        for key in ["name", "start_ns", "end_ns", "parent", "trace_id"] {
            assert!(spans[0].get(key).is_some(), "span without {key}");
        }
    }

    // A workload the program does not know, and a malformed flag, fail
    // without printing a result.
    for bad in [
        &[
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ][..],
        &["--seconds", "x"][..],
    ] {
        let out = exe().args(bad).output().expect("spawn");
        assert!(!out.status.success() && out.stdout.is_empty(), "{bad:?}");
    }
}
