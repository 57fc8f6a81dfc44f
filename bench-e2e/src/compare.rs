//! `compare A.json B.json`: holds two result files against the bounds
//! in `BENCHMARK.json`, one row per (metric, workload).
//!
//! A is the base (the parent commit), B the change.  A row regresses
//! when B's median is worse than A's by more than the metric's bound.
//! Where either side's run-to-run spread (interquartile range over
//! median, from `run --repeat K`) is wider than the bound the row is
//! *unresolved*, not unchanged — unless every run of B reads better
//! than every run of A.  Any regression, or any record that failed its
//! output checks, makes the command exit non-zero.

use std::collections::BTreeMap;

use crate::json::Json;
use crate::stats::{iqr_share, median};
use crate::{Contract, MetricSpec};

/// `workload → metric → values`, one value per record of the workload.
type Table = BTreeMap<String, BTreeMap<String, Vec<f64>>>;

fn table(doc: &Json) -> Table {
    let mut t = Table::new();
    for rec in doc.get("records").map(Json::as_arr).unwrap_or_default() {
        let Some(workload) = rec.get("workload").and_then(Json::as_str) else {
            continue;
        };
        let row = t.entry(workload.to_string()).or_default();
        for (name, m) in rec.get("metrics").map(Json::fields).unwrap_or_default() {
            if let Some(v) = m.get("value").and_then(Json::as_f64) {
                row.entry(name.clone()).or_default().push(v);
            }
        }
    }
    t
}

fn all_correct(doc: &Json) -> bool {
    doc.get("records")
        .map(Json::as_arr)
        .unwrap_or_default()
        .iter()
        .all(|r| {
            r.get("correct").and_then(Json::as_bool) == Some(true)
                && r.get("failed").and_then(Json::as_f64) == Some(0.0)
        })
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Unresolved,
    Regression,
}

/// The verdict on one (metric, workload) pairing, with B's median as a
/// multiple of A's.
pub fn judge(spec: &MetricSpec, a: &[f64], b: &[f64]) -> (Verdict, f64) {
    let bound = spec.bound.expect("end-to-end metrics carry a bound");
    let (ma, mb) = (median(a), median(b));
    let ratio = mb / ma;
    // How much worse B is, as a share of A, in the metric's direction.
    let worse = if spec.lower_is_better {
        ratio - 1.0
    } else {
        1.0 - ratio
    };
    let spread = [a, b]
        .iter()
        .filter(|v| v.len() >= 2)
        .map(|v| iqr_share(v))
        .fold(0.0, f64::max);
    let b_always_better = a.iter().all(|&x| {
        b.iter()
            .all(|&y| if spec.lower_is_better { y < x } else { y > x })
    });
    let verdict = if spread > bound && !b_always_better {
        Verdict::Unresolved
    } else if worse > bound {
        Verdict::Regression
    } else {
        Verdict::Ok
    };
    (verdict, ratio)
}

/// Compares two result files; `Ok(false)` on a regression.
pub fn compare_files(path_a: &str, path_b: &str, contract: &Contract) -> Result<bool, String> {
    let load = |p: &str| {
        std::fs::read_to_string(p)
            .map_err(|e| format!("{p}: {e}"))
            .and_then(|t| Json::parse(&t).map_err(|e| format!("{p}: {e}")))
    };
    let (doc_a, doc_b) = (load(path_a)?, load(path_b)?);
    let (a, b) = (table(&doc_a), table(&doc_b));
    let commit = |d: &Json| {
        d.get("provenance")
            .and_then(|p| p.get("commit"))
            .and_then(Json::as_str)
            .unwrap_or("unknown")
            .to_string()
    };
    println!(
        "A = {path_a} (commit {})\nB = {path_b} (commit {})",
        commit(&doc_a),
        commit(&doc_b)
    );
    println!(
        "{:<26} {:<18} {:>14} {:>14} {:>9} {:>7}  verdict",
        "workload", "metric", "median A", "median B", "B / A", "bound"
    );
    let mut regressions = 0;
    for workload in &contract.workloads {
        for spec in &contract.end_to_end {
            let values = |t: &Table| {
                t.get(workload)
                    .and_then(|m| m.get(&spec.name))
                    .cloned()
                    .unwrap_or_default()
            };
            let (va, vb) = (values(&a), values(&b));
            if va.is_empty() || vb.is_empty() {
                println!(
                    "{workload:<26} {:<18} missing from {}",
                    spec.name,
                    if va.is_empty() { "A" } else { "B" }
                );
                regressions += 1;
                continue;
            }
            let (verdict, ratio) = judge(spec, &va, &vb);
            regressions += usize::from(verdict == Verdict::Regression);
            println!(
                "{workload:<26} {:<18} {:>14.5} {:>14.5} {:>8.4}x {:>6.0}%  {}",
                spec.name,
                median(&va),
                median(&vb),
                ratio,
                spec.bound.unwrap_or(0.0) * 100.0,
                match verdict {
                    Verdict::Ok => "ok",
                    Verdict::Unresolved => "unresolved (spread over bound)",
                    Verdict::Regression => "REGRESSION",
                },
            );
        }
    }
    let correct = all_correct(&doc_a) && all_correct(&doc_b);
    if !correct {
        println!("a record failed its output checks or had failed operations");
    }
    println!("{regressions} regression(s); B / A is B's median as a multiple of A's");
    Ok(regressions == 0 && correct)
}

/// After `run`: every end-to-end metric of every workload, and for each
/// serving workload the rate it was offered, when that met its latency
/// limit.
pub fn summarise(doc: &Json, contract: &Contract) {
    let t = table(doc);
    println!(
        "{:<26} {}",
        "workload",
        contract
            .end_to_end
            .iter()
            .map(|m| format!("{:>18}", m.name))
            .collect::<String>()
    );
    for workload in &contract.workloads {
        let Some(row) = t.get(workload) else { continue };
        let cells: String = contract
            .end_to_end
            .iter()
            .map(|m| {
                row.get(&m.name)
                    .map_or(format!("{:>18}", "-"), |v| format!("{:>18.5}", median(v)))
            })
            .collect();
        println!("{workload:<26} {cells}");
    }
    for (workload, row) in &t {
        let (Some(ok), Some(rps)) = (row.get("serve.rate_ok"), row.get("serve.offered_rps")) else {
            continue;
        };
        let met = if median(ok) >= 1.0 { median(rps) } else { 0.0 };
        println!(
            "max_rate_ok_rps {workload:<22} {met} (the offered rate, when it met its latency limit)"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(lower: bool, bound: f64) -> MetricSpec {
        MetricSpec {
            name: "m".into(),
            unit: "ms".into(),
            lower_is_better: lower,
            bound: Some(bound),
        }
    }

    #[test]
    fn worse_by_more_than_the_bound_regresses() {
        let lat = spec(true, 0.10);
        assert_eq!(judge(&lat, &[10.0], &[10.9]).0, Verdict::Ok);
        assert_eq!(judge(&lat, &[10.0], &[11.1]).0, Verdict::Regression);
        assert_eq!(judge(&lat, &[10.0], &[5.0]).0, Verdict::Ok);
        let rate = spec(false, 0.05);
        assert_eq!(judge(&rate, &[100.0], &[96.0]).0, Verdict::Ok);
        assert_eq!(judge(&rate, &[100.0], &[94.0]).0, Verdict::Regression);
        assert_eq!(judge(&rate, &[100.0], &[150.0]), (Verdict::Ok, 1.5));
    }

    #[test]
    fn wide_spread_is_unresolved_unless_b_always_wins() {
        let lat = spec(true, 0.05);
        let noisy = [8.0, 10.0, 12.0, 9.0, 11.0];
        assert_eq!(
            judge(&lat, &noisy, &[10.0, 10.5, 9.5, 12.5, 8.5]).0,
            Verdict::Unresolved
        );
        // Every run of B under every run of A: resolved, and better.
        assert_eq!(
            judge(&lat, &noisy, &[4.0, 6.0, 5.0, 7.0, 3.0]).0,
            Verdict::Ok
        );
        // Tight on both sides and worse: a regression.
        assert_eq!(
            judge(&lat, &[10.0, 10.1, 9.9, 10.0], &[11.0, 11.1, 10.9, 11.0]).0,
            Verdict::Regression
        );
    }

    #[test]
    fn tables_gather_values_per_workload_and_metric() {
        let rec = |w: &str, v: f64| {
            Json::obj()
                .set("workload", w)
                .set("correct", true)
                .set("failed", 0usize)
                .set(
                    "metrics",
                    Json::obj().set("op_ms_p50", Json::obj().set("value", v).set("unit", "ms")),
                )
        };
        let doc = Json::obj().set("records", vec![rec("a", 1.0), rec("a", 3.0), rec("b", 2.0)]);
        let t = table(&doc);
        assert_eq!(t["a"]["op_ms_p50"], vec![1.0, 3.0]);
        assert_eq!(t["b"]["op_ms_p50"], vec![2.0]);
        assert!(all_correct(&doc));
        let bad = Json::obj().set(
            "records",
            vec![Json::obj().set("correct", false).set("failed", 0usize)],
        );
        assert!(!all_correct(&bad));
    }
}
