//! What one run of one workload produces, and the single record schema
//! every output of this program uses.
//!
//! A record is `{schema, provenance, mode, workload, seed, seconds,
//! precision, correct, attempted, failed, checks, metrics, notes}`;
//! `result.json` and `trace.json` are `{schema, provenance, mode,
//! records: [...]}` of those.  Every metric carries its unit and the
//! number of samples behind it.

use std::process::Command;
use std::time::{SystemTime, UNIX_EPOCH};

use crate::json::Json;
use crate::{MetricSpec, RunArgs};

pub const SCHEMA: &str = "vqmc-e2e/1";

#[derive(Clone, Debug)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: String,
    /// Timings: how many were summarised.  Counts and ratios: 1.
    pub samples: usize,
}

#[derive(Clone, Debug)]
pub struct Check {
    pub name: &'static str,
    pub ok: bool,
    pub detail: String,
}

/// The product of one workload run (traced or not).
#[derive(Debug, Default)]
pub struct Outcome {
    pub metrics: Vec<Metric>,
    pub checks: Vec<Check>,
    /// Operations attempted (iterations or requests) and, of those,
    /// failed, refused or timed out.
    pub attempted: u64,
    pub failed: u64,
    /// Lines for the human reader and the record's `notes`.
    pub notes: Vec<String>,
    /// Spans of a traced run, already rendered.
    pub spans: Option<Json>,
}

impl Outcome {
    pub fn metric(&mut self, name: &str, value: f64, unit: &str, samples: usize) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit: unit.to_string(),
            samples,
        });
    }

    pub fn check(&mut self, name: &'static str, ok: bool, detail: impl Into<String>) {
        self.checks.push(Check {
            name,
            ok,
            detail: detail.into(),
        });
    }

    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    pub fn value(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// Correct means every output check held; failed operations are
    /// counted separately and do not by themselves make a run incorrect.
    pub fn correct(&self) -> bool {
        self.checks.iter().all(|c| c.ok)
    }
}

/// Where and how a number was measured.
#[derive(Clone, Debug)]
pub struct Provenance {
    pub commit: String,
    pub dirty: Option<bool>,
    pub nproc: usize,
    pub threads: usize,
    pub simd_arm: String,
    pub rustc: String,
    pub started_at: String,
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

impl Provenance {
    /// Reads the machine and, where the checkout is a git repository,
    /// the commit.  The benchmark driver's checkout is not one: there
    /// `commit` reads "unknown" and `dirty` null.
    pub fn collect() -> Provenance {
        let root = concat!(env!("CARGO_MANIFEST_DIR"), "/..");
        let commit = command_line("git", &["-C", root, "rev-parse", "HEAD"]);
        let dirty = commit.as_ref().and_then(|_| {
            command_line(
                "git",
                &["-C", root, "status", "--porcelain", "--untracked-files=no"],
            )
            .map(|s| !s.is_empty())
        });
        let secs = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map_or(0, |d| d.as_secs());
        Provenance {
            commit: commit.unwrap_or_else(|| "unknown".into()),
            dirty,
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            threads: vqmc_tensor::par::num_threads(),
            simd_arm: format!("{:?}", vqmc_tensor::simd::backend()),
            rustc: command_line("rustc", &["--version"]).unwrap_or_else(|| "unknown".into()),
            started_at: utc_timestamp(secs),
        }
    }

    pub fn to_json(&self) -> Json {
        Json::obj()
            .set("commit", self.commit.as_str())
            .set("dirty", self.dirty.map_or(Json::Null, Json::Bool))
            .set("nproc", self.nproc)
            .set("threads", self.threads)
            .set("simd_arm", self.simd_arm.as_str())
            .set("rustc", self.rustc.as_str())
            .set("started_at", self.started_at.as_str())
    }
}

/// `YYYY-MM-DDThh:mm:ssZ` from seconds since the Unix epoch (the civil
/// calendar arithmetic of Howard Hinnant's `days_from_civil`, inverted).
fn utc_timestamp(secs: u64) -> String {
    let days = (secs / 86_400) as i64;
    let rem = secs % 86_400;
    let z = days + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1_460 + doe / 36_524 - doe / 146_096) / 365;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let day = doy - (153 * mp + 2) / 5 + 1;
    let month = if mp < 10 { mp + 3 } else { mp - 9 };
    let year = yoe + era * 400 + i64::from(month <= 2);
    format!(
        "{year:04}-{month:02}-{day:02}T{:02}:{:02}:{:02}Z",
        rem / 3_600,
        rem % 3_600 / 60,
        rem % 60
    )
}

/// Renders one run as a record of the single schema.
pub fn record_json(
    provenance: &Provenance,
    mode: &str,
    workload: &str,
    precision: &str,
    args: &RunArgs,
    outcome: &Outcome,
) -> Json {
    let mut metrics = Json::obj();
    for m in &outcome.metrics {
        metrics.put(
            &m.name,
            Json::obj()
                .set("value", m.value)
                .set("unit", m.unit.as_str())
                .set("samples", m.samples),
        );
    }
    let checks: Vec<Json> = outcome
        .checks
        .iter()
        .map(|c| {
            Json::obj()
                .set("name", c.name)
                .set("ok", c.ok)
                .set("detail", c.detail.as_str())
        })
        .collect();
    let notes: Vec<Json> = outcome
        .notes
        .iter()
        .map(|n| Json::from(n.as_str()))
        .collect();
    Json::obj()
        .set("schema", SCHEMA)
        .set("provenance", provenance.to_json())
        .set("mode", mode)
        .set("workload", workload)
        .set("seed", args.seed)
        .set("seconds", args.seconds)
        .set("precision", precision)
        .set("correct", outcome.correct())
        .set("attempted", outcome.attempted)
        .set("failed", outcome.failed)
        .set("checks", checks)
        .set("metrics", metrics)
        .set("notes", notes)
}

/// The contract's last stdout line: exactly `correct`, `attempted`,
/// `failed` and `metrics` (`name → {value, unit}`), holding the metrics
/// of `wanted`, in that order, under the units the contract declares.
pub fn contract_line(outcome: &Outcome, wanted: &[MetricSpec]) -> Result<String, String> {
    let mut metrics = Json::obj();
    for spec in wanted {
        let value = outcome
            .value(&spec.name)
            .ok_or_else(|| format!("metric {} was not produced", spec.name))?;
        if !value.is_finite() {
            return Err(format!("metric {} is not finite", spec.name));
        }
        metrics.put(
            &spec.name,
            Json::obj()
                .set("value", value)
                .set("unit", spec.unit.as_str()),
        );
    }
    Ok(Json::obj()
        .set("correct", outcome.correct())
        .set("attempted", outcome.attempted.max(1))
        .set("failed", outcome.failed)
        .set("metrics", metrics)
        .compact())
}

/// Peak resident set of this process so far, in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timestamps_follow_the_civil_calendar() {
        assert_eq!(utc_timestamp(0), "1970-01-01T00:00:00Z");
        assert_eq!(utc_timestamp(951_782_400), "2000-02-29T00:00:00Z");
        assert_eq!(utc_timestamp(1_790_615_045), "2026-09-28T17:04:05Z");
    }

    #[test]
    fn contract_line_has_exactly_the_four_keys() {
        let spec = |name: &str| MetricSpec {
            name: name.into(),
            unit: "s".into(),
            lower_is_better: true,
            bound: None,
        };
        let mut o = Outcome {
            attempted: 10,
            ..Outcome::default()
        };
        o.metric("setup_s", 0.125, "s", 5);
        o.metric("extra", 1.0, "count", 1);
        o.check("finite", true, "");
        let line = contract_line(&o, &[spec("setup_s")]).unwrap();
        assert_eq!(
            line,
            r#"{"correct":true,"attempted":10,"failed":0,"metrics":{"setup_s":{"value":0.125,"unit":"s"}}}"#
        );
        assert!(contract_line(&o, &[spec("missing")]).is_err());
        o.check("bits", false, "differ");
        assert!(contract_line(&o, &[spec("setup_s")])
            .unwrap()
            .starts_with(r#"{"correct":false"#));
    }

    #[test]
    fn peak_rss_reads_a_positive_number() {
        assert!(peak_rss_mb() > 0.0);
    }
}
