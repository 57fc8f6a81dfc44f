//! The CLI refuses flags its subcommand does not read, naming the flag,
//! instead of running with the flag silently ignored.

use std::process::Command;

#[test]
fn serve_rejects_a_flag_it_does_not_read() {
    // `runtime` names no serve flag.
    let flag = format!("--{}", "runtime");
    let out = Command::new(env!("CARGO_BIN_EXE_vqmc-cli"))
        .args(["serve", "--checkpoint", "/nonexistent", &flag, "threads"])
        .output()
        .expect("spawn vqmc-cli");
    assert!(!out.status.success(), "an unknown flag must fail the run");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains(&format!("unknown flag {flag} for serve")),
        "stderr should name the flag:\n{stderr}"
    );
}

/// Runs `vqmc-cli train` on a tiny problem with `extra` flags and
/// returns its stderr, asserting the run failed.
fn train_fails(extra: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_vqmc-cli"))
        .args(["train", "--n", "4", "--iters", "1"])
        .args(extra)
        .output()
        .expect("spawn vqmc-cli");
    assert!(!out.status.success(), "train {extra:?} must fail the run");
    String::from_utf8_lossy(&out.stderr).into_owned()
}

#[test]
fn train_rejects_an_unsupported_model() {
    let stderr = train_fails(&["--model", "nade"]);
    assert!(stderr.contains("--model nade"), "stderr should name the model:\n{stderr}");
}

#[test]
fn train_rejects_an_unsupported_sampler() {
    let stderr = train_fails(&["--model", "rbm", "--sampler", "gibbs"]);
    assert!(stderr.contains("--sampler gibbs"), "stderr should name the sampler:\n{stderr}");
}
