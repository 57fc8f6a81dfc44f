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
