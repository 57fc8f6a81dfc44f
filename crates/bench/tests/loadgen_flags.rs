//! `vqmc-loadgen` refuses flags it does not read, naming the flag,
//! instead of running with the flag silently ignored.

use std::process::Command;

#[test]
fn a_misspelt_flag_fails_before_connecting() {
    let out = Command::new(env!("CARGO_BIN_EXE_vqmc-loadgen"))
        .args(["--addr", "127.0.0.1:1", "--conections", "5", "--requests", "0"])
        .args(["--stats", "true"])
        .output()
        .expect("spawn vqmc-loadgen");
    assert!(!out.status.success(), "an unknown flag must fail the run");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("unknown flag --conections"),
        "stderr should name the flag:\n{stderr}"
    );
    assert!(
        !stderr.contains("connect to server"),
        "the run must stop before connecting:\n{stderr}"
    );
}
