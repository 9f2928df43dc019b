//! `experiments … | head` must end quietly: a reader that leaves early
//! closes the pipe under the tables, and the run exits 0 with nothing
//! on stderr instead of panicking in a print.

use std::process::{Command, Stdio};

#[test]
fn a_closed_stdout_ends_the_run_quietly() {
    let mut child = Command::new(env!("CARGO_BIN_EXE_experiments"))
        .arg("static-analysis")
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    // The experiment builds and analyses its suites before its first
    // write: the pipe is gone by then.
    drop(child.stdout.take());
    let out = child.wait_with_output().unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!stderr.contains("panicked"), "stderr: {stderr}");
    assert!(stderr.is_empty(), "stderr: {stderr}");
    assert!(out.status.success(), "{:?}, stderr: {stderr}", out.status);
}
