//! End-to-end test of `semandaq watch`: tail a growing CSV, see each
//! appended violation reported from the delta alone, exit after the
//! idle window.

use std::io::Write;
use std::path::PathBuf;
use std::process::Command;

fn tmpdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("semandaq-watch-{name}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn watch_reports_appended_violations_without_rescans() {
    let dir = tmpdir("grow");
    let csv = dir.join("grow.csv");
    std::fs::write(&csv, "cc,zip,street\n44,EH8,Crichton\n01,07974,Mtn\n").unwrap();
    std::fs::write(dir.join("cfds.txt"), "customer([cc='44', zip] -> [street])\n").unwrap();

    let child = Command::new(env!("CARGO_BIN_EXE_semandaq"))
        .args(["watch", csv.to_str().unwrap()])
        .args(["--cfds", dir.join("cfds.txt").to_str().unwrap()])
        .args(["--table", "customer", "--poll-ms", "20", "--idle-exit", "75"])
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .unwrap();

    // Let the watcher load the base, then grow the file twice — once
    // with a clean row, once with a violating one (and once in two
    // chunks to exercise the partial-line buffer).
    std::thread::sleep(std::time::Duration::from_millis(300));
    let mut f = std::fs::OpenOptions::new().append(true).open(&csv).unwrap();
    f.write_all(b"01,10001,5th\n").unwrap();
    f.flush().unwrap();
    std::thread::sleep(std::time::Duration::from_millis(300));
    f.write_all(b"44,EH8,May").unwrap();
    f.flush().unwrap();
    std::thread::sleep(std::time::Duration::from_millis(150));
    f.write_all(b"field\n").unwrap();
    f.flush().unwrap();
    drop(f);

    let out = child.wait_with_output().unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "stderr: {stderr}\nstdout: {stdout}");
    assert!(stdout.contains("watching"), "got: {stdout}");
    assert!(stdout.contains("2 row(s), 0 violation(s)"), "got: {stdout}");
    // The violating append is reported with its tuple id, from the
    // delta alone.
    assert!(stdout.contains("+1 violation(s)"), "got: {stdout}");
    assert!(stdout.contains("t3:"), "got: {stdout}");
    // Two appended rows; the summary is the last line.
    let summary = stdout.lines().last().unwrap_or_default();
    assert!(summary.starts_with("watch: 2 appended row(s) in "), "got: {stdout}");
    assert!(summary.ends_with(" batch(es)"), "got: {stdout}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn watch_rejects_missing_files_and_shrinkage() {
    let out = Command::new(env!("CARGO_BIN_EXE_semandaq"))
        .args(["watch", "/nonexistent.csv", "--cfds", "/nope.txt"])
        .output()
        .unwrap();
    assert!(!out.status.success());
}
