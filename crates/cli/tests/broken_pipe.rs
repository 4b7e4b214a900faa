//! A reader that closes the pipe early is not an error. `clocksync
//! explain` on a 192-node ring prints far more than a pipe buffer holds;
//! closing its stdout after the first line must end the run with exit 0
//! and no panic.

use std::io::{BufRead, BufReader};
use std::process::{Command, Stdio};

#[test]
fn explain_into_a_pipe_closed_after_one_line_exits_quietly() {
    let bin = env!("CARGO_BIN_EXE_clocksync");
    let run = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("broken-pipe-ring192.json");
    let simulate = Command::new(bin)
        .args([
            "simulate",
            "--topology",
            "ring",
            "--n",
            "192",
            "--seed",
            "3",
            "--out",
        ])
        .arg(&run)
        .stderr(Stdio::null())
        .status()
        .expect("simulate runs");
    assert!(simulate.success());

    let mut explain = Command::new(bin)
        .arg("explain")
        .arg("--in")
        .arg(&run)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("explain starts");
    let mut stdout = BufReader::new(explain.stdout.take().expect("piped stdout"));
    let mut first = String::new();
    stdout.read_line(&mut first).expect("one line");
    assert!(first.starts_with("precision: "), "first line {first:?}");
    drop(stdout);

    let output = explain.wait_with_output().expect("explain exits");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(output.status.success(), "{}: {stderr}", output.status);
    assert!(!stderr.contains("panicked"), "{stderr}");
    std::fs::remove_file(&run).expect("run file removed");
}
