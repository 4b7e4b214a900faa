//! Every flag given to `clocksync` must be one the subcommand reads with
//! the other flags given. A misspelt or inapplicable flag exits 1 with an
//! error naming it, before the command writes a file, binds a socket or
//! runs anything; `--help` or `-h`, before or after a subcommand, prints
//! the usage and exits 0.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn clocksync(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_clocksync"))
        .args(args)
        .output()
        .expect("clocksync runs")
}

fn ring24() -> String {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/corpus/golden/ring24.json")
        .to_str()
        .expect("a UTF-8 path")
        .to_string()
}

fn scratch(name: &str) -> PathBuf {
    Path::new(env!("CARGO_TARGET_TMPDIR")).join(name)
}

/// Asserts the run exited 1 and printed nothing but an error naming
/// every part of `names`.
fn assert_rejected(out: &Output, names: &[&str]) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(out.stdout.is_empty(), "{out:?}");
    for name in names {
        assert!(stderr.contains(name), "{name} not named in: {stderr}");
    }
}

#[test]
fn a_misspelt_flag_is_named() {
    let out = clocksync(&["sync", "--in", &ring24(), "--jsn", "true"]);
    assert_rejected(&out, &["--jsn", "`sync`"]);
}

#[test]
fn a_boolean_flag_rejects_values_it_does_not_spell() {
    let out = clocksync(&["sync", "--in", &ring24(), "--json", "True"]);
    assert_rejected(&out, &["--json", "True"]);
}

#[test]
fn a_flag_of_a_removed_subcommand_is_named() {
    let out = clocksync(&["vopr", "run", "--seed", "0", "--seeds", "3"]);
    assert_rejected(&out, &["--seeds", "`vopr run`"]);
}

#[test]
fn a_flag_the_chosen_model_does_not_read_stops_simulate_before_it_writes() {
    let path = scratch("unread-alpha.json");
    let _ = std::fs::remove_file(&path);
    let out = clocksync(&[
        "simulate",
        "--topology",
        "ring",
        "--n",
        "6",
        "--rows",
        "9",
        "--alpha",
        "0",
        "--out",
        path.to_str().expect("a UTF-8 path"),
    ]);
    // `--alpha` belongs to the heavy-tail model and `--rows` to the grid;
    // the first one is named.
    assert_rejected(&out, &["--alpha", "`simulate`"]);
    assert!(!path.exists(), "simulate wrote {}", path.display());
}

#[test]
fn serve_rejects_in_with_listen_before_it_binds() {
    let out = clocksync(&[
        "serve",
        "--in",
        "missing.jsonl",
        "--listen",
        "127.0.0.1:0",
        "--max-conns",
        "0",
    ]);
    assert_rejected(&out, &["--in", "`serve`"]);
    assert!(!String::from_utf8_lossy(&out.stderr).contains("listening on"));
}

#[test]
fn help_flags_print_the_usage_and_succeed() {
    // Before any subcommand, and in flag position after one of each
    // family: whatever else is given, nothing runs, binds or soaks.
    for args in [
        &["--help"][..],
        &["-h"],
        &["simulate", "--topology", "ring", "-h"],
        &["sync", "--help"],
        &["explain", "--in", "missing.json", "-h"],
        &["serve", "--listen", "127.0.0.1:0", "--help"],
        &["soak", "--messages", "1000000000", "--help"],
        &["trace", "summarize", "-h"],
        &["vopr", "run", "--count", "1000000", "--help"],
        &["vopr", "replay", "-h"],
        &["vopr", "corpus", "--help"],
    ] {
        let out = clocksync(args);
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(out.status.success(), "{args:?}: {out:?}");
        assert!(stdout.starts_with("usage:"), "{args:?}: {stdout}");
        assert!(stdout.contains("--extra-per-mille"), "{args:?}: {stdout}");
        assert!(out.stderr.is_empty(), "{args:?}: {out:?}");
    }
}
