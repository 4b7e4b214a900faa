//! Golden outputs: `clocksync sync`, `sync --json true` and `explain` on
//! committed run files must print exactly the bytes committed next to
//! them in `tests/corpus/golden/`. The runs cover the dense kernel (ring
//! 24, complete 12), clocks 10^18 ns apart (ring 24) and Johnson (ring
//! 192, built here with CI's explain-smoke `simulate` call; its `explain`
//! output is megabytes, so only `sync` is pinned there).

use std::path::{Path, PathBuf};
use std::process::Command;

fn golden_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/corpus/golden")
}

fn run(args: &[&str], input: &Path) -> Vec<u8> {
    let out = Command::new(env!("CARGO_BIN_EXE_clocksync"))
        .args(args)
        .arg("--in")
        .arg(input)
        .output()
        .expect("clocksync runs");
    assert!(
        out.status.success(),
        "{args:?} on {}: {out:?}",
        input.display()
    );
    out.stdout
}

/// Compares each command's output on `input` with the golden file
/// `<name>.<suffix>`.
fn assert_golden(name: &str, input: &Path, commands: &[(&[&str], &str)]) {
    for &(args, suffix) in commands {
        let path = golden_dir().join(format!("{name}.{suffix}"));
        let expected = std::fs::read(&path).expect("golden file");
        let actual = run(args, input);
        assert!(
            actual == expected,
            "{args:?} on {name} differs from {}:\n{}",
            path.display(),
            String::from_utf8_lossy(&actual)
        );
    }
}

const SYNC: (&[&str], &str) = (&["sync"], "sync.txt");
const SYNC_JSON: (&[&str], &str) = (&["sync", "--json", "true"], "sync.json");
const EXPLAIN: (&[&str], &str) = (&["explain"], "explain.txt");

#[test]
fn committed_runs_print_their_golden_outputs() {
    for name in ["ring24", "complete12", "far-ring24"] {
        let input = golden_dir().join(format!("{name}.json"));
        assert_golden(name, &input, &[SYNC, SYNC_JSON, EXPLAIN]);
    }
}

#[test]
fn the_johnson_ring_prints_its_golden_sync_outputs() {
    let input = Path::new(env!("CARGO_TARGET_TMPDIR")).join("golden-ring192.json");
    let simulate = Command::new(env!("CARGO_BIN_EXE_clocksync"))
        .args([
            "simulate",
            "--topology",
            "ring",
            "--n",
            "192",
            "--seed",
            "3",
        ])
        .arg("--out")
        .arg(&input)
        .output()
        .expect("simulate runs");
    assert!(simulate.status.success(), "{simulate:?}");
    assert_golden("ring192", &input, &[SYNC, SYNC_JSON]);
}
