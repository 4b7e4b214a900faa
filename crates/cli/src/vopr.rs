//! `clocksync vopr …` — drive the deterministic scenario fuzzer.
//!
//! Three subcommands, all deterministic given their flags:
//!
//! * `vopr run --seed S [--count K]` — generate-and-run `K` consecutive
//!   seeds; on the first oracle failure, shrink to a minimal reproducer
//!   and hand it back for the caller to write next to a replay command;
//! * `vopr replay --file F` — re-run a saved scenario JSON (a corpus
//!   file or a failure reproducer);
//! * `vopr corpus [--dir D] [--budget N]` — replay every committed
//!   corpus scenario, run every seed in `seeds.txt`, then `N` freshly
//!   generated seeds and `N` of the far-clock family — the CI smoke entry
//!   point.
//!
//! The functions here are the testable core; `main.rs` only parses flags
//! and writes files.

use std::fs;
use std::path::Path;

use clocksync_vopr::{
    generate, run_scenario, shrink, with_quiet_panics, RunReport, Scenario, FAR_SEEDS,
};

/// What one fuzz session (`vopr run`) produced.
#[derive(Debug)]
pub struct FuzzSession {
    /// Human-readable report lines.
    pub lines: Vec<String>,
    /// Concatenated deterministic journals of every executed run.
    pub journal_jsonl: String,
    /// The shrunk minimal reproducer, when a seed failed.
    pub reproducer: Option<Scenario>,
}

fn describe(report: &RunReport) -> String {
    match &report.failure {
        None => format!(
            "pass ({} steps, {} probes applied, {} dropped, {} skipped)",
            report.steps, report.probes_applied, report.probes_dropped, report.probes_skipped
        ),
        Some(f) => format!(
            "FAIL at step {}: oracle `{}` — {}",
            f.step, f.oracle, f.detail
        ),
    }
}

/// Runs `count` generated scenarios from `base_seed` (consecutive seeds).
/// Stops at the first failure and shrinks it with `shrink_budget` extra
/// runs. Panics inside scenario targets are contained and silenced.
pub fn fuzz(base_seed: u64, count: usize, shrink_budget: usize) -> FuzzSession {
    with_quiet_panics(|| {
        let mut lines = Vec::new();
        let mut journal_jsonl = String::new();
        for i in 0..count as u64 {
            let seed = base_seed.wrapping_add(i);
            let scenario = generate(seed);
            let report = run_scenario(&scenario);
            journal_jsonl.push_str(&report.journal.to_jsonl());
            lines.push(format!("seed {seed}: {}", describe(&report)));
            if !report.passed() {
                let (shrunk, stats) = shrink(scenario, shrink_budget);
                lines.push(format!(
                    "shrunk {} -> {} events in {} runs",
                    stats.from_events, stats.to_events, stats.runs
                ));
                return FuzzSession {
                    lines,
                    journal_jsonl,
                    reproducer: Some(shrunk),
                };
            }
        }
        lines.push(format!("{count} scenarios, all oracles green"));
        FuzzSession {
            lines,
            journal_jsonl,
            reproducer: None,
        }
    })
}

/// Replays one scenario; returns report lines, the run's journal (JSONL)
/// and whether the run failed.
pub fn replay(scenario: &Scenario) -> (Vec<String>, String, bool) {
    let report = with_quiet_panics(|| run_scenario(scenario));
    let lines = vec![format!(
        "scenario (seed {}, n {}, window {}): {}",
        scenario.seed,
        scenario.n,
        scenario.window,
        describe(&report)
    )];
    (lines, report.journal.to_jsonl(), !report.passed())
}

/// What a corpus sweep did.
#[derive(Debug)]
pub struct CorpusReport {
    /// Human-readable report lines.
    pub lines: Vec<String>,
    /// Scenarios and seeds executed.
    pub ran: usize,
    /// How many failed an oracle.
    pub failures: usize,
}

/// Replays every `*.json` scenario in `dir` (sorted by file name), runs
/// every seed listed in `dir/seeds.txt` (one per line, `#` comments),
/// then `budget` freshly generated seeds starting at `base_seed` and
/// `budget` more from the far-clock family, starting at
/// [`FAR_SEEDS`]` + base_seed`.
///
/// # Errors
///
/// Returns an error for an unreadable directory or a corpus file that
/// fails to parse — corpus artifacts are commitments, not suggestions.
pub fn corpus(dir: &Path, budget: usize, base_seed: u64) -> Result<CorpusReport, String> {
    let mut files: Vec<_> = fs::read_dir(dir)
        .map_err(|e| format!("reading corpus dir {}: {e}", dir.display()))?
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .collect();
    files.sort();

    let mut seeds: Vec<u64> = Vec::new();
    let seeds_path = dir.join("seeds.txt");
    if seeds_path.exists() {
        let text = fs::read_to_string(&seeds_path)
            .map_err(|e| format!("reading {}: {e}", seeds_path.display()))?;
        for (lineno, line) in text.lines().enumerate() {
            let line = line.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            let seed: u64 = line.parse().map_err(|_| {
                format!(
                    "{}:{}: not a seed: `{line}`",
                    seeds_path.display(),
                    lineno + 1
                )
            })?;
            seeds.push(seed);
        }
    }

    with_quiet_panics(|| {
        let mut lines = Vec::new();
        let mut ran = 0usize;
        let mut failures = 0usize;
        for file in &files {
            let text =
                fs::read_to_string(file).map_err(|e| format!("reading {}: {e}", file.display()))?;
            let scenario =
                Scenario::from_json_str(&text).map_err(|e| format!("{}: {e}", file.display()))?;
            let report = run_scenario(&scenario);
            ran += 1;
            if !report.passed() {
                failures += 1;
            }
            lines.push(format!("{}: {}", file.display(), describe(&report)));
        }
        for &seed in &seeds {
            let report = run_scenario(&generate(seed));
            ran += 1;
            if !report.passed() {
                failures += 1;
                lines.push(format!("seed {seed}: {}", describe(&report)));
            }
        }
        let fresh = |base: u64| (0..budget as u64).map(move |i| base.wrapping_add(i));
        for seed in fresh(base_seed).chain(fresh(FAR_SEEDS.wrapping_add(base_seed))) {
            let report = run_scenario(&generate(seed));
            ran += 1;
            if !report.passed() {
                failures += 1;
                lines.push(format!("seed {seed}: {}", describe(&report)));
            }
        }
        lines.push(format!(
            "corpus: {} scenario files, {} pinned seeds, {} fresh seeds, {} far-clock seeds — {} failures",
            files.len(),
            seeds.len(),
            budget,
            budget,
            failures
        ));
        Ok(CorpusReport {
            lines,
            ran,
            failures,
        })
    })
}

/// Runs the estimator-level Marzullo fusion fuzzer over `seeds`
/// consecutive seeds from `base_seed` (see
/// [`clocksync_vopr::fuzz_marzullo`]). Returns report lines and whether
/// any seed failed — the deep-sweep companion to the scenario runner's
/// integrated `marzullo-honest-subset` oracle.
pub fn marzullo(base_seed: u64, seeds: usize) -> (Vec<String>, bool) {
    match clocksync_vopr::fuzz_marzullo(base_seed, seeds) {
        None => (
            vec![format!(
                "marzullo: {seeds} seeds from {base_seed}, honest-subset oracle green"
            )],
            false,
        ),
        Some(failure) => (
            vec![format!(
                "marzullo: FAIL at seed {} — {}",
                failure.seed, failure.detail
            )],
            true,
        ),
    }
}

/// Runs the bounded-drift workload fuzzer over `seeds` consecutive seeds
/// from `base_seed` (see [`clocksync_vopr::fuzz_drift`]): no panics,
/// bit-exact zero-drift degeneracy, and decayed-certificate soundness
/// for one-shot and continuous-resync runs. Returns report lines and
/// whether any seed failed.
pub fn drift(base_seed: u64, seeds: usize) -> (Vec<String>, bool) {
    match clocksync_vopr::fuzz_drift(base_seed, seeds) {
        None => (
            vec![format!(
                "drift: {seeds} seeds from {base_seed}, soundness and degeneracy oracles green"
            )],
            false,
        ),
        Some(failure) => (
            vec![format!(
                "drift: FAIL at seed {} — {}",
                failure.seed, failure.detail
            )],
            true,
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn drift_sweep_is_green_and_deterministic() {
        let (lines, failed) = drift(0, 200);
        assert!(!failed, "{lines:?}");
        assert_eq!(drift(0, 200), (lines, failed));
    }

    #[test]
    fn marzullo_sweep_is_green_and_deterministic() {
        let (lines, failed) = marzullo(0, 200);
        assert!(!failed, "{lines:?}");
        assert_eq!(marzullo(0, 200), (lines, failed));
    }

    #[test]
    fn fuzz_is_deterministic_and_green_on_the_fixed_build() {
        let a = fuzz(500, 3, 50);
        let b = fuzz(500, 3, 50);
        assert_eq!(a.journal_jsonl, b.journal_jsonl);
        assert_eq!(a.lines, b.lines);
        assert!(a.reproducer.is_none(), "lines: {:?}", a.lines);
    }

    #[test]
    fn replay_round_trips_a_generated_scenario() {
        let scenario = generate(77);
        let (lines, journal, failed) = replay(&scenario);
        assert!(!failed, "{lines:?}");
        assert!(!journal.is_empty());
        let (_, journal2, _) = replay(&scenario);
        assert_eq!(journal, journal2);
    }

    #[test]
    fn corpus_runs_committed_files_and_seeds() {
        let dir = std::env::temp_dir().join(format!("vopr-corpus-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        fs::write(dir.join("a.json"), generate(3).to_json_pretty()).unwrap();
        fs::write(dir.join("seeds.txt"), "# pinned\n11\n").unwrap();
        let report = corpus(&dir, 2, 900).unwrap();
        // One file, one pinned seed, two fresh seeds and two far-clock ones.
        assert_eq!(report.ran, 6, "{:?}", report.lines);
        assert_eq!(report.failures, 0, "{:?}", report.lines);
        fs::write(dir.join("broken.json"), "{").unwrap();
        assert!(corpus(&dir, 0, 0).is_err());
        fs::remove_dir_all(&dir).unwrap();
    }
}
