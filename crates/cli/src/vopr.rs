//! `clocksync vopr …` — drive the deterministic fuzzer.
//!
//! Three subcommands, all deterministic given their flags:
//!
//! * `vopr run --seed S [--count K]` — check seeds `S..S+K` of every
//!   family ([`clocksync_vopr::sweep`]); on the first oracle failure,
//!   shrink it to a minimal reproducer when it is a scenario's and hand
//!   that back for the caller to write next to a replay command;
//! * `vopr replay --file F` — re-run a saved scenario JSON (a corpus
//!   file or a failure reproducer);
//! * `vopr corpus [--dir D] [--budget N] [--seed S]` — replay every
//!   committed corpus scenario, run every seed in `seeds.txt`, then seeds
//!   `S..S+N` of every family — the CI entry point.
//!
//! The functions here are the testable core; `main.rs` only parses flags
//! and writes files.

use std::fs;
use std::path::Path;

use clocksync_vopr::{
    generate, run_scenario, shrink, sweep, with_quiet_panics, Checked, Failure, Family, RunReport,
    Scenario,
};

/// What one fuzz session (`vopr run`) produced.
#[derive(Debug)]
pub struct FuzzSession {
    /// Human-readable report lines.
    pub lines: Vec<String>,
    /// Concatenated deterministic journals of every executed scenario.
    pub journal_jsonl: String,
    /// The first failure, when a seed failed.
    pub failure: Option<Failure>,
    /// The shrunk minimal reproducer, when that failure is a scenario's.
    pub reproducer: Option<Scenario>,
}

fn describe(report: &RunReport) -> String {
    match &report.failure {
        None => format!(
            "pass ({} steps, {} probes applied, {} dropped, {} skipped)",
            report.steps, report.probes_applied, report.probes_dropped, report.probes_skipped
        ),
        Some(f) => f.to_string(),
    }
}

fn describe_checked(checked: &Checked) -> String {
    match (&checked.failure, &checked.run) {
        (Some(f), _) => f.to_string(),
        (None, Some((_, report))) => format!(
            "{} seed {}: {}",
            checked.family.name(),
            checked.seed,
            describe(report)
        ),
        (None, None) => format!("{} seed {}: pass", checked.family.name(), checked.seed),
    }
}

/// One line per family: the seeds a whole sweep checked of it and how many
/// of `failed` are its.
fn tallies(seeds: usize, failed: &[Failure]) -> Vec<String> {
    Family::ALL
        .iter()
        .map(|&family| {
            let n = failed.iter().filter(|f| f.family == family).count();
            format!("{}: {seeds} seeds, {n} failures", family.name())
        })
        .collect()
}

/// Checks seeds `base_seed..base_seed + count` of every family. Stops at
/// the first failure and, when it is a scenario's, shrinks it with
/// `shrink_budget` extra runs. Panics inside targets are contained and
/// silenced.
pub fn fuzz(base_seed: u64, count: usize, shrink_budget: usize) -> FuzzSession {
    with_quiet_panics(|| {
        let mut session = FuzzSession {
            lines: Vec::new(),
            journal_jsonl: String::new(),
            failure: None,
            reproducer: None,
        };
        for checked in sweep(base_seed, count) {
            session.lines.push(describe_checked(&checked));
            if let Some((_, report)) = &checked.run {
                session.journal_jsonl.push_str(&report.journal.to_jsonl());
            }
            if checked.failure.is_some() {
                if let Some((scenario, _)) = checked.run {
                    let (shrunk, stats) = shrink(scenario, shrink_budget);
                    session.lines.push(format!(
                        "shrunk {} -> {} events in {} runs",
                        stats.from_events, stats.to_events, stats.runs
                    ));
                    session.reproducer = Some(shrunk);
                }
                session.failure = checked.failure;
                return session;
            }
        }
        session.lines.extend(tallies(count, &[]));
        session
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
    /// Scenario files, pinned seeds and family seeds checked.
    pub ran: usize,
    /// How many failed an oracle.
    pub failures: usize,
}

/// Replays every `*.json` scenario in `dir` (sorted by file name), runs
/// every seed listed in `dir/seeds.txt` (one generator seed per line, `#`
/// comments), then checks seeds `base_seed..base_seed + budget` of every
/// family ([`clocksync_vopr::sweep`]).
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
        let mut failures = 0usize;
        for file in &files {
            let text =
                fs::read_to_string(file).map_err(|e| format!("reading {}: {e}", file.display()))?;
            let scenario =
                Scenario::from_json_str(&text).map_err(|e| format!("{}: {e}", file.display()))?;
            let report = run_scenario(&scenario);
            failures += usize::from(!report.passed());
            lines.push(format!("{}: {}", file.display(), describe(&report)));
        }
        for &seed in &seeds {
            if let Some(failure) = run_scenario(&generate(seed)).failure {
                failures += 1;
                lines.push(failure.to_string());
            }
        }
        let failed: Vec<Failure> = sweep(base_seed, budget).filter_map(|c| c.failure).collect();
        lines.extend(failed.iter().map(|f| f.to_string()));
        lines.extend(tallies(budget, &failed));
        failures += failed.len();
        lines.push(format!(
            "corpus: {} scenario files, {} pinned seeds, {budget} seeds from {base_seed} of \
             each of {} families — {failures} failures",
            files.len(),
            seeds.len(),
            Family::ALL.len(),
        ));
        Ok(CorpusReport {
            lines,
            ran: files.len() + seeds.len() + budget * Family::ALL.len(),
            failures,
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fuzz_is_deterministic_and_green_on_the_fixed_build() {
        let a = fuzz(500, 3, 50);
        let b = fuzz(500, 3, 50);
        assert_eq!(a.journal_jsonl, b.journal_jsonl);
        assert_eq!(a.lines, b.lines);
        assert!(a.failure.is_none(), "lines: {:?}", a.lines);
        assert!(a.reproducer.is_none());
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
        // One file, one pinned seed, and two seeds of each of four families.
        assert_eq!(report.ran, 10, "{:?}", report.lines);
        assert_eq!(report.failures, 0, "{:?}", report.lines);
        fs::write(dir.join("broken.json"), "{").unwrap();
        assert!(corpus(&dir, 0, 0).is_err());
        fs::remove_dir_all(&dir).unwrap();
    }
}
