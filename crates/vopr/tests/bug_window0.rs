//! The fuzzer's acceptance test: rediscover a real, historical bug.
//!
//! PR 6 fixed an out-of-bounds index in `ViewWindow::dominated` when the
//! retention window is zero (`entries[entries.len() - 0]`). The
//! `bug-window0` cargo feature re-introduces exactly that indexing, and
//! this test — compiled only under the feature — asserts the whole
//! pipeline works end to end: the seeded sweep finds the panic from seeds
//! alone, the no-panic oracle attributes it, and the shrinker reduces the
//! scenario to a handful of events whose replay command a human can run.
#![cfg(feature = "bug-window0")]

use clocksync_vopr::{
    run_scenario, shrink, sweep, with_quiet_panics, Event, Family, Oracle, Scenario,
};

#[test]
fn fuzzer_finds_and_shrinks_the_window_zero_panic() {
    let checked = with_quiet_panics(|| {
        sweep(0, 64)
            .find(|c| c.failure.is_some())
            .expect("64 seeds must surface a window=0 scenario that panics")
    });
    let failure = checked.failure.expect("the sweep stopped at a failure");
    assert_eq!(
        failure.family,
        Family::Plain,
        "unexpected family: {failure:?}"
    );
    assert_eq!(
        failure.oracle,
        Oracle::NoPanic,
        "unexpected oracle: {failure:?}"
    );
    let (scenario, _) = checked.run.expect("a scenario family keeps its scenario");
    assert!(
        failure.detail.contains("index out of bounds") || failure.detail.contains("panicked"),
        "detail should carry the panic message, got: {}",
        failure.detail
    );
    assert_eq!(scenario.window, 0, "the planted bug only fires at window 0");

    let (shrunk, stats) = with_quiet_panics(|| shrink(scenario.clone(), 500));
    assert!(
        shrunk.events.len() <= 10,
        "reproducer should be <= 10 events, got {} (from {}):\n{}",
        shrunk.events.len(),
        stats.from_events,
        shrunk.to_json_pretty(),
    );
    assert!(
        shrunk.events.len() < scenario.events.len(),
        "shrinking must make progress ({} -> {})",
        stats.from_events,
        stats.to_events,
    );
    // The minimal reproducer still fails, deterministically, twice.
    let (a, b) = with_quiet_panics(|| (run_scenario(&shrunk), run_scenario(&shrunk)));
    assert!(!a.passed() && !b.passed());
    assert_eq!(a.journal.to_jsonl(), b.journal.to_jsonl());
    // And it survives the JSON round trip that the corpus file takes.
    let back = Scenario::from_json_str(&shrunk.to_json_pretty()).unwrap();
    assert_eq!(back, shrunk);

    // Regeneration hook for the committed artifact (deterministic, so
    // rewriting produces the same bytes unless the generator changed):
    //   VOPR_WRITE_CORPUS=1 cargo test -p clocksync-vopr \
    //     --features bug-window0 --test bug_window0
    if std::env::var_os("VOPR_WRITE_CORPUS").is_some() {
        let path = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../tests/corpus/window0-panic.json"
        );
        std::fs::write(path, shrunk.to_json_pretty()).expect("write corpus reproducer");
        eprintln!("wrote {path}");
    }
}

#[test]
fn committed_reproducer_still_fails_under_the_bug() {
    // The corpus file is the *regression* artifact: under the normal
    // build it must pass (tests/vopr.rs checks that); under the planted
    // bug it must still reproduce the panic.
    let text = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../tests/corpus/window0-panic.json"
    ))
    .expect("committed reproducer exists");
    let scenario = Scenario::from_json_str(&text).expect("committed reproducer parses");
    assert_eq!(scenario.window, 0);
    assert!(
        scenario.events.len() <= 10,
        "committed reproducer should stay minimal"
    );
    assert!(scenario
        .events
        .iter()
        .any(|e| matches!(e, Event::Probe { .. })));
    let report = with_quiet_panics(|| run_scenario(&scenario));
    let failure = report.failure.expect("reproducer must fail under the bug");
    assert_eq!(failure.oracle, Oracle::NoPanic);
}
