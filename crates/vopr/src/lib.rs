//! VOPR-style deterministic scenario fuzzing for the clocksync pipeline.
//!
//! Named after TigerBeetle's *Viewstamped Operation Replicator*, the idea
//! is simulation testing with teeth: a single `u64` seed deterministically
//! generates a [`Scenario`] — topology churn, adversarial delay schedules
//! that drive `A_max`'s critical cycle, backward clock jumps, drift-rate
//! changes, and fault plans (drop/dup/reorder, link-down windows,
//! crash-stop) — which then executes in lockstep against three targets
//! (full-history reference, windowed sequential service, concurrent
//! sharded service) with an **oracle catalogue** checked after every
//! event. On failure, [`shrink`] delta-debugs the scenario down to a
//! minimal reproducer whose JSON file replays with one CLI command.
//!
//! The contract stack:
//!
//! * **Determinism** — same seed, same run, byte-identical
//!   [`Journal`](clocksync_obs::Journal): all randomness flows through
//!   the in-crate SplitMix64 [`VoprRng`], all quantities are integers,
//!   nothing reads the wall clock.
//! * **Oracles, not examples** — the checks are the paper's theorems
//!   (`ρ̄ = A_max`, estimate soundness, corrected agreement) plus the
//!   repo's engineering invariants (windowed ≡ full history,
//!   concurrent ≡ sequential, monotone tightening, compaction never
//!   loosens, no panics). [`Oracle`] is the catalogue; see [`runner`] for
//!   the scenario oracles and `DESIGN.md` §9 for the paper-lemma mapping.
//! * **Shrinkability by construction** — the runner *skips* inapplicable
//!   events instead of erroring, and keys fault decisions by probe
//!   content rather than RNG stream position, so deleting any event
//!   subset yields another valid scenario with unchanged remaining
//!   behaviour.
//!
//! Five [`Family`]s map a seed to one checked instance: plain scenarios,
//! far-clock scenarios (seeds from [`FAR_SEEDS`], `2^63`, up, whose clocks
//! start up to 10^18 ns apart), Marzullo-fused link instances,
//! bounded-drift workloads and runs of the retrying probe protocol under
//! fault plans. [`sweep`] checks a block of seeds of every
//! family, and every violation is one [`Failure`] naming family, seed and
//! oracle.
//!
//! Drive it from the CLI: `clocksync vopr run --seed 7`,
//! `clocksync vopr replay --file tests/corpus/window0-panic.json`,
//! `clocksync vopr corpus --budget 25`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod drift;
mod gen;
mod marzullo;
mod probe;
mod rng;
pub mod runner;
mod scenario;
mod shrink;
mod sweep;
mod world;

pub use gen::{generate, FAR_SEEDS};
pub use rng::VoprRng;
pub use runner::{run_scenario, with_quiet_panics, RunReport, DOMAIN};
pub use scenario::{Event, Scenario, SCENARIO_VERSION};
pub use shrink::{shrink, shrink_with, ShrinkStats};
pub use sweep::{sweep, Checked, Failure, Family, Oracle};
pub use world::WorldClocks;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[cfg_attr(
        feature = "bug-window0",
        ignore = "bug-window0 plants a real bug; tests/bug_window0.rs asserts the fuzzer finds it"
    )]
    fn a_sweep_of_generated_scenarios_passes_all_oracles() {
        // The tier-1 smoke: a block of consecutive seeds of every family,
        // every oracle green. (The CI corpus step covers a larger budget.)
        if let Some(failure) = with_quiet_panics(|| sweep(1_000, 8).find_map(|c| c.failure)) {
            panic!("{failure}");
        }
    }
}
