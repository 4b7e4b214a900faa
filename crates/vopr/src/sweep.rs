//! The registry of what vopr checks, and the one seeded loop over it.
//!
//! Four [`Family`]s each map a seed to one checked instance:
//!
//! * **plain** — the scenario [`generate`]`(seed)`, run against the three
//!   engines with the scenario oracles after every event (`runner.rs`);
//! * **far-clock** — the scenario `generate(FAR_SEEDS + seed)`, whose
//!   clocks start up to 10^18 ns apart;
//! * **marzullo** — one fused link instance under a fault overlay,
//!   checked by `marzullo-honest-subset` (`marzullo.rs`);
//! * **drift** — one bounded-drift workload, checked by `drift-soundness`
//!   (`drift.rs`).
//!
//! [`sweep`] checks seeds `base..base + count` of every family, family by
//! family in [`Family::ALL`] order. Every violation is one [`Failure`]
//! naming its family, seed and [`Oracle`], so `clocksync vopr run --seed S
//! --count 1` reproduces it.

use std::fmt;

use crate::gen::{generate, FAR_SEEDS};
use crate::runner::{run_scenario, RunReport};
use crate::scenario::Scenario;
use crate::{drift, marzullo};

/// The oracle catalogue (`DESIGN.md` §9.3). [`Oracle::name`] is the name
/// journals and failure reports carry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Oracle {
    /// No target panics, ever.
    NoPanic,
    /// `ρ̄(x̄) = A_max` at the computed corrections.
    RhoEqualsAmax,
    /// The true shifts lie inside every local and closed `m̃ls` bound.
    EstimateSoundness,
    /// Corrected clocks of one component agree within its precision.
    CorrectedAgreement,
    /// Closure entries never loosen while evidence only accumulates.
    MonotoneTightening,
    /// An explicit compaction leaves the reference closure unchanged.
    CompactionNeverLoosens,
    /// The windowed service answers as the full-history reference does.
    WindowedEqualsFull,
    /// The concurrent service answers as the sequential one does.
    ConcurrentEqualsSequential,
    /// A cache-free clone of the reference computes the same outcome.
    WarmEqualsCold,
    /// The sparse and dense integer closure kernels agree.
    SparseEqualsDense,
    /// Quorum fusion stays sound and as tight as the honest subsets allow.
    MarzulloHonestSubset,
    /// Decayed drift certificates stay sound and degenerate at zero drift.
    DriftSoundness,
}

impl Oracle {
    /// The oracle's name, as journals and failure reports carry it.
    pub fn name(self) -> &'static str {
        match self {
            Oracle::NoPanic => "no-panic",
            Oracle::RhoEqualsAmax => "rho-equals-amax",
            Oracle::EstimateSoundness => "estimate-soundness",
            Oracle::CorrectedAgreement => "corrected-agreement",
            Oracle::MonotoneTightening => "monotone-tightening",
            Oracle::CompactionNeverLoosens => "compaction-never-loosens",
            Oracle::WindowedEqualsFull => "windowed-equals-full",
            Oracle::ConcurrentEqualsSequential => "concurrent-equals-sequential",
            Oracle::WarmEqualsCold => "warm-equals-cold",
            Oracle::SparseEqualsDense => "sparse-equals-dense",
            Oracle::MarzulloHonestSubset => "marzullo-honest-subset",
            Oracle::DriftSoundness => "drift-soundness",
        }
    }
}

/// A family of checked instances, each the image of one seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    /// Generated scenarios: `generate(seed)`.
    Plain,
    /// Generated scenarios with clocks up to 10^18 ns apart:
    /// `generate(FAR_SEEDS + seed)`.
    FarClock,
    /// Marzullo-fused link instances under fault overlays.
    Marzullo,
    /// Bounded-drift one-shot and continuous-resync workloads.
    Drift,
}

impl Family {
    /// Every family, in the order a [`sweep`] checks them.
    pub const ALL: [Family; 4] = [
        Family::Plain,
        Family::FarClock,
        Family::Marzullo,
        Family::Drift,
    ];

    /// The family's name in reports.
    pub fn name(self) -> &'static str {
        match self {
            Family::Plain => "plain",
            Family::FarClock => "far-clock",
            Family::Marzullo => "marzullo",
            Family::Drift => "drift",
        }
    }

    /// The scenario family and family seed that generate the scenario of
    /// generator seed `scenario_seed`: the inverse of the scenario
    /// families' seed maps.
    pub(crate) fn of_scenario(scenario_seed: u64) -> (Family, u64) {
        match scenario_seed.checked_sub(FAR_SEEDS) {
            Some(seed) => (Family::FarClock, seed),
            None => (Family::Plain, scenario_seed),
        }
    }

    /// Checks the family's instance for `seed`. A panic in a scenario's
    /// targets or in a drift run becomes a failure; it still reaches the
    /// panic hook, which callers silence with [`crate::with_quiet_panics`].
    pub fn check(self, seed: u64) -> Checked {
        let (oracle, result) = match self {
            Family::Plain => return Checked::scenario(self, seed, generate(seed)),
            Family::FarClock => {
                return Checked::scenario(self, seed, generate(FAR_SEEDS.wrapping_add(seed)))
            }
            Family::Marzullo => (Oracle::MarzulloHonestSubset, marzullo::check_seed(seed)),
            Family::Drift => (Oracle::DriftSoundness, drift::check_seed(seed)),
        };
        Checked {
            family: self,
            seed,
            run: None,
            failure: result.err().map(|detail| Failure {
                family: self,
                seed,
                oracle,
                step: None,
                detail,
            }),
        }
    }
}

/// An oracle violation: where it happened, which oracle, and a
/// deterministic human-readable detail.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Failure {
    /// The family of the failing instance.
    pub family: Family,
    /// Its seed within the family.
    pub seed: u64,
    /// The oracle that tripped.
    pub oracle: Oracle,
    /// The index of the event that tripped it, for a scenario.
    pub step: Option<usize>,
    /// What was expected against what was observed.
    pub detail: String,
}

impl fmt::Display for Failure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} seed {}: FAIL", self.family.name(), self.seed)?;
        if let Some(step) = self.step {
            write!(f, " at step {step}")?;
        }
        write!(f, ": oracle `{}` — {}", self.oracle.name(), self.detail)
    }
}

/// One family's instance for one seed, checked.
#[derive(Debug)]
pub struct Checked {
    /// The family.
    pub family: Family,
    /// The seed within the family.
    pub seed: u64,
    /// The scenario and its run, for the plain and far-clock families.
    pub run: Option<(Scenario, RunReport)>,
    /// The first oracle violation, if any.
    pub failure: Option<Failure>,
}

impl Checked {
    fn scenario(family: Family, seed: u64, scenario: Scenario) -> Checked {
        let report = run_scenario(&scenario);
        Checked {
            family,
            seed,
            failure: report.failure.clone(),
            run: Some((scenario, report)),
        }
    }
}

/// Checks seeds `base..base + count` (wrapping) of every family, family by
/// family in [`Family::ALL`] order, as the iterator is consumed.
pub fn sweep(base: u64, count: usize) -> impl Iterator<Item = Checked> {
    Family::ALL
        .into_iter()
        .flat_map(move |family| (0..count as u64).map(move |i| family.check(base.wrapping_add(i))))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenario_seeds_map_back_to_their_family_seed() {
        for (family, seed) in [
            (Family::Plain, 11),
            (Family::FarClock, 0),
            (Family::FarClock, 7),
        ] {
            let checked = family.check(seed);
            let (scenario, _) = checked.run.expect("a scenario family runs a scenario");
            assert_eq!(Family::of_scenario(scenario.seed), (family, seed));
        }
        assert!(Family::Marzullo.check(0).run.is_none());
    }

    #[test]
    #[cfg_attr(
        feature = "bug-window0",
        ignore = "bug-window0 plants a real bug; tests/bug_window0.rs asserts the sweep finds it"
    )]
    fn a_small_sweep_visits_every_family_and_repeats_itself() {
        let run = || {
            sweep(40, 3)
                .map(|c| {
                    let journal = c.run.map(|(_, report)| report.journal.to_jsonl());
                    (c.family, c.seed, c.failure, journal)
                })
                .collect::<Vec<_>>()
        };
        let visited = run();
        let order: Vec<_> = visited.iter().map(|v| (v.0, v.1)).collect();
        let expected: Vec<_> = Family::ALL
            .iter()
            .flat_map(|&f| (40..43).map(move |s| (f, s)))
            .collect();
        assert_eq!(order, expected);
        for family in Family::ALL {
            let of_family: Vec<_> = visited.iter().filter(|v| v.0 == family).collect();
            assert_eq!(of_family.len(), 3, "{family:?}");
            assert!(of_family.iter().all(|v| v.2.is_none()), "{of_family:?}");
            let scenario = matches!(family, Family::Plain | Family::FarClock);
            assert!(of_family.iter().all(|v| v.3.is_some() == scenario));
        }
        assert_eq!(run(), visited);
        assert_eq!(sweep(0, 0).count(), 0);
    }
}
