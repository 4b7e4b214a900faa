//! A seeded fuzzer for the bounded-drift workloads: no panics, exact
//! zero-drift degeneracy, and decayed-certificate soundness.
//!
//! Each seed deterministically builds one small truthful scenario
//! (path/ring/complete, uniform delays, 1–3 probe rounds) and a drift
//! magnitude from a fixed menu (including zero), then checks:
//!
//! * **no-panic** — [`run_with_drift`] and [`run_continuous_resync`]
//!   return `Ok`/typed errors on every input; the historical
//!   `.expect("widened declarations absorb the drift")` and
//!   `.expect("drift preserves view validity")` escapes are demoted to
//!   oracle failures;
//! * **zero-drift-degeneracy** — with `max_ppm = 0` the drifted run's
//!   margin is exactly zero and its views, network and outcome are
//!   bit-identical to the plain pipeline's on the same seed;
//! * **drift-soundness** — at the sync point and at sampled later times
//!   (+1 ms, +1 s, +37 s) every pair's true corrected-clock disagreement
//!   stays within the decayed certificate
//!   ([`DriftingOutcome::pair_bound_at`]) plus the reading-error margin,
//!   for the one-shot run and for every round of a continuous resync
//!   with link churn.

use clocksync::{DriftingOutcome, Synchronizer};
use clocksync_model::ProcessorId;
use clocksync_sim::{
    run_continuous_resync, run_with_drift, ContinuousDriftRun, DriftRun, ResyncConfig, Simulation,
    Topology,
};
use clocksync_time::{Ext, Nanos, Ratio};
use std::panic::{catch_unwind, AssertUnwindSafe};

use crate::rng::VoprRng;
use crate::runner::{panic_message, with_quiet_panics};

/// Salt separating this fuzzer's RNG stream from the scenario
/// generator's, the runner's and the Marzullo fuzzer's.
const DRIFT_SALT: u64 = 0x44524946_54505052;

/// One seed's oracle violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DriftFailure {
    /// The failing seed (reproduce with `clocksync vopr drift --seed S
    /// --seeds 1`).
    pub seed: u64,
    /// Which oracle tripped, with the instance's parameters.
    pub detail: String,
}

/// Runs `count` consecutive seeds from `base_seed`; returns the first
/// failure, or `None` when every seed's oracles held.
pub fn fuzz_drift(base_seed: u64, count: usize) -> Option<DriftFailure> {
    (0..count as u64).find_map(|i| {
        let seed = base_seed.wrapping_add(i);
        check_seed(seed)
            .err()
            .map(|detail| DriftFailure { seed, detail })
    })
}

/// The decay sampling offsets shared by both soundness oracles.
fn sample_offsets() -> [Nanos; 4] {
    [
        Nanos::ZERO,
        Nanos::from_millis(1),
        Nanos::from_secs(1),
        Nanos::from_secs(37),
    ]
}

fn quiet<T>(f: impl FnOnce() -> T) -> Result<T, String> {
    with_quiet_panics(|| catch_unwind(AssertUnwindSafe(f)).map_err(panic_message))
}

fn check_seed(seed: u64) -> Result<(), String> {
    let mut rng = VoprRng::keyed(seed, &[DRIFT_SALT]);
    let n = rng.range_i64(3, 5) as usize;
    let topology = match rng.below(3) {
        0 => Topology::Path(n),
        1 => Topology::Ring(n),
        _ => Topology::Complete(n),
    };
    let lo = Nanos::from_micros(rng.range_i64(20, 200));
    let hi = lo + Nanos::from_micros(rng.range_i64(10, 500));
    let probes = rng.range_i64(1, 3) as usize;
    let spacing = Nanos::from_millis(rng.range_i64(1, 5));
    let topo_seed = rng.next_u64();
    let max_ppm = [0, 50, 200][rng.below(3) as usize];
    let sim = Simulation::builder(n)
        .uniform_links(topology, lo, hi, topo_seed)
        .probes(probes)
        .spacing(spacing)
        .build();
    let ctx =
        format!("seed {seed}: n={n}, probes={probes}, max_ppm={max_ppm}, delays=[{lo}, {hi}]");

    // Oracle: no-panic. The scenario is truthful by construction, so a
    // typed error is as much an oracle failure as a panic would be — but
    // it is a *reported* failure, not a process abort.
    let run = quiet(|| run_with_drift(&sim, max_ppm, seed))
        .map_err(|p| format!("{ctx}: run_with_drift panicked: {p}"))?
        .map_err(|e| format!("{ctx}: run_with_drift failed: {e}"))?;

    // Oracle: zero-drift degeneracy, bit-exact.
    if max_ppm == 0 {
        check_zero_drift_degeneracy(&ctx, &sim, &run, seed)?;
    }

    // Oracle: drift-soundness for the one-shot certificate.
    check_one_shot_soundness(&ctx, &run)?;

    // Oracle: drift-soundness for every round of a continuous resync.
    let cfg = ResyncConfig {
        rounds: rng.range_i64(2, 3) as usize,
        period: Nanos::from_millis(rng.range_i64(50, 250)),
        probes,
        max_ppm,
        churn: rng.chance_ppm(500_000),
    };
    let cont = quiet(|| run_continuous_resync(&sim, &cfg, seed))
        .map_err(|p| format!("{ctx}: run_continuous_resync panicked: {p}"))?
        .map_err(|e| format!("{ctx}: run_continuous_resync failed: {e}"))?;
    check_continuous_soundness(&ctx, n, &cont)
}

fn check_zero_drift_degeneracy(
    ctx: &str,
    sim: &Simulation,
    run: &DriftRun,
    seed: u64,
) -> Result<(), String> {
    if run.margin != Nanos::ZERO {
        return Err(format!("{ctx}: zero drift widened by {}", run.margin));
    }
    if run.network != sim.network() {
        return Err(format!("{ctx}: zero drift changed the network"));
    }
    let base = sim.run(seed);
    if run.drifted_views != *base.execution.views() {
        return Err(format!("{ctx}: zero drift changed the views"));
    }
    let plain = Synchronizer::new(sim.network())
        .synchronize(base.execution.views())
        .map_err(|e| format!("{ctx}: plain pipeline failed: {e}"))?;
    if run.outcome != plain {
        return Err(format!(
            "{ctx}: zero-drift outcome diverged from the plain pipeline"
        ));
    }
    Ok(())
}

fn check_one_shot_soundness(ctx: &str, run: &DriftRun) -> Result<(), String> {
    let cert = run.certificate();
    let allowance = Ext::Finite(Ratio::from(run.margin));
    let n = run.execution.n();
    for dt in sample_offsets() {
        let t = run.sync_time() + dt;
        for p in 0..n {
            for q in (p + 1)..n {
                let (p, q) = (ProcessorId(p), ProcessorId(q));
                let truth = abs(run.logical_clock_at(p, t) - run.logical_clock_at(q, t));
                let bound = cert.pair_bound_at(p, q, t) + allowance;
                if Ext::Finite(truth) > bound {
                    return Err(format!(
                        "{ctx}: pair {p:?}-{q:?} at sync+{dt}: true skew {truth} \
                         exceeds decayed bound {}",
                        fmt_ext(bound)
                    ));
                }
            }
        }
    }
    Ok(())
}

fn check_continuous_soundness(
    ctx: &str,
    n: usize,
    cont: &ContinuousDriftRun,
) -> Result<(), String> {
    let allowance = Ext::Finite(Ratio::from(cont.margin));
    for (round, snap) in cont.snapshots.iter().enumerate() {
        check_snapshot(ctx, round, snap)?;
        for dt in sample_offsets() {
            let t = snap.valid_at() + dt;
            for p in 0..n {
                for q in (p + 1)..n {
                    let (p, q) = (ProcessorId(p), ProcessorId(q));
                    let truth = cont.true_skew_at(round, p, q, t);
                    let bound = snap.pair_bound_at(p, q, t) + allowance;
                    if Ext::Finite(truth) > bound {
                        return Err(format!(
                            "{ctx}: round {round}, pair {p:?}-{q:?} at +{dt}: true \
                             skew {truth} exceeds decayed bound {}",
                            fmt_ext(bound)
                        ));
                    }
                }
            }
        }
    }
    Ok(())
}

/// Structural checks on one round's certificate: per-edge local skews
/// decay monotonically and degenerate exactly at zero rates.
fn check_snapshot(ctx: &str, round: usize, snap: &DriftingOutcome) -> Result<(), String> {
    let t0 = snap.valid_at();
    let later = t0 + Nanos::from_secs(5);
    for skew_now in snap.local_skews_at(t0) {
        let skew_later = snap
            .local_skews_at(later)
            .into_iter()
            .find(|s| s.a == skew_now.a && s.b == skew_now.b)
            .ok_or_else(|| format!("{ctx}: round {round}: edge vanished between queries"))?;
        if skew_later.skew < skew_now.skew {
            return Err(format!(
                "{ctx}: round {round}: edge {:?}-{:?} local skew tightened over time",
                skew_now.a, skew_now.b
            ));
        }
        if snap.rates().iter().all(|r| r.is_zero()) && skew_later.skew != skew_now.skew {
            return Err(format!(
                "{ctx}: round {round}: zero-rate certificate decayed"
            ));
        }
    }
    Ok(())
}

fn abs(r: Ratio) -> Ratio {
    if r < Ratio::ZERO {
        Ratio::ZERO - r
    } else {
        r
    }
}

fn fmt_ext(v: Ext<Ratio>) -> String {
    match v {
        Ext::NegInf => "-inf".into(),
        Ext::PosInf => "+inf".into(),
        Ext::Finite(r) => format!("{r}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_thousand_drift_seeds_pass_every_oracle() {
        // The acceptance sweep: ≥ 1000 consecutive seeds covering zero
        // and nonzero drift, one-shot and continuous resync, churn on
        // and off — every oracle green.
        assert_eq!(fuzz_drift(0, 1_000), None);
    }

    #[test]
    fn the_drift_fuzzer_is_deterministic() {
        for seed in [0, 3, 512, u64::MAX - 7] {
            assert_eq!(check_seed(seed), check_seed(seed));
        }
    }
}
