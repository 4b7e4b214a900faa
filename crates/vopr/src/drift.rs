//! The drift family: seeded bounded-drift workloads checked for no
//! panics, exact zero-drift degeneracy, and decayed-certificate soundness.
//!
//! Each seed deterministically builds one small truthful scenario
//! (path/ring/complete, uniform delays, 1–3 probe rounds) and a drift
//! magnitude from a fixed menu (including zero), then checks the three
//! parts of the `drift-soundness` oracle:
//!
//! * **no panics** — [`run_with_drift`] and [`run_continuous_resync`]
//!   return `Ok`/typed errors on every input; the historical
//!   `.expect("widened declarations absorb the drift")` and
//!   `.expect("drift preserves view validity")` escapes are demoted to
//!   oracle failures;
//! * **zero-drift degeneracy** — with `max_ppm = 0` the drifted run's
//!   margin is exactly zero and its views, network and outcome are
//!   bit-identical to the plain pipeline's on the same seed;
//! * **soundness** — at the sync point and at sampled later times
//!   (+1 ms, +1 s, +37 s) every pair's true corrected-clock disagreement
//!   stays within the decayed certificate
//!   ([`DriftingOutcome::pair_bound_at`]) plus the reading-error margin,
//!   for the one-shot run and for every round of a continuous resync
//!   with link churn.

use clocksync::{DriftingOutcome, Synchronizer};
use clocksync_model::ProcessorId;
use clocksync_sim::{
    run_continuous_resync, run_with_drift, DriftRun, ResyncConfig, Simulation, Topology,
};
use clocksync_time::{Ext, Nanos, Ratio, RealTime};

use crate::rng::VoprRng;
use crate::runner::guard;

/// Salt separating this family's RNG stream from the scenario
/// generator's, the runner's and the Marzullo family's.
const DRIFT_SALT: u64 = 0x44524946_54505052;

/// Builds and checks the instance of `seed`; the error is the failed
/// check with the instance's parameters.
pub(crate) fn check_seed(seed: u64) -> Result<(), String> {
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
    let ctx = format!("n={n}, probes={probes}, max_ppm={max_ppm}, delays=[{lo}, {hi}]");

    // Oracle: no-panic. The scenario is truthful by construction, so a
    // typed error is as much an oracle failure as a panic would be — but
    // it is a *reported* failure, not a process abort.
    let run = guard("run_with_drift", || run_with_drift(&sim, max_ppm, seed))
        .map_err(|(_, panicked)| format!("{ctx}: {panicked}"))?
        .map_err(|e| format!("{ctx}: run_with_drift failed: {e}"))?;

    // Oracle: zero-drift degeneracy, bit-exact.
    if max_ppm == 0 {
        check_zero_drift_degeneracy(&ctx, &sim, &run, seed)?;
    }

    // Oracle: drift-soundness for the one-shot certificate.
    let cert = run.certificate();
    check_pairs(
        &format!("{ctx}: "),
        n,
        run.sync_time(),
        run.margin,
        |p, q, t| (run.logical_clock_at(p, t) - run.logical_clock_at(q, t)).abs(),
        |p, q, t| cert.pair_bound_at(p, q, t),
    )?;

    // Oracle: drift-soundness for every round of a continuous resync.
    let cfg = ResyncConfig {
        rounds: rng.range_i64(2, 3) as usize,
        period: Nanos::from_millis(rng.range_i64(50, 250)),
        max_ppm,
        churn: rng.chance_ppm(500_000),
    };
    let cont = guard("run_continuous_resync", || {
        run_continuous_resync(&sim, &cfg, seed)
    })
    .map_err(|(_, panicked)| format!("{ctx}: {panicked}"))?
    .map_err(|e| format!("{ctx}: run_continuous_resync failed: {e}"))?;
    for (round, snap) in cont.snapshots.iter().enumerate() {
        check_snapshot(&ctx, round, snap)?;
        check_pairs(
            &format!("{ctx}: round {round}, "),
            n,
            snap.valid_at(),
            cont.margin,
            |p, q, t| cont.true_skew_at(round, p, q, t),
            |p, q, t| snap.pair_bound_at(p, q, t),
        )?;
    }
    Ok(())
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

/// Every pair's true corrected-clock skew against its decayed bound plus
/// the reading-error `margin`, at the sync point `t0` and at sampled later
/// times; `at` prefixes the error.
fn check_pairs(
    at: &str,
    n: usize,
    t0: RealTime,
    margin: Nanos,
    truth: impl Fn(ProcessorId, ProcessorId, RealTime) -> Ratio,
    bound: impl Fn(ProcessorId, ProcessorId, RealTime) -> Ext<Ratio>,
) -> Result<(), String> {
    let allowance = Ext::Finite(Ratio::from(margin));
    for dt in [
        Nanos::ZERO,
        Nanos::from_millis(1),
        Nanos::from_secs(1),
        Nanos::from_secs(37),
    ] {
        let t = t0 + dt;
        for p in 0..n {
            for q in (p + 1)..n {
                let (p, q) = (ProcessorId(p), ProcessorId(q));
                let (truth, bound) = (truth(p, q, t), bound(p, q, t) + allowance);
                if Ext::Finite(truth) > bound {
                    return Err(format!(
                        "{at}pair {p:?}-{q:?} at +{dt}: true skew {truth} exceeds decayed \
                         bound {bound}"
                    ));
                }
            }
        }
    }
    Ok(())
}

/// Structural checks on one round's certificate: per-edge local skews
/// decay monotonically and degenerate exactly at a zero rate.
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
        if snap.rate().is_zero() && skew_later.skew != skew_now.skew {
            return Err(format!(
                "{ctx}: round {round}: zero-rate certificate decayed"
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_thousand_drift_seeds_pass_every_oracle() {
        // The acceptance sweep: ≥ 1000 consecutive seeds covering zero
        // and nonzero drift, one-shot and continuous resync, churn on
        // and off — every oracle green.
        for seed in 0..1_000 {
            assert_eq!(check_seed(seed), Ok(()), "seed {seed}");
        }
    }

    #[test]
    fn the_drift_fuzzer_is_deterministic() {
        for seed in [0, 3, 512, u64::MAX - 7] {
            assert_eq!(check_seed(seed), check_seed(seed));
        }
    }
}
