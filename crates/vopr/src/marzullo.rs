//! The Marzullo family: estimator-level instances of quorum fusion.
//!
//! The scenario runner's `marzullo-honest-subset` oracle exercises fusion
//! against whatever evidence a full scenario happens to accumulate; this
//! family attacks the estimator directly, so thousands of seeds run in
//! milliseconds and a sweep can afford many of them. Each seed
//! deterministically builds one link instance:
//!
//! * a hidden true offset `Δ` and a declared delay range (occasionally
//!   one-sided/unbounded above);
//! * honest samples in both directions whose estimated delays are exactly
//!   `d + Δ` forward and `d − Δ` backward for true delays `d` inside the
//!   declared range;
//! * a ppm fault overlay: every sample except a pinned honest witness is
//!   independently corrupted with seed-chosen probability to an arbitrary
//!   estimate, modelling faulty sources that lie freely.
//!
//! The oracle, `marzullo-honest-subset`, then asserts, with `max_faulty`
//! set to the number of
//! corruptions that actually occurred: the quorum is reached, the fused
//! interval contains `Δ`, the fused `m̃ls` pair never excludes `Δ`, at
//! most the faulty sources are discarded, the fused interval equals the
//! hull of the honest quorum-sized subset intersections (exhaustive
//! enumeration — the "never looser than any honest subset allows"
//! criterion in its exact form), and a fault-free instance at `f = 0`
//! degenerates bit-for-bit to the Lemma 6.2 bounds estimator.

use clocksync::{DelayRange, LinkAssumption};
use clocksync_model::{LinkEvidence, MsgSample};
use clocksync_time::{ClockTime, Ext, Nanos};

use crate::rng::VoprRng;
use crate::runner::honest_subset_hull;

/// Salt separating this family's RNG stream from the scenario
/// generator's and the runner's.
const MARZULLO_SALT: u64 = 0x4D41525A554C4C4F;

fn sample(send: i64, est: i64) -> MsgSample {
    MsgSample {
        send_clock: ClockTime::from_nanos(send),
        recv_clock: ClockTime::from_nanos(send + est),
    }
}

/// Builds and checks the instance of `seed`; the error is the failed
/// assertion with the instance's parameters.
pub(crate) fn check_seed(seed: u64) -> Result<(), String> {
    let mut rng = VoprRng::keyed(seed, &[MARZULLO_SALT]);
    let delta = rng.range_i64(-1_000_000, 1_000_000);
    let lo = rng.range_i64(0, 10_000);
    let hi = lo + rng.range_i64(0, 100_000);
    let range = if rng.chance_ppm(150_000) {
        DelayRange::at_least(Nanos::new(lo))
    } else {
        DelayRange::new(Nanos::new(lo), Nanos::new(hi))
    };
    let n_fwd = rng.range_i64(1, 5) as usize;
    let n_bwd = rng.range_i64(1, 5) as usize;
    let fault_ppm = rng.below(400_000) as u32;

    // True delays honest samples experienced; estimates mix in Δ with the
    // sign of the direction. Sample 0 forward is the pinned honest
    // witness, so at least one vote is always truthful and the quorum is
    // nonempty by construction.
    let mut faults = 0usize;
    let mut gen_dir = |count: usize, sign: i64, pin_first: bool, rng: &mut VoprRng| {
        (0..count)
            .map(|i| {
                let send = i as i64 * 1_000;
                let honest_hi = match range.upper() {
                    Ext::Finite(ub) => ub.as_nanos(),
                    _ => lo + 1_000_000,
                };
                let d = rng.range_i64(lo, honest_hi.max(lo));
                let est = if !(pin_first && i == 0) && rng.chance_ppm(fault_ppm) {
                    faults += 1;
                    rng.range_i64(-10_000_000, 10_000_000)
                } else {
                    d + sign * delta
                };
                sample(send, est)
            })
            .collect::<Vec<MsgSample>>()
    };
    let fwd = gen_dir(n_fwd, 1, true, &mut rng);
    let bwd = gen_dir(n_bwd, -1, false, &mut rng);
    let k = fwd.len() + bwd.len();
    let ev = LinkEvidence::from_samples(&fwd, &bwd);
    let ctx = format!(
        "Δ={delta}, range=[{lo}, {:?}], k={k}, faults={faults}",
        range.upper()
    );

    let fused = LinkAssumption::marzullo_quorum(range, range, faults);
    let stats = fused
        .fusion_stats(&ev)
        .ok_or_else(|| format!("{ctx}: fusion_stats was None"))?;
    if !stats.quorum_reached {
        return Err(format!(
            "{ctx}: quorum of {} not reached despite {} honest votes",
            stats.quorum,
            k - faults
        ));
    }
    let d = Ext::Finite(i128::from(delta));
    if stats.fused_lo > d || d > stats.fused_hi {
        return Err(format!(
            "{ctx}: fused interval [{:?}, {:?}] excludes Δ",
            stats.fused_lo, stats.fused_hi
        ));
    }
    if stats.discarded > faults {
        return Err(format!(
            "{ctx}: {} sources discarded but only {faults} are faulty",
            stats.discarded
        ));
    }
    let mls_pq = fused.estimated_mls(&ev);
    let mls_qp = fused.reversed().estimated_mls(&ev.reversed());
    let as_ratio = |x: i128| Ext::Finite(clocksync_time::Ratio::from_int(x));
    if as_ratio(i128::from(delta)) > mls_pq || as_ratio(i128::from(-delta)) > mls_qp {
        return Err(format!("{ctx}: m̃ls pair ({mls_pq}, {mls_qp}) excludes Δ"));
    }
    let hull = honest_subset_hull(range, &fwd, &bwd, k - faults);
    if hull != Some((stats.fused_lo, stats.fused_hi)) {
        return Err(format!(
            "{ctx}: fused [{:?}, {:?}] differs from the subset hull {hull:?}",
            stats.fused_lo, stats.fused_hi
        ));
    }
    if faults == 0 {
        let bounds = LinkAssumption::symmetric_bounds(range);
        let (bp, bq) = (
            bounds.estimated_mls(&ev),
            bounds.reversed().estimated_mls(&ev.reversed()),
        );
        if mls_pq != bp || mls_qp != bq {
            return Err(format!(
                "{ctx}: fault-free fusion ({mls_pq}, {mls_qp}) diverged from the bounds \
                 estimator ({bp}, {bq})"
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_thousand_fuzz_seeds_pass_the_honest_subset_oracle() {
        // The acceptance sweep: ≥ 1000 consecutive seeds with ppm fault
        // overlays, every assertion green.
        for seed in 0..1_000 {
            assert_eq!(check_seed(seed), Ok(()), "seed {seed}");
        }
    }

    #[test]
    fn the_fuzzer_is_deterministic() {
        // Same seed, same instance: a failure printed anywhere
        // reproduces everywhere. Indirectly checked by running the whole
        // block twice; a nondeterministic generator would disagree on
        // *which* seeds contain faults and quickly diverge.
        for seed in [0, 7, 999, u64::MAX - 3] {
            assert_eq!(check_seed(seed), check_seed(seed));
        }
    }
}
