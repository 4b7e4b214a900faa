//! The probe family: the retrying probe protocol on the engine under
//! generated fault plans. Each seed builds 2–5 processors on a random
//! connected topology with truthful uniform delays (asymmetric on about a
//! third of the links), 1–8 rounds so every lattice tier is reachable,
//! 0–4 retries with a deadline between half and twice the slowest round
//! trip (so some retries are spurious), drop probabilities from 0 to 1,
//! down windows and at most one crash. Oracles: `no-panic`;
//! `degraded-admits` (every link's rounds add up, and the network its
//! health degrades to admits the execution); `corrected-agreement` over
//! that network.

use clocksync::Synchronizer;
use clocksync_model::ProcessorId;
use clocksync_sim::{DelayDistribution, FaultPlan, LinkModel, Simulation};
use clocksync_time::{Nanos, Ratio, RealTime};

use crate::rng::VoprRng;
use crate::runner::{check_agreement, guard};
use crate::sweep::Oracle;

/// Salt separating this family's RNG stream from the other families'.
const PROBE_SALT: u64 = 0x50524F42_45524E44;

/// Drop probabilities a link draws from: mostly lossless, sometimes dead.
const DROP_MENU: [f64; 7] = [0.0, 0.0, 0.0, 0.1, 0.3, 0.6, 1.0];

/// Builds and checks the instance of `seed`; the error names the oracle
/// and the failed check with the instance's parameters.
pub(crate) fn check_seed(seed: u64) -> Result<(), (Oracle, String)> {
    let mut rng = VoprRng::keyed(seed, &[PROBE_SALT]);
    let us = |rng: &mut VoprRng, lo: i64, hi: i64| Nanos::from_micros(rng.range_i64(lo, hi));
    let n = rng.range_i64(2, 5) as usize;
    let mut edges: Vec<(usize, usize)> =
        (1..n).map(|b| (rng.below(b as u64) as usize, b)).collect();
    for b in 1..n {
        for a in 0..b {
            if !edges.contains(&(a, b)) && rng.chance_ppm(300_000) {
                edges.push((a, b));
            }
        }
    }
    let probes = rng.range_i64(1, 8) as usize;
    let spacing = us(&mut rng, 100, 3_000);
    let spread = us(&mut rng, 0, 2_000);
    let mut sim = Simulation::builder(n)
        .probes(probes)
        .spacing(spacing)
        .start_spread(spread);
    let mut slowest = Nanos::ZERO;
    let mut plan = FaultPlan::new();
    for &(a, b) in &edges {
        let lo = us(&mut rng, 10, 200);
        let hi = lo + us(&mut rng, 0, 300);
        let (back_lo, back_hi) = if rng.chance_ppm(333_333) {
            let lo = us(&mut rng, 10, 200);
            (lo, lo + us(&mut rng, 0, 300))
        } else {
            (lo, hi)
        };
        slowest = slowest.max(hi + back_hi);
        let model = LinkModel::Independent {
            forward: DelayDistribution::uniform(lo, hi),
            backward: DelayDistribution::uniform(back_lo, back_hi),
        };
        sim = sim.truthful_link(a, b, model);
        let drop = DROP_MENU[rng.below(DROP_MENU.len() as u64) as usize];
        plan = plan.drop_messages(ProcessorId(a), ProcessorId(b), drop);
        if rng.chance_ppm(300_000) {
            let from = RealTime::ZERO + us(&mut rng, 0, 3_000 * probes as i64);
            let until = from + us(&mut rng, 0, 4_000);
            plan = plan.link_down(ProcessorId(a), ProcessorId(b), from, until);
        }
    }
    let mut crashed = None;
    if rng.chance_ppm(250_000) {
        let p = rng.below(n as u64) as usize;
        let at = RealTime::ZERO + us(&mut rng, 0, 3_000 * probes as i64);
        plan = plan.crash(ProcessorId(p), at);
        crashed = Some(p);
    }
    let retries = rng.range_i64(0, 4) as u32;
    let deadline = rng.range_i64(slowest.as_nanos() / 2, 2 * slowest.as_nanos());
    let deadline = Nanos::new(deadline.max(1));
    let sim = sim.retry(deadline, retries).faults(plan).build();
    check(&sim, seed, crashed).map_err(|(oracle, detail)| {
        let ctx = format!("n={n}, links={edges:?}, probes={probes}, retry=({deadline}, {retries})");
        (oracle, format!("{ctx}, crashed={crashed:?}: {detail}"))
    })
}

/// Runs `sim` on the engine and checks the family's oracles; `crashed`
/// is the processor the plan crashes, if any.
fn check(sim: &Simulation, seed: u64, crashed: Option<usize>) -> Result<(), (Oracle, String)> {
    let run = guard("Simulation::run", || sim.run(seed))?;
    let probes = sim.probes();
    let admits = |detail: String| (Oracle::DegradedAdmits, detail);
    for h in &run.health {
        if h.rounds_ok + h.rounds_failed != probes {
            return Err(admits(format!("{h}: rounds do not add up to {probes}")));
        }
        if crashed != Some(h.a.index()) && h.probes_sent != probes + h.retries {
            let sent = h.probes_sent;
            return Err(admits(format!(
                "{h}: {sent} probes sent, not {probes} + retries"
            )));
        }
    }
    let network = sim.degraded_network(&run.health);
    if !network.admits(&run.execution) {
        let states: Vec<_> = run.health.iter().map(|h| h.state).collect();
        return Err(admits(format!(
            "the degraded network {states:?} does not admit the run"
        )));
    }
    let agreement = |detail: String| (Oracle::CorrectedAgreement, detail);
    let views = run.execution.views();
    let outcome = guard("synchronize", || {
        Synchronizer::new(network).synchronize(views)
    })?
    .map_err(|e| agreement(format!("synchronize failed: {e}")))?;
    // A clock reads real time minus its start: its offset is −start.
    let offset = |p| -Ratio::from(run.execution.start(p) - RealTime::ZERO);
    check_agreement(&outcome, offset).map_err(agreement)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_thousand_probe_seeds_pass_every_oracle() {
        for seed in 0..1_000 {
            assert_eq!(check_seed(seed), Ok(()), "seed {seed}");
        }
    }

    #[test]
    fn the_probe_fuzzer_is_deterministic() {
        for seed in [0, 5, 777, u64::MAX - 1] {
            assert_eq!(check_seed(seed), check_seed(seed));
        }
    }
}
