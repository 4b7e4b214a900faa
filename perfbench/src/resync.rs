//! Warm-resync arm: an `OnlineSynchronizer` already holding an instance's
//! views takes one tightening observation, then answers `outcome()` — the
//! steady state of periodic resynchronization over warm closure and
//! `A_max` caches.

use std::time::Instant;

use clocksync::{OnlineSynchronizer, SyncOutcome};
use clocksync_sim::SimRun;
use clocksync_time::{Ext, ExtRatio};

use crate::inputs::{Domain, Rng, TighteningStream};
use crate::stats::{as_f64, true_discrepancy, Reference, Stopwatch, Timings, TOLERANCE_NS};

pub struct Warm {
    online: OnlineSynchronizer,
    stream: TighteningStream,
    /// The answer to the instance's views alone, before any resync step.
    pub cold: SyncOutcome,
    last: ExtRatio,
}

/// Loads each instance's views and pays the cold closure and `A_max`
/// computation once, as a resynchronizing node does at start-up.
pub fn setup(
    domain: &Domain,
    instances: &[SimRun],
    seed: u64,
    clock: &mut Stopwatch,
) -> Result<Vec<Warm>, String> {
    let mut rng = Rng::new(seed ^ 0x5EED_0000_0001);
    instances
        .iter()
        .enumerate()
        .map(|(i, sim)| {
            let (online, cold) = clock.time(|| {
                let mut online = OnlineSynchronizer::new(sim.network.clone());
                let cold = online
                    .ingest_views(sim.execution.views())
                    .and_then(|()| online.outcome());
                (online, cold)
            });
            let cold = cold.map_err(|e| format!("resync instance {i}: cold start failed: {e}"))?;
            Ok(Warm {
                online,
                stream: TighteningStream::new(domain, sim.execution.starts(), &mut rng),
                last: cold.precision(),
                cold,
            })
        })
        .collect()
}

pub struct ResyncResult {
    /// One observe + outcome step: `(raw, normalized)` ns.
    pub step: (f64, f64),
    /// Normalized ns of the step's two calls (traced runs only).
    pub observe_ns: f64,
    pub outcome_ns: f64,
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
}

const MIN_ROUNDS: usize = 3;

pub fn run(
    domain: &Domain,
    instances: &[SimRun],
    warm: &mut [Warm],
    deadline: Instant,
    trace: bool,
) -> ResyncResult {
    let k = instances.len();
    let (mut steps, mut observes, mut outcomes) =
        (Timings::new(k), Timings::new(k), Timings::new(k));
    let mut last: Vec<Option<SyncOutcome>> = vec![None; k];
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut errors = Vec::new();
    let mut reference = Reference::new();
    let mut rounds = 0;
    while rounds < MIN_ROUNDS || Instant::now() < deadline {
        for (i, w) in warm.iter_mut().enumerate() {
            let obs = w.stream.next(domain);
            attempted += 1;
            let scale = reference.scale();
            let start = Instant::now();
            w.online
                .observe_message(obs.src, obs.dst, obs.send_clock, obs.recv_clock);
            // Split timing only when tracing: end-to-end runs read the
            // clock just twice per step.
            let mid = trace.then(Instant::now);
            let result = w.online.outcome();
            let end = Instant::now();
            if let Some(mid) = mid {
                observes.push(i, mid.duration_since(start).as_nanos() as f64, scale);
                outcomes.push(i, end.duration_since(mid).as_nanos() as f64, scale);
            }
            steps.push(i, end.duration_since(start).as_nanos() as f64, scale);
            match result {
                Ok(outcome) => {
                    // Evidence only accumulates: the certificate never loosens.
                    if outcome.precision() > w.last {
                        errors.push(format!("resync instance {i}: precision loosened"));
                    }
                    w.last = outcome.precision();
                    last[i] = Some(outcome);
                }
                Err(e) => {
                    failed += 1;
                    errors.push(format!("resync instance {i}: {e}"));
                }
            }
        }
        rounds += 1;
    }
    for (i, ((sim, w), outcome)) in instances.iter().zip(warm.iter()).zip(&last).enumerate() {
        if let Some(outcome) = outcome {
            errors.extend(check(i, sim, w, outcome));
        }
    }
    ResyncResult {
        step: steps.summary(),
        observe_ns: observes.summary().1,
        outcome_ns: outcomes.summary().1,
        attempted,
        failed,
        errors,
    }
}

/// The warm answer is honoured by the hidden offsets and equals a cold
/// recomputation from the same evidence.
fn check(i: usize, sim: &SimRun, w: &Warm, outcome: &SyncOutcome) -> Vec<String> {
    let mut errors = Vec::new();
    let Ext::Finite(precision) = outcome.precision() else {
        return vec![format!("resync instance {i}: precision is unbounded")];
    };
    let truth = true_discrepancy(sim.execution.starts(), &as_f64(outcome.corrections()));
    if truth > precision.to_f64() + TOLERANCE_NS {
        errors.push(format!(
            "resync instance {i}: true discrepancy {truth} exceeds precision {precision}"
        ));
    }
    let mut cold = w.online.clone();
    cold.invalidate_caches();
    match cold.outcome() {
        Ok(o)
            if o.corrections() == outcome.corrections() && o.precision() == outcome.precision() => {
        }
        Ok(_) => errors.push(format!("resync instance {i}: warm and cold answers differ")),
        Err(e) => errors.push(format!("resync instance {i}: cold recompute failed: {e}")),
    }
    errors
}
