//! Batch arm: `Synchronizer::synchronize` on complete views, the paper's
//! whole pipeline per call (§6 estimates → §5.3 closure → §4 `A_max` and
//! corrections).

use std::hint::black_box;
use std::time::Instant;

use clocksync::{SyncOutcome, Synchronizer};
use clocksync_obs::{Recorder, TraceRecord};
use clocksync_sim::SimRun;
use clocksync_time::Ext;

use crate::stats::{as_f64, ns_since, true_discrepancy, Reference, Timings, TOLERANCE_NS};

/// The program's own stage spans inside `synchronize`, in pipeline
/// order, with the metric each one is reported as.
pub const STAGES: [(&str, &str); 4] = [
    ("sync.local_estimates", "sync.local_estimates_us"),
    ("sync.global_estimates", "sync.global_estimates_us"),
    ("sync.shifts", "sync.shifts_us"),
    ("sync.degradations", "sync.degradations_us"),
];

pub struct BatchResult {
    /// One `synchronize` call: `(raw, normalized)` ns.
    pub call: (f64, f64),
    /// Normalized ns per stage span, in `STAGES` order (traced runs only).
    pub stage_ns: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
}

const MIN_ROUNDS: usize = 3;

/// `online[i]` is the online engine's answer to instance `i`'s views,
/// which every batch answer must equal.
pub fn run(
    instances: &[SimRun],
    online: &[&SyncOutcome],
    deadline: Instant,
    trace: bool,
) -> BatchResult {
    let recorders: Vec<Recorder> = instances
        .iter()
        .map(|_| {
            if trace {
                Recorder::enabled()
            } else {
                Recorder::disabled()
            }
        })
        .collect();
    let syncs: Vec<Synchronizer> = instances
        .iter()
        .zip(&recorders)
        .map(|(sim, rec)| Synchronizer::new(sim.network.clone()).with_recorder(rec.clone()))
        .collect();
    let mut calls = Timings::new(instances.len());
    // Each call's normalization factor, to normalize its stage spans.
    let mut scales: Vec<Vec<f64>> = vec![Vec::new(); instances.len()];
    let mut first: Vec<Option<SyncOutcome>> = vec![None; instances.len()];
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut errors = Vec::new();
    let mut reference = Reference::new();
    let mut rounds = 0;
    while rounds < MIN_ROUNDS || Instant::now() < deadline {
        for (i, sim) in instances.iter().enumerate() {
            attempted += 1;
            let scale = reference.scale();
            let start = Instant::now();
            let result = syncs[i].synchronize(black_box(sim.execution.views()));
            let ns = ns_since(start);
            scales[i].push(scale);
            match result {
                Ok(outcome) => {
                    calls.push(i, ns, scale);
                    match &first[i] {
                        None => first[i] = Some(outcome),
                        Some(f) if *f != outcome => errors
                            .push(format!("batch instance {i}: outcome changed between calls")),
                        Some(_) => {}
                    }
                }
                Err(e) => {
                    failed += 1;
                    errors.push(format!("batch instance {i}: {e}"));
                }
            }
        }
        rounds += 1;
    }
    for (i, (sim, outcome)) in instances.iter().zip(&first).enumerate() {
        if let Some(outcome) = outcome {
            errors.extend(check(i, sim, outcome, online[i]));
        }
    }
    let stage_ns = if trace {
        let mut stages: Vec<Timings> = STAGES
            .iter()
            .map(|_| Timings::new(instances.len()))
            .collect();
        for (i, rec) in recorders.iter().enumerate() {
            let mut seen = [0usize; STAGES.len()];
            for r in rec.snapshot().records {
                let TraceRecord::Span { name, dur_ns, .. } = r else {
                    continue;
                };
                if let Some(s) = STAGES.iter().position(|(span, _)| *span == name) {
                    // The n-th span of a stage belongs to the n-th call.
                    if let Some(&scale) = scales[i].get(seen[s]) {
                        stages[s].push(i, dur_ns as f64, scale);
                    }
                    seen[s] += 1;
                }
            }
        }
        stages.iter().map(|t| t.summary().1).collect()
    } else {
        Vec::new()
    };
    BatchResult {
        call: calls.summary(),
        stage_ns,
        attempted,
        failed,
        errors,
    }
}

/// The outcome is finite, honoured by the hidden true offsets, and equal
/// to the online engine's answer on the same views.
fn check(i: usize, sim: &SimRun, outcome: &SyncOutcome, online: &SyncOutcome) -> Vec<String> {
    let mut errors = Vec::new();
    let Ext::Finite(precision) = outcome.precision() else {
        return vec![format!("batch instance {i}: precision is unbounded")];
    };
    let truth = true_discrepancy(sim.execution.starts(), &as_f64(outcome.corrections()));
    if truth > precision.to_f64() + TOLERANCE_NS {
        errors.push(format!(
            "batch instance {i}: true discrepancy {truth} exceeds precision {precision}"
        ));
    }
    if online.corrections() != outcome.corrections() || online.precision() != outcome.precision() {
        errors.push(format!("batch instance {i}: online engine disagrees"));
    }
    errors
}
