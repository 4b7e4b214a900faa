//! Fault-injection properties: the pipeline must stay *total* (no panic,
//! no wedge) and *sound* (certificates hold, degradation is reported, and
//! survivors lose nothing) under arbitrary drop / duplication /
//! reordering / churn / crash-stop schedules.
//!
//! The headline property mirrors the failure-semantics contract
//! (DESIGN.md §5): crash-stopping any single non-leader processor in the
//! distributed protocol leaves every survivor with exactly the correction
//! a fault-free batch run would compute from the evidence that reached
//! the leader.

use std::collections::HashSet;

use clocksync::{global_estimates, SyncOutcome, Synchronizer};
use clocksync_graph::{SquareMatrix, Weight};
use clocksync_model::ProcessorId;
use clocksync_sim::{DistributedSync, FaultPlan, Simulation, Topology};
use clocksync_time::{Ext, ExtRatio, Nanos, RealTime};
use proptest::prelude::*;

/// A random fault schedule over the links of an `n`-ring, with an
/// optional crash of a non-leader processor.
fn fault_plan(n: usize) -> impl Strategy<Value = FaultPlan> {
    let link_faults =
        proptest::collection::vec((0..n, 0.0f64..0.5, 0.0f64..0.5, 0.0f64..0.5), 0..4);
    let crash = prop_oneof![Just(None), (1..n, 1_000i64..30_000).prop_map(Some),];
    (link_faults, crash).prop_map(move |(faults, crash)| {
        let mut plan = FaultPlan::new();
        for (a, drop, dup, reorder) in faults {
            let b = (a + 1) % n;
            plan = plan
                .drop_messages(ProcessorId(a), ProcessorId(b), drop)
                .duplicate_messages(ProcessorId(a), ProcessorId(b), dup)
                .reorder_messages(ProcessorId(a), ProcessorId(b), reorder);
        }
        if let Some((p, at)) = crash {
            plan = plan.crash(ProcessorId(p), RealTime::from_micros(at));
        }
        plan
    })
}

fn ring_sim(n: usize, probes: usize, seed: u64, plan: FaultPlan) -> Simulation {
    Simulation::builder(n)
        .uniform_links(
            Topology::Ring(n),
            Nanos::from_micros(20),
            Nanos::from_micros(200),
            seed ^ 0xFA17,
        )
        .probes(probes)
        .faults(plan)
        .build()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Whatever the plan does, the batch pipeline terminates, the
    /// recorded execution stays admissible for the truthful assumptions,
    /// the certificate holds, and degradations only name real links.
    #[test]
    fn faulty_batch_runs_stay_total_and_sound(
        n in 3usize..6,
        probes in 1usize..3,
        seed in 0u64..500,
        plan in fault_plan(6),
    ) {
        // The plan was drawn over indices < 6; keep only what fits n.
        prop_assume!(plan.max_processor_index().is_none_or(|m| m < n));
        let sim = ring_sim(n, probes, seed, plan);
        let faulty = sim.run(seed);
        prop_assert!(faulty.network.admits(&faulty.execution));

        let outcome = faulty.synchronize().unwrap();
        let err = faulty.true_discrepancy(outcome.corrections());
        prop_assert!(Ext::Finite(err) <= outcome.precision());

        for d in outcome.degradations() {
            prop_assert!(
                faulty.network.assumption(d.a, d.b).is_some(),
                "degradation names a non-link: {d}"
            );
        }
        // Components partition the processors.
        let mut seen = vec![false; n];
        for c in outcome.components() {
            for m in &c.members {
                prop_assert!(!seen[m.index()], "component overlap");
                seen[m.index()] = true;
            }
        }
        prop_assert!(seen.into_iter().all(|s| s));
    }

    /// Duplicated deliveries are extra true evidence: stripping the
    /// duplicate copies and re-synchronizing can only give *looser*
    /// (or equal) bounds, never tighter — duplication must not loosen
    /// any estimate.
    #[test]
    fn duplicated_evidence_never_loosens_estimates(
        n in 3usize..6,
        seed in 0u64..500,
        dup in 0.2f64..0.9,
    ) {
        let mut plan = FaultPlan::new();
        for a in 0..n {
            plan = plan.duplicate_messages(ProcessorId(a), ProcessorId((a + 1) % n), dup);
        }
        let sim = ring_sim(n, 2, seed, plan);
        let faulty = sim.run(seed);
        let with_dups = faulty.synchronize().unwrap();

        let copies: HashSet<_> = faulty.faults.duplicate_copy_ids().collect();
        let stripped_views = faulty
            .execution
            .views()
            .retain_messages(|id| !copies.contains(&id));
        let stripped = Synchronizer::new(faulty.network.clone())
            .synchronize(&stripped_views)
            .unwrap();

        prop_assert!(with_dups.precision() <= stripped.precision());
        // The evidence with duplicates is a superset, so every estimated
        // global shift can only shrink. (Per-pair bounds under the chosen
        // corrections are NOT monotone — the optimizer trades pairs off
        // against each other — but the closure and the optimum are.)
        for i in 0..n {
            for j in 0..n {
                prop_assert!(
                    with_dups.global_shift_estimate(ProcessorId(i), ProcessorId(j))
                        <= stripped.global_shift_estimate(ProcessorId(i), ProcessorId(j)),
                    "duplication loosened m\u{303}s({i}, {j})"
                );
            }
        }
        // Even re-using the duplicate-free corrections, the richer
        // evidence certifies no worse a discrepancy.
        prop_assert!(with_dups.rho_bar(stripped.corrections()) <= stripped.precision());
    }

    /// The acceptance property: crash-stop any single non-leader
    /// processor, at any time, and every correction that was actually
    /// delivered equals the one a fault-free batch computation produces
    /// from exactly the evidence the leader received.
    #[test]
    fn crash_stop_survivors_match_fault_free_restriction(
        n in 4usize..7,
        victim_and_time in (1usize..7, 500i64..40_000),
        seed in 0u64..500,
    ) {
        let (victim, at) = victim_and_time;
        prop_assume!(victim < n);
        let plan = FaultPlan::new().crash(ProcessorId(victim), RealTime::from_micros(at));
        let dist = DistributedSync::new(ring_sim(n, 2, seed, FaultPlan::new())).with_faults(plan);
        let run = dist.run_faulty(seed);

        // The leader survives, so its deadline guarantees an answer.
        let outcome = run.outcome.as_ref().expect("leader must compute");

        // Fault-free restriction: batch-synchronize the very report
        // matrix the leader saw.
        let mut m = SquareMatrix::from_fn(n, |i, j| {
            if i == j {
                <ExtRatio as Weight>::zero()
            } else {
                <ExtRatio as Weight>::infinity()
            }
        });
        for &(a, b, ab, ba) in &run.reports {
            m[(a.index(), b.index())] = ab;
            m[(b.index(), a.index())] = ba;
        }
        let expected = SyncOutcome::from_global_estimates(global_estimates(&m).unwrap());

        for p in 0..n {
            if let Some(c) = run.corrections[p] {
                prop_assert_eq!(
                    c,
                    expected.correction(ProcessorId(p)),
                    "p{} holds a correction differing from the fault-free restriction",
                    p
                );
            }
        }
        // Every link the leader never heard about is flagged, and every
        // flagged-unreported link is genuinely absent from the reports.
        let reported: HashSet<_> = run
            .reports
            .iter()
            .map(|&(a, b, _, _)| (a.index().min(b.index()), a.index().max(b.index())))
            .collect();
        for d in outcome.degradations() {
            if d.reason == clocksync::DegradationReason::Unreported {
                prop_assert!(!reported.contains(&(d.a.index(), d.b.index())));
            }
        }
        for (a, b, _) in run.network.links() {
            let key = (a.index().min(b.index()), a.index().max(b.index()));
            if !reported.contains(&key) {
                prop_assert!(
                    outcome
                        .degradations()
                        .iter()
                        .any(|d| (d.a, d.b) == (ProcessorId(key.0), ProcessorId(key.1))),
                    "unreported link {}-{} not flagged",
                    key.0,
                    key.1
                );
            }
        }
    }
}
