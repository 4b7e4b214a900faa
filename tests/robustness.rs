//! Robustness fuzzing: arbitrary (valid) views against arbitrary —
//! possibly false — declarations must produce either an outcome or a
//! typed error, never a panic, and every produced outcome must satisfy
//! the library's internal identities.

use clocksync::{DelayRange, LinkAssumption, Network, SyncError, Synchronizer};
use clocksync_model::{ExecutionBuilder, ProcessorId};
use clocksync_sim::{Simulation, Topology};
use clocksync_time::{Ext, Nanos, Ratio, RealTime};
use proptest::prelude::*;

/// Arbitrary assumption, not necessarily related to any actual delays.
fn assumption() -> impl Strategy<Value = LinkAssumption> {
    let range = (0i64..1_000_000, 0i64..1_000_000)
        .prop_map(|(lo, w)| DelayRange::new(Nanos::new(lo), Nanos::new(lo + w)));
    let bounds = (range.clone(), range.clone()).prop_map(|(f, b)| LinkAssumption::bounds(f, b));
    let lower_only = (0i64..1_000_000)
        .prop_map(|lo| LinkAssumption::symmetric_bounds(DelayRange::at_least(Nanos::new(lo))));
    let bias = (1i64..1_000_000).prop_map(|b| LinkAssumption::rtt_bias(Nanos::new(b)));
    let paired = (1i64..1_000_000, 1i64..10_000_000)
        .prop_map(|(b, w)| LinkAssumption::paired_rtt_bias(Nanos::new(b), Nanos::new(w)));
    let leaf = prop_oneof![bounds, lower_only, bias, paired];
    leaf.clone().prop_recursive(2, 6, 3, |inner| {
        proptest::collection::vec(inner, 1..3).prop_map(LinkAssumption::all)
    })
}

#[derive(Debug, Clone)]
struct FuzzInput {
    n: usize,
    starts: Vec<i64>,
    messages: Vec<(usize, usize, i64, i64)>,
    links: Vec<(usize, usize, LinkAssumption)>,
}

fn fuzz_input() -> impl Strategy<Value = FuzzInput> {
    (2usize..6).prop_flat_map(|n| {
        let starts = proptest::collection::vec(0i64..5_000_000, n);
        let messages =
            proptest::collection::vec((0..n, 0..n, 0i64..10_000_000, 0i64..2_000_000), 0..15);
        let links = proptest::collection::vec((0..n, 0..n, assumption()), 0..6);
        (starts, messages, links).prop_map(move |(starts, messages, links)| FuzzInput {
            n,
            starts,
            messages: messages
                .into_iter()
                .filter(|&(a, b, _, _)| a != b)
                .collect(),
            links: links.into_iter().filter(|(a, b, _)| a != b).collect(),
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The synchronizer is total over valid views: Ok or a typed error.
    #[test]
    fn synchronize_never_panics(input in fuzz_input()) {
        let mut eb = ExecutionBuilder::new(input.n);
        for (i, &s) in input.starts.iter().enumerate() {
            eb = eb.start(ProcessorId(i), RealTime::from_nanos(s));
        }
        let base = 10_000_000i64;
        for &(src, dst, at, delay) in &input.messages {
            eb = eb.message(
                ProcessorId(src),
                ProcessorId(dst),
                RealTime::from_nanos(base + at),
                Nanos::new(delay),
            );
        }
        let Ok(exec) = eb.build() else { return Ok(()); };

        let mut nb = Network::builder(input.n);
        for (a, b, asm) in &input.links {
            nb = nb.link(ProcessorId(*a), ProcessorId(*b), asm.clone());
        }
        let net = nb.build();
        match Synchronizer::new(net).synchronize(exec.views()) {
            Ok(outcome) => {
                // Internal identities hold for whatever was declared.
                prop_assert!(outcome.precision() >= Ext::Finite(Ratio::ZERO));
                prop_assert_eq!(
                    outcome.rho_bar(outcome.corrections()),
                    outcome.precision()
                );
                for i in 0..input.n {
                    for j in 0..input.n {
                        let (p, q) = (ProcessorId(i), ProcessorId(j));
                        prop_assert_eq!(outcome.pair_bound(p, q), outcome.pair_bound(q, p));
                        prop_assert!(outcome.pair_bound(p, q) <= outcome.precision());
                    }
                }
                // Components partition the processors.
                let mut seen = vec![false; input.n];
                for c in outcome.components() {
                    for m in &c.members {
                        prop_assert!(!seen[m.index()], "component overlap");
                        seen[m.index()] = true;
                    }
                }
                prop_assert!(seen.into_iter().all(|s| s));
            }
            Err(SyncError::InconsistentObservations { .. }) => {}
            Err(other) => prop_assert!(false, "unexpected error {other:?}"),
        }
    }

    /// The distributed protocol completes and stays sound on random
    /// connected topologies and probe counts.
    #[test]
    fn distributed_protocol_fuzz(
        n in 3usize..7,
        extra in 0u32..400,
        probes in 1usize..4,
        seed in 0u64..1_000,
    ) {
        let sim = Simulation::builder(n)
            .uniform_links(
                Topology::RandomConnected { n, extra_per_mille: extra },
                Nanos::from_micros(10),
                Nanos::from_micros(300),
                seed ^ 0xBEEF,
            )
            .probes(probes)
            .build();
        let run = sim.run_distributed(seed);
        let precision = run.outcome.as_ref().expect("leader computed").precision();
        prop_assert!(precision.is_finite());
        let corrections: Option<Vec<Ratio>> = run.corrections.iter().copied().collect();
        let corrections = corrections.expect("every processor corrected");
        prop_assert_eq!(corrections.len(), n);
        let err = run.execution.discrepancy(&corrections);
        prop_assert!(Ext::Finite(err) <= precision);
    }
}
