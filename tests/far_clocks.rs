//! Clocks that count from different epochs: start times up to `10^18` ns
//! apart, the distance between boot time and Unix time. Every `m̃ls` entry
//! then carries a start-time difference far past the integer kernels'
//! per-entry bound, and the gauge of `half_ns.rs` takes it out again. These
//! tests hold the pipeline to two things on such domains: it stays on the
//! integer kernels, and it answers as the rational reference does.

use clocksync::{estimated_local_shifts, synchronizable_components, OnlineSynchronizer};
use clocksync_graph::{bellman_ford, floyd_warshall, karp_max_cycle_mean, DiGraph, SquareMatrix};
use clocksync_obs::{FieldValue, Recorder};
use clocksync_sim::{SimRun, Simulation, Topology};
use clocksync_time::{Ext, ExtRatio, Nanos, Ratio};

/// The start-time spread: `10^18` ns.
const EPOCH: i64 = 1_000_000_000_000_000_000;

fn far_run(topology: Topology, seed: u64) -> SimRun {
    Simulation::builder(topology.n())
        .uniform_links(
            topology,
            Nanos::from_micros(50),
            Nanos::from_micros(400),
            seed,
        )
        .probes(3)
        .start_spread(Nanos::new(EPOCH))
        .build()
        .run(seed)
}

#[test]
fn a_192_node_ring_an_epoch_apart_runs_the_integer_kernels() {
    let run = far_run(Topology::Ring(192), 3);
    let starts = run.execution.starts();
    let spread = starts.iter().max().unwrap().as_nanos() - starts.iter().min().unwrap().as_nanos();
    assert!(spread > EPOCH / 2, "start spread {spread} ns");
    let recorder = Recorder::enabled();
    let batch = run.synchronize_traced(&recorder).expect("consistent run");
    assert!(batch.precision().is_finite());
    let trace = recorder.snapshot();
    let kernel = trace.span_field("sync.global_estimates", "kernel");
    assert_eq!(kernel, Some(&FieldValue::Str("sparse-johnson".into())));
    assert_eq!(trace.events_named("sync.closure_fallback").count(), 0);
    let mut online = OnlineSynchronizer::new(run.network.clone());
    online.ingest_views(run.execution.views()).unwrap();
    assert_eq!(online.outcome().unwrap(), batch);
}

/// Per component: `A_max`, the critical cycle and the corrections.
type ComponentReference = (Ratio, Vec<usize>, Vec<Ratio>);

/// The rational reference: the generic Floyd–Warshall closure, then exact
/// Karp and the rational Bellman–Ford from each component's first member.
fn reference(run: &SimRun) -> (SquareMatrix<ExtRatio>, Vec<ComponentReference>) {
    let local = estimated_local_shifts(
        &run.network,
        &run.network.link_observations(run.execution.views()),
    );
    let closure = floyd_warshall(&local.to_matrix()).expect("consistent run");
    let components = synchronizable_components(&closure)
        .into_iter()
        .map(|members| {
            let sub = SquareMatrix::from_fn(members.len(), |a, b| {
                closure[(members[a].index(), members[b].index())]
            });
            let karp = karp_max_cycle_mean(&sub).expect("a closure has cycles");
            let mut g = DiGraph::new(sub.n());
            for (a, b, &w) in sub.iter_off_diagonal() {
                g.add_edge(a, b, Ext::Finite(karp.mean - w.finite().unwrap()));
            }
            let dist = bellman_ford(&g, 0).expect("no negative cycle under A_max");
            let corrections = dist.into_iter().map(|d| d.finite().unwrap()).collect();
            (karp.mean, karp.cycle, corrections)
        })
        .collect();
    (closure, components)
}

#[test]
fn far_offset_domains_equal_the_rational_reference() {
    let topologies = [
        Topology::Ring(24),
        Topology::Complete(12),
        Topology::RandomConnected {
            n: 20,
            extra_per_mille: 150,
        },
    ];
    for topology in topologies {
        for seed in 0..2 {
            let run = far_run(topology, seed);
            let recorder = Recorder::enabled();
            let outcome = run.synchronize_traced(&recorder).expect("consistent run");
            let trace = recorder.snapshot();
            assert_eq!(trace.events_named("sync.closure_fallback").count(), 0);
            let (closure, components) = reference(&run);
            assert_eq!(outcome.global_shift_estimates(), closure, "{topology:?}");
            assert_eq!(outcome.components().len(), components.len());
            for (report, (a_max, cycle, corrections)) in
                outcome.components().iter().zip(&components)
            {
                assert_eq!(report.precision, *a_max, "{topology:?} seed {seed}");
                let cycle: Vec<_> = cycle.iter().map(|&c| report.members[c]).collect();
                assert_eq!(report.critical_cycle, cycle, "{topology:?} seed {seed}");
                for (p, x) in report.members.iter().zip(corrections) {
                    assert_eq!(outcome.correction(*p), *x, "{topology:?} seed {seed}");
                }
            }
        }
    }
}
