//! End-to-end runs of the threaded executor.
//!
//! These tests run real OS threads with injected delays; they use small
//! delay budgets to stay fast but generous declared margins so scheduler
//! jitter can never falsify the declared assumptions.

use clocksync_model::ProcessorId;
use clocksync_sim::{DelayDistribution, LinkModel, Simulation, SimulationBuilder, Threads};
use clocksync_time::{Ext, Nanos};

fn ms(x: i64) -> Nanos {
    Nanos::from_millis(x)
}

/// A scenario over `n` threads with the given uniform links, probe rounds
/// 2 ms apart and starts at most 2 ms apart.
fn cluster(n: usize, links: &[(usize, usize, i64, i64)]) -> SimulationBuilder {
    links.iter().fold(
        Simulation::builder(n).spacing(ms(2)).start_spread(ms(2)),
        |b, &(a, c, lo, hi)| {
            b.truthful_link(
                a,
                c,
                LinkModel::symmetric(DelayDistribution::uniform(ms(lo), ms(hi))),
            )
        },
    )
}

#[test]
fn triangle_cluster_guarantee_holds_against_measured_truth() {
    let run = cluster(3, &[(0, 1, 1, 2), (1, 2, 1, 3), (0, 2, 2, 4)])
        .probes(2)
        .start_spread(ms(3))
        .build()
        .run_threaded(11, Threads::default());
    assert!(run.network.admits(&run.execution), "margin exceeded?");
    let outcome = run.synchronize().unwrap();
    assert!(outcome.precision().is_finite());
    let err = run.execution.discrepancy(outcome.corrections());
    assert!(Ext::Finite(err) <= outcome.precision());
    assert_eq!(outcome.rho_bar(outcome.corrections()), outcome.precision());
}

#[test]
fn line_cluster_produces_expected_traffic() {
    let probes = 3;
    let run = cluster(3, &[(0, 1, 1, 1), (1, 2, 1, 1)])
        .probes(probes)
        .build()
        .run_threaded(5, Threads::default());
    // Each link: `probes` probes + `probes` echoes.
    assert_eq!(run.execution.messages().len(), 2 * 2 * probes);
    let p01 = run
        .execution
        .link_delays(ProcessorId(0), ProcessorId(1))
        .len();
    assert_eq!(p01, probes);
    // Injected floor respected even under real scheduling.
    for m in run.execution.messages() {
        assert!(m.delay >= ms(1));
    }
}

#[test]
fn cluster_runs_are_view_valid_and_deterministically_structured() {
    let run = cluster(2, &[(0, 1, 1, 2)])
        .probes(2)
        .build()
        .run_threaded(99, Threads::default());
    // Reconstructing the view set re-validates every model axiom.
    let views = run.execution.views().clone();
    assert_eq!(views.len(), 2);
    assert_eq!(views.message_observations().len(), 4);
}
