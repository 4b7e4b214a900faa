//! Cross-checks between the execution sources (analytic builder and
//! discrete-event engine) and the formal model. The engine and the
//! threaded executor are cross-checked in `clocksync-sim`'s cluster tests.

use std::collections::HashMap;

use clocksync::{DelayRange, LinkAssumption, Network, Synchronizer};
use clocksync_model::{ExecutionBuilder, ProcessorId, ViewEvent};
use clocksync_sim::{
    DelayDistribution, Engine, FaultPlan, LinkModel, ProbeProcess, Simulation, Topology,
};
use clocksync_time::{Ext, Nanos, RealTime};
use rand::rngs::StdRng;
use rand::SeedableRng;

const P: ProcessorId = ProcessorId(0);
const Q: ProcessorId = ProcessorId(1);

/// The engine with constant delays must reproduce, event for event, what
/// the analytic builder predicts.
#[test]
fn engine_matches_analytic_builder_on_constant_delays() {
    let mut links = HashMap::new();
    links.insert(
        (0usize, 1usize),
        LinkModel::symmetric(DelayDistribution::constant(Nanos::new(300)))
            .resolve(&mut StdRng::seed_from_u64(0)),
    );
    let starts = vec![RealTime::from_nanos(500), RealTime::ZERO];
    let engine = Engine::new(starts.clone(), links);
    let mk = || ProbeProcess::new(2, Nanos::from_micros(50), Nanos::from_micros(10));
    let (from_engine, _) = engine.run(
        &mut [mk(), mk()],
        &mut StdRng::seed_from_u64(1),
        &FaultPlan::new(),
    );

    // Analytic reconstruction: p0 starts at 500, probes at clock 10us and
    // 60us; echoes return after 300ns each way.
    let analytic = ExecutionBuilder::new(2)
        .start(P, RealTime::from_nanos(500))
        .round_trips(
            P,
            Q,
            2,
            RealTime::from_nanos(500) + Nanos::from_micros(10),
            Nanos::from_micros(50),
            Nanos::new(300),
            Nanos::new(300),
        )
        .build()
        .unwrap();

    // Same message structure (delays, estimated delays, directions).
    let a = from_engine.messages();
    let b = analytic.messages();
    assert_eq!(a.len(), b.len());
    for (x, y) in a.iter().zip(&b) {
        assert_eq!((x.src, x.dst), (y.src, y.dst));
        assert_eq!(x.delay, y.delay);
        assert_eq!(x.estimated_delay, y.estimated_delay);
        assert_eq!(x.sent_at, y.sent_at);
    }
}

/// Identical views must yield identical corrections regardless of where
/// the views came from (Claim 3.1: correction functions cannot
/// distinguish equivalent executions).
#[test]
fn correction_function_is_view_determined() {
    let net = Network::builder(2)
        .link(
            P,
            Q,
            LinkAssumption::symmetric_bounds(DelayRange::new(Nanos::ZERO, Nanos::new(1_000))),
        )
        .build();
    let base = ExecutionBuilder::new(2)
        .start(Q, RealTime::from_nanos(100))
        .round_trips(
            P,
            Q,
            1,
            RealTime::from_nanos(5_000),
            Nanos::new(10),
            Nanos::new(400),
            Nanos::new(300),
        )
        .build()
        .unwrap();
    // An equivalent execution: shift q by 250 (still admissible:
    // delays become 150/550, inside [0, 1000]).
    let shifted = base.shift(&[Nanos::ZERO, Nanos::new(250)]);
    assert!(net.admits(&shifted));
    let sync = Synchronizer::new(net);
    let o1 = sync.synchronize(base.views()).unwrap();
    let o2 = sync.synchronize(shifted.views()).unwrap();
    assert_eq!(o1.corrections(), o2.corrections());
    assert_eq!(o1.precision(), o2.precision());
}

/// The simulator's executions satisfy every model axiom and the network's
/// admissibility predicate agrees with per-link delay checks.
#[test]
fn simulator_runs_are_model_admissible() {
    let sim = Simulation::builder(6)
        .uniform_links(
            Topology::RandomConnected {
                n: 6,
                extra_per_mille: 400,
            },
            Nanos::from_micros(10),
            Nanos::from_micros(500),
            21,
        )
        .probes(2)
        .build();
    for seed in 0..5 {
        let run = sim.run(seed);
        assert!(run.is_admissible());
        // Manual re-check: every link's true delays inside the declared
        // uniform support.
        for l in sim.links() {
            for dir in [(l.a, l.b), (l.b, l.a)] {
                for d in run
                    .execution
                    .link_delays(ProcessorId(dir.0), ProcessorId(dir.1))
                {
                    assert!(d >= Nanos::from_micros(10) && d <= Nanos::from_micros(500));
                }
            }
        }
        // Every view starts with Start at clock 0 and is clock-ordered.
        for view in run.execution.views().iter() {
            assert!(view.validate().is_ok());
            assert!(matches!(view.events()[0], ViewEvent::Start { .. }));
        }
    }
}

/// Timer events appear in views (they are part of the paper's histories)
/// but are ignored by the estimators: removing them must not change the
/// outcome.
#[test]
fn timers_do_not_affect_synchronization() {
    let sim = Simulation::builder(3)
        .uniform_links(
            Topology::Path(3),
            Nanos::from_micros(10),
            Nanos::from_micros(90),
            2,
        )
        .probes(2)
        .build();
    let run = sim.run(3);
    let outcome_with = run.synchronize().unwrap();

    // Strip timers from the views and re-synchronize.
    let stripped: Vec<_> = run
        .execution
        .views()
        .iter()
        .map(|v| {
            clocksync_model::View::from_events(
                v.processor(),
                v.events()
                    .iter()
                    .filter(|e| !matches!(e, ViewEvent::Timer { .. }))
                    .copied()
                    .collect(),
            )
        })
        .collect();
    let stripped = clocksync_model::ViewSet::new(stripped).unwrap();
    let outcome_without = Synchronizer::new(run.network.clone())
        .synchronize(&stripped)
        .unwrap();
    assert_eq!(outcome_with.corrections(), outcome_without.corrections());
    assert_eq!(outcome_with.precision(), outcome_without.precision());
}

/// Estimated delays are exactly the clock differences, for all three
/// sources of executions (Lemma 6.1 as an identity).
#[test]
fn estimated_delay_identity_across_sources() {
    let sim = Simulation::builder(4)
        .uniform_links(
            Topology::Star(4),
            Nanos::from_micros(5),
            Nanos::from_micros(300),
            4,
        )
        .probes(2)
        .build();
    let run = sim.run(8);
    for m in run.execution.messages() {
        let expected = m.delay + (run.execution.start(m.src) - RealTime::ZERO)
            - (run.execution.start(m.dst) - RealTime::ZERO);
        assert_eq!(m.estimated_delay, expected);
    }
    // And the observations layer reports extrema consistent with the raw
    // messages.
    let obs = run.network.link_observations(run.execution.views());
    for m in run.execution.messages() {
        let stats = obs.stats(run.network.slot(m.src, m.dst).expect("probes ride links"));
        assert!(stats.est_min <= Ext::Finite(m.estimated_delay));
        assert!(stats.est_max >= Ext::Finite(m.estimated_delay));
    }
}
