//! End-to-end pipeline tests: every topology × delay model × assumption
//! combination must produce sound, tight, finite guarantees.

use clocksync::{DelayRange, LinkAssumption};
use clocksync_sim::{DelayDistribution, LinkModel, Simulation, Topology};
use clocksync_time::{Ext, Nanos};

fn us(x: i64) -> Nanos {
    Nanos::from_micros(x)
}

/// Checks the three pillars on a run: admissibility of the generated
/// execution, soundness (true error ≤ guarantee) and tightness
/// (ρ̄(ours) = guarantee).
fn check_run(run: &clocksync_sim::SimRun, label: &str) {
    assert!(run.is_admissible(), "{label}: scenario not admissible");
    let outcome = run.synchronize().expect(label);
    assert!(
        outcome.precision().is_finite(),
        "{label}: precision not finite"
    );
    let achieved = run.true_discrepancy(outcome.corrections());
    assert!(
        Ext::Finite(achieved) <= outcome.precision(),
        "{label}: guarantee violated ({achieved} > {})",
        outcome.precision()
    );
    assert_eq!(
        outcome.rho_bar(outcome.corrections()),
        outcome.precision(),
        "{label}: corrections not tight"
    );
}

#[test]
fn uniform_bounds_on_every_topology() {
    let topologies = [
        Topology::Path(5),
        Topology::Ring(6),
        Topology::Star(5),
        Topology::Complete(5),
        Topology::Grid { rows: 2, cols: 3 },
        Topology::RandomConnected {
            n: 8,
            extra_per_mille: 250,
        },
    ];
    for topo in topologies {
        let sim = Simulation::builder(topo.n())
            .uniform_links(topo, us(50), us(450), 13)
            .probes(2)
            .build();
        for seed in 0..3 {
            check_run(&sim.run(seed), &format!("{topo:?} seed {seed}"));
        }
    }
}

#[test]
fn heavy_tailed_links_with_lower_bounds_only() {
    // Model 2: no upper bounds exist at all, worst case unbounded — yet
    // each instance gets a finite certificate.
    let model = || LinkModel::symmetric(DelayDistribution::heavy_tail(us(100), us(400), 1.2));
    let mut b = Simulation::builder(5);
    for (x, y) in [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)] {
        b = b.truthful_link(x, y, model());
    }
    let sim = b.probes(4).build();
    for seed in 0..5 {
        check_run(&sim.run(seed), &format!("heavy-tail seed {seed}"));
    }
}

#[test]
fn correlated_links_under_the_bias_model() {
    let model = || LinkModel::Correlated {
        base: DelayDistribution::uniform(us(500), us(20_000)),
        spread: us(250),
    };
    let mut b = Simulation::builder(4);
    for (x, y) in [(0, 1), (1, 2), (2, 3), (0, 3)] {
        b = b.truthful_link(x, y, model());
    }
    let sim = b.probes(3).build();
    for seed in 0..5 {
        check_run(&sim.run(seed), &format!("bias seed {seed}"));
    }
}

#[test]
fn fully_mixed_assumptions() {
    // Every assumption family in one network (the paper's headline).
    let sim = Simulation::builder(6)
        .link(
            0,
            1,
            LinkModel::symmetric(DelayDistribution::uniform(us(100), us(300))),
            LinkAssumption::symmetric_bounds(DelayRange::new(us(100), us(300))),
        )
        .link(
            1,
            2,
            LinkModel::symmetric(DelayDistribution::heavy_tail(us(200), us(300), 1.4)),
            LinkAssumption::symmetric_bounds(DelayRange::at_least(us(200))),
        )
        .link(
            2,
            3,
            LinkModel::Correlated {
                base: DelayDistribution::uniform(us(1_000), us(40_000)),
                spread: us(150),
            },
            LinkAssumption::rtt_bias(us(150)),
        )
        .link(
            3,
            4,
            // A link obeying BOTH bounds and bias simultaneously.
            LinkModel::Correlated {
                base: DelayDistribution::uniform(us(500), us(700)),
                spread: us(100),
            },
            LinkAssumption::all(vec![
                LinkAssumption::rtt_bias(us(100)),
                LinkAssumption::symmetric_bounds(DelayRange::new(us(500), us(800))),
            ]),
        )
        .link(
            4,
            5,
            LinkModel::symmetric(DelayDistribution::uniform(us(10), us(5_000))),
            LinkAssumption::no_bounds(),
        )
        .probes(3)
        .build();
    for seed in 0..5 {
        check_run(&sim.run(seed), &format!("mixed seed {seed}"));
    }
}

#[test]
fn more_observations_never_hurt() {
    // Monotonicity: within one execution, longer message prefixes can only
    // tighten (or keep) the guarantee — estimated extrema move inward.
    let sim = Simulation::builder(4)
        .uniform_links(Topology::Ring(4), us(50), us(950), 3)
        .probes(8)
        .build();
    for seed in 0..5 {
        let run = sim.run(seed);
        let total = run.execution.messages().len() as u64;
        let sync = clocksync::Synchronizer::new(run.network.clone());
        let mut last = None;
        for cutoff in [total / 8, total / 4, total / 2, total] {
            let views = run.execution.views().retain_messages(|id| id.0 < cutoff);
            let p = sync.synchronize(&views).unwrap().precision();
            if let Some(prev) = last {
                assert!(
                    p <= prev,
                    "seed {seed}: precision worsened from {prev} to {p} at cutoff {cutoff}"
                );
            }
            last = Some(p);
        }
    }
}

#[test]
fn declared_but_silent_links_do_not_break_anything() {
    // A link declared with tight bounds that carries no traffic places no
    // constraint (both estimator terms are infinite); synchronization must
    // fall back to the probed path unchanged.
    let sim = Simulation::builder(3)
        .uniform_links(Topology::Path(3), us(100), us(200), 1)
        .probes(2)
        .build();
    let run = sim.run(9);
    let mut b = clocksync::Network::builder(3);
    for l in sim.links() {
        b = b.link(
            clocksync_model::ProcessorId(l.a),
            clocksync_model::ProcessorId(l.b),
            l.assumption.clone(),
        );
    }
    let net = b
        .link(
            clocksync_model::ProcessorId(0),
            clocksync_model::ProcessorId(2),
            LinkAssumption::symmetric_bounds(DelayRange::new(us(1), us(2))),
        )
        .build();
    let with_silent = clocksync::Synchronizer::new(net)
        .synchronize(run.execution.views())
        .unwrap();
    let without = run.synchronize().unwrap();
    assert_eq!(with_silent.precision(), without.precision());
    let achieved = run.true_discrepancy(with_silent.corrections());
    assert!(Ext::Finite(achieved) <= with_silent.precision());
}

#[test]
fn shifts_kernels_are_interchangeable_end_to_end() {
    // On real pipeline closures, the one-shot SHIFTS (scaled Karp) and
    // Howard's policy iteration (the online warm-miss kernel) must yield
    // the precision, corrections and witness of the paper's exact Karp
    // followed by Bellman–Ford. So the reported components cannot depend
    // on the kernel: an online synchronizer fed message by message (warm
    // revalidations and Howard restarts) ends on exactly the batch ones.
    use clocksync::{shifts, synchronizable_components, OnlineSynchronizer};
    use clocksync_graph::{bellman_ford, howard_solve, karp_max_cycle_mean, DiGraph, SquareMatrix};
    use clocksync_time::{ExtRatio, Ratio};

    fn corrections(sub: &SquareMatrix<ExtRatio>, a_max: Ratio) -> Vec<Ratio> {
        let mut g = DiGraph::new(sub.n());
        for (a, b, &w) in sub.iter_off_diagonal() {
            g.add_edge(
                a,
                b,
                Ext::Finite(a_max - w.finite().expect("finite closure")),
            );
        }
        let dist = bellman_ford(&g, 0).expect("no negative cycle under A_max");
        dist.into_iter().map(|d| d.finite().unwrap()).collect()
    }

    let topologies = [
        Topology::Path(5),
        Topology::Ring(6),
        Topology::Complete(5),
        Topology::RandomConnected {
            n: 8,
            extra_per_mille: 250,
        },
    ];
    for topo in topologies {
        let sim = Simulation::builder(topo.n())
            .uniform_links(topo, us(50), us(450), 13)
            .probes(2)
            .build();
        for seed in 0..3 {
            let run = sim.run(seed);
            let outcome = run.synchronize().expect("consistent run");
            let mut online = OnlineSynchronizer::new(run.network.clone());
            for m in run.execution.views().message_observations() {
                online.observe_message(m.src, m.dst, m.send_clock, m.recv_clock);
                online.outcome().expect("consistent prefix");
            }
            let streamed = online.outcome().expect("consistent run");
            assert_eq!(
                streamed.components(),
                outcome.components(),
                "{topo:?} seed {seed}: warm components diverged from batch"
            );
            let closure = outcome.global_shift_estimates();
            for members in synchronizable_components(&closure) {
                let k = members.len();
                let sub = SquareMatrix::from_fn(k, |a, b| {
                    closure[(members[a].index(), members[b].index())]
                });
                let karp = karp_max_cycle_mean(&sub).expect("closure has cycles");
                let reference = corrections(&sub, karp.mean);
                let cycle = &karp.cycle;
                let mut total = Ratio::ZERO;
                for t in 0..cycle.len() {
                    let (from, to) = (cycle[t], cycle[(t + 1) % cycle.len()]);
                    total += sub[(from, to)].finite().expect("finite closure");
                }
                assert_eq!(
                    total * Ratio::new(1, cycle.len() as i128),
                    karp.mean,
                    "{topo:?} seed {seed}: Karp's witness does not certify"
                );
                let r = shifts(&sub, 0);
                assert_eq!(
                    r.precision, karp.mean,
                    "{topo:?} seed {seed}: shifts precision"
                );
                assert_eq!(
                    r.corrections, reference,
                    "{topo:?} seed {seed}: shifts corrections"
                );
                assert_eq!(
                    &r.critical_cycle, cycle,
                    "{topo:?} seed {seed}: shifts witness"
                );
                let howard = howard_solve(&sub, None).expect("closure has cycles");
                let cm = howard.cycle_mean;
                assert_eq!(cm.mean, karp.mean, "{topo:?} seed {seed}: Howard precision");
                assert_eq!(
                    corrections(&sub, cm.mean),
                    reference,
                    "{topo:?} seed {seed}: Howard corrections"
                );
                assert_eq!(&cm.cycle, cycle, "{topo:?} seed {seed}: Howard witness");
            }
        }
    }
}

#[test]
fn single_processor_system_is_trivially_precise() {
    let sim = Simulation::builder(1).probes(1).build();
    let run = sim.run(0);
    let outcome = run.synchronize().unwrap();
    assert_eq!(
        outcome.precision(),
        Ext::Finite(clocksync_time::Ratio::ZERO)
    );
}
