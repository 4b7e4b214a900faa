//! Mechanical verification of the paper's optimality theorems (E10):
//! explicit equivalent executions realize the `A_max` lower bound, no
//! correction vector beats SHIFTS, and no instance does worse than the
//! Lundelius–Lynch optimum on complete graphs.

use clocksync::{
    estimated_local_shifts, global_estimates, DelayRange, LinkAssumption, Network,
    OnlineSynchronizer, SyncOutcome, Synchronizer,
};
use clocksync_model::{Execution, ExecutionBuilder, ProcessorId};
use clocksync_time::{Ext, Nanos, Ratio, RealTime};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const P: ProcessorId = ProcessorId(0);
const Q: ProcessorId = ProcessorId(1);
const R: ProcessorId = ProcessorId(2);

/// Two-node bounds instance with hand-computable everything.
/// Bounds [0, 100] both directions, one message each way with true delay
/// 40, true offset σ = 30.
fn two_node() -> (Network, Execution) {
    let net = Network::builder(2)
        .link(
            P,
            Q,
            LinkAssumption::symmetric_bounds(DelayRange::new(Nanos::ZERO, Nanos::new(100))),
        )
        .build();
    let exec = ExecutionBuilder::new(2)
        .start(Q, RealTime::from_nanos(30))
        .message(P, Q, RealTime::from_nanos(1_000), Nanos::new(40))
        .message(Q, P, RealTime::from_nanos(2_000), Nanos::new(40))
        .build()
        .unwrap();
    (net, exec)
}

/// True maximal local shifts for the two-node instance:
/// mls(P,Q) = min(d(P→Q), U − d(Q→P)) = min(40, 60) = 40;
/// mls(Q,P) = min(40, 60) = 40. A_max = 40.
#[test]
fn lower_bound_is_realized_by_explicit_shifts() {
    let (net, exec) = two_node();
    let outcome = Synchronizer::new(net.clone())
        .synchronize(exec.views())
        .unwrap();
    assert_eq!(outcome.precision(), Ext::Finite(Ratio::from_int(40)));

    // Shift q as late as possible w.r.t. p (s = +40) and as early as
    // possible (s = −40): both are admissible and equivalent to exec.
    let late = exec.shift(&[Nanos::ZERO, Nanos::new(40)]);
    let early = exec.shift(&[Nanos::ZERO, Nanos::new(-40)]);
    for (name, shifted) in [("late", &late), ("early", &early)] {
        assert!(net.admits(shifted), "{name} shift must stay admissible");
        assert!(exec.is_equivalent_to(shifted), "{name} shift equivalence");
    }
    // One more nanosecond breaks admissibility — the shifts are maximal.
    assert!(!net.admits(&exec.shift(&[Nanos::ZERO, Nanos::new(41)])));
    assert!(!net.admits(&exec.shift(&[Nanos::ZERO, Nanos::new(-41)])));

    // The adversary argument: the two extreme executions together force
    // precision ≥ 40 on ANY correction vector, because the relative start
    // offset differs by 80 between them.
    let spread = (late.start(Q) - late.start(P)) - (early.start(Q) - early.start(P));
    assert_eq!(spread, Nanos::new(-80));
    for x1 in (-100..=100).step_by(10) {
        let x = vec![Ratio::ZERO, Ratio::from_int(x1)];
        let worst = late.discrepancy(&x).max(early.discrepancy(&x));
        assert!(
            worst >= Ratio::from_int(40),
            "corrections (0, {x1}) beat the lower bound: {worst}"
        );
    }

    // Our corrections meet the bound with equality on both extremes.
    let ours = outcome.corrections();
    assert!(late.discrepancy(ours) <= Ratio::from_int(40));
    assert!(early.discrepancy(ours) <= Ratio::from_int(40));
}

#[test]
fn critical_cycle_certifies_the_precision() {
    let (net, exec) = two_node();
    let outcome = Synchronizer::new(net).synchronize(exec.views()).unwrap();
    let comp = &outcome.components()[0];
    // The critical cycle's mean estimated shift equals the precision.
    let cycle = &comp.critical_cycle;
    let mut total = Ratio::ZERO;
    for i in 0..cycle.len() {
        let (from, to) = (cycle[i], cycle[(i + 1) % cycle.len()]);
        total += outcome
            .global_shift_estimate(from, to)
            .finite()
            .expect("finite closure");
    }
    let mean = total * Ratio::new(1, cycle.len() as i128);
    assert_eq!(mean, comp.precision);
}

#[test]
fn every_kernel_realizes_the_same_lower_bound() {
    // The optimality theorems do not care which A_max engine ran: on the
    // hand-computed two-node instance, the one-shot SHIFTS and Howard's
    // policy iteration both certify exactly A_max = 40, with the witness
    // and corrections of the paper's exact Karp followed by Bellman–Ford.
    use clocksync::shifts;
    use clocksync_graph::{bellman_ford, howard_solve, karp_max_cycle_mean, DiGraph};
    let (net, exec) = two_node();
    let outcome = Synchronizer::new(net).synchronize(exec.views()).unwrap();
    let closure = outcome.global_shift_estimates();
    let karp = karp_max_cycle_mean(&closure).unwrap();
    let mut g = DiGraph::new(closure.n());
    for (a, b, &w) in closure.iter_off_diagonal() {
        g.add_edge(a, b, Ext::Finite(karp.mean - w.finite().unwrap()));
    }
    let reference: Vec<Ratio> = bellman_ford(&g, 0)
        .unwrap()
        .into_iter()
        .map(|d| d.finite().unwrap())
        .collect();
    assert_eq!(karp.mean, Ratio::from_int(40));
    assert_eq!(Ext::Finite(karp.mean), outcome.precision());
    assert_eq!(reference, outcome.corrections());

    let r = shifts(&closure, 0);
    assert_eq!(r.precision, karp.mean);
    assert_eq!(r.corrections, reference);
    assert_eq!(r.critical_cycle, karp.cycle);
    assert_eq!(howard_solve(&closure, None).unwrap().cycle_mean, karp);
}

/// A path instance where the global (closure) cycle dominates any single
/// link: the 2-cycle P↔R through the closure has mean larger than each
/// link's own cycle, exercising the Karp-on-closure subtlety.
#[test]
fn closure_cycles_dominate_link_cycles() {
    let net = Network::builder(3)
        .link(
            P,
            Q,
            LinkAssumption::symmetric_bounds(DelayRange::new(Nanos::ZERO, Nanos::new(100))),
        )
        .link(
            Q,
            R,
            LinkAssumption::symmetric_bounds(DelayRange::new(Nanos::ZERO, Nanos::new(100))),
        )
        .build();
    // Both links balanced: mls = 50 in all four directions.
    let exec = ExecutionBuilder::new(3)
        .round_trips(
            P,
            Q,
            1,
            RealTime::from_nanos(1_000),
            Nanos::new(10),
            Nanos::new(50),
            Nanos::new(50),
        )
        .round_trips(
            Q,
            R,
            1,
            RealTime::from_nanos(2_000),
            Nanos::new(10),
            Nanos::new(50),
            Nanos::new(50),
        )
        .build()
        .unwrap();
    let outcome = Synchronizer::new(net.clone())
        .synchronize(exec.views())
        .unwrap();
    // Per-link uncertainty would suggest 50; the P–R closure cycle forces
    // (100 + 100)/2 = 100.
    assert_eq!(outcome.precision(), Ext::Finite(Ratio::from_int(100)));

    // Realize it: shift R by the full closure distance 100 — admissible.
    let shifted = exec.shift(&[Nanos::ZERO, Nanos::new(50), Nanos::new(100)]);
    assert!(net.admits(&shifted));
    assert!(exec.is_equivalent_to(&shifted));
    // And 101 is not (with any intermediate q-shift in this discrete grid).
    for sq in -200..=200 {
        let bad = exec.shift(&[Nanos::ZERO, Nanos::new(sq), Nanos::new(101)]);
        assert!(!net.admits(&bad), "sq={sq} admitted an over-shift");
    }
}

#[test]
fn rho_bar_grid_search_never_beats_shifts() {
    // Exhaustive-ish optimality check on a triangle with asymmetric mixed
    // assumptions.
    let net = Network::builder(3)
        .link(
            P,
            Q,
            LinkAssumption::bounds(
                DelayRange::new(Nanos::new(10), Nanos::new(200)),
                DelayRange::at_least(Nanos::new(10)),
            ),
        )
        .link(Q, R, LinkAssumption::rtt_bias(Nanos::new(80)))
        .link(P, R, LinkAssumption::no_bounds())
        .build();
    let exec = ExecutionBuilder::new(3)
        .start(Q, RealTime::from_nanos(55))
        .start(R, RealTime::from_nanos(-20))
        .round_trips(
            P,
            Q,
            2,
            RealTime::from_nanos(1_000),
            Nanos::new(500),
            Nanos::new(60),
            Nanos::new(90),
        )
        .round_trips(
            Q,
            R,
            2,
            RealTime::from_nanos(5_000),
            Nanos::new(500),
            Nanos::new(120),
            Nanos::new(70),
        )
        .round_trips(
            P,
            R,
            1,
            RealTime::from_nanos(9_000),
            Nanos::new(500),
            Nanos::new(40),
            Nanos::new(90),
        )
        .build()
        .unwrap();
    assert!(net.admits(&exec));
    let outcome = Synchronizer::new(net).synchronize(exec.views()).unwrap();
    let best = outcome.rho_bar(outcome.corrections());
    assert_eq!(Ext::Finite(outcome.components()[0].precision), best);

    let ours = outcome.corrections();
    let step = Ratio::new(5, 1);
    for dq in -20..=20 {
        for dr in -20..=20 {
            let x = vec![
                ours[0],
                ours[1] + step * Ratio::from_int(dq),
                ours[2] + step * Ratio::from_int(dr),
            ];
            assert!(
                outcome.rho_bar(&x) >= best,
                "grid point ({dq},{dr}) beats SHIFTS"
            );
        }
    }
}

#[test]
fn favorable_instances_get_better_certificates() {
    // Per-instance optimality beats worst-case tuning (E8): the same
    // system, probed on a lucky day (delays near the RTT that pins the
    // window), certifies better than on an unlucky one.
    let net = |u: i64| {
        Network::builder(2)
            .link(
                P,
                Q,
                LinkAssumption::symmetric_bounds(DelayRange::new(Nanos::ZERO, Nanos::new(u))),
            )
            .build()
    };
    // Lucky: tiny actual delays ⇒ mls = min(d, U−d) small.
    let lucky = ExecutionBuilder::new(2)
        .round_trips(
            P,
            Q,
            1,
            RealTime::from_nanos(1_000),
            Nanos::new(10),
            Nanos::new(5),
            Nanos::new(5),
        )
        .build()
        .unwrap();
    // Unlucky: delays in the middle of the window.
    let unlucky = ExecutionBuilder::new(2)
        .round_trips(
            P,
            Q,
            1,
            RealTime::from_nanos(1_000),
            Nanos::new(10),
            Nanos::new(500),
            Nanos::new(500),
        )
        .build()
        .unwrap();
    let p_lucky = Synchronizer::new(net(1_000))
        .synchronize(lucky.views())
        .unwrap()
        .precision();
    let p_unlucky = Synchronizer::new(net(1_000))
        .synchronize(unlucky.views())
        .unwrap()
        .precision();
    assert_eq!(p_lucky, Ext::Finite(Ratio::from_int(5)));
    assert_eq!(p_unlucky, Ext::Finite(Ratio::from_int(500)));
    // A worst-case-optimal algorithm would certify U/2 = 500 in BOTH runs.
    assert!(p_lucky < p_unlucky);
}

#[test]
fn decomposition_is_exactly_the_min_of_parts() {
    // Theorem 5.6 end-to-end: synchronize under bounds-only, bias-only and
    // the conjunction; the conjunction's closure entries are the pointwise
    // min of the parts'.
    let exec = ExecutionBuilder::new(2)
        .start(Q, RealTime::from_nanos(12))
        .round_trips(
            P,
            Q,
            2,
            RealTime::from_nanos(1_000),
            Nanos::new(777),
            Nanos::new(300),
            Nanos::new(340),
        )
        .build()
        .unwrap();
    let bounds =
        LinkAssumption::symmetric_bounds(DelayRange::new(Nanos::new(250), Nanos::new(400)));
    let bias = LinkAssumption::rtt_bias(Nanos::new(50));
    let under = |a: LinkAssumption| {
        let net = Network::builder(2).link(P, Q, a).build();
        Synchronizer::new(net).synchronize(exec.views()).unwrap()
    };
    let o_bounds = under(bounds.clone());
    let o_bias = under(bias.clone());
    let o_both = under(LinkAssumption::all(vec![bounds, bias]));
    for (i, j) in [(0usize, 1usize), (1, 0)] {
        let (p, q) = (ProcessorId(i), ProcessorId(j));
        let expected = o_bounds
            .global_shift_estimate(p, q)
            .min(o_bias.global_shift_estimate(p, q));
        assert_eq!(o_both.global_shift_estimate(p, q), expected);
    }
    assert!(o_both.precision() <= o_bounds.precision());
    assert!(o_both.precision() <= o_bias.precision());
}

/// A complete graph on `n` clocks started up to a second apart (drawn
/// from `seed`), every link declared `symmetric_bounds([lo, lo + u])`,
/// and `probes` messages each way on every pair; `delay(src, dst)` gives
/// each message's delay.
fn complete_instance(
    n: usize,
    probes: usize,
    (lo, u): (i64, i64),
    seed: u64,
    mut delay: impl FnMut(usize, usize) -> i64,
) -> (Network, Execution) {
    let mut rng = StdRng::seed_from_u64(seed);
    let bounds =
        LinkAssumption::symmetric_bounds(DelayRange::new(Nanos::new(lo), Nanos::new(lo + u)));
    let spread = 1_000_000_000;
    let mut net = Network::builder(n);
    let mut exec = ExecutionBuilder::new(n);
    for p in 0..n {
        exec = exec.start(
            ProcessorId(p),
            RealTime::from_nanos(rng.gen_range(0..=spread)),
        );
    }
    let mut at = spread + 1_000;
    for p in 0..n {
        for q in p + 1..n {
            net = net.link(ProcessorId(p), ProcessorId(q), bounds.clone());
            for _ in 0..probes {
                for (src, dst) in [(p, q), (q, p)] {
                    let d = Nanos::new(delay(src, dst));
                    let sent = RealTime::from_nanos(at);
                    exec = exec.message(ProcessorId(src), ProcessorId(dst), sent, d);
                    at += 10_000;
                }
            }
        }
    }
    (net.build(), exec.build().expect("delays within the bounds"))
}

/// `A_max` of the instance on each of the three ways an outcome is built:
/// batch `synchronize`, the online engine fed message by message from a
/// warm cache, and `SyncOutcome::from_global_estimates` on the closed
/// estimates, as the distributed leader builds it.
fn a_max_three_ways(net: &Network, exec: &Execution) -> [(&'static str, Ext<Ratio>); 3] {
    let batch = Synchronizer::new(net.clone())
        .synchronize(exec.views())
        .unwrap();
    let mut online = OnlineSynchronizer::new(net.clone());
    online.outcome().unwrap();
    for m in exec.views().message_observations() {
        online.observe_message(m.src, m.dst, m.send_clock, m.recv_clock);
    }
    let streamed = online.outcome().unwrap();
    let local = estimated_local_shifts(net, &net.link_observations(exec.views()));
    let leader = SyncOutcome::from_global_estimates(global_estimates(&local).unwrap());
    for outcome in [&batch, &streamed, &leader] {
        assert!(outcome.is_fully_synchronized(), "a complete graph split");
    }
    [
        ("batch", batch.precision()),
        ("online", streamed.precision()),
        ("leader", leader.precision()),
    ]
}

/// The Lundelius–Lynch optimum `u(1 − 1/n)`, exactly.
fn lundelius_lynch(n: usize, u: i64) -> Ext<Ratio> {
    Ext::Finite(Ratio::from_int(i128::from(u)) * Ratio::new(n as i128 - 1, n as i128))
}

/// Lundelius and Lynch's worst case: every message up the index order
/// takes `lo + u` and every message down takes `lo`. Then `m̃s(p, q)` is
/// `u` for `p < q` and `0` for `p > q`, and the cycle `0 → 1 → … → n−1 →
/// 0` averages exactly `u(1 − 1/n)`.
#[test]
fn the_lundelius_lynch_execution_attains_the_bound() {
    let (lo, u) = (1_000, 3_001);
    for n in 2..=7 {
        for probes in 1..=2 {
            let up_slow = |src: usize, dst: usize| if src < dst { lo + u } else { lo };
            let (net, exec) = complete_instance(n, probes, (lo, u), n as u64, up_slow);
            for (name, a_max) in a_max_three_ways(&net, &exec) {
                assert_eq!(a_max, lundelius_lynch(n, u), "{name}, n = {n}");
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Lundelius and Lynch show that `n` clocks linked pairwise by delays
    /// in `[lo, lo + u]` can always be synchronized to within
    /// `u(1 − 1/n)`, and no better in the worst case. The per-instance
    /// optimum `A_max` can therefore never exceed it: an analytic bound
    /// that trusts nothing in the pipeline. Checked exactly, in `Ratio`,
    /// on all three ways an outcome is built. Half the delays sit at an
    /// end of the range, where the bound is reached.
    #[test]
    fn complete_graphs_meet_the_lundelius_lynch_bound(
        n in 2usize..=7,
        probes in 1usize..=3,
        lo in 0i64..=5_000,
        u in 0i64..=5_000,
        seed in any::<u64>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed.rotate_left(17));
        let delay = |_: usize, _: usize| match rng.gen_range(0..4) {
            0 => lo,
            1 => lo + u,
            _ => lo + rng.gen_range(0..=u),
        };
        let (net, exec) = complete_instance(n, probes, (lo, u), seed, delay);
        let bound = lundelius_lynch(n, u);
        for (name, a_max) in a_max_three_ways(&net, &exec) {
            prop_assert!(a_max <= bound, "{name}: A_max {a_max} above u(1 - 1/n) = {bound}");
        }
    }
}
