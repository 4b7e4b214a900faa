//! One executable check per numbered statement of the paper — the
//! reproduction's "theorem index". Each test constructs a small instance
//! with hand-computable values and verifies the statement *as stated*.

use clocksync::{
    estimated_local_shifts, global_estimates, DelayRange, LinkAssumption, Network, Synchronizer,
};
use clocksync_graph::{karp_max_cycle_mean, LinkWeights, SquareMatrix, Weight};
use clocksync_model::{Execution, ExecutionBuilder, LinkEvidence, MsgSample, ProcessorId, ViewSet};
use clocksync_time::{Ext, ExtRatio, Nanos, Ratio, RealTime};

const P: ProcessorId = ProcessorId(0);
const Q: ProcessorId = ProcessorId(1);
const R: ProcessorId = ProcessorId(2);

fn bounds(lo: i64, hi: i64) -> LinkAssumption {
    LinkAssumption::symmetric_bounds(DelayRange::new(Nanos::new(lo), Nanos::new(hi)))
}

/// The standard instance used across several checks: bounds [0,100] on
/// P–Q, one message each way with delay 40, true offset σ = 30.
fn standard() -> (Network, Execution) {
    let net = Network::builder(2).link(P, Q, bounds(0, 100)).build();
    let exec = ExecutionBuilder::new(2)
        .start(Q, RealTime::from_nanos(30))
        .message(P, Q, RealTime::from_nanos(1_000), Nanos::new(40))
        .message(Q, P, RealTime::from_nanos(2_000), Nanos::new(40))
        .build()
        .unwrap();
    (net, exec)
}

/// The closure of TRUE maximal local shifts (Lemmas 6.2/6.5 on true
/// delays), for the lemmas that talk about `ms` rather than `m̃s`.
fn true_closure(net: &Network, exec: &Execution) -> SquareMatrix<ExtRatio> {
    let samples = |src: ProcessorId, dst: ProcessorId| -> Vec<MsgSample> {
        exec.link_messages(src, dst)
            .into_iter()
            .map(|m| MsgSample {
                send_clock: m.send_clock,
                recv_clock: m.send_clock + m.delay,
            })
            .collect()
    };
    let n = exec.n();
    let mut m = SquareMatrix::from_fn(n, |i, j| {
        if i == j {
            <ExtRatio as Weight>::zero()
        } else {
            <ExtRatio as Weight>::infinity()
        }
    });
    for (a, b, assumption) in net.links() {
        let fwd = samples(a, b);
        let bwd = samples(b, a);
        let ev = LinkEvidence::from_samples(&fwd, &bwd);
        m[(a.index(), b.index())] = assumption.estimated_mls(&ev);
        m[(b.index(), a.index())] = assumption.reversed().estimated_mls(&ev.reversed());
    }
    global_estimates(&LinkWeights::from_matrix(&m)).unwrap()
}

/// Lemma 4.1 (Lundelius–Lynch): `shift(π, s)` is a history of `p` with
/// `S' = S − s`.
#[test]
fn lemma_4_1_shift_produces_histories() {
    let (_, exec) = standard();
    let shifted = exec.shift(&[Nanos::ZERO, Nanos::new(25)]);
    // Still a valid execution (views validate on reconstruction)…
    assert!(ViewSet::new(shifted.views().iter().cloned().collect()).is_ok());
    // …with the start moved by −s.
    assert_eq!(shifted.start(Q), exec.start(Q) - Nanos::new(25));
}

/// Claim 3.1: correction functions cannot distinguish equivalent
/// executions.
#[test]
fn claim_3_1_corrections_are_view_determined() {
    let (net, exec) = standard();
    let shifted = exec.shift(&[Nanos::ZERO, Nanos::new(25)]);
    assert!(exec.is_equivalent_to(&shifted));
    let sync = Synchronizer::new(net);
    assert_eq!(
        sync.synchronize(exec.views()).unwrap().corrections(),
        sync.synchronize(shifted.views()).unwrap().corrections()
    );
}

/// Claim 4.2: if `shift(α, S)` is admissible then `s_q − s_p ≤ ms(p,q)`,
/// i.e. no admissible shift exceeds the maximum.
#[test]
fn claim_4_2_admissible_shifts_are_bounded() {
    let (net, exec) = standard();
    // True mls here: min(d, ub−d) = 40 each way.
    for s in -100..=100i64 {
        let shifted = exec.shift(&[Nanos::ZERO, Nanos::new(s)]);
        let admissible = net.admits(&shifted);
        assert_eq!(admissible, (-40..=40).contains(&s), "s = {s}");
    }
}

/// Theorem 4.4 (lower bound): every correction vector suffers
/// `ρ̄ ≥ A_max` — over the constructed extreme executions.
#[test]
fn theorem_4_4_lower_bound() {
    let (net, exec) = standard();
    let outcome = Synchronizer::new(net.clone())
        .synchronize(exec.views())
        .unwrap();
    let a_max = outcome.precision().expect_finite("bounded");
    assert_eq!(a_max, Ratio::from_int(40));
    let late = exec.shift(&[Nanos::ZERO, Nanos::new(40)]);
    let early = exec.shift(&[Nanos::ZERO, Nanos::new(-40)]);
    assert!(net.admits(&late) && net.admits(&early));
    for xq in (-200..=200).step_by(7) {
        let x = vec![Ratio::ZERO, Ratio::from_int(xq)];
        assert!(late.discrepancy(&x).max(early.discrepancy(&x)) >= a_max);
    }
}

/// Lemma 4.5: the maximum average cycle weight is the same under true
/// shifts and under estimates (the start terms telescope away on cycles).
#[test]
fn lemma_4_5_estimates_preserve_cycle_means() {
    let net = Network::builder(3)
        .link(P, Q, bounds(0, 400_000))
        .link(Q, R, bounds(0, 600_000))
        .build();
    let exec = ExecutionBuilder::new(3)
        .start(Q, RealTime::from_micros(55))
        .start(R, RealTime::from_micros(-20))
        .round_trips(
            P,
            Q,
            1,
            RealTime::from_millis(2),
            Nanos::new(10),
            Nanos::from_micros(150),
            Nanos::from_micros(250),
        )
        .round_trips(
            Q,
            R,
            1,
            RealTime::from_millis(4),
            Nanos::new(10),
            Nanos::from_micros(100),
            Nanos::from_micros(480),
        )
        .build()
        .unwrap();
    let estimated = global_estimates(&estimated_local_shifts(
        &net,
        &net.link_observations(exec.views()),
    ))
    .unwrap();
    let truth = true_closure(&net, &exec);
    let a_est = karp_max_cycle_mean(&estimated).unwrap().mean;
    let a_true = karp_max_cycle_mean(&truth).unwrap().mean;
    assert_eq!(a_est, a_true);
    // The matrices themselves differ (by the start offsets)…
    assert!(estimated != truth);
}

/// Theorem 4.6 (upper bound): SHIFTS achieves `ρ̄ = A_max` exactly.
#[test]
fn theorem_4_6_upper_bound() {
    let (net, exec) = standard();
    let outcome = Synchronizer::new(net).synchronize(exec.views()).unwrap();
    assert_eq!(outcome.rho_bar(outcome.corrections()), outcome.precision());
}

/// Lemma 5.2 / Lemma 5.3: a shift vector is admissible iff every pairwise
/// difference is a locally admissible shift, and global maxima are the
/// shortest-path composition of local ones.
#[test]
fn lemmas_5_2_and_5_3_local_to_global() {
    let net = Network::builder(3)
        .link(P, Q, bounds(0, 100))
        .link(Q, R, bounds(0, 100))
        .build();
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
    // True local maxima are 50 everywhere; ms(P,R) = 100 by composition.
    let truth = true_closure(&net, &exec);
    assert_eq!(truth[(0, 2)], Ext::Finite(Ratio::from_int(100)));
    // Admissible iff BOTH pairwise differences are locally admissible:
    // shifting R by 100 requires shifting Q by 50 on the way.
    assert!(net.admits(&exec.shift(&[Nanos::ZERO, Nanos::new(50), Nanos::new(100)])));
    assert!(!net.admits(&exec.shift(&[Nanos::ZERO, Nanos::ZERO, Nanos::new(100)])));
    // And 100 is maximal: nothing beyond it is admissible at all.
    for sq in -200..=200 {
        assert!(!net.admits(&exec.shift(&[Nanos::ZERO, Nanos::new(sq), Nanos::new(101)])));
    }
}

/// Theorem 5.5: GLOBAL ESTIMATES computes `m̃s` (estimates compose along
/// shortest paths like true shifts do).
#[test]
fn theorem_5_5_global_estimates() {
    let (net, exec) = standard();
    let local = estimated_local_shifts(&net, &net.link_observations(exec.views()));
    let closure = global_estimates(&local).unwrap();
    // Two processors: closure == local off-diagonal.
    assert_eq!(closure[(0, 1)], local.get(0, 1));
    // m̃ls = mls + S_p − S_q: mls = 40, σ = 30 ⇒ m̃ls(P,Q) = 10, m̃ls(Q,P) = 70.
    assert_eq!(closure[(0, 1)], Ext::Finite(Ratio::from_int(10)));
    assert_eq!(closure[(1, 0)], Ext::Finite(Ratio::from_int(70)));
}

/// Theorem 5.6 (decomposition): `mls` under an intersection is the min of
/// the parts' `mls`.
#[test]
fn theorem_5_6_decomposition() {
    let fwd = [MsgSample {
        send_clock: clocksync_time::ClockTime::from_nanos(0),
        recv_clock: clocksync_time::ClockTime::from_nanos(300),
    }];
    let bwd = [MsgSample {
        send_clock: clocksync_time::ClockTime::from_nanos(500),
        recv_clock: clocksync_time::ClockTime::from_nanos(840),
    }];
    let ev = LinkEvidence::from_samples(&fwd, &bwd);
    let a1 = bounds(250, 400);
    let a2 = LinkAssumption::rtt_bias(Nanos::new(50));
    let both = LinkAssumption::all(vec![a1.clone(), a2.clone()]);
    assert_eq!(
        both.estimated_mls(&ev),
        a1.estimated_mls(&ev).min(a2.estimated_mls(&ev))
    );
}

/// Lemma 6.1: the estimated delay is computable from the two views —
/// concretely, it IS the receiver-clock minus sender-clock.
#[test]
fn lemma_6_1_estimated_delay_from_views() {
    let (_, exec) = standard();
    for m in exec.messages() {
        assert_eq!(m.estimated_delay, m.recv_clock - m.send_clock);
        let s_p = exec.start(m.src) - RealTime::ZERO;
        let s_q = exec.start(m.dst) - RealTime::ZERO;
        assert_eq!(m.estimated_delay, m.delay + s_p - s_q);
    }
}

/// Lemma 6.2 / Corollary 6.3: the bounds-model closed form.
#[test]
fn lemma_6_2_bounds_closed_form() {
    let (net, exec) = standard();
    let local = estimated_local_shifts(&net, &net.link_observations(exec.views()));
    // d̃(P→Q) = 10, d̃(Q→P) = 70; m̃ls(P,Q) = min(100−70, 10−0) = 10.
    assert_eq!(local.get(0, 1), Ext::Finite(Ratio::from_int(10)));
    // m̃ls(Q,P) = min(100−10, 70−0) = 70.
    assert_eq!(local.get(1, 0), Ext::Finite(Ratio::from_int(70)));
}

/// Corollary 6.4: with no bounds at all, `m̃ls(p,q) = d̃min(p,q)` — and the
/// paper's headline: asynchronous links still admit finite per-instance
/// precision.
#[test]
fn corollary_6_4_no_bounds() {
    let net = Network::builder(2)
        .link(P, Q, LinkAssumption::no_bounds())
        .build();
    let exec = ExecutionBuilder::new(2)
        .start(Q, RealTime::from_nanos(30))
        .message(P, Q, RealTime::from_nanos(1_000), Nanos::new(40))
        .message(Q, P, RealTime::from_nanos(2_000), Nanos::new(40))
        .build()
        .unwrap();
    let outcome = Synchronizer::new(net).synchronize(exec.views()).unwrap();
    // m̃ls(P,Q) = d̃min = 10, m̃ls(Q,P) = 70 ⇒ A_max = 40 = RTT/2.
    assert_eq!(outcome.precision(), Ext::Finite(Ratio::from_int(40)));
}

/// Lemma 6.5 / Corollary 6.6: the round-trip-bias closed form.
#[test]
fn lemma_6_5_bias_closed_form() {
    let b = 20i64;
    let net = Network::builder(2)
        .link(P, Q, LinkAssumption::rtt_bias(Nanos::new(b)))
        .build();
    let exec = ExecutionBuilder::new(2)
        .start(Q, RealTime::from_nanos(30))
        .message(P, Q, RealTime::from_nanos(1_000), Nanos::new(40))
        .message(Q, P, RealTime::from_nanos(2_000), Nanos::new(50))
        .build()
        .unwrap();
    assert!(net.admits(&exec));
    let local = estimated_local_shifts(&net, &net.link_observations(exec.views()));
    // d̃(P→Q) = 10, d̃(Q→P) = 80.
    // m̃ls(P,Q) = min(10, (20 + 10 − 80)/2) = −25.
    assert_eq!(local.get(0, 1), Ext::Finite(Ratio::new(-25, 1)));
    // m̃ls(Q,P) = min(80, (20 + 80 − 10)/2) = 45.
    assert_eq!(local.get(1, 0), Ext::Finite(Ratio::from_int(45)));
    // A_max = (−25 + 45)/2 = 10: the bias model pins the pair to ±10ns
    // even though no delay bound exists at all.
    let outcome = Synchronizer::new(net).synchronize(exec.views()).unwrap();
    assert_eq!(outcome.precision(), Ext::Finite(Ratio::from_int(10)));
}
