//! Property tests for the synchronization pipeline: on random admissible
//! executions the outcome must honor the paper's guarantees exactly.

use clocksync::{DelayRange, LinkAssumption, Network, Synchronizer};
use clocksync_model::{Execution, ExecutionBuilder, ProcessorId};
use clocksync_time::{Ext, Nanos, Ratio, RealTime};
use proptest::prelude::*;

/// A randomly generated instance of the bounds model: a connected graph
/// with per-link bounds, true delays inside the bounds, and hidden start
/// offsets.
#[derive(Debug, Clone)]
struct BoundsInstance {
    n: usize,
    starts: Vec<i64>,
    /// (a, b, lb, ub) with a < b.
    links: Vec<(usize, usize, i64, i64)>,
    /// Per link: k round trips with (forward_delay, backward_delay) in
    /// [lb, ub].
    traffic: Vec<Vec<(i64, i64)>>,
}

fn bounds_instance() -> impl Strategy<Value = BoundsInstance> {
    (2usize..=6).prop_flat_map(|n| {
        // Spanning-tree edges (i connects to some j < i) plus optional
        // extras, each with bounds and 1..3 round trips inside the bounds.
        let tree = proptest::collection::vec(0usize..usize::MAX, n - 1);
        let extras = proptest::collection::vec((0usize..n, 0usize..n), 0..3);
        let starts = proptest::collection::vec(-1_000_000i64..1_000_000, n);
        (tree, extras, starts, 0u64..u64::MAX).prop_map(move |(tree, extras, starts, seed)| {
            let mut links: Vec<(usize, usize, i64, i64)> = Vec::new();
            let mut push_link = |a: usize, b: usize| {
                if a != b {
                    let (a, b) = (a.min(b), a.max(b));
                    if !links.iter().any(|&(x, y, _, _)| (x, y) == (a, b)) {
                        links.push((a, b, 0, 0));
                    }
                }
            };
            for (i, t) in tree.iter().enumerate() {
                let child = i + 1;
                push_link(child, t % child);
            }
            for (a, b) in extras {
                push_link(a, b);
            }
            // Derive bounds and traffic deterministically from the seed.
            let mut state = seed | 1;
            let mut rnd = move |range: i64| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                ((state >> 33) as i64).rem_euclid(range)
            };
            let mut traffic = Vec::with_capacity(links.len());
            for link in &mut links {
                let lb = rnd(1_000);
                let width = 1 + rnd(10_000);
                link.2 = lb;
                link.3 = lb + width;
                let k = 1 + rnd(3) as usize;
                let mut trips = Vec::with_capacity(k);
                for _ in 0..k {
                    trips.push((lb + rnd(width + 1), lb + rnd(width + 1)));
                }
                traffic.push(trips);
            }
            BoundsInstance {
                n,
                starts,
                links,
                traffic,
            }
        })
    })
}

fn build_network(inst: &BoundsInstance) -> Network {
    let mut b = Network::builder(inst.n);
    for &(a, c, lb, ub) in &inst.links {
        b = b.link(
            ProcessorId(a),
            ProcessorId(c),
            LinkAssumption::symmetric_bounds(DelayRange::new(Nanos::new(lb), Nanos::new(ub))),
        );
    }
    b.build()
}

fn build_execution(inst: &BoundsInstance) -> Execution {
    let mut eb = ExecutionBuilder::new(inst.n);
    for (i, &s) in inst.starts.iter().enumerate() {
        eb = eb.start(ProcessorId(i), RealTime::from_nanos(s));
    }
    // Send everything comfortably after every start.
    let mut t = 2_000_000i64;
    for (link_idx, &(a, c, _, _)) in inst.links.iter().enumerate() {
        for &(fwd, bwd) in &inst.traffic[link_idx] {
            eb = eb
                .message(
                    ProcessorId(a),
                    ProcessorId(c),
                    RealTime::from_nanos(t),
                    Nanos::new(fwd),
                )
                .message(
                    ProcessorId(c),
                    ProcessorId(a),
                    RealTime::from_nanos(t + 100_000),
                    Nanos::new(bwd),
                );
            t += 200_000;
        }
    }
    eb.build().expect("instance construction is admissible")
}

proptest! {
    /// Soundness: the true corrected-clock discrepancy never exceeds the
    /// guaranteed precision, the guarantee is finite (the graph is
    /// connected and every link carries two-way bounded traffic), and
    /// ρ̄(our corrections) equals the precision exactly (Theorem 4.6).
    #[test]
    fn outcome_is_sound_and_tight(inst in bounds_instance()) {
        let net = build_network(&inst);
        let exec = build_execution(&inst);
        prop_assert!(net.admits(&exec));
        let outcome = Synchronizer::new(net)
            .synchronize(exec.views())
            .expect("admissible instance must synchronize");
        prop_assert!(outcome.precision().is_finite());
        prop_assert_eq!(outcome.components().len(), 1);
        let achieved = exec.discrepancy(outcome.corrections());
        prop_assert!(Ext::Finite(achieved) <= outcome.precision());
        prop_assert_eq!(outcome.rho_bar(outcome.corrections()), outcome.precision());
    }

    /// Optimality (Theorem 4.4): perturbing the corrections in any way we
    /// try never decreases ρ̄ below the optimum — including the *perfect*
    /// corrections that zero out the true offsets (the adversary can still
    /// force A_max against them).
    #[test]
    fn no_tested_vector_beats_shifts(inst in bounds_instance(), perturb in proptest::collection::vec(-10_000i64..10_000, 6)) {
        let net = build_network(&inst);
        let exec = build_execution(&inst);
        let outcome = Synchronizer::new(net).synchronize(exec.views()).unwrap();
        let optimum = outcome.rho_bar(outcome.corrections());

        // Perturbations of ours.
        let perturbed: Vec<Ratio> = outcome
            .corrections()
            .iter()
            .enumerate()
            .map(|(i, &x)| x + Ratio::from_int(perturb[i % perturb.len()] as i128))
            .collect();
        prop_assert!(outcome.rho_bar(&perturbed) >= optimum);

        // The "cheating" perfect corrections.
        let perfect: Vec<Ratio> = exec
            .starts()
            .iter()
            .map(|&s| Ratio::from(s - RealTime::ZERO))
            .collect();
        prop_assert!(outcome.rho_bar(&perfect) >= optimum);

        // All-zero corrections.
        let zeros = vec![Ratio::ZERO; inst.n];
        prop_assert!(outcome.rho_bar(&zeros) >= optimum);
    }

    /// The per-pair bounds are consistent: symmetric, at most the global
    /// precision… and at least the pairwise lower bound
    /// `(m̃s(p,q)+m̃s(q,p))/2`.
    #[test]
    fn pair_bounds_are_consistent(inst in bounds_instance()) {
        let net = build_network(&inst);
        let exec = build_execution(&inst);
        let outcome = Synchronizer::new(net).synchronize(exec.views()).unwrap();
        let closure = outcome.global_shift_estimates();
        for i in 0..inst.n {
            for j in (i + 1)..inst.n {
                let (p, q) = (ProcessorId(i), ProcessorId(j));
                let b = outcome.pair_bound(p, q);
                prop_assert_eq!(b, outcome.pair_bound(q, p));
                prop_assert!(b <= outcome.precision());
                let sum = closure[(i, j)] + closure[(j, i)];
                let half = sum.map(|r| r * Ratio::new(1, 2));
                prop_assert!(b >= half, "pair bound below pairwise optimum");
            }
        }
    }

    /// Adding a *consistent* extra assumption (decomposition, Thm 5.6)
    /// can only improve or preserve the precision.
    #[test]
    fn extra_assumptions_never_hurt(inst in bounds_instance(), slack in 0i64..100_000) {
        let exec = build_execution(&inst);
        let base_net = build_network(&inst);
        let base = Synchronizer::new(base_net).synchronize(exec.views()).unwrap();

        // Refine every link with a looser-but-valid second bounds
        // assumption (valid because it contains the original bounds).
        let mut b = Network::builder(inst.n);
        for &(x, y, lb, ub) in &inst.links {
            let original =
                LinkAssumption::symmetric_bounds(DelayRange::new(Nanos::new(lb), Nanos::new(ub)));
            let looser = LinkAssumption::symmetric_bounds(DelayRange::new(
                Nanos::new((lb - slack).max(0)),
                Nanos::new(ub + slack),
            ));
            b = b.link(
                ProcessorId(x),
                ProcessorId(y),
                LinkAssumption::all(vec![original, looser]),
            );
        }
        let refined = Synchronizer::new(b.build()).synchronize(exec.views()).unwrap();
        prop_assert!(refined.precision() <= base.precision());
        // In fact a looser extra assumption changes nothing.
        prop_assert_eq!(refined.precision(), base.precision());
    }

    /// Shift-admissibility coherence: shifting the execution by δ on one
    /// processor keeps it admissible iff δ is within the (true) maximal
    /// local shifts; in particular the outcome's guarantee survives any
    /// admissible shift we construct.
    #[test]
    fn guarantee_survives_admissible_shifts(inst in bounds_instance(), frac in 0i64..=4) {
        let net = build_network(&inst);
        let exec = build_execution(&inst);
        let outcome = Synchronizer::new(net.clone()).synchronize(exec.views()).unwrap();

        // Build a shift vector from the closure: s_i = dist(root, i) scaled
        // down; by Lemma 5.3 scaled-down distances are admissible shifts.
        let closure = outcome.global_shift_estimates();
        let scale = Ratio::new(frac as i128, 4);
        let shifts: Vec<Nanos> = (0..inst.n)
            .map(|i| {
                let d = closure[(0, i)].expect_finite("connected instance");
                (d * scale).floor_nanos()
            })
            .collect();
        let shifted = exec.shift(&shifts);
        if net.admits(&shifted) {
            let achieved = shifted.discrepancy(outcome.corrections());
            prop_assert!(Ext::Finite(achieved) <= outcome.precision());
        }
    }
}
