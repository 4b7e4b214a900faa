//! The SHIFTS function (paper §4.4): optimal corrections from global shift
//! estimates.
//!
//! The stage splits into two steps: `A_max` (a maximum cycle mean) and a
//! single-source shortest-path pass. Both run on the closure's gauged
//! half-nanosecond counts: the batch synchronizer and the online engine
//! hand each component over as the closure stage computed it
//! ([`ScaledMatrix`], from [`Closure::component`]), and [`shifts`] and
//! [`SyncOutcome::from_global_estimates`](crate::SyncOutcome::from_global_estimates)
//! hold their rational input as a [`Closure`] once. Cycle means do not
//! see the gauge, and the corrections pass removes it from its outputs.
//! `A_max` is Howard's policy iteration over `i64` weights: cold without a
//! warm state, restarted from the cached policy on a warm miss, and not run
//! at all when an online component's cached critical cycle still
//! certifies. The corrections pass is one dense Dijkstra pass over the
//! counts, keyed by Howard's converged bias, which the warm state keeps
//! with the cycle; only where Howard stopped at its iteration cap (and so
//! left no bias) does an early-exit Bellman–Ford over `i64` rows run
//! instead. A domain that no gauge holds takes the residual route of
//! `route.rs` as a whole. Every route computes the same exact `A_max`,
//! hence the same corrections, and reports the same canonical critical
//! cycle, so the route never shows in the output. DESIGN.md §4c gives the
//! kernel rule, the bounds, the iteration cap and the warm-start
//! invariant.

use clocksync_graph::{Bias, Closure, ScaledMatrix, SquareMatrix};
use clocksync_model::ProcessorId;
use clocksync_time::{ExtRatio, Ratio};

use crate::route::residual_shifts;

/// The output of [`shifts`] on one synchronizable component.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShiftsResult {
    /// Optimal correction for each member, in `members` order.
    pub corrections: Vec<Ratio>,
    /// The optimal precision `A_max` of the component.
    pub precision: Ratio,
    /// A cyclic processor sequence achieving the maximum average shift —
    /// the bottleneck that *forces* the precision (Theorem 4.4). Indices
    /// are into `members`. Among all such cycles this is the canonical
    /// one: a shortest cycle through the smallest processor on any of
    /// them, lexicographically first among those.
    pub critical_cycle: Vec<usize>,
}

/// Warm state of one online component, in component-local indices: the
/// certified `A_max` with its canonical critical cycle, the Howard policy
/// to restart from once that cycle stops certifying, and Howard's
/// converged bias, the corrections pass's potential — `None` when Howard
/// stopped at its cap and Karp answered. None of it depends on the
/// closure's gauge, so it survives a rebuild under a fresh one.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct ShiftsState {
    pub(crate) a_max: Ratio,
    pub(crate) cycle: Vec<usize>,
    pub(crate) policy: Vec<usize>,
    pub(crate) bias: Option<Bias>,
}

/// Runs the SHIFTS function on a *finite* closure of global shift
/// estimates (all entries of `closure` must be finite):
///
/// 1. `A_max = max_θ m̃s(θ)/|θ|` over cyclic sequences — a maximum cycle
///    mean on the complete graph of estimates (by Lemma 4.5 this equals
///    the true `A_max` over actual maximal shifts);
/// 2. corrections are shortest-path distances from `root` under
///    `w(p,q) = A_max − m̃s(p,q)` (no negative cycles by construction).
///
/// Both steps run on one copy of the closure as gauged half-nanosecond
/// counts ([`Closure::from_closed`]): integer Howard, then the integer
/// corrections pass over its bias. A closure no gauge holds takes the
/// residual route: exact Karp and the rational Bellman–Ford.
///
/// The caller (the synchronizer) is responsible for splitting the system
/// into components with finite mutual estimates first.
///
/// # Panics
///
/// Panics if `root` is out of range, if any closure entry is infinite, or
/// if the closure admits a negative cycle under the derived weights
/// (impossible for a closure that passed [`crate::global_estimates`]).
pub fn shifts(closure: &SquareMatrix<ExtRatio>, root: usize) -> ShiftsResult {
    match Closure::from_closed(closure) {
        Ok(counts) => {
            let members: Vec<usize> = (0..closure.n()).collect();
            shifts_warm(counts.component(&members), root, None).0
        }
        Err(_) => residual_shifts(closure, root),
    }
}

/// SHIFTS with incremental `A_max`, for the online synchronizer: returns
/// the result plus the [`ShiftsState`] for the next call.
///
/// When `warm` is given, the caller asserts that since that state was
/// computed the closure evolved **only by entrywise tightenings under the
/// same component partition** (the online synchronizer's `relax_edge`
/// regime, or a rebuild after tightenings only, in any gauge). Then every
/// cycle mean is ≤ its cached value, so if the cached critical cycle's
/// mean is unchanged it is still the maximum — `A_max`, cycle, and policy
/// are reused without running any cycle-mean kernel at all (`O(n)`
/// revalidation), and so is Howard's bias: every entry only fell, so it
/// is still a feasible potential at that `A_max`. Otherwise integer Howard
/// restarts from the cached policy, which is a valid seed whatever changed
/// and usually a few improvement steps from optimal. Without a usable
/// state — none, or one sized for another component — Howard starts cold,
/// and its converged policy and bias become the next state. The
/// corrections are one Dijkstra pass keyed by the bias
/// ([`ScaledMatrix::corrections`]); a state without one, from a Howard run
/// its cap cut short, takes the Bellman–Ford
/// ([`ScaledMatrix::shifted_distances`]).
///
/// # Panics
///
/// As [`shifts`].
pub(crate) fn shifts_warm(
    m: ScaledMatrix<'_>,
    root: usize,
    warm: Option<&ShiftsState>,
) -> (ShiftsResult, ShiftsState) {
    let n = m.n();
    let usable = warm
        .filter(|s| s.policy.len() == n && !s.cycle.is_empty() && s.cycle.iter().all(|&v| v < n));
    let state = match usable {
        // Tightenings only ever remove critical cycles, so a cached
        // canonical cycle that still certifies is still the canonical one.
        Some(s) if m.cycle_mean(&s.cycle) == s.a_max => s.clone(),
        _ => {
            let (sol, bias) = m.solve(usable.map(|s| s.policy.as_slice()));
            ShiftsState {
                a_max: sol.cycle_mean.mean,
                cycle: sol.cycle_mean.cycle,
                policy: sol.policy,
                bias,
            }
        }
    };
    let corrections = match &state.bias {
        Some(bias) => m.corrections(state.a_max, bias, root),
        None => m
            .shifted_distances(state.a_max, root)
            .expect("A_max-shifted closure has no negative cycles by Theorem 4.4"),
    };
    let result = ShiftsResult {
        corrections,
        precision: state.a_max,
        critical_cycle: state.cycle.clone(),
    };
    (result, state)
}

/// Groups processors into *synchronizable components*: `p` and `q` belong
/// together iff both `m̃s(p,q)` and `m̃s(q,p)` are finite, i.e. a two-sided
/// bound between their clocks exists. The relation is transitive by the
/// triangle inequality of the closure, so this is a partition.
///
/// Components are returned sorted by smallest member, members sorted
/// ascending.
pub fn synchronizable_components(closure: &SquareMatrix<ExtRatio>) -> Vec<Vec<ProcessorId>> {
    components_by(closure.n(), |p, q| closure[(p, q)].is_finite())
}

/// [`synchronizable_components`] of an `n`-node closure whose entry
/// `(p, q)` is finite exactly when `finite(p, q)`.
pub(crate) fn components_by(
    n: usize,
    finite: impl Fn(usize, usize) -> bool,
) -> Vec<Vec<ProcessorId>> {
    let mut assigned = vec![false; n];
    let mut components = Vec::new();
    for i in 0..n {
        if assigned[i] {
            continue;
        }
        let mut members = vec![ProcessorId(i)];
        assigned[i] = true;
        for (j, done) in assigned.iter_mut().enumerate().skip(i + 1) {
            if !*done && finite(i, j) && finite(j, i) {
                members.push(ProcessorId(j));
                *done = true;
            }
        }
        components.push(members);
    }
    components
}

#[cfg(test)]
mod tests {
    use super::*;
    use clocksync_graph::brute::cycle_mean;
    use clocksync_graph::{bellman_ford, howard_solve, karp_max_cycle_mean, DiGraph, Weight};
    use clocksync_time::Ext;

    /// The integer route from `warm`, as an online component runs it.
    fn shifts_howard_warm(
        closure: &SquareMatrix<ExtRatio>,
        root: usize,
        warm: Option<&ShiftsState>,
    ) -> (ShiftsResult, ShiftsState) {
        let counts = Closure::from_closed(closure).expect("test closures have counts");
        let members: Vec<usize> = (0..closure.n()).collect();
        shifts_warm(counts.component(&members), root, warm)
    }

    /// Step 2 of SHIFTS: distances from `root` under `w(p,q) = A_max − m̃s(p,q)`.
    fn corrections_under(c: &SquareMatrix<ExtRatio>, root: usize, a_max: Ratio) -> Vec<Ratio> {
        let mut g = DiGraph::new(c.n());
        for (i, j, &w) in c.iter_off_diagonal() {
            g.add_edge(i, j, Ext::Finite(a_max - w.finite().unwrap()));
        }
        let dist = bellman_ford(&g, root).expect("no negative cycle under A_max");
        dist.into_iter().map(|d| d.finite().unwrap()).collect()
    }

    fn fin(x: i128) -> ExtRatio {
        Ext::Finite(Ratio::from_int(x))
    }

    /// Closure of a two-node system with m̃s(0,1)=a, m̃s(1,0)=b.
    fn two_node(a: i128, b: i128) -> SquareMatrix<ExtRatio> {
        let mut m = SquareMatrix::filled(2, <ExtRatio as Weight>::zero());
        m[(0, 1)] = fin(a);
        m[(1, 0)] = fin(b);
        m
    }

    #[test]
    fn two_node_precision_is_half_the_uncertainty() {
        // A_max = (a + b)/2; the classic ±uncertainty/2 bound.
        let r = shifts(&two_node(6, 2), 0);
        assert_eq!(r.precision, Ratio::from_int(4));
        // Correction of root is 0; the other gets w(0,1) = A_max − m̃s(0,1).
        assert_eq!(r.corrections[0], Ratio::ZERO);
        assert_eq!(r.corrections[1], Ratio::from_int(-2));
        assert_eq!(r.critical_cycle.len(), 2);
    }

    #[test]
    fn all_kernels_agree_on_precision_and_corrections() {
        let mut tri = SquareMatrix::filled(3, <ExtRatio as Weight>::zero());
        tri[(0, 1)] = fin(10);
        tri[(1, 2)] = fin(10);
        tri[(2, 0)] = fin(10);
        tri[(1, 0)] = fin(1);
        tri[(2, 1)] = fin(1);
        tri[(0, 2)] = fin(11);
        let closures = [two_node(6, 2), two_node(0, 0), two_node(100, 1), tri];
        for c in &closures {
            // The reference: the paper's exact Karp, then the rational
            // Bellman–Ford.
            let karp = karp_max_cycle_mean(c).unwrap();
            let reference = corrections_under(c, 0, karp.mean);
            let r = shifts(c, 0);
            assert_eq!(r.precision, karp.mean, "{c:?}");
            assert_eq!(r.corrections, reference, "{c:?}");
            assert_eq!(r.critical_cycle, karp.cycle, "{c:?}");
            let howard = howard_solve(c, None).unwrap().cycle_mean;
            assert_eq!(howard.mean, karp.mean, "{c:?}");
            assert_eq!(corrections_under(c, 0, howard.mean), reference, "{c:?}");
            // Every kernel names the same witness, and it certifies.
            assert_eq!(howard.cycle, karp.cycle, "{c:?}");
            assert_eq!(cycle_mean(c, &karp.cycle), karp.mean);
        }
    }

    #[test]
    fn critical_cycle_is_canonical_among_ties() {
        // Two critical 2-cycles tie at mean 409395: 0↔1 and 1↔2. The
        // canonical one runs through the smallest critical processor.
        let rows = [
            [0, 714_592, 141_187],
            [104_198, 0, 245_385],
            [-119_647, 573_405, 0],
        ];
        let c = SquareMatrix::from_fn(3, |i, j| fin(rows[i][j]));
        let cold = shifts(&c, 0);
        assert_eq!(cold.precision, Ratio::from_int(409_395));
        assert_eq!(cold.critical_cycle, vec![0, 1]);
        // Reach the same closure warm: 1↔2 is first the only critical
        // cycle, then a tightening makes it tie, so its cached witness
        // fails revalidation and Howard runs. The outcome is the cold one.
        let mut looser = c.clone();
        looser[(1, 2)] = fin(246_385);
        let (first, state) = shifts_howard_warm(&looser, 0, None);
        assert_eq!(first.critical_cycle, vec![1, 2]);
        let (warm, _) = shifts_howard_warm(&c, 0, Some(&state));
        assert_eq!(warm, cold);
    }

    #[test]
    fn warm_state_revalidates_after_harmless_tightening() {
        // First call: cold. Tighten an entry that does NOT touch the
        // critical cycle: the cached cycle revalidates and A_max is reused.
        let mut c = two_node(6, 2);
        let (first, state) = shifts_howard_warm(&c, 0, None);
        c[(0, 1)] = fin(6); // no-op tightening
        let (second, state2) = shifts_howard_warm(&c, 0, Some(&state));
        assert_eq!(first, second);
        assert_eq!(state, state2);
    }

    #[test]
    fn warm_state_recomputes_when_the_critical_cycle_drops() {
        // Two pairs {0,1} and {2,3} with cross estimates 6 (a metric:
        // every entry obeys the triangle inequality). The 0↔1 cycle
        // (mean 10) is critical; 2↔3 (mean 8) is next.
        let mut c = SquareMatrix::from_fn(4, |i, j| {
            if i == j {
                fin(0)
            } else if i / 2 == j / 2 {
                fin(if i < 2 { 10 } else { 8 })
            } else {
                fin(6)
            }
        });
        let (first, state) = shifts_howard_warm(&c, 0, None);
        // The cold start is the one-shot SHIFTS and keeps Howard's
        // converged policy: every node leads into the critical cycle.
        assert_eq!(first, shifts(&c, 0));
        assert_eq!(first.critical_cycle, vec![0, 1]);
        assert_eq!(state.policy, [1, 0, 0, 0]);
        // Tighten an edge on the critical cycle: 0↔1 falls to mean 7, so
        // the cached witness fails revalidation and Howard restarts from
        // the cached policy, switching to the 2↔3 cycle.
        c[(0, 1)] = fin(4);
        let (warm, new_state) = shifts_howard_warm(&c, 0, Some(&state));
        let cold = shifts(&c, 0);
        assert_eq!(warm.precision, Ratio::from_int(8));
        assert_eq!(warm.precision, cold.precision);
        assert_eq!(warm.corrections, cold.corrections);
        assert_eq!(new_state.a_max, warm.precision);
        assert_eq!(cycle_mean(&c, &new_state.cycle), warm.precision);
        // Howard converged: every node now has a chosen successor.
        assert!(new_state.policy.iter().all(|&s| s < 4));
    }

    #[test]
    fn a_state_without_a_bias_takes_the_bellman_ford() {
        // A Howard run its cap cut short leaves no bias: the state still
        // revalidates, and the corrections take the Bellman–Ford, with the
        // Dijkstra pass's answer.
        let mut tri = SquareMatrix::filled(3, <ExtRatio as Weight>::zero());
        for (i, j, w) in [
            (0, 1, 10),
            (1, 2, 10),
            (2, 0, 10),
            (1, 0, 1),
            (2, 1, 1),
            (0, 2, 11),
        ] {
            tri[(i, j)] = fin(w);
        }
        let (first, mut state) = shifts_howard_warm(&tri, 1, None);
        assert!(state.bias.is_some(), "a converged run keeps its bias");
        state.bias = None;
        let (second, kept) = shifts_howard_warm(&tri, 1, Some(&state));
        assert_eq!(second, first);
        assert_eq!(kept, state);
        assert_eq!(
            second.corrections,
            corrections_under(&tri, 1, second.precision)
        );
    }

    #[test]
    fn warm_state_with_mismatched_size_is_ignored() {
        let c = two_node(6, 2);
        let stale = ShiftsState {
            a_max: Ratio::from_int(99),
            cycle: vec![0, 1, 2],
            policy: vec![0],
            bias: None,
        };
        let (r, _) = shifts_howard_warm(&c, 0, Some(&stale));
        assert_eq!(r, shifts(&c, 0));
    }

    #[test]
    fn guarantee_inequality_holds_for_all_pairs() {
        // For every p, q: m̃s(p,q) − x_p + x_q ≤ A_max (proof of Thm 4.6).
        let closures = [two_node(6, 2), two_node(0, 0), two_node(100, 1)];
        for c in closures {
            let r = shifts(&c, 0);
            for (i, j, &w) in c.iter_off_diagonal() {
                let w = w.finite().unwrap();
                assert!(
                    w - r.corrections[i] + r.corrections[j] <= r.precision,
                    "violated at ({i},{j})"
                );
            }
        }
    }

    #[test]
    fn root_choice_shifts_corrections_by_a_constant_effect() {
        // Different roots may change the corrections, but the guarantee
        // (and hence optimality) is root-independent.
        let c = two_node(6, 2);
        let r0 = shifts(&c, 0);
        let r1 = shifts(&c, 1);
        assert_eq!(r0.precision, r1.precision);
        for (i, j, &w) in c.iter_off_diagonal() {
            let w = w.finite().unwrap();
            assert!(w - r1.corrections[i] + r1.corrections[j] <= r1.precision);
        }
    }

    #[test]
    fn single_node_component() {
        let m = SquareMatrix::filled(1, <ExtRatio as Weight>::zero());
        let r = shifts(&m, 0);
        assert_eq!(r.precision, Ratio::ZERO);
        assert_eq!(r.corrections, vec![Ratio::ZERO]);
        assert_eq!(r.critical_cycle, vec![0]);
        let (rw, state) = shifts_howard_warm(&m, 0, None);
        assert_eq!(rw, r);
        assert_eq!(state.policy, vec![0]);
    }

    #[test]
    fn triangle_closure_with_asymmetric_estimates() {
        // 3 nodes; dominant 3-cycle mean.
        let mut m = SquareMatrix::filled(3, <ExtRatio as Weight>::zero());
        m[(0, 1)] = fin(10);
        m[(1, 2)] = fin(10);
        m[(2, 0)] = fin(10);
        m[(1, 0)] = fin(1);
        m[(2, 1)] = fin(1);
        m[(0, 2)] = fin(11); // keep triangle inequality: 0→2 ≤ 0→1→2 = 20
        let r = shifts(&m, 0);
        // Cycle 0→1→2→0 has mean 10; all 2-cycles have mean ≤ (11+10)/2=10.5
        // via (0,2),(2,0): (11+10)/2 = 10.5. So A_max = 21/2.
        assert_eq!(r.precision, Ratio::new(21, 2));
        for (i, j, &w) in m.iter_off_diagonal() {
            let w = w.finite().unwrap();
            assert!(w - r.corrections[i] + r.corrections[j] <= r.precision);
        }
    }

    #[test]
    fn components_partition_by_mutual_finiteness() {
        let mut m = SquareMatrix::filled(4, Ext::PosInf);
        for i in 0..4 {
            m[(i, i)] = fin(0);
        }
        // {0,1} mutually bounded, {2,3} mutually bounded, one-way 1→2 only.
        m[(0, 1)] = fin(5);
        m[(1, 0)] = fin(5);
        m[(2, 3)] = fin(5);
        m[(3, 2)] = fin(5);
        m[(1, 2)] = fin(5);
        let comps = synchronizable_components(&m);
        assert_eq!(
            comps,
            vec![
                vec![ProcessorId(0), ProcessorId(1)],
                vec![ProcessorId(2), ProcessorId(3)],
            ]
        );
    }

    #[test]
    fn fully_finite_closure_is_one_component() {
        let comps = synchronizable_components(&two_node(1, 1));
        assert_eq!(comps.len(), 1);
        assert_eq!(comps[0].len(), 2);
    }
}
