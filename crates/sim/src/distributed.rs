//! A distributed implementation of the synchronizer — the centralized
//! leader protocol the paper sketches in its Discussion (§7).
//!
//! The paper's algorithm is a *correction function*: it assumes the views
//! are available in one place. §7 outlines how to distribute it:
//!
//! > "Each pair of neighboring processors p and q compute mls(p,q) and
//! > mls(q,p) using the estimated delays (which can be deduced from their
//! > views). All processors send the estimated maximum local shifts to a
//! > distinguished processor (leader). The leader computes the estimated
//! > maximum global shifts using function GLOBAL ESTIMATES, and a
//! > correction value for each processor according to function SHIFTS.
//! > Finally, the leader sends the corrections to the processors."
//!
//! [`Simulation::run_distributed`] runs exactly that protocol *inside*
//! the simulator, under the scenario's fault plan and recorder:
//!
//! 1. **Probe phase** — each link's lower endpoint sends timestamped
//!    probes; the peer echoes, returning its receive/send clock readings,
//!    so the initiator reconstructs both directions' samples (this is how
//!    real protocols sidestep the fact that one view alone cannot compute
//!    an estimated delay).
//! 2. **Report phase** — when a link's probes complete, the initiator
//!    evaluates the link's `m̃ls` in both orientations and sends the pair
//!    up a spanning tree to the leader (processor 0).
//! 3. **Compute & distribute** — the leader holds the reports per
//!    declared link, runs GLOBAL ESTIMATES + SHIFTS
//!    ([`SyncOutcome::from_local_estimates`]) and routes each correction
//!    back down the tree.
//!
//! As §7 notes, the result is optimal with respect to the *probe-phase*
//! views: the report/correction traffic itself carries timing information
//! the corrections do not exploit (an inherent chicken-and-egg the paper
//! leaves open). The tests verify both that the guarantee holds against
//! ground truth and that an omniscient centralized run (which *does* see
//! the report traffic) is at least as precise.

use std::collections::{HashMap, HashSet};

use clocksync::{
    DegradationReason, LinkAssumption, LinkDegradation, LinkWeights, Network, SyncOutcome,
};
use clocksync_model::{Execution, LinkEvidence, MsgSample, ProcessorId};
use clocksync_obs::{FieldValue, Recorder};
use clocksync_time::{ClockTime, Ext, ExtRatio, Nanos, Ratio};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::engine::{Process, ProcessCtx};
use crate::faults::FaultLog;
use crate::scenario::Simulation;

/// How long past the last scheduled probe round the leader waits for
/// reports under a fault plan before it computes from what arrived.
const REPORT_TIMEOUT: Nanos = Nanos::from_millis(50);

/// Messages of the distributed protocol.
#[derive(Debug, Clone)]
enum DistMsg {
    /// A timestamped probe from a link initiator.
    Probe { sent_clock: ClockTime },
    /// The responder's echo, carrying everything the initiator needs to
    /// reconstruct both directions' samples: the probe's own send clock,
    /// the responder's clock when it arrived and when the echo left.
    Echo {
        probe_sent_clock: ClockTime,
        probe_recv_clock: ClockTime,
        sent_clock: ClockTime,
    },
    /// A link's estimated maximal local shifts `m̃ls(a, b)` and
    /// `m̃ls(b, a)`, en route to the leader.
    Report {
        a: ProcessorId,
        b: ProcessorId,
        mls_ab: ExtRatio,
        mls_ba: ExtRatio,
    },
    /// A correction on its way from the leader to `target`.
    Correction { target: ProcessorId, value: Ratio },
}

/// One protocol participant.
struct Node {
    probes: usize,
    spacing: Nanos,
    initial_delay: Nanos,
    rounds_fired: usize,
    /// Links this node initiates: peer → assumption oriented self → peer.
    initiate: HashMap<ProcessorId, LinkAssumption>,
    fwd_samples: HashMap<ProcessorId, Vec<MsgSample>>,
    bwd_samples: HashMap<ProcessorId, Vec<MsgSample>>,
    /// Peers whose link report was already produced (guards against
    /// duplicated echoes triggering a second report).
    reported: HashSet<ProcessorId>,
    /// The clock at which the pending probe-round timer will fire.
    next_probe_at: Option<ClockTime>,
    /// Next hop toward the leader (None at the leader).
    parent: Option<ProcessorId>,
    /// Next hop toward each processor in this node's subtree.
    route_down: HashMap<ProcessorId, ProcessorId>,
    /// This processor's correction, once it arrived.
    correction: Option<Ratio>,
    /// The leader's state; `None` at every other processor.
    leader: Option<Leader>,
}

/// What only the leader holds.
struct Leader {
    /// `m̃ls` on both directions of every declared link, `+∞` until the
    /// link's report arrives.
    reports: LinkWeights<ExtRatio>,
    /// Whether each slot's report arrived (duplicate reports on a lossy
    /// network must count once).
    heard: Vec<bool>,
    /// Declared links whose report has not arrived.
    missing: usize,
    /// Under a fault plan, the report deadline: if not every report
    /// arrived by this clock reading, compute from what is there — a
    /// partial-but-optimal answer for the reachable part.
    deadline: Option<ClockTime>,
    /// The outcome, once computed.
    outcome: Option<SyncOutcome>,
    recorder: Recorder,
}

impl Node {
    fn deliver_report(
        &mut self,
        (a, b, mls_ab, mls_ba): (ProcessorId, ProcessorId, ExtRatio, ExtRatio),
        via: ProcessorId,
        ctx: &mut ProcessCtx<DistMsg>,
    ) {
        let Some(leader) = self.leader.as_mut() else {
            let parent = self.parent.expect("non-leader has a parent");
            ctx.send(
                parent,
                DistMsg::Report {
                    a,
                    b,
                    mls_ab,
                    mls_ba,
                },
            );
            return;
        };
        if leader.outcome.is_some() {
            // The deadline already fired: the answer is out. A late
            // report cannot be folded in retroactively.
            return;
        }
        let table = leader.reports.table();
        let ab = table
            .slot(a.index(), b.index())
            .expect("reports name declared links");
        let ba = table.reverse(ab);
        if !leader.heard[ab] {
            if leader.recorder.is_enabled() {
                // Report latency per subtree: `via` is the leader's child
                // whose subtree produced this link's report, and
                // `clock_ns` is the leader clock at arrival.
                leader.recorder.event(
                    "dist.report",
                    [
                        ("a", FieldValue::from(a.index())),
                        ("b", FieldValue::from(b.index())),
                        ("via", FieldValue::from(via.index())),
                        ("clock_ns", FieldValue::from(ctx.clock().as_nanos())),
                    ],
                );
            }
            (leader.heard[ab], leader.heard[ba]) = (true, true);
            (leader.reports[ab], leader.reports[ba]) = (mls_ab, mls_ba);
            leader.missing -= 1;
        }
        if leader.missing == 0 {
            self.leader_compute(ctx);
        }
    }

    fn leader_compute(&mut self, ctx: &mut ProcessCtx<DistMsg>) {
        let leader = self.leader.as_mut().expect("only the leader computes");
        let expected = leader.reports.table().len() / 2;
        if leader.recorder.is_enabled() {
            let mut fields = vec![
                ("reports", FieldValue::from(expected - leader.missing)),
                ("expected", FieldValue::from(expected)),
            ];
            if let Some(deadline) = leader.deadline {
                // Positive margin: the leader finished before its deadline;
                // zero: the deadline itself forced a partial compute.
                let margin = deadline.as_nanos() - ctx.clock().as_nanos();
                fields.push(("deadline_margin_ns", FieldValue::from(margin)));
            }
            leader.recorder.event("dist.compute", fields);
        }
        // Reachability audit: this expect is a real invariant, not a
        // reachable panic. Reports are extremal estimates computed from a
        // genuine execution, so the generating clock offsets satisfy every
        // constraint and no negative cycle can exist (Lemma 6.2 direction
        // of Theorem 5.2); fault injection only *removes* reports (drops,
        // link-down, crashes), leaving +∞ entries, which cannot create
        // inconsistency either.
        let mut outcome = SyncOutcome::from_local_estimates(&leader.reports)
            .expect("honest reports cannot be inconsistent");
        // Links that never reported stayed +∞; record why.
        let degradations = (leader.reports.table().links())
            .filter(|&(_, _, slot)| !leader.heard[slot])
            .map(|(a, b, _)| LinkDegradation {
                a: ProcessorId(a),
                b: ProcessorId(b),
                reason: DegradationReason::Unreported,
            })
            .collect();
        outcome.set_degradations(degradations);
        self.correction = Some(outcome.correction(ctx.id()));
        for i in 0..outcome.corrections().len() {
            let target = ProcessorId(i);
            if target == ctx.id() {
                continue;
            }
            let hop = self.route_down[&target];
            ctx.send(
                hop,
                DistMsg::Correction {
                    target,
                    value: outcome.correction(target),
                },
            );
        }
        leader.outcome = Some(outcome);
    }
}

impl Process<DistMsg> for Node {
    fn on_start(&mut self, ctx: &mut ProcessCtx<DistMsg>) {
        if let Some(at) = self.leader.as_ref().and_then(|l| l.deadline) {
            ctx.set_timer(at);
        }
        if !self.initiate.is_empty() {
            let at = ClockTime::ZERO + self.initial_delay;
            self.next_probe_at = Some(at);
            ctx.set_timer(at);
        } else if self.leader.as_ref().is_some_and(|l| l.missing == 0) {
            // Degenerate linkless system: nothing to wait for.
            self.leader_compute(ctx);
        }
    }

    fn on_timer(&mut self, ctx: &mut ProcessCtx<DistMsg>) {
        // Two kinds of timer can be pending (the next probe round, and at
        // the leader the report deadline); the firing clock tells them
        // apart, since timers fire exactly at the clock they were set for.
        if self.next_probe_at == Some(ctx.clock()) {
            self.next_probe_at = None;
            // Sorted so the send order (and hence the engine's delay-rng
            // draw order) is independent of the map's hash state.
            let mut peers: Vec<ProcessorId> = self.initiate.keys().copied().collect();
            peers.sort_unstable();
            for peer in peers {
                ctx.send(
                    peer,
                    DistMsg::Probe {
                        sent_clock: ctx.clock(),
                    },
                );
            }
            self.rounds_fired += 1;
            if self.rounds_fired < self.probes {
                let at = ctx.clock() + self.spacing;
                self.next_probe_at = Some(at);
                ctx.set_timer(at);
            }
        } else if let Some(leader) = &self.leader {
            if leader.deadline == Some(ctx.clock()) && leader.outcome.is_none() {
                // Whoever has not reported by now is presumed unreachable:
                // answer with the evidence that made it through.
                self.leader_compute(ctx);
            }
        }
    }

    fn on_message(&mut self, from: ProcessorId, payload: DistMsg, ctx: &mut ProcessCtx<DistMsg>) {
        match payload {
            DistMsg::Probe { sent_clock } => {
                ctx.send(
                    from,
                    DistMsg::Echo {
                        probe_sent_clock: sent_clock,
                        probe_recv_clock: ctx.clock(),
                        sent_clock: ctx.clock(),
                    },
                );
            }
            DistMsg::Echo {
                probe_sent_clock,
                probe_recv_clock,
                sent_clock,
            } => {
                self.fwd_samples.entry(from).or_default().push(MsgSample {
                    send_clock: probe_sent_clock,
                    recv_clock: probe_recv_clock,
                });
                self.bwd_samples.entry(from).or_default().push(MsgSample {
                    send_clock: sent_clock,
                    recv_clock: ctx.clock(),
                });
                if self.fwd_samples[&from].len() >= self.probes && !self.reported.contains(&from) {
                    self.reported.insert(from);
                    let assumption = self.initiate[&from].clone();
                    let ev = LinkEvidence::from_samples(
                        &self.fwd_samples[&from],
                        &self.bwd_samples[&from],
                    );
                    let mls_ab = assumption.estimated_mls(&ev);
                    let mls_ba = assumption.reversed().estimated_mls(&ev.reversed());
                    let report = (ctx.id(), from, mls_ab, mls_ba);
                    self.deliver_report(report, ctx.id(), ctx);
                }
            }
            DistMsg::Report {
                a,
                b,
                mls_ab,
                mls_ba,
            } => {
                self.deliver_report((a, b, mls_ab, mls_ba), from, ctx);
            }
            DistMsg::Correction { target, value } => {
                if target == ctx.id() {
                    self.correction = Some(value);
                } else {
                    let hop = self.route_down[&target];
                    ctx.send(hop, DistMsg::Correction { target, value });
                }
            }
        }
    }
}

/// A completed run of the distributed leader protocol: what each
/// processor ended up with.
///
/// Under a fault plan nothing here is guaranteed total: a crashed (or
/// partitioned-off) processor holds no correction, and if the leader
/// itself crashed before computing there is no outcome at all.
#[derive(Debug, Clone)]
pub struct DistRun {
    /// The full recorded execution (probes, echoes, reports, corrections),
    /// faults applied.
    pub execution: Execution,
    /// The declared network.
    pub network: Network,
    /// The correction each processor ended up holding (`None`: crashed, or
    /// the correction message never reached it).
    pub corrections: Vec<Option<Ratio>>,
    /// The leader's outcome — corrections, per-component precision
    /// certified from probe-phase evidence, and
    /// [`Unreported`](DegradationReason::Unreported) degradations for links
    /// whose report missed the deadline. `None` if the leader crashed
    /// before computing.
    pub outcome: Option<SyncOutcome>,
    /// The `m̃ls` reports the leader accepted, on the network's link
    /// table: `+∞` on both directions of a link whose report it never
    /// accepted. When the leader computed, exactly the evidence its
    /// outcome was computed from.
    pub reports: LinkWeights<ExtRatio>,
    /// What the fault plan actually did.
    pub faults: FaultLog,
}

impl Simulation {
    /// Runs the distributed leader protocol of §7 over the scenario on the
    /// engine, under its fault plan and recorder: the scenario's links,
    /// assumptions, probe count, spacing and start spread. Under a
    /// non-empty plan the leader arms a report deadline, 50 ms past the
    /// last scheduled probe round: reports still missing then are presumed
    /// lost and the leader answers for the survivors.
    ///
    /// A recorder gets the engine's `sim.*` counters and `sim.run` span, a
    /// `dist.report` event per link report the leader accepts (with the
    /// subtree it arrived through) and one `dist.compute` event with the
    /// report tally and, under a plan, the deadline margin. Recording
    /// never touches the random stream.
    ///
    /// # Examples
    ///
    /// ```
    /// use clocksync_sim::{Simulation, Topology};
    /// use clocksync_time::{Ext, Nanos, Ratio};
    ///
    /// let sim = Simulation::builder(5)
    ///     .uniform_links(Topology::Ring(5),
    ///                    Nanos::from_micros(50), Nanos::from_micros(250), 3)
    ///     .probes(2)
    ///     .build();
    /// let run = sim.run_distributed(7);
    /// // Every processor received a correction; the certificate holds.
    /// let corrections: Option<Vec<Ratio>> = run.corrections.iter().copied().collect();
    /// let err = run.execution.discrepancy(&corrections.unwrap());
    /// assert!(Ext::Finite(err) <= run.outcome.unwrap().precision());
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if the declared links do not connect every processor to the
    /// leader (processor 0) — crashes may *partition* a run, but the
    /// declared topology must be connected — or if the scenario has a
    /// retry rule: the protocol's probe phase does not retry.
    pub fn run_distributed(&self, seed: u64) -> DistRun {
        assert!(
            self.retry.is_none(),
            "the leader protocol's probe phase has no retry rule"
        );
        let n = self.n();
        let mut rng = StdRng::seed_from_u64(seed);
        let engine = self.engine(&mut rng, &self.recorder);
        let network = self.network();
        let table = network.link_table();

        // Spanning tree rooted at the leader, breadth first over each
        // processor's neighbours in ascending order.
        let mut parent: Vec<Option<ProcessorId>> = vec![None; n];
        let mut order = vec![0usize];
        let mut seen = vec![false; n];
        seen[0] = true;
        let mut head = 0;
        while let Some(&v) = order.get(head) {
            head += 1;
            for slot in table.row(v) {
                let nb = table.target(slot);
                if !seen[nb] {
                    seen[nb] = true;
                    parent[nb] = Some(ProcessorId(v));
                    order.push(nb);
                }
            }
        }
        assert!(
            seen.iter().all(|&s| s),
            "declared links must connect every processor to the leader"
        );
        // route_down[v][target] = child of v on the path to target.
        let mut route_down: Vec<HashMap<ProcessorId, ProcessorId>> = vec![HashMap::new(); n];
        for t in 1..n {
            // Walk up from t; each ancestor routes to the child just below.
            let mut below = ProcessorId(t);
            let mut cur = parent[t];
            while let Some(anc) = cur {
                route_down[anc.index()].insert(ProcessorId(t), below);
                below = anc;
                cur = parent[anc.index()];
            }
        }

        let initial_delay = self.start_spread() + Nanos::from_micros(100);
        // The last probe round is scheduled at initial_delay +
        // (probes−1)·spacing; the timeout budgets for its round trip plus
        // report routing.
        let deadline = (!self.faults.is_empty()).then(|| {
            ClockTime::ZERO
                + initial_delay
                + Nanos::new(self.spacing().as_nanos() * self.probes().saturating_sub(1) as i64)
                + REPORT_TIMEOUT
        });
        let mut processes: Vec<Node> = (0..n)
            .map(|i| {
                let initiate = (self.links().iter().filter(|l| l.a == i))
                    .map(|l| (ProcessorId(l.b), l.assumption.clone()))
                    .collect();
                Node {
                    probes: self.probes(),
                    spacing: self.spacing(),
                    initial_delay,
                    rounds_fired: 0,
                    initiate,
                    fwd_samples: HashMap::new(),
                    bwd_samples: HashMap::new(),
                    reported: HashSet::new(),
                    next_probe_at: None,
                    parent: parent[i],
                    route_down: std::mem::take(&mut route_down[i]),
                    correction: None,
                    leader: None,
                }
            })
            .collect();
        processes[0].leader = Some(Leader {
            reports: LinkWeights::filled(table.clone(), Ext::PosInf),
            heard: vec![false; table.len()],
            missing: table.len() / 2,
            deadline,
            outcome: None,
            recorder: self.recorder.clone(),
        });

        let (execution, faults) = engine.run(&mut processes, &mut rng, &self.faults);
        let corrections = processes.iter().map(|node| node.correction).collect();
        let leader = processes[0].leader.take().expect("processor 0 leads");
        DistRun {
            execution,
            network,
            corrections,
            outcome: leader.outcome,
            reports: leader.reports,
            faults,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FaultPlan, SimulationBuilder, Topology};
    use clocksync_time::RealTime;

    fn ring(probes: usize) -> SimulationBuilder {
        Simulation::builder(5)
            .uniform_links(
                Topology::Ring(5),
                Nanos::from_micros(50),
                Nanos::from_micros(400),
                11,
            )
            .probes(probes)
    }

    /// Every processor's correction and the leader's certificate, for a
    /// run in which each processor received its correction.
    fn certified(run: &DistRun) -> (Vec<Ratio>, ExtRatio) {
        let corrections = run.corrections.iter().copied().collect::<Option<_>>();
        let outcome = run.outcome.as_ref().expect("leader computed");
        (
            corrections.expect("every processor corrected"),
            outcome.precision(),
        )
    }

    #[test]
    fn every_processor_receives_a_sound_correction() {
        let sim = ring(2).build();
        for seed in 0..4 {
            let run = sim.run_distributed(seed);
            let (corrections, precision) = certified(&run);
            assert!(precision.is_finite());
            assert!(run.network.admits(&run.execution));
            let err = run.execution.discrepancy(&corrections);
            assert!(
                Ext::Finite(err) <= precision,
                "seed {seed}: {err} > {precision}"
            );
        }
    }

    #[test]
    fn omniscient_centralized_run_is_at_least_as_precise() {
        // The centralized synchronizer sees the report/correction traffic
        // too, so its certificate can only be tighter or equal (§7's
        // observation about the distributed protocol's optimality gap).
        let sim = ring(2).build();
        for seed in 0..4 {
            let run = sim.run_distributed(seed);
            let central = clocksync::Synchronizer::new(run.network.clone())
                .synchronize(run.execution.views())
                .unwrap();
            assert!(central.precision() <= certified(&run).1, "seed {seed}");
        }
    }

    #[test]
    fn protocol_works_on_trees_and_with_many_probes() {
        let sim = Simulation::builder(6)
            .uniform_links(
                Topology::Star(6),
                Nanos::from_micros(10),
                Nanos::from_micros(200),
                3,
            )
            .probes(4)
            .build();
        let run = sim.run_distributed(0);
        let (corrections, precision) = certified(&run);
        assert!(precision.is_finite());
        let err = run.execution.discrepancy(&corrections);
        assert!(Ext::Finite(err) <= precision);
    }

    #[test]
    fn crashed_subtree_degrades_to_survivor_component() {
        // Ring of 5, p3 crashes mid-protocol: links (2,3) and (3,4) cannot
        // report, the survivors {0,1,2,4} stay connected through the rest
        // of the ring and still get corrections.
        let plan = FaultPlan::new().crash(ProcessorId(3), RealTime::from_micros(5_200));
        let run = ring(2).faults(plan).build().run_distributed(3);
        assert!(run.corrections[3].is_none(), "crashed node holds nothing");
        for i in [0usize, 1, 2, 4] {
            assert!(run.corrections[i].is_some(), "survivor p{i} corrected");
        }
        let outcome = run.outcome.as_ref().expect("leader computed");
        assert!(!outcome.degradations().is_empty());
        assert!(outcome
            .degradations()
            .iter()
            .all(|d| d.reason == DegradationReason::Unreported
                && (d.a == ProcessorId(3) || d.b == ProcessorId(3))));
        // The leader's answer is exactly the batch pipeline over the
        // surviving reports.
        let expected = composed_outcome(&run);
        for (i, c) in run.corrections.iter().enumerate() {
            if let Some(c) = c {
                assert_eq!(*c, expected.correction(ProcessorId(i)));
            }
        }
    }

    /// The batch pipeline over a run's reports, composed of two calls: the
    /// closure decoded to rationals, then an outcome built from it.
    fn composed_outcome(run: &DistRun) -> SyncOutcome {
        SyncOutcome::from_global_estimates(clocksync::global_estimates(&run.reports).unwrap())
    }

    #[test]
    fn the_leader_outcome_equals_the_two_call_composition() {
        let sim = ring(2).build();
        for seed in 0..4 {
            let run = sim.run_distributed(seed);
            let outcome = run.outcome.as_ref().expect("leader computed");
            assert_eq!(*outcome, composed_outcome(&run), "seed {seed}");
        }
    }

    #[test]
    fn report_traffic_is_present_in_the_execution() {
        // The execution records the whole protocol, not just probes:
        // 5 links × 2 probes × 2 (probe+echo) = 20 probe messages, plus
        // reports and corrections > 0.
        let run = ring(2).build().run_distributed(1);
        assert!(run.execution.messages().len() > 20);
    }

    #[test]
    #[should_panic(expected = "the leader protocol's probe phase has no retry rule")]
    fn a_retry_rule_is_refused() {
        let _ = ring(2)
            .retry(Nanos::from_millis(2), 1)
            .build()
            .run_distributed(0);
    }
}
