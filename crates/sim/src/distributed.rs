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
//! [`DistributedSync`] runs exactly that protocol *inside* the simulator:
//!
//! 1. **Probe phase** — each link's lower endpoint sends timestamped
//!    probes; the peer echoes, returning its receive/send clock readings,
//!    so the initiator reconstructs both directions' samples (this is how
//!    real protocols sidestep the fact that one view alone cannot compute
//!    an estimated delay).
//! 2. **Report phase** — when a link's probes complete, the initiator
//!    evaluates the link's `m̃ls` in both orientations and sends the pair
//!    up a spanning tree to the leader (processor 0).
//! 3. **Compute & distribute** — the leader assembles the estimate
//!    matrix, runs GLOBAL ESTIMATES + SHIFTS
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

use clocksync::{DegradationReason, LinkAssumption, LinkDegradation, Network, SyncOutcome};
use clocksync_graph::{SquareMatrix, Weight};
use clocksync_model::{Execution, LinkEvidence, MsgSample, ProcessorId};
use clocksync_obs::{FieldValue, Recorder};
use clocksync_time::{ClockTime, ExtRatio, Nanos, Ratio};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::engine::{Process, ProcessCtx};
use crate::faults::{FaultLog, FaultPlan};
use crate::scenario::Simulation;

/// Messages of the distributed protocol.
#[derive(Debug, Clone)]
pub enum DistMsg {
    /// A timestamped probe from a link initiator.
    Probe {
        /// Round number.
        seq: u32,
        /// Initiator's clock at the send step.
        sent_clock: ClockTime,
    },
    /// The responder's echo, carrying everything the initiator needs to
    /// reconstruct both directions' samples.
    Echo {
        /// Round number (matches the probe).
        seq: u32,
        /// The probe's original send clock (echoed back).
        probe_sent_clock: ClockTime,
        /// Responder's clock when the probe arrived.
        probe_recv_clock: ClockTime,
        /// Responder's clock when this echo left.
        sent_clock: ClockTime,
    },
    /// A link's estimated maximal local shifts, en route to the leader.
    Report {
        /// Lower endpoint of the link.
        a: ProcessorId,
        /// Higher endpoint of the link.
        b: ProcessorId,
        /// `m̃ls(a, b)`.
        mls_ab: ExtRatio,
        /// `m̃ls(b, a)`.
        mls_ba: ExtRatio,
    },
    /// A correction on its way from the leader to `target`.
    Correction {
        /// The processor this correction belongs to.
        target: ProcessorId,
        /// The correction value.
        value: Ratio,
    },
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
    /// Leader-only state.
    n: usize,
    expected_reports: usize,
    reports: Vec<(ProcessorId, ProcessorId, ExtRatio, ExtRatio)>,
    /// Canonical keys of the links already reported (duplicate reports on a
    /// lossy network must not double-count toward `expected_reports`).
    report_keys: HashSet<(usize, usize)>,
    /// Every declared link, for diagnosing the unreported ones.
    all_links: Vec<(ProcessorId, ProcessorId)>,
    /// Leader-side report deadline (set only under a fault plan): if not
    /// every report arrived by this clock reading, compute from what's
    /// there — a partial-but-optimal answer for the reachable part.
    deadline_at: Option<ClockTime>,
    /// Whether the leader has already computed and distributed.
    computed: bool,
    /// Immutable copy of the armed report deadline (never cleared), so the
    /// leader can report its deadline margin when it computes.
    deadline_clock: Option<ClockTime>,
    /// This processor's correction, once it arrived.
    correction: Option<Ratio>,
    /// The leader's outcome, once it computed.
    outcome: Option<SyncOutcome>,
    recorder: Recorder,
}

impl Node {
    fn is_leader(&self) -> bool {
        self.parent.is_none()
    }

    fn deliver_report(
        &mut self,
        report: (ProcessorId, ProcessorId, ExtRatio, ExtRatio),
        via: ProcessorId,
        ctx: &mut ProcessCtx<DistMsg>,
    ) {
        if self.is_leader() {
            if self.computed {
                // The deadline already fired: the answer is out. A late
                // report cannot be folded in retroactively.
                return;
            }
            let key = (
                report.0.index().min(report.1.index()),
                report.0.index().max(report.1.index()),
            );
            if self.report_keys.insert(key) {
                if self.recorder.is_enabled() {
                    // Report latency per subtree: `via` is the leader's
                    // child whose subtree produced this link's report, and
                    // `clock_ns` is the leader clock at arrival.
                    self.recorder.event(
                        "dist.report",
                        [
                            ("a", FieldValue::from(report.0.index())),
                            ("b", FieldValue::from(report.1.index())),
                            ("via", FieldValue::from(via.index())),
                            ("clock_ns", FieldValue::from(ctx.clock().as_nanos())),
                        ],
                    );
                }
                self.reports.push(report);
            }
            if self.report_keys.len() == self.expected_reports {
                self.leader_compute(ctx);
            }
        } else {
            let parent = self.parent.expect("non-leader has a parent");
            ctx.send(
                parent,
                DistMsg::Report {
                    a: report.0,
                    b: report.1,
                    mls_ab: report.2,
                    mls_ba: report.3,
                },
            );
        }
    }

    fn leader_compute(&mut self, ctx: &mut ProcessCtx<DistMsg>) {
        self.computed = true;
        if self.recorder.is_enabled() {
            let mut fields = vec![
                ("reports", FieldValue::from(self.reports.len())),
                ("expected", FieldValue::from(self.expected_reports)),
            ];
            if let Some(deadline) = self.deadline_clock {
                // Positive margin: the leader finished before its deadline;
                // zero: the deadline itself forced a partial compute.
                let margin = deadline.as_nanos() - ctx.clock().as_nanos();
                fields.push(("deadline_margin_ns", FieldValue::from(margin)));
            }
            self.recorder.event("dist.compute", fields);
        }
        let mut m = SquareMatrix::from_fn(self.n, |i, j| {
            if i == j {
                <ExtRatio as Weight>::zero()
            } else {
                <ExtRatio as Weight>::infinity()
            }
        });
        for &(a, b, ab, ba) in &self.reports {
            m[(a.index(), b.index())] = ab;
            m[(b.index(), a.index())] = ba;
        }
        // Reachability audit: this expect is a real invariant, not a
        // reachable panic. Reports are extremal estimates computed from a
        // genuine execution, so the generating clock offsets satisfy every
        // constraint and no negative cycle can exist (Lemma 6.2 direction
        // of Theorem 5.2); fault injection only *removes* reports (drops,
        // link-down, crashes), leaving +∞ entries, which cannot create
        // inconsistency either.
        let mut outcome =
            SyncOutcome::from_local_estimates(&m).expect("honest reports cannot be inconsistent");
        // Links that never reported stayed +∞ in the matrix; record why.
        let degradations: Vec<LinkDegradation> = self
            .all_links
            .iter()
            .filter(|(a, b)| {
                let key = (a.index().min(b.index()), a.index().max(b.index()));
                !self.report_keys.contains(&key)
            })
            .map(|&(a, b)| LinkDegradation {
                a,
                b,
                reason: DegradationReason::Unreported,
            })
            .collect();
        outcome.set_degradations(degradations);
        self.correction = Some(outcome.correction(ctx.id()));
        self.outcome = Some(outcome.clone());
        for i in 0..self.n {
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
    }
}

impl Process<DistMsg> for Node {
    fn on_start(&mut self, ctx: &mut ProcessCtx<DistMsg>) {
        if let Some(at) = self.deadline_at {
            ctx.set_timer(at);
        }
        if !self.initiate.is_empty() {
            let at = ClockTime::ZERO + self.initial_delay;
            self.next_probe_at = Some(at);
            ctx.set_timer(at);
        } else if self.is_leader() && self.expected_reports == 0 {
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
            let seq = self.rounds_fired as u32;
            // Sorted so the send order (and hence the engine's delay-rng
            // draw order) is independent of the map's hash state.
            let mut peers: Vec<ProcessorId> = self.initiate.keys().copied().collect();
            peers.sort_unstable();
            for peer in peers {
                ctx.send(
                    peer,
                    DistMsg::Probe {
                        seq,
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
        } else if self.deadline_at == Some(ctx.clock()) {
            self.deadline_at = None;
            if !self.computed {
                // Whoever has not reported by now is presumed unreachable:
                // answer with the evidence that made it through.
                self.leader_compute(ctx);
            }
        }
    }

    fn on_message(&mut self, from: ProcessorId, payload: DistMsg, ctx: &mut ProcessCtx<DistMsg>) {
        match payload {
            DistMsg::Probe { seq, sent_clock } => {
                ctx.send(
                    from,
                    DistMsg::Echo {
                        seq,
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
                ..
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

/// A completed distributed run.
#[derive(Debug, Clone)]
pub struct DistRun {
    /// The full recorded execution (probes, echoes, reports, corrections).
    pub execution: Execution,
    /// The declared network.
    pub network: Network,
    /// The corrections each processor ended up holding.
    pub corrections: Vec<Ratio>,
    /// The precision the leader certified (from probe-phase evidence).
    pub precision: ExtRatio,
}

/// The distributed leader protocol over a [`Simulation`] scenario.
///
/// # Examples
///
/// ```
/// use clocksync_sim::{DistributedSync, Simulation, Topology};
/// use clocksync_time::{Ext, Nanos};
///
/// let sim = Simulation::builder(5)
///     .uniform_links(Topology::Ring(5),
///                    Nanos::from_micros(50), Nanos::from_micros(250), 3)
///     .probes(2)
///     .build();
/// let run = DistributedSync::new(sim).run(7);
/// // Every processor received a correction; the certificate holds.
/// let err = run.execution.discrepancy(&run.corrections);
/// assert!(Ext::Finite(err) <= run.precision);
/// ```
#[derive(Debug, Clone)]
pub struct DistributedSync {
    sim: Simulation,
    faults: FaultPlan,
    report_timeout: Nanos,
    recorder: Recorder,
}

impl DistributedSync {
    /// Wraps a scenario; the protocol will use its links, assumptions,
    /// probe counts and timing.
    pub fn new(sim: Simulation) -> DistributedSync {
        DistributedSync {
            sim,
            faults: FaultPlan::new(),
            report_timeout: Nanos::from_millis(50),
            recorder: Recorder::disabled(),
        }
    }

    /// Attaches an observability recorder. The engine emits its `sim.*`
    /// counters and `sim.run` span; the leader emits a `dist.report` event
    /// per link report it accepts (with the subtree it arrived through)
    /// and one `dist.compute` event with its report tally and deadline
    /// margin. Recording never touches the delay random stream, so runs
    /// are bit-for-bit identical with or without it.
    #[must_use]
    pub fn with_recorder(mut self, recorder: Recorder) -> DistributedSync {
        self.recorder = recorder;
        self
    }

    /// Attaches a fault plan for [`DistributedSync::run_faulty`], whose
    /// leader arms a report deadline: reports still missing when it
    /// expires are presumed lost and the leader answers for the survivors.
    pub fn with_faults(mut self, plan: FaultPlan) -> DistributedSync {
        self.faults = plan;
        self
    }

    /// Sets how long past the last scheduled probe round the leader waits
    /// for reports before computing from what arrived (default 50 ms; only
    /// meaningful for [`DistributedSync::run_faulty`]).
    ///
    /// # Panics
    ///
    /// Panics if `timeout` is not positive.
    pub fn report_timeout(mut self, timeout: Nanos) -> DistributedSync {
        assert!(timeout > Nanos::ZERO, "report timeout must be positive");
        self.report_timeout = timeout;
        self
    }

    /// Runs the full protocol, fault-free, and harvests the participants'
    /// results.
    ///
    /// # Panics
    ///
    /// Panics if the declared links do not connect all processors to the
    /// leader (processor 0), if a processor never received its correction
    /// (a protocol bug), or if a non-empty fault plan was attached — a
    /// faulty run can leave processors without corrections by design, so
    /// it must go through [`DistributedSync::run_faulty`], whose result
    /// type can say so.
    pub fn run(&self, seed: u64) -> DistRun {
        assert!(
            self.faults.is_empty(),
            "a fault plan is attached: use run_faulty"
        );
        let (execution, _log, nodes, network) = self.run_inner(seed, false);
        let corrections: Vec<Ratio> = nodes
            .iter()
            .enumerate()
            .map(|(i, node)| {
                node.correction
                    .unwrap_or_else(|| panic!("p{i} never received its correction"))
            })
            .collect();
        let leader = nodes[0].outcome.as_ref().expect("leader computed");
        DistRun {
            execution,
            network,
            corrections,
            precision: leader.precision(),
        }
    }

    /// Runs the protocol under the attached fault plan (empty if none was
    /// attached — the deadline machinery still arms, which is useful for
    /// testing it) and reports whatever the survivors achieved.
    ///
    /// # Panics
    ///
    /// Panics if the declared links do not connect all processors to the
    /// leader (crash faults may *partition* the run, but the declared
    /// topology must be connected).
    pub fn run_faulty(&self, seed: u64) -> FaultyDistRun {
        let (execution, log, mut nodes, network) = self.run_inner(seed, true);
        let leader = &mut nodes[0];
        // A leader that never computed answers with no reports.
        let reports = match leader.outcome {
            Some(_) => std::mem::take(&mut leader.reports),
            None => Vec::new(),
        };
        FaultyDistRun {
            execution,
            network,
            outcome: leader.outcome.take(),
            reports,
            corrections: nodes.iter().map(|node| node.correction).collect(),
            log,
        }
    }

    /// Shared protocol body under the attached fault plan; `deadline`
    /// arms the leader's report deadline. Returns the participants, whose
    /// corrections and leader outcome the callers read.
    fn run_inner(&self, seed: u64, deadline: bool) -> (Execution, FaultLog, Vec<Node>, Network) {
        let n = self.sim.n();
        let mut rng = StdRng::seed_from_u64(seed);
        let engine = self.sim.engine(&mut rng, &self.recorder);

        // Spanning tree rooted at the leader, with per-node down-routing.
        let mut adjacency = vec![Vec::new(); n];
        for l in self.sim.links() {
            adjacency[l.a].push(l.b);
            adjacency[l.b].push(l.a);
        }
        let mut parent: Vec<Option<ProcessorId>> = vec![None; n];
        let mut order = vec![0usize];
        let mut seen = vec![false; n];
        seen[0] = true;
        let mut head = 0;
        while head < order.len() {
            let v = order[head];
            head += 1;
            let mut nbs = adjacency[v].clone();
            nbs.sort_unstable();
            for nb in nbs {
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

        let initial_delay = self.sim.start_spread() + Nanos::from_micros(100);
        let all_links: Vec<(ProcessorId, ProcessorId)> = self
            .sim
            .links()
            .iter()
            .map(|l| (ProcessorId(l.a), ProcessorId(l.b)))
            .collect();
        // A faulty run arms the leader's report deadline: the last probe
        // round is scheduled at initial_delay + (probes−1)·spacing, and the
        // timeout budgets for its round trip plus report routing.
        let leader_deadline = deadline.then(|| {
            ClockTime::ZERO
                + initial_delay
                + Nanos::new(
                    self.sim.spacing().as_nanos() * self.sim.probes().saturating_sub(1) as i64,
                )
                + self.report_timeout
        });
        let mut processes: Vec<Node> = (0..n)
            .map(|i| {
                let mut initiate = HashMap::new();
                for l in self.sim.links() {
                    if l.a == i {
                        initiate.insert(ProcessorId(l.b), l.assumption.clone());
                    }
                }
                Node {
                    probes: self.sim.probes(),
                    spacing: self.sim.spacing(),
                    initial_delay,
                    rounds_fired: 0,
                    initiate,
                    fwd_samples: HashMap::new(),
                    bwd_samples: HashMap::new(),
                    reported: HashSet::new(),
                    next_probe_at: None,
                    parent: parent[i],
                    route_down: route_down[i].clone(),
                    n,
                    expected_reports: self.sim.links().len(),
                    reports: Vec::new(),
                    report_keys: HashSet::new(),
                    all_links: all_links.clone(),
                    deadline_at: if i == 0 { leader_deadline } else { None },
                    computed: false,
                    deadline_clock: if i == 0 { leader_deadline } else { None },
                    correction: None,
                    outcome: None,
                    recorder: if i == 0 {
                        self.recorder.clone()
                    } else {
                        Recorder::disabled()
                    },
                }
            })
            .collect();

        let (execution, log) = engine.run(&mut processes, &mut rng, &self.faults);
        (execution, log, processes, self.sim.network())
    }
}

/// A completed distributed run under faults: what the *survivors* ended up
/// with.
///
/// Unlike [`DistRun`], nothing here is guaranteed total: a crashed (or
/// partitioned-off) processor holds no correction, and if the leader
/// itself crashed before its deadline there is no outcome at all.
#[derive(Debug, Clone)]
pub struct FaultyDistRun {
    /// The full recorded execution, faults applied.
    pub execution: Execution,
    /// The declared network.
    pub network: Network,
    /// The correction each processor ended up holding (`None`: crashed, or
    /// the correction message never reached it).
    pub corrections: Vec<Option<Ratio>>,
    /// The leader's computed outcome — corrections, per-component
    /// precision, and [`Unreported`](DegradationReason::Unreported)
    /// degradations for links whose report missed the deadline. `None` if
    /// the leader crashed before computing.
    pub outcome: Option<SyncOutcome>,
    /// The per-link estimate reports that reached the leader in time —
    /// exactly the evidence the outcome was computed from.
    pub reports: Vec<(ProcessorId, ProcessorId, ExtRatio, ExtRatio)>,
    /// What the fault plan actually did.
    pub log: FaultLog,
}

impl FaultyDistRun {
    /// The processors that hold a correction, ascending.
    pub fn survivors(&self) -> Vec<ProcessorId> {
        self.corrections
            .iter()
            .enumerate()
            .filter_map(|(i, c)| c.map(|_| ProcessorId(i)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Topology;
    use clocksync_time::{Ext, RealTime};

    fn ring_sim(probes: usize) -> Simulation {
        Simulation::builder(5)
            .uniform_links(
                Topology::Ring(5),
                Nanos::from_micros(50),
                Nanos::from_micros(400),
                11,
            )
            .probes(probes)
            .build()
    }

    #[test]
    fn every_processor_receives_a_sound_correction() {
        let dist = DistributedSync::new(ring_sim(2));
        for seed in 0..4 {
            let run = dist.run(seed);
            assert!(run.precision.is_finite());
            assert!(run.network.admits(&run.execution));
            let err = run.execution.discrepancy(&run.corrections);
            assert!(
                Ext::Finite(err) <= run.precision,
                "seed {seed}: {err} > {}",
                run.precision
            );
        }
    }

    #[test]
    fn omniscient_centralized_run_is_at_least_as_precise() {
        // The centralized synchronizer sees the report/correction traffic
        // too, so its certificate can only be tighter or equal (§7's
        // observation about the distributed protocol's optimality gap).
        let dist = DistributedSync::new(ring_sim(2));
        for seed in 0..4 {
            let run = dist.run(seed);
            let central = clocksync::Synchronizer::new(run.network.clone())
                .synchronize(run.execution.views())
                .unwrap();
            assert!(central.precision() <= run.precision, "seed {seed}");
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
        let run = DistributedSync::new(sim).run(0);
        assert!(run.precision.is_finite());
        let err = run.execution.discrepancy(&run.corrections);
        assert!(Ext::Finite(err) <= run.precision);
    }

    #[test]
    fn crashed_subtree_degrades_to_survivor_component() {
        // Ring of 5, p3 crashes mid-protocol: links (2,3) and (3,4) cannot
        // report, the survivors {0,1,2,4} stay connected through the rest
        // of the ring and still get corrections.
        let plan = FaultPlan::new().crash(ProcessorId(3), RealTime::from_micros(5_200));
        let dist = DistributedSync::new(ring_sim(2)).with_faults(plan);
        let run = dist.run_faulty(3);
        assert!(run.corrections[3].is_none(), "crashed node holds nothing");
        for i in [0usize, 1, 2, 4] {
            assert!(run.corrections[i].is_some(), "survivor p{i} corrected");
        }
        let outcome = run.outcome.as_ref().expect("leader computed");
        assert!(!outcome.degradations().is_empty());
        assert!(outcome
            .degradations()
            .iter()
            .all(|d| d.reason == clocksync::DegradationReason::Unreported
                && (d.a == ProcessorId(3) || d.b == ProcessorId(3))));
        // The leader's answer is exactly the batch pipeline over the
        // surviving reports.
        let expected = composed_outcome(&run);
        for p in run.survivors() {
            assert_eq!(run.corrections[p.index()], Some(expected.correction(p)));
        }
    }

    /// The batch pipeline over a run's reports, composed of two calls: the
    /// closure decoded to rationals, then an outcome built from it.
    fn composed_outcome(run: &FaultyDistRun) -> SyncOutcome {
        let mut m = SquareMatrix::from_fn(5, |i, j| {
            if i == j {
                ExtRatio::zero()
            } else {
                ExtRatio::infinity()
            }
        });
        for &(a, b, ab, ba) in &run.reports {
            m[(a.index(), b.index())] = ab;
            m[(b.index(), a.index())] = ba;
        }
        SyncOutcome::from_global_estimates(clocksync::global_estimates(&m).unwrap())
    }

    #[test]
    fn the_leader_outcome_equals_the_two_call_composition() {
        let dist = DistributedSync::new(ring_sim(2));
        for seed in 0..4 {
            let run = dist.run_faulty(seed);
            let outcome = run.outcome.as_ref().expect("leader computed");
            assert_eq!(*outcome, composed_outcome(&run), "seed {seed}");
        }
    }

    #[test]
    fn fault_free_faulty_run_matches_plain_run() {
        // run_faulty with no plan attached arms the deadline but injects
        // nothing; every correction must match the plain protocol's.
        let dist = DistributedSync::new(ring_sim(2));
        let plain = dist.run(5);
        let armed = dist.run_faulty(5);
        assert!(armed.log.is_clean());
        for (i, c) in plain.corrections.iter().enumerate() {
            assert_eq!(armed.corrections[i], Some(*c));
        }
        assert_eq!(
            armed.outcome.expect("leader computed").precision(),
            plain.precision
        );
    }

    #[test]
    fn report_traffic_is_present_in_the_execution() {
        // The execution records the whole protocol, not just probes:
        // 5 links × 2 probes × 2 (probe+echo) = 20 probe messages, plus
        // reports and corrections > 0.
        let run = DistributedSync::new(ring_sim(2)).run(1);
        assert!(run.execution.messages().len() > 20);
    }
}
