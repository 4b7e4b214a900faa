//! High-level simulation scenarios: topology + delay models + assumptions
//! → executions, ready for synchronization and evaluation.

use clocksync::{LinkAssumption, Network, SyncError, SyncOutcome, Synchronizer};
use clocksync_model::{Execution, ProcessorId};
use clocksync_obs::Recorder;
use clocksync_time::{Ext, Nanos, Ratio, RealTime};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::delay::{DelayDistribution, LinkModel, ResolvedLink};
use crate::engine::Engine;
use crate::faults::{FaultLog, FaultPlan};
use crate::protocol::{check_retry, link_health, LinkHealth, ProbeProcess};
use crate::topology::Topology;

/// Derives the tightest delay assumption that the sampled delays of
/// `model` are guaranteed to satisfy.
///
/// * Independent directions ⇒ per-direction [`LinkAssumption::bounds`]
///   from the distribution supports (upper bound `+∞` for heavy tails);
/// * correlated directions ⇒ [`LinkAssumption::rtt_bias`] with the link's
///   jitter spread (clamped up to 1 ns — a bias bound must be positive).
pub fn truthful_assumption(model: &LinkModel) -> LinkAssumption {
    match model {
        LinkModel::Independent { forward, backward } => {
            let range = |d: &DelayDistribution| match d.support_max() {
                Ext::Finite(hi) => clocksync::DelayRange::new(d.support_min(), hi),
                _ => clocksync::DelayRange::at_least(d.support_min()),
            };
            LinkAssumption::bounds(range(forward), range(backward))
        }
        LinkModel::Correlated { spread, .. } => {
            LinkAssumption::rtt_bias((*spread).max(Nanos::new(1)))
        }
    }
}

/// One link of a scenario.
#[derive(Debug, Clone)]
pub struct LinkSpec {
    /// Lower endpoint.
    pub a: usize,
    /// Higher endpoint.
    pub b: usize,
    /// How delays are actually generated.
    pub model: LinkModel,
    /// What the synchronizer is told (oriented `a → b`).
    pub assumption: LinkAssumption,
}

/// A repeatable simulation scenario: processors, links with their delay
/// models and declared assumptions, the probe protocol's settings and a
/// fault plan. [`Simulation::run`] executes it on the discrete-event
/// engine; [`Simulation::run_threaded`] executes the same scenario on OS
/// threads with real sleeps.
///
/// # Examples
///
/// ```
/// use clocksync_sim::{Simulation, Topology, DelayDistribution};
/// use clocksync_time::{Ext, Nanos};
///
/// let sim = Simulation::builder(4)
///     .uniform_links(Topology::Ring(4),
///                    Nanos::from_micros(50), Nanos::from_micros(250), 7)
///     .probes(3)
///     .build();
/// let run = sim.run(42);
/// let outcome = run.synchronize()?;
/// assert!(outcome.precision().is_finite());
/// // The hidden true error never exceeds the guarantee.
/// let err = run.true_discrepancy(outcome.corrections());
/// assert!(Ext::Finite(err) <= outcome.precision());
/// # Ok::<(), clocksync::SyncError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Simulation {
    n: usize,
    links: Vec<LinkSpec>,
    probes: usize,
    spacing: Nanos,
    start_spread: Nanos,
    retry: Option<(Nanos, u32)>,
    pub(crate) faults: FaultPlan,
    pub(crate) recorder: Recorder,
}

impl Simulation {
    /// Starts building a scenario over `n` processors.
    pub fn builder(n: usize) -> SimulationBuilder {
        SimulationBuilder {
            sim: Simulation {
                n,
                links: Vec::new(),
                probes: 2,
                spacing: Nanos::from_millis(10),
                start_spread: Nanos::from_millis(5),
                retry: None,
                faults: FaultPlan::new(),
                recorder: Recorder::disabled(),
            },
        }
    }

    /// The number of processors.
    pub fn n(&self) -> usize {
        self.n
    }

    /// The declared links.
    pub fn links(&self) -> &[LinkSpec] {
        &self.links
    }

    /// Probe round trips per link.
    pub fn probes(&self) -> usize {
        self.probes
    }

    /// Spacing between probe rounds.
    pub fn spacing(&self) -> Nanos {
        self.spacing
    }

    /// Maximum random start-time skew.
    pub fn start_spread(&self) -> Nanos {
        self.start_spread
    }

    /// Builds the [`Network`] the synchronizer will be given.
    pub fn network(&self) -> Network {
        let mut b = Network::builder(self.n);
        for l in &self.links {
            b = b.link(ProcessorId(l.a), ProcessorId(l.b), l.assumption.clone());
        }
        b.build()
    }

    /// Runs the scenario with a seed: samples start offsets and delays,
    /// executes the probe protocol under the fault plan, and returns the
    /// recorded run with the [`FaultLog`] of what the plan did to this
    /// seed's execution and each link's [`LinkHealth`]. With an empty plan
    /// the log is clean.
    pub fn run(&self, seed: u64) -> SimRun {
        let mut rng = StdRng::seed_from_u64(seed);
        let engine = self.engine(&mut rng, &self.recorder);
        let mut processes = self.processes();
        let (execution, faults) = engine.run(&mut processes, &mut rng, &self.faults);
        SimRun {
            network: self.network(),
            health: link_health(&self.links, &processes, &faults.dropped_per_link),
            execution,
            faults,
        }
    }

    /// One [`ProbeProcess`] per processor, under the scenario's settings.
    pub(crate) fn processes(&self) -> Vec<ProbeProcess> {
        // Probes start only after every processor has started.
        let initial_delay = self.start_spread + Nanos::from_micros(100);
        (0..self.n)
            .map(|_| {
                let mut process = ProbeProcess::new(self.probes, self.spacing, initial_delay)
                    .with_recorder(self.recorder.clone());
                if let Some((deadline, retries)) = self.retry {
                    process = process.with_retry(deadline, retries);
                }
                process
            })
            .collect()
    }

    /// Draws a run's hidden randomness from `rng` in the order every runner
    /// over this scenario shares: each processor's start time in
    /// `[0, start_spread]`, then each declared link's resolved delay model,
    /// in declaration order.
    pub(crate) fn draw(&self, rng: &mut StdRng) -> (Vec<RealTime>, Vec<ResolvedLink>) {
        let starts = (0..self.n)
            .map(|_| {
                let s = if self.start_spread == Nanos::ZERO {
                    0
                } else {
                    rng.gen_range(0..=self.start_spread.as_nanos())
                };
                RealTime::from_nanos(s)
            })
            .collect();
        let links = self.links.iter().map(|l| l.model.resolve(rng)).collect();
        (starts, links)
    }

    /// An engine over one [`Simulation::draw`] from `rng`, reporting to
    /// `recorder`.
    pub(crate) fn engine(&self, rng: &mut StdRng, recorder: &Recorder) -> Engine {
        let (starts, resolved) = self.draw(rng);
        let links = self.links.iter().map(|l| (l.a, l.b)).zip(resolved);
        let mut engine = Engine::new(starts, links.collect());
        engine.set_recorder(recorder.clone());
        engine
    }

    /// Runs the scenario under every seed in parallel (rayon), returning
    /// the runs in seed order. Each run is seeded independently, so the
    /// results are identical to calling [`Simulation::run`] sequentially —
    /// a property the test suite checks.
    pub fn run_many(&self, seeds: &[u64]) -> Vec<SimRun> {
        use rayon::prelude::*;
        seeds.par_iter().map(|&seed| self.run(seed)).collect()
    }
}

/// Builder for [`Simulation`].
#[derive(Debug, Clone)]
pub struct SimulationBuilder {
    sim: Simulation,
}

impl SimulationBuilder {
    /// Adds one link with an explicit delay model and assumption (oriented
    /// `a → b`).
    ///
    /// # Panics
    ///
    /// Panics if the endpoints are out of range or equal, or if the
    /// scenario already has a link between them (in either orientation):
    /// a run samples one delay model per link.
    pub fn link(
        mut self,
        a: usize,
        b: usize,
        model: LinkModel,
        assumption: LinkAssumption,
    ) -> Self {
        assert!(a != b, "link endpoints must differ");
        assert!(a < self.sim.n && b < self.sim.n, "endpoint out of range");
        assert!(
            !self
                .sim
                .links
                .iter()
                .any(|l| (l.a, l.b) == (a.min(b), a.max(b))),
            "link {a}–{b} declared twice"
        );
        let (a, b, model, assumption) = if a < b {
            (a, b, model, assumption)
        } else {
            let flipped = match model {
                LinkModel::Independent { forward, backward } => LinkModel::Independent {
                    forward: backward,
                    backward: forward,
                },
                sym => sym,
            };
            (b, a, flipped, assumption.reversed())
        };
        self.sim.links.push(LinkSpec {
            a,
            b,
            model,
            assumption,
        });
        self
    }

    /// Adds a link whose declared assumption is derived truthfully from
    /// its delay model ([`truthful_assumption`]).
    pub fn truthful_link(self, a: usize, b: usize, model: LinkModel) -> Self {
        let assumption = truthful_assumption(&model);
        self.link(a, b, model, assumption)
    }

    /// Adds every edge of `topology` with symmetric uniform delays in
    /// `[lo, hi]` and the matching truthful bounds assumption. The
    /// topology's randomness (if any) is drawn from `topo_seed`.
    pub fn uniform_links(self, topology: Topology, lo: Nanos, hi: Nanos, topo_seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(topo_seed);
        let edges = topology.edges(&mut rng);
        edges.into_iter().fold(self, |b, (x, y)| {
            b.truthful_link(
                x,
                y,
                LinkModel::symmetric(DelayDistribution::uniform(lo, hi)),
            )
        })
    }

    /// Sets the number of probe round trips per link (default 2).
    pub fn probes(mut self, probes: usize) -> Self {
        self.sim.probes = probes;
        self
    }

    /// Sets the spacing between probe rounds (default 10 ms).
    pub fn spacing(mut self, spacing: Nanos) -> Self {
        self.sim.spacing = spacing;
        self
    }

    /// Sets the maximum random start-time skew (default 5 ms).
    pub fn start_spread(mut self, spread: Nanos) -> Self {
        assert!(spread >= Nanos::ZERO, "spread must be nonnegative");
        self.sim.start_spread = spread;
        self
    }

    /// Gives the probe protocol a retry rule, off by default (see
    /// [`ProbeProcess::with_retry`]); failed rounds degrade the link's
    /// [`LinkHealth`].
    ///
    /// # Panics
    ///
    /// Panics unless `deadline` is positive, or if `retries > 16`.
    pub fn retry(mut self, deadline: Nanos, retries: u32) -> Self {
        check_retry(deadline, retries);
        self.sim.retry = Some((deadline, retries));
        self
    }

    /// Attaches a fault plan: every run of the built scenario injects
    /// these faults (reproducibly, per seed). See [`FaultPlan`].
    pub fn faults(mut self, plan: FaultPlan) -> Self {
        self.sim.faults = plan;
        self
    }

    /// Attaches an observability recorder: every run then emits the
    /// engine's `sim.run` span and `sim.*` counters plus per-round
    /// `sim.probe_round` events (taxonomy in DESIGN.md §6). Recording
    /// never touches the random stream, so runs are bit-identical with
    /// and without it.
    pub fn recorder(mut self, recorder: Recorder) -> Self {
        self.sim.recorder = recorder;
        self
    }

    /// Finishes building.
    pub fn build(self) -> Simulation {
        self.sim
    }
}

/// One executed simulation: the hidden ground truth plus everything the
/// synchronizer may see.
///
/// Injected faults keep the execution admissible for truthful
/// assumptions (drops erase evidence, duplicates and reorderings sample
/// from the genuine delay distribution), so [`SimRun::synchronize`]
/// applies to every run: it just sees less, or redundant, evidence and
/// degrades per the contract in `DESIGN.md` §5.
#[derive(Debug, Clone)]
pub struct SimRun {
    /// The declared assumption network.
    pub network: Network,
    /// The recorded execution (views + hidden starts).
    pub execution: Execution,
    /// What the scenario's fault plan did, message by message (clean
    /// when the plan is empty).
    pub faults: FaultLog,
    /// Per-link probe statistics and the degradation decision each
    /// earns, in declaration order. `network` stays the declared network;
    /// [`Simulation::degraded_network`] gives the degraded one.
    pub health: Vec<LinkHealth>,
}

impl SimRun {
    /// Runs the optimal synchronizer on the recorded views.
    ///
    /// # Errors
    ///
    /// Propagates [`SyncError`] (impossible for truthfully-declared
    /// scenarios).
    pub fn synchronize(&self) -> Result<SyncOutcome, SyncError> {
        Synchronizer::new(self.network.clone()).synchronize(self.execution.views())
    }

    /// Like [`SimRun::synchronize`], with per-stage spans reported to
    /// `recorder` (see [`Synchronizer::with_recorder`]). The outcome is
    /// bit-for-bit the same as the unrecorded one.
    ///
    /// # Errors
    ///
    /// Same conditions as [`SimRun::synchronize`].
    pub fn synchronize_traced(&self, recorder: &Recorder) -> Result<SyncOutcome, SyncError> {
        Synchronizer::new(self.network.clone())
            .with_recorder(recorder.clone())
            .synchronize(self.execution.views())
    }

    /// The *true* worst pairwise disagreement of corrected clocks — the
    /// quantity only the outside observer can measure.
    pub fn true_discrepancy(&self, corrections: &[Ratio]) -> Ratio {
        self.execution.discrepancy(corrections)
    }

    /// Whether the generated execution satisfies the declared assumptions
    /// (always true for truthful scenarios; useful as a self-check).
    pub fn is_admissible(&self) -> bool {
        self.network.admits(&self.execution)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_scenario_is_admissible_and_sound() {
        let sim = Simulation::builder(5)
            .uniform_links(
                Topology::Ring(5),
                Nanos::from_micros(100),
                Nanos::from_micros(400),
                3,
            )
            .probes(2)
            .build();
        for seed in 0..5 {
            let run = sim.run(seed);
            assert!(run.is_admissible());
            let outcome = run.synchronize().unwrap();
            assert!(outcome.precision().is_finite());
            let err = run.true_discrepancy(outcome.corrections());
            assert!(Ext::Finite(err) <= outcome.precision(), "seed {seed}");
        }
    }

    #[test]
    fn truthful_heavy_tail_scenario_uses_lower_bound_only() {
        let model = LinkModel::symmetric(DelayDistribution::heavy_tail(
            Nanos::from_micros(200),
            Nanos::from_micros(100),
            1.5,
        ));
        match truthful_assumption(&model) {
            LinkAssumption::Bounds { forward, backward } => {
                assert_eq!(forward.lower(), Nanos::from_micros(200));
                assert_eq!(forward.upper(), Ext::PosInf);
                assert_eq!(backward.upper(), Ext::PosInf);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn truthful_correlated_scenario_uses_rtt_bias() {
        let model = LinkModel::Correlated {
            base: DelayDistribution::uniform(Nanos::from_micros(1), Nanos::from_millis(50)),
            spread: Nanos::from_micros(30),
        };
        assert_eq!(
            truthful_assumption(&model),
            LinkAssumption::rtt_bias(Nanos::from_micros(30))
        );
    }

    #[test]
    fn runs_are_reproducible_by_seed() {
        let sim = Simulation::builder(3)
            .uniform_links(
                Topology::Path(3),
                Nanos::from_micros(10),
                Nanos::from_micros(90),
                1,
            )
            .build();
        let a = sim.run(7);
        let b = sim.run(7);
        assert_eq!(a.execution, b.execution);
        let c = sim.run(8);
        assert!(a.execution != c.execution);
    }

    #[test]
    fn run_many_matches_sequential_runs() {
        let sim = Simulation::builder(4)
            .uniform_links(
                Topology::Ring(4),
                Nanos::from_micros(50),
                Nanos::from_micros(250),
                2,
            )
            .probes(2)
            .build();
        let seeds: Vec<u64> = (0..8).collect();
        let parallel = sim.run_many(&seeds);
        assert_eq!(parallel.len(), seeds.len());
        for (run, &seed) in parallel.iter().zip(&seeds) {
            let sequential = sim.run(seed);
            assert_eq!(run.execution, sequential.execution, "seed {seed}");
        }
    }

    #[test]
    fn faulty_runs_stay_admissible_and_reproducible() {
        let plan = FaultPlan::new()
            .drop_messages(ProcessorId(0), ProcessorId(1), 0.4)
            .duplicate_messages(ProcessorId(1), ProcessorId(2), 0.4)
            .reorder_messages(ProcessorId(2), ProcessorId(3), 0.4);
        let sim = Simulation::builder(4)
            .uniform_links(
                Topology::Ring(4),
                Nanos::from_micros(50),
                Nanos::from_micros(250),
                2,
            )
            .probes(3)
            .faults(plan)
            .build();
        let mut any_fault = false;
        for seed in 0..6 {
            let faulty = sim.run(seed);
            any_fault |= !faulty.faults.is_clean();
            // Faults thin or pad the evidence but never break the model or
            // the declared assumptions.
            assert!(faulty.is_admissible(), "seed {seed}");
            let outcome = faulty.synchronize().unwrap();
            let err = faulty.true_discrepancy(outcome.corrections());
            assert!(Ext::Finite(err) <= outcome.precision(), "seed {seed}");
            // Same seed, same faults.
            let again = sim.run(seed);
            assert_eq!(faulty.execution, again.execution);
            assert_eq!(faulty.faults, again.faults);
        }
        assert!(any_fault, "plan never fired across six seeds");
    }

    #[test]
    fn empty_fault_plan_changes_nothing() {
        let sim = |plan: FaultPlan| {
            Simulation::builder(3)
                .uniform_links(
                    Topology::Path(3),
                    Nanos::from_micros(10),
                    Nanos::from_micros(90),
                    1,
                )
                .faults(plan)
                .build()
        };
        let a = sim(FaultPlan::new()).run(7);
        // Faults declared at probability zero draw nothing from the
        // random stream.
        let benign = FaultPlan::new()
            .drop_messages(ProcessorId(0), ProcessorId(1), 0.0)
            .duplicate_messages(ProcessorId(1), ProcessorId(2), 0.0)
            .reorder_messages(ProcessorId(0), ProcessorId(1), 0.0);
        let b = sim(benign).run(7);
        assert_eq!(a.execution, b.execution);
        assert!(a.faults.is_clean() && b.faults.is_clean());
    }

    /// A 2-node scenario declaring 0–1 as 10–20 µs and again as 50–60 µs:
    /// a run samples one delay model per link, so it could not run the
    /// network the two declarations conjoin.
    fn declare_twice(a: usize, b: usize) -> SimulationBuilder {
        let uniform = |lo, hi| {
            LinkModel::symmetric(DelayDistribution::uniform(
                Nanos::from_micros(lo),
                Nanos::from_micros(hi),
            ))
        };
        Simulation::builder(2)
            .truthful_link(0, 1, uniform(10, 20))
            .truthful_link(a, b, uniform(50, 60))
    }

    #[test]
    #[should_panic(expected = "link 0–1 declared twice")]
    fn duplicate_link_panics() {
        let _ = declare_twice(0, 1);
    }

    #[test]
    #[should_panic(expected = "link 1–0 declared twice")]
    fn reversed_duplicate_link_panics() {
        let _ = declare_twice(1, 0);
    }

    #[test]
    fn reversed_link_declaration_matches_forward() {
        // Declaring (2, 0) with asymmetric delays must orient correctly.
        let model = LinkModel::Independent {
            forward: DelayDistribution::constant(Nanos::new(100)),
            backward: DelayDistribution::constant(Nanos::new(900)),
        };
        let sim = Simulation::builder(3)
            .truthful_link(2, 0, model)
            .uniform_links(Topology::Path(3), Nanos::new(1), Nanos::new(10), 1)
            .probes(1)
            .build();
        let run = sim.run(11);
        assert!(run.is_admissible());
        // Messages 2 → 0 take 100ns (the declared forward direction).
        let d = run.execution.link_delays(ProcessorId(2), ProcessorId(0));
        assert!(d.iter().all(|&x| x == Nanos::new(100)));
    }
}
