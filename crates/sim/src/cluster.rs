//! The network a probe run's [`LinkHealth`] earns, and the threaded
//! executor: every processor an OS thread with its own monotonic clock,
//! started at a secret offset, every message held by its receiver until
//! its sampled delay has elapsed. Threads record views as the paper's
//! model prescribes — clock times only — and the harness keeps the
//! measured start offsets as ground truth. Scheduling jitter only
//! lengthens delays, so declared upper bounds carry a safety
//! [`margin`](Threads::margin) and lower bounds hold by construction.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, Sender};
use std::thread;
use std::time::{Duration, Instant};

use clocksync::{LinkAssumption, Network, SyncError, SyncOutcome, Synchronizer};
use clocksync_model::{Execution, MessageId, ProcessorId, ViewEvent};
use clocksync_obs::FieldValue;
use clocksync_time::{ClockTime, Nanos, RealTime};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::drift::widen;
use crate::engine::{harvest, Engine, Process, Stimulus};
use crate::faults::{transit, FaultPlan};
use crate::protocol::{link_health, LinkHealth, LinkState};
use crate::scenario::Simulation;

/// The network `health` earns over `sim`'s links, their upper bounds
/// first widened by `margin` (see [`Simulation::degraded_network`]).
fn degraded(sim: &Simulation, health: &[LinkHealth], margin: Nanos) -> Network {
    let mut net = Network::builder(sim.n());
    for (h, l) in health.iter().zip(sim.links()) {
        let declared = widen(&l.assumption, Nanos::ZERO, margin);
        let ranges = match &declared {
            LinkAssumption::Bounds { forward, backward } => Some((*forward, *backward)),
            _ => None,
        };
        // |d_f − d_b| ≤ max(hi_f − lo_b, hi_b − lo_f) inside the ranges,
        // clamped positive for two one-point ranges.
        let bias = ranges.and_then(|(f, b)| {
            let widest = (f.upper().finite()? - b.lower()).max(b.upper().finite()? - f.lower());
            Some(widest.max(Nanos::new(1)))
        });
        let assumption = match (h.state, ranges, bias) {
            (LinkState::Healthy, ..) => declared,
            (LinkState::Dropped, ..) => continue,
            (LinkState::RttBias, _, Some(bias)) => LinkAssumption::rtt_bias(bias),
            // The no-bounds conjunct floors the estimate at the next tier
            // down, so more evidence never hurts.
            (LinkState::MarzulloQuorum, Some((fwd, bwd)), _) => LinkAssumption::all(vec![
                LinkAssumption::marzullo_quorum(fwd, bwd, h.rounds_failed),
                LinkAssumption::no_bounds(),
            ]),
            _ => LinkAssumption::no_bounds(),
        };
        net = net.link(ProcessorId(l.a), ProcessorId(l.b), assumption);
    }
    net.build()
}

impl Simulation {
    /// The network a run's link health earns, for `health` in declaration
    /// order (as [`SimRun::health`](crate::SimRun::health) holds it): each
    /// link gets its [`LinkState`] tier's assumption, and dropped links
    /// leave. The middle tiers need per-direction bounds (finite ones for
    /// the bias); a link declared otherwise falls to no-bounds. Every tier
    /// stays truthful: faults lose messages but never push a delivered
    /// delay out of its link's support.
    pub fn degraded_network(&self, health: &[LinkHealth]) -> Network {
        degraded(self, health, Nanos::ZERO)
    }

    /// Runs the scenario on the threaded executor: one OS thread and one
    /// channel per processor, wall-clock timers and real sleeps, the same
    /// [`ProbeProcess`](crate::ProbeProcess) and fault plan as
    /// [`Simulation::run`]. Start offsets come from `seed`; thread timing
    /// does not. The run ends when no message is in flight and no timer
    /// is armed, or when [`Threads::budget`] runs out. A recorder gets a
    /// `net.cluster_run` span, `net.messages_lost`, one `net.link_health`
    /// event per link and a `net.abort` per thread stopped with work left.
    ///
    /// # Panics
    ///
    /// Panics if the fault plan crash-stops a processor (crash times are
    /// simulated real times; run such plans on the engine), or if a
    /// thread panics.
    pub fn run_threaded(&self, seed: u64, threads: Threads) -> ThreadedRun {
        let recorder = &self.recorder;
        let mut run_span = recorder.span("net.cluster_run");
        run_span.field("n", self.n());
        run_span.field("links", self.links().len());
        let mut rng = StdRng::seed_from_u64(seed);
        let engine = self.engine(&mut rng, recorder);
        let mut processes = self.processes();
        let (execution, lost, timed_out) =
            engine.run_threads(&mut processes, &mut rng, &self.faults, threads.budget);
        let health = link_health(self.links(), &processes, &lost);
        for h in health.iter().filter(|_| recorder.is_enabled()) {
            recorder.event(
                "net.link_health",
                [
                    ("a", FieldValue::from(h.a.index())),
                    ("b", FieldValue::from(h.b.index())),
                    ("state", FieldValue::from(h.state.to_string())),
                    ("rounds_ok", FieldValue::from(h.rounds_ok)),
                    ("rounds_failed", FieldValue::from(h.rounds_failed)),
                    ("retries", FieldValue::from(h.retries)),
                    ("lost", FieldValue::from(h.lost)),
                ],
            );
        }
        run_span.field("timed_out", timed_out);
        run_span.finish();
        ThreadedRun {
            network: degraded(self, &health, threads.margin),
            execution,
            health,
            timed_out,
        }
    }
}

/// The settings only the threaded executor reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Threads {
    /// Scheduling-jitter allowance added to declared upper bounds
    /// (default 200 ms; generous on purpose — a violated declaration would
    /// make the views inconsistent with the assumptions).
    pub margin: Nanos,
    /// Wall-clock budget for the whole run (default 30 s). When it runs
    /// out, every thread stops: messages in flight are erased, open rounds
    /// fail, and the run reports [`ThreadedRun::timed_out`].
    pub budget: Nanos,
}

impl Default for Threads {
    fn default() -> Threads {
        Threads {
            margin: Nanos::from_millis(200),
            budget: Nanos::from_secs(30),
        }
    }
}

/// A completed threaded run: measured ground truth plus harvested views.
#[derive(Debug, Clone)]
pub struct ThreadedRun {
    /// The network the synchronizer is told about: the declared links
    /// widened by the jitter margin, then degraded by their health.
    pub network: Network,
    /// Measured execution (views + true thread start times).
    pub execution: Execution,
    /// Per-link probe statistics and degradation decisions, in
    /// declaration order.
    pub health: Vec<LinkHealth>,
    /// The budget ran out with a message in flight or a timer armed; the
    /// affected links are degraded, not waited on.
    pub timed_out: bool,
}

impl ThreadedRun {
    /// Runs the optimal synchronizer on the harvested views over the
    /// degraded network.
    ///
    /// # Errors
    ///
    /// Propagates [`SyncError`]; inconsistent observations would indicate
    /// the jitter margin was exceeded.
    pub fn synchronize(&self) -> Result<SyncOutcome, SyncError> {
        Synchronizer::new(self.network.clone()).synchronize(self.execution.views())
    }
}

/// What a thread receives: a message and when it falls due, or `None`
/// once nothing is in flight and no timer is armed.
type Mail<P> = Option<(Instant, Stimulus<P>)>;

/// What every processor thread shares.
struct Shared<'a, P> {
    engine: &'a Engine,
    plan: &'a FaultPlan,
    inboxes: Vec<Sender<Mail<P>>>,
    /// Starts not yet taken, messages in flight and timers armed, over
    /// all threads. The thread that brings it to zero stops the run.
    outstanding: AtomicUsize,
    next_id: AtomicU64,
    epoch: Instant,
    budget_end: Instant,
}

/// One processor thread's state.
struct Worker<'s, 'a, P> {
    shared: &'s Shared<'a, P>,
    me: ProcessorId,
    start: Instant,
    rng: StdRng,
    /// The view's events, sends of undelivered messages included.
    events: Vec<ViewEvent>,
    /// Armed timers and arrived messages, each with its due time.
    queue: Vec<(Instant, Stimulus<P>)>,
}

fn duration(n: Nanos) -> Duration {
    Duration::from_nanos(u64::try_from(n.as_nanos()).unwrap_or(0))
}

/// Saturates rather than panics on a (pathological) multi-century
/// reading: a capped reading degrades precision instead of crashing.
fn nanos(d: Duration) -> Nanos {
    Nanos::new(i64::try_from(d.as_nanos()).unwrap_or(i64::MAX))
}

impl Engine {
    /// The threaded executor: runs `processes` under `plan` on one OS
    /// thread each, started at the engine's start times as wall-clock
    /// offsets, each drawing delays and faults from a generator seeded from
    /// `rng`. Returns the execution (measured starts), each link's lost
    /// messages, and whether `budget` ran out first.
    pub(crate) fn run_threads<P, Q, R>(
        &self,
        processes: &mut [Q],
        rng: &mut R,
        plan: &FaultPlan,
        budget: Nanos,
    ) -> (Execution, BTreeMap<(usize, usize), usize>, bool)
    where
        P: Clone + Send,
        Q: Process<P> + Send,
        R: Rng + ?Sized,
    {
        let n = self.starts.len();
        assert_eq!(processes.len(), n, "one process per processor required");
        assert!(
            plan.crashes().is_empty(),
            "the threaded executor cannot crash-stop a processor; run crash plans on the engine"
        );
        if let Some(max) = plan.max_processor_index() {
            assert!(max < n, "fault plan references processor {max}, n = {n}");
        }
        let seeds: Vec<u64> = (0..n).map(|_| rng.next_u64()).collect();
        let (inboxes, mailboxes): (Vec<_>, Vec<_>) = (0..n).map(|_| mpsc::channel()).unzip();
        let epoch = Instant::now();
        let shared = Shared {
            engine: self,
            plan,
            inboxes,
            outstanding: AtomicUsize::new(n),
            next_id: AtomicU64::new(0),
            epoch,
            budget_end: epoch + duration(budget),
        };
        let (starts, events) = thread::scope(|scope| {
            let handles: Vec<_> = processes
                .iter_mut()
                .zip(mailboxes)
                .zip(seeds)
                .enumerate()
                .map(|(i, ((process, mailbox), seed))| {
                    let shared = &shared;
                    scope.spawn(move || shared.run_thread(ProcessorId(i), process, &mailbox, seed))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().unwrap_or_else(|e| std::panic::resume_unwind(e)))
                .unzip()
        });
        let (execution, lost) = harvest(starts, events);
        let timed_out = shared.outstanding.load(Ordering::SeqCst) > 0;
        (execution, lost, timed_out)
    }
}

impl<P: Clone + Send> Shared<'_, P> {
    /// Thread `me`: sleeps its secret start offset, starts, then takes
    /// each timer and delivery as it falls due until the run stops or the
    /// budget runs out. Returns the measured start and the view's events.
    fn run_thread<Q: Process<P>>(
        &self,
        me: ProcessorId,
        process: &mut Q,
        mailbox: &Receiver<Mail<P>>,
        seed: u64,
    ) -> (RealTime, Vec<ViewEvent>) {
        thread::sleep(duration(self.engine.starts[me.index()] - RealTime::ZERO));
        let start = Instant::now();
        let mut worker = Worker {
            shared: self,
            me,
            start,
            rng: StdRng::seed_from_u64(seed),
            events: Vec::new(),
            queue: Vec::new(),
        };
        worker.step(process, Stimulus::Start, Nanos::ZERO);
        loop {
            // Take in every arrival, then the earliest item once it is due.
            let next = (0..worker.queue.len()).min_by_key(|&k| worker.queue[k].0);
            let due = next.map_or(self.budget_end, |k| worker.queue[k].0);
            let wait = due
                .min(self.budget_end)
                .saturating_duration_since(Instant::now());
            match mailbox.recv_timeout(wait) {
                Ok(Some(arrival)) => worker.queue.push(arrival),
                Ok(None) => break,
                // `Shared` holds every sender until all threads end.
                Err(RecvTimeoutError::Disconnected) => unreachable!("inboxes outlive threads"),
                Err(RecvTimeoutError::Timeout) if Instant::now() < self.budget_end => {
                    let (_, stimulus) = worker.queue.swap_remove(next.expect("a due item"));
                    worker.step(process, stimulus, nanos(start.elapsed()));
                }
                Err(RecvTimeoutError::Timeout) => {
                    let recorder = &self.engine.recorder;
                    if recorder.is_enabled() && next.is_some() {
                        let elapsed = nanos(start.elapsed()).as_nanos();
                        recorder.event(
                            "net.abort",
                            [
                                ("processor", FieldValue::from(me.index())),
                                ("pending", FieldValue::from(worker.queue.len())),
                                ("elapsed_ns", FieldValue::from(elapsed)),
                            ],
                        );
                    }
                    break;
                }
            }
        }
        (RealTime::ZERO + nanos(start - self.epoch), worker.events)
    }
}

impl<P: Clone + Send> Worker<'_, '_, P> {
    /// One step at local time `elapsed`; the stimulus it consumes stops
    /// being outstanding once the step's own sends and timers count.
    fn step<Q: Process<P>>(&mut self, process: &mut Q, stimulus: Stimulus<P>, elapsed: Nanos) {
        let shared = self.shared;
        let clock = ClockTime::ZERO + elapsed;
        let ctx = shared
            .engine
            .react(self.me, clock, process, stimulus, &mut self.events);
        // Every send of the step leaves at the step's clock reading, so a
        // message held until `sent_at + delay` takes at least `delay`.
        let sent_at = self.start + duration(elapsed);
        for (to, payload) in ctx.sends {
            self.send(to, payload, clock, sent_at);
        }
        for at in ctx.timers {
            shared.outstanding.fetch_add(1, Ordering::SeqCst);
            let due = self.start + duration(at - ClockTime::ZERO);
            self.queue.push((due, Stimulus::Timer));
        }
        if shared.outstanding.fetch_sub(1, Ordering::SeqCst) == 1 {
            for inbox in &shared.inboxes {
                let _ = inbox.send(None);
            }
        }
    }

    /// Records one send under the fault plan and puts it (and a
    /// duplicate, if the link makes one) in flight, unless the link loses
    /// it. A receiver whose budget ran out leaves its messages in flight.
    fn send(&mut self, to: ProcessorId, payload: P, clock: ClockTime, sent_at: Instant) {
        let (me, shared) = (self.me, self.shared);
        let key = (me.index().min(to.index()), me.index().max(to.index()));
        let link = shared.engine.links.get(&key);
        let link = link.unwrap_or_else(|| panic!("{me} sent to non-neighbor {to}"));
        let now = RealTime::ZERO + nanos(sent_at - shared.epoch);
        let transit = transit(
            link,
            me < to,
            shared.plan.link_faults(key),
            now,
            &mut self.rng,
        );
        let id = || MessageId(shared.next_id.fetch_add(1, Ordering::Relaxed));
        let Some(transit) = transit else {
            self.events.push(ViewEvent::Send {
                to,
                id: id(),
                clock,
            });
            shared.engine.recorder.incr("net.messages_lost", 1);
            return;
        };
        for delay in transit.copy.into_iter().chain([transit.delay]) {
            let id = id();
            self.events.push(ViewEvent::Send { to, id, clock });
            shared.outstanding.fetch_add(1, Ordering::SeqCst);
            let payload = payload.clone();
            let message = Stimulus::Message {
                from: me,
                id,
                payload,
            };
            let _ = shared.inboxes[to.index()].send(Some((sent_at + duration(delay), message)));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DelayDistribution, LinkModel, SimulationBuilder};
    use clocksync::DelayRange;
    use clocksync_obs::Recorder;
    use clocksync_time::Ext;

    fn ms(x: i64) -> Nanos {
        Nanos::from_millis(x)
    }

    fn us(x: i64) -> Nanos {
        Nanos::from_micros(x)
    }

    fn uniform(lo: Nanos, hi: Nanos) -> LinkModel {
        LinkModel::symmetric(DelayDistribution::uniform(lo, hi))
    }

    /// Two processors on one uniform link, probe rounds and starts at
    /// most 2 ms apart.
    fn pair(lo: Nanos, hi: Nanos) -> SimulationBuilder {
        Simulation::builder(2)
            .truthful_link(0, 1, uniform(lo, hi))
            .spacing(ms(2))
            .start_spread(ms(2))
    }

    /// The health a link reports when every round completed on the
    /// first try.
    fn healthy(a: usize, b: usize, probes: usize) -> LinkHealth {
        LinkHealth {
            a: ProcessorId(a),
            b: ProcessorId(b),
            probes_sent: probes,
            retries: 0,
            lost: 0,
            rounds_ok: probes,
            rounds_failed: 0,
            state: LinkState::Healthy,
        }
    }

    #[test]
    fn two_thread_cluster_synchronizes_within_guarantee() {
        let run = pair(ms(1), ms(2))
            .probes(2)
            .build()
            .run_threaded(1, Threads::default());
        assert!(run.network.admits(&run.execution));
        // Every link came through with its bounds intact.
        assert!(run.health.iter().all(|h| h.state == LinkState::Healthy));
        assert!(!run.timed_out);
        let outcome = run.synchronize().unwrap();
        assert!(outcome.precision().is_finite());
        let err = run.execution.discrepancy(outcome.corrections());
        assert!(Ext::Finite(err) <= outcome.precision());
    }

    #[test]
    fn delays_respect_the_configured_floor() {
        let run = pair(ms(2), ms(2))
            .probes(1)
            .build()
            .run_threaded(3, Threads::default());
        for m in run.execution.messages() {
            assert!(m.delay >= ms(2), "delay {} too small", m.delay);
        }
    }

    #[test]
    fn zero_floor_is_allowed() {
        // The paper's asynchronous model (§6) has lb = 0; the runtime must
        // accept it and still synchronize.
        let run = pair(Nanos::ZERO, ms(1))
            .probes(2)
            .build()
            .run_threaded(11, Threads::default());
        assert!(run.network.admits(&run.execution));
        let outcome = run.synchronize().unwrap();
        assert!(outcome.precision().is_finite());
    }

    /// A link that answers nothing, probed with a deadline *longer* than
    /// the whole 300-ms budget: the round can neither complete nor expire.
    fn wedged() -> SimulationBuilder {
        pair(us(100), ms(1))
            .probes(1)
            .retry(Nanos::from_secs(10), 0)
            .faults(FaultPlan::new().drop_messages(ProcessorId(0), ProcessorId(1), 1.0))
    }

    const BUDGET: Threads = Threads {
        margin: Nanos::from_millis(200),
        budget: Nanos::from_millis(300),
    };

    #[test]
    fn wedged_run_aborts_gracefully_instead_of_panicking() {
        // The threads stop at the budget, the open round counts as failed,
        // the link degrades to Dropped, and the outcome is still total.
        let began = Instant::now();
        let run = wedged().build().run_threaded(7, BUDGET);
        assert!(
            began.elapsed() < Duration::from_secs(5),
            "waited on the deadline"
        );
        assert!(run.timed_out, "the budget must have run out");
        assert_eq!(run.health[0].state, LinkState::Dropped);
        assert_eq!(run.health[0].rounds_ok, 0);
        assert_eq!(run.health[0].rounds_failed, 1);
        assert_eq!(run.network.link_count(), 0);
        // Degraded but total: the synchronizer still answers, with the
        // endpoints in separate components rather than a panic.
        let outcome = run.synchronize().unwrap();
        assert_eq!(outcome.corrections().len(), 2);
        assert_ne!(
            outcome.component_of(ProcessorId(0)),
            outcome.component_of(ProcessorId(1))
        );
    }

    #[test]
    fn aborted_run_emits_the_abort_event() {
        // Same wedge, recorder attached: the trace must carry the abort
        // and the Dropped link-health transition.
        let recorder = Recorder::enabled();
        let run = wedged()
            .recorder(recorder.clone())
            .build()
            .run_threaded(7, BUDGET);
        assert!(run.timed_out);
        let trace = recorder.snapshot();
        assert!(trace.events_named("net.abort").count() > 0);
        assert_eq!(trace.events_named("net.link_health").count(), 1);
        assert!(trace.span_names().contains(&"net.cluster_run"));
    }

    #[test]
    #[should_panic(expected = "cannot crash-stop")]
    fn threads_refuse_a_crash_plan() {
        let crash = FaultPlan::new().crash(ProcessorId(1), RealTime::ZERO);
        let sim = pair(ms(1), ms(2)).faults(crash).build();
        let _ = sim.run_threaded(1, Threads::default());
    }

    #[test]
    fn asymmetric_links_sample_per_direction() {
        // Forward (0→1) exactly 1ms, backward exactly 4ms: the delays must
        // reflect the orientation, and so must the declared assumption.
        let link = LinkModel::Independent {
            forward: DelayDistribution::constant(ms(1)),
            backward: DelayDistribution::constant(ms(4)),
        };
        let run = Simulation::builder(2)
            .truthful_link(0, 1, link)
            .probes(2)
            .spacing(ms(2))
            .start_spread(ms(2))
            .build()
            .run_threaded(5, Threads::default());
        for m in run.execution.messages() {
            let floor = if m.src < m.dst { ms(1) } else { ms(4) };
            assert!(m.delay >= floor, "{:?}→{:?}: {}", m.src, m.dst, m.delay);
        }
        assert!(run.network.admits(&run.execution));
        let outcome = run.synchronize().unwrap();
        let err = run.execution.discrepancy(outcome.corrections());
        assert!(Ext::Finite(err) <= outcome.precision());
    }

    #[test]
    fn both_executors_run_the_same_protocol() {
        // Lossless constant-delay triangle: the engine and the threads send
        // the same messages and report the same health, and both
        // certificates hold against their ground truth.
        let constant = |d| LinkModel::symmetric(DelayDistribution::constant(d));
        let probes = 2;
        let sim = Simulation::builder(3)
            .truthful_link(0, 1, constant(ms(1)))
            .truthful_link(1, 2, constant(ms(2)))
            .truthful_link(0, 2, constant(ms(1)))
            .probes(probes)
            .spacing(ms(2))
            .start_spread(ms(2))
            .build();
        let engine = sim.run(3);
        let threads = sim.run_threaded(3, Threads::default());
        let expected = vec![
            healthy(0, 1, probes),
            healthy(1, 2, probes),
            healthy(0, 2, probes),
        ];
        for (execution, health, network) in [
            (&engine.execution, &engine.health, &engine.network),
            (&threads.execution, &threads.health, &threads.network),
        ] {
            for (p, q) in [(0, 1), (1, 0), (1, 2), (2, 1), (0, 2), (2, 0)] {
                let sent = execution.link_delays(ProcessorId(p), ProcessorId(q));
                assert_eq!(sent.len(), probes, "{p}→{q}");
            }
            assert_eq!(health, &expected);
            let outcome = Synchronizer::new(network.clone())
                .synchronize(execution.views())
                .unwrap();
            let err = execution.discrepancy(outcome.corrections());
            assert!(Ext::Finite(err) <= outcome.precision());
        }
        assert!(!threads.timed_out);
    }

    #[test]
    fn degradation_classification_rules() {
        assert_eq!(LinkHealth::classify(0, 0), LinkState::Dropped);
        assert_eq!(LinkHealth::classify(0, 3), LinkState::Dropped);
        assert_eq!(LinkHealth::classify(4, 0), LinkState::Healthy);
        // Failure rate picks the tier: ≤ 1/4 → rtt-bias, ≤ 1/2 →
        // marzullo-quorum, worse → no-bounds.
        assert_eq!(LinkHealth::classify(3, 1), LinkState::RttBias);
        assert_eq!(LinkHealth::classify(12, 4), LinkState::RttBias);
        assert_eq!(LinkHealth::classify(2, 1), LinkState::MarzulloQuorum);
        assert_eq!(LinkHealth::classify(2, 2), LinkState::MarzulloQuorum);
        assert_eq!(LinkHealth::classify(1, 2), LinkState::NoBounds);
        assert_eq!(LinkHealth::classify(1, 30), LinkState::NoBounds);
    }

    #[test]
    fn every_degraded_tier_is_admissible_and_monotone() {
        // Run once, then reinterpret the single link under every lattice
        // tier: each tier's replacement assumption must admit the true
        // execution (truthfulness), and the estimates must respect the
        // lattice's partial order — full bounds are the tightest,
        // no-bounds the loosest, and both intermediate tiers sit between
        // them (the two middles are mutually incomparable: which is
        // tighter depends on the failure count and the evidence).
        let sim = pair(us(100), ms(1)).probes(4).build();
        let run = sim.run(17);
        let mut health = run.health.clone();
        let observations = run.network.link_observations(run.execution.views());
        let mls_at = |health: &[LinkHealth]| {
            let net = sim.degraded_network(health);
            assert!(
                net.admits(&run.execution),
                "{} must stay truthful",
                health[0].state
            );
            clocksync::estimated_local_shifts(&net, &observations).get(0, 1)
        };
        health[0].state = LinkState::Healthy;
        let healthy = mls_at(&health);
        health[0].state = LinkState::RttBias;
        let rtt_bias = mls_at(&health);
        health[0].state = LinkState::MarzulloQuorum;
        health[0].rounds_failed = 1;
        let marzullo = mls_at(&health);
        health[0].state = LinkState::NoBounds;
        let no_bounds = mls_at(&health);
        assert!(healthy <= rtt_bias && rtt_bias <= no_bounds);
        assert!(healthy <= marzullo && marzullo <= no_bounds);
        // And the Marzullo tier must actually carry a fusion.
        health[0].state = LinkState::MarzulloQuorum;
        let net = sim.degraded_network(&health);
        let (_, _, a) = net.links().next().unwrap();
        let s = net
            .slot(ProcessorId(0), ProcessorId(1))
            .expect("the pair's link");
        let ev = observations.evidence(s, net.link_table().reverse(s));
        let stats = a.fusion_stats(&ev).expect("marzullo tier has a fusion");
        assert!(stats.quorum_reached);
        assert_eq!(stats.discarded, 0, "honest traffic is never discarded");
    }

    #[test]
    fn lossy_link_recovers_through_retries() {
        // 40% loss: four probes or echoes are lost, and four resends bring
        // every round home.
        let sim = pair(us(100), ms(1))
            .probes(3)
            .retry(ms(10), 6)
            .faults(FaultPlan::new().drop_messages(ProcessorId(0), ProcessorId(1), 0.4))
            .build();
        let run = sim.run(21);
        assert_eq!(
            run.health,
            vec![LinkHealth {
                probes_sent: 7,
                retries: 4,
                lost: 4,
                ..healthy(0, 1, 3)
            }]
        );
        assert_eq!(run.faults.dropped.len(), 4);
        assert!(run.is_admissible());
        let outcome = run.synchronize().unwrap();
        let err = run.true_discrepancy(outcome.corrections());
        assert!(Ext::Finite(err) <= outcome.precision());
    }

    #[test]
    fn dead_link_drops_out_instead_of_wedging() {
        // Link 1–2 loses everything: both rounds exhaust their one retry,
        // the link is Dropped, p2 ends up in its own component, and the
        // survivors 0–1 still get a finite mutual guarantee.
        let link = uniform(us(500), ms(1));
        let sim = Simulation::builder(3)
            .truthful_link(0, 1, link.clone())
            .truthful_link(1, 2, link)
            .probes(2)
            .spacing(ms(2))
            .retry(ms(4), 1)
            .faults(FaultPlan::new().drop_messages(ProcessorId(1), ProcessorId(2), 1.0))
            .build();
        let run = sim.run(31);
        assert_eq!(run.health[0], healthy(0, 1, 2));
        assert_eq!(
            run.health[1],
            LinkHealth {
                a: ProcessorId(1),
                b: ProcessorId(2),
                probes_sent: 4,
                retries: 2,
                lost: 4,
                rounds_ok: 0,
                rounds_failed: 2,
                state: LinkState::Dropped,
            }
        );
        let network = sim.degraded_network(&run.health);
        assert_eq!(network.link_count(), 1);
        assert!(network.admits(&run.execution));
        let outcome = Synchronizer::new(network)
            .synchronize(run.execution.views())
            .unwrap();
        assert!(outcome
            .pair_bound(ProcessorId(0), ProcessorId(1))
            .is_finite());
        assert_ne!(
            outcome.component_of(ProcessorId(2)),
            outcome.component_of(ProcessorId(0))
        );
    }

    /// Four rounds 1 ms apart over a 100–200 µs link, with a 500-µs
    /// deadline and one retry; the link is down while each round in
    /// `killed` sends its probe and its resend. Returns the link's health
    /// on the engine and the assumption its degraded network declares.
    fn killing(killed: &[i64]) -> (LinkHealth, Option<LinkAssumption>) {
        let plan = killed.iter().fold(FaultPlan::new(), |plan, &r| {
            let sent = RealTime::ZERO + us(100) + ms(r);
            plan.link_down(ProcessorId(0), ProcessorId(1), sent, sent + us(600))
        });
        let sim = pair(us(100), us(200))
            .probes(4)
            .spacing(ms(1))
            .start_spread(Nanos::ZERO)
            .retry(us(500), 1)
            .faults(plan)
            .build();
        let run = sim.run(5);
        let network = sim.degraded_network(&run.health);
        assert!(network.admits(&run.execution), "{}", run.health[0]);
        let assumption = network.links().next().map(|(_, _, a)| a.clone());
        (run.health[0], assumption)
    }

    #[test]
    fn one_failed_round_in_four_keeps_the_rtt_bias() {
        let (health, assumption) = killing(&[1]);
        assert_eq!(
            health,
            LinkHealth {
                probes_sent: 5,
                retries: 1,
                lost: 2,
                rounds_ok: 3,
                rounds_failed: 1,
                state: LinkState::RttBias,
                ..healthy(0, 1, 4)
            }
        );
        // Both directions declare 100–200 µs: bias at most 100 µs.
        assert_eq!(assumption, Some(LinkAssumption::rtt_bias(us(100))));
    }

    #[test]
    fn two_failed_rounds_in_four_keep_quorum_votes() {
        let (health, assumption) = killing(&[1, 2]);
        assert_eq!(
            health,
            LinkHealth {
                probes_sent: 6,
                retries: 2,
                lost: 4,
                rounds_ok: 2,
                rounds_failed: 2,
                state: LinkState::MarzulloQuorum,
                ..healthy(0, 1, 4)
            }
        );
        let range = DelayRange::new(us(100), us(200));
        assert_eq!(
            assumption,
            Some(LinkAssumption::all(vec![
                LinkAssumption::marzullo_quorum(range, range, 2),
                LinkAssumption::no_bounds(),
            ]))
        );
    }

    #[test]
    fn three_failed_rounds_in_four_keep_no_bounds() {
        let (health, assumption) = killing(&[1, 2, 3]);
        assert_eq!(
            health,
            LinkHealth {
                probes_sent: 7,
                retries: 3,
                lost: 6,
                rounds_ok: 1,
                rounds_failed: 3,
                state: LinkState::NoBounds,
                ..healthy(0, 1, 4)
            }
        );
        assert_eq!(assumption, Some(LinkAssumption::no_bounds()));
    }

    #[test]
    fn resends_back_off_exponentially() {
        // Echoes take 4 ms to come back, far past a 100-µs deadline: the
        // initiator resends at d, 3d and 7d after its first send, gives the
        // round up at 15d, and ignores the echoes that arrive later.
        let d = us(100);
        let sim = pair(ms(2), ms(2))
            .probes(1)
            .start_spread(Nanos::ZERO)
            .retry(d, 3)
            .build();
        let run = sim.run(9);
        assert_eq!(
            run.health,
            vec![LinkHealth {
                probes_sent: 4,
                retries: 3,
                rounds_ok: 0,
                rounds_failed: 1,
                state: LinkState::Dropped,
                ..healthy(0, 1, 1)
            }]
        );
        let sends: Vec<ClockTime> = run
            .execution
            .views()
            .view(ProcessorId(0))
            .events()
            .iter()
            .filter_map(|e| match *e {
                ViewEvent::Send { clock, .. } => Some(clock),
                _ => None,
            })
            .collect();
        let first = ClockTime::ZERO + us(100);
        assert_eq!(sends, vec![first, first + d, first + d * 3, first + d * 7]);
        assert_eq!(run.execution.messages().len(), 8, "every echo still lands");
    }
}
