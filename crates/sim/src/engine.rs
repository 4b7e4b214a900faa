//! A discrete-event network simulator producing model [`Execution`]s.
//!
//! The engine is the workspace's stand-in for the paper's mathematical
//! executions: reactive processes exchange messages over links with sampled
//! delays, every step is recorded with the *clock time* the processor would
//! see, and the result is a fully validated [`Execution`] — views for the
//! synchronizer, hidden start times and true delays for evaluation.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap, HashMap, HashSet};

use clocksync_model::{Execution, MessageId, ProcessorId, View, ViewEvent, ViewSet};
use clocksync_obs::Recorder;
#[cfg(test)]
use clocksync_time::Nanos;
use clocksync_time::{ClockTime, RealTime};
use rand::Rng;

use crate::delay::ResolvedLink;
use crate::faults::{transit, FaultLog, FaultPlan};

/// A reactive processor behaviour.
///
/// Implementations are driven by the engine through interrupt events,
/// mirroring the paper's automaton model: each callback may emit sends and
/// set timers through the [`ProcessCtx`].
pub trait Process<P = u64> {
    /// The processor starts (its clock reads 0).
    fn on_start(&mut self, ctx: &mut ProcessCtx<P>);
    /// A message arrives.
    fn on_message(&mut self, from: ProcessorId, payload: P, ctx: &mut ProcessCtx<P>);
    /// A timer set for the current clock time fires.
    fn on_timer(&mut self, ctx: &mut ProcessCtx<P>);
}

/// The interface a [`Process`] uses to act on the world.
#[derive(Debug)]
pub struct ProcessCtx<P = u64> {
    id: ProcessorId,
    clock: ClockTime,
    neighbors: Vec<ProcessorId>,
    pub(crate) sends: Vec<(ProcessorId, P)>,
    pub(crate) timers: Vec<ClockTime>,
}

impl<P> ProcessCtx<P> {
    /// This processor's id.
    pub fn id(&self) -> ProcessorId {
        self.id
    }

    /// The current local clock reading.
    pub fn clock(&self) -> ClockTime {
        self.clock
    }

    /// The processors this one shares a link with, ascending.
    pub fn neighbors(&self) -> &[ProcessorId] {
        &self.neighbors
    }

    /// Sends `payload` to `to` (must be a neighbor).
    pub fn send(&mut self, to: ProcessorId, payload: P) {
        self.sends.push((to, payload));
    }

    /// Sets a timer to fire when the local clock reads `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is not strictly in the future.
    pub fn set_timer(&mut self, at: ClockTime) {
        assert!(at > self.clock, "timers must be set for the future");
        self.timers.push(at);
    }
}

/// What a processor reacts to in one step: its start, a timer, or a
/// message.
#[derive(Debug, Clone)]
pub(crate) enum Stimulus<P> {
    Start,
    Timer,
    Message {
        from: ProcessorId,
        id: MessageId,
        payload: P,
    },
}

/// The default runaway-protocol safety cap: a run that processes more
/// events panics (see [`Engine::set_max_events`]).
pub const MAX_EVENTS: usize = 1_000_000;

/// The discrete-event engine.
///
/// # Examples
///
/// See [`crate::Simulation`], which wires topologies, delay models and the
/// probe protocol into the engine.
#[derive(Debug)]
pub struct Engine {
    pub(crate) starts: Vec<RealTime>,
    pub(crate) links: HashMap<(usize, usize), ResolvedLink>,
    neighbors: Vec<Vec<ProcessorId>>,
    max_events: usize,
    pub(crate) recorder: Recorder,
}

impl Engine {
    /// Creates an engine over `starts.len()` processors; `links` maps each
    /// undirected pair `(a, b)` with `a < b` to its resolved delay model.
    ///
    /// # Panics
    ///
    /// Panics if a link references an unknown processor or is not in
    /// canonical `(low, high)` form.
    pub fn new(starts: Vec<RealTime>, links: HashMap<(usize, usize), ResolvedLink>) -> Engine {
        let n = starts.len();
        let mut neighbors = vec![Vec::new(); n];
        for &(a, b) in links.keys() {
            assert!(a < b && b < n, "link ({a},{b}) is not canonical/in range");
            neighbors[a].push(ProcessorId(b));
            neighbors[b].push(ProcessorId(a));
        }
        for nb in &mut neighbors {
            nb.sort_unstable();
        }
        Engine {
            starts,
            links,
            neighbors,
            max_events: MAX_EVENTS,
            recorder: Recorder::disabled(),
        }
    }

    /// Replaces the runaway-protocol safety cap (default one million
    /// events).
    pub fn set_max_events(&mut self, cap: usize) {
        self.max_events = cap;
    }

    /// Attaches an observability recorder; each run then emits a
    /// `sim.run` span and the `sim.*` delivery counters (taxonomy in
    /// DESIGN.md §6). Recording never touches the random stream, so runs
    /// are bit-identical with and without it.
    pub fn set_recorder(&mut self, recorder: Recorder) {
        self.recorder = recorder;
    }

    /// Runs the processes until no events remain, injecting the faults
    /// scheduled in `plan`, and returns the recorded execution with the
    /// [`FaultLog`] of what actually fired. The payload type `P` is free,
    /// so protocols can carry structured data (timestamps, shift reports,
    /// corrections — see [`crate::DistributedSync`]). The processes are
    /// borrowed, so a caller can read what they tallied after the run.
    ///
    /// The execution satisfies every model axiom: sends of lost messages
    /// are erased from the views at harvest (the processors cannot tell
    /// "lost" from "never sent"), duplicates are fresh messages with their
    /// own ids, and crash-stopped processors simply have short views. A
    /// fault draws from `rng` only where its probability is positive, so
    /// an empty plan consumes no extra draws and its log is clean.
    ///
    /// # Panics
    ///
    /// Panics if `processes.len()` differs from the processor count, if a
    /// process sends to a non-neighbor, if the event cap is exceeded (a
    /// non-terminating protocol), or if `plan` references an out-of-range
    /// processor.
    pub fn run<P: Clone, Q: Process<P>, R: Rng + ?Sized>(
        &self,
        processes: &mut [Q],
        rng: &mut R,
        plan: &FaultPlan,
    ) -> (Execution, FaultLog) {
        let n = self.starts.len();
        assert_eq!(processes.len(), n, "one process per processor required");
        let mut run_span = self.recorder.span("sim.run");
        run_span.field("n", n);
        if let Some(max) = plan.max_processor_index() {
            assert!(max < n, "fault plan references processor {max}, n = {n}");
        }
        let mut log = FaultLog {
            crashed: plan.crashes(),
            ..FaultLog::default()
        };

        // Min-heap on (time, sequence) for deterministic tie-breaking.
        let mut queue: BinaryHeap<Reverse<(RealTime, u64)>> = BinaryHeap::new();
        let mut payloads: HashMap<u64, (ProcessorId, Stimulus<P>)> = HashMap::new();
        let mut seq = 0u64;
        let push = |queue: &mut BinaryHeap<_>,
                    payloads: &mut HashMap<u64, (ProcessorId, Stimulus<P>)>,
                    seq: &mut u64,
                    at: RealTime,
                    kind: (ProcessorId, Stimulus<P>)| {
            queue.push(Reverse((at, *seq)));
            payloads.insert(*seq, kind);
            *seq += 1;
        };

        for (i, &s) in self.starts.iter().enumerate() {
            push(
                &mut queue,
                &mut payloads,
                &mut seq,
                s,
                (ProcessorId(i), Stimulus::Start),
            );
        }

        let mut events: Vec<Vec<ViewEvent>> = vec![Vec::new(); n];
        let mut next_msg_id = 0u64;
        let mut processed = 0usize;

        while let Some(Reverse((now, s))) = queue.pop() {
            processed += 1;
            assert!(
                processed <= self.max_events,
                "event cap exceeded: protocol does not terminate"
            );
            let (p, stimulus) = payloads.remove(&s).expect("event payload present");
            let clock = ClockTime::ZERO + (now - self.starts[p.index()]);
            if plan.crash_time(p).is_some_and(|t| now >= t) {
                match stimulus {
                    // The processor booted, then died: keep the mandatory
                    // start event so its (empty) view stays well-formed.
                    Stimulus::Start => events[p.index()].push(ViewEvent::Start { clock }),
                    // A message into the void; the sender's send event is
                    // erased at harvest.
                    Stimulus::Message { id, .. } => {
                        self.recorder.incr("sim.messages_dropped", 1);
                        log.dropped.push(id);
                    }
                    Stimulus::Timer => {}
                }
                continue;
            }
            match stimulus {
                Stimulus::Start => {}
                Stimulus::Timer => self.recorder.incr("sim.timers_fired", 1),
                Stimulus::Message { .. } => self.recorder.incr("sim.messages_delivered", 1),
            }
            let process = &mut processes[p.index()];
            let ctx = self.react(p, clock, process, stimulus, &mut events[p.index()]);

            // Apply the actions the process requested.
            for (to, payload) in ctx.sends {
                let key = (p.index().min(to.index()), p.index().max(to.index()));
                let link = self
                    .links
                    .get(&key)
                    .unwrap_or_else(|| panic!("{p} sent to non-neighbor {to}"));
                let transit = transit(
                    link,
                    p.index() < to.index(),
                    plan.link_faults(key),
                    now,
                    rng,
                );
                let id = MessageId(next_msg_id);
                next_msg_id += 1;
                self.recorder.incr("sim.messages_sent", 1);
                events[p.index()].push(ViewEvent::Send { to, id, clock });
                let Some(transit) = transit else {
                    self.recorder.incr("sim.messages_dropped", 1);
                    log.dropped.push(id);
                    continue;
                };
                if transit.reordered {
                    log.reordered.push(id);
                }
                if let Some(copy_delay) = transit.copy {
                    // The copy is a genuine extra message: fresh id, its
                    // own send event (same clock) and its own delay draw.
                    let copy = MessageId(next_msg_id);
                    next_msg_id += 1;
                    events[p.index()].push(ViewEvent::Send {
                        to,
                        id: copy,
                        clock,
                    });
                    self.recorder.incr("sim.messages_duplicated", 1);
                    log.duplicated.push((id, copy));
                    push(
                        &mut queue,
                        &mut payloads,
                        &mut seq,
                        now + copy_delay,
                        (
                            to,
                            Stimulus::Message {
                                from: p,
                                id: copy,
                                payload: payload.clone(),
                            },
                        ),
                    );
                }
                push(
                    &mut queue,
                    &mut payloads,
                    &mut seq,
                    now + transit.delay,
                    (
                        to,
                        Stimulus::Message {
                            from: p,
                            id,
                            payload,
                        },
                    ),
                );
            }
            for at in ctx.timers {
                push(
                    &mut queue,
                    &mut payloads,
                    &mut seq,
                    self.starts[p.index()] + (at - ClockTime::ZERO),
                    (p, Stimulus::Timer),
                );
            }
        }

        let (execution, per_link) = harvest(self.starts.clone(), events);
        log.dropped_per_link = per_link;
        run_span.field("events", processed);
        run_span.finish();
        (execution, log)
    }

    /// One step, the same on both executors: records `stimulus` in
    /// processor `p`'s `view` at local time `clock`, lets `process` react,
    /// and returns the sends and timers it asks for.
    pub(crate) fn react<P, Q: Process<P>>(
        &self,
        p: ProcessorId,
        clock: ClockTime,
        process: &mut Q,
        stimulus: Stimulus<P>,
        view: &mut Vec<ViewEvent>,
    ) -> ProcessCtx<P> {
        let neighbors = self.neighbors[p.index()].clone();
        let (sends, timers) = (Vec::new(), Vec::new());
        let mut ctx = ProcessCtx {
            id: p,
            clock,
            neighbors,
            sends,
            timers,
        };
        match stimulus {
            Stimulus::Start => {
                view.push(ViewEvent::Start { clock });
                process.on_start(&mut ctx);
            }
            Stimulus::Timer => {
                view.push(ViewEvent::Timer { clock });
                process.on_timer(&mut ctx);
            }
            Stimulus::Message { from, id, payload } => {
                view.push(ViewEvent::Recv { from, id, clock });
                process.on_message(from, payload, &mut ctx);
            }
        }
        ctx
    }
}

/// The harvest both executors share: builds the execution from each
/// processor's events, erasing every send without a receive (to the
/// survivors a lost message is indistinguishable from one never sent, and
/// the model requires matched pairs), and counts each link's lost sends.
/// Panics on invalid views, which only an executor bug can produce.
pub(crate) fn harvest(
    starts: Vec<RealTime>,
    mut events: Vec<Vec<ViewEvent>>,
) -> (Execution, BTreeMap<(usize, usize), usize>) {
    let received: HashSet<MessageId> = events
        .iter()
        .flatten()
        .filter_map(|e| match *e {
            ViewEvent::Recv { id, .. } => Some(id),
            _ => None,
        })
        .collect();
    let mut lost = BTreeMap::new();
    for (p, evts) in events.iter_mut().enumerate() {
        evts.retain(|e| match *e {
            ViewEvent::Send { to, id, .. } if !received.contains(&id) => {
                *lost
                    .entry((p.min(to.index()), p.max(to.index())))
                    .or_default() += 1;
                false
            }
            _ => true,
        });
    }
    let views: Vec<View> = events
        .into_iter()
        .enumerate()
        .map(|(i, evts)| View::from_events(ProcessorId(i), evts))
        .collect();
    let views = ViewSet::new(views).expect("executors produce valid views");
    let execution = Execution::new(starts, views).expect("one start per view");
    (execution, lost)
}

/// Silence-is-golden process: never sends anything. Useful for tests and
/// for modelling passive processors.
#[derive(Debug, Default, Clone, Copy)]
pub struct IdleProcess;

impl<P> Process<P> for IdleProcess {
    fn on_start(&mut self, _ctx: &mut ProcessCtx<P>) {}
    fn on_message(&mut self, _from: ProcessorId, _payload: P, _ctx: &mut ProcessCtx<P>) {}
    fn on_timer(&mut self, _ctx: &mut ProcessCtx<P>) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::delay::{DelayDistribution, LinkModel};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn link(d: i64) -> ResolvedLink {
        LinkModel::symmetric(DelayDistribution::constant(Nanos::new(d)))
            .resolve(&mut StdRng::seed_from_u64(0))
    }

    /// Sends one ping to every higher-id neighbor at start; echoes pings.
    #[derive(Debug, Default)]
    struct Ping;

    impl Process for Ping {
        fn on_start(&mut self, ctx: &mut ProcessCtx) {
            for &nb in &ctx.neighbors().to_vec() {
                if nb > ctx.id() {
                    ctx.send(nb, 0);
                }
            }
        }
        fn on_message(&mut self, from: ProcessorId, payload: u64, ctx: &mut ProcessCtx) {
            if payload == 0 {
                ctx.send(from, 1);
            }
        }
        fn on_timer(&mut self, _ctx: &mut ProcessCtx) {}
    }

    #[test]
    fn ping_pong_round_trip() {
        let mut links = HashMap::new();
        links.insert((0usize, 1usize), link(250));
        // The initiator starts last so its ping cannot arrive before the
        // responder's start (the model has no pre-start queueing).
        let engine = Engine::new(vec![RealTime::from_nanos(1_000), RealTime::ZERO], links);
        let (exec, _) = engine.run(
            &mut [Ping, Ping],
            &mut StdRng::seed_from_u64(1),
            &FaultPlan::new(),
        );
        let msgs = exec.messages();
        assert_eq!(msgs.len(), 2);
        assert!(msgs.iter().all(|m| m.delay == Nanos::new(250)));
        // The echo happened at the receiver's receive time.
        let ping = msgs.iter().find(|m| m.src == ProcessorId(0)).unwrap();
        let pong = msgs.iter().find(|m| m.src == ProcessorId(1)).unwrap();
        assert_eq!(pong.sent_at, ping.received_at);
    }

    #[test]
    fn idle_processes_produce_start_only_views() {
        let engine = Engine::new(vec![RealTime::ZERO, RealTime::ZERO], HashMap::new());
        let (exec, _) = engine.run::<u64, _, _>(
            &mut [IdleProcess, IdleProcess],
            &mut StdRng::seed_from_u64(1),
            &FaultPlan::new(),
        );
        assert!(exec.messages().is_empty());
        assert_eq!(exec.views().view(ProcessorId(0)).events().len(), 1);
    }

    /// A process that sets a timer and sends on fire.
    #[derive(Debug, Default)]
    struct TimedSender;

    impl Process for TimedSender {
        fn on_start(&mut self, ctx: &mut ProcessCtx) {
            if ctx.id() == ProcessorId(0) {
                ctx.set_timer(ClockTime::from_nanos(500));
            }
        }
        fn on_message(&mut self, _f: ProcessorId, _p: u64, _ctx: &mut ProcessCtx) {}
        fn on_timer(&mut self, ctx: &mut ProcessCtx) {
            ctx.send(ProcessorId(1), 7);
        }
    }

    #[test]
    fn timers_fire_at_their_clock_time() {
        let mut links = HashMap::new();
        links.insert((0usize, 1usize), link(100));
        let engine = Engine::new(vec![RealTime::from_nanos(10_000), RealTime::ZERO], links);
        let (exec, _) = engine.run(
            &mut [TimedSender, TimedSender],
            &mut StdRng::seed_from_u64(1),
            &FaultPlan::new(),
        );
        let msgs = exec.messages();
        assert_eq!(msgs.len(), 1);
        // Sent when p0's clock read 500, i.e. real 10_500.
        assert_eq!(msgs[0].sent_at, RealTime::from_nanos(10_500));
        // p0's view contains the timer event.
        assert!(exec
            .views()
            .view(ProcessorId(0))
            .events()
            .iter()
            .any(|e| matches!(e, ViewEvent::Timer { .. })));
    }

    #[test]
    fn empty_fault_plan_matches_fault_free_run() {
        let mut links = HashMap::new();
        links.insert(
            (0usize, 1usize),
            LinkModel::symmetric(DelayDistribution::uniform(Nanos::new(100), Nanos::new(500)))
                .resolve(&mut StdRng::seed_from_u64(0)),
        );
        let engine = Engine::new(vec![RealTime::ZERO, RealTime::ZERO], links);
        let ping_pong =
            |plan: &FaultPlan| engine.run(&mut [Ping, Ping], &mut StdRng::seed_from_u64(5), plan);
        let (clean, log) = ping_pong(&FaultPlan::new());
        assert!(log.is_clean());
        assert_eq!(clean.messages().len(), 2);
        // Faults declared at probability zero draw nothing from the
        // random stream: the run is the fault-free one.
        let benign = FaultPlan::new()
            .drop_messages(ProcessorId(0), ProcessorId(1), 0.0)
            .duplicate_messages(ProcessorId(0), ProcessorId(1), 0.0)
            .reorder_messages(ProcessorId(0), ProcessorId(1), 0.0);
        assert_eq!(ping_pong(&benign), (clean, log));
    }

    #[test]
    fn dropped_messages_leave_no_trace_in_views() {
        let mut links = HashMap::new();
        links.insert((0usize, 1usize), link(250));
        let engine = Engine::new(vec![RealTime::ZERO, RealTime::ZERO], links);
        let plan = FaultPlan::new().drop_messages(ProcessorId(0), ProcessorId(1), 1.0);
        let (exec, log) = engine.run(&mut [Ping, Ping], &mut StdRng::seed_from_u64(2), &plan);
        // The ping was lost; no echo ever happened, and the sender's view
        // shows no send (it cannot know the loss occurred — but the model
        // requires matched pairs, so the send is erased).
        assert!(exec.messages().is_empty());
        assert_eq!(log.dropped.len(), 1);
        assert_eq!(exec.views().view(ProcessorId(0)).events().len(), 1);
    }

    #[test]
    fn duplicated_messages_are_fresh_messages() {
        let mut links = HashMap::new();
        links.insert((0usize, 1usize), link(250));
        let engine = Engine::new(vec![RealTime::ZERO, RealTime::ZERO], links);
        let plan = FaultPlan::new().duplicate_messages(ProcessorId(0), ProcessorId(1), 1.0);
        let (exec, log) = engine.run(&mut [Ping, Ping], &mut StdRng::seed_from_u64(3), &plan);
        // Ping duplicated → two pings delivered → two echoes, each also
        // duplicated → 6 messages, all with distinct ids (ViewSet::new
        // would have rejected reuse).
        assert_eq!(exec.messages().len(), 6);
        assert_eq!(log.duplicated.len(), 3);
        assert!(log.dropped.is_empty());
    }

    #[test]
    fn crash_stop_silences_a_processor() {
        let mut links = HashMap::new();
        links.insert((0usize, 1usize), link(250));
        let engine = Engine::new(vec![RealTime::ZERO, RealTime::ZERO], links);
        // p1 crashes before the ping can arrive.
        let plan = FaultPlan::new().crash(ProcessorId(1), RealTime::from_nanos(100));
        let (exec, log) = engine.run(&mut [Ping, Ping], &mut StdRng::seed_from_u64(4), &plan);
        assert!(exec.messages().is_empty());
        assert_eq!(log.dropped.len(), 1);
        assert_eq!(
            log.crashed,
            vec![(ProcessorId(1), RealTime::from_nanos(100))]
        );
        // The crashed processor still has its mandatory start event.
        assert_eq!(exec.views().view(ProcessorId(1)).events().len(), 1);
    }

    #[test]
    fn link_down_window_swallows_sends() {
        let mut links = HashMap::new();
        links.insert((0usize, 1usize), link(250));
        let engine = Engine::new(vec![RealTime::ZERO, RealTime::ZERO], links);
        // The link is down exactly when the start-time ping is sent, but
        // back up for the echo — which never happens, since the ping died.
        let plan = FaultPlan::new().link_down(
            ProcessorId(0),
            ProcessorId(1),
            RealTime::ZERO,
            RealTime::from_nanos(10),
        );
        let (exec, log) = engine.run(&mut [Ping, Ping], &mut StdRng::seed_from_u64(5), &plan);
        assert!(exec.messages().is_empty());
        assert_eq!(log.dropped.len(), 1);
    }

    #[test]
    fn reordering_keeps_delays_in_support() {
        let mut links = HashMap::new();
        links.insert(
            (0usize, 1usize),
            LinkModel::symmetric(DelayDistribution::uniform(Nanos::new(100), Nanos::new(500)))
                .resolve(&mut StdRng::seed_from_u64(0)),
        );
        let engine = Engine::new(vec![RealTime::ZERO, RealTime::ZERO], links);
        let plan = FaultPlan::new().reorder_messages(ProcessorId(0), ProcessorId(1), 1.0);
        let (exec, log) = engine.run(&mut [Ping, Ping], &mut StdRng::seed_from_u64(6), &plan);
        assert_eq!(exec.messages().len(), 2);
        assert_eq!(log.reordered.len(), 2);
        assert!(exec
            .messages()
            .iter()
            .all(|m| m.delay >= Nanos::new(100) && m.delay <= Nanos::new(500)));
    }

    #[test]
    #[should_panic(expected = "references processor")]
    fn out_of_range_fault_plan_panics() {
        let engine = Engine::new(vec![RealTime::ZERO], HashMap::new());
        let plan = FaultPlan::new().crash(ProcessorId(5), RealTime::ZERO);
        let _ = engine.run::<u64, _, _>(&mut [IdleProcess], &mut StdRng::seed_from_u64(0), &plan);
    }

    #[test]
    #[should_panic(expected = "non-neighbor")]
    fn sending_off_link_panics() {
        #[derive(Debug)]
        struct Rogue;
        impl Process for Rogue {
            fn on_start(&mut self, ctx: &mut ProcessCtx) {
                ctx.send(ProcessorId(1), 0);
            }
            fn on_message(&mut self, _f: ProcessorId, _p: u64, _c: &mut ProcessCtx) {}
            fn on_timer(&mut self, _c: &mut ProcessCtx) {}
        }
        let engine = Engine::new(vec![RealTime::ZERO, RealTime::ZERO], HashMap::new());
        let _ = engine.run(
            &mut [Rogue, Rogue],
            &mut StdRng::seed_from_u64(1),
            &FaultPlan::new(),
        );
    }

    #[test]
    #[should_panic(expected = "event cap")]
    fn infinite_protocols_hit_the_cap() {
        #[derive(Debug)]
        struct Chatter;
        impl Process for Chatter {
            fn on_start(&mut self, ctx: &mut ProcessCtx) {
                ctx.send(ProcessorId(1 - ctx.id().index()), 0);
            }
            fn on_message(&mut self, from: ProcessorId, _p: u64, ctx: &mut ProcessCtx) {
                ctx.send(from, 0);
            }
            fn on_timer(&mut self, _c: &mut ProcessCtx) {}
        }
        let mut links = HashMap::new();
        links.insert((0usize, 1usize), link(10));
        let mut engine = Engine::new(vec![RealTime::ZERO, RealTime::ZERO], links);
        engine.set_max_events(1_000);
        let _ = engine.run(
            &mut [Chatter, Chatter],
            &mut StdRng::seed_from_u64(1),
            &FaultPlan::new(),
        );
    }
}
