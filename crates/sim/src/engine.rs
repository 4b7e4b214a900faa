//! A discrete-event network simulator producing model [`Execution`]s.
//!
//! The engine is the workspace's stand-in for the paper's mathematical
//! executions: reactive processes exchange messages over links with sampled
//! delays, every step is recorded with the *clock time* the processor would
//! see, and the result is a fully validated [`Execution`] — views for the
//! synchronizer, hidden start times and true delays for evaluation.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, HashSet};

use clocksync_model::{Execution, MessageId, ProcessorId, View, ViewEvent, ViewSet};
use clocksync_obs::Recorder;
#[cfg(test)]
use clocksync_time::Nanos;
use clocksync_time::{ClockTime, RealTime};
use rand::Rng;

use crate::delay::ResolvedLink;
use crate::faults::{FaultLog, FaultPlan};

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
    sends: Vec<(ProcessorId, P)>,
    timers: Vec<ClockTime>,
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

#[derive(Debug, Clone)]
enum EventKind<P> {
    Start(ProcessorId),
    Deliver {
        to: ProcessorId,
        from: ProcessorId,
        id: MessageId,
        payload: P,
    },
    Timer(ProcessorId),
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
    starts: Vec<RealTime>,
    links: HashMap<(usize, usize), ResolvedLink>,
    neighbors: Vec<Vec<ProcessorId>>,
    max_events: usize,
    recorder: Recorder,
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

    /// Runs the processes until no events remain and returns the recorded
    /// execution.
    ///
    /// # Panics
    ///
    /// Panics if `processes.len()` differs from the processor count, if a
    /// process sends to a non-neighbor, or if the event cap is exceeded
    /// (a non-terminating protocol).
    pub fn run<R: Rng + ?Sized>(&self, processes: Vec<Box<dyn Process>>, rng: &mut R) -> Execution {
        self.run_with_payload(processes, rng)
    }

    /// Like [`Engine::run`], but injects the faults scheduled in `plan` and
    /// additionally returns the [`FaultLog`] of what actually fired.
    ///
    /// The produced execution still satisfies every model axiom: sends of
    /// lost messages are erased from the views at harvest (the processors
    /// cannot tell "lost" from "never sent"), duplicates are fresh messages
    /// with their own ids, and crash-stopped processors simply have short
    /// views. With an empty plan this is exactly [`Engine::run`], random
    /// stream included.
    ///
    /// # Panics
    ///
    /// Same conditions as [`Engine::run`], plus a plan referencing an
    /// out-of-range processor.
    pub fn run_faulty<R: Rng + ?Sized>(
        &self,
        processes: Vec<Box<dyn Process>>,
        rng: &mut R,
        plan: &FaultPlan,
    ) -> (Execution, FaultLog) {
        self.run_with_payload_faulty(processes, rng, plan)
    }

    /// Like [`Engine::run`] but with an arbitrary message payload type,
    /// enabling protocols that carry structured data (timestamps, shift
    /// reports, corrections — see [`crate::DistributedSync`]).
    ///
    /// # Panics
    ///
    /// Same conditions as [`Engine::run`].
    pub fn run_with_payload<P: Clone, R: Rng + ?Sized>(
        &self,
        processes: Vec<Box<dyn Process<P>>>,
        rng: &mut R,
    ) -> Execution {
        self.run_inner(processes, rng, None).0
    }

    /// [`Engine::run_with_payload`] with fault injection — the payload-typed
    /// version of [`Engine::run_faulty`].
    ///
    /// # Panics
    ///
    /// Same conditions as [`Engine::run_faulty`].
    pub fn run_with_payload_faulty<P: Clone, R: Rng + ?Sized>(
        &self,
        processes: Vec<Box<dyn Process<P>>>,
        rng: &mut R,
        plan: &FaultPlan,
    ) -> (Execution, FaultLog) {
        self.run_inner(processes, rng, Some(plan))
    }

    /// The single event loop behind all `run_*` entry points. When `plan`
    /// is `None`, no fault bookkeeping touches the random stream, so
    /// fault-free runs are bit-identical to the pre-fault engine.
    fn run_inner<P: Clone, R: Rng + ?Sized>(
        &self,
        mut processes: Vec<Box<dyn Process<P>>>,
        rng: &mut R,
        plan: Option<&FaultPlan>,
    ) -> (Execution, FaultLog) {
        let n = self.starts.len();
        assert_eq!(processes.len(), n, "one process per processor required");
        let mut run_span = self.recorder.span("sim.run");
        run_span.field("n", n);
        let mut log = FaultLog::default();
        if let Some(plan) = plan {
            if let Some(max) = plan.max_processor_index() {
                assert!(max < n, "fault plan references processor {max}, n = {n}");
            }
            log.crashed = plan.crashes();
        }

        // Min-heap on (time, sequence) for deterministic tie-breaking.
        let mut queue: BinaryHeap<Reverse<(RealTime, u64)>> = BinaryHeap::new();
        let mut payloads: HashMap<u64, EventKind<P>> = HashMap::new();
        let mut seq = 0u64;
        let push = |queue: &mut BinaryHeap<_>,
                    payloads: &mut HashMap<u64, EventKind<P>>,
                    seq: &mut u64,
                    at: RealTime,
                    kind: EventKind<P>| {
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
                EventKind::Start(ProcessorId(i)),
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
            let kind = payloads.remove(&s).expect("event payload present");
            let p = match &kind {
                EventKind::Start(p) | EventKind::Timer(p) => *p,
                EventKind::Deliver { to, .. } => *to,
            };
            let clock = ClockTime::ZERO + (now - self.starts[p.index()]);
            let crashed = plan
                .and_then(|pl| pl.crash_time(p))
                .is_some_and(|t| now >= t);
            if crashed {
                match kind {
                    // The processor booted, then died: keep the mandatory
                    // start event so its (empty) view stays well-formed.
                    EventKind::Start(_) => events[p.index()].push(ViewEvent::Start { clock }),
                    // A message into the void; the sender's send event is
                    // erased at harvest.
                    EventKind::Deliver { id, .. } => {
                        self.recorder.incr("sim.messages_dropped", 1);
                        log.dropped.push(id);
                    }
                    EventKind::Timer(_) => {}
                }
                continue;
            }
            let mut ctx = ProcessCtx {
                id: p,
                clock,
                neighbors: self.neighbors[p.index()].clone(),
                sends: Vec::new(),
                timers: Vec::new(),
            };

            match kind {
                EventKind::Start(_) => {
                    events[p.index()].push(ViewEvent::Start { clock });
                    processes[p.index()].on_start(&mut ctx);
                }
                EventKind::Timer(_) => {
                    self.recorder.incr("sim.timers_fired", 1);
                    events[p.index()].push(ViewEvent::Timer { clock });
                    processes[p.index()].on_timer(&mut ctx);
                }
                EventKind::Deliver {
                    from, id, payload, ..
                } => {
                    self.recorder.incr("sim.messages_delivered", 1);
                    events[p.index()].push(ViewEvent::Recv { from, id, clock });
                    processes[p.index()].on_message(from, payload, &mut ctx);
                }
            }

            // Apply the actions the process requested.
            for (to, payload) in ctx.sends {
                let key = (p.index().min(to.index()), p.index().max(to.index()));
                let link = self
                    .links
                    .get(&key)
                    .unwrap_or_else(|| panic!("{p} sent to non-neighbor {to}"));
                let forward = p.index() < to.index();
                let mut delay = link.sample(forward, rng);
                let id = MessageId(next_msg_id);
                next_msg_id += 1;
                self.recorder.incr("sim.messages_sent", 1);
                events[p.index()].push(ViewEvent::Send { to, id, clock });
                let faults = plan.and_then(|pl| pl.link_faults(key));
                let mut deliver = true;
                let mut duplicate = false;
                if let Some(lf) = faults {
                    if lf.is_down_at(now) || (lf.drop_prob > 0.0 && rng.gen_bool(lf.drop_prob)) {
                        deliver = false;
                        self.recorder.incr("sim.messages_dropped", 1);
                        log.dropped.push(id);
                    } else {
                        if lf.reorder_prob > 0.0 && rng.gen_bool(lf.reorder_prob) {
                            // "Overtaken" by later traffic: resample as the
                            // max of two draws — still inside the link's
                            // support, so truthful assumptions stay valid.
                            delay = delay.max(link.sample(forward, rng));
                            log.reordered.push(id);
                        }
                        duplicate = lf.dup_prob > 0.0 && rng.gen_bool(lf.dup_prob);
                    }
                }
                if !deliver {
                    continue;
                }
                if duplicate {
                    // The copy is a genuine extra message: fresh id, its
                    // own send event (same clock) and its own delay draw.
                    let copy = MessageId(next_msg_id);
                    next_msg_id += 1;
                    events[p.index()].push(ViewEvent::Send {
                        to,
                        id: copy,
                        clock,
                    });
                    let copy_delay = link.sample(forward, rng);
                    self.recorder.incr("sim.messages_duplicated", 1);
                    log.duplicated.push((id, copy));
                    push(
                        &mut queue,
                        &mut payloads,
                        &mut seq,
                        now + copy_delay,
                        EventKind::Deliver {
                            to,
                            from: p,
                            id: copy,
                            payload: payload.clone(),
                        },
                    );
                }
                push(
                    &mut queue,
                    &mut payloads,
                    &mut seq,
                    now + delay,
                    EventKind::Deliver {
                        to,
                        from: p,
                        id,
                        payload,
                    },
                );
            }
            for at in ctx.timers {
                push(
                    &mut queue,
                    &mut payloads,
                    &mut seq,
                    self.starts[p.index()] + (at - ClockTime::ZERO),
                    EventKind::Timer(p),
                );
            }
        }

        if plan.is_some() {
            // Erase the sends of messages that were never delivered (drop,
            // down window, receiver crash): to the survivors, a lost
            // message is indistinguishable from one never sent, and the
            // view-set axioms require matched send/recv pairs.
            let delivered: HashSet<MessageId> = events
                .iter()
                .flat_map(|evts| {
                    evts.iter().filter_map(|e| match e {
                        ViewEvent::Recv { id, .. } => Some(*id),
                        _ => None,
                    })
                })
                .collect();
            for evts in &mut events {
                evts.retain(|e| match e {
                    ViewEvent::Send { id, .. } => delivered.contains(id),
                    _ => true,
                });
            }
        }
        let views: Vec<View> = events
            .into_iter()
            .enumerate()
            .map(|(i, evts)| View::from_events(ProcessorId(i), evts))
            .collect();
        let views = ViewSet::new(views).expect("engine produces valid views");
        let execution =
            Execution::new(self.starts.clone(), views).expect("engine start/view counts match");
        run_span.field("events", processed);
        run_span.finish();
        (execution, log)
    }

    /// Convenience: per-processor start times.
    pub fn starts(&self) -> &[RealTime] {
        &self.starts
    }
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
        let exec = engine.run(
            vec![Box::new(Ping), Box::new(Ping)],
            &mut StdRng::seed_from_u64(1),
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
        let exec = engine.run(
            vec![Box::new(IdleProcess), Box::new(IdleProcess)],
            &mut StdRng::seed_from_u64(1),
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
        let exec = engine.run(
            vec![Box::new(TimedSender), Box::new(TimedSender)],
            &mut StdRng::seed_from_u64(1),
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
        links.insert((0usize, 1usize), link(250));
        let engine = Engine::new(vec![RealTime::ZERO, RealTime::ZERO], links);
        let clean = engine.run(
            vec![Box::new(Ping), Box::new(Ping)],
            &mut StdRng::seed_from_u64(5),
        );
        let (faulty, log) = engine.run_faulty(
            vec![Box::new(Ping), Box::new(Ping)],
            &mut StdRng::seed_from_u64(5),
            &FaultPlan::new(),
        );
        assert_eq!(clean, faulty);
        assert!(log.is_clean());
    }

    #[test]
    fn dropped_messages_leave_no_trace_in_views() {
        let mut links = HashMap::new();
        links.insert((0usize, 1usize), link(250));
        let engine = Engine::new(vec![RealTime::ZERO, RealTime::ZERO], links);
        let plan = FaultPlan::new().drop_messages(ProcessorId(0), ProcessorId(1), 1.0);
        let (exec, log) = engine.run_faulty(
            vec![Box::new(Ping), Box::new(Ping)],
            &mut StdRng::seed_from_u64(2),
            &plan,
        );
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
        let (exec, log) = engine.run_faulty(
            vec![Box::new(Ping), Box::new(Ping)],
            &mut StdRng::seed_from_u64(3),
            &plan,
        );
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
        let (exec, log) = engine.run_faulty(
            vec![Box::new(Ping), Box::new(Ping)],
            &mut StdRng::seed_from_u64(4),
            &plan,
        );
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
        let (exec, log) = engine.run_faulty(
            vec![Box::new(Ping), Box::new(Ping)],
            &mut StdRng::seed_from_u64(5),
            &plan,
        );
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
        let (exec, log) = engine.run_faulty(
            vec![Box::new(Ping), Box::new(Ping)],
            &mut StdRng::seed_from_u64(6),
            &plan,
        );
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
        let _ = engine.run_faulty(
            vec![Box::new(IdleProcess)],
            &mut StdRng::seed_from_u64(0),
            &plan,
        );
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
            vec![Box::new(Rogue), Box::new(IdleProcess)],
            &mut StdRng::seed_from_u64(1),
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
            vec![Box::new(Chatter), Box::new(Chatter)],
            &mut StdRng::seed_from_u64(1),
        );
    }
}
