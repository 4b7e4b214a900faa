//! The processor-thread cluster.

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use clocksync::{DelayRange, LinkAssumption, Network, SyncError, SyncOutcome, Synchronizer};
use clocksync_model::{Execution, MessageId, ProcessorId, View, ViewEvent, ViewSet};
use clocksync_obs::{FieldValue, Recorder};
use clocksync_time::{ClockTime, Nanos, RealTime};
use crossbeam::channel::{unbounded, Receiver, Sender};
use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Delay configuration of one bidirectional link. The *forward* direction
/// is low-id → high-id.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkConfig {
    fwd_lo: Nanos,
    fwd_hi: Nanos,
    bwd_lo: Nanos,
    bwd_hi: Nanos,
    loss_ppm: u32,
}

impl LinkConfig {
    /// Injected per-message delays uniform in `[lo, hi]` (both directions).
    ///
    /// A zero lower bound is allowed: the paper's asynchronous model (§6)
    /// admits links with `lb = 0`, where only the upper bound carries
    /// information.
    ///
    /// # Panics
    ///
    /// Panics unless `0 ≤ lo ≤ hi`.
    pub fn uniform(lo: Nanos, hi: Nanos) -> LinkConfig {
        LinkConfig::asymmetric(lo, hi, lo, hi)
    }

    /// Different uniform ranges per direction (forward = low-id → high-id),
    /// modelling DSL-like links directly in the threaded runtime.
    ///
    /// # Panics
    ///
    /// Panics unless `0 ≤ lo ≤ hi` in each direction.
    pub fn asymmetric(fwd_lo: Nanos, fwd_hi: Nanos, bwd_lo: Nanos, bwd_hi: Nanos) -> LinkConfig {
        assert!(
            Nanos::ZERO <= fwd_lo && fwd_lo <= fwd_hi,
            "link delays require 0 <= lo <= hi (forward)"
        );
        assert!(
            Nanos::ZERO <= bwd_lo && bwd_lo <= bwd_hi,
            "link delays require 0 <= lo <= hi (backward)"
        );
        LinkConfig {
            fwd_lo,
            fwd_hi,
            bwd_lo,
            bwd_hi,
            loss_ppm: 0,
        }
    }

    /// Drops each message on this link with probability `ppm / 1_000_000`
    /// (applied at send time, in either direction, to probes and echoes
    /// alike). The sender records its send normally — it cannot tell a
    /// lost message from a slow one — and the harvest erases the orphaned
    /// send events so the recorded execution stays well-formed.
    ///
    /// # Panics
    ///
    /// Panics if `ppm > 1_000_000`.
    pub fn loss(mut self, ppm: u32) -> LinkConfig {
        assert!(ppm <= 1_000_000, "loss is in parts per million");
        self.loss_ppm = ppm;
        self
    }

    /// The sampling range for one direction.
    fn range(&self, forward: bool) -> (Nanos, Nanos) {
        if forward {
            (self.fwd_lo, self.fwd_hi)
        } else {
            (self.bwd_lo, self.bwd_hi)
        }
    }

    /// The truthful assumption for this link: the injected delay is a hard
    /// lower bound; scheduling jitter can only add, so the declared upper
    /// bound is `hi + margin`.
    fn assumption(&self, margin: Nanos) -> LinkAssumption {
        LinkAssumption::bounds(
            DelayRange::new(self.fwd_lo, self.fwd_hi + margin),
            DelayRange::new(self.bwd_lo, self.bwd_hi + margin),
        )
    }
}

/// What the harness concluded about one link after a run.
///
/// The states form the four-tier downgrade lattice
/// `bounds → rtt-bias → marzullo-quorum → no-bounds` (plus the terminal
/// `dropped`): each tier trusts strictly less of the link's declaration
/// than the one before it, and every tier's replacement assumption stays
/// truthful for the messages the harness actually delivers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum LinkState {
    /// Every probe round completed within its deadline; the link keeps its
    /// declared delay bounds.
    Healthy,
    /// A small fraction of rounds failed (< 1/4). Per-direction bounds are
    /// no longer trusted, but the round-trip *bias* implied by them is
    /// (Lemma 6.5): the link degrades to
    /// [`LinkAssumption::rtt_bias`] with the widest bias its declared
    /// ranges allow.
    RttBias,
    /// A moderate fraction of rounds failed (< 1/2). The declared bounds
    /// are kept only as *per-sample votes*: the link degrades to
    /// [`LinkAssumption::marzullo_quorum`] tolerating as many faulty
    /// samples as rounds failed, conjoined with the no-bounds floor so the
    /// estimate is never looser than the next tier down.
    MarzulloQuorum,
    /// Half or more of the rounds exhausted their retries but some
    /// succeeded. The link stays in the network **downgraded to the
    /// no-bounds assumption** (Corollary 6.4): delivered messages are
    /// still real evidence, but the declared bounds are no longer
    /// trusted.
    NoBounds,
    /// No probe round ever completed. The link drops out of the network
    /// entirely; its endpoints may end up in different components.
    Dropped,
}

impl std::fmt::Display for LinkState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LinkState::Healthy => write!(f, "healthy"),
            LinkState::RttBias => write!(f, "rtt-bias"),
            LinkState::MarzulloQuorum => write!(f, "marzullo-quorum"),
            LinkState::NoBounds => write!(f, "no-bounds"),
            LinkState::Dropped => write!(f, "dropped"),
        }
    }
}

/// Per-link probe statistics and the resulting degradation decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct LinkHealth {
    /// Lower-id endpoint.
    pub a: ProcessorId,
    /// Higher-id endpoint.
    pub b: ProcessorId,
    /// Probe messages sent by the initiator, retries included.
    pub probes_sent: usize,
    /// Probe resends after a missed deadline.
    pub retries: usize,
    /// Messages swallowed by injected loss (probes and echoes, both
    /// directions).
    pub lost: usize,
    /// Probe rounds that completed (an echo came back before the round
    /// gave up).
    pub rounds_ok: usize,
    /// Probe rounds that exhausted every retry.
    pub rounds_failed: usize,
    /// The degradation decision derived from the round counts.
    pub state: LinkState,
}

impl LinkHealth {
    /// The degradation rule: no completed round → the link is dead; no
    /// failed round → healthy; otherwise the failure *rate* picks the
    /// lattice tier — under 1/4 of rounds failed keeps the bias promise
    /// ([`LinkState::RttBias`]), under 1/2 keeps the bounds as quorum
    /// votes ([`LinkState::MarzulloQuorum`]), and anything worse trusts
    /// nothing but message correspondence ([`LinkState::NoBounds`]).
    fn classify(rounds_ok: usize, rounds_failed: usize) -> LinkState {
        let total = rounds_ok + rounds_failed;
        if rounds_ok == 0 {
            LinkState::Dropped
        } else if rounds_failed == 0 {
            LinkState::Healthy
        } else if rounds_failed * 4 <= total {
            LinkState::RttBias
        } else if rounds_failed * 2 <= total {
            LinkState::MarzulloQuorum
        } else {
            LinkState::NoBounds
        }
    }
}

impl std::fmt::Display for LinkHealth {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "link {}–{}: {} ({} ok, {} failed, {} retries, {} lost)",
            self.a, self.b, self.state, self.rounds_ok, self.rounds_failed, self.retries, self.lost
        )
    }
}

/// One probe or echo in flight.
struct Wire {
    id: MessageId,
    from: ProcessorId,
    /// `Some(probe_id)` when this message answers probe `probe_id`.
    echo_of: Option<MessageId>,
    sent_at: Instant,
    deliver_after: Duration,
}

/// One unanswered probe round on an initiator.
struct Pending {
    peer: usize,
    cfg: LinkConfig,
    /// Every probe id sent for this round (original plus retries); an echo
    /// for any of them completes the round.
    ids: Vec<MessageId>,
    attempt: u32,
    deadline: Instant,
    /// When the round's first probe left, for the RTT histogram.
    first_sent: Instant,
}

/// Initiator- and sender-side per-link counters, merged across threads at
/// harvest.
#[derive(Default, Clone, Copy)]
struct LocalHealth {
    probes_sent: usize,
    retries: usize,
    lost: usize,
    rounds_ok: usize,
    rounds_failed: usize,
}

/// Per-thread recorded view plus measured ground truth.
struct ThreadLog {
    start_offset: Nanos,
    events: Vec<ViewEvent>,
    health: HashMap<(usize, usize), LocalHealth>,
    /// The thread hit the run deadline and aborted its unresolved rounds.
    timed_out: bool,
}

/// Configuration and entry point of a cluster run.
///
/// See the [crate docs](crate) for an example.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    n: usize,
    links: Vec<(usize, usize, LinkConfig)>,
    probes: usize,
    spacing: Nanos,
    start_spread: Nanos,
    margin: Nanos,
    probe_deadline: Nanos,
    max_retries: u32,
    run_deadline: Nanos,
    recorder: Recorder,
}

impl ClusterConfig {
    /// A cluster of `n` processor threads with no links yet.
    pub fn new(n: usize) -> ClusterConfig {
        ClusterConfig {
            n,
            links: Vec::new(),
            probes: 2,
            spacing: Nanos::from_millis(2),
            start_spread: Nanos::from_millis(2),
            margin: Nanos::from_millis(200),
            probe_deadline: Nanos::from_millis(25),
            max_retries: 3,
            run_deadline: Nanos::new(30_000_000_000),
            recorder: Recorder::disabled(),
        }
    }

    /// Adds a bidirectional link.
    ///
    /// # Panics
    ///
    /// Panics if the endpoints coincide or are out of range.
    pub fn link(mut self, a: usize, b: usize, config: LinkConfig) -> Self {
        assert!(a != b, "link endpoints must differ");
        assert!(a < self.n && b < self.n, "endpoint out of range");
        self.links.push((a.min(b), a.max(b), config));
        self
    }

    /// Number of probe round trips per link (default 2).
    ///
    /// # Panics
    ///
    /// Panics if `probes == 0`.
    pub fn probes(mut self, probes: usize) -> Self {
        assert!(probes > 0, "at least one probe required");
        self.probes = probes;
        self
    }

    /// Spacing between probe rounds (default 2 ms).
    pub fn spacing(mut self, spacing: Nanos) -> Self {
        self.spacing = spacing;
        self
    }

    /// Maximum secret start offset (default 2 ms).
    pub fn start_spread(mut self, spread: Nanos) -> Self {
        self.start_spread = spread;
        self
    }

    /// Scheduling-jitter allowance added to declared upper bounds
    /// (default 200 ms; generous on purpose — a violated declaration would
    /// make the views inconsistent with the assumptions).
    pub fn margin(mut self, margin: Nanos) -> Self {
        self.margin = margin;
        self
    }

    /// How long an initiator waits for a probe's echo before retrying
    /// (default 25 ms). Each retry doubles the wait — exponential backoff —
    /// so a round with `r` retries spans `deadline · (2^(r+1) − 1)` at
    /// most.
    ///
    /// # Panics
    ///
    /// Panics unless the deadline is positive.
    pub fn probe_deadline(mut self, deadline: Nanos) -> Self {
        assert!(deadline > Nanos::ZERO, "probe deadline must be positive");
        self.probe_deadline = deadline;
        self
    }

    /// How many times a probe round is retried after a missed deadline
    /// before the round is declared failed (default 3; 0 disables
    /// retries).
    ///
    /// # Panics
    ///
    /// Panics if `retries > 16` (the exponential backoff would overflow
    /// any useful time scale long before that).
    pub fn retries(mut self, retries: u32) -> Self {
        assert!(retries <= 16, "more than 16 retries is never useful");
        self.max_retries = retries;
        self
    }

    /// Wall-clock budget for the whole run, per thread (default 30 s).
    /// A thread that exhausts it **aborts gracefully**: its unresolved
    /// probe rounds are written off as failed, the affected links degrade
    /// through the usual [`LinkState`] rules, and the harvest proceeds
    /// with whatever evidence exists. The run never panics on a wedged
    /// protocol — see [`NetRun::timed_out`].
    ///
    /// # Panics
    ///
    /// Panics unless the deadline is positive.
    pub fn run_deadline(mut self, deadline: Nanos) -> Self {
        assert!(deadline > Nanos::ZERO, "run deadline must be positive");
        self.run_deadline = deadline;
        self
    }

    /// Attaches an observability recorder. The run then emits a
    /// `net.cluster_run` span, a `net.probe_rtt` histogram (round-trip
    /// time per completed probe round), `net.retries` / `net.messages_lost`
    /// counters, a `net.backoff_wait` histogram (retry backoff spans),
    /// one `net.link_health` event per link at harvest, and a `net.abort`
    /// event if a thread hits the run deadline. Recording never touches
    /// the delay sampling, so a run's views do not depend on it.
    #[must_use]
    pub fn with_recorder(mut self, recorder: Recorder) -> Self {
        self.recorder = recorder;
        self
    }

    /// The network the run *intends*: every configured link with its
    /// declared delay bounds. The network a [`NetRun`] actually
    /// synchronizes over may be weaker — see [`NetRun::network`] and
    /// [`NetRun::health`].
    pub fn network(&self) -> Network {
        let mut b = Network::builder(self.n);
        for &(a, c, cfg) in &self.links {
            b = b.link(ProcessorId(a), ProcessorId(c), cfg.assumption(self.margin));
        }
        b.build()
    }

    /// The degraded network implied by per-link health: healthy links keep
    /// their bounds, `RttBias` links keep only the bias their declared
    /// ranges imply (Lemma 6.5), `MarzulloQuorum` links keep the bounds as
    /// per-sample quorum votes tolerating as many faulty samples as rounds
    /// failed, `NoBounds` links keep only message correspondence
    /// (Corollary 6.4), and dropped links disappear.
    ///
    /// Every replacement stays truthful for the delivered traffic: the
    /// harness' fault injection loses messages but never corrupts a
    /// delivered delay, so delays always lie inside the declared (margin-
    /// widened) ranges, which entails both the bias bound and a zero count
    /// of out-of-range quorum votes.
    fn degraded_network(&self, health: &[LinkHealth]) -> Network {
        let mut b = Network::builder(self.n);
        for (h, &(a, c, cfg)) in health.iter().zip(&self.links) {
            match h.state {
                LinkState::Healthy => {
                    b = b.link(ProcessorId(a), ProcessorId(c), cfg.assumption(self.margin));
                }
                LinkState::RttBias => {
                    // |d_f − d_b| ≤ max(hi_f + margin − lo_b, hi_b + margin
                    // − lo_f) for delays inside the declared ranges; the
                    // clamp keeps the constructor's positivity axiom when
                    // both ranges are points.
                    let bias = (cfg.fwd_hi + self.margin - cfg.bwd_lo)
                        .max(cfg.bwd_hi + self.margin - cfg.fwd_lo)
                        .max(Nanos::new(1));
                    b = b.link(
                        ProcessorId(a),
                        ProcessorId(c),
                        LinkAssumption::rtt_bias(bias),
                    );
                }
                LinkState::MarzulloQuorum => {
                    let fused = LinkAssumption::marzullo_quorum(
                        DelayRange::new(cfg.fwd_lo, cfg.fwd_hi + self.margin),
                        DelayRange::new(cfg.bwd_lo, cfg.bwd_hi + self.margin),
                        h.rounds_failed,
                    );
                    // The no-bounds conjunct floors the estimate at the
                    // next tier down, so more evidence never hurts.
                    b = b.link(
                        ProcessorId(a),
                        ProcessorId(c),
                        LinkAssumption::all(vec![fused, LinkAssumption::no_bounds()]),
                    );
                }
                LinkState::NoBounds => {
                    b = b.link(ProcessorId(a), ProcessorId(c), LinkAssumption::no_bounds());
                }
                LinkState::Dropped => {}
            }
        }
        b.build()
    }

    /// Launches the threads, runs the probe protocol to completion and
    /// harvests views, measured start times and per-link health.
    ///
    /// The protocol cannot wedge: every probe round either completes or
    /// exhausts its retries, after which the affected link is downgraded
    /// (see [`LinkState`]) and the survivors' evidence is synchronized as
    /// usual. As a backstop, a thread that is still unresolved when
    /// [`ClusterConfig::run_deadline`] expires aborts gracefully — its
    /// remaining rounds are written off as failed and the run reports
    /// [`NetRun::timed_out`] instead of panicking.
    ///
    /// # Panics
    ///
    /// Panics if a thread fails or the recorded run violates the model
    /// axioms (a bug, not an input condition).
    pub fn run(&self, seed: u64) -> NetRun {
        let n = self.n;
        let mut run_span = self.recorder.span("net.cluster_run");
        run_span.field("n", n);
        run_span.field("links", self.links.len());
        let mut rng = StdRng::seed_from_u64(seed);
        let offsets: Vec<Nanos> = (0..n)
            .map(|_| {
                if self.start_spread == Nanos::ZERO {
                    Nanos::ZERO
                } else {
                    Nanos::new(rng.gen_range(0..=self.start_spread.as_nanos()))
                }
            })
            .collect();

        // One inbound channel per processor.
        let mut senders: Vec<Sender<Wire>> = Vec::with_capacity(n);
        let mut receivers: Vec<Option<Receiver<Wire>>> = Vec::with_capacity(n);
        for _ in 0..n {
            let (tx, rx) = unbounded();
            senders.push(tx);
            receivers.push(Some(rx));
        }

        // Per-processor wiring: initiated links (to higher ids).
        let mut initiate: Vec<Vec<(usize, LinkConfig)>> = vec![Vec::new(); n];
        for &(a, b, cfg) in &self.links {
            initiate[a].push((b, cfg));
        }

        let msg_ids = Arc::new(AtomicU64::new(0));
        let logs: Arc<Vec<Mutex<Option<ThreadLog>>>> =
            Arc::new((0..n).map(|_| Mutex::new(None)).collect());
        // Responders serve echoes until every initiator has resolved all
        // of its probe rounds (completed or given up); this replaces the
        // old fixed expected-message count, which wedged forever on the
        // first lost message.
        let initiating = Arc::new(AtomicUsize::new(n));
        let epoch = Instant::now();

        thread::scope(|scope| {
            for i in 0..n {
                let rx = receivers[i].take().expect("receiver taken once");
                let senders = senders.clone();
                let initiate = initiate[i].clone();
                let offset = offsets[i];
                let msg_ids = Arc::clone(&msg_ids);
                let logs = Arc::clone(&logs);
                let initiating = Arc::clone(&initiating);
                let probes = self.probes;
                let spacing = self.spacing;
                let base_deadline = Duration::from_nanos(self.probe_deadline.as_nanos() as u64);
                let max_retries = self.max_retries;
                let first_probe_after = self.start_spread + Nanos::from_millis(1);
                let all_links = self.links.clone();
                let run_deadline = Duration::from_nanos(self.run_deadline.as_nanos() as u64);
                let recorder = self.recorder.clone();
                let mut link_rng = StdRng::seed_from_u64(seed ^ (i as u64).wrapping_mul(0x9E37));

                scope.spawn(move || {
                    // Secret start offset, then the processor "starts".
                    thread::sleep(Duration::from_nanos(offset.as_nanos() as u64));
                    let start = Instant::now();
                    // Saturate rather than panic on the (pathological)
                    // multi-century wall-clock reading: these feed clock
                    // arithmetic on service-reachable paths, and a capped
                    // reading degrades precision instead of crashing.
                    let start_offset =
                        Nanos::new(i64::try_from((start - epoch).as_nanos()).unwrap_or(i64::MAX));
                    let clock_now = |start: Instant| -> ClockTime {
                        ClockTime::from_nanos(
                            i64::try_from(start.elapsed().as_nanos()).unwrap_or(i64::MAX),
                        )
                    };
                    let mut events = vec![ViewEvent::Start {
                        clock: ClockTime::ZERO,
                    }];
                    let mut health: HashMap<(usize, usize), LocalHealth> = HashMap::new();

                    // Probe send schedule (initiators only).
                    let mut schedule: Vec<(Duration, usize, LinkConfig)> = Vec::new();
                    for round in 0..probes {
                        let at = Duration::from_nanos(
                            (first_probe_after + spacing * round as i64).as_nanos() as u64,
                        );
                        for &(peer, cfg) in &initiate {
                            schedule.push((at, peer, cfg));
                        }
                    }
                    schedule.sort_by_key(|&(at, peer, _)| (at, peer));
                    let mut next_send = 0usize;
                    let mut pending: Vec<Pending> = Vec::new();
                    let mut done_initiating = false;

                    // Records the send, samples loss, and (maybe) puts the
                    // message on the wire. A send to an exited peer is
                    // indistinguishable from a lost message and treated
                    // the same way.
                    let send_to = |peer: usize,
                                   echo_of: Option<MessageId>,
                                   cfg: &LinkConfig,
                                   events: &mut Vec<ViewEvent>,
                                   health: &mut HashMap<(usize, usize), LocalHealth>,
                                   link_rng: &mut StdRng|
                     -> MessageId {
                        let id = MessageId(msg_ids.fetch_add(1, Ordering::Relaxed));
                        let (lo, hi) = cfg.range(i < peer);
                        let delay = if lo == hi {
                            lo
                        } else {
                            Nanos::new(link_rng.gen_range(lo.as_nanos()..=hi.as_nanos()))
                        };
                        events.push(ViewEvent::Send {
                            to: ProcessorId(peer),
                            id,
                            clock: clock_now(start),
                        });
                        let lost =
                            cfg.loss_ppm > 0 && link_rng.gen_range(0..1_000_000u32) < cfg.loss_ppm;
                        if lost {
                            let key = (i.min(peer), i.max(peer));
                            health.entry(key).or_default().lost += 1;
                            recorder.incr("net.messages_lost", 1);
                        } else {
                            let _ = senders[peer].send(Wire {
                                id,
                                from: ProcessorId(i),
                                echo_of,
                                sent_at: Instant::now(),
                                deliver_after: Duration::from_nanos(delay.as_nanos() as u64),
                            });
                        }
                        id
                    };

                    let hard_deadline = start + run_deadline;
                    let mut timed_out = false;
                    loop {
                        if Instant::now() >= hard_deadline {
                            // Graceful abort (the old code panicked here,
                            // taking the whole harvest down with it): write
                            // off every unresolved round — and the rounds
                            // never even started — as failed, so the
                            // affected links degrade through the usual
                            // LinkState rules, and let the harvest keep
                            // whatever evidence the run did produce.
                            for p in &pending {
                                let key = (i.min(p.peer), i.max(p.peer));
                                health.entry(key).or_default().rounds_failed += 1;
                            }
                            for &(_, peer, _) in &schedule[next_send..] {
                                let key = (i.min(peer), i.max(peer));
                                health.entry(key).or_default().rounds_failed += 1;
                            }
                            if recorder.is_enabled() {
                                recorder.event(
                                    "net.abort",
                                    [
                                        ("processor", FieldValue::from(i)),
                                        ("pending_rounds", FieldValue::from(pending.len())),
                                        (
                                            "unsent_rounds",
                                            FieldValue::from(schedule.len() - next_send),
                                        ),
                                        (
                                            "elapsed_ns",
                                            FieldValue::from(start.elapsed().as_nanos() as u64),
                                        ),
                                    ],
                                );
                            }
                            pending.clear();
                            timed_out = true;
                            // Leave the termination protocol so peers that
                            // are still healthy can finish normally.
                            if !done_initiating {
                                initiating.fetch_sub(1, Ordering::SeqCst);
                            }
                            break;
                        }
                        // Send everything due.
                        while next_send < schedule.len() && start.elapsed() >= schedule[next_send].0
                        {
                            let (_, peer, cfg) = schedule[next_send];
                            let id =
                                send_to(peer, None, &cfg, &mut events, &mut health, &mut link_rng);
                            let key = (i.min(peer), i.max(peer));
                            health.entry(key).or_default().probes_sent += 1;
                            let sent = Instant::now();
                            pending.push(Pending {
                                peer,
                                cfg,
                                ids: vec![id],
                                attempt: 0,
                                deadline: sent + base_deadline,
                                first_sent: sent,
                            });
                            next_send += 1;
                        }
                        // Expire or retry overdue rounds.
                        let now = Instant::now();
                        let mut slot = 0;
                        while slot < pending.len() {
                            if now < pending[slot].deadline {
                                slot += 1;
                                continue;
                            }
                            let key = {
                                let p = &pending[slot];
                                (i.min(p.peer), i.max(p.peer))
                            };
                            if pending[slot].attempt >= max_retries {
                                let entry = health.entry(key).or_default();
                                entry.rounds_failed += 1;
                                pending.swap_remove(slot);
                            } else {
                                let (peer, cfg) = (pending[slot].peer, pending[slot].cfg);
                                let id = send_to(
                                    peer,
                                    None,
                                    &cfg,
                                    &mut events,
                                    &mut health,
                                    &mut link_rng,
                                );
                                let entry = health.entry(key).or_default();
                                entry.probes_sent += 1;
                                entry.retries += 1;
                                recorder.incr("net.retries", 1);
                                let p = &mut pending[slot];
                                p.ids.push(id);
                                p.attempt += 1;
                                let backoff = base_deadline * (1u32 << p.attempt);
                                recorder.observe_ns("net.backoff_wait", backoff.as_nanos() as u64);
                                p.deadline = now + backoff;
                                slot += 1;
                            }
                        }
                        if !done_initiating && next_send >= schedule.len() && pending.is_empty() {
                            done_initiating = true;
                            initiating.fetch_sub(1, Ordering::SeqCst);
                        }
                        if done_initiating && initiating.load(Ordering::SeqCst) == 0 {
                            break;
                        }
                        // Wait for traffic, but never past the next thing
                        // we owe the protocol.
                        let mut wait = Duration::from_millis(5);
                        if next_send < schedule.len() {
                            wait = wait.min(schedule[next_send].0.saturating_sub(start.elapsed()));
                        }
                        for p in &pending {
                            wait = wait.min(p.deadline.saturating_duration_since(now));
                        }
                        match rx.recv_timeout(wait.max(Duration::from_micros(100))) {
                            Ok(wire) => {
                                // Hold the message until its injected delay
                                // has fully elapsed.
                                let due = wire.sent_at + wire.deliver_after;
                                let now = Instant::now();
                                if due > now {
                                    thread::sleep(due - now);
                                }
                                events.push(ViewEvent::Recv {
                                    from: wire.from,
                                    id: wire.id,
                                    clock: clock_now(start),
                                });
                                match wire.echo_of {
                                    None => {
                                        // Probe: echo immediately over the
                                        // same link.
                                        let cfg = all_links
                                            .iter()
                                            .find(|&&(a, b, _)| {
                                                (a, b)
                                                    == (
                                                        i.min(wire.from.index()),
                                                        i.max(wire.from.index()),
                                                    )
                                            })
                                            .map(|&(_, _, c)| c)
                                            .expect("echo goes back over a known link");
                                        send_to(
                                            wire.from.index(),
                                            Some(wire.id),
                                            &cfg,
                                            &mut events,
                                            &mut health,
                                            &mut link_rng,
                                        );
                                    }
                                    Some(probe_id) => {
                                        // An echo for any probe of a round
                                        // (original or retry) completes it;
                                        // echoes for rounds already given
                                        // up on are plain extra evidence.
                                        if let Some(pos) =
                                            pending.iter().position(|p| p.ids.contains(&probe_id))
                                        {
                                            let done = pending.swap_remove(pos);
                                            let key = (i.min(done.peer), i.max(done.peer));
                                            health.entry(key).or_default().rounds_ok += 1;
                                            recorder.observe_ns(
                                                "net.probe_rtt",
                                                done.first_sent.elapsed().as_nanos() as u64,
                                            );
                                        }
                                    }
                                }
                            }
                            Err(_) => { /* timeout: loop re-checks deadlines */ }
                        }
                    }

                    *logs[i].lock() = Some(ThreadLog {
                        start_offset,
                        events,
                        health,
                        timed_out,
                    });
                });
            }
        });

        let mut starts = Vec::with_capacity(n);
        let mut raw = Vec::with_capacity(n);
        let mut merged: HashMap<(usize, usize), LocalHealth> = HashMap::new();
        let mut timed_out = false;
        for cell in logs.iter() {
            let log = cell.lock().take().expect("thread completed");
            timed_out |= log.timed_out;
            starts.push(RealTime::ZERO + log.start_offset);
            for (key, local) in log.health {
                let entry = merged.entry(key).or_default();
                entry.probes_sent += local.probes_sent;
                entry.retries += local.retries;
                entry.lost += local.lost;
                entry.rounds_ok += local.rounds_ok;
                entry.rounds_failed += local.rounds_failed;
            }
            raw.push(log.events);
        }

        // Erase sends that never arrived (lost, or landed after the peer
        // finished): the model's views may only mention messages that were
        // actually delivered.
        let delivered: HashSet<MessageId> = raw
            .iter()
            .flatten()
            .filter_map(|e| match e {
                ViewEvent::Recv { id, .. } => Some(*id),
                _ => None,
            })
            .collect();
        let views: Vec<View> = raw
            .into_iter()
            .enumerate()
            .map(|(i, mut events)| {
                events.retain(|e| match e {
                    ViewEvent::Send { id, .. } => delivered.contains(id),
                    _ => true,
                });
                View::from_events(ProcessorId(i), events)
            })
            .collect();
        // Reachability audit: both expects validate structures this
        // function just built from its own event log — unmatched sends
        // were filtered above, clocks are monotone per thread, and the
        // starts vector is constructed with one entry per view — so no
        // external input (service batches included) can reach them.
        let views = ViewSet::new(views).expect("cluster produces valid views");
        let execution = Execution::new(starts, views).expect("counts match");

        let health: Vec<LinkHealth> = self
            .links
            .iter()
            .map(|&(a, b, _)| {
                let local = merged.get(&(a, b)).copied().unwrap_or_default();
                LinkHealth {
                    a: ProcessorId(a),
                    b: ProcessorId(b),
                    probes_sent: local.probes_sent,
                    retries: local.retries,
                    lost: local.lost,
                    rounds_ok: local.rounds_ok,
                    rounds_failed: local.rounds_failed,
                    state: LinkHealth::classify(local.rounds_ok, local.rounds_failed),
                }
            })
            .collect();

        if self.recorder.is_enabled() {
            for h in &health {
                self.recorder.event(
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
        }
        run_span.field("timed_out", timed_out);
        run_span.finish();

        NetRun {
            network: self.degraded_network(&health),
            execution,
            health,
            timed_out,
        }
    }
}

/// A completed cluster run: measured ground truth plus harvested views.
#[derive(Debug, Clone)]
pub struct NetRun {
    /// The network the synchronizer is told about, **after** degradation:
    /// links whose probe rounds all failed are gone, links with partial
    /// failures carry the weakened assumption their failure rate earns on
    /// the `bounds → rtt-bias → marzullo-quorum → no-bounds` lattice (see
    /// [`LinkState`]). The intended network is [`ClusterConfig::network`].
    pub network: Network,
    /// Measured execution (views + true thread start times).
    pub execution: Execution,
    /// Per-link probe statistics and degradation decisions, in the order
    /// the links were configured.
    pub health: Vec<LinkHealth>,
    /// At least one thread exhausted [`ClusterConfig::run_deadline`] and
    /// aborted its unresolved probe rounds. The outcome is still total —
    /// the links those rounds belonged to are degraded, not wedged on.
    pub timed_out: bool,
}

impl NetRun {
    /// Runs the optimal synchronizer on the harvested views over the
    /// (possibly degraded) network.
    ///
    /// # Errors
    ///
    /// Propagates [`SyncError`]; inconsistent observations would indicate
    /// the jitter margin was exceeded.
    pub fn synchronize(&self) -> Result<SyncOutcome, SyncError> {
        Synchronizer::new(self.network.clone()).synchronize(self.execution.views())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clocksync_time::Ext;

    #[test]
    fn two_thread_cluster_synchronizes_within_guarantee() {
        let run = ClusterConfig::new(2)
            .link(
                0,
                1,
                LinkConfig::uniform(Nanos::from_millis(1), Nanos::from_millis(2)),
            )
            .probes(2)
            .run(1);
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
        let run = ClusterConfig::new(2)
            .link(
                0,
                1,
                LinkConfig::uniform(Nanos::from_millis(2), Nanos::from_millis(2)),
            )
            .probes(1)
            .run(3);
        for m in run.execution.messages() {
            assert!(
                m.delay >= Nanos::from_millis(2),
                "delay {} too small",
                m.delay
            );
        }
    }

    #[test]
    fn zero_floor_is_allowed() {
        // The paper's asynchronous model (§6) has lb = 0; the runtime must
        // accept it and still synchronize.
        let run = ClusterConfig::new(2)
            .link(
                0,
                1,
                LinkConfig::uniform(Nanos::ZERO, Nanos::from_millis(1)),
            )
            .probes(2)
            .run(11);
        assert!(run.network.admits(&run.execution));
        let outcome = run.synchronize().unwrap();
        assert!(outcome.precision().is_finite());
    }

    #[test]
    #[should_panic(expected = "0 <= lo <= hi")]
    fn negative_floor_is_rejected() {
        let _ = LinkConfig::uniform(Nanos::new(-1), Nanos::from_millis(1));
    }

    #[test]
    #[should_panic(expected = "parts per million")]
    fn overfull_loss_is_rejected() {
        let _ = LinkConfig::uniform(Nanos::ZERO, Nanos::from_millis(1)).loss(1_000_001);
    }

    #[test]
    fn lossy_link_recovers_through_retries() {
        // Heavy loss, but retries keep resending until a round trip lands:
        // the run terminates (the old fixed-count loop would wedge) and
        // whatever evidence survived is admissible.
        let run = ClusterConfig::new(2)
            .link(
                0,
                1,
                LinkConfig::uniform(Nanos::from_micros(100), Nanos::from_millis(1)).loss(400_000),
            )
            .probes(3)
            .probe_deadline(Nanos::from_millis(10))
            .retries(6)
            .run(21);
        assert!(run.network.admits(&run.execution));
        let h = run.health[0];
        assert!(h.probes_sent >= 3);
        // Either loss fired (overwhelmingly likely) or the run happened to
        // come through clean; both must synchronize.
        let _ = run.synchronize().unwrap();
    }

    #[test]
    fn dead_link_drops_out_instead_of_wedging() {
        // Link 1–2 loses literally everything: it must be Dropped, p2 ends
        // up in its own component, and the survivors 0–1 still get a
        // finite mutual guarantee.
        let run = ClusterConfig::new(3)
            .link(
                0,
                1,
                LinkConfig::uniform(Nanos::from_micros(500), Nanos::from_millis(1)),
            )
            .link(
                1,
                2,
                LinkConfig::uniform(Nanos::from_micros(500), Nanos::from_millis(1)).loss(1_000_000),
            )
            .probes(2)
            .probe_deadline(Nanos::from_millis(4))
            .retries(1)
            .run(31);
        assert_eq!(run.health[0].state, LinkState::Healthy);
        assert_eq!(run.health[1].state, LinkState::Dropped);
        assert_eq!(run.health[1].rounds_ok, 0);
        assert!(run.health[1].lost > 0);
        assert_eq!(run.network.link_count(), 1);
        let outcome = run.synchronize().unwrap();
        assert!(!outcome.is_fully_synchronized());
        assert_ne!(
            outcome.component_of(ProcessorId(2)),
            outcome.component_of(ProcessorId(0))
        );
    }

    #[test]
    fn wedged_run_aborts_gracefully_instead_of_panicking() {
        // A link that answers nothing, probed with a deadline *longer*
        // than the whole run budget: the round can neither complete nor
        // expire, which wedged the old code against its 30 s assert and
        // panicked the harvest. Now the thread aborts at the run deadline,
        // the link degrades to Dropped, and the outcome is still total.
        let run = ClusterConfig::new(2)
            .link(
                0,
                1,
                LinkConfig::uniform(Nanos::from_micros(100), Nanos::from_millis(1)).loss(1_000_000),
            )
            .probes(1)
            .probe_deadline(Nanos::new(10_000_000_000))
            .retries(0)
            .run_deadline(Nanos::from_millis(300))
            .run(7);
        assert!(run.timed_out, "the run deadline must have fired");
        assert_eq!(run.health[0].state, LinkState::Dropped);
        assert_eq!(run.health[0].rounds_ok, 0);
        assert!(run.health[0].rounds_failed > 0);
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
        let run = ClusterConfig::new(2)
            .link(
                0,
                1,
                LinkConfig::uniform(Nanos::from_micros(100), Nanos::from_millis(1)).loss(1_000_000),
            )
            .probes(1)
            .probe_deadline(Nanos::new(10_000_000_000))
            .retries(0)
            .run_deadline(Nanos::from_millis(300))
            .with_recorder(recorder.clone())
            .run(7);
        assert!(run.timed_out);
        let trace = recorder.snapshot();
        assert!(trace.events_named("net.abort").count() > 0);
        assert_eq!(trace.events_named("net.link_health").count(), 1);
        assert!(trace.span_names().contains(&"net.cluster_run"));
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
        // Build one run, then reinterpret its single link under every
        // lattice tier: each tier's replacement assumption must admit the
        // true execution (truthfulness), and the estimates must respect
        // the lattice's partial order — full bounds are the tightest,
        // no-bounds the loosest, and both intermediate tiers sit between
        // them (the two middles are mutually incomparable: which is
        // tighter depends on the failure count and the evidence).
        let config = ClusterConfig::new(2)
            .link(
                0,
                1,
                LinkConfig::uniform(Nanos::from_micros(100), Nanos::from_millis(1)),
            )
            .probes(4);
        let run = config.run(17);
        let mut health = run.health.clone();
        let observations = run.execution.views().link_observations();
        let mls_at = |health: &[LinkHealth]| {
            let net = config.degraded_network(health);
            assert!(
                net.admits(&run.execution),
                "{} must stay truthful",
                health[0].state
            );
            clocksync::estimated_local_shifts(&net, &observations)[(0, 1)]
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
        let net = config.degraded_network(&health);
        let (_, _, a) = net.links().next().unwrap();
        let ev = observations.evidence(ProcessorId(0), ProcessorId(1));
        let stats = a.fusion_stats(&ev).expect("marzullo tier has a fusion");
        assert!(stats.quorum_reached);
        assert_eq!(stats.discarded, 0, "honest traffic is never discarded");
    }

    #[test]
    fn asymmetric_links_sample_per_direction() {
        // Forward (0→1) exactly 1ms, backward exactly 4ms: the delays must
        // reflect the orientation, and so must the declared assumption.
        let run = ClusterConfig::new(2)
            .link(
                0,
                1,
                LinkConfig::asymmetric(
                    Nanos::from_millis(1),
                    Nanos::from_millis(1),
                    Nanos::from_millis(4),
                    Nanos::from_millis(4),
                ),
            )
            .probes(2)
            .run(5);
        for m in run.execution.messages() {
            let floor = if m.src < m.dst {
                Nanos::from_millis(1)
            } else {
                Nanos::from_millis(4)
            };
            assert!(m.delay >= floor, "{:?}→{:?}: {}", m.src, m.dst, m.delay);
        }
        assert!(run.network.admits(&run.execution));
        let outcome = run.synchronize().unwrap();
        let err = run.execution.discrepancy(outcome.corrections());
        assert!(clocksync_time::Ext::Finite(err) <= outcome.precision());
    }
}
