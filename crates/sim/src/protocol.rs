//! The probe protocol both executors run.
//!
//! The paper separates the *interactive* part (which messages to send)
//! from the *correction computation* and optimizes only the latter. This
//! module is the interactive part: each link's lower-id endpoint sends
//! `probes` probe rounds, `spacing` apart, and the peer echoes each probe
//! at once — the round-trip workload of NTP-like protocols.
//!
//! Under a retry rule `(deadline, retries)`, a probe whose echo misses its
//! deadline is resent and the wait doubles, so a round first sent at `t`
//! resends at `t + d`, `t + 3d`, `t + 7d`, …; after the last retry's wait
//! the round fails. An echo of any attempt completes its round. Deadlines
//! are timers, and a timer handles everything due by the current clock,
//! so a thread that wakes late catches up. Each link's rounds end in a
//! [`LinkHealth`], which places the link on the degradation lattice.

use std::collections::BTreeMap;

use clocksync_model::ProcessorId;
use clocksync_obs::{FieldValue, Recorder};
use clocksync_time::{ClockTime, Nanos};
use serde::{Deserialize, Serialize};

use crate::engine::{Process, ProcessCtx};
use crate::scenario::LinkSpec;

/// The payload of round `r`'s probe; its echo is `probe(r) + 1`.
fn probe(round: usize) -> u64 {
    2 * round as u64
}

/// Checks a retry rule's values (see [`ProbeProcess::with_retry`]).
pub(crate) fn check_retry(deadline: Nanos, retries: u32) {
    assert!(deadline > Nanos::ZERO, "probe deadline must be positive");
    assert!(retries <= 16, "more than 16 retries is never useful");
}

/// What a run concluded about one link: the tiers of the lattice
/// `bounds → rtt-bias → marzullo-quorum → no-bounds`, plus the terminal
/// `dropped`. Each tier trusts strictly less of the link's declaration
/// than the one before it, and every tier's replacement assumption stays
/// truthful for the messages a run delivers
/// ([`Simulation::degraded_network`](crate::Simulation::degraded_network)).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum LinkState {
    /// Every round completed: the declared assumption stands.
    Healthy,
    /// At most 1/4 of the rounds failed: only the round-trip bias the
    /// declared ranges imply is kept (Lemma 6.5).
    RttBias,
    /// At most 1/2 failed: the ranges are kept as per-sample quorum votes
    /// tolerating as many faulty samples as rounds failed, floored by
    /// no-bounds.
    MarzulloQuorum,
    /// More failed, but some completed: delivered messages still count,
    /// under no bounds at all (Corollary 6.4).
    NoBounds,
    /// No round completed: the link leaves the network, and its endpoints
    /// may end up in different components.
    Dropped,
}

impl std::fmt::Display for LinkState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            LinkState::Healthy => "healthy",
            LinkState::RttBias => "rtt-bias",
            LinkState::MarzulloQuorum => "marzullo-quorum",
            LinkState::NoBounds => "no-bounds",
            LinkState::Dropped => "dropped",
        })
    }
}

/// Per-link probe statistics and the resulting degradation decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct LinkHealth {
    /// Lower-id endpoint, the link's initiator.
    pub a: ProcessorId,
    /// Higher-id endpoint.
    pub b: ProcessorId,
    /// Probe messages sent by the initiator, retries included.
    pub probes_sent: usize,
    /// Probe resends after a missed deadline.
    pub retries: usize,
    /// Messages on the link, either way, sent and never delivered (lost
    /// to the fault plan, or in flight when a threaded run's budget ran out).
    pub lost: usize,
    /// Probe rounds an echo completed.
    pub rounds_ok: usize,
    /// Probe rounds out of retries, or still open when the run ended.
    pub rounds_failed: usize,
    /// The degradation decision derived from the round counts.
    pub state: LinkState,
}

impl LinkHealth {
    /// The degradation rule: no completed round → dropped; no failed round
    /// → healthy; otherwise the failure *rate* picks the tier (≤ 1/4 →
    /// rtt-bias, ≤ 1/2 → marzullo-quorum, worse → no-bounds).
    pub(crate) fn classify(rounds_ok: usize, rounds_failed: usize) -> LinkState {
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

/// Each of `links`' health after a run of `processes`, in declaration
/// order: from the initiator's rounds, and the messages each link `lost`.
/// A round that did not complete counts as failed.
pub(crate) fn link_health(
    links: &[LinkSpec],
    processes: &[ProbeProcess],
    lost: &BTreeMap<(usize, usize), usize>,
) -> Vec<LinkHealth> {
    links
        .iter()
        .map(|l| {
            let (a, b, process) = (ProcessorId(l.a), ProcessorId(l.b), &processes[l.a]);
            let link = process.links.iter().find(|i| i.peer == b);
            let (rounds, retries) = link.map_or((&[][..], 0), |i| (&i.rounds[..], i.retries));
            let rounds_ok = rounds.iter().filter(|&&r| r == Round::Done(true)).count();
            let rounds_failed = process.probes - rounds_ok;
            LinkHealth {
                a,
                b,
                probes_sent: rounds.len() + retries,
                retries,
                lost: lost.get(&(l.a, l.b)).copied().unwrap_or(0),
                rounds_ok,
                rounds_failed,
                state: LinkHealth::classify(rounds_ok, rounds_failed),
            }
        })
        .collect()
}

/// One probe round on one initiated link.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Round {
    /// Sent at `first_sent`, no echo yet; under a retry rule, `deadline`
    /// ends the current attempt.
    Waiting {
        first_sent: ClockTime,
        attempt: u32,
        deadline: Option<ClockTime>,
    },
    /// An echo came back (`true`) or the retries ran out (`false`).
    Done(bool),
}

/// The rounds a processor initiated towards one higher-id neighbor; it
/// sent one probe per round plus one per retry.
#[derive(Debug, Clone)]
struct Initiated {
    peer: ProcessorId,
    rounds: Vec<Round>,
    retries: usize,
}

/// A processor running the round-trip probe protocol: `probes` rounds,
/// the first at `initial_delay`, then `spacing` apart, each sending one
/// probe to every higher-id neighbor, which echoes it at once; an echo
/// completes its round. Under a retry rule ([`ProbeProcess::with_retry`])
/// a probe whose echo misses its deadline is resent with exponential
/// backoff, and the round fails after the last retry. The process keeps
/// at most one timer, at the next thing due; without a retry rule that is
/// one timer per round.
///
/// `initial_delay` must exceed the largest start-time skew in the system:
/// the engine (like the paper's model) has no pre-start message queueing,
/// so a probe must not arrive before its receiver starts.
#[derive(Debug, Clone)]
pub struct ProbeProcess {
    probes: usize,
    spacing: Nanos,
    initial_delay: Nanos,
    retry: Option<(Nanos, u32)>,
    recorder: Recorder,
    rounds_fired: usize,
    links: Vec<Initiated>,
}

impl ProbeProcess {
    /// Creates a probe process sending `probes` rounds.
    ///
    /// # Panics
    ///
    /// Panics if `probes == 0`, or if `spacing` or `initial_delay` is
    /// non-positive.
    pub fn new(probes: usize, spacing: Nanos, initial_delay: Nanos) -> ProbeProcess {
        assert!(probes > 0, "at least one probe round required");
        assert!(spacing > Nanos::ZERO, "spacing must be positive");
        assert!(
            initial_delay > Nanos::ZERO,
            "initial delay must be positive"
        );
        ProbeProcess {
            probes,
            spacing,
            initial_delay,
            retry: None,
            recorder: Recorder::disabled(),
            rounds_fired: 0,
            links: Vec::new(),
        }
    }

    /// Sets the retry rule: a probe whose echo has not come back within
    /// `deadline` is resent, each resend doubling the wait, up to
    /// `retries` times; then the round fails. A round spans at most
    /// `deadline · (2^(retries+1) − 1)`.
    ///
    /// # Panics
    ///
    /// Panics unless `deadline` is positive, or if `retries > 16` (the
    /// backoff would outgrow any useful time scale long before that).
    #[must_use]
    pub fn with_retry(mut self, deadline: Nanos, retries: u32) -> ProbeProcess {
        check_retry(deadline, retries);
        self.retry = Some((deadline, retries));
        self
    }

    /// Attaches an observability recorder; each probe round then emits a
    /// `sim.probe_round` event carrying the initiator and its local clock
    /// (taxonomy in DESIGN.md §6). Under a retry rule the process also
    /// records `net.probe_rtt` (first send to echo, per completed round),
    /// `net.retries` and `net.backoff_wait`.
    #[must_use]
    pub fn with_recorder(mut self, recorder: Recorder) -> ProbeProcess {
        self.recorder = recorder;
        self
    }

    /// The local time round `r` is due.
    fn round_time(&self, r: usize) -> ClockTime {
        ClockTime::ZERO + self.initial_delay + self.spacing * r as i64
    }

    /// Sends the next round's probes.
    fn fire_round(&mut self, ctx: &mut ProcessCtx) {
        let (now, round) = (ctx.clock(), self.rounds_fired);
        let deadline = self.retry.map(|(d, _)| now + d);
        for link in &mut self.links {
            ctx.send(link.peer, probe(round));
            link.rounds.push(Round::Waiting {
                first_sent: now,
                attempt: 0,
                deadline,
            });
        }
        if self.recorder.is_enabled() {
            self.recorder.event(
                "sim.probe_round",
                [
                    ("processor", FieldValue::from(ctx.id().index())),
                    ("round", FieldValue::from(round)),
                    ("clock_ns", FieldValue::from(now.as_nanos())),
                ],
            );
        }
        self.rounds_fired += 1;
    }

    /// Resends, or gives up on, every round whose deadline has passed.
    fn expire(&mut self, deadline: Nanos, retries: u32, ctx: &mut ProcessCtx) {
        let now = ctx.clock();
        for link in &mut self.links {
            for (r, round) in link.rounds.iter_mut().enumerate() {
                match round {
                    Round::Waiting {
                        attempt,
                        deadline: Some(at),
                        ..
                    } if *at <= now => {
                        if *attempt == retries {
                            *round = Round::Done(false);
                            continue;
                        }
                        *attempt += 1;
                        let wait = deadline * (1i64 << *attempt);
                        *at = now + wait;
                        ctx.send(link.peer, probe(r));
                        link.retries += 1;
                        self.recorder.incr("net.retries", 1);
                        let wait_ns = wait.as_nanos() as u64;
                        self.recorder.observe_ns("net.backoff_wait", wait_ns);
                    }
                    _ => {}
                }
            }
        }
    }

    /// Sets the process's one timer at the next round or the earliest
    /// deadline. Only timers create either, and each timer re-arms, so no
    /// other timer is pending.
    fn arm(&self, ctx: &mut ProcessCtx) {
        let next_round = (!self.links.is_empty() && self.rounds_fired < self.probes)
            .then(|| self.round_time(self.rounds_fired));
        let deadlines = self
            .links
            .iter()
            .flat_map(|l| &l.rounds)
            .filter_map(|r| match *r {
                Round::Waiting { deadline, .. } => deadline,
                Round::Done(_) => None,
            });
        if let Some(at) = next_round.into_iter().chain(deadlines).min() {
            ctx.set_timer(at);
        }
    }
}

impl Process for ProbeProcess {
    fn on_start(&mut self, ctx: &mut ProcessCtx) {
        let me = ctx.id();
        self.links = ctx
            .neighbors()
            .iter()
            .filter(|&&nb| nb > me)
            .map(|&peer| Initiated {
                peer,
                rounds: Vec::with_capacity(self.probes),
                retries: 0,
            })
            .collect();
        self.arm(ctx);
    }

    fn on_message(&mut self, from: ProcessorId, payload: u64, ctx: &mut ProcessCtx) {
        if payload.is_multiple_of(2) {
            ctx.send(from, payload + 1);
            return;
        }
        let Some(link) = self.links.iter_mut().find(|l| l.peer == from) else {
            return;
        };
        let round = (payload / 2) as usize;
        if let Some(&Round::Waiting { first_sent, .. }) = link.rounds.get(round) {
            link.rounds[round] = Round::Done(true);
            if self.retry.is_some() {
                self.recorder.observe_ns(
                    "net.probe_rtt",
                    (ctx.clock() - first_sent).as_nanos() as u64,
                );
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut ProcessCtx) {
        while self.rounds_fired < self.probes && self.round_time(self.rounds_fired) <= ctx.clock() {
            self.fire_round(ctx);
        }
        if let Some((deadline, retries)) = self.retry {
            self.expire(deadline, retries, ctx);
        }
        self.arm(ctx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::delay::{DelayDistribution, LinkModel};
    use crate::engine::Engine;
    use clocksync_time::RealTime;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::collections::HashMap;

    fn run_pair(probes: usize) -> clocksync_model::Execution {
        let mut links = HashMap::new();
        links.insert(
            (0usize, 1usize),
            LinkModel::symmetric(DelayDistribution::constant(Nanos::new(100)))
                .resolve(&mut StdRng::seed_from_u64(0)),
        );
        let engine = Engine::new(vec![RealTime::ZERO, RealTime::from_nanos(2_000)], links);
        let proc = || ProbeProcess::new(probes, Nanos::from_micros(10), Nanos::from_micros(5));
        let plan = crate::FaultPlan::new();
        engine
            .run(&mut [proc(), proc()], &mut StdRng::seed_from_u64(42), &plan)
            .0
    }

    #[test]
    fn each_round_produces_one_round_trip() {
        let exec = run_pair(3);
        assert_eq!(exec.link_delays(ProcessorId(0), ProcessorId(1)).len(), 3);
        assert_eq!(exec.link_delays(ProcessorId(1), ProcessorId(0)).len(), 3);
    }

    #[test]
    fn echoes_are_immediate() {
        let exec = run_pair(1);
        let msgs = exec.messages();
        let probe = msgs.iter().find(|m| m.src == ProcessorId(0)).unwrap();
        let echo = msgs.iter().find(|m| m.src == ProcessorId(1)).unwrap();
        assert_eq!(echo.sent_at, probe.received_at);
    }

    #[test]
    fn only_the_lower_endpoint_initiates() {
        let exec = run_pair(2);
        // All probes originate at p0: p1 sends only echoes (same count).
        let from_p1 = exec.link_delays(ProcessorId(1), ProcessorId(0)).len();
        let from_p0 = exec.link_delays(ProcessorId(0), ProcessorId(1)).len();
        assert_eq!(from_p0, from_p1);
    }

    #[test]
    #[should_panic(expected = "at least one probe")]
    fn zero_probes_panics() {
        let _ = ProbeProcess::new(0, Nanos::new(1), Nanos::new(1));
    }
}
