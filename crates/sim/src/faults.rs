//! Fault plans: reproducible link- and processor-level failures.
//!
//! A [`FaultPlan`] describes *what goes wrong* in a simulated execution —
//! per-link message drops, duplication, reordering, timed link-down
//! windows, and crash-stop processors — while the seed still controls
//! *when*. Every run goes through the engine's one event loop under its
//! plan, and a fault draws from the random stream only where its
//! probability is positive, so an empty plan leaves every seeded run as
//! it was, and a faulty run is itself fully reproducible from
//! `(seed, plan)`.
//!
//! Faults never leave the paper's model: a dropped message simply does not
//! appear in anyone's view (its send is erased at harvest — the processors
//! cannot distinguish "never sent" from "sent and lost"), a duplicate is a
//! fresh message with its own identity and an independently sampled delay,
//! and a reordered message is one whose delay was resampled towards the
//! tail of the same distribution. Executions produced under a plan
//! therefore still satisfy every axiom of `clocksync_model` and remain
//! admissible for truthful assumptions.

use std::collections::{BTreeMap, HashMap};

use clocksync_model::{MessageId, ProcessorId};
use clocksync_time::{Nanos, RealTime};
use rand::Rng;

use crate::delay::ResolvedLink;

/// The failure behaviour of one undirected link.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LinkFaults {
    /// Probability that a message on this link is silently lost.
    pub drop_prob: f64,
    /// Probability that a delivered message is delivered twice (the copy
    /// gets a fresh id and an independently sampled delay).
    pub dup_prob: f64,
    /// Probability that a message is "overtaken": its delay is resampled as
    /// the maximum of two draws, pushing it towards the tail of the same
    /// distribution (so truthful assumptions stay truthful).
    pub reorder_prob: f64,
    /// Half-open real-time windows `[from, until)` during which every
    /// message sent on the link is lost (link churn).
    pub down: Vec<(RealTime, RealTime)>,
}

impl LinkFaults {
    /// `true` when the link is inside one of its down windows at `t`.
    pub fn is_down_at(&self, t: RealTime) -> bool {
        self.down
            .iter()
            .any(|&(from, until)| from <= t && t < until)
    }

    /// `true` when no fault of any kind is configured.
    pub fn is_benign(&self) -> bool {
        self.drop_prob == 0.0
            && self.dup_prob == 0.0
            && self.reorder_prob == 0.0
            && self.down.is_empty()
    }
}

/// One delivered send's passage: its delay, whether reordering resampled
/// it, and a duplicate's own delay if the link made one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Transit {
    pub(crate) delay: Nanos,
    pub(crate) reordered: bool,
    pub(crate) copy: Option<Nanos>,
}

/// The per-send fault decision both executors share: samples the delay
/// of a send at real time `at` in one direction of `link`, then applies
/// the link's `faults`. `None` means lost (a down window or a drop); a
/// reordering resamples the delay as the maximum of two draws, still in
/// the link's support. A fault draws from `rng` only where its
/// probability is positive, in the order delay, drop, reorder, duplicate.
pub(crate) fn transit<R: Rng + ?Sized>(
    link: &ResolvedLink,
    forward: bool,
    faults: Option<&LinkFaults>,
    at: RealTime,
    rng: &mut R,
) -> Option<Transit> {
    let mut delay = link.sample(forward, rng);
    let benign = LinkFaults::default();
    let lf = faults.unwrap_or(&benign);
    if lf.is_down_at(at) || (lf.drop_prob > 0.0 && rng.gen_bool(lf.drop_prob)) {
        return None;
    }
    let reordered = lf.reorder_prob > 0.0 && rng.gen_bool(lf.reorder_prob);
    if reordered {
        delay = delay.max(link.sample(forward, rng));
    }
    let copy = (lf.dup_prob > 0.0 && rng.gen_bool(lf.dup_prob)).then(|| link.sample(forward, rng));
    Some(Transit {
        delay,
        reordered,
        copy,
    })
}

/// A complete fault schedule for one simulated execution.
///
/// Built with consuming chain calls and passed to [`crate::Engine::run`]
/// (or [`Simulation::faults`](crate::SimulationBuilder::faults)):
///
/// ```
/// use clocksync_sim::FaultPlan;
/// use clocksync_model::ProcessorId;
/// use clocksync_time::RealTime;
///
/// let plan = FaultPlan::new()
///     .drop_messages(ProcessorId(0), ProcessorId(1), 0.2)
///     .link_down(ProcessorId(1), ProcessorId(2),
///                RealTime::from_micros(100), RealTime::from_micros(300))
///     .crash(ProcessorId(3), RealTime::from_micros(250));
/// assert!(!plan.is_empty());
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    links: HashMap<(usize, usize), LinkFaults>,
    crashes: HashMap<usize, RealTime>,
}

impl FaultPlan {
    /// An empty plan (no faults).
    pub fn new() -> FaultPlan {
        FaultPlan::default()
    }

    fn entry(&mut self, a: ProcessorId, b: ProcessorId) -> &mut LinkFaults {
        assert_ne!(a, b, "a link needs two distinct endpoints");
        let key = (a.index().min(b.index()), a.index().max(b.index()));
        self.links.entry(key).or_default()
    }

    fn check_prob(prob: f64) {
        assert!(
            (0.0..=1.0).contains(&prob),
            "fault probability must be in [0, 1], got {prob}"
        );
    }

    /// Drops each message on link `{a, b}` independently with probability
    /// `prob`.
    ///
    /// # Panics
    ///
    /// Panics if `prob` is outside `[0, 1]` or `a == b`.
    pub fn drop_messages(mut self, a: ProcessorId, b: ProcessorId, prob: f64) -> FaultPlan {
        Self::check_prob(prob);
        self.entry(a, b).drop_prob = prob;
        self
    }

    /// Duplicates each delivered message on link `{a, b}` independently
    /// with probability `prob`.
    ///
    /// # Panics
    ///
    /// Panics if `prob` is outside `[0, 1]` or `a == b`.
    pub fn duplicate_messages(mut self, a: ProcessorId, b: ProcessorId, prob: f64) -> FaultPlan {
        Self::check_prob(prob);
        self.entry(a, b).dup_prob = prob;
        self
    }

    /// Delays ("reorders past later traffic") each message on link `{a, b}`
    /// independently with probability `prob`.
    ///
    /// # Panics
    ///
    /// Panics if `prob` is outside `[0, 1]` or `a == b`.
    pub fn reorder_messages(mut self, a: ProcessorId, b: ProcessorId, prob: f64) -> FaultPlan {
        Self::check_prob(prob);
        self.entry(a, b).reorder_prob = prob;
        self
    }

    /// Takes link `{a, b}` down for the half-open real-time window
    /// `[from, until)`; messages sent during the window are lost. Multiple
    /// windows may be declared per link.
    ///
    /// # Panics
    ///
    /// Panics if `from > until` or `a == b`.
    pub fn link_down(
        mut self,
        a: ProcessorId,
        b: ProcessorId,
        from: RealTime,
        until: RealTime,
    ) -> FaultPlan {
        assert!(from <= until, "down window must have from <= until");
        self.entry(a, b).down.push((from, until));
        self
    }

    /// Crash-stops processor `p` at real time `at`: it takes no step at or
    /// after `at` and messages arriving from then on are lost. A crash at
    /// or before `p`'s start leaves it with a bare start-only view (it
    /// booted, then died before doing anything).
    pub fn crash(mut self, p: ProcessorId, at: RealTime) -> FaultPlan {
        self.crashes.insert(p.index(), at);
        self
    }

    /// The fault behaviour of the canonical link `key = (low, high)`, if
    /// any was declared.
    pub fn link_faults(&self, key: (usize, usize)) -> Option<&LinkFaults> {
        self.links.get(&key)
    }

    /// Overlays `other` onto this plan: per link, `other`'s probabilities
    /// replace this plan's where `other` declares them (a declared zero
    /// replaces too — that is how a scenario turns a fault *off*), down
    /// windows accumulate, and `other`'s crash times replace this plan's
    /// for the processors it crashes. The event-sourced composition the
    /// scenario fuzzer folds `SetFaults`/`LinkDown`/`Crash` events with.
    pub fn merge(mut self, other: FaultPlan) -> FaultPlan {
        for (key, theirs) in other.links {
            let ours = self.links.entry(key).or_default();
            ours.drop_prob = theirs.drop_prob;
            ours.dup_prob = theirs.dup_prob;
            ours.reorder_prob = theirs.reorder_prob;
            ours.down.extend(theirs.down);
        }
        for (p, at) in other.crashes {
            self.crashes.insert(p, at);
        }
        self
    }

    /// The crash-stop time of processor `p`, if scheduled.
    pub fn crash_time(&self, p: ProcessorId) -> Option<RealTime> {
        self.crashes.get(&p.index()).copied()
    }

    /// All scheduled crashes, ascending by processor.
    pub fn crashes(&self) -> Vec<(ProcessorId, RealTime)> {
        let mut out: Vec<_> = self
            .crashes
            .iter()
            .map(|(&p, &t)| (ProcessorId(p), t))
            .collect();
        out.sort_by_key(|&(p, _)| p);
        out
    }

    /// `true` when the plan schedules no fault at all.
    pub fn is_empty(&self) -> bool {
        self.crashes.is_empty() && self.links.values().all(LinkFaults::is_benign)
    }

    /// The largest processor index referenced anywhere in the plan, used by
    /// the engine to validate the plan against the system size.
    pub fn max_processor_index(&self) -> Option<usize> {
        self.links
            .keys()
            .map(|&(_, b)| b)
            .chain(self.crashes.keys().copied())
            .max()
    }
}

/// What actually went wrong during one faulty run — the ground truth the
/// engine records as it injects each fault.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultLog {
    /// Messages that were sent but never delivered (random drop, down
    /// window, or receiver crash). Their send events are erased from the
    /// harvested views, so these ids do not appear in the execution.
    pub dropped: Vec<MessageId>,
    /// How many of `dropped` each canonical link `(low, high)` carried,
    /// both directions together; links that lost nothing are absent.
    pub dropped_per_link: BTreeMap<(usize, usize), usize>,
    /// `(original, copy)` pairs for duplicated deliveries. The copy is a
    /// real message of the execution with its own id — unless its receiver
    /// crashed first, in which case it also appears in `dropped`.
    pub duplicated: Vec<(MessageId, MessageId)>,
    /// Messages whose delay was resampled towards the tail (reordering).
    pub reordered: Vec<MessageId>,
    /// Processors that were crash-stopped, with their crash times.
    pub crashed: Vec<(ProcessorId, RealTime)>,
}

impl FaultLog {
    /// `true` when no fault fired (a plan with low probabilities can come
    /// up clean).
    pub fn is_clean(&self) -> bool {
        self.dropped.is_empty()
            && self.duplicated.is_empty()
            && self.reordered.is_empty()
            && self.crashed.is_empty()
    }

    /// The ids of duplicate *copies* (not originals); stripping these from
    /// a view set via `retain_messages` recovers the duplicate-free
    /// evidence.
    pub fn duplicate_copy_ids(&self) -> impl Iterator<Item = MessageId> + '_ {
        self.duplicated.iter().map(|&(_, copy)| copy)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const P: ProcessorId = ProcessorId(0);
    const Q: ProcessorId = ProcessorId(1);

    #[test]
    fn empty_plan_is_empty() {
        assert!(FaultPlan::new().is_empty());
        assert!(FaultPlan::new().drop_messages(P, Q, 0.0).is_empty());
        assert!(!FaultPlan::new().drop_messages(P, Q, 0.5).is_empty());
        assert!(!FaultPlan::new().crash(P, RealTime::ZERO).is_empty());
    }

    #[test]
    fn links_are_canonicalized() {
        let plan = FaultPlan::new().drop_messages(Q, P, 0.25);
        assert_eq!(plan.link_faults((0, 1)).unwrap().drop_prob, 0.25);
        assert!(plan.link_faults((1, 0)).is_none());
    }

    #[test]
    fn down_windows_are_half_open() {
        let plan =
            FaultPlan::new().link_down(P, Q, RealTime::from_nanos(100), RealTime::from_nanos(200));
        let lf = plan.link_faults((0, 1)).unwrap();
        assert!(!lf.is_down_at(RealTime::from_nanos(99)));
        assert!(lf.is_down_at(RealTime::from_nanos(100)));
        assert!(lf.is_down_at(RealTime::from_nanos(199)));
        assert!(!lf.is_down_at(RealTime::from_nanos(200)));
    }

    #[test]
    fn merge_replaces_probs_and_accumulates_windows() {
        let base = FaultPlan::new()
            .drop_messages(P, Q, 0.5)
            .duplicate_messages(P, Q, 0.25)
            .link_down(P, Q, RealTime::from_nanos(10), RealTime::from_nanos(20))
            .crash(P, RealTime::from_nanos(100));
        let overlay = FaultPlan::new()
            .drop_messages(P, Q, 0.0) // declared zero turns the fault off
            .link_down(P, Q, RealTime::from_nanos(30), RealTime::from_nanos(40))
            .crash(P, RealTime::from_nanos(50));
        let merged = base.merge(overlay);
        let lf = merged.link_faults((0, 1)).unwrap();
        assert_eq!(lf.drop_prob, 0.0);
        assert_eq!(lf.dup_prob, 0.0, "overlay declared the link, replacing");
        assert_eq!(
            lf.down,
            vec![
                (RealTime::from_nanos(10), RealTime::from_nanos(20)),
                (RealTime::from_nanos(30), RealTime::from_nanos(40)),
            ]
        );
        assert_eq!(merged.crash_time(P), Some(RealTime::from_nanos(50)));
        // Links the overlay does not mention are untouched.
        let untouched = FaultPlan::new()
            .drop_messages(P, Q, 0.5)
            .merge(FaultPlan::new().crash(Q, RealTime::ZERO));
        assert_eq!(untouched.link_faults((0, 1)).unwrap().drop_prob, 0.5);
    }

    #[test]
    #[should_panic(expected = "fault probability")]
    fn out_of_range_probability_panics() {
        let _ = FaultPlan::new().drop_messages(P, Q, 1.5);
    }

    #[test]
    fn max_index_spans_links_and_crashes() {
        let plan = FaultPlan::new()
            .drop_messages(P, Q, 0.1)
            .crash(ProcessorId(7), RealTime::ZERO);
        assert_eq!(plan.max_processor_index(), Some(7));
        assert_eq!(FaultPlan::new().max_processor_index(), None);
    }
}
