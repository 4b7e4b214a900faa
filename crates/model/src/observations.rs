//! Per-directed-link estimated-delay statistics and evidence.

use clocksync_time::{ClockTime, Ext, Nanos};
use serde::{Deserialize, Serialize};

use crate::view::MessageObservation;
use crate::ProcessorId;

/// One message on a directed link, as the two endpoint clocks saw it.
///
/// This is the complete per-message evidence a local estimator may use:
/// the sender's clock at the send step, the receiver's clock at the
/// receive step, and (derived) the estimated delay
/// `d̃ = recv_clock − send_clock`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct MsgSample {
    /// Sender's clock at the send step.
    pub send_clock: ClockTime,
    /// Receiver's clock at the receive step.
    pub recv_clock: ClockTime,
}

impl MsgSample {
    /// The estimated delay `d̃(m) = recv_clock − send_clock` (Lemma 6.1).
    ///
    /// # Panics
    ///
    /// Panics if the difference overflows `i64` nanoseconds. Ingestion
    /// paths fed untrusted clock readings use
    /// [`MsgSample::checked_estimated_delay`] instead.
    pub fn estimated_delay(&self) -> Nanos {
        self.recv_clock - self.send_clock
    }

    /// The estimated delay, or `None` when the clock readings are so far
    /// apart that their difference is not representable.
    pub fn checked_estimated_delay(&self) -> Option<Nanos> {
        self.recv_clock.checked_sub(self.send_clock)
    }
}

/// Everything a link-local estimator may know about one bidirectional
/// link, oriented: `forward` is the `p → q` direction of the estimator
/// call.
///
/// The extrema-only statistics suffice for the paper's four base models
/// (Lemmas 6.2 and 6.5 show `mls` depends on the views only through
/// `d̃min`/`d̃max`); the per-message samples enable the generalized
/// windowed-bias model (§6.2's "messages sent around the same time").
#[derive(Debug, Clone, Copy)]
pub struct LinkEvidence<'a> {
    /// Extrema of the `p → q` direction.
    pub forward: DirectedStats,
    /// Extrema of the `q → p` direction.
    pub backward: DirectedStats,
    /// All `p → q` messages.
    pub forward_samples: &'a [MsgSample],
    /// All `q → p` messages.
    pub backward_samples: &'a [MsgSample],
}

impl<'a> LinkEvidence<'a> {
    /// The same evidence with the orientation flipped.
    pub fn reversed(self) -> LinkEvidence<'a> {
        LinkEvidence {
            forward: self.backward,
            backward: self.forward,
            forward_samples: self.backward_samples,
            backward_samples: self.forward_samples,
        }
    }

    /// Builds evidence from explicit sample lists (stats are derived).
    pub fn from_samples(
        forward_samples: &'a [MsgSample],
        backward_samples: &'a [MsgSample],
    ) -> LinkEvidence<'a> {
        let stats = |samples: &[MsgSample]| {
            let mut s = DirectedStats::EMPTY;
            for m in samples {
                s.absorb(m.estimated_delay());
            }
            s
        };
        LinkEvidence {
            forward: stats(forward_samples),
            backward: stats(backward_samples),
            forward_samples,
            backward_samples,
        }
    }
}

/// Estimated-delay statistics for one *directed* link `p → q`.
///
/// The estimated delay of a message `m` from `p` to `q` is
/// `d̃(m) = d(m) + S_p − S_q`, which equals the receiver's clock at receipt
/// minus the sender's clock at sending (paper Lemma 6.1). When the link
/// carried no message the extrema take the paper's conventions
/// `d̃max = −∞`, `d̃min = +∞`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct DirectedStats {
    /// Minimum estimated delay over the link's messages (`+∞` if none).
    pub est_min: Ext<Nanos>,
    /// Maximum estimated delay over the link's messages (`−∞` if none).
    pub est_max: Ext<Nanos>,
    /// Number of messages observed on the link.
    pub count: usize,
}

impl DirectedStats {
    /// Statistics of a link that carried no message.
    pub const EMPTY: DirectedStats = DirectedStats {
        est_min: Ext::PosInf,
        est_max: Ext::NegInf,
        count: 0,
    };

    fn absorb(&mut self, est: Nanos) {
        self.est_min = self.est_min.min(Ext::Finite(est));
        self.est_max = self.est_max.max(Ext::Finite(est));
        self.count += 1;
    }
}

impl Default for DirectedStats {
    fn default() -> Self {
        DirectedStats::EMPTY
    }
}

/// Estimated-delay evidence per directed link *slot*: the extrema and
/// count of each direction's estimated delays, and its samples.
///
/// This is the complete interface between the raw views and the §6 local
/// shift estimators: each estimator reads one link's evidence (paper
/// Lemmas 6.2 and 6.5 show `mls` depends on the views only through the
/// extrema `d̃min`/`d̃max` per direction; the windowed-bias and quorum
/// models also read the samples). Only declared links carry evidence, so
/// the store is indexed by the slots of the network's link table — one per
/// direction of each link, `O(n + m)` in all — and the caller that owns
/// the table maps endpoints to slots. Each slot keeps its samples in the
/// order they were recorded.
///
/// # Examples
///
/// ```
/// use clocksync_model::{LinkObservations, MsgSample};
/// use clocksync_time::{ClockTime, Ext, Nanos};
///
/// // Two slots: the directions 0 → 1 and 1 → 0 of one link.
/// let mut obs = LinkObservations::empty(2);
/// obs.record_sample(0, MsgSample {
///     send_clock: ClockTime::from_nanos(100),
///     recv_clock: ClockTime::from_nanos(130),
/// });
/// assert_eq!(obs.stats(0).est_min, Ext::Finite(Nanos::new(30)));
/// assert_eq!(obs.stats(1).count, 0);
/// assert_eq!(obs.evidence(1, 0).backward_samples.len(), 1);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct LinkObservations {
    stats: Vec<DirectedStats>,
    samples: Vec<Vec<MsgSample>>,
}

impl LinkObservations {
    /// Observations over `slots` link directions with no messages at all.
    pub fn empty(slots: usize) -> LinkObservations {
        LinkObservations {
            stats: vec![DirectedStats::EMPTY; slots],
            samples: vec![Vec::new(); slots],
        }
    }

    /// Records each message whose directed link `slot(src, dst)` names, in
    /// one pass over `messages`; a message without a slot is dropped.
    ///
    /// # Panics
    ///
    /// Panics if `slot` names a slot `≥ slots`.
    pub fn from_messages(
        slots: usize,
        messages: &[MessageObservation],
        slot: impl Fn(ProcessorId, ProcessorId) -> Option<usize>,
    ) -> LinkObservations {
        let mut obs = LinkObservations::empty(slots);
        for m in messages {
            if let Some(s) = slot(m.src, m.dst) {
                obs.record_sample(
                    s,
                    MsgSample {
                        send_clock: m.send_clock,
                        recv_clock: m.recv_clock,
                    },
                );
            }
        }
        obs
    }

    /// The number of slots.
    pub fn slots(&self) -> usize {
        self.stats.len()
    }

    /// Records one message with both endpoint clock readings on a slot.
    ///
    /// # Panics
    ///
    /// Panics if `slot` is out of range.
    pub fn record_sample(&mut self, slot: usize, sample: MsgSample) {
        self.stats[slot].absorb(sample.estimated_delay());
        self.samples[slot].push(sample);
    }

    /// All retained samples of a slot, in recording order.
    ///
    /// # Panics
    ///
    /// Panics if `slot` is out of range.
    pub fn samples(&self, slot: usize) -> &[MsgSample] {
        &self.samples[slot]
    }

    /// The statistics of a slot.
    ///
    /// # Panics
    ///
    /// Panics if `slot` is out of range.
    pub fn stats(&self, slot: usize) -> DirectedStats {
        self.stats[slot]
    }

    /// The complete evidence about one link, oriented along the slot
    /// `forward`, with `backward` the slot of the opposite direction.
    ///
    /// # Panics
    ///
    /// Panics if either slot is out of range.
    pub fn evidence(&self, forward: usize, backward: usize) -> LinkEvidence<'_> {
        LinkEvidence {
            forward: self.stats[forward],
            backward: self.stats[backward],
            forward_samples: &self.samples[forward],
            backward_samples: &self.samples[backward],
        }
    }

    /// Total messages recorded across all slots.
    ///
    /// Counts everything ever recorded; samples dropped by
    /// [`LinkObservations::compact_samples`] still count (the statistics
    /// they contributed to are retained).
    pub fn total_messages(&self) -> usize {
        self.stats.iter().map(|s| s.count).sum()
    }

    /// Samples currently held in memory across all slots (at most
    /// [`LinkObservations::total_messages`]; lower after compaction).
    pub fn retained_samples(&self) -> usize {
        self.samples.iter().map(Vec::len).sum()
    }

    /// Compacts the retained samples of a slot down to the extremal
    /// witnesses plus the `window` most recent samples, returning how many
    /// were dropped.
    ///
    /// The directed statistics (`d̃min`, `d̃max`, count) are untouched:
    /// they are maintained by absorption and never recomputed from the
    /// sample list, so compaction cannot loosen any estimate that depends
    /// on the link only through its extrema (Lemmas 6.2/6.5). Callers must
    /// not compact links whose estimator reads the full sample list (the
    /// windowed-bias model); the synchronizer's compaction hook checks
    /// this via the assumption's extrema-only predicate.
    ///
    /// The first sample attaining the current `d̃min` and the first
    /// attaining `d̃max` are always retained, so a view materialized from
    /// the surviving samples still witnesses both extrema.
    ///
    /// # Panics
    ///
    /// Panics if `slot` is out of range.
    pub fn compact_samples(&mut self, slot: usize, window: usize) -> usize {
        let stats = self.stats[slot];
        let samples = &mut self.samples[slot];
        if samples.len() <= window.saturating_add(2) {
            return 0;
        }
        let min_witness = samples
            .iter()
            .position(|s| Ext::Finite(s.estimated_delay()) == stats.est_min);
        let max_witness = samples
            .iter()
            .position(|s| Ext::Finite(s.estimated_delay()) == stats.est_max);
        let tail_start = samples.len() - window;
        let before = samples.len();
        let mut pos = 0;
        samples.retain(|_| {
            let keep = pos >= tail_start || Some(pos) == min_witness || Some(pos) == max_witness;
            pos += 1;
            keep
        });
        before - samples.len()
    }

    /// Discards every recorded sample *and* statistic of a slot — the
    /// evidence-retraction primitive behind the synchronizer's
    /// `forget_link`, which clears both directions of a link: after a link
    /// is physically replaced, its old observations no longer describe it.
    /// Returns how many retained samples were dropped.
    ///
    /// # Panics
    ///
    /// Panics if `slot` is out of range.
    pub fn clear(&mut self, slot: usize) -> usize {
        self.stats[slot] = DirectedStats::EMPTY;
        let dropped = self.samples[slot].len();
        self.samples[slot].clear();
        dropped
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The slots of the two directions of one link.
    const FWD: usize = 0;
    const BWD: usize = 1;

    fn record(obs: &mut LinkObservations, slot: usize, delay: i64) {
        obs.record_sample(
            slot,
            MsgSample {
                send_clock: ClockTime::ZERO,
                recv_clock: ClockTime::ZERO + Nanos::new(delay),
            },
        );
    }

    #[test]
    fn empty_links_have_infinite_extrema() {
        let obs = LinkObservations::empty(2);
        assert_eq!(obs.stats(FWD).est_min, Ext::PosInf);
        assert_eq!(obs.stats(FWD).est_max, Ext::NegInf);
        assert_eq!(obs.total_messages(), 0);
    }

    #[test]
    fn extrema_track_min_and_max() {
        let mut obs = LinkObservations::empty(2);
        record(&mut obs, FWD, 30);
        record(&mut obs, FWD, -10);
        record(&mut obs, FWD, 20);
        let s = obs.stats(FWD);
        assert_eq!(s.est_min, Ext::Finite(Nanos::new(-10)));
        assert_eq!(s.est_max, Ext::Finite(Nanos::new(30)));
        assert_eq!(s.count, 3);
        // The reverse direction is untouched.
        assert_eq!(obs.stats(BWD), DirectedStats::EMPTY);
    }

    #[test]
    fn directions_are_independent() {
        let mut obs = LinkObservations::empty(2);
        record(&mut obs, FWD, 5);
        record(&mut obs, BWD, -7);
        assert_eq!(obs.stats(FWD).est_min, Ext::Finite(Nanos::new(5)));
        assert_eq!(obs.stats(BWD).est_min, Ext::Finite(Nanos::new(-7)));
        assert_eq!(obs.total_messages(), 2);
        let evidence = obs.evidence(BWD, FWD);
        assert_eq!(evidence.forward, obs.stats(BWD));
        assert_eq!(evidence.reversed().forward, obs.stats(FWD));
    }

    #[test]
    fn messages_without_a_slot_are_dropped_and_order_is_kept() {
        let (p, q, r) = (ProcessorId(0), ProcessorId(1), ProcessorId(2));
        let message = |id, src, dst, send, recv| MessageObservation {
            id: crate::MessageId(id),
            src,
            dst,
            send_clock: ClockTime::from_nanos(send),
            recv_clock: ClockTime::from_nanos(recv),
        };
        let messages = [
            message(0, p, q, 0, 9),
            message(1, p, r, 0, 4),
            message(2, q, p, 10, 12),
            message(3, p, q, 20, 23),
        ];
        let slot = |src: ProcessorId, dst: ProcessorId| match (src.index(), dst.index()) {
            (0, 1) => Some(FWD),
            (1, 0) => Some(BWD),
            _ => None,
        };
        let obs = LinkObservations::from_messages(2, &messages, slot);
        assert_eq!(obs.total_messages(), 3);
        let delays: Vec<i64> = obs
            .samples(FWD)
            .iter()
            .map(|s| s.estimated_delay().as_nanos())
            .collect();
        assert_eq!(delays, [9, 3]);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn out_of_range_slot_panics() {
        let obs = LinkObservations::empty(1);
        let _ = obs.stats(1);
    }

    #[test]
    fn checked_estimated_delay_catches_overflow() {
        let adversarial = MsgSample {
            send_clock: ClockTime::from_nanos(i64::MIN),
            recv_clock: ClockTime::from_nanos(i64::MAX),
        };
        assert_eq!(adversarial.checked_estimated_delay(), None);
        let fine = MsgSample {
            send_clock: ClockTime::from_nanos(10),
            recv_clock: ClockTime::from_nanos(25),
        };
        assert_eq!(fine.checked_estimated_delay(), Some(Nanos::new(15)));
    }

    #[test]
    fn compaction_keeps_witnesses_and_stats() {
        let mut obs = LinkObservations::empty(2);
        // Extrema arrive early, then a long run of dominated probes.
        record(&mut obs, FWD, -50); // d̃min witness
        record(&mut obs, FWD, 90); // d̃max witness
        for d in 0..20 {
            record(&mut obs, FWD, d);
        }
        let before = obs.stats(FWD);
        let dropped = obs.compact_samples(FWD, 4);
        assert_eq!(dropped, 22 - 4 - 2);
        assert_eq!(obs.samples(FWD).len(), 6);
        // Stats are bit-identical and the surviving samples still witness
        // both extrema.
        assert_eq!(obs.stats(FWD), before);
        let delays: Vec<Nanos> = obs
            .samples(FWD)
            .iter()
            .map(|s| s.estimated_delay())
            .collect();
        assert!(delays.contains(&Nanos::new(-50)));
        assert!(delays.contains(&Nanos::new(90)));
        // Retained counts drop, recorded totals do not.
        assert_eq!(obs.total_messages(), 22);
        assert_eq!(obs.retained_samples(), 6);
        // Small lists are left alone.
        assert_eq!(obs.compact_samples(FWD, 4), 0);
    }

    #[test]
    fn compaction_is_idempotent_on_extremal_tail() {
        let mut obs = LinkObservations::empty(2);
        // The tail itself contains the extrema: witnesses and tail overlap.
        for d in [5, 5, 5, 5, 5, -9, 70] {
            record(&mut obs, FWD, d);
        }
        obs.compact_samples(FWD, 2);
        assert_eq!(obs.samples(FWD).len(), 2);
        assert_eq!(obs.stats(FWD).est_min, Ext::Finite(Nanos::new(-9)));
        assert_eq!(obs.stats(FWD).est_max, Ext::Finite(Nanos::new(70)));
    }

    #[test]
    fn clear_link_resets_both_directions() {
        let mut obs = LinkObservations::empty(3);
        record(&mut obs, FWD, 5);
        record(&mut obs, BWD, 7);
        record(&mut obs, 2, 9);
        assert_eq!(obs.clear(FWD) + obs.clear(BWD), 2);
        assert_eq!(obs.stats(FWD), DirectedStats::EMPTY);
        assert_eq!(obs.stats(BWD), DirectedStats::EMPTY);
        assert_eq!(obs.stats(2).est_min, Ext::Finite(Nanos::new(9)));
    }
}
