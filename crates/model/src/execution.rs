//! Executions: views plus hidden real start times, and the shift operation.

use clocksync_time::{ClockTime, Nanos, Ratio, RealTime};
use serde::{Deserialize, Serialize};

use crate::{ModelError, ProcessorId, ViewSet};

/// One delivered message with both the observable clock readings and the
/// observer-only real times.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct MessageRecord {
    /// Sender.
    pub src: ProcessorId,
    /// Receiver.
    pub dst: ProcessorId,
    /// Sender's clock at the send step (observable).
    pub send_clock: ClockTime,
    /// Receiver's clock at the receive step (observable).
    pub recv_clock: ClockTime,
    /// Real time of the send step (`S_src + send-clock`).
    pub sent_at: RealTime,
    /// Real time of the receive step (`S_dst + recv-clock`).
    pub received_at: RealTime,
    /// True delay `d(m) = received_at − sent_at` (observer-only).
    pub delay: Nanos,
    /// Estimated delay `d̃(m) = d(m) + S_src − S_dst` (computable from the
    /// views alone).
    pub estimated_delay: Nanos,
}

/// An execution of the system: one view per processor plus the real start
/// time `S_p` of each (paper §2.1).
///
/// Because clocks are drift-free, an execution is fully determined by its
/// views and start times: the step recorded at clock time `T` by processor
/// `p` happened at real time `S_p + T`. Consequently:
///
/// * two executions are **equivalent** iff they have the same views
///   ([`Execution::is_equivalent_to`]), and
/// * **shifting** processor histories (§4.1) changes only the start times:
///   `shift(α, ⟨s_1…s_n⟩)` has `S'_p = S_p − s_p` and identical views
///   (Lundelius–Lynch Lemma 4.1). [`Execution::shift`] is therefore exact
///   and total.
///
/// # Examples
///
/// ```
/// use clocksync_model::{ExecutionBuilder, ProcessorId};
/// use clocksync_time::{Nanos, RealTime};
///
/// let exec = ExecutionBuilder::new(2)
///     .start(ProcessorId(1), RealTime::from_nanos(100))
///     .message(ProcessorId(0), ProcessorId(1), RealTime::from_nanos(150), Nanos::new(40))
///     .build()?;
/// let shifted = exec.shift(&[Nanos::new(0), Nanos::new(-25)]);
/// assert!(exec.is_equivalent_to(&shifted));
/// assert_eq!(shifted.start(ProcessorId(1)), RealTime::from_nanos(125));
/// # Ok::<(), clocksync_model::ModelError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Execution {
    starts: Vec<RealTime>,
    views: ViewSet,
}

impl Execution {
    /// Assembles an execution from start times and validated views.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::WrongProcessorCount`] if `starts` and `views`
    /// disagree about the number of processors.
    pub fn new(starts: Vec<RealTime>, views: ViewSet) -> Result<Execution, ModelError> {
        if starts.len() != views.len() {
            return Err(ModelError::WrongProcessorCount {
                expected: views.len(),
                actual: starts.len(),
            });
        }
        Ok(Execution { starts, views })
    }

    /// The number of processors.
    pub fn n(&self) -> usize {
        self.starts.len()
    }

    /// The real start time `S_p` of processor `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is out of range.
    pub fn start(&self, p: ProcessorId) -> RealTime {
        self.starts[p.index()]
    }

    /// All start times in processor order.
    pub fn starts(&self) -> &[RealTime] {
        &self.starts
    }

    /// The observable part of the execution.
    pub fn views(&self) -> &ViewSet {
        &self.views
    }

    /// Every delivered message with real times, true delay and estimated
    /// delay, sorted by message id.
    pub fn messages(&self) -> Vec<MessageRecord> {
        self.views
            .message_observations()
            .iter()
            .map(|m| {
                let sent_at = self.start(m.src) + m.send_clock.offset();
                let received_at = self.start(m.dst) + m.recv_clock.offset();
                MessageRecord {
                    src: m.src,
                    dst: m.dst,
                    send_clock: m.send_clock,
                    recv_clock: m.recv_clock,
                    sent_at,
                    received_at,
                    delay: received_at - sent_at,
                    estimated_delay: m.recv_clock - m.send_clock,
                }
            })
            .collect()
    }

    /// The true delays of all messages on the directed link `src → dst`.
    pub fn link_delays(&self, src: ProcessorId, dst: ProcessorId) -> Vec<Nanos> {
        self.link_messages(src, dst)
            .into_iter()
            .map(|m| m.delay)
            .collect()
    }

    /// All message records on the directed link `src → dst`.
    pub fn link_messages(&self, src: ProcessorId, dst: ProcessorId) -> Vec<MessageRecord> {
        self.messages()
            .into_iter()
            .filter(|m| m.src == src && m.dst == dst)
            .collect()
    }

    /// Applies a shift vector `⟨s_1 … s_n⟩` (§4.1): processor `p`'s history
    /// is replaced by `shift(π_p, s_p)`, i.e. its steps occur `s_p` earlier
    /// in real time, so `S'_p = S_p − s_p`. The views are unchanged, hence
    /// the result is equivalent to `self`.
    ///
    /// # Panics
    ///
    /// Panics if `shifts.len() != n`.
    pub fn shift(&self, shifts: &[Nanos]) -> Execution {
        assert_eq!(shifts.len(), self.n(), "shift vector has wrong length");
        Execution {
            starts: self
                .starts
                .iter()
                .zip(shifts)
                .map(|(&s, &sh)| s - sh)
                .collect(),
            views: self.views.clone(),
        }
    }

    /// Equivalence of executions (§2.1): identical views for every
    /// processor; only an outside observer can tell them apart.
    pub fn is_equivalent_to(&self, other: &Execution) -> bool {
        self.views == other.views
    }

    /// The achieved discrepancy `ρ(α, x̄) = max_{p,q} |(S_p − x_p) −
    /// (S_q − x_q)|` of a correction vector (§3).
    ///
    /// Returns zero for systems with fewer than two processors.
    ///
    /// # Panics
    ///
    /// Panics if `corrections.len() != n`.
    pub fn discrepancy(&self, corrections: &[Ratio]) -> Ratio {
        discrepancy(&self.starts, corrections)
    }
}

/// The discrepancy [`Execution::discrepancy`] measures, from the real
/// start times alone: `max_p (S_p − x_p) − min_p (S_p − x_p)`, zero for
/// fewer than two processors. For a caller that holds the ground-truth
/// starts without an execution around them.
///
/// # Panics
///
/// Panics if `corrections.len() != starts.len()`.
pub fn discrepancy(starts: &[RealTime], corrections: &[Ratio]) -> Ratio {
    assert_eq!(
        corrections.len(),
        starts.len(),
        "correction vector has wrong length"
    );
    let mut adjusted = starts
        .iter()
        .zip(corrections)
        .map(|(&s, &x)| Ratio::from(s - RealTime::ZERO) - x);
    let Some(first) = adjusted.next() else {
        return Ratio::ZERO;
    };
    let (lo, hi) = adjusted.fold((first, first), |(lo, hi), a| (lo.min(a), hi.max(a)));
    hi - lo
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ExecutionBuilder;

    const P: ProcessorId = ProcessorId(0);
    const Q: ProcessorId = ProcessorId(1);

    fn two_node_exec() -> Execution {
        ExecutionBuilder::new(2)
            .start(Q, RealTime::from_nanos(100))
            .message(P, Q, RealTime::from_nanos(50), Nanos::new(200))
            .message(Q, P, RealTime::from_nanos(400), Nanos::new(100))
            .build()
            .unwrap()
    }

    #[test]
    fn wrong_start_count_is_rejected() {
        let exec = two_node_exec();
        let err = Execution::new(vec![RealTime::ZERO], exec.views().clone()).unwrap_err();
        assert!(matches!(err, ModelError::WrongProcessorCount { .. }));
    }

    #[test]
    fn message_records_carry_consistent_times() {
        let exec = two_node_exec();
        let msgs = exec.messages();
        assert_eq!(msgs.len(), 2);
        let m = msgs[0];
        assert_eq!(m.src, P);
        assert_eq!(m.sent_at, RealTime::from_nanos(50));
        assert_eq!(m.received_at, RealTime::from_nanos(250));
        assert_eq!(m.delay, Nanos::new(200));
        // d̃ = d + S_p − S_q = 200 + 0 − 100 = 100.
        assert_eq!(m.estimated_delay, Nanos::new(100));
    }

    #[test]
    fn link_delays_filters_by_direction() {
        let exec = two_node_exec();
        assert_eq!(exec.link_delays(P, Q), vec![Nanos::new(200)]);
        assert_eq!(exec.link_delays(Q, P), vec![Nanos::new(100)]);
    }

    #[test]
    fn shift_moves_starts_and_preserves_views() {
        let exec = two_node_exec();
        let shifted = exec.shift(&[Nanos::new(30), Nanos::new(-70)]);
        assert_eq!(shifted.start(P), RealTime::from_nanos(-30));
        assert_eq!(shifted.start(Q), RealTime::from_nanos(170));
        assert!(exec.is_equivalent_to(&shifted));
        // True delays change under a shift…
        assert_eq!(shifted.link_delays(P, Q), vec![Nanos::new(300)]);
        // …but estimated delays cannot (they are view-determined).
        assert_eq!(shifted.messages()[0].estimated_delay, Nanos::new(100));
    }

    #[test]
    fn zero_shift_is_identity() {
        let exec = two_node_exec();
        let same = exec.shift(&[Nanos::ZERO, Nanos::ZERO]);
        assert_eq!(exec, same);
    }

    #[test]
    fn discrepancy_measures_corrected_spread() {
        let exec = two_node_exec(); // S = (0, 100)
                                    // Perfect corrections: x_q − x_p = S_q − S_p.
        let perfect = vec![Ratio::ZERO, Ratio::from_int(100)];
        assert_eq!(exec.discrepancy(&perfect), Ratio::ZERO);
        // No corrections: spread is |S_p − S_q| = 100.
        let none = vec![Ratio::ZERO, Ratio::ZERO];
        assert_eq!(exec.discrepancy(&none), Ratio::from_int(100));
    }

    #[test]
    fn equivalence_ignores_start_times_only() {
        let exec = two_node_exec();
        let other = Execution::new(
            vec![RealTime::from_nanos(7), RealTime::from_nanos(1)],
            exec.views().clone(),
        )
        .unwrap();
        assert!(exec.is_equivalent_to(&other));
    }
}
