//! Views and validated view sets.

use clocksync_time::ClockTime;
use serde::{Deserialize, Serialize};

use crate::observations::LinkObservations;
use crate::{MessageId, ModelError, ProcessorId, ViewEvent};

/// The view of one processor: its steps with local clock times, in order.
///
/// Per the paper (§2.1), a view is the concatenation of a processor's steps
/// in real-time order, with the real times erased. Because clocks are
/// drift-free, clock order coincides with real-time order, so a view is
/// simply a clock-ordered event sequence beginning with a start event at
/// clock 0.
///
/// # Examples
///
/// ```
/// use clocksync_model::{View, ProcessorId, MessageId};
/// use clocksync_time::ClockTime;
///
/// let mut v = View::new(ProcessorId(0));
/// v.record_send(ProcessorId(1), MessageId(1), ClockTime::from_nanos(100));
/// assert_eq!(v.events().len(), 2); // start + send
/// assert!(v.validate().is_ok());
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct View {
    processor: ProcessorId,
    events: Vec<ViewEvent>,
}

impl View {
    /// Creates a view for `processor` containing only the start event.
    pub fn new(processor: ProcessorId) -> View {
        View {
            processor,
            events: vec![ViewEvent::Start {
                clock: ClockTime::ZERO,
            }],
        }
    }

    /// Creates a view from raw events without validation; use
    /// [`View::validate`] (or [`ViewSet::new`]) to check it.
    pub fn from_events(processor: ProcessorId, events: Vec<ViewEvent>) -> View {
        View { processor, events }
    }

    /// The processor whose view this is.
    pub fn processor(&self) -> ProcessorId {
        self.processor
    }

    /// The recorded events in order.
    pub fn events(&self) -> &[ViewEvent] {
        &self.events
    }

    /// Appends a send event.
    pub fn record_send(&mut self, to: ProcessorId, id: MessageId, clock: ClockTime) {
        self.events.push(ViewEvent::Send { to, id, clock });
    }

    /// Appends a receive event.
    pub fn record_recv(&mut self, from: ProcessorId, id: MessageId, clock: ClockTime) {
        self.events.push(ViewEvent::Recv { from, id, clock });
    }

    /// Appends a timer event.
    pub fn record_timer(&mut self, clock: ClockTime) {
        self.events.push(ViewEvent::Timer { clock });
    }

    /// Checks the per-view axioms: a unique start event first, at clock 0,
    /// and nondecreasing clock times.
    ///
    /// # Errors
    ///
    /// Returns the first violated axiom.
    pub fn validate(&self) -> Result<(), ModelError> {
        match self.events.first() {
            Some(ViewEvent::Start { clock }) if *clock == ClockTime::ZERO => {}
            _ => {
                return Err(ModelError::BadStartEvent {
                    processor: self.processor,
                })
            }
        }
        if self.events.iter().skip(1).any(|e| e.is_start()) {
            return Err(ModelError::BadStartEvent {
                processor: self.processor,
            });
        }
        let ordered = self.events.windows(2).all(|w| w[0].clock() <= w[1].clock());
        if !ordered {
            return Err(ModelError::UnorderedView {
                processor: self.processor,
            });
        }
        Ok(())
    }
}

/// One message as observed jointly by its two endpoint views.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct MessageObservation {
    /// Sender.
    pub src: ProcessorId,
    /// Receiver.
    pub dst: ProcessorId,
    /// Unique id.
    pub id: MessageId,
    /// Sender's clock at the send step.
    pub send_clock: ClockTime,
    /// Receiver's clock at the receive step.
    pub recv_clock: ClockTime,
}

/// A complete, validated set of views — the input to the synchronization
/// algorithm — with the message table its validation builds.
///
/// Construction checks every per-view axiom plus the cross-view message
/// correspondence: each id is sent exactly once and received exactly once,
/// with matching endpoints. Checking the correspondence joins every send to
/// its receive; the view set keeps that join, one [`MessageObservation`]
/// per message in id order, and [`ViewSet::message_observations`] returns
/// it as is.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ViewSet {
    views: Vec<View>,
    messages: Vec<MessageObservation>,
}

impl ViewSet {
    /// Validates and assembles a view set. `views[i]` must belong to
    /// processor `i`.
    ///
    /// This is the one place sends are matched to receives: every send and
    /// receive event is collected, the list is sorted by message id, and a
    /// valid set then holds each id exactly twice, its send followed by
    /// its receive.
    ///
    /// # Errors
    ///
    /// The per-view axioms are checked view by view, then the peer each
    /// send or receive names, in view order. Of the correspondence
    /// violations (a duplicated id, a lost message, an orphan receive, an
    /// endpoint mismatch) the one with the smallest message id is
    /// reported, so the error is the same on every run.
    pub fn new(views: Vec<View>) -> Result<ViewSet, ModelError> {
        let n = views.len();
        for (i, v) in views.iter().enumerate() {
            if v.processor().index() != i {
                return Err(ModelError::UnknownProcessor {
                    processor: v.processor(),
                });
            }
            v.validate()?;
        }

        // Each endpoint event as (id, is receive, src, dst, clock).
        let mut ends = Vec::new();
        for v in &views {
            for e in v.events() {
                let (end, peer) = match *e {
                    ViewEvent::Send { to, id, clock } => {
                        ((id, false, v.processor(), to, clock), to)
                    }
                    ViewEvent::Recv { from, id, clock } => {
                        ((id, true, from, v.processor(), clock), from)
                    }
                    _ => continue,
                };
                if peer.index() >= n {
                    return Err(ModelError::UnknownProcessor { processor: peer });
                }
                ends.push(end);
            }
        }
        ends.sort_unstable_by_key(|&(id, is_recv, ..)| (id, is_recv));
        let mut messages = Vec::with_capacity(ends.len() / 2);
        for same_id in ends.chunk_by(|a, b| a.0 == b.0) {
            let id = same_id[0].0;
            messages.push(match *same_id {
                [(_, false, src, dst, send_clock), (_, true, from, to, recv_clock)] => {
                    if (src, dst) != (from, to) {
                        return Err(ModelError::EndpointMismatch { id });
                    }
                    MessageObservation {
                        src,
                        dst,
                        id,
                        send_clock,
                        recv_clock,
                    }
                }
                [(_, false, sender, ..)] => return Err(ModelError::LostMessage { id, sender }),
                [(_, true, _, receiver, _)] => {
                    return Err(ModelError::OrphanReceive { id, receiver })
                }
                _ => return Err(ModelError::DuplicateMessage { id }),
            });
        }

        Ok(ViewSet { views, messages })
    }

    /// The number of processors.
    pub fn len(&self) -> usize {
        self.views.len()
    }

    /// Returns `true` if there are no processors.
    pub fn is_empty(&self) -> bool {
        self.views.is_empty()
    }

    /// The view of processor `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is out of range.
    pub fn view(&self, p: ProcessorId) -> &View {
        &self.views[p.index()]
    }

    /// Iterates over the views in processor order.
    pub fn iter(&self) -> impl Iterator<Item = &View> {
        self.views.iter()
    }

    /// Every message with both endpoint clock readings, in id order: the
    /// table [`ViewSet::new`] built while validating.
    pub fn message_observations(&self) -> &[MessageObservation] {
        &self.messages
    }

    /// Fills a link table's evidence — the per-direction `d̃min`, `d̃max`,
    /// message count and samples the §6 estimators read — in one pass over
    /// the message table: `slot(src, dst)` names the slot of a message's
    /// directed link, and a message without one is dropped. Each slot
    /// keeps its samples in message-table (id) order.
    ///
    /// # Panics
    ///
    /// Panics if `slot` names a slot `≥ slots`.
    pub fn link_observations(
        &self,
        slots: usize,
        slot: impl Fn(ProcessorId, ProcessorId) -> Option<usize>,
    ) -> LinkObservations {
        LinkObservations::from_messages(slots, &self.messages, slot)
    }

    /// Returns a view set with only the messages satisfying `keep`,
    /// dropping the matching send *and* receive events together so the
    /// message correspondence stays intact (start and timer events are
    /// always retained).
    ///
    /// This models giving the synchronizer a *prefix* of the traffic and
    /// underlies the monotonicity experiments: nested message sets yield
    /// nested constraint sets.
    pub fn retain_messages(&self, mut keep: impl FnMut(MessageId) -> bool) -> ViewSet {
        let views = self
            .views
            .iter()
            .map(|v| {
                View::from_events(
                    v.processor(),
                    v.events()
                        .iter()
                        .filter(|e| match e {
                            ViewEvent::Send { id, .. } | ViewEvent::Recv { id, .. } => keep(*id),
                            _ => true,
                        })
                        .copied()
                        .collect(),
                )
            })
            .collect();
        ViewSet::new(views).expect("filtering whole messages preserves validity")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clocksync_time::Nanos;

    fn ct(ns: i64) -> ClockTime {
        ClockTime::from_nanos(ns)
    }

    #[test]
    fn fresh_view_is_valid() {
        let v = View::new(ProcessorId(0));
        assert!(v.validate().is_ok());
        assert_eq!(v.processor(), ProcessorId(0));
    }

    #[test]
    fn missing_start_is_rejected() {
        let v = View::from_events(ProcessorId(0), vec![]);
        assert_eq!(
            v.validate(),
            Err(ModelError::BadStartEvent {
                processor: ProcessorId(0)
            })
        );
    }

    #[test]
    fn nonzero_start_clock_is_rejected() {
        let v = View::from_events(ProcessorId(0), vec![ViewEvent::Start { clock: ct(5) }]);
        assert!(v.validate().is_err());
    }

    #[test]
    fn second_start_is_rejected() {
        let v = View::from_events(
            ProcessorId(0),
            vec![
                ViewEvent::Start { clock: ct(0) },
                ViewEvent::Start { clock: ct(0) },
            ],
        );
        assert!(v.validate().is_err());
    }

    #[test]
    fn decreasing_clocks_are_rejected() {
        let mut v = View::new(ProcessorId(0));
        v.record_timer(ct(10));
        v.record_timer(ct(5));
        assert_eq!(
            v.validate(),
            Err(ModelError::UnorderedView {
                processor: ProcessorId(0)
            })
        );
    }

    #[test]
    fn equal_clocks_are_fine() {
        let mut v = View::new(ProcessorId(0));
        v.record_timer(ct(0));
        v.record_timer(ct(0));
        assert!(v.validate().is_ok());
    }

    fn paired_views() -> Vec<View> {
        let mut v0 = View::new(ProcessorId(0));
        let mut v1 = View::new(ProcessorId(1));
        v0.record_send(ProcessorId(1), MessageId(1), ct(100));
        v1.record_recv(ProcessorId(0), MessageId(1), ct(150));
        vec![v0, v1]
    }

    #[test]
    fn valid_view_set_assembles() {
        let vs = ViewSet::new(paired_views()).unwrap();
        assert_eq!(vs.len(), 2);
        let obs = vs.message_observations();
        assert_eq!(obs.len(), 1);
        assert_eq!(obs[0].send_clock, ct(100));
        assert_eq!(obs[0].recv_clock, ct(150));
        assert_eq!(obs[0].src, ProcessorId(0));
        assert_eq!(obs[0].dst, ProcessorId(1));
    }

    #[test]
    fn lost_message_is_rejected() {
        let mut v0 = View::new(ProcessorId(0));
        v0.record_send(ProcessorId(1), MessageId(1), ct(100));
        let v1 = View::new(ProcessorId(1));
        assert_eq!(
            ViewSet::new(vec![v0, v1]),
            Err(ModelError::LostMessage {
                id: MessageId(1),
                sender: ProcessorId(0)
            })
        );
    }

    #[test]
    fn orphan_receive_is_rejected() {
        let v0 = View::new(ProcessorId(0));
        let mut v1 = View::new(ProcessorId(1));
        v1.record_recv(ProcessorId(0), MessageId(1), ct(10));
        assert_eq!(
            ViewSet::new(vec![v0, v1]),
            Err(ModelError::OrphanReceive {
                id: MessageId(1),
                receiver: ProcessorId(1)
            })
        );
    }

    #[test]
    fn duplicate_send_is_rejected() {
        let mut v0 = View::new(ProcessorId(0));
        v0.record_send(ProcessorId(1), MessageId(1), ct(1));
        v0.record_send(ProcessorId(1), MessageId(1), ct(2));
        let mut v1 = View::new(ProcessorId(1));
        v1.record_recv(ProcessorId(0), MessageId(1), ct(3));
        assert_eq!(
            ViewSet::new(vec![v0, v1]),
            Err(ModelError::DuplicateMessage { id: MessageId(1) })
        );
    }

    #[test]
    fn endpoint_mismatch_is_rejected() {
        let mut v0 = View::new(ProcessorId(0));
        v0.record_send(ProcessorId(1), MessageId(1), ct(1));
        let v1 = View::new(ProcessorId(1));
        let mut v2 = View::new(ProcessorId(2));
        v2.record_recv(ProcessorId(0), MessageId(1), ct(2));
        assert_eq!(
            ViewSet::new(vec![v0, v1, v2]),
            Err(ModelError::EndpointMismatch { id: MessageId(1) })
        );
    }

    /// p0 sends messages 1..=8 to p1; `recv_at(id)` is the view that
    /// records the receive of `id`, or `None` for no receive.
    fn eight_messages(recv_at: impl Fn(u64) -> Option<usize>) -> Vec<View> {
        let mut views: Vec<View> = (0..3).map(|p| View::new(ProcessorId(p))).collect();
        for id in 1..=8u64 {
            let clock = 10 * id as i64;
            views[0].record_send(ProcessorId(1), MessageId(id), ct(clock));
            if let Some(r) = recv_at(id) {
                views[r].record_recv(ProcessorId(0), MessageId(id), ct(clock + 5));
            }
        }
        views
    }

    #[test]
    fn several_violations_report_the_smallest_id_every_time() {
        // Messages 7, 3, 5 and 4 are either never received or received by
        // p2 instead of p1. Repeated validation must name m3 every time.
        let bad = |id| [7, 3, 5, 4].contains(&id);
        let lost = eight_messages(|id| (!bad(id)).then_some(1));
        let mismatched = eight_messages(|id| Some(if bad(id) { 2 } else { 1 }));
        for _ in 0..64 {
            assert_eq!(
                ViewSet::new(lost.clone()),
                Err(ModelError::LostMessage {
                    id: MessageId(3),
                    sender: ProcessorId(0)
                })
            );
            assert_eq!(
                ViewSet::new(mismatched.clone()),
                Err(ModelError::EndpointMismatch { id: MessageId(3) })
            );
        }
    }

    #[test]
    fn unknown_destination_is_rejected() {
        let mut v0 = View::new(ProcessorId(0));
        v0.record_send(ProcessorId(7), MessageId(1), ct(1));
        assert_eq!(
            ViewSet::new(vec![v0]),
            Err(ModelError::UnknownProcessor {
                processor: ProcessorId(7)
            })
        );
    }

    #[test]
    fn views_must_be_in_processor_order() {
        let v0 = View::new(ProcessorId(1));
        assert!(matches!(
            ViewSet::new(vec![v0]),
            Err(ModelError::UnknownProcessor { .. })
        ));
    }

    #[test]
    fn retain_messages_drops_whole_messages() {
        let mut v0 = View::new(ProcessorId(0));
        let mut v1 = View::new(ProcessorId(1));
        v0.record_send(ProcessorId(1), MessageId(1), ct(100));
        v0.record_send(ProcessorId(1), MessageId(2), ct(200));
        v1.record_recv(ProcessorId(0), MessageId(1), ct(150));
        v1.record_recv(ProcessorId(0), MessageId(2), ct(250));
        let vs = ViewSet::new(vec![v0, v1]).unwrap();
        let kept = vs.retain_messages(|id| id == MessageId(1));
        assert_eq!(kept.message_observations().len(), 1);
        assert_eq!(kept.message_observations()[0].id, MessageId(1));
        // Start events survive.
        assert_eq!(kept.view(ProcessorId(0)).events().len(), 2);
    }

    #[test]
    fn estimated_delay_is_clock_difference() {
        // Lemma 6.1: d̃(m) = recv_clock − send_clock, whatever the real
        // start times are (they are not even represented here).
        let vs = ViewSet::new(paired_views()).unwrap();
        let forward = |p: ProcessorId, q: ProcessorId| (p.index(), q.index()) == (0, 1);
        let obs = vs.link_observations(1, |p, q| forward(p, q).then_some(0));
        assert_eq!(
            obs.stats(0).est_min,
            clocksync_time::Ext::Finite(Nanos::new(50))
        );
    }
}
