//! Bounded-memory message retention: the windowed view store behind the
//! sharded ingestion service.
//!
//! A [`ViewWindow`] holds the recent message history of one sync domain
//! and garbage-collects messages whose evidence is *dominated*: a message
//! is dominated when it is neither the `d̃min` nor the `d̃max` witness of
//! its directed link and it has fallen out of the link's recency window.
//! Because the *extrema-only* §6 estimators depend on the views only
//! through the per-link estimated-delay extrema (Lemmas 6.2/6.5), dropping
//! dominated messages never changes any `m̃ls` — the never-loosens
//! invariant the retention policy of the service is built on. The extremal
//! witnesses are *never* dropped, so a view set materialized from the
//! window yields bit-identical link extrema to the full history
//! (`tests/service.rs` checks the resulting `SyncOutcome` is bit-identical
//! too).
//!
//! # The compaction contract
//!
//! Extrema-witness retention is sound **only** for estimators that are
//! extrema-only (`LinkAssumption::extrema_only()` in `clocksync`):
//! delay bounds, RTT bias, and no-bounds links. Estimators that read the
//! full sample lists — windowed RTT-bias *pairing*, and Marzullo *quorum
//! fusion*, where every retained sample is one vote and dropping a vote
//! can flip which interval reaches the quorum — must keep every sample.
//! For those links the evidence of record is the synchronizer's own
//! per-link sample store, and `OnlineSynchronizer::compact_evidence`
//! skips them via the `extrema_only` gate (its
//! `compaction_never_touches_interval_fusing_links` test pins this down).
//! A [`ViewWindow`] is therefore a *witness cache* for the extrema-only
//! fragment of a domain, not a general evidence store: callers that
//! declare sample-scanning assumptions must size the window's GC policy
//! so those links' messages stay inside the recency window, or bypass GC
//! for them entirely.
//!
//! Deletion is incremental: dropping a message tombstones its slot in
//! `O(1)` and the slot vector is compacted only once the tombstones
//! outnumber the survivors, so a GC tick costs amortized `O(dropped)` —
//! unlike rebuilding the whole view set per tick
//! ([`ViewSet::retain_messages`] is `O(views · messages)` and remains the
//! right tool only for one-shot prefix experiments).

use std::collections::HashMap;

use clocksync_time::{ClockTime, Nanos};

use crate::view::{MessageObservation, View, ViewSet};
use crate::{MessageId, ModelError, ProcessorId};

/// Per-link evidence rows used by [`ViewWindow::dominated`]: the slot
/// position, message id, and estimated delay of each live message.
type LinkEvidence = Vec<(usize, MessageId, Nanos)>;

/// Tombstone-count floor below which compaction is not worth the scan.
const COMPACT_MIN_DEAD: usize = 32;

/// A bounded, incrementally-compacted store of message observations for
/// one sync domain.
///
/// # Examples
///
/// ```
/// use clocksync_model::{MessageId, MessageObservation, ProcessorId, ViewWindow};
/// use clocksync_time::ClockTime;
///
/// let mut w = ViewWindow::new(2);
/// for i in 0..10u64 {
///     w.push(MessageObservation {
///         src: ProcessorId(0),
///         dst: ProcessorId(1),
///         id: MessageId(i),
///         send_clock: ClockTime::from_nanos(100 * i as i64),
///         recv_clock: ClockTime::from_nanos(100 * i as i64 + 40 + i as i64),
///     })?;
/// }
/// // Keep the extremal witnesses plus the 2 most recent messages.
/// let dropped = w.gc_dominated(2);
/// assert_eq!(dropped, 7); // min witness m0 survives inside no tail slot
/// assert!(w.contains(MessageId(0)) && w.contains(MessageId(9)));
/// let views = w.to_view_set()?;
/// assert_eq!(views.message_observations().len(), 3);
/// # Ok::<(), clocksync_model::ModelError>(())
/// ```
#[derive(Debug, Clone)]
pub struct ViewWindow {
    n: usize,
    /// Push-ordered slots; `None` is a tombstone awaiting compaction.
    slots: Vec<Option<MessageObservation>>,
    /// Live message id → slot position.
    index: HashMap<MessageId, usize>,
    pushed: u64,
    dropped: u64,
    compactions: u64,
}

impl ViewWindow {
    /// An empty window for a domain of `n` processors.
    pub fn new(n: usize) -> ViewWindow {
        ViewWindow {
            n,
            slots: Vec::new(),
            index: HashMap::new(),
            pushed: 0,
            dropped: 0,
            compactions: 0,
        }
    }

    /// The number of processors of the domain.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Messages currently retained.
    pub fn live(&self) -> usize {
        self.index.len()
    }

    /// Returns `true` if no messages are retained.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Messages ever pushed (retained or since dropped).
    pub fn pushed(&self) -> u64 {
        self.pushed
    }

    /// Messages dropped by GC so far.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Slot-vector compactions performed so far (each costs one scan of
    /// the live messages; triggered only when tombstones outnumber them).
    pub fn compactions(&self) -> u64 {
        self.compactions
    }

    /// Whether message `id` is currently retained.
    pub fn contains(&self, id: MessageId) -> bool {
        self.index.contains_key(&id)
    }

    /// A deterministic estimate of the retained bytes: slots (live and
    /// tombstoned) plus the id index. Used by the service's memory gauges;
    /// bounded whenever `live` is bounded because compaction keeps
    /// `slots.len() < 2 · live + COMPACT_MIN_DEAD`.
    pub fn approx_bytes(&self) -> usize {
        self.slots.len() * std::mem::size_of::<Option<MessageObservation>>()
            + self.index.len()
                * (std::mem::size_of::<MessageId>() + 2 * std::mem::size_of::<usize>())
    }

    /// Appends one observed message.
    ///
    /// # Errors
    ///
    /// * [`ModelError::UnknownProcessor`] — an endpoint is out of range;
    /// * [`ModelError::DuplicateMessage`] — the id is already retained;
    /// * [`ModelError::ClockOverflow`] — the clock readings are too far
    ///   apart for the estimated delay to be representable;
    /// * [`ModelError::UnorderedView`] — a clock reading precedes the
    ///   start event (clock 0), so no valid view could contain it.
    ///
    /// All four are reachable only from untrusted input; the validation
    /// here is what keeps the panicking arithmetic deeper in the pipeline
    /// unreachable from the service's ingestion path.
    pub fn push(&mut self, m: MessageObservation) -> Result<(), ModelError> {
        for endpoint in [m.src, m.dst] {
            if endpoint.index() >= self.n {
                return Err(ModelError::UnknownProcessor {
                    processor: endpoint,
                });
            }
        }
        if m.recv_clock.checked_sub(m.send_clock).is_none() {
            return Err(ModelError::ClockOverflow { id: m.id });
        }
        if m.send_clock < ClockTime::ZERO || m.recv_clock < ClockTime::ZERO {
            let processor = if m.send_clock < ClockTime::ZERO {
                m.src
            } else {
                m.dst
            };
            return Err(ModelError::UnorderedView { processor });
        }
        if self.index.contains_key(&m.id) {
            return Err(ModelError::DuplicateMessage { id: m.id });
        }
        self.index.insert(m.id, self.slots.len());
        self.slots.push(Some(m));
        self.pushed += 1;
        Ok(())
    }

    /// Drops one message by id in amortized `O(1)` (tombstone now, compact
    /// the slot vector only when tombstones outnumber survivors). Returns
    /// `false` if the id is not retained.
    pub fn drop_message(&mut self, id: MessageId) -> bool {
        let Some(pos) = self.index.remove(&id) else {
            return false;
        };
        self.slots[pos] = None;
        self.dropped += 1;
        self.maybe_compact();
        true
    }

    /// The retained messages in push order.
    pub fn live_messages(&self) -> impl Iterator<Item = &MessageObservation> {
        self.slots.iter().filter_map(Option::as_ref)
    }

    /// Drops every retained message of the undirected link `{p, q}` (both
    /// directions), returning how many were dropped. The window-side
    /// counterpart of evidence retraction: after a link is forgotten, its
    /// messages must leave the window too, or
    /// [`ViewWindow::to_view_set`] would resurrect the retracted evidence.
    /// Amortized `O(dropped)` like [`ViewWindow::drop_message`].
    pub fn drop_link(&mut self, p: ProcessorId, q: ProcessorId) -> usize {
        let doomed: Vec<MessageId> = self
            .live_messages()
            .filter(|m| (m.src == p && m.dst == q) || (m.src == q && m.dst == p))
            .map(|m| m.id)
            .collect();
        let count = doomed.len();
        for id in doomed {
            self.drop_message(id);
        }
        count
    }

    /// The ids the dominated-evidence policy would drop at window size
    /// `per_link_window`: on each directed link, every message that is
    /// neither the first `d̃min` witness, nor the first `d̃max` witness,
    /// nor one of the `per_link_window` most recently pushed.
    ///
    /// This is the predicate behind [`ViewWindow::gc_dominated`], exposed
    /// so callers can audit a GC tick before (or without) applying it.
    pub fn dominated(&self, per_link_window: usize) -> Vec<MessageId> {
        let mut per_link: HashMap<(usize, usize), LinkEvidence> = HashMap::new();
        for (pos, m) in self.slots.iter().enumerate() {
            let Some(m) = m else { continue };
            // Validated at push; a hypothetical overflow is conservatively
            // treated as non-dominated (kept).
            let Some(delay) = m.recv_clock.checked_sub(m.send_clock) else {
                continue;
            };
            per_link
                .entry((m.src.index(), m.dst.index()))
                .or_default()
                .push((pos, m.id, delay));
        }
        let mut doomed = Vec::new();
        for entries in per_link.values() {
            if entries.len() <= per_link_window {
                continue;
            }
            let min_witness = entries
                .iter()
                .map(|&(pos, _, d)| (d, pos))
                .min()
                .map(|(_, pos)| pos);
            let max_witness = entries
                .iter()
                .map(|&(pos, _, d)| (d, pos))
                .max()
                .map(|(_, pos)| pos);
            // Window 0 keeps no recency tail at all — only the extremal
            // witnesses survive (`get` is `None` exactly when
            // `per_link_window == 0`, since `entries.len()` is in bounds
            // of nothing).
            #[cfg(not(feature = "bug-window0"))]
            let tail_start = entries
                .get(entries.len() - per_link_window)
                .map(|&(pos, _, _)| pos);
            // The pre-fix indexing, resurrected for fuzzer validation:
            // at `per_link_window == 0` this reads one past the end of
            // `entries` and panics on any GC tick with live evidence.
            #[cfg(feature = "bug-window0")]
            let tail_start = Some(entries[entries.len() - per_link_window].0);
            for &(pos, id, _) in entries {
                let keep = tail_start.is_some_and(|start| pos >= start)
                    || Some(pos) == min_witness
                    || Some(pos) == max_witness;
                if !keep {
                    doomed.push(id);
                }
            }
        }
        doomed.sort();
        doomed
    }

    /// Runs one GC tick: drops every [dominated](ViewWindow::dominated)
    /// message, returning how many were dropped. Amortized `O(dropped)`
    /// plus the per-tick scan of the live messages.
    ///
    /// Never drops a `d̃min`/`d̃max` witness, so the per-link extrema of
    /// [`ViewWindow::to_view_set`] are identical before and after — the
    /// never-loosens retention invariant.
    pub fn gc_dominated(&mut self, per_link_window: usize) -> usize {
        let doomed = self.dominated(per_link_window);
        let count = doomed.len();
        for id in doomed {
            self.drop_message(id);
        }
        count
    }

    /// Materializes the retained messages as a validated [`ViewSet`]
    /// (send/receive events per processor, clock-ordered, start events
    /// prepended), so the window's evidence can be checked against a
    /// full history.
    ///
    /// # Errors
    ///
    /// Propagates [`ViewSet::new`] validation failures; unreachable when
    /// every message entered through [`ViewWindow::push`], which enforces
    /// the per-message axioms up front.
    pub fn to_view_set(&self) -> Result<ViewSet, ModelError> {
        let mut events: Vec<Vec<crate::ViewEvent>> = vec![Vec::new(); self.n];
        for m in self.live_messages() {
            events[m.src.index()].push(crate::ViewEvent::Send {
                to: m.dst,
                id: m.id,
                clock: m.send_clock,
            });
            events[m.dst.index()].push(crate::ViewEvent::Recv {
                from: m.src,
                id: m.id,
                clock: m.recv_clock,
            });
        }
        let views = events
            .into_iter()
            .enumerate()
            .map(|(i, mut evs)| {
                evs.sort_by_key(|e| e.clock());
                let mut all = vec![crate::ViewEvent::Start {
                    clock: ClockTime::ZERO,
                }];
                all.extend(evs);
                View::from_events(ProcessorId(i), all)
            })
            .collect();
        ViewSet::new(views)
    }

    fn maybe_compact(&mut self) {
        let dead = self.slots.len() - self.index.len();
        if dead <= self.index.len() || dead < COMPACT_MIN_DEAD {
            return;
        }
        self.slots.retain(Option::is_some);
        self.index = self
            .slots
            .iter()
            .enumerate()
            .map(|(pos, m)| (m.as_ref().expect("tombstones were just removed").id, pos))
            .collect();
        self.compactions += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clocksync_time::Ext;

    const P: ProcessorId = ProcessorId(0);
    const Q: ProcessorId = ProcessorId(1);

    fn msg(
        id: u64,
        src: ProcessorId,
        dst: ProcessorId,
        send: i64,
        recv: i64,
    ) -> MessageObservation {
        MessageObservation {
            src,
            dst,
            id: MessageId(id),
            send_clock: ClockTime::from_nanos(send),
            recv_clock: ClockTime::from_nanos(recv),
        }
    }

    #[test]
    fn push_validates_untrusted_input() {
        let mut w = ViewWindow::new(2);
        assert_eq!(
            w.push(msg(1, P, ProcessorId(7), 0, 1)),
            Err(ModelError::UnknownProcessor {
                processor: ProcessorId(7)
            })
        );
        assert_eq!(
            w.push(msg(1, P, Q, i64::MIN, i64::MAX)),
            Err(ModelError::ClockOverflow { id: MessageId(1) })
        );
        assert_eq!(
            w.push(msg(1, P, Q, -5, 10)),
            Err(ModelError::UnorderedView { processor: P })
        );
        assert!(w.push(msg(1, P, Q, 0, 10)).is_ok());
        assert_eq!(
            w.push(msg(1, P, Q, 5, 15)),
            Err(ModelError::DuplicateMessage { id: MessageId(1) })
        );
        assert_eq!(w.live(), 1);
        assert_eq!(w.pushed(), 1);
    }

    #[test]
    fn gc_keeps_witnesses_and_recency_window() {
        let mut w = ViewWindow::new(2);
        // id 0 is the min witness (delay 5), id 1 the max witness (90),
        // ids 2..=11 dominated probes, ids 10, 11 inside the window.
        w.push(msg(0, P, Q, 0, 5)).unwrap();
        w.push(msg(1, P, Q, 10, 100)).unwrap();
        for i in 2..12 {
            w.push(msg(i, P, Q, 100 * i as i64, 100 * i as i64 + 50))
                .unwrap();
        }
        let doomed = w.dominated(2);
        assert_eq!(doomed.len(), 8);
        assert!(!doomed.contains(&MessageId(0)));
        assert!(!doomed.contains(&MessageId(1)));
        assert!(!doomed.contains(&MessageId(10)));
        assert!(!doomed.contains(&MessageId(11)));
        assert_eq!(w.gc_dominated(2), 8);
        assert_eq!(w.live(), 4);
        // Extrema of the materialized views match the full history.
        let views = w.to_view_set().unwrap();
        let obs = views.link_observations(1, |p, q| (p == P && q == Q).then_some(0));
        assert_eq!(obs.stats(0).est_min, Ext::Finite(Nanos::new(5)));
        assert_eq!(obs.stats(0).est_max, Ext::Finite(Nanos::new(90)));
        // A second tick with nothing new is a no-op.
        assert_eq!(w.gc_dominated(2), 0);
    }

    #[test]
    fn recency_window_bounds_what_fusion_callers_may_rely_on() {
        // The compaction contract (module docs): a caller with
        // sample-scanning assumptions may rely on exactly the last
        // `window` messages per directed link surviving every GC tick —
        // no fewer (they are never dropped, even when dominated), and
        // anything older than that is fair game unless it is an extremal
        // witness.
        let mut w = ViewWindow::new(2);
        for i in 0..20u64 {
            // Strictly decreasing delays: each new message is the min
            // witness, so older ones are dominated as soon as they leave
            // the recency window.
            let send = 100 * i as i64;
            w.push(msg(i, P, Q, send, send + 100 - i as i64)).unwrap();
        }
        w.gc_dominated(5);
        // The 5 most recent survive verbatim...
        for i in 15..20u64 {
            assert!(w.contains(MessageId(i)), "recent vote {i} dropped");
        }
        // ...plus the max witness (id 0; the min witness, id 19, is
        // already inside the window). Everything else is gone: dominated
        // history does NOT survive, which is why interval-fusing links
        // must keep their evidence of record in the synchronizer's
        // sample store rather than a GC'd window.
        assert!(w.contains(MessageId(0)));
        assert_eq!(w.live(), 6);
    }

    #[test]
    #[cfg_attr(
        feature = "bug-window0",
        ignore = "bug-window0 deliberately re-introduces the window=0 panic"
    )]
    fn window_zero_keeps_only_the_witnesses() {
        // Regression: `dominated(0)` used to index one past the end of
        // the per-link entry list (any GC tick with a zero retention
        // window panicked). Window 0 is the tightest legal policy:
        // nothing survives but the extremal witnesses.
        let mut w = ViewWindow::new(2);
        w.push(msg(0, P, Q, 0, 5)).unwrap();
        assert_eq!(w.gc_dominated(0), 0, "a lone witness is never dropped");
        w.push(msg(1, P, Q, 10, 100)).unwrap();
        for i in 2..8 {
            w.push(msg(i, P, Q, 100 * i as i64, 100 * i as i64 + 50))
                .unwrap();
        }
        // ids 0 and 1 are the min/max witnesses; everything else goes.
        assert_eq!(w.gc_dominated(0), 6);
        assert_eq!(w.live(), 2);
        let views = w.to_view_set().unwrap();
        let obs = views.link_observations(1, |p, q| (p == P && q == Q).then_some(0));
        assert_eq!(obs.stats(0).est_min, Ext::Finite(Nanos::new(5)));
        assert_eq!(obs.stats(0).est_max, Ext::Finite(Nanos::new(90)));
    }

    #[test]
    fn links_are_windowed_independently() {
        let mut w = ViewWindow::new(2);
        for i in 0..6 {
            w.push(msg(i, P, Q, 10 * i as i64, 10 * i as i64 + 3))
                .unwrap();
        }
        for i in 6..8 {
            w.push(msg(i, Q, P, 10 * i as i64, 10 * i as i64 + 4))
                .unwrap();
        }
        // Q→P has only 2 messages: under the window, untouched.
        let dropped = w.gc_dominated(2);
        assert!(dropped > 0);
        assert!(w.contains(MessageId(6)) && w.contains(MessageId(7)));
    }

    #[test]
    fn drop_link_clears_both_directions_only() {
        let r = ProcessorId(2);
        let mut w = ViewWindow::new(3);
        w.push(msg(0, P, Q, 0, 10)).unwrap();
        w.push(msg(1, Q, P, 20, 35)).unwrap();
        w.push(msg(2, P, r, 40, 52)).unwrap();
        assert_eq!(w.drop_link(Q, P), 2);
        assert_eq!(w.live(), 1);
        assert!(w.contains(MessageId(2)));
        // A second drop on the now-empty link is a no-op.
        assert_eq!(w.drop_link(P, Q), 0);
    }

    #[test]
    fn tombstones_compact_amortized() {
        let mut w = ViewWindow::new(2);
        let total = 4 * COMPACT_MIN_DEAD as u64;
        for i in 0..total {
            w.push(msg(i, P, Q, i as i64, i as i64 + 1)).unwrap();
        }
        for i in 0..total - 4 {
            assert!(w.drop_message(MessageId(i)));
        }
        assert!(!w.drop_message(MessageId(0)));
        assert_eq!(w.live(), 4);
        assert!(w.compactions() >= 1);
        // The slot vector shrank with the live set; bytes stay bounded.
        assert!(w.slots.len() <= 2 * w.live() + COMPACT_MIN_DEAD);
        let ids: Vec<MessageId> = w.live_messages().map(|m| m.id).collect();
        assert_eq!(ids, (total - 4..total).map(MessageId).collect::<Vec<_>>());
    }

    #[test]
    fn materialized_views_validate_and_round_trip() {
        let mut w = ViewWindow::new(3);
        w.push(msg(1, P, Q, 100, 150)).unwrap();
        w.push(msg(2, Q, ProcessorId(2), 200, 260)).unwrap();
        w.push(msg(3, Q, P, 50, 120)).unwrap();
        let views = w.to_view_set().unwrap();
        assert_eq!(views.len(), 3);
        let obs = views.message_observations();
        assert_eq!(obs.len(), 3);
        assert_eq!(obs[0].send_clock, ClockTime::from_nanos(100));
        // Events inside each view are clock-ordered even though pushes
        // were not (Q sends m2 at 200 after receiving m1 at 150, but m3
        // was sent at 50).
        let q_clocks: Vec<i64> = views
            .view(Q)
            .events()
            .iter()
            .map(|e| e.clock().as_nanos())
            .collect();
        let mut sorted = q_clocks.clone();
        sorted.sort();
        assert_eq!(q_clocks, sorted);
    }

    #[test]
    fn empty_window_materializes_empty_views() {
        let w = ViewWindow::new(2);
        let views = w.to_view_set().unwrap();
        assert_eq!(views.message_observations().len(), 0);
        assert_eq!(w.approx_bytes(), 0);
    }
}
