//! `ViewSet::new` joins every send to its receive once and keeps the
//! table. These properties hold it to the join it replaced: a validator
//! over two hash maps, and a third map re-joining sends to receives on
//! every `message_observations` call (module `reference`).
//!
//! * On simulated executions (ring, complete and random topologies, 1–3
//!   probe rounds, links that drop and duplicate messages) the kept table
//!   and the link observations built from it equal the hash join's.
//! * After one corruption of a valid view set the validator returns the
//!   same error as the reference. With a single violation the reference
//!   does not depend on its maps' iteration order.

use clocksync_model::{LinkObservations, ProcessorId, View, ViewEvent, ViewSet};
use clocksync_sim::{FaultPlan, Simulation, Topology};
use clocksync_time::Nanos;
use proptest::prelude::*;

/// The message join of `clocksync-model` before view sets kept their
/// message table.
mod reference {
    use std::collections::HashMap;

    use clocksync_model::{
        MessageId, MessageObservation, ModelError, ProcessorId, View, ViewEvent,
    };
    use clocksync_time::ClockTime;

    type Ends = HashMap<MessageId, (ProcessorId, ProcessorId, ClockTime)>;

    /// The view set validation, correspondence checks in hash-map order.
    pub fn validate(views: &[View]) -> Result<(), ModelError> {
        let n = views.len();
        for (i, v) in views.iter().enumerate() {
            if v.processor().index() != i {
                return Err(ModelError::UnknownProcessor {
                    processor: v.processor(),
                });
            }
            v.validate()?;
        }
        let mut sends = Ends::new();
        let mut recvs = Ends::new();
        for v in views {
            for e in v.events() {
                match *e {
                    ViewEvent::Send { to, id, clock } => {
                        if to.index() >= n {
                            return Err(ModelError::UnknownProcessor { processor: to });
                        }
                        if sends.insert(id, (v.processor(), to, clock)).is_some() {
                            return Err(ModelError::DuplicateMessage { id });
                        }
                    }
                    ViewEvent::Recv { from, id, clock } => {
                        if from.index() >= n {
                            return Err(ModelError::UnknownProcessor { processor: from });
                        }
                        if recvs.insert(id, (from, v.processor(), clock)).is_some() {
                            return Err(ModelError::DuplicateMessage { id });
                        }
                    }
                    _ => {}
                }
            }
        }
        for (id, (src, dst, _)) in &sends {
            match recvs.get(id) {
                None => {
                    return Err(ModelError::LostMessage {
                        id: *id,
                        sender: *src,
                    })
                }
                Some((rsrc, rdst, _)) if rsrc != src || rdst != dst => {
                    return Err(ModelError::EndpointMismatch { id: *id })
                }
                Some(_) => {}
            }
        }
        for (id, (_, dst, _)) in &recvs {
            if !sends.contains_key(id) {
                return Err(ModelError::OrphanReceive {
                    id: *id,
                    receiver: *dst,
                });
            }
        }
        Ok(())
    }

    /// Every message of a valid view set, re-joined through a map of the
    /// sends and sorted by id.
    pub fn message_observations(views: &[View]) -> Vec<MessageObservation> {
        let mut sends = Ends::new();
        for v in views {
            for e in v.events() {
                if let ViewEvent::Send { to, id, clock } = *e {
                    sends.insert(id, (v.processor(), to, clock));
                }
            }
        }
        let mut out = Vec::new();
        for v in views {
            for e in v.events() {
                if let ViewEvent::Recv { id, clock, .. } = *e {
                    let (src, dst, send_clock) = sends[&id];
                    out.push(MessageObservation {
                        src,
                        dst,
                        id,
                        send_clock,
                        recv_clock: clock,
                    });
                }
            }
        }
        out.sort_by_key(|m| m.id);
        out
    }
}

/// A topology on `n` nodes and a plan that drops (and duplicates) some of
/// its traffic.
fn scenario() -> impl Strategy<Value = (Topology, FaultPlan)> {
    (3usize..7).prop_flat_map(|n| {
        let topology = prop_oneof![
            Just(Topology::Ring(n)),
            Just(Topology::Complete(n)),
            (0u32..500)
                .prop_map(move |extra_per_mille| Topology::RandomConnected { n, extra_per_mille }),
        ];
        let faults = proptest::collection::vec((0..n, 0..n, 0.0f64..0.6, 0.0f64..0.3), 0..4)
            .prop_map(|links| {
                links.into_iter().filter(|&(a, b, ..)| a != b).fold(
                    FaultPlan::new(),
                    |plan, (a, b, drop, dup)| {
                        let (a, b) = (ProcessorId(a), ProcessorId(b));
                        plan.drop_messages(a, b, drop).duplicate_messages(a, b, dup)
                    },
                )
            });
        (topology, faults)
    })
}

fn simulate(topology: Topology, plan: FaultPlan, probes: usize, seed: u64) -> ViewSet {
    Simulation::builder(topology.n())
        .uniform_links(
            topology,
            Nanos::from_micros(20),
            Nanos::from_micros(300),
            seed,
        )
        .probes(probes)
        .faults(plan)
        .build()
        .run(seed)
        .execution
        .views()
        .clone()
}

#[derive(Debug, Clone, Copy)]
enum Corruption {
    DropReceive,
    DropSend,
    /// Gives a second message the id of the first, at both its ends.
    DuplicateId,
    /// The send names another receiver than the one that received it.
    ChangeReceiver,
    /// A send or receive names a processor outside `0..n`.
    PeerOutOfRange,
}

fn corruption() -> impl Strategy<Value = Corruption> {
    prop_oneof![
        Just(Corruption::DropReceive),
        Just(Corruption::DropSend),
        Just(Corruption::DuplicateId),
        Just(Corruption::ChangeReceiver),
        Just(Corruption::PeerOutOfRange),
    ]
}

/// The views of `set` with one violation of the message correspondence,
/// on the message at `pick` (modulo the message count).
fn corrupt(set: &ViewSet, kind: Corruption, pick: usize) -> Vec<View> {
    let table = set.message_observations();
    let m = table[pick % table.len()];
    let other = table[(pick + 1) % table.len()].id;
    let n = set.len();
    let other_receiver = ProcessorId((m.dst.index() + 1 + pick % (n - 1)) % n);
    let stranger = ProcessorId(n + pick % 3);
    let on_send = pick.is_multiple_of(2);
    set.iter()
        .map(|v| {
            let mut events = v.events().to_vec();
            events.retain(|e| match (kind, e) {
                (Corruption::DropReceive, ViewEvent::Recv { id, .. })
                | (Corruption::DropSend, ViewEvent::Send { id, .. }) => *id != m.id,
                _ => true,
            });
            for e in &mut events {
                match (kind, e) {
                    (
                        Corruption::DuplicateId,
                        ViewEvent::Send { id, .. } | ViewEvent::Recv { id, .. },
                    ) if *id == other => *id = m.id,
                    (Corruption::ChangeReceiver, ViewEvent::Send { id, to, .. }) if *id == m.id => {
                        *to = other_receiver
                    }
                    (Corruption::PeerOutOfRange, ViewEvent::Send { id, to: peer, .. })
                        if *id == m.id && on_send =>
                    {
                        *peer = stranger
                    }
                    (Corruption::PeerOutOfRange, ViewEvent::Recv { id, from: peer, .. })
                        if *id == m.id && !on_send =>
                    {
                        *peer = stranger
                    }
                    _ => {}
                }
            }
            View::from_events(v.processor(), events)
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn kept_table_equals_the_hash_join(
        (topology, plan) in scenario(),
        probes in 1usize..4,
        seed in 0u64..10_000,
    ) {
        let set = simulate(topology, plan, probes, seed);
        let views: Vec<View> = set.iter().cloned().collect();
        prop_assert_eq!(reference::validate(&views), Ok(()));
        let joined = reference::message_observations(&views);
        prop_assert_eq!(set.message_observations(), joined.as_slice());
        let n = set.len();
        let slot = |p: ProcessorId, q: ProcessorId| Some(p.index() * n + q.index());
        prop_assert_eq!(
            set.link_observations(n * n, slot),
            LinkObservations::from_messages(n * n, &joined, slot)
        );
    }

    #[test]
    fn one_violation_gets_the_reference_error(
        (topology, plan) in scenario(),
        probes in 1usize..4,
        seed in 0u64..10_000,
        kind in corruption(),
        pick in 0usize..1_000,
    ) {
        let set = simulate(topology, plan, probes, seed);
        prop_assume!(set.message_observations().len() >= 2);
        let views = corrupt(&set, kind, pick);
        let expected = reference::validate(&views);
        prop_assert!(expected.is_err(), "{:?} left the views valid", kind);
        prop_assert_eq!(ViewSet::new(views).map(|_| ()), expected);
    }
}
