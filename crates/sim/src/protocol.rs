//! The probe protocol used by the experiments.
//!
//! The paper deliberately separates the *interactive* part (which messages
//! to send) from the *correction computation* and only optimizes the
//! latter. This module provides the interactive part the experiments use:
//! each link's lower-id endpoint sends `probes` probe messages, spaced
//! `spacing` apart, and the peer echoes each probe immediately — the
//! standard round-trip workload of NTP-like protocols.

use clocksync_model::ProcessorId;
use clocksync_obs::{FieldValue, Recorder};
use clocksync_time::{ClockTime, Nanos};

use crate::engine::{Process, ProcessCtx};

/// Payload tag for a probe (echo requested).
const PROBE: u64 = 0;
/// Payload tag for an echo.
const ECHO: u64 = 1;

/// A processor running the round-trip probe protocol.
///
/// * At start, if the processor initiates any links (it has higher-id
///   neighbors), it schedules `probes` timer rounds starting at
///   `initial_delay` and spaced `spacing` apart.
/// * On each timer it sends one probe to every higher-id neighbor.
/// * On receiving a probe it echoes immediately; echoes are absorbed.
///
/// `initial_delay` must exceed the largest start-time skew in the system:
/// the engine (like the paper's model) has no pre-start message queueing,
/// so a probe must not arrive before its receiver starts.
#[derive(Debug, Clone)]
pub struct ProbeProcess {
    probes: usize,
    spacing: Nanos,
    initial_delay: Nanos,
    rounds_fired: usize,
    recorder: Recorder,
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
            rounds_fired: 0,
            recorder: Recorder::disabled(),
        }
    }

    /// Attaches an observability recorder; each probe round then emits a
    /// `sim.probe_round` event carrying the initiator and its local clock
    /// (per-round timing; taxonomy in DESIGN.md §6).
    #[must_use]
    pub fn with_recorder(mut self, recorder: Recorder) -> ProbeProcess {
        self.recorder = recorder;
        self
    }
}

impl Process for ProbeProcess {
    fn on_start(&mut self, ctx: &mut ProcessCtx) {
        let initiates = ctx.neighbors().iter().any(|&nb| nb > ctx.id());
        if initiates {
            ctx.set_timer(ClockTime::ZERO + self.initial_delay);
        }
    }

    fn on_message(&mut self, from: ProcessorId, payload: u64, ctx: &mut ProcessCtx) {
        if payload == PROBE {
            ctx.send(from, ECHO);
        }
    }

    fn on_timer(&mut self, ctx: &mut ProcessCtx) {
        let me = ctx.id();
        for &nb in &ctx.neighbors().to_vec() {
            if nb > me {
                ctx.send(nb, PROBE);
            }
        }
        if self.recorder.is_enabled() {
            self.recorder.event(
                "sim.probe_round",
                [
                    ("processor", FieldValue::from(me.index())),
                    ("round", FieldValue::from(self.rounds_fired)),
                    ("clock_ns", FieldValue::from(ctx.clock().as_nanos())),
                ],
            );
        }
        self.rounds_fired += 1;
        if self.rounds_fired < self.probes {
            ctx.set_timer(ctx.clock() + self.spacing);
        }
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
        let proc = || {
            Box::new(ProbeProcess::new(
                probes,
                Nanos::from_micros(10),
                Nanos::from_micros(5),
            )) as Box<dyn crate::engine::Process>
        };
        let plan = crate::FaultPlan::new();
        engine
            .run(vec![proc(), proc()], &mut StdRng::seed_from_u64(42), &plan)
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
