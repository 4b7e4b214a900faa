//! Clock drift and periodic resynchronization.
//!
//! The paper assumes drift-free clocks and defends the assumption by the
//! practice it cites (footnote 1, after Kopetz–Ochsenreiter): real
//! hardware clocks drift by parts-per-million, and deployments rerun the
//! synchronization periodically, declaring delay assumptions *widened* by
//! the drift a clock can accumulate over one period.
//!
//! This module makes that story concrete:
//!
//! * [`run_with_drift`] executes a scenario, then lets each processor's
//!   clock run at its own secret rate `1 + ρ_i` (ρ in ppm): views are
//!   re-expressed in drifted clock readings, exactly what a drifting
//!   processor would have recorded;
//! * declared assumptions are widened by the worst drift the run horizon
//!   allows ([`widen_assumption`]), so the declarations remain *true* and
//!   the synchronizer stays sound;
//! * the returned [`DriftRun`] can evaluate the corrected clocks at any
//!   later real time, quantifying how the guarantee decays as drift
//!   accumulates after the synchronization point — the measurement behind
//!   experiment E13 and behind the advice "resync every T";
//! * [`run_continuous_resync`] closes the loop: instead of one
//!   synchronization over a frozen trace, drifting processors keep
//!   probing, an [`OnlineSynchronizer`] re-synchronizes every
//!   [`ResyncConfig::period`], and each round yields a decaying
//!   [`DriftingOutcome`] certificate — the workload behind the
//!   `drift-soundness` vopr oracle and the E13 decay curves.

use std::error::Error;
use std::fmt;

use clocksync::{
    BatchObservation, DelayRange, DriftingOutcome, LinkAssumption, Network, OnlineSynchronizer,
    SyncError, SyncOutcome, Synchronizer,
};
use clocksync_model::{Execution, ModelError, ProcessorId, View, ViewEvent, ViewSet};
use clocksync_time::{ClockTime, DriftBound, Ext, Nanos, Ratio, RealTime};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::scenario::Simulation;

const PPM: i128 = 1_000_000;

/// Failure modes of the drift workloads.
///
/// Both [`run_with_drift`] and [`run_continuous_resync`] used to panic on
/// these paths; they are ordinary, reachable conditions (a caller can ask
/// for an absurd rate, a scenario can declare untruthfully tight
/// assumptions) and are now reported as values.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DriftError {
    /// The requested drift magnitude is negative or at least 10⁶ ppm
    /// (a clock "drifting" by a million ppm or more runs backwards or
    /// not at all — outside the bounded-drift model).
    RateOutOfRange {
        /// The offending magnitude.
        ppm: i64,
    },
    /// Re-expressing the views in drifted readings violated a model
    /// axiom (only reachable if the base execution was already invalid).
    InvalidViews(ModelError),
    /// The synchronizer rejected the drifted observations — the widened
    /// declarations did not absorb the drift, typically because the
    /// scenario declared assumptions that were untruthful even before
    /// drifting.
    Sync(SyncError),
}

impl fmt::Display for DriftError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DriftError::RateOutOfRange { ppm } => {
                write!(f, "drift magnitude {ppm} ppm outside [0, 10^6)")
            }
            DriftError::InvalidViews(e) => write!(f, "drifted views are invalid: {e}"),
            DriftError::Sync(e) => write!(f, "synchronization of drifted views failed: {e}"),
        }
    }
}

impl Error for DriftError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            DriftError::RateOutOfRange { .. } => None,
            DriftError::InvalidViews(e) => Some(e),
            DriftError::Sync(e) => Some(e),
        }
    }
}

impl From<ModelError> for DriftError {
    fn from(e: ModelError) -> DriftError {
        DriftError::InvalidViews(e)
    }
}

impl From<SyncError> for DriftError {
    fn from(e: SyncError) -> DriftError {
        DriftError::Sync(e)
    }
}

fn check_rate(max_ppm: i64) -> Result<(), DriftError> {
    if (0..PPM as i64).contains(&max_ppm) {
        Ok(())
    } else {
        Err(DriftError::RateOutOfRange { ppm: max_ppm })
    }
}

/// Draws each of `n` processors' secret rate uniformly in
/// `[−max_ppm, +max_ppm]`; zero drift draws nothing.
fn draw_rates(rng: &mut StdRng, n: usize, max_ppm: i64) -> Vec<i64> {
    (0..n)
        .map(|_| {
            if max_ppm == 0 {
                0
            } else {
                rng.gen_range(-max_ppm..=max_ppm)
            }
        })
        .collect()
}

/// The margin that keeps declarations truthful when every clock reading
/// covers at most `horizon` of elapsed time at a rate within `max_ppm`:
/// each reading is off by at most `horizon·max_ppm/10⁶` (rounded up), and
/// an estimated delay mixes two clocks, so twice that plus 1 ns. Zero
/// drift needs no slack at all — keeping the margin exactly zero keeps
/// the zero-drift run bit-identical to the plain pipeline.
fn widening_margin(horizon: Nanos, max_ppm: i64) -> Nanos {
    if max_ppm == 0 {
        return Nanos::ZERO;
    }
    let worst_err =
        Ratio::new(i128::from(horizon.as_nanos()) * i128::from(max_ppm), PPM).ceil_nanos();
    worst_err * 2 + Nanos::new(1)
}

/// Scales the time elapsed since `start` by `1 + ppm/10⁶`, rounding to
/// whole ns. Drift distorts *elapsed* time only: a clock read at its own
/// start shows the start reading no matter how fast it runs. (Scaling the
/// absolute reading happened to coincide for views starting at clock 0,
/// the only kind [`clocksync_model::View::validate`] admits, but was
/// wrong for any other origin.)
fn drift_clock(clock: ClockTime, start: ClockTime, ppm: i64) -> ClockTime {
    let elapsed = (clock - start).as_nanos() as i128;
    let scaled = Ratio::new(elapsed * (PPM + ppm as i128), PPM).round_nanos();
    start + scaled
}

/// Re-expresses a view in the readings of a clock running at `1 + ppm/10⁶`
/// since the view's start event.
fn drift_view(view: &View, ppm: i64) -> View {
    let start = view
        .events()
        .iter()
        .find_map(|e| match *e {
            ViewEvent::Start { clock } => Some(clock),
            _ => None,
        })
        .unwrap_or(ClockTime::ZERO);
    let events = view
        .events()
        .iter()
        .map(|e| match *e {
            ViewEvent::Start { clock } => ViewEvent::Start { clock },
            ViewEvent::Send { to, id, clock } => ViewEvent::Send {
                to,
                id,
                clock: drift_clock(clock, start, ppm),
            },
            ViewEvent::Recv { from, id, clock } => ViewEvent::Recv {
                from,
                id,
                clock: drift_clock(clock, start, ppm),
            },
            ViewEvent::Timer { clock } => ViewEvent::Timer {
                clock: drift_clock(clock, start, ppm),
            },
        })
        .collect();
    View::from_events(view.processor(), events)
}

/// Widens a (truthful, drift-free) assumption so it stays truthful when
/// every estimated delay may be off by up to `margin` due to drift:
/// bounds gain `margin` on both sides, bias bounds gain `2·margin`.
/// With `margin == 0` this is the identity on every family.
///
/// On evidence the original assumption admits, widening never tightens
/// any local shift estimate (property-tested across all families). The
/// one exception is evidence that *contradicts* a declared
/// [`LinkAssumption::MarzulloQuorum`]: there the original estimator has
/// already degraded to "no constraint" (`+∞`), and widening the ranges
/// can re-form a quorum and restore a finite — still sound — estimate.
pub fn widen_assumption(a: &LinkAssumption, margin: Nanos) -> LinkAssumption {
    widen(a, margin, margin)
}

/// Widens `a` for delays that may read up to `below` shorter or `above`
/// longer than it allows: ranges grow by `below` at the bottom and by
/// `above` at the top, bias bounds by both, and a bias window shrinks by
/// the larger.
pub(crate) fn widen(a: &LinkAssumption, below: Nanos, above: Nanos) -> LinkAssumption {
    let widen_range = |r: &DelayRange| {
        // The lower bound may go negative: a drifted estimated delay can
        // dip `below` under the true minimum, and clamping at zero would
        // keep a constraint the evidence no longer supports (the fuzzer's
        // continuous-resync oracle caught exactly that as a spurious
        // InconsistentObservations once the horizon's margin exceeded the
        // link's lower bound).
        let lower = r.lower() - below;
        match r.upper() {
            Ext::Finite(ub) => DelayRange::new(lower, ub + above),
            _ => DelayRange::at_least(lower),
        }
    };
    match a {
        LinkAssumption::Bounds { forward, backward } => {
            LinkAssumption::bounds(widen_range(forward), widen_range(backward))
        }
        LinkAssumption::RttBias { bound } => LinkAssumption::rtt_bias(*bound + below + above),
        LinkAssumption::PairedRttBias { bound, window } => {
            // The window must SHRINK, not grow: the bias promise covers
            // only pairs truly within `window`, and drifted readings at a
            // common endpoint can be off by up to `margin` in total — so
            // only pairs observed within `window − margin` are certainly
            // covered. (Growing the window admitted pairs the original
            // assumption says nothing about: an untruthful declaration
            // and a tightened estimate — the drift-widening soundness bug
            // the widening property test caught.) When no positive
            // window survives, the honest widening is no constraint.
            let margin = below.max(above);
            if *window > margin {
                LinkAssumption::paired_rtt_bias(*bound + below + above, *window - margin)
            } else {
                LinkAssumption::no_bounds()
            }
        }
        LinkAssumption::MarzulloQuorum {
            forward,
            backward,
            max_faulty,
        } => LinkAssumption::marzullo_quorum(
            widen_range(forward),
            widen_range(backward),
            *max_faulty,
        ),
        LinkAssumption::All(parts) => {
            LinkAssumption::all(parts.iter().map(|p| widen(p, below, above)).collect())
        }
    }
}

/// The widened network a drift workload hands to the synchronizer.
fn widened_network(sim: &Simulation, margin: Nanos) -> Network {
    let mut b = Network::builder(sim.n());
    for l in sim.links() {
        b = b.link(
            ProcessorId(l.a),
            ProcessorId(l.b),
            widen_assumption(&l.assumption, margin),
        );
    }
    b.build()
}

/// A synchronization performed on drifting clocks.
#[derive(Debug, Clone)]
pub struct DriftRun {
    /// The drift-free ground-truth execution.
    pub execution: Execution,
    /// The views as the drifting processors actually recorded them.
    pub drifted_views: ViewSet,
    /// The widened network the synchronizer was given.
    pub network: Network,
    /// Secret clock rates, ppm per processor.
    pub drift_ppm: Vec<i64>,
    /// The declared drift magnitude bound (what the certificate holder
    /// knows; the secret rates satisfy `|ρ_i| ≤ max_ppm`).
    pub max_ppm: i64,
    /// The margin used to widen the declarations.
    pub margin: Nanos,
    /// The synchronization outcome (certificate valid at sync time).
    pub outcome: SyncOutcome,
}

impl DriftRun {
    /// The drifting logical clock of `p` at real time `t`:
    /// `(t − S_p)·(1 + ρ_p/10⁶) + x_p`.
    pub fn logical_clock_at(&self, p: ProcessorId, t: RealTime) -> Ratio {
        let elapsed = (t - self.execution.start(p)).as_nanos() as i128;
        let reading = Ratio::new(elapsed * (PPM + self.drift_ppm[p.index()] as i128), PPM);
        reading + self.outcome.correction(p)
    }

    /// The worst pairwise disagreement of the corrected (still drifting)
    /// clocks at real time `t`.
    pub fn logical_spread_at(&self, t: RealTime) -> Ratio {
        let values: Vec<Ratio> = (0..self.execution.n())
            .map(|i| self.logical_clock_at(ProcessorId(i), t))
            .collect();
        match (values.iter().max(), values.iter().min()) {
            (Some(hi), Some(lo)) => *hi - *lo,
            _ => Ratio::ZERO,
        }
    }

    /// The real time of the last recorded event (the synchronization
    /// point for decay measurements): the last message delivery, or — in
    /// a message-free execution — the last processor start. (Falling
    /// back to `RealTime::ZERO` understated the sync point whenever
    /// starts were spread out.)
    pub fn sync_time(&self) -> RealTime {
        self.execution
            .messages()
            .iter()
            .map(|m| m.received_at)
            .max()
            .or_else(|| self.execution.starts().iter().copied().max())
            .unwrap_or(RealTime::ZERO)
    }

    /// The run's certificate as a decaying [`DriftingOutcome`]: exact at
    /// [`DriftRun::sync_time`], every processor's rate bounded by the
    /// declared `max_ppm` (the certificate holder never learns the
    /// secret per-processor rates).
    pub fn certificate(&self) -> DriftingOutcome {
        DriftingOutcome::uniform(
            self.outcome.clone(),
            self.sync_time(),
            DriftBound::from_ppm(self.max_ppm),
        )
    }
}

/// Runs `sim` under clock drift: rates are sampled uniformly in
/// `[−max_ppm, +max_ppm]`, views are re-expressed in drifted readings,
/// declarations are widened just enough to stay truthful, and the
/// synchronizer runs on what the drifting processors saw.
///
/// With `max_ppm == 0` the margin is exactly zero, the widened network
/// equals the declared one and the run is bit-identical to the plain
/// pipeline.
///
/// # Errors
///
/// * [`DriftError::RateOutOfRange`] — `max_ppm` outside `[0, 10⁶)`;
/// * [`DriftError::InvalidViews`] — the drifted views violate a model
///   axiom (requires an already-invalid base execution);
/// * [`DriftError::Sync`] — the widened declarations are still violated,
///   e.g. because the scenario declared untruthfully tight assumptions.
pub fn run_with_drift(sim: &Simulation, max_ppm: i64, seed: u64) -> Result<DriftRun, DriftError> {
    check_rate(max_ppm)?;
    let base = sim.run(seed);
    let drift_ppm = draw_rates(&mut StdRng::seed_from_u64(seed ^ 0xD21F7), sim.n(), max_ppm);

    // Drifted views.
    let drifted_views = ViewSet::new(
        base.execution
            .views()
            .iter()
            .map(|v| drift_view(v, drift_ppm[v.processor().index()]))
            .collect(),
    )?;

    // The run horizon, conservatively the largest clock reading any
    // processor recorded.
    let horizon = base
        .execution
        .views()
        .iter()
        .flat_map(|v| v.events().iter().map(|e| e.clock().as_nanos()))
        .max()
        .unwrap_or(0);
    let margin = widening_margin(Nanos::new(horizon), max_ppm);

    let network = widened_network(sim, margin);
    let outcome = Synchronizer::new(network.clone()).synchronize(&drifted_views)?;

    Ok(DriftRun {
        execution: base.execution,
        drifted_views,
        network,
        drift_ppm,
        max_ppm,
        margin,
        outcome,
    })
}

/// Configuration of a [`run_continuous_resync`] workload.
#[derive(Debug, Clone)]
pub struct ResyncConfig {
    /// Resynchronization rounds to run.
    pub rounds: usize,
    /// Real-time spacing between rounds.
    pub period: Nanos,
    /// Probe round trips per link per round.
    pub probes: usize,
    /// Drift magnitude bound, ppm (secret rates are sampled within it).
    pub max_ppm: i64,
    /// Drop one (rotating) link's evidence before each round after the
    /// first, so the graph keeps changing and the incremental
    /// closure/`A_max` caches are exercised on both the tightening and
    /// the loosening path.
    pub churn: bool,
}

impl Default for ResyncConfig {
    fn default() -> ResyncConfig {
        ResyncConfig {
            rounds: 4,
            period: Nanos::from_millis(250),
            probes: 2,
            max_ppm: 100,
            churn: true,
        }
    }
}

/// A continuously-resynchronized run over drifting clocks: one decaying
/// certificate per round, plus the ground truth needed to check each
/// certificate at any later real time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ContinuousDriftRun {
    /// Secret clock rates, ppm per processor.
    pub drift_ppm: Vec<i64>,
    /// Real start time per processor (each clock reads 0 at its start).
    pub starts: Vec<RealTime>,
    /// The margin the declarations were widened by.
    pub margin: Nanos,
    /// One decaying certificate per round, in round order. Each is exact
    /// at the real time of its round's last delivery and decays at the
    /// declared uniform rate bound.
    pub snapshots: Vec<DriftingOutcome>,
}

impl ContinuousDriftRun {
    /// The drifting logical clock of `p` at real time `t`, corrected by
    /// round `round`'s certificate.
    pub fn logical_clock_at(&self, round: usize, p: ProcessorId, t: RealTime) -> Ratio {
        let elapsed = (t - self.starts[p.index()]).as_nanos() as i128;
        let reading = Ratio::new(elapsed * (PPM + self.drift_ppm[p.index()] as i128), PPM);
        reading + self.snapshots[round].outcome().correction(p)
    }

    /// The true corrected-clock disagreement of `(p, q)` at real time
    /// `t` under round `round`'s corrections — the quantity the round's
    /// decayed [`DriftingOutcome::pair_bound_at`] must dominate (up to
    /// the reading-error [`ContinuousDriftRun::margin`]).
    pub fn true_skew_at(&self, round: usize, p: ProcessorId, q: ProcessorId, t: RealTime) -> Ratio {
        let d = self.logical_clock_at(round, p, t) - self.logical_clock_at(round, q, t);
        if d < Ratio::ZERO {
            Ratio::ZERO - d
        } else {
            d
        }
    }
}

/// Runs `sim`'s topology under continuous drift: each processor's clock
/// runs at a secret bounded rate *throughout*, probes are exchanged every
/// [`ResyncConfig::period`], and an [`OnlineSynchronizer`] (with its
/// incremental closure and warm `A_max` caches) re-synchronizes after
/// every round. With [`ResyncConfig::churn`] set, a rotating link's
/// evidence is dropped before each round and re-learned from that round's
/// probes, so the evidence graph keeps changing shape.
///
/// Delay models and declared assumptions are taken from `sim`;
/// declarations are widened by the drift the whole horizon can
/// accumulate, so they stay truthful for every round.
///
/// # Errors
///
/// Same contract as [`run_with_drift`].
pub fn run_continuous_resync(
    sim: &Simulation,
    cfg: &ResyncConfig,
    seed: u64,
) -> Result<ContinuousDriftRun, DriftError> {
    check_rate(cfg.max_ppm)?;
    let mut rng = StdRng::seed_from_u64(seed ^ 0x2E5C11D);
    let drift_ppm = draw_rates(&mut rng, sim.n(), cfg.max_ppm);
    let (starts, resolved) = sim.draw(&mut rng);

    // The reading of p's drifting clock at real time t (t ≥ start_p).
    let reading = |p: usize, t: RealTime| -> ClockTime {
        let elapsed = (t - starts[p]).as_nanos() as i128;
        ClockTime::ZERO + Ratio::new(elapsed * (PPM + drift_ppm[p] as i128), PPM).round_nanos()
    };

    // Generate every round's probe traffic first, tracking the largest
    // elapsed-since-start any reading covers — the margin must absorb
    // the drift of the *actual* horizon, exactly as run_with_drift
    // derives it from the recorded views (a probe sequence can overrun
    // its nominal period, so the schedule alone is not a safe bound).
    let origin = starts.iter().copied().max().unwrap_or(RealTime::ZERO) + Nanos::from_micros(100);
    let mut horizon = Nanos::ZERO;
    let mut rounds = Vec::with_capacity(cfg.rounds);
    for round in 0..cfg.rounds {
        let mut batch = Vec::new();
        let mut t = origin + cfg.period * round as i64;
        let mut last_delivery = t;
        for (l, link) in sim.links().iter().zip(&resolved) {
            for _ in 0..cfg.probes {
                // One round trip: a → b, then the echo b → a.
                for &(src, dst, forward) in &[(l.a, l.b, true), (l.b, l.a, false)] {
                    let delay = link.sample(forward, &mut rng);
                    let arrival = t + delay;
                    batch.push(BatchObservation {
                        src: ProcessorId(src),
                        dst: ProcessorId(dst),
                        send_clock: reading(src, t),
                        recv_clock: reading(dst, arrival),
                    });
                    horizon = horizon.max(t - starts[src]).max(arrival - starts[dst]);
                    last_delivery = last_delivery.max(arrival);
                    t = arrival + sim.spacing();
                }
            }
        }
        rounds.push((batch, last_delivery));
    }
    let margin = widening_margin(horizon, cfg.max_ppm);

    let mut online = OnlineSynchronizer::new(widened_network(sim, margin));
    let rate_bound = DriftBound::from_ppm(cfg.max_ppm);
    let mut snapshots = Vec::with_capacity(cfg.rounds);
    for (round, (batch, last_delivery)) in rounds.into_iter().enumerate() {
        if cfg.churn && round > 0 && !sim.links().is_empty() {
            let l = &sim.links()[round % sim.links().len()];
            online.forget_link(ProcessorId(l.a), ProcessorId(l.b));
        }
        online.ingest_batch(&batch)?;
        let outcome = online.outcome()?;
        snapshots.push(DriftingOutcome::uniform(outcome, last_delivery, rate_bound));
    }

    Ok(ContinuousDriftRun {
        drift_ppm,
        starts,
        margin,
        snapshots,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::delay::{DelayDistribution, LinkModel};
    use crate::Topology;

    fn sim() -> Simulation {
        Simulation::builder(4)
            .uniform_links(
                Topology::Ring(4),
                Nanos::from_micros(100),
                Nanos::from_micros(400),
                5,
            )
            .probes(2)
            .spacing(Nanos::from_millis(5))
            .build()
    }

    #[test]
    fn zero_drift_matches_the_plain_pipeline_guarantee() {
        let run = run_with_drift(&sim(), 0, 3).unwrap();
        assert_eq!(run.drift_ppm, vec![0; 4]);
        let spread = run.logical_spread_at(run.sync_time());
        assert!(Ext::Finite(spread) <= run.outcome.precision());
    }

    #[test]
    fn zero_drift_is_bit_identical_to_the_plain_pipeline() {
        let s = sim();
        let run = run_with_drift(&s, 0, 3).unwrap();
        assert_eq!(run.margin, Nanos::ZERO);
        assert_eq!(run.network, s.network());
        let base = s.run(3);
        assert_eq!(run.drifted_views, *base.execution.views());
        let plain = Synchronizer::new(s.network())
            .synchronize(base.execution.views())
            .unwrap();
        assert_eq!(run.outcome, plain);
    }

    #[test]
    fn absurd_drift_rates_are_typed_errors_not_panics() {
        assert_eq!(
            run_with_drift(&sim(), 2_000_000, 1).unwrap_err(),
            DriftError::RateOutOfRange { ppm: 2_000_000 }
        );
        assert_eq!(
            run_with_drift(&sim(), -5, 1).unwrap_err(),
            DriftError::RateOutOfRange { ppm: -5 }
        );
        assert!(matches!(
            run_continuous_resync(
                &sim(),
                &ResyncConfig {
                    max_ppm: 1_000_000,
                    ..Default::default()
                },
                1
            ),
            Err(DriftError::RateOutOfRange { ppm: 1_000_000 })
        ));
    }

    #[test]
    fn untruthful_declarations_surface_as_a_sync_error() {
        // True delays are 100–400µs but the declaration claims ≤ 1µs:
        // the widened bounds cannot absorb observations that violate the
        // declaration outright, so synchronize fails with a typed error
        // instead of a panic.
        let lying = Simulation::builder(2)
            .link(
                0,
                1,
                LinkModel::symmetric(DelayDistribution::uniform(
                    Nanos::from_micros(100),
                    Nanos::from_micros(400),
                )),
                LinkAssumption::symmetric_bounds(DelayRange::new(Nanos::ZERO, Nanos::new(1_000))),
            )
            .probes(2)
            .build();
        match run_with_drift(&lying, 50, 9) {
            Err(DriftError::Sync(SyncError::InconsistentObservations { .. })) => {}
            other => panic!("expected inconsistent observations, got {other:?}"),
        }
    }

    #[test]
    fn drift_scales_elapsed_time_not_absolute_readings() {
        // A view whose clock origin is 1000 (inadmissible for the full
        // pipeline, but exactly the case the old absolute scaling got
        // wrong): drifting by +1000 ppm must move a reading 1ms after
        // the origin by 1µs, not by 1.001µs-per-µs-of-absolute-reading.
        let origin = ClockTime::ZERO + Nanos::new(1_000);
        let v = View::from_events(
            ProcessorId(0),
            vec![
                ViewEvent::Start { clock: origin },
                ViewEvent::Timer {
                    clock: origin + Nanos::from_micros(1_000),
                },
            ],
        );
        let d = drift_view(&v, 1_000);
        assert_eq!(d.events()[0], ViewEvent::Start { clock: origin });
        assert_eq!(
            d.events()[1],
            ViewEvent::Timer {
                clock: origin + Nanos::from_micros(1_000) + Nanos::new(1_000),
            }
        );
        // The same reading on a zero-origin clock drifts by the same
        // elapsed-proportional amount plus the origin's share under the
        // old (wrong) rule — guard the exact value too.
        assert_eq!(
            drift_clock(origin + Nanos::from_micros(1_000), origin, 1_000),
            origin + Nanos::from_micros(1_000) + Nanos::new(1_000)
        );
    }

    #[test]
    fn sync_time_of_a_message_free_run_is_the_last_start() {
        // No probe protocol ever produces a message-free execution, but
        // nothing forbids one: only starts, spread over 2ms. sync_time
        // used to collapse to RealTime::ZERO here, understating the sync
        // point by the whole spread.
        use clocksync_model::ExecutionBuilder;
        let execution = ExecutionBuilder::new(3)
            .start(ProcessorId(1), RealTime::from_micros(2_000))
            .start(ProcessorId(2), RealTime::from_micros(750))
            .build()
            .unwrap();
        let network = Network::builder(3).build();
        let outcome = Synchronizer::new(network.clone())
            .synchronize(execution.views())
            .unwrap();
        let run = DriftRun {
            drifted_views: execution.views().clone(),
            execution,
            network,
            drift_ppm: vec![0; 3],
            max_ppm: 0,
            margin: Nanos::ZERO,
            outcome,
        };
        assert!(run.execution.messages().is_empty());
        assert_eq!(run.sync_time(), RealTime::from_micros(2_000));
        assert!(run.sync_time() > RealTime::ZERO, "spread-out starts");
    }

    #[test]
    fn drifted_run_is_sound_at_sync_time_within_drift_allowance() {
        for seed in 0..4 {
            let run = run_with_drift(&sim(), 50, seed).unwrap(); // 50 ppm
            assert!(run.outcome.precision().is_finite());
            let spread = run.logical_spread_at(run.sync_time());
            // At sync time the corrected clocks agree within the
            // certificate plus the residual reading error the certificate
            // cannot see (bounded by the margin).
            let allowance = run.outcome.precision() + Ext::Finite(Ratio::from(run.margin));
            assert!(
                Ext::Finite(spread) <= allowance,
                "seed {seed}: {spread} > {allowance}"
            );
        }
    }

    #[test]
    fn the_decaying_certificate_stays_sound_after_sync_time() {
        let run = run_with_drift(&sim(), 80, 13).unwrap();
        let cert = run.certificate();
        let allowance = Ext::Finite(Ratio::from(run.margin));
        for secs in [0, 1, 30] {
            let t = run.sync_time() + Nanos::from_secs(secs);
            let spread = run.logical_spread_at(t);
            assert!(
                Ext::Finite(spread) <= cert.precision_at(t) + allowance,
                "{secs}s after sync: {spread} vs {:?}",
                cert.precision_at(t)
            );
        }
    }

    #[test]
    fn spread_grows_as_drift_accumulates() {
        let run = run_with_drift(&sim(), 100, 7).unwrap();
        if run.drift_ppm.iter().all(|&d| d == run.drift_ppm[0]) {
            return; // identical rates never diverge; astronomically rare
        }
        let t0 = run.sync_time();
        let at = |secs: i64| run.logical_spread_at(t0 + Nanos::from_secs(secs));
        assert!(at(100) > at(1));
        // ~100ppm relative drift over 100s is ~10ms of divergence.
        assert!(at(100) > Ratio::from_int(1_000_000));
    }

    #[test]
    fn widening_covers_every_assumption_family() {
        let m = Nanos::new(10);
        let b = widen_assumption(
            &LinkAssumption::symmetric_bounds(DelayRange::new(Nanos::new(5), Nanos::new(50))),
            m,
        );
        match b {
            LinkAssumption::Bounds { forward, .. } => {
                // The widened lower bound goes *negative* — clamping it
                // at zero kept a constraint drifted evidence can violate.
                assert_eq!(forward.lower(), Nanos::new(-5));
                assert_eq!(forward.upper(), Ext::Finite(Nanos::new(60)));
            }
            other => panic!("{other:?}"),
        }
        assert_eq!(
            widen_assumption(&LinkAssumption::rtt_bias(Nanos::new(7)), m),
            LinkAssumption::rtt_bias(Nanos::new(27))
        );
        // The pairing window shrinks (drifted readings may pair messages
        // the true readings would not); once the margin eats the whole
        // window the promise is vacuous.
        assert_eq!(
            widen_assumption(
                &LinkAssumption::paired_rtt_bias(Nanos::new(7), Nanos::new(100)),
                m
            ),
            LinkAssumption::paired_rtt_bias(Nanos::new(27), Nanos::new(90))
        );
        assert_eq!(
            widen_assumption(
                &LinkAssumption::paired_rtt_bias(Nanos::new(7), Nanos::new(10)),
                m
            ),
            LinkAssumption::no_bounds()
        );
        match widen_assumption(&LinkAssumption::all(vec![LinkAssumption::no_bounds()]), m) {
            LinkAssumption::All(parts) => assert_eq!(parts.len(), 1),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn continuous_resync_certificates_stay_sound_between_rounds() {
        let cfg = ResyncConfig {
            rounds: 3,
            period: Nanos::from_millis(200),
            probes: 2,
            max_ppm: 100,
            churn: true,
        };
        let run = run_continuous_resync(&sim(), &cfg, 21).unwrap();
        assert_eq!(run.snapshots.len(), 3);
        let allowance = Ext::Finite(Ratio::from(run.margin));
        for (round, snap) in run.snapshots.iter().enumerate() {
            assert!(
                snap.outcome().precision().is_finite(),
                "round {round} certificate must be finite even under churn"
            );
            for dt in [Nanos::ZERO, Nanos::from_millis(100), Nanos::from_secs(2)] {
                let t = snap.valid_at() + dt;
                for p in 0..4 {
                    for q in (p + 1)..4 {
                        let (p, q) = (ProcessorId(p), ProcessorId(q));
                        let truth = run.true_skew_at(round, p, q, t);
                        let bound = snap.pair_bound_at(p, q, t) + allowance;
                        assert!(
                            Ext::Finite(truth) <= bound,
                            "round {round}, {p:?}-{q:?}, +{dt}: {truth} > {bound}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn continuous_resync_is_deterministic() {
        let cfg = ResyncConfig::default();
        let a = run_continuous_resync(&sim(), &cfg, 5).unwrap();
        let b = run_continuous_resync(&sim(), &cfg, 5).unwrap();
        assert_eq!(a, b);
        let c = run_continuous_resync(&sim(), &cfg, 6).unwrap();
        assert_ne!(a.drift_ppm, c.drift_ppm);
    }

    #[test]
    fn zero_drift_continuous_resync_is_exact() {
        let cfg = ResyncConfig {
            max_ppm: 0,
            churn: false,
            ..Default::default()
        };
        let run = run_continuous_resync(&sim(), &cfg, 2).unwrap();
        assert_eq!(run.margin, Nanos::ZERO);
        for (round, snap) in run.snapshots.iter().enumerate() {
            let t = snap.valid_at() + Nanos::from_secs(3600);
            for p in 0..4 {
                for q in (p + 1)..4 {
                    let (p, q) = (ProcessorId(p), ProcessorId(q));
                    // No drift: an hour later the undecayed bound still
                    // holds with no allowance at all.
                    assert!(
                        Ext::Finite(run.true_skew_at(round, p, q, t))
                            <= snap.pair_bound_at(p, q, t),
                        "round {round}, {p:?}-{q:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn churn_actually_changes_the_evidence_graph() {
        let churned = run_continuous_resync(&sim(), &ResyncConfig::default(), 1).unwrap();
        let stable = run_continuous_resync(
            &sim(),
            &ResyncConfig {
                churn: false,
                ..Default::default()
            },
            1,
        )
        .unwrap();
        // Same seed, same probes — dropping a link's history each round
        // must leave a visible trace in at least one certificate.
        assert_eq!(churned.drift_ppm, stable.drift_ppm);
        assert_ne!(churned.snapshots, stable.snapshots);
    }
}
