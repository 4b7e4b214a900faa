//! The scenario runner: three lockstep targets, oracles after every step.
//!
//! A scenario executes simultaneously against:
//!
//! 1. the **full-history** [`OnlineSynchronizer`] — the reference;
//! 2. the **windowed sequential** [`SyncService`] — bounded retention;
//! 3. the **windowed concurrent** [`ConcurrentService`] — worker-per-shard.
//!
//! After *every* event the scenario oracles run (see [`Oracle`] and
//! `DESIGN.md` §9):
//!
//! * **no-panic** — every target call is wrapped in `catch_unwind`;
//! * **windowed-equals-full** — the windowed outcome must be bit-identical
//!   to the full-history outcome (this *is* the fuzzed form of the
//!   compaction-never-loosens theorem, Lemma 6.2's extrema-sufficiency);
//! * **concurrent-equals-sequential** — same for the concurrent engine,
//!   plus receipt-for-receipt equality on every ingest and retraction;
//! * **warm-equals-cold** — a clone of the reference that calls
//!   `invalidate_caches()` must produce an equal outcome (`==`, every
//!   field), or the same error: the three targets all run warm, so this
//!   is the one check that a warm Howard restart or a revalidated
//!   certificate answers as a cold computation does;
//! * **rho-equals-amax** — `ρ̄(x̄) = A_max` with equality at the computed
//!   corrections (Theorem 5.2's optimality identity);
//! * **estimate-soundness** — the true base offsets lie inside every
//!   `m̃ls` interval, local and closed (Lemma 6.5's correctness half),
//!   with zero tolerance;
//! * **corrected-agreement** — corrected true clocks of processors in one
//!   component agree within that component's precision;
//! * **monotone-tightening** — closure entries never increase while
//!   evidence only accumulates (reset at explicit link retraction, the
//!   one operation allowed to loosen);
//! * **compaction-never-loosens** — an explicit [`Event::Compact`] must
//!   leave the reference closure bit-identical;
//! * **sparse-equals-dense** — the sparse Johnson closure kernel must
//!   produce bit-identical distances (and agree on negative-cycle
//!   detection) with the dense blocked kernel on the scaled
//!   local-estimate matrix, every sweep;
//! * **marzullo-honest-subset** — refusing the accumulated evidence
//!   through quorum fusion (at `f ∈ {0, 1, 2}` assumed faults, even
//!   though every delivered sample is honest w.r.t. the widened bounds)
//!   must (a) reach its quorum and keep the true base offset difference
//!   inside the fused interval, (b) degenerate bit-exactly to the
//!   Lemma 6.2 bounds estimator at `f = 0`, and (c) never be looser than
//!   the hull of what the honest quorum-sized sample subsets allow
//!   (checked by exhaustive subset enumeration on small links).
//!
//! Everything journaled is computed (no wall-clock), so two runs of the
//! same scenario emit byte-identical [`Journal`]s — the property the
//! determinism regression pins.

use std::collections::{BTreeMap, BTreeSet};
use std::panic::{catch_unwind, AssertUnwindSafe};

use clocksync::{
    BatchObservation, DelayRange, LinkAssumption, Network, OnlineSynchronizer, SyncError,
    SyncOutcome,
};
use clocksync_graph::SquareMatrix;
use clocksync_model::{LinkEvidence, MsgSample, ProcessorId};
use clocksync_obs::{Journal, Json};
use clocksync_service::{ConcurrentService, ObservationBatch, ServiceConfig, SyncService};
use clocksync_sim::FaultPlan;
use clocksync_time::{ClockTime, Ext, Nanos, Ratio, RealTime};

use crate::rng::VoprRng;
use crate::scenario::{Event, Scenario};
use crate::sweep::{Failure, Family, Oracle};
use crate::world::WorldClocks;

type ExtRatio = Ext<Ratio>;

/// The single sync domain every scenario runs under.
pub const DOMAIN: &str = "vopr";

/// Caps the runner clamps scenario values into, so arithmetic stays in
/// range and a hostile (or badly shrunk) scenario cannot overflow the
/// harness itself. Scenarios from [`crate::generate`] are always within:
/// the far-clock family's offsets reach 10^18 ns, under `2^61`. After the
/// runner's common shift every offset lies in `[0, 2^62]`, so every
/// reading and every difference of two stay inside `i64`.
const MAX_N: usize = 16;
const MAX_SHARDS: usize = 16;
const MAX_WINDOW: usize = 4096;
const MAX_MARGIN: i64 = 1 << 20;
const MAX_ABS_OFFSET: i64 = 1 << 61;
const MAX_TIME: i64 = 1 << 50;
const MAX_DELAY: i64 = 1 << 40;

/// Salt separating the runner's per-probe fault streams from the
/// generator's stream.
const FAULT_SALT: u64 = 0x50524F42455F5254;

/// The result of one scenario run.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// The first oracle violation, if any (the run stops there). It names
    /// the scenario family and family seed that generate the scenario's
    /// seed: seeds from [`crate::FAR_SEEDS`] up are far-clock seeds.
    pub failure: Option<Failure>,
    /// Events executed (= index of the failing event + 1 on failure).
    pub steps: usize,
    /// Probes ingested by all targets.
    pub probes_applied: usize,
    /// Probes lost to faults (drop, down window, crash).
    pub probes_dropped: usize,
    /// Probes skipped as inapplicable (inactive link, bad endpoints,
    /// unrepresentable readings).
    pub probes_skipped: usize,
    /// The deterministic run journal.
    pub journal: Journal,
}

impl RunReport {
    /// `true` when every oracle held.
    pub fn passed(&self) -> bool {
        self.failure.is_none()
    }
}

/// Runs `f` with the global panic hook silenced, restoring it after.
///
/// The runner treats panics as data (`catch_unwind` + the no-panic
/// oracle); without this, a shrink session re-running a panicking
/// scenario hundreds of times floods stderr with backtraces.
pub fn with_quiet_panics<T>(f: impl FnOnce() -> T) -> T {
    let saved = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let result = catch_unwind(AssertUnwindSafe(f));
    std::panic::set_hook(saved);
    match result {
        Ok(v) => v,
        Err(payload) => std::panic::resume_unwind(payload),
    }
}

/// Calls `f`, turning a panic into a `no-panic` failure whose detail is
/// `{call} panicked: {message}`.
pub(crate) fn guard<T>(call: &str, f: impl FnOnce() -> T) -> Result<T, (Oracle, String)> {
    catch_unwind(AssertUnwindSafe(f)).map_err(|payload| {
        let message = if let Some(s) = payload.downcast_ref::<&str>() {
            (*s).to_string()
        } else if let Some(s) = payload.downcast_ref::<String>() {
            s.clone()
        } else {
            "non-string panic payload".to_string()
        };
        (Oracle::NoPanic, format!("{call} panicked: {message}"))
    })
}

/// The normalized undirected link table of a scenario: canonical key to
/// effective true bounds `(lo, hi)` with `lo ≥ 2 × margin` (so the
/// widened declared bounds stay non-negative) and `hi ≥ lo`. Bounds of
/// repeated `AddLink`s for one pair are unioned.
fn effective_links(s: &Scenario, margin: i64) -> BTreeMap<(usize, usize), (i64, i64)> {
    let mut links = BTreeMap::new();
    for event in &s.events {
        if let Event::AddLink { a, b, lo, hi } = *event {
            if a == b || a >= s.n || b >= s.n {
                continue;
            }
            let lo = lo.clamp(0, MAX_DELAY).max(2 * margin);
            let hi = hi.clamp(0, MAX_DELAY).max(lo);
            let entry = links.entry((a.min(b), a.max(b))).or_insert((lo, hi));
            entry.0 = entry.0.min(lo);
            entry.1 = entry.1.max(hi);
        }
    }
    links
}

/// The hull of the plain (`f = 0`, i.e. intersection) fusions of every
/// `keep`-sized subset of a link's samples — the strongest interval a
/// fault-aware fuser may claim when any `keep` of the sources could be
/// the honest ones. `None` when no subset is internally consistent.
pub(crate) fn honest_subset_hull(
    range: DelayRange,
    fwd: &[MsgSample],
    bwd: &[MsgSample],
    keep: usize,
) -> Option<(Ext<i128>, Ext<i128>)> {
    let k = fwd.len() + bwd.len();
    debug_assert!(k <= 16, "subset enumeration is exponential in k");
    let strict = LinkAssumption::marzullo_quorum(range, range, 0);
    let mut hull: Option<(Ext<i128>, Ext<i128>)> = None;
    for mask in 0u32..(1u32 << k) {
        if mask.count_ones() as usize != keep {
            continue;
        }
        let sub_fwd: Vec<MsgSample> = fwd
            .iter()
            .enumerate()
            .filter(|(i, _)| mask & (1 << i) != 0)
            .map(|(_, s)| *s)
            .collect();
        let sub_bwd: Vec<MsgSample> = bwd
            .iter()
            .enumerate()
            .filter(|(i, _)| mask & (1 << (i + fwd.len())) != 0)
            .map(|(_, s)| *s)
            .collect();
        let ev = LinkEvidence::from_samples(&sub_fwd, &sub_bwd);
        let stats = strict.fusion_stats(&ev)?;
        if stats.quorum_reached {
            hull = Some(match hull {
                None => (stats.fused_lo, stats.fused_hi),
                Some((lo, hi)) => (lo.min(stats.fused_lo), hi.max(stats.fused_hi)),
            });
        }
    }
    hull
}

/// The `corrected-agreement` check: within each component, corrected
/// clocks `offset(p) + x_p`, for the true clock offsets, agree to within
/// the component's precision.
pub(crate) fn check_agreement(
    outcome: &SyncOutcome,
    offset: impl Fn(ProcessorId) -> Ratio,
) -> Result<(), String> {
    let x = outcome.corrections();
    for component in outcome.components() {
        for (i, &p) in component.members.iter().enumerate() {
            for &q in &component.members[i + 1..] {
                let gap = (offset(p) + x[p.index()] - (offset(q) + x[q.index()])).abs();
                if gap > component.precision {
                    return Err(format!(
                        "corrected clocks of {p} and {q} disagree by {gap} > component precision {}",
                        component.precision,
                    ));
                }
            }
        }
    }
    Ok(())
}

/// A sweep-time check of an outcome the three targets agree on: the
/// detail of its violation, if any.
type Check = fn(&mut Runner<'_>, &SyncOutcome) -> Result<(), String>;

/// The sweep-time checks, in the order they run, each under its oracle.
const SWEEP_CHECKS: [(Oracle, Check); 6] = [
    (Oracle::RhoEqualsAmax, |r, o| r.check_identity(o)),
    (Oracle::EstimateSoundness, |r, o| r.check_soundness(o)),
    (Oracle::CorrectedAgreement, |r, o| {
        check_agreement(o, |p| {
            Ratio::from_int(i128::from(r.world.offset(p.index())))
        })
    }),
    (Oracle::MonotoneTightening, |r, o| r.check_monotone(o)),
    (Oracle::SparseEqualsDense, |r, _| r.check_sparse_kernels()),
    (Oracle::MarzulloHonestSubset, |r, _| r.check_marzullo()),
];

struct Runner<'a> {
    scenario: &'a Scenario,
    window: usize,
    links: BTreeMap<(usize, usize), (i64, i64)>,
    active: BTreeSet<(usize, usize)>,
    online: OnlineSynchronizer,
    seq: SyncService,
    conc: Option<ConcurrentService>,
    world: WorldClocks,
    plan: FaultPlan,
    prev_closure: Option<SquareMatrix<ExtRatio>>,
    journal: Journal,
    probes_applied: usize,
    probes_dropped: usize,
    probes_skipped: usize,
}

/// Executes a scenario against all three targets with the full oracle
/// catalogue. Never panics: target panics become `no-panic` failures.
pub fn run_scenario(s: &Scenario) -> RunReport {
    let mut journal = Journal::new();
    journal.record(Json::object([
        ("type", Json::Str("scenario".into())),
        ("seed", Json::Int(i128::from(s.seed))),
        ("n", Json::Int(s.n as i128)),
        ("shards", Json::Int(s.shards as i128)),
        ("window", Json::Int(s.window as i128)),
        ("margin", Json::Int(i128::from(s.margin))),
        ("events", Json::Int(s.events.len() as i128)),
    ]));
    // Structurally invalid scenarios run as empty (and pass): a shrink
    // step must never "succeed" by making the input unrunnable.
    if s.n == 0 || s.n > MAX_N || s.shards == 0 || s.shards > MAX_SHARDS || s.offsets.len() != s.n {
        journal.record(Json::object([
            ("type", Json::Str("note".into())),
            ("note", Json::Str("scenario-rejected".into())),
        ]));
        return RunReport {
            failure: None,
            steps: 0,
            probes_applied: 0,
            probes_dropped: 0,
            probes_skipped: 0,
            journal,
        };
    }

    let margin = s.margin.clamp(0, MAX_MARGIN);
    let window = s.window.min(MAX_WINDOW);
    let links = effective_links(s, margin);
    let mut builder = Network::builder(s.n);
    for (&(a, b), &(lo, hi)) in &links {
        // Widen the declared bounds by the perturbation budget on each
        // side: every perturbed reading stays explainable by the base
        // offsets, which is what the zero-slack soundness oracle needs.
        builder = builder.link(
            ProcessorId(a),
            ProcessorId(b),
            LinkAssumption::symmetric_bounds(DelayRange::new(
                Nanos::new(lo - 2 * margin),
                Nanos::new(hi + 2 * margin),
            )),
        );
    }
    let network = builder.build();

    // Probes start near real time 0, so a clock with a negative offset
    // would read before its epoch and every probe it sends or receives
    // early would be skipped. One common shift lifts the smallest offset
    // to 0: it changes no offset difference and no estimated delay, so
    // every oracle checks the same execution. The clamp keeps the
    // shifted offsets within `2^62`, and readings inside `i64`.
    let clamped = s
        .offsets
        .iter()
        .map(|&o| o.clamp(-MAX_ABS_OFFSET, MAX_ABS_OFFSET));
    let shift = clamped.clone().min().map_or(0, |min| min.min(0));
    let offsets: Vec<i64> = clamped.map(|o| o - shift).collect();

    let mut seq = SyncService::new(s.shards, window);
    seq.register_domain(DOMAIN, network.clone())
        .expect("fresh sequential service accepts the domain");
    let conc = ConcurrentService::start(ServiceConfig {
        shards: s.shards,
        window,
        queue_depth: 64,
        // One batch per application: receipts must match the sequential
        // engine field-for-field, so group-commit coalescing is off.
        max_coalesce: 1,
    });
    conc.register_domain(DOMAIN, network.clone())
        .expect("fresh concurrent service accepts the domain");

    let runner = Runner {
        scenario: s,
        window,
        links,
        active: BTreeSet::new(),
        online: OnlineSynchronizer::new(network),
        seq,
        conc: Some(conc),
        world: WorldClocks::new(&offsets, margin),
        plan: FaultPlan::new(),
        prev_closure: None,
        journal,
        probes_applied: 0,
        probes_dropped: 0,
        probes_skipped: 0,
    };
    runner.run()
}

impl Runner<'_> {
    fn run(mut self) -> RunReport {
        let mut failure = None;
        let mut steps = 0;
        for (step, event) in self.scenario.events.iter().enumerate() {
            steps = step + 1;
            let result = self.step(step, event);
            let result = result.and_then(|()| self.sweep(step, matches!(event, Event::Checkpoint)));
            if let Err(violation) = result {
                failure = Some(self.fail(step, violation));
                break;
            }
        }
        if failure.is_none() {
            if let Some(conc) = self.conc.take() {
                if let Err(violation) = guard("shutdown", move || conc.shutdown()) {
                    failure = Some(self.fail(steps.saturating_sub(1), violation));
                }
            }
        }
        // On failure the concurrent service is dropped without joining:
        // its workers exit as the job senders drop, and joining a worker
        // that panicked would just re-panic the harness.
        self.journal.record(Json::object([
            ("type", Json::Str("result".into())),
            (
                "status",
                Json::Str(if failure.is_none() { "pass" } else { "fail" }.into()),
            ),
            ("steps", Json::Int(steps as i128)),
            ("probes_applied", Json::Int(self.probes_applied as i128)),
            ("probes_dropped", Json::Int(self.probes_dropped as i128)),
            ("probes_skipped", Json::Int(self.probes_skipped as i128)),
        ]));
        RunReport {
            failure,
            steps,
            probes_applied: self.probes_applied,
            probes_dropped: self.probes_dropped,
            probes_skipped: self.probes_skipped,
            journal: self.journal,
        }
    }

    /// Journals the violation at `step` and reports it as a [`Failure`].
    fn fail(&mut self, step: usize, (oracle, detail): (Oracle, String)) -> Failure {
        self.journal.record(Json::object([
            ("type", Json::Str("failure".into())),
            ("step", Json::Int(step as i128)),
            ("oracle", Json::Str(oracle.name().into())),
            ("detail", Json::Str(detail.clone())),
        ]));
        let (family, seed) = Family::of_scenario(self.scenario.seed);
        Failure {
            family,
            seed,
            oracle,
            step: Some(step),
            detail,
        }
    }

    fn note(&mut self, step: usize, kind: &str, action: &str, reason: &str) {
        let mut fields = vec![
            ("type", Json::Str("event".into())),
            ("step", Json::Int(step as i128)),
            ("kind", Json::Str(kind.into())),
            ("action", Json::Str(action.into())),
        ];
        if !reason.is_empty() {
            fields.push(("reason", Json::Str(reason.into())));
        }
        self.journal.record(Json::object(fields));
    }

    fn step(&mut self, step: usize, event: &Event) -> Result<(), (Oracle, String)> {
        let kind = event.kind();
        match *event {
            Event::AddLink { a, b, .. } => {
                let valid = a != b && a < self.scenario.n && b < self.scenario.n;
                let key = (a.min(b), a.max(b));
                if !valid || !self.links.contains_key(&key) {
                    self.note(step, kind, "skipped", "invalid-endpoints");
                } else if self.active.insert(key) {
                    self.note(step, kind, "applied", "");
                } else {
                    self.note(step, kind, "skipped", "already-active");
                }
                Ok(())
            }
            Event::RemoveLink { a, b } => self.remove_link(step, kind, a, b),
            Event::Probe {
                src,
                dst,
                at,
                delay,
            } => self.probe(step, kind, src, dst, at, delay),
            Event::SetFaults {
                a,
                b,
                drop_ppm,
                dup_ppm,
                reorder_ppm,
            } => {
                if a == b || a >= self.scenario.n || b >= self.scenario.n {
                    self.note(step, kind, "skipped", "invalid-endpoints");
                    return Ok(());
                }
                let to_prob = |ppm: u32| f64::from(ppm.min(1_000_000)) / 1e6;
                let overlay = FaultPlan::new()
                    .drop_messages(ProcessorId(a), ProcessorId(b), to_prob(drop_ppm))
                    .duplicate_messages(ProcessorId(a), ProcessorId(b), to_prob(dup_ppm))
                    .reorder_messages(ProcessorId(a), ProcessorId(b), to_prob(reorder_ppm));
                self.plan = std::mem::take(&mut self.plan).merge(overlay);
                self.note(step, kind, "applied", "");
                Ok(())
            }
            Event::LinkDown { a, b, from, until } => {
                if a == b || a >= self.scenario.n || b >= self.scenario.n {
                    self.note(step, kind, "skipped", "invalid-endpoints");
                    return Ok(());
                }
                let (from, until) = (
                    from.clamp(0, MAX_TIME).min(until.clamp(0, MAX_TIME)),
                    until.clamp(0, MAX_TIME).max(from.clamp(0, MAX_TIME)),
                );
                self.plan = std::mem::take(&mut self.plan).link_down(
                    ProcessorId(a),
                    ProcessorId(b),
                    RealTime::from_nanos(from),
                    RealTime::from_nanos(until),
                );
                self.note(step, kind, "applied", "");
                Ok(())
            }
            Event::Crash { p, at } => {
                if p >= self.scenario.n {
                    self.note(step, kind, "skipped", "invalid-endpoints");
                    return Ok(());
                }
                self.plan = std::mem::take(&mut self.plan)
                    .crash(ProcessorId(p), RealTime::from_nanos(at.clamp(0, MAX_TIME)));
                self.note(step, kind, "applied", "");
                Ok(())
            }
            Event::Jump { p, at, back } => {
                if p >= self.scenario.n {
                    self.note(step, kind, "skipped", "invalid-endpoints");
                    return Ok(());
                }
                self.world
                    .jump_back(p, at.clamp(0, MAX_TIME), back.clamp(0, MAX_MARGIN));
                self.note(step, kind, "applied", "");
                Ok(())
            }
            Event::Drift { p, at, ppm } => {
                if p >= self.scenario.n {
                    self.note(step, kind, "skipped", "invalid-endpoints");
                    return Ok(());
                }
                self.world
                    .set_rate(p, at.clamp(0, MAX_TIME), ppm.clamp(-100_000, 100_000));
                self.note(step, kind, "applied", "");
                Ok(())
            }
            Event::Compact => self.compact(step, kind),
            Event::Checkpoint => {
                self.note(step, kind, "applied", "");
                Ok(())
            }
        }
    }

    fn remove_link(
        &mut self,
        step: usize,
        kind: &str,
        a: usize,
        b: usize,
    ) -> Result<(), (Oracle, String)> {
        let valid = a != b && a < self.scenario.n && b < self.scenario.n;
        let key = (a.min(b), a.max(b));
        if !valid || !self.active.remove(&key) {
            self.note(step, kind, "skipped", "inactive-link");
            return Ok(());
        }
        let (p, q) = (ProcessorId(key.0), ProcessorId(key.1));
        let (online_dropped, seq_receipt) = guard("forget_link", || {
            let online_dropped = self.online.forget_link(p, q);
            let seq_receipt = self.seq.forget_link(DOMAIN, p, q);
            (online_dropped, seq_receipt)
        })?;
        let conc_receipt = self
            .conc
            .as_ref()
            .expect("concurrent service lives until the run ends")
            .forget_link(DOMAIN, p, q);
        if seq_receipt != conc_receipt {
            return Err((
                Oracle::ConcurrentEqualsSequential,
                format!(
                    "forget_link receipts diverged: sequential {seq_receipt:?}, concurrent {conc_receipt:?}"
                ),
            ));
        }
        // Retraction is the one operation allowed to loosen estimates:
        // restart the monotone-tightening baseline.
        self.prev_closure = None;
        self.journal.record(Json::object([
            ("type", Json::Str("event".into())),
            ("step", Json::Int(step as i128)),
            ("kind", Json::Str(kind.into())),
            ("action", Json::Str("applied".into())),
            ("online_samples_dropped", Json::Int(online_dropped as i128)),
            (
                "window_messages_dropped",
                Json::Int(seq_receipt.map_or(-1, |r| r.messages_dropped as i128)),
            ),
        ]));
        Ok(())
    }

    #[allow(clippy::too_many_arguments)]
    fn probe(
        &mut self,
        step: usize,
        kind: &str,
        src: usize,
        dst: usize,
        at: i64,
        delay: i64,
    ) -> Result<(), (Oracle, String)> {
        let n = self.scenario.n;
        if src == dst || src >= n || dst >= n {
            self.probes_skipped += 1;
            self.note(step, kind, "skipped", "invalid-endpoints");
            return Ok(());
        }
        let key = (src.min(dst), src.max(dst));
        if !self.active.contains(&key) {
            self.probes_skipped += 1;
            self.note(step, kind, "skipped", "inactive-link");
            return Ok(());
        }
        let (lo, hi) = self.links[&key];
        let at = at.clamp(0, MAX_TIME);
        let delay = delay.clamp(lo, hi);

        // Fault decisions come from a stream keyed by the probe's own
        // content, so deleting unrelated events during shrinking never
        // reshuffles this probe's coin flips.
        let mut frng = VoprRng::keyed(
            self.scenario.seed,
            &[
                FAULT_SALT,
                key.0 as u64,
                key.1 as u64,
                at as u64,
                delay as u64,
            ],
        );
        let faults = self.plan.link_faults(key).cloned().unwrap_or_default();
        let to_ppm = |prob: f64| (prob * 1e6).round() as u32;

        if let Some(t) = self.plan.crash_time(ProcessorId(src)) {
            if t.offset().as_nanos() <= at {
                self.probes_dropped += 1;
                self.note(step, kind, "dropped", "sender-crashed");
                return Ok(());
            }
        }
        if faults.is_down_at(RealTime::from_nanos(at)) {
            self.probes_dropped += 1;
            self.note(step, kind, "dropped", "link-down");
            return Ok(());
        }
        if frng.chance_ppm(to_ppm(faults.drop_prob)) {
            self.probes_dropped += 1;
            self.note(step, kind, "dropped", "fault-drop");
            return Ok(());
        }
        let delay = if frng.chance_ppm(to_ppm(faults.reorder_prob)) {
            // Reordered past later traffic: resample towards the tail of
            // the same bounds (max of two draws), as the sim engine does.
            delay.max(frng.range_i64(lo, hi))
        } else {
            delay
        };
        if let Some(t) = self.plan.crash_time(ProcessorId(dst)) {
            if t.offset().as_nanos() <= at + delay {
                self.probes_dropped += 1;
                self.note(step, kind, "dropped", "receiver-crashed");
                return Ok(());
            }
        }

        let send = self.world.reading(src, at);
        let recv = self.world.reading(dst, at + delay);
        let (send, recv) = match (send, recv) {
            (Some(s), Some(r)) => (s, r),
            _ => {
                // A reading before the clock's epoch: the service layer
                // rejects negative clock values while the reference
                // accepts them, so skip deterministically rather than
                // desynchronize the lockstep.
                self.probes_skipped += 1;
                self.note(step, kind, "skipped", "unrepresentable-reading");
                return Ok(());
            }
        };
        let mut observations = vec![BatchObservation {
            src: ProcessorId(src),
            dst: ProcessorId(dst),
            send_clock: ClockTime::from_nanos(send),
            recv_clock: ClockTime::from_nanos(recv),
        }];
        if frng.chance_ppm(to_ppm(faults.dup_prob)) {
            let dup_delay = frng.range_i64(lo, hi);
            if let Some(dup_recv) = self.world.reading(dst, at + dup_delay) {
                observations.push(BatchObservation {
                    src: ProcessorId(src),
                    dst: ProcessorId(dst),
                    send_clock: ClockTime::from_nanos(send),
                    recv_clock: ClockTime::from_nanos(dup_recv),
                });
            }
        }

        let batch = ObservationBatch::new(DOMAIN, observations.clone());
        let online_result = guard("reference ingest", || {
            self.online.ingest_batch(&observations)
        })?;
        // A sequential engine that panics where the reference did not (or
        // on a batch that never reached the reference's validation) ends
        // the run here: the concurrent engine must NOT see this batch, as
        // its worker would die on the same panic and poison every later
        // comparison.
        let seq_result = guard("service ingest", || self.seq.ingest(&batch))?;
        if online_result.is_err() != seq_result.is_err() {
            return Err((
                Oracle::WindowedEqualsFull,
                format!(
                    "ingest acceptance diverged: reference {:?}, sequential {:?}",
                    online_result
                        .as_ref()
                        .map(|_| "ok")
                        .map_err(|e| e.to_string()),
                    seq_result.as_ref().map(|_| "ok").map_err(|e| e.to_string()),
                ),
            ));
        }
        if seq_result.is_err() {
            self.probes_skipped += 1;
            self.note(step, kind, "rejected", "validation");
            return Ok(());
        }
        let conc_result = self
            .conc
            .as_ref()
            .expect("concurrent service lives until the run ends")
            .ingest(batch)
            .and_then(|pending| pending.wait());
        if conc_result != seq_result {
            return Err((
                Oracle::ConcurrentEqualsSequential,
                format!(
                    "ingest receipts diverged: sequential {seq_result:?}, concurrent {conc_result:?}"
                ),
            ));
        }
        self.probes_applied += 1;
        self.journal.record(Json::object([
            ("type", Json::Str("event".into())),
            ("step", Json::Int(step as i128)),
            ("kind", Json::Str(kind.into())),
            ("action", Json::Str("applied".into())),
            ("observations", Json::Int(observations.len() as i128)),
            ("send_clock", Json::Int(i128::from(send))),
            ("recv_clock", Json::Int(i128::from(recv))),
        ]));
        Ok(())
    }

    fn compact(&mut self, step: usize, kind: &str) -> Result<(), (Oracle, String)> {
        let window = self.window;
        let before = guard("closure computation", || self.online.global_estimates())?.ok();
        let dropped = guard("compact_evidence", || self.online.compact_evidence(window))?;
        if let Some(before) = before {
            let after = self.online.global_estimates();
            match after {
                Ok(after) if after == before => {}
                Ok(after) => {
                    let diff = before
                        .iter()
                        .find(|&(i, j, b)| *after.get(i, j) != *b)
                        .map(|(i, j, b)| {
                            format!("m[{i},{j}] changed from {} to {}", *b, *after.get(i, j))
                        })
                        .unwrap_or_else(|| "matrices differ".to_string());
                    return Err((Oracle::CompactionNeverLoosens, diff));
                }
                Err(e) => {
                    return Err((
                        Oracle::CompactionNeverLoosens,
                        format!("closure became uncomputable after compaction: {e}"),
                    ))
                }
            }
        }
        self.journal.record(Json::object([
            ("type", Json::Str("event".into())),
            ("step", Json::Int(step as i128)),
            ("kind", Json::Str(kind.into())),
            ("action", Json::Str("applied".into())),
            ("samples_dropped", Json::Int(dropped as i128)),
        ]));
        Ok(())
    }

    /// The full oracle catalogue; `checkpoint` additionally journals the
    /// outcome summary.
    fn sweep(&mut self, step: usize, checkpoint: bool) -> Result<(), (Oracle, String)> {
        let online_out = guard("reference outcome", || self.online.outcome())?;
        self.check_warm_equals_cold(&online_out)?;
        let seq_out = guard("service outcome", || self.seq.outcome(DOMAIN))?;
        let conc_out = self
            .conc
            .as_ref()
            .expect("concurrent service lives until the run ends")
            .outcome(DOMAIN);

        let outcome = match (&online_out, &seq_out) {
            (Ok(on), Ok(sq)) => {
                if on != sq {
                    return Err((
                        Oracle::WindowedEqualsFull,
                        format!(
                            "outcomes diverged: reference precision {}, windowed precision {}",
                            on.precision(),
                            sq.precision(),
                        ),
                    ));
                }
                on.clone()
            }
            (Err(on), Err(sq)) => {
                // Both targets reject the evidence the same way (e.g.
                // contradictory observations): consistent, nothing more
                // to check this sweep.
                if on.to_string() != sq.to_string() {
                    return Err((
                        Oracle::WindowedEqualsFull,
                        format!("errors diverged: reference `{on}`, windowed `{sq}`"),
                    ));
                }
                self.journal.record(Json::object([
                    ("type", Json::Str("outcome".into())),
                    ("step", Json::Int(step as i128)),
                    ("error", Json::Str(on.to_string())),
                ]));
                // Contradictory evidence is exactly where the kernels'
                // negative-cycle detection must also stay in lockstep.
                return self
                    .check_sparse_kernels()
                    .map_err(|detail| (Oracle::SparseEqualsDense, detail));
            }
            (on, sq) => {
                return Err((
                    Oracle::WindowedEqualsFull,
                    format!(
                        "one target errored: reference ok={}, windowed ok={}",
                        on.is_ok(),
                        sq.is_ok()
                    ),
                ));
            }
        };
        match &conc_out {
            Ok(c) if *c == outcome => {}
            Ok(c) => {
                return Err((
                    Oracle::ConcurrentEqualsSequential,
                    format!(
                        "outcomes diverged: sequential precision {}, concurrent precision {}",
                        outcome.precision(),
                        c.precision(),
                    ),
                ));
            }
            Err(e) => {
                return Err((
                    Oracle::ConcurrentEqualsSequential,
                    format!("concurrent outcome errored: {e}"),
                ));
            }
        }

        for (oracle, check) in SWEEP_CHECKS {
            check(self, &outcome).map_err(|detail| (oracle, detail))?;
        }

        if checkpoint {
            self.journal.record(Json::object([
                ("type", Json::Str("outcome".into())),
                ("step", Json::Int(step as i128)),
                ("precision", Json::Str(outcome.precision().to_string())),
                ("components", Json::Int(outcome.components().len() as i128)),
                (
                    "retained_samples",
                    Json::Int(self.online.retained_samples() as i128),
                ),
            ]));
        }
        Ok(())
    }

    /// A clone of the reference that drops its caches must compute the
    /// very same outcome, or the same error: the cached closure, the
    /// revalidated certificates and the warm Howard restarts never change
    /// an answer.
    fn check_warm_equals_cold(
        &self,
        warm: &Result<SyncOutcome, SyncError>,
    ) -> Result<(), (Oracle, String)> {
        let mut cold = self.online.clone();
        cold.invalidate_caches();
        let cold_out = guard("cache-free outcome", || cold.outcome())?;
        let detail = match (warm, &cold_out) {
            (Ok(w), Ok(c)) if w == c => return Ok(()),
            (Err(w), Err(c)) if w == c => return Ok(()),
            (Ok(w), Ok(c)) => format!(
                "outcomes diverged: warm precision {}, cold precision {}",
                w.precision(),
                c.precision(),
            ),
            (Err(w), Err(c)) => format!("errors diverged: warm `{w}`, cold `{c}`"),
            (w, c) => format!(
                "one side errored: warm ok={}, cold ok={}",
                w.is_ok(),
                c.is_ok()
            ),
        };
        Err((Oracle::WarmEqualsCold, detail))
    }

    fn check_identity(&self, outcome: &SyncOutcome) -> Result<(), String> {
        let rho = outcome.rho_bar(outcome.corrections());
        if rho != outcome.precision() {
            return Err(format!(
                "rho_bar(corrections) = {} but precision (A_max) = {}",
                rho,
                outcome.precision(),
            ));
        }
        Ok(())
    }

    fn check_soundness(&self, outcome: &SyncOutcome) -> Result<(), String> {
        let offsets = self.world.offsets();
        let check = |matrix: &SquareMatrix<ExtRatio>, what: &str| {
            for (p, q, &bound) in matrix.iter_off_diagonal() {
                let true_shift = Ext::Finite(Ratio::from_int(
                    i128::from(offsets[q]) - i128::from(offsets[p]),
                ));
                if true_shift > bound {
                    return Err(format!(
                        "{what} m[{p},{q}] = {} excludes the true shift {} (offsets {} and {})",
                        bound, true_shift, offsets[p], offsets[q],
                    ));
                }
            }
            Ok(())
        };
        check(self.online.local_estimates(), "local estimate")?;
        check(&outcome.global_shift_estimates(), "closed estimate")
    }

    /// The sparse Johnson closure kernel against the dense blocked kernel,
    /// on the scaled local-estimate matrix of this very sweep — the fuzzed
    /// form of `tests/sparse_equivalence.rs`, driven by evidence shapes the
    /// proptest generators never produce.
    fn check_sparse_kernels(&self) -> Result<(), String> {
        let local = self.online.local_estimates();
        let Ok(scaled) = clocksync_graph::scaled_weights(local) else {
            // Estimates without half-nanosecond counts run on the generic
            // rational kernel; there is no i64 kernel pair to compare.
            return Ok(());
        };
        let dense = clocksync_graph::blocked_floyd_warshall_i64(&scaled);
        let sparse = clocksync_graph::sparse_closure_i64(&scaled);
        match (&dense, &sparse) {
            (Ok(dd), Ok(sd)) => {
                if let Some((i, j, &got)) = sd.iter().find(|&(i, j, &v)| v != *dd.get(i, j)) {
                    return Err(format!(
                        "sparse kernel disagrees at [{i},{j}]: dense {}, sparse {got}",
                        *dd.get(i, j),
                    ));
                }
            }
            (Err(_), Err(_)) => {}
            _ => {
                return Err(format!(
                    "negative-cycle detection diverged: dense ok={}, sparse ok={}",
                    dense.is_ok(),
                    sparse.is_ok(),
                ));
            }
        }
        Ok(())
    }

    /// Re-reads every link's accumulated evidence through Marzullo quorum
    /// fusion over the same widened declared range the network was built
    /// with. Every delivered sample is honest with respect to that range
    /// (the perturbation budget is absorbed into the widening), so for any
    /// assumed fault count `f` with at least one honest vote left:
    ///
    /// * the quorum must be reached and the fused interval must contain
    ///   the true base offset difference (soundness under fault overlays);
    /// * at `f = 0` the fused `m̃ls` must equal the Lemma 6.2 bounds
    ///   estimator bit-for-bit in both orientations (degeneracy);
    /// * the fused interval must equal — in particular never be looser
    ///   than — the hull of the intersections of all quorum-sized sample
    ///   subsets, each of which is an honest subset here (checked by
    ///   exhaustive enumeration when the link holds ≤ 10 samples).
    fn check_marzullo(&self) -> Result<(), String> {
        let margin = self.scenario.margin.clamp(0, MAX_MARGIN);
        for (&(a, b), &(lo, hi)) in &self.links {
            let (p, q) = (ProcessorId(a), ProcessorId(b));
            let evidence = self.online.observations().evidence(p, q);
            let fwd = evidence.forward_samples;
            let bwd = evidence.backward_samples;
            let k = fwd.len() + bwd.len();
            if k == 0 {
                continue;
            }
            let widened = DelayRange::new(Nanos::new(lo - 2 * margin), Nanos::new(hi + 2 * margin));
            let delta = i128::from(self.world.offset(b)) - i128::from(self.world.offset(a));
            let bounds = LinkAssumption::symmetric_bounds(widened);
            for f in 0..=2usize.min(k - 1) {
                let fused = LinkAssumption::marzullo_quorum(widened, widened, f);
                let Some(stats) = fused.fusion_stats(&evidence) else {
                    return Err(format!("link {a}-{b}: no fusion stats"));
                };
                if !stats.quorum_reached {
                    return Err(format!(
                        "link {a}-{b}, f={f}: all {k} samples honest but the \
                         quorum of {} was not reached",
                        stats.quorum
                    ));
                }
                if stats.fused_lo > Ext::Finite(delta) || Ext::Finite(delta) > stats.fused_hi {
                    return Err(format!(
                        "link {a}-{b}, f={f}: fused interval [{:?}, {:?}] excludes \
                         the true offset difference {delta}",
                        stats.fused_lo, stats.fused_hi
                    ));
                }
                if f == 0 {
                    let (fm, bm) = (
                        fused.estimated_mls(&evidence),
                        bounds.estimated_mls(&evidence),
                    );
                    let rev = evidence.reversed();
                    let (fr, br) = (
                        fused.reversed().estimated_mls(&rev),
                        bounds.reversed().estimated_mls(&rev),
                    );
                    if fm != bm || fr != br {
                        return Err(format!(
                            "link {a}-{b}: f=0 fusion diverged from the bounds \
                             estimator: {} vs {} forward, {} vs {} reverse",
                            fm, bm, fr, br,
                        ));
                    }
                }
                if f > 0 && k <= 10 {
                    let hull = honest_subset_hull(widened, fwd, bwd, k - f);
                    if hull != Some((stats.fused_lo, stats.fused_hi)) {
                        return Err(format!(
                            "link {a}-{b}, f={f}: fused interval [{:?}, {:?}] differs \
                             from the honest-subset hull {hull:?}",
                            stats.fused_lo, stats.fused_hi
                        ));
                    }
                }
            }
        }
        Ok(())
    }

    fn check_monotone(&mut self, outcome: &SyncOutcome) -> Result<(), String> {
        let cur = outcome.global_shift_estimates();
        if let Some(prev) = &self.prev_closure {
            for (i, j, &c) in cur.iter() {
                let p = *prev.get(i, j);
                if c > p {
                    return Err(format!(
                        "m[{i},{j}] loosened from {} to {} without a retraction",
                        p, c,
                    ));
                }
            }
        }
        self.prev_closure = Some(cur);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_node(window: usize) -> Scenario {
        Scenario {
            seed: 1,
            n: 2,
            shards: 1,
            window,
            margin: 0,
            offsets: vec![0, 250],
            events: vec![
                Event::AddLink {
                    a: 0,
                    b: 1,
                    lo: 100,
                    hi: 400,
                },
                Event::Probe {
                    src: 0,
                    dst: 1,
                    at: 1_000,
                    delay: 100,
                },
                Event::Probe {
                    src: 1,
                    dst: 0,
                    at: 2_000,
                    delay: 400,
                },
                Event::Compact,
                Event::Checkpoint,
            ],
        }
    }

    #[test]
    fn clean_two_node_scenario_passes() {
        let report = run_scenario(&two_node(8));
        assert!(report.passed(), "failure: {:?}", report.failure);
        assert_eq!(report.probes_applied, 2);
        assert_eq!(report.steps, 5);
        assert!(!report.journal.is_empty());
    }

    #[test]
    fn window_zero_passes_on_the_fixed_build() {
        // Under `--features bug-window0` this very shape panics inside the
        // window GC; the fixed build must sail through.
        #[cfg(not(feature = "bug-window0"))]
        {
            let report = run_scenario(&two_node(0));
            assert!(report.passed(), "failure: {:?}", report.failure);
        }
        #[cfg(feature = "bug-window0")]
        {
            let report = run_scenario(&two_node(0));
            let failure = report.failure.expect("bug-window0 must trip the fuzzer");
            assert_eq!(failure.oracle, Oracle::NoPanic);
        }
    }

    #[test]
    fn journals_are_byte_identical_across_runs() {
        let s = crate::generate(0xC0FFEE);
        let a = run_scenario(&s);
        let b = run_scenario(&s);
        assert_eq!(a.journal.to_jsonl(), b.journal.to_jsonl());
        assert_eq!(a.passed(), b.passed());
    }

    #[test]
    fn soundness_orientation_is_pinned() {
        // One message p -> q with delay exactly at the lower bound and a
        // huge true offset: if the soundness check's orientation were
        // flipped, this run would fail (the interval is tight on one
        // side). Guards against silently weakening the oracle.
        let s = Scenario {
            seed: 2,
            n: 2,
            shards: 1,
            window: 4,
            margin: 0,
            offsets: vec![0, 40_000],
            events: vec![
                Event::AddLink {
                    a: 0,
                    b: 1,
                    lo: 100,
                    hi: 100,
                },
                Event::Probe {
                    src: 0,
                    dst: 1,
                    at: 1_000,
                    delay: 100,
                },
                Event::Probe {
                    src: 1,
                    dst: 0,
                    at: 2_000,
                    delay: 100,
                },
                Event::Checkpoint,
            ],
        };
        let report = run_scenario(&s);
        assert!(report.passed(), "failure: {:?}", report.failure);
    }

    #[test]
    fn negative_offsets_still_apply_their_probes() {
        // Processor 1's clock is 40 µs behind processor 0's, so unshifted
        // it would read below zero at every probe of this scenario.
        let mut s = two_node(8);
        s.offsets = vec![0, -40_000];
        let report = run_scenario(&s);
        assert!(report.passed(), "failure: {:?}", report.failure);
        assert_eq!(report.probes_applied, 2);
        assert_eq!(report.probes_skipped, 0);
    }

    #[test]
    fn invalid_scenarios_run_as_empty_and_pass() {
        let mut s = two_node(4);
        s.offsets.pop();
        let report = run_scenario(&s);
        assert!(report.passed());
        assert_eq!(report.steps, 0);
    }
}
