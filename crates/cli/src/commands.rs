//! The `simulate`, `sync` and `explain` operations.

use clocksync::{
    estimated_local_shifts, reconstruct_path, shortest_path_successors, SyncOutcome, Synchronizer,
};
use clocksync_model::{discrepancy, ProcessorId};
use clocksync_obs::Recorder;
use clocksync_sim::{DelayDistribution, FaultPlan, LinkModel, Simulation, Topology};
use clocksync_time::{Ext, ExtRatio, Nanos, Ratio, RealTime};

use crate::runfile::{LinkEntry, RunFile};
use crate::Args;

fn fmt_us(v: Ratio) -> String {
    format!("{:.3}us", v.to_f64() / 1_000.0)
}

fn fmt_ext(v: ExtRatio) -> String {
    match v {
        Ext::Finite(v) => fmt_us(v),
        Ext::PosInf => "unbounded".into(),
        Ext::NegInf => "-unbounded".into(),
    }
}

/// Builds the topology selected by `--topology` (and `--n`, `--rows`,
/// `--cols`, `--extra-per-mille`), rejecting sizes it cannot build: a ring
/// needs three nodes, every other topology one.
fn topology(args: &Args) -> Result<Topology, String> {
    let kind = args.get_str("topology", "ring");
    let at_least = |flag: &str, value: usize, min: usize| {
        if value < min {
            Err(format!(
                "flag --{flag}: a {kind} needs at least {min}, got {value}"
            ))
        } else {
            Ok(value)
        }
    };
    let min_n = if kind == "ring" { 3 } else { 1 };
    let n = || at_least("n", args.get_usize("n", 4)?, min_n);
    Ok(match kind {
        "path" => Topology::Path(n()?),
        "ring" => Topology::Ring(n()?),
        "star" => Topology::Star(n()?),
        "complete" => Topology::Complete(n()?),
        "grid" => Topology::Grid {
            rows: at_least("rows", args.get_usize("rows", 2)?, 1)?,
            cols: at_least("cols", args.get_usize("cols", 3)?, 1)?,
        },
        "random" => Topology::RandomConnected {
            n: n()?,
            extra_per_mille: args.get_usize("extra-per-mille", 200)? as u32,
        },
        other => return Err(format!("unknown topology `{other}`")),
    })
}

/// The microsecond flag `--flag` in nanoseconds, rejecting a value below
/// `min` µs or past `i64` nanoseconds: the simulator asserts its domains
/// deep inside a run, so they are checked here, naming the flag.
fn micros(args: &Args, flag: &str, default: i64, min: i64) -> Result<Nanos, String> {
    let us = args.get_i64(flag, default)?;
    if us < min {
        return Err(format!("flag --{flag}: `{us}` must be at least {min}"));
    }
    us.checked_mul(1_000)
        .map(Nanos::new)
        .ok_or_else(|| format!("flag --{flag}: `{us}` µs overflows i64 nanoseconds"))
}

/// Builds the per-link delay model from `--model` and its parameters,
/// with the longest delay it can draw.
fn link_model(args: &Args) -> Result<(LinkModel, Nanos), String> {
    let lo = micros(args, "lo-us", 50, 0)?;
    let hi = || {
        let hi = micros(args, "hi-us", 400, 0)?;
        if hi < lo {
            return Err(format!("flag --hi-us: `{hi}` is below --lo-us `{lo}`"));
        }
        Ok(hi)
    };
    Ok(match args.get_str("model", "uniform") {
        "uniform" => {
            let hi = hi()?;
            (LinkModel::symmetric(DelayDistribution::uniform(lo, hi)), hi)
        }
        "heavy-tail" => {
            // The distribution's domain is alpha > 0; a zero or negative
            // value would panic deep inside the sampler, so reject it at
            // the flag boundary with a message naming the flag.
            let alpha = args.get_f64("alpha", 1.3)?;
            if alpha <= 0.0 {
                return Err(format!("flag --alpha: `{alpha}` must be positive"));
            }
            let scale = micros(args, "scale-us", 100, 1)?;
            let model = DelayDistribution::heavy_tail(lo, scale, alpha);
            let longest = lo.checked_add(clocksync_sim::HEAVY_TAIL_CAP);
            let longest =
                longest.ok_or("flag --lo-us: the heavy tail overflows i64 nanoseconds")?;
            (LinkModel::symmetric(model), longest)
        }
        "bias" => {
            let (hi, spread) = (hi()?, micros(args, "bias-us", 200, 0)?);
            let longest = hi.checked_add(spread);
            let longest = longest.ok_or("flag --bias-us: the jitter overflows i64 nanoseconds")?;
            let base = DelayDistribution::uniform(lo, hi);
            (LinkModel::Correlated { base, spread }, longest)
        }
        other => return Err(format!("unknown model `{other}`")),
    })
}

/// `clocksync simulate`: generate and run a scenario, returning the run
/// file content (the binary writes it to `--out`, or stdout).
///
/// # Errors
///
/// Returns a message for invalid flags or impossible scenarios.
pub fn simulate(args: &Args) -> Result<RunFile, String> {
    simulate_traced(args, &Recorder::disabled())
}

/// [`simulate`] with an observability recorder attached: the engine emits
/// its `sim.run` span, `sim.*` counters and per-round probe events into
/// `recorder`. Recording changes nothing about the generated run.
///
/// # Errors
///
/// Returns a message for invalid flags or impossible scenarios.
pub fn simulate_traced(args: &Args, recorder: &Recorder) -> Result<RunFile, String> {
    Ok(SimulatePlan::from_args(args, recorder)?.run())
}

/// A `clocksync simulate` scenario whose flags are all read and checked,
/// not yet run.
pub struct SimulatePlan {
    sim: Simulation,
    seed: u64,
}

impl SimulatePlan {
    /// Reads and checks every flag the scenario uses and builds the
    /// simulation, reporting to `recorder`.
    ///
    /// # Errors
    ///
    /// Returns a message for invalid flags or impossible scenarios.
    pub fn from_args(args: &Args, recorder: &Recorder) -> Result<SimulatePlan, String> {
        let topo = topology(args)?;
        let (model, longest_delay) = link_model(args)?;
        let seed = args.get_u64("seed", 0)?;
        let probes = args.get_usize("probes", 3)?;
        if probes == 0 {
            return Err("flag --probes: must be at least 1".to_string());
        }
        let spacing = micros(args, "spacing-us", 10_000, 1)?;
        let spread = micros(args, "spread-us", 5_000, 0)?;
        // Loss is parts-per-million of messages dropped, applied uniformly to
        // every link; the domain check catches NaN/negative/overfull values
        // at the flag boundary.
        let loss_ppm = args.get_f64_in("loss-ppm", 0.0, 0.0, 1_000_000.0)?;

        let edges: Vec<(usize, usize)> = {
            use rand::SeedableRng;
            let mut topo_rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0x7090);
            topo.edges(&mut topo_rng)
        };
        // A run processes n starts, one timer per probe round at every node
        // that initiates a link, and a probe and its echo per link and round.
        // The engine panics past its event cap, and its clock arithmetic past
        // i64 nanoseconds, so both are checked before simulating.
        let initiators: std::collections::BTreeSet<_> =
            edges.iter().map(|&(a, b)| a.min(b)).collect();
        let events = probes
            .saturating_mul(initiators.len() + 2 * edges.len())
            .saturating_add(topo.n());
        if events > clocksync_sim::MAX_EVENTS {
            return Err(format!(
                "flag --probes: {probes} rounds over {} links make {events} events, past the simulator's cap of {}",
                edges.len(),
                clocksync_sim::MAX_EVENTS
            ));
        }
        // Every node starts within the spread and fires its last round at most
        // spread + 100 µs + (probes − 1)·spacing later; a probe and its echo
        // each take at most the longest delay.
        let ns = |x: Nanos| i128::from(x.as_nanos());
        let last = 2 * ns(spread) + 100_000 + probes as i128 * ns(spacing) + 2 * ns(longest_delay);
        if last > i128::from(i64::MAX) {
            return Err(
                "flags --spread-us, --spacing-us and --probes: the probe schedule runs past i64 nanoseconds"
                    .to_string(),
            );
        }
        let mut builder = Simulation::builder(topo.n());
        for &(a, b) in &edges {
            builder = builder.truthful_link(a, b, model.clone());
        }
        if loss_ppm > 0.0 {
            let mut plan = FaultPlan::new();
            for &(a, b) in &edges {
                plan = plan.drop_messages(ProcessorId(a), ProcessorId(b), loss_ppm / 1_000_000.0);
            }
            builder = builder.faults(plan);
        }
        let sim = builder
            .probes(probes)
            .spacing(spacing)
            .start_spread(spread)
            .recorder(recorder.clone())
            .build();
        Ok(SimulatePlan { sim, seed })
    }

    /// Runs the simulation and returns the run file content.
    pub fn run(&self) -> RunFile {
        let run = self.sim.run(self.seed);
        let links = self
            .sim
            .links()
            .iter()
            .map(|l| LinkEntry {
                a: l.a,
                b: l.b,
                assumption: l.assumption.clone(),
            })
            .collect();
        RunFile {
            processors: self.sim.n(),
            links,
            views: run.execution.views().clone(),
            true_starts_ns: Some(
                run.execution
                    .starts()
                    .iter()
                    .map(|&s| (s - RealTime::ZERO).as_nanos())
                    .collect(),
            ),
        }
    }
}

/// The text report of a synchronization, shared by `sync` and `explain`.
pub struct SyncReport {
    /// The computed outcome.
    pub outcome: SyncOutcome,
    /// True discrepancy, when the run file carried ground truth.
    pub true_error: Option<Ratio>,
}

/// `clocksync sync`: synchronize a run file.
///
/// # Errors
///
/// Returns a message for invalid views or inconsistent observations.
pub fn sync(run: &RunFile) -> Result<SyncReport, String> {
    sync_traced(run, &Recorder::disabled())
}

/// [`sync`] with an observability recorder attached: the synchronizer
/// emits its per-stage `sync.*` spans (including which closure kernel ran)
/// into `recorder`, and the ground-truth check a `cli.ground_truth` span.
/// The outcome is bit-for-bit the same either way.
///
/// # Errors
///
/// Returns a message for invalid views or inconsistent observations.
pub fn sync_traced(run: &RunFile, recorder: &Recorder) -> Result<SyncReport, String> {
    let outcome = Synchronizer::new(run.network())
        .with_recorder(recorder.clone())
        .synchronize(&run.views)
        .map_err(|e| e.to_string())?;
    // The run file's parser holds one start per processor.
    let true_error = run.true_starts_ns.as_ref().map(|starts| {
        let _span = recorder.span("cli.ground_truth");
        let starts: Vec<RealTime> = starts.iter().map(|&ns| RealTime::from_nanos(ns)).collect();
        discrepancy(&starts, outcome.corrections())
    });
    Ok(SyncReport {
        outcome,
        true_error,
    })
}

/// Renders the `sync` result as human-readable lines.
pub fn render_sync(report: &SyncReport) -> Vec<String> {
    let mut out = Vec::new();
    out.push(format!(
        "precision: {}",
        fmt_ext(report.outcome.precision())
    ));
    for (i, &x) in report.outcome.corrections().iter().enumerate() {
        out.push(format!("correction p{i}: {}", fmt_us(x)));
    }
    for s in report.outcome.local_skews() {
        out.push(format!(
            "local skew p{}-p{}: {}",
            s.a.index(),
            s.b.index(),
            fmt_ext(s.skew)
        ));
    }
    if let Some(w) = report.outcome.worst_edge() {
        out.push(format!(
            "worst edge: p{}-p{} at {}",
            w.a.index(),
            w.b.index(),
            fmt_ext(w.skew)
        ));
    }
    if let Some(err) = report.true_error {
        out.push(format!("true discrepancy (ground truth): {}", fmt_us(err)));
        let ok = Ext::Finite(err) <= report.outcome.precision();
        out.push(format!("guarantee honored: {ok}"));
    }
    out
}

/// Renders the full diagnosis for `clocksync explain`. Each pair's
/// constraint chain comes from one successor matrix, derived from the run
/// file's per-link `m̃ls` and the outcome's closure.
pub fn render_explain(report: &SyncReport, run: &RunFile) -> Vec<String> {
    let mut out = render_sync(report);
    let outcome = &report.outcome;
    let network = run.network();
    let local = estimated_local_shifts(&network, &network.link_observations(&run.views));
    let next = shortest_path_successors(&local, &outcome.global_shift_estimates());
    for (k, comp) in outcome.components().iter().enumerate() {
        out.push(format!(
            "component {k}: members {:?}, precision {}, critical cycle {}",
            comp.members.iter().map(|p| p.index()).collect::<Vec<_>>(),
            fmt_us(comp.precision),
            comp.critical_cycle
                .iter()
                .map(|p| p.to_string())
                .collect::<Vec<_>>()
                .join(" -> "),
        ));
    }
    for i in 0..run.processors {
        for j in (i + 1)..run.processors {
            let chain = reconstruct_path(&next, i, j)
                .map(|c| {
                    c.iter()
                        .map(|&p| ProcessorId(p).to_string())
                        .collect::<Vec<_>>()
                        .join(" -> ")
                })
                .unwrap_or_else(|| "(unbounded)".into());
            out.push(format!(
                "pair p{i} vs p{j}: {}  via {chain}",
                fmt_ext(outcome.pair_bound(ProcessorId(i), ProcessorId(j)))
            ));
        }
    }
    if let Some((p, q)) = outcome.bottleneck_pair() {
        out.push(format!("bottleneck: {p} vs {q}"));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(parts: &[&str]) -> Args {
        Args::parse(parts.iter().map(|s| s.to_string())).unwrap()
    }

    #[test]
    fn simulate_sync_round_trip() {
        let a = args(&["simulate", "--topology", "ring", "--n", "5", "--seed", "9"]);
        let run = simulate(&a).unwrap();
        assert_eq!(run.processors, 5);
        assert_eq!(run.links.len(), 5);
        let report = sync(&run).unwrap();
        assert!(report.outcome.precision().is_finite());
        let err = report.true_error.expect("truth recorded");
        assert!(Ext::Finite(err) <= report.outcome.precision());
        // Round trip through JSON changes nothing.
        let back = RunFile::from_json(&run.to_json().unwrap()).unwrap();
        let report2 = sync(&back).unwrap();
        assert_eq!(report2.outcome, report.outcome);
    }

    #[test]
    fn all_models_and_topologies_parse() {
        for topo in ["path", "ring", "star", "complete", "grid", "random"] {
            for model in ["uniform", "heavy-tail", "bias"] {
                let a = args(&["simulate", "--topology", topo, "--n", "4", "--model", model]);
                let run = simulate(&a).expect("valid combination");
                assert!(sync(&run).is_ok(), "{topo}/{model}");
            }
        }
    }

    #[test]
    fn degenerate_topology_sizes_are_rejected_by_flag() {
        for (topo, flag, value) in [
            ("ring", "--n", "2"),
            ("ring", "--n", "0"),
            ("path", "--n", "0"),
            ("star", "--n", "0"),
            ("complete", "--n", "0"),
            ("random", "--n", "0"),
            ("grid", "--rows", "0"),
            ("grid", "--cols", "0"),
        ] {
            let err = simulate(&args(&["simulate", "--topology", topo, flag, value])).unwrap_err();
            assert!(err.contains(flag), "{topo} {flag} {value}: {err}");
        }
        // The smallest buildable sizes still simulate and synchronize.
        for (topo, flag, value) in [
            ("ring", "--n", "3"),
            ("path", "--n", "1"),
            ("grid", "--rows", "1"),
        ] {
            let run = simulate(&args(&["simulate", "--topology", topo, flag, value])).unwrap();
            assert!(sync(&run).is_ok(), "{topo} {flag} {value}");
        }
    }

    #[test]
    fn out_of_domain_flag_values_are_rejected_by_flag() {
        for (extra, flag) in [
            (
                &["--topology", "ring", "--n", "3", "--probes", "200000"][..],
                "--probes",
            ),
            (
                &[
                    "--topology",
                    "random",
                    "--n",
                    "1024",
                    "--extra-per-mille",
                    "500",
                    "--probes",
                    "2",
                ],
                "--probes",
            ),
            (&["--probes", "0"], "--probes"),
            (&["--spread-us", "-5"], "--spread-us"),
            (&["--spread-us", "10000000000000000"], "--spread-us"),
            (&["--spacing-us", "-5"], "--spacing-us"),
            (&["--spacing-us", "0"], "--spacing-us"),
            (&["--lo-us", "500", "--hi-us", "100"], "--hi-us"),
            (&["--lo-us", "-1"], "--lo-us"),
            (&["--model", "bias", "--bias-us", "-1"], "--bias-us"),
            (&["--model", "heavy-tail", "--scale-us", "0"], "--scale-us"),
            (
                &["--spacing-us", "9000000000000000", "--probes", "2"],
                "--spacing-us",
            ),
        ] {
            let mut parts = vec!["simulate"];
            parts.extend_from_slice(extra);
            let err = simulate(&args(&parts)).expect_err("rejected");
            assert!(err.contains(flag), "{extra:?}: {err}");
        }
        // Clocks 10^18 ns apart still simulate.
        let far = args(&["simulate", "--n", "5", "--spread-us", "1000000000000000"]);
        assert!(sync(&simulate(&far).unwrap()).is_ok());
    }

    #[test]
    fn unknown_flags_are_reported() {
        assert!(simulate(&args(&["simulate", "--topology", "möbius"])).is_err());
        assert!(simulate(&args(&["simulate", "--model", "quantum"])).is_err());
    }

    #[test]
    fn alpha_and_loss_domains_are_enforced() {
        let bad_alpha = simulate(&args(&[
            "simulate",
            "--model",
            "heavy-tail",
            "--alpha",
            "-1.0",
        ]));
        assert!(bad_alpha.unwrap_err().contains("--alpha"));
        let bad_loss = simulate(&args(&["simulate", "--loss-ppm", "2000000"]));
        assert!(bad_loss.unwrap_err().contains("--loss-ppm"));
        let nan_loss = simulate(&args(&["simulate", "--loss-ppm", "NaN"]));
        assert!(nan_loss.is_err());
    }

    #[test]
    fn lossy_simulation_still_produces_a_syncable_run() {
        let a = args(&[
            "simulate",
            "--n",
            "4",
            "--loss-ppm",
            "300000",
            "--seed",
            "3",
        ]);
        let run = simulate(&a).unwrap();
        assert!(sync(&run).is_ok());
    }

    #[test]
    fn traced_simulate_and_sync_fill_the_recorder() {
        let recorder = Recorder::enabled();
        let a = args(&["simulate", "--n", "4", "--seed", "2"]);
        let run = simulate_traced(&a, &recorder).unwrap();
        let report = sync_traced(&run, &recorder).unwrap();
        assert!(report.outcome.precision().is_finite());
        let trace = recorder.snapshot();
        let spans = trace.span_names();
        assert!(spans.contains(&"sim.run"));
        assert!(spans.contains(&"sync.global_estimates"));
        assert!(trace
            .span_field("sync.global_estimates", "kernel")
            .is_some());
        assert!(trace.counter("sim.messages_delivered").unwrap_or(0) > 0);
        // The traced outcome is the same as the untraced one.
        assert_eq!(sync(&run).unwrap().outcome, report.outcome);
    }

    #[test]
    fn render_produces_expected_lines() {
        let run = simulate(&args(&["simulate", "--n", "3", "--topology", "path"])).unwrap();
        let report = sync(&run).unwrap();
        let lines = render_sync(&report);
        assert!(lines[0].starts_with("precision:"));
        assert!(lines.iter().any(|l| l.contains("guarantee honored: true")));
        // A 3-path has two declared edges; each gets a local-skew line
        // and the worst one is called out.
        assert!(lines.iter().any(|l| l.starts_with("local skew p0-p1:")));
        assert!(lines.iter().any(|l| l.starts_with("local skew p1-p2:")));
        assert!(lines.iter().any(|l| l.starts_with("worst edge: ")));
        let explained = render_explain(&report, &run);
        assert!(explained.iter().any(|l| l.starts_with("component 0")));
        assert!(explained.iter().any(|l| l.contains("pair p0 vs p2")));
    }
}
