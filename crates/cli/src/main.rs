//! The `clocksync` command-line tool.
//!
//! ```text
//! clocksync simulate [--topology ring|path|star|complete|grid|random]
//!                    [--n N] [--rows R] [--cols C] [--extra-per-mille E]
//!                    [--model uniform|heavy-tail|bias] [--lo-us L]
//!                    [--hi-us H] [--scale-us S] [--alpha A] [--bias-us B]
//!                    [--probes K] [--seed S] [--spacing-us U] [--spread-us U]
//!                    [--loss-ppm P] [--out FILE] [--trace FILE]
//! clocksync sync     --in FILE [--json true] [--trace FILE]
//! clocksync explain  --in FILE [--trace FILE]
//! clocksync serve    --in FILE [--shards K] [--window W] [--trace FILE]
//! clocksync serve    --listen ADDR [--shards K] [--window W] [--queue-depth Q]
//!                    [--max-conns N] [--trace FILE]
//! clocksync soak     [--shards K] [--threads T] [--queue-depth Q] [--domains D]
//!                    [--n N] [--messages M] [--batch-size B] [--window W]
//!                    [--seed S] [--max-rss-mb R] [--trace FILE]
//! clocksync trace summarize --in FILE
//! clocksync vopr run    [--seed S] [--count K] [--shrink-budget B]
//!                       [--journal FILE] [--repro FILE]
//! clocksync vopr replay --file FILE [--journal FILE]
//! clocksync vopr corpus [--dir DIR] [--budget N] [--seed S]
//! ```

use std::fmt::Display;
use std::fs;
use std::io::{self, ErrorKind, Stderr, Write};
use std::process::ExitCode;

use clocksync_cli::{commands, Args, RunFile};
use clocksync_obs::{Recorder, Trace};
use clocksync_service::{run_soak_with_recorder, SoakConfig};

const USAGE: &str = "usage:
  clocksync simulate [--topology T] [--n N] [--model M] [--probes K] [--seed S]
                     [--spacing-us U] [--spread-us U] [--loss-ppm P]
                     [--out FILE] [--trace FILE]
  clocksync sync     --in FILE [--json true] [--trace FILE]
  clocksync explain  --in FILE [--trace FILE]
  clocksync serve    --in FILE [--shards K] [--window W] [--trace FILE]
  clocksync serve    --listen ADDR [--shards K] [--window W] [--queue-depth Q]
                     [--max-conns N] [--trace FILE]
  clocksync soak     [--shards K] [--threads T] [--queue-depth Q] [--domains D]
                     [--n N] [--messages M] [--batch-size B] [--window W]
                     [--seed S] [--max-rss-mb R] [--trace FILE]
  clocksync trace summarize --in FILE
  clocksync vopr run    [--seed S] [--count K] [--shrink-budget B]
                        [--journal FILE] [--repro FILE]
  clocksync vopr replay --file FILE [--journal FILE]
  clocksync vopr corpus [--dir DIR] [--budget N] [--seed S]

topologies: path ring star complete (--n)
            grid (--rows --cols)
            random (--n --extra-per-mille)
models:     uniform (--lo-us --hi-us)
            heavy-tail (--lo-us --scale-us --alpha)
            bias (--lo-us --hi-us --bias-us)

serve ingests a JSONL command stream ({\"t\":\"domain\",...} registrations and
{\"t\":\"batch\",...} observation batches) into a sharded multi-domain service
with bounded-memory retention. With --listen it serves the same commands
over TCP as length-prefixed JSON frames through a worker-per-shard
concurrent engine (--max-conns stops after N connections; omit to serve
forever). soak drives sustained simulated ingestion — --threads K runs the
worker engine, one thread per shard — and reports throughput plus
steady-state retention (--max-rss-mb fails the run if resident memory ends
above the ceiling).

A flag the subcommand does not read (with the topology, model or mode the
other flags choose) is an error; so is a --json other than
true/false/1/0/yes/no.

--trace FILE writes a JSONL trace (spans, counters, histograms, gauges,
events); `trace summarize` renders one as a human-readable report.

vopr is the deterministic fuzzer. Its families map a seed to one checked
instance: plain and far-clock scenarios (run against the full-history,
windowed and concurrent engines with invariant oracles after every step),
Marzullo-fused link instances, bounded-drift workloads and runs of the
retrying probe protocol under fault plans. `run` checks
--count seeds from --seed of every family, stops at the first failure,
shrinks a failing scenario to a minimal reproducer (written to --repro)
and prints its replay command; `replay` re-runs a saved scenario file;
`corpus` replays tests/corpus/, then checks --budget seeds of every family
and exits nonzero on any failure. --journal FILE writes the
byte-deterministic run journal (same seed => identical bytes).";

/// A recorder wired to `--trace`: enabled only when the flag is present,
/// so untraced runs keep the no-op fast path.
fn trace_recorder(args: &Args) -> Recorder {
    if args.get("trace").is_some() {
        Recorder::enabled()
    } else {
        Recorder::disabled()
    }
}

/// Writes the recorder's snapshot to the `--trace` path, if any.
fn write_trace(args: &Args, recorder: &Recorder, err: &mut Out<Stderr>) -> Result<(), String> {
    if let Some(path) = args.get("trace") {
        let jsonl = recorder.snapshot().to_jsonl();
        fs::write(path, jsonl).map_err(|e| format!("writing {path}: {e}"))?;
        err.line(format_args!("trace written to {path}"))?;
    }
    Ok(())
}

/// One output stream: stdout for every command's results, stderr for
/// notes and the final `error: …` line. A reader may close the pipe early
/// (`clocksync explain … | head -3`): that is not a failure, so the
/// remaining lines are dropped quietly and the exit status stays the
/// command's own. Any other write error fails the command.
struct Out<W> {
    stream: W,
    name: &'static str,
    closed: bool,
}

impl<W: Write> Out<W> {
    fn new(stream: W, name: &'static str) -> Out<W> {
        Out {
            stream,
            name,
            closed: false,
        }
    }

    fn line(&mut self, line: impl Display) -> Result<(), String> {
        if self.closed {
            return Ok(());
        }
        match writeln!(self.stream, "{line}") {
            Err(e) if e.kind() == ErrorKind::BrokenPipe => {
                self.closed = true;
                Ok(())
            }
            result => result.map_err(|e| format!("writing {}: {e}", self.name)),
        }
    }
}

fn run(err: &mut Out<Stderr>) -> Result<(), String> {
    let mut out = Out::new(io::stdout(), "stdout");
    let mut raw: Vec<String> = std::env::args().skip(1).collect();
    // `trace summarize` is a two-word subcommand; fold it into one token
    // before flag parsing.
    if raw.len() >= 2 && raw[0] == "trace" && raw[1] == "summarize" {
        raw.splice(0..2, ["trace-summarize".to_string()]);
    }
    if raw.len() >= 2 && raw[0] == "vopr" && ["run", "replay", "corpus"].contains(&raw[1].as_str())
    {
        let folded = format!("vopr-{}", raw[1]);
        raw.splice(0..2, [folded]);
    }
    let args = Args::parse(raw).map_err(|e| format!("{e}\n{USAGE}"))?;
    // Every arm reads all the flags its run uses, then rejects any other
    // before it reads an input, writes a file, binds a socket or runs.
    match args.command() {
        "simulate" => {
            let out_path = args.get("out");
            let recorder = trace_recorder(&args);
            let plan = commands::SimulatePlan::from_args(&args, &recorder)?;
            args.reject_unread()?;
            let runfile = plan.run();
            write_trace(&args, &recorder, err)?;
            let json = runfile.to_json().map_err(|e| e.to_string())?;
            match out_path {
                Some(path) => {
                    fs::write(path, &json).map_err(|e| format!("writing {path}: {e}"))?;
                    err.line(format_args!(
                        "wrote {path}: {} processors, {} links, {} messages",
                        runfile.processors,
                        runfile.links.len(),
                        runfile.views.message_observations().len()
                    ))?;
                }
                None => out.line(json)?,
            }
            Ok(())
        }
        "sync" | "explain" => {
            let path = args.require("in")?;
            let json = args.command() == "sync" && args.get_bool("json")?;
            let recorder = trace_recorder(&args);
            args.reject_unread()?;
            let content = fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
            let runfile = RunFile::from_json(&content).map_err(|e| e.to_string())?;
            let report = commands::sync_traced(&runfile, &recorder)?;
            write_trace(&args, &recorder, err)?;
            if json {
                use clocksync_cli::json::Json;
                let corrections = report
                    .outcome
                    .corrections()
                    .iter()
                    .map(|r| Json::Float(r.to_f64()))
                    .collect();
                let opt_f64 = |v: Option<f64>| v.map_or(Json::Null, Json::Float);
                let skew_json = |s: &clocksync::LocalSkew| {
                    Json::object([
                        ("a", Json::Int(s.a.index() as i128)),
                        ("b", Json::Int(s.b.index() as i128)),
                        ("skew_ns", opt_f64(s.skew.finite().map(|r| r.to_f64()))),
                    ])
                };
                let local_skews = report.outcome.local_skews();
                let body = Json::object([
                    (
                        "precision_ns",
                        opt_f64(report.outcome.precision().finite().map(|r| r.to_f64())),
                    ),
                    ("corrections_ns", Json::Array(corrections)),
                    (
                        "true_error_ns",
                        opt_f64(report.true_error.map(|r| r.to_f64())),
                    ),
                    (
                        "local_skew",
                        Json::Array(local_skews.iter().map(skew_json).collect()),
                    ),
                    (
                        "worst_edge",
                        report
                            .outcome
                            .worst_edge()
                            .map_or(Json::Null, |s| skew_json(&s)),
                    ),
                ]);
                out.line(clocksync_cli::json::to_string_pretty(&body))?;
            } else {
                let lines = if args.command() == "sync" {
                    commands::render_sync(&report)
                } else {
                    commands::render_explain(&report, &runfile)
                };
                for line in lines {
                    out.line(line)?;
                }
            }
            Ok(())
        }
        "serve" if args.get("listen").is_some() => {
            let addr = args.require("listen")?;
            let shards = args.get_usize("shards", 4)?;
            let window = args.get_usize("window", 64)?;
            let queue_depth = args.get_usize("queue-depth", 256)?;
            if shards == 0 {
                return Err("flag --shards: must be at least 1".to_string());
            }
            if queue_depth == 0 {
                return Err("flag --queue-depth: must be at least 1".to_string());
            }
            let max_conns = match args.get("max-conns") {
                None => None,
                Some(raw) => Some(
                    raw.parse::<u64>()
                        .map_err(|_| format!("flag --max-conns: cannot parse `{raw}`"))?,
                ),
            };
            let recorder = trace_recorder(&args);
            args.reject_unread()?;
            let listener =
                std::net::TcpListener::bind(addr).map_err(|e| format!("binding {addr}: {e}"))?;
            let local = listener
                .local_addr()
                .map_err(|e| format!("binding {addr}: {e}"))?;
            err.line(format_args!(
                "listening on {local} ({shards} shards, window {window})"
            ))?;
            let config = clocksync_service::ServiceConfig {
                shards,
                window,
                queue_depth,
                ..clocksync_service::ServiceConfig::default()
            };
            let stats =
                clocksync_cli::listen::serve_listener(listener, config, &recorder, max_conns)?;
            write_trace(&args, &recorder, err)?;
            out.line(format_args!(
                "served {} connections, {} frames ({} errors)",
                stats.connections, stats.frames, stats.errors
            ))?;
            Ok(())
        }
        "serve" => {
            let path = args.require("in")?;
            let shards = args.get_usize("shards", 4)?;
            let window = args.get_usize("window", 64)?;
            if shards == 0 {
                return Err("flag --shards: must be at least 1".to_string());
            }
            let recorder = trace_recorder(&args);
            args.reject_unread()?;
            let content = fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
            let lines =
                clocksync_cli::serve::run_serve_on_str(&content, shards, window, &recorder)?;
            write_trace(&args, &recorder, err)?;
            for line in lines {
                out.line(line)?;
            }
            Ok(())
        }
        "soak" => {
            let config = SoakConfig {
                shards: args.get_usize("shards", 4)?,
                threads: args.get_usize("threads", 1)?,
                queue_depth: args.get_usize("queue-depth", 256)?,
                domains: args.get_usize("domains", 8)?,
                n: args.get_usize("n", 4)?,
                messages: args.get_u64("messages", 100_000)?,
                batch_size: args.get_usize("batch-size", 64)?,
                window: args.get_usize("window", 32)?,
                seed: args.get_u64("seed", 7)?,
            };
            if config.shards == 0 || config.domains == 0 || config.batch_size == 0 {
                return Err("soak needs --shards, --domains and --batch-size >= 1".to_string());
            }
            if config.n < 3 {
                return Err("flag --n: soak domains need at least 3 processors".to_string());
            }
            if config.threads > 1 && config.threads != config.shards {
                return Err(format!(
                    "flag --threads: the worker engine pins one worker per shard \
                     (got --threads {} with --shards {})",
                    config.threads, config.shards
                ));
            }
            if config.queue_depth == 0 {
                return Err("flag --queue-depth: must be at least 1".to_string());
            }
            let max_rss_mb = match args.get("max-rss-mb") {
                None => None,
                Some(raw) => Some(
                    raw.parse::<u64>()
                        .map_err(|_| format!("flag --max-rss-mb: cannot parse `{raw}`"))?,
                ),
            };
            let recorder = trace_recorder(&args);
            args.reject_unread()?;
            let report = run_soak_with_recorder(&config, recorder.clone());
            write_trace(&args, &recorder, err)?;
            out.line(format_args!(
                "soak: {} messages in {:.2}s across {} domains / {} shards ({} engine, {} threads)",
                report.messages,
                report.elapsed_ns as f64 / 1e9,
                config.domains,
                config.shards,
                report.engine,
                report.threads
            ))?;
            out.line(format_args!(
                "  throughput          {:.0} msgs/sec",
                report.msgs_per_sec()
            ))?;
            out.line(format_args!(
                "  retained messages   {} end / {} peak (cap {})",
                report.retained_messages_end, report.peak_retained_messages, report.retained_cap
            ))?;
            out.line(format_args!(
                "  retained samples    {}",
                report.retained_samples_end
            ))?;
            out.line(format_args!(
                "  approx window bytes {}",
                report.approx_retained_bytes_end
            ))?;
            match report.rss_end_bytes {
                Some(rss) => out.line(format_args!(
                    "  resident set        {:.1} MiB",
                    rss as f64 / (1 << 20) as f64
                ))?,
                None => out.line("  resident set        unavailable on this platform")?,
            }
            if report.peak_retained_messages > report.retained_cap {
                return Err(format!(
                    "retention exceeded the analytic cap: peak {} > cap {}",
                    report.peak_retained_messages, report.retained_cap
                ));
            }
            if let Some(max_mb) = max_rss_mb {
                if let Some(rss) = report.rss_end_bytes {
                    if rss > max_mb * 1024 * 1024 {
                        return Err(format!(
                            "resident set {:.1} MiB exceeds --max-rss-mb {max_mb}",
                            rss as f64 / (1 << 20) as f64
                        ));
                    }
                }
            }
            Ok(())
        }
        "vopr-run" => {
            let seed = args.get_u64("seed", 1)?;
            let count = args.get_usize("count", 50)?;
            let budget = args.get_usize("shrink-budget", 500)?;
            if count == 0 {
                return Err("flag --count: must be at least 1".to_string());
            }
            let journal = args.get("journal");
            let repro = args.get("repro").unwrap_or("vopr-repro.json");
            args.reject_unread()?;
            let session = clocksync_cli::vopr::fuzz(seed, count, budget);
            for line in &session.lines {
                out.line(line)?;
            }
            if let Some(path) = journal {
                fs::write(path, &session.journal_jsonl)
                    .map_err(|e| format!("writing {path}: {e}"))?;
                err.line(format_args!("journal written to {path}"))?;
            }
            match (session.failure, session.reproducer) {
                (None, _) => Ok(()),
                (Some(_), Some(scenario)) => {
                    fs::write(repro, scenario.to_json_pretty())
                        .map_err(|e| format!("writing {repro}: {e}"))?;
                    Err(format!(
                        "oracle failure; minimal reproducer written to {repro}\nreplay with:\n  {}",
                        clocksync_vopr::Scenario::replay_command(repro)
                    ))
                }
                (Some(f), None) => Err(format!(
                    "oracle failure; reproduce with:\n  clocksync vopr run --seed {} --count 1",
                    f.seed
                )),
            }
        }
        "vopr-replay" => {
            let path = args.require("file")?;
            let journal_path = args.get("journal");
            args.reject_unread()?;
            let content = fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
            let scenario = clocksync_vopr::Scenario::from_json_str(&content)
                .map_err(|e| format!("{path}: {e}"))?;
            let (lines, journal, failed) = clocksync_cli::vopr::replay(&scenario);
            for line in lines {
                out.line(line)?;
            }
            if let Some(journal_path) = journal_path {
                fs::write(journal_path, &journal)
                    .map_err(|e| format!("writing {journal_path}: {e}"))?;
                err.line(format_args!("journal written to {journal_path}"))?;
            }
            if failed {
                Err(format!("scenario {path} fails its oracles"))
            } else {
                Ok(())
            }
        }
        "vopr-corpus" => {
            let dir = args.get("dir").unwrap_or("tests/corpus");
            let budget = args.get_usize("budget", 25)?;
            let seed = args.get_u64("seed", 10_000)?;
            args.reject_unread()?;
            let report = clocksync_cli::vopr::corpus(std::path::Path::new(dir), budget, seed)?;
            for line in &report.lines {
                out.line(line)?;
            }
            if report.failures > 0 {
                Err(format!(
                    "{} of {} corpus runs failed their oracles",
                    report.failures, report.ran
                ))
            } else {
                Ok(())
            }
        }
        "trace-summarize" => {
            let path = args.require("in")?;
            args.reject_unread()?;
            let content = fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
            let trace = Trace::from_jsonl(&content).map_err(|e| e.to_string())?;
            for line in trace.summarize() {
                out.line(line)?;
            }
            Ok(())
        }
        "help" => {
            args.reject_unread()?;
            out.line(USAGE)?;
            Ok(())
        }
        other => Err(format!("unknown subcommand `{other}`\n{USAGE}")),
    }
}

fn main() -> ExitCode {
    let mut err = Out::new(io::stderr(), "stderr");
    match run(&mut err) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            // A failed write of the error itself has nowhere left to go.
            let _ = err.line(format_args!("error: {msg}"));
            ExitCode::FAILURE
        }
    }
}
