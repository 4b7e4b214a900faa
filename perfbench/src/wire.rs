//! Wire-ingest arm: an in-process `serve --listen` acceptor on a loopback
//! port, run with `ServiceConfig::default()` (what `clocksync serve
//! --listen` runs: 4 shards, window 64, group commit of up to 32 batches).
//! It serves one copy of the workload's network per shard, each with its
//! own hidden clock offsets, fed by [`PRODUCERS`] concurrent closed-loop
//! producer connections (each waits for a batch's reply before sending its
//! next). Every producer picks a random domain per batch, so batches for
//! one domain queue up behind each other and the shard workers merge them
//! (group commit); after every [`OUTCOME_EVERY`] batches a producer queries
//! the outcome of the domain it just fed, so the served engines keep warm
//! closure and `A_max` caches and each tightening is relaxed into them.
//!
//! The path measured is frame I/O → JSON decode → shard queue → group
//! commit → view window and online engine (estimates, closure relax) →
//! retention GC → reply, plus the outcome query (warm Howard
//! revalidation → corrections).

use std::collections::{BTreeSet, HashMap};
use std::io::{BufReader, BufWriter, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::thread::JoinHandle;
use std::time::Instant;

use clocksync::{BatchObservation, OnlineSynchronizer};
use clocksync_cli::listen::{serve_listener, ListenStats};
use clocksync_net::wire::{read_frame, write_frame};
use clocksync_obs::json::{parse, Json};
use clocksync_obs::{Recorder, TraceRecord};
use clocksync_service::{ServiceConfig, ShardMap};
use clocksync_sim::SimRun;
use clocksync_time::RealTime;

use crate::inputs::{batch_command, ingest_batch, prefill_batch, Domain, Rng};
use crate::stats::{median, ns_since, true_discrepancy, Reference, Stopwatch, TOLERANCE_NS};

/// Concurrent producer connections.
const PRODUCERS: usize = 4;

/// Observations per timed batch frame (the `loadgen` default).
const BATCH_LEN: usize = 64;

/// A producer queries an outcome after this many of its batches.
const OUTCOME_EVERY: usize = 16;

/// Frame size of the prefill (large enough for the service's batch
/// pre-compaction path).
const PREFILL_FRAME: u64 = 4096;

// A private copy of `crates/bench/src/load.rs`'s connection, which that
// crate does not export.
struct Conn {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
}

impl Conn {
    fn open(addr: &str) -> Result<Conn, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connecting {addr}: {e}"))?;
        stream
            .set_nodelay(true)
            .map_err(|e| format!("setting TCP_NODELAY: {e}"))?;
        let reader = stream
            .try_clone()
            .map_err(|e| format!("cloning stream: {e}"))?;
        Ok(Conn {
            reader: BufReader::new(reader),
            writer: BufWriter::new(stream),
        })
    }

    fn request(&mut self, body: &str) -> Result<Json, String> {
        write_frame(&mut self.writer, body.as_bytes()).map_err(|e| e.to_string())?;
        self.writer.flush().map_err(|e| e.to_string())?;
        let reply = read_frame(&mut self.reader)
            .map_err(|e| e.to_string())?
            .ok_or("server closed the connection")?;
        let text = std::str::from_utf8(&reply).map_err(|_| "reply is not utf-8".to_string())?;
        parse(text).map_err(|e| e.to_string())
    }
}

fn is_ok(reply: &Json) -> bool {
    matches!(reply.field("ok", "reply"), Ok(Json::Bool(true)))
}

fn number(v: &Json) -> Option<f64> {
    match v {
        Json::Float(f) => Some(*f),
        Json::Int(i) => Some(*i as f64),
        _ => None,
    }
}

/// Per directed link, the observations with the smallest and largest
/// estimated delay. Bounds estimates (Lemma 6.2) depend on nothing else,
/// so these reproduce the service's answer without replaying the stream.
#[derive(Default)]
struct Extremes(HashMap<(usize, usize), (BatchObservation, BatchObservation)>);

impl Extremes {
    fn add(&mut self, batch: &[BatchObservation]) {
        let delay = |o: &BatchObservation| o.recv_clock.as_nanos() - o.send_clock.as_nanos();
        for o in batch {
            let e = self
                .0
                .entry((o.src.index(), o.dst.index()))
                .or_insert((*o, *o));
            if delay(o) < delay(&e.0) {
                e.0 = *o;
            }
            if delay(o) > delay(&e.1) {
                e.1 = *o;
            }
        }
    }

    fn observations(&self) -> Vec<BatchObservation> {
        self.0.values().flat_map(|&(lo, hi)| [lo, hi]).collect()
    }
}

/// One served domain: a copy of the workload's network whose hidden
/// clock offsets are those of one simulated instance.
struct Served {
    name: String,
    starts: Vec<RealTime>,
    /// Index of the next observation of the domain's ingest stream.
    next: AtomicU64,
    extremes: Extremes,
}

/// One name per shard: the first of `bench-0`, `bench-1`, … that the
/// service's consistent-hash ring places on each shard.
fn domain_names(shards: usize) -> Vec<String> {
    let map = ShardMap::new(shards);
    let mut names: Vec<Option<String>> = vec![None; shards];
    let mut i = 0;
    while names.iter().any(Option::is_none) {
        let name = format!("bench-{i}");
        names[map.shard_of(&name)].get_or_insert(name);
        i += 1;
    }
    names.into_iter().flatten().collect()
}

/// A running acceptor with the domains registered, their retention
/// windows full and their engines warm, and the producer connections
/// open.
pub struct Server {
    control: Conn,
    producers: Vec<Conn>,
    server: JoinHandle<Result<ListenStats, String>>,
    recorder: Recorder,
    seed: u64,
    domains: Vec<Served>,
    /// `svc.batch_latency` (count, sum) at the end of the prefill, so
    /// traced figures cover the timed phase only.
    base_latency: (u64, u64),
}

/// Starts the acceptor, registers one domain per shard (domain `d` with
/// the hidden offsets of `runs[d]`), fills every retention window and
/// queries each outcome once; `clock` times the requests.
pub fn start(
    domain: &Domain,
    runs: &[SimRun],
    seed: u64,
    trace: bool,
    clock: &mut Stopwatch,
) -> Result<Server, String> {
    let config = ServiceConfig::default();
    let names = domain_names(config.shards);
    if runs.len() < names.len() {
        return Err(format!("{} domains need as many instances", names.len()));
    }
    let listener =
        TcpListener::bind("127.0.0.1:0").map_err(|e| format!("binding loopback port: {e}"))?;
    let addr = listener
        .local_addr()
        .map_err(|e| format!("reading bound address: {e}"))?
        .to_string();
    let recorder = if trace {
        Recorder::enabled()
    } else {
        Recorder::disabled()
    };
    // The control connection (registration, prefill, outcome checks) and
    // the producers.
    let conns = 1 + PRODUCERS as u64;
    let server = {
        let recorder = recorder.clone();
        let config = config.clone();
        std::thread::spawn(move || serve_listener(listener, config, &recorder, Some(conns)))
    };
    let mut control = Conn::open(&addr)?;
    let producers = (0..PRODUCERS)
        .map(|_| Conn::open(&addr))
        .collect::<Result<Vec<_>, _>>()?;
    // Enough observations that every directed link's window is full and
    // the next arrival on it makes the GC drop something: the service's
    // steady state.
    let prefill = (2 * domain.links.len() * (config.window + 2)) as u64;
    let mut domains = Vec::new();
    for (d, name) in names.into_iter().enumerate() {
        let register = domain.register_command(&name);
        let reply = clock.time(|| control.request(&register))?;
        if !is_ok(&reply) {
            return Err(format!("registration of {name} rejected: {reply:?}"));
        }
        let starts = runs[d].execution.starts().to_vec();
        let mut extremes = Extremes::default();
        for first in (0..prefill).step_by(PREFILL_FRAME as usize) {
            let len = PREFILL_FRAME.min(prefill - first) as usize;
            let batch = prefill_batch(domain, &starts, domain_seed(seed, d), first, len);
            extremes.add(&batch);
            let body = batch_command(&name, &batch);
            let reply = clock.time(|| control.request(&body))?;
            if !is_ok(&reply) {
                return Err(format!(
                    "{name}: prefill frame at {first} rejected: {reply:?}"
                ));
            }
        }
        let reply = clock.time(|| control.request(&outcome_command(&name)))?;
        if !is_ok(&reply) {
            return Err(format!("{name}: first outcome query rejected: {reply:?}"));
        }
        domains.push(Served {
            name,
            starts,
            next: AtomicU64::new(prefill),
            extremes,
        });
    }
    let base_latency = batch_latency(&recorder);
    Ok(Server {
        control,
        producers,
        server,
        recorder,
        seed,
        domains,
        base_latency,
    })
}

fn domain_seed(seed: u64, d: usize) -> u64 {
    seed ^ (d as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

fn outcome_command(name: &str) -> String {
    format!(r#"{{"t":"outcome","domain":"{name}"}}"#)
}

impl Server {
    /// Closes every connection, which ends the acceptor, and joins it.
    pub fn stop(self) -> Result<ListenStats, String> {
        drop(self.control);
        drop(self.producers);
        self.server
            .join()
            .map_err(|_| "acceptor thread panicked".to_string())?
    }
}

pub struct WireResult {
    /// Median over producer cycles ([`OUTCOME_EVERY`] batch frames and one
    /// outcome query) of the cycle's time per batch: `(raw, normalized)` ns.
    pub per_batch: (f64, f64),
    /// Normalized ns per acknowledged batch: mean round trip, and mean
    /// enqueue→receipt latency inside the service (traced runs only).
    pub mean_roundtrip_ns: f64,
    pub batch_latency_ns: f64,
    /// Normalized median outcome-query round trip, ns.
    pub outcome_ns: f64,
    /// Per acknowledged batch, the retention work its receipt reports.
    pub gc_dropped: f64,
    pub samples_compacted: f64,
    /// Percentage of acknowledged batches that rode in a merged group.
    pub coalesced_pct: f64,
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
}

/// What one producer connection saw.
#[derive(Default)]
struct Producer {
    /// Per batch: raw round trip ns and the normalization factor.
    batches: Vec<(f64, f64)>,
    /// Per complete cycle: (raw, normalized) ns per batch.
    cycles: Vec<(f64, f64)>,
    /// Normalized outcome-query round trips, ns.
    outcomes: Vec<f64>,
    gc_dropped: f64,
    samples_compacted: f64,
    coalesced: u64,
    shards: BTreeSet<i128>,
    extremes: Vec<Extremes>,
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
}

fn produce(
    domain: &Domain,
    served: &[Served],
    seed: u64,
    mut conn: Conn,
    mut rng: Rng,
    deadline: Instant,
) -> Producer {
    let mut p = Producer {
        extremes: served.iter().map(|_| Extremes::default()).collect(),
        ..Producer::default()
    };
    let mut reference = Reference::new();
    let mut cycle = (0.0, 0.0);
    while p.attempted == 0 || Instant::now() < deadline {
        let d = rng.below(served.len());
        let s = &served[d];
        let first = s.next.fetch_add(BATCH_LEN as u64, Ordering::Relaxed);
        let batch = ingest_batch(domain, &s.starts, domain_seed(seed, d), first, BATCH_LEN);
        p.extremes[d].add(&batch);
        let body = batch_command(&s.name, &batch);
        p.attempted += 1;
        let scale = reference.scale();
        let start = Instant::now();
        let reply = match conn.request(&body) {
            Ok(reply) => reply,
            Err(e) => {
                p.failed += 1;
                p.errors.push(format!("producer: {e}"));
                break;
            }
        };
        let ns = ns_since(start);
        p.batches.push((ns, scale));
        cycle = (cycle.0 + ns, cycle.1 + ns * scale);
        let count = |key: &str| reply.field(key, "reply").ok().and_then(number);
        if is_ok(&reply) && count("applied") == Some(BATCH_LEN as f64) {
            let gc = count("gc_dropped").unwrap_or(0.0);
            let compacted = count("samples_compacted").unwrap_or(0.0);
            // A merged group's retention totals land on its last batch;
            // the others report none. Alone on a full window, a batch
            // always drops something.
            if gc == 0.0 && compacted == 0.0 {
                p.coalesced += 1;
            }
            p.gc_dropped += gc;
            p.samples_compacted += compacted;
            if let Some(shard) = count("shard") {
                p.shards.insert(shard as i128);
            }
        } else {
            p.failed += 1;
            p.errors.push(format!("batch not applied: {reply:?}"));
        }
        if p.batches.len().is_multiple_of(OUTCOME_EVERY) {
            p.attempted += 1;
            let scale = reference.scale();
            let start = Instant::now();
            let reply = conn.request(&outcome_command(&s.name));
            let ns = ns_since(start);
            match reply.and_then(|r| sound(&s.starts, &r)) {
                Ok(_) => {
                    p.outcomes.push(ns * scale);
                    let n = OUTCOME_EVERY as f64;
                    p.cycles
                        .push(((cycle.0 + ns) / n, (cycle.1 + ns * scale) / n));
                }
                Err(e) => {
                    p.failed += 1;
                    p.errors.push(format!("{}: outcome: {e}", s.name));
                }
            }
            cycle = (0.0, 0.0);
        }
    }
    p
}

/// Checks that an outcome reply is complete and honoured by the hidden
/// offsets `starts`; returns its precision and corrections (ns).
fn sound(starts: &[RealTime], reply: &Json) -> Result<(f64, Vec<f64>), String> {
    if !is_ok(reply) {
        return Err(format!("rejected: {reply:?}"));
    }
    let precision = reply.field("precision_ns", "reply").ok().and_then(number);
    let corrections: Option<Vec<f64>> = reply
        .field("corrections_ns", "reply")
        .and_then(|v| v.as_array("corrections_ns"))
        .ok()
        .and_then(|v| v.iter().map(number).collect());
    let (Some(precision), Some(corrections)) = (precision, corrections) else {
        return Err(format!("reply is incomplete: {reply:?}"));
    };
    let truth = true_discrepancy(starts, &corrections);
    if truth > precision + TOLERANCE_NS {
        return Err(format!(
            "true discrepancy {truth} exceeds precision {precision}"
        ));
    }
    Ok((precision, corrections))
}

pub fn run(domain: &Domain, sim: &[SimRun], mut server: Server, deadline: Instant) -> WireResult {
    let mut seeds = Rng::new(server.seed);
    let producers: Vec<Producer> = std::thread::scope(|scope| {
        let served = &server.domains;
        let handles: Vec<_> = std::mem::take(&mut server.producers)
            .into_iter()
            .map(|conn| {
                let rng = Rng::new(seeds.next_u64());
                let seed = server.seed;
                scope.spawn(move || produce(domain, served, seed, conn, rng, deadline))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join().unwrap_or_else(|_| Producer {
                    failed: 1,
                    errors: vec!["producer thread panicked".to_string()],
                    ..Producer::default()
                })
            })
            .collect()
    });
    let mut errors: Vec<String> = Vec::new();
    let mut shards: BTreeSet<i128> = BTreeSet::new();
    for p in &producers {
        errors.extend(p.errors.iter().cloned());
        shards.extend(&p.shards);
        for (d, e) in p.extremes.iter().enumerate() {
            server.domains[d].extremes.add(&e.observations());
        }
    }
    if shards.len() != server.domains.len() {
        errors.push(format!(
            "batches reached shards {shards:?}, not one per domain"
        ));
    }
    errors.extend(check_outcomes(sim, &mut server));
    let base = server.base_latency;
    let recorder = server.recorder.clone();
    match server.stop() {
        Ok(stats) if stats.errors == 0 => {}
        Ok(stats) => errors.push(format!("acceptor counted {} errors", stats.errors)),
        Err(e) => errors.push(format!("acceptor: {e}")),
    }
    let all = |f: fn(&Producer) -> f64| producers.iter().map(f).sum::<f64>();
    let times: Vec<(f64, f64)> = producers.iter().flat_map(|p| p.batches.clone()).collect();
    let cycles: Vec<(f64, f64)> = producers.iter().flat_map(|p| p.cycles.clone()).collect();
    let outcomes: Vec<f64> = producers.iter().flat_map(|p| p.outcomes.clone()).collect();
    let batches = times.len().max(1) as f64;
    let mean_scale = times.iter().map(|&(_, scale)| scale).sum::<f64>() / batches;
    let latency = batch_latency(&recorder);
    WireResult {
        per_batch: (
            median(&cycles.iter().map(|c| c.0).collect::<Vec<_>>()),
            median(&cycles.iter().map(|c| c.1).collect::<Vec<_>>()),
        ),
        mean_roundtrip_ns: times.iter().map(|&(ns, scale)| ns * scale).sum::<f64>() / batches,
        batch_latency_ns: (latency.1 - base.1) as f64 * mean_scale
            / (latency.0 - base.0).max(1) as f64,
        outcome_ns: median(&outcomes),
        gc_dropped: all(|p| p.gc_dropped) / batches,
        samples_compacted: all(|p| p.samples_compacted) / batches,
        coalesced_pct: 100.0 * all(|p| p.coalesced as f64) / batches,
        attempted: producers.iter().map(|p| p.attempted).sum(),
        failed: producers.iter().map(|p| p.failed).sum(),
        errors,
    }
}

/// Queries each domain's outcome over the wire, checks it against the
/// hidden offsets and compares it with the online engine fed the domain's
/// extremal observations.
fn check_outcomes(sim: &[SimRun], server: &mut Server) -> Vec<String> {
    let mut errors = Vec::new();
    for (d, s) in server.domains.iter().enumerate() {
        let reply = server
            .control
            .request(&outcome_command(&s.name))
            .and_then(|r| sound(&s.starts, &r));
        let (precision, corrections) = match reply {
            Ok(fields) => fields,
            Err(e) => {
                errors.push(format!("{}: final outcome: {e}", s.name));
                continue;
            }
        };
        let mut reference = OnlineSynchronizer::new(sim[d].network.clone());
        let expected = reference
            .ingest_batch(&s.extremes.observations())
            .and_then(|_| reference.outcome());
        match expected {
            Ok(o) => {
                let want: Vec<f64> = o.corrections().iter().map(|r| r.to_f64()).collect();
                let want_precision = o.precision().finite().map(|p| p.to_f64());
                if want_precision != Some(precision) || want != corrections {
                    errors.push(format!(
                        "{}: wire outcome differs from the reference engine",
                        s.name
                    ));
                }
            }
            Err(e) => errors.push(format!("{}: reference engine failed: {e}", s.name)),
        }
    }
    errors
}

/// The `svc.batch_latency` histogram's (count, sum of ns): enqueue to
/// receipt inside the service, one observation per batch.
fn batch_latency(rec: &Recorder) -> (u64, u64) {
    rec.snapshot()
        .records
        .into_iter()
        .find_map(|r| match r {
            TraceRecord::Hist { name, hist } if name == "svc.batch_latency" => {
                Some((hist.count, hist.sum_ns))
            }
            _ => None,
        })
        .unwrap_or((0, 0))
}
