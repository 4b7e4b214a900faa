//! The `clocksync serve` command: drive the concurrent sharded ingestion
//! engine from a JSONL command stream.
//!
//! Each input line is one JSON object (blank lines and `#` comments are
//! skipped):
//!
//! ```text
//! {"t":"domain","domain":"a","n":3,"links":[{"a":0,"b":1,"lo_ns":0,"hi_ns":1000}, ...]}
//! {"t":"batch","domain":"a","obs":[[0,1,100,400],[1,0,500,900]]}
//! ```
//!
//! `domain` registers a sync domain (symmetric per-link delay bounds,
//! nanoseconds); `batch` ingests message observations as
//! `[src,dst,send_ns,recv_ns]` quadruples. The stream is untrusted input:
//! malformed JSON, unknown processors, inverted bounds and clock readings
//! whose difference overflows `i64` nanoseconds are all reported as
//! errors naming the offending line — never a panic (the overflow path is
//! the regression from the `Nanos` arithmetic audit).
//!
//! File mode runs through [`ConcurrentService`] — the same worker-per-
//! shard engine behind `serve --listen` and the soak — redeeming each
//! batch's receipt before reading the next line, so errors keep their
//! line-numbered abort semantics while the ingestion path itself is the
//! production one. One decode entry, [`decode_command`], serves both this
//! mode and the TCP front-end in [`crate::listen`]: a `batch`'s `obs`
//! array goes from the line's bytes straight to observations, in the same
//! pass that parses the rest of the line (DESIGN.md §8).

use std::time::Instant;

use clocksync::{BatchObservation, DelayRange, LinkAssumption, Network, SyncOutcome};
use clocksync_model::ProcessorId;
use clocksync_obs::json::{parse_with_rows, RowError, RowFault, Table, WithRows};
use clocksync_obs::Recorder;
use clocksync_service::{ConcurrentService, IngestReceipt, ObservationBatch, ServiceConfig};
use clocksync_time::{ClockTime, Nanos};

use crate::json::{Json, JsonError};

/// The most processors a `domain` command may declare. A domain's first
/// outcome allocates its closure, `8·n²` bytes of counts (512 MiB at this
/// limit), so an unchecked `n` from the wire could abort the whole server
/// on one allocation; the limit leaves room for 4,096-node domains.
const MAX_DOMAIN_PROCESSORS: usize = 8192;

/// A decoded `domain` registration command.
#[derive(Debug)]
pub struct DomainSpec {
    /// The domain name.
    pub name: String,
    /// Processor count.
    pub n: usize,
    /// Number of declared links (for the acknowledgement line).
    pub link_count: usize,
    /// The declared network.
    pub network: Network,
}

/// Runs the serve loop over a complete JSONL input, returning the output
/// lines (one per registration/batch, plus a final per-domain summary).
///
/// # Errors
///
/// Returns a message naming the offending line for malformed JSON,
/// unknown commands or domains, invalid delay bounds, and batches the
/// service rejects (including clock-reading overflow).
pub fn run_serve_on_str(
    input: &str,
    shards: usize,
    window: usize,
    recorder: &Recorder,
) -> Result<Vec<String>, String> {
    let svc = ConcurrentService::start_with_recorder(
        ServiceConfig {
            shards,
            window,
            ..ServiceConfig::default()
        },
        recorder.clone(),
    );
    let mut out = Vec::new();
    let mut domains: Vec<String> = Vec::new();
    for (idx, line) in input.lines().enumerate() {
        let lineno = idx + 1;
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let command = decode_command(line, recorder).map_err(|e| format!("line {lineno}: {e}"))?;
        match command {
            Command::Domain(spec) => {
                svc.register_domain(spec.name.as_str(), spec.network)
                    .map_err(|e| format!("line {lineno}: {e}"))?;
                out.push(format!(
                    "registered `{}`: {} processors, {} links -> shard {}",
                    spec.name,
                    spec.n,
                    spec.link_count,
                    svc.shard_of(&spec.name)
                ));
                domains.push(spec.name);
            }
            Command::Batch(batch) => {
                // Redeem immediately: file mode is a replayable artifact,
                // so the first bad line aborts before the next is read.
                let receipt = svc
                    .ingest(batch)
                    .and_then(|pending| pending.wait())
                    .map_err(|e| format!("line {lineno}: {e}"))?;
                out.push(receipt_line(&receipt));
            }
            // Queries are a wire command; file mode prints every outcome
            // at the end.
            Command::Outcome(_) => return Err(format!("line {lineno}: unknown command `outcome`")),
        }
    }
    for name in &domains {
        let outcome = svc.outcome(name).map_err(|e| e.to_string())?;
        out.push(outcome_line(name, &outcome));
    }
    svc.shutdown();
    Ok(out)
}

/// One decoded command line or frame.
#[derive(Debug)]
pub enum Command {
    /// `{"t":"domain",...}`: a registration.
    Domain(DomainSpec),
    /// `{"t":"batch",...}`: observations to ingest.
    Batch(ObservationBatch),
    /// `{"t":"outcome",...}`: the document, whose `domain` the wire
    /// front-end reads (file mode has no such command).
    Outcome(Json),
}

/// Decodes one command line or frame: the one decode entry of `serve`
/// and `serve --listen`.
///
/// The line is read in one pass (see [`parse_with_rows`]): the top-level
/// `obs` array goes from the bytes straight to observations, with no
/// JSON tree and no allocation per observation, while every other key
/// gets the generic parser. Results and error text are those of parsing
/// the whole line into a tree and then walking it: a syntax error anywhere
/// wins over a bad row, the last of duplicate keys wins, `t` may follow
/// `obs`, and a non-batch command's `obs` is ignored. With an enabled
/// `recorder`, each `batch` command, whether its rows meet the schema or
/// not, adds its decode time to the `wire.decode` histogram.
///
/// # Errors
///
/// A message for malformed JSON, a missing or unknown `t`, and a `domain`
/// or `batch` command that breaks its schema.
pub fn decode_command(text: &str, recorder: &Recorder) -> Result<Command, String> {
    let started = recorder.is_enabled().then(Instant::now);
    let WithRows { doc, table } =
        parse_with_rows(text, "obs", |src, dst, send, recv| BatchObservation {
            src: ProcessorId(src),
            dst: ProcessorId(dst),
            send_clock: ClockTime::from_nanos(send),
            recv_clock: ClockTime::from_nanos(recv),
        })
        .map_err(|e| e.to_string())?;
    let t = doc
        .field("t", "command")
        .and_then(|v| v.as_str("t"))
        .map_err(|e| e.to_string())?;
    match t {
        "domain" => decode_domain(&doc).map(Command::Domain),
        "batch" => {
            let batch = decode_batch(&doc, table);
            if let Some(started) = started {
                let ns = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
                recorder.observe_ns("wire.decode", ns);
            }
            batch.map(Command::Batch)
        }
        "outcome" => Ok(Command::Outcome(doc)),
        other => Err(format!("unknown command `{other}`")),
    }
}

/// Decodes a `domain` command into its name and declared network.
///
/// # Errors
///
/// A message naming the field that breaks the schema.
pub fn decode_domain(doc: &Json) -> Result<DomainSpec, String> {
    let name = doc
        .field("domain", "domain command")
        .and_then(|v| v.as_str("domain"))
        .map_err(|e| e.to_string())?;
    let n = doc
        .field("n", "domain command")
        .and_then(|v| v.as_usize("n"))
        .map_err(|e| e.to_string())?;
    if n > MAX_DOMAIN_PROCESSORS {
        return Err(format!(
            "n: {n} processors is past the limit of {MAX_DOMAIN_PROCESSORS}"
        ));
    }
    let links = doc
        .field("links", "domain command")
        .and_then(|v| v.as_array("links"))
        .map_err(|e| e.to_string())?;
    let mut builder = Network::builder(n);
    for (i, link) in links.iter().enumerate() {
        let what = format!("links[{i}]");
        let get = |key: &str| -> Result<i64, String> {
            link.field(key, &what)
                .and_then(|v| v.as_i64(&format!("{what}.{key}")))
                .map_err(|e| e.to_string())
        };
        let a = get("a")?;
        let b = get("b")?;
        let index = |v: i64, key: &str| -> Result<ProcessorId, String> {
            let v = usize::try_from(v).map_err(|_| format!("{what}.{key}: negative processor"))?;
            if v >= n {
                return Err(format!(
                    "{what}.{key}: processor {v} out of range (n = {n})"
                ));
            }
            Ok(ProcessorId(v))
        };
        let a = index(a, "a")?;
        let b = index(b, "b")?;
        if a == b {
            return Err(format!(
                "{what}: a link needs two distinct endpoints, got {a} twice"
            ));
        }
        // A link carries either the compact symmetric `lo_ns`/`hi_ns`
        // form, or an `assumption` field with the full run-file schema
        // (RttBias, MarzulloQuorum, All…). Both paths validate untrusted
        // input *before* any panicking constructor sees it, so one bad
        // JSONL line is an error reply, not a dead server.
        let assumption = match link
            .as_object(&what)
            .map_err(|e| e.to_string())?
            .get("assumption")
        {
            Some(spec) => crate::json::parse_assumption(spec)
                .map_err(|e| format!("{what}.assumption: {e}"))?,
            None => {
                let lo = get("lo_ns")?;
                let hi = get("hi_ns")?;
                if lo < 0 || hi < lo {
                    return Err(format!(
                        "{what}: delay bounds need 0 <= lo_ns <= hi_ns, got [{lo}, {hi}]"
                    ));
                }
                LinkAssumption::symmetric_bounds(DelayRange::new(Nanos::new(lo), Nanos::new(hi)))
            }
        };
        builder = builder.link(a, b, assumption);
    }
    Ok(DomainSpec {
        name: name.to_string(),
        n,
        link_count: links.len(),
        network: builder.build(),
    })
}

/// Completes a `batch` command from its document and its `obs` table.
fn decode_batch(doc: &Json, table: Table<BatchObservation>) -> Result<ObservationBatch, String> {
    let name = doc
        .field("domain", "batch command")
        .and_then(|v| v.as_str("domain"))
        .map_err(|e| e.to_string())?;
    let observations = match table {
        Table::Rows(rows) => rows.map_err(row_error)?,
        Table::NotArray => return Err(JsonError::new("obs: expected an array").to_string()),
        Table::Absent => {
            return Err(JsonError::new("batch command: missing field `obs`").to_string())
        }
    };
    Ok(ObservationBatch::new(name, observations))
}

/// The message for the first `obs` row that breaks the schema, labelled
/// as the tree walk labels it.
fn row_error(e: RowError) -> String {
    let what = format!("obs[{}]", e.row);
    let json = |msg: String| JsonError::new(msg).to_string();
    match e.fault {
        RowFault::NotArray => json(format!("{what}: expected an array")),
        RowFault::Length(len) => {
            format!("{what}: expected [src, dst, send_ns, recv_ns], got {len} elements")
        }
        RowFault::NotInteger(col) => json(format!("{what}[{col}]: expected an integer")),
        RowFault::NotIndex(col) => json(format!("{what}[{col}]: expected a nonnegative index")),
        RowFault::OutOfI64(col) => json(format!("{what}[{col}]: integer out of i64 range")),
    }
}

/// Renders one ingest receipt as the serve acknowledgement line.
pub(crate) fn receipt_line(receipt: &IngestReceipt) -> String {
    format!(
        "{}: applied {} (shard {}, gc {}, compacted {}, retained {})",
        receipt.domain,
        receipt.applied,
        receipt.shard,
        receipt.gc_dropped,
        receipt.samples_compacted,
        receipt.retained_messages
    )
}

/// Renders one domain's final outcome line.
pub(crate) fn outcome_line(name: &str, outcome: &SyncOutcome) -> String {
    let precision = match outcome.precision().finite() {
        Some(p) => format!("{:.1} ns", p.to_f64()),
        None => "unbounded".to_string(),
    };
    let corrections: Vec<String> = outcome
        .corrections()
        .iter()
        .map(|r| format!("{:.1}", r.to_f64()))
        .collect();
    format!(
        "{name}: precision {precision}, corrections [{}] ns",
        corrections.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn serve(input: &str) -> Result<Vec<String>, String> {
        run_serve_on_str(input, 2, 8, &Recorder::disabled())
    }

    #[test]
    fn registers_ingests_and_summarizes() {
        let input = r#"
# two-processor domain, symmetric bounds
{"t":"domain","domain":"a","n":2,"links":[{"a":0,"b":1,"lo_ns":0,"hi_ns":1000}]}
{"t":"batch","domain":"a","obs":[[0,1,100,400],[1,0,500,900]]}
"#;
        let out = serve(input).unwrap();
        assert_eq!(out.len(), 3);
        assert!(out[0].contains("registered `a`"), "{}", out[0]);
        assert!(out[1].contains("a: applied 2"), "{}", out[1]);
        assert!(out[2].starts_with("a: precision"), "{}", out[2]);
    }

    #[test]
    fn each_batch_line_is_one_wire_decode_sample() {
        let input = r#"
{"t":"domain","domain":"a","n":2,"links":[{"a":0,"b":1,"lo_ns":0,"hi_ns":1000}]}
{"t":"batch","domain":"a","obs":[[0,1,100,400],[1,0,500,900]]}
{"t":"batch","domain":"a","obs":[[0,1,1100,1400]]}
{"t":"batch","domain":"a","obs":[[0,1,1100]]}
"#;
        let recorder = Recorder::enabled();
        let err = run_serve_on_str(input, 2, 8, &recorder).unwrap_err();
        assert!(err.starts_with("line 5: obs[0]: expected"), "{err}");
        let decode = recorder
            .snapshot()
            .hist("wire.decode")
            .expect("no wire.decode");
        assert_eq!(decode.count, 3);
    }

    #[test]
    fn adversarial_overflow_is_an_error_not_a_panic() {
        // The clock readings are valid i64 nanoseconds, but their
        // difference overflows: this used to panic inside `Nanos`
        // subtraction before the checked-arithmetic sweep.
        let input = format!(
            concat!(
                "{{\"t\":\"domain\",\"domain\":\"a\",\"n\":2,",
                "\"links\":[{{\"a\":0,\"b\":1,\"lo_ns\":0,\"hi_ns\":1000}}]}}\n",
                "{{\"t\":\"batch\",\"domain\":\"a\",\"obs\":[[0,1,{},{}]]}}\n"
            ),
            i64::MIN,
            i64::MAX
        );
        let err = serve(&input).unwrap_err();
        assert!(err.contains("line 2"), "{err}");
        assert!(err.contains("overflow"), "{err}");
    }

    #[test]
    fn bad_input_is_reported_with_line_numbers() {
        let cases: &[(&str, &str)] = &[
            ("{\"t\":\"mystery\"}", "unknown command"),
            ("not json", "line 1"),
            ("{\"t\":\"batch\",\"domain\":\"ghost\",\"obs\":[]}", "not registered"),
            (
                "{\"t\":\"domain\",\"domain\":\"a\",\"n\":2,\"links\":[{\"a\":0,\"b\":1,\"lo_ns\":500,\"hi_ns\":100}]}",
                "0 <= lo_ns <= hi_ns",
            ),
            (
                "{\"t\":\"domain\",\"domain\":\"a\",\"n\":2,\"links\":[{\"a\":0,\"b\":7,\"lo_ns\":0,\"hi_ns\":100}]}",
                "out of range",
            ),
            (
                "{\"t\":\"domain\",\"domain\":\"a\",\"n\":2,\"links\":[]}\n{\"t\":\"batch\",\"domain\":\"a\",\"obs\":[[0,1,100]]}",
                "expected [src, dst, send_ns, recv_ns]",
            ),
        ];
        for (input, needle) in cases {
            let err = serve(input).unwrap_err();
            assert!(err.contains(needle), "input {input:?} gave {err:?}");
        }
    }

    #[test]
    fn adversarial_assumptions_are_line_errors_not_panics() {
        // `{"All": []}` would hit the `assert!(!parts.is_empty())` in
        // `LinkAssumption::all`, and inverted bounds the
        // `assert!(lower <= upper)` in `DelayRange::new`, if either were
        // forwarded to the constructors — one bad JSONL line must come
        // back as a line-numbered error instead of killing the server.
        let cases: &[(&str, &str)] = &[
            (
                "{\"t\":\"domain\",\"domain\":\"a\",\"n\":2,\"links\":[{\"a\":0,\"b\":1,\"assumption\":{\"All\":[]}}]}",
                "empty conjunction",
            ),
            (
                "{\"t\":\"domain\",\"domain\":\"a\",\"n\":2,\"links\":[{\"a\":0,\"b\":1,\"assumption\":{\"Bounds\":{\"forward\":{\"lower\":900,\"upper\":10},\"backward\":{\"lower\":0,\"upper\":null}}}}]}",
                "upper < lower",
            ),
            (
                "{\"t\":\"domain\",\"domain\":\"a\",\"n\":2,\"links\":[{\"a\":0,\"b\":1,\"assumption\":{\"MarzulloQuorum\":{\"forward\":{\"lower\":900,\"upper\":10},\"backward\":{\"lower\":0,\"upper\":null},\"max_faulty\":1}}}]}",
                "upper < lower",
            ),
            (
                "{\"t\":\"domain\",\"domain\":\"a\",\"n\":2,\"links\":[{\"a\":0,\"b\":1,\"assumption\":{\"RttBias\":{\"bound\":-3}}}]}",
                "must be positive",
            ),
        ];
        for (input, needle) in cases {
            let err = serve(input).unwrap_err();
            assert!(err.contains("line 1"), "input {input:?} gave {err:?}");
            assert!(err.contains(needle), "input {input:?} gave {err:?}");
        }
    }

    #[test]
    fn committed_adversarial_corpus_payloads_stay_typed_errors() {
        // The committed wire payloads in tests/corpus/serve/ are the
        // regression corpus for the decode-layer panic: each file is one
        // historically panicking JSONL command that must now come back
        // as a line-numbered error. Failing to read the directory fails
        // the test — corpus artifacts are commitments.
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/corpus/serve");
        let mut files: Vec<_> = std::fs::read_dir(&dir)
            .unwrap_or_else(|e| panic!("reading {}: {e}", dir.display()))
            .filter_map(|entry| entry.ok().map(|e| e.path()))
            .filter(|p| p.extension().is_some_and(|x| x == "jsonl"))
            .collect();
        files.sort();
        assert!(files.len() >= 2, "corpus lost its payloads: {files:?}");
        for file in files {
            let payload = std::fs::read_to_string(&file).unwrap();
            let err = serve(&payload).expect_err(&format!("{} must be rejected", file.display()));
            assert!(
                err.contains("line 1"),
                "{}: error lost its line number: {err:?}",
                file.display()
            );
        }
    }

    #[test]
    fn full_assumption_schema_is_wire_reachable() {
        // A Marzullo link declared over the wire, fed one wild sample
        // among honest ones: the service must register, ingest, and
        // produce a finite outcome (the wild source is outvoted rather
        // than wedging the domain in an inconsistent state).
        let input = r#"
{"t":"domain","domain":"m","n":2,"links":[{"a":0,"b":1,"assumption":{"MarzulloQuorum":{"forward":{"lower":0,"upper":1000},"backward":{"lower":0,"upper":1000},"max_faulty":1}}}]}
{"t":"batch","domain":"m","obs":[[0,1,0,400],[0,1,1000,1450],[1,0,2000,2600],[0,1,3000,3000000]]}
"#;
        let out = serve(input).unwrap();
        assert!(out[0].contains("registered `m`"), "{}", out[0]);
        assert!(out[1].contains("m: applied 4"), "{}", out[1]);
        assert!(out[2].starts_with("m: precision"), "{}", out[2]);
        assert!(!out[2].contains("inconsistent"), "{}", out[2]);
    }

    #[test]
    fn duplicate_domains_are_rejected() {
        let line = "{\"t\":\"domain\",\"domain\":\"a\",\"n\":2,\"links\":[]}";
        let input = format!("{line}\n{line}");
        let err = serve(&input).unwrap_err();
        assert!(err.contains("line 2"), "{err}");
        assert!(err.contains("already registered"), "{err}");
    }

    #[test]
    fn file_mode_agrees_with_the_synchronous_service() {
        // The concurrent engine behind file mode must not change a single
        // output byte relative to direct synchronous ingestion.
        let input = r#"
{"t":"domain","domain":"a","n":3,"links":[{"a":0,"b":1,"lo_ns":0,"hi_ns":1000},{"a":1,"b":2,"lo_ns":100,"hi_ns":600}]}
{"t":"domain","domain":"b","n":2,"links":[{"a":0,"b":1,"lo_ns":50,"hi_ns":800}]}
{"t":"batch","domain":"a","obs":[[0,1,100,400],[1,0,500,900],[1,2,0,350]]}
{"t":"batch","domain":"b","obs":[[0,1,10,500],[1,0,600,1100]]}
{"t":"batch","domain":"a","obs":[[2,1,1000,1400]]}
"#;
        let concurrent = serve(input).unwrap();

        let mut svc = clocksync_service::SyncService::new(2, 8);
        let mut expected = Vec::new();
        let mut names = Vec::new();
        for line in input.lines().map(str::trim) {
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            match decode_command(line, &Recorder::disabled()).unwrap() {
                Command::Domain(spec) => {
                    svc.register_domain(spec.name.as_str(), spec.network)
                        .unwrap();
                    expected.push(format!(
                        "registered `{}`: {} processors, {} links -> shard {}",
                        spec.name,
                        spec.n,
                        spec.link_count,
                        svc.shard_of(&spec.name)
                    ));
                    names.push(spec.name);
                }
                Command::Batch(batch) => {
                    let receipt = svc.ingest(&batch).unwrap();
                    expected.push(receipt_line(&receipt));
                }
                Command::Outcome(_) => unreachable!("the input has no outcome line"),
            }
        }
        for name in &names {
            expected.push(outcome_line(name, &svc.outcome(name).unwrap()));
        }
        assert_eq!(concurrent, expected);
    }
}
