//! The one-pass command decoder (`serve::decode_command`) against the
//! tree walk it replaced: parse the whole line into a `Json` tree, then
//! walk `obs` row by row. Both must give the same batch or the same error
//! text for every input: fixed cases for each quirk of the old decoder,
//! generated frames, and seeded byte-level mutants of the committed
//! corpus, the serve and listen test frames and generated batch frames,
//! each of which also gets a reply from `handle_frame` on a live service.

use clocksync::BatchObservation;
use clocksync_cli::json::{parse, to_string, Json};
use clocksync_cli::listen::handle_frame;
use clocksync_cli::serve::{decode_command, decode_domain, Command};
use clocksync_model::ProcessorId;
use clocksync_obs::Recorder;
use clocksync_service::{ConcurrentService, ObservationBatch, ServiceConfig};
use clocksync_time::ClockTime;
use proptest::prelude::*;

/// What a decode produced, in terms both decoders share.
#[derive(Debug, PartialEq)]
enum Decoded {
    Batch(ObservationBatch),
    /// A registration's name, processor count and link count (both sides
    /// run the same `decode_domain`).
    Domain(String, usize, usize),
    /// An outcome query's `domain`, as the wire front-end reads it.
    Outcome(Result<String, String>),
}

fn outcome_domain(doc: &Json) -> Result<String, String> {
    doc.field("domain", "outcome command")
        .and_then(|v| v.as_str("domain"))
        .map(str::to_string)
        .map_err(|e| e.to_string())
}

/// The one-pass decoder.
fn one_pass(text: &str) -> Result<Decoded, String> {
    Ok(match decode_command(text, &Recorder::disabled())? {
        Command::Batch(batch) => Decoded::Batch(batch),
        Command::Domain(spec) => Decoded::Domain(spec.name, spec.n, spec.link_count),
        Command::Outcome(doc) => Decoded::Outcome(outcome_domain(&doc)),
    })
}

/// The reference: the tree walk `serve` and `serve --listen` ran before
/// the one-pass reader.
fn tree_walk(text: &str) -> Result<Decoded, String> {
    let doc = parse(text).map_err(|e| e.to_string())?;
    let t = doc
        .field("t", "command")
        .and_then(|v| v.as_str("t"))
        .map_err(|e| e.to_string())?;
    match t {
        "domain" => {
            decode_domain(&doc).map(|spec| Decoded::Domain(spec.name, spec.n, spec.link_count))
        }
        "batch" => tree_walk_batch(&doc).map(Decoded::Batch),
        "outcome" => Ok(Decoded::Outcome(outcome_domain(&doc))),
        other => Err(format!("unknown command `{other}`")),
    }
}

/// The old `decode_batch`: every row's labels formatted before the row
/// is checked.
fn tree_walk_batch(doc: &Json) -> Result<ObservationBatch, String> {
    let name = doc
        .field("domain", "batch command")
        .and_then(|v| v.as_str("domain"))
        .map_err(|e| e.to_string())?;
    let rows = doc
        .field("obs", "batch command")
        .and_then(|v| v.as_array("obs"))
        .map_err(|e| e.to_string())?;
    let mut observations = Vec::with_capacity(rows.len());
    for (i, row) in rows.iter().enumerate() {
        let what = format!("obs[{i}]");
        let row = row.as_array(&what).map_err(|e| e.to_string())?;
        if row.len() != 4 {
            return Err(format!(
                "{what}: expected [src, dst, send_ns, recv_ns], got {} elements",
                row.len()
            ));
        }
        let src = row[0]
            .as_usize(&format!("{what}[0]"))
            .map_err(|e| e.to_string())?;
        let dst = row[1]
            .as_usize(&format!("{what}[1]"))
            .map_err(|e| e.to_string())?;
        let send = row[2]
            .as_i64(&format!("{what}[2]"))
            .map_err(|e| e.to_string())?;
        let recv = row[3]
            .as_i64(&format!("{what}[3]"))
            .map_err(|e| e.to_string())?;
        observations.push(BatchObservation {
            src: ProcessorId(src),
            dst: ProcessorId(dst),
            send_clock: ClockTime::from_nanos(send),
            recv_clock: ClockTime::from_nanos(recv),
        });
    }
    Ok(ObservationBatch::new(name, observations))
}

fn observation(src: usize, dst: usize, send: i64, recv: i64) -> BatchObservation {
    BatchObservation {
        src: ProcessorId(src),
        dst: ProcessorId(dst),
        send_clock: ClockTime::from_nanos(send),
        recv_clock: ClockTime::from_nanos(recv),
    }
}

/// Decodes `text` both ways, asserts they agree, and returns the answer.
fn agreed(text: &str) -> Result<Decoded, String> {
    let fast = one_pass(text);
    assert_eq!(fast, tree_walk(text), "the decoders disagree on {text:?}");
    fast
}

fn batch(text: &str) -> Vec<BatchObservation> {
    match agreed(text) {
        Ok(Decoded::Batch(b)) => b.observations,
        other => panic!("{text:?} decoded as {other:?}"),
    }
}

fn error(text: &str) -> String {
    agreed(text).expect_err(&format!("{text:?} was accepted"))
}

#[test]
fn rows_decode_with_the_old_number_quirks() {
    assert_eq!(
        batch(r#"{"t":"batch","domain":"a","obs":[[0,1,100,400],[1,0,500,900]]}"#),
        vec![observation(0, 1, 100, 400), observation(1, 0, 500, 900)]
    );
    // Leading zeros and `-0` are integers.
    assert_eq!(
        batch(r#"{"t":"batch","domain":"a","obs":[[00,01,-0,007]]}"#),
        vec![observation(0, 1, 0, 7)]
    );
    // The i64 extremes, and an index past i64 that fits usize.
    assert_eq!(
        batch(&format!(
            r#"{{"t":"batch","domain":"a","obs":[[18446744073709551615,0,{},{}]]}}"#,
            i64::MIN,
            i64::MAX
        )),
        vec![observation(usize::MAX, 0, i64::MIN, i64::MAX)]
    );
    // More than 19 digits go to the i128 parser, leading zeros too.
    assert_eq!(
        batch(
            r#"{"t":"batch","domain":"a","obs":[[0,1,0000000000000000000000005,-000000000000000000000009223372036854775808]]}"#
        ),
        vec![observation(0, 1, 5, i64::MIN)]
    );
    assert_eq!(batch(r#"{"t":"batch","domain":"a","obs":[]}"#), vec![]);
    assert_eq!(
        batch(
            " {\n\t\"obs\" : [ [ 0 , 1 , 2 , 3 ] ] ,\r\n \"domain\":\"a\", \"t\" :\"batch\" } \n"
        ),
        vec![observation(0, 1, 2, 3)]
    );

    let row = |cells: &str| format!(r#"{{"t":"batch","domain":"a","obs":[[0,1,2,3],{cells}]}}"#);
    for (cells, message) in [
        ("[0,1,-,3]", "json: integer overflow at offset 49"),
        (
            "[0,1,2,9223372036854775808]",
            "json: obs[1][3]: integer out of i64 range",
        ),
        (
            "[0,1,-9223372036854775809,3]",
            "json: obs[1][2]: integer out of i64 range",
        ),
        (
            "[0,1,2,170141183460469231731687303715884105728]",
            "json: integer overflow at offset 89",
        ),
        (
            "[-1,1,2,3]",
            "json: obs[1][0]: expected a nonnegative index",
        ),
        (
            "[0,18446744073709551616,2,3]",
            "json: obs[1][1]: expected a nonnegative index",
        ),
        ("[0,1,2.5,3]", "json: obs[1][2]: expected an integer"),
        ("[0,1,2,1e3]", "json: obs[1][3]: expected an integer"),
        ("[0,1,2,3.]", "json: obs[1][3]: expected an integer"),
        ("[0,\"1\",2,3]", "json: obs[1][1]: expected an integer"),
        ("[[0],1,2,3]", "json: obs[1][0]: expected an integer"),
        (
            "[0,1,2]",
            "obs[1]: expected [src, dst, send_ns, recv_ns], got 3 elements",
        ),
        (
            "[]",
            "obs[1]: expected [src, dst, send_ns, recv_ns], got 0 elements",
        ),
        (
            "[0,1,2,3,\"x\"]",
            "obs[1]: expected [src, dst, send_ns, recv_ns], got 5 elements",
        ),
        ("{\"src\":0}", "json: obs[1]: expected an array"),
        ("7", "json: obs[1]: expected an array"),
        ("1e", "json: invalid number at offset 45"),
    ] {
        assert_eq!(error(&row(cells)), message, "row {cells}");
    }
}

#[test]
fn errors_keep_their_order() {
    // A syntax error anywhere wins over a row that broke the schema.
    for text in [
        r#"{"t":"batch","domain":"a","obs":[[0,1,2,"x"]],}"#,
        r#"{"t":"batch","domain":"a","obs":[[-1,1,2,3],[0 1]]}"#,
        r#"{"t":"batch","domain":"a","obs":[[0.5,1,2,3]]} x"#,
        r#"{"t":"batch","domain":"a","obs":[["x"],[0,1,2,3]"#,
    ] {
        assert!(error(text).contains("at offset"), "{text}");
    }
    // The command, then the domain, then the table.
    assert_eq!(
        error(r#"{"domain":"a","obs":[[-1]]}"#),
        "json: command: missing field `t`"
    );
    assert_eq!(
        error(r#"{"t":"batch","domain":7,"obs":[[-1]]}"#),
        "json: domain: expected a string"
    );
    assert_eq!(
        error(r#"{"t":"batch","obs":[[-1]]}"#),
        "json: batch command: missing field `domain`"
    );
    assert_eq!(
        error(r#"{"t":"batch","domain":"a"}"#),
        "json: batch command: missing field `obs`"
    );
    assert_eq!(
        error(r#"{"t":"batch","domain":"a","obs":{"0":[0,1,2,3]}}"#),
        "json: obs: expected an array"
    );
    // The first bad row is the one reported.
    assert_eq!(
        error(r#"{"t":"batch","domain":"a","obs":[[0,1,2,3],[0,1,2],[-1,0,0,0]]}"#),
        "obs[1]: expected [src, dst, send_ns, recv_ns], got 3 elements"
    );
    assert_eq!(error("[1,2]"), "json: command: expected an object");
    assert_eq!(error(r#"{"t":5}"#), "json: t: expected a string");
    assert_eq!(
        error(r#"{"t":"mystery","obs":[[0,1,2,3]]}"#),
        "unknown command `mystery`"
    );
}

#[test]
fn duplicate_keys_keep_the_last_and_other_commands_ignore_obs() {
    assert_eq!(
        batch(r#"{"t":"batch","domain":"a","obs":[[0,1,2,3]],"obs":[[1,0,5,6]]}"#),
        vec![observation(1, 0, 5, 6)]
    );
    assert_eq!(
        batch(r#"{"t":"batch","domain":"a","obs":[[-1]],"obs":[[1,0,5,6]]}"#),
        vec![observation(1, 0, 5, 6)]
    );
    assert_eq!(
        error(r#"{"t":"batch","domain":"a","obs":[[0,1,2,3]],"obs":5}"#),
        "json: obs: expected an array"
    );
    assert_eq!(
        error(r#"{"t":"batch","domain":"a","obs":5,"obs":[[0,1,2]]}"#),
        "obs[0]: expected [src, dst, send_ns, recv_ns], got 3 elements"
    );
    assert_eq!(
        batch(r#"{"t":"domain","t":"batch","domain":"b","domain":"a","obs":[[0,1,2,3]]}"#),
        vec![observation(0, 1, 2, 3)]
    );
    // `t` after `obs`, and the key matched after unescaping.
    assert_eq!(
        batch(r#"{"o\u0062s":[[0,1,2,3]],"domain":"a","t":"batch"}"#),
        vec![observation(0, 1, 2, 3)]
    );
    // A nested `obs` is only a value.
    assert_eq!(
        error(r#"{"t":"batch","domain":"a","x":{"obs":[[0,1,2,3]]}}"#),
        "json: batch command: missing field `obs`"
    );
    assert_eq!(
        agreed(r#"{"t":"outcome","domain":"a","obs":[[-1,"x"]]}"#),
        Ok(Decoded::Outcome(Ok("a".to_string())))
    );
    assert_eq!(
        agreed(r#"{"obs":"x","t":"domain","domain":"d","n":2,"links":[]}"#),
        Ok(Decoded::Domain("d".to_string(), 2, 0))
    );
}

/// A deterministic generator (SplitMix64).
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, bound: usize) -> usize {
        (self.next() % bound as u64) as usize
    }

    fn pick<'a>(&mut self, items: &[&'a str]) -> &'a str {
        items[self.below(items.len())]
    }

    fn chance(&mut self, percent: usize) -> bool {
        self.below(100) < percent
    }
}

/// Number and value tokens on either side of every boundary the decoder
/// checks.
const CELLS: &[&str] = &[
    "00",
    "007",
    "-0",
    "-",
    "-1",
    "9223372036854775807",
    "9223372036854775808",
    "-9223372036854775808",
    "-9223372036854775809",
    "9999999999999999999",
    "-9999999999999999999",
    "18446744073709551615",
    "18446744073709551616",
    "170141183460469231731687303715884105727",
    "170141183460469231731687303715884105728",
    "-170141183460469231731687303715884105728",
    "1.5",
    "1e3",
    "-2E-2",
    "1.",
    "\"7\"",
    "null",
    "true",
    "[1]",
    "{}",
    "[]",
];

const SPACES: &[&str] = &["", "", "", " ", "\n", "\t", "  \r\n"];

/// A batch-shaped frame: mostly well-formed rows, with boundary tokens,
/// odd row lengths, reordered, duplicated and missing keys, other
/// commands and whitespace mixed in.
fn generated_frame(rng: &mut Rng) -> String {
    let ws = |rng: &mut Rng| rng.pick(SPACES);
    let cell = |rng: &mut Rng| -> String {
        match rng.below(10) {
            0..=2 => rng.pick(CELLS).to_string(),
            3..=5 => rng.below(4).to_string(),
            _ => (rng.next() as i64 >> rng.below(64)).to_string(),
        }
    };
    let mut rows = Vec::new();
    for _ in 0..rng.below(10) {
        let len = if rng.chance(90) { 4 } else { rng.below(7) };
        let cells: Vec<String> = (0..len)
            .map(|_| format!("{}{}{}", ws(rng), cell(rng), ws(rng)))
            .collect();
        rows.push(if rng.chance(97) {
            format!("[{}]", cells.join(","))
        } else {
            rng.pick(CELLS).to_string()
        });
    }
    let table = if rng.chance(95) {
        format!("[{}{}]", ws(rng), rows.join(&format!(",{}", ws(rng))))
    } else {
        rng.pick(&["5", "\"x\"", "null", "{}", "{\"0\":[0,1,2,3]}"])
            .to_string()
    };
    let mut entries: Vec<(String, String)> = Vec::new();
    if rng.chance(95) {
        let t = if rng.chance(85) {
            "\"batch\""
        } else {
            rng.pick(&["\"outcome\"", "\"mystery\"", "5", "\"domain\""])
        };
        entries.push(("\"t\"".into(), t.into()));
    }
    if rng.chance(95) {
        let name = rng.pick(&["\"a\"", "\"a\"", "\"b\"", "7", "\"\\u0061\""]);
        entries.push(("\"domain\"".into(), name.into()));
    }
    if rng.chance(95) {
        let key = if rng.chance(90) {
            "\"obs\""
        } else {
            "\"o\\u0062s\""
        };
        entries.push((key.into(), table));
    }
    if rng.chance(10) {
        entries.push(("\"x\"".into(), "{\"obs\":[[-1]]}".into()));
    }
    if rng.chance(15) && !entries.is_empty() {
        let i = rng.below(entries.len());
        let mut twin = entries[i].clone();
        if twin.0 == "\"obs\"" {
            twin.1 = format!("[[{},1,2,3]]", rng.below(3));
        }
        entries.push(twin);
    }
    for i in (1..entries.len()).rev() {
        entries.swap(i, rng.below(i + 1));
    }
    let body: Vec<String> = entries
        .iter()
        .map(|(k, v)| format!("{}{k}{}:{}{v}{}", ws(rng), ws(rng), ws(rng), ws(rng)))
        .collect();
    format!("{}{{{}}}{}", ws(rng), body.join(","), ws(rng))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2000))]

    #[test]
    fn generated_frames_decode_as_the_tree_walk(seed in any::<u64>()) {
        let text = generated_frame(&mut Rng(seed));
        prop_assert_eq!(one_pass(&text), tree_walk(&text), "frame {:?}", text);
    }
}

/// A well-formed batch for domain `a` or `m` (both two processors),
/// with clock readings of up to 13 digits.
fn batch_frame(rng: &mut Rng) -> String {
    let rows: Vec<String> = (0..1 + rng.below(8))
        .map(|_| {
            let src = rng.below(2);
            let send = (rng.next() >> 24) as i64;
            let recv = send + rng.below(2_000) as i64;
            format!("[{src},{},{send},{recv}]", 1 - src)
        })
        .collect();
    let domain = rng.pick(&["a", "m"]);
    format!(
        r#"{{"t":"batch","domain":"{domain}","obs":[{}]}}"#,
        rows.join(",")
    )
}

/// The frames the serve and listen tests send.
const TEST_FRAMES: &[&str] = &[
    r#"{"t":"domain","domain":"a","n":2,"links":[{"a":0,"b":1,"lo_ns":0,"hi_ns":1000}]}"#,
    r#"{"t":"domain","domain":"a","n":3,"links":[{"a":0,"b":1,"lo_ns":0,"hi_ns":1000},{"a":1,"b":2,"lo_ns":100,"hi_ns":600}]}"#,
    r#"{"t":"domain","domain":"m","n":2,"links":[{"a":0,"b":1,"assumption":{"MarzulloQuorum":{"forward":{"lower":0,"upper":1000},"backward":{"lower":0,"upper":1000},"max_faulty":1}}}]}"#,
    r#"{"t":"batch","domain":"a","obs":[[0,1,100,400],[1,0,500,900]]}"#,
    r#"{"t":"batch","domain":"a","obs":[[0,1,100,400],[1,0,500,900],[1,2,0,350]]}"#,
    r#"{"t":"batch","domain":"m","obs":[[0,1,0,400],[0,1,1000,1450],[1,0,2000,2600],[0,1,3000,3000000]]}"#,
    r#"{"t":"batch","domain":"a","obs":[[0,1,-9223372036854775808,9223372036854775807]]}"#,
    r#"{"t":"batch","domain":"shared","obs":[[0,1,1000,1400],[1,0,1500,1800]]}"#,
    r#"{"t":"outcome","domain":"a"}"#,
    r#"{"t":"mystery"}"#,
    r#"{"t":"batch","domain":"ghost","obs":[]}"#,
    "not json",
];

/// The committed adversarial lines of `tests/corpus/serve/`.
fn corpus_lines() -> Vec<String> {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/corpus/serve");
    let mut files: Vec<_> = std::fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("reading {}: {e}", dir.display()))
        .map(|entry| entry.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "jsonl"))
        .collect();
    files.sort();
    let lines: Vec<String> = files
        .iter()
        .flat_map(|f| {
            let text = std::fs::read_to_string(f).unwrap();
            text.lines().map(str::to_string).collect::<Vec<_>>()
        })
        .filter(|l| !l.trim().is_empty())
        .collect();
    assert!(lines.len() >= 4, "corpus lost its payloads: {files:?}");
    lines
}

/// Whether `v` prints: a float the parser read as infinite (`1e999`)
/// does not.
fn printable(v: &Json) -> bool {
    match v {
        Json::Float(f) => f.is_finite(),
        Json::Array(items) => items.iter().all(printable),
        Json::Object(map) => map.values().all(printable),
        _ => true,
    }
}

/// Re-renders an object with its entries shuffled and one of them
/// repeated under another entry's value; other documents pass through.
fn reorder_keys(text: &[u8], rng: &mut Rng) -> Vec<u8> {
    let doc = std::str::from_utf8(text).ok().and_then(|t| parse(t).ok());
    let Some(Json::Object(map)) = doc.filter(printable) else {
        return text.to_vec();
    };
    let mut entries: Vec<(String, String)> = map
        .iter()
        .map(|(k, v)| (to_string(&Json::Str(k.clone())), to_string(v)))
        .collect();
    if !entries.is_empty() {
        let (i, j) = (rng.below(entries.len()), rng.below(entries.len()));
        entries.push((entries[i].0.clone(), entries[j].1.clone()));
    }
    for i in (1..entries.len()).rev() {
        entries.swap(i, rng.below(i + 1));
    }
    let body: Vec<String> = entries.iter().map(|(k, v)| format!("{k}:{v}")).collect();
    format!("{{{}}}", body.join(",")).into_bytes()
}

/// Applies one to three byte-level mutations.
fn mutate(seed: &[u8], rng: &mut Rng) -> Vec<u8> {
    let mut bytes = seed.to_vec();
    for _ in 0..1 + rng.below(3) / 2 {
        let at = rng.below(bytes.len() + 1);
        match rng.below(7) {
            // A byte flip.
            0 | 1 if at < bytes.len() => bytes[at] ^= 1 << rng.below(8),
            // A truncation.
            2 => bytes.truncate(at),
            // A span repeated after itself.
            3 => {
                let end = (at + 1 + rng.below(16)).min(bytes.len());
                let span = bytes[at.min(end)..end].to_vec();
                bytes.splice(end..end, span);
            }
            // A run of digits past i64 (19+) or past i128 (40+).
            4 => {
                let len = 19 + rng.below(30);
                let run: Vec<u8> = (0..len).map(|_| b'0' + rng.below(10) as u8).collect();
                bytes.splice(at..at, run);
            }
            // Whitespace.
            5 => {
                let ws = rng
                    .pick(&[" ", "\n", "\t", "\r\n", "   "])
                    .as_bytes()
                    .to_vec();
                bytes.splice(at..at, ws);
            }
            _ => bytes = reorder_keys(&bytes, rng),
        }
    }
    bytes
}

#[test]
fn mutants_get_a_reply_and_decode_as_the_tree_walk() {
    const MUTANTS: usize = 20_000;
    let svc = ConcurrentService::start(ServiceConfig {
        shards: 2,
        window: 8,
        ..ServiceConfig::default()
    });
    let recorder = Recorder::disabled();
    for frame in [TEST_FRAMES[0], TEST_FRAMES[2]] {
        handle_frame(frame.as_bytes(), &svc, &recorder).unwrap();
    }
    let mut rng = Rng(0x5EED);
    let mut seeds: Vec<Vec<u8>> = TEST_FRAMES
        .iter()
        .map(|f| f.as_bytes().to_vec())
        .chain(corpus_lines().into_iter().map(String::into_bytes))
        .collect();
    seeds.extend((0..32).map(|_| generated_frame(&mut rng).into_bytes()));
    seeds.extend((0..32).map(|_| batch_frame(&mut rng).into_bytes()));
    let (mut ok, mut errors, mut batches) = (0, 0, 0);
    for _ in 0..MUTANTS {
        let seed = &seeds[rng.below(seeds.len())];
        let mutant = mutate(seed, &mut rng);
        if let Ok(text) = std::str::from_utf8(&mutant) {
            let decoded = one_pass(text);
            assert_eq!(
                decoded,
                tree_walk(text),
                "the decoders disagree on {text:?}"
            );
            batches += usize::from(matches!(decoded, Ok(Decoded::Batch(_))));
        }
        match handle_frame(&mutant, &svc, &recorder) {
            Ok(_) => ok += 1,
            Err(_) => errors += 1,
        }
    }
    // Every shard worker is still serving: none died on a mutant.
    assert_eq!(svc.stats().workers.len(), 2);
    svc.shutdown();
    assert_eq!(ok + errors, MUTANTS);
    // The mutants reach the service, not only the parser's error paths.
    assert!(ok > MUTANTS / 20, "{ok} of {MUTANTS} mutants were accepted");
    assert!(
        batches > MUTANTS / 20,
        "{batches} of {MUTANTS} mutants decoded as batches"
    );
}
