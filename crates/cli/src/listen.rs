//! The `clocksync serve --listen` front-end: a TCP acceptor that feeds
//! the concurrent sharded ingestion engine over length-prefixed JSON
//! frames.
//!
//! The wire protocol reuses the JSONL command vocabulary of file-mode
//! serve — each frame carries one `{"t":"domain",...}` or
//! `{"t":"batch",...}` object — plus `{"t":"outcome","domain":NAME}` to
//! query a domain's synchronization result mid-stream. Every request
//! frame gets exactly one JSON reply frame: `{"ok":true,...}` with the
//! acknowledgement fields, or `{"ok":false,"error":"..."}` naming what
//! was wrong with *that* command. A server must outlive bad input, so
//! command-level errors keep the connection open; only transport-level
//! violations (truncated or oversize frames, undecodable bytes) close it.
//!
//! Framing is [`clocksync_net::wire`] (4-byte big-endian length prefix,
//! 16 MiB ceiling). Connections are handled by scoped threads sharing one
//! [`ConcurrentService`], so frames from different connections land on
//! the same shard queues and per-domain ordering is whatever order the
//! acceptor's workers enqueue them — concurrent producers, exactly as the
//! engine is designed for.

use std::io::{BufReader, BufWriter, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};

use clocksync_net::wire::{read_frame, write_frame, WireError};
use clocksync_obs::Recorder;
use clocksync_service::{ConcurrentService, ServiceConfig};

use crate::json::{to_string, Json};
use crate::serve::{decode_command, Command};

/// What one `serve --listen` run saw, reported when the acceptor stops.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ListenStats {
    /// Connections accepted.
    pub connections: u64,
    /// Request frames processed (including ones answered with an error).
    pub frames: u64,
    /// Frames answered with `{"ok":false,...}` plus connections dropped
    /// for transport violations.
    pub errors: u64,
}

/// Accepts connections on `listener` and serves the framed-JSON ingestion
/// protocol until `max_conns` connections have been accepted and
/// finished (`None` means accept forever — the process-level serve loop).
///
/// Taking a bound [`TcpListener`] instead of an address keeps the
/// function testable: tests bind `127.0.0.1:0` and learn the ephemeral
/// port before handing the listener over.
///
/// # Errors
///
/// Only on acceptor-level failures (the `accept` call itself); per-
/// connection problems are counted in [`ListenStats::errors`] and never
/// stop the server.
pub fn serve_listener(
    listener: TcpListener,
    config: ServiceConfig,
    recorder: &Recorder,
    max_conns: Option<u64>,
) -> Result<ListenStats, String> {
    let svc = ConcurrentService::start_with_recorder(config, recorder.clone());
    let connections = AtomicU64::new(0);
    let frames = AtomicU64::new(0);
    let errors = AtomicU64::new(0);
    std::thread::scope(|scope| -> Result<(), String> {
        let mut accepted = 0u64;
        while max_conns.is_none_or(|cap| accepted < cap) {
            let (stream, peer) = listener
                .accept()
                .map_err(|e| format!("accept failed: {e}"))?;
            accepted += 1;
            connections.fetch_add(1, Ordering::Relaxed);
            let svc = &svc;
            let (frames, errors) = (&frames, &errors);
            scope.spawn(move || {
                let (f, e) = serve_connection(stream, svc, recorder);
                frames.fetch_add(f, Ordering::Relaxed);
                errors.fetch_add(e, Ordering::Relaxed);
                // Connection handlers are request/reply loops; nothing to
                // report per-connection beyond the counters. `peer` is
                // captured so a future structured log can name it.
                let _ = peer;
            });
        }
        Ok(())
    })?;
    svc.shutdown();
    Ok(ListenStats {
        connections: connections.into_inner(),
        frames: frames.into_inner(),
        errors: errors.into_inner(),
    })
}

/// Serves one connection to completion; returns `(frames, errors)`.
fn serve_connection(stream: TcpStream, svc: &ConcurrentService, recorder: &Recorder) -> (u64, u64) {
    let mut reader = BufReader::new(match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return (0, 1),
    });
    let mut writer = BufWriter::new(stream);
    let (mut frames, mut errors) = (0u64, 0u64);
    loop {
        let payload = match read_frame(&mut reader) {
            Ok(Some(payload)) => payload,
            Ok(None) => break, // clean shutdown between frames
            Err(WireError::Io(_)) | Err(WireError::Truncated) | Err(WireError::Oversize { .. }) => {
                errors += 1;
                break;
            }
        };
        frames += 1;
        let reply = match handle_frame(&payload, svc, recorder) {
            Ok(reply) => reply,
            Err(msg) => {
                errors += 1;
                Json::object([("ok", Json::Bool(false)), ("error", Json::Str(msg))])
            }
        };
        let encoded = to_string(&reply);
        if write_frame(&mut writer, encoded.as_bytes()).is_err() || writer.flush().is_err() {
            errors += 1;
            break;
        }
    }
    (frames, errors)
}

/// Decodes and executes one request frame against `svc`, building the
/// success reply; `recorder` gets the decode stage (see
/// [`decode_command`]).
///
/// # Errors
///
/// The message of the `{"ok":false,...}` reply: an undecodable frame, a
/// command that breaks its schema, or one the service refuses.
pub fn handle_frame(
    payload: &[u8],
    svc: &ConcurrentService,
    recorder: &Recorder,
) -> Result<Json, String> {
    let text = std::str::from_utf8(payload).map_err(|_| "frame is not utf-8".to_string())?;
    match decode_command(text, recorder)? {
        Command::Domain(spec) => {
            svc.register_domain(spec.name.as_str(), spec.network)
                .map_err(|e| e.to_string())?;
            Ok(Json::object([
                ("ok", Json::Bool(true)),
                ("registered", Json::Str(spec.name.clone())),
                ("shard", Json::Int(svc.shard_of(&spec.name) as i128)),
            ]))
        }
        Command::Batch(batch) => {
            // Block for the receipt: the reply frame is the client's
            // application acknowledgement, and waiting here is also the
            // protocol's backpressure (a producer cannot have more than
            // one batch in flight per connection).
            let receipt = svc
                .ingest(batch)
                .and_then(|pending| pending.wait())
                .map_err(|e| e.to_string())?;
            Ok(Json::object([
                ("ok", Json::Bool(true)),
                ("domain", Json::Str(receipt.domain.as_str().to_string())),
                ("shard", Json::Int(receipt.shard as i128)),
                ("applied", Json::Int(receipt.applied as i128)),
                ("gc_dropped", Json::Int(receipt.gc_dropped as i128)),
                (
                    "samples_compacted",
                    Json::Int(receipt.samples_compacted as i128),
                ),
                (
                    "retained_messages",
                    Json::Int(receipt.retained_messages as i128),
                ),
            ]))
        }
        Command::Outcome(doc) => {
            let name = doc
                .field("domain", "outcome command")
                .and_then(|v| v.as_str("domain"))
                .map_err(|e| e.to_string())?;
            let outcome = svc.outcome(name).map_err(|e| e.to_string())?;
            let corrections = outcome
                .corrections()
                .iter()
                .map(|r| Json::Float(r.to_f64()))
                .collect();
            Ok(Json::object([
                ("ok", Json::Bool(true)),
                ("domain", Json::Str(name.to_string())),
                (
                    "precision_ns",
                    outcome
                        .precision()
                        .finite()
                        .map_or(Json::Null, |p| Json::Float(p.to_f64())),
                ),
                ("corrections_ns", Json::Array(corrections)),
            ]))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;
    use std::net::TcpStream;

    fn request(stream: &mut TcpStream, body: &str) -> Json {
        write_frame(stream, body.as_bytes()).unwrap();
        let reply = read_frame(stream).unwrap().expect("reply frame");
        parse(std::str::from_utf8(&reply).unwrap()).unwrap()
    }

    fn ok(reply: &Json) -> bool {
        matches!(reply.field("ok", "reply"), Ok(Json::Bool(true)))
    }

    fn spawn_server(
        config: ServiceConfig,
        max_conns: u64,
    ) -> (std::net::SocketAddr, std::thread::JoinHandle<ListenStats>) {
        spawn_traced_server(config, max_conns, Recorder::disabled())
    }

    fn spawn_traced_server(
        config: ServiceConfig,
        max_conns: u64,
        recorder: Recorder,
    ) -> (std::net::SocketAddr, std::thread::JoinHandle<ListenStats>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let handle = std::thread::spawn(move || {
            serve_listener(listener, config, &recorder, Some(max_conns)).unwrap()
        });
        (addr, handle)
    }

    #[test]
    fn each_decoded_batch_frame_is_one_wire_decode_sample() {
        let recorder = Recorder::enabled();
        let (addr, server) = spawn_traced_server(ServiceConfig::default(), 1, recorder.clone());
        let mut conn = TcpStream::connect(addr).unwrap();
        let reply = request(
            &mut conn,
            r#"{"t":"domain","domain":"a","n":2,"links":[{"a":0,"b":1,"lo_ns":0,"hi_ns":1000}]}"#,
        );
        assert!(ok(&reply), "{reply:?}");
        let batches = 5;
        for i in 0..batches {
            let send = 1_000 * i;
            let frame = format!(
                r#"{{"t":"batch","domain":"a","obs":[[0,1,{send},{}],[1,0,{},{}]]}}"#,
                send + 400,
                send + 500,
                send + 800
            );
            assert!(ok(&request(&mut conn, &frame)));
        }
        assert!(ok(&request(&mut conn, r#"{"t":"outcome","domain":"a"}"#)));
        drop(conn);
        server.join().unwrap();
        let decode = recorder
            .snapshot()
            .hist("wire.decode")
            .expect("no wire.decode");
        assert_eq!(decode.count, batches);
    }

    #[test]
    fn frames_register_ingest_and_query_over_tcp() {
        let (addr, server) = spawn_server(
            ServiceConfig {
                shards: 2,
                window: 8,
                ..ServiceConfig::default()
            },
            1,
        );
        let mut conn = TcpStream::connect(addr).unwrap();
        let reply = request(
            &mut conn,
            r#"{"t":"domain","domain":"a","n":2,"links":[{"a":0,"b":1,"lo_ns":0,"hi_ns":1000}]}"#,
        );
        assert!(ok(&reply), "{reply:?}");
        let reply = request(
            &mut conn,
            r#"{"t":"batch","domain":"a","obs":[[0,1,100,400],[1,0,500,900]]}"#,
        );
        assert!(ok(&reply), "{reply:?}");
        assert_eq!(
            reply.field("applied", "reply").unwrap().as_i64("applied"),
            Ok(2)
        );
        let reply = request(&mut conn, r#"{"t":"outcome","domain":"a"}"#);
        assert!(ok(&reply), "{reply:?}");
        assert!(
            matches!(reply.field("precision_ns", "reply"), Ok(Json::Float(_))),
            "{reply:?}"
        );
        drop(conn);
        let stats = server.join().unwrap();
        assert_eq!(stats.connections, 1);
        assert_eq!(stats.frames, 3);
        assert_eq!(stats.errors, 0);
    }

    #[test]
    fn command_errors_keep_the_connection_open() {
        let (addr, server) = spawn_server(ServiceConfig::default(), 1);
        let mut conn = TcpStream::connect(addr).unwrap();
        // Three bad commands in a row, each answered, none fatal.
        for bad in [
            "not json",
            r#"{"t":"mystery"}"#,
            r#"{"t":"batch","domain":"ghost","obs":[]}"#,
        ] {
            let reply = request(&mut conn, bad);
            assert!(!ok(&reply), "{bad} was accepted: {reply:?}");
            let msg = reply.field("error", "reply").unwrap();
            assert!(matches!(msg, Json::Str(_)), "{reply:?}");
        }
        // The connection still works after the errors.
        let reply = request(&mut conn, r#"{"t":"domain","domain":"a","n":2,"links":[]}"#);
        assert!(ok(&reply), "{reply:?}");
        drop(conn);
        let stats = server.join().unwrap();
        assert_eq!(stats.frames, 4);
        assert_eq!(stats.errors, 3);
    }

    /// Sends `frame`, expects an error reply containing `needle`, then
    /// registers a domain on the same connection.
    fn bad_frame_is_answered_and_the_connection_serves_on(frame: &str, needle: &str) {
        let (addr, server) = spawn_server(ServiceConfig::default(), 1);
        let mut conn = TcpStream::connect(addr).unwrap();
        let reply = request(&mut conn, frame);
        assert!(!ok(&reply), "{frame} was accepted: {reply:?}");
        match reply.field("error", "reply") {
            Ok(Json::Str(msg)) => assert!(msg.contains(needle), "{msg}"),
            other => panic!("no error message: {other:?}"),
        }
        let reply = request(
            &mut conn,
            r#"{"t":"domain","domain":"a","n":2,"links":[{"a":0,"b":1,"lo_ns":0,"hi_ns":100}]}"#,
        );
        assert!(ok(&reply), "{reply:?}");
        drop(conn);
        let stats = server.join().unwrap();
        assert_eq!((stats.frames, stats.errors), (2, 1));
    }

    #[test]
    fn a_self_link_frame_gets_an_error_reply_and_the_connection_serves_on() {
        bad_frame_is_answered_and_the_connection_serves_on(
            r#"{"t":"domain","domain":"a","n":2,"links":[{"a":1,"b":1,"lo_ns":0,"hi_ns":100}]}"#,
            "links[0]",
        );
    }

    #[test]
    fn a_huge_domain_frame_gets_an_error_reply_and_the_connection_serves_on() {
        bad_frame_is_answered_and_the_connection_serves_on(
            r#"{"t":"domain","domain":"a","n":100000000000,"links":[]}"#,
            "n: 100000000000 processors is past the limit of 8192",
        );
    }

    #[test]
    fn concurrent_connections_share_one_service() {
        let (addr, server) = spawn_server(
            ServiceConfig {
                shards: 2,
                window: 16,
                ..ServiceConfig::default()
            },
            3,
        );
        let mut setup = TcpStream::connect(addr).unwrap();
        let reply = request(
            &mut setup,
            r#"{"t":"domain","domain":"shared","n":2,"links":[{"a":0,"b":1,"lo_ns":0,"hi_ns":1000}]}"#,
        );
        assert!(ok(&reply), "{reply:?}");
        drop(setup);

        // Two producers ingest into the same domain concurrently.
        let workers: Vec<_> = (0..2)
            .map(|w| {
                std::thread::spawn(move || {
                    let mut conn = TcpStream::connect(addr).unwrap();
                    let mut applied = 0i64;
                    for i in 0..20i64 {
                        let send = 1_000 * i + w;
                        let reply = request(
                            &mut conn,
                            &format!(
                                r#"{{"t":"batch","domain":"shared","obs":[[0,1,{send},{}],[1,0,{},{}]]}}"#,
                                send + 400,
                                send + 500,
                                send + 800
                            ),
                        );
                        assert!(ok(&reply), "{reply:?}");
                        applied += reply
                            .field("applied", "reply")
                            .unwrap()
                            .as_i64("applied")
                            .unwrap();
                    }
                    // The last producer to finish still sees a coherent
                    // outcome covering everything it ingested.
                    let reply = request(&mut conn, r#"{"t":"outcome","domain":"shared"}"#);
                    assert!(ok(&reply), "{reply:?}");
                    applied
                })
            })
            .collect();
        let total: i64 = workers.into_iter().map(|w| w.join().unwrap()).sum();
        assert_eq!(total, 2 * 20 * 2);
        let stats = server.join().unwrap();
        assert_eq!(stats.connections, 3);
        assert_eq!(stats.errors, 0);
        assert_eq!(stats.frames, 1 + 2 * 21);
    }

    #[test]
    fn transport_violations_close_the_connection() {
        let (addr, server) = spawn_server(ServiceConfig::default(), 1);
        let mut conn = TcpStream::connect(addr).unwrap();
        // A hostile length prefix: 256 MiB announced.
        use std::io::Write as _;
        conn.write_all(&(256u32 * 1024 * 1024).to_be_bytes())
            .unwrap();
        conn.write_all(b"junk").unwrap();
        // The server drops the connection rather than allocating.
        drop(conn);
        let stats = server.join().unwrap();
        assert_eq!(stats.frames, 0);
        assert_eq!(stats.errors, 1);
    }
}
