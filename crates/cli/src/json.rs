//! The JSON codec for the run-file schema.
//!
//! The workspace builds offline, so instead of depending on `serde_json`
//! the CLI uses the workspace's own JSON value type, parser and printer
//! (now hosted in [`clocksync_obs::json`] so the observability layer can
//! share it) and carries the explicit encoders/decoders for the
//! [`RunFile`] schema here.
//! The wire format matches what serde's externally-tagged representation
//! of these types would produce (`{"Bounds": {...}}`, `{"Send": {...}}`,
//! …), with one deliberate simplification: `+∞` delay upper bounds are
//! encoded as `null` instead of a tagged `Ext` variant.
//!
//! Decoding goes through the model types' validating constructors
//! ([`ViewSet::new`], [`DelayRange::new`]…), so a malformed or
//! axiom-violating file is a [`JsonError`], never a panic.

use clocksync::{DelayRange, LinkAssumption};
use clocksync_model::{MessageId, ProcessorId, View, ViewEvent, ViewSet};
use clocksync_time::{ClockTime, Ext, Nanos};

// The generic JSON layer lives in `clocksync-obs`; re-export it so the
// CLI's public `json` surface is unchanged.
pub use clocksync_obs::json::{parse, to_string, to_string_pretty, Json, JsonError};

use crate::runfile::{LinkEntry, RunFile};

// ---------------------------------------------------------------------------
// Run-file schema: encoding
// ---------------------------------------------------------------------------

fn clock_json(t: ClockTime) -> Json {
    Json::Int(t.as_nanos() as i128)
}

fn event_json(e: &ViewEvent) -> Json {
    match *e {
        ViewEvent::Start { clock } => {
            Json::object([("Start", Json::object([("clock", clock_json(clock))]))])
        }
        ViewEvent::Send { to, id, clock } => Json::object([(
            "Send",
            Json::object([
                ("to", Json::Int(to.index() as i128)),
                ("id", Json::Int(id.0 as i128)),
                ("clock", clock_json(clock)),
            ]),
        )]),
        ViewEvent::Recv { from, id, clock } => Json::object([(
            "Recv",
            Json::object([
                ("from", Json::Int(from.index() as i128)),
                ("id", Json::Int(id.0 as i128)),
                ("clock", clock_json(clock)),
            ]),
        )]),
        ViewEvent::Timer { clock } => {
            Json::object([("Timer", Json::object([("clock", clock_json(clock))]))])
        }
    }
}

fn view_json(v: &View) -> Json {
    Json::object([
        ("processor", Json::Int(v.processor().index() as i128)),
        (
            "events",
            Json::Array(v.events().iter().map(event_json).collect()),
        ),
    ])
}

fn delay_range_json(r: &DelayRange) -> Json {
    Json::object([
        ("lower", Json::Int(r.lower().as_nanos() as i128)),
        (
            "upper",
            match r.upper() {
                Ext::Finite(u) => Json::Int(u.as_nanos() as i128),
                _ => Json::Null, // +∞ (NegInf is unconstructible)
            },
        ),
    ])
}

/// Encodes a [`LinkAssumption`] (externally tagged, like serde would).
pub fn assumption_json(a: &LinkAssumption) -> Json {
    match a {
        LinkAssumption::Bounds { forward, backward } => Json::object([(
            "Bounds",
            Json::object([
                ("forward", delay_range_json(forward)),
                ("backward", delay_range_json(backward)),
            ]),
        )]),
        LinkAssumption::RttBias { bound } => Json::object([(
            "RttBias",
            Json::object([("bound", Json::Int(bound.as_nanos() as i128))]),
        )]),
        LinkAssumption::PairedRttBias { bound, window } => Json::object([(
            "PairedRttBias",
            Json::object([
                ("bound", Json::Int(bound.as_nanos() as i128)),
                ("window", Json::Int(window.as_nanos() as i128)),
            ]),
        )]),
        LinkAssumption::MarzulloQuorum {
            forward,
            backward,
            max_faulty,
        } => Json::object([(
            "MarzulloQuorum",
            Json::object([
                ("forward", delay_range_json(forward)),
                ("backward", delay_range_json(backward)),
                ("max_faulty", Json::Int(*max_faulty as i128)),
            ]),
        )]),
        LinkAssumption::All(parts) => Json::object([(
            "All",
            Json::Array(parts.iter().map(assumption_json).collect()),
        )]),
    }
}

/// Encodes a complete run file.
pub fn runfile_json(rf: &RunFile) -> Json {
    let mut fields = vec![
        ("processors", Json::Int(rf.processors as i128)),
        (
            "links",
            Json::Array(
                rf.links
                    .iter()
                    .map(|l| {
                        Json::object([
                            ("a", Json::Int(l.a as i128)),
                            ("b", Json::Int(l.b as i128)),
                            ("assumption", assumption_json(&l.assumption)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "views",
            Json::Array(rf.views.iter().map(view_json).collect()),
        ),
    ];
    if let Some(starts) = &rf.true_starts_ns {
        fields.push((
            "true_starts_ns",
            Json::Array(starts.iter().map(|&s| Json::Int(s as i128)).collect()),
        ));
    }
    Json::object(fields)
}

// ---------------------------------------------------------------------------
// Run-file schema: decoding
// ---------------------------------------------------------------------------

fn parse_clock(v: &Json, what: &str) -> Result<ClockTime, JsonError> {
    Ok(ClockTime::from_nanos(v.as_i64(what)?))
}

fn parse_event(v: &Json) -> Result<ViewEvent, JsonError> {
    let obj = v.as_object("event")?;
    let (tag, body) = obj
        .iter()
        .next()
        .ok_or_else(|| JsonError::new("event: empty object"))?;
    if obj.len() != 1 {
        return Err(JsonError::new("event: expected a single-variant object"));
    }
    match tag.as_str() {
        "Start" => Ok(ViewEvent::Start {
            clock: parse_clock(body.field("clock", "Start")?, "Start.clock")?,
        }),
        "Send" => Ok(ViewEvent::Send {
            to: ProcessorId(body.field("to", "Send")?.as_usize("Send.to")?),
            id: MessageId(
                u64::try_from(body.field("id", "Send")?.as_i128("Send.id")?)
                    .map_err(|_| JsonError::new("Send.id: expected a u64"))?,
            ),
            clock: parse_clock(body.field("clock", "Send")?, "Send.clock")?,
        }),
        "Recv" => Ok(ViewEvent::Recv {
            from: ProcessorId(body.field("from", "Recv")?.as_usize("Recv.from")?),
            id: MessageId(
                u64::try_from(body.field("id", "Recv")?.as_i128("Recv.id")?)
                    .map_err(|_| JsonError::new("Recv.id: expected a u64"))?,
            ),
            clock: parse_clock(body.field("clock", "Recv")?, "Recv.clock")?,
        }),
        "Timer" => Ok(ViewEvent::Timer {
            clock: parse_clock(body.field("clock", "Timer")?, "Timer.clock")?,
        }),
        other => Err(JsonError::new(format!("event: unknown variant `{other}`"))),
    }
}

fn parse_view(v: &Json) -> Result<View, JsonError> {
    let processor = ProcessorId(v.field("processor", "view")?.as_usize("view.processor")?);
    let events = v
        .field("events", "view")?
        .as_array("view.events")?
        .iter()
        .map(parse_event)
        .collect::<Result<Vec<_>, _>>()?;
    Ok(View::from_events(processor, events))
}

fn parse_delay_range(v: &Json, what: &str) -> Result<DelayRange, JsonError> {
    let lower = Nanos::new(v.field("lower", what)?.as_i64("lower")?);
    if lower < Nanos::ZERO {
        return Err(JsonError::new(format!("{what}: negative lower bound")));
    }
    match v.field("upper", what)? {
        Json::Null => Ok(DelayRange::at_least(lower)),
        upper => {
            let upper = Nanos::new(upper.as_i64("upper")?);
            if upper < lower {
                return Err(JsonError::new(format!("{what}: upper < lower")));
            }
            Ok(DelayRange::new(lower, upper))
        }
    }
}

fn parse_positive_nanos(v: &Json, what: &str) -> Result<Nanos, JsonError> {
    let n = Nanos::new(v.as_i64(what)?);
    if n <= Nanos::ZERO {
        return Err(JsonError::new(format!("{what}: must be positive")));
    }
    Ok(n)
}

/// Decodes a [`LinkAssumption`].
///
/// # Errors
///
/// Rejects unknown variants and values the constructors would refuse
/// (negative bounds, empty conjunctions…).
pub fn parse_assumption(v: &Json) -> Result<LinkAssumption, JsonError> {
    let obj = v.as_object("assumption")?;
    let (tag, body) = obj
        .iter()
        .next()
        .ok_or_else(|| JsonError::new("assumption: empty object"))?;
    if obj.len() != 1 {
        return Err(JsonError::new(
            "assumption: expected a single-variant object",
        ));
    }
    match tag.as_str() {
        "Bounds" => Ok(LinkAssumption::bounds(
            parse_delay_range(body.field("forward", "Bounds")?, "Bounds.forward")?,
            parse_delay_range(body.field("backward", "Bounds")?, "Bounds.backward")?,
        )),
        "RttBias" => Ok(LinkAssumption::rtt_bias(parse_positive_nanos(
            body.field("bound", "RttBias")?,
            "RttBias.bound",
        )?)),
        "PairedRttBias" => Ok(LinkAssumption::paired_rtt_bias(
            parse_positive_nanos(body.field("bound", "PairedRttBias")?, "PairedRttBias.bound")?,
            parse_positive_nanos(
                body.field("window", "PairedRttBias")?,
                "PairedRttBias.window",
            )?,
        )),
        "MarzulloQuorum" => {
            let max_faulty = body
                .field("max_faulty", "MarzulloQuorum")?
                .as_usize("MarzulloQuorum.max_faulty")?;
            Ok(LinkAssumption::marzullo_quorum(
                parse_delay_range(
                    body.field("forward", "MarzulloQuorum")?,
                    "MarzulloQuorum.forward",
                )?,
                parse_delay_range(
                    body.field("backward", "MarzulloQuorum")?,
                    "MarzulloQuorum.backward",
                )?,
                max_faulty,
            ))
        }
        "All" => {
            let parts = body
                .as_array("All")?
                .iter()
                .map(parse_assumption)
                .collect::<Result<Vec<_>, _>>()?;
            if parts.is_empty() {
                return Err(JsonError::new("All: empty conjunction"));
            }
            Ok(LinkAssumption::all(parts))
        }
        other => Err(JsonError::new(format!(
            "assumption: unknown variant `{other}`"
        ))),
    }
}

/// Decodes a complete run file, validating the view set.
pub fn parse_runfile(v: &Json) -> Result<RunFile, JsonError> {
    let processors = v
        .field("processors", "runfile")?
        .as_usize("runfile.processors")?;
    let links = v
        .field("links", "runfile")?
        .as_array("runfile.links")?
        .iter()
        .enumerate()
        .map(|(i, l)| {
            let what = format!("runfile.links[{i}]");
            let endpoint = |key: &str| -> Result<usize, JsonError> {
                let p = l.field(key, &what)?.as_usize(&format!("{what}.{key}"))?;
                if p >= processors {
                    return Err(JsonError::new(format!(
                        "{what}.{key}: processor {p} out of range ({processors} processors)"
                    )));
                }
                Ok(p)
            };
            let (a, b) = (endpoint("a")?, endpoint("b")?);
            if a == b {
                return Err(JsonError::new(format!(
                    "{what}: a link needs two distinct endpoints, got {a} twice"
                )));
            }
            Ok(LinkEntry {
                a,
                b,
                assumption: parse_assumption(l.field("assumption", &what)?)?,
            })
        })
        .collect::<Result<Vec<_>, JsonError>>()?;
    let views = v
        .field("views", "runfile")?
        .as_array("runfile.views")?
        .iter()
        .map(parse_view)
        .collect::<Result<Vec<_>, _>>()?;
    let views = ViewSet::new(views)
        .map_err(|e| JsonError::new(format!("runfile.views: invalid view set: {e}")))?;
    if views.len() != processors {
        return Err(JsonError::new(format!(
            "runfile: {} views for {} processors",
            views.len(),
            processors
        )));
    }
    let true_starts_ns = match v.as_object("runfile")?.get("true_starts_ns") {
        None | Some(Json::Null) => None,
        Some(arr) => {
            let starts = arr
                .as_array("runfile.true_starts_ns")?
                .iter()
                .map(|s| s.as_i64("true_starts_ns[..]"))
                .collect::<Result<Vec<_>, _>>()?;
            if starts.len() != processors {
                return Err(JsonError::new(format!(
                    "runfile.true_starts_ns: {} entries for {processors} processors",
                    starts.len()
                )));
            }
            Some(starts)
        }
    };
    Ok(RunFile {
        processors,
        links,
        views,
        true_starts_ns,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    #[test]
    fn assumption_schema_round_trips() {
        let a = LinkAssumption::all(vec![
            LinkAssumption::bounds(
                DelayRange::new(Nanos::new(5), Nanos::new(50)),
                DelayRange::at_least(Nanos::new(3)),
            ),
            LinkAssumption::rtt_bias(Nanos::new(7)),
            LinkAssumption::paired_rtt_bias(Nanos::new(2), Nanos::new(1000)),
            LinkAssumption::marzullo_quorum(
                DelayRange::new(Nanos::new(1), Nanos::new(20)),
                DelayRange::at_least(Nanos::new(4)),
                2,
            ),
        ]);
        let text = to_string_pretty(&assumption_json(&a));
        let back = parse_assumption(&parse(&text).unwrap()).unwrap();
        assert_eq!(back, a);
    }

    #[test]
    fn invalid_assumptions_are_schema_errors() {
        for text in [
            r#"{"RttBias": {"bound": 0}}"#,
            r#"{"RttBias": {"bound": -5}}"#,
            r#"{"All": []}"#,
            r#"{"Bounds": {"forward": {"lower": 5, "upper": 1}, "backward": {"lower": 0, "upper": null}}}"#,
            r#"{"Bounds": {"forward": {"lower": -1, "upper": null}, "backward": {"lower": 0, "upper": null}}}"#,
            r#"{"Mystery": {}}"#,
            r#"{"RttBias": {"bound": 1}, "All": []}"#,
            r#"{"MarzulloQuorum": {"forward": {"lower": 9, "upper": 2}, "backward": {"lower": 0, "upper": null}, "max_faulty": 1}}"#,
            r#"{"MarzulloQuorum": {"forward": {"lower": 0, "upper": 5}, "backward": {"lower": 0, "upper": 5}, "max_faulty": -1}}"#,
            r#"{"MarzulloQuorum": {"forward": {"lower": 0, "upper": 5}, "backward": {"lower": 0, "upper": 5}}}"#,
        ] {
            let v = parse(text).unwrap();
            assert!(parse_assumption(&v).is_err(), "accepted {text}");
        }
    }
}
