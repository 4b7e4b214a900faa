//! A run file that breaks the message correspondence in several places
//! gets the same error from every `clocksync sync`: the violation with
//! the smallest message id.

use std::fs;
use std::process::{Command, Stdio};

use clocksync_cli::json::{self, Json};

#[test]
fn sync_names_the_smallest_lost_message_on_every_run() {
    let bin = env!("CARGO_BIN_EXE_clocksync");
    let run = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("lost-receives-ring4.json");
    let simulate = Command::new(bin)
        .args([
            "simulate",
            "--topology",
            "ring",
            "--n",
            "4",
            "--seed",
            "1",
            "--out",
        ])
        .arg(&run)
        .stderr(Stdio::null())
        .status()
        .expect("simulate runs");
    assert!(simulate.success());

    // p0 receives m3 and m11 from p1 and m4 and m12 from p3: drop those
    // four receives, leaving four lost messages.
    let mut file = json::parse(&fs::read_to_string(&run).expect("run file")).expect("JSON");
    let Json::Object(fields) = &mut file else {
        panic!("run file is not an object")
    };
    let Some(Json::Array(views)) = fields.get_mut("views") else {
        panic!("run file has no views")
    };
    let Json::Object(p0) = &mut views[0] else {
        panic!("view is not an object")
    };
    let Some(Json::Array(events)) = p0.get_mut("events") else {
        panic!("view has no events")
    };
    let before = events.len();
    events.retain(|e| {
        let recv = e.as_object("event").expect("event").get("Recv");
        let id = recv.map(|r| r.field("id", "Recv").and_then(|id| id.as_u64("id")));
        !matches!(id, Some(Ok(3 | 4 | 11 | 12)))
    });
    assert_eq!(events.len(), before - 4, "p0 receives m3, m4, m11, m12");
    fs::write(&run, json::to_string_pretty(&file)).expect("run file written");

    let stderrs: Vec<String> = (0..8)
        .map(|_| {
            let out = Command::new(bin)
                .arg("sync")
                .arg("--in")
                .arg(&run)
                .output()
                .expect("sync runs");
            assert!(!out.status.success(), "sync accepted lost messages");
            String::from_utf8_lossy(&out.stderr).into_owned()
        })
        .collect();
    assert!(
        stderrs[0].contains("message m3 sent by p1 was never received"),
        "{}",
        stderrs[0]
    );
    assert!(stderrs.iter().all(|s| *s == stderrs[0]), "{stderrs:#?}");
    fs::remove_file(&run).expect("run file removed");
}
