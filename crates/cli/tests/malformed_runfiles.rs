//! A run file whose links or ground truth do not fit its processors is an
//! input error: `clocksync sync` exits 1 and names the offending field,
//! where it once panicked (exit 101) building the network or the
//! ground-truth execution.

use std::fs;
use std::path::Path;
use std::process::{Command, Stdio};

use clocksync_cli::json::{self, Json};

/// Writes a 4-node ring run file to `path`.
fn simulate(bin: &str, path: &Path) {
    let status = Command::new(bin)
        .args(["simulate", "--topology", "ring", "--n", "4", "--seed", "1"])
        .arg("--out")
        .arg(path)
        .stderr(Stdio::null())
        .status()
        .expect("simulate runs");
    assert!(status.success());
}

/// The run file's top-level field `key`.
fn field<'a>(file: &'a mut Json, key: &str) -> &'a mut Json {
    let Json::Object(fields) = file else {
        panic!("run file is not an object")
    };
    fields.get_mut(key).unwrap_or_else(|| panic!("no `{key}`"))
}

/// Sets `links[0].<key>` to `value`.
fn set_link_endpoint(file: &mut Json, key: &str, value: i128) {
    let Json::Array(links) = field(file, "links") else {
        panic!("links is not an array")
    };
    let Json::Object(link) = &mut links[0] else {
        panic!("link is not an object")
    };
    link.insert(key.to_string(), Json::Int(value));
}

#[test]
fn sync_rejects_links_and_starts_that_do_not_fit_the_processors() {
    let bin = env!("CARGO_BIN_EXE_clocksync");
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR"));
    let good = dir.join("malformed-ring4.json");
    simulate(bin, &good);
    let original = json::parse(&fs::read_to_string(&good).expect("run file")).expect("JSON");
    let endpoint_a = |file: &mut Json| match field(file, "links") {
        Json::Array(links) => links[0].field("a", "link").unwrap().as_i64("a").unwrap(),
        _ => panic!("links is not an array"),
    };

    type Mutation = Box<dyn Fn(&mut Json)>;
    let cases: Vec<(&str, Mutation, String)> = vec![
        (
            "self-link",
            Box::new(move |file| {
                let a = endpoint_a(file);
                set_link_endpoint(file, "b", i128::from(a));
            }),
            "runfile.links[0]: a link needs two distinct endpoints".to_string(),
        ),
        (
            "endpoint-out-of-range",
            Box::new(|file| set_link_endpoint(file, "b", 7)),
            "runfile.links[0].b: processor 7 out of range (4 processors)".to_string(),
        ),
        (
            "short-true-starts",
            Box::new(|file| {
                let Json::Array(starts) = field(file, "true_starts_ns") else {
                    panic!("true_starts_ns is not an array")
                };
                starts.truncate(2);
            }),
            "runfile.true_starts_ns: 2 entries for 4 processors".to_string(),
        ),
    ];
    for (name, mutate, expected) in cases {
        let mut file = original.clone();
        mutate(&mut file);
        let run = dir.join(format!("malformed-{name}.json"));
        fs::write(&run, json::to_string_pretty(&file)).expect("run file written");
        let out = Command::new(bin)
            .arg("sync")
            .arg("--in")
            .arg(&run)
            .output()
            .expect("sync runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{name}: {stderr}");
        assert!(stderr.contains(&expected), "{name}: {stderr}");
        fs::remove_file(&run).expect("run file removed");
    }
    // The unmodified file still synchronizes.
    let out = Command::new(bin)
        .arg("sync")
        .arg("--in")
        .arg(&good)
        .output()
        .expect("sync runs");
    assert!(out.status.success());
    fs::remove_file(&good).expect("run file removed");
}
