//! The `dbtouch-bench` binary's contract, one reduced-scale run per
//! subcommand: the last stdout line is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`, at least one check ran, `correct`
//! says exactly "no check failed", and the exit status says the same. No
//! test here judges a time.

use dbtouch_types::json::{self, Json};
use std::process::{Command, Output};

fn run(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_dbtouch-bench"))
        .args(args)
        .output()
        .expect("spawn dbtouch-bench")
}

/// Run `dbtouch-bench <args>`; return whether the verdict was `correct`.
fn verdict_of(args: &[&str]) -> bool {
    let output = run(args);
    let stdout = String::from_utf8(output.stdout).expect("utf-8 stdout");
    let stderr = String::from_utf8_lossy(&output.stderr);
    let last = stdout.lines().last().unwrap_or_default();
    let doc = json::parse(last)
        .unwrap_or_else(|e| panic!("{args:?}: last line {last:?} is not JSON: {e}\n{stderr}"));
    let Some(Json::Bool(correct)) = doc.get("correct") else {
        panic!("{args:?}: no boolean `correct` in {last}");
    };
    let attempted = doc.get("attempted").and_then(Json::as_u64).expect(last);
    let failed = doc.get("failed").and_then(Json::as_u64).expect(last);
    assert!(
        matches!(doc.get("metrics"), Some(Json::Object(_))),
        "{last}"
    );
    assert!(attempted > 0, "{args:?} checked nothing: {last}\n{stderr}");
    assert_eq!(*correct, failed == 0, "{last}");
    assert_eq!(output.status.success(), *correct, "{args:?}: {stderr}");
    *correct
}

#[test]
fn list_names_every_subcommand_and_an_unknown_one_is_usage() {
    let list = run(&["--list"]);
    assert_eq!(
        String::from_utf8(list.stdout).unwrap(),
        "fig4a\nfig4b\ncontest\nablations\nsweeps\noverhead\nremote-overlap\npersistence\nwire-two-process\n"
    );
    assert_eq!(run(&["net_throughput"]).status.code(), Some(2));
    // A present-but-unparseable argument is a failed verdict, not a default.
    let bad = run(&["fig4a", "many"]);
    assert_eq!(bad.status.code(), Some(1));
    assert!(String::from_utf8(bad.stdout)
        .unwrap()
        .contains("\"correct\": false"));
}

#[test]
fn fig4a() {
    assert!(verdict_of(&["fig4a", "100000"]));
}

#[test]
fn fig4b() {
    assert!(verdict_of(&["fig4b", "100000", "2"]));
}

#[test]
fn contest() {
    verdict_of(&["contest", "60000", "5"]);
}

#[test]
fn ablations() {
    verdict_of(&["ablations", "100000"]);
}

#[test]
fn sweeps() {
    assert!(verdict_of(&["sweeps", "50000"]));
}

#[test]
fn overhead() {
    // A gate no run can exceed: the digests decide, the clock does not.
    for observer in ["telemetry", "trace"] {
        let args = ["overhead", observer, "1000", "20000", "2", "2", "1"];
        assert!(verdict_of(&args), "{observer} steered a result");
    }
    // And one no run can meet: the gate is part of the verdict.
    assert!(!verdict_of(&[
        "overhead", "trace", "-inf", "20000", "2", "2", "1"
    ]));
}

#[test]
fn remote_overlap() {
    verdict_of(&["remote-overlap", "60000", "1", "2"]);
}

#[test]
fn persistence_round_trip_in_two_processes() {
    let dir = std::env::temp_dir().join(format!("dbtouch-bench-cli-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let dir_arg = dir.to_str().expect("utf-8 temp dir");
    assert!(verdict_of(&[
        "persistence",
        "build",
        dir_arg,
        "20000",
        "3",
        "2",
        "7"
    ]));
    assert!(verdict_of(&["persistence", "replay", dir_arg]));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn wire_two_process() {
    // Server and load generator as two processes, port 0, no timer: digests
    // over the wire equal the local replay and the server exits 0 on EOF.
    assert!(verdict_of(&["wire-two-process", "8000", "3", "2"]));
}
