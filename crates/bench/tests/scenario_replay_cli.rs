//! `scenario` on bad outside input — a record whose fault line targets a
//! shard the recorded cluster cannot have, whose faults down every node,
//! or whose JSON nests without end; a record or a `--policy` flag naming
//! a policy this build does not register: exit code 2 and a message
//! naming the offender on stderr, never a panic or an abort.

use std::process::Command;
use vizsched_core::prelude::*;
use vizsched_workload::{RecordHeader, ScenarioRecord};

/// A well-formed, correctly fingerprinted, request-free record of a
/// two-node cluster whose header names `policy`.
fn empty_record(label: &str, policy: &str) -> String {
    let catalog = Catalog::new(
        uniform_datasets(2, 64 << 20),
        DecompositionPolicy::MaxChunkSize {
            max_bytes: 32 << 20,
        },
    );
    let header = RecordHeader::new(
        label,
        1,
        policy,
        SimDuration::from_millis(30),
        CostParams::default(),
        ClusterSpec::homogeneous(2, 128 << 20),
        &catalog,
    );
    ScenarioRecord::from_jobs(header, &[]).to_jsonl()
}

/// Run `scenario` with `args`; it must exit 2. Returns its stderr.
fn stderr_of_exit_2(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_scenario"))
        .args(args)
        .output()
        .expect("run scenario");
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
    stderr
}

#[test]
fn replaying_an_out_of_range_fault_target_exits_2_with_its_line() {
    let mut text = empty_record("bad-target", "OURS");
    text.push_str(
        "{\"t\":\"fault\",\"at_us\":10,\"kind\":\"node_crash\",\"target\":1,\"param\":0}\n",
    );
    text.push_str(
        "{\"t\":\"fault\",\"at_us\":20,\"kind\":\"shard_crash\",\"target\":7,\"param\":0}\n",
    );
    let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("bad-target.jsonl");
    std::fs::write(&path, text).expect("write record");

    let stderr = stderr_of_exit_2(&["--replay", path.to_str().expect("utf-8 path")]);
    assert!(stderr.contains("line 3"), "stderr: {stderr}");
    assert!(stderr.contains("shard_crash target 7"), "stderr: {stderr}");
}

#[test]
fn replaying_faults_that_down_every_node_exits_2_naming_the_last_one() {
    let mut text = empty_record("all-down", "OURS");
    text.push_str(
        "{\"t\":\"fault\",\"at_us\":10,\"kind\":\"node_crash\",\"target\":1,\"param\":0}\n",
    );
    text.push_str(
        "{\"t\":\"fault\",\"at_us\":20,\"kind\":\"leaf_outage\",\"target\":0,\"param\":1}\n",
    );
    let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("all-down.jsonl");
    std::fs::write(&path, text).expect("write record");

    let stderr = stderr_of_exit_2(&["--replay", path.to_str().expect("utf-8 path")]);
    assert!(stderr.contains("leaf_outage fault at 20 us"), "{stderr}");
    assert!(!stderr.contains("panicked"), "stderr: {stderr}");
}

#[test]
fn replaying_a_bottomlessly_nested_record_exits_2_without_overflowing() {
    let text =
        empty_record("deep", "OURS").replacen('{', &format!("{{\"x\":{},", "[".repeat(100_000)), 1);
    let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("deep.jsonl");
    std::fs::write(&path, text).expect("write record");

    let stderr = stderr_of_exit_2(&["--replay", path.to_str().expect("utf-8 path")]);
    assert!(stderr.contains("line 1"), "stderr: {stderr}");
    assert!(!stderr.contains("panicked"), "stderr: {stderr}");
    assert!(!stderr.contains("overflow"), "stderr: {stderr}");
}

#[test]
fn replaying_a_record_of_an_unregistered_policy_exits_2_naming_it() {
    let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("bad-policy.jsonl");
    std::fs::write(&path, empty_record("bad-policy", "LOTTERY")).expect("write record");

    let stderr = stderr_of_exit_2(&["--replay", path.to_str().expect("utf-8 path")]);
    assert!(stderr.contains("unknown policy 'LOTTERY'"), "{stderr}");
    assert!(stderr.contains("OURS"), "lists the registry: {stderr}");
    assert!(!stderr.contains("panicked"), "stderr: {stderr}");
}

#[test]
fn a_mistyped_policy_flag_exits_2_naming_it() {
    let stderr = stderr_of_exit_2(&["1", "--short", "1", "--policy", "OUR"]);
    assert!(stderr.contains("unknown policy 'OUR'"), "{stderr}");
    assert!(stderr.contains("MOBJ-A"), "lists the registry: {stderr}");
    assert!(!stderr.contains("panicked"), "stderr: {stderr}");
}
