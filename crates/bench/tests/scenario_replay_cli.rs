//! `scenario` on bad outside input — a record whose fault line targets a
//! shard the recorded cluster cannot have, whose faults down every node,
//! whose JSON nests without end, or whose values the simulator cannot run
//! (an unknown dataset, a zero disk scale, bandwidth or cycle); a record
//! or a `--policy` flag naming a policy this build does not register, or
//! a record of a format version this build does not read:
//! exit code 2 and a message naming the offender on stderr, never a panic
//! or an abort. And a replay runs at the recorded cycle period ω.

use std::process::Command;
use vizsched_core::prelude::*;
use vizsched_workload::{RecordHeader, ScenarioRecord};

/// A correctly fingerprinted header of a two-node cluster whose header
/// names `policy`.
fn header(label: &str, policy: &str) -> RecordHeader {
    let catalog = Catalog::new(
        uniform_datasets(2, 64 << 20),
        DecompositionPolicy::MaxChunkSize {
            max_bytes: 32 << 20,
        },
    );
    RecordHeader::new(
        label,
        1,
        policy,
        SimDuration::from_millis(30),
        CostParams::default(),
        ClusterSpec::homogeneous(2, 128 << 20),
        &catalog,
    )
}

/// A well-formed, correctly fingerprinted, request-free record of a
/// two-node cluster whose header names `policy`.
fn empty_record(label: &str, policy: &str) -> String {
    ScenarioRecord::from_jobs(header(label, policy), &[]).to_jsonl()
}

/// An interactive frame of user 0 on `dataset`, issued at `at_ms`.
fn frame(id: u64, dataset: u32, at_ms: u64) -> Job {
    Job {
        id: JobId(id),
        kind: JobKind::Interactive {
            user: UserId(0),
            action: ActionId(0),
        },
        dataset: DatasetId(dataset),
        issue_time: SimTime::from_millis(at_ms),
        frame: FrameParams::default(),
    }
}

/// Write `record` (re-fingerprinted) to a scratch file named `name`.
fn write_record(name: &str, header: RecordHeader, jobs: &[Job]) -> std::path::PathBuf {
    let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    std::fs::write(&path, ScenarioRecord::from_jobs(header, jobs).to_jsonl())
        .expect("write record");
    path
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
    assert!(stderr.contains("FSD"), "lists the registry: {stderr}");
    assert!(!stderr.contains("panicked"), "stderr: {stderr}");
}

/// A retired policy name is refused like any unknown one: one line that
/// names it and the registry, which no longer lists it.
#[test]
fn a_retired_policy_flag_exits_2_naming_it() {
    for retired in ["MOBJ-A", "FRAC"] {
        let stderr = stderr_of_exit_2(&["1", "--policy", retired]);
        assert_eq!(stderr.lines().count(), 1, "one line: {stderr}");
        assert!(
            stderr.contains(&format!("unknown policy '{retired}'")),
            "{stderr}"
        );
        let (_, registry) = stderr
            .split_once("registered: ")
            .unwrap_or_else(|| panic!("lists the registry: {stderr}"));
        assert!(registry.contains("MOBJ"), "lists the registry: {stderr}");
        assert!(!registry.contains(retired), "not registered: {stderr}");
    }
}

/// Replay a one-frame record whose header was edited by `edit` (and
/// re-fingerprinted); it must exit 2 naming line `line` and `what`.
fn assert_refused(
    name: &str,
    edit: impl Fn(&mut RecordHeader),
    jobs: &[Job],
    line: usize,
    what: &str,
) {
    let mut h = header(name, "OURS");
    edit(&mut h);
    let path = write_record(&format!("{name}.jsonl"), h, jobs);
    let stderr = stderr_of_exit_2(&["--replay", path.to_str().expect("utf-8 path")]);
    assert!(stderr.contains(&format!("line {line}")), "stderr: {stderr}");
    assert!(stderr.contains(what), "stderr: {stderr}");
    assert!(!stderr.contains("panicked"), "stderr: {stderr}");
}

#[test]
fn replaying_a_request_on_an_unknown_dataset_exits_2_with_its_line() {
    // Header, the derived session line, then the request on line 3.
    assert_refused("bad-dataset", |_| {}, &[frame(0, 99, 1)], 3, "dataset 99");
}

#[test]
fn replaying_a_zero_disk_scale_exits_2_with_line_1() {
    let zero_scale = |h: &mut RecordHeader| h.cluster.nodes[1].disk_scale = 0.0;
    assert_refused("zero-scale", zero_scale, &[frame(0, 0, 1)], 1, "disk_scale");
}

#[test]
fn replaying_a_zero_disk_bandwidth_exits_2_with_line_1() {
    let zero_bw = |h: &mut RecordHeader| h.cost.disk_bw = 0;
    assert_refused("zero-disk-bw", zero_bw, &[frame(0, 0, 1)], 1, "disk_bw");
}

#[test]
fn replaying_a_zero_upload_bandwidth_exits_2_with_line_1() {
    let zero_bw = |h: &mut RecordHeader| h.cost.upload_bw = 0;
    assert_refused("zero-upload-bw", zero_bw, &[frame(0, 0, 1)], 1, "upload_bw");
}

#[test]
fn replaying_a_zero_cycle_exits_2_with_line_1() {
    let zero_cycle = |h: &mut RecordHeader| h.cycle = SimDuration::ZERO;
    assert_refused("zero-cycle", zero_cycle, &[frame(0, 0, 1)], 1, "cycle_us");
}

#[test]
fn replaying_a_version_1_record_exits_2_with_line_1() {
    let v1 = |h: &mut RecordHeader| h.version = 1;
    assert_refused(
        "record-v1",
        v1,
        &[frame(0, 0, 1)],
        1,
        "unsupported record version 1 (this build reads v2)",
    );
}

#[test]
fn a_replay_banner_comes_from_the_record() {
    let batch = Job {
        id: JobId(2),
        kind: JobKind::Batch {
            user: UserId(1000),
            request: BatchId(0),
            frame: 0,
        },
        dataset: DatasetId(1),
        issue_time: SimTime::from_millis(3),
        frame: FrameParams::default(),
    };
    let jobs = [frame(0, 0, 1), frame(1, 0, 2), batch];
    let path = write_record("banner.jsonl", header("banner", "OURS"), &jobs);
    let out = Command::new(env!("CARGO_BIN_EXE_scenario"))
        .args(["--replay", path.to_str().expect("utf-8 path")])
        .output()
        .expect("run scenario");
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    let banner = stdout.lines().next().expect("a banner line");
    assert!(
        banner.starts_with("== banner-replay == nodes=2 "),
        "{banner}"
    );
    assert!(banner.contains(" interactive=2 batch=1 "), "{banner}");
}

#[test]
fn a_replay_runs_at_the_recorded_cycle_period() {
    let mut h = header("omega-10ms", "OURS");
    h.cycle = SimDuration::from_millis(10);
    // The first frame finds its nodes free and is scheduled at once; the
    // second arrives while the first still renders, so it waits for the
    // first ω tick: 10 ms on the recorded grid.
    let path = write_record("omega-10ms.jsonl", h, &[frame(0, 0, 1), frame(1, 0, 2)]);
    let trace = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("omega-10ms-trace.jsonl");
    let out = Command::new(env!("CARGO_BIN_EXE_scenario"))
        .args(["--replay", path.to_str().expect("utf-8 path")])
        .args(["--trace", trace.to_str().expect("utf-8 path")])
        .output()
        .expect("run scenario");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let cycles: Vec<String> = std::fs::read_to_string(&trace)
        .expect("read trace")
        .lines()
        .filter(|l| l.contains("\"t\":\"cycle_start\""))
        .map(str::to_owned)
        .collect();
    assert!(
        cycles.iter().any(|l| l.contains("\"now_us\":10000,")),
        "no cycle at the first 10 ms tick: {cycles:?}"
    );
}
