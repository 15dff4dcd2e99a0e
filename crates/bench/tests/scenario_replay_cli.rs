//! `scenario --replay` on a record whose fault line targets a shard the
//! recorded cluster cannot have: exit code 2 and the offending line
//! number on stderr, never a panic.

use std::process::Command;
use vizsched_core::prelude::*;
use vizsched_workload::{RecordHeader, ScenarioRecord};

#[test]
fn replaying_an_out_of_range_fault_target_exits_2_with_its_line() {
    let catalog = Catalog::new(
        uniform_datasets(2, 64 << 20),
        DecompositionPolicy::MaxChunkSize {
            max_bytes: 32 << 20,
        },
    );
    let header = RecordHeader::new(
        "bad-target",
        1,
        "OURS",
        SimDuration::from_millis(30),
        CostParams::default(),
        ClusterSpec::homogeneous(2, 128 << 20),
        &catalog,
    );
    let mut text = ScenarioRecord::from_jobs(header, &[]).to_jsonl();
    text.push_str(
        "{\"t\":\"fault\",\"at_us\":10,\"kind\":\"node_crash\",\"target\":1,\"param\":0}\n",
    );
    text.push_str(
        "{\"t\":\"fault\",\"at_us\":20,\"kind\":\"shard_crash\",\"target\":7,\"param\":0}\n",
    );
    let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("bad-target.jsonl");
    std::fs::write(&path, text).expect("write record");

    let out = Command::new(env!("CARGO_BIN_EXE_scenario"))
        .arg("--replay")
        .arg(&path)
        .output()
        .expect("run scenario");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
    assert!(stderr.contains("line 3"), "stderr: {stderr}");
    assert!(stderr.contains("shard_crash target 7"), "stderr: {stderr}");
}
