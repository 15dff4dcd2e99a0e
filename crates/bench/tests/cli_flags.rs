//! Every bench binary refuses an argument it does not read: an unknown,
//! misspelt or retired flag, or any argument at all to a binary that reads
//! none, exits 2 with one line on stderr that names the argument and lists
//! the accepted ones — it is never silently ignored. A number flag's value
//! that does not parse is refused the same way, never read as the default.

use std::process::{Command, Output};

fn run(bin: &str, args: &[&str]) -> Output {
    Command::new(bin)
        .args(args)
        .output()
        .expect("run bench binary")
}

/// Run `bin` with `args`; it must exit 2 with one stderr line naming
/// `offender` and listing `accepted`.
fn assert_refused(bin: &str, args: &[&str], offender: &str, accepted: &str) {
    let out = run(bin, args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}: stderr {stderr}");
    assert_eq!(stderr.lines().count(), 1, "{args:?}: stderr {stderr}");
    assert!(
        stderr.contains(&format!("`{offender}`")) && stderr.contains(accepted),
        "{args:?}: stderr {stderr}"
    );
}

#[test]
fn scenario_refuses_retired_and_misspelt_flags() {
    let scenario = env!("CARGO_BIN_EXE_scenario");
    let accepted = "(accepted: <scenario>, --short <secs>, --policy <name>";
    for (args, offender) in [
        (&["1", "--short", "1", "--overload"][..], "--overload"),
        (&["1", "--short", "1", "--polcy", "MOBJ"], "--polcy"),
        (&["1", "--short", "1", "--csv", "o.csv"], "--csv"),
        (&["1", "--short", "1", "--timeline"], "--timeline"),
        (&["1", "2", "--short", "1"], "2"),
    ] {
        assert_refused(scenario, args, offender, accepted);
    }
}

#[test]
fn binaries_that_read_no_argument_refuse_any() {
    for bin in [
        env!("CARGO_BIN_EXE_compositing_model"),
        env!("CARGO_BIN_EXE_fig2_pipeline"),
        env!("CARGO_BIN_EXE_table2_scenarios"),
    ] {
        assert_refused(bin, &["--json", "t.json"], "--json", "(accepted: none)");
    }
}

#[test]
fn a_flag_another_binary_reads_is_refused() {
    let accepted = "(accepted: --length <secs>)";
    assert_refused(
        env!("CARGO_BIN_EXE_skew"),
        &["--quick"],
        "--quick",
        accepted,
    );
    assert_refused(
        env!("CARGO_BIN_EXE_gpu_tier"),
        &["--lenght", "1"],
        "--lenght",
        accepted,
    );
}

#[test]
fn a_malformed_number_is_refused() {
    for (bin, args, line) in [
        (
            env!("CARGO_BIN_EXE_skew"),
            &["--length", "abc"][..],
            "skew: invalid value `abc` for --length",
        ),
        (
            env!("CARGO_BIN_EXE_scenario"),
            &["1", "--short", "x"],
            "scenario: invalid value `x` for --short",
        ),
        (
            env!("CARGO_BIN_EXE_sched_hotpath"),
            &["--samples", "1.5"],
            "sched_hotpath: invalid value `1.5` for --samples",
        ),
    ] {
        let out = run(bin, args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: stderr {stderr}");
        assert_eq!(stderr.trim_end(), line, "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} ran before refusing");
    }
}

/// A well-formed number (`--short 1`) still runs.
#[test]
fn accepted_flags_still_run() {
    let json = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("cli_flags_s1.json");
    let json = json.to_str().expect("utf-8 path");
    let out = run(
        env!("CARGO_BIN_EXE_scenario"),
        &["1", "--short", "1", "--policy", "OURS", "--json", json],
    );
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(std::fs::read_to_string(json)
        .expect("the --json report")
        .contains("\"scheduler\": \"OURS\""));
}
