//! The scenario record/replay plane, end to end: a run captured by the
//! [`RecordingProbe`] — simulated or live — must replay bit-identically
//! in the simulator after a round trip through the versioned JSONL
//! format. The live half reuses the `sim_service_parity` recipe: a
//! serialized client over a small physical store, with placement made
//! substrate-independent by bricking every dataset into exactly `NODES`
//! chunks (cold jobs spread one chunk per node, warm jobs map to their
//! unique cache holders).

use std::sync::Arc;
use std::time::Duration;
use vizsched_core::data::{uniform_datasets, Catalog, DecompositionPolicy};
use vizsched_core::prelude::*;
use vizsched_integration::parity::{assignments, cache_loads, dones, job_done_order, Pair};
use vizsched_metrics::{events_to_jsonl, CollectingProbe, TraceEvent};
use vizsched_sim::{FaultPlan, RunOptions, SimConfig, Simulation};
use vizsched_workload::{
    CameraPathSpec, RecordHeader, RecordingProbe, ScenarioRecord, TrafficShape,
};

const NODES: usize = 4;
const CYCLE: SimDuration = SimDuration::from_millis(30);

// -------------------------------------------------------------------
// Sim-record -> sim-replay: the strongest possible claim, bit-identical
// event streams.
// -------------------------------------------------------------------

fn small_catalog() -> Catalog {
    Catalog::new(
        uniform_datasets(4, 64 << 20),
        DecompositionPolicy::MaxChunkSize {
            max_bytes: 16 << 20,
        },
    )
}

fn small_sim() -> Simulation {
    let cluster = ClusterSpec::homogeneous(NODES, 128 << 20);
    let mut config = SimConfig::new(cluster, CostParams::default(), 16 << 20);
    config.cycle = CYCLE;
    Simulation::new(config, Vec::new())
}

/// A short locality-heavy stream (two users walking adjacent datasets).
fn small_shape() -> TrafficShape {
    TrafficShape::CameraPath(CameraPathSpec {
        groups: 1,
        users_per_group: 2,
        path_len: 2,
        dwell: SimDuration::from_secs(1),
        stagger: SimDuration::from_millis(100),
        period: SimDuration::from_millis(30),
        dataset_count: 4,
        seed: 9,
    })
}

fn small_header(policy: &str) -> RecordHeader {
    RecordHeader::new(
        "record-replay",
        9,
        policy,
        CYCLE,
        CostParams::default(),
        ClusterSpec::homogeneous(NODES, 128 << 20),
        &small_catalog(),
    )
}

/// Zero out `wall_us` in a serialized event stream: `CycleEnd` carries
/// the *measured* wall-clock cost of the scheduling pass (the one field
/// observed from the host clock); every other field is virtual time and
/// must reproduce exactly.
fn scrub_wall_clock(jsonl: &str) -> String {
    let mut out = String::new();
    for line in jsonl.lines() {
        if let Some(i) = line.find("\"wall_us\":") {
            let tail = &line[i + 10..];
            let digits = tail
                .find(|c: char| !c.is_ascii_digit())
                .unwrap_or(tail.len());
            out.push_str(&line[..i + 10]);
            out.push('0');
            out.push_str(&tail[digits..]);
        } else {
            out.push_str(line);
        }
        out.push('\n');
    }
    out
}

/// Pass 1: run the small stream under `plan` with a recorder attached,
/// then round trip the capture through the serialized format. Returns
/// the recorded run's scrubbed event stream and the parsed record.
fn record_small_run(plan: FaultPlan) -> (String, ScenarioRecord) {
    let jobs = small_shape().generate();
    let recorder = Arc::new(RecordingProbe::new(small_header("OURS")));
    let outcome = small_sim().run_opts(
        jobs.clone(),
        RunOptions::new(SchedulerKind::Ours)
            .label("record-replay")
            .catalog(small_catalog())
            .fault_plan(plan)
            .probe(recorder.clone()),
    );
    assert_eq!(outcome.incomplete_jobs, 0);
    let record = recorder.finish();
    assert_eq!(
        record.jobs(),
        &jobs[..],
        "recorder must capture the offered stream verbatim"
    );

    let jsonl = record.to_jsonl();
    let parsed = ScenarioRecord::parse(&jsonl).expect("own serialization parses");
    assert_eq!(parsed, record);
    assert_eq!(parsed.to_jsonl(), jsonl, "serialization is canonical");
    (
        scrub_wall_clock(&events_to_jsonl(&recorder.events())),
        parsed,
    )
}

/// Replay a parsed record — requests and faults — in a fresh simulator
/// built from its header alone; returns the replay's event stream.
fn replay(record: &ScenarioRecord) -> Vec<TraceEvent> {
    let h = &record.header;
    // The recorded catalog replaces the decomposition, so `Chk_max` is
    // never read.
    let mut config = SimConfig::new(h.cluster.clone(), h.cost, 0);
    config.cycle = h.cycle;
    let probe = Arc::new(CollectingProbe::new());
    let outcome = Simulation::new(config, h.datasets.clone()).run_opts(
        record.jobs().to_vec(),
        RunOptions::new(h.policy.parse().expect("a registered policy"))
            .label(&h.label)
            .catalog(record.catalog())
            .fault_plan(record.faults.iter().copied().collect())
            .probe(probe.clone()),
    );
    assert_eq!(outcome.incomplete_jobs, 0);
    probe.take()
}

/// Pass 2: replay a parsed record; returns its scrubbed event stream.
fn replay_small_run(record: &ScenarioRecord) -> String {
    scrub_wall_clock(&events_to_jsonl(&replay(record)))
}

#[test]
fn sim_run_recorded_then_replayed_is_bit_identical() {
    let (recorded, parsed) = record_small_run(FaultPlan::new());
    assert_eq!(
        replay_small_run(&parsed),
        recorded,
        "replayed event stream must be bit-identical to the recorded run \
         (modulo the measured wall-clock cost of each scheduling pass)"
    );
}

/// The same claim with a fault plan in the recorded run: its `fault`
/// lines replay, so crash re-placements, the slow node and the leaf
/// outage all reproduce — and they are what makes the streams equal.
#[test]
fn faulted_sim_run_recorded_then_replayed_is_bit_identical() {
    let ms = SimTime::from_millis;
    let plan = FaultPlan::new()
        .degrade_at(ms(300), NodeId(2), 2500)
        .crash_at(ms(400), NodeId(1))
        .respawn_at(ms(900), NodeId(1))
        .restore_at(ms(1200), NodeId(2))
        .leaf_outage_at(ms(1300), NodeId(2), 2)
        .leaf_recover_at(ms(1700), NodeId(2), 2);
    let (recorded, parsed) = record_small_run(plan.clone());
    assert_eq!(parsed.faults, plan.events(), "every fault became a line");
    assert!(recorded.contains("\"t\":\"node_fault\""), "the crash bit");
    assert_eq!(
        replay_small_run(&parsed),
        recorded,
        "a faulted run must replay bit-identically from its record"
    );

    // Not vacuous: without its fault lines the same record replays a
    // different run.
    let mut stripped = parsed;
    stripped.faults.clear();
    assert_ne!(replay_small_run(&stripped), recorded);
}

// -------------------------------------------------------------------
// Record on the live service -> replay in the sim.
// -------------------------------------------------------------------

/// The serialized live workload: `(dataset, azimuth)` per frame, one in
/// flight at a time. Dataset 0 runs cold then warm, dataset 1
/// interleaves — the parity harness's cache-coexistence pattern.
const LIVE_WORKLOAD: [(u32, f32); 6] = [
    (0, 0.10),
    (0, 0.20),
    (1, 0.30),
    (0, 0.40),
    (1, 0.50),
    (1, 0.60),
];

#[test]
fn live_recording_replays_in_sim_with_identical_placements() {
    // The rig's default pair: OURS, two datasets bricked one chunk per
    // node, a throttled store (nonzero measured loads, as in the parity
    // harness).
    let rig = Pair {
        cycle: CYCLE,
        ..Pair::default()
    }
    .open();
    let header = RecordHeader::new(
        "live-capture",
        0,
        "OURS",
        CYCLE,
        CostParams::default(),
        rig.cluster(),
        rig.catalog(),
    );
    let recorder = Arc::new(RecordingProbe::new(header));
    // Space the recorded arrivals out beyond anything the simulated
    // executions can take (a couple of cycles plus virtual render time),
    // so the replay keeps the live run's one-job-in-flight serialization
    // and the placement argument carries over.
    let spaced = |_, _| std::thread::sleep(Duration::from_millis(200));
    rig.live(recorder.clone(), rig.serial(&LIVE_WORKLOAD, spaced));
    let live_events = recorder.events();
    let record = recorder.finish();
    assert_eq!(record.jobs().len(), LIVE_WORKLOAD.len());

    // Round trip through the on-disk format, exactly as an operator would.
    let jsonl = record.to_jsonl();
    let parsed = ScenarioRecord::parse(&jsonl).expect("live capture parses");
    assert_eq!(parsed, record);

    // Replay in the simulator: the recorded request stream over the
    // recorded catalog, which is the store's physical bricking.
    assert_eq!(
        format!("{:?}", parsed.catalog()),
        format!("{:?}", rig.catalog()),
        "the record must carry the store's catalog"
    );
    let sim_events = replay(&parsed);

    assert_eq!(
        assignments(&sim_events),
        assignments(&live_events),
        "replayed placement diverged from the recorded live run"
    );
    assert_eq!(
        dones(&sim_events),
        dones(&live_events),
        "replayed (node, miss) realization diverged"
    );
    assert_eq!(
        cache_loads(&sim_events),
        cache_loads(&live_events),
        "replayed per-node cache contents diverged"
    );
    assert_eq!(
        job_done_order(&sim_events),
        job_done_order(&live_events),
        "replayed job completion order diverged"
    );
}

// -------------------------------------------------------------------
// Generator determinism and replay failure modes.
// -------------------------------------------------------------------

#[test]
fn every_traffic_shape_records_byte_identically_per_seed() {
    // The demo shapes draw from 8 datasets; a record's header must name
    // every dataset its requests do.
    let header = || {
        let catalog = Catalog::new(
            uniform_datasets(8, 64 << 20),
            DecompositionPolicy::MaxChunkSize {
                max_bytes: 16 << 20,
            },
        );
        RecordHeader::new(
            "record-replay",
            9,
            "OURS",
            CYCLE,
            CostParams::default(),
            ClusterSpec::homogeneous(NODES, 128 << 20),
            &catalog,
        )
    };
    for (a, b) in TrafficShape::demo_suite(2012)
        .into_iter()
        .zip(TrafficShape::demo_suite(2012))
    {
        let left = a.to_record(header()).to_jsonl();
        let right = b.to_record(header()).to_jsonl();
        assert_eq!(
            left,
            right,
            "{}: same seed must give identical bytes",
            a.name()
        );
        // And the bytes survive a parse round trip unchanged.
        let reparsed = ScenarioRecord::parse(&left).expect("shape record parses");
        assert_eq!(reparsed.to_jsonl(), left, "{}", a.name());
    }
}

#[test]
fn truncated_record_fails_with_the_cut_line_number() {
    let record = small_shape().to_record(small_header("OURS"));
    let jsonl = record.to_jsonl();
    // Cut mid-way through the byte stream: the parser must name the
    // (partial) line it died on instead of panicking.
    let cut = &jsonl[..jsonl.len() / 2];
    let err = ScenarioRecord::parse(cut).expect_err("truncated record must not parse");
    assert_eq!(err.line, cut.lines().count(), "error names the cut line");
    assert!(err.to_string().starts_with(&format!("line {}", err.line)));
}

#[test]
fn corrupt_fingerprint_is_rejected_with_line_one() {
    let jsonl = small_shape().to_record(small_header("OURS")).to_jsonl();
    // Flip the recorded seed without updating the fingerprint: the header
    // no longer matches the configuration it claims to pin.
    let corrupt = jsonl.replacen("\"seed\":9", "\"seed\":8", 1);
    assert_ne!(corrupt, jsonl);
    let err = ScenarioRecord::parse(&corrupt).expect_err("fingerprint mismatch must fail");
    assert_eq!(err.line, 1);
    assert!(
        err.to_string().contains("fingerprint"),
        "unexpected error: {err}"
    );
}

#[test]
fn garbage_and_empty_inputs_fail_gracefully() {
    for (input, want_line) in [
        ("", 1),
        ("not json at all", 1),
        ("{\"t\":\"session\"}", 1), // no header first
    ] {
        let err = ScenarioRecord::parse(input).expect_err("must not parse");
        assert_eq!(err.line, want_line, "input {input:?}");
    }
}
