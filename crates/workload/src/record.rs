//! The versioned JSONL scenario record: capture any live or simulated run
//! as a replayable request stream.
//!
//! A [`ScenarioRecord`] is one header line followed by timestamped
//! `session` / `request` / `fault` lines, one JSON object per line (the
//! full schema lives in `docs/SCENARIO_FORMAT.md`). The header pins
//! everything placement depends on — seed, scheduling policy, cycle
//! period, cost-model constants, cluster shape, and the exact chunk
//! decomposition — plus a fingerprint over those fields, so a record is a
//! self-contained experiment: run its [`ScenarioRecord::jobs`] over its
//! [`ScenarioRecord::catalog`] and `faults` on a simulator built from its
//! header, and every task is re-placed identically.
//!
//! Records are written by the [`RecordingProbe`], which observes jobs at
//! the head node's single admission entry point (`Probe::on_job_offered`,
//! fired exactly once per offered job by both the live service and the
//! simulator) and faults from the `fault_injected` trace event. Parsing is
//! total: [`ScenarioRecord::parse`] never panics and reports errors with
//! the 1-based line number, so a truncated or hand-mangled record fails
//! loud and early.

use std::collections::BTreeSet;
use std::fmt;
use std::fmt::Write as _;
use std::sync::{Mutex, MutexGuard, PoisonError};
use vizsched_core::cluster::{ClusterSpec, NodeSpec};
use vizsched_core::cost::CostParams;
use vizsched_core::data::{Catalog, ChunkDesc, DatasetDesc};
use vizsched_core::fault::{FaultEvent, FaultKind};
use vizsched_core::ids::{ActionId, BatchId, ChunkId, DatasetId, JobId, UserId};
use vizsched_core::job::{FrameParams, Job, JobKind};
use vizsched_core::time::{SimDuration, SimTime};
use vizsched_metrics::json::{self, Escaped, Json};
use vizsched_metrics::{Probe, TraceEvent};

/// The record-format version this crate writes (and the only one it
/// reads; see `docs/SCENARIO_FORMAT.md` for the compatibility rules).
pub const RECORD_VERSION: u32 = 2;

/// The `"t"` tags of every line kind a record may contain, in canonical
/// order. `docs/SCENARIO_FORMAT.md` documents one table row and one
/// worked line per kind; `tests/docs_consistency.rs` enforces that.
pub const RECORD_KINDS: [&str; 4] = ["header", "session", "request", "fault"];

/// Everything placement depends on, pinned at record time.
#[derive(Clone, Debug, PartialEq)]
pub struct RecordHeader {
    /// Format version ([`RECORD_VERSION`]).
    pub version: u32,
    /// Display label of the recorded run.
    pub label: String,
    /// Workload seed of the recorded run (zero for live traffic, which
    /// has no generator seed).
    pub seed: u64,
    /// Scheduling-policy name (`SchedulerKind` display form, e.g.
    /// "OURS").
    pub policy: String,
    /// The head node's cycle period ω.
    pub cycle: SimDuration,
    /// Cost-model constants of the recorded cluster.
    pub cost: CostParams,
    /// The recorded cluster (per-node quotas and disk-speed factors —
    /// heterogeneous tiers survive the round trip).
    pub cluster: ClusterSpec,
    /// The dataset descriptors, dense by id.
    pub datasets: Vec<DatasetDesc>,
    /// Per-dataset chunk sizes in bytes, parallel to `datasets` — the
    /// exact decomposition, so heterogeneous bricking replays as-is.
    pub chunks: Vec<Vec<u64>>,
}

impl RecordHeader {
    /// Pin a header from a run's configuration and its decomposition
    /// catalog.
    pub fn new(
        label: &str,
        seed: u64,
        policy: &str,
        cycle: SimDuration,
        cost: CostParams,
        cluster: ClusterSpec,
        catalog: &Catalog,
    ) -> Self {
        let datasets = catalog.datasets().to_vec();
        let chunks = datasets
            .iter()
            .map(|d| catalog.chunks_of(d.id).iter().map(|c| c.bytes).collect())
            .collect();
        RecordHeader {
            version: RECORD_VERSION,
            label: label.to_string(),
            seed,
            policy: policy.to_string(),
            cycle,
            cost,
            cluster,
            datasets,
            chunks,
        }
    }

    /// FNV-1a 64 over every placement-relevant header field. Written into
    /// the header line and re-checked on parse, so silent corruption of
    /// the configuration (as opposed to the request stream, which is
    /// checked structurally) cannot masquerade as a faithful replay.
    pub fn fingerprint(&self) -> u64 {
        let mut canon = String::new();
        let _ = write!(
            canon,
            "v{}|{}|{}|{}|{}",
            self.version,
            self.seed,
            self.policy,
            self.cycle.as_micros(),
            cost_canon(&self.cost),
        );
        for n in &self.cluster.nodes {
            let _ = write!(canon, "|n{},{}", n.mem_quota, n.disk_scale);
        }
        for (d, chunks) in self.datasets.iter().zip(&self.chunks) {
            let _ = write!(canon, "|d{},{}", d.id.0, d.bytes);
            for b in chunks {
                let _ = write!(canon, ",{b}");
            }
        }
        fnv1a(canon.as_bytes())
    }

    /// Rebuild the exact decomposition catalog the run used.
    pub fn catalog(&self) -> Catalog {
        catalog_from_sizes(self.datasets.clone(), &self.chunks)
    }
}

/// The catalog of `datasets` (dense by id) bricked into the given
/// per-dataset chunk sizes, in order.
pub(crate) fn catalog_from_sizes(datasets: Vec<DatasetDesc>, sizes: &[Vec<u64>]) -> Catalog {
    let chunks = sizes
        .iter()
        .enumerate()
        .map(|(d, sizes)| {
            sizes
                .iter()
                .enumerate()
                .map(|(j, &bytes)| ChunkDesc {
                    id: ChunkId {
                        dataset: DatasetId(d as u32),
                        index: j as u32,
                    },
                    bytes,
                })
                .collect()
        })
        .collect();
    Catalog::from_chunks(datasets, chunks)
}

fn cost_canon(c: &CostParams) -> String {
    format!(
        "c{},{},{},{},{},{}",
        c.disk_bw,
        c.render_fixed.as_micros(),
        c.render_per_gib.as_micros(),
        c.composite_fixed.as_micros(),
        c.composite_per_node.as_micros(),
        c.upload_bw,
    )
}

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// A `session` line: the first sighting of an interactive action or a
/// batch submission, derived by the recorder (one per distinct
/// user/action or user/request pair).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SessionLine {
    /// When the session's first job was offered.
    pub at: SimTime,
    /// The user behind it.
    pub user: UserId,
    /// Interactive action or batch submission.
    pub kind: SessionKind,
    /// The dataset the session opened on.
    pub dataset: DatasetId,
}

/// What a [`SessionLine`] describes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SessionKind {
    /// A continuous camera action.
    Interactive {
        /// The action id.
        action: ActionId,
    },
    /// A batch submission.
    Batch {
        /// The submission id.
        request: BatchId,
    },
}

/// A parsed or captured scenario record: header plus the three line
/// streams, each in record order.
#[derive(Clone, Debug, PartialEq)]
pub struct ScenarioRecord {
    /// The pinned run configuration.
    pub header: RecordHeader,
    /// Derived session-open lines.
    pub sessions: Vec<SessionLine>,
    /// The offered jobs, exactly as the head saw them (ids, issue times,
    /// camera parameters).
    pub requests: Vec<Job>,
    /// Injected faults, in injection order: one `fault` line per
    /// `fault_injected` trace event, replayable as a `FaultPlan`.
    pub faults: Vec<FaultEvent>,
}

/// A parse failure, pointing at the offending line.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RecordError {
    /// 1-based line number in the JSONL text.
    pub line: usize,
    /// What went wrong there.
    pub msg: String,
}

impl fmt::Display for RecordError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.msg)
    }
}

impl std::error::Error for RecordError {}

impl ScenarioRecord {
    /// Build a record for a synthetic job stream (the workload
    /// generators' path onto the wire format): sessions are derived from
    /// the jobs, and there are no faults.
    pub fn from_jobs(header: RecordHeader, jobs: &[Job]) -> Self {
        let mut sessions = Vec::new();
        let mut seen = BTreeSet::new();
        for job in jobs {
            note_session(&mut sessions, &mut seen, job);
        }
        ScenarioRecord {
            header,
            sessions,
            requests: jobs.to_vec(),
            faults: Vec::new(),
        }
    }

    /// The captured request stream.
    pub fn jobs(&self) -> &[Job] {
        &self.requests
    }

    /// The exact decomposition catalog of the recorded run.
    pub fn catalog(&self) -> Catalog {
        self.header.catalog()
    }

    /// Serialize to canonical JSONL: the header line, then all
    /// session/request/fault lines merged in time order (ties break
    /// session &lt; request &lt; fault, each stream keeping its own
    /// order). Serialization is deterministic: the same record always
    /// yields the same bytes.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::with_capacity(256 + self.requests.len() * 160);
        write_header(&mut out, &self.header);
        let (mut s, mut r, mut f) = (0, 0, 0);
        loop {
            let ts = self.sessions.get(s).map(|l| l.at.as_micros());
            let tr = self.requests.get(r).map(|j| j.issue_time.as_micros());
            let tf = self.faults.get(f).map(|l| l.at.as_micros());
            let next = [ts, tr, tf].into_iter().flatten().min();
            let Some(t) = next else { break };
            if ts == Some(t) {
                write_session(&mut out, &self.sessions[s]);
                s += 1;
            } else if tr == Some(t) {
                write_request(&mut out, &self.requests[r]);
                r += 1;
            } else {
                write_fault(&mut out, &self.faults[f]);
                f += 1;
            }
        }
        out
    }

    /// Parse a JSONL record. Total: every failure — bad JSON, an unknown
    /// line kind, a missing field, a version or fingerprint mismatch,
    /// time going backwards, a duplicate job id — comes back as a
    /// [`RecordError`] carrying the 1-based line number. Unknown *keys*
    /// inside a known line kind are ignored (the forward-compatibility
    /// rule of `docs/SCENARIO_FORMAT.md`).
    pub fn parse(text: &str) -> Result<ScenarioRecord, RecordError> {
        let mut lines = text
            .lines()
            .enumerate()
            .filter(|(_, l)| !l.trim().is_empty());
        let (first_no, first) = lines
            .next()
            .ok_or_else(|| err(1, "empty record: expected a header line"))?;
        let header = json::parse(first)
            .and_then(|val| parse_header(&val))
            .map_err(|m| err(first_no + 1, &m))?;

        let mut record = ScenarioRecord {
            header,
            sessions: Vec::new(),
            requests: Vec::new(),
            faults: Vec::new(),
        };
        let mut last_us = 0u64;
        for (idx, line) in lines {
            record
                .push_line(line, &mut last_us)
                .map_err(|m| err(idx + 1, &m))?;
        }
        Ok(record)
    }

    /// Parse one non-header line onto the record. `last_us` is the
    /// previous line's `at_us`.
    fn push_line(&mut self, line: &str, last_us: &mut u64) -> Result<(), String> {
        let val = json::parse(line)?;
        let tag = val.str_field("t")?;
        let at = val.u64_field("at_us")?;
        if at < *last_us {
            return Err(format!("time goes backwards: at_us {at} after {last_us}"));
        }
        *last_us = at;
        match tag {
            "session" => self.sessions.push(parse_session(&val, at)?),
            "request" => {
                let datasets = self.header.datasets.len() as u64;
                let job = parse_request(&val, at, datasets)?;
                if let Some(prev) = self.requests.last().filter(|p| job.id.0 <= p.id.0) {
                    return Err(format!(
                        "job ids must increase: {} after {}",
                        job.id.0, prev.id.0
                    ));
                }
                self.requests.push(job);
            }
            "fault" => {
                let nodes = self.header.cluster.len() as u64;
                self.faults.push(parse_fault(&val, at, nodes)?);
            }
            "header" => return Err("duplicate header line".to_string()),
            other => return Err(format!("unknown line kind {other:?}")),
        }
        Ok(())
    }
}

fn err(line: usize, msg: &str) -> RecordError {
    RecordError {
        line,
        msg: msg.to_string(),
    }
}

fn note_session(sessions: &mut Vec<SessionLine>, seen: &mut BTreeSet<(bool, u32, u64)>, job: &Job) {
    let (key, kind) = match job.kind {
        JobKind::Interactive { user, action } => (
            (true, user.0, action.0),
            SessionKind::Interactive { action },
        ),
        JobKind::Batch { user, request, .. } => {
            ((false, user.0, request.0), SessionKind::Batch { request })
        }
    };
    if seen.insert(key) {
        sessions.push(SessionLine {
            at: job.issue_time,
            user: job.kind.user(),
            kind,
            dataset: job.dataset,
        });
    }
}

// ---------------------------------------------------------------------
// Writing
// ---------------------------------------------------------------------

fn write_header(out: &mut String, h: &RecordHeader) {
    let _ = write!(
        out,
        "{{\"t\":\"header\",\"v\":{},\"label\":{},\"seed\":{},\"policy\":{},\"cycle_us\":{},\"fingerprint\":\"{:016x}\"",
        h.version,
        Escaped(&h.label),
        h.seed,
        Escaped(&h.policy),
        h.cycle.as_micros(),
        h.fingerprint(),
    );
    let c = &h.cost;
    let _ = write!(
        out,
        ",\"cost\":{{\"disk_bw\":{},\"render_fixed_us\":{},\"render_per_gib_us\":{},\"composite_fixed_us\":{},\"composite_per_node_us\":{},\"upload_bw\":{}}}",
        c.disk_bw,
        c.render_fixed.as_micros(),
        c.render_per_gib.as_micros(),
        c.composite_fixed.as_micros(),
        c.composite_per_node.as_micros(),
        c.upload_bw,
    );
    out.push_str(",\"cluster\":[");
    for (i, n) in h.cluster.nodes.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"mem_quota\":{},\"disk_scale\":{}}}",
            n.mem_quota, n.disk_scale
        );
    }
    out.push_str("],\"datasets\":[");
    for (i, (d, chunks)) in h.datasets.iter().zip(&h.chunks).enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"id\":{},\"name\":{},\"bytes\":{}",
            d.id.0,
            Escaped(&d.name),
            d.bytes
        );
        if let Some([x, y, z]) = d.dims {
            let _ = write!(out, ",\"dims\":[{x},{y},{z}]");
        }
        out.push_str(",\"chunks\":[");
        for (j, b) in chunks.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            let _ = write!(out, "{b}");
        }
        out.push_str("]}");
    }
    out.push_str("]}");
    out.push('\n');
}

fn write_session(out: &mut String, l: &SessionLine) {
    let (kind, id_key, id) = match l.kind {
        SessionKind::Interactive { action } => ("interactive", "action", action.0),
        SessionKind::Batch { request } => ("batch", "request", request.0),
    };
    let _ = writeln!(
        out,
        "{{\"t\":\"session\",\"at_us\":{},\"kind\":\"{kind}\",\"user\":{},\"{id_key}\":{id},\"dataset\":{}}}",
        l.at.as_micros(),
        l.user.0,
        l.dataset.0
    );
}

fn write_request(out: &mut String, job: &Job) {
    let _ = write!(
        out,
        "{{\"t\":\"request\",\"at_us\":{},\"job\":{}",
        job.issue_time.as_micros(),
        job.id.0
    );
    match job.kind {
        JobKind::Interactive { user, action } => {
            let _ = write!(
                out,
                ",\"kind\":\"interactive\",\"user\":{},\"action\":{}",
                user.0, action.0
            );
        }
        JobKind::Batch {
            user,
            request,
            frame,
        } => {
            let _ = write!(
                out,
                ",\"kind\":\"batch\",\"user\":{},\"request\":{},\"frame\":{frame}",
                user.0, request.0
            );
        }
    }
    let f = &job.frame;
    let _ = write!(
        out,
        ",\"dataset\":{},\"azimuth\":{},\"elevation\":{},\"distance\":{},\"transfer_fn\":{}}}",
        job.dataset.0, f.azimuth, f.elevation, f.distance, f.transfer_fn
    );
    out.push('\n');
}

fn write_fault(out: &mut String, l: &FaultEvent) {
    let (kind, target, param) = l.kind.wire();
    let _ = writeln!(
        out,
        "{{\"t\":\"fault\",\"at_us\":{},\"kind\":\"{kind}\",\"target\":{target},\"param\":{param}}}",
        l.at.as_micros()
    );
}

// ---------------------------------------------------------------------
// Parsing
// ---------------------------------------------------------------------

fn parse_header(val: &Json) -> Result<RecordHeader, String> {
    let tag = val.str_field("t")?;
    if tag != "header" {
        return Err(format!("expected a header line first, got {tag:?}"));
    }
    let version = val.u64_field("v")? as u32;
    if version != RECORD_VERSION {
        return Err(format!(
            "unsupported record version {version} (this build reads v{RECORD_VERSION})"
        ));
    }
    let cost_val = val.field("cost")?;
    let cost = CostParams {
        disk_bw: cost_val.u64_field("disk_bw")?,
        render_fixed: SimDuration::from_micros(cost_val.u64_field("render_fixed_us")?),
        render_per_gib: SimDuration::from_micros(cost_val.u64_field("render_per_gib_us")?),
        composite_fixed: SimDuration::from_micros(cost_val.u64_field("composite_fixed_us")?),
        composite_per_node: SimDuration::from_micros(cost_val.u64_field("composite_per_node_us")?),
        upload_bw: cost_val.u64_field("upload_bw")?,
    };
    // The cost model divides by both bandwidths.
    for (name, bw) in [("disk_bw", cost.disk_bw), ("upload_bw", cost.upload_bw)] {
        if bw == 0 {
            return Err(format!("cost.{name} must be greater than 0"));
        }
    }
    let cycle_us = val.u64_field("cycle_us")?;
    if cycle_us == 0 {
        return Err("cycle_us must be greater than 0".to_string());
    }
    let mut nodes = Vec::new();
    for n in val.field("cluster")?.elements()? {
        let disk_scale = n.f64_field("disk_scale")?;
        if !(disk_scale.is_finite() && disk_scale > 0.0) {
            return Err(format!(
                "node {} disk_scale {disk_scale} must be finite and greater than 0",
                nodes.len()
            ));
        }
        nodes.push(NodeSpec {
            mem_quota: n.u64_field("mem_quota")?,
            disk_scale,
        });
    }
    if nodes.is_empty() {
        return Err("header cluster has no nodes".to_string());
    }
    let mut datasets = Vec::new();
    let mut chunks = Vec::new();
    for (i, d) in val.field("datasets")?.elements()?.iter().enumerate() {
        let id = d.u64_field("id")? as u32;
        if id as usize != i {
            return Err(format!(
                "dataset ids must be dense: got {id} at position {i}"
            ));
        }
        let sizes = d
            .field("chunks")?
            .elements()?
            .iter()
            .map(Json::number)
            .collect::<Result<Vec<u64>, _>>()?;
        if sizes.is_empty() {
            return Err(format!("dataset {id} has no chunks"));
        }
        let dims = match d.field("dims") {
            Ok(v) => {
                let els = v.elements()?;
                if els.len() != 3 {
                    return Err(format!("dataset {id} dims must have 3 entries"));
                }
                Some([
                    els[0].number::<u32>()?,
                    els[1].number::<u32>()?,
                    els[2].number::<u32>()?,
                ])
            }
            Err(_) => None,
        };
        datasets.push(DatasetDesc {
            id: DatasetId(id),
            name: d.str_field("name")?.to_string(),
            bytes: d.u64_field("bytes")?,
            dims,
        });
        chunks.push(sizes);
    }
    if datasets.is_empty() {
        return Err("header has no datasets".to_string());
    }
    let header = RecordHeader {
        version,
        label: val.str_field("label")?.to_string(),
        seed: val.u64_field("seed")?,
        policy: val.str_field("policy")?.to_string(),
        cycle: SimDuration::from_micros(cycle_us),
        cost,
        cluster: ClusterSpec { nodes },
        datasets,
        chunks,
    };
    let claimed = val.str_field("fingerprint")?;
    let actual = format!("{:016x}", header.fingerprint());
    if claimed != actual {
        return Err(format!(
            "fingerprint mismatch: header claims {claimed}, fields hash to {actual}"
        ));
    }
    Ok(header)
}

fn parse_session(val: &Json, at_us: u64) -> Result<SessionLine, String> {
    let at = SimTime::from_micros(at_us);
    let user = UserId(val.u64_field("user")? as u32);
    let dataset = DatasetId(val.u64_field("dataset")? as u32);
    let kind = match val.str_field("kind")? {
        "interactive" => SessionKind::Interactive {
            action: ActionId(val.u64_field("action")?),
        },
        "batch" => SessionKind::Batch {
            request: BatchId(val.u64_field("request")?),
        },
        other => return Err(format!("unknown session kind {other:?}")),
    };
    Ok(SessionLine {
        at,
        user,
        kind,
        dataset,
    })
}

/// `datasets` is the header's dataset count: a request must name one of
/// them.
fn parse_request(val: &Json, at_us: u64, datasets: u64) -> Result<Job, String> {
    let dataset = val.u64_field("dataset")?;
    if dataset >= datasets {
        return Err(format!(
            "request dataset {dataset} is outside the recorded {datasets} datasets"
        ));
    }
    let user = UserId(val.u64_field("user")? as u32);
    let kind = match val.str_field("kind")? {
        "interactive" => JobKind::Interactive {
            user,
            action: ActionId(val.u64_field("action")?),
        },
        "batch" => JobKind::Batch {
            user,
            request: BatchId(val.u64_field("request")?),
            frame: val.u64_field("frame")? as u32,
        },
        other => return Err(format!("unknown request kind {other:?}")),
    };
    Ok(Job {
        id: JobId(val.u64_field("job")?),
        kind,
        dataset: DatasetId(dataset as u32),
        issue_time: SimTime::from_micros(at_us),
        frame: FrameParams {
            azimuth: val.f32_field("azimuth")?,
            elevation: val.f32_field("elevation")?,
            distance: val.f32_field("distance")?,
            transfer_fn: val.u64_field("transfer_fn")? as u32,
        },
    })
}

/// `nodes` is the recorded cluster's size: every fault addresses it — a
/// node, a leaf group of nodes, or a shard, and a shard owns at least one
/// node, so `nodes` also bounds every shard id a replay could use.
fn parse_fault(val: &Json, at_us: u64, nodes: u64) -> Result<FaultEvent, String> {
    let name = val.str_field("kind")?;
    let target = val.u64_field("target")?;
    let param = val.u64_field("param")?;
    let param32 =
        u32::try_from(param).map_err(|_| format!("param {param} does not fit 32 bits"))?;
    // `as` may truncate `target`; the range check below, on the untruncated
    // value, rejects every line where it did.
    let kind = FaultKind::from_wire(name, target as u32, param32)
        .ok_or_else(|| format!("unknown fault kind {name:?}"))?;
    let width = kind.node_range().map_or(1, |hit| hit.end - hit.start);
    if target.saturating_add(width) > nodes {
        return Err(format!(
            "{name} target {target} (width {width}) is outside the recorded {nodes}-node cluster"
        ));
    }
    Ok(FaultEvent {
        at: SimTime::from_micros(at_us),
        kind,
    })
}

// ---------------------------------------------------------------------
// The recording probe
// ---------------------------------------------------------------------

/// A [`Probe`] that captures a run as a [`ScenarioRecord`] while also
/// buffering the full trace-event stream (so one probe serves both the
/// recorder and any parity comparison).
///
/// Attach it like any other probe — `RunOptions::probe` on the simulator,
/// `ServiceConfig::probe` on the live service — and call
/// [`RecordingProbe::finish`] when the run is done.
#[derive(Debug)]
pub struct RecordingProbe {
    state: Mutex<RecState>,
}

#[derive(Debug)]
struct RecState {
    record: ScenarioRecord,
    seen: BTreeSet<(bool, u32, u64)>,
    events: Vec<TraceEvent>,
}

impl RecordingProbe {
    /// A recorder whose header pins the given run configuration.
    pub fn new(header: RecordHeader) -> Self {
        RecordingProbe {
            state: Mutex::new(RecState {
                record: ScenarioRecord::from_jobs(header, &[]),
                seen: BTreeSet::new(),
                events: Vec::new(),
            }),
        }
    }

    /// The capture state, recovered if an emitter panicked while holding
    /// it: emits only append, so what the state holds stays valid, and
    /// the next emitter (in a live service, the head thread) must not
    /// panic in turn.
    fn state(&self) -> MutexGuard<'_, RecState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Snapshot the capture as a [`ScenarioRecord`].
    pub fn finish(&self) -> ScenarioRecord {
        self.state().record.clone()
    }

    /// Copy out every trace event seen so far (the recorder doubles as a
    /// `CollectingProbe`).
    pub fn events(&self) -> Vec<TraceEvent> {
        self.state().events.clone()
    }

    /// Number of requests captured so far.
    pub fn request_count(&self) -> usize {
        let st = self.state();
        st.record.requests.len()
    }

    /// Serialize the capture and write it to `path`.
    pub fn save(&self, path: &std::path::Path) -> std::io::Result<()> {
        std::fs::write(path, self.finish().to_jsonl())
    }
}

impl Probe for RecordingProbe {
    fn on_event(&self, event: &TraceEvent) {
        let mut st = self.state();
        if let TraceEvent::FaultInjected { now, fault } = *event {
            st.record.faults.push(FaultEvent {
                at: now,
                kind: fault,
            });
        }
        st.events.push(*event);
    }

    fn on_job_offered(&self, _now: SimTime, job: &Job) {
        let mut st = self.state();
        let RecState { record, seen, .. } = &mut *st;
        note_session(&mut record.sessions, seen, job);
        record.requests.push(job.clone());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vizsched_core::data::{uniform_datasets, DecompositionPolicy};
    use vizsched_core::ids::NodeId;

    fn small_header() -> RecordHeader {
        let catalog = Catalog::new(
            uniform_datasets(2, 4 << 20),
            DecompositionPolicy::MaxChunkSize { max_bytes: 1 << 20 },
        );
        RecordHeader::new(
            "unit",
            7,
            "OURS",
            SimDuration::from_millis(30),
            CostParams::default(),
            ClusterSpec::homogeneous(2, 64 << 20),
            &catalog,
        )
    }

    fn small_jobs() -> Vec<Job> {
        vec![
            Job {
                id: JobId(0),
                kind: JobKind::Interactive {
                    user: UserId(0),
                    action: ActionId(5),
                },
                dataset: DatasetId(1),
                issue_time: SimTime::from_millis(1),
                frame: FrameParams {
                    azimuth: 0.02,
                    ..FrameParams::default()
                },
            },
            Job {
                id: JobId(1),
                kind: JobKind::Batch {
                    user: UserId(1000),
                    request: BatchId(0),
                    frame: 3,
                },
                dataset: DatasetId(0),
                issue_time: SimTime::from_millis(2),
                frame: FrameParams::default(),
            },
        ]
    }

    #[test]
    fn round_trips_byte_identically() {
        let record = ScenarioRecord::from_jobs(small_header(), &small_jobs());
        let text = record.to_jsonl();
        let back = ScenarioRecord::parse(&text).expect("parse");
        assert_eq!(back, record);
        assert_eq!(back.to_jsonl(), text, "serialization must be canonical");
    }

    #[test]
    fn header_catalog_round_trips() {
        let h = small_header();
        let catalog = h.catalog();
        assert_eq!(catalog.datasets().len(), 2);
        assert_eq!(catalog.task_count(DatasetId(0)), 4);
        assert_eq!(
            RecordHeader::new(
                "unit",
                7,
                "OURS",
                SimDuration::from_millis(30),
                CostParams::default(),
                ClusterSpec::homogeneous(2, 64 << 20),
                &catalog,
            ),
            h
        );
    }

    #[test]
    fn truncated_record_reports_line_number() {
        let record = ScenarioRecord::from_jobs(small_header(), &small_jobs());
        let text = record.to_jsonl();
        // Cut the final line mid-object.
        let cut = &text[..text.len() - 10];
        let e = ScenarioRecord::parse(cut).expect_err("must fail");
        // Header, two sessions, two requests: the cut lands on line 5.
        assert_eq!(e.line, 5, "{e}");
    }

    #[test]
    fn empty_record_fails_gracefully() {
        let e = ScenarioRecord::parse("").expect_err("must fail");
        assert_eq!(e.line, 1);
        assert!(e.to_string().contains("header"), "{e}");
    }

    #[test]
    fn fingerprint_mismatch_detected() {
        let record = ScenarioRecord::from_jobs(small_header(), &small_jobs());
        let text = record.to_jsonl().replace("\"seed\":7", "\"seed\":8");
        let e = ScenarioRecord::parse(&text).expect_err("must fail");
        assert_eq!(e.line, 1);
        assert!(e.to_string().contains("fingerprint"), "{e}");
    }

    #[test]
    fn a_version_1_record_is_refused_naming_both_versions() {
        // A v1 header, fingerprinted over its own version, so the version
        // gate and not the fingerprint check is what refuses it.
        let mut header = small_header();
        header.version = 1;
        let text = ScenarioRecord::from_jobs(header, &small_jobs()).to_jsonl();
        assert!(text.starts_with("{\"t\":\"header\",\"v\":1,"), "{text}");
        let e = ScenarioRecord::parse(&text).expect_err("must fail");
        assert_eq!(e.line, 1);
        assert!(
            e.to_string()
                .contains("unsupported record version 1 (this build reads v2)"),
            "{e}"
        );
    }

    #[test]
    fn out_of_order_times_rejected() {
        let record = ScenarioRecord::from_jobs(small_header(), &small_jobs());
        let text = record.to_jsonl();
        let lines: Vec<&str> = text.lines().collect();
        // Move the last (latest) line right after the header.
        let swapped = [lines[0], lines[4], lines[1], lines[2], lines[3]].join("\n");
        let e = ScenarioRecord::parse(&swapped).expect_err("must fail");
        assert!(e.to_string().contains("backwards"), "{e}");
    }

    #[test]
    fn unknown_line_kind_rejected() {
        let record = ScenarioRecord::from_jobs(small_header(), &[]);
        let mut text = record.to_jsonl();
        text.push_str("{\"t\":\"mystery\",\"at_us\":5}\n");
        let e = ScenarioRecord::parse(&text).expect_err("must fail");
        assert_eq!(e.line, 2);
        assert!(e.to_string().contains("mystery"), "{e}");
    }

    #[test]
    fn fault_targets_outside_the_cluster_are_rejected() {
        // small_header() records a 2-node cluster.
        let header = ScenarioRecord::from_jobs(small_header(), &[]).to_jsonl();
        let fault = |kind: &str, target: u64, param: u64| {
            format!(
                "{header}{{\"t\":\"fault\",\"at_us\":5,\"kind\":\"{kind}\",\
                 \"target\":{target},\"param\":{param}}}\n"
            )
        };
        for (kind, target, param) in [
            ("node_crash", 2, 0),
            ("shard_crash", 7, 0),
            ("leaf_outage", 1, 2),
            ("node_degrade", u64::MAX, 1500),
        ] {
            let e = ScenarioRecord::parse(&fault(kind, target, param)).expect_err(kind);
            assert_eq!(e.line, 2, "{e}");
            assert!(e.to_string().contains("outside the recorded 2-node"), "{e}");
        }
        for (kind, target, param) in [
            ("node_crash", 1, 0),
            ("shard_crash", 1, 0),
            ("leaf_outage", 0, 2),
            ("node_degrade", 0, 1500),
        ] {
            let record = ScenarioRecord::parse(&fault(kind, target, param)).expect(kind);
            assert_eq!(record.faults.len(), 1);
        }
    }

    #[test]
    fn faults_round_trip_byte_identically() {
        let mut record = ScenarioRecord::from_jobs(small_header(), &small_jobs());
        record.faults = vec![
            FaultEvent {
                at: SimTime::from_millis(1),
                kind: FaultKind::NodeDegrade {
                    node: NodeId(1),
                    factor_pm: 1500,
                },
            },
            FaultEvent {
                at: SimTime::from_millis(2),
                kind: FaultKind::LeafOutage {
                    base: NodeId(1),
                    count: 1,
                },
            },
        ];
        let text = record.to_jsonl();
        assert!(
            text.contains(
                "{\"t\":\"fault\",\"at_us\":1000,\"kind\":\"node_degrade\",\"target\":1,\"param\":1500}\n"
            ),
            "{text}"
        );
        let back = ScenarioRecord::parse(&text).expect("parse");
        assert_eq!(back, record);
        assert_eq!(back.to_jsonl(), text);
    }

    /// The parser under `parse` bounds nesting: a hostile line is a
    /// line-numbered error, not a stack overflow that aborts the process.
    #[test]
    fn deeply_nested_input_is_an_error_not_a_stack_overflow() {
        let text = ScenarioRecord::from_jobs(small_header(), &[])
            .to_jsonl()
            .replacen("{", &format!("{{\"x\":{},", "[".repeat(100_000)), 1);
        let e = ScenarioRecord::parse(&text).expect_err("must fail");
        assert_eq!(e.line, 1, "{e}");
        assert!(e.to_string().contains("nesting"), "{e}");
    }

    #[test]
    fn unknown_keys_are_ignored() {
        let record = ScenarioRecord::from_jobs(small_header(), &small_jobs());
        let text = record
            .to_jsonl()
            .replace("\"t\":\"request\"", "\"t\":\"request\",\"note\":\"extra\"");
        let back = ScenarioRecord::parse(&text).expect("forward-compatible parse");
        assert_eq!(back.requests, record.requests);
    }

    #[test]
    fn recording_probe_survives_a_poisoned_lock() {
        let probe = std::sync::Arc::new(RecordingProbe::new(small_header()));
        let held = probe.clone();
        let joined = std::thread::spawn(move || {
            let _held = held.state.lock();
            panic!("an emitter panics while holding the recorder");
        })
        .join();
        assert!(joined.is_err() && probe.state.is_poisoned());
        for job in small_jobs() {
            probe.on_job_offered(job.issue_time, &job);
        }
        probe.on_event(&TraceEvent::FaultInjected {
            now: SimTime::from_millis(3),
            fault: FaultKind::NodeCrash(NodeId(1)),
        });
        assert_eq!(probe.request_count(), 2);
        assert_eq!(probe.events().len(), 1);
        let record = probe.finish();
        assert_eq!(record.requests, small_jobs());
        assert_eq!(record.faults.len(), 1);
    }

    #[test]
    fn recording_probe_derives_sessions_once() {
        let probe = RecordingProbe::new(small_header());
        for job in small_jobs() {
            probe.on_job_offered(job.issue_time, &job);
        }
        // A second frame of the same action adds a request, not a session.
        let mut again = small_jobs().remove(0);
        again.id = JobId(2);
        again.issue_time = SimTime::from_millis(3);
        probe.on_job_offered(again.issue_time, &again);
        let record = probe.finish();
        assert_eq!(record.sessions.len(), 2);
        assert_eq!(record.requests.len(), 3);
    }
}
