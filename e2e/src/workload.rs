//! The five workloads and their request generators.
//!
//! Everything the service receives is generated here from `--seed`: the
//! open-loop schedule (who sends what, when it is due) is built up front,
//! the closed-loop streams draw their next request when the previous reply
//! lands. The same seed gives the same requests; the service sees nothing
//! else.

use std::time::{Duration, Instant};

use vizsched_core::prelude::{
    ActionId, BatchId, DatasetId, FrameParams, JobKind, SimDuration, UserId,
};
use vizsched_service::{OverloadPolicy, WireRequest};
use vizsched_volume::Field;

/// Render nodes: one worker thread per core of the 2-core reference box.
pub const NODES: usize = 2;
/// Bricks (= chunks = tasks per frame) per dataset.
pub const BRICKS: usize = 2;
/// Scheduling cycle ω.
pub const CYCLE: SimDuration = SimDuration::from_millis(30);
/// Client connections; user `u` rides connection `u % CONNS`.
pub const CONNS: usize = 2;
/// Length of one interactive action (one camera drag).
const ACTION_SECS: f64 = 3.0;
/// Think time between a user's actions, uniform in this range.
const THINK_SECS: (f64, f64) = (0.2, 0.6);
/// Each frame of a drag is due within this share of a frame period around
/// its nominal time (uniform, seeded). A hand is not a metronome, and
/// strictly periodic users would keep whatever phase relation the seed
/// gave them for a whole action — colliding in the same cycle every frame,
/// or never.
const PACE_JITTER: f64 = 0.25;
/// Frames each warm-up stream renders, closed-loop, before measuring.
const WARM_FRAMES: u32 = 8;
/// Frames per dataset visit in the cyclic scan.
const SCAN_VISIT_FRAMES: u32 = 8;
/// Datasets each scanning user cycles through.
const SCAN_DATASETS: u32 = 3;
/// A scanning user looks at each frame for up to one cycle before asking
/// for the next (uniform, seeded). Without it a closed loop phase-locks to
/// the scheduler's ω tick and its latency jumps between whole cycles.
const SCAN_THINK_MAX: Duration = Duration::from_millis(30);
/// Warm-up fans out over at most this many users (the rest share their
/// datasets, so residency is already established).
const WARM_USERS: u32 = 4;

/// Paced interactive users (open loop: requests are sent when due,
/// whatever the service is doing).
#[derive(Clone, Copy, Debug)]
pub struct Open {
    pub users: u32,
    pub fps: f64,
    /// Each action picks one of datasets `0..datasets`.
    pub datasets: u32,
}

/// Closed-loop streams (one request outstanding each).
#[derive(Clone, Copy, Debug)]
pub enum Closed {
    /// `users` interactive users, each cycling its own `SCAN_DATASETS`
    /// datasets, `SCAN_VISIT_FRAMES` frames per visit.
    Scan { users: u32 },
    /// `streams` batch streams over datasets `first..first + datasets`,
    /// a new camera every frame.
    Batch {
        streams: u32,
        first: u32,
        datasets: u32,
    },
}

/// One workload: the store, the service configuration and the traffic.
#[derive(Clone, Copy, Debug)]
pub struct Spec {
    pub name: &'static str,
    pub why: &'static str,
    pub datasets: u32,
    /// Volumes are `edge³` voxels.
    pub edge: usize,
    /// Frames are `image²` pixels.
    pub image: usize,
    /// Node cache size in bricks; `None` keeps every brick resident.
    pub quota_bricks: Option<u64>,
    /// Chunk-store read bandwidth in bytes/s.
    pub throttle: Option<u64>,
    pub shards: usize,
    pub overload: OverloadPolicy,
    pub open: Option<Open>,
    pub closed: Option<Closed>,
}

const NO_POLICY: OverloadPolicy = OverloadPolicy {
    max_in_flight: None,
    max_per_user: None,
    deadline: None,
    coalesce_interactive: false,
    batch_escalation_age: None,
};

/// The workloads, in the order they are run and documented.
pub const WORKLOADS: [Spec; 5] = [
    Spec {
        name: "steady_warm",
        why: "Unloaded Definition-3 frame: 3 paced users at about 40% of capacity, all bricks resident; render, compositing and cycle wait do the work, storage none",
        datasets: 2,
        edge: 64,
        image: 128,
        quota_bricks: None,
        throttle: None,
        shards: 1,
        overload: NO_POLICY,
        open: Some(Open {
            users: 3,
            fps: 6.0,
            datasets: 2,
        }),
        closed: None,
    },
    Spec {
        name: "cold_scan",
        why: "I/O >> render regime: 2 closed-loop users cycle 3 datasets each through a 2-brick node cache behind a 4 MB/s store; storage, cache and locality do the work, render little",
        datasets: 6,
        edge: 64,
        image: 64,
        quota_bricks: Some(2),
        throttle: Some(4_000_000),
        shards: 1,
        overload: NO_POLICY,
        open: None,
        closed: Some(Closed::Scan { users: 2 }),
    },
    Spec {
        name: "mixed_batch",
        why: "Batch fills what interactive leaves: 2 paced users beside 4 closed-loop batch streams; a latency gain that starves batch (or the reverse) moves one metric up and one down",
        datasets: 4,
        edge: 64,
        image: 128,
        quota_bricks: None,
        throttle: None,
        shards: 1,
        overload: NO_POLICY,
        open: Some(Open {
            users: 2,
            fps: 6.0,
            datasets: 2,
        }),
        closed: Some(Closed::Batch {
            streams: 4,
            first: 2,
            datasets: 2,
        }),
    },
    Spec {
        name: "drag_overload",
        why: "3 users at the paper's 30 ms drag cadence, about 3x capacity, behind per-user caps and stale-frame coalescing; the only run through admission, reject and Overloaded replies",
        datasets: 2,
        edge: 64,
        image: 128,
        quota_bricks: None,
        throttle: None,
        shards: 1,
        overload: OverloadPolicy {
            max_per_user: Some(2),
            coalesce_interactive: true,
            ..NO_POLICY
        },
        open: Some(Open {
            users: 3,
            fps: 33.0,
            datasets: 2,
        }),
        closed: None,
    },
    Spec {
        name: "plane_small",
        why: "Render is about zero (16x16 frames): 64 users at 16 fps over 2 shards make tcp, codec, runtime, routing and the scheduler the whole cost; bypass workload for renderer changes",
        datasets: 4,
        edge: 16,
        image: 16,
        quota_bricks: None,
        throttle: None,
        shards: 2,
        overload: NO_POLICY,
        open: Some(Open {
            users: 64,
            fps: 16.0,
            datasets: 4,
        }),
        closed: None,
    },
];

/// Look a workload up by name.
pub fn find(name: &str) -> Option<&'static Spec> {
    WORKLOADS.iter().find(|w| w.name == name)
}

impl Spec {
    /// The synthetic field behind dataset `d` (fixed, so rendered pixels
    /// depend on the commit and never on the seed).
    pub fn field(&self, d: u32) -> Field {
        Field::ALL[d as usize % Field::ALL.len()]
    }

    /// True when refusals and drops are the service's designed answer
    /// (an overload policy is active), not failures.
    pub fn sheds_by_design(&self) -> bool {
        self.overload.is_active()
    }

    /// Users that issue interactive frames (open-loop and scanning).
    fn interactive_users(&self) -> u32 {
        let open = self.open.map_or(0, |o| o.users);
        let scan = match self.closed {
            Some(Closed::Scan { users }) => users,
            _ => 0,
        };
        open + scan
    }
}

/// SplitMix64: small, seedable, and good enough to draw cameras and think
/// times from.
#[derive(Clone, Debug)]
struct Rng(u64);

impl Rng {
    /// An independent generator for sub-stream `lane` of `seed`.
    fn lane(seed: u64, lane: u64) -> Rng {
        let mut root = Rng(seed ^ lane.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        Rng(root.next_u64())
    }

    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.unit()
    }

    fn below(&mut self, n: u32) -> u32 {
        (self.unit() * n as f64) as u32
    }
}

/// One request, minus the `request_id` the generator stamps when sending.
#[derive(Clone, Debug, PartialEq)]
pub struct Shot {
    pub user: u32,
    pub kind: JobKind,
    pub dataset: u32,
    pub frame: FrameParams,
    /// First frame of its action (after think time or a dataset switch).
    pub first: bool,
}

impl Shot {
    pub fn interactive(&self) -> bool {
        self.kind.is_interactive()
    }

    /// The action this frame belongs to (`None` for batch frames).
    pub fn action(&self) -> Option<u64> {
        self.kind.action().map(|a| a.0)
    }

    pub fn to_wire(&self, request_id: u64) -> WireRequest {
        WireRequest {
            request_id,
            user: UserId(self.user),
            kind: self.kind,
            dataset: DatasetId(self.dataset),
            frame: self.frame,
        }
    }
}

/// An open-loop request and the offset into the window at which it is due.
#[derive(Clone, Debug, PartialEq)]
pub struct Planned {
    pub due: Duration,
    pub shot: Shot,
}

fn interactive_kind(user: u32, action_seq: u64) -> JobKind {
    JobKind::Interactive {
        user: UserId(user),
        action: ActionId(((user as u64) << 32) | action_seq),
    }
}

/// A seeded point of view.
fn seeded_view(rng: &mut Rng) -> FrameParams {
    FrameParams {
        azimuth: rng.range(0.0, std::f64::consts::TAU) as f32,
        elevation: rng.range(-0.3, 0.3) as f32,
        ..FrameParams::default()
    }
}

/// A camera drag: azimuth advances by a fixed step per frame, elevation
/// and distance stay put.
#[derive(Clone, Copy, Debug)]
struct Drag {
    next: FrameParams,
    step: f32,
}

impl Drag {
    /// A drag that makes one full turn, either way round, in `frames`
    /// frames from a seeded view. A whole turn per action keeps an
    /// action's render cost the same whatever the seed: cost varies with
    /// the view, and every action sees every view.
    fn start(rng: &mut Rng, frames: u32) -> Drag {
        let sign = if rng.unit() < 0.5 { -1.0 } else { 1.0 };
        Drag {
            next: seeded_view(rng),
            step: (sign * std::f64::consts::TAU / frames as f64) as f32,
        }
    }

    fn frame(&mut self) -> FrameParams {
        let frame = self.next;
        self.next.azimuth += self.step;
        frame
    }
}

/// The open-loop schedule of `spec` for a window of `window`: every paced
/// user alternates `ACTION_SECS` drags with seeded think times, starting
/// at a seeded phase. Sorted by due time.
pub fn open_schedule(spec: &Spec, seed: u64, window: Duration) -> Vec<Planned> {
    let Some(open) = spec.open else {
        return Vec::new();
    };
    let horizon = window.as_secs_f64();
    let period = 1.0 / open.fps;
    let frames_per_action = (ACTION_SECS * open.fps).round() as u32;
    let mut plan = Vec::new();
    for user in 0..open.users {
        let mut rng = Rng::lane(seed, user as u64);
        let mut t = rng.range(0.0, THINK_SECS.1);
        let mut action_seq = 0u64;
        // Datasets differ in render cost, so each user takes them in
        // turn from a seeded start: the mix is the same for every seed.
        let first_dataset = rng.below(open.datasets);
        while t < horizon {
            let dataset = (first_dataset + action_seq as u32) % open.datasets;
            let mut drag = Drag::start(&mut rng, frames_per_action);
            for f in 0..frames_per_action {
                let jitter = rng.range(-PACE_JITTER, PACE_JITTER);
                let due = t + (f as f64 + jitter).max(0.0) * period;
                if due >= horizon {
                    break;
                }
                plan.push(Planned {
                    due: Duration::from_secs_f64(due),
                    shot: Shot {
                        user,
                        kind: interactive_kind(user, action_seq),
                        dataset,
                        frame: drag.frame(),
                        first: f == 0,
                    },
                });
            }
            action_seq += 1;
            t += ACTION_SECS + rng.range(THINK_SECS.0, THINK_SECS.1);
        }
    }
    plan.sort_by_key(|p| (p.due, p.shot.user));
    plan
}

#[derive(Clone, Debug)]
enum Script {
    /// Cyclic scan: `SCAN_VISIT_FRAMES` frames on each of the user's
    /// datasets in turn.
    Scan { base: u32, drag: Drag },
    /// Batch animation frames on one dataset, a fresh camera each.
    Batch { dataset: u32 },
    /// Warm-up: a short drag on one dataset.
    Warm { dataset: u32, drag: Drag },
}

/// A closed-loop stream: hands out its next request when the previous
/// one has been answered.
#[derive(Clone, Debug)]
pub struct ClosedStream {
    user: u32,
    rng: Rng,
    script: Script,
    sent: u64,
    /// Requests left to send; `None` runs until the window closes.
    remaining: Option<u32>,
    /// A request is outstanding.
    pub busy: bool,
    /// Earliest instant the next request may leave.
    pub ready_at: Instant,
}

impl ClosedStream {
    fn new(user: u32, rng: Rng, script: Script, remaining: Option<u32>) -> ClosedStream {
        ClosedStream {
            user,
            rng,
            script,
            sent: 0,
            remaining,
            busy: false,
            ready_at: Instant::now(),
        }
    }

    pub fn exhausted(&self) -> bool {
        self.remaining == Some(0)
    }

    /// The outstanding request was answered at `at`.
    pub fn answered(&mut self, at: Instant) {
        self.busy = false;
        self.ready_at = match self.script {
            Script::Scan { .. } => at + SCAN_THINK_MAX.mul_f64(self.rng.unit()),
            Script::Batch { .. } | Script::Warm { .. } => at,
        };
    }

    /// The stream's next request.
    pub fn next_shot(&mut self) -> Shot {
        let n = self.sent;
        self.sent += 1;
        if let Some(left) = &mut self.remaining {
            *left -= 1;
        }
        let user = self.user;
        match &mut self.script {
            Script::Scan { base, drag } => {
                let visit = n / SCAN_VISIT_FRAMES as u64;
                let frame_of_visit = n % SCAN_VISIT_FRAMES as u64;
                let first = frame_of_visit == 0;
                if first {
                    *drag = Drag::start(&mut self.rng, SCAN_VISIT_FRAMES);
                }
                Shot {
                    user,
                    kind: interactive_kind(user, visit),
                    dataset: *base + (visit % SCAN_DATASETS as u64) as u32,
                    frame: drag.frame(),
                    first,
                }
            }
            Script::Batch { dataset } => Shot {
                user,
                kind: JobKind::Batch {
                    user: UserId(user),
                    request: BatchId(user as u64),
                    frame: n as u32,
                },
                dataset: *dataset,
                frame: seeded_view(&mut self.rng),
                first: false,
            },
            Script::Warm { dataset, drag } => Shot {
                user,
                // Warm-up actions sit above any action the window uses.
                kind: interactive_kind(user, (1 << 31) | *dataset as u64),
                dataset: *dataset,
                frame: drag.frame(),
                first: n == 0,
            },
        }
    }
}

/// The closed-loop streams of the measured window.
pub fn closed_streams(spec: &Spec, seed: u64) -> Vec<ClosedStream> {
    // Closed-loop users are numbered after the paced ones.
    let first_user = spec.open.map_or(0, |o| o.users);
    let rng = |user: u32| Rng::lane(seed, 1_000 + user as u64);
    match spec.closed {
        None => Vec::new(),
        Some(Closed::Scan { users }) => (0..users)
            .map(|i| {
                let user = first_user + i;
                let mut rng = rng(user);
                let script = Script::Scan {
                    base: i * SCAN_DATASETS,
                    drag: Drag::start(&mut rng, SCAN_VISIT_FRAMES),
                };
                ClosedStream::new(user, rng, script, None)
            })
            .collect(),
        Some(Closed::Batch {
            streams,
            first,
            datasets,
        }) => (0..streams)
            .map(|i| {
                let user = first_user + i;
                let script = Script::Batch {
                    dataset: first + i % datasets,
                };
                ClosedStream::new(user, rng(user), script, None)
            })
            .collect(),
    }
}

/// Warm-up is fixed *work*, not time: the scan makes one full cycle; any
/// other workload renders `WARM_FRAMES` frames per (user, dataset) pair so
/// every brick is resident and every code path has run.
pub fn warmup_streams(spec: &Spec, seed: u64) -> Vec<ClosedStream> {
    if let Some(Closed::Scan { .. }) = spec.closed {
        let mut streams = closed_streams(spec, seed ^ 0x5741_524D);
        for s in &mut streams {
            s.remaining = Some(SCAN_DATASETS * SCAN_VISIT_FRAMES);
        }
        return streams;
    }
    let users = spec.interactive_users().clamp(1, WARM_USERS);
    let mut streams = Vec::new();
    for user in 0..users {
        for dataset in 0..spec.datasets {
            let mut rng = Rng::lane(seed ^ 0x5741_524D, ((user as u64) << 16) | dataset as u64);
            let script = Script::Warm {
                dataset,
                drag: Drag::start(&mut rng, WARM_FRAMES),
            };
            streams.push(ClosedStream::new(user, rng, script, Some(WARM_FRAMES)));
        }
    }
    streams
}

/// The canary request: dataset 0 from a fixed camera, whatever the seed.
pub fn canary_shot() -> Shot {
    Shot {
        user: 0,
        kind: interactive_kind(0, u32::MAX as u64),
        dataset: 0,
        frame: FrameParams {
            azimuth: 0.6,
            elevation: 0.3,
            ..FrameParams::default()
        },
        first: true,
    }
}

/// Everything the service will be sent for `(spec, seed, window)`, encoded
/// as the bytes that go on the wire (open-loop requests prefixed with
/// their due time; the first `closed_prefix` requests of every closed
/// stream). Two equal byte strings mean two equal request schedules.
#[cfg(test)]
fn schedule_bytes(spec: &Spec, seed: u64, window: Duration, closed_prefix: usize) -> Vec<u8> {
    use vizsched_service::{Codec, WireMessage};
    let mut codec = Codec::new();
    let mut out = Vec::new();
    let mut id = 0u64;
    let mut push = |out: &mut Vec<u8>, shot: &Shot| {
        id += 1;
        out.extend_from_slice(&codec.encode(&WireMessage::Request(shot.to_wire(id))).head);
    };
    for planned in open_schedule(spec, seed, window) {
        out.extend_from_slice(&(planned.due.as_nanos() as u64).to_le_bytes());
        push(&mut out, &planned.shot);
    }
    for mut stream in closed_streams(spec, seed) {
        for _ in 0..closed_prefix {
            push(&mut out, &stream.next_shot());
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const WINDOW: Duration = Duration::from_secs(5);

    #[test]
    fn same_seed_same_schedule_different_seed_different() {
        for spec in &WORKLOADS {
            let a = schedule_bytes(spec, 1, WINDOW, 64);
            let b = schedule_bytes(spec, 1, WINDOW, 64);
            let c = schedule_bytes(spec, 2, WINDOW, 64);
            assert!(!a.is_empty(), "{}: empty schedule", spec.name);
            assert_eq!(a, b, "{}: same seed must repeat byte for byte", spec.name);
            assert_ne!(a, c, "{}: another seed must differ", spec.name);
        }
    }

    #[test]
    fn open_schedule_is_sorted_paced_and_inside_the_window() {
        let spec = find("steady_warm").unwrap();
        let plan = open_schedule(spec, 7, WINDOW);
        assert!(plan.windows(2).all(|w| w[0].due <= w[1].due));
        assert!(plan.iter().all(|p| p.due < WINDOW));
        // 3 users x 6 fps with think-time gaps: below the full cadence,
        // above two thirds of it.
        let full = 3.0 * 6.0 * WINDOW.as_secs_f64();
        assert!((plan.len() as f64) < full && plan.len() as f64 > full * 0.66);
        let firsts = plan.iter().filter(|p| p.shot.first).count();
        assert!((3..=6).contains(&firsts), "actions started: {firsts}");
    }

    #[test]
    fn scan_switches_dataset_every_visit_and_flags_first_frames() {
        let spec = find("cold_scan").unwrap();
        let mut streams = closed_streams(spec, 3);
        assert_eq!(streams.len(), 2);
        let shots: Vec<Shot> = (0..32).map(|_| streams[1].next_shot()).collect();
        for (i, shot) in shots.iter().enumerate() {
            let visit = i as u32 / SCAN_VISIT_FRAMES;
            assert_eq!(shot.dataset, 3 + visit % SCAN_DATASETS);
            let frame_of_visit = i as u32 % SCAN_VISIT_FRAMES;
            assert_eq!(shot.first, frame_of_visit == 0);
            assert_eq!(shot.user, 1);
        }
    }

    #[test]
    fn warmup_is_finite_fixed_work() {
        for spec in &WORKLOADS {
            let mut streams = warmup_streams(spec, 1);
            assert!(!streams.is_empty());
            let mut total = 0;
            for s in &mut streams {
                while !s.exhausted() {
                    s.next_shot();
                    total += 1;
                }
            }
            assert!(total > 0 && total <= 24 * 64, "{}: {total}", spec.name);
        }
    }
}
