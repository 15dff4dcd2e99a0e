//! Per-layer numbers measured by timing direct calls into each crate's
//! public functions, at the workload's own image and brick size. Each
//! figure is the median of as many calls as fit its slice of the budget.

use std::io::Cursor;
use std::sync::Arc;
use std::time::{Duration, Instant};

use vizsched_compositing::{composite, CompositeAlgo};
use vizsched_core::prelude::{
    ActionId, Assignment, Catalog, ChunkId, ClusterSpec, CostParams, DatasetId, FrameParams,
    HeadTables, Job, JobId, JobKind, ScheduleCtx, SchedulerKind, SimDuration, SimTime, UserId,
};
use vizsched_metrics::NoopProbe;
use vizsched_render::{render_brick, Camera, Layer, RenderSettings, TransferFunction};
use vizsched_routing::HashRing;
use vizsched_runtime::{Completion, HeadRuntime, Substrate};
use vizsched_service::{
    ChunkStore, Codec, FrameResult, RenderOutcome, RenderReply, RenderRequest, ServiceClient,
    ServiceConfig, TcpServer, VizService, WireFrame, WireMessage, WireResponse,
};
use vizsched_volume::Brick;

use crate::stats;
use crate::workload::{canary_shot, Spec, BRICKS, CYCLE, NODES};

/// `(name, value, unit)`.
pub type Row = (&'static str, f64, &'static str);

/// Median seconds per `call`, over as many calls as fit `budget` (at
/// least 5, at most 2000). `input` prepares each call's argument outside
/// the timed interval.
fn timed<T>(budget: Duration, mut input: impl FnMut() -> T, mut call: impl FnMut(T)) -> f64 {
    let mut samples = Vec::new();
    let opened = Instant::now();
    while samples.len() < 5 || (opened.elapsed() < budget && samples.len() < 2000) {
        let arg = input();
        let t0 = Instant::now();
        call(arg);
        samples.push(t0.elapsed().as_secs_f64());
    }
    stats::median(samples)
}

/// Render dataset 0 as the service would: one layer per brick.
pub fn render_layers(spec: &Spec, bricks: &[Arc<Brick<f32>>], frame: FrameParams) -> Vec<Layer> {
    let camera = Camera::orbit(
        [spec.edge; 3],
        frame.azimuth,
        frame.elevation,
        frame.distance,
    );
    let tf = TransferFunction::preset(frame.transfer_fn);
    let settings = RenderSettings {
        width: spec.image,
        height: spec.image,
        ..RenderSettings::default()
    };
    bricks
        .iter()
        .map(|b| render_brick(b.as_ref(), &camera, &tf, &settings))
        .collect()
}

/// The in-process reference for the canary: `render_brick` per brick →
/// `composite` → `WireFrame::from_image`, on this same commit.
pub fn reference_frame(spec: &Spec, bricks: &[Arc<Brick<f32>>]) -> WireFrame {
    let layers = render_layers(spec, bricks, canary_shot().frame);
    let image = composite(layers, CompositeAlgo::Auto);
    WireFrame::from_image(0, JobId(0), SimDuration::ZERO, 0, &image)
}

/// A substrate that runs nothing: it only remembers what was dispatched.
#[derive(Default)]
struct NullSubstrate {
    dispatched: Vec<Assignment>,
}

impl Substrate for NullSubstrate {
    fn dispatch(&mut self, assignment: &Assignment) -> bool {
        self.dispatched.push(*assignment);
        true
    }
}

fn jobs(first_id: u64, count: usize, datasets: u32, now: SimTime) -> Vec<Job> {
    (0..count as u64)
        .map(|i| Job {
            id: JobId(first_id + i),
            kind: JobKind::Interactive {
                user: UserId(i as u32),
                action: ActionId(i),
            },
            dataset: DatasetId((i % datasets as u64) as u32),
            issue_time: now,
            frame: FrameParams::default(),
        })
        .collect()
}

/// Everything the timed calls need from the run that just finished.
pub struct Lab<'a> {
    pub spec: &'a Spec,
    /// An unthrottled one-dataset store of the workload's shape.
    pub store: ChunkStore,
    /// The workload's catalog (all its datasets).
    pub catalog: Catalog,
    pub bricks: &'a [Arc<Brick<f32>>],
    /// Jobs the scheduler saw per invoked cycle during the window.
    pub jobs_per_cycle: usize,
}

/// Time every layer within `budget` overall.
pub fn measure(lab: Lab<'_>, budget: Duration) -> Vec<Row> {
    let Lab {
        spec,
        mut store,
        catalog,
        bricks,
        jobs_per_cycle,
    } = lab;
    let slice = |share: f64| budget.mul_f64(share);
    let mut rows: Vec<Row> = Vec::new();

    // render: one resident brick, cameras swept over the drag's azimuths.
    let mut azimuth = 0.0f32;
    let brick = [bricks[0].clone()];
    let brick_s = timed(
        slice(0.30),
        || {
            azimuth += 0.37;
            FrameParams {
                azimuth,
                ..canary_shot().frame
            }
        },
        |frame| {
            std::hint::black_box(render_layers(spec, &brick, frame));
        },
    );
    rows.push(("render.brick_ms", brick_s * 1e3, "ms"));

    // compositing: the workload's k layers (`composite` consumes them).
    let layers = render_layers(spec, bricks, canary_shot().frame);
    let composite_s = timed(
        slice(0.05),
        || layers.clone(),
        |input| {
            std::hint::black_box(composite(input, CompositeAlgo::Auto));
        },
    );
    rows.push(("composite.frame_ms", composite_s * 1e3, "ms"));

    // service.storage: one brick read, at disk speed and at the
    // workload's throttle.
    let chunk = ChunkId::new(DatasetId(0), 0);
    let bytes = store.chunk_bytes(chunk) as f64;
    let load = |store: &ChunkStore, budget| {
        timed(
            budget,
            || (),
            |()| {
                std::hint::black_box(store.load(chunk).expect("lab brick"));
            },
        )
    };
    let load_s = load(&store, slice(0.04));
    rows.push(("storage.load_ms", load_s * 1e3, "ms"));
    rows.push(("storage.load_mb_s", bytes / load_s / 1e6, "MB/s"));
    let throttled_s = if spec.throttle.is_some() {
        store.set_throttle(spec.throttle);
        load(&store, slice(0.12))
    } else {
        load_s
    };
    rows.push(("storage.load_throttled_ms", throttled_s * 1e3, "ms"));

    // core.sched: Algorithm 1 on the workload's per-cycle job count.
    let cluster = ClusterSpec::homogeneous(NODES, 256 << 20);
    let cost = CostParams::default();
    let mut scheduler = SchedulerKind::Ours.build(CYCLE);
    let mut tables = HeadTables::new(&cluster);
    let mut tick = 0u64;
    let schedule_s = timed(
        slice(0.04),
        || {
            tick += 1;
            let now = SimTime::from_micros(tick * CYCLE.as_micros());
            (now, jobs(tick << 20, jobs_per_cycle, spec.datasets, now))
        },
        |(now, incoming)| {
            let mut ctx = ScheduleCtx {
                now,
                tables: &mut tables,
                catalog: &catalog,
                cost: &cost,
            };
            std::hint::black_box(scheduler.schedule(&mut ctx, incoming));
        },
    );
    rows.push(("sched.schedule_us", schedule_s * 1e6, "us"));

    // runtime: admission, cycle and completion over a substrate that runs
    // nothing, under the workload's overload policy.
    let mut runtime = HeadRuntime::new(
        SchedulerKind::Ours.build(CYCLE),
        HeadTables::new(&cluster),
        catalog.clone(),
        cost,
        Arc::new(NoopProbe),
        "e2e-lab",
    );
    runtime.set_overload_policy(spec.overload);
    let mut sub = NullSubstrate::default();
    let (mut admit, mut cycle, mut done) = (Vec::new(), Vec::new(), Vec::new());
    let opened = Instant::now();
    let mut round = 0u64;
    while round < 5 || (opened.elapsed() < slice(0.05) && round < 2000) {
        round += 1;
        let now = SimTime::from_micros(round * CYCLE.as_micros());
        for job in jobs(round << 20, jobs_per_cycle, spec.datasets, now) {
            let t0 = Instant::now();
            std::hint::black_box(runtime.on_job_arrival(&mut sub, now, job));
            admit.push(t0.elapsed().as_secs_f64());
        }
        let t0 = Instant::now();
        std::hint::black_box(runtime.on_cycle(&mut sub, now));
        cycle.push(t0.elapsed().as_secs_f64());
        for a in sub.dispatched.drain(..) {
            let completion = Completion {
                node: a.node,
                job: a.task.job,
                task: a.task.index,
                chunk: a.task.chunk,
                started: now,
                finish: now + SimDuration::from_millis(1),
                io: SimDuration::ZERO,
                miss: false,
                evicted: Vec::new(),
                gpu_resident: false,
                gpu_evicted: Vec::new(),
            };
            let t0 = Instant::now();
            std::hint::black_box(runtime.on_task_done(completion.finish, completion));
            done.push(t0.elapsed().as_secs_f64());
        }
    }
    rows.push(("runtime.admit_us", stats::median(admit) * 1e6, "us"));
    rows.push(("runtime.cycle_us", stats::median(cycle) * 1e6, "us"));
    rows.push(("runtime.task_done_us", stats::median(done) * 1e6, "us"));

    // routing: the dataset → shard lookup every sharded arrival pays.
    let ring = HashRing::with_shards(spec.shards.max(1));
    let mut d = 0u32;
    let lookup_s = timed(
        slice(0.02),
        || (),
        |()| {
            // 64 lookups per timed call: one is below the clock's resolution.
            for _ in 0..64 {
                d = d.wrapping_add(1);
                std::hint::black_box(ring.shard_for_dataset(DatasetId(d % spec.datasets)));
            }
        },
    );
    rows.push(("routing.lookup_ns", lookup_s / 64.0 * 1e9, "ns"));

    // service.codec: a frame of the workload's size out and back in, and
    // a request out.
    let image = composite(layers, CompositeAlgo::Auto);
    let mut codec = Codec::new();
    let mut wire = Vec::new();
    let encode_s = timed(
        slice(0.03),
        || (),
        |()| {
            let frame = WireFrame::from_image(1, JobId(1), SimDuration::from_millis(1), 0, &image);
            let encoded =
                codec.encode(&WireMessage::Response(WireResponse::Frame(Box::new(frame))));
            wire = encoded.to_bytes().to_vec();
        },
    );
    rows.push(("codec.encode_frame_us", encode_s * 1e6, "us"));
    rows.push(("codec.frame_bytes", wire.len() as f64, "bytes"));
    let decode_s = timed(
        slice(0.03),
        || (),
        |()| {
            let decoded = codec.read(&mut Cursor::new(&wire)).expect("own encoding");
            std::hint::black_box(decoded);
        },
    );
    rows.push(("codec.decode_frame_us", decode_s * 1e6, "us"));
    let request = WireMessage::Request(canary_shot().to_wire(1));
    let request_s = timed(
        slice(0.02),
        || (),
        |()| {
            for _ in 0..16 {
                std::hint::black_box(codec.encode(&request));
            }
        },
    );
    rows.push(("codec.request_ns", request_s / 16.0 * 1e9, "ns"));

    rows.push(("tcp.echo_rtt_us", echo_rtt(&image, slice(0.06)) * 1e6, "us"));

    rows.push((
        "head.inproc_frame_ms",
        inproc_frame(spec, store, slice(0.20)) * 1e3,
        "ms",
    ));
    rows
}

/// Round trip through a real `TcpServer` whose "head" answers at once
/// with a prebuilt frame of the workload's size: the socket plane alone.
fn echo_rtt(image: &vizsched_render::RgbaImage, budget: Duration) -> f64 {
    let (tx, rx) = crossbeam::channel::unbounded::<RenderRequest>();
    let server = TcpServer::start_with("127.0.0.1:0", tx, 1).expect("bind loopback");
    let image = Arc::new(image.clone());
    let responder = std::thread::spawn(move || {
        while let Ok(req) = rx.recv() {
            let _ = req.reply.send(RenderReply {
                correlation: req.correlation,
                outcome: RenderOutcome::Frame(FrameResult {
                    job: JobId(req.correlation),
                    image: image.clone(),
                    latency: SimDuration::ZERO,
                    cache_misses: 0,
                }),
            });
        }
    });
    let mut stream = std::net::TcpStream::connect(server.addr()).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    let mut codec = Codec::new();
    let mut id = 0u64;
    let rtt = timed(
        budget,
        || (),
        |()| {
            id += 1;
            let request = WireMessage::Request(canary_shot().to_wire(id));
            codec.write(&mut stream, &request).expect("send");
            loop {
                match codec.read(&mut stream).expect("reply") {
                    Some(WireMessage::Response(resp)) if resp.request_id() == id => break,
                    Some(_) => {}
                    None => panic!("echo server closed the connection"),
                }
            }
        },
    );
    drop(stream);
    // Stopping the server drops its request sender, which ends the
    // responder's loop.
    server.stop();
    responder.join().expect("responder thread");
    rtt
}

/// One closed-loop stream through `ServiceClient`, no socket: the head,
/// the nodes and compositing without the TCP plane.
fn inproc_frame(spec: &Spec, store: ChunkStore, budget: Duration) -> f64 {
    let config = ServiceConfig::default()
        .nodes(NODES)
        .image_size(spec.image, spec.image)
        .cycle(CYCLE);
    let service = VizService::start(config, Arc::new(store));
    let client = ServiceClient::new(UserId(0), service.request_sender());
    let mut frame = canary_shot().frame;
    let mut render = |()| {
        frame.azimuth += 0.05;
        let reply = client.render_interactive(ActionId(0), DatasetId(0), frame);
        std::hint::black_box(reply.recv().expect("service reply").expect_frame());
    };
    // Residency first: the lab store may be throttled.
    for _ in 0..BRICKS {
        render(());
    }
    let per_frame = timed(budget, || (), render);
    drop(client);
    service.shutdown();
    per_frame
}
