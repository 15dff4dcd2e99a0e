//! Connection-scaling benchmark of the live TCP service plane, with a
//! machine-readable baseline for CI regression gating.
//!
//! Sweeps a {16, 128, 1024} connections × {1, 10, 30} fps grid against the
//! event-driven plane ([`TcpServer::start_with`]) and reports p50/p99 frame
//! latency and sustained throughput per cell.
//! The head behind the socket is a synthetic responder that answers every
//! request with a prebuilt 16×16 frame, so the numbers isolate the service
//! plane itself — framing, socket I/O, buffer pooling, reply routing — not
//! the renderer or the scheduler (those have their own benches).
//!
//! ```text
//! cargo run --release -p vizsched-bench --bin service_scaling                 # print table
//! cargo run --release -p vizsched-bench --bin service_scaling -- --json BENCH_service.json
//! cargo run --release -p vizsched-bench --bin service_scaling -- \
//!     --check BENCH_service.json --json bench-fresh.json --quick             # CI gate
//! ```
//!
//! Load model: a paced **closed loop**. Every connection issues requests at
//! the cell's target cadence but keeps at most one in flight, so an
//! overloaded plane degrades into measured latency instead of an unbounded
//! client-side queue (which would make p99 a function of run length, not of
//! the plane). Throughput is the measured reply rate; `offered_rps` records
//! the cadence the clients were trying to hit.
//!
//! `--check <path>` gates the largest grid point {1024 conns, 30 fps}: the
//! run **fails** (exit 1) if its fresh p99 regresses more than 25 % over
//! the committed baseline. The gate is absolute microseconds: the plane
//! has no second implementation to take a ratio against. Every run, with
//! or without `--check`, also fails if the plane no longer sustains the
//! full 1024-connection grid point (a dead connection, or under 99 % of
//! connections served).

use std::io::{self, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use polling::{Events, Interest, Poller, Token};
use vizsched_bench::harness::{summary, Cli, Gate};
use vizsched_core::ids::{ActionId, DatasetId, JobId, UserId};
use vizsched_core::job::{FrameParams, JobKind};
use vizsched_core::time::SimDuration;
use vizsched_metrics::json::{obj, Json};
use vizsched_render::RgbaImage;
use vizsched_service::codec::TryRead;
use vizsched_service::{
    Codec, FrameResult, RenderOutcome, RenderReply, RenderRequest, TcpServer, WireMessage,
    WireRequest,
};

const CONNS: [usize; 3] = [16, 128, 1024];
const FPS: [u32; 3] = [1, 10, 30];
/// The mid-grid cell `--quick` runs beside the gated largest point.
const BASELINE_CELL: (usize, u32) = (128, 10);
/// The `plane` column/field of every cell (the report schema predates the
/// removal of the thread-per-connection plane).
const PLANE: &str = "evented";
/// Synthetic responder threads draining the admission channel.
const RESPONDERS: usize = 2;
/// Edge length of the prebuilt reply frame (16×16 RGBA8 = 1 KiB payload).
const FRAME_DIM: usize = 16;
/// Fail `--check` when the largest-point p99 exceeds this multiple of
/// the committed baseline (a >25 % regression).
const TOLERANCE: f64 = 1.25;
/// A cell sustains its grid point when no connection died and at least
/// this fraction of connections completed a frame.
const SUSTAIN_FRACTION: f64 = 0.99;

struct Cell {
    conns: usize,
    fps: u32,
    samples: usize,
    p50_us: f64,
    p99_us: f64,
    throughput_rps: f64,
    offered_rps: f64,
    conns_served: usize,
    dead_conns: usize,
}

impl Cell {
    fn sustained(&self) -> bool {
        self.dead_conns == 0
            && self.samples > 0
            && self.conns_served as f64 >= SUSTAIN_FRACTION * self.conns as f64
    }
}

/// One client connection driven by the bench's own poller loop.
struct Conn {
    stream: TcpStream,
    codec: Codec,
    next_send: Instant,
    sent_at: Instant,
    in_flight: bool,
    alive: bool,
    seq: u64,
    received: u64,
}

/// Answer every admission-channel request with a clone of one prebuilt
/// frame — the cheapest head the plane can sit in front of.
fn spawn_responders(
    rx: crossbeam::channel::Receiver<RenderRequest>,
) -> Vec<std::thread::JoinHandle<()>> {
    let image = Arc::new(RgbaImage::transparent(FRAME_DIM, FRAME_DIM));
    (0..RESPONDERS)
        .map(|_| {
            let rx = rx.clone();
            let image = image.clone();
            std::thread::spawn(move || {
                let mut served = 0u64;
                while let Ok(req) = rx.recv() {
                    served += 1;
                    let reply = RenderReply {
                        correlation: req.correlation,
                        outcome: RenderOutcome::Frame(FrameResult {
                            job: JobId(served),
                            image: image.clone(),
                            latency: SimDuration::from_millis(1),
                            cache_misses: 0,
                        }),
                    };
                    let _ = req.reply.send(reply);
                }
            })
        })
        .collect()
}

fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[idx]
}

fn run_cell(conns: usize, fps: u32, warmup: Duration, measure: Duration) -> Cell {
    let (tx, rx) = crossbeam::channel::unbounded::<RenderRequest>();
    let server = TcpServer::start_with("127.0.0.1:0", tx, conns).expect("bind");
    let responders = spawn_responders(rx);
    let addr = server.addr();

    let poller = Poller::new().expect("poller");
    let mut clients: Vec<Conn> = (0..conns)
        .map(|i| {
            let stream = TcpStream::connect(addr).expect("connect");
            stream.set_nodelay(true).ok();
            stream.set_nonblocking(true).expect("nonblocking");
            poller
                .register(&stream, Token(i), Interest::READABLE)
                .expect("register");
            Conn {
                stream,
                codec: Codec::new(),
                next_send: Instant::now(),
                sent_at: Instant::now(),
                in_flight: false,
                alive: true,
                seq: 0,
                received: 0,
            }
        })
        .collect();

    let period = Duration::from_secs_f64(1.0 / fps as f64);
    let start = Instant::now();
    let measure_start = start + warmup;
    let end = measure_start + measure;
    // Stagger first sends uniformly over one period so 1024 connections
    // don't open the cell with a synchronized burst no real fleet produces.
    for (i, c) in clients.iter_mut().enumerate() {
        c.next_send = start + period.mul_f64(i as f64 / conns as f64);
    }

    let mut encoder = Codec::new();
    let mut latencies_us: Vec<f64> = Vec::with_capacity(1 << 16);
    let mut events = Events::with_capacity(1024);
    let mut dead = 0usize;

    loop {
        let now = Instant::now();
        if now >= end {
            break;
        }

        // Issue every due request (closed loop: skip conns with one in
        // flight — they reschedule when the reply lands).
        for (i, c) in clients.iter_mut().enumerate() {
            if !c.alive || c.in_flight || c.next_send > now {
                continue;
            }
            c.seq += 1;
            let req = WireRequest {
                request_id: c.seq,
                user: UserId(i as u32),
                kind: JobKind::Interactive {
                    user: UserId(i as u32),
                    action: ActionId(i as u64),
                },
                dataset: DatasetId(0),
                frame: FrameParams {
                    azimuth: (c.seq % 628) as f32 * 0.01,
                    ..FrameParams::default()
                },
            };
            let encoded = encoder.encode(&WireMessage::Request(req));
            match write_all(&c.stream, &encoded.head) {
                Ok(()) => {
                    c.in_flight = true;
                    c.sent_at = now;
                }
                Err(_) => {
                    c.alive = false;
                    dead += 1;
                    poller.deregister(&c.stream).ok();
                }
            }
        }

        let next_due = clients
            .iter()
            .filter(|c| c.alive && !c.in_flight)
            .map(|c| c.next_send)
            .min()
            .unwrap_or(end)
            .min(end);
        let timeout = next_due.saturating_duration_since(Instant::now());
        poller.poll(&mut events, Some(timeout)).expect("poll");

        let now = Instant::now();
        for ev in events.iter() {
            let idx = ev.token().0;
            let c = &mut clients[idx];
            if !c.alive {
                continue;
            }
            loop {
                let mut reader = &c.stream;
                match c.codec.try_read(&mut reader) {
                    Ok(TryRead::Message(WireMessage::Response(resp))) => {
                        debug_assert_eq!(resp.request_id(), c.seq);
                        c.in_flight = false;
                        c.received += 1;
                        if now >= measure_start && c.sent_at >= measure_start {
                            latencies_us.push(now.duration_since(c.sent_at).as_secs_f64() * 1e6);
                        }
                        // Pace the next frame off the schedule, not the
                        // reply: a slow reply costs its tick, it does not
                        // compress the following interval.
                        c.next_send = (c.next_send + period).max(now);
                    }
                    // The epoch greeting the plane sends on accept; the
                    // bench never reconnects, so it has no use for it.
                    Ok(TryRead::Message(WireMessage::Hello { .. })) => {}
                    Ok(TryRead::Message(WireMessage::Request(_))) => {}
                    Ok(TryRead::Pending) => break,
                    Ok(TryRead::Closed) | Err(_) => {
                        c.alive = false;
                        dead += 1;
                        poller.deregister(&c.stream).ok();
                        break;
                    }
                }
            }
        }
    }

    let conns_served = clients.iter().filter(|c| c.received > 0).count();
    drop(clients);
    server.stop();
    for handle in responders {
        handle.join().expect("responder");
    }

    latencies_us.sort_unstable_by(|a, b| a.partial_cmp(b).expect("finite latency"));
    Cell {
        conns,
        fps,
        samples: latencies_us.len(),
        p50_us: percentile(&latencies_us, 0.50),
        p99_us: percentile(&latencies_us, 0.99),
        throughput_rps: latencies_us.len() as f64 / measure.as_secs_f64(),
        offered_rps: conns as f64 * fps as f64,
        conns_served,
        dead_conns: dead,
    }
}

/// Write a whole buffer to a non-blocking socket; requests are tiny
/// (~60 B), so `WouldBlock` is a rare momentary condition worth spinning
/// through rather than plumbing a client-side outbox for.
fn write_all(stream: &TcpStream, mut buf: &[u8]) -> io::Result<()> {
    let mut w = stream;
    while !buf.is_empty() {
        match w.write(buf) {
            Ok(0) => return Err(io::Error::from(io::ErrorKind::WriteZero)),
            Ok(n) => buf = &buf[n..],
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => std::thread::yield_now(),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

fn run_grid(quick: bool, warmup: Duration, measure: Duration) -> Vec<Cell> {
    let grid: Vec<(usize, u32)> = if quick {
        vec![BASELINE_CELL, (1024, 30)]
    } else {
        CONNS
            .iter()
            .flat_map(|&c| FPS.iter().map(move |&f| (c, f)))
            .collect()
    };

    grid.into_iter()
        .map(|(conns, fps)| {
            let cell = run_cell(conns, fps, warmup, measure);
            eprintln!(
                "  {PLANE:>8} conns={conns:>4} fps={fps:>2}: p50 {:>9.1} us  p99 {:>9.1} us  \
                 {:>8.1}/{:<8.1} rps  served {}/{}",
                cell.p50_us,
                cell.p99_us,
                cell.throughput_rps,
                cell.offered_rps,
                cell.conns_served,
                conns,
            );
            cell
        })
        .collect()
}

fn find(cells: &[Cell], (conns, fps): (usize, u32)) -> &Cell {
    cells
        .iter()
        .find(|c| c.conns == conns && c.fps == fps)
        .unwrap_or_else(|| panic!("missing cell {conns}x{fps}"))
}

/// The largest grid point present (max conns, then max fps).
fn largest(cells: &[Cell]) -> &Cell {
    cells
        .iter()
        .max_by_key(|c| (c.conns, c.fps))
        .expect("at least one cell")
}

fn to_json(cells: &[Cell], warmup: Duration, measure: Duration) -> Json {
    let big = largest(cells);
    let evented = find(cells, BASELINE_CELL);
    obj([
        (
            "schema",
            Json::Str("vizsched-bench/service_scaling/v1".into()),
        ),
        (
            "config",
            obj([
                ("warmup_secs", Json::num(warmup.as_secs_f64())),
                ("measure_secs", Json::num(measure.as_secs_f64())),
                ("frame_dim", Json::num(FRAME_DIM as f64)),
                ("responders", Json::num(RESPONDERS as f64)),
                ("sustain_fraction", Json::num(SUSTAIN_FRACTION)),
            ]),
        ),
        (
            "cells",
            Json::Arr(
                cells
                    .iter()
                    .map(|c| {
                        obj([
                            ("plane", Json::Str(PLANE.into())),
                            ("conns", Json::num(c.conns as f64)),
                            ("fps", Json::num(c.fps as f64)),
                            ("samples", Json::num(c.samples as f64)),
                            ("p50_us", Json::num(c.p50_us)),
                            ("p99_us", Json::num(c.p99_us)),
                            ("throughput_rps", Json::num(c.throughput_rps)),
                            ("offered_rps", Json::num(c.offered_rps)),
                            ("conns_served", Json::num(c.conns_served as f64)),
                            ("dead_conns", Json::num(c.dead_conns as f64)),
                            ("sustained", Json::Bool(c.sustained())),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "summary",
            obj([
                ("largest_conns", Json::num(big.conns as f64)),
                ("largest_fps", Json::num(big.fps as f64)),
                ("p99_largest_us", Json::num(big.p99_us)),
                ("sustained_largest", Json::Bool(big.sustained())),
                ("evented_p99_baseline_us", Json::num(evented.p99_us)),
            ]),
        ),
    ])
}

fn print_table(cells: &[Cell]) {
    println!("== service_scaling: live plane latency under a paced closed loop ==\n");
    println!(
        "{:>8} {:>6} {:>4} {:>8} {:>11} {:>11} {:>10} {:>10} {:>9}",
        "plane", "conns", "fps", "samples", "p50 us", "p99 us", "rps", "offered", "sustained"
    );
    for c in cells {
        println!(
            "{PLANE:>8} {:>6} {:>4} {:>8} {:>11.1} {:>11.1} {:>10.1} {:>10.1} {:>9}",
            c.conns,
            c.fps,
            c.samples,
            c.p50_us,
            c.p99_us,
            c.throughput_rps,
            c.offered_rps,
            if c.sustained() { "yes" } else { "NO" },
        );
    }
}

fn main() {
    let cli = Cli::parse(&[
        "--quick",
        "--measure-secs <secs>",
        "--json <path>",
        "--check <path>",
    ]);
    let quick = cli.quick();
    let measure =
        Duration::from_secs_f64(cli.number("--measure-secs", if quick { 2.0 } else { 4.0 }));
    let warmup = Duration::from_secs_f64(if quick { 0.5 } else { 1.0 });

    eprintln!(
        "service_scaling: {} grid, warmup {:.1}s + measure {:.1}s per cell",
        if quick { "quick" } else { "full" },
        warmup.as_secs_f64(),
        measure.as_secs_f64()
    );
    let cells = run_grid(quick, warmup, measure);
    print_table(&cells);
    let doc = to_json(&cells, warmup, measure);
    cli.write_json(&doc);

    cli.check(
        &doc,
        &[
            Gate::ceiling(
                "largest-point p99 us",
                summary("p99_largest_us"),
                TOLERANCE,
                0.0,
            ),
            // Absolute: the largest grid point must still be sustained.
            Gate::floor(
                "largest grid point sustained",
                summary("sustained_largest"),
                0.0,
                1.0,
            ),
        ],
        "service_scaling: p99 regression or the largest grid point no longer sustained",
    );
}
