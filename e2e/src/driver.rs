//! The rig (store + `VizService` + `TcpServer` + two client connections)
//! and the load generator that drives it: one thread, non-blocking
//! sockets under a `Poller`, every user multiplexed by `request_id`.

use std::collections::HashMap;
use std::io::{self, Write};
use std::net::TcpStream;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use polling::{Events, Interest, Poller, Token};
use vizsched_core::prelude::{ChunkId, DatasetId};
use vizsched_metrics::{CollectingProbe, Probe, TraceEvent};
use vizsched_service::{
    ChunkStore, Codec, ServiceConfig, ServiceStats, StoreDataset, TcpServer, VizService, WireFrame,
    WireMessage, WireResponse,
};
use vizsched_volume::Brick;

use crate::sys;
use crate::workload::{
    canary_shot, warmup_streams, ClosedStream, Planned, Shot, Spec, BRICKS, CONNS, CYCLE, NODES,
};

/// After the window closes, requests due inside it get this long to be
/// answered; what is still missing then is a failure.
const DRAIN: Duration = Duration::from_secs(1);
/// Bound on any wait that is not the measured window (warm-up, the canary,
/// flushing stragglers): past it the run is reported broken, not hung.
const PATIENCE: Duration = Duration::from_secs(30);

/// A `CollectingProbe` that also accounts the time spent inside itself,
/// so the traced run can report what looking cost.
#[derive(Default)]
pub struct TimingProbe {
    inner: CollectingProbe,
    nanos: AtomicU64,
}

impl TimingProbe {
    /// Drain the collected events and the time spent collecting them.
    pub fn take(&self) -> (Vec<TraceEvent>, Duration) {
        let nanos = self.nanos.swap(0, Ordering::Relaxed);
        (self.inner.take(), Duration::from_nanos(nanos))
    }
}

impl Probe for TimingProbe {
    fn on_event(&self, event: &TraceEvent) {
        let t0 = Instant::now();
        self.inner.on_event(event);
        self.nanos
            .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
    }
}

/// One delivered frame of the measured window, on the client's clock
/// (seconds since the window opened).
#[derive(Clone, Debug)]
pub struct Sample {
    pub request_id: u64,
    pub interactive: bool,
    /// The frame's action (`None` for batch frames).
    pub action: Option<u64>,
    /// First frame of its action.
    pub first: bool,
    /// When the request was due (open loop) or sent (closed loop).
    pub due: f64,
    pub sent: f64,
    /// When the reply was fully decoded.
    pub recv: f64,
    /// The job id the service assigned (joins the frame to its trace).
    pub job: u64,
    /// Latency the head observed (issue to last task finish).
    pub head_latency: f64,
}

impl Sample {
    /// Client-observed frame latency in seconds (Definition 3, from the
    /// due time so a stalled generator cannot flatter the service).
    pub fn latency(&self) -> f64 {
        self.recv - self.due
    }
}

/// Request accounting for one measured window.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Tally {
    /// Requests due (open loop) or sent (closed loop) inside the window.
    pub attempted: u64,
    pub delivered: u64,
    /// Answered `Overloaded` (refused at admission).
    pub refused: u64,
    /// Answered `Expired` (superseded or past its deadline).
    pub dropped: u64,
    /// Frames of the wrong size or pixel count.
    pub malformed: u64,
    /// Still unanswered after the drain.
    pub unanswered: u64,
    /// Replies to a `request_id` nobody is waiting for.
    pub stray: u64,
    /// Connections that died.
    pub conn_errors: u64,
}

struct Conn {
    stream: TcpStream,
    codec: Codec,
    alive: bool,
}

struct Pending {
    shot: Shot,
    due: Instant,
    sent: Instant,
    /// Index of the closed-loop stream waiting on this reply.
    stream: Option<usize>,
    measured: bool,
}

/// What one generator phase (warm-up or measured window) observed.
pub struct PhaseResult {
    pub samples: Vec<Sample>,
    /// How late each open-loop request left, in seconds after its due time.
    pub lateness: Vec<f64>,
    pub tally: Tally,
    /// Process CPU seconds from the phase opening to the end of its drain.
    pub cpu_secs: Option<f64>,
}

/// The load generator.
pub struct Generator {
    poller: Poller,
    conns: Vec<Conn>,
    encoder: Codec,
    events: Events,
    next_id: u64,
    pending: HashMap<u64, Pending>,
    /// Frame edge the workload asked for; anything else is malformed.
    image: u32,
    tally: Tally,
    /// Request whose frame is kept whole (the canary), and the frame.
    keep: Option<u64>,
    kept: Option<WireFrame>,
}

impl Generator {
    fn connect(addr: std::net::SocketAddr, image: u32) -> io::Result<Generator> {
        let poller = Poller::new()?;
        let mut conns = Vec::with_capacity(CONNS);
        for i in 0..CONNS {
            let stream = TcpStream::connect(addr)?;
            stream.set_nodelay(true)?;
            stream.set_nonblocking(true)?;
            poller.register(&stream, Token(i), Interest::READABLE)?;
            conns.push(Conn {
                stream,
                codec: Codec::new(),
                alive: true,
            });
        }
        Ok(Generator {
            poller,
            conns,
            encoder: Codec::new(),
            events: Events::with_capacity(64),
            next_id: 0,
            pending: HashMap::new(),
            image,
            tally: Tally::default(),
            keep: None,
            kept: None,
        })
    }

    fn send(&mut self, shot: Shot, due: Instant, stream: Option<usize>, measured: bool) -> u64 {
        self.next_id += 1;
        let id = self.next_id;
        let encoded = self.encoder.encode(&WireMessage::Request(shot.to_wire(id)));
        let conn = &mut self.conns[shot.user as usize % CONNS];
        if measured {
            self.tally.attempted += 1;
        }
        if conn.alive && write_all(&conn.stream, &encoded.head).is_err() {
            conn.alive = false;
            self.tally.conn_errors += 1;
        }
        // A request on a dead connection stays pending and is counted
        // unanswered when the window drains.
        self.pending.insert(
            id,
            Pending {
                shot,
                due,
                sent: Instant::now(),
                stream,
                measured,
            },
        );
        id
    }

    /// Wait up to `timeout` for readiness, then decode and account every
    /// reply that has arrived.
    fn pump(
        &mut self,
        timeout: Duration,
        opened: Instant,
        closed: &mut [ClosedStream],
        samples: &mut Vec<Sample>,
    ) {
        // epoll sleeps whole milliseconds; never ask for less than one, or
        // the generator would spin against the service for its two cores.
        let timeout = timeout.max(Duration::from_millis(1));
        self.poller
            .poll(&mut self.events, Some(timeout))
            .expect("poll client sockets");
        let ready: Vec<usize> = self.events.iter().map(|ev| ev.token().0).collect();
        for c in ready {
            while self.conns[c].alive {
                let conn = &mut self.conns[c];
                // `read` keeps a partial frame across calls and reports a
                // socket with nothing more to give as `WouldBlock`.
                let message = conn.codec.read(&mut &conn.stream);
                match message {
                    Ok(Some(WireMessage::Response(resp))) => {
                        let recv = Instant::now();
                        self.account(resp, recv, opened, closed, samples);
                    }
                    Ok(Some(WireMessage::Hello { .. })) => {}
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Ok(Some(WireMessage::Request(_))) | Ok(None) | Err(_) => {
                        conn.alive = false;
                        self.tally.conn_errors += 1;
                        self.poller.deregister(&conn.stream).ok();
                    }
                }
            }
        }
    }

    fn account(
        &mut self,
        resp: WireResponse,
        recv: Instant,
        opened: Instant,
        closed: &mut [ClosedStream],
        samples: &mut Vec<Sample>,
    ) {
        let id = resp.request_id();
        let Some(p) = self.pending.remove(&id) else {
            self.tally.stray += 1;
            return;
        };
        // A straggler flushed after its phase finds no stream to wake.
        if let Some(stream) = p.stream.and_then(|s| closed.get_mut(s)) {
            stream.answered(recv);
        }
        let frame = match resp {
            WireResponse::Frame(frame) => *frame,
            WireResponse::Overloaded { .. } => {
                self.tally.refused += u64::from(p.measured);
                return;
            }
            WireResponse::Expired { .. } => {
                self.tally.dropped += u64::from(p.measured);
                return;
            }
        };
        let well_formed = frame.width == self.image
            && frame.height == self.image
            && frame.pixels.len() == (self.image * self.image * 4) as usize;
        if p.measured {
            if well_formed {
                self.tally.delivered += 1;
                let since = |t: Instant| t.saturating_duration_since(opened).as_secs_f64();
                samples.push(Sample {
                    request_id: id,
                    interactive: p.shot.interactive(),
                    action: p.shot.action(),
                    first: p.shot.first,
                    due: since(p.due),
                    sent: since(p.sent),
                    recv: since(recv),
                    job: frame.job.0,
                    head_latency: frame.latency.as_secs_f64(),
                });
            } else {
                self.tally.malformed += 1;
            }
        }
        if self.keep == Some(id) {
            self.kept = Some(frame);
        }
    }

    /// Run one phase: send `plan` on schedule, keep every stream of
    /// `closed` one request deep, and account replies. With a `window` the
    /// phase measures (requests are tallied and sampled) and ends when the
    /// window closes and its drain is over; without one it ends when every
    /// (finite) stream is exhausted and answered.
    pub fn run(
        &mut self,
        plan: &[Planned],
        closed: &mut [ClosedStream],
        window: Option<Duration>,
    ) -> Result<PhaseResult, String> {
        let measured = window.is_some();
        self.tally = Tally::default();
        let mut samples = Vec::with_capacity(plan.len() + 1024);
        let mut lateness = Vec::with_capacity(plan.len());
        let cpu0 = sys::cpu_seconds();
        let opened = Instant::now();
        let close = window.map(|w| opened + w);
        let give_up = opened + window.unwrap_or_default() + PATIENCE;
        let mut next = 0usize;
        loop {
            let now = Instant::now();
            if close.is_some_and(|c| now >= c) {
                break;
            }
            while next < plan.len() && opened + plan[next].due <= now {
                let due = opened + plan[next].due;
                let id = self.send(plan[next].shot.clone(), due, None, measured);
                lateness.push(self.pending[&id].sent.duration_since(due).as_secs_f64());
                next += 1;
            }
            let mut idle = true;
            // Earliest moment a thinking stream wants to send again.
            let mut next_ready = give_up;
            for (i, stream) in closed.iter_mut().enumerate() {
                if stream.busy {
                    idle = false;
                } else if !stream.exhausted() {
                    idle = false;
                    if stream.ready_at <= now {
                        stream.busy = true;
                        let shot = stream.next_shot();
                        self.send(shot, Instant::now(), Some(i), measured);
                    } else {
                        next_ready = next_ready.min(stream.ready_at);
                    }
                }
            }
            if close.is_none() && idle && next >= plan.len() {
                break;
            }
            if now >= give_up {
                return Err(format!(
                    "{} requests unanswered after {PATIENCE:?}",
                    self.pending.len()
                ));
            }
            let wake = plan
                .get(next)
                .map_or(give_up, |p| opened + p.due)
                .min(next_ready)
                .min(close.unwrap_or(give_up));
            let timeout = wake.saturating_duration_since(Instant::now());
            self.pump(
                timeout.min(Duration::from_millis(50)),
                opened,
                closed,
                &mut samples,
            );
        }
        // Drain: what was due inside the window may still be answered.
        let deadline = Instant::now() + DRAIN;
        while self.pending.values().any(|p| p.measured) {
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                break;
            }
            self.pump(left, opened, closed, &mut samples);
        }
        let cpu_secs = cpu0.zip(sys::cpu_seconds()).map(|(a, b)| b - a);
        self.tally.unanswered = self.pending.values().filter(|p| p.measured).count() as u64;
        for p in self.pending.values_mut() {
            p.measured = false;
        }
        Ok(PhaseResult {
            samples,
            lateness,
            tally: self.tally,
            cpu_secs,
        })
    }

    /// Let whatever is still in flight land (unmeasured), so the next
    /// phase starts on an empty service.
    fn flush(&mut self) -> Result<(), String> {
        let deadline = Instant::now() + PATIENCE;
        let opened = Instant::now();
        while !self.pending.is_empty() && self.conns.iter().any(|c| c.alive) {
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return Err(format!("{} requests never answered", self.pending.len()));
            }
            self.pump(left, opened, &mut [], &mut Vec::new());
        }
        Ok(())
    }

    /// Send the canary request and return its frame.
    fn canary(&mut self) -> Result<WireFrame, String> {
        self.flush()?;
        let id = self.send(canary_shot(), Instant::now(), None, false);
        self.keep = Some(id);
        self.flush()?;
        self.keep = None;
        self.kept
            .take()
            .ok_or_else(|| "the canary request was not answered with a frame".to_string())
    }
}

/// Write a whole buffer to a non-blocking socket. Requests are ~60 bytes,
/// so `WouldBlock` is a rare momentary condition worth yielding through
/// rather than keeping a client-side outbox for.
fn write_all(stream: &TcpStream, mut buf: &[u8]) -> io::Result<()> {
    let mut w = stream;
    while !buf.is_empty() {
        match w.write(buf) {
            Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
            Ok(n) => buf = &buf[n..],
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => std::thread::yield_now(),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// Materialise `datasets` datasets of `spec`'s shape under `dir`.
pub fn create_store(spec: &Spec, dir: &Path, datasets: u32) -> io::Result<ChunkStore> {
    let described: Vec<StoreDataset> = (0..datasets)
        .map(|d| StoreDataset {
            field: spec.field(d),
            dims: [spec.edge; 3],
            bricks: BRICKS,
        })
        .collect();
    ChunkStore::create(dir, &described)
}

/// Load dataset 0's bricks (call before throttling the store).
pub fn load_dataset0(store: &ChunkStore) -> io::Result<Vec<Arc<Brick<f32>>>> {
    (0..BRICKS as u32)
        .map(|c| store.load(ChunkId::new(DatasetId(0), c)).map(|(b, _)| b))
        .collect()
}

/// A live service behind a live TCP front, with the generator connected
/// and the warm-up work done.
pub struct Rig {
    pub store: Arc<ChunkStore>,
    /// Dataset 0's bricks, for the canary's in-process reference render.
    pub canary_bricks: Vec<Arc<Brick<f32>>>,
    pub probe: Option<Arc<TimingProbe>>,
    pub generator: Generator,
    service: VizService,
    server: TcpServer,
}

impl Rig {
    /// Everything between process start and the first measured request:
    /// volume synthesis, brick writes, service and server start, connects,
    /// warm-up work.
    pub fn build(spec: &Spec, seed: u64, traced: bool, dir: &Path) -> Result<Rig, String> {
        let io_err = |what: &str, e: io::Error| format!("{what}: {e}");
        let mut store =
            create_store(spec, dir, spec.datasets).map_err(|e| io_err("create chunk store", e))?;
        let canary_bricks = load_dataset0(&store).map_err(|e| io_err("load canary bricks", e))?;
        store.set_throttle(spec.throttle);
        let store = Arc::new(store);

        let brick_bytes = (0..BRICKS as u32)
            .map(|c| store.chunk_bytes(ChunkId::new(DatasetId(0), c)))
            .max()
            .expect("datasets have bricks");
        let probe = traced.then(|| Arc::new(TimingProbe::default()));
        let mut config = ServiceConfig::default()
            .nodes(NODES)
            .image_size(spec.image, spec.image)
            .cycle(CYCLE)
            .overload(spec.overload)
            .shards(spec.shards);
        if let Some(bricks) = spec.quota_bricks {
            config = config.mem_quota(bricks * brick_bytes);
        }
        if let Some(probe) = &probe {
            config = config.probe(probe.clone());
        }
        let service = VizService::start(config, store.clone());
        let server = TcpServer::start_with("127.0.0.1:0", service.request_sender(), CONNS)
            .map_err(|e| io_err("bind loopback", e))?;
        let generator = Generator::connect(server.addr(), spec.image as u32)
            .map_err(|e| io_err("connect", e))?;
        let mut rig = Rig {
            store,
            canary_bricks,
            probe,
            generator,
            service,
            server,
        };
        rig.generator
            .run(&[], &mut warmup_streams(spec, seed), None)
            .map_err(|e| format!("warm-up: {e}"))?;
        Ok(rig)
    }

    /// Fetch the canary frame through the whole pipeline.
    pub fn canary(&mut self) -> Result<WireFrame, String> {
        self.generator.canary()
    }

    /// Close the connections, stop the front and the service, and hand
    /// back the service's own counters.
    pub fn teardown(self) -> ServiceStats {
        drop(self.generator);
        self.server.stop();
        self.service.shutdown()
    }
}
