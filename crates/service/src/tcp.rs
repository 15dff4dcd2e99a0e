//! Remote access over TCP: a thin network front on the visualization
//! service, plus the matching client. This is the paper's deployment shape
//! — users at workstations, the rendering cluster elsewhere — with the
//! wire protocol of [`crate::wire`] framed by [`crate::codec::Codec`].
//!
//! ## Server
//!
//! [`TcpServer::start`] runs an **event-driven** service plane: one thread,
//! a readiness poller (`polling` — epoll on Linux), and non-blocking
//! sockets. Each connection owns a [`Codec`] whose pooled buffers are
//! reused frame-to-frame, requests from many users multiplex over one
//! connection (correlated by client-chosen request ids), and responses are
//! queued per-connection and written with vectored I/O as the socket
//! drains. It is the only server plane.
//!
//! Overload behavior: requests enter the service's bounded admission
//! queue with a non-blocking send; when the queue is full the request is
//! answered with [`WireResponse::Overloaded`] right at the boundary
//! instead of stalling the socket. Requests shed further in — by the
//! head's in-flight caps, stale-frame coalescing, or deadline expiry —
//! come back as `Overloaded` or [`WireResponse::Expired`]. There is one
//! more shedding point: a connection whose client stops reading
//! accumulates queued responses, and past [`MAX_OUTBOX_BYTES`] the
//! connection is closed rather than letting a slow consumer grow server
//! memory without bound.
//!
//! ## Client
//!
//! [`RemoteClient`] connects with builder-style [`ClientOptions`] —
//! retries on `Overloaded` and resubmission after a head's restart —
//! mirroring the `ServiceConfig` idiom. The blocking
//! entry point is [`RemoteClient::render_interactive_blocking`]; the
//! channel-returning [`RemoteClient::render_interactive`] remains for
//! pipelined use. Dropping (or [`RemoteClient::close`]-ing) the client
//! shuts the socket down and joins the reader thread; callers blocked on a
//! response observe a connection error instead of hanging.

use crate::codec::Codec;
use crate::protocol::{RenderOutcome, RenderReply, RenderRequest};
use crate::wire::{WireFrame, WireMessage, WireRequest, WireResponse};
use bytes::Bytes;
use crossbeam::channel::{unbounded, Receiver, Sender, TrySendError};
use polling::{Events, Interest, Poller, Token, Waker};
use std::collections::{HashMap, VecDeque};
use std::io::{self, IoSlice, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use vizsched_core::ids::{ActionId, BatchId, DatasetId, UserId};
use vizsched_core::job::{FrameParams, JobKind};
use vizsched_metrics::RejectReason;

/// Default cap on concurrent connections for [`TcpServer::start`]. The
/// event loop spends a few kilobytes per idle connection, not OS threads,
/// so the default is sized for the paper's "many simultaneous users"
/// regime.
pub const DEFAULT_MAX_CONNECTIONS: usize = 1024;

/// Per-connection bound on queued-but-unwritten response bytes. A client
/// that stops reading while frames keep completing would otherwise grow
/// the server's send queue without limit; past this the connection is
/// closed (slow-consumer shedding).
pub const MAX_OUTBOX_BYTES: usize = 16 * 1024 * 1024;

/// The process-wide service incarnation counter behind
/// [`WireMessage::Hello`]. Bumped on every `VizService::start`, so a head
/// that died and respawned greets reconnecting clients with a larger
/// epoch — the signal that makes a mid-frame resubmit safe (the old
/// incarnation, and any request it was holding, is gone).
static SERVICE_EPOCH: AtomicU64 = AtomicU64::new(0);

/// Advance to a fresh service incarnation (called by `VizService::start`).
pub(crate) fn bump_service_epoch() -> u64 {
    SERVICE_EPOCH.fetch_add(1, Ordering::Relaxed) + 1
}

/// The current incarnation, as captured by a starting server. Never zero —
/// clients use zero for "no hello seen yet".
pub(crate) fn service_epoch() -> u64 {
    SERVICE_EPOCH.load(Ordering::Relaxed).max(1)
}

const TOKEN_LISTENER: Token = Token(0);
const TOKEN_WAKER: Token = Token(1);
/// Connection slot `s` registers under `Token(s + TOKEN_BASE)`.
const TOKEN_BASE: usize = 2;

/// Segments handed to one `write_vectored` call.
const MAX_IOV: usize = 8;

/// Lock `m`, recovering the guard if a holder panicked: the values behind
/// these locks change in single steps, and a frame a panic left
/// half-written on the socket reads to the peer as a broken connection.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A TCP front on a running service.
pub struct TcpServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    /// Wakes the poller so `stop` is seen promptly.
    waker: Arc<Waker>,
    thread: Option<JoinHandle<()>>,
}

impl TcpServer {
    /// Bind `addr` (use port 0 for an ephemeral port) and serve requests
    /// into the given service endpoint with the event-driven plane,
    /// allowing up to [`DEFAULT_MAX_CONNECTIONS`] concurrent connections.
    pub fn start(addr: &str, requests: Sender<RenderRequest>) -> io::Result<TcpServer> {
        TcpServer::start_with(addr, requests, DEFAULT_MAX_CONNECTIONS)
    }

    /// [`TcpServer::start`] with an explicit cap on concurrent
    /// connections. Connections beyond the cap are closed as soon as they
    /// are accepted — the client sees an immediate EOF and can retry.
    pub fn start_with(
        addr: &str,
        requests: Sender<RenderRequest>,
        max_connections: usize,
    ) -> io::Result<TcpServer> {
        assert!(max_connections > 0, "connection cap must be nonzero");
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let local = listener.local_addr()?;
        let poller = Poller::new()?;
        poller.register(&listener, TOKEN_LISTENER, Interest::READABLE)?;
        let waker = Arc::new(poller.waker(TOKEN_WAKER)?);
        let stop = Arc::new(AtomicBool::new(false));

        // Every request carries one shared reply sender; the forwarder
        // moves completed replies into the event loop's inbox and nudges
        // the poller. Enqueue-then-wake (producer) and clear-then-drain
        // (consumer) make lost wakeups impossible.
        let (reply_tx, reply_rx) = unbounded::<RenderReply>();
        let inbox: Arc<Mutex<Vec<RenderReply>>> = Arc::new(Mutex::new(Vec::new()));
        {
            let inbox = inbox.clone();
            let waker = waker.clone();
            std::thread::spawn(move || {
                while let Ok(reply) = reply_rx.recv() {
                    lock(&inbox).push(reply);
                    let _ = waker.wake();
                }
            });
        }

        let event_loop = EventLoop {
            poller,
            listener,
            requests,
            reply_tx,
            inbox,
            waker: waker.clone(),
            stop: stop.clone(),
            conns: Vec::new(),
            free: Vec::new(),
            active: 0,
            routes: HashMap::new(),
            next_internal: 1,
            next_gen: 1,
            max_connections,
            // Captured once: this server front speaks for one service
            // incarnation for its whole lifetime.
            epoch: service_epoch(),
        };
        let thread = std::thread::spawn(move || event_loop.run());
        Ok(TcpServer {
            addr: local,
            stop,
            waker,
            thread: Some(thread),
        })
    }

    /// The bound address (for clients).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop serving. Existing connections are dropped.
    pub fn stop(mut self) {
        self.stop.store(true, Ordering::Relaxed);
        let _ = self.waker.wake();
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

/// Translate a service-side outcome into its wire response.
fn to_wire_response(request_id: u64, outcome: RenderOutcome) -> WireResponse {
    match outcome {
        RenderOutcome::Frame(result) => WireResponse::Frame(Box::new(WireFrame::from_image(
            request_id,
            result.job,
            result.latency,
            result.cache_misses,
            &result.image,
        ))),
        RenderOutcome::Rejected(reason) => WireResponse::Overloaded { request_id, reason },
        RenderOutcome::Dropped(reason) => WireResponse::Expired { request_id, reason },
    }
}

// ---------------------------------------------------------------------------
// Server event loop
// ---------------------------------------------------------------------------

/// One queued write: an encoded segment and how much of it has gone out.
struct Segment {
    bytes: Bytes,
    offset: usize,
}

/// Per-connection state: the non-blocking socket, its codec (pooled read
/// and write buffers), and the pending-write queue.
struct Conn {
    stream: TcpStream,
    codec: Codec,
    outbox: VecDeque<Segment>,
    outbox_bytes: usize,
    /// Whether the current registration includes `WRITABLE`.
    writing: bool,
    /// Distinguishes this connection from an earlier one that used the
    /// same slot, so late replies for a closed connection are dropped.
    gen: u64,
}

impl Conn {
    /// Write queued segments until drained (`Ok(true)`) or the socket
    /// stops accepting bytes (`Ok(false)`), using vectored I/O so a frame
    /// header and its pixels go out in one syscall.
    fn flush_outbox(&mut self) -> io::Result<bool> {
        while !self.outbox.is_empty() {
            let wrote = {
                let slices: Vec<IoSlice<'_>> = self
                    .outbox
                    .iter()
                    .take(MAX_IOV)
                    .map(|seg| IoSlice::new(&seg.bytes[seg.offset..]))
                    .collect();
                (&self.stream).write_vectored(&slices)
            };
            match wrote {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(mut n) => {
                    self.outbox_bytes -= n;
                    while n > 0 {
                        let seg = self.outbox.front_mut().expect("bytes written to a segment");
                        let left = seg.bytes.len() - seg.offset;
                        if n >= left {
                            n -= left;
                            self.outbox.pop_front();
                        } else {
                            seg.offset += n;
                            n = 0;
                        }
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(false),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
        Ok(true)
    }
}

/// Where a reply for an in-flight request should be written. The head
/// echoes our internal correlation id; this maps it back to the
/// connection (slot + generation) and the client's own request id.
struct Route {
    slot: usize,
    gen: u64,
    client_id: u64,
}

/// The single-threaded event loop driving every connection.
struct EventLoop {
    poller: Poller,
    listener: TcpListener,
    requests: Sender<RenderRequest>,
    reply_tx: Sender<RenderReply>,
    inbox: Arc<Mutex<Vec<RenderReply>>>,
    waker: Arc<Waker>,
    stop: Arc<AtomicBool>,
    conns: Vec<Option<Conn>>,
    free: Vec<usize>,
    active: usize,
    routes: HashMap<u64, Route>,
    next_internal: u64,
    next_gen: u64,
    max_connections: usize,
    /// The service incarnation announced to every accepted connection.
    epoch: u64,
}

impl EventLoop {
    fn run(mut self) {
        let mut events = Events::with_capacity(1024);
        loop {
            if self.stop.load(Ordering::Relaxed) {
                return;
            }
            if self.poller.poll(&mut events, None).is_err() {
                return; // poller broken: nothing can make progress
            }
            for event in &events {
                match event.token() {
                    TOKEN_WAKER => {
                        // clear() before draining, pairing with the
                        // forwarder's enqueue-before-wake.
                        self.waker.clear();
                        if self.stop.load(Ordering::Relaxed) {
                            return;
                        }
                        let batch = std::mem::take(&mut *lock(&self.inbox));
                        for reply in batch {
                            self.deliver(reply);
                        }
                    }
                    TOKEN_LISTENER => self.accept_ready(),
                    Token(raw) => {
                        let slot = raw - TOKEN_BASE;
                        if event.is_readable() {
                            self.read_ready(slot);
                        }
                        if event.is_writable() {
                            self.write_ready(slot);
                        }
                    }
                }
            }
        }
    }

    fn accept_ready(&mut self) {
        loop {
            let stream = match self.listener.accept() {
                Ok((stream, _peer)) => stream,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => return,
            };
            if self.active >= self.max_connections {
                drop(stream); // over the cap: shed the connection
                continue;
            }
            if stream.set_nonblocking(true).is_err() {
                continue;
            }
            stream.set_nodelay(true).ok();
            let slot = self.free.pop().unwrap_or_else(|| {
                self.conns.push(None);
                self.conns.len() - 1
            });
            if self
                .poller
                .register(&stream, Token(slot + TOKEN_BASE), Interest::READABLE)
                .is_err()
            {
                self.free.push(slot);
                continue;
            }
            let gen = self.next_gen;
            self.next_gen += 1;
            self.conns[slot] = Some(Conn {
                stream,
                codec: Codec::new(),
                outbox: VecDeque::new(),
                outbox_bytes: 0,
                writing: false,
                gen,
            });
            self.active += 1;
            // Greet with this head's incarnation before any response.
            self.send_message(slot, &WireMessage::Hello { epoch: self.epoch });
        }
    }

    fn read_ready(&mut self, slot: usize) {
        loop {
            let step = {
                let Some(conn) = self.conns.get_mut(slot).and_then(Option::as_mut) else {
                    return;
                };
                let mut reader = &conn.stream;
                conn.codec.try_read(&mut reader)
            };
            match step {
                Ok(crate::codec::TryRead::Message(WireMessage::Request(req))) => {
                    self.submit(slot, req)
                }
                Ok(crate::codec::TryRead::Message(WireMessage::Response(_)))
                | Ok(crate::codec::TryRead::Message(WireMessage::Hello { .. }))
                | Ok(crate::codec::TryRead::Closed)
                | Err(_) => {
                    self.close(slot);
                    return;
                }
                Ok(crate::codec::TryRead::Pending) => return,
            }
        }
    }

    fn write_ready(&mut self, slot: usize) {
        self.flush(slot);
    }

    /// Hand one decoded request to the service, answering `Overloaded`
    /// at the boundary when the admission queue is full.
    fn submit(&mut self, slot: usize, req: WireRequest) {
        let Some(conn) = self.conns.get(slot).and_then(Option::as_ref) else {
            return;
        };
        let gen = conn.gen;
        let client_id = req.request_id;
        let internal = self.next_internal;
        self.next_internal += 1;
        self.routes.insert(
            internal,
            Route {
                slot,
                gen,
                client_id,
            },
        );
        let render = RenderRequest {
            user: req.user,
            kind: req.kind,
            dataset: req.dataset,
            frame: req.frame,
            correlation: internal,
            reply: self.reply_tx.clone(),
        };
        match self.requests.try_send(render) {
            Ok(()) => {}
            Err(TrySendError::Full(_)) => {
                self.routes.remove(&internal);
                self.send_response(
                    slot,
                    WireResponse::Overloaded {
                        request_id: client_id,
                        reason: RejectReason::QueueFull,
                    },
                );
            }
            Err(TrySendError::Disconnected(_)) => {
                // The service shut down: this connection can never get an
                // answer again.
                self.routes.remove(&internal);
                self.close(slot);
            }
        }
    }

    /// Route one completed reply back to its connection's send queue.
    fn deliver(&mut self, reply: RenderReply) {
        let Some(route) = self.routes.remove(&reply.correlation) else {
            return;
        };
        let alive = self
            .conns
            .get(route.slot)
            .and_then(Option::as_ref)
            .is_some_and(|c| c.gen == route.gen);
        if !alive {
            return; // the connection closed while the frame rendered
        }
        let response = to_wire_response(route.client_id, reply.outcome);
        self.send_response(route.slot, response);
    }

    fn send_response(&mut self, slot: usize, response: WireResponse) {
        self.send_message(slot, &WireMessage::Response(response));
    }

    fn send_message(&mut self, slot: usize, message: &WireMessage) {
        let Some(conn) = self.conns.get_mut(slot).and_then(Option::as_mut) else {
            return;
        };
        let encoded = conn.codec.encode(message);
        conn.outbox_bytes += encoded.len();
        conn.outbox.push_back(Segment {
            bytes: encoded.head,
            offset: 0,
        });
        if let Some(tail) = encoded.tail {
            conn.outbox.push_back(Segment {
                bytes: tail,
                offset: 0,
            });
        }
        if conn.outbox_bytes > MAX_OUTBOX_BYTES {
            self.close(slot); // slow consumer: shed the connection
            return;
        }
        self.flush(slot);
    }

    /// Drain the connection's outbox as far as the socket allows, keeping
    /// the poller's write interest in sync with whether bytes remain.
    fn flush(&mut self, slot: usize) {
        let Some(conn) = self.conns.get_mut(slot).and_then(Option::as_mut) else {
            return;
        };
        if conn.flush_outbox().is_err() {
            self.close(slot);
            return;
        }
        let Some(conn) = self.conns.get_mut(slot).and_then(Option::as_mut) else {
            return;
        };
        let want_write = !conn.outbox.is_empty();
        if want_write != conn.writing {
            let interest = if want_write {
                Interest::READABLE | Interest::WRITABLE
            } else {
                Interest::READABLE
            };
            if self
                .poller
                .reregister(&conn.stream, Token(slot + TOKEN_BASE), interest)
                .is_ok()
            {
                conn.writing = want_write;
            }
        }
    }

    fn close(&mut self, slot: usize) {
        if let Some(conn) = self.conns.get_mut(slot).and_then(Option::take) {
            let _ = self.poller.deregister(&conn.stream);
            self.free.push(slot);
            self.active -= 1;
            // Routes for this connection stay in the map until their
            // replies arrive; the generation check drops them then.
        }
    }
}

// ---------------------------------------------------------------------------
// Client
// ---------------------------------------------------------------------------

/// Builder-style configuration for [`RemoteClient::connect_with`],
/// mirroring the `ServiceConfig` idiom: start from [`ClientOptions::new`]
/// and chain setters.
///
/// ```
/// use vizsched_service::ClientOptions;
///
/// let opts = ClientOptions::new().retries(4).retry_disconnects(true);
/// # let _ = opts;
/// ```
#[derive(Clone, Debug)]
pub struct ClientOptions {
    retries: u32,
    retry_disconnects: bool,
}

/// The pause before the first `Overloaded` retry; each later one doubles
/// it, up to [`BACKOFF_MAX`].
const BACKOFF_INITIAL: Duration = Duration::from_millis(2);
/// The longest pause between two `Overloaded` retries.
const BACKOFF_MAX: Duration = Duration::from_millis(200);

impl ClientOptions {
    /// Defaults: no retries, no reconnect on a dropped connection.
    pub fn new() -> ClientOptions {
        ClientOptions {
            retries: 0,
            retry_disconnects: false,
        }
    }

    /// Resubmit up to `retries` times when the service answers
    /// `Overloaded` (blocking calls only), after a pause of 2 ms that
    /// doubles on each retry up to 200 ms.
    pub fn retries(mut self, retries: u32) -> ClientOptions {
        self.retries = retries;
        self
    }

    /// Reconnect and resubmit when the connection resets or hits EOF
    /// mid-frame (blocking calls only) — but only if the server's
    /// [`WireMessage::Hello`] on the fresh connection announces a *new*
    /// incarnation epoch. A changed epoch means the head that was holding
    /// the request died, so the frame was lost and resubmitting renders it
    /// exactly once; an unchanged epoch means the same head may still
    /// render the original, and the call surfaces the connection error
    /// rather than risk rendering the frame twice.
    pub fn retry_disconnects(mut self, on: bool) -> ClientOptions {
        self.retry_disconnects = on;
        self
    }
}

impl Default for ClientOptions {
    fn default() -> Self {
        ClientOptions::new()
    }
}

/// The socket's send side and its codec, locked together so concurrent
/// submitters interleave whole frames.
struct ClientIo {
    stream: TcpStream,
    codec: Codec,
}

/// A remote client: connects over TCP and renders frames.
pub struct RemoteClient {
    user: UserId,
    addr: SocketAddr,
    io: Mutex<ClientIo>,
    next_id: AtomicU64,
    pending: Arc<Mutex<HashMap<u64, Sender<WireResponse>>>>,
    reader: Mutex<Option<JoinHandle<()>>>,
    options: ClientOptions,
    closed: Arc<AtomicBool>,
    /// The serving head's incarnation, from the connection's
    /// [`WireMessage::Hello`]; zero until the hello arrives.
    epoch: Arc<AtomicU64>,
    /// Set only by [`RemoteClient::close`]: a deliberate shutdown must
    /// never be undone by a disconnect-retry reconnect.
    shutdown: AtomicBool,
}

/// The reader thread: routes responses to their waiters, records the
/// hello's epoch, and on EOF marks the connection dead and wakes every
/// blocked caller.
fn spawn_reader(
    mut read_side: TcpStream,
    pending: Arc<Mutex<HashMap<u64, Sender<WireResponse>>>>,
    closed: Arc<AtomicBool>,
    epoch: Arc<AtomicU64>,
) -> JoinHandle<()> {
    std::thread::spawn(move || {
        let mut codec = Codec::new();
        while let Ok(Some(msg)) = codec.read(&mut read_side) {
            match msg {
                WireMessage::Response(resp) => {
                    let waiter = lock(&pending).remove(&resp.request_id());
                    if let Some(tx) = waiter {
                        let _ = tx.send(resp);
                    }
                }
                WireMessage::Hello { epoch: e } => epoch.store(e, Ordering::Release),
                WireMessage::Request(_) => {} // servers never send requests
            }
        }
        // Socket closed: mark the client dead and wake every waiter by
        // dropping their senders — pending calls surface a connection
        // error instead of hanging.
        closed.store(true, Ordering::Release);
        lock(&pending).clear();
    })
}

impl RemoteClient {
    /// Connect to a [`TcpServer`] with default [`ClientOptions`].
    pub fn connect(addr: SocketAddr, user: UserId) -> io::Result<RemoteClient> {
        RemoteClient::connect_with(addr, user, ClientOptions::new())
    }

    /// Connect with explicit options.
    pub fn connect_with(
        addr: SocketAddr,
        user: UserId,
        options: ClientOptions,
    ) -> io::Result<RemoteClient> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true).ok();
        let read_side = stream.try_clone()?;
        let pending: Arc<Mutex<HashMap<u64, Sender<WireResponse>>>> =
            Arc::new(Mutex::new(HashMap::new()));
        let closed = Arc::new(AtomicBool::new(false));
        let epoch = Arc::new(AtomicU64::new(0));
        let reader = spawn_reader(read_side, pending.clone(), closed.clone(), epoch.clone());

        Ok(RemoteClient {
            user,
            addr,
            io: Mutex::new(ClientIo {
                stream,
                codec: Codec::new(),
            }),
            next_id: AtomicU64::new(1),
            pending,
            reader: Mutex::new(Some(reader)),
            options,
            closed,
            epoch,
            shutdown: AtomicBool::new(false),
        })
    }

    /// Block (bounded) until the connection's hello announces the server's
    /// incarnation. Zero means no hello arrived — an epoch-unaware peer or
    /// a connection that died first — and disables disconnect retries.
    fn wait_for_epoch(&self) -> u64 {
        let deadline = Instant::now() + Duration::from_secs(2);
        loop {
            let epoch = self.epoch.load(Ordering::Acquire);
            if epoch != 0 || self.closed.load(Ordering::Acquire) || Instant::now() >= deadline {
                return epoch;
            }
            std::thread::sleep(Duration::from_micros(200));
        }
    }

    /// Replace a dead connection with a fresh socket, codec, and reader
    /// thread, then return the new incarnation's epoch (zero if the new
    /// server sent no hello). No-op returning the current epoch when
    /// another caller already reconnected.
    fn reconnect(&self) -> io::Result<u64> {
        {
            let mut io = lock(&self.io);
            if self.shutdown.load(Ordering::Acquire) {
                return Err(io::Error::new(
                    io::ErrorKind::NotConnected,
                    "client was closed",
                ));
            }
            if self.closed.load(Ordering::Acquire) {
                // Tear down: the old reader exits on the shutdown, clearing
                // pending waiters.
                let _ = io.stream.shutdown(Shutdown::Both);
                if let Some(handle) = lock(&self.reader).take() {
                    let _ = handle.join();
                }
                let stream = TcpStream::connect(self.addr)?;
                stream.set_nodelay(true).ok();
                let read_side = stream.try_clone()?;
                self.epoch.store(0, Ordering::Release);
                self.closed.store(false, Ordering::Release);
                *lock(&self.reader) = Some(spawn_reader(
                    read_side,
                    self.pending.clone(),
                    self.closed.clone(),
                    self.epoch.clone(),
                ));
                io.stream = stream;
                io.codec = Codec::new();
            }
        }
        Ok(self.wait_for_epoch())
    }

    fn submit(
        &self,
        kind: JobKind,
        dataset: DatasetId,
        frame: FrameParams,
    ) -> io::Result<Receiver<WireResponse>> {
        if self.closed.load(Ordering::Acquire) {
            return Err(io::Error::new(
                io::ErrorKind::NotConnected,
                "connection closed",
            ));
        }
        let request_id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let (tx, rx) = unbounded();
        lock(&self.pending).insert(request_id, tx);
        let req = WireRequest {
            request_id,
            user: self.user,
            kind,
            dataset,
            frame,
        };
        let mut io = lock(&self.io);
        let ClientIo { stream, codec } = &mut *io;
        if let Err(e) = codec.write(stream, &WireMessage::Request(req)) {
            drop(io);
            lock(&self.pending).remove(&request_id);
            return Err(e);
        }
        Ok(rx)
    }

    /// Render one interactive frame; the response — a frame or an
    /// overload-control verdict — arrives on the returned channel (a
    /// closed channel means the connection dropped).
    pub fn render_interactive(
        &self,
        action: ActionId,
        dataset: DatasetId,
        frame: FrameParams,
    ) -> io::Result<Receiver<WireResponse>> {
        let user = self.user;
        self.submit(JobKind::Interactive { user, action }, dataset, frame)
    }

    /// Render one interactive frame and block for the terminal response,
    /// applying this client's [`ClientOptions`]: resubmit with exponential
    /// backoff on `Overloaded` (up to the configured retries). `Expired`
    /// verdicts are
    /// returned as-is — retrying a superseded frame is pointless, a newer
    /// one already rendered — and so is `Overloaded(unknown_dataset)`:
    /// backing off does not make a dataset exist.
    pub fn render_interactive_blocking(
        &self,
        action: ActionId,
        dataset: DatasetId,
        frame: FrameParams,
    ) -> io::Result<WireResponse> {
        let options = &self.options;
        let user = self.user;
        let kind = JobKind::Interactive { user, action };
        let mut backoff = BACKOFF_INITIAL;
        let mut overloads_left = options.retries;
        let mut reconnects_left = if options.retry_disconnects {
            1 + options.retries
        } else {
            0
        };
        loop {
            // The incarnation this attempt is submitted against. A
            // disconnect is only retried when the reconnected server
            // announces a *different* one (see
            // [`ClientOptions::retry_disconnects`]).
            let observed = if options.retry_disconnects {
                self.wait_for_epoch()
            } else {
                0
            };
            // A submit that fails never reached the wire intact, but the
            // request bytes may already sit in the kernel's send buffer —
            // apply the same epoch rule as a mid-frame drop.
            let retry_disconnect =
                |err: io::Error, reconnects_left: &mut u32| -> io::Result<bool> {
                    if *reconnects_left == 0 {
                        return Err(err);
                    }
                    *reconnects_left -= 1;
                    let fresh = self.reconnect()?;
                    if fresh != 0 && observed != 0 && fresh != observed {
                        return Ok(true); // the old head died with the request
                    }
                    // Same incarnation: the original may still render — do not
                    // resubmit (it would double-render the frame).
                    Err(err)
                };
            let rx = match self.submit(kind, dataset, frame) {
                Ok(rx) => rx,
                Err(err) => {
                    retry_disconnect(err, &mut reconnects_left)?;
                    continue;
                }
            };
            let Ok(response) = rx.recv() else {
                let dropped = io::Error::new(
                    io::ErrorKind::ConnectionAborted,
                    "connection closed before a response arrived",
                );
                retry_disconnect(dropped, &mut reconnects_left)?;
                continue;
            };
            match response {
                WireResponse::Overloaded { reason, .. }
                    if overloads_left > 0 && reason != RejectReason::UnknownDataset =>
                {
                    overloads_left -= 1;
                    std::thread::sleep(backoff);
                    backoff = (backoff * 2).min(BACKOFF_MAX);
                }
                other => return Ok(other),
            }
        }
    }

    /// Submit one batch frame.
    pub fn render_batch_frame(
        &self,
        request: BatchId,
        frame_index: u32,
        dataset: DatasetId,
        frame: FrameParams,
    ) -> io::Result<Receiver<WireResponse>> {
        self.submit(
            JobKind::Batch {
                user: self.user,
                request,
                frame: frame_index,
            },
            dataset,
            frame,
        )
    }

    /// Shut the connection down and join the reader thread. Pending
    /// requests observe a connection error. Idempotent; also runs on drop.
    pub fn close(&self) {
        self.shutdown.store(true, Ordering::Release);
        self.closed.store(true, Ordering::Release);
        let _ = lock(&self.io).stream.shutdown(Shutdown::Both);
        if let Some(handle) = lock(&self.reader).take() {
            let _ = handle.join();
        }
    }
}

impl Drop for RemoteClient {
    fn drop(&mut self) {
        self.close();
    }
}
