//! The wire codec: one type owning every buffer the framing layer needs.
//!
//! [`Codec`] replaced the free functions `wire::encode` /
//! `wire::write_message` / `wire::read_message` (deprecated for one
//! release, now removed). Both transport paths go through it:
//!
//! - **Sync** (blocking sockets: the remote client): [`Codec::read`] /
//!   [`Codec::write`].
//! - **Event loop** (non-blocking sockets under the `polling` shim):
//!   [`Codec::try_read`] resumes an in-flight frame across arbitrary read
//!   boundaries, and [`Codec::encode`] yields [`Encoded`] segments for
//!   vectored writes.
//!
//! Two allocation properties distinguish it from the old free functions,
//! both observable through [`Codec::stats`]:
//!
//! - **Pooled reads**: each frame's payload lands in a buffer recycled
//!   from a pool of eight once the previous frame's
//!   consumers drop it — steady-state decoding allocates nothing.
//! - **Zero-copy payloads**: a decoded [`WireFrame`]'s pixels are a
//!   [`Bytes`] slice *of the pooled read buffer* — never copied into a
//!   fresh `Vec<u8>`. The `payload_copies` counter stays at zero on this
//!   path, and a regression test pins it there.

use crate::wire::{
    WireFrame, WireMessage, WireRequest, WireResponse, MAX_PAYLOAD, TAG_EXPIRED, TAG_HELLO,
    TAG_OVERLOADED, TAG_REQUEST, TAG_RESPONSE,
};
use bytes::{Buf, BufMut, Bytes, BytesMut};
use std::io::{self, Read, Write};
use vizsched_core::ids::{ActionId, BatchId, DatasetId, JobId, UserId};
use vizsched_core::job::{FrameParams, JobKind};
use vizsched_core::time::SimDuration;
use vizsched_metrics::{DropReason, RejectReason};

/// Frame header: `u32` length prefix (tag + payload) followed by the tag.
const HEADER_LEN: usize = 5;

/// Allocation counters for one [`Codec`] (see the module docs for what
/// the hot path is allowed to do).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CodecStats {
    /// Decode buffers recycled from the pool.
    pub pool_hits: u64,
    /// Decode buffers that had to be freshly allocated (pool empty or
    /// every pooled buffer still referenced by an undropped frame).
    pub pool_misses: u64,
    /// Messages fully decoded.
    pub decoded: u64,
    /// Messages encoded.
    pub encoded: u64,
    /// Times a decoded payload was copied into a fresh `Vec<u8>`. Zero by
    /// construction on the `Codec` hot path — pixels are always borrowed
    /// from the pooled read buffer.
    pub payload_copies: u64,
}

/// Byte buffers [`BufferPool`] keeps for reuse.
const POOL_SLOTS: usize = 8;

/// A pool of at most [`POOL_SLOTS`] byte buffers recycled across frames.
/// Freezing hands out an immutable [`Bytes`]; the allocation returns to
/// the pool when every outstanding handle is dropped and a later
/// [`BufferPool::take`] reclaims it.
#[derive(Debug, Default)]
struct BufferPool {
    slots: Vec<Bytes>,
    hits: u64,
    misses: u64,
}

impl BufferPool {
    /// An empty `Vec` with at least `capacity` reserved, reusing a pooled
    /// allocation when one is free (its consumers dropped their handles).
    fn take(&mut self, capacity: usize) -> Vec<u8> {
        for i in 0..self.slots.len() {
            // Our handle plus nobody else's: the allocation is reclaimable.
            if self.slots[i].handle_count() == 1 {
                let slot = self.slots.swap_remove(i);
                let mut v = slot.try_reclaim().expect("sole handle");
                v.clear();
                v.reserve(capacity);
                self.hits += 1;
                return v;
            }
        }
        self.misses += 1;
        Vec::with_capacity(capacity)
    }

    /// Freeze a filled buffer into [`Bytes`], remembering the allocation
    /// for reuse once all reader handles are gone.
    fn freeze(&mut self, buf: Vec<u8>) -> Bytes {
        let bytes = Bytes::from(buf);
        if self.slots.len() == POOL_SLOTS {
            // Forget the oldest handle; its allocation frees with its last
            // external reader instead of coming back to the pool.
            self.slots.remove(0);
        }
        self.slots.push(bytes.clone());
        bytes
    }
}

/// An encoded message, split for vectored writes: `head` is the frame
/// header plus all scalar fields; `tail` — present only for pixel-bearing
/// frame responses — shares the pixel buffer (no copy).
#[derive(Clone, Debug)]
pub struct Encoded {
    /// Frame header + scalar fields (+ full payload for small messages).
    pub head: Bytes,
    /// The pixel payload, borrowed from the frame (frame responses only).
    pub tail: Option<Bytes>,
}

impl Encoded {
    /// Total encoded length.
    pub fn len(&self) -> usize {
        self.head.len() + self.tail.as_ref().map_or(0, |t| t.len())
    }

    /// True when nothing remains (never — every message has a header).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Concatenate into one contiguous buffer (copies; for callers that
    /// need a single owned frame rather than vectored segments).
    pub fn to_bytes(&self) -> Bytes {
        match &self.tail {
            None => self.head.clone(),
            Some(tail) => {
                let mut out = Vec::with_capacity(self.len());
                out.extend_from_slice(&self.head);
                out.extend_from_slice(tail);
                Bytes::from(out)
            }
        }
    }
}

/// Outcome of a non-blocking [`Codec::try_read`].
#[derive(Clone, Debug)]
pub enum TryRead {
    /// One complete message decoded; call again — more may be buffered.
    Message(WireMessage),
    /// The peer closed cleanly at a frame boundary.
    Closed,
    /// No complete message yet; wait for readiness and call again.
    Pending,
}

/// Decoder progress across read boundaries.
enum DecodeState {
    /// Accumulating the 5-byte frame header.
    Header { have: usize },
    /// Accumulating `need` payload bytes into a pooled buffer.
    Payload { tag: u8, need: usize, buf: Vec<u8> },
}

/// The codec: framing, pooled buffers, and allocation accounting for one
/// stream (see module docs).
pub struct Codec {
    pool: BufferPool,
    header: [u8; HEADER_LEN],
    state: DecodeState,
    stats: CodecStats,
}

impl Default for Codec {
    fn default() -> Self {
        Codec::new()
    }
}

impl Codec {
    /// A codec with an empty buffer pool.
    pub fn new() -> Codec {
        Codec {
            pool: BufferPool::default(),
            header: [0; HEADER_LEN],
            state: DecodeState::Header { have: 0 },
            stats: CodecStats::default(),
        }
    }

    /// Allocation counters (pool stats folded in).
    pub fn stats(&self) -> CodecStats {
        CodecStats {
            pool_hits: self.pool.hits,
            pool_misses: self.pool.misses,
            ..self.stats
        }
    }

    // -- encode ------------------------------------------------------------

    /// Encode one message. The frame header and scalar fields land in a
    /// pooled buffer; a frame response's pixels ride along as a shared
    /// slice (`tail`) rather than being copied.
    pub fn encode(&mut self, msg: &WireMessage) -> Encoded {
        let mut head = BytesMut::with_vec(self.pool.take(64));
        // Reserve the header; the length prefix is patched in below.
        head.put_u32_le(0);
        let (tag, tail) = match msg {
            WireMessage::Request(r) => {
                head.put_u8(0);
                head.put_u64_le(r.request_id);
                head.put_u32_le(r.user.0);
                encode_kind(&mut head, &r.kind);
                head.put_u32_le(r.dataset.0);
                head.put_f32_le(r.frame.azimuth);
                head.put_f32_le(r.frame.elevation);
                head.put_f32_le(r.frame.distance);
                head.put_u32_le(r.frame.transfer_fn);
                (TAG_REQUEST, None)
            }
            WireMessage::Response(WireResponse::Frame(r)) => {
                head.put_u8(0);
                head.put_u64_le(r.request_id);
                head.put_u64_le(r.job.0);
                head.put_u64_le(r.latency.as_micros());
                head.put_u32_le(r.cache_misses);
                head.put_u32_le(r.width);
                head.put_u32_le(r.height);
                (TAG_RESPONSE, Some(r.pixels.clone()))
            }
            WireMessage::Response(WireResponse::Overloaded { request_id, reason }) => {
                head.put_u8(0);
                head.put_u64_le(*request_id);
                head.put_u8(reason.code());
                (TAG_OVERLOADED, None)
            }
            WireMessage::Response(WireResponse::Expired { request_id, reason }) => {
                head.put_u8(0);
                head.put_u64_le(*request_id);
                head.put_u8(reason.code());
                (TAG_EXPIRED, None)
            }
            WireMessage::Hello { epoch } => {
                head.put_u8(0);
                head.put_u64_le(*epoch);
                (TAG_HELLO, None)
            }
        };
        let mut buf = head.into_vec();
        let payload_len = buf.len() - HEADER_LEN + 1 + tail.as_ref().map_or(0, |t: &Bytes| t.len());
        buf[0..4].copy_from_slice(&(payload_len as u32).to_le_bytes());
        buf[4] = tag;
        self.stats.encoded += 1;
        Encoded {
            head: self.pool.freeze(buf),
            tail,
        }
    }

    /// Write one message to a blocking stream (header and pixels as two
    /// writes — the pixel buffer is never copied).
    pub fn write(&mut self, w: &mut impl Write, msg: &WireMessage) -> io::Result<()> {
        let encoded = self.encode(msg);
        w.write_all(&encoded.head)?;
        if let Some(tail) = &encoded.tail {
            w.write_all(tail)?;
        }
        w.flush()
    }

    // -- decode ------------------------------------------------------------

    /// Read one message from a blocking stream. Returns `Ok(None)` on a
    /// clean EOF at a frame boundary; mid-frame EOF is `UnexpectedEof`.
    pub fn read(&mut self, r: &mut impl Read) -> io::Result<Option<WireMessage>> {
        match self.try_read(r)? {
            TryRead::Message(msg) => Ok(Some(msg)),
            TryRead::Closed => Ok(None),
            // A blocking stream only lands here on a genuine
            // `WouldBlock` (e.g. a read timeout was configured).
            TryRead::Pending => Err(io::Error::new(
                io::ErrorKind::WouldBlock,
                "stream would block mid-message",
            )),
        }
    }

    /// Resume decoding from a non-blocking stream: consumes whatever bytes
    /// are available, returning as soon as one message completes. State —
    /// including a partially received frame — carries over between calls,
    /// so messages split across arbitrary read boundaries reassemble
    /// correctly.
    pub fn try_read(&mut self, r: &mut impl Read) -> io::Result<TryRead> {
        loop {
            match &mut self.state {
                DecodeState::Header { have } => {
                    while *have < HEADER_LEN {
                        match r.read(&mut self.header[*have..HEADER_LEN]) {
                            Ok(0) => {
                                return if *have == 0 {
                                    Ok(TryRead::Closed)
                                } else {
                                    Err(io::Error::new(
                                        io::ErrorKind::UnexpectedEof,
                                        "eof inside a frame header",
                                    ))
                                };
                            }
                            Ok(n) => *have += n,
                            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                                return Ok(TryRead::Pending)
                            }
                            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                            Err(e) => return Err(e),
                        }
                    }
                    let len = u32::from_le_bytes(self.header[..4].try_into().unwrap()) as usize;
                    if len == 0 || len > MAX_PAYLOAD {
                        return Err(io::Error::new(
                            io::ErrorKind::InvalidData,
                            format!("frame length {len} out of bounds"),
                        ));
                    }
                    let tag = self.header[4];
                    let need = len - 1; // the length prefix counts the tag byte
                    self.state = DecodeState::Payload {
                        tag,
                        need,
                        buf: self.pool.take(need),
                    };
                }
                DecodeState::Payload { tag, need, buf } => {
                    while buf.len() < *need {
                        let start = buf.len();
                        buf.resize(*need, 0);
                        match r.read(&mut buf[start..]) {
                            Ok(0) => {
                                return Err(io::Error::new(
                                    io::ErrorKind::UnexpectedEof,
                                    "eof inside a frame payload",
                                ));
                            }
                            Ok(n) => buf.truncate(start + n),
                            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                                buf.truncate(start);
                                return Ok(TryRead::Pending);
                            }
                            Err(e) if e.kind() == io::ErrorKind::Interrupted => {
                                buf.truncate(start);
                            }
                            Err(e) => return Err(e),
                        }
                    }
                    let tag = *tag;
                    let buf = std::mem::take(buf);
                    self.state = DecodeState::Header { have: 0 };
                    let payload = self.pool.freeze(buf);
                    let msg = parse_message(tag, payload)?;
                    self.stats.decoded += 1;
                    return Ok(TryRead::Message(msg));
                }
            }
        }
    }
}

fn encode_kind(buf: &mut BytesMut, kind: &JobKind) {
    match *kind {
        JobKind::Interactive { user, action } => {
            buf.put_u8(0);
            buf.put_u32_le(user.0);
            buf.put_u64_le(action.0);
            buf.put_u32_le(0);
        }
        JobKind::Batch {
            user,
            request,
            frame,
        } => {
            buf.put_u8(1);
            buf.put_u32_le(user.0);
            buf.put_u64_le(request.0);
            buf.put_u32_le(frame);
        }
    }
}

/// Checked little-endian reads over a payload: truncated input is a clean
/// `InvalidData` error, never a panic or over-read.
struct Reader(Bytes);

impl Reader {
    fn need(&self, n: usize) -> io::Result<()> {
        if self.0.remaining() < n {
            Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!(
                    "payload truncated: {} bytes left, {n} needed",
                    self.0.remaining()
                ),
            ))
        } else {
            Ok(())
        }
    }

    fn u8(&mut self) -> io::Result<u8> {
        self.need(1)?;
        Ok(self.0.get_u8())
    }

    fn u32(&mut self) -> io::Result<u32> {
        self.need(4)?;
        Ok(self.0.get_u32_le())
    }

    fn u64(&mut self) -> io::Result<u64> {
        self.need(8)?;
        Ok(self.0.get_u64_le())
    }

    fn f32(&mut self) -> io::Result<f32> {
        self.need(4)?;
        Ok(self.0.get_f32_le())
    }

    fn kind(&mut self) -> io::Result<JobKind> {
        let tag = self.u8()?;
        let user = UserId(self.u32()?);
        let id = self.u64()?;
        let frame = self.u32()?;
        match tag {
            0 => Ok(JobKind::Interactive {
                user,
                action: ActionId(id),
            }),
            1 => Ok(JobKind::Batch {
                user,
                request: BatchId(id),
                frame,
            }),
            other => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("unknown job-kind tag {other}"),
            )),
        }
    }

    /// The unread remainder, still sharing the payload allocation.
    fn rest(self) -> Bytes {
        self.0
    }
}

fn parse_message(tag: u8, payload: Bytes) -> io::Result<WireMessage> {
    let mut r = Reader(payload);
    match tag {
        TAG_REQUEST => {
            let request_id = r.u64()?;
            let user = UserId(r.u32()?);
            let kind = r.kind()?;
            let dataset = DatasetId(r.u32()?);
            let frame = FrameParams {
                azimuth: r.f32()?,
                elevation: r.f32()?,
                distance: r.f32()?,
                transfer_fn: r.u32()?,
            };
            Ok(WireMessage::Request(WireRequest {
                request_id,
                user,
                kind,
                dataset,
                frame,
            }))
        }
        TAG_RESPONSE => {
            let request_id = r.u64()?;
            let job = JobId(r.u64()?);
            let latency = SimDuration::from_micros(r.u64()?);
            let cache_misses = r.u32()?;
            let width = r.u32()?;
            let height = r.u32()?;
            // Wide arithmetic: u32::MAX² × 4 overflows even u64.
            let expect = width as u128 * height as u128 * 4;
            // The pixels stay a slice of the pooled payload buffer — the
            // zero-copy property the stats counter pins down.
            let pixels = r.rest();
            if pixels.len() as u128 != expect {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("pixel payload {} != {expect}", pixels.len()),
                ));
            }
            Ok(WireMessage::Response(WireResponse::Frame(Box::new(
                WireFrame {
                    request_id,
                    job,
                    latency,
                    cache_misses,
                    width,
                    height,
                    pixels,
                },
            ))))
        }
        TAG_OVERLOADED => {
            let request_id = r.u64()?;
            let code = r.u8()?;
            let reason = RejectReason::from_code(code).ok_or_else(|| {
                io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("unknown reject-reason code {code}"),
                )
            })?;
            Ok(WireMessage::Response(WireResponse::Overloaded {
                request_id,
                reason,
            }))
        }
        TAG_EXPIRED => {
            let request_id = r.u64()?;
            let code = r.u8()?;
            let reason = DropReason::from_code(code).ok_or_else(|| {
                io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("unknown drop-reason code {code}"),
                )
            })?;
            Ok(WireMessage::Response(WireResponse::Expired {
                request_id,
                reason,
            }))
        }
        TAG_HELLO => {
            let epoch = r.u64()?;
            Ok(WireMessage::Hello { epoch })
        }
        other => Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("unknown message tag {other}"),
        )),
    }
}
