//! The wire protocol for remote clients: a compact length-prefixed binary
//! framing over TCP. Remote visualization is the paper's application
//! domain (§II-A, "remote parallel rendering servers utilize remote
//! computational resources to visualize full-resolution datasets"); this
//! module is the boundary between the in-process service and the network.
//!
//! Frame layout: `u32 payload length (LE) | u8 message tag | payload`.
//! Pixels travel as RGBA8 (quantized from the renderer's f32, premultiplied
//! alpha preserved), a 4× saving over raw floats before any compression.

use bytes::Bytes;
use vizsched_core::ids::{DatasetId, JobId, UserId};
use vizsched_core::job::{FrameParams, JobKind};
use vizsched_core::time::SimDuration;
use vizsched_metrics::{DropReason, RejectReason};
use vizsched_render::RgbaImage;

/// Message tags.
pub(crate) const TAG_REQUEST: u8 = 1;
pub(crate) const TAG_RESPONSE: u8 = 2;
pub(crate) const TAG_OVERLOADED: u8 = 3;
pub(crate) const TAG_EXPIRED: u8 = 4;
pub(crate) const TAG_HELLO: u8 = 5;

/// Upper bound on accepted payloads (a 4096² RGBA8 frame plus headers).
pub const MAX_PAYLOAD: usize = 4096 * 4096 * 4 + 1024;

/// A client's render request as it travels over the wire.
#[derive(Clone, Debug, PartialEq)]
pub struct WireRequest {
    /// Client-chosen correlation id, echoed in the response.
    pub request_id: u64,
    /// Requesting user.
    pub user: UserId,
    /// Interactive (`action`) or batch (`request`/`frame`) provenance.
    pub kind: JobKind,
    /// Dataset to render.
    pub dataset: DatasetId,
    /// Camera / transfer function.
    pub frame: FrameParams,
}

/// A finished frame as it travels back.
#[derive(Clone, Debug, PartialEq)]
pub struct WireFrame {
    /// Echo of the request's correlation id.
    pub request_id: u64,
    /// The job id the service assigned.
    pub job: JobId,
    /// End-to-end latency observed at the head node.
    pub latency: SimDuration,
    /// Cache misses among the job's tasks.
    pub cache_misses: u32,
    /// Frame width.
    pub width: u32,
    /// Frame height.
    pub height: u32,
    /// RGBA8 pixels, premultiplied, row-major.
    pub pixels: Bytes,
}

impl WireFrame {
    /// Quantize a rendered image into a response.
    pub fn from_image(
        request_id: u64,
        job: JobId,
        latency: SimDuration,
        cache_misses: u32,
        image: &RgbaImage,
    ) -> WireFrame {
        let mut pixels = vec![0u8; image.len() * 4];
        for (out, px) in pixels.chunks_exact_mut(4).zip(&image.pixels) {
            for (slot, &c) in out.iter_mut().zip(px) {
                *slot = quantize(c);
            }
        }
        WireFrame {
            request_id,
            job,
            latency,
            cache_misses,
            width: image.width as u32,
            height: image.height as u32,
            pixels: Bytes::from(pixels),
        }
    }

    /// Reconstruct a float image (lossy: 8 bits per channel).
    pub fn to_image(&self) -> RgbaImage {
        let mut image = RgbaImage::transparent(self.width as usize, self.height as usize);
        for (i, px) in image.pixels.iter_mut().enumerate() {
            for (c, slot) in px.iter_mut().enumerate() {
                *slot = self.pixels[i * 4 + c] as f32 / 255.0;
            }
        }
        image
    }
}

/// One channel as RGBA8: `round(clamp(c, 0, 1) · 255)` without a libm
/// `roundf` call. On `[0, 255]` rounding half away from zero is truncation
/// plus a test of the (exactly computed) fraction — the rule
/// `TransferFunction::table_index` relies on; NaN maps to 0 either way.
#[inline]
fn quantize(c: f32) -> u8 {
    let scaled = c.clamp(0.0, 1.0) * 255.0;
    let below = scaled as u8;
    below + u8::from(scaled - below as f32 >= 0.5)
}

/// The server's answer to one request: a frame, or an overload-control
/// verdict telling the client its request was shed.
#[derive(Clone, Debug, PartialEq)]
pub enum WireResponse {
    /// The finished frame.
    Frame(Box<WireFrame>),
    /// Refused at admission: the head's in-flight caps, or a full
    /// admission queue at the TCP boundary. Retry after a backoff.
    Overloaded {
        /// Echo of the request's correlation id.
        request_id: u64,
        /// Which admission limit refused the request.
        reason: RejectReason,
    },
    /// Admitted, then dropped before rendering: its deadline passed, or a
    /// newer frame of the same interactive action superseded it.
    Expired {
        /// Echo of the request's correlation id.
        request_id: u64,
        /// Why the admitted request was dropped.
        reason: DropReason,
    },
}

impl WireResponse {
    /// The correlation id this response answers.
    pub fn request_id(&self) -> u64 {
        match self {
            WireResponse::Frame(f) => f.request_id,
            WireResponse::Overloaded { request_id, .. }
            | WireResponse::Expired { request_id, .. } => *request_id,
        }
    }

    /// The finished frame, or `None` if the request was shed.
    pub fn into_frame(self) -> Option<WireFrame> {
        match self {
            WireResponse::Frame(f) => Some(*f),
            _ => None,
        }
    }
}

/// Either message, as decoded off a stream.
#[derive(Clone, Debug, PartialEq)]
pub enum WireMessage {
    /// Client → server.
    Request(WireRequest),
    /// Server → client.
    Response(WireResponse),
    /// Server → client, first frame on every connection: the serving
    /// head's incarnation. A client that reconnects after a mid-frame
    /// disconnect compares epochs to decide whether resubmitting is safe —
    /// a changed epoch means the old head (and any request it was holding)
    /// is gone, an unchanged one means the original request may still
    /// render and a resubmit would double-render it.
    Hello {
        /// The serving head's incarnation, bumped on every service start.
        epoch: u64,
    },
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::Codec;
    use vizsched_core::ids::{ActionId, BatchId};

    fn sample_request() -> WireRequest {
        WireRequest {
            request_id: 7,
            user: UserId(3),
            kind: JobKind::Interactive {
                user: UserId(3),
                action: ActionId(9),
            },
            dataset: DatasetId(2),
            frame: FrameParams {
                azimuth: 0.5,
                elevation: -0.25,
                distance: 2.5,
                transfer_fn: 1,
            },
        }
    }

    fn round_trip(msg: WireMessage) -> WireMessage {
        let mut codec = Codec::new();
        let bytes = codec.encode(&msg).to_bytes();
        let mut cursor = std::io::Cursor::new(bytes.to_vec());
        codec.read(&mut cursor).unwrap().expect("one message")
    }

    #[test]
    fn request_round_trips() {
        let msg = WireMessage::Request(sample_request());
        assert_eq!(round_trip(msg.clone()), msg);
    }

    #[test]
    fn batch_request_round_trips() {
        let mut req = sample_request();
        req.kind = JobKind::Batch {
            user: UserId(3),
            request: BatchId(4),
            frame: 17,
        };
        let msg = WireMessage::Request(req);
        assert_eq!(round_trip(msg.clone()), msg);
    }

    #[test]
    fn response_round_trips_with_pixels() {
        let mut image = RgbaImage::transparent(3, 2);
        *image.at_mut(1, 0) = [0.25, 0.5, 0.75, 1.0];
        let resp = WireFrame::from_image(42, JobId(5), SimDuration::from_millis(12), 3, &image);
        let msg = WireMessage::Response(WireResponse::Frame(Box::new(resp.clone())));
        let back = round_trip(msg);
        let WireMessage::Response(back) = back else {
            panic!("wrong tag")
        };
        assert_eq!(back.request_id(), 42);
        let back = back.into_frame().expect("a frame");
        assert_eq!(back, resp);
        // Quantization round-trip is within 1/255 per channel.
        let reconstructed = back.to_image();
        assert!(reconstructed.max_abs_diff(&image) <= 1.0 / 255.0 + 1e-6);
    }

    /// The libm-free quantizer is `roundf` byte for byte: random pixels,
    /// the non-finite and out-of-range values, and both sides of every
    /// rounding boundary `(k + ½) / 255`.
    #[test]
    fn quantize_matches_roundf() {
        let mut values = vec![f32::NAN, f32::INFINITY, f32::NEG_INFINITY, -0.0, 0.0, 1.0];
        values.extend([
            1.0 + f32::EPSILON,
            1.5,
            255.0,
            -1e-30,
            f32::MAX,
            f32::MIN_POSITIVE,
        ]);
        for k in 0..255u32 {
            let mid = (k as f32 + 0.5) / 255.0;
            values.extend((-2..=2).map(|d| f32::from_bits((mid.to_bits() as i32 + d) as u32)));
        }
        let mut state = 0x5eed_u64;
        values.extend((0..16_384 * 4).map(|_| {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (state >> 40) as f32 / (1u64 << 24) as f32
        }));
        values.resize(values.len().next_multiple_of(4), 0.5);
        let mut image = RgbaImage::transparent(values.len() / 4, 1);
        for (px, chunk) in image.pixels.iter_mut().zip(values.chunks_exact(4)) {
            px.copy_from_slice(chunk);
        }
        let frame = WireFrame::from_image(0, JobId(0), SimDuration::ZERO, 0, &image);
        let want: Vec<u8> = values
            .iter()
            .map(|c| (c.clamp(0.0, 1.0) * 255.0).round() as u8)
            .collect();
        assert_eq!(frame.pixels.to_vec(), want);
    }

    #[test]
    fn overloaded_and_expired_round_trip() {
        for reason in [
            RejectReason::GlobalCap,
            RejectReason::UserCap,
            RejectReason::QueueFull,
            RejectReason::UnknownDataset,
        ] {
            let msg = WireMessage::Response(WireResponse::Overloaded {
                request_id: 11,
                reason,
            });
            assert_eq!(round_trip(msg.clone()), msg);
        }
        for reason in [DropReason::DeadlineExpired, DropReason::Superseded] {
            let msg = WireMessage::Response(WireResponse::Expired {
                request_id: 12,
                reason,
            });
            let back = round_trip(msg.clone());
            assert_eq!(back, msg);
            let WireMessage::Response(resp) = back else {
                panic!("wrong tag")
            };
            assert_eq!(resp.request_id(), 12);
            assert!(resp.into_frame().is_none());
        }
    }

    #[test]
    fn clean_eof_yields_none() {
        let mut cursor = std::io::Cursor::new(Vec::<u8>::new());
        assert!(Codec::new().read(&mut cursor).unwrap().is_none());
    }

    #[test]
    fn oversized_frames_are_rejected() {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&(u32::MAX).to_le_bytes());
        bytes.push(TAG_REQUEST);
        let mut cursor = std::io::Cursor::new(bytes);
        assert!(Codec::new().read(&mut cursor).is_err());
    }

    #[test]
    fn garbage_tags_are_rejected() {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&2u32.to_le_bytes());
        bytes.push(99);
        bytes.push(0);
        let mut cursor = std::io::Cursor::new(bytes);
        assert!(Codec::new().read(&mut cursor).is_err());
    }

    #[test]
    fn multiple_messages_stream_back_to_back() {
        let mut codec = Codec::new();
        let a = WireMessage::Request(sample_request());
        let mut req2 = sample_request();
        req2.request_id = 8;
        let b = WireMessage::Request(req2);
        let mut stream = Vec::new();
        stream.extend_from_slice(&codec.encode(&a).to_bytes());
        stream.extend_from_slice(&codec.encode(&b).to_bytes());
        let mut cursor = std::io::Cursor::new(stream);
        assert_eq!(codec.read(&mut cursor).unwrap().unwrap(), a);
        assert_eq!(codec.read(&mut cursor).unwrap().unwrap(), b);
        assert!(codec.read(&mut cursor).unwrap().is_none());
    }
}
