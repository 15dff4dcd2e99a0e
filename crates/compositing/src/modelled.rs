//! A latency/bandwidth-modelled communicator: wraps any transport and
//! *accounts* the virtual network time each rank's messages would take on a
//! real interconnect. Compositing algorithms run unchanged; afterwards each
//! endpoint reports the modelled communication time, so the swap-family's
//! bandwidth advantage over direct-send can be quantified without hardware
//! (the §II-A argument that compositing "can become very expensive because
//! of the potentially large amount of messages exchanged").

use crate::comm::{Communicator, ImagePart};
use vizsched_core::time::SimDuration;

/// Interconnect parameters.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LinkModel {
    /// Per-message latency.
    pub latency: SimDuration,
    /// Link bandwidth in bytes per second.
    pub bandwidth: u64,
}

impl LinkModel {
    /// Gigabit Ethernet: ~50 µs latency, ~110 MB/s effective.
    pub fn gigabit() -> Self {
        LinkModel {
            latency: SimDuration::from_micros(50),
            bandwidth: 110 * (1 << 20),
        }
    }

    /// DDR InfiniBand of the paper's era: ~2 µs latency, ~1.5 GB/s.
    pub fn infiniband() -> Self {
        LinkModel {
            latency: SimDuration::from_micros(2),
            bandwidth: 1536 * (1 << 20),
        }
    }

    /// Modelled time to move `bytes` over this link.
    pub fn transfer_time(&self, bytes: u64) -> SimDuration {
        assert!(self.bandwidth > 0, "bandwidth must be positive");
        let micros = (bytes as u128 * 1_000_000 / self.bandwidth as u128) as u64;
        self.latency + SimDuration::from_micros(micros)
    }
}

/// A communicator that forwards to an inner transport while accumulating the
/// modelled cost of every byte it sends and receives.
pub struct ModelledComm<C> {
    inner: C,
    link: LinkModel,
    send_time: SimDuration,
    recv_time: SimDuration,
    bytes_sent: u64,
}

const BYTES_PER_PIXEL: u64 = 16; // four f32 channels

impl<C: Communicator> ModelledComm<C> {
    /// Wrap `inner` with the given link model.
    pub fn new(inner: C, link: LinkModel) -> Self {
        ModelledComm {
            inner,
            link,
            send_time: SimDuration::ZERO,
            recv_time: SimDuration::ZERO,
            bytes_sent: 0,
        }
    }

    /// Total payload bytes sent.
    pub fn bytes_sent(&self) -> u64 {
        self.bytes_sent
    }

    /// The higher of send/receive time: a serial-link lower bound on this
    /// rank's communication span.
    pub fn comm_span(&self) -> SimDuration {
        self.send_time.max(self.recv_time)
    }
}

impl<C: Communicator> Communicator for ModelledComm<C> {
    fn rank(&self) -> usize {
        self.inner.rank()
    }

    fn size(&self) -> usize {
        self.inner.size()
    }

    fn send(&mut self, to: usize, tag: u32, part: ImagePart) {
        let bytes = part.pixels.len() as u64 * BYTES_PER_PIXEL;
        self.bytes_sent += bytes;
        self.send_time += self.link.transfer_time(bytes);
        self.inner.send(to, tag, part);
    }

    fn recv_from(&mut self, from: usize, tag: u32) -> ImagePart {
        let part = self.inner.recv_from(from, tag);
        let bytes = part.pixels.len() as u64 * BYTES_PER_PIXEL;
        self.recv_time += self.link.transfer_time(bytes);
        part
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::{binary_swap, composite_reference};
    use crate::comm::InProcComm;
    use vizsched_render::RgbaImage;

    fn layers(p: usize, w: usize, h: usize) -> Vec<RgbaImage> {
        (0..p)
            .map(|i| {
                let mut img = RgbaImage::transparent(w, h);
                for (j, px) in img.pixels.iter_mut().enumerate() {
                    let a = 0.3 + 0.4 * (((i + j) % 5) as f32 / 4.0);
                    *px = [a * 0.6, a * 0.2, a * 0.1, a];
                }
                img
            })
            .collect()
    }

    /// Run binary swap under the model and return (result, per-rank spans,
    /// per-rank bytes).
    fn run_modelled(
        images: Vec<RgbaImage>,
        link: LinkModel,
    ) -> (RgbaImage, Vec<SimDuration>, Vec<u64>) {
        let comms = InProcComm::create(images.len());
        std::thread::scope(|scope| {
            let mut handles = Vec::new();
            for (comm, image) in comms.into_iter().zip(images) {
                handles.push(scope.spawn(move || {
                    let mut modelled = ModelledComm::new(comm, link);
                    let out = binary_swap(&mut modelled, image);
                    (out, modelled.comm_span(), modelled.bytes_sent())
                }));
            }
            let mut result = None;
            let mut spans = Vec::new();
            let mut bytes = Vec::new();
            for handle in handles {
                let (out, span, sent) = handle.join().expect("rank thread");
                if let Some(img) = out {
                    result = Some(img);
                }
                spans.push(span);
                bytes.push(sent);
            }
            (result.expect("root image"), spans, bytes)
        })
    }

    #[test]
    fn wrapping_does_not_change_the_image() {
        let images = layers(4, 16, 16);
        let expect = composite_reference(&images);
        let (got, _, _) = run_modelled(images, LinkModel::gigabit());
        assert!(got.max_abs_diff(&expect) < 1e-5);
    }

    #[test]
    fn swap_moves_less_data_than_direct_send_would() {
        // Direct send: p-1 ranks each ship a full image to the root.
        let p = 8;
        let (w, h) = (64, 64);
        let full_image_bytes = (w * h) as u64 * BYTES_PER_PIXEL;
        let direct_total = (p as u64 - 1) * full_image_bytes;
        let (_, _, bytes) = run_modelled(layers(p, w, h), LinkModel::gigabit());
        let swap_total: u64 = bytes.iter().sum();
        // Binary swap sends sum_r p * (image / 2^r)-ish per round plus the
        // gather; per *rank* it is ~(1 - 1/p + 1/p) images, so the total is
        // close to p images — but the per-rank maximum is what bounds the
        // critical path, and it is far below a full gather at the root.
        let max_rank = *bytes.iter().max().unwrap();
        assert!(
            max_rank < direct_total / 2,
            "per-rank traffic {max_rank} should be far below the root's {direct_total}"
        );
        assert!(swap_total > 0);
    }

    #[test]
    fn infiniband_beats_gigabit() {
        let images = layers(8, 64, 64);
        let (_, gige, _) = run_modelled(images.clone(), LinkModel::gigabit());
        let (_, ib, _) = run_modelled(images, LinkModel::infiniband());
        let worst_gige = gige.iter().max().unwrap();
        let worst_ib = ib.iter().max().unwrap();
        assert!(
            worst_ib.as_micros() * 5 < worst_gige.as_micros(),
            "InfiniBand span {worst_ib} should be well under GigE {worst_gige}"
        );
    }

    #[test]
    fn transfer_time_is_latency_plus_bandwidth() {
        let link = LinkModel {
            latency: SimDuration::from_micros(10),
            bandwidth: 1 << 20,
        };
        assert_eq!(link.transfer_time(0), SimDuration::from_micros(10));
        assert_eq!(
            link.transfer_time(1 << 20),
            SimDuration::from_micros(10) + SimDuration::from_secs(1)
        );
    }
}
