//! Extension experiment: modelled interconnect cost of the compositing
//! algorithms (the §II-A motivation for binary/2-3 swap over direct-send,
//! quantified without hardware). Each rank's messages are charged to a
//! latency/bandwidth link model; the per-rank maximum communication span
//! bounds the compositing critical path.
//!
//! ```text
//! cargo run --release -p vizsched-bench --bin compositing_model
//! ```

use vizsched_bench::harness::Cli;
use vizsched_compositing::{
    binary_swap, swap23, Communicator, ImagePart, InProcComm, LinkModel, ModelledComm,
};
use vizsched_core::time::SimDuration;
use vizsched_render::RgbaImage;

const BYTES_PER_PIXEL: u64 = 16;

fn layers(p: usize, w: usize, h: usize) -> Vec<RgbaImage> {
    (0..p)
        .map(|i| {
            let mut img = RgbaImage::transparent(w, h);
            for (j, px) in img.pixels.iter_mut().enumerate() {
                let a = 0.2 + 0.6 * (((i * 13 + j * 7) % 89) as f32 / 88.0);
                *px = [a * 0.5, a * 0.3, a * 0.2, a];
            }
            img
        })
        .collect()
}

/// Run a per-rank algorithm under the link model; return the worst-rank
/// communication span and the total bytes moved.
fn measure<F>(images: Vec<RgbaImage>, link: LinkModel, per_rank: F) -> (SimDuration, u64)
where
    F: Fn(&mut ModelledComm<InProcComm>, RgbaImage) -> Option<RgbaImage> + Send + Sync,
{
    let comms = InProcComm::create(images.len());
    std::thread::scope(|scope| {
        let per_rank = &per_rank;
        let mut handles = Vec::new();
        for (comm, image) in comms.into_iter().zip(images) {
            handles.push(scope.spawn(move || {
                let mut modelled = ModelledComm::new(comm, link);
                let _ = per_rank(&mut modelled, image);
                (modelled.comm_span(), modelled.bytes_sent())
            }));
        }
        let mut worst = SimDuration::ZERO;
        let mut total = 0u64;
        for handle in handles {
            let (span, bytes) = handle.join().expect("rank thread");
            worst = worst.max(span);
            total += bytes;
        }
        (worst, total)
    })
}

/// Direct send: ranks 1..p each ship their full layer to rank 0.
fn direct_send(comm: &mut ModelledComm<InProcComm>, image: RgbaImage) -> Option<RgbaImage> {
    const TAG: u32 = 0;
    if comm.rank() == 0 {
        let mut acc = image;
        for from in 1..comm.size() {
            let part = comm.recv_from(from, TAG);
            let front = RgbaImage {
                width: acc.width,
                height: acc.height,
                pixels: part.pixels,
            };
            // Order is wrong in general; for cost measurement it is moot.
            acc.under(&front);
        }
        Some(acc)
    } else {
        comm.send(
            0,
            TAG,
            ImagePart {
                start: 0,
                pixels: image.pixels,
            },
        );
        None
    }
}

type Algo =
    Box<dyn Fn(&mut ModelledComm<InProcComm>, RgbaImage) -> Option<RgbaImage> + Send + Sync>;

fn main() {
    Cli::parse(&[]);
    let (w, h) = (1024usize, 1024usize);
    println!(
        "== Modelled compositing cost, {w}x{h} frame ({} MB/layer) ==\n",
        ((w * h) as u64 * BYTES_PER_PIXEL) >> 20
    );
    println!(
        "{:>6} {:>12} | {:>14} {:>12} | {:>14} {:>12}",
        "ranks", "algorithm", "GigE span", "MB moved", "IB span", "MB moved"
    );
    for p in [4usize, 8, 16, 64] {
        let algos: Vec<(&str, Algo)> = vec![
            ("direct", Box::new(direct_send)),
            (
                "binary-swap",
                Box::new(|c: &mut ModelledComm<InProcComm>, i| binary_swap(c, i)),
            ),
            (
                "2-3 swap",
                Box::new(|c: &mut ModelledComm<InProcComm>, i| swap23(c, i)),
            ),
        ];
        for (name, algo) in algos {
            let (gige, bytes) = measure(layers(p, w, h), LinkModel::gigabit(), &algo);
            let (ib, _) = measure(layers(p, w, h), LinkModel::infiniband(), &algo);
            println!(
                "{:>6} {:>12} | {:>14} {:>9} MB | {:>14} {:>9} MB",
                p,
                name,
                format!("{gige}"),
                bytes >> 20,
                format!("{ib}"),
                bytes >> 20,
            );
        }
    }
    println!(
        "\nExpected shape: direct-send's root span grows linearly with ranks; \
         the swap algorithms' per-rank span stays near one frame's transfer \
         time regardless of rank count — why the paper composites with 2-3 swap."
    );
}
