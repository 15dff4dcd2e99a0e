//! A convenience driver that runs a swap algorithm across threads — one
//! thread per "rendering node" — and returns the final frame. It serves
//! the single-process examples, tests, and benches, which is where the
//! paper's 2-3 swap is reproduced; the live service's head already holds
//! every layer, so it calls [`composite`] with
//! [`CompositeAlgo::DirectSend`], the plain front-to-back fold.

use crate::algorithms::{binary_swap, composite_reference, factor_23, swap_compositing};
use crate::comm::InProcComm;
use crate::order::sort_by_visibility;
use vizsched_render::{Layer, RgbaImage};

/// The available compositing strategies.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CompositeAlgo {
    /// Every node sends its full layer to the root, which folds
    /// front-to-back. Simple, but root-bound — the baseline swap methods
    /// beat.
    DirectSend,
    /// Binary swap (Ma et al. 1994); layer count must be a power of two.
    BinarySwap,
    /// 2-3 swap (Yu et al. 2008); layer count must be `2^a · 3^b`.
    Swap23,
    /// Whatever fits: 2-3 swap when the count allows, else direct send.
    Auto,
}

/// Composite depth-tagged layers into the final frame.
///
/// ```
/// use vizsched_compositing::{composite, CompositeAlgo};
/// use vizsched_render::{Layer, RgbaImage};
///
/// let layers: Vec<Layer> = (0..4)
///     .map(|i| Layer { image: RgbaImage::transparent(8, 8), depth: i as f32 })
///     .collect();
/// let frame = composite(layers, CompositeAlgo::BinarySwap);
/// assert_eq!((frame.width, frame.height), (8, 8));
/// ```
pub fn composite(layers: Vec<Layer>, algo: CompositeAlgo) -> RgbaImage {
    assert!(!layers.is_empty(), "need at least one layer");
    let layers = sort_by_visibility(layers);
    let p = layers.len();
    let images: Vec<RgbaImage> = layers.into_iter().map(|l| l.image).collect();

    let effective = match algo {
        CompositeAlgo::Auto => {
            if p > 1 && factor_23(p).is_some() {
                CompositeAlgo::Swap23
            } else {
                CompositeAlgo::DirectSend
            }
        }
        other => other,
    };

    match effective {
        CompositeAlgo::DirectSend => composite_reference(&images),
        CompositeAlgo::BinarySwap => {
            assert!(p.is_power_of_two(), "binary swap needs 2^k layers, got {p}");
            run_threaded(images, binary_swap)
        }
        CompositeAlgo::Swap23 => {
            let factors =
                factor_23(p).unwrap_or_else(|| panic!("2-3 swap needs 2^a*3^b layers, got {p}"));
            run_threaded(images, move |comm, img| {
                swap_compositing(comm, img, &factors)
            })
        }
        CompositeAlgo::Auto => unreachable!("resolved above"),
    }
}

fn run_threaded<F>(images: Vec<RgbaImage>, per_rank: F) -> RgbaImage
where
    F: Fn(&mut InProcComm, RgbaImage) -> Option<RgbaImage> + Send + Sync,
{
    let comms = InProcComm::create(images.len());
    std::thread::scope(|scope| {
        let per_rank = &per_rank;
        let mut handles = Vec::new();
        for (mut comm, image) in comms.into_iter().zip(images) {
            handles.push(scope.spawn(move || per_rank(&mut comm, image)));
        }
        let mut result = None;
        for handle in handles {
            if let Some(img) = handle.join().expect("compositing thread panicked") {
                assert!(result.is_none(), "only the root returns an image");
                result = Some(img);
            }
        }
        result.expect("root produced the final image")
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use vizsched_render::image::over;
    use vizsched_render::Rgba;

    /// Deterministic pseudo-random translucent layers.
    fn fake_layers(count: usize, width: usize, height: usize) -> Vec<Layer> {
        (0..count)
            .map(|i| {
                let mut image = RgbaImage::transparent(width, height);
                for (j, px) in image.pixels.iter_mut().enumerate() {
                    let h = (i * 31 + j * 17) % 97;
                    let a = 0.2 + 0.6 * (h as f32 / 96.0);
                    *px = [
                        a * ((i + 1) as f32 / count as f32),
                        a * (j % 7) as f32 / 7.0,
                        a * 0.5,
                        a,
                    ];
                }
                // Shuffled depths so visibility order != input order.
                Layer {
                    image,
                    depth: ((i * 7) % count) as f32 + 0.5,
                }
            })
            .collect()
    }

    fn assert_images_close(a: &RgbaImage, b: &RgbaImage, tol: f32) {
        assert_eq!(a.width, b.width);
        assert_eq!(a.height, b.height);
        let d = a.max_abs_diff(b);
        assert!(d <= tol, "images differ by {d}");
    }

    fn reference(layers: &[Layer]) -> RgbaImage {
        let sorted = sort_by_visibility(layers.to_vec());
        let images: Vec<RgbaImage> = sorted.into_iter().map(|l| l.image).collect();
        composite_reference(&images)
    }

    #[test]
    fn binary_swap_matches_reference() {
        for p in [2usize, 4, 8, 16] {
            let layers = fake_layers(p, 13, 7);
            let expect = reference(&layers);
            let got = composite(layers, CompositeAlgo::BinarySwap);
            assert_images_close(&got, &expect, 1e-5);
        }
    }

    #[test]
    fn swap23_matches_reference_for_mixed_radix() {
        for p in [2usize, 3, 6, 9, 12, 24] {
            let layers = fake_layers(p, 10, 9);
            let expect = reference(&layers);
            let got = composite(layers, CompositeAlgo::Swap23);
            assert_images_close(&got, &expect, 1e-5);
        }
    }

    #[test]
    fn auto_falls_back_to_direct_send() {
        // p = 5 has no 2-3 factorization.
        let layers = fake_layers(5, 6, 6);
        let expect = reference(&layers);
        let got = composite(layers, CompositeAlgo::Auto);
        assert_images_close(&got, &expect, 1e-6);
    }

    #[test]
    fn single_layer_passes_through() {
        let layers = fake_layers(1, 4, 4);
        let expect = layers[0].image.clone();
        let got = composite(layers, CompositeAlgo::Auto);
        assert_images_close(&got, &expect, 0.0);
    }

    #[test]
    fn over_fold_order_matters_and_is_respected() {
        // Two opaque layers: only the front one should be visible.
        let mut front = RgbaImage::transparent(1, 1);
        front.pixels[0] = [1.0, 0.0, 0.0, 1.0];
        let mut back = RgbaImage::transparent(1, 1);
        back.pixels[0] = [0.0, 1.0, 0.0, 1.0];
        // Given in back-to-front order; depths say otherwise.
        let layers = vec![
            Layer {
                image: back,
                depth: 9.0,
            },
            Layer {
                image: front.clone(),
                depth: 1.0,
            },
        ];
        let out = composite(layers, CompositeAlgo::BinarySwap);
        assert_eq!(out.pixels[0], front.pixels[0]);
    }

    #[test]
    fn premultiplied_over_sanity() {
        let a: Rgba = [0.3, 0.0, 0.0, 0.3];
        let b: Rgba = [0.0, 0.4, 0.0, 0.4];
        let c = over(a, b);
        assert!((c[3] - (0.3 + 0.4 * 0.7)).abs() < 1e-6);
    }
}
