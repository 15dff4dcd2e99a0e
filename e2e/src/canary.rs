//! The canary frame's committed appearance.
//!
//! Once per run the bench asks the live service for dataset 0 from a fixed
//! camera and checks the reply two ways: pixel by pixel against the same
//! commit's in-process `render_brick` → `composite` →
//! `WireFrame::from_image`, and — so that "faster by rendering less"
//! fails the run instead of winning it — against the coverage and mean
//! alpha committed here. A change that legitimately alters the picture
//! must update these numbers in its own, reviewed, benchmark change.

/// Largest per-channel difference (of 255) tolerated between the served
/// canary and the in-process reference.
pub const MAX_CHANNEL_DIFF: u8 = 2;

/// Relative tolerance on the committed coverage and mean alpha.
pub const COVERAGE_TOLERANCE: f64 = 0.01;

/// How much of a frame got painted.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Coverage {
    /// Share of pixels that are not fully transparent.
    pub covered: f64,
    /// Mean alpha over all pixels, 0 to 1.
    pub mean_alpha: f64,
}

impl Coverage {
    /// Measure RGBA8 pixels.
    pub fn of(pixels: &[u8]) -> Coverage {
        let alphas = pixels.chunks_exact(4).map(|px| px[3]);
        let n = (pixels.len() / 4).max(1) as f64;
        Coverage {
            covered: alphas.clone().filter(|&a| a > 0).count() as f64 / n,
            mean_alpha: alphas.map(|a| a as f64).sum::<f64>() / (255.0 * n),
        }
    }

    /// Both figures within `tolerance` (relative) of `other`'s.
    pub fn within(&self, other: &Coverage, tolerance: f64) -> bool {
        let close = |a: f64, b: f64| (a - b).abs() <= tolerance * b.abs();
        close(self.covered, other.covered) && close(self.mean_alpha, other.mean_alpha)
    }
}

/// The committed canary appearance of `workload` (dataset 0 is the plume
/// field; the three shapes are 64³ at 128², 64³ at 64², 16³ at 16²).
pub fn committed(workload: &str) -> Coverage {
    let (covered, mean_alpha) = match workload {
        "steady_warm" | "mixed_batch" | "drag_overload" => (0.092_224_12, 0.080_918_97),
        "cold_scan" => (0.091_552_73, 0.080_003_45),
        "plane_small" => (0.082_031_25, 0.057_444_85),
        other => panic!("no canary committed for workload {other}"),
    };
    Coverage {
        covered,
        mean_alpha,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coverage_counts_painted_pixels_and_mean_alpha() {
        // Four pixels: transparent, faint, half, opaque.
        let pixels = [0, 0, 0, 0, 9, 9, 9, 1, 9, 9, 9, 127, 9, 9, 9, 255];
        let c = Coverage::of(&pixels);
        assert_eq!(c.covered, 0.75);
        assert!((c.mean_alpha - (1.0 + 127.0 + 255.0) / (4.0 * 255.0)).abs() < 1e-12);
        assert!(c.within(&c, 0.0));
        let less = Coverage { covered: 0.70, ..c };
        assert!(!less.within(&c, 0.01));
    }
}
