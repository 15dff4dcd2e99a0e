//! Float RGBA images with premultiplied alpha — the unit of exchange in
//! sort-last compositing — plus PPM export for the Fig. 10 renders.

/// One pixel: premultiplied RGBA in `[0, 1]`.
pub type Rgba = [f32; 4];

/// `front` over `back` for premultiplied RGBA.
#[inline]
pub fn over(front: Rgba, back: Rgba) -> Rgba {
    let t = 1.0 - front[3];
    [
        front[0] + back[0] * t,
        front[1] + back[1] * t,
        front[2] + back[2] * t,
        front[3] + back[3] * t,
    ]
}

/// A dense RGBA image.
#[derive(Clone, Debug, PartialEq)]
pub struct RgbaImage {
    /// Width in pixels.
    pub width: usize,
    /// Height in pixels.
    pub height: usize,
    /// Row-major pixels, premultiplied alpha.
    pub pixels: Vec<Rgba>,
}

impl RgbaImage {
    /// A fully transparent image.
    pub fn transparent(width: usize, height: usize) -> Self {
        RgbaImage {
            width,
            height,
            pixels: vec![[0.0; 4]; width * height],
        }
    }

    /// Pixel count.
    pub fn len(&self) -> usize {
        self.pixels.len()
    }

    /// True for a zero-sized image.
    pub fn is_empty(&self) -> bool {
        self.pixels.is_empty()
    }

    /// Pixel accessor.
    #[inline]
    pub fn at(&self, x: usize, y: usize) -> Rgba {
        self.pixels[y * self.width + x]
    }

    /// Mutable pixel accessor.
    #[inline]
    pub fn at_mut(&mut self, x: usize, y: usize) -> &mut Rgba {
        &mut self.pixels[y * self.width + x]
    }

    /// Composite `front` over `self`, in place. Dimensions must match.
    pub fn under(&mut self, front: &RgbaImage) {
        assert_eq!(self.width, front.width, "image width mismatch");
        assert_eq!(self.height, front.height, "image height mismatch");
        for (b, f) in self.pixels.iter_mut().zip(&front.pixels) {
            *b = over(*f, *b);
        }
    }

    /// Mean alpha — a cheap "how much got rendered" measure for tests.
    pub fn coverage(&self) -> f64 {
        if self.pixels.is_empty() {
            return 0.0;
        }
        self.pixels.iter().map(|p| p[3] as f64).sum::<f64>() / self.pixels.len() as f64
    }

    /// Encode as a binary PPM (P6) over a white background.
    pub fn to_ppm(&self) -> Vec<u8> {
        let mut out = format!("P6\n{} {}\n255\n", self.width, self.height).into_bytes();
        out.reserve(self.len() * 3);
        for p in &self.pixels {
            // Un-premultiplied composite over white.
            let t = 1.0 - p[3];
            for &channel in &p[..3] {
                let v = (channel + t).clamp(0.0, 1.0);
                out.push((v * 255.0).round() as u8);
            }
        }
        out
    }

    /// Write a PPM file.
    pub fn save_ppm(&self, path: &std::path::Path) -> std::io::Result<()> {
        std::fs::write(path, self.to_ppm())
    }

    /// Maximum absolute channel difference to another image.
    pub fn max_abs_diff(&self, other: &RgbaImage) -> f32 {
        assert_eq!(self.pixels.len(), other.pixels.len(), "image size mismatch");
        self.pixels
            .iter()
            .zip(&other.pixels)
            .flat_map(|(a, b)| (0..4).map(move |i| (a[i] - b[i]).abs()))
            .fold(0.0, f32::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn over_is_identity_on_transparent_front() {
        let back = [0.2, 0.3, 0.4, 0.5];
        assert_eq!(over([0.0; 4], back), back);
    }

    #[test]
    fn over_with_opaque_front_hides_back() {
        let front = [0.9, 0.1, 0.2, 1.0];
        assert_eq!(over(front, [0.5, 0.5, 0.5, 1.0]), front);
    }

    #[test]
    fn over_is_associative() {
        let a = [0.1, 0.0, 0.0, 0.3];
        let b = [0.0, 0.2, 0.0, 0.5];
        let c = [0.0, 0.0, 0.3, 0.7];
        let left = over(over(a, b), c);
        let right = over(a, over(b, c));
        for i in 0..4 {
            assert!((left[i] - right[i]).abs() < 1e-6, "channel {i}");
        }
    }

    #[test]
    fn under_composites_in_place() {
        let mut back = RgbaImage::transparent(2, 2);
        *back.at_mut(0, 0) = [0.0, 0.0, 0.5, 0.5];
        let mut front = RgbaImage::transparent(2, 2);
        *front.at_mut(0, 0) = [0.5, 0.0, 0.0, 0.5];
        back.under(&front);
        let px = back.at(0, 0);
        assert!((px[0] - 0.5).abs() < 1e-6);
        assert!((px[2] - 0.25).abs() < 1e-6);
        assert!((px[3] - 0.75).abs() < 1e-6);
    }

    #[test]
    fn ppm_has_correct_size_and_header() {
        let img = RgbaImage::transparent(3, 2);
        let ppm = img.to_ppm();
        assert!(ppm.starts_with(b"P6\n3 2\n255\n"));
        assert_eq!(ppm.len(), 11 + 18);
        // Transparent over white is white.
        assert_eq!(ppm[11], 255);
    }

    #[test]
    fn coverage_counts_alpha() {
        let mut img = RgbaImage::transparent(2, 1);
        *img.at_mut(0, 0) = [0.0, 0.0, 0.0, 1.0];
        assert!((img.coverage() - 0.5).abs() < 1e-9);
    }
}
