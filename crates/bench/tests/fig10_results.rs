//! The committed Fig. 10 images are `fig10_images`' current output: each
//! `results/fig10-*.png` is a PNG a reader accepts (the full 8-byte
//! signature) whose IHDR says 384×384, the size the bin renders.

const SIGNATURE: &[u8; 8] = b"\x89PNG\r\n\x1a\n";

#[test]
fn committed_fig10_pngs_are_valid_384_square_pngs() {
    let results = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
    for name in ["plume", "combustion", "supernova"] {
        let path = results.join(format!("fig10-{name}.png"));
        let png = std::fs::read(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
        assert!(png.starts_with(SIGNATURE), "{name}: no PNG signature");
        // The first chunk: length 13, type IHDR, then width and height.
        assert_eq!(&png[8..16], b"\0\0\0\x0dIHDR", "{name}: IHDR is not first");
        let dim = |at: usize| u32::from_be_bytes(png[at..at + 4].try_into().expect("4 bytes"));
        assert_eq!((dim(16), dim(20)), (384, 384), "{name}: IHDR size");
    }
}
