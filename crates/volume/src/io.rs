//! Raw volume and chunk file I/O: the on-disk format used by the live
//! service's chunk store. The format is a minimal self-describing header
//! (magic, dims, element kind) followed by little-endian voxel data —
//! the moral equivalent of the `.raw` + metadata pairing used by
//! visualization tools.

use crate::grid::Volume;
use std::fs::File;
use std::io::{self, BufReader, BufWriter, Read, Write};
use std::path::Path;

const MAGIC: &[u8; 8] = b"VIZSVOL1";

/// The header's element-kind code for `f32` voxels, the one kind the
/// format carries.
const KIND_F32: u32 = 0;

fn write_header(w: &mut impl Write, dims: [usize; 3]) -> io::Result<()> {
    w.write_all(MAGIC)?;
    w.write_all(&KIND_F32.to_le_bytes())?;
    for d in dims {
        w.write_all(&(d as u64).to_le_bytes())?;
    }
    Ok(())
}

fn read_header(r: &mut impl Read) -> io::Result<([usize; 3], u32)> {
    let mut magic = [0u8; 8];
    r.read_exact(&mut magic)?;
    if &magic != MAGIC {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "not a vizsched volume file",
        ));
    }
    let mut buf4 = [0u8; 4];
    r.read_exact(&mut buf4)?;
    let kind = u32::from_le_bytes(buf4);
    let mut dims = [0usize; 3];
    for d in &mut dims {
        let mut buf8 = [0u8; 8];
        r.read_exact(&mut buf8)?;
        *d = u64::from_le_bytes(buf8) as usize;
    }
    Ok((dims, kind))
}

/// Write an `f32` volume.
pub fn write_f32(path: &Path, v: &Volume<f32>) -> io::Result<()> {
    let mut w = BufWriter::new(File::create(path)?);
    write_header(&mut w, v.dims)?;
    for value in &v.data {
        w.write_all(&value.to_le_bytes())?;
    }
    w.flush()
}

/// Read an `f32` volume.
pub fn read_f32(path: &Path) -> io::Result<Volume<f32>> {
    let mut r = BufReader::new(File::open(path)?);
    let (dims, kind) = read_header(&mut r)?;
    if kind != KIND_F32 {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "expected f32 volume",
        ));
    }
    let len = dims[0] * dims[1] * dims[2];
    let mut data = Vec::with_capacity(len);
    let mut buf = [0u8; 4];
    for _ in 0..len {
        r.read_exact(&mut buf)?;
        data.push(f32::from_le_bytes(buf));
    }
    Ok(Volume {
        dims,
        spacing: [1.0; 3],
        data,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synth::Field;

    #[test]
    fn f32_round_trip() {
        let dir = std::env::temp_dir().join("vizsched-io-test-f32");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("vol.vz");
        let v: Volume<f32> = Field::Shells.sample([9, 7, 5]);
        write_f32(&path, &v).unwrap();
        let back = read_f32(&path).unwrap();
        assert_eq!(back.dims, v.dims);
        assert_eq!(back.data, v.data);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn wrong_magic_rejected() {
        let dir = std::env::temp_dir().join("vizsched-io-test-bad");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bad.vz");
        std::fs::write(&path, b"NOTAVOLUME").unwrap();
        assert!(read_f32(&path).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn kind_mismatch_rejected() {
        let dir = std::env::temp_dir().join("vizsched-io-test-kind");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("vol.vz");
        let v: Volume<f32> = Field::Shells.sample([4, 4, 4]);
        write_f32(&path, &v).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[MAGIC.len()] = 1; // any kind code other than f32's
        std::fs::write(&path, bytes).unwrap();
        assert!(read_f32(&path).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }
}
