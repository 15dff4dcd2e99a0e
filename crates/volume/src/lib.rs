//! # vizsched-volume
//!
//! The volumetric-data substrate for vizsched: dense scalar grids,
//! z-slab bricking with ghost layers (the data decomposition of §III-C at
//! the voxel level), procedurally generated stand-ins for the paper's
//! plume / combustion / supernova simulation datasets (Fig. 10), and a
//! raw on-disk format for the live service's chunk store.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod brick;
pub mod grid;
pub mod io;
pub mod skip;
pub mod synth;

pub use brick::{split_z, Brick};
pub use grid::{Scalar, Volume};
pub use skip::MinMaxGrid;
pub use synth::Field;
