//! # vizsched-render
//!
//! A software ray-casting volume renderer: the CPU stand-in for the
//! paper's GLSL GPU ray caster (Krüger–Westermann). Front-to-back
//! integration with opacity-corrected transfer functions, early ray
//! termination, empty-space skipping and gradient headlight shading,
//! single-threaded per brick: the parallelism is one brick per node, as in
//! the paper. The reference integrator is generic over a
//! [`raycast::VolumeSampler`], so full volumes and distributed bricks
//! (sort-last tasks) share one definition of the picture;
//! [`raycast::render_brick`] draws a brick's share of it faster ([`skip`])
//! as the depth-tagged [`Layer`]s `vizsched-compositing` merges.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod camera;
pub mod image;
pub mod png;
pub mod ray;
pub mod raycast;
pub mod skip;
pub mod transfer;

pub use camera::Camera;
pub use image::{Rgba, RgbaImage};
pub use png::{save_png, to_png};
pub use ray::{Aabb, Ray};
pub use raycast::{render, render_brick, Layer, RenderSettings};
pub use transfer::{ControlPoint, TransferFunction};
