//! # vizsched-bench
//!
//! The experiment harness: shared glue for the per-figure binaries and
//! self-timed benches in `src/bin/`. Every table and figure of the
//! paper's evaluation has a dedicated binary; see `DESIGN.md` for the
//! experiment index.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod experiments;
pub mod harness;
