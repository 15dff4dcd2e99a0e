//! Integration-test and example host crate.
//!
//! Besides hosting the `/tests` and `/examples` cargo targets, this
//! crate anchors the operator-facing guides in `docs/` as doctests, so
//! `cargo test --doc -p vizsched-integration` compiles and runs every
//! Rust snippet in them. [`parity`] is the rig the sim ≡ live test
//! targets share.

pub mod parity;

#[cfg(doctest)]
#[doc = include_str!("../../../docs/OPERATORS_GUIDE.md")]
pub struct OperatorsGuide;

#[cfg(doctest)]
#[doc = include_str!("../../../docs/SCENARIO_FORMAT.md")]
pub struct ScenarioFormat;
