//! Offline stand-in for `crossbeam`: MPMC channels with the subset of the
//! `crossbeam-channel` API this workspace uses (`unbounded`, `bounded`,
//! `select!` with a `default(timeout)` arm, timeouts).

pub mod channel;
