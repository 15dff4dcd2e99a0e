//! Offline stand-in for `crossbeam`: MPMC channels with the subset of the
//! `crossbeam-channel` API this workspace uses (`unbounded`, `bounded`,
//! timeouts, and a blocking `Select` over several receivers).

pub mod channel;
