//! The cluster checks run by `cargo test -q`: sharded admission on
//! both router transports, against real loopback backends. The module
//! compiles the cluster crate's own test file in place, so there is no
//! copy to drift.

#[path = "../crates/cluster/tests/sharded_admission.rs"]
mod sharded_admission;
