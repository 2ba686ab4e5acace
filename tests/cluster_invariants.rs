//! The cluster checks run by `cargo test -q`, against real loopback
//! sockets: sharded admission on both router transports, and the
//! front-door conformance suite on every tier × transport pair. Each
//! module compiles the cluster crate's own test file in place, so
//! there is no copy to drift.

#[path = "../crates/cluster/tests/front_door.rs"]
mod front_door;
#[path = "../crates/cluster/tests/sharded_admission.rs"]
mod sharded_admission;
