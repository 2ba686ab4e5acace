//! The compute oracles, run by `cargo test -q`: the crossbar and macro
//! property suite (cached vs uncached, batched vs sequential), and the
//! accelerator's engine, batched, energy and chaos bit-identity suites.
//! Each module compiles its crate's own test file in place, so there is
//! no copy to drift.

#[path = "../crates/core/tests/chaos_determinism.rs"]
mod chaos_determinism;
#[path = "../crates/core/tests/energy_sanity.rs"]
mod energy_sanity;
#[path = "../crates/core/tests/parallel_determinism.rs"]
mod parallel_determinism;
#[path = "../crates/xbar/tests/proptests.rs"]
mod xbar_proptests;
