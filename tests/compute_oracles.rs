//! The compute oracles, run by `cargo test -q`: the FP-ADC's decision
//! path against its recording path, the crossbar and macro property
//! suite (cached vs uncached, batched vs sequential, row-sum vs
//! cell-order array energy), the accelerator's engine, batched,
//! energy and chaos bit-identity suites, and the model registry's
//! lifecycle and template-copy suites (a copied load against a fresh
//! compile). Each module compiles its crate's own test file in place,
//! so there is no copy to drift.

#[path = "../crates/core/tests/chaos_determinism.rs"]
mod chaos_determinism;
#[path = "../crates/circuit/tests/fp_adc_paths.rs"]
mod circuit_fp_adc_paths;
#[path = "../crates/core/tests/energy_sanity.rs"]
mod energy_sanity;
#[path = "../crates/models/tests/registry_lifecycle.rs"]
mod models_registry_lifecycle;
#[path = "../crates/models/tests/template_copy.rs"]
mod models_template_copy;
#[path = "../crates/core/tests/parallel_determinism.rs"]
mod parallel_determinism;
#[path = "../crates/xbar/tests/proptests.rs"]
mod xbar_proptests;
