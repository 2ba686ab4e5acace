//! # afpr-models: the model registry for full-network inference serving
//!
//! The serving stack of PRs 2–5 speaks single-layer `matvec` /
//! `forward_batch`; this crate adds the layer that makes the paper's
//! *network-level* results (Tiny-ResNet / Tiny-MobileNet with the
//! E2M5 / E3M4 / INT8 PTQ study, Fig 6c) servable over the wire:
//!
//! - [`ModelKind`] / [`ModelSpec`] ([`spec`]): the named model zoo.
//!   Every model is deterministic in a seed, so two processes that
//!   load `("tiny-resnet", e3m4, seed)` hold bit-identical compiled
//!   macros — the property the cluster pipeline placement builds on.
//! - [`CompiledModel`] ([`compiled`]): one network compiled onto CIM
//!   macros via [`afpr_core::sim::MacroModelSim::compile_with_spec`],
//!   ADC-calibrated, conductance kernels warmed at load, with
//!   [`CompiledModel::infer`] for the full forward pass and
//!   [`CompiledModel::infer_range`] for a contiguous top-level layer
//!   range (the pipeline-parallel building block).
//! - [`ModelRegistry`] ([`registry`]): a thread-safe, capacity-bounded
//!   registry keyed by `(model, format)`. Models load lazily on first
//!   use, cold models are LRU-evicted, a key re-loaded after eviction
//!   keeps a never-served template that its later loads copy instead
//!   of recompiling, and per-model statistics
//!   (loads, evictions, inference counts, macro/weight footprint)
//!   survive eviction and are exported as a serializable
//!   [`RegistrySnapshot`] for the serving tier's observability.
//!
//! Determinism contract: the macro read path draws no randomness, so
//! `infer_range(x, 0, a)` streamed into `infer_range(·, a, layers)` is
//! **bit-identical** to `infer(x)` on the same compiled macros — split
//! points only change where the intermediate activation tensor is
//! materialized, never its bits.

#![forbid(unsafe_code)]

pub mod compiled;
pub mod registry;
pub mod spec;

pub use compiled::{CompiledModel, InferError, ModelEnergy, ModelEntrySnapshot};
pub use registry::{ModelRegistry, RegistryConfig, RegistrySnapshot};
pub use spec::{format_from_wire, format_wire_name, ModelKind, ModelSpec, ALL_FORMATS};
