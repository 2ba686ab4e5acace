//! `afpr-runtime` — parallel tiled execution engine for the AFPR-CIM
//! simulator: a persistent worker pool ([`Engine`]), a micro-batching
//! request queue ([`MicroBatcher`]), and built-in runtime metrics
//! ([`RuntimeMetrics`]).
//!
//! # Why a runtime layer
//!
//! The AFPR-CIM accelerator executes a layer as a grid of independent
//! tile jobs: each 576×256 CIM macro computes a partial matvec on its
//! row/column slice, and the inter-core routing adder combines row-tile
//! partials (paper §III-A). The tiles are *share-nothing* — every
//! behavioral macro owns its device arrays, its readout statistics and
//! its noise RNG — so they can run on different threads with **bit-
//! identical** results, provided the partial sums are reduced in the
//! same fixed order as the sequential path. [`Engine::execute`] is
//! exactly that contract: an order-preserving parallel map.
//!
//! # Determinism contract
//!
//! For a fixed seed, `AfprAccelerator::forward_batch` (in
//! `afpr-core`) produces bit-identical outputs *and* identical
//! energy/statistics to one `matvec` per sample, for any worker count.
//! This holds because:
//!
//! 1. each macro's RNG stream advances only inside that macro's own
//!    jobs, and jobs are issued once per macro in a fixed order;
//! 2. results return in submission order, so each sample's row-tile
//!    partials reach the adder in the same order, and the reduction
//!    replays the engine-free float-addition order exactly.
//!
//! # Quick start
//!
//! ```
//! use afpr_runtime::{BatchConfig, Engine, EngineConfig, MicroBatcher};
//!
//! // Worker pool sized from available_parallelism().
//! let engine = Engine::new(EngineConfig::default());
//! let doubled = engine.execute(vec![1u32, 2, 3], |x| 2 * x);
//! assert_eq!(doubled, vec![2, 4, 6]);
//!
//! // Micro-batching front door for a serving loop.
//! let batcher = MicroBatcher::with_metrics(
//!     BatchConfig { batch_size: 2, ..BatchConfig::default() },
//!     std::sync::Arc::clone(engine.metrics()),
//! );
//! batcher.try_submit(41u32).unwrap();
//! batcher.close();
//! assert_eq!(batcher.next_batch(), Some(vec![41]));
//!
//! println!("{}", engine.metrics().snapshot().to_json_pretty());
//! ```

#![forbid(unsafe_code)]

pub mod batch;
pub mod engine;
pub mod metrics;

pub use batch::{BatchConfig, MicroBatcher, QueueFull};
pub use engine::{Engine, EngineConfig, JobError};
pub use metrics::{
    Histogram, LatencySnapshot, LayerSnapshot, MetricsSnapshot, RejectReason, RejectionSnapshot,
    RuntimeMetrics,
};
