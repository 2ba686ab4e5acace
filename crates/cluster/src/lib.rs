//! # afpr-cluster — horizontally scalable serving tier
//!
//! A coordinator/router process that fronts N [`afpr_serve`] backends
//! and exposes the *same* length-prefixed wire protocol (binary
//! data-plane frames, JSON for control ops and hand-written clients,
//! each request answered in its own encoding), so the
//! existing [`afpr_serve::Client`], [`afpr_serve::RetryingClient`] and
//! the `loadgen` binary work against a cluster unchanged.
//!
//! Three placement modes ([`Placement`]):
//!
//! * **Replicated** — every backend serves the full model. The router
//!   picks the least-outstanding-requests eligible replica, consumes
//!   backend health (`Draining` replicas are not selected, dead ones
//!   are ejected and revived by a background prober), and re-dispatches
//!   an in-flight request to another replica on connection loss, all
//!   within the caller's original deadline.
//! * **Sharded** — the layer's input dimension is split into
//!   contiguous, row-tile-aligned shards, each held by R replicas
//!   ([`ReplicatedShardPlan`]); each matvec is scatter-gathered via the
//!   `matvec_partial` protocol op from the least-outstanding healthy
//!   replica of every shard, and the per-tile partials are reduced
//!   with [`afpr_xbar::PartialSumAdder::sum_into`] in row-tile order,
//!   which makes the cluster result **bit-identical** to a single-node
//!   [`afpr_core::AfprAccelerator::matvec`] of the same layer — no
//!   matter which replica served each shard, and across mid-request
//!   failover to a sibling replica.
//! * **Pipeline** — full-model `infer` requests are split along the
//!   *depth* axis ([`PipelinePlan`]): stage *i* runs a contiguous
//!   range of the model's top-level layers on backend *i* (every
//!   backend holds a registry compiled from the same seed), and the
//!   router streams each stage's activation into the next via the
//!   `infer` op's `layer_start`/`layer_end` fields. Stage boundaries
//!   are exactly the points where the single-node forward pass
//!   materializes an activation tensor, so the pipelined result is
//!   **bit-identical** to a single-node `infer` of the same model.
//!
//! ## Elastic membership
//!
//! Replicated and sharded routers accept `Op::Register` and
//! `Op::Deregister` on the wire: backends join and leave a *running*
//! router. A join re-runs the startup handshake against the pool
//! [`Fingerprint`] (protocol, dims, row-tile height, registry seed,
//! catalog), so a backend restarted with different weights is refused
//! rather than silently served. Every capacity change — join, leave,
//! ejection, revival — atomically swaps in a freshly computed
//! [`ReplicatedShardPlan`] between scatter rounds; in-flight rounds
//! drain on the plan they started with. [`MembershipEvents`] counts
//! the churn.
//!
//! ## Transports
//!
//! [`ClusterConfig::transport`] selects the blocking worker pool or
//! the epoll reactor. Both drive the same socket-free dispatch core:
//! one admission step and one state machine per placement, fed
//! sub-call responses and transport failures with the current instant.
//! Replica picks, ejection, retry hints, energy credits, the
//! shard-order reduction and every response text are written there
//! once, so the transports answer byte-identically.
//!
//! ## Quickstart
//!
//! ```no_run
//! use afpr_cluster::{ClusterConfig, Placement, Router};
//!
//! // Two afpr-serve backends already listening on these addresses.
//! let cfg = ClusterConfig::new(
//!     "127.0.0.1:0",
//!     &["127.0.0.1:7001".into(), "127.0.0.1:7002".into()],
//!     Placement::Replicated,
//! );
//! let router = Router::start(cfg).expect("router starts");
//! println!("cluster listening on {}", router.local_addr());
//! // ... point any afpr_serve::Client at router.local_addr() ...
//! let summary = router.shutdown();
//! println!("{}", summary.to_json_pretty());
//! ```
#![forbid(unsafe_code)]

pub mod backend;
pub(crate) mod dispatch;
pub(crate) mod event_router;
pub mod metrics;
pub mod plan;
pub mod router;

pub use afpr_power::{EnergyRoutingPolicy, PowerSnapshot};
pub use backend::{spawn_prober, BackendPool, BackendSnapshot, BackendState, Fingerprint, SeedPin};
pub use metrics::{ClusterMetrics, ClusterSnapshot, MembershipEvents, ModelInferSnapshot};
pub use plan::{PipeStage, PipelinePlan, ReplicaShard, ReplicatedShardPlan, Shard, ShardPlan};
pub use router::{ClusterConfig, Placement, Router};
