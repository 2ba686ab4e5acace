//! # afpr-serve: networked inference service for the AFPR accelerator
//!
//! This crate turns the in-process AFPR-CIM simulator into a small,
//! dependency-free TCP inference service:
//!
//! - **Wire protocol** ([`protocol`]): length-prefixed frames (u32
//!   big-endian length + payload). The data-plane ops (`matvec`,
//!   `forward_batch`, `matvec_partial`, `infer`) travel as binary
//!   payloads with raw little-endian floats; every op, including the
//!   control ops `health`, `metrics`, `shutdown`, also speaks JSON, and
//!   each request is answered in its own encoding. HTTP-flavored status
//!   codes (`200 ok`, `400 malformed`, `503 overloaded`/`shutting_down`,
//!   `504 deadline_expired`).
//! - **Front door** ([`front`]): the client-facing connection layer,
//!   written once per transport (a blocking worker pool or one epoll
//!   loop) and run by both the server and the cluster router.
//! - **Server** ([`server`]): acceptor thread + fixed connection
//!   worker pool + one execution thread that owns the accelerator and
//!   drains a bounded [`afpr_runtime::MicroBatcher`]. Admission control
//!   maps queue saturation to structured `503 overloaded` responses
//!   with a `retry_after_ms` hint, and per-request deadlines are
//!   enforced both at admission and again just before execution.
//! - **Client** ([`client`]): blocking typed client with a raw
//!   [`Client::send`]/[`Client::recv`] layer for pipelined load
//!   generation.
//! - **Metrics** ([`metrics`]): per-endpoint request counters and
//!   latency histograms layered on the engine's
//!   [`afpr_runtime::RuntimeMetrics`], including the rejection-reason
//!   breakdown (`queue_full`, `deadline_expired`, `malformed`).
//!
//! Because a single execution thread drains batches in submission
//! order and [`afpr_core::AfprAccelerator::forward_batch`] is
//! bit-identical to per-sample `matvec` calls regardless of batch
//! partitioning, the outputs a client observes are **bit-identical**
//! to running the same inputs through the accelerator directly in the
//! same order — the loopback round-trip test pins this.
//!
//! The whole crate is `std`-only: no async runtime, no HTTP library,
//! no TLS. Concurrency comes from threads, and the framing and both
//! payload encodings live in one module, [`protocol`], auditable in one
//! sitting.
//!
//! ## Quickstart
//!
//! ```
//! use afpr_serve::{Client, ServeModel, Server, ServerConfig};
//!
//! let cfg = ServerConfig::default();
//! let server = Server::start(cfg, ServeModel::demo(7)).expect("server starts");
//! let addr = server.local_addr();
//!
//! let mut client = Client::connect(addr).expect("connects");
//! let health = client.health().expect("health");
//! let y = client.matvec(vec![0.5; health.input_dim as usize]).expect("matvec");
//! assert_eq!(y.len() as u64, health.output_dim);
//!
//! let snapshot = server.shutdown();
//! assert!(snapshot.responses_sent >= 2);
//! ```

#![forbid(unsafe_code)]

pub mod client;
pub mod front;
pub mod health;
pub mod metrics;
pub mod protocol;
pub mod retry;
pub mod server;

pub use afpr_power::{EnergyHistSnapshot, KeyEnergySnapshot, PowerSnapshot};
pub use client::{Client, ClientError};
pub use front::Transport;
pub use health::{HealthMachine, HealthPolicy, HealthSnapshot, HealthState};
pub use metrics::{OpSnapshot, ServeMetrics, ServeSnapshot};
pub use protocol::{
    encode_message, parse_message, read_frame, read_frame_with_budget, write_frame, write_message,
    Encoding, FrameError, HealthInfo, Message, Op, Request, Response, Status, DEFAULT_MAX_FRAME,
    PROTOCOL_VERSION,
};
pub use retry::{RetryPolicy, RetryStats, RetryingClient};
pub use server::{ServeModel, Server, ServerConfig, MAX_DEADLINE_MS};
