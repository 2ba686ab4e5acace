//! The coordinator/router process.
//!
//! # Thread architecture
//!
//! ```text
//!              ┌───────────┐   bounded chan   ┌───────────────────┐
//!  clients ──▶ │ acceptor  │ ───────────────▶ │ worker pool       │
//!              └───────────┘   (TcpStream)    │ (cfg.workers ×)   │
//!                                             │ each worker owns  │
//!                                             │ one Client per    │
//!                                             │ backend           │
//!                                             └──────┬────────────┘
//!              ┌───────────┐    health polls         │ forward /
//!              │  prober   │ ─────────────┐          │ scatter-gather
//!              └───────────┘              ▼          ▼
//!                                   ┌───────────────────────┐
//!                                   │ afpr-serve backends   │
//!                                   └───────────────────────┘
//! ```
//!
//! The router speaks the exact same wire protocol as a single backend
//! (`matvec`/`forward_batch`/`health`/`metrics`/`shutdown`), so
//! existing clients, the retrying client and the load generator work
//! against it unchanged.
//!
//! # Placement modes
//!
//! **Replicated** — every backend holds the full model. Each request
//! is forwarded to the eligible replica with the fewest outstanding
//! requests; a transport failure ejects the replica and re-dispatches
//! the request to another one within the caller's deadline, so a
//! replica dying mid-request costs latency, not correctness. The
//! prober revives ejected replicas when their health endpoint answers
//! again, and Draining replicas are never selected.
//!
//! **Sharded** — the input dimension is split into contiguous,
//! row-tile-aligned ranges, each held by R replicas
//! ([`crate::ReplicatedShardPlan`]); every scatter round picks the
//! least-outstanding *healthy* replica per shard, sends it a
//! `matvec_partial`, and gathers the **unsummed** per-row-tile partial
//! sums. The router concatenates the partials in shard order and
//! left-folds them with [`afpr_xbar::PartialSumAdder`] — the exact
//! accumulation order of the single-node tiled path — so the routed
//! result is **bit-identical** to `AfprAccelerator::matvec` on one
//! node, regardless of which replica answered. A transport failure
//! ejects the replica and re-dispatches that shard to a sibling within
//! the caller's deadline; only a shard with *zero* live replicas
//! yields a structured `503`.
//!
//! # Elastic membership
//!
//! Backends join (`Op::Register`) and leave (`Op::Deregister`) a
//! running router. A join runs the same handshake as startup — the
//! candidate must answer a health probe and match the pool
//! [`Fingerprint`] (protocol, dims, `row_tile_rows`, `registry_seed`,
//! catalog) — so a mismatched backend is refused, never silently
//! served. Every capacity change (join, leave, ejection, revival,
//! draining flip) triggers a *rebalance*: a fresh
//! [`crate::ReplicatedShardPlan`] over the eligible members is
//! atomically swapped in between scatter rounds; in-flight rounds keep
//! the plan `Arc` they captured at round start, so a swap never splits
//! a round across two plans.
//!
//! **Pipeline** — full-model `infer` requests are split along the
//! depth axis ([`crate::PipelinePlan`]): stage *i* runs a contiguous
//! range of the model's top-level layers on backend *i*, and the
//! router streams each stage's activation into the next via the
//! `infer` op's `layer_start`/`layer_end` fields. Every backend holds
//! a model registry compiled from the same seed (verified identical at
//! startup), so the staged result is **bit-identical** to a
//! single-node `infer`. Other compute ops fall back to replicated
//! dispatch. A dead stage, like a dead shard, yields a structured
//! `503`.

use std::io::{self, BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock, Weak};
use std::thread::{self, JoinHandle, Thread};
use std::time::{Duration, Instant};

use afpr_models::ModelEntrySnapshot;
use afpr_power::EnergyRoutingPolicy;
use afpr_runtime::RejectReason;
use afpr_serve::protocol::{self, Encoding, FrameError};
use afpr_serve::{
    Client, ClientError, HealthInfo, HealthState, Op, Request, Response, Status, Transport,
    DEFAULT_MAX_FRAME, MAX_DEADLINE_MS, PROTOCOL_VERSION,
};
use afpr_xbar::PartialSumAdder;
use crossbeam::channel::{bounded, Receiver, RecvTimeoutError, Sender, TrySendError};
use parking_lot::Mutex;

use crate::backend::{spawn_prober, BackendPool, BackendState, Fingerprint, SeedPin};
use crate::metrics::{ClusterMetrics, ClusterSnapshot};
use crate::plan::{PipelinePlan, ReplicatedShardPlan};

/// How work is spread over the backends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Placement {
    /// Every backend holds the full model; requests are load-balanced
    /// with health-aware failover.
    Replicated,
    /// Backend *i* holds the full model but serves only row shard *i*;
    /// the router scatter-gathers and reduces partial sums.
    Sharded,
    /// Backend *i* runs layer range *i* of registered full models;
    /// the router streams `infer` activations stage to stage. Other
    /// compute ops fall back to replicated dispatch (every backend
    /// still holds the full demo layer).
    Pipeline,
}

impl Placement {
    /// The name used in CLI flags and snapshots.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            Placement::Replicated => "replicated",
            Placement::Sharded => "sharded",
            Placement::Pipeline => "pipeline",
        }
    }
}

impl std::str::FromStr for Placement {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "replicated" => Ok(Placement::Replicated),
            "sharded" => Ok(Placement::Sharded),
            "pipeline" => Ok(Placement::Pipeline),
            other => Err(format!(
                "unknown placement `{other}` (expected `replicated`, `sharded` or `pipeline`)"
            )),
        }
    }
}

/// Configuration for [`Router`].
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Bind address; use port `0` for an ephemeral port.
    pub addr: String,
    /// Backend `host:port` addresses. In sharded mode, list order is
    /// shard order.
    pub backends: Vec<String>,
    /// Placement mode.
    pub placement: Placement,
    /// Target replication factor per shard (sharded placement): the
    /// eligible members are planned into `⌊members / replicas⌋` shards
    /// (≥ 1, capped at the tile count), so each shard ends up with ~R
    /// replicas and survives R − 1 failures without a 503.
    pub replicas: usize,
    /// Connection worker pool size (each worker owns one connection
    /// per backend).
    pub workers: usize,
    /// Cap on a single frame's payload.
    pub max_frame_bytes: usize,
    /// Client-facing socket read timeout; doubles as the shutdown poll
    /// period for idle connections.
    pub read_timeout: Duration,
    /// Health-prober poll period.
    pub probe_interval: Duration,
    /// Per-probe socket timeout.
    pub probe_timeout: Duration,
    /// Per-attempt backend wait for requests without a deadline.
    pub dispatch_timeout: Duration,
    /// Backoff advertised in router-synthesized `503` responses.
    pub retry_after_ms: u64,
    /// How long `Router::start` waits for every backend to answer its
    /// first health probe.
    pub startup_timeout: Duration,
    /// Accepted-connection backlog between acceptor and worker pool.
    pub accept_backlog: usize,
    /// Client-facing I/O strategy. Defaults from `AFPR_CLUSTER_TRANSPORT`
    /// (`reactor` selects the epoll event loop on Linux; anything else
    /// keeps the blocking worker pool).
    pub transport: Transport,
    /// Hard cap on concurrent client connections (reactor transport):
    /// connections past the cap get a structured `503` and are closed.
    pub max_connections: usize,
    /// Reactor transport: close client connections idle this long.
    pub idle_timeout: Duration,
    /// Wall-clock budget to assemble one client frame (header + body)
    /// once its first byte arrives — the slowloris guard, enforced on
    /// both transports.
    pub frame_assembly_timeout: Duration,
    /// Reactor transport: upper bound on pooled upstream connections
    /// per backend (sub-requests queue when the pool is saturated).
    pub conns_per_backend: usize,
    /// Energy-proportional replica routing (replicated placement):
    /// while the pool's aggregate reported analog power sits below the
    /// policy threshold, traffic packs onto the fewest replicas that
    /// can absorb it; under load the pool spreads least-outstanding as
    /// before. `None` keeps pure least-outstanding routing.
    pub energy_routing: Option<EnergyRoutingPolicy>,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".to_string(),
            backends: Vec::new(),
            placement: Placement::Replicated,
            replicas: 1,
            workers: 8,
            max_frame_bytes: DEFAULT_MAX_FRAME,
            read_timeout: Duration::from_millis(20),
            probe_interval: Duration::from_millis(150),
            probe_timeout: Duration::from_millis(750),
            dispatch_timeout: Duration::from_secs(30),
            retry_after_ms: 20,
            startup_timeout: Duration::from_secs(5),
            accept_backlog: 128,
            transport: Transport::from_env("AFPR_CLUSTER_TRANSPORT"),
            max_connections: 12_000,
            idle_timeout: Duration::from_secs(300),
            frame_assembly_timeout: Duration::from_secs(30),
            conns_per_backend: 8,
            energy_routing: None,
        }
    }
}

impl ClusterConfig {
    /// Convenience constructor: defaults with the three fields every
    /// deployment must set.
    #[must_use]
    pub fn new(addr: &str, backends: &[String], placement: Placement) -> Self {
        Self {
            addr: addr.to_string(),
            backends: backends.to_vec(),
            placement,
            ..Self::default()
        }
    }
}

/// State shared by every router thread.
pub(crate) struct RouterShared {
    pub(crate) cfg: ClusterConfig,
    shutting_down: AtomicBool,
    pub(crate) pool: BackendPool,
    pub(crate) metrics: ClusterMetrics,
    /// Served layer input dimension (identical on every backend).
    pub(crate) k: usize,
    /// Served layer output dimension.
    pub(crate) n: usize,
    /// Row-tile height advertised by the backends.
    unit: usize,
    /// The current placement view (sharded placement carries a plan;
    /// others keep `plan: None`). Swapped atomically on rebalance —
    /// dispatch loads it once per scatter round.
    view: Mutex<Arc<PlacementView>>,
    /// The pool identity contract, captured at startup and enforced on
    /// every join and every probe (including revivals).
    pub(crate) expected: Fingerprint,
    /// Registered-model catalog (pipeline placement only): the model
    /// inventory every backend advertised at startup, verified
    /// identical across the pool so any layer range of any model can
    /// run on any stage.
    catalog: Vec<ModelEntrySnapshot>,
    /// The registry seed every backend advertised (pipeline placement
    /// only) — agreement was verified at startup, so the router
    /// re-advertises it on its own `health` op.
    catalog_seed: Option<u64>,
    /// Wakes the thread that owns the listener, the blocking
    /// transport's acceptor or the reactor's event loop, so a drain
    /// stops it at once (`None` where the blocking acceptor has no
    /// readiness wait).
    drain_waker: Option<afpr_reactor::Waker>,
    /// The health prober's thread, unparked by a drain so its wait
    /// between passes ends at once (set once it is spawned).
    prober: OnceLock<Thread>,
}

/// One atomically-swapped generation of placement state. Scatter
/// rounds clone the plan `Arc` at round start and finish on it; a
/// concurrent rebalance only affects *subsequent* rounds, so a swap
/// can never split one round across two plans.
pub(crate) struct PlacementView {
    /// Monotonic generation counter (bumped on every real swap).
    pub(crate) epoch: u64,
    /// The sharded placement, `None` outside sharded placement or when
    /// zero members are eligible.
    pub(crate) plan: Option<Arc<ReplicatedShardPlan>>,
}

impl RouterShared {
    pub(crate) fn is_shutting_down(&self) -> bool {
        self.shutting_down.load(Ordering::Acquire)
    }

    pub(crate) fn begin_shutdown(&self) {
        self.shutting_down.store(true, Ordering::Release);
        if let Some(w) = &self.drain_waker {
            w.wake();
        }
        if let Some(prober) = self.prober.get() {
            prober.unpark();
        }
    }

    pub(crate) fn reject_malformed(&self, id: u64, detail: impl Into<String>) -> Response {
        self.metrics
            .serve()
            .runtime()
            .record_rejection(RejectReason::Malformed);
        Response::error(id, Status::Malformed, detail)
    }

    pub(crate) fn retry_hint(&self) -> u64 {
        self.pool
            .min_retry_after_ms()
            .unwrap_or(self.cfg.retry_after_ms)
    }

    /// The placement view new scatter rounds should dispatch on.
    pub(crate) fn current_view(&self) -> Arc<PlacementView> {
        Arc::clone(&self.view.lock())
    }

    /// Recomputes placement over the currently eligible members and
    /// atomically swaps it in if it differs. Called on every capacity
    /// change: join, leave, ejection, revival, draining flip. In-flight
    /// rounds drain on the plan `Arc` they already hold.
    pub(crate) fn rebalance(&self) {
        if self.cfg.placement != Placement::Sharded {
            return;
        }
        let slots = self.pool.eligible_slots();
        let plan = ReplicatedShardPlan::compute(self.k, self.unit, &slots, self.cfg.replicas)
            .ok()
            .map(Arc::new);
        let mut guard = self.view.lock();
        let changed = match (&guard.plan, &plan) {
            (Some(old), Some(new)) => **old != **new,
            (None, None) => false,
            _ => true,
        };
        if changed {
            *guard = Arc::new(PlacementView {
                epoch: guard.epoch + 1,
                plan,
            });
            self.metrics.record_rebalance();
        }
    }

    /// Synthesizes the cluster-level health view the router reports on
    /// the wire `health` op.
    pub(crate) fn health_info(&self) -> HealthInfo {
        let slots = self.pool.load();
        let members: Vec<&Arc<BackendState>> = slots.iter().filter(|b| !b.is_removed()).collect();
        let state = if self.is_shutting_down() {
            HealthState::Draining
        } else {
            match self.cfg.placement {
                // Replicated: the cluster is as healthy as its best
                // live replica — one healthy replica can serve.
                Placement::Replicated => {
                    best_state(members.iter().copied()).unwrap_or(HealthState::Draining)
                }
                // Sharded: every shard is needed, but any live replica
                // of a shard can serve it — so the cluster is as
                // healthy as its *worst shard's best replica*.
                Placement::Sharded => match self.current_view().plan.as_ref() {
                    None => HealthState::Draining,
                    Some(plan) => {
                        let mut worst = HealthState::Healthy;
                        for shard in &plan.shards {
                            let replicas = shard
                                .replicas
                                .iter()
                                .filter_map(|&s| slots.get(s))
                                .filter(|b| !b.is_removed());
                            let s = best_state(replicas).unwrap_or(HealthState::Draining);
                            worst = worst_of(worst, s);
                        }
                        worst
                    }
                },
                // Pipeline: every stage is needed and stages have no
                // siblings — as healthy as the worst backend.
                Placement::Pipeline => {
                    let mut worst = HealthState::Healthy;
                    for b in &members {
                        let s = if b.is_alive() {
                            b.health_state()
                        } else {
                            HealthState::Draining
                        };
                        worst = worst_of(worst, s);
                    }
                    worst
                }
            }
        };
        HealthInfo {
            protocol: PROTOCOL_VERSION,
            input_dim: self.k as u64,
            output_dim: self.n as u64,
            queue_depth: members.iter().map(|b| b.outstanding() as u64).sum(),
            queue_capacity: members.iter().map(|b| b.queue_capacity()).sum(),
            shutting_down: self.is_shutting_down(),
            state,
            fault_events: members.iter().map(|b| b.fault_events()).sum(),
            row_tile_rows: self.unit as u64,
            models: if self.catalog.is_empty() {
                None
            } else {
                Some(self.catalog.clone())
            },
            registry_seed: self.catalog_seed,
            power_mw: members.iter().map(|b| b.power_mw()).sum(),
        }
    }
}

/// Best state among *alive* backends, `None` when none is alive.
fn best_state<'a, I>(backends: I) -> Option<HealthState>
where
    I: Iterator<Item = &'a Arc<BackendState>>,
{
    let mut best: Option<HealthState> = None;
    for b in backends {
        if !b.is_alive() {
            continue;
        }
        let s = b.health_state();
        best = Some(match (best, s) {
            (None, s) => s,
            (Some(HealthState::Healthy), _) | (_, HealthState::Healthy) => HealthState::Healthy,
            (Some(HealthState::Degraded), _) | (_, HealthState::Degraded) => HealthState::Degraded,
            _ => HealthState::Draining,
        });
    }
    best
}

/// Severity meet: the worse of two health states.
fn worst_of(a: HealthState, b: HealthState) -> HealthState {
    match (a, b) {
        (HealthState::Draining, _) | (_, HealthState::Draining) => HealthState::Draining,
        (HealthState::Degraded, _) | (_, HealthState::Degraded) => HealthState::Degraded,
        _ => HealthState::Healthy,
    }
}

/// Handle to a running cluster router.
///
/// Dropping the handle requests shutdown and joins every thread. The
/// backends are *not* owned by the router — they keep running.
pub struct Router {
    addr: SocketAddr,
    shared: Arc<RouterShared>,
    acceptor: Option<JoinHandle<()>>,
    prober: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for Router {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Router")
            .field("addr", &self.addr)
            .field("placement", &self.shared.cfg.placement)
            .field("backends", &self.shared.pool.len())
            .finish_non_exhaustive()
    }
}

impl Router {
    /// Probes every backend, verifies they agree on model shape and
    /// protocol version, computes the shard plan (sharded mode), binds
    /// the listener and spawns the acceptor, worker pool and prober.
    ///
    /// # Errors
    ///
    /// Fails if no backends are configured, any backend stays
    /// unreachable past `startup_timeout`, backends disagree on model
    /// shape or protocol, or the shard plan is infeasible.
    ///
    /// # Panics
    ///
    /// Panics if `workers` is zero.
    pub fn start(cfg: ClusterConfig) -> io::Result<Self> {
        assert!(cfg.workers > 0, "workers must be positive");
        if cfg.backends.is_empty() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "cluster needs at least one backend",
            ));
        }
        if cfg.replicas == 0 {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "replication factor must be ≥ 1",
            ));
        }
        let pool = BackendPool::new(&cfg.backends).with_energy_policy(cfg.energy_routing);
        let StartupFacts {
            k,
            n,
            unit,
            catalog,
            catalog_seed,
            common_seed,
        } = startup_probe(&cfg, &pool)?;
        if cfg.placement == Placement::Pipeline {
            // Every registered model must admit a stage per backend.
            for entry in &catalog {
                PipelinePlan::compute(entry.layers as usize, pool.len()).map_err(|e| {
                    io::Error::new(
                        io::ErrorKind::InvalidInput,
                        format!("model {}: {e}", entry.model),
                    )
                })?;
            }
        }
        // The identity contract later joins and revivals must match.
        let expected = Fingerprint {
            protocol: PROTOCOL_VERSION,
            input_dim: k as u64,
            output_dim: n as u64,
            row_tile_rows: (cfg.placement == Placement::Sharded).then_some(unit as u64),
            registry_seed: common_seed,
            catalog: (cfg.placement == Placement::Pipeline)
                .then(|| Fingerprint::catalog_key(&catalog)),
        };

        let listener = TcpListener::bind(&cfg.addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let (accept_wait, drain_waker, reactor_io) = if cfg.transport == Transport::Reactor {
            let (waker, source) = afpr_reactor::waker_pair()?;
            let poller = afpr_reactor::Poller::new()?;
            let readable = afpr_reactor::Interest::READABLE;
            poller.register(&listener, crate::event_router::LISTENER_TOKEN, readable)?;
            poller.register(&source, crate::event_router::WAKER_TOKEN, readable)?;
            (None, Some(waker), Some((poller, source)))
        } else {
            let (wait, waker) = afpr_reactor::AcceptWait::new(&listener);
            (Some(wait), waker, None)
        };

        let shared = Arc::new(RouterShared {
            cfg,
            shutting_down: AtomicBool::new(false),
            pool,
            metrics: ClusterMetrics::new(),
            k,
            n,
            unit,
            view: Mutex::new(Arc::new(PlacementView {
                epoch: 0,
                plan: None,
            })),
            expected,
            catalog,
            catalog_seed,
            drain_waker,
            prober: OnceLock::new(),
        });
        // Initial placement (epoch 1 in sharded mode). All backends
        // just answered the startup probe, so every slot is eligible.
        shared.rebalance();
        if shared.cfg.placement == Placement::Sharded && shared.current_view().plan.is_none() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "sharded placement could not compute an initial plan",
            ));
        }

        let prober = {
            let stop_shared = Arc::clone(&shared);
            let notify_shared: Weak<RouterShared> = Arc::downgrade(&shared);
            spawn_prober(
                shared.pool.clone(),
                shared.cfg.probe_interval,
                shared.cfg.probe_timeout,
                shared.expected.clone(),
                move || stop_shared.is_shutting_down(),
                move || {
                    if let Some(s) = notify_shared.upgrade() {
                        s.rebalance();
                    }
                },
            )
        };
        let prober = match prober {
            Ok(h) => {
                let _ = shared.prober.set(h.thread().clone());
                h
            }
            Err(e) => {
                shared.begin_shutdown();
                return Err(e);
            }
        };

        let (acceptor, workers) = if let Some((poller, waker)) = reactor_io {
            // One event loop owns the listener, every client socket and
            // the pooled upstream connections; no per-connection thread.
            let spawned = {
                let shared_ev = Arc::clone(&shared);
                thread::Builder::new()
                    .name("afpr-cluster-reactor".into())
                    .spawn(move || {
                        crate::event_router::run(&shared_ev, &listener, &poller, &waker);
                    })
            };
            match spawned {
                Ok(h) => (h, Vec::new()),
                Err(e) => {
                    shared.begin_shutdown();
                    return Err(e);
                }
            }
        } else {
            let (conn_tx, conn_rx) = bounded::<TcpStream>(shared.cfg.accept_backlog);
            let mut workers = Vec::with_capacity(shared.cfg.workers);
            for i in 0..shared.cfg.workers {
                let worker = {
                    let shared = Arc::clone(&shared);
                    let conn_rx = conn_rx.clone();
                    thread::Builder::new()
                        .name(format!("afpr-cluster-conn-{i}"))
                        .spawn(move || worker_loop(&shared, &conn_rx))
                };
                match worker {
                    Ok(h) => workers.push(h),
                    Err(e) => {
                        shared.begin_shutdown();
                        return Err(e);
                    }
                }
            }

            let acceptor = {
                let shared_acc = Arc::clone(&shared);
                let wait = accept_wait.expect("the blocking transport has an accept wait");
                let spawned = thread::Builder::new()
                    .name("afpr-cluster-accept".into())
                    .spawn(move || acceptor_loop(&shared_acc, &listener, &conn_tx, wait));
                match spawned {
                    Ok(h) => h,
                    Err(e) => {
                        shared.begin_shutdown();
                        return Err(e);
                    }
                }
            };
            (acceptor, workers)
        };

        Ok(Self {
            addr,
            shared,
            acceptor: Some(acceptor),
            prober: Some(prober),
            workers,
        })
    }

    /// The bound address (resolves ephemeral ports).
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The placement mode.
    #[must_use]
    pub fn placement(&self) -> Placement {
        self.shared.cfg.placement
    }

    /// The shard plan new scatter rounds dispatch on (sharded
    /// placement only; `None` when no member is eligible). Rebalances
    /// swap the plan, so two calls may observe different generations.
    #[must_use]
    pub fn shard_plan(&self) -> Option<Arc<ReplicatedShardPlan>> {
        self.shared.current_view().plan.clone()
    }

    /// The current placement epoch: bumped once per plan swap (0 until
    /// the first plan lands; sharded routers start at 1).
    #[must_use]
    pub fn placement_epoch(&self) -> u64 {
        self.shared.current_view().epoch
    }

    /// A live wire-compatible metrics snapshot (what the `metrics` op
    /// returns).
    #[must_use]
    pub fn metrics(&self) -> afpr_serve::ServeSnapshot {
        self.shared.metrics.snapshot()
    }

    /// A live full-cluster snapshot (router + per-backend + merged
    /// dispatch latency).
    #[must_use]
    pub fn cluster_snapshot(&self) -> ClusterSnapshot {
        self.shared
            .metrics
            .cluster_snapshot(self.shared.cfg.placement.as_str(), &self.shared.pool)
    }

    /// Whether a drain has been requested.
    #[must_use]
    pub fn is_shutting_down(&self) -> bool {
        self.shared.is_shutting_down()
    }

    /// Requests a graceful drain without blocking.
    pub fn request_shutdown(&self) {
        self.shared.begin_shutdown();
    }

    /// Blocks until a drain has been requested (used by the `cluster`
    /// binary to wait for a client-sent `shutdown`).
    pub fn wait_shutdown_requested(&self) {
        while !self.is_shutting_down() {
            thread::sleep(Duration::from_millis(25));
        }
    }

    /// Gracefully drains and stops the router, returning the final
    /// cluster snapshot. Backends are left running.
    #[must_use]
    pub fn shutdown(mut self) -> ClusterSnapshot {
        self.join_threads();
        self.cluster_snapshot()
    }

    fn join_threads(&mut self) {
        self.shared.begin_shutdown();
        if let Some(h) = self.acceptor.take() {
            let _ = h.join();
        }
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
        if let Some(h) = self.prober.take() {
            let _ = h.join();
        }
    }
}

impl Drop for Router {
    fn drop(&mut self) {
        self.join_threads();
    }
}

/// What the startup probe establishes about the pool: agreed shape,
/// tile height, catalog (pipeline only) and the pool's weight
/// provenance (pinned to a seed, pinned registry-less, or loose when
/// the startup backends were mixed).
struct StartupFacts {
    k: usize,
    n: usize,
    unit: usize,
    catalog: Vec<ModelEntrySnapshot>,
    catalog_seed: Option<u64>,
    common_seed: SeedPin,
}

/// Blocks until every backend answers a health probe (or the startup
/// timeout lapses), then cross-checks shape and protocol agreement.
/// The catalog is non-empty only in pipeline placement, where every
/// backend must advertise the same registered-model inventory.
fn startup_probe(cfg: &ClusterConfig, pool: &BackendPool) -> io::Result<StartupFacts> {
    let deadline = Instant::now() + cfg.startup_timeout;
    let slots = pool.load();
    let mut infos: Vec<Option<HealthInfo>> = vec![None; slots.len()];
    loop {
        for backend in slots.iter() {
            if infos[backend.index].is_some() {
                continue;
            }
            if let Ok(client) = Client::connect(&backend.addr) {
                let _ = client.set_read_timeout(Some(cfg.probe_timeout));
                let _ = client.set_write_timeout(Some(cfg.probe_timeout));
                let mut client = client;
                if let Ok(info) = client.health() {
                    backend.note_power_mw(info.power_mw);
                    backend.mark_probed(info.state, info.fault_events, info.queue_capacity);
                    infos[backend.index] = Some(info);
                }
            }
        }
        if infos.iter().all(Option::is_some) {
            break;
        }
        if Instant::now() >= deadline {
            let missing: Vec<&str> = slots
                .iter()
                .filter(|b| infos[b.index].is_none())
                .map(|b| b.addr.as_str())
                .collect();
            return Err(io::Error::new(
                io::ErrorKind::TimedOut,
                format!("backends unreachable at startup: {}", missing.join(", ")),
            ));
        }
        thread::sleep(Duration::from_millis(50));
    }

    let first = infos[0].as_ref().expect("probed");
    for (i, info) in infos.iter().enumerate() {
        let info = info.as_ref().expect("probed");
        if info.protocol != PROTOCOL_VERSION {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!(
                    "backend {} speaks protocol {} (router speaks {PROTOCOL_VERSION})",
                    cfg.backends[i], info.protocol
                ),
            ));
        }
        if (info.input_dim, info.output_dim) != (first.input_dim, first.output_dim) {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!(
                    "backend {} serves {}×{} but backend {} serves {}×{}",
                    cfg.backends[0],
                    first.input_dim,
                    first.output_dim,
                    cfg.backends[i],
                    info.input_dim,
                    info.output_dim
                ),
            ));
        }
        if cfg.placement == Placement::Sharded && info.row_tile_rows != first.row_tile_rows {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!(
                    "backends disagree on row-tile height: {} vs {}",
                    first.row_tile_rows, info.row_tile_rows
                ),
            ));
        }
    }
    if cfg.placement == Placement::Sharded && first.row_tile_rows == 0 {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "backends do not advertise a row-tile height; sharded placement needs \
             `row_tile_rows` (upgrade the backends)",
        ));
    }
    let (catalog, catalog_seed) = if cfg.placement == Placement::Pipeline {
        let (seed, catalog) = pipeline_catalog(cfg, &infos)?;
        (catalog, Some(seed))
    } else {
        (Vec::new(), None)
    };
    // When every backend advertises the *same* registry seed — or
    // uniformly none — pin the pool's weight provenance: later joins
    // and revivals must match it (a backend restarted from a different
    // seed, or a seeded backend joining a registry-less pool, has
    // weights the pool cannot verify and would silently corrupt
    // replicated/sharded results). Only a *mixed* startup pool leaves
    // the seed out of the contract, so the prober never refuses the
    // pool's own members.
    let common_seed = {
        let mut seeds = infos
            .iter()
            .map(|i| i.as_ref().expect("probed").registry_seed);
        let first_seed = seeds.next().expect("at least one backend");
        if seeds.all(|s| s == first_seed) {
            match first_seed {
                Some(seed) => SeedPin::Seed(seed),
                None => SeedPin::Absent,
            }
        } else {
            SeedPin::Loose
        }
    };
    Ok(StartupFacts {
        k: first.input_dim as usize,
        n: first.output_dim as usize,
        unit: first.row_tile_rows as usize,
        catalog,
        catalog_seed,
        common_seed,
    })
}

/// Cross-checks the registered-model inventories the backends
/// advertised and returns the agreed (seed, catalog). Pipeline
/// placement runs any layer range of any model on any backend, so the
/// *static* model facts (name, format, depth, boundary dims) must be
/// identical across the pool; runtime counters (loads, infers,
/// residency) may differ. The **registry seed** must also agree: the
/// static inventory is identical for any two registries regardless of
/// seed, but only equal seeds compile bit-identical weights — and a
/// weight mismatch would silently corrupt every pipelined result.
fn pipeline_catalog(
    cfg: &ClusterConfig,
    infos: &[Option<HealthInfo>],
) -> io::Result<(u64, Vec<ModelEntrySnapshot>)> {
    let static_key = |m: &ModelEntrySnapshot| {
        (
            m.model.clone(),
            m.format.clone(),
            m.layers,
            m.input_len,
            m.output_len,
        )
    };
    let mut first: Option<Vec<_>> = None;
    let mut agreed_seed: Option<u64> = None;
    for (i, info) in infos.iter().enumerate() {
        let info = info.as_ref().expect("probed");
        let Some(models) = info.models.as_ref().filter(|m| !m.is_empty()) else {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!(
                    "backend {} advertises no model registry; pipeline placement needs \
                     registry-backed backends",
                    cfg.backends[i]
                ),
            ));
        };
        let Some(seed) = info.registry_seed else {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!(
                    "backend {} does not advertise its registry seed; pipeline placement \
                     cannot verify backends hold identical weights (upgrade the backend)",
                    cfg.backends[i]
                ),
            ));
        };
        match agreed_seed {
            None => agreed_seed = Some(seed),
            Some(s) if s != seed => {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!(
                        "backend {} compiled its registry from seed {seed} but backend {} \
                         used seed {s}; pipeline stages must compile identical models \
                         (same seed) or staged results would silently diverge",
                        cfg.backends[i], cfg.backends[0]
                    ),
                ));
            }
            Some(_) => {}
        }
        let mut keys: Vec<_> = models.iter().map(static_key).collect();
        keys.sort();
        match &first {
            None => first = Some(keys),
            Some(f) if *f != keys => {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!(
                        "backend {} registers a different model inventory than backend {}; \
                         pipeline stages must compile identical models (same seed)",
                        cfg.backends[i], cfg.backends[0]
                    ),
                ));
            }
            Some(_) => {}
        }
    }
    let catalog = infos[0]
        .as_ref()
        .expect("probed")
        .models
        .clone()
        .expect("checked above");
    Ok((agreed_seed.expect("at least one backend"), catalog))
}

// ---------------------------------------------------------------------------
// Acceptor + connection workers (same discipline as the backend server)
// ---------------------------------------------------------------------------

/// Accepts client connections until the drain, handing each to the
/// worker pool. Between connections it parks on listener readiness
/// ([`afpr_reactor::AcceptWait`]); `begin_shutdown` wakes it.
fn acceptor_loop(
    shared: &RouterShared,
    listener: &TcpListener,
    conn_tx: &Sender<TcpStream>,
    mut wait: afpr_reactor::AcceptWait,
) {
    loop {
        if shared.is_shutting_down() {
            return;
        }
        match listener.accept() {
            Ok((stream, _peer)) => {
                if stream.set_nonblocking(false).is_err() {
                    continue;
                }
                shared.metrics.serve().record_connection();
                match conn_tx.try_send(stream) {
                    Ok(()) => {}
                    Err(TrySendError::Full(stream)) => {
                        shared.metrics.serve().record_connection_dropped();
                        drop(stream);
                    }
                    Err(TrySendError::Disconnected(_)) => return,
                }
            }
            Err(e) => wait.pause(&e),
        }
    }
}

fn worker_loop(shared: &RouterShared, conn_rx: &Receiver<TcpStream>) {
    const IDLE_POLL: Duration = Duration::from_millis(25);
    // Each worker owns one connection per backend, lazily established
    // and dropped on any transport error (so a stale half-read stream
    // can never desynchronize request/response pairing).
    let mut conns = WorkerConns::new(shared.pool.len());
    loop {
        match conn_rx.recv_timeout(IDLE_POLL) {
            Ok(stream) => connection_loop(shared, &mut conns, stream),
            Err(RecvTimeoutError::Timeout) => {
                if shared.is_shutting_down() {
                    return;
                }
            }
            Err(RecvTimeoutError::Disconnected) => return,
        }
    }
}

fn connection_loop(shared: &RouterShared, conns: &mut WorkerConns, stream: TcpStream) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(shared.cfg.read_timeout));
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(read_half);
    let mut writer = BufWriter::new(stream);

    loop {
        match protocol::read_frame_with_budget(
            &mut reader,
            shared.cfg.max_frame_bytes,
            Some(shared.cfg.frame_assembly_timeout),
        ) {
            Ok(None) => return,
            Ok(Some(payload)) => {
                let t0 = Instant::now();
                if !handle_frame(shared, conns, &payload, t0, &mut writer) {
                    return;
                }
                if shared.is_shutting_down() {
                    return;
                }
            }
            Err(e) if e.is_timeout() => {
                if shared.is_shutting_down() {
                    return;
                }
            }
            Err(FrameError::TooLarge { announced, max }) => {
                shared.metrics.serve().record_protocol_error();
                shared
                    .metrics
                    .serve()
                    .runtime()
                    .record_rejection(RejectReason::Malformed);
                let resp = Response::error(
                    0,
                    Status::Malformed,
                    format!("frame of {announced} bytes exceeds cap of {max}"),
                );
                let _ = protocol::write_message(&mut writer, &resp);
                return;
            }
            Err(FrameError::TruncatedEof { .. } | FrameError::Stalled { .. }) => {
                shared.metrics.serve().record_protocol_error();
                return;
            }
            Err(FrameError::Io(_)) => {
                shared.metrics.serve().record_protocol_error();
                return;
            }
        }
    }
}

fn handle_frame<W: Write>(
    shared: &RouterShared,
    conns: &mut WorkerConns,
    payload: &[u8],
    t0: Instant,
    writer: &mut W,
) -> bool {
    // Answer in the encoding the request arrived in.
    let enc = Encoding::of(payload);
    let req = match protocol::parse_message::<Request>(payload) {
        Ok(req) => req,
        Err(e) => {
            let resp = shared.reject_malformed(0, e);
            return enc.write(writer, &resp).is_ok();
        }
    };
    let op = req.op;
    let id = req.id;
    let resp = dispatch(shared, conns, req, t0);
    shared
        .metrics
        .record_request(op, resp.is_ok(), t0.elapsed());
    debug_assert_eq!(resp.id, id);
    if enc.write(writer, &resp).is_err() {
        return false;
    }
    op != Op::Shutdown
}

fn dispatch(shared: &RouterShared, conns: &mut WorkerConns, req: Request, t0: Instant) -> Response {
    if req.proto_version != PROTOCOL_VERSION {
        return shared.reject_malformed(
            req.id,
            format!(
                "unsupported protocol version {} (router speaks {PROTOCOL_VERSION})",
                req.proto_version
            ),
        );
    }
    match req.op {
        Op::Health => {
            let mut resp = Response::ok(req.id);
            resp.health = Some(shared.health_info());
            resp
        }
        Op::Metrics => {
            let mut resp = Response::ok(req.id);
            resp.metrics = Some(shared.metrics.snapshot());
            resp
        }
        Op::Shutdown => {
            shared.begin_shutdown();
            let mut resp = Response::ok(req.id);
            resp.metrics = Some(shared.metrics.snapshot());
            resp
        }
        Op::Register => handle_register(shared, &req),
        Op::Deregister => handle_deregister(shared, &req),
        Op::Matvec | Op::ForwardBatch | Op::MatvecPartial | Op::Infer => {
            if shared.is_shutting_down() {
                return Response::error(req.id, Status::ShuttingDown, "router is draining");
            }
            let deadline = match parse_deadline(shared, &req, t0) {
                Ok(d) => d,
                Err(resp) => return *resp,
            };
            match (shared.cfg.placement, req.op) {
                // Pipeline placement stages `infer`; every other
                // compute op still has the full layer on each backend.
                (Placement::Pipeline, Op::Infer) => {
                    dispatch_pipeline(shared, conns, &req, deadline)
                }
                (Placement::Replicated | Placement::Pipeline, _) => {
                    dispatch_replicated(shared, conns, &req, deadline)
                }
                (Placement::Sharded, _) => dispatch_sharded(shared, conns, &req, deadline),
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Elastic membership (register / deregister)
// ---------------------------------------------------------------------------

/// Handles `Op::Register`: the join handshake. The candidate backend
/// must answer a health probe within `probe_timeout` and match the
/// pool [`Fingerprint`] — the same contract the startup probe
/// established — before it is admitted; a mismatch is refused with a
/// structured `400` naming the reason. Registering an address that is
/// already a member re-validates it and revives it in place (the
/// rejoin path for a killed-then-restarted process). Shared by both
/// transports; the probe blocks the calling thread for at most the
/// probe timeout, which is acceptable for a rare control op.
pub(crate) fn handle_register(shared: &RouterShared, req: &Request) -> Response {
    if shared.is_shutting_down() {
        return Response::error(req.id, Status::ShuttingDown, "router is draining");
    }
    let Some(addr) = req.backend_addr.as_deref() else {
        return shared.reject_malformed(req.id, "register requires `backend_addr`");
    };
    if shared.cfg.placement == Placement::Pipeline {
        return shared.reject_malformed(
            req.id,
            "pipeline placement is static; elastic membership covers replicated and \
             sharded placement",
        );
    }
    let info = match probe_addr(addr, shared.cfg.probe_timeout) {
        Ok(info) => info,
        Err(e) => {
            shared.metrics.record_join_refusal();
            return shared
                .reject_malformed(req.id, format!("backend {addr} failed the join probe: {e}"));
        }
    };
    if let Err(why) = shared.expected.check(&info) {
        shared.metrics.record_join_refusal();
        return shared.reject_malformed(req.id, format!("backend {addr} refused: {why}"));
    }
    let (backend, joined) = match shared.pool.find(addr) {
        Some(existing) => (existing, false),
        None => (shared.pool.push(addr), true),
    };
    backend.note_power_mw(info.power_mw);
    backend.mark_probed(info.state, info.fault_events, info.queue_capacity);
    if joined {
        shared.metrics.record_join();
    }
    shared.rebalance();
    Response::ok(req.id)
}

/// Handles `Op::Deregister`: tombstones the member (its slot and
/// counters survive in snapshots; its slot id is never reused) and
/// rebalances. Allowed even while the router drains — removal is how
/// an operator takes a backend out of rotation.
pub(crate) fn handle_deregister(shared: &RouterShared, req: &Request) -> Response {
    let Some(addr) = req.backend_addr.as_deref() else {
        return shared.reject_malformed(req.id, "deregister requires `backend_addr`");
    };
    if shared.cfg.placement == Placement::Pipeline {
        return shared.reject_malformed(
            req.id,
            "pipeline placement is static; elastic membership covers replicated and \
             sharded placement",
        );
    }
    match shared.pool.find(addr) {
        Some(backend) => {
            if backend.mark_removed() {
                shared.metrics.record_leave();
            }
            shared.rebalance();
            Response::ok(req.id)
        }
        None => Response::error(
            req.id,
            Status::NotFound,
            format!("no registered backend at {addr}"),
        ),
    }
}

/// One bounded health probe of a candidate backend address.
fn probe_addr(addr: &str, timeout: Duration) -> Result<HealthInfo, String> {
    let client = Client::connect(addr).map_err(|e| format!("{e:?}"))?;
    client
        .set_read_timeout(Some(timeout))
        .and_then(|()| client.set_write_timeout(Some(timeout)))
        .map_err(|e| format!("{e:?}"))?;
    let mut client = client;
    client.health().map_err(|e| format!("{e:?}"))
}

/// Mirrors the backend's deadline hardening: `checked_add` + the 24 h
/// cap, plus an immediate `504` for already-expired budgets.
pub(crate) fn parse_deadline(
    shared: &RouterShared,
    req: &Request,
    t0: Instant,
) -> Result<Option<Instant>, Box<Response>> {
    let deadline = match req.deadline_ms {
        None => None,
        Some(ms) => {
            let within_cap = ms <= MAX_DEADLINE_MS;
            match t0.checked_add(Duration::from_millis(ms)) {
                Some(d) if within_cap => Some(d),
                _ => {
                    return Err(Box::new(shared.reject_malformed(
                        req.id,
                        format!("deadline_ms {ms} exceeds the maximum of {MAX_DEADLINE_MS} ms"),
                    )));
                }
            }
        }
    };
    if let Some(d) = deadline {
        if Instant::now() >= d {
            shared
                .metrics
                .serve()
                .runtime()
                .record_rejection(RejectReason::DeadlineExpired);
            return Err(Box::new(Response::error(
                req.id,
                Status::DeadlineExpired,
                "deadline expired before dispatch",
            )));
        }
    }
    Ok(deadline)
}

/// Per-attempt socket timeout: the remaining deadline budget (plus a
/// small grace so the backend's own `504` wins the race), capped by
/// the configured dispatch timeout.
pub(crate) fn attempt_timeout(deadline: Option<Instant>, cap: Duration) -> Duration {
    const MIN: Duration = Duration::from_millis(10);
    const GRACE: Duration = Duration::from_millis(250);
    match deadline {
        Some(d) => (d.saturating_duration_since(Instant::now()) + GRACE).min(cap),
        None => cap,
    }
    .max(MIN)
}

/// Remaining budget in milliseconds to forward downstream.
pub(crate) fn remaining_ms(deadline: Option<Instant>) -> Option<u64> {
    deadline.map(|d| {
        u64::try_from(d.saturating_duration_since(Instant::now()).as_millis()).unwrap_or(u64::MAX)
    })
}

// ---------------------------------------------------------------------------
// Replicated dispatch
// ---------------------------------------------------------------------------

fn dispatch_replicated(
    shared: &RouterShared,
    conns: &mut WorkerConns,
    req: &Request,
    deadline: Option<Instant>,
) -> Response {
    // Slots already tried (and ejected) by *this* request; the pool
    // itself can grow concurrently, so exclusion is a slot list, not a
    // bitmap sized at entry.
    let mut excluded: Vec<usize> = Vec::new();
    loop {
        if let Some(d) = deadline {
            if Instant::now() >= d {
                shared
                    .metrics
                    .serve()
                    .runtime()
                    .record_rejection(RejectReason::DeadlineExpired);
                return Response::error(
                    req.id,
                    Status::DeadlineExpired,
                    "deadline expired during failover",
                );
            }
        }
        let Some(backend) = shared.pool.pick_replica(&excluded) else {
            let text = if excluded.is_empty() {
                "no live replica available; retry shortly"
            } else {
                "every replica failed this request; retry shortly"
            };
            let mut resp = Response::error(req.id, Status::Overloaded, text);
            resp.retry_after_ms = Some(shared.retry_hint());
            return resp;
        };

        let mut fwd = req.clone();
        fwd.deadline_ms = match deadline {
            Some(_) => remaining_ms(deadline),
            None => None,
        };
        let timeout = attempt_timeout(deadline, shared.cfg.dispatch_timeout);
        backend.begin_dispatch();
        let started = Instant::now();
        match conns.call(&backend, &fwd, timeout) {
            Ok(resp) => {
                backend.finish_dispatch(true, Some(started.elapsed()));
                if resp.status == Status::Overloaded {
                    if let Some(ms) = resp.retry_after_ms {
                        backend.note_retry_after(ms);
                    }
                }
                if let Some(mj) = resp.energy_mj {
                    shared.metrics.record_energy_mj(
                        resp.format.as_deref(),
                        req.model.as_deref(),
                        mj,
                    );
                }
                return resp;
            }
            Err(_) => {
                // Transport failure: eject the replica and re-dispatch
                // the request to another one within the deadline. The
                // prober revives it when it answers health (and the
                // fingerprint handshake) again.
                backend.finish_dispatch(false, None);
                excluded.push(backend.index);
                if backend.mark_dead() {
                    shared.rebalance();
                }
                shared.metrics.serve().record_protocol_error();
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Sharded dispatch (scatter-gather + bit-exact reduction)
// ---------------------------------------------------------------------------

/// Rejection text for `matvec_partial` against a sharded router,
/// shared by both transports so they answer byte-identically.
pub(crate) const SHARDED_PARTIAL_REJECTION: &str =
    "matvec_partial is a backend-level op; the sharded router owns shard planning";

/// Rejection text for `infer` against a sharded router, shared by both
/// transports so they answer byte-identically.
pub(crate) const SHARDED_INFER_REJECTION: &str =
    "infer is not available in sharded placement; deploy the cluster with \
     `pipeline` (staged layers) or `replicated` placement";

fn dispatch_sharded(
    shared: &RouterShared,
    conns: &mut WorkerConns,
    req: &Request,
    deadline: Option<Instant>,
) -> Response {
    match req.op {
        Op::Matvec => {
            let Some(input) = req.input.as_deref() else {
                return shared.reject_malformed(req.id, "matvec requires `input`");
            };
            match sharded_matvec(shared, conns, req.id, input, deadline) {
                Ok(output) => {
                    let mut resp = Response::ok(req.id);
                    resp.output = Some(output);
                    resp
                }
                Err(resp) => *resp,
            }
        }
        Op::ForwardBatch => {
            let Some(inputs) = req.inputs.as_deref() else {
                return shared.reject_malformed(req.id, "forward_batch requires `inputs`");
            };
            // One scatter-gather per input, strictly in order — each
            // backend therefore serves its shards in input order, which
            // keeps every macro's RNG stream aligned with the
            // single-node `forward_batch` path.
            let mut outputs = Vec::with_capacity(inputs.len());
            for input in inputs {
                match sharded_matvec(shared, conns, req.id, input, deadline) {
                    Ok(output) => outputs.push(output),
                    Err(resp) => return *resp,
                }
            }
            let mut resp = Response::ok(req.id);
            resp.outputs = Some(outputs);
            resp
        }
        Op::MatvecPartial => shared.reject_malformed(req.id, SHARDED_PARTIAL_REJECTION),
        Op::Infer => shared.reject_malformed(req.id, SHARDED_INFER_REJECTION),
        _ => unreachable!("compute ops only"),
    }
}

/// One scatter-gather round: split `input` by the shard plan, send a
/// `matvec_partial` to every shard backend (pipelined — all writes
/// before any read), gather the per-row-tile partials in shard order,
/// and reduce them with the inter-core adder fold.
///
/// Bit-identity: the shards return *unsummed* per-row-tile partials;
/// concatenating them in shard order reconstructs the single-node
/// row-tile sequence, and [`PartialSumAdder::sum_into`] performs the
/// identical left fold — so the reduced output equals
/// `AfprAccelerator::matvec` bit for bit.
fn sharded_matvec(
    shared: &RouterShared,
    conns: &mut WorkerConns,
    id: u64,
    input: &[f32],
    deadline: Option<Instant>,
) -> Result<Vec<f32>, Box<Response>> {
    // One placement view per scatter round: a concurrent rebalance
    // swaps the *next* round's plan, never this one's.
    let view = shared.current_view();
    let Some(plan) = view.plan.clone() else {
        return Err(Box::new(no_shard_capacity(shared, id)));
    };
    if input.len() != shared.k {
        return Err(Box::new(shared.reject_malformed(
            id,
            format!(
                "input has length {}, served layer expects {}",
                input.len(),
                shared.k
            ),
        )));
    }

    // Scatter: for each shard, pick the least-outstanding live replica
    // and write its sub-request before reading any response. A send
    // failure ejects the replica and retries a sibling immediately.
    // `inflight` tracks the replica each shard's response is owed from;
    // any abort path must close those dispatches and drop their
    // connections (a stray response left buffered would desynchronize
    // the next request).
    let mut inflight: Vec<Option<Arc<BackendState>>> = vec![None; plan.shards.len()];
    let mut tried: Vec<Vec<usize>> = vec![Vec::new(); plan.shards.len()];
    for (si, shard) in plan.shards.iter().enumerate() {
        loop {
            if let Some(resp) = deadline_expired(shared, id, deadline) {
                abort_scatter(conns, &inflight);
                return Err(resp);
            }
            let Some(backend) = shared.pool.pick_among(&shard.replicas, &tried[si]) else {
                abort_scatter(conns, &inflight);
                return Err(Box::new(shard_unavailable(shared, id, si)));
            };
            let mut sub = Request::matvec_partial(
                id,
                shard.row_offset as u64,
                input[shard.row_offset..shard.row_end()].to_vec(),
            );
            sub.deadline_ms = remaining_ms(deadline);
            let timeout = attempt_timeout(deadline, shared.cfg.dispatch_timeout);
            backend.begin_dispatch();
            match conns.send(&backend, &sub, timeout) {
                Ok(()) => {
                    inflight[si] = Some(backend);
                    break;
                }
                Err(_) => {
                    backend.finish_dispatch(false, None);
                    tried[si].push(backend.index);
                    if backend.mark_dead() {
                        shared.rebalance();
                    }
                    shared.metrics.serve().record_protocol_error();
                }
            }
        }
    }

    // Gather in shard order; each shard contributes `tiles` unsummed
    // full-width partials. A replica dying mid-gather is ejected and
    // its shard re-dispatched (send + recv, synchronously) to a
    // sibling within the deadline — the sibling holds the identical
    // rows, so failover cannot change a single bit of the reduction.
    let mut parts: Vec<Vec<f32>> = Vec::with_capacity(plan.tiles());
    for (si, shard) in plan.shards.iter().enumerate() {
        let mut backend = inflight[si].take().expect("scatter dispatched every shard");
        'shard: loop {
            let timeout = attempt_timeout(deadline, shared.cfg.dispatch_timeout);
            let started = Instant::now();
            match conns.recv(&backend, timeout) {
                Ok(resp) if resp.status == Status::Ok => {
                    backend.finish_dispatch(true, Some(started.elapsed()));
                    // Each shard meters its own slice of the matvec;
                    // the router ledger sums them per scatter round.
                    if let Some(mj) = resp.energy_mj {
                        shared.metrics.record_energy_mj(None, None, mj);
                    }
                    let Some(partials) = resp.partials else {
                        abort_scatter(conns, &inflight);
                        return Err(Box::new(Response::error(
                            id,
                            Status::Overloaded,
                            format!("shard {si} returned no partials"),
                        )));
                    };
                    if partials.len() != shard.tiles || partials.iter().any(|p| p.len() != shared.n)
                    {
                        abort_scatter(conns, &inflight);
                        return Err(Box::new(Response::error(
                            id,
                            Status::Overloaded,
                            format!("shard {si} returned malformed partials"),
                        )));
                    }
                    parts.extend(partials);
                    break 'shard;
                }
                Ok(resp) => {
                    // Structured shard rejection (503 overloaded, 504
                    // expired, …): the replica is alive and answering,
                    // so propagate status/code upstream with the shard
                    // named in the error text rather than failing over.
                    backend.finish_dispatch(true, Some(started.elapsed()));
                    if resp.status == Status::Overloaded {
                        if let Some(ms) = resp.retry_after_ms {
                            backend.note_retry_after(ms);
                        }
                    }
                    abort_scatter(conns, &inflight);
                    let mut out = Response::error(
                        id,
                        resp.status,
                        format!(
                            "shard {si} ({}): {}",
                            backend.addr,
                            resp.error.as_deref().unwrap_or("rejected")
                        ),
                    );
                    out.retry_after_ms = resp.retry_after_ms;
                    return Err(Box::new(out));
                }
                Err(_) => {
                    // Transport death mid-gather: eject, then fail the
                    // shard over to a sibling replica.
                    backend.finish_dispatch(false, None);
                    tried[si].push(backend.index);
                    if backend.mark_dead() {
                        shared.rebalance();
                    }
                    shared.metrics.serve().record_protocol_error();
                    loop {
                        if let Some(resp) = deadline_expired(shared, id, deadline) {
                            abort_scatter(conns, &inflight);
                            return Err(resp);
                        }
                        let Some(sibling) = shared.pool.pick_among(&shard.replicas, &tried[si])
                        else {
                            abort_scatter(conns, &inflight);
                            return Err(Box::new(shard_unavailable(shared, id, si)));
                        };
                        let mut sub = Request::matvec_partial(
                            id,
                            shard.row_offset as u64,
                            input[shard.row_offset..shard.row_end()].to_vec(),
                        );
                        sub.deadline_ms = remaining_ms(deadline);
                        let timeout = attempt_timeout(deadline, shared.cfg.dispatch_timeout);
                        sibling.begin_dispatch();
                        match conns.send(&sibling, &sub, timeout) {
                            Ok(()) => {
                                backend = sibling;
                                continue 'shard;
                            }
                            Err(_) => {
                                sibling.finish_dispatch(false, None);
                                tried[si].push(sibling.index);
                                if sibling.mark_dead() {
                                    shared.rebalance();
                                }
                                shared.metrics.serve().record_protocol_error();
                            }
                        }
                    }
                }
            }
        }
    }

    // Reduce: fixed left fold in shard/tile order — identical bits to
    // the single-node accumulation.
    let refs: Vec<&[f32]> = parts.iter().map(Vec::as_slice).collect();
    let mut adder = PartialSumAdder::new();
    let mut output = Vec::with_capacity(shared.n);
    adder.sum_into(&refs, &mut output);
    Ok(output)
}

/// A `504` synthesized mid-failover when the caller's budget lapses.
/// Shared by both transports so they answer byte-identically.
pub(crate) fn deadline_expired(
    shared: &RouterShared,
    id: u64,
    deadline: Option<Instant>,
) -> Option<Box<Response>> {
    let d = deadline?;
    if Instant::now() < d {
        return None;
    }
    shared
        .metrics
        .serve()
        .runtime()
        .record_rejection(RejectReason::DeadlineExpired);
    Some(Box::new(Response::error(
        id,
        Status::DeadlineExpired,
        "deadline expired during failover",
    )))
}

/// Cleans up a failed scatter: every shard still owed a response gets
/// its dispatch closed out and its connection dropped (the response,
/// if it ever arrives, must not be mistaken for the next request's).
fn abort_scatter(conns: &mut WorkerConns, inflight: &[Option<Arc<BackendState>>]) {
    for backend in inflight.iter().flatten() {
        backend.finish_dispatch(false, None);
        conns.drop_conn(backend.index);
    }
}

// ---------------------------------------------------------------------------
// Pipeline dispatch (staged layer ranges + activation streaming)
// ---------------------------------------------------------------------------

/// One pipelined `infer`: look the model up in the startup catalog,
/// split its top-level layers over the backends ([`PipelinePlan`]),
/// and run the stages strictly in order — stage *i*'s `infer` sub-
/// request carries `layer_start`/`layer_end` and the activation
/// returned by stage *i−1* — forwarding the remaining deadline budget
/// downstream at every hop.
///
/// Bit-identity: stage boundaries are top-level layer boundaries, the
/// exact points where the single-node forward materializes an
/// activation tensor, and every backend compiled the same models from
/// the same seed — so the staged result equals a single-node `infer`
/// bit for bit. A dead stage cannot be failed over (no other backend
/// is assigned those layers in this plan), so it yields a structured
/// `503` within the deadline.
fn dispatch_pipeline(
    shared: &RouterShared,
    conns: &mut WorkerConns,
    req: &Request,
    deadline: Option<Instant>,
) -> Response {
    let call = match validate_pipeline(shared, req) {
        Ok(call) => call,
        Err(resp) => return *resp,
    };
    let PipelineCall {
        model,
        format,
        plan,
    } = call;
    let model = model.as_str();
    let format = format.as_str();
    let input = req.input.as_ref().expect("validate_pipeline checked input");

    let mut activation = input.clone();
    for stage in &plan.stages {
        let backend = shared.pool.get(stage.backend);
        let mut sub = Request::infer(req.id, model, format, std::mem::take(&mut activation))
            .with_layer_range(stage.start as u64, stage.end as u64);
        sub.deadline_ms = remaining_ms(deadline);
        let timeout = attempt_timeout(deadline, shared.cfg.dispatch_timeout);
        backend.begin_dispatch();
        let started = Instant::now();
        match conns.call(&backend, &sub, timeout) {
            Ok(resp) if resp.status == Status::Ok => {
                backend.finish_dispatch(true, Some(started.elapsed()));
                let Some(output) = resp.output else {
                    return Response::error(
                        req.id,
                        Status::Overloaded,
                        format!("stage {} returned no activation", stage.backend),
                    );
                };
                activation = output;
            }
            Ok(resp) => {
                // Structured stage rejection (503 overloaded, 504
                // expired, …): propagate status/code upstream with the
                // stage named in the error text.
                backend.finish_dispatch(true, Some(started.elapsed()));
                if resp.status == Status::Overloaded {
                    if let Some(ms) = resp.retry_after_ms {
                        backend.note_retry_after(ms);
                    }
                }
                let mut out = Response::error(
                    req.id,
                    resp.status,
                    format!(
                        "stage {} ({}): {}",
                        stage.backend,
                        backend.addr,
                        resp.error.as_deref().unwrap_or("rejected")
                    ),
                );
                out.retry_after_ms = resp.retry_after_ms;
                return out;
            }
            Err(_) => {
                // A dead stage cannot be failed over: no other backend
                // is assigned its layer range.
                backend.finish_dispatch(false, None);
                backend.mark_dead();
                shared.metrics.serve().record_protocol_error();
                let mut resp = Response::error(
                    req.id,
                    Status::Overloaded,
                    format!(
                        "pipeline stage {} ({}) unavailable",
                        stage.backend, backend.addr
                    ),
                );
                resp.retry_after_ms = Some(shared.retry_hint());
                return resp;
            }
        }
    }

    shared.metrics.record_infer(model);
    let mut resp = Response::ok(req.id);
    resp.output = Some(activation);
    resp
}

/// A validated pipelined `infer`: the model/format pair exists in the
/// startup catalog, the input length matches, and the layer split is
/// feasible. Shared by both transports so rejection behavior (and
/// text) is identical.
pub(crate) struct PipelineCall {
    pub(crate) model: String,
    pub(crate) format: String,
    pub(crate) plan: PipelinePlan,
}

/// Runs every synchronous check of a pipelined `infer` request; see
/// [`dispatch_pipeline`] for the staging itself.
pub(crate) fn validate_pipeline(
    shared: &RouterShared,
    req: &Request,
) -> Result<PipelineCall, Box<Response>> {
    let Some(model) = req.model.as_deref() else {
        return Err(Box::new(
            shared.reject_malformed(req.id, "infer requires `model`"),
        ));
    };
    let Some(input) = req.input.as_ref() else {
        return Err(Box::new(
            shared.reject_malformed(req.id, "infer requires `input`"),
        ));
    };
    if req.layer_start.is_some() || req.layer_end.is_some() {
        return Err(Box::new(shared.reject_malformed(
            req.id,
            "layer_start/layer_end are stage-level fields; the pipeline router owns \
             layer planning",
        )));
    }
    let Some(entry) = shared.catalog.iter().find(|m| m.model == model) else {
        // Unknown model: a 404, not a malformed request — routers and
        // retry layers treat it as non-retryable.
        return Err(Box::new(Response::error(
            req.id,
            Status::NotFound,
            format!(
                "unknown model {model:?} (registered: {})",
                catalog_names(shared)
            ),
        )));
    };
    let format = req.format.as_deref().unwrap_or("e2m5");
    if !shared
        .catalog
        .iter()
        .any(|m| m.model == model && m.format == format)
    {
        return Err(Box::new(shared.reject_malformed(
            req.id,
            format!("unknown format {format:?} (expected e2m5, e3m4 or int8)"),
        )));
    }
    if input.len() as u64 != entry.input_len {
        return Err(Box::new(shared.reject_malformed(
            req.id,
            format!(
                "input has length {}, model {model} expects {}",
                input.len(),
                entry.input_len
            ),
        )));
    }
    let plan = PipelinePlan::compute(entry.layers as usize, shared.pool.len())
        .map_err(|e| Box::new(shared.reject_malformed(req.id, format!("model {model}: {e}"))))?;
    Ok(PipelineCall {
        model: model.to_string(),
        format: format.to_string(),
        plan,
    })
}

/// Comma-separated distinct model names in the catalog (for 404s).
pub(crate) fn catalog_names(shared: &RouterShared) -> String {
    let mut names: Vec<&str> = shared.catalog.iter().map(|m| m.model.as_str()).collect();
    names.dedup();
    names.join(", ")
}

/// A shard whose *every* replica is dead cannot be failed over, so
/// sharded mode reports `503` and lets the client retry after the
/// prober (or a register) brings a replica back.
pub(crate) fn shard_unavailable(shared: &RouterShared, id: u64, shard: usize) -> Response {
    let mut resp = Response::error(
        id,
        Status::Overloaded,
        format!("shard {shard} has no live replica; retry shortly"),
    );
    resp.retry_after_ms = Some(shared.retry_hint());
    resp
}

/// No placement plan at all: every member is gone or ineligible.
pub(crate) fn no_shard_capacity(shared: &RouterShared, id: u64) -> Response {
    let mut resp = Response::error(
        id,
        Status::Overloaded,
        "no eligible backend for sharded placement; retry shortly",
    );
    resp.retry_after_ms = Some(shared.retry_hint());
    resp
}

// ---------------------------------------------------------------------------
// Per-worker backend connections
// ---------------------------------------------------------------------------

/// One lazily-connected [`Client`] per backend, owned by a single
/// worker thread. Any transport error drops the connection so framing
/// state can never straddle requests.
struct WorkerConns {
    /// Indexed by stable slot id; grows as backends join.
    conns: Vec<Option<Client>>,
}

impl WorkerConns {
    fn new(backends: usize) -> Self {
        Self {
            conns: (0..backends).map(|_| None).collect(),
        }
    }

    fn slot(&mut self, index: usize) -> &mut Option<Client> {
        if self.conns.len() <= index {
            self.conns.resize_with(index + 1, || None);
        }
        &mut self.conns[index]
    }

    fn drop_conn(&mut self, index: usize) {
        *self.slot(index) = None;
    }

    fn client(
        &mut self,
        backend: &BackendState,
        timeout: Duration,
    ) -> Result<&mut Client, ClientError> {
        if self.slot(backend.index).is_none() {
            let client = Client::connect(&backend.addr)?;
            *self.slot(backend.index) = Some(client);
        }
        let client = self
            .slot(backend.index)
            .as_mut()
            .expect("connection just ensured");
        client.set_read_timeout(Some(timeout))?;
        client.set_write_timeout(Some(timeout))?;
        Ok(client)
    }

    /// Sends one request without waiting (scatter half).
    fn send(
        &mut self,
        backend: &BackendState,
        req: &Request,
        timeout: Duration,
    ) -> Result<(), ClientError> {
        let result = self.client(backend, timeout).and_then(|c| c.send(req));
        if result.is_err() {
            self.drop_conn(backend.index);
        }
        result
    }

    /// Receives one response (gather half).
    fn recv(&mut self, backend: &BackendState, timeout: Duration) -> Result<Response, ClientError> {
        let result = match self.slot(backend.index).as_mut() {
            Some(c) => c.set_read_timeout(Some(timeout)).and_then(|()| c.recv()),
            None => Err(ClientError::Disconnected),
        };
        if result.is_err() {
            self.drop_conn(backend.index);
        }
        result
    }

    /// Full round trip (replicated forwarding).
    fn call(
        &mut self,
        backend: &BackendState,
        req: &Request,
        timeout: Duration,
    ) -> Result<Response, ClientError> {
        let result = self.client(backend, timeout).and_then(|c| c.call(req));
        if result.is_err() {
            self.drop_conn(backend.index);
        }
        result
    }
}
