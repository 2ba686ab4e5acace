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
//! # Transports, the front door and the dispatch core
//!
//! Clients meet the front door of [`afpr_serve::front`], the same one
//! a backend runs, on the transport [`ClusterConfig::transport`]
//! selects. What a request does — admission, replicated failover,
//! scatter rounds, pipeline staging, deadline aborts and every
//! response text — is decided once, by the socket-free machines of the
//! `dispatch` module. A blocking worker drives one machine at a time
//! over its own backend connections: it writes every owed sub-request
//! before reading any, then reads the responses in shard order. The
//! reactor (`event_router`) drives the same machines over pooled
//! upstream connections, so the two answer byte-identically.
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

use std::io;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock, Weak};
use std::thread::{self, JoinHandle, Thread};
use std::time::{Duration, Instant};

use afpr_models::ModelEntrySnapshot;
use afpr_power::EnergyRoutingPolicy;
use afpr_serve::front::{Door, FrontConfig, Tier};
use afpr_serve::{
    Client, ClientError, HealthInfo, HealthState, Request, Response, ServeMetrics, Status,
    Transport, DEFAULT_MAX_FRAME, PROTOCOL_VERSION,
};
use parking_lot::Mutex;

use crate::backend::{spawn_prober, BackendPool, BackendState, Fingerprint, SeedPin};
use crate::dispatch::{admit, Admit, Machine, Step};
use crate::event_router::Upstreams;
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
    pub(crate) catalog: Vec<ModelEntrySnapshot>,
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
    /// State over a probed pool. The facts fix the identity contract
    /// later joins and revivals must match; the first placement plan
    /// comes from [`RouterShared::rebalance`].
    pub(crate) fn new(
        cfg: ClusterConfig,
        pool: BackendPool,
        facts: StartupFacts,
        drain_waker: Option<afpr_reactor::Waker>,
    ) -> Self {
        let StartupFacts {
            k,
            n,
            unit,
            catalog,
            catalog_seed,
            common_seed,
        } = facts;
        let expected = Fingerprint {
            protocol: PROTOCOL_VERSION,
            input_dim: k as u64,
            output_dim: n as u64,
            row_tile_rows: (cfg.placement == Placement::Sharded).then_some(unit as u64),
            registry_seed: common_seed,
            catalog: (cfg.placement == Placement::Pipeline)
                .then(|| Fingerprint::catalog_key(&catalog)),
        };
        Self {
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
        }
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
    /// The front door's threads: an acceptor and connection workers,
    /// or one event loop.
    front: Vec<JoinHandle<()>>,
    prober: Option<JoinHandle<()>>,
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
        let facts = startup_probe(&cfg, &pool)?;
        if cfg.placement == Placement::Pipeline {
            // Every registered model must admit a stage per backend.
            for entry in &facts.catalog {
                PipelinePlan::compute(entry.layers as usize, pool.len()).map_err(|e| {
                    io::Error::new(
                        io::ErrorKind::InvalidInput,
                        format!("model {}: {e}", entry.model),
                    )
                })?;
            }
        }
        let (door, drain_waker) = Door::bind(&cfg.addr, cfg.transport)?;
        let addr = door.addr;
        let front_cfg = FrontConfig {
            workers: cfg.workers,
            accept_backlog: cfg.accept_backlog,
            read_timeout: cfg.read_timeout,
            max_frame_bytes: cfg.max_frame_bytes,
            frame_assembly_timeout: cfg.frame_assembly_timeout,
            max_connections: cfg.max_connections,
            idle_timeout: cfg.idle_timeout,
        };

        let shared = Arc::new(RouterShared::new(cfg, pool, facts, drain_waker));
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
        match door.open(&shared, front_cfg, "afpr-cluster") {
            Ok(front) => Ok(Self {
                addr,
                shared,
                front,
                prober: Some(prober),
            }),
            Err(e) => {
                shared.begin_shutdown();
                Err(e)
            }
        }
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
        for h in self.front.drain(..) {
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
pub(crate) struct StartupFacts {
    pub(crate) k: usize,
    pub(crate) n: usize,
    pub(crate) unit: usize,
    pub(crate) catalog: Vec<ModelEntrySnapshot>,
    pub(crate) catalog_seed: Option<u64>,
    pub(crate) common_seed: SeedPin,
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
// Front door glue
// ---------------------------------------------------------------------------

/// The router tier: [`admit`] answers a request or makes it a dispatch
/// machine, which a blocking worker drives over its own backend
/// connections ([`WorkerConns::drive`]) and the reactor over its
/// upstream pool ([`Upstreams`]).
impl Tier for RouterShared {
    type Worker = WorkerConns;
    type Events<'a> = Upstreams<'a>;

    fn metrics(&self) -> &ServeMetrics {
        self.metrics.serve()
    }

    fn is_shutting_down(&self) -> bool {
        self.shutting_down.load(Ordering::Acquire)
    }

    fn retry_hint(&self) -> u64 {
        self.pool
            .min_retry_after_ms()
            .unwrap_or(self.cfg.retry_after_ms)
    }

    fn answer(&self, conns: &mut WorkerConns, req: Request, t0: Instant) -> Response {
        match admit(self, req, t0) {
            Admit::Reply(resp) => *resp,
            Admit::Run(machine) => conns.drive(self, machine),
        }
    }

    fn events(&self) -> Upstreams<'_> {
        Upstreams::new(self)
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

// ---------------------------------------------------------------------------
// Per-worker backend connections
// ---------------------------------------------------------------------------

/// One lazily-connected [`Client`] per backend, owned by a single
/// worker thread. Any transport error drops the connection so framing
/// state can never straddle requests.
#[derive(Default)]
pub(crate) struct WorkerConns {
    /// Indexed by stable slot id; grows as backends join.
    conns: Vec<Option<Client>>,
    /// Sub-calls written and not yet answered (reused across requests).
    owed: Vec<Owed>,
}

/// A written sub-call whose response is still owed.
struct Owed {
    shard: usize,
    backend: Arc<BackendState>,
    sent: Instant,
    /// The read timeout armed when it was written.
    timeout: Duration,
}

impl WorkerConns {
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

    /// Receives one response (gather half), first re-arming the read
    /// timeout when one is given.
    fn recv(
        &mut self,
        backend: &BackendState,
        timeout: Option<Duration>,
    ) -> Result<Response, ClientError> {
        let result = match self.slot(backend.index).as_mut() {
            Some(c) => timeout
                .map_or(Ok(()), |t| c.set_read_timeout(Some(t)))
                .and_then(|()| c.recv()),
            None => Err(ClientError::Disconnected),
        };
        if result.is_err() {
            self.drop_conn(backend.index);
        }
        result
    }

    /// Drives one dispatch machine to its response. Every owed
    /// sub-request is written before any response is read, and
    /// responses are read in shard order, so the shards of a scatter
    /// round compute concurrently.
    fn drive(&mut self, shared: &RouterShared, mut machine: Machine) -> Response {
        let mut now = Instant::now();
        let mut step = machine.next(shared, now);
        loop {
            step = match step {
                Step::Send { shard, backend } => {
                    let (sub, timeout) = machine.sub_request(shared, shard, now);
                    let sent = now;
                    backend.begin_dispatch();
                    let written = self.send(&backend, &sub, timeout);
                    now = Instant::now();
                    if written.is_ok() {
                        self.owed.push(Owed {
                            shard,
                            backend,
                            sent,
                            timeout,
                        });
                        machine.next(shared, now)
                    } else {
                        backend.finish_dispatch(false, None);
                        machine.on_transport_fail(shared, shard, backend.index, now)
                    }
                }
                Step::Wait => {
                    let first = (0..self.owed.len())
                        .min_by_key(|&i| self.owed[i].shard)
                        .expect("a waiting machine is owed a response");
                    let Owed {
                        shard,
                        backend,
                        sent,
                        timeout,
                    } = self.owed.swap_remove(first);
                    // The budget left may have shrunk since the write.
                    let fresh = machine.attempt_timeout(shared, now);
                    let read = self.recv(&backend, (fresh != timeout).then_some(fresh));
                    now = Instant::now();
                    match read {
                        Ok(resp) => {
                            backend.finish_dispatch(true, Some(now.duration_since(sent)));
                            machine.on_response(shared, shard, backend.index, resp, now)
                        }
                        Err(_) => {
                            backend.finish_dispatch(false, None);
                            machine.on_transport_fail(shared, shard, backend.index, now)
                        }
                    }
                }
                Step::Done(resp) => {
                    // Shards still owed when a machine finishes early:
                    // close their dispatches and drop their connections,
                    // so a late response is never read as the next
                    // request's.
                    while let Some(o) = self.owed.pop() {
                        o.backend.finish_dispatch(false, None);
                        self.drop_conn(o.backend.index);
                    }
                    return resp;
                }
            };
        }
    }
}
