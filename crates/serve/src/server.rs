//! The multi-threaded TCP inference server.
//!
//! # Thread architecture
//!
//! ```text
//!              ┌───────────┐   bounded chan    ┌──────────────────┐
//!  clients ──▶ │ acceptor  │ ────────────────▶ │ connection pool  │
//!              └───────────┘   (TcpStream)     │ (cfg.workers ×)  │
//!                                              └────────┬─────────┘
//!                                  admission: try_submit│  ▲ reply
//!                                                       ▼  │ channel
//!                                              ┌──────────────────┐
//!                                              │   MicroBatcher   │
//!                                              └────────┬─────────┘
//!                                              next_batch│
//!                                                       ▼
//!                                              ┌──────────────────┐
//!                                              │ exec thread      │
//!                                              │ forward_batch on │
//!                                              │ Engine workers   │
//!                                              └──────────────────┘
//! ```
//!
//! Connection workers parse frames, enforce admission control
//! (deadline check, shutdown gate, bounded-queue `try_submit`), and
//! block on a per-request reply channel. A single *execution thread*
//! owns the [`AfprAccelerator`] and drains the micro-batch queue,
//! fanning tiles out on the runtime [`Engine`] — which preserves the
//! bit-for-bit determinism contract of `forward_batch`: for the same
//! request sequence the served results equal the in-process sequential
//! path exactly.
//!
//! # Overload & deadlines
//!
//! When the admission queue is full, requests are answered immediately
//! with `503 overloaded` + `retry_after_ms` — the connection never
//! blocks on a saturated queue, so `health`/`metrics` (which bypass
//! the queue entirely) stay responsive under any load. Requests carry
//! an optional `deadline_ms` budget: expiry is checked at admission
//! *and* again when the execution thread picks the batch up, so a
//! request that aged out while queued is dropped before it costs
//! engine time and is counted under `rejections.deadline_expired`.
//!
//! # Graceful shutdown
//!
//! `shutdown` (the request, or [`Server::shutdown`]) flips the drain
//! flag and closes the batcher. The acceptor stops, in-flight queued
//! requests are flushed by the execution thread
//! ([`MicroBatcher`] close is drain-then-stop), connection workers
//! finish their current request and close, and a final
//! [`ServeSnapshot`] is produced. Admission and the close are
//! serialized inside the batcher, so a racing request is either queued
//! before the close (and served) or refused with a `503` at admission
//! — no producer is ever left waiting on a reply that will not come.

use std::io::{self, BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use afpr_core::accelerator::{AfprAccelerator, LayerHandle};
use afpr_core::{ChaosConfig, ChaosController};
use afpr_models::{InferError, ModelKind, ModelRegistry};
use afpr_nn::tensor::Tensor;
use afpr_power::{evaluate_budget, BudgetDecision, EnergyPoint, RequestEnergy};
use afpr_runtime::{BatchConfig, Engine, EngineConfig, MicroBatcher, QueueFull, RejectReason};
use afpr_xbar::spec::{MacroMode, MacroSpec};
use crossbeam::channel::{bounded, Receiver, RecvTimeoutError, Sender, TrySendError};

use crate::event_server;
use crate::health::{HealthMachine, HealthPolicy, HealthState};
use crate::metrics::{ServeMetrics, ServeSnapshot};
use crate::protocol::{
    self, Encoding, FrameError, HealthInfo, Op, Request, Response, Status, DEFAULT_MAX_FRAME,
    PROTOCOL_VERSION,
};

/// Which I/O transport the server's front door runs on.
///
/// Both transports speak the same wire protocol through the same
/// admission pipeline and produce byte-identical responses; the
/// blocking pool is kept as the behavioral oracle for the reactor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Transport {
    /// Thread-per-connection blocking I/O (`cfg.workers` threads).
    #[default]
    Blocking,
    /// Single epoll event loop driving every connection (Linux only;
    /// see `afpr-reactor`). Scales to tens of thousands of idle
    /// connections without pinning a thread per socket.
    Reactor,
}

impl Transport {
    /// Reads a transport choice from an environment variable
    /// (`"reactor"` selects the reactor where supported; anything else
    /// — including unset — selects blocking I/O). The suite wrappers
    /// that re-run every serve test against the reactor set this.
    #[must_use]
    pub fn from_env(var: &str) -> Self {
        match std::env::var(var).ok().as_deref() {
            Some("reactor") if afpr_reactor::reactor_supported() => Transport::Reactor,
            _ => Transport::Blocking,
        }
    }
}

/// Configuration for [`Server`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; use port `0` for an ephemeral port.
    pub addr: String,
    /// Front-door I/O transport. Defaults from `AFPR_SERVE_TRANSPORT`.
    pub transport: Transport,
    /// Reactor-transport connection cap: accepts past it are answered
    /// with a structured `503 overloaded` frame and closed. (The
    /// blocking transport's cap is `workers` + `accept_backlog`.)
    pub max_connections: usize,
    /// Reactor-transport idle sweep: a connection with no bytes moved
    /// in either direction for this long is closed.
    pub idle_timeout: Duration,
    /// Wall-clock cap on assembling one inbound frame (both
    /// transports). A slowloris peer trickling bytes can reset the
    /// stall counter forever; this budget cannot be reset.
    pub frame_assembly_timeout: Duration,
    /// Connection worker pool size.
    pub workers: usize,
    /// Engine worker threads (`None` = available parallelism).
    pub engine_threads: Option<usize>,
    /// Admission queue capacity (the backpressure bound).
    pub queue_capacity: usize,
    /// Most requests in one batch. The execution thread takes what is
    /// already queued, up to this many, and never waits for more.
    pub batch_size: usize,
    /// Cap on a single frame's payload.
    pub max_frame_bytes: usize,
    /// Socket read timeout; doubles as the shutdown poll period for
    /// idle connections.
    pub read_timeout: Duration,
    /// Backoff advertised in `503 overloaded` responses.
    pub retry_after_ms: u64,
    /// Accepted-connection backlog between acceptor and pool; beyond
    /// it, connections are dropped (counted, never silently lost).
    pub accept_backlog: usize,
    /// Artificial per-batch execution delay. Zero in production; tests
    /// and overload demos use it to saturate the admission queue
    /// deterministically.
    pub exec_delay: Duration,
    /// Live fault environment applied to the served accelerator by the
    /// execution thread (one chaos tick per batch). `None` disables
    /// fault injection entirely — the fault-free path draws zero chaos
    /// randomness and stays bit-identical.
    pub chaos: Option<ChaosConfig>,
    /// Thresholds for the health state machine and load shedding.
    pub health: HealthPolicy,
    /// Every Nth batch, the execution thread submits a deliberately
    /// panicking job to the engine pool (worker-pool fault injection;
    /// the panic is caught and counted, never escapes). `0` disables.
    pub panic_every: u64,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".to_string(),
            transport: Transport::from_env("AFPR_SERVE_TRANSPORT"),
            max_connections: 12_000,
            idle_timeout: Duration::from_secs(300),
            frame_assembly_timeout: Duration::from_secs(30),
            workers: 8,
            engine_threads: None,
            queue_capacity: 64,
            batch_size: 8,
            max_frame_bytes: DEFAULT_MAX_FRAME,
            read_timeout: Duration::from_millis(20),
            retry_after_ms: 20,
            accept_backlog: 128,
            exec_delay: Duration::ZERO,
            chaos: None,
            health: HealthPolicy::default(),
            panic_every: 0,
        }
    }
}

/// The model a server instance serves: a prepared accelerator plus the
/// mapped layer to expose over the wire.
pub struct ServeModel {
    accel: AfprAccelerator,
    handle: LayerHandle,
    k: usize,
    n: usize,
    row_tile_rows: usize,
    registry: Option<Arc<ModelRegistry>>,
}

impl std::fmt::Debug for ServeModel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServeModel")
            .field("k", &self.k)
            .field("n", &self.n)
            .finish_non_exhaustive()
    }
}

impl ServeModel {
    /// Wraps a prepared accelerator (weights mapped, ADC calibrated).
    ///
    /// Warms every macro's conductance-snapshot kernel up front so the
    /// first request served pays no lazy-build latency (warming is a
    /// pure read: it changes no result bits).
    #[must_use]
    pub fn new(accel: AfprAccelerator, handle: LayerHandle) -> Self {
        let (k, n) = accel.layer_dims(handle);
        let row_tile_rows = accel.row_tile_rows(handle);
        accel.warm_kernel();
        Self {
            accel,
            handle,
            k,
            n,
            row_tile_rows,
            registry: None,
        }
    }

    /// Attaches a model registry, enabling the `infer` op: clients can
    /// then run whole registered networks (`tiny-mlp`, `tiny-resnet`,
    /// `tiny-mobilenet`) server-side with per-request numeric-format
    /// selection. Without a registry, `infer` requests get a `400`.
    #[must_use]
    pub fn with_registry(mut self, registry: Arc<ModelRegistry>) -> Self {
        self.registry = Some(registry);
        self
    }

    /// The standard demo model: a 256→128 layer tiled over 4×4 small
    /// FP8 E2M5 macros, deterministic in `seed`. Benchmarks, tests and
    /// the quickstart example all serve this model so results are
    /// comparable (and bit-reproducible) across them.
    #[must_use]
    pub fn demo(seed: u64) -> Self {
        const K: usize = 256;
        const N: usize = 128;
        let base = MacroSpec::small(64, 32, MacroMode::FpE2M5);
        let mut accel = AfprAccelerator::with_spec(base, seed);
        let w = Tensor::from_fn(&[K, N], |i| {
            (((i[0] * N + i[1]) * 7 % 23) as f32 - 11.0) / 22.0
        });
        let handle = accel.map_matrix(&w);
        let calib: Vec<f32> = (0..K).map(|k| ((k as f32) * 0.13).sin()).collect();
        accel.calibrate_layer(handle, std::slice::from_ref(&calib));
        Self::new(accel, handle)
    }

    /// The demo model with spare columns provisioned on every macro, so
    /// chaos-injected stuck cells can be detected and repaired in
    /// service. Fault-free, it computes **bit-identically** to
    /// [`ServeModel::demo`] with the same seed (unused spares change
    /// neither the programming RNG stream nor the read path).
    #[must_use]
    pub fn demo_resilient(seed: u64, spare_cols: usize) -> Self {
        const K: usize = 256;
        const N: usize = 128;
        let base = MacroSpec::small(64, 32, MacroMode::FpE2M5).with_spare_cols(spare_cols);
        let mut accel = AfprAccelerator::with_spec(base, seed);
        let w = Tensor::from_fn(&[K, N], |i| {
            (((i[0] * N + i[1]) * 7 % 23) as f32 - 11.0) / 22.0
        });
        let handle = accel.map_matrix(&w);
        let calib: Vec<f32> = (0..K).map(|k| ((k as f32) * 0.13).sin()).collect();
        accel.calibrate_layer(handle, std::slice::from_ref(&calib));
        Self::new(accel, handle)
    }

    /// The deterministic demo input for request index `id` (shared by
    /// tests, the example and the load generator).
    #[must_use]
    pub fn demo_input(k: usize, id: usize) -> Vec<f32> {
        (0..k)
            .map(|j| (((j + 31 * id) as f32) * 0.13).sin())
            .collect()
    }

    /// Input/output dimensions `(k, n)`.
    #[must_use]
    pub fn dims(&self) -> (usize, usize) {
        (self.k, self.n)
    }

    /// Unwraps into the raw accelerator + handle (e.g. to compute a
    /// reference result in a test).
    #[must_use]
    pub fn into_parts(self) -> (AfprAccelerator, LayerHandle) {
        (self.accel, self.handle)
    }
}

/// Reply from the execution thread to a waiting connection worker.
pub(crate) enum ExecReply {
    /// `matvec`/`forward_batch`: outputs, one per input vector.
    /// `matvec_partial`: unsummed per-row-tile partials.
    /// `infer`: one output vector.
    ///
    /// The second field is the analog/digital energy the execution
    /// thread attributed to this job (measured as the accelerator +
    /// registry counter delta around it; batched jobs get a
    /// proportional share of their flattened run).
    Done(Vec<Vec<f32>>, RequestEnergy),
    /// The job's deadline lapsed while it sat in the queue.
    Expired,
    /// The job failed validation at execution time (e.g. an `infer`
    /// stage input whose length only the compiled model can check).
    Failed(Status, String),
}

/// What a queued job asks the accelerator to compute.
enum JobPayload {
    /// Full-width matvec(s): `matvec` (one input) or `forward_batch`.
    Full(Vec<Vec<f32>>),
    /// A `matvec_partial` row-range shard (validated at admission).
    Partial {
        /// First input row of the shard (row-tile aligned).
        row_offset: usize,
        /// The shard's slice of the input vector.
        input: Vec<f32>,
    },
    /// An `infer` pass over a registered model's layer range
    /// (statically validated at admission; activation lengths for
    /// mid-network stages are checked against the compiled model at
    /// execution).
    Infer {
        /// Model wire name (validated known at admission).
        model: String,
        /// Format wire name (validated known at admission).
        format: String,
        /// Flattened input / stage activation.
        input: Vec<f32>,
        /// First top-level layer (inclusive).
        start: usize,
        /// One past the last top-level layer.
        end: usize,
    },
}

impl JobPayload {
    /// The full-width inputs (empty for partial/infer jobs).
    fn full_inputs(&self) -> &[Vec<f32>] {
        match self {
            JobPayload::Full(inputs) => inputs,
            JobPayload::Partial { .. } | JobPayload::Infer { .. } => &[],
        }
    }
}

/// A unit of queued work.
struct ExecJob {
    deadline: Option<Instant>,
    payload: JobPayload,
    reply: Sender<ExecReply>,
}

/// State shared by every server thread.
pub(crate) struct Shared {
    pub(crate) cfg: ServerConfig,
    shutting_down: AtomicBool,
    batcher: MicroBatcher<ExecJob>,
    pub(crate) metrics: ServeMetrics,
    health: Arc<HealthMachine>,
    k: usize,
    n: usize,
    row_tile_rows: usize,
    registry: Option<Arc<ModelRegistry>>,
    /// Wire name of the served layer's macro numeric format — the
    /// energy-accounting key for `matvec`/`forward_batch`/
    /// `matvec_partial` requests (infer requests carry their own).
    base_format: String,
    /// Wakes the reactor event loop when the execution thread has
    /// replies ready (`None` on the blocking transport, whose workers
    /// block on their own reply channels instead).
    transport_waker: Option<afpr_reactor::Waker>,
    /// Ends the blocking transport's acceptor wait so a drain stops it
    /// at once (`None` on the reactor transport, or where the acceptor
    /// has no readiness wait).
    accept_waker: Option<afpr_reactor::Waker>,
}

impl Shared {
    pub(crate) fn is_shutting_down(&self) -> bool {
        self.shutting_down.load(Ordering::Acquire)
    }

    /// Nudges the event-driven transport (no-op for blocking I/O).
    pub(crate) fn wake_transport(&self) {
        if let Some(w) = &self.transport_waker {
            w.wake();
        }
    }

    /// Flips the drain flag, marks the health machine draining, and
    /// closes the admission queue (idempotent).
    pub(crate) fn begin_shutdown(&self) {
        self.shutting_down.store(true, Ordering::Release);
        self.health.set_draining();
        self.batcher.close();
        self.wake_transport();
        if let Some(w) = &self.accept_waker {
            w.wake();
        }
    }

    /// Admission-queue fill fraction in `[0, 1]`.
    fn queue_frac(&self) -> f64 {
        let cap = self.cfg.queue_capacity.max(1);
        self.batcher.len() as f64 / cap as f64
    }

    pub(crate) fn health_info(&self) -> HealthInfo {
        let state = self.health.evaluate(self.queue_frac());
        let snap = self.health.snapshot();
        HealthInfo {
            protocol: PROTOCOL_VERSION,
            input_dim: self.k as u64,
            output_dim: self.n as u64,
            queue_depth: self.batcher.len() as u64,
            queue_capacity: self.cfg.queue_capacity as u64,
            shutting_down: self.is_shutting_down(),
            state,
            fault_events: snap.fault_events,
            row_tile_rows: self.row_tile_rows as u64,
            models: self.registry.as_ref().map(|r| r.snapshot().models),
            registry_seed: self.registry.as_ref().map(|r| r.seed()),
            power_mw: self.metrics.runtime().sample_power_mw(),
        }
    }
}

/// Handle to a running inference server.
///
/// Dropping the handle requests shutdown and joins every thread.
///
/// # Example
///
/// ```no_run
/// use afpr_serve::{Client, ServeModel, Server, ServerConfig};
///
/// let server = Server::start(ServerConfig::default(), ServeModel::demo(7)).unwrap();
/// let mut client = Client::connect(server.local_addr()).unwrap();
/// let y = client.matvec(vec![0.5f32; 256]).unwrap();
/// assert_eq!(y.len(), 128);
/// let snapshot = server.shutdown();
/// assert_eq!(snapshot.runtime.requests_accepted, 1);
/// ```
pub struct Server {
    addr: SocketAddr,
    shared: Arc<Shared>,
    acceptor: Option<JoinHandle<()>>,
    exec: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server")
            .field("addr", &self.addr)
            .field("workers", &self.workers.len())
            .finish_non_exhaustive()
    }
}

impl Server {
    /// Binds the listener and spawns the acceptor, connection pool and
    /// execution thread.
    ///
    /// # Errors
    ///
    /// Propagates socket errors (bind failure, bad address).
    ///
    /// # Panics
    ///
    /// Panics if `workers`, `queue_capacity` or `batch_size` is zero.
    pub fn start(cfg: ServerConfig, model: ServeModel) -> io::Result<Self> {
        assert!(cfg.workers > 0, "workers must be positive");
        let listener = TcpListener::bind(&cfg.addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;

        let engine = Engine::new(EngineConfig {
            threads: cfg.engine_threads,
        });
        let batcher = MicroBatcher::with_metrics(
            BatchConfig {
                batch_size: cfg.batch_size,
                capacity: cfg.queue_capacity,
            },
            Arc::clone(engine.metrics()),
        );
        let health = Arc::new(HealthMachine::new(cfg.health.clone()));
        let metrics = ServeMetrics::with_health(Arc::clone(engine.metrics()), Arc::clone(&health));
        let chaos = cfg.chaos.clone().map(ChaosController::new);
        let ServeModel {
            accel,
            handle,
            k,
            n,
            row_tile_rows,
            registry,
        } = model;
        if let Some(reg) = &registry {
            metrics.set_registry(Arc::clone(reg));
        }
        let base_format = afpr_models::format_wire_name(accel.mode()).to_string();
        // Reactor transport: the poller, waker pair and registrations
        // are created here (not in the event-loop thread) so setup
        // failures surface as `Server::start` errors.
        let (transport_waker, reactor_io) = match cfg.transport {
            Transport::Reactor => {
                let poller = afpr_reactor::Poller::new()?;
                let (waker, waker_source) = afpr_reactor::waker_pair()?;
                poller.register(
                    &listener,
                    event_server::LISTENER_TOKEN,
                    afpr_reactor::Interest::READABLE,
                )?;
                poller.register(
                    &waker_source,
                    event_server::WAKER_TOKEN,
                    afpr_reactor::Interest::READABLE,
                )?;
                (Some(waker), Some((poller, waker_source)))
            }
            Transport::Blocking => (None, None),
        };
        let (accept_wait, accept_waker) = match cfg.transport {
            Transport::Reactor => (None, None),
            Transport::Blocking => {
                let (wait, waker) = afpr_reactor::AcceptWait::new(&listener);
                (Some(wait), waker)
            }
        };
        let shared = Arc::new(Shared {
            cfg,
            shutting_down: AtomicBool::new(false),
            batcher,
            metrics,
            health,
            k,
            n,
            row_tile_rows,
            registry,
            base_format,
            transport_waker,
            accept_waker,
        });

        // Thread-spawn failure (OS resource exhaustion) is an I/O error
        // we propagate, not a panic. On any failure path,
        // `begin_shutdown` closes the batcher and drops the connection
        // channel, so every already-spawned thread observes the drain
        // and exits on its own.
        let exec = {
            let shared_exec = Arc::clone(&shared);
            let spawned = thread::Builder::new()
                .name("afpr-serve-exec".into())
                .spawn(move || exec_loop(&shared_exec, accel, handle, &engine, chaos));
            match spawned {
                Ok(h) => h,
                Err(e) => {
                    shared.begin_shutdown();
                    return Err(e);
                }
            }
        };

        // Reactor transport: one event-loop thread replaces the
        // acceptor + connection pool entirely.
        if let Some((poller, waker_source)) = reactor_io {
            let event_loop = {
                let shared_ev = Arc::clone(&shared);
                thread::Builder::new()
                    .name("afpr-serve-reactor".into())
                    .spawn(move || event_server::run(&shared_ev, &listener, &poller, &waker_source))
            };
            let acceptor = match event_loop {
                Ok(h) => h,
                Err(e) => {
                    shared.begin_shutdown();
                    return Err(e);
                }
            };
            return Ok(Self {
                addr,
                shared,
                acceptor: Some(acceptor),
                exec: Some(exec),
                workers: Vec::new(),
            });
        }

        let (conn_tx, conn_rx) = bounded::<TcpStream>(shared.cfg.accept_backlog);
        let mut workers = Vec::with_capacity(shared.cfg.workers);
        for i in 0..shared.cfg.workers {
            let worker = {
                let shared = Arc::clone(&shared);
                let conn_rx = conn_rx.clone();
                thread::Builder::new()
                    .name(format!("afpr-serve-conn-{i}"))
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
                .name("afpr-serve-accept".into())
                .spawn(move || acceptor_loop(&shared_acc, &listener, &conn_tx, wait));
            match spawned {
                Ok(h) => h,
                Err(e) => {
                    shared.begin_shutdown();
                    return Err(e);
                }
            }
        };

        Ok(Self {
            addr,
            shared,
            acceptor: Some(acceptor),
            exec: Some(exec),
            workers,
        })
    }

    /// The bound address (resolves ephemeral ports).
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// A live metrics snapshot.
    #[must_use]
    pub fn metrics(&self) -> ServeSnapshot {
        self.shared.metrics.snapshot()
    }

    /// Whether a drain has been requested (locally or by a client's
    /// `shutdown` request).
    #[must_use]
    pub fn is_shutting_down(&self) -> bool {
        self.shared.is_shutting_down()
    }

    /// Requests a graceful drain without blocking: stops admission,
    /// flushes queued work, lets current requests finish.
    pub fn request_shutdown(&self) {
        self.shared.begin_shutdown();
    }

    /// Blocks until a drain has been requested (used by the `serve`
    /// binary to wait for a client-sent `shutdown`).
    pub fn wait_shutdown_requested(&self) {
        while !self.is_shutting_down() {
            thread::sleep(Duration::from_millis(25));
        }
    }

    /// Gracefully drains and stops the server, returning the final
    /// metrics snapshot: in-flight requests are flushed, then every
    /// thread is joined.
    #[must_use]
    pub fn shutdown(mut self) -> ServeSnapshot {
        self.join_threads();
        self.shared.metrics.snapshot()
    }

    fn join_threads(&mut self) {
        self.shared.begin_shutdown();
        if let Some(h) = self.acceptor.take() {
            let _ = h.join();
        }
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
        if let Some(h) = self.exec.take() {
            let _ = h.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.join_threads();
    }
}

// ---------------------------------------------------------------------------
// Acceptor
// ---------------------------------------------------------------------------

/// Accepts connections until the drain, handing each to the worker
/// pool. Between connections it parks on listener readiness
/// ([`afpr_reactor::AcceptWait`]); `begin_shutdown` wakes it.
fn acceptor_loop(
    shared: &Shared,
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
                // The listener is non-blocking (so this loop can watch
                // the drain flag); accepted sockets must be blocking
                // for the per-connection read-timeout discipline.
                if stream.set_nonblocking(false).is_err() {
                    continue;
                }
                shared.metrics.record_connection();
                match conn_tx.try_send(stream) {
                    Ok(()) => {}
                    Err(TrySendError::Full(stream)) => {
                        shared.metrics.record_connection_dropped();
                        drop(stream);
                    }
                    Err(TrySendError::Disconnected(_)) => return,
                }
            }
            Err(e) => wait.pause(&e),
        }
    }
}

// ---------------------------------------------------------------------------
// Connection workers
// ---------------------------------------------------------------------------

fn worker_loop(shared: &Shared, conn_rx: &Receiver<TcpStream>) {
    const IDLE_POLL: Duration = Duration::from_millis(25);
    loop {
        match conn_rx.recv_timeout(IDLE_POLL) {
            Ok(stream) => connection_loop(shared, stream),
            Err(RecvTimeoutError::Timeout) => {
                if shared.is_shutting_down() {
                    return;
                }
            }
            Err(RecvTimeoutError::Disconnected) => return,
        }
    }
}

/// Serves one connection to completion: a read → admit → execute →
/// respond loop with framing-error containment.
fn connection_loop(shared: &Shared, stream: TcpStream) {
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
            Ok(None) => return, // clean disconnect
            Ok(Some(payload)) => {
                let t0 = Instant::now();
                if !handle_frame(shared, &payload, t0, &mut writer) {
                    return;
                }
                // Drain-then-stop: during shutdown each connection
                // finishes the request it is on, then closes.
                if shared.is_shutting_down() {
                    return;
                }
            }
            Err(e) if e.is_timeout() => {
                if shared.is_shutting_down() {
                    return; // idle connection during drain
                }
            }
            Err(FrameError::TooLarge { announced, max }) => {
                // The peer is alive and spoke the framing language;
                // tell it what went wrong, then cut the connection
                // (the oversized payload cannot be skipped safely).
                shared.metrics.record_protocol_error();
                shared
                    .metrics
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
                // Half-sent frame: nothing sensible to answer.
                shared.metrics.record_protocol_error();
                return;
            }
            Err(FrameError::Io(_)) => {
                shared.metrics.record_protocol_error();
                return;
            }
        }
    }
}

/// Parses and serves one frame. Returns `false` when the connection
/// should close (write failure or served a `shutdown`).
fn handle_frame<W: Write>(shared: &Shared, payload: &[u8], t0: Instant, writer: &mut W) -> bool {
    // Answer in the encoding the request arrived in.
    let enc = Encoding::of(payload);
    let req = match protocol::parse_message::<Request>(payload) {
        Ok(req) => req,
        Err(e) => {
            // Undecodable payload inside a good frame: answer 400, keep
            // the connection — framing is still in sync.
            let resp = reject_malformed(shared, 0, e);
            return enc.write(writer, &resp).is_ok();
        }
    };
    let op = req.op;
    let id = req.id;
    let resp = dispatch(shared, req, t0);
    shared
        .metrics
        .record_request(op, resp.is_ok(), t0.elapsed());
    debug_assert_eq!(resp.id, id);
    if enc.write(writer, &resp).is_err() {
        return false;
    }
    op != Op::Shutdown
}

/// How a `Done` reply's outputs map back onto response fields.
#[derive(Debug, Clone, Copy)]
pub(crate) enum ReplyShape {
    /// `matvec`/`infer`: one output vector in `output`.
    Single,
    /// `forward_batch`: all output vectors in `outputs`.
    Batch,
    /// `matvec_partial`: per-row-tile partials in `partials`.
    Partials,
}

/// Energy-accounting identity of an admitted request, resolved at
/// admission and carried to reply resolution: which ledger keys the
/// measured joules are credited to, and whether an over-budget
/// downshift was applied.
#[derive(Debug, Clone)]
pub(crate) struct RequestTag {
    pub(crate) op: Op,
    /// Format the request actually runs in (post-downshift).
    pub(crate) format: String,
    /// Model wire name (`infer` only).
    pub(crate) model: Option<String>,
    /// Whether admission downshifted the format under `energy_budget_mj`.
    pub(crate) downshifted: bool,
}

impl RequestTag {
    /// The cost-model key the request's measured energy trains.
    pub(crate) fn cost_key(&self) -> String {
        cost_key(self.op, &self.format, self.model.as_deref())
    }
}

/// Cost-model key for a request shape: `"{op}:{format}"`, with the
/// model name interposed for `infer` (whose cost varies per network).
fn cost_key(op: Op, format: &str, model: Option<&str>) -> String {
    match model {
        Some(m) => format!("{}:{m}:{format}", op.wire_name()),
        None => format!("{}:{format}", op.wire_name()),
    }
}

/// A request admitted to the execution queue, awaiting its reply.
pub(crate) struct PendingExec {
    pub(crate) id: u64,
    pub(crate) shape: ReplyShape,
    pub(crate) rx: Receiver<ExecReply>,
    pub(crate) deadline: Option<Instant>,
    pub(crate) tag: RequestTag,
}

impl PendingExec {
    /// When the transport should stop waiting and fail the request
    /// (execution thread presumed dead). Mirrors the blocking path's
    /// `recv_timeout` bound.
    pub(crate) fn expires_at(&self, admitted: Instant) -> Instant {
        match self.deadline {
            Some(d) => d + REPLY_GRACE,
            None => admitted + REPLY_TIMEOUT,
        }
    }
}

/// Outcome of non-blocking dispatch: either the response is already
/// known, or the request was queued and the reply must be awaited.
pub(crate) enum Admission {
    Immediate(Box<Response>),
    Pending(PendingExec),
}

impl Admission {
    /// `Response` is ~17× the size of `PendingExec`; boxing keeps the
    /// enum (and the per-request queue slots built from it) small.
    pub(crate) fn immediate(resp: Response) -> Self {
        Admission::Immediate(Box::new(resp))
    }
}

/// Admission control + dispatch for one parsed request (blocking
/// transport: waits for the execution reply in place).
fn dispatch(shared: &Shared, req: Request, t0: Instant) -> Response {
    match dispatch_admit(shared, req, t0) {
        Admission::Immediate(resp) => *resp,
        Admission::Pending(pending) => {
            // Generous reply wait: the execution thread answers every
            // queued job (including during drain), so this timeout only
            // fires if the execution thread died — fail the request
            // instead of hanging the connection forever.
            let wait = match pending.deadline {
                Some(d) => d.saturating_duration_since(Instant::now()) + REPLY_GRACE,
                None => REPLY_TIMEOUT,
            };
            let reply = pending.rx.recv_timeout(wait).ok();
            resolve_reply(shared, pending, reply)
        }
    }
}

/// The non-blocking part of dispatch, shared by both transports:
/// validation, immediate ops, and queue admission. Never blocks — a
/// compute request either fails fast or comes back as
/// [`Admission::Pending`].
pub(crate) fn dispatch_admit(shared: &Shared, req: Request, t0: Instant) -> Admission {
    // Version gate: router↔backend (or client↔server) version skew
    // fails loudly at the first frame instead of corrupting results
    // silently. Old frames without the field parse as version 1.
    if req.proto_version != PROTOCOL_VERSION {
        return Admission::immediate(reject_malformed(
            shared,
            req.id,
            format!(
                "unsupported protocol version {} (server speaks {PROTOCOL_VERSION})",
                req.proto_version
            ),
        ));
    }
    match req.op {
        Op::Health => {
            let mut resp = Response::ok(req.id);
            resp.health = Some(shared.health_info());
            Admission::immediate(resp)
        }
        Op::Metrics => {
            let mut resp = Response::ok(req.id);
            resp.metrics = Some(shared.metrics.snapshot());
            Admission::immediate(resp)
        }
        Op::Shutdown => {
            shared.begin_shutdown();
            let mut resp = Response::ok(req.id);
            resp.metrics = Some(shared.metrics.snapshot());
            Admission::immediate(resp)
        }
        Op::Matvec => {
            let Some(input) = req.input.clone() else {
                return Admission::immediate(reject_malformed(
                    shared,
                    req.id,
                    "matvec requires `input`",
                ));
            };
            admit(
                shared,
                &req,
                t0,
                JobPayload::Full(vec![input]),
                ReplyShape::Single,
            )
        }
        Op::ForwardBatch => {
            let Some(inputs) = req.inputs.clone() else {
                return Admission::immediate(reject_malformed(
                    shared,
                    req.id,
                    "forward_batch requires `inputs`",
                ));
            };
            if inputs.is_empty() {
                let mut resp = Response::ok(req.id);
                resp.outputs = Some(Vec::new());
                return Admission::immediate(resp);
            }
            admit(
                shared,
                &req,
                t0,
                JobPayload::Full(inputs),
                ReplyShape::Batch,
            )
        }
        Op::MatvecPartial => {
            let payload = match validate_partial(shared, &req) {
                Ok(p) => p,
                Err(detail) => {
                    return Admission::immediate(reject_malformed(shared, req.id, detail));
                }
            };
            admit(shared, &req, t0, payload, ReplyShape::Partials)
        }
        Op::Infer => {
            let payload = match validate_infer(shared, &req) {
                Ok(p) => p,
                Err(resp) => return Admission::immediate(*resp),
            };
            admit(shared, &req, t0, payload, ReplyShape::Single)
        }
        // Membership control is router-level: a backend has no pool to
        // mutate, so it refuses loudly instead of silently acking a
        // registration that changed nothing.
        Op::Register | Op::Deregister => Admission::immediate(reject_malformed(
            shared,
            req.id,
            format!("`{}` is a cluster-router op; this is a backend", req.op),
        )),
    }
}

/// Turns an execution reply (or its absence: timeout / dead execution
/// thread) into the wire response. Shared by both transports so status
/// mapping and rejection accounting stay identical.
pub(crate) fn resolve_reply(
    shared: &Shared,
    pending: PendingExec,
    reply: Option<ExecReply>,
) -> Response {
    let PendingExec { id, shape, tag, .. } = pending;
    match reply {
        Some(ExecReply::Done(mut outputs, energy)) => {
            let mut resp = Response::ok(id);
            match shape {
                ReplyShape::Single => resp.output = outputs.pop(),
                ReplyShape::Batch => resp.outputs = Some(outputs),
                ReplyShape::Partials => resp.partials = Some(outputs),
            }
            resp.energy_mj = Some(energy.total_mj());
            if tag.op == Op::Infer {
                resp.format = Some(tag.format.clone());
            }
            shared.metrics.power().record(
                Some(&tag.format),
                tag.model.as_deref(),
                &energy,
                tag.downshifted,
            );
            shared
                .metrics
                .cost()
                .observe_j(&tag.cost_key(), energy.total_j());
            resp
        }
        Some(ExecReply::Expired) => {
            Response::error(id, Status::DeadlineExpired, "deadline expired while queued")
        }
        Some(ExecReply::Failed(status, detail)) => {
            if status == Status::Malformed {
                shared
                    .metrics
                    .runtime()
                    .record_rejection(RejectReason::Malformed);
            }
            Response::error(id, status, detail)
        }
        None => Response::error(id, Status::ShuttingDown, "execution pipeline unavailable"),
    }
}

/// Validates an `infer` request against the registry's static model
/// facts. Untrusted wire input gets a structured `404` (unknown model)
/// or `400` (missing/invalid fields, bad format, wrong dims, bad layer
/// range) — never a panic. Stage activations entering mid-network
/// (`layer_start > 0`) can only be length-checked against the compiled
/// model's boundary shapes, which happens on the execution thread.
fn validate_infer(shared: &Shared, req: &Request) -> Result<JobPayload, Box<Response>> {
    if shared.registry.is_none() {
        return Err(Box::new(reject_malformed(
            shared,
            req.id,
            "this server has no model registry attached",
        )));
    }
    let Some(model) = req.model.clone() else {
        return Err(Box::new(reject_malformed(
            shared,
            req.id,
            "infer requires `model`",
        )));
    };
    let Some(input) = req.input.clone() else {
        return Err(Box::new(reject_malformed(
            shared,
            req.id,
            "infer requires `input`",
        )));
    };
    let Some(kind) = ModelKind::from_wire(&model) else {
        // Unknown model is a 404, distinct from malformed-field 400s —
        // routers treat it as non-retryable.
        return Err(Box::new(Response::error(
            req.id,
            Status::NotFound,
            format!("unknown model {model:?}"),
        )));
    };
    let format = req.format.clone().unwrap_or_else(|| "e2m5".to_string());
    if afpr_models::format_from_wire(&format).is_none() {
        return Err(Box::new(reject_malformed(
            shared,
            req.id,
            format!("unknown format {format:?} (expected e2m5, e3m4 or int8)"),
        )));
    }
    let layers = kind.layers() as u64;
    let start = req.layer_start.unwrap_or(0);
    let end = req.layer_end.unwrap_or(layers);
    if start >= end || end > layers {
        return Err(Box::new(reject_malformed(
            shared,
            req.id,
            format!("layer range [{start}, {end}) invalid for {layers} layers"),
        )));
    }
    if start == 0 && input.len() != kind.input_len() {
        return Err(Box::new(reject_malformed(
            shared,
            req.id,
            format!(
                "input has length {}, model {model} expects {}",
                input.len(),
                kind.input_len()
            ),
        )));
    }
    Ok(JobPayload::Infer {
        model,
        format,
        input,
        start: start as usize,
        end: end as usize,
    })
}

/// Validates a `matvec_partial` request against the served layer's
/// tiling. Every invariant the accelerator asserts is checked here
/// first, so untrusted wire input gets a `400` — never a panic.
fn validate_partial(shared: &Shared, req: &Request) -> Result<JobPayload, String> {
    let Some(input) = req.input.clone() else {
        return Err("matvec_partial requires `input`".to_string());
    };
    let Some(row_offset) = req.row_offset else {
        return Err("matvec_partial requires `row_offset`".to_string());
    };
    if let Some(rows) = req.rows {
        if rows != input.len() as u64 {
            return Err(format!(
                "`rows` ({rows}) disagrees with input length ({})",
                input.len()
            ));
        }
    }
    if input.is_empty() {
        return Err("matvec_partial input must be non-empty".to_string());
    }
    let k = shared.k as u64;
    let unit = shared.row_tile_rows.max(1) as u64;
    if row_offset >= k {
        return Err(format!("row_offset {row_offset} out of range (k = {k})"));
    }
    if row_offset % unit != 0 {
        return Err(format!(
            "row_offset {row_offset} is not aligned to the row-tile height {unit}"
        ));
    }
    // `input.len() <= isize::MAX` and `row_offset < k <= usize::MAX`,
    // but the sum of two untrusted values still gets a checked add.
    let end = row_offset
        .checked_add(input.len() as u64)
        .filter(|&e| e <= k)
        .ok_or_else(|| {
            format!(
                "shard [{row_offset}, {row_offset}+{}) exceeds the input dimension {k}",
                input.len()
            )
        })?;
    if end != k && end % unit != 0 {
        return Err(format!(
            "shard end {end} is neither k ({k}) nor aligned to the row-tile height {unit}"
        ));
    }
    Ok(JobPayload::Partial {
        row_offset: row_offset as usize,
        input,
    })
}

pub(crate) fn reject_malformed(shared: &Shared, id: u64, detail: impl Into<String>) -> Response {
    shared
        .metrics
        .runtime()
        .record_rejection(RejectReason::Malformed);
    Response::error(id, Status::Malformed, detail)
}

/// Hard cap on a client-supplied `deadline_ms` (24 hours). Values past
/// this are rejected as malformed: they carry no scheduling meaning
/// and, near `u64::MAX`, would overflow `Instant + Duration`.
pub const MAX_DEADLINE_MS: u64 = 86_400_000;

/// Runs the admission pipeline for compute requests: input validation
/// → deadline gate → drain gate → bounded-queue submit. Non-blocking;
/// on success the caller (blocking worker or event loop) awaits the
/// reply channel.
fn admit(
    shared: &Shared,
    req: &Request,
    t0: Instant,
    mut payload: JobPayload,
    shape: ReplyShape,
) -> Admission {
    // Partial payloads were validated against the tiling in
    // `validate_partial`; full payloads are checked here.
    for (i, input) in payload.full_inputs().iter().enumerate() {
        if input.len() != shared.k {
            return Admission::immediate(reject_malformed(
                shared,
                req.id,
                format!(
                    "input {i} has length {}, served layer expects {}",
                    input.len(),
                    shared.k
                ),
            ));
        }
    }

    // Energy-budget gate. The cost model estimates from past requests
    // with the same (op, format[, model]) key; an unknown key admits
    // (the first request is the calibration run). Over budget, the
    // request is either rejected with a structured 429 or — only with
    // the client's explicit `allow_downshift` consent, on an `infer`
    // not already in the INT8 baseline — downshifted to INT8, with the
    // format it actually ran in echoed in the response.
    let (mut format, model) = match &payload {
        JobPayload::Infer { model, format, .. } => (format.clone(), Some(model.clone())),
        JobPayload::Full(_) | JobPayload::Partial { .. } => (shared.base_format.clone(), None),
    };
    let mut downshifted = false;
    if let Some(budget) = req.energy_budget_mj {
        if !budget.is_finite() || budget <= 0.0 {
            return Admission::immediate(reject_malformed(
                shared,
                req.id,
                format!("energy_budget_mj must be a finite positive number, got {budget}"),
            ));
        }
        let estimate =
            shared
                .metrics
                .cost()
                .estimate_mj(&cost_key(req.op, &format, model.as_deref()));
        let downshift_available = req.allow_downshift == Some(true)
            && matches!(payload, JobPayload::Infer { .. })
            && format != "int8";
        match evaluate_budget(budget, estimate, downshift_available) {
            BudgetDecision::Admit => {}
            BudgetDecision::Downshift => {
                downshifted = true;
                format = "int8".to_string();
                if let JobPayload::Infer { format: f, .. } = &mut payload {
                    *f = format.clone();
                }
            }
            BudgetDecision::Reject { estimate_mj } => {
                shared
                    .metrics
                    .runtime()
                    .record_rejection(RejectReason::EnergyBudget);
                return Admission::immediate(Response::error(
                    req.id,
                    Status::OverBudget,
                    format!("estimated cost {estimate_mj:.6} mJ exceeds energy_budget_mj {budget}"),
                ));
            }
        }
    }

    // Untrusted input: a huge `deadline_ms` (e.g. `u64::MAX`) would
    // overflow `Instant + Duration` and panic the connection worker.
    // `checked_add` turns that into a 400 instead, and anything past
    // `MAX_DEADLINE_MS` is rejected too — a deadline measured in days
    // is a client bug, and such values would otherwise outlive every
    // internal timeout and pin queue slots for no reason.
    let deadline = match req.deadline_ms {
        None => None,
        Some(ms) => {
            let within_cap = ms <= MAX_DEADLINE_MS;
            match t0.checked_add(Duration::from_millis(ms)) {
                Some(d) if within_cap => Some(d),
                _ => {
                    return Admission::immediate(reject_malformed(
                        shared,
                        req.id,
                        format!("deadline_ms {ms} exceeds the maximum of {MAX_DEADLINE_MS} ms"),
                    ));
                }
            }
        }
    };
    if let Some(d) = deadline {
        if Instant::now() >= d {
            shared
                .metrics
                .runtime()
                .record_rejection(RejectReason::DeadlineExpired);
            return Admission::immediate(Response::error(
                req.id,
                Status::DeadlineExpired,
                "deadline expired before admission",
            ));
        }
    }

    if shared.is_shutting_down() {
        return Admission::immediate(Response::error(
            req.id,
            Status::ShuttingDown,
            "server is draining",
        ));
    }

    // Health gate: while Degraded, shed compute load before the queue
    // is hard-full so the requests we do accept keep bounded latency.
    // `health`/`metrics` never reach this path.
    let queue_frac = shared.queue_frac();
    if shared.health.evaluate(queue_frac) == HealthState::Degraded
        && shared.health.should_shed(queue_frac)
    {
        shared.health.record_shed();
        shared
            .metrics
            .runtime()
            .record_rejection(RejectReason::Shed);
        let mut resp = Response::error(
            req.id,
            Status::Overloaded,
            "service degraded: shedding load",
        );
        resp.retry_after_ms = Some(shared.cfg.retry_after_ms);
        return Admission::immediate(resp);
    }

    let (reply_tx, reply_rx) = bounded::<ExecReply>(1);
    let job = ExecJob {
        deadline,
        payload,
        reply: reply_tx,
    };
    if let Err(QueueFull(_)) = shared.batcher.try_submit(job) {
        // The batcher already counted the rejection (queue_full).
        let mut resp = Response::error(req.id, Status::Overloaded, "admission queue at capacity");
        resp.retry_after_ms = Some(shared.cfg.retry_after_ms);
        return Admission::immediate(resp);
    }
    shared.metrics.runtime().record_request_accepted();

    Admission::Pending(PendingExec {
        id: req.id,
        shape,
        rx: reply_rx,
        deadline,
        tag: RequestTag {
            op: req.op,
            format,
            model,
            downshifted,
        },
    })
}

/// Safety-net wait for a reply when the request has no deadline.
const REPLY_TIMEOUT: Duration = Duration::from_secs(120);
/// Extra wait past a request's own deadline (covers the batch ahead
/// of it on the execution thread and that thread's expiry sweep).
const REPLY_GRACE: Duration = Duration::from_secs(5);

// ---------------------------------------------------------------------------
// Execution thread
// ---------------------------------------------------------------------------

fn exec_loop(
    shared: &Shared,
    mut accel: AfprAccelerator,
    handle: LayerHandle,
    engine: &Engine,
    mut chaos: Option<ChaosController>,
) {
    let mut energy_reported = 0.0f64;
    let mut batches: u64 = 0;
    while let Some(batch) = shared.batcher.next_batch() {
        batches += 1;
        if !shared.cfg.exec_delay.is_zero() {
            thread::sleep(shared.cfg.exec_delay);
        }
        // Worker-pool fault injection: a deliberately poisoned job.
        // The engine catches and counts it; serving is unaffected.
        if shared.cfg.panic_every > 0 && batches.is_multiple_of(shared.cfg.panic_every) {
            engine.spawn(|| panic!("injected worker fault"));
        }
        // One chaos tick per batch: stuck cells / drift land between
        // batches (never mid-batch), and scrub passes repair in place.
        // The cumulative fault evidence feeds the health machine.
        if let Some(ctl) = chaos.as_mut() {
            let _ = ctl.tick(&mut accel);
            let stats = *ctl.stats();
            shared.health.note_fault_events(stats.fault_events());
            shared.metrics.record_chaos_stats(stats);
        }
        run_batch(shared, &mut accel, handle, engine, batch);
        // Export the accelerator's analog-energy delta so `metrics`
        // responses track live energy, not just a final total.
        let total = accel.stats().total_energy().joules() + accel.adder_energy().joules();
        engine.metrics().record_energy_j(total - energy_reported);
        energy_reported = total;
        // Replies for this batch are on their channels: nudge the
        // event-driven transport to deliver them (no-op for blocking).
        shared.wake_transport();
    }
}

fn run_batch(
    shared: &Shared,
    accel: &mut AfprAccelerator,
    handle: LayerHandle,
    engine: &Engine,
    batch: Vec<ExecJob>,
) {
    // Second deadline gate: drop jobs that aged out while queued,
    // before they cost engine time.
    let now = Instant::now();
    let mut live = Vec::with_capacity(batch.len());
    for job in batch {
        if job.deadline.is_some_and(|d| now >= d) {
            shared
                .metrics
                .runtime()
                .record_rejection(RejectReason::DeadlineExpired);
            let _ = job.reply.send(ExecReply::Expired);
        } else {
            live.push(job);
        }
    }
    if live.is_empty() {
        return;
    }

    // Serve jobs in submission order — the determinism contract: for
    // the same request sequence, every macro's RNG stream advances in
    // the same order as the in-process path. Runs of consecutive
    // full-width jobs are flattened into one engine batch; a partial
    // (row-shard) or infer job is a barrier that flushes the run
    // first, then runs on the execution thread (infer passes through
    // the registry's own compiled macros, not the served layer).
    let mut full_run: Vec<ExecJob> = Vec::new();
    for job in live {
        match &job.payload {
            JobPayload::Full(_) => full_run.push(job),
            JobPayload::Partial { row_offset, input } => {
                flush_full_run(shared, accel, handle, engine, std::mem::take(&mut full_run));
                // Observation-only metering: the counter reads bracket
                // the computation and change no result bits.
                let before = energy_now(shared, accel);
                let partials = accel.matvec_partial(handle, *row_offset, input);
                let energy = energy_now(shared, accel).delta(&before);
                let _ = job.reply.send(ExecReply::Done(partials, energy));
            }
            JobPayload::Infer {
                model,
                format,
                input,
                start,
                end,
            } => {
                flush_full_run(shared, accel, handle, engine, std::mem::take(&mut full_run));
                let before = energy_now(shared, accel);
                // `validate_infer` admits only registry-backed jobs.
                let reply = match shared
                    .registry
                    .as_ref()
                    .map(|reg| reg.infer_range(model, format, input, Some(*start), Some(*end)))
                {
                    Some(Ok(output)) => {
                        let energy = energy_now(shared, accel).delta(&before);
                        ExecReply::Done(vec![output], energy)
                    }
                    Some(Err(e)) => ExecReply::Failed(infer_error_status(&e), e.to_string()),
                    None => ExecReply::Failed(
                        Status::Malformed,
                        "this server has no model registry attached".to_string(),
                    ),
                };
                let _ = job.reply.send(reply);
            }
        }
    }
    flush_full_run(shared, accel, handle, engine, full_run);
}

/// A point-in-time read of every energy counter a request on this
/// server can touch: the served layer's accelerator (macros + adder
/// tree) plus the registry's compiled models. Pure observation — reads
/// no RNG and mutates nothing.
fn energy_now(shared: &Shared, accel: &AfprAccelerator) -> EnergyPoint {
    let stats = accel.stats();
    let mut point = EnergyPoint::new(stats.energy, accel.adder_energy(), stats.conversions);
    if let Some(reg) = &shared.registry {
        let e = reg.energy();
        point = point.merged(&EnergyPoint::new(e.breakdown, e.adder, e.conversions));
    }
    point
}

/// Maps a registry inference failure onto a wire status: unknown model
/// is `404 not_found`, everything else (bad format, wrong dims, bad
/// layer range) `400 malformed`.
fn infer_error_status(e: &InferError) -> Status {
    match e {
        InferError::UnknownModel(_) => Status::NotFound,
        InferError::UnknownFormat(_)
        | InferError::BadInput { .. }
        | InferError::BadLayerRange { .. } => Status::Malformed,
    }
}

/// Flattens a run of consecutive full-width jobs into one engine batch
/// (submission order preserved — the determinism contract of
/// `forward_batch`), then splits the outputs back out per job.
fn flush_full_run(
    shared: &Shared,
    accel: &mut AfprAccelerator,
    handle: LayerHandle,
    engine: &Engine,
    jobs: Vec<ExecJob>,
) {
    if jobs.is_empty() {
        return;
    }
    let flat: Vec<Vec<f32>> = jobs
        .iter()
        .flat_map(|job| job.payload.full_inputs().iter().cloned())
        .collect();
    let before = energy_now(shared, accel);
    let mut outputs = accel.forward_batch(handle, &flat, engine).into_iter();
    // The flattened run is one metered unit; each job gets a share
    // proportional to its sample count (every sample in the run costs
    // the same macro work).
    let run_energy = energy_now(shared, accel).delta(&before);
    let samples = flat.len() as u64;
    for job in jobs {
        let take = job.payload.full_inputs().len();
        let chunk: Vec<Vec<f32>> = outputs.by_ref().take(take).collect();
        let energy = run_energy.share(take as u64, samples);
        let _ = job.reply.send(ExecReply::Done(chunk, energy));
    }
}
