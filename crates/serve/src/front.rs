//! The client-facing front door, written once per transport and run by
//! both serving tiers: the backend [`Server`](crate::Server) and the
//! cluster router in `afpr-cluster`.
//!
//! A front door accepts connections, assembles length-prefixed frames,
//! answers framing errors, writes each answer in the encoding its
//! request arrived in, and drains on shutdown. What a decoded request
//! asks for is the tier's business: the door hands it over through
//! [`Tier::answer`] (blocking) or [`EventTier::admit`] (reactor) and
//! delivers what comes back. Tier facts, such as the over-cap retry
//! hint, the sweep period and how a waiting answer resolves, are passed
//! in through those two traits, so nothing here branches on the tier.
//!
//! **Blocking** ([`Transport::Blocking`]): an acceptor thread parked on
//! listener readiness ([`AcceptWait`]) hands each connection to a pool
//! of `workers` threads, and a worker serves one connection at a time,
//! one request at a time.
//!
//! **Reactor** ([`Transport::Reactor`]): one epoll loop drives every
//! connection, plus any peer sockets the tier keeps on the same poller
//! (the router's upstream connections).
//!
//! ```text
//!            readable                    frame complete
//!   ┌──────┐ ──────── fill() ─────────▶ parse → EventTier::admit
//!   │ OPEN │                               │ answer         │ wait
//!   └──────┘ ◀── flush drained ──┐         ▼                ▼
//!      │                         │   queue: [Ready]   [Waiting(pending)]
//!      │ EOF/error/timeout       │         └───── head resolved in
//!      ▼                         │               order → encode →
//!   CLOSE-AFTER-FLUSH ──────────▶└── write buffer (WRITABLE interest
//!      │  queue empty + flushed            while non-empty)
//!      ▼
//!    CLOSED (slot generation bumped; stale events die)
//! ```
//!
//! - **Order**: answers leave a connection in request order. Only the
//!   head of its queue is written, and a waiting head holds back the
//!   answers behind it.
//! - **Backpressure**: past `WRITE_HIGH_WATER` queued response bytes
//!   or `MAX_PIPELINED` queued requests, the loop stops reading the
//!   connection (interest re-registration, no unbounded buffering).
//! - **Admission**: at `max_connections` live clients, further accepts
//!   get one structured `503` frame and are closed, never a silent drop.
//! - **Liveness**: a waker ends the wait when answers are ready or a
//!   drain begins; a periodic sweep reaps idle and slowloris peers and
//!   re-polls waiting answers.
//! - **Drain**: every client is marked close-after-flush, reads stop,
//!   and each connection closes once its queue is delivered; the loop
//!   ends when no client is left and the tier has nothing in flight.

use std::collections::{HashSet, VecDeque};
use std::io::{self, BufReader, BufWriter};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use afpr_reactor::{
    waker_pair, AcceptWait, Event, FrameConn, Interest, Poller, Slab, Waker, WakerSource,
    SENTINEL_BASE,
};
use afpr_runtime::RejectReason;
use crossbeam::channel::{bounded, Receiver, RecvTimeoutError, Sender, TrySendError};

use crate::metrics::ServeMetrics;
use crate::protocol::{self, Encoding, FrameError, Op, Request, Response, Status};

/// Which I/O transport a tier's front door runs on. Both serve the same
/// wire protocol through the same tier logic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Transport {
    /// Thread-per-connection blocking I/O (`workers` threads).
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
    /// that re-run every test against the reactor set this.
    #[must_use]
    pub fn from_env(var: &str) -> Self {
        match std::env::var(var).ok().as_deref() {
            Some("reactor") if afpr_reactor::reactor_supported() => Transport::Reactor,
            _ => Transport::Blocking,
        }
    }
}

/// The front door's share of a tier's configuration (the fields of the
/// same names in `ServerConfig` and `ClusterConfig`).
#[derive(Debug, Clone, Copy)]
pub struct FrontConfig {
    /// Blocking: connection worker threads.
    pub workers: usize,
    /// Blocking: accepted connections queued for a free worker; past
    /// it, connections are dropped and counted.
    pub accept_backlog: usize,
    /// Blocking: socket read timeout, which is also how often an idle
    /// worker rechecks the drain flag.
    pub read_timeout: Duration,
    /// Cap on one frame's payload.
    pub max_frame_bytes: usize,
    /// Wall-clock cap on assembling one frame once its first byte
    /// arrives (the slowloris guard).
    pub frame_assembly_timeout: Duration,
    /// Reactor: live client connections past which accepts get a `503`.
    pub max_connections: usize,
    /// Reactor: a client with no bytes moved this long is closed.
    pub idle_timeout: Duration,
}

/// What a serving tier tells the front door that runs it. Each tier
/// implements it on the state its threads share.
pub trait Tier: Send + Sync + 'static {
    /// A blocking worker's own state, kept across the connections it
    /// serves (the router's backend connections).
    type Worker: Default;
    /// The tier's side of a reactor loop, living on the loop's thread.
    type Events<'a>: EventTier<Tier = Self>
    where
        Self: 'a;

    /// The counters the door keeps: connections, drops, protocol
    /// errors, malformed rejections and per-op records.
    fn metrics(&self) -> &ServeMetrics;
    /// Whether a drain has begun.
    fn is_shutting_down(&self) -> bool;
    /// The back-off advertised in the `503` an over-cap connection gets.
    fn retry_hint(&self) -> u64;
    /// Blocking: answers one decoded request read at `t0`, waiting as
    /// long as that takes.
    fn answer(&self, worker: &mut Self::Worker, req: Request, t0: Instant) -> Response;
    /// Reactor: the tier's state for one event loop.
    fn events(&self) -> Self::Events<'_>;

    /// A `400` for a malformed request, counted as a malformed
    /// rejection.
    fn reject_malformed(&self, id: u64, detail: impl Into<String>) -> Response {
        self.metrics()
            .runtime()
            .record_rejection(RejectReason::Malformed);
        Response::error(id, Status::Malformed, detail)
    }
}

/// How a request gets its answer on the reactor, and what else the
/// tier runs on the loop.
pub trait EventTier: Sized {
    /// The shared tier state.
    type Tier: Tier;
    /// What a request waiting for its answer keeps in its queue slot.
    type Pending;
    /// Other sockets on the loop's poller and slab.
    type Peer;
    /// How often the loop sweeps for timeouts.
    const SWEEP_PERIOD: Duration;

    /// Takes one decoded request from client `client`: the tier queues
    /// its answer with [`Front::answer`] or parks it with [`Front::wait`].
    fn admit(
        &mut self,
        front: &mut Front<'_, Self>,
        client: u64,
        enc: Encoding,
        req: Request,
        t0: Instant,
    );

    /// The answer of a waiting request at the head of its queue, if it
    /// has one now. Tiers that answer with [`Front::resolve`] instead
    /// keep the default.
    fn poll(&mut self, _pending: &Self::Pending, _t0: Instant) -> Option<Response> {
        None
    }

    /// Readiness on a peer socket.
    fn peer_event(&mut self, _front: &mut Front<'_, Self>, _token: u64, _ev: Event) {}

    /// The tier's own timers, run after each client sweep.
    fn sweep(&mut self, _front: &mut Front<'_, Self>, _now: Instant) {}

    /// Whether nothing is in flight that a drain must wait for.
    fn settled(&self) -> bool {
        true
    }
}

/// A bound listener and its transport's wait, ready for [`Door::open`].
pub struct Door {
    /// The bound address (resolves ephemeral ports).
    pub addr: SocketAddr,
    listener: TcpListener,
    wait: Wait,
}

enum Wait {
    Blocking(AcceptWait),
    Reactor(Poller, WakerSource),
}

impl Door {
    /// Binds `addr` for `transport`. The waker ends the wait of the
    /// thread that owns the listener: fire it when a drain begins and,
    /// on the reactor, when answers are ready. Setup failures surface
    /// here, before the tier starts any thread.
    ///
    /// # Errors
    ///
    /// Bind failures, and the reactor's poller or waker setup.
    pub fn bind(addr: &str, transport: Transport) -> io::Result<(Self, Option<Waker>)> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let (wait, waker) = match transport {
            Transport::Blocking => {
                let (wait, waker) = AcceptWait::new(&listener);
                (Wait::Blocking(wait), waker)
            }
            Transport::Reactor => {
                let poller = Poller::new()?;
                let (waker, source) = waker_pair()?;
                poller.register(&listener, LISTENER, Interest::READABLE)?;
                poller.register(&source, WAKER, Interest::READABLE)?;
                (Wait::Reactor(poller, source), Some(waker))
            }
        };
        let door = Self {
            addr,
            listener,
            wait,
        };
        Ok((door, waker))
    }

    /// Spawns the door's threads over `tier`, named after `name`: the
    /// acceptor and `cfg.workers` workers, or one event loop. They run
    /// until the tier drains; join them to wait for that.
    ///
    /// # Errors
    ///
    /// Thread-spawn failures. The caller then begins its drain, which
    /// stops the threads already spawned.
    pub fn open<T: Tier>(
        self,
        tier: &Arc<T>,
        cfg: FrontConfig,
        name: &str,
    ) -> io::Result<Vec<JoinHandle<()>>> {
        let Self { listener, wait, .. } = self;
        let spawn = |suffix: String, body: Box<dyn FnOnce() + Send>| {
            thread::Builder::new()
                .name(format!("{name}-{suffix}"))
                .spawn(body)
        };
        match wait {
            Wait::Reactor(poller, source) => {
                let tier = Arc::clone(tier);
                let body =
                    move || event_loop(tier.events(), &*tier, cfg, &listener, &poller, &source);
                Ok(vec![spawn("reactor".into(), Box::new(body))?])
            }
            Wait::Blocking(wait) => {
                let (conn_tx, conn_rx) = bounded::<TcpStream>(cfg.accept_backlog);
                let mut threads = Vec::with_capacity(cfg.workers + 1);
                for i in 0..cfg.workers {
                    let (tier, conn_rx) = (Arc::clone(tier), conn_rx.clone());
                    let body = move || worker_loop(&*tier, &cfg, &conn_rx);
                    threads.push(spawn(format!("conn-{i}"), Box::new(body))?);
                }
                let tier = Arc::clone(tier);
                let body = move || acceptor_loop(&*tier, &listener, &conn_tx, wait);
                threads.push(spawn("accept".into(), Box::new(body))?);
                Ok(threads)
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Blocking transport
// ---------------------------------------------------------------------------

/// Accepts connections until the drain, handing each to the worker
/// pool. Between connections it parks on listener readiness; the
/// tier's drain fires the door's waker, which ends the wait.
fn acceptor_loop<T: Tier>(
    tier: &T,
    listener: &TcpListener,
    conn_tx: &Sender<TcpStream>,
    mut wait: AcceptWait,
) {
    loop {
        if tier.is_shutting_down() {
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
                tier.metrics().record_connection();
                match conn_tx.try_send(stream) {
                    Ok(()) => {}
                    Err(TrySendError::Full(stream)) => {
                        tier.metrics().record_connection_dropped();
                        drop(stream);
                    }
                    Err(TrySendError::Disconnected(_)) => return,
                }
            }
            Err(e) => wait.pause(&e),
        }
    }
}

fn worker_loop<T: Tier>(tier: &T, cfg: &FrontConfig, conn_rx: &Receiver<TcpStream>) {
    const IDLE_POLL: Duration = Duration::from_millis(25);
    let mut worker = T::Worker::default();
    loop {
        match conn_rx.recv_timeout(IDLE_POLL) {
            Ok(stream) => connection_loop(tier, &mut worker, cfg, stream),
            Err(RecvTimeoutError::Timeout) => {
                if tier.is_shutting_down() {
                    return;
                }
            }
            Err(RecvTimeoutError::Disconnected) => return,
        }
    }
}

/// Serves one connection to completion: a read → answer → write loop
/// with framing-error containment.
fn connection_loop<T: Tier>(
    tier: &T,
    worker: &mut T::Worker,
    cfg: &FrontConfig,
    stream: TcpStream,
) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(cfg.read_timeout));
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(read_half);
    let mut writer = BufWriter::new(stream);
    let metrics = tier.metrics();

    loop {
        match protocol::read_frame_with_budget(
            &mut reader,
            cfg.max_frame_bytes,
            Some(cfg.frame_assembly_timeout),
        ) {
            Ok(None) => return, // clean disconnect
            Ok(Some(payload)) => {
                let t0 = Instant::now();
                // Answer in the encoding the request arrived in.
                let enc = Encoding::of(&payload);
                let (resp, op) = match protocol::parse_message::<Request>(&payload) {
                    Ok(req) => {
                        let (op, id) = (req.op, req.id);
                        let resp = tier.answer(worker, req, t0);
                        metrics.record_request(op, resp.is_ok(), t0.elapsed());
                        debug_assert_eq!(resp.id, id);
                        (resp, Some(op))
                    }
                    // Undecodable payload inside a good frame: answer
                    // 400, keep the connection — framing is in sync.
                    Err(e) => (tier.reject_malformed(0, e), None),
                };
                // A write failure or a served `shutdown` closes the
                // connection. Drain-then-stop: during shutdown each
                // connection finishes the request it is on, then closes.
                if enc.write(&mut writer, &resp).is_err()
                    || op == Some(Op::Shutdown)
                    || tier.is_shutting_down()
                {
                    return;
                }
            }
            Err(e) if e.is_timeout() => {
                if tier.is_shutting_down() {
                    return; // idle connection during drain
                }
            }
            Err(FrameError::TooLarge { announced, max }) => {
                metrics.record_protocol_error();
                let resp = tier.reject_malformed(0, too_large(announced, max));
                let _ = Encoding::Json.write(&mut writer, &resp);
                return;
            }
            Err(
                FrameError::TruncatedEof { .. } | FrameError::Stalled { .. } | FrameError::Io(_),
            ) => {
                // Half-sent frame or dead socket: nothing sensible to
                // answer.
                metrics.record_protocol_error();
                return;
            }
        }
    }
}

/// The text of an oversized frame's `400`: the peer is alive and spoke
/// the framing language, so it is told what went wrong before the
/// connection is cut (the oversized payload cannot be skipped safely).
fn too_large(announced: usize, max: usize) -> String {
    format!("frame of {announced} bytes exceeds cap of {max}")
}

// ---------------------------------------------------------------------------
// Reactor transport
// ---------------------------------------------------------------------------

/// Poller token of the listener.
const LISTENER: u64 = SENTINEL_BASE;
/// Poller token of the waker.
const WAKER: u64 = SENTINEL_BASE + 1;
/// Poll timeout: bounds drain-flag latency when nothing is happening.
const POLL_TIMEOUT: Duration = Duration::from_millis(25);
/// Queued response bytes beyond which a connection stops being read.
const WRITE_HIGH_WATER: usize = 1 << 20;
/// Queued (pipelined) requests beyond which a connection stops being
/// read.
const MAX_PIPELINED: usize = 1024;

/// One answer slot in a client's in-order delivery queue.
enum Entry<P> {
    /// Answer known; waiting its turn at the head. Boxed: a `Response`
    /// is an order of magnitude larger than the waiting variant, and
    /// pipelined slots should not pay for it.
    Ready(Box<Response>),
    /// Answer still to come, from [`EventTier::poll`] or
    /// [`Front::resolve`].
    Waiting { op: Op, t0: Instant, pending: P },
}

/// One client connection of a reactor front door.
pub struct ClientConn<P> {
    io: FrameConn,
    /// Answer slots in request order, each with the encoding its
    /// request arrived in — the one its answer goes out in.
    queue: VecDeque<(Encoding, Entry<P>)>,
    interest: Interest,
    /// Deliver what is queued, then close (EOF seen, fatal framing
    /// error answered, `shutdown` served, or drain in progress).
    close_after_flush: bool,
}

/// A socket of a reactor loop: a client of the front door, or a peer
/// the tier keeps on the same poller.
pub enum Sock<E: EventTier> {
    /// A client connection (the door's).
    Client(Box<ClientConn<E::Pending>>),
    /// A peer socket (the tier's).
    Peer(E::Peer),
}

/// The reactor front door's state on its loop thread. Tiers reach it
/// from their [`EventTier`] hooks: to queue answers, and to keep their
/// peers on [`Front::poller`] and in [`Front::conns`].
pub struct Front<'a, E: EventTier> {
    tier: &'a E::Tier,
    cfg: FrontConfig,
    /// The loop's poller.
    pub poller: &'a Poller,
    /// Clients and peers, keyed by poller token.
    pub conns: Slab<Sock<E>>,
    /// Clients with at least one waiting answer: wakes and sweeps poll
    /// only these, so idle connections cost nothing per wake.
    waiting: HashSet<u64>,
    clients: usize,
}

/// Runs the reactor loop until the drain completes.
fn event_loop<E: EventTier>(
    mut events: E,
    tier: &E::Tier,
    cfg: FrontConfig,
    listener: &TcpListener,
    poller: &Poller,
    waker: &WakerSource,
) {
    let mut front = Front {
        tier,
        cfg,
        poller,
        conns: Slab::new(),
        waiting: HashSet::new(),
        clients: 0,
    };
    let mut ready = afpr_reactor::Events::with_capacity(1024);
    let mut last_sweep = Instant::now();
    let mut draining = false;
    loop {
        // A failed wait backs off instead of spinning, and counts as one
        // that returned nothing: readiness from the previous wait is not
        // walked again, and the sweep and drain check still run.
        let n = poller
            .wait(&mut ready, Some(POLL_TIMEOUT))
            .unwrap_or_else(|_| {
                thread::sleep(Duration::from_millis(5));
                0
            });
        let mut woken = false;
        for ev in ready.iter().take(n) {
            match ev.token {
                WAKER => {
                    waker.drain();
                    woken = true;
                }
                LISTENER => front.accept(listener),
                token => front.event(&mut events, token, ev),
            }
        }
        if woken {
            front.pump_waiting(&mut events);
        }
        let now = Instant::now();
        if now.duration_since(last_sweep) >= E::SWEEP_PERIOD {
            last_sweep = now;
            front.sweep(&mut events, now);
            events.sweep(&mut front, now);
        }
        if tier.is_shutting_down() {
            if !draining {
                draining = true;
                let _ = poller.deregister(listener);
                front.drain();
            }
            if front.clients == 0 && events.settled() {
                return;
            }
        }
    }
}

impl<E: EventTier> Front<'_, E> {
    /// Queues `resp`, decided now, as the answer to client `client`'s
    /// request `op` read at `t0`.
    pub fn answer(&mut self, client: u64, enc: Encoding, op: Op, t0: Instant, resp: Box<Response>) {
        self.tier
            .metrics()
            .record_request(op, resp.is_ok(), t0.elapsed());
        if let Some(Sock::Client(c)) = self.conns.get_mut(client) {
            c.queue.push_back((enc, Entry::Ready(resp)));
            // A served `shutdown` is the last answer on its connection.
            if op == Op::Shutdown {
                c.close_after_flush = true;
            }
        }
    }

    /// Parks client `client`'s request `op`, read at `t0`, until its
    /// answer comes from [`EventTier::poll`] or [`Front::resolve`].
    pub fn wait(&mut self, client: u64, enc: Encoding, op: Op, t0: Instant, pending: E::Pending) {
        if let Some(Sock::Client(c)) = self.conns.get_mut(client) {
            c.queue.push_back((enc, Entry::Waiting { op, t0, pending }));
            self.waiting.insert(client);
        }
    }

    /// Answers the waiting request of client `client` that `is` picks
    /// out, then delivers whatever has become releasable. A client that
    /// hung up has nowhere to take the answer; it is dropped.
    pub fn resolve(
        &mut self,
        events: &mut E,
        client: u64,
        is: impl Fn(&E::Pending) -> bool,
        resp: Response,
    ) {
        let Some(Sock::Client(c)) = self.conns.get_mut(client) else {
            return;
        };
        for (_, entry) in &mut c.queue {
            if let Entry::Waiting { op, t0, pending } = entry {
                if is(pending) {
                    self.tier
                        .metrics()
                        .record_request(*op, resp.is_ok(), t0.elapsed());
                    *entry = Entry::Ready(Box::new(resp));
                    break;
                }
            }
        }
        self.pump(events, client);
    }

    fn accept(&mut self, listener: &TcpListener) {
        let metrics = self.tier.metrics();
        while let Ok((stream, _peer)) = listener.accept() {
            metrics.record_connection();
            if self.tier.is_shutting_down() {
                continue; // a racing accept during the drain: drop it
            }
            if self.clients >= self.cfg.max_connections {
                // Connection-count admission: a structured 503, then
                // close — the client learns to back off instead of
                // seeing a silent reset.
                metrics.record_connection_dropped();
                if let Ok(mut io) = FrameConn::new(stream) {
                    let mut resp =
                        Response::error(0, Status::Overloaded, "connection limit reached");
                    resp.retry_after_ms = Some(self.tier.retry_hint());
                    if let Ok(bytes) = protocol::encode_message(&resp) {
                        io.queue_frame(&bytes);
                        let _ = io.flush();
                    }
                }
                continue;
            }
            let Ok(io) = FrameConn::new(stream) else {
                metrics.record_connection_dropped();
                continue;
            };
            let token = self.conns.insert(Sock::Client(Box::new(ClientConn {
                io,
                queue: VecDeque::new(),
                interest: Interest::READABLE,
                close_after_flush: false,
            })));
            let registered = match self.conns.get(token) {
                Some(Sock::Client(c)) => self
                    .poller
                    .register(c.io.stream(), token, Interest::READABLE)
                    .is_ok(),
                _ => false,
            };
            if registered {
                self.clients += 1;
            } else {
                self.conns.remove(token);
                metrics.record_connection_dropped();
            }
        }
    }

    fn event(&mut self, events: &mut E, token: u64, ev: Event) {
        match self.conns.get(token) {
            None => {} // stale token: closed earlier in this batch
            Some(Sock::Peer(_)) => events.peer_event(self, token, ev),
            // EPOLLERR/EPOLLHUP: the socket is dead in both directions;
            // nothing queued can be delivered.
            Some(Sock::Client(_)) if ev.failed => self.close(token),
            Some(Sock::Client(_)) => {
                if ev.readable {
                    self.read(events, token);
                }
                if ev.writable {
                    self.finish_io(token);
                }
            }
        }
    }

    /// Readable: pulls bytes, passes completed frames to the tier, then
    /// delivers whatever resolved.
    fn read(&mut self, events: &mut E, token: u64) {
        let metrics = self.tier.metrics();
        let Some(Sock::Client(c)) = self.conns.get_mut(token) else {
            return;
        };
        if c.io.fill().is_err() {
            // Abrupt socket failure mid-stream (reset, I/O error).
            metrics.record_protocol_error();
            return self.close(token);
        }
        loop {
            let Some(Sock::Client(c)) = self.conns.get_mut(token) else {
                return;
            };
            if c.close_after_flush {
                break;
            }
            match c.io.next_frame(self.cfg.max_frame_bytes) {
                Ok(None) => break,
                Ok(Some(payload)) => self.frame(events, token, &payload),
                Err(e) => {
                    metrics.record_protocol_error();
                    let resp = self.tier.reject_malformed(0, too_large(e.announced, e.max));
                    c.queue
                        .push_back((Encoding::Json, Entry::Ready(Box::new(resp))));
                    c.close_after_flush = true;
                }
            }
        }
        let Some(Sock::Client(c)) = self.conns.get_mut(token) else {
            return;
        };
        if c.io.is_eof() {
            if c.io.pending_read_bytes() > 0 && !c.close_after_flush {
                // Half-sent frame: nothing sensible to answer.
                metrics.record_protocol_error();
                return self.close(token);
            }
            c.close_after_flush = true;
        }
        self.pump(events, token);
    }

    fn frame(&mut self, events: &mut E, token: u64, payload: &[u8]) {
        let t0 = Instant::now();
        let enc = Encoding::of(payload);
        match protocol::parse_message::<Request>(payload) {
            Ok(req) => events.admit(self, token, enc, req, t0),
            Err(e) => {
                // Undecodable payload inside a good frame: answer 400,
                // keep the connection — framing is still in sync.
                let resp = self.tier.reject_malformed(0, e);
                if let Some(Sock::Client(c)) = self.conns.get_mut(token) {
                    c.queue.push_back((enc, Entry::Ready(Box::new(resp))));
                }
            }
        }
        // Drain-then-stop: during shutdown each connection finishes the
        // request it is on, then closes.
        if self.tier.is_shutting_down() {
            if let Some(Sock::Client(c)) = self.conns.get_mut(token) {
                c.close_after_flush = true;
            }
        }
    }

    /// Writes the answers at the head of client `token`'s queue, in
    /// request order, up to the first one still waiting; then flushes.
    fn pump(&mut self, events: &mut E, token: u64) {
        let metrics = self.tier.metrics();
        let Some(Sock::Client(c)) = self.conns.get_mut(token) else {
            self.waiting.remove(&token);
            return;
        };
        while let Some((enc, entry)) = c.queue.front() {
            let bytes = match entry {
                Entry::Ready(resp) => enc.encode(&**resp),
                Entry::Waiting { op, t0, pending } => {
                    let Some(resp) = events.poll(pending, *t0) else {
                        break;
                    };
                    metrics.record_request(*op, resp.is_ok(), t0.elapsed());
                    enc.encode(&resp)
                }
            };
            c.queue.pop_front();
            match bytes {
                Ok(bytes) => c.io.queue_frame(&bytes),
                Err(_) => return self.close(token),
            }
        }
        let waiting = c
            .queue
            .iter()
            .any(|(_, e)| matches!(e, Entry::Waiting { .. }));
        if !waiting {
            self.waiting.remove(&token);
        }
        self.finish_io(token);
    }

    fn pump_waiting(&mut self, events: &mut E) {
        for token in self.waiting.iter().copied().collect::<Vec<_>>() {
            self.pump(events, token);
        }
    }

    /// Flushes queued bytes, closes a finished connection, and
    /// re-registers interest to reflect read backpressure and pending
    /// writes.
    fn finish_io(&mut self, token: u64) {
        let Some(Sock::Client(c)) = self.conns.get_mut(token) else {
            return;
        };
        if c.io.flush().is_err() {
            // A write failure closes the connection (no protocol error:
            // the frame stream was fine).
            return self.close(token);
        }
        if c.close_after_flush && c.queue.is_empty() && !c.io.wants_write() {
            return self.close(token);
        }
        let desired = Interest {
            readable: !c.close_after_flush
                && c.io.pending_write_bytes() < WRITE_HIGH_WATER
                && c.queue.len() < MAX_PIPELINED,
            writable: c.io.wants_write(),
        };
        if desired != c.interest
            && self
                .poller
                .reregister(c.io.stream(), token, desired)
                .is_ok()
        {
            c.interest = desired;
        }
    }

    fn close(&mut self, token: u64) {
        if let Some(Sock::Client(c)) = self.conns.get(token) {
            let _ = self.poller.deregister(c.io.stream());
            self.conns.remove(token);
            self.waiting.remove(&token);
            self.clients -= 1;
        }
    }

    /// Periodic client timers: waiting answers are polled again (expiry
    /// included), and slowloris and idle clients are closed.
    fn sweep(&mut self, events: &mut E, now: Instant) {
        self.pump_waiting(events);
        let metrics = self.tier.metrics();
        for token in self.conns.tokens() {
            let Some(Sock::Client(c)) = self.conns.get(token) else {
                continue;
            };
            if c.io
                .mid_frame_since()
                .is_some_and(|s| now.duration_since(s) >= self.cfg.frame_assembly_timeout)
            {
                // Slowloris: trickled bytes keep `last_activity` fresh
                // but cannot reset the frame-assembly clock.
                metrics.record_protocol_error();
                self.close(token);
            } else if c.queue.is_empty()
                && !c.io.wants_write()
                && now.duration_since(c.io.last_activity()) >= self.cfg.idle_timeout
            {
                self.close(token);
            }
        }
    }

    /// Starts the drain: no client is read again, and each closes once
    /// its queue is delivered.
    fn drain(&mut self) {
        for token in self.conns.tokens() {
            if let Some(Sock::Client(c)) = self.conns.get_mut(token) {
                c.close_after_flush = true;
                self.finish_io(token);
            }
        }
    }
}
