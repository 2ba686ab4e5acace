//! Event-driven router transport (the `reactor` transport).
//!
//! One thread owns the listener, every client socket and a bounded
//! pool of upstream connections per backend, all multiplexed over one
//! `afpr_reactor::Poller`. Each compute request runs as a
//! [`crate::dispatch`] machine, the same one the blocking workers
//! drive; this module carries its sub-calls:
//!
//! ```text
//!  client frame ──▶ admit ──▶ Machine ──Send──▶ sub-call borrows an upstream conn
//!                               ▲                          │
//!                               └── on_response / on_transport_fail
//!                               │
//!                             Done ──▶ client FIFO queue ──▶ flush
//! ```
//!
//! A scatter round's shards compute concurrently and are gathered as
//! they arrive; the machine reduces only once every shard is in, in
//! shard order, so arrival order cannot perturb bit-identity. Many
//! requests progress concurrently on one core.
//!
//! Invariants shared with `afpr_serve`'s event server: responses per
//! client connection are released strictly in request order; readable
//! interest is dropped while a client's write buffer or pipeline depth
//! is over budget (backpressure); connections past
//! `cfg.max_connections` get a structured `503` and are closed; idle
//! and mid-frame-stalled (slowloris) clients are reaped by a periodic
//! sweep.
//!
//! Upstream connections are *not* multiplexed: a sub-call owns its
//! connection until the response arrives, so dropping a failed conn
//! can never desynchronize an unrelated request (same discipline as
//! the blocking `WorkerConns`). Saturated pools queue sub-calls until
//! a connection frees. Upstream connects use a short blocking
//! `connect_timeout` — on the loopback deployments this tier targets,
//! a dead backend refuses instantly.

use std::collections::VecDeque;
use std::net::{TcpListener, TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

use afpr_reactor::{Event, Events, FrameConn, Interest, Poller, Slab, WakerSource, SENTINEL_BASE};
use afpr_serve::protocol;
use afpr_serve::{Encoding, Op, Request, Response, Status};

use crate::dispatch::{admit, Admit, Machine, Step};
use crate::router::{ClusterConfig, RouterShared};

/// Token the listener is registered under.
pub(crate) const LISTENER_TOKEN: u64 = SENTINEL_BASE;
/// Token the drain waker's receive half is registered under.
pub(crate) const WAKER_TOKEN: u64 = SENTINEL_BASE + 1;

const POLL_TIMEOUT: Duration = Duration::from_millis(25);
const SWEEP_PERIOD: Duration = Duration::from_millis(10);
const WRITE_HIGH_WATER: usize = 1 << 20;
const MAX_PIPELINED: usize = 1024;
const CONNECT_TIMEOUT: Duration = Duration::from_millis(500);

/// One queued response slot on a client connection (strict FIFO).
/// `Ready` is boxed: a `Response` dwarfs the `Waiting` bookkeeping
/// and queue slots should not pay its size while pipelined.
enum Entry {
    Ready(Box<Response>),
    Waiting { op: Op, t0: Instant, machine: u64 },
}

struct ClientConn {
    io: FrameConn,
    /// Response slots in request order, each with the encoding its
    /// request arrived in — the one its answer goes out in.
    queue: VecDeque<(Encoding, Entry)>,
    interest: Interest,
    close_after_flush: bool,
}

struct UpstreamConn {
    io: FrameConn,
    backend: usize,
    /// The sub-call currently owed a response on this connection
    /// (`None` = pooled/free).
    owner: Option<SubTag>,
    /// Attempt deadline; meaningful only while `owner` is set.
    expires: Instant,
    /// When the owned attempt was sent (for latency bookkeeping).
    attempt_started: Instant,
    interest: Interest,
}

enum Conn {
    Client(Box<ClientConn>),
    Upstream(Box<UpstreamConn>),
}

/// Identifies one sub-call: the owning machine plus, for scatter
/// machines, the shard position inside the plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct SubTag {
    machine: u64,
    shard: usize,
}

/// A machine and the client connection its response goes to.
struct Running {
    client: u64,
    machine: Machine,
}

/// Per-backend upstream connection pool.
#[derive(Default)]
struct BackendIo {
    /// Tokens of pooled (response-free) connections.
    free: Vec<u64>,
    /// Live connections, pooled or owned.
    total: usize,
    /// Sub-calls waiting for the pool to free up.
    waiting: VecDeque<SubTag>,
}

struct EventRouter<'a> {
    shared: &'a RouterShared,
    poller: &'a Poller,
    conns: Slab<Conn>,
    machines: Slab<Running>,
    backends: Vec<BackendIo>,
    clients: usize,
}

/// Runs the event loop until shutdown completes. The listener and the
/// drain waker's receive half must already be registered under
/// [`LISTENER_TOKEN`] and [`WAKER_TOKEN`].
pub(crate) fn run(
    shared: &RouterShared,
    listener: &TcpListener,
    poller: &Poller,
    waker: &WakerSource,
) {
    let mut er = EventRouter {
        shared,
        poller,
        conns: Slab::new(),
        machines: Slab::new(),
        backends: (0..shared.pool.len())
            .map(|_| BackendIo::default())
            .collect(),
        clients: 0,
    };
    let mut events = Events::with_capacity(1024);
    let mut last_sweep = Instant::now();
    let mut draining = false;

    loop {
        if er.poller.wait(&mut events, Some(POLL_TIMEOUT)).is_err() {
            std::thread::sleep(Duration::from_millis(5));
            continue;
        }
        for ev in events.iter() {
            match ev.token {
                LISTENER_TOKEN => er.accept_ready(listener, !draining),
                WAKER_TOKEN => waker.drain(),
                _ => er.handle_conn_event(ev),
            }
        }
        let now = Instant::now();
        if now.duration_since(last_sweep) >= SWEEP_PERIOD {
            last_sweep = now;
            er.sweep(now);
        }
        if er.shared.is_shutting_down() {
            if !draining {
                draining = true;
                let _ = er.poller.deregister(listener);
                er.begin_drain();
            }
            if er.clients == 0 && er.machines.is_empty() {
                return;
            }
        }
    }
}

impl EventRouter<'_> {
    fn cfg(&self) -> &ClusterConfig {
        &self.shared.cfg
    }

    /// Per-backend pool bookkeeping, indexed by stable slot id; grows
    /// as backends join mid-run.
    fn backend_io(&mut self, index: usize) -> &mut BackendIo {
        if self.backends.len() <= index {
            self.backends.resize_with(index + 1, BackendIo::default);
        }
        &mut self.backends[index]
    }

    // -- accept / admission ------------------------------------------------

    fn accept_ready(&mut self, listener: &TcpListener, accepting: bool) {
        loop {
            let stream = match listener.accept() {
                Ok((stream, _peer)) => stream,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return,
                Err(_) => return,
            };
            self.shared.metrics.serve().record_connection();
            if !accepting {
                continue;
            }
            if self.clients >= self.cfg().max_connections {
                self.shared.metrics.serve().record_connection_dropped();
                // Best-effort structured refusal before the drop.
                if let Ok(mut io) = FrameConn::new(stream) {
                    let mut resp =
                        Response::error(0, Status::Overloaded, "connection limit reached");
                    resp.retry_after_ms = Some(self.shared.retry_hint());
                    if let Ok(payload) = protocol::encode_message(&resp) {
                        io.queue_frame(&payload);
                        let _ = io.flush();
                    }
                }
                continue;
            }
            let Ok(io) = FrameConn::new(stream) else {
                self.shared.metrics.serve().record_connection_dropped();
                continue;
            };
            let token = self.conns.insert(Conn::Client(Box::new(ClientConn {
                io,
                queue: VecDeque::new(),
                interest: Interest::READABLE,
                close_after_flush: false,
            })));
            let Some(Conn::Client(c)) = self.conns.get(token) else {
                unreachable!("just inserted");
            };
            if self
                .poller
                .register(c.io.stream(), token, Interest::READABLE)
                .is_err()
            {
                self.conns.remove(token);
                self.shared.metrics.serve().record_connection_dropped();
                continue;
            }
            self.clients += 1;
        }
    }

    fn handle_conn_event(&mut self, ev: Event) {
        match self.conns.get(ev.token) {
            None => {} // stale token from an earlier close in this batch
            Some(Conn::Client(_)) => {
                if ev.failed {
                    self.close_client(ev.token);
                } else {
                    if ev.readable {
                        self.client_read(ev.token);
                    }
                    if ev.writable {
                        self.client_finish_io(ev.token);
                    }
                }
            }
            Some(Conn::Upstream(_)) => {
                if ev.failed {
                    self.upstream_transport_fail(ev.token);
                } else {
                    if ev.readable {
                        self.upstream_read(ev.token);
                    }
                    if ev.writable {
                        self.upstream_flush(ev.token);
                    }
                }
            }
        }
    }

    // -- client side -------------------------------------------------------

    fn client_read(&mut self, token: u64) {
        let Some(Conn::Client(c)) = self.conns.get_mut(token) else {
            return;
        };
        if c.io.fill().is_err() {
            self.shared.metrics.serve().record_protocol_error();
            self.close_client(token);
            return;
        }
        loop {
            let Some(Conn::Client(c)) = self.conns.get_mut(token) else {
                return;
            };
            if c.close_after_flush {
                break;
            }
            match c.io.next_frame(self.shared.cfg.max_frame_bytes) {
                Ok(Some(payload)) => self.on_client_frame(token, &payload),
                Ok(None) => break,
                Err(too_large) => {
                    // Oversized announcement: structured 400, then cut
                    // the connection (mirrors the blocking loop).
                    self.shared.metrics.serve().record_protocol_error();
                    let resp = self.shared.reject_malformed(
                        0,
                        format!(
                            "frame of {} bytes exceeds cap of {}",
                            too_large.announced, too_large.max
                        ),
                    );
                    let Some(Conn::Client(c)) = self.conns.get_mut(token) else {
                        return;
                    };
                    c.queue
                        .push_back((Encoding::Json, Entry::Ready(Box::new(resp))));
                    c.close_after_flush = true;
                    break;
                }
            }
        }
        let Some(Conn::Client(c)) = self.conns.get_mut(token) else {
            return;
        };
        if c.io.is_eof() {
            if c.io.pending_read_bytes() > 0 && !c.close_after_flush {
                // Truncated mid-frame EOF: nothing sensible to answer.
                self.shared.metrics.serve().record_protocol_error();
                self.close_client(token);
                return;
            }
            c.close_after_flush = true;
        }
        self.client_pump(token);
    }

    fn on_client_frame(&mut self, token: u64, payload: &[u8]) {
        let t0 = Instant::now();
        let enc = Encoding::of(payload);
        let req = match protocol::parse_message::<Request>(payload) {
            Ok(req) => req,
            Err(e) => {
                // Undecodable payload inside a good frame: answer 400,
                // keep the connection — framing is in sync.
                let resp = self.shared.reject_malformed(0, e);
                if let Some(Conn::Client(c)) = self.conns.get_mut(token) {
                    c.queue.push_back((enc, Entry::Ready(Box::new(resp))));
                }
                return;
            }
        };
        let op = req.op;
        match admit(self.shared, req, t0) {
            Admit::Reply(resp) => {
                self.shared
                    .metrics
                    .record_request(op, resp.is_ok(), t0.elapsed());
                if let Some(Conn::Client(c)) = self.conns.get_mut(token) {
                    c.queue.push_back((enc, Entry::Ready(resp)));
                    if op == Op::Shutdown {
                        c.close_after_flush = true;
                    }
                }
            }
            Admit::Run(machine) => {
                let mid = self.machines.insert(Running {
                    client: token,
                    machine,
                });
                if let Some(Conn::Client(c)) = self.conns.get_mut(token) {
                    c.queue.push_back((
                        enc,
                        Entry::Waiting {
                            op,
                            t0,
                            machine: mid,
                        },
                    ));
                }
                // Started after the `Waiting` entry exists, so a
                // synchronous completion (dead backend, empty batch)
                // still finds its queue slot.
                self.drive(mid, Machine::next);
            }
        }
        // Drain-then-stop: during shutdown each connection finishes
        // the request it is on, then closes.
        if self.shared.is_shutting_down() {
            if let Some(Conn::Client(c)) = self.conns.get_mut(token) {
                c.close_after_flush = true;
            }
        }
    }

    /// Feeds one event to machine `mid`, then carries out its steps
    /// until it waits or finishes. Events nest — a write that fails
    /// synchronously feeds the machine from inside `subcall` — so the
    /// machine is looked up afresh after every send.
    fn drive(
        &mut self,
        mid: u64,
        event: impl FnOnce(&mut Machine, &RouterShared, Instant) -> Step,
    ) {
        let shared = self.shared;
        let Some(run) = self.machines.get_mut(mid) else {
            return;
        };
        let mut step = event(&mut run.machine, shared, Instant::now());
        loop {
            match step {
                Step::Wait => return,
                Step::Done(resp) => return self.complete(mid, resp),
                Step::Send { shard, backend } => {
                    let tag = SubTag {
                        machine: mid,
                        shard,
                    };
                    let started = self.subcall(tag, backend.index);
                    let Some(run) = self.machines.get_mut(mid) else {
                        return;
                    };
                    let now = Instant::now();
                    step = if started {
                        run.machine.next(shared, now)
                    } else {
                        run.machine
                            .on_transport_fail(shared, shard, backend.index, now)
                    };
                }
            }
        }
    }

    /// A sub-call failed in transport; its machine fails over or answers.
    fn sub_failed(&mut self, tag: SubTag, index: usize) {
        self.drive(tag.machine, |m, shared, now| {
            m.on_transport_fail(shared, tag.shard, index, now)
        });
    }

    /// Releases a finished response into the client's FIFO and flushes
    /// whatever has become releasable.
    fn complete(&mut self, mid: u64, resp: Response) {
        let Some(Running { client, machine }) = self.machines.remove(mid) else {
            return;
        };
        if machine.owed().next().is_some() {
            self.abandon(mid);
        }
        let ok = resp.is_ok();
        let Some(Conn::Client(c)) = self.conns.get_mut(client) else {
            return; // client hung up; the response has nowhere to go
        };
        let mut resp = Some(resp);
        let mut meta = None;
        for (_, entry) in c.queue.iter_mut() {
            if let Entry::Waiting { op, t0, machine } = entry {
                if *machine == mid {
                    meta = Some((*op, *t0));
                    *entry = Entry::Ready(Box::new(resp.take().expect("one matching entry")));
                    break;
                }
            }
        }
        let Some((op, t0)) = meta else {
            return;
        };
        self.shared.metrics.record_request(op, ok, t0.elapsed());
        self.client_pump(client);
    }

    fn client_pump(&mut self, token: u64) {
        loop {
            let Some(Conn::Client(c)) = self.conns.get_mut(token) else {
                return;
            };
            match c.queue.front() {
                Some((_, Entry::Ready(_))) => {
                    let Some((enc, Entry::Ready(resp))) = c.queue.pop_front() else {
                        unreachable!("front() said Ready");
                    };
                    match enc.encode(&*resp) {
                        Ok(payload) => c.io.queue_frame(&payload),
                        Err(_) => {
                            self.close_client(token);
                            return;
                        }
                    }
                }
                Some((_, Entry::Waiting { .. })) | None => break,
            }
        }
        self.client_finish_io(token);
    }

    fn client_finish_io(&mut self, token: u64) {
        let Some(Conn::Client(c)) = self.conns.get_mut(token) else {
            return;
        };
        if c.io.flush().is_err() {
            self.close_client(token);
            return;
        }
        if c.close_after_flush && c.queue.is_empty() && !c.io.wants_write() {
            self.close_client(token);
            return;
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
            if let Some(Conn::Client(c)) = self.conns.get_mut(token) {
                c.interest = desired;
            }
        }
    }

    /// Closes a client connection. Machines it owns keep running (the
    /// backends' bookkeeping must balance); their responses are
    /// dropped at completion when the token no longer resolves.
    fn close_client(&mut self, token: u64) {
        if let Some(Conn::Client(c)) = self.conns.get(token) {
            let _ = self.poller.deregister(c.io.stream());
            self.conns.remove(token);
            self.clients -= 1;
        }
    }

    fn begin_drain(&mut self) {
        for token in self.conns.tokens() {
            if let Some(Conn::Client(c)) = self.conns.get_mut(token) {
                c.close_after_flush = true;
            }
        }
        for token in self.conns.tokens() {
            if matches!(self.conns.get(token), Some(Conn::Client(_))) {
                self.client_finish_io(token);
            }
        }
    }

    // -- sub-call plumbing -------------------------------------------------

    /// Starts a sub-call against backend `index`: reuse a pooled conn,
    /// open a new one under the cap, or queue until one frees. False
    /// when the connect failed; the machine has yet to hear of it.
    fn subcall(&mut self, tag: SubTag, index: usize) -> bool {
        if let Some(token) = self.backend_io(index).free.pop() {
            self.shared.pool.get(index).begin_dispatch();
            self.start_on_conn(token, tag);
            return true;
        }
        if self.backend_io(index).total >= self.cfg().conns_per_backend {
            self.backend_io(index).waiting.push_back(tag);
            return true;
        }
        self.shared.pool.get(index).begin_dispatch();
        match self.connect_upstream(index) {
            Ok(token) => {
                self.backend_io(index).total += 1;
                self.start_on_conn(token, tag);
                true
            }
            Err(_) => {
                self.shared.pool.get(index).finish_dispatch(false, None);
                false
            }
        }
    }

    fn connect_upstream(&mut self, index: usize) -> std::io::Result<u64> {
        let addr = self
            .shared
            .pool
            .get(index)
            .addr
            .to_socket_addrs()?
            .next()
            .ok_or_else(|| {
                std::io::Error::new(std::io::ErrorKind::InvalidInput, "unresolvable backend")
            })?;
        let stream = TcpStream::connect_timeout(&addr, CONNECT_TIMEOUT)?;
        let io = FrameConn::new(stream)?;
        let token = self.conns.insert(Conn::Upstream(Box::new(UpstreamConn {
            io,
            backend: index,
            owner: None,
            expires: Instant::now(),
            attempt_started: Instant::now(),
            interest: Interest::READABLE,
        })));
        let Some(Conn::Upstream(u)) = self.conns.get(token) else {
            unreachable!("just inserted");
        };
        if let Err(e) = self
            .poller
            .register(u.io.stream(), token, Interest::READABLE)
        {
            self.conns.remove(token);
            return Err(e);
        }
        Ok(token)
    }

    /// Sends the sub-request on an owned connection, built now so that
    /// it forwards only the deadline budget left after queueing.
    /// `begin_dispatch` has already been called for this attempt.
    fn start_on_conn(&mut self, token: u64, tag: SubTag) {
        let now = Instant::now();
        let Some(run) = self.machines.get_mut(tag.machine) else {
            // The machine vanished while the conn was being acquired:
            // undo the dispatch count and return the conn to the pool.
            if let Some(Conn::Upstream(u)) = self.conns.get(token) {
                let index = u.backend;
                self.shared.pool.get(index).finish_dispatch(false, None);
                self.release_conn(token);
            }
            return;
        };
        let (sub, timeout) = run.machine.sub_request(self.shared, tag.shard, now);
        let payload = match protocol::encode_message(&sub) {
            Ok(p) => p,
            Err(_) => {
                let Some(Conn::Upstream(u)) = self.conns.get(token) else {
                    return;
                };
                let index = u.backend;
                self.shared.pool.get(index).finish_dispatch(false, None);
                self.drop_upstream(token);
                self.sub_failed(tag, index);
                return;
            }
        };
        let Some(Conn::Upstream(u)) = self.conns.get_mut(token) else {
            return;
        };
        u.owner = Some(tag);
        u.attempt_started = now;
        u.expires = now + timeout;
        u.io.queue_frame(&payload);
        self.upstream_flush(token);
    }

    fn upstream_flush(&mut self, token: u64) {
        let Some(Conn::Upstream(u)) = self.conns.get_mut(token) else {
            return;
        };
        if u.io.flush().is_err() {
            self.upstream_transport_fail(token);
            return;
        }
        let desired = Interest {
            readable: true,
            writable: u.io.wants_write(),
        };
        if desired != u.interest
            && self
                .poller
                .reregister(u.io.stream(), token, desired)
                .is_ok()
        {
            if let Some(Conn::Upstream(u)) = self.conns.get_mut(token) {
                u.interest = desired;
            }
        }
    }

    fn upstream_read(&mut self, token: u64) {
        let Some(Conn::Upstream(u)) = self.conns.get_mut(token) else {
            return;
        };
        if u.io.fill().is_err() {
            self.upstream_transport_fail(token);
            return;
        }
        match u.io.next_frame(self.shared.cfg.max_frame_bytes) {
            Ok(Some(payload)) => {
                if u.owner.is_none() {
                    // Unsolicited data on a pooled conn: framing can no
                    // longer be trusted; drop it.
                    self.drop_upstream(token);
                    return;
                }
                match protocol::parse_message::<Response>(&payload) {
                    Ok(resp) => self.sub_response(token, resp),
                    Err(_) => self.upstream_transport_fail(token),
                }
            }
            Ok(None) => {
                if u.io.is_eof() {
                    if u.owner.is_some() {
                        self.upstream_transport_fail(token);
                    } else {
                        self.drop_upstream(token);
                    }
                }
            }
            Err(_) => self.upstream_transport_fail(token),
        }
    }

    /// A structured response arrived for the owning sub-call.
    fn sub_response(&mut self, token: u64, resp: Response) {
        let Some(Conn::Upstream(u)) = self.conns.get_mut(token) else {
            return;
        };
        let Some(tag) = u.owner.take() else {
            return;
        };
        let index = u.backend;
        let latency = u.attempt_started.elapsed();
        let desynced = u.io.pending_read_bytes() > 0;
        self.shared
            .pool
            .get(index)
            .finish_dispatch(true, Some(latency));
        if desynced {
            // Bytes past the response frame: the backend broke the
            // one-frame-per-request contract; the conn can't be pooled.
            self.drop_upstream(token);
        } else {
            self.release_conn(token);
        }
        self.drive(tag.machine, |m, shared, now| {
            m.on_response(shared, tag.shard, index, resp, now)
        });
    }

    /// Transport failure on an upstream conn (I/O error, EOF mid-call,
    /// attempt timeout): close out the dispatch, drop the conn, and
    /// let the owning machine react.
    fn upstream_transport_fail(&mut self, token: u64) {
        let Some(Conn::Upstream(u)) = self.conns.get_mut(token) else {
            return;
        };
        let owner = u.owner.take();
        let index = u.backend;
        if owner.is_some() {
            self.shared.pool.get(index).finish_dispatch(false, None);
        }
        self.drop_upstream(token);
        if let Some(tag) = owner {
            self.sub_failed(tag, index);
        }
    }

    /// Abandons the sub-calls of a machine that finished early: queued
    /// ones are purged, and in-flight ones get their dispatches closed
    /// out and their conns dropped (a stray response must never be
    /// mistaken for another request's).
    fn abandon(&mut self, mid: u64) {
        for b in &mut self.backends {
            b.waiting.retain(|t| t.machine != mid);
        }
        for token in self.conns.tokens() {
            let Some(Conn::Upstream(u)) = self.conns.get_mut(token) else {
                continue;
            };
            if u.owner.is_some_and(|t| t.machine == mid) {
                u.owner = None;
                let index = u.backend;
                self.shared.pool.get(index).finish_dispatch(false, None);
                self.drop_upstream(token);
            }
        }
    }

    /// Returns an upstream conn to its backend pool, or hands it
    /// straight to the next queued sub-call.
    fn release_conn(&mut self, token: u64) {
        let Some(Conn::Upstream(u)) = self.conns.get_mut(token) else {
            return;
        };
        u.owner = None;
        let index = u.backend;
        let desired = Interest::READABLE;
        if desired != u.interest
            && self
                .poller
                .reregister(u.io.stream(), token, desired)
                .is_ok()
        {
            if let Some(Conn::Upstream(u)) = self.conns.get_mut(token) {
                u.interest = desired;
            }
        }
        // Feed the queue first; skip tags whose machine already died.
        while let Some(tag) = self.backend_io(index).waiting.pop_front() {
            if self.machines.get(tag.machine).is_some() {
                self.shared.pool.get(index).begin_dispatch();
                self.start_on_conn(token, tag);
                return;
            }
        }
        self.backend_io(index).free.push(token);
    }

    /// Closes an upstream conn and removes it from pool bookkeeping.
    fn drop_upstream(&mut self, token: u64) {
        let Some(Conn::Upstream(u)) = self.conns.get(token) else {
            return;
        };
        let index = u.backend;
        let _ = self.poller.deregister(u.io.stream());
        self.conns.remove(token);
        let b = self.backend_io(index);
        b.total -= 1;
        b.free.retain(|&t| t != token);
        // Freed capacity: a queued sub-call may now open a fresh conn.
        while let Some(tag) = self.backend_io(index).waiting.pop_front() {
            if self.machines.get(tag.machine).is_some() {
                if !self.subcall(tag, index) {
                    self.sub_failed(tag, index);
                }
                break;
            }
        }
    }

    // -- periodic sweep ----------------------------------------------------

    fn sweep(&mut self, now: Instant) {
        for token in self.conns.tokens() {
            match self.conns.get(token) {
                Some(Conn::Upstream(u)) if u.owner.is_some() && now >= u.expires => {
                    // Attempt timed out: same as a socket-timeout
                    // transport failure on the blocking path.
                    self.upstream_transport_fail(token);
                }
                Some(Conn::Client(c)) => {
                    if c.io
                        .mid_frame_since()
                        .is_some_and(|s| now.duration_since(s) >= self.cfg().frame_assembly_timeout)
                    {
                        // Slowloris: a frame has been trickling for
                        // longer than the assembly budget.
                        self.shared.metrics.serve().record_protocol_error();
                        self.close_client(token);
                    } else if c.queue.is_empty()
                        && !c.io.wants_write()
                        && now.duration_since(c.io.last_activity()) >= self.cfg().idle_timeout
                    {
                        self.close_client(token);
                    }
                }
                _ => {}
            }
        }
    }
}
