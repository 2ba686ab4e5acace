//! Event-driven router core (the `reactor` transport).
//!
//! One thread owns the listener, every client socket and a bounded
//! pool of upstream connections per backend, all multiplexed over one
//! `afpr_reactor::Poller`. Requests run as small state machines:
//!
//! ```text
//!  client frame ──▶ admit ──▶ Machine::{Single, Scatter, Pipeline}
//!                               │ sub-calls borrow upstream conns
//!                               ▼
//!                    upstream response / transport failure
//!                               │
//!                               ▼
//!                    complete → client FIFO queue → flush
//! ```
//!
//! * **Single** forwards to the least-outstanding live replica and
//!   re-dispatches on transport failure within the caller's deadline
//!   (replicated placement, and non-`infer` ops under pipeline
//!   placement).
//! * **Scatter** fans one `matvec` out as `matvec_partial` to the
//!   least-outstanding healthy replica of every shard *concurrently*,
//!   gathers the per-tile partials by shard position and reduces them
//!   with the same left fold as the blocking path — bit-identity is
//!   untouched by arrival order because the fold happens only once all
//!   shards are in, in shard order. Each round captures the placement
//!   plan `Arc` at round start, so a concurrent rebalance can never
//!   split a round across two plans; a replica dying mid-round is
//!   ejected and its shard re-dispatched to a sibling within the
//!   caller's deadline. `forward_batch` runs its scatter rounds
//!   strictly in input order (one round in flight at a time) to keep
//!   every backend macro's RNG stream aligned with the single-node
//!   path.
//! * **Pipeline** streams `infer` activations stage to stage; stages
//!   are inherently sequential, but many pipelined requests progress
//!   concurrently on one core.
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
use std::sync::Arc;
use std::time::{Duration, Instant};

use afpr_reactor::{Event, Events, FrameConn, Interest, Poller, Slab, WakerSource, SENTINEL_BASE};
use afpr_runtime::RejectReason;
use afpr_serve::protocol;
use afpr_serve::{Encoding, Op, Request, Response, Status, PROTOCOL_VERSION};
use afpr_xbar::PartialSumAdder;

use crate::plan::{PipelinePlan, ReplicatedShardPlan};
use crate::router::{
    attempt_timeout, deadline_expired, handle_deregister, handle_register, no_shard_capacity,
    parse_deadline, remaining_ms, shard_unavailable, validate_pipeline, ClusterConfig,
    PipelineCall, Placement, RouterShared, SHARDED_INFER_REJECTION, SHARDED_PARTIAL_REJECTION,
};

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

enum Machine {
    /// Replicated forwarding with health-aware failover.
    Single {
        client: u64,
        req: Request,
        deadline: Option<Instant>,
        /// Slots already tried (and ejected) by this request; the pool
        /// can grow concurrently, so exclusion is a slot list, not a
        /// bitmap sized at entry.
        excluded: Vec<usize>,
    },
    /// Sharded scatter-gather; `forward_batch` = sequential rounds.
    Scatter {
        client: u64,
        id: u64,
        op: Op,
        deadline: Option<Instant>,
        inputs: Vec<Vec<f32>>,
        round: usize,
        outputs: Vec<Vec<f32>>,
        /// The plan this round dispatches on, captured at round start —
        /// a concurrent rebalance swaps the *next* round's plan, never
        /// this one's.
        plan: Option<Arc<ReplicatedShardPlan>>,
        /// Gathered partials, by shard position in the plan.
        parts: Vec<Option<Vec<Vec<f32>>>>,
        /// Replicas already tried (and ejected) per shard this round.
        tried: Vec<Vec<usize>>,
        /// Shards of the current round not yet resolved.
        outstanding: usize,
    },
    /// Staged `infer` under pipeline placement.
    Pipeline {
        client: u64,
        id: u64,
        deadline: Option<Instant>,
        model: String,
        format: String,
        plan: PipelinePlan,
        stage: usize,
        activation: Vec<f32>,
    },
}

impl Machine {
    fn client(&self) -> u64 {
        match self {
            Machine::Single { client, .. }
            | Machine::Scatter { client, .. }
            | Machine::Pipeline { client, .. } => *client,
        }
    }
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

enum Admit {
    Immediate(Box<Response>),
    Started(u64),
}

impl Admit {
    fn immediate(resp: Response) -> Self {
        Admit::Immediate(Box::new(resp))
    }
}

struct EventRouter<'a> {
    shared: &'a RouterShared,
    poller: &'a Poller,
    conns: Slab<Conn>,
    machines: Slab<Machine>,
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
        match self.admit(token, req, t0) {
            Admit::Immediate(resp) => {
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
            Admit::Started(machine) => {
                if let Some(Conn::Client(c)) = self.conns.get_mut(token) {
                    c.queue.push_back((enc, Entry::Waiting { op, t0, machine }));
                }
                self.kick(machine);
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

    /// The synchronous half of dispatch: immediate ops answer inline;
    /// compute ops validate and become machines. Mirrors the blocking
    /// `dispatch` decision-for-decision so responses stay identical.
    fn admit(&mut self, client: u64, req: Request, t0: Instant) -> Admit {
        let shared = self.shared;
        if req.proto_version != PROTOCOL_VERSION {
            return Admit::immediate(shared.reject_malformed(
                req.id,
                format!(
                    "unsupported protocol version {} (router speaks {PROTOCOL_VERSION})",
                    req.proto_version
                ),
            ));
        }
        match req.op {
            Op::Health => {
                let mut resp = Response::ok(req.id);
                resp.health = Some(shared.health_info());
                Admit::immediate(resp)
            }
            Op::Metrics => {
                let mut resp = Response::ok(req.id);
                resp.metrics = Some(shared.metrics.snapshot());
                Admit::immediate(resp)
            }
            Op::Shutdown => {
                shared.begin_shutdown();
                let mut resp = Response::ok(req.id);
                resp.metrics = Some(shared.metrics.snapshot());
                Admit::immediate(resp)
            }
            // Rare control ops: the join probe blocks the reactor
            // thread for at most the probe timeout, same trade the
            // blocking transport makes on a worker thread.
            Op::Register => Admit::Immediate(Box::new(handle_register(shared, &req))),
            Op::Deregister => Admit::Immediate(Box::new(handle_deregister(shared, &req))),
            Op::Matvec | Op::ForwardBatch | Op::MatvecPartial | Op::Infer => {
                if shared.is_shutting_down() {
                    return Admit::immediate(Response::error(
                        req.id,
                        Status::ShuttingDown,
                        "router is draining",
                    ));
                }
                let deadline = match parse_deadline(shared, &req, t0) {
                    Ok(d) => d,
                    Err(resp) => return Admit::Immediate(resp),
                };
                match (shared.cfg.placement, req.op) {
                    // Pipeline placement stages `infer`; every other
                    // compute op still has the full layer on each
                    // backend.
                    (Placement::Pipeline, Op::Infer) => {
                        let call = match validate_pipeline(shared, &req) {
                            Ok(call) => call,
                            Err(resp) => return Admit::Immediate(resp),
                        };
                        let PipelineCall {
                            model,
                            format,
                            plan,
                        } = call;
                        let activation =
                            req.input.clone().expect("validate_pipeline checked input");
                        Admit::Started(self.machines.insert(Machine::Pipeline {
                            client,
                            id: req.id,
                            deadline,
                            model,
                            format,
                            plan,
                            stage: 0,
                            activation,
                        }))
                    }
                    (Placement::Replicated | Placement::Pipeline, _) => {
                        Admit::Started(self.machines.insert(Machine::Single {
                            client,
                            deadline,
                            excluded: Vec::new(),
                            req,
                        }))
                    }
                    (Placement::Sharded, Op::Matvec) => {
                        let Some(input) = req.input else {
                            return Admit::immediate(
                                shared.reject_malformed(req.id, "matvec requires `input`"),
                            );
                        };
                        Admit::Started(self.machines.insert(Machine::Scatter {
                            client,
                            id: req.id,
                            op: Op::Matvec,
                            deadline,
                            inputs: vec![input],
                            round: 0,
                            outputs: Vec::new(),
                            plan: None,
                            parts: Vec::new(),
                            tried: Vec::new(),
                            outstanding: 0,
                        }))
                    }
                    (Placement::Sharded, Op::ForwardBatch) => {
                        let Some(inputs) = req.inputs else {
                            return Admit::immediate(
                                shared.reject_malformed(req.id, "forward_batch requires `inputs`"),
                            );
                        };
                        Admit::Started(self.machines.insert(Machine::Scatter {
                            client,
                            id: req.id,
                            op: Op::ForwardBatch,
                            deadline,
                            inputs,
                            round: 0,
                            outputs: Vec::new(),
                            plan: None,
                            parts: Vec::new(),
                            tried: Vec::new(),
                            outstanding: 0,
                        }))
                    }
                    (Placement::Sharded, Op::MatvecPartial) => {
                        Admit::immediate(shared.reject_malformed(req.id, SHARDED_PARTIAL_REJECTION))
                    }
                    (Placement::Sharded, Op::Infer) => {
                        Admit::immediate(shared.reject_malformed(req.id, SHARDED_INFER_REJECTION))
                    }
                    _ => unreachable!("compute ops only"),
                }
            }
        }
    }

    /// Starts a machine's first piece of work. Called after the
    /// client's `Waiting` entry exists, so a synchronous completion
    /// (dead backend, empty batch) still finds its queue slot.
    fn kick(&mut self, mid: u64) {
        match self.machines.get(mid) {
            Some(Machine::Single { .. }) => self.single_attempt(mid),
            Some(Machine::Scatter { .. }) => self.scatter_begin_round(mid),
            Some(Machine::Pipeline { .. }) => self.pipeline_send_stage(mid),
            None => {}
        }
    }

    /// Releases a finished response into the client's FIFO and flushes
    /// whatever has become releasable.
    fn complete(&mut self, mid: u64, resp: Response) {
        let Some(machine) = self.machines.remove(mid) else {
            return;
        };
        let client = machine.client();
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

    // -- machines ----------------------------------------------------------

    fn single_attempt(&mut self, mid: u64) {
        let shared = self.shared;
        enum Next {
            Respond(Box<Response>),
            Attempt(usize),
        }
        let next = {
            let Some(Machine::Single {
                deadline,
                excluded,
                req,
                ..
            }) = self.machines.get_mut(mid)
            else {
                return;
            };
            if deadline.is_some_and(|d| Instant::now() >= d) {
                shared
                    .metrics
                    .serve()
                    .runtime()
                    .record_rejection(RejectReason::DeadlineExpired);
                Next::Respond(Box::new(Response::error(
                    req.id,
                    Status::DeadlineExpired,
                    "deadline expired during failover",
                )))
            } else {
                match shared.pool.pick_replica(excluded) {
                    Some(b) => Next::Attempt(b.index),
                    None => {
                        let text = if excluded.is_empty() {
                            "no live replica available; retry shortly"
                        } else {
                            "every replica failed this request; retry shortly"
                        };
                        let mut resp = Response::error(req.id, Status::Overloaded, text);
                        resp.retry_after_ms = Some(shared.retry_hint());
                        Next::Respond(Box::new(resp))
                    }
                }
            }
        };
        match next {
            Next::Respond(resp) => self.complete(mid, *resp),
            Next::Attempt(index) => self.subcall(
                SubTag {
                    machine: mid,
                    shard: 0,
                },
                index,
            ),
        }
    }

    fn scatter_begin_round(&mut self, mid: u64) {
        let shared = self.shared;
        enum Next {
            Done(Box<Response>),
            Fan(Arc<ReplicatedShardPlan>),
        }
        let next = {
            let Some(Machine::Scatter {
                id,
                op,
                inputs,
                round,
                outputs,
                plan,
                parts,
                tried,
                outstanding,
                ..
            }) = self.machines.get_mut(mid)
            else {
                return;
            };
            if *round == inputs.len() {
                // All rounds reduced: shape the response by op —
                // `matvec` unwraps its single output, `forward_batch`
                // keeps the batch (possibly empty).
                let mut resp = Response::ok(*id);
                let outs = std::mem::take(outputs);
                if *op == Op::Matvec {
                    resp.output = outs.into_iter().next();
                } else {
                    resp.outputs = Some(outs);
                }
                Next::Done(Box::new(resp))
            } else if inputs[*round].len() != shared.k {
                let detail = format!(
                    "input has length {}, served layer expects {}",
                    inputs[*round].len(),
                    shared.k
                );
                let id = *id;
                Next::Done(Box::new(shared.reject_malformed(id, detail)))
            } else {
                // One placement view per scatter round: a concurrent
                // rebalance swaps the *next* round's plan, never this
                // one's.
                match shared.current_view().plan.clone() {
                    None => {
                        let id = *id;
                        Next::Done(Box::new(no_shard_capacity(shared, id)))
                    }
                    Some(p) => {
                        *parts = (0..p.shards.len()).map(|_| None).collect();
                        *tried = vec![Vec::new(); p.shards.len()];
                        *outstanding = p.shards.len();
                        *plan = Some(Arc::clone(&p));
                        Next::Fan(p)
                    }
                }
            }
        };
        match next {
            Next::Done(resp) => self.complete(mid, *resp),
            Next::Fan(plan) => {
                for pos in 0..plan.shards.len() {
                    if !self.scatter_dispatch_shard(mid, &plan, pos) {
                        return;
                    }
                    // A sub-call can fail synchronously (connect
                    // refused on a dead backend) and re-dispatch or
                    // complete the machine; stop fanning out if it
                    // completed.
                    if self.machines.get(mid).is_none() {
                        return;
                    }
                }
            }
        }
    }

    /// Picks the least-outstanding untried replica of shard `pos` and
    /// starts its sub-call. Aborts the round (`504`/`503`) when the
    /// caller's deadline has lapsed or the shard has no live replica
    /// left; returns `false` iff the round was aborted.
    fn scatter_dispatch_shard(&mut self, mid: u64, plan: &ReplicatedShardPlan, pos: usize) -> bool {
        let shared = self.shared;
        let (id, deadline, tried) = {
            let Some(Machine::Scatter {
                id,
                deadline,
                tried,
                ..
            }) = self.machines.get_mut(mid)
            else {
                return false;
            };
            (*id, *deadline, tried[pos].clone())
        };
        if let Some(resp) = deadline_expired(shared, id, deadline) {
            self.scatter_abort(mid, *resp);
            return false;
        }
        let Some(backend) = shared.pool.pick_among(&plan.shards[pos].replicas, &tried) else {
            let resp = shard_unavailable(shared, id, pos);
            self.scatter_abort(mid, resp);
            return false;
        };
        self.subcall(
            SubTag {
                machine: mid,
                shard: pos,
            },
            backend.index,
        );
        true
    }

    fn pipeline_send_stage(&mut self, mid: u64) {
        let backend_index = {
            let Some(Machine::Pipeline { plan, stage, .. }) = self.machines.get(mid) else {
                return;
            };
            plan.stages[*stage].backend
        };
        self.subcall(
            SubTag {
                machine: mid,
                shard: 0,
            },
            backend_index,
        );
    }

    // -- sub-call plumbing -------------------------------------------------

    /// Builds the wire sub-request for a tag at send time — deadline
    /// budgets shrink while queued, exactly as they do between the
    /// blocking path's sequential sends — plus its attempt timeout.
    fn build_sub(&self, tag: SubTag) -> Option<(Request, Duration)> {
        let shared = self.shared;
        let cap = shared.cfg.dispatch_timeout;
        match self.machines.get(tag.machine)? {
            Machine::Single { req, deadline, .. } => {
                let mut fwd = req.clone();
                fwd.deadline_ms = remaining_ms(*deadline);
                Some((fwd, attempt_timeout(*deadline, cap)))
            }
            Machine::Scatter {
                id,
                deadline,
                inputs,
                round,
                plan,
                ..
            } => {
                let plan = plan.as_ref()?;
                let shard = &plan.shards[tag.shard];
                let input = inputs.get(*round)?;
                let mut sub = Request::matvec_partial(
                    *id,
                    shard.row_offset as u64,
                    input[shard.row_offset..shard.row_end()].to_vec(),
                );
                sub.deadline_ms = remaining_ms(*deadline);
                Some((sub, attempt_timeout(*deadline, cap)))
            }
            Machine::Pipeline {
                id,
                deadline,
                model,
                format,
                plan,
                stage,
                activation,
                ..
            } => {
                let s = &plan.stages[*stage];
                let mut sub = Request::infer(*id, model, format, activation.clone())
                    .with_layer_range(s.start as u64, s.end as u64);
                sub.deadline_ms = remaining_ms(*deadline);
                Some((sub, attempt_timeout(*deadline, cap)))
            }
        }
    }

    /// Starts a sub-call against backend `index`: reuse a pooled conn,
    /// open a new one under the cap, or queue until one frees.
    fn subcall(&mut self, tag: SubTag, index: usize) {
        if let Some(token) = self.backend_io(index).free.pop() {
            self.shared.pool.get(index).begin_dispatch();
            self.start_on_conn(token, tag);
            return;
        }
        if self.backend_io(index).total < self.cfg().conns_per_backend {
            self.shared.pool.get(index).begin_dispatch();
            match self.connect_upstream(index) {
                Ok(token) => {
                    self.backend_io(index).total += 1;
                    self.start_on_conn(token, tag);
                }
                Err(_) => {
                    self.shared.pool.get(index).finish_dispatch(false, None);
                    self.sub_transport_fail(tag, index);
                }
            }
            return;
        }
        self.backend_io(index).waiting.push_back(tag);
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

    /// Sends the sub-request on an owned connection. `begin_dispatch`
    /// has already been called for this attempt.
    fn start_on_conn(&mut self, token: u64, tag: SubTag) {
        let Some((sub, timeout)) = self.build_sub(tag) else {
            // The machine vanished while the conn was being acquired:
            // undo the dispatch count and return the conn to the pool.
            if let Some(Conn::Upstream(u)) = self.conns.get(token) {
                let index = u.backend;
                self.shared.pool.get(index).finish_dispatch(false, None);
                self.release_conn(token);
            }
            return;
        };
        let payload = match protocol::encode_message(&sub) {
            Ok(p) => p,
            Err(_) => {
                let Some(Conn::Upstream(u)) = self.conns.get(token) else {
                    return;
                };
                let index = u.backend;
                self.shared.pool.get(index).finish_dispatch(false, None);
                self.drop_upstream(token);
                self.sub_transport_fail(tag, index);
                return;
            }
        };
        let Some(Conn::Upstream(u)) = self.conns.get_mut(token) else {
            return;
        };
        let now = Instant::now();
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
        self.machine_on_response(tag, index, resp);
    }

    fn machine_on_response(&mut self, tag: SubTag, index: usize, resp: Response) {
        let shared = self.shared;
        match self.machines.get_mut(tag.machine) {
            None => {}
            Some(Machine::Single { req, .. }) => {
                if resp.status == Status::Overloaded {
                    if let Some(ms) = resp.retry_after_ms {
                        shared.pool.get(index).note_retry_after(ms);
                    }
                }
                if let Some(mj) = resp.energy_mj {
                    shared.metrics.record_energy_mj(
                        resp.format.as_deref(),
                        req.model.as_deref(),
                        mj,
                    );
                }
                self.complete(tag.machine, resp);
            }
            Some(Machine::Scatter {
                id,
                plan,
                parts,
                outstanding,
                outputs,
                round,
                ..
            }) => {
                let plan = plan.clone().expect("round in flight has a plan");
                let shard = &plan.shards[tag.shard];
                let id = *id;
                *outstanding -= 1;
                if resp.status == Status::Ok {
                    // Each shard meters its own slice of the matvec;
                    // the router ledger sums them per scatter round.
                    if let Some(mj) = resp.energy_mj {
                        shared.metrics.record_energy_mj(None, None, mj);
                    }
                    let Some(partials) = resp.partials else {
                        let fail = Response::error(
                            id,
                            Status::Overloaded,
                            format!("shard {} returned no partials", tag.shard),
                        );
                        self.scatter_abort(tag.machine, fail);
                        return;
                    };
                    if partials.len() != shard.tiles || partials.iter().any(|p| p.len() != shared.n)
                    {
                        let fail = Response::error(
                            id,
                            Status::Overloaded,
                            format!("shard {} returned malformed partials", tag.shard),
                        );
                        self.scatter_abort(tag.machine, fail);
                        return;
                    }
                    parts[tag.shard] = Some(partials);
                    if *outstanding == 0 {
                        // Reduce: fixed left fold in shard/tile order —
                        // identical bits to the single-node
                        // accumulation, regardless of arrival order.
                        let gathered: Vec<Vec<f32>> = parts
                            .iter_mut()
                            .flat_map(|p| p.take().expect("all shards gathered"))
                            .collect();
                        let refs: Vec<&[f32]> = gathered.iter().map(Vec::as_slice).collect();
                        let mut adder = PartialSumAdder::new();
                        let mut output = Vec::with_capacity(shared.n);
                        adder.sum_into(&refs, &mut output);
                        outputs.push(output);
                        *round += 1;
                        self.scatter_begin_round(tag.machine);
                    }
                } else {
                    // Structured shard rejection (503 overloaded, 504
                    // expired, …): propagate status/code upstream with
                    // the shard named in the error text.
                    if resp.status == Status::Overloaded {
                        if let Some(ms) = resp.retry_after_ms {
                            shared.pool.get(index).note_retry_after(ms);
                        }
                    }
                    let mut out = Response::error(
                        id,
                        resp.status,
                        format!(
                            "shard {} ({}): {}",
                            tag.shard,
                            shared.pool.get(index).addr,
                            resp.error.as_deref().unwrap_or("rejected")
                        ),
                    );
                    out.retry_after_ms = resp.retry_after_ms;
                    self.scatter_abort(tag.machine, out);
                }
            }
            Some(Machine::Pipeline {
                id,
                model,
                plan,
                stage,
                activation,
                ..
            }) => {
                let id = *id;
                if resp.status == Status::Ok {
                    let Some(output) = resp.output else {
                        let fail = Response::error(
                            id,
                            Status::Overloaded,
                            format!(
                                "stage {} returned no activation",
                                plan.stages[*stage].backend
                            ),
                        );
                        self.complete(tag.machine, fail);
                        return;
                    };
                    *activation = output;
                    *stage += 1;
                    if *stage == plan.stages.len() {
                        shared.metrics.record_infer(model);
                        let mut out = Response::ok(id);
                        out.output = Some(std::mem::take(activation));
                        self.complete(tag.machine, out);
                    } else {
                        self.pipeline_send_stage(tag.machine);
                    }
                } else {
                    // Structured stage rejection: propagate with the
                    // stage named in the error text.
                    if resp.status == Status::Overloaded {
                        if let Some(ms) = resp.retry_after_ms {
                            shared.pool.get(index).note_retry_after(ms);
                        }
                    }
                    let stage_backend = plan.stages[*stage].backend;
                    let mut out = Response::error(
                        id,
                        resp.status,
                        format!(
                            "stage {} ({}): {}",
                            stage_backend,
                            shared.pool.get(stage_backend).addr,
                            resp.error.as_deref().unwrap_or("rejected")
                        ),
                    );
                    out.retry_after_ms = resp.retry_after_ms;
                    self.complete(tag.machine, out);
                }
            }
        }
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
            self.sub_transport_fail(tag, index);
        }
    }

    /// Machine-side reaction to a failed sub-call (identical decisions
    /// to the blocking dispatchers).
    fn sub_transport_fail(&mut self, tag: SubTag, index: usize) {
        let shared = self.shared;
        match self.machines.get_mut(tag.machine) {
            None => {}
            Some(Machine::Single { excluded, .. }) => {
                // Eject the replica and re-dispatch within the
                // deadline; the prober revives it (after the
                // fingerprint handshake) later.
                excluded.push(index);
                if shared.pool.get(index).mark_dead() {
                    shared.rebalance();
                }
                shared.metrics.serve().record_protocol_error();
                self.single_attempt(tag.machine);
            }
            Some(Machine::Scatter { plan, tried, .. }) => {
                // Eject the replica and fail the shard over to a
                // sibling — it holds the identical rows, so failover
                // cannot change a single bit of the reduction.
                tried[tag.shard].push(index);
                let plan = plan.clone().expect("round in flight has a plan");
                if shared.pool.get(index).mark_dead() {
                    shared.rebalance();
                }
                shared.metrics.serve().record_protocol_error();
                self.scatter_dispatch_shard(tag.machine, &plan, tag.shard);
            }
            Some(Machine::Pipeline {
                id, plan, stage, ..
            }) => {
                // A dead stage cannot be failed over: no other backend
                // is assigned its layer range.
                shared.pool.get(index).mark_dead();
                shared.metrics.serve().record_protocol_error();
                let id = *id;
                let stage_backend = plan.stages[*stage].backend;
                let mut resp = Response::error(
                    id,
                    Status::Overloaded,
                    format!(
                        "pipeline stage {} ({}) unavailable",
                        stage_backend,
                        shared.pool.get(stage_backend).addr
                    ),
                );
                resp.retry_after_ms = Some(shared.retry_hint());
                self.complete(tag.machine, resp);
            }
        }
    }

    /// Aborts a scatter round: in-flight sibling sub-calls get their
    /// dispatches closed out and their conns dropped (a stray response
    /// must never be mistaken for another request's), queued siblings
    /// are purged, and the machine completes with `resp`.
    fn scatter_abort(&mut self, mid: u64, resp: Response) {
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
        for b in &mut self.backends {
            b.waiting.retain(|t| t.machine != mid);
        }
        self.complete(mid, resp);
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
                self.subcall(tag, index);
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
