//! The router's side of the reactor front door: pooled upstream
//! connections that carry dispatch machines' sub-calls.
//!
//! The front door ([`afpr_serve::front`]) owns the listener, every
//! client socket, frame assembly and the in-order answer queues. Each
//! compute request it hands over runs as a [`crate::dispatch`]
//! machine, the same one the blocking workers drive; this module
//! carries the machine's sub-calls over upstream connections that
//! share the door's poller and slab:
//!
//! ```text
//!  client frame ──▶ admit ──▶ Machine ──Send──▶ sub-call borrows an upstream conn
//!                               ▲                          │
//!                               └── on_response / on_transport_fail
//!                               │
//!                             Done ──▶ Front::resolve ──▶ client queue
//! ```
//!
//! A scatter round's shards compute concurrently (the machine reduces
//! in shard order whatever the arrival order), and many requests
//! progress at once on one core.
//!
//! Upstream connections are *not* multiplexed: a sub-call owns its
//! connection until the response arrives, so dropping a failed conn
//! can never desynchronize an unrelated request (same discipline as
//! the blocking `WorkerConns`). Saturated pools queue sub-calls until
//! a connection frees. Upstream connects use a short blocking
//! `connect_timeout` — on the loopback deployments this tier targets,
//! a dead backend refuses instantly.

use std::collections::VecDeque;
use std::net::{TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

use afpr_reactor::{Event, FrameConn, Interest, Slab};
use afpr_serve::front::{EventTier, Sock};
use afpr_serve::protocol;
use afpr_serve::{Encoding, Request, Response};

use crate::dispatch::{admit, Admit, Machine, Step};
use crate::router::RouterShared;

type Front<'f, 'a> = afpr_serve::front::Front<'f, Upstreams<'a>>;

const CONNECT_TIMEOUT: Duration = Duration::from_millis(500);

pub(crate) struct UpstreamConn {
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

/// The router's state on the reactor thread: running machines and the
/// per-backend upstream pools.
pub(crate) struct Upstreams<'a> {
    shared: &'a RouterShared,
    machines: Slab<Running>,
    backends: Vec<BackendIo>,
}

impl<'a> EventTier for Upstreams<'a> {
    type Tier = RouterShared;
    type Pending = u64;
    type Peer = Box<UpstreamConn>;
    /// Short, because the sweep also times out upstream attempts.
    const SWEEP_PERIOD: Duration = Duration::from_millis(10);

    fn admit(
        &mut self,
        front: &mut Front<'_, 'a>,
        client: u64,
        enc: Encoding,
        req: Request,
        t0: Instant,
    ) {
        let op = req.op;
        match admit(self.shared, req, t0) {
            Admit::Reply(resp) => front.answer(client, enc, op, t0, resp),
            Admit::Run(machine) => {
                let mid = self.machines.insert(Running { client, machine });
                front.wait(client, enc, op, t0, mid);
                // Started after the waiting entry exists, so a
                // synchronous completion (dead backend, empty batch)
                // still finds its queue slot.
                self.drive(front, mid, Machine::next);
            }
        }
    }

    fn peer_event(&mut self, front: &mut Front<'_, 'a>, token: u64, ev: Event) {
        if ev.failed {
            return self.upstream_transport_fail(front, token);
        }
        if ev.readable {
            self.upstream_read(front, token);
        }
        if ev.writable {
            self.upstream_flush(front, token);
        }
    }

    fn sweep(&mut self, front: &mut Front<'_, 'a>, now: Instant) {
        for token in front.conns.tokens() {
            let timed_out = match front.conns.get(token) {
                Some(Sock::Peer(u)) => u.owner.is_some() && now >= u.expires,
                _ => false,
            };
            if timed_out {
                // Attempt timed out: same as a socket-timeout transport
                // failure on the blocking path.
                self.upstream_transport_fail(front, token);
            }
        }
    }

    fn settled(&self) -> bool {
        self.machines.is_empty()
    }
}

impl<'a> Upstreams<'a> {
    pub(crate) fn new(shared: &'a RouterShared) -> Self {
        Self {
            shared,
            machines: Slab::new(),
            backends: Vec::new(),
        }
    }

    /// Per-backend pool bookkeeping, indexed by stable slot id; grows
    /// as backends join mid-run.
    fn backend_io(&mut self, index: usize) -> &mut BackendIo {
        if self.backends.len() <= index {
            self.backends.resize_with(index + 1, BackendIo::default);
        }
        &mut self.backends[index]
    }

    /// Feeds one event to machine `mid`, then carries out its steps
    /// until it waits or finishes. Events nest — a write that fails
    /// synchronously feeds the machine from inside `subcall` — so the
    /// machine is looked up afresh after every send.
    fn drive(
        &mut self,
        front: &mut Front<'_, 'a>,
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
                Step::Done(resp) => return self.complete(front, mid, resp),
                Step::Send { shard, backend } => {
                    let tag = SubTag {
                        machine: mid,
                        shard,
                    };
                    let started = self.subcall(front, tag, backend.index);
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
    fn sub_failed(&mut self, front: &mut Front<'_, 'a>, tag: SubTag, index: usize) {
        self.drive(front, tag.machine, |m, shared, now| {
            m.on_transport_fail(shared, tag.shard, index, now)
        });
    }

    /// Hands a finished response to its client's queue. Sub-calls the
    /// machine still owes are abandoned first.
    fn complete(&mut self, front: &mut Front<'_, 'a>, mid: u64, resp: Response) {
        let Some(Running { client, machine }) = self.machines.remove(mid) else {
            return;
        };
        if machine.owed().next().is_some() {
            self.abandon(front, mid);
        }
        front.resolve(self, client, |&m| m == mid, resp);
    }

    /// Starts a sub-call against backend `index`: reuse a pooled conn,
    /// open a new one under the cap, or queue until one frees. False
    /// when the connect failed; the machine has yet to hear of it.
    fn subcall(&mut self, front: &mut Front<'_, 'a>, tag: SubTag, index: usize) -> bool {
        if let Some(token) = self.backend_io(index).free.pop() {
            self.shared.pool.get(index).begin_dispatch();
            self.start_on_conn(front, token, tag);
            return true;
        }
        if self.backend_io(index).total >= self.shared.cfg.conns_per_backend {
            self.backend_io(index).waiting.push_back(tag);
            return true;
        }
        self.shared.pool.get(index).begin_dispatch();
        match self.connect_upstream(front, index) {
            Ok(token) => {
                self.backend_io(index).total += 1;
                self.start_on_conn(front, token, tag);
                true
            }
            Err(_) => {
                self.shared.pool.get(index).finish_dispatch(false, None);
                false
            }
        }
    }

    fn connect_upstream(
        &mut self,
        front: &mut Front<'_, 'a>,
        index: usize,
    ) -> std::io::Result<u64> {
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
        let token = front.conns.insert(Sock::Peer(Box::new(UpstreamConn {
            io,
            backend: index,
            owner: None,
            expires: Instant::now(),
            attempt_started: Instant::now(),
            interest: Interest::READABLE,
        })));
        let Some(Sock::Peer(u)) = front.conns.get(token) else {
            unreachable!("just inserted");
        };
        if let Err(e) = front
            .poller
            .register(u.io.stream(), token, Interest::READABLE)
        {
            front.conns.remove(token);
            return Err(e);
        }
        Ok(token)
    }

    /// Sends the sub-request on an owned connection, built now so that
    /// it forwards only the deadline budget left after queueing.
    /// `begin_dispatch` has already been called for this attempt.
    fn start_on_conn(&mut self, front: &mut Front<'_, 'a>, token: u64, tag: SubTag) {
        let now = Instant::now();
        let Some(run) = self.machines.get_mut(tag.machine) else {
            // The machine vanished while the conn was being acquired:
            // undo the dispatch count and return the conn to the pool.
            if let Some(Sock::Peer(u)) = front.conns.get(token) {
                let index = u.backend;
                self.shared.pool.get(index).finish_dispatch(false, None);
                self.release_conn(front, token);
            }
            return;
        };
        let (sub, timeout) = run.machine.sub_request(self.shared, tag.shard, now);
        let payload = match protocol::encode_message(&sub) {
            Ok(p) => p,
            Err(_) => {
                let Some(Sock::Peer(u)) = front.conns.get(token) else {
                    return;
                };
                let index = u.backend;
                self.shared.pool.get(index).finish_dispatch(false, None);
                self.drop_upstream(front, token);
                self.sub_failed(front, tag, index);
                return;
            }
        };
        let Some(Sock::Peer(u)) = front.conns.get_mut(token) else {
            return;
        };
        u.owner = Some(tag);
        u.attempt_started = now;
        u.expires = now + timeout;
        u.io.queue_frame(&payload);
        self.upstream_flush(front, token);
    }

    fn upstream_flush(&mut self, front: &mut Front<'_, 'a>, token: u64) {
        let Some(Sock::Peer(u)) = front.conns.get_mut(token) else {
            return;
        };
        if u.io.flush().is_err() {
            self.upstream_transport_fail(front, token);
            return;
        }
        let desired = Interest {
            readable: true,
            writable: u.io.wants_write(),
        };
        if desired != u.interest
            && front
                .poller
                .reregister(u.io.stream(), token, desired)
                .is_ok()
        {
            if let Some(Sock::Peer(u)) = front.conns.get_mut(token) {
                u.interest = desired;
            }
        }
    }

    fn upstream_read(&mut self, front: &mut Front<'_, 'a>, token: u64) {
        let Some(Sock::Peer(u)) = front.conns.get_mut(token) else {
            return;
        };
        if u.io.fill().is_err() {
            self.upstream_transport_fail(front, token);
            return;
        }
        match u.io.next_frame(self.shared.cfg.max_frame_bytes) {
            Ok(Some(payload)) => {
                if u.owner.is_none() {
                    // Unsolicited data on a pooled conn: framing can no
                    // longer be trusted; drop it.
                    self.drop_upstream(front, token);
                    return;
                }
                match protocol::parse_message::<Response>(&payload) {
                    Ok(resp) => self.sub_response(front, token, resp),
                    Err(_) => self.upstream_transport_fail(front, token),
                }
            }
            Ok(None) => {
                if u.io.is_eof() {
                    if u.owner.is_some() {
                        self.upstream_transport_fail(front, token);
                    } else {
                        self.drop_upstream(front, token);
                    }
                }
            }
            Err(_) => self.upstream_transport_fail(front, token),
        }
    }

    /// A structured response arrived for the owning sub-call.
    fn sub_response(&mut self, front: &mut Front<'_, 'a>, token: u64, resp: Response) {
        let Some(Sock::Peer(u)) = front.conns.get_mut(token) else {
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
            self.drop_upstream(front, token);
        } else {
            self.release_conn(front, token);
        }
        self.drive(front, tag.machine, |m, shared, now| {
            m.on_response(shared, tag.shard, index, resp, now)
        });
    }

    /// Transport failure on an upstream conn (I/O error, EOF mid-call,
    /// attempt timeout): close out the dispatch, drop the conn, and
    /// let the owning machine react.
    fn upstream_transport_fail(&mut self, front: &mut Front<'_, 'a>, token: u64) {
        let Some(Sock::Peer(u)) = front.conns.get_mut(token) else {
            return;
        };
        let owner = u.owner.take();
        let index = u.backend;
        if owner.is_some() {
            self.shared.pool.get(index).finish_dispatch(false, None);
        }
        self.drop_upstream(front, token);
        if let Some(tag) = owner {
            self.sub_failed(front, tag, index);
        }
    }

    /// Abandons the sub-calls of a machine that finished early: queued
    /// ones are purged, and in-flight ones get their dispatches closed
    /// out and their conns dropped (a stray response must never be
    /// mistaken for another request's).
    fn abandon(&mut self, front: &mut Front<'_, 'a>, mid: u64) {
        for b in &mut self.backends {
            b.waiting.retain(|t| t.machine != mid);
        }
        for token in front.conns.tokens() {
            let Some(Sock::Peer(u)) = front.conns.get_mut(token) else {
                continue;
            };
            if u.owner.is_some_and(|t| t.machine == mid) {
                u.owner = None;
                let index = u.backend;
                self.shared.pool.get(index).finish_dispatch(false, None);
                self.drop_upstream(front, token);
            }
        }
    }

    /// Returns an upstream conn to its backend pool, or hands it
    /// straight to the next queued sub-call.
    fn release_conn(&mut self, front: &mut Front<'_, 'a>, token: u64) {
        let Some(Sock::Peer(u)) = front.conns.get_mut(token) else {
            return;
        };
        u.owner = None;
        let index = u.backend;
        let desired = Interest::READABLE;
        if desired != u.interest
            && front
                .poller
                .reregister(u.io.stream(), token, desired)
                .is_ok()
        {
            if let Some(Sock::Peer(u)) = front.conns.get_mut(token) {
                u.interest = desired;
            }
        }
        // Feed the queue first; skip tags whose machine already died.
        while let Some(tag) = self.backend_io(index).waiting.pop_front() {
            if self.machines.get(tag.machine).is_some() {
                self.shared.pool.get(index).begin_dispatch();
                self.start_on_conn(front, token, tag);
                return;
            }
        }
        self.backend_io(index).free.push(token);
    }

    /// Closes an upstream conn and removes it from pool bookkeeping.
    fn drop_upstream(&mut self, front: &mut Front<'_, 'a>, token: u64) {
        let Some(Sock::Peer(u)) = front.conns.get(token) else {
            return;
        };
        let index = u.backend;
        let _ = front.poller.deregister(u.io.stream());
        front.conns.remove(token);
        let b = self.backend_io(index);
        b.total -= 1;
        b.free.retain(|&t| t != token);
        // Freed capacity: a queued sub-call may now open a fresh conn.
        while let Some(tag) = self.backend_io(index).waiting.pop_front() {
            if self.machines.get(tag.machine).is_some() {
                if !self.subcall(front, tag, index) {
                    self.sub_failed(front, tag, index);
                }
                break;
            }
        }
    }
}
