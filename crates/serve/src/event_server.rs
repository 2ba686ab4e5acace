//! Event-driven front door: one epoll loop drives every connection.
//!
//! This is the [`Transport::Reactor`] implementation. Where the
//! blocking transport pins a worker thread per connection, here a
//! single thread multiplexes accept, frame assembly, admission,
//! response delivery and timeouts across all sockets via
//! `afpr-reactor`. The admission pipeline itself
//! ([`server::dispatch_admit`]) and the response encoder are shared
//! with the blocking transport, so both produce byte-identical
//! responses — the blocking path stays the behavioral oracle.
//!
//! # Readiness state machine (per connection)
//!
//! ```text
//!            readable                    frame complete
//!   ┌──────┐ ──────── fill() ─────────▶ parse → dispatch_admit
//!   │ OPEN │                               │ Immediate      │ Pending
//!   └──────┘ ◀── flush drained ──┐         ▼                ▼
//!      │                         │   queue: [Ready]   [Waiting(rx)]
//!      │ EOF/error/timeout       │         └───── head resolved in
//!      ▼                         │               order → encode →
//!   CLOSE-AFTER-FLUSH ──────────▶└── write buffer (WRITABLE interest
//!      │  queue empty + flushed            while non-empty)
//!      ▼
//!    CLOSED (slot generation bumped; stale events die)
//! ```
//!
//! # Invariants
//!
//! - **Order**: responses leave a connection in request order. Each
//!   connection keeps a FIFO of `Ready`/`Waiting` entries; only the
//!   head may be written, and a `Waiting` head blocks those behind it
//!   (execution replies arrive in submission order, so no deadlock).
//! - **Backpressure**: a slow reader's responses accumulate in its
//!   write buffer; past [`WRITE_HIGH_WATER`] (or [`MAX_PIPELINED`]
//!   queued requests) the loop stops *reading* from that connection —
//!   interest re-registration, no unbounded buffering, no blocking.
//! - **Admission**: at [`ServerConfig::max_connections`] live
//!   connections, further accepts get one structured `503 overloaded`
//!   frame and are closed — never a silent drop.
//! - **Liveness**: the execution thread wakes the loop through the
//!   shared waker after every batch; a dead execution thread is
//!   covered by the reply-expiry sweep, an idle or mid-frame-stalled
//!   peer by the idle/slowloris sweeps.

use std::collections::{HashSet, VecDeque};
use std::io;
use std::net::TcpListener;
use std::sync::Arc;
use std::time::{Duration, Instant};

use afpr_reactor::{Event, Events, FrameConn, Interest, Poller, Slab, WakerSource, SENTINEL_BASE};
use crossbeam::channel::TryRecvError;

use crate::protocol::{self, Encoding, Op, Request, Response, Status};
use crate::server::{
    dispatch_admit, reject_malformed, resolve_reply, Admission, PendingExec, Shared,
};

/// Poller token of the accept socket.
pub(crate) const LISTENER_TOKEN: u64 = SENTINEL_BASE;
/// Poller token of the cross-thread waker.
pub(crate) const WAKER_TOKEN: u64 = SENTINEL_BASE + 1;

/// Poll timeout: bounds drain-flag latency when nothing is happening.
const POLL_TIMEOUT: Duration = Duration::from_millis(25);
/// Cadence of the idle/slowloris/reply-expiry sweeps.
const SWEEP_PERIOD: Duration = Duration::from_millis(100);
/// Queued response bytes beyond which a connection stops being read.
const WRITE_HIGH_WATER: usize = 1 << 20;
/// Queued (pipelined) requests beyond which a connection stops being
/// read.
const MAX_PIPELINED: usize = 1024;

/// One response slot in a connection's in-order delivery queue.
enum Entry {
    /// Response known; waiting its turn at the head. Boxed: a
    /// `Response` is an order of magnitude larger than the `Waiting`
    /// variant, and idle queue slots shouldn't pay for it.
    Ready(Box<Response>),
    /// Admitted to the execution queue; reply pending.
    Waiting {
        op: Op,
        t0: Instant,
        exec: PendingExec,
        expires_at: Instant,
    },
}

struct Conn {
    io: FrameConn,
    /// Response slots in request order, each with the encoding its
    /// request arrived in — the one its answer goes out in.
    queue: VecDeque<(Encoding, Entry)>,
    interest: Interest,
    /// Deliver what is queued, then close (EOF seen, fatal framing
    /// error answered, `shutdown` served, or drain in progress).
    close_after_flush: bool,
}

impl Conn {
    fn has_waiting(&self) -> bool {
        self.queue
            .iter()
            .any(|(_, e)| matches!(e, Entry::Waiting { .. }))
    }
}

struct Loop<'a> {
    shared: &'a Arc<Shared>,
    poller: &'a Poller,
    conns: Slab<Conn>,
    /// Tokens holding at least one `Waiting` entry — the wake path
    /// scans only these, so 10k idle connections cost nothing per wake.
    waiting: HashSet<u64>,
}

/// Runs the event loop until drain completes. Called on a dedicated
/// thread by `Server::start`; the listener and waker source are
/// already registered under their sentinel tokens.
pub(crate) fn run(
    shared: &Arc<Shared>,
    listener: &TcpListener,
    poller: &Poller,
    waker: &WakerSource,
) {
    let mut lp = Loop {
        shared,
        poller,
        conns: Slab::new(),
        waiting: HashSet::new(),
    };
    let mut events = Events::with_capacity(1024);
    let mut last_sweep = Instant::now();
    let mut accepting = true;

    loop {
        if lp.poller.wait(&mut events, Some(POLL_TIMEOUT)).is_err() {
            // A failed wait would otherwise spin; back off briefly.
            std::thread::sleep(Duration::from_millis(5));
        }
        let mut woken = false;
        for ev in events.iter() {
            match ev.token {
                WAKER_TOKEN => {
                    waker.drain();
                    woken = true;
                }
                LISTENER_TOKEN => {
                    if accepting {
                        lp.accept_ready(listener);
                    }
                }
                token => lp.handle_conn_event(token, ev),
            }
        }
        if woken {
            for token in lp.waiting.iter().copied().collect::<Vec<_>>() {
                lp.pump(token);
            }
        }
        let now = Instant::now();
        if now.duration_since(last_sweep) >= SWEEP_PERIOD {
            last_sweep = now;
            lp.sweep(now);
        }
        if shared.is_shutting_down() {
            if accepting {
                let _ = lp.poller.deregister(listener);
                accepting = false;
            }
            // Drain-then-stop: connections with nothing left to
            // deliver close now; the rest close as their queues empty
            // (the execution thread answers every queued job before
            // it stops, so this converges).
            for token in lp.conns.tokens() {
                let done = lp
                    .conns
                    .get(token)
                    .is_some_and(|c| c.queue.is_empty() && !c.io.wants_write());
                if done {
                    lp.close(token);
                }
            }
            if lp.conns.is_empty() {
                return;
            }
        }
    }
}

impl Loop<'_> {
    fn close(&mut self, token: u64) {
        if let Some(conn) = self.conns.remove(token) {
            let _ = self.poller.deregister(conn.io.stream());
        }
        self.waiting.remove(&token);
    }

    fn accept_ready(&mut self, listener: &TcpListener) {
        loop {
            match listener.accept() {
                Ok((stream, _peer)) => {
                    self.shared.metrics.record_connection();
                    if self.shared.is_shutting_down() {
                        continue; // racing accept during drain: drop
                    }
                    if self.conns.len() >= self.shared.cfg.max_connections {
                        // Connection-count admission: structured 503,
                        // then close — the client learns to back off
                        // instead of seeing a silent reset.
                        self.shared.metrics.record_connection_dropped();
                        if let Ok(mut io) = FrameConn::new(stream) {
                            let mut resp =
                                Response::error(0, Status::Overloaded, "connection limit reached");
                            resp.retry_after_ms = Some(self.shared.cfg.retry_after_ms);
                            if let Ok(bytes) = protocol::encode_message(&resp) {
                                io.queue_frame(&bytes);
                                let _ = io.flush();
                            }
                        }
                        continue;
                    }
                    match FrameConn::new(stream) {
                        Ok(io) => {
                            let token = self.conns.insert(Conn {
                                io,
                                queue: VecDeque::new(),
                                interest: Interest::READABLE,
                                close_after_flush: false,
                            });
                            let conn = self.conns.get(token).expect("just inserted");
                            if self
                                .poller
                                .register(conn.io.stream(), token, Interest::READABLE)
                                .is_err()
                            {
                                self.conns.remove(token);
                                self.shared.metrics.record_connection_dropped();
                            }
                        }
                        Err(_) => self.shared.metrics.record_connection_dropped(),
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(_) => return,
            }
        }
    }

    fn handle_conn_event(&mut self, token: u64, ev: Event) {
        if self.conns.get(token).is_none() {
            return; // stale token: connection closed earlier this batch
        }
        if ev.failed {
            // EPOLLERR/EPOLLHUP: the socket is dead in both directions;
            // nothing queued can be delivered.
            self.close(token);
            return;
        }
        if ev.readable {
            self.read_path(token);
        }
        if ev.writable && self.conns.get(token).is_some() {
            self.finish_io(token);
        }
    }

    /// Readable: pull bytes, pop completed frames through admission,
    /// then deliver whatever resolved.
    fn read_path(&mut self, token: u64) {
        let Some(conn) = self.conns.get_mut(token) else {
            return;
        };
        if conn.io.fill().is_err() {
            // Abrupt socket failure mid-stream (reset, I/O error) —
            // mirrors the blocking transport's FrameError::Io path.
            self.shared.metrics.record_protocol_error();
            self.close(token);
            return;
        }
        let mut closed = false;
        while !conn.close_after_flush {
            match conn.io.next_frame(self.shared.cfg.max_frame_bytes) {
                Ok(None) => break,
                Ok(Some(payload)) => {
                    let t0 = Instant::now();
                    let enc = Encoding::of(&payload);
                    match protocol::parse_message::<Request>(&payload) {
                        Err(e) => {
                            // Undecodable payload inside a good frame:
                            // answer 400, keep the connection — framing
                            // is in sync.
                            let resp = reject_malformed(self.shared, 0, e);
                            conn.queue.push_back((enc, Entry::Ready(Box::new(resp))));
                        }
                        Ok(req) => {
                            let op = req.op;
                            match dispatch_admit(self.shared, req, t0) {
                                Admission::Immediate(resp) => {
                                    self.shared.metrics.record_request(
                                        op,
                                        resp.is_ok(),
                                        t0.elapsed(),
                                    );
                                    conn.queue.push_back((enc, Entry::Ready(resp)));
                                    if op == Op::Shutdown {
                                        conn.close_after_flush = true;
                                    }
                                }
                                Admission::Pending(exec) => {
                                    let expires_at = exec.expires_at(t0);
                                    conn.queue.push_back((
                                        enc,
                                        Entry::Waiting {
                                            op,
                                            t0,
                                            exec,
                                            expires_at,
                                        },
                                    ));
                                    self.waiting.insert(token);
                                }
                            }
                        }
                    }
                    // Drain-then-stop: during shutdown each connection
                    // finishes the request it is on, then closes.
                    if self.shared.is_shutting_down() {
                        conn.close_after_flush = true;
                    }
                }
                Err(too_large) => {
                    // The peer is alive and spoke the framing language;
                    // tell it what went wrong, then cut the connection
                    // (the oversized payload cannot be skipped safely).
                    self.shared.metrics.record_protocol_error();
                    let resp = reject_malformed(
                        self.shared,
                        0,
                        format!(
                            "frame of {} bytes exceeds cap of {}",
                            too_large.announced, too_large.max
                        ),
                    );
                    conn.queue
                        .push_back((Encoding::Json, Entry::Ready(Box::new(resp))));
                    conn.close_after_flush = true;
                }
            }
        }
        if conn.io.is_eof() {
            if conn.io.pending_read_bytes() > 0 && !conn.close_after_flush {
                // Half-sent frame: nothing sensible to answer.
                self.shared.metrics.record_protocol_error();
                closed = true;
            }
            conn.close_after_flush = true;
        }
        if closed {
            self.close(token);
        } else {
            self.pump(token);
        }
    }

    /// Resolves queue heads in order into the write buffer, then
    /// flushes and updates interest.
    fn pump(&mut self, token: u64) {
        let Some(conn) = self.conns.get_mut(token) else {
            self.waiting.remove(&token);
            return;
        };
        let mut write_failed = false;
        loop {
            let (enc, resp) = match conn.queue.front_mut() {
                None => break,
                Some((_, Entry::Ready(_))) => {
                    let Some((enc, Entry::Ready(resp))) = conn.queue.pop_front() else {
                        unreachable!("front() said Ready");
                    };
                    (enc, resp)
                }
                Some((
                    _,
                    Entry::Waiting {
                        op,
                        t0,
                        exec,
                        expires_at,
                    },
                )) => {
                    let reply = match exec.rx.try_recv() {
                        Ok(r) => Some(Some(r)),
                        Err(TryRecvError::Disconnected) => Some(None),
                        Err(TryRecvError::Empty) => {
                            if Instant::now() >= *expires_at {
                                Some(None) // execution thread presumed dead
                            } else {
                                None
                            }
                        }
                    };
                    let Some(reply) = reply else { break };
                    let (op, t0) = (*op, *t0);
                    // Re-pop to move the pending exec (and its non-Copy
                    // energy-accounting tag) out of the queue slot.
                    let Some((enc, Entry::Waiting { exec, .. })) = conn.queue.pop_front() else {
                        unreachable!("front() said Waiting");
                    };
                    let resp = resolve_reply(self.shared, exec, reply);
                    self.shared
                        .metrics
                        .record_request(op, resp.is_ok(), t0.elapsed());
                    (enc, Box::new(resp))
                }
            };
            match enc.encode(&*resp) {
                Ok(bytes) => conn.io.queue_frame(&bytes),
                Err(_) => {
                    write_failed = true;
                    break;
                }
            }
        }
        if !conn.has_waiting() {
            self.waiting.remove(&token);
        }
        if write_failed {
            self.close(token);
        } else {
            self.finish_io(token);
        }
    }

    /// Flushes queued bytes, closes if the connection is finished, and
    /// re-registers interest to reflect read backpressure and pending
    /// writes.
    fn finish_io(&mut self, token: u64) {
        let Some(conn) = self.conns.get_mut(token) else {
            return;
        };
        if conn.io.flush().is_err() {
            // Write failure closes the connection, as on the blocking
            // transport (no protocol_error: the frame stream was fine).
            self.close(token);
            return;
        }
        if conn.close_after_flush && conn.queue.is_empty() && !conn.io.wants_write() {
            self.close(token);
            return;
        }
        let desired = Interest {
            readable: !conn.close_after_flush
                && conn.io.pending_write_bytes() < WRITE_HIGH_WATER
                && conn.queue.len() < MAX_PIPELINED,
            writable: conn.io.wants_write(),
        };
        if desired != conn.interest
            && self
                .poller
                .reregister(conn.io.stream(), token, desired)
                .is_ok()
        {
            let Some(conn) = self.conns.get_mut(token) else {
                return;
            };
            conn.interest = desired;
        }
    }

    /// Periodic timers: reply expiry (dead execution thread), the
    /// slowloris frame-assembly budget, and the idle timeout.
    fn sweep(&mut self, now: Instant) {
        for token in self.waiting.iter().copied().collect::<Vec<_>>() {
            self.pump(token); // re-checks expires_at on blocked heads
        }
        for token in self.conns.tokens() {
            let Some(conn) = self.conns.get(token) else {
                continue;
            };
            if conn
                .io
                .mid_frame_since()
                .is_some_and(|s| now.duration_since(s) >= self.shared.cfg.frame_assembly_timeout)
            {
                // Slowloris: trickling bytes keeps last_activity fresh
                // but cannot reset the frame-assembly clock.
                self.shared.metrics.record_protocol_error();
                self.close(token);
                continue;
            }
            if conn.queue.is_empty()
                && !conn.io.wants_write()
                && now.duration_since(conn.io.last_activity()) >= self.shared.cfg.idle_timeout
            {
                self.close(token);
            }
        }
    }
}
