//! One conformance suite for the client-facing front door, run on every
//! tier × transport pair: the backend `Server` and the cluster `Router`,
//! each on the blocking transport and, where this host supports it, on
//! the reactor. Both tiers run the same front door per transport, so
//! every check holds on all four pairs. Waits poll against a deadline
//! of at most 5 s instead of sleeping a fixed time.

use std::io::{ErrorKind, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use afpr_cluster::{ClusterConfig, Placement, Router};
use afpr_serve::{
    encode_message, parse_message, read_frame, write_frame, Op, Request, Response, ServeModel,
    ServeSnapshot, Server, ServerConfig, Status, Transport, DEFAULT_MAX_FRAME,
};

const K: usize = 256;
const SEED: u64 = 25;
/// The longest any check waits for the door to act.
const LIMIT: Duration = Duration::from_secs(5);

#[derive(Debug, Clone, Copy)]
enum Tier {
    Server,
    Router,
}

/// The front-door settings a check overrides; `ServerConfig` and
/// `ClusterConfig` share these fields.
#[derive(Clone, Copy)]
struct Door {
    frame_assembly_timeout: Duration,
    max_connections: usize,
    idle_timeout: Duration,
}

impl Default for Door {
    fn default() -> Self {
        let cfg = ServerConfig::default();
        Self {
            frame_assembly_timeout: cfg.frame_assembly_timeout,
            max_connections: cfg.max_connections,
            idle_timeout: cfg.idle_timeout,
        }
    }
}

/// A running tier: a server, or a replicated router over one backend.
struct Running {
    name: String,
    router: Option<Router>,
    /// The tier itself, or the router's backend.
    server: Server,
}

impl Running {
    fn start(tier: Tier, transport: Transport, door: Door) -> Self {
        let name = format!("{tier:?} on {transport:?}");
        if let Tier::Server = tier {
            let cfg = ServerConfig {
                transport,
                frame_assembly_timeout: door.frame_assembly_timeout,
                max_connections: door.max_connections,
                idle_timeout: door.idle_timeout,
                ..ServerConfig::default()
            };
            let server = Server::start(cfg, ServeModel::demo(SEED)).expect("server starts");
            return Self {
                name,
                router: None,
                server,
            };
        }
        let backend =
            Server::start(ServerConfig::default(), ServeModel::demo(SEED)).expect("backend starts");
        let addrs = [backend.local_addr().to_string()];
        let mut cfg = ClusterConfig::new("127.0.0.1:0", &addrs, Placement::Replicated);
        cfg.transport = transport;
        cfg.frame_assembly_timeout = door.frame_assembly_timeout;
        cfg.max_connections = door.max_connections;
        cfg.idle_timeout = door.idle_timeout;
        Self {
            name,
            router: Some(Router::start(cfg).expect("router starts")),
            server: backend,
        }
    }

    fn addr(&self) -> SocketAddr {
        self.router
            .as_ref()
            .map_or_else(|| self.server.local_addr(), Router::local_addr)
    }

    fn metrics(&self) -> ServeSnapshot {
        self.router
            .as_ref()
            .map_or_else(|| self.server.metrics(), Router::metrics)
    }

    fn connect(&self) -> TcpStream {
        let s = TcpStream::connect(self.addr()).expect("connects");
        s.set_read_timeout(Some(LIMIT)).expect("read timeout");
        s
    }

    /// A fresh connection's `matvec` is answered.
    fn serves(&self) -> bool {
        let mut s = self.connect();
        send(&mut s, &Request::matvec(99, ServeModel::demo_input(K, 0)));
        let resp = recv(&mut s);
        resp.is_ok() && resp.output.is_some_and(|y| y.len() == 128)
    }

    /// Polls the protocol-error counter until it reaches `want`.
    fn protocol_errors_reach(&self, want: u64) -> bool {
        eventually(|| self.metrics().protocol_errors == want)
    }
}

/// Every tier × transport pair this host can run, with `door` settings.
fn pairs(door: Door) -> Vec<Running> {
    let mut transports = vec![Transport::Blocking];
    if afpr_reactor::reactor_supported() {
        transports.push(Transport::Reactor);
    }
    [Tier::Server, Tier::Router]
        .into_iter()
        .flat_map(|tier| transports.iter().map(move |&t| (tier, t)))
        .map(|(tier, transport)| Running::start(tier, transport, door))
        .collect()
}

/// The reactor pairs only (none where the reactor is unsupported).
fn reactor_pairs(door: Door) -> Vec<Running> {
    if !afpr_reactor::reactor_supported() {
        return Vec::new();
    }
    [Tier::Server, Tier::Router]
        .into_iter()
        .map(|tier| Running::start(tier, Transport::Reactor, door))
        .collect()
}

fn send(s: &mut TcpStream, req: &Request) {
    write_frame(s, &encode_message(req).expect("encodes")).expect("writes");
}

fn recv(s: &mut TcpStream) -> Response {
    let payload = read_frame(s, DEFAULT_MAX_FRAME)
        .expect("reads a frame")
        .expect("the door answers before closing");
    parse_message(&payload).expect("a response")
}

/// Polls `cond` until it holds, for at most [`LIMIT`].
fn eventually(mut cond: impl FnMut() -> bool) -> bool {
    let end = Instant::now() + LIMIT;
    while !cond() {
        if Instant::now() >= end {
            return false;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    true
}

/// Reads until the peer closes (EOF or reset), discarding anything it
/// sends first; false if the connection is still open after `limit`.
fn closes_within(s: &mut TcpStream, limit: Duration) -> bool {
    let end = Instant::now() + limit;
    let mut buf = [0u8; 512];
    loop {
        let left = end.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return false;
        }
        s.set_read_timeout(Some(left)).expect("read timeout");
        match s.read(&mut buf) {
            Ok(0) => return true,
            Ok(_) => {}
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                return false
            }
            Err(_) => return true,
        }
    }
}

#[test]
fn oversized_announced_length_gets_a_json_400_then_the_connection_closes() {
    for t in pairs(Door::default()) {
        let mut s = t.connect();
        let announced = DEFAULT_MAX_FRAME + 1;
        s.write_all(&(announced as u32).to_be_bytes())
            .expect("writes");
        let payload = read_frame(&mut s, DEFAULT_MAX_FRAME)
            .expect("reads")
            .expect("a 400 before the close");
        assert_eq!(payload.first(), Some(&b'{'), "{}: a JSON answer", t.name);
        let resp: Response = parse_message(&payload).expect("a response");
        assert_eq!(resp.code, 400, "{}: {resp:?}", t.name);
        let text = format!("frame of {announced} bytes exceeds cap of {DEFAULT_MAX_FRAME}");
        assert_eq!(resp.error.as_deref(), Some(text.as_str()), "{}", t.name);
        assert!(closes_within(&mut s, LIMIT), "{}: still open", t.name);
    }
}

#[test]
fn truncated_frame_then_eof_counts_one_protocol_error_and_keeps_serving() {
    for t in pairs(Door::default()) {
        let before = t.metrics().protocol_errors;
        let mut s = t.connect();
        s.write_all(&100u32.to_be_bytes()).expect("writes");
        s.write_all(&[b'{'; 10]).expect("writes");
        s.shutdown(Shutdown::Write).expect("half-closes");
        assert!(closes_within(&mut s, LIMIT), "{}: still open", t.name);
        assert!(t.protocol_errors_reach(before + 1), "{}", t.name);
        assert!(t.serves(), "{}: stopped serving", t.name);
        assert_eq!(t.metrics().protocol_errors, before + 1, "{}", t.name);
    }
}

#[test]
fn undecodable_payload_gets_400_and_the_same_connection_still_serves() {
    for t in pairs(Door::default()) {
        let mut s = t.connect();
        write_frame(&mut s, b"not a request").expect("writes");
        let resp = recv(&mut s);
        assert_eq!(resp.status, Status::Malformed, "{}: {resp:?}", t.name);
        assert_eq!(resp.code, 400);
        send(&mut s, &Request::matvec(7, ServeModel::demo_input(K, 0)));
        let resp = recv(&mut s);
        assert!(resp.is_ok(), "{}: {resp:?}", t.name);
        assert_eq!(resp.id, 7);
        assert_eq!(resp.output.map(|y| y.len()), Some(128), "{}", t.name);
    }
}

#[test]
fn a_frame_trickled_past_the_assembly_budget_is_cut_and_counted() {
    let budget = Duration::from_millis(300);
    let door = Door {
        frame_assembly_timeout: budget,
        ..Door::default()
    };
    for t in pairs(door) {
        let before = t.metrics().protocol_errors;
        let mut s = t.connect();
        let mut frame = 1_000u32.to_be_bytes().to_vec();
        frame.extend([b' '; 1_000]);
        // One byte per 50 ms read wait: the frame keeps progressing, so
        // only the assembly budget can cut it.
        let started = Instant::now();
        let cut = frame.iter().any(|&byte| {
            s.write_all(&[byte]).is_err()
                || closes_within(&mut s, Duration::from_millis(50))
                || started.elapsed() > LIMIT
        });
        let elapsed = started.elapsed();
        assert!(cut && elapsed <= LIMIT, "{}: not cut", t.name);
        assert!(elapsed >= budget, "{}: cut after {elapsed:?}", t.name);
        assert!(t.protocol_errors_reach(before + 1), "{}", t.name);
        assert!(t.serves(), "{}: stopped serving", t.name);
    }
}

#[test]
fn pipelined_requests_come_back_in_order() {
    for t in pairs(Door::default()) {
        let mut s = t.connect();
        let input = |i| ServeModel::demo_input(K, i);
        let reqs = [
            Request::matvec(1, input(0)),
            Request::new(Op::Health, 2),
            Request::matvec(3, input(1)),
            Request::new(Op::Health, 4),
            Request::forward_batch(5, vec![input(2), input(3)]),
            Request::new(Op::Metrics, 6),
        ];
        let mut bytes = Vec::new();
        for req in &reqs {
            write_frame(&mut bytes, &encode_message(req).expect("encodes")).expect("frames");
        }
        s.write_all(&bytes).expect("writes");
        for req in &reqs {
            let resp = recv(&mut s);
            assert_eq!(resp.id, req.id, "{}: out of order", t.name);
            assert!(resp.is_ok(), "{}: {resp:?}", t.name);
        }
    }
}

#[test]
fn reactor_connection_past_the_cap_gets_a_503_with_a_retry_hint() {
    let door = Door {
        max_connections: 2,
        ..Door::default()
    };
    for t in reactor_pairs(door) {
        let mut held: Vec<TcpStream> = (0..2)
            .map(|id| {
                let mut s = t.connect();
                send(&mut s, &Request::new(Op::Health, id));
                assert!(recv(&mut s).is_ok(), "{}", t.name);
                s
            })
            .collect();
        let dropped = t.metrics().connections_dropped;

        let mut third = t.connect();
        let resp = recv(&mut third);
        assert_eq!(resp.status, Status::Overloaded, "{}: {resp:?}", t.name);
        assert_eq!(resp.code, 503);
        assert_eq!(resp.error.as_deref(), Some("connection limit reached"));
        assert!(resp.retry_after_ms.is_some(), "{}: no retry hint", t.name);
        assert!(closes_within(&mut third, LIMIT), "{}: still open", t.name);
        assert_eq!(t.metrics().connections_dropped, dropped + 1, "{}", t.name);

        send(&mut held[0], &Request::new(Op::Health, 3));
        assert!(recv(&mut held[0]).is_ok(), "{}: a held client", t.name);
    }
}

#[test]
fn reactor_closes_a_connection_idle_past_the_idle_timeout() {
    let idle = Duration::from_millis(300);
    let door = Door {
        idle_timeout: idle,
        ..Door::default()
    };
    for t in reactor_pairs(door) {
        let mut s = t.connect();
        send(&mut s, &Request::new(Op::Health, 1));
        assert!(recv(&mut s).is_ok(), "{}", t.name);
        let quiet = Instant::now();
        assert!(closes_within(&mut s, LIMIT), "{}: still open", t.name);
        let after = quiet.elapsed();
        assert!(
            after >= idle - Duration::from_millis(20),
            "{}: {after:?}",
            t.name
        );
        assert!(t.serves(), "{}: stopped serving", t.name);
    }
}
