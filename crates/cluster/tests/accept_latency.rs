//! No router thread waits out a timer: a fresh client connection is
//! accepted as soon as it is queued (the blocking transport's acceptor
//! parks on listener readiness instead of sleeping between `accept`
//! polls), and a drain stops the health prober at once (it parks
//! between passes and the drain unparks it).

use std::time::{Duration, Instant};

use afpr_cluster::{ClusterConfig, Placement, Router};
use afpr_core::AfprAccelerator;
use afpr_nn::tensor::Tensor;
use afpr_serve::{Client, Op, ServeModel, Server, ServerConfig, Transport};
use afpr_xbar::spec::{MacroMode, MacroSpec};

fn light_backend() -> Server {
    let mut accel = AfprAccelerator::with_spec(MacroSpec::small(64, 32, MacroMode::FpE2M5), 3);
    let handle = accel.map_matrix(&Tensor::from_fn(&[64, 32], |i| {
        ((i[0] * 32 + i[1]) % 9) as f32 / 9.0 - 0.4
    }));
    let cfg = ServerConfig {
        transport: Transport::Blocking,
        ..ServerConfig::default()
    };
    Server::start(cfg, ServeModel::new(accel, handle)).expect("backend starts")
}

#[test]
fn fresh_connection_health_is_not_held_by_an_accept_poll() {
    let backends = [light_backend(), light_backend()];
    let addrs: Vec<String> = backends
        .iter()
        .map(|b| b.local_addr().to_string())
        .collect();
    let mut cfg = ClusterConfig::new("127.0.0.1:0", &addrs, Placement::Replicated);
    cfg.transport = Transport::Blocking;
    let router = Router::start(cfg).expect("router starts");

    let mut times: Vec<Duration> = (0..21)
        .map(|_| {
            let t0 = Instant::now();
            let mut client = Client::connect(router.local_addr()).expect("connects");
            client.health().expect("health");
            t0.elapsed()
        })
        .collect();
    times.sort();
    let median = times[times.len() / 2];

    let drained = Instant::now();
    let _ = router.shutdown();
    for b in backends {
        let _ = b.shutdown();
    }
    assert!(
        median < Duration::from_micros(600),
        "median fresh connect + health took {median:?}"
    );
    assert!(
        drained.elapsed() < Duration::from_secs(1),
        "idle acceptors must stop at the drain"
    );
}

/// `health` requests each backend has answered.
fn health_counts(backends: &[Server]) -> Vec<u64> {
    backends
        .iter()
        .map(|b| b.metrics().op(Op::Health).map_or(0, |s| s.requests))
        .collect()
}

/// Median of 20 `Router::shutdown` calls, each on a fresh router over
/// the same two backends. Each router is drained after its prober has
/// probed both backends (the startup probe's `health` plus the
/// prober's) and the router has then answered a client's `health`, so
/// the prober is waiting between passes.
fn median_router_shutdown(backends: &[Server], transport: Transport) -> Duration {
    let addrs: Vec<String> = backends
        .iter()
        .map(|b| b.local_addr().to_string())
        .collect();
    let mut times: Vec<Duration> = (0..20)
        .map(|_| {
            let before = health_counts(backends);
            let mut cfg = ClusterConfig::new("127.0.0.1:0", &addrs, Placement::Replicated);
            cfg.transport = transport;
            let router = Router::start(cfg).expect("router starts");
            while health_counts(backends)
                .iter()
                .zip(&before)
                .any(|(now, was)| now - was < 2)
            {
                std::thread::yield_now();
            }
            Client::connect(router.local_addr())
                .expect("connects")
                .health()
                .expect("health");
            let t0 = Instant::now();
            let _ = router.shutdown();
            t0.elapsed()
        })
        .collect();
    times.sort();
    times[times.len() / 2]
}

#[test]
fn router_shutdown_does_not_wait_for_the_prober() {
    let backends = [light_backend(), light_backend()];
    let blocking = median_router_shutdown(&backends, Transport::Blocking);
    let reactor = median_router_shutdown(&backends, Transport::Reactor);
    for b in backends {
        let _ = b.shutdown();
    }
    for (transport, median) in [("blocking", blocking), ("reactor", reactor)] {
        assert!(
            median < Duration::from_millis(3),
            "median {transport} Router::shutdown took {median:?}"
        );
    }
}
