//! A fresh client connection to a router is accepted as soon as it is
//! queued: the blocking transport's acceptor parks on listener
//! readiness instead of sleeping between `accept` polls.

use std::time::{Duration, Instant};

use afpr_cluster::{ClusterConfig, Placement, Router};
use afpr_core::AfprAccelerator;
use afpr_nn::tensor::Tensor;
use afpr_serve::{Client, ServeModel, Server, ServerConfig, Transport};
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
