//! A fresh connection is accepted as soon as it is queued: the blocking
//! transport's acceptor parks on listener readiness instead of sleeping
//! between `accept` polls, so connect plus the first `health` costs
//! about as much as any later `health`.

use std::time::{Duration, Instant};

use afpr_core::AfprAccelerator;
use afpr_nn::tensor::Tensor;
use afpr_serve::{Client, ServeModel, Server, ServerConfig, Transport};
use afpr_xbar::spec::{MacroMode, MacroSpec};

/// Median of 21 fresh connect-plus-`health` round trips.
fn fresh_health_median(addr: std::net::SocketAddr) -> Duration {
    let mut times: Vec<Duration> = (0..21)
        .map(|_| {
            let t0 = Instant::now();
            let mut client = Client::connect(addr).expect("connects");
            client.health().expect("health");
            t0.elapsed()
        })
        .collect();
    times.sort();
    times[times.len() / 2]
}

#[test]
fn fresh_connection_health_is_not_held_by_an_accept_poll() {
    let mut accel = AfprAccelerator::with_spec(MacroSpec::small(64, 32, MacroMode::FpE2M5), 3);
    let handle = accel.map_matrix(&Tensor::from_fn(&[64, 32], |i| {
        ((i[0] * 32 + i[1]) % 9) as f32 / 9.0 - 0.4
    }));
    let cfg = ServerConfig {
        transport: Transport::Blocking,
        ..ServerConfig::default()
    };
    let server = Server::start(cfg, ServeModel::new(accel, handle)).expect("starts");
    let median = fresh_health_median(server.local_addr());
    let drained = Instant::now();
    let _ = server.shutdown();
    assert!(
        median < Duration::from_micros(600),
        "median fresh connect + health took {median:?}"
    );
    assert!(
        drained.elapsed() < Duration::from_secs(1),
        "an idle acceptor must stop at the drain"
    );
}
