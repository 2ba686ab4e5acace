//! Sharded admission on both router transports: a batch with one
//! malformed input is rejected whole before any shard computes, as a
//! single backend rejects it, and input is validated before placement,
//! so both transports give the same answer when no member is left.

use afpr_cluster::{ClusterConfig, Placement, Router};
use afpr_serve::{Client, Request, Response, ServeModel, Server, ServerConfig, Status, Transport};

const K: usize = 256;

/// Every router transport this host can run.
fn transports() -> Vec<Transport> {
    let mut transports = vec![Transport::Blocking];
    if afpr_reactor::reactor_supported() {
        transports.push(Transport::Reactor);
    }
    transports
}

fn start_backends(n: usize, seed: u64) -> Vec<Server> {
    (0..n)
        .map(|_| {
            Server::start(ServerConfig::default(), ServeModel::demo(seed)).expect("backend starts")
        })
        .collect()
}

fn start_router(backends: &[Server], transport: Transport) -> Router {
    let addrs: Vec<String> = backends
        .iter()
        .map(|b| b.local_addr().to_string())
        .collect();
    let mut cfg = ClusterConfig::new("127.0.0.1:0", &addrs, Placement::Sharded);
    cfg.transport = transport;
    Router::start(cfg).expect("router starts")
}

fn call(client: &mut Client, req: &Request) -> Response {
    client.call(req).expect("the router answers")
}

/// `matvec_partial` requests a backend has served.
fn partials_served(backend: &Server) -> u64 {
    backend
        .metrics()
        .per_op
        .iter()
        .filter(|o| o.op == "matvec_partial")
        .map(|o| o.requests)
        .sum()
}

#[test]
fn sharded_forward_batch_rejects_a_bad_input_before_any_shard_computes() {
    for transport in transports() {
        let backends = start_backends(3, 71);
        let router = start_router(&backends, transport);
        let before = router.cluster_snapshot();
        let mut client = Client::connect(router.local_addr()).expect("connects");

        let batch = vec![
            ServeModel::demo_input(K, 0),
            ServeModel::demo_input(K, 1),
            vec![0.5; K - 3],
        ];
        let resp = call(&mut client, &Request::forward_batch(1, batch));
        assert_eq!(resp.status, Status::Malformed, "{transport:?}: {resp:?}");
        assert_eq!(resp.code, 400);
        assert_eq!(
            resp.error.as_deref(),
            Some("input 2 has length 253, served layer expects 256"),
            "{transport:?}"
        );

        let after = router.shutdown();
        assert_eq!(
            after.total_dispatched(),
            before.total_dispatched(),
            "{transport:?}: no shard dispatch for a rejected batch"
        );
        let credits =
            |snap: &afpr_cluster::ClusterSnapshot| snap.power.as_ref().map(|p| p.requests);
        assert_eq!(
            credits(&after),
            credits(&before),
            "{transport:?}: no energy credit for a rejected batch"
        );
        for b in backends {
            assert_eq!(partials_served(&b), 0, "{transport:?}");
            let _ = b.shutdown();
        }
    }
}

#[test]
fn without_members_input_is_validated_before_planning() {
    for transport in transports() {
        let backends = start_backends(2, 72);
        let router = start_router(&backends, transport);
        let mut client = Client::connect(router.local_addr()).expect("connects");
        for (id, b) in (10..).zip(&backends) {
            let resp = call(
                &mut client,
                &Request::deregister(id, b.local_addr().to_string()),
            );
            assert!(resp.is_ok(), "{transport:?}: deregister {resp:?}");
        }
        assert!(router.shard_plan().is_none(), "no member left to plan over");

        let short = call(&mut client, &Request::matvec(20, vec![0.5; K - 3]));
        assert_eq!(short.status, Status::Malformed, "{transport:?}: {short:?}");
        assert_eq!(
            short.error.as_deref(),
            Some("input has length 253, served layer expects 256")
        );

        let full = call(
            &mut client,
            &Request::matvec(21, ServeModel::demo_input(K, 0)),
        );
        assert_eq!(full.status, Status::Overloaded, "{transport:?}: {full:?}");
        assert_eq!(
            full.error.as_deref(),
            Some("no eligible backend for sharded placement; retry shortly")
        );
        assert!(full.retry_after_ms.is_some(), "a 503 carries a retry hint");

        let _ = router.shutdown();
        for b in backends {
            let _ = b.shutdown();
        }
    }
}
