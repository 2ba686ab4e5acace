//! Elastic-membership integration tests: backends join and leave a
//! *running* router over the wire (`register`/`deregister`), a killed
//! backend's replacement rejoins without a router restart, the join
//! handshake refuses a backend restarted with different weights, and a
//! 3-shard × 2-replica cluster survives killing one replica of every
//! shard mid-load with **zero** failed responses — every answer
//! bit-identical to a single node.

use std::collections::HashSet;
use std::sync::Arc;
use std::time::{Duration, Instant};

use afpr_cluster::{ClusterConfig, Placement, Router};
use afpr_models::{ModelRegistry, RegistryConfig};
use afpr_serve::{Client, ClientError, ServeModel, Server, ServerConfig, Status};

const K: usize = 256;

/// One demo backend whose registry is seeded with the model seed, so
/// the pool fingerprint pins the weights a backend claims to hold.
fn start_backend(seed: u64) -> Server {
    let registry = Arc::new(ModelRegistry::new(RegistryConfig::new(4, seed)));
    Server::start(
        ServerConfig::default(),
        ServeModel::demo(seed).with_registry(registry),
    )
    .expect("backend starts")
}

fn start_backends(n: usize, seed: u64) -> Vec<Server> {
    (0..n).map(|_| start_backend(seed)).collect()
}

fn start_router(backends: &[Server], placement: Placement, replicas: usize) -> Router {
    let addrs: Vec<String> = backends
        .iter()
        .map(|b| b.local_addr().to_string())
        .collect();
    let mut cfg = ClusterConfig::new("127.0.0.1:0", &addrs, placement);
    cfg.probe_interval = Duration::from_millis(50);
    cfg.replicas = replicas;
    Router::start(cfg).expect("router starts")
}

fn connect(router: &Router) -> Client {
    let client = Client::connect(router.local_addr()).expect("connects");
    client
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("timeout");
    client
}

fn assert_bits_eq(a: &[f32], b: &[f32], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: length mismatch");
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert_eq!(
            x.to_bits(),
            y.to_bits(),
            "{what}: bit mismatch at index {i}: {x} vs {y}"
        );
    }
}

/// Polls until the router's placement epoch passes `after`, so tests
/// observe the post-churn plan instead of racing the rebalance.
fn wait_epoch_past(router: &Router, after: u64) {
    let t0 = Instant::now();
    while router.placement_epoch() <= after {
        assert!(
            t0.elapsed() < Duration::from_secs(10),
            "no rebalance within 10s (epoch stuck at {})",
            router.placement_epoch()
        );
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// Polls until the router has ejected at least `n` backends. A dead
/// replica that no request is routed to is ejected only by the prober,
/// so tests wait for it instead of racing the probe period.
fn wait_ejections(router: &Router, n: u64) {
    let t0 = Instant::now();
    let ejections = || {
        router
            .cluster_snapshot()
            .membership
            .map_or(0, |m| m.ejections)
    };
    while ejections() < n && t0.elapsed() < Duration::from_secs(10) {
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// A backend registers into a running replicated router, serves, then
/// deregisters — each transition observable in the membership counters
/// and the plan epoch; deregistering an unknown address is a `404`.
#[test]
fn backend_joins_and_leaves_a_running_router() {
    const SEED: u64 = 31;
    let backends = start_backends(1, SEED);
    let router = start_router(&backends, Placement::Replicated, 1);
    let (mut reference, handle) = ServeModel::demo(SEED).into_parts();
    let mut client = connect(&router);

    let out = client.matvec(ServeModel::demo_input(K, 0)).expect("serves");
    assert_bits_eq(
        &out,
        &reference.matvec(handle, &ServeModel::demo_input(K, 0)),
        "pre-join",
    );

    // Join: a second identical backend enters over the wire. The
    // admission is synchronous — the `ok` means the slot exists.
    let joiner = start_backend(SEED);
    client
        .register_backend(&joiner.local_addr().to_string())
        .expect("join admitted");
    let snap = router.cluster_snapshot();
    assert_eq!(snap.backends.len(), 2, "pool grew");
    assert_eq!(snap.membership.as_ref().expect("events").joins, 1);

    // Registering the same address again is idempotent, not a new slot.
    client
        .register_backend(&joiner.local_addr().to_string())
        .expect("re-register is idempotent");
    assert_eq!(router.cluster_snapshot().backends.len(), 2);

    // The grown pool still answers bit-identically.
    for i in 1..6 {
        let out = client.matvec(ServeModel::demo_input(K, i)).expect("serves");
        assert_bits_eq(
            &out,
            &reference.matvec(handle, &ServeModel::demo_input(K, i)),
            &format!("post-join request {i}"),
        );
    }

    // Leave: the joiner is tombstoned; the survivor keeps serving.
    client
        .deregister_backend(&joiner.local_addr().to_string())
        .expect("leave acknowledged");
    let out = client.matvec(ServeModel::demo_input(K, 6)).expect("serves");
    assert_bits_eq(
        &out,
        &reference.matvec(handle, &ServeModel::demo_input(K, 6)),
        "post-leave",
    );

    // Unknown addresses are a structured `404`, never a silent no-op.
    match client.deregister_backend("127.0.0.1:1") {
        Err(ClientError::Rejected(resp)) => {
            assert_eq!(resp.status, Status::NotFound);
            assert_eq!(resp.code, 404);
        }
        other => panic!("expected 404 for unknown backend, got {other:?}"),
    }

    let snap = router.shutdown();
    let events = snap.membership.expect("membership counters");
    assert_eq!(events.joins, 1, "idempotent re-register is not a join");
    assert_eq!(events.leaves, 1);
    let _ = joiner.shutdown();
    for b in backends {
        let _ = b.shutdown();
    }
}

/// A killed shard backend's *replacement* rejoins the running router
/// via `register` — no router restart — and the re-planned cluster is
/// again bit-identical to a single node.
#[test]
fn killed_backend_rejoins_via_register_without_router_restart() {
    const SEED: u64 = 47;
    let mut backends = start_backends(2, SEED);
    let router = start_router(&backends, Placement::Sharded, 1);
    let (mut reference, handle) = ServeModel::demo(SEED).into_parts();
    let mut client = connect(&router);

    assert_eq!(router.shard_plan().expect("plan").shards.len(), 2);
    let out = client.matvec(ServeModel::demo_input(K, 0)).expect("serves");
    assert_bits_eq(
        &out,
        &reference.matvec(handle, &ServeModel::demo_input(K, 0)),
        "pre-kill",
    );

    // Kill shard 1's only replica; wait for the ejection-driven
    // rebalance to heal onto the survivor (a 503 window is allowed).
    let victim = backends.remove(1);
    let _ = victim.shutdown();
    let t0 = Instant::now();
    let input = ServeModel::demo_input(K, 1);
    let healed = loop {
        assert!(t0.elapsed() < Duration::from_secs(10), "never healed");
        match client.matvec_with_deadline(input.clone(), 5_000) {
            Ok(out) => break out,
            Err(ClientError::Rejected(resp)) => {
                assert_eq!(resp.code, 503, "outage window is structured: {resp:?}");
                std::thread::sleep(Duration::from_millis(20));
            }
            Err(other) => panic!("expected success or structured 503, got {other}"),
        }
    };
    assert_bits_eq(&healed, &reference.matvec(handle, &input), "healed");
    assert_eq!(router.shard_plan().expect("plan").shards.len(), 1);

    // The operator restarts the lost capacity (same model, new port)
    // and rejoins it over the wire.
    let replacement = start_backend(SEED);
    let epoch = router.placement_epoch();
    client
        .register_backend(&replacement.local_addr().to_string())
        .expect("replacement admitted");
    wait_epoch_past(&router, epoch);
    let plan = router.shard_plan().expect("rejoined plan");
    assert_eq!(plan.shards.len(), 2, "capacity restored: two shards again");
    assert_eq!(plan.shards.last().unwrap().row_end(), K);

    for i in 2..7 {
        let out = client.matvec(ServeModel::demo_input(K, i)).expect("serves");
        assert_bits_eq(
            &out,
            &reference.matvec(handle, &ServeModel::demo_input(K, i)),
            &format!("post-rejoin request {i}"),
        );
    }

    let snap = router.shutdown();
    let events = snap.membership.expect("membership counters");
    assert!(events.ejections >= 1, "kill was observed");
    assert_eq!(events.joins, 1, "replacement joined over the wire");
    assert!(events.rebalances >= 2, "heal + rejoin each re-planned");
    let _ = replacement.shutdown();
    for b in backends {
        let _ = b.shutdown();
    }
}

/// Regression for the revival hole: a backend "restarted" with
/// different weights (a different registry seed) must be **refused**
/// by the join handshake — and the refusal is counted — instead of
/// being silently admitted into a pool it would corrupt.
#[test]
fn join_refuses_backend_with_mismatched_registry_seed() {
    const SEED: u64 = 61;
    let backends = start_backends(2, SEED);
    let router = start_router(&backends, Placement::Replicated, 1);
    let (mut reference, handle) = ServeModel::demo(SEED).into_parts();
    let mut client = connect(&router);

    // An impostor with the same dims but different weights: identical
    // shapes, different registry seed ⇒ fingerprint mismatch.
    let impostor = start_backend(SEED + 1);
    match client.register_backend(&impostor.local_addr().to_string()) {
        Err(ClientError::Rejected(resp)) => {
            assert_eq!(resp.status, Status::Malformed);
            assert_eq!(resp.code, 400);
            let why = resp.error.expect("refusal explains itself");
            assert!(
                why.contains("refused"),
                "refusal names the handshake: {why}"
            );
        }
        other => panic!("expected 400 refusal, got {other:?}"),
    }

    // The impostor never entered the pool and never served a request.
    let snap = router.cluster_snapshot();
    assert_eq!(snap.backends.len(), 2, "pool unchanged");
    assert_eq!(snap.membership.as_ref().expect("events").joins, 0);
    assert!(snap.membership.as_ref().expect("events").refusals >= 1);
    let impostor_addr = impostor.local_addr().to_string();
    assert!(
        snap.backends.iter().all(|b| b.addr != impostor_addr),
        "impostor is not in the pool"
    );

    // And the pool still serves the *original* model's bits.
    for i in 0..4 {
        let out = client.matvec(ServeModel::demo_input(K, i)).expect("serves");
        assert_bits_eq(
            &out,
            &reference.matvec(handle, &ServeModel::demo_input(K, i)),
            &format!("request {i}"),
        );
    }

    let _ = router.shutdown();
    let _ = impostor.shutdown();
    for b in backends {
        let _ = b.shutdown();
    }
}

/// A registry-less pool pins the *absence* of weight provenance: a
/// registry-backed joiner — whose weights come from a seed the pool
/// never agreed on — is refused, while a registry-less joiner with the
/// same shape is admitted.
#[test]
fn registry_less_pool_refuses_registry_backed_joiner() {
    const SEED: u64 = 67;
    let backends: Vec<Server> = (0..2)
        .map(|_| {
            Server::start(ServerConfig::default(), ServeModel::demo(SEED)).expect("backend starts")
        })
        .collect();
    let router = start_router(&backends, Placement::Replicated, 1);
    let mut client = connect(&router);

    // Same dims, but claims seeded registry weights the pool cannot
    // verify ⇒ refused at the handshake.
    let seeded = start_backend(SEED);
    match client.register_backend(&seeded.local_addr().to_string()) {
        Err(ClientError::Rejected(resp)) => {
            assert_eq!(resp.status, Status::Malformed);
            assert_eq!(resp.code, 400);
            let why = resp.error.expect("refusal explains itself");
            assert!(why.contains("registry-less"), "names the pin: {why}");
        }
        other => panic!("expected 400 refusal, got {other:?}"),
    }
    let snap = router.cluster_snapshot();
    assert_eq!(snap.backends.len(), 2, "pool unchanged");
    assert!(snap.membership.as_ref().expect("events").refusals >= 1);

    // A registry-less joiner with the same weights is still welcome.
    let plain =
        Server::start(ServerConfig::default(), ServeModel::demo(SEED)).expect("joiner starts");
    client
        .register_backend(&plain.local_addr().to_string())
        .expect("registry-less joiner admitted");
    assert_eq!(router.cluster_snapshot().backends.len(), 3);

    let _ = router.shutdown();
    let _ = seeded.shutdown();
    let _ = plain.shutdown();
    for b in backends {
        let _ = b.shutdown();
    }
}

/// The headline resilience claim: 3 shards × 2 replicas, kill one
/// replica of **every** shard mid-load — zero failed responses, every
/// answer bit-identical to a single node, and the ejections and the
/// healing rebalance show up in the snapshot.
#[test]
fn three_by_two_survives_killing_one_replica_per_shard() {
    const SEED: u64 = 73;
    let mut backends = start_backends(6, SEED);
    let router = start_router(&backends, Placement::Sharded, 2);
    let (mut reference, handle) = ServeModel::demo(SEED).into_parts();
    let mut client = connect(&router);

    let plan = router.shard_plan().expect("plan");
    assert_eq!(plan.shards.len(), 3, "3 shards");
    for shard in &plan.shards {
        assert_eq!(shard.replicas.len(), 2, "2 replicas per shard");
    }

    // One victim per shard, resolved slot → address via the snapshot.
    let snap = router.cluster_snapshot();
    let victims: HashSet<String> = plan
        .shards
        .iter()
        .map(|s| snap.backends[s.replicas[0]].addr.clone())
        .collect();
    assert_eq!(victims.len(), 3, "victims span distinct backends");

    for i in 0..30 {
        if i == 10 {
            let mut survivors = Vec::new();
            for b in backends.drain(..) {
                if victims.contains(&b.local_addr().to_string()) {
                    let _ = b.shutdown();
                } else {
                    survivors.push(b);
                }
            }
            backends = survivors;
        }
        let input = ServeModel::demo_input(K, i);
        let out = client
            .matvec(input.clone())
            .unwrap_or_else(|e| panic!("request {i} failed under churn: {e}"));
        assert_bits_eq(
            &out,
            &reference.matvec(handle, &input),
            &format!("request {i}"),
        );
    }

    wait_ejections(&router, 3);
    let snap = router.shutdown();
    let requests: u64 = snap.router.per_op.iter().map(|o| o.requests).sum();
    let ok: u64 = snap.router.per_op.iter().map(|o| o.ok).sum();
    assert_eq!(requests, 30);
    assert_eq!(ok, requests, "zero failed responses with R=2");
    let events = snap.membership.expect("membership counters");
    assert!(events.ejections >= 3, "every victim was ejected");
    assert!(events.rebalances >= 1, "ejections re-planned the shards");
    for b in backends {
        let _ = b.shutdown();
    }
}

/// Membership churn injected *mid-load* — a spare backend repeatedly
/// joining and leaving while requests stream — never tears a scatter
/// round: with R=2 every response succeeds and stays bit-identical,
/// and the plan epoch advances with the churn.
#[test]
fn churn_under_load_stays_bit_identical() {
    const SEED: u64 = 89;
    let backends = start_backends(4, SEED);
    let router = start_router(&backends, Placement::Sharded, 2);
    let (mut reference, handle) = ServeModel::demo(SEED).into_parts();
    let mut client = connect(&router);
    let epoch_before = router.placement_epoch();

    let spare = start_backend(SEED);
    let spare_addr = spare.local_addr().to_string();
    let router_addr = router.local_addr();
    let churn = std::thread::spawn(move || {
        let mut admin = Client::connect(router_addr).expect("admin connects");
        for _ in 0..5 {
            admin.register_backend(&spare_addr).expect("join");
            std::thread::sleep(Duration::from_millis(15));
            admin.deregister_backend(&spare_addr).expect("leave");
            std::thread::sleep(Duration::from_millis(15));
        }
    });

    for i in 0..40 {
        let input = ServeModel::demo_input(K, i);
        let out = client
            .matvec(input.clone())
            .unwrap_or_else(|e| panic!("request {i} failed under churn: {e}"));
        assert_bits_eq(
            &out,
            &reference.matvec(handle, &input),
            &format!("request {i}"),
        );
    }
    churn.join().expect("churn thread");

    assert!(
        router.placement_epoch() > epoch_before,
        "churn swapped plans"
    );
    let snap = router.shutdown();
    let requests: u64 = snap.router.per_op.iter().map(|o| o.requests).sum();
    let ok: u64 = snap.router.per_op.iter().map(|o| o.ok).sum();
    assert_eq!(ok, requests, "no request lost to a plan swap");
    let events = snap.membership.expect("membership counters");
    assert_eq!(events.joins, 5);
    assert_eq!(events.leaves, 5);
    let _ = spare.shutdown();
    for b in backends {
        let _ = b.shutdown();
    }
}
