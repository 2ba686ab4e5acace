//! Loopback integration tests for the cluster tier: sharded placement
//! is bit-identical to a single node, replicated placement survives a
//! replica dying mid-load with zero failed responses, and a dead shard
//! yields a structured `503` within the caller's deadline instead of a
//! hang.

use std::sync::Arc;
use std::time::{Duration, Instant};

use afpr_cluster::{ClusterConfig, Placement, Router};
use afpr_models::{ModelRegistry, RegistryConfig};
use afpr_serve::{
    Client, ClientError, HealthState, RetryPolicy, RetryingClient, ServeModel, Server,
    ServerConfig, Status,
};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

#[path = "../../serve/tests/common/json_frames.rs"]
mod json_frames;

const K: usize = 256;
const N: usize = 128;

/// Starts `n` identical demo backends (same seed ⇒ same model, same
/// per-macro RNG streams).
fn start_backends(n: usize, seed: u64) -> Vec<Server> {
    (0..n)
        .map(|_| {
            Server::start(ServerConfig::default(), ServeModel::demo(seed)).expect("backend starts")
        })
        .collect()
}

fn start_router(backends: &[Server], placement: Placement) -> Router {
    let addrs: Vec<String> = backends
        .iter()
        .map(|b| b.local_addr().to_string())
        .collect();
    let mut cfg = ClusterConfig::new("127.0.0.1:0", &addrs, placement);
    cfg.probe_interval = Duration::from_millis(50);
    Router::start(cfg).expect("router starts")
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

/// A 3-shard cluster serves matvec and forward_batch **bit-identically**
/// to driving one accelerator directly with the same seed and sample
/// order — the scatter-gather seam is invisible to the numerics.
#[test]
fn sharded_cluster_bit_identical_to_single_node() {
    const SEED: u64 = 101;
    let backends = start_backends(3, SEED);
    let router = start_router(&backends, Placement::Sharded);
    let (mut reference, handle) = ServeModel::demo(SEED).into_parts();

    let mut client = Client::connect(router.local_addr()).expect("connects");

    // The router answers `health` with the cluster-synthesized view:
    // same dims and tile height as any single backend.
    let health = client.health().expect("health");
    assert_eq!(health.input_dim, K as u64);
    assert_eq!(health.output_dim, N as u64);
    assert_eq!(health.row_tile_rows, 64);
    assert_eq!(health.state, HealthState::Healthy);

    // Interleave single matvecs and a forward_batch, exactly like the
    // single-node round-trip test.
    let mut served: Vec<Vec<f32>> = Vec::new();
    for i in 0..5 {
        served.push(client.matvec(ServeModel::demo_input(K, i)).expect("matvec"));
    }
    let batch: Vec<Vec<f32>> = (5..9).map(|i| ServeModel::demo_input(K, i)).collect();
    served.extend(client.forward_batch(batch).expect("forward_batch"));

    for (i, s) in served.iter().enumerate() {
        let golden = reference.matvec(handle, &ServeModel::demo_input(K, i));
        assert_bits_eq(s, &golden, &format!("request {i}"));
    }

    // The shard plan covers the full input dimension in 3 contiguous
    // tile-aligned shards.
    let plan = router.shard_plan().expect("sharded router has a plan");
    assert_eq!(plan.k, K);
    assert_eq!(plan.shards.len(), 3);
    assert_eq!(plan.shards.last().unwrap().row_end(), K);

    let snap = router.shutdown();
    assert_eq!(snap.placement, "sharded");
    assert_eq!(snap.total_failed(), 0);
    // 6 requests × 3 shards each... forward_batch fans out per input:
    // (5 matvec + 4 batch inputs) × 3 shards = 27 dispatches.
    assert_eq!(snap.total_dispatched(), 27);
    // Each shard meters its own slice; the router ledger credits every
    // partial response it gathered.
    let power = snap.power.expect("cluster snapshot carries power");
    assert_eq!(power.requests, 27, "one credit per gathered shard");
    assert!(
        power.total_mj.is_finite() && power.total_mj > 0.0,
        "wire-credited energy is sane, got {} mJ",
        power.total_mj
    );
    for b in backends {
        let _ = b.shutdown();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Bit-identity holds for *any* shard count the plan admits (the
    /// demo layer has 4 row tiles ⇒ 1–4 shards) and arbitrary inputs:
    /// the sharded reduction is the same left fold as the single-node
    /// tile loop, so the bits can never drift.
    #[test]
    fn sharded_bit_identity_over_random_inputs_and_shard_counts(
        input_seed in 0u64..1_000_000,
        shards in 1usize..=4,
    ) {
        const SEED: u64 = 202;
        let backends = start_backends(shards, SEED);
        let router = start_router(&backends, Placement::Sharded);
        let (mut reference, handle) = ServeModel::demo(SEED).into_parts();

        let mut client = Client::connect(router.local_addr())
            .map_err(|e| TestCaseError::fail(format!("connect: {e}")))?;

        for round in 0..2u64 {
            let s = input_seed.wrapping_mul(31).wrapping_add(round);
            let input: Vec<f32> = (0..K)
                .map(|j| ((j as f32) * 0.371 + (s % 4096) as f32 * 0.013).sin() * 1.5)
                .collect();
            let served = client
                .matvec(input.clone())
                .map_err(|e| TestCaseError::fail(format!("matvec: {e}")))?;
            let golden = reference.matvec(handle, &input);
            prop_assert_eq!(served.len(), golden.len());
            for (a, b) in served.iter().zip(&golden) {
                prop_assert_eq!(a.to_bits(), b.to_bits(), "shards={}", shards);
            }
        }

        let snap = router.shutdown();
        prop_assert_eq!(snap.total_failed(), 0);
        for b in backends {
            let _ = b.shutdown();
        }
    }
}

/// Hand-written JSON clients are served unchanged through a replicated
/// router: it decodes their JSON, calls a backend in binary and answers
/// in JSON, with the same bits a binary client gets from a twin
/// cluster. A sequential client always lands on the least-loaded,
/// lowest slot, so both clusters' backends see the same history.
#[test]
fn json_text_frames_through_router_match_binary_bit_for_bit() {
    const SEED: u64 = 67;
    let cluster = || {
        let backends: Vec<Server> = (0..2)
            .map(|_| {
                let registry = Arc::new(ModelRegistry::new(RegistryConfig::new(2, SEED)));
                let model = ServeModel::demo(SEED).with_registry(registry);
                Server::start(ServerConfig::default(), model).expect("backend starts")
            })
            .collect();
        let router = start_router(&backends, Placement::Replicated);
        (backends, router)
    };
    let (json_backends, json_router) = cluster();
    let (binary_backends, binary_router) = cluster();
    json_frames::assert_match_binary(json_router.local_addr(), binary_router.local_addr());
    for router in [json_router, binary_router] {
        let snap = router.shutdown();
        let ok: u64 = snap.router.per_op.iter().map(|o| o.ok).sum();
        assert_eq!(ok, 4, "every data-plane op served");
    }
    for b in json_backends.into_iter().chain(binary_backends) {
        let _ = b.shutdown();
    }
}

/// Killing 1 of 3 replicas mid-load costs latency, not correctness: a
/// `RetryingClient` sees **zero** failed responses across the whole
/// run, and the router's snapshot records the ejection.
#[test]
fn replicated_failover_survives_replica_death_mid_load() {
    const SEED: u64 = 7;
    let mut backends = start_backends(3, SEED);
    let router = start_router(&backends, Placement::Replicated);

    let mut client = RetryingClient::new(
        router.local_addr().to_string(),
        RetryPolicy {
            max_retries: 8,
            base_backoff: Duration::from_millis(5),
            io_timeout: Some(Duration::from_secs(10)),
            ..RetryPolicy::default()
        },
    );

    let mut served = 0usize;
    for i in 0..30 {
        if i == 10 {
            // Kill the *most loaded* candidate abruptly: just take one.
            let victim = backends.remove(1);
            let _ = victim.shutdown();
        }
        let out = client
            .matvec(&ServeModel::demo_input(K, i))
            .unwrap_or_else(|e| panic!("request {i} failed after replica death: {e}"));
        assert_eq!(out.len(), N);
        served += 1;
    }
    assert_eq!(served, 30, "zero failed responses under failover");

    let snap = router.shutdown();
    assert_eq!(snap.placement, "replicated");
    let requests: u64 = snap.router.per_op.iter().map(|o| o.requests).sum();
    let ok: u64 = snap.router.per_op.iter().map(|o| o.ok).sum();
    assert_eq!(requests, 30);
    // Every request the router acknowledged succeeded.
    assert_eq!(ok, requests);
    // Energy crediting survives failover: every acknowledged response
    // carried `energy_mj` from whichever replica served it, and the
    // router ledger counted each exactly once.
    let power = snap.power.expect("cluster snapshot carries power");
    assert_eq!(power.requests, 30, "one credit per served request");
    assert!(
        power.total_mj.is_finite() && power.total_mj > 0.0,
        "credited energy is sane, got {} mJ",
        power.total_mj
    );
    for b in backends {
        let _ = b.shutdown();
    }
}

/// Killing a shard's only replica (R = 1) never hangs: the outage
/// window is a bounded run of structured `503`s, then the ejection-
/// driven rebalance re-plans the rows onto the survivor and the
/// cluster heals — still bit-identical to a single node.
#[test]
fn dead_shard_503s_then_rebalances_onto_survivor() {
    const SEED: u64 = 55;
    let mut backends = start_backends(2, SEED);
    let router = start_router(&backends, Placement::Sharded);

    let mut client = Client::connect(router.local_addr()).expect("connects");
    client
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("timeout");

    // Healthy first: the cluster serves from a two-shard plan.
    let out = client.matvec(ServeModel::demo_input(K, 0)).expect("serves");
    assert_eq!(out.len(), N);
    let epoch_before = router.placement_epoch();
    assert_eq!(router.shard_plan().expect("plan").shards.len(), 2);

    // Kill shard 1's only replica. Its rows are unservable until the
    // router re-plans around the survivor.
    let victim = backends.remove(1);
    let _ = victim.shutdown();

    let t0 = Instant::now();
    let input = ServeModel::demo_input(K, 1);
    let healed = loop {
        assert!(
            t0.elapsed() < Duration::from_secs(10),
            "router never healed after replica death"
        );
        let attempt = Instant::now();
        match client.matvec_with_deadline(input.clone(), 5_000) {
            Ok(out) => break out,
            Err(ClientError::Rejected(resp)) => {
                // The outage window is structured: a `503` with a
                // retry hint — never a hang or a torn frame.
                assert_eq!(resp.status, Status::Overloaded, "structured 503");
                assert_eq!(resp.code, 503);
                assert!(
                    resp.retry_after_ms.is_some(),
                    "503 carries a retry hint: {resp:?}"
                );
                assert!(
                    attempt.elapsed() < Duration::from_secs(5),
                    "503 answered within the deadline, not a hang"
                );
                std::thread::sleep(Duration::from_millis(20));
            }
            Err(other) => panic!("expected success or structured rejection, got {other}"),
        }
    };
    assert_eq!(healed.len(), N);

    // The ejection triggered a rebalance: a new plan generation whose
    // single shard the survivor serves alone — and the healed result
    // is still bit-identical to a single-node accelerator (the
    // survivor holds the full model).
    assert!(router.placement_epoch() > epoch_before, "plan swapped");
    let plan = router.shard_plan().expect("healed plan");
    assert_eq!(plan.shards.len(), 1, "one shard over the survivor");
    assert_eq!(plan.shards[0].row_end(), K);
    let (mut reference, handle) = ServeModel::demo(SEED).into_parts();
    assert_bits_eq(&healed, &reference.matvec(handle, &input), "healed result");

    // Health converges back to Healthy once every planned shard has a
    // live replica again.
    let health = client.health().expect("health still answers");
    assert_eq!(health.state, HealthState::Healthy, "healed state");

    let snap = router.shutdown();
    let events = snap.membership.expect("membership counters");
    // The death is observed by whichever path gets there first: a
    // failed dispatch, or the background prober ejecting the backend
    // before the next scatter reaches it.
    assert!(
        snap.total_failed() >= 1 || events.ejections >= 1,
        "the replica death was never observed"
    );
    assert!(events.ejections >= 1, "ejection recorded");
    assert!(events.rebalances >= 1, "rebalance recorded");
    for b in backends {
        let _ = b.shutdown();
    }
}

/// The router speaks the standard wire protocol end to end: `metrics`
/// returns a `ServeSnapshot`, and a client-sent `shutdown` drains the
/// router (backends keep running).
#[test]
fn router_metrics_and_wire_shutdown() {
    const SEED: u64 = 13;
    let backends = start_backends(2, SEED);
    let router = start_router(&backends, Placement::Replicated);

    let mut client = Client::connect(router.local_addr()).expect("connects");
    let _ = client.matvec(ServeModel::demo_input(K, 0)).expect("serves");
    let metrics = client.metrics().expect("metrics");
    assert_eq!(
        metrics.per_op.iter().map(|o| o.requests).sum::<u64>(),
        1,
        "router counts its own requests"
    );

    let _ = client.shutdown_server().expect("wire shutdown");
    router.wait_shutdown_requested();
    let snap = router.shutdown();
    assert_eq!(snap.placement, "replicated");

    // Backends are not owned by the router: still serving.
    for b in &backends {
        let mut direct = Client::connect(b.local_addr()).expect("backend still up");
        assert_eq!(direct.health().expect("health").input_dim, K as u64);
    }
    for b in backends {
        let _ = b.shutdown();
    }
}
