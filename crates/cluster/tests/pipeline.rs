//! Loopback integration tests for pipeline placement: staged `infer`
//! is **bit-identical** to an in-process forward of the same compiled
//! model for every stage count × numeric format (proptest-pinned),
//! hostile requests get structured `404`/`400`s through the router,
//! and a dead stage yields a structured `503` instead of a hang.

use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use afpr_cluster::{ClusterConfig, Placement, Router};
use afpr_models::{format_wire_name, ModelKind, ModelRegistry, RegistryConfig, ALL_FORMATS};
use afpr_serve::{Client, ClientError, HealthState, ServeModel, Server, ServerConfig, Status};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

const SEED: u64 = 2024;

/// Starts `n` registry-backed demo backends. Same seed ⇒ every backend
/// compiles bit-identical models, the precondition pipeline placement
/// verifies at startup.
fn start_registry_backends(n: usize, seed: u64) -> Vec<Server> {
    (0..n)
        .map(|_| {
            let registry = Arc::new(ModelRegistry::new(RegistryConfig::new(9, seed)));
            let cfg = ServerConfig {
                // The proptest fixture fronts these backends with three
                // routers at once, and every router worker holds a
                // persistent connection — keep enough conn workers that
                // none of them starves.
                workers: 16,
                ..ServerConfig::default()
            };
            Server::start(cfg, ServeModel::demo(seed).with_registry(registry))
                .expect("backend starts")
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
    // Tests drive each router from a single client connection; two
    // workers per router keeps the fixture's persistent backend
    // connections well under the backends' conn-worker pools.
    cfg.workers = 2;
    Router::start(cfg).expect("router starts")
}

/// Shared fixture for the proptest: three registry-backed backends,
/// one pipeline router per stage count (1, 2 and 3), and a local
/// registry compiled from the same seed as the in-process golden.
/// Built once; each case opens a fresh client connection.
struct Fixture {
    routers: Vec<Router>,
    local: ModelRegistry,
    _backends: Vec<Server>,
}

fn fixture() -> &'static Fixture {
    static FIXTURE: OnceLock<Fixture> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let backends = start_registry_backends(3, SEED);
        let routers = (1..=3)
            .map(|stages| start_router(&backends[..stages], Placement::Pipeline))
            .collect();
        Fixture {
            routers,
            local: ModelRegistry::new(RegistryConfig::new(9, SEED)),
            _backends: backends,
        }
    })
}

fn assert_bits_eq(a: &[f32], b: &[f32], what: &str) -> Result<(), TestCaseError> {
    if a.len() != b.len() {
        return Err(TestCaseError::fail(format!("{what}: length mismatch")));
    }
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        if x.to_bits() != y.to_bits() {
            return Err(TestCaseError::fail(format!(
                "{what}: bit mismatch at index {i}: {x} vs {y}"
            )));
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The tentpole invariant: `infer` through a pipeline of 1, 2 or 3
    /// stages is bit-identical to an in-process forward of the same
    /// compiled model, for random inputs and every numeric format.
    /// Stage boundaries sit exactly where the single-node forward
    /// materializes activations, so the wire seam cannot perturb a
    /// single bit.
    fn pipelined_infer_bit_identical_to_in_process(
        input_seed in 0u64..1_000_000,
        stages in 1usize..=3,
    ) {
        let fx = fixture();
        let router = &fx.routers[stages - 1];
        let mut client = Client::connect(router.local_addr())
            .map_err(|e| TestCaseError::fail(format!("connect: {e}")))?;

        let input: Vec<f32> = (0..ModelKind::TinyMlp.input_len())
            .map(|j| ((j as f32) * 0.53 + (input_seed % 8192) as f32 * 0.017).sin() * 2.0)
            .collect();
        for mode in ALL_FORMATS {
            let format = format_wire_name(mode);
            let golden = fx
                .local
                .infer("tiny-mlp", format, &input)
                .map_err(|e| TestCaseError::fail(format!("local infer: {e}")))?;
            let served = client
                .infer("tiny-mlp", format, input.clone())
                .map_err(|e| TestCaseError::fail(format!("routed infer: {e}")))?;
            assert_bits_eq(&served, &golden, &format!("{stages} stages, {format}"))?;
        }
    }
}

/// The whole model zoo streams through a 2-stage pipeline
/// bit-identically — including the deeper residual and depthwise
/// networks whose stage boundary falls mid-backbone.
#[test]
fn every_zoo_model_pipelines_bit_identically() {
    let backends = start_registry_backends(2, SEED);
    let router = start_router(&backends, Placement::Pipeline);
    let local = ModelRegistry::new(RegistryConfig::new(9, SEED));
    let mut client = Client::connect(router.local_addr()).expect("connects");

    for kind in ModelKind::ALL {
        let input: Vec<f32> = (0..kind.input_len())
            .map(|j| ((j as f32) * 0.113).cos())
            .collect();
        let golden = local
            .infer(kind.wire_name(), "e3m4", &input)
            .expect("local infer");
        let served = client
            .infer(kind.wire_name(), "e3m4", input)
            .expect("routed infer");
        assert_eq!(served.len(), kind.classes());
        for (i, (s, g)) in served.iter().zip(&golden).enumerate() {
            assert_eq!(
                s.to_bits(),
                g.to_bits(),
                "{kind} class {i} differs through the pipeline"
            );
        }
    }

    // The router's cluster snapshot counts each model's inferences.
    let snap = router.cluster_snapshot();
    let infers = snap
        .model_infers
        .as_deref()
        .expect("pipeline router counts infers");
    assert_eq!(infers.len(), 3);
    assert!(infers.iter().all(|m| m.infers == 1), "{infers:?}");

    let _ = router.shutdown();
    for b in backends {
        let _ = b.shutdown();
    }
}

/// A staged `infer` answers as a single backend's `infer` does: with
/// the served format and the whole model's metered energy, which the
/// router credits once, under that format and model.
#[test]
fn staged_infer_answers_and_credits_single_node_energy() {
    let backends = start_registry_backends(2, SEED);
    let router = start_router(&backends, Placement::Pipeline);
    let mut client = Client::connect(router.local_addr()).expect("connects");
    let input: Vec<f32> = (0..ModelKind::TinyMlp.input_len())
        .map(|j| ((j as f32) * 0.37).sin())
        .collect();
    let tiny_mlp = |snap: &afpr_serve::ServeSnapshot| {
        let power = snap.power.clone().expect("the router keeps a power ledger");
        let credit = power.per_model.iter().find(|m| m.key == "tiny-mlp");
        let credit = credit.map_or((0, 0.0), |m| (m.requests, m.total_mj));
        (power.requests, credit)
    };

    for (id, mode) in (1..).zip(ALL_FORMATS) {
        let format = format_wire_name(mode);
        let req = afpr_serve::Request::infer(id, "tiny-mlp", format, input.clone());
        let single = start_registry_backends(1, SEED).remove(0);
        let reference = Client::connect(single.local_addr())
            .expect("connects")
            .call(&req)
            .expect("single-node answer");
        let _ = single.shutdown();
        let want = reference.energy_mj.expect("a single backend meters infer");
        assert!(want > 0.0, "{format}: {want}");

        let (requests, (model_requests, model_mj)) = tiny_mlp(&router.metrics());
        let staged = client.call(&req).expect("staged answer");
        assert!(staged.is_ok(), "{format}: {staged:?}");
        assert_eq!(staged.format.as_deref(), Some(format));
        let got = staged.energy_mj.expect("a staged infer carries its energy");
        assert!(
            (got - want).abs() <= 1e-9 * want,
            "{format}: staged {got} mJ vs single-node {want} mJ"
        );

        let (requests_after, (model_requests_after, model_mj_after)) = tiny_mlp(&router.metrics());
        assert_eq!(requests_after, requests + 1, "{format}: credited once");
        assert_eq!(model_requests_after, model_requests + 1, "{format}");
        assert!(
            (model_mj_after - model_mj - got).abs() <= 1e-9 * got,
            "{format}: tiny-mlp credit {model_mj} -> {model_mj_after}, answer {got}"
        );
    }

    let _ = router.shutdown();
    for b in backends {
        let _ = b.shutdown();
    }
}

/// Router-level validation: unknown model is `404` (non-retryable),
/// unknown format and wrong dims are `400`, and a stage-level
/// `layer_start` on a client request is refused — all structured, all
/// leaving the connection serving.
#[test]
fn pipeline_router_validation_is_structured() {
    let backends = start_registry_backends(2, SEED);
    let router = start_router(&backends, Placement::Pipeline);
    let mut client = Client::connect(router.local_addr()).expect("connects");

    // Health advertises the agreed catalog.
    let health = client.health().expect("health");
    let models = health.models.expect("pipeline router lists models");
    assert_eq!(models.len(), 9, "3 kinds x 3 formats");

    let err = client
        .infer("resnet-152", "e2m5", vec![0.5; 8])
        .expect_err("unknown model");
    match err {
        ClientError::Rejected(resp) => {
            assert_eq!(resp.status, Status::NotFound);
            assert_eq!(resp.code, 404);
        }
        other => panic!("expected 404, got {other}"),
    }

    let err = client
        .infer("tiny-mlp", "fp64", vec![0.5; 8])
        .expect_err("unknown format");
    match err {
        ClientError::Rejected(resp) => assert_eq!(resp.status, Status::Malformed),
        other => panic!("expected 400, got {other}"),
    }

    let err = client
        .infer("tiny-mlp", "e2m5", vec![0.5; 7])
        .expect_err("wrong dims");
    match err {
        ClientError::Rejected(resp) => assert_eq!(resp.status, Status::Malformed),
        other => panic!("expected 400, got {other}"),
    }

    let err = client
        .infer_range("tiny-mlp", "e2m5", vec![0.5; 8], 0, 2)
        .expect_err("stage-level fields on a client request");
    match err {
        ClientError::Rejected(resp) => assert_eq!(resp.status, Status::Malformed),
        other => panic!("expected 400, got {other}"),
    }

    // The connection still serves valid work, both staged infer and
    // the replicated fallback for plain matvec.
    let out = client
        .infer("tiny-mlp", "e2m5", vec![0.5; 8])
        .expect("recovers");
    assert_eq!(out.len(), 4);
    let out = client
        .matvec(ServeModel::demo_input(256, 0))
        .expect("matvec fallback");
    assert_eq!(out.len(), 128);

    let _ = router.shutdown();
    for b in backends {
        let _ = b.shutdown();
    }
}

/// A dead stage has no failover target (no other backend runs its
/// layer range), so the router answers a structured `503` with a retry
/// hint — quickly, never a hang — and reports the degraded state.
#[test]
fn dead_stage_yields_structured_503_within_deadline() {
    let mut backends = start_registry_backends(2, SEED);
    let router = start_router(&backends, Placement::Pipeline);
    let mut client = Client::connect(router.local_addr()).expect("connects");
    client
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("timeout");

    // Healthy first.
    let out = client
        .infer("tiny-mlp", "e2m5", vec![0.25; 8])
        .expect("serves");
    assert_eq!(out.len(), 4);

    // Kill stage 1 (the second half of every model).
    let victim = backends.remove(1);
    let _ = victim.shutdown();

    let t0 = Instant::now();
    let req =
        afpr_serve::Request::infer(7, "tiny-mlp", "e2m5", vec![0.25; 8]).with_deadline_ms(5_000);
    let resp = client.call(&req).expect("structured answer");
    let elapsed = t0.elapsed();
    assert_eq!(resp.status, Status::Overloaded, "structured 503");
    assert_eq!(resp.code, 503);
    assert!(resp.retry_after_ms.is_some(), "503 carries a retry hint");
    let msg = resp.error.as_deref().unwrap_or("");
    assert!(msg.contains("stage"), "error names the stage: {msg}");
    assert!(
        elapsed < Duration::from_secs(5),
        "503 answered within the deadline, not a hang ({elapsed:?})"
    );

    // Worst-stage health: the cluster is draining with a dead stage.
    let health = client.health().expect("health still answers");
    assert_eq!(health.state, HealthState::Draining);

    let snap = router.shutdown();
    assert!(snap.total_failed() >= 1, "the dead dispatch was counted");
    for b in backends {
        let _ = b.shutdown();
    }
}

/// A pipeline router refuses to start over backends whose registries
/// were compiled from different seeds — their catalogs disagree, so
/// streaming activations between them would silently break the
/// bit-identity invariant.
#[test]
fn pipeline_router_refuses_mismatched_backend_catalogs() {
    let mut backends = start_registry_backends(1, SEED);
    backends.extend(start_registry_backends(1, SEED + 1));
    let addrs: Vec<String> = backends
        .iter()
        .map(|b| b.local_addr().to_string())
        .collect();
    let err = Router::start(ClusterConfig::new(
        "127.0.0.1:0",
        &addrs,
        Placement::Pipeline,
    ))
    .expect_err("mismatched catalogs must not serve");
    let msg = err.to_string();
    assert!(
        msg.contains("model inventory") || msg.contains("same seed"),
        "error explains the disagreement: {msg}"
    );
    for b in backends {
        let _ = b.shutdown();
    }
}

/// `infer` against a *sharded* router is a structured `400` naming the
/// placement modes that do support it.
#[test]
fn sharded_router_rejects_infer_with_400() {
    let backends = start_registry_backends(2, SEED);
    let router = start_router(&backends, Placement::Sharded);
    let mut client = Client::connect(router.local_addr()).expect("connects");
    let err = client
        .infer("tiny-mlp", "e2m5", vec![0.5; 8])
        .expect_err("sharded placement cannot stage infer");
    match err {
        ClientError::Rejected(resp) => {
            assert_eq!(resp.status, Status::Malformed);
            assert!(
                resp.error.as_deref().unwrap_or("").contains("pipeline"),
                "error points at pipeline placement"
            );
        }
        other => panic!("expected 400, got {other}"),
    }
    let _ = router.shutdown();
    for b in backends {
        let _ = b.shutdown();
    }
}
