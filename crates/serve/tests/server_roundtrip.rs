//! Loopback integration tests for the serving stack: bit-identity
//! against the in-process accelerator, structured overload and
//! deadline rejections, malformed-request handling, health under
//! saturation, and graceful drain-then-stop shutdown.

use std::sync::Arc;
use std::time::Duration;

use afpr_models::{
    CompiledModel, ModelKind, ModelRegistry, ModelSpec, RegistryConfig, ALL_FORMATS,
};
use afpr_serve::{Client, ClientError, Op, Request, ServeModel, Server, ServerConfig, Status};

/// Server responses are bit-identical to driving the accelerator
/// directly with the same seed and the same sample order — the wire
/// protocol, micro-batching and engine parallelism are all invisible
/// to the numerics.
#[test]
fn matvec_and_forward_batch_bit_identical_to_direct_accelerator() {
    const SEED: u64 = 42;
    let server = Server::start(ServerConfig::default(), ServeModel::demo(SEED)).expect("starts");
    let (mut reference, handle) = ServeModel::demo(SEED).into_parts();
    let (k, _n) = (256, 128);

    let mut client = Client::connect(server.local_addr()).expect("connects");

    // Interleave single matvecs and a forward_batch; the reference
    // consumes the identical sample stream one matvec at a time.
    let mut served: Vec<Vec<f32>> = Vec::new();
    for i in 0..6 {
        served.push(client.matvec(ServeModel::demo_input(k, i)).expect("matvec"));
    }
    let batch: Vec<Vec<f32>> = (6..10).map(|i| ServeModel::demo_input(k, i)).collect();
    served.extend(client.forward_batch(batch).expect("forward_batch"));

    let golden: Vec<Vec<f32>> = (0..10)
        .map(|i| reference.matvec(handle, &ServeModel::demo_input(k, i)))
        .collect();

    assert_eq!(served.len(), golden.len());
    for (s, g) in served.iter().zip(&golden) {
        assert_eq!(s.len(), g.len());
        for (a, b) in s.iter().zip(g) {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "server output differs from direct"
            );
        }
    }

    let snapshot = server.shutdown();
    assert_eq!(snapshot.runtime.requests_accepted, 7); // 6 matvec + 1 batch
    assert_eq!(snapshot.runtime.rejections.total(), 0);
    assert_eq!(snapshot.protocol_errors, 0);
}

/// Although the batcher never waits for a partner, requests that queue
/// behind a busy execution thread share a batch, and each answer keeps
/// the in-process accelerator's bits for its input (the demo model
/// draws no noise, so batch position cannot change them).
#[test]
fn requests_queued_behind_a_busy_exec_thread_share_a_batch() {
    const SEED: u64 = 31;
    const CLIENTS: usize = 6;
    const K: usize = 256;
    let cfg = ServerConfig {
        exec_delay: Duration::from_millis(150),
        ..ServerConfig::default()
    };
    let server = Server::start(cfg, ServeModel::demo(SEED)).expect("starts");
    let addr = server.local_addr();
    let start = Arc::new(std::sync::Barrier::new(CLIENTS));
    let threads: Vec<_> = (0..CLIENTS)
        .map(|i| {
            let start = Arc::clone(&start);
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).expect("connects");
                start.wait();
                client.matvec(ServeModel::demo_input(K, i)).expect("matvec")
            })
        })
        .collect();

    let (mut reference, handle) = ServeModel::demo(SEED).into_parts();
    let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    for (i, t) in threads.into_iter().enumerate() {
        let served = t.join().expect("client thread");
        let golden = reference.matvec(handle, &ServeModel::demo_input(K, i));
        assert_eq!(bits(&served), bits(&golden), "input {i}");
    }

    let runtime = server.shutdown().runtime;
    assert_eq!(runtime.items_enqueued, CLIENTS as u64);
    assert!(
        runtime.batches_flushed < runtime.items_enqueued,
        "queued requests must share a batch: {} batches for {} requests",
        runtime.batches_flushed,
        runtime.items_enqueued
    );
}

/// `matvec_partial` shards served by *separate* backend processes
/// reduce — in shard order, `PartialSumAdder` fold — to the exact bits
/// of the single-node matvec: the distribution seam is invisible to
/// the numerics. Each backend holds the same model (same seed) and
/// serves only its row range, so every macro's RNG stream advances
/// exactly as it would on one node.
#[test]
fn sharded_matvec_partial_bit_identical_to_single_node() {
    const SEED: u64 = 77;
    let (k, n) = (256usize, 128usize);
    // Two shard backends + one single-node reference, same model.
    let a = Server::start(ServerConfig::default(), ServeModel::demo(SEED)).expect("shard a");
    let b = Server::start(ServerConfig::default(), ServeModel::demo(SEED)).expect("shard b");
    let (mut reference, handle) = ServeModel::demo(SEED).into_parts();

    let mut ca = Client::connect(a.local_addr()).expect("connect a");
    let mut cb = Client::connect(b.local_addr()).expect("connect b");
    let unit = ca.health().expect("health").row_tile_rows as usize;
    assert_eq!(unit, 64, "demo model advertises its row-tile height");
    let split = 2 * unit; // shard A: rows 0..128, shard B: rows 128..256

    for i in 0..4 {
        let x = ServeModel::demo_input(k, i);
        let golden = reference.matvec(handle, &x);

        let pa = ca.matvec_partial(0, x[..split].to_vec()).expect("shard a");
        let pb = cb
            .matvec_partial(split as u64, x[split..].to_vec())
            .expect("shard b");
        assert_eq!(pa.len() + pb.len(), 4, "2 row tiles per shard");

        // Reduce in shard order with the inter-core adder — the exact
        // fold `((p0+p1)+p2)+p3` the single-node path performs.
        let mut adder = afpr_xbar::PartialSumAdder::new();
        let parts: Vec<&[f32]> = pa.iter().chain(pb.iter()).map(Vec::as_slice).collect();
        let mut reduced = Vec::new();
        adder.sum_into(&parts, &mut reduced);

        assert_eq!(reduced.len(), n);
        for (col, (r, g)) in reduced.iter().zip(&golden).enumerate() {
            assert_eq!(
                r.to_bits(),
                g.to_bits(),
                "column {col} differs from single-node on input {i}"
            );
        }
    }
    drop(a);
    drop(b);
}

/// `infer` responses are bit-identical to running the same compiled
/// model in-process: the registry, admission queue and exec-thread
/// barrier are invisible to the numerics, for every zoo model × every
/// numeric format. Health and metrics surface the model inventory.
#[test]
fn infer_bit_identical_to_in_process_compiled_model() {
    const SEED: u64 = 2024;
    let registry = Arc::new(ModelRegistry::new(RegistryConfig::new(9, SEED)));
    let server = Server::start(
        ServerConfig::default(),
        ServeModel::demo(SEED).with_registry(Arc::clone(&registry)),
    )
    .expect("starts");
    let mut client = Client::connect(server.local_addr()).expect("connects");

    let mut infers = 0u64;
    for kind in ModelKind::ALL {
        let input: Vec<f32> = (0..kind.input_len())
            .map(|j| ((j as f32) * 0.071).sin())
            .collect();
        for mode in ALL_FORMATS {
            let spec = ModelSpec::new(kind, mode, SEED);
            let golden = CompiledModel::load(spec)
                .infer(&input)
                .expect("in-process inference");
            let served = client
                .infer(
                    kind.wire_name(),
                    afpr_models::format_wire_name(mode),
                    input.clone(),
                )
                .expect("served inference");
            infers += 1;
            assert_eq!(served.len(), golden.len());
            assert_eq!(served.len(), kind.classes());
            for (col, (s, g)) in served.iter().zip(&golden).enumerate() {
                assert_eq!(
                    s.to_bits(),
                    g.to_bits(),
                    "{spec:?} class {col} differs from in-process"
                );
            }
        }
    }

    // Health advertises the registered-model inventory.
    let health = client.health().expect("health");
    let models = health.models.expect("registry-backed server lists models");
    assert_eq!(models.len(), 9, "3 kinds x 3 formats");
    let total_infers: u64 = models.iter().map(|m| m.infers).sum();
    assert_eq!(total_infers, infers);

    // The metrics snapshot carries the registry block too.
    let snapshot = server.shutdown();
    let reg = snapshot.registry.as_ref().expect("registry snapshot");
    assert_eq!(reg.loads, 9);
    assert_eq!(reg.evictions, 0, "capacity 9 holds the whole zoo");
    assert!(reg.kernel_builds > 0, "loading warmed conductance kernels");
    let op = snapshot.op(Op::Infer).expect("infer stats");
    assert_eq!(op.requests, infers);
    assert_eq!(op.ok, infers);
}

/// Shard bounds are validated before they reach the accelerator:
/// misaligned offsets, out-of-range shards and inconsistent `rows`
/// fields are structured `400`s, never panics, and the connection
/// keeps serving.
#[test]
fn matvec_partial_validation_yields_400() {
    let server = Server::start(ServerConfig::default(), ServeModel::demo(2)).expect("starts");
    let mut client = Client::connect(server.local_addr()).expect("connects");

    let cases: Vec<Request> = vec![
        // Misaligned offset (demo row tiles are 64 rows).
        Request::matvec_partial(1, 63, vec![0.5; 64]),
        // Offset out of range.
        Request::matvec_partial(2, 256, vec![0.5; 64]),
        // Shard end past k.
        Request::matvec_partial(3, 192, vec![0.5; 128]),
        // Misaligned shard end (not k, not a tile boundary).
        Request::matvec_partial(4, 0, vec![0.5; 65]),
        // Empty input.
        Request::matvec_partial(5, 0, vec![]),
        // `rows` disagrees with the payload length.
        {
            let mut r = Request::matvec_partial(6, 0, vec![0.5; 64]);
            r.rows = Some(63);
            r
        },
        // Missing input entirely.
        Request::new(Op::MatvecPartial, 7),
    ];
    let n_cases = cases.len();
    for req in cases {
        let resp = client.call(&req).expect("answered");
        assert_eq!(resp.status, Status::Malformed, "req {} must be 400", req.id);
        assert_eq!(resp.code, 400);
        assert!(resp.error.is_some());
    }

    // A valid shard on the same connection still computes.
    let partials = client.matvec_partial(64, vec![0.25; 64]).expect("recovers");
    assert_eq!(partials.len(), 1, "one row tile");
    assert_eq!(partials[0].len(), 128, "full output width");

    let snapshot = server.shutdown();
    assert_eq!(snapshot.runtime.rejections.malformed, n_cases as u64);
    let mp = snapshot
        .op(Op::MatvecPartial)
        .expect("matvec_partial stats");
    assert_eq!(mp.requests, n_cases as u64 + 1);
    assert_eq!(mp.ok, 1);
}

/// Malformed requests get a structured 400 and are counted, and the
/// connection stays usable afterwards.
#[test]
fn malformed_requests_get_400_and_connection_survives() {
    let server = Server::start(ServerConfig::default(), ServeModel::demo(1)).expect("starts");
    let mut client = Client::connect(server.local_addr()).expect("connects");

    // Wrong input length.
    let resp = client
        .call(&Request::matvec(1, vec![0.5; 7]))
        .expect("answered");
    assert_eq!(resp.status, Status::Malformed);
    assert_eq!(resp.code, 400);
    assert!(resp.error.is_some());

    // Missing `input` field entirely.
    let resp = client.call(&Request::new(Op::Matvec, 2)).expect("answered");
    assert_eq!(resp.status, Status::Malformed);

    // The connection still serves well-formed requests.
    let y = client.matvec(vec![0.25; 256]).expect("recovers");
    assert_eq!(y.len(), 128);

    let snapshot = server.shutdown();
    assert_eq!(snapshot.runtime.rejections.malformed, 2);
    assert_eq!(snapshot.runtime.requests_accepted, 1);
}

/// With a tiny queue and slow execution, excess load is rejected with
/// `503 overloaded` + `retry_after_ms`, while health keeps answering
/// because it bypasses the admission queue.
#[test]
fn saturation_yields_structured_503_and_health_stays_responsive() {
    let cfg = ServerConfig {
        queue_capacity: 2,
        batch_size: 1,
        exec_delay: Duration::from_millis(60),
        retry_after_ms: 17,
        ..ServerConfig::default()
    };
    let server = Server::start(cfg, ServeModel::demo(3)).expect("starts");
    let addr = server.local_addr();

    let threads: Vec<_> = (0..8)
        .map(|_| {
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).expect("connects");
                client
                    .call(&Request::matvec(1, vec![0.5; 256]))
                    .expect("answered")
            })
        })
        .collect();

    // While the queue saturates, health must still answer quickly.
    let mut probe = Client::connect(addr).expect("probe connects");
    let health = probe.health().expect("health responds under saturation");
    assert_eq!(health.queue_capacity, 2);

    let responses: Vec<_> = threads
        .into_iter()
        .map(|t| t.join().expect("client thread"))
        .collect();
    let ok = responses.iter().filter(|r| r.is_ok()).count();
    let overloaded: Vec<_> = responses
        .iter()
        .filter(|r| r.status == Status::Overloaded)
        .collect();
    assert!(ok >= 1, "some requests must get through");
    assert!(
        !overloaded.is_empty(),
        "8 clients vs queue of 2 must shed load"
    );
    for r in &overloaded {
        assert_eq!(r.code, 503);
        assert_eq!(r.retry_after_ms, Some(17), "503 carries the retry hint");
    }

    let snapshot = server.shutdown();
    // A saturated queue rejects on two paths with the same wire shape:
    // the health machine sheds while Degraded (queue ≥ shed threshold)
    // and the bounded queue itself rejects at capacity.
    assert_eq!(
        snapshot.runtime.rejections.queue_full + snapshot.runtime.rejections.shed,
        overloaded.len() as u64
    );
    assert_eq!(snapshot.health.shed, snapshot.runtime.rejections.shed);
    if snapshot.runtime.rejections.shed > 0 {
        assert!(
            snapshot.health.degraded_entered >= 1,
            "shedding only happens while degraded"
        );
    }
    assert_eq!(snapshot.runtime.requests_accepted, ok as u64);
}

/// Deadlines are enforced twice: an already-expired budget is rejected
/// at admission, and a request that ages out while queued behind slow
/// work gets `504` from the execution thread's expiry sweep. Both are
/// counted as `deadline_expired`.
#[test]
fn deadline_expiry_at_admission_and_while_queued() {
    let cfg = ServerConfig {
        batch_size: 1,
        exec_delay: Duration::from_millis(120),
        ..ServerConfig::default()
    };
    let server = Server::start(cfg, ServeModel::demo(5)).expect("starts");
    let addr = server.local_addr();

    // Expired before admission: never reaches the queue.
    let mut client = Client::connect(addr).expect("connects");
    let resp = client
        .call(&Request::matvec(1, vec![0.5; 256]).with_deadline_ms(0))
        .expect("answered");
    assert_eq!(resp.status, Status::DeadlineExpired);
    assert_eq!(resp.code, 504);

    // Queued expiry: occupy the execution thread with a slow request,
    // then submit one whose budget is shorter than the queue wait.
    let blocker = std::thread::spawn(move || {
        let mut c = Client::connect(addr).expect("connects");
        c.matvec(vec![0.5; 256]).expect("slow request completes")
    });
    std::thread::sleep(Duration::from_millis(20));
    let resp = client
        .call(&Request::matvec(2, vec![0.5; 256]).with_deadline_ms(40))
        .expect("answered");
    assert_eq!(
        resp.status,
        Status::DeadlineExpired,
        "aged out while queued"
    );
    blocker.join().expect("blocker thread");

    let snapshot = server.shutdown();
    assert_eq!(snapshot.runtime.rejections.deadline_expired, 2);
    assert_eq!(snapshot.runtime.rejections.queue_full, 0);
}

/// `shutdown` drains in-flight work before stopping: a request already
/// admitted when the drain begins still completes with `ok`, and the
/// client-facing shutdown response carries the final snapshot.
#[test]
fn graceful_shutdown_drains_in_flight_requests() {
    let cfg = ServerConfig {
        batch_size: 1,
        exec_delay: Duration::from_millis(80),
        ..ServerConfig::default()
    };
    let server = Server::start(cfg, ServeModel::demo(9)).expect("starts");
    let addr = server.local_addr();

    let in_flight = std::thread::spawn(move || {
        let mut c = Client::connect(addr).expect("connects");
        c.matvec(vec![0.5; 256])
    });
    std::thread::sleep(Duration::from_millis(20));

    let mut admin = Client::connect(addr).expect("admin connects");
    let final_metrics = admin.shutdown_server().expect("shutdown acknowledged");
    // The slow matvec was admitted before the drain began (it may not
    // have been *answered* yet, so don't assert on responses_sent).
    assert!(final_metrics.runtime.requests_accepted >= 1);

    // The admitted request survives the drain.
    let y = in_flight
        .join()
        .expect("client thread")
        .expect("in-flight request completes during drain");
    assert_eq!(y.len(), 128);

    // New compute work after the drain is refused (or the listener is
    // already gone — both are acceptable shutdown behaviors).
    if let Ok(mut late) = Client::connect(addr) {
        match late.call(&Request::matvec(1, vec![0.5; 256])) {
            Ok(resp) => assert_eq!(resp.status, Status::ShuttingDown),
            Err(ClientError::Disconnected | ClientError::Io(_)) => {}
            Err(other) => panic!("unexpected late-request failure: {other}"),
        }
    }

    let snapshot = server.shutdown();
    assert!(snapshot.runtime.requests_accepted >= 1);
    let mv = snapshot.op(Op::Matvec).expect("matvec stats");
    assert!(mv.ok >= 1, "drained request counted as ok");
}
