//! Protocol robustness fuzzing: arbitrary garbage, truncated frames,
//! oversized length prefixes, lying binary payloads and non-finite
//! floats must never panic the server — every case ends in a structured
//! response (`400 malformed` for bad frames) or a clean disconnect, and
//! the server keeps answering well-formed requests afterwards.

use std::io::Write;
use std::net::{SocketAddr, TcpStream};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

use afpr_models::{ModelRegistry, RegistryConfig};
use afpr_serve::{
    parse_message, read_frame, Client, ClientError, Encoding, Op, Request, Response, ServeModel,
    Server, ServerConfig, Status, MAX_DEADLINE_MS,
};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

/// One server shared by every fuzz case. Leaked into a static so its
/// threads outlive all cases; each case opens a fresh connection.
fn fuzz_server_addr() -> SocketAddr {
    static SERVER: OnceLock<Server> = OnceLock::new();
    SERVER
        .get_or_init(|| {
            let cfg = ServerConfig {
                // Small cap so oversized-length cases are cheap.
                max_frame_bytes: 1 << 16,
                ..ServerConfig::default()
            };
            // A registry so `infer` fuzz cases exercise the full
            // validation path (static checks reject hostile input
            // before any model compiles, so fuzzing stays cheap).
            let registry = Arc::new(ModelRegistry::new(RegistryConfig::new(2, 11)));
            Server::start(cfg, ServeModel::demo(11).with_registry(registry))
                .expect("fuzz server starts")
        })
        .local_addr()
}

/// Connects a raw socket with a bounded read timeout so a buggy server
/// would fail the property instead of hanging the suite.
fn raw_conn(addr: SocketAddr) -> TcpStream {
    let s = TcpStream::connect(addr).expect("connect");
    s.set_read_timeout(Some(Duration::from_secs(5)))
        .expect("timeout");
    s.set_nodelay(true).expect("nodelay");
    s
}

/// The server still answers a well-formed request on a fresh
/// connection — i.e. nothing panicked or wedged.
fn assert_server_alive(addr: SocketAddr) -> Result<(), TestCaseError> {
    let mut probe = Client::connect(addr)
        .map_err(|e| TestCaseError::fail(format!("probe connect failed: {e}")))?;
    let health = probe
        .health()
        .map_err(|e| TestCaseError::fail(format!("health failed after fuzz case: {e}")))?;
    if health.input_dim != 256 {
        return Err(TestCaseError::fail("health returned wrong dims"));
    }
    Ok(())
}

/// Writes one hand-assembled payload as a frame.
fn send_raw(s: &mut TcpStream, payload: &[u8]) {
    let len = u32::try_from(payload.len()).expect("small payload");
    s.write_all(&len.to_be_bytes()).expect("header");
    s.write_all(payload).expect("payload");
    s.flush().expect("flush");
}

/// Writes one hand-assembled JSON payload as a frame.
fn send_raw_json(s: &mut TcpStream, json: &str) {
    send_raw(s, json.as_bytes());
}

/// Reads the next response frame's raw payload.
fn read_raw(s: &mut TcpStream) -> Result<Vec<u8>, TestCaseError> {
    match read_frame(s, 1 << 20) {
        Ok(Some(bytes)) => Ok(bytes),
        Ok(None) => Err(TestCaseError::fail(
            "server disconnected instead of answering",
        )),
        Err(e) => Err(TestCaseError::fail(format!("dirty disconnect: {e}"))),
    }
}

/// Reads and parses the next response frame.
fn read_response(s: &mut TcpStream) -> Result<Response, TestCaseError> {
    parse_message(&read_raw(s)?).map_err(|e| TestCaseError::fail(format!("unparseable reply: {e}")))
}

/// A valid binary `matvec` payload for the demo layer.
fn binary_matvec(id: u64) -> Vec<u8> {
    Encoding::Binary
        .encode(&Request::matvec(id, ServeModel::demo_input(256, 3)))
        .expect("data-plane requests encode as binary")
}

/// Sends a hostile binary payload; the answer must be a binary
/// `400 malformed` with `id` 0, and the same connection must then
/// serve a valid binary matvec.
fn assert_binary_400_then_serves(addr: SocketAddr, payload: &[u8]) -> Result<(), TestCaseError> {
    let mut s = raw_conn(addr);
    send_raw(&mut s, payload);
    let raw = read_raw(&mut s)?;
    prop_assert_eq!(Encoding::of(&raw), Encoding::Binary, "400 answers in kind");
    let resp: Response = parse_message(&raw).map_err(TestCaseError::fail)?;
    prop_assert_eq!(resp.status, Status::Malformed, "{:?}", resp.error);
    prop_assert_eq!(resp.code, 400);
    prop_assert_eq!(resp.id, 0);
    send_raw(&mut s, &binary_matvec(8));
    let resp = read_response(&mut s)?;
    prop_assert!(resp.is_ok(), "connection still serves: {:?}", resp.error);
    prop_assert_eq!(resp.id, 8);
    prop_assert_eq!(resp.output.map(|o| o.len()), Some(128));
    assert_server_alive(addr)
}

/// Byte offset of the `u16` presence mask in a binary payload (after
/// magic, kind, op, `id` and the `proto_version` at offset 11).
const PRESENCE_AT: usize = 15;
/// Byte offset of the first optional field (after the mask).
const FIELDS_AT: usize = PRESENCE_AT + 2;

fn patched(mut payload: Vec<u8>, at: usize, bytes: &[u8]) -> Vec<u8> {
    payload[at..at + bytes.len()].copy_from_slice(bytes);
    payload
}

/// Checks a served response's energy field: present, finite and
/// non-negative.
fn assert_sane_energy(resp: &Response) -> Result<(), TestCaseError> {
    prop_assert!(
        resp.energy_mj.is_some_and(|mj| mj.is_finite() && mj >= 0.0),
        "served requests report sane energy: {:?}",
        resp.energy_mj
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// A complete frame of arbitrary bytes gets a structured response
    /// (almost always `400 malformed`) or a clean disconnect — never a
    /// panic, never a corrupted reply frame.
    fn random_payload_gets_400_or_clean_disconnect(
        payload in prop::collection::vec(0u8..=255, 0..400),
    ) {
        let addr = fuzz_server_addr();
        let mut s = raw_conn(addr);
        let len = u32::try_from(payload.len()).expect("small payload");
        s.write_all(&len.to_be_bytes()).expect("header");
        s.write_all(&payload).expect("payload");
        s.flush().expect("flush");

        match read_frame(&mut s, 1 << 20) {
            Ok(Some(bytes)) => {
                // Any reply must itself be a valid protocol frame.
                let resp: afpr_serve::Response =
                    afpr_serve::parse_message(&bytes)
                        .map_err(|e| TestCaseError::fail(format!("unparseable reply: {e}")))?;
                // Random bytes essentially never form a valid request.
                prop_assert_eq!(resp.status, Status::Malformed);
                prop_assert_eq!(resp.code, 400);
            }
            Ok(None) => {} // clean disconnect is acceptable
            Err(e) => {
                return Err(TestCaseError::fail(format!("dirty disconnect: {e}")));
            }
        }
        assert_server_alive(addr)?;
    }

    /// A binary frame cut anywhere before its end is a well-framed but
    /// truncated payload: a binary `400` with `id` 0, and the same
    /// connection keeps serving.
    fn truncated_binary_payload_gets_binary_400(keep in 1usize..1041) {
        let full = binary_matvec(7);
        assert_binary_400_then_serves(fuzz_server_addr(), &full[..keep.min(full.len() - 1)])?;
    }

    /// A frame whose announced length exceeds what is actually sent
    /// (connection closed mid-payload) is dropped without panic.
    fn truncated_frame_is_dropped_cleanly(
        payload in prop::collection::vec(0u8..=255, 0..200),
        missing in 1u32..500,
    ) {
        let addr = fuzz_server_addr();
        {
            let mut s = raw_conn(addr);
            let announced = payload.len() as u32 + missing;
            s.write_all(&announced.to_be_bytes()).expect("header");
            s.write_all(&payload).expect("partial payload");
            s.flush().expect("flush");
            // Drop: the server sees EOF mid-frame.
        }
        assert_server_alive(addr)?;
    }

    /// An announced length beyond the server's frame cap is rejected
    /// up front (400 response or disconnect) without ever allocating
    /// or reading the payload.
    fn oversized_announced_length_is_rejected(
        announced in (1u32 << 16) + 1..u32::MAX,
        teaser in prop::collection::vec(0u8..=255, 0..64),
    ) {
        let addr = fuzz_server_addr();
        let mut s = raw_conn(addr);
        s.write_all(&announced.to_be_bytes()).expect("header");
        s.write_all(&teaser).expect("teaser bytes");
        s.flush().expect("flush");

        match read_frame(&mut s, 1 << 20) {
            Ok(Some(bytes)) => {
                let resp: afpr_serve::Response =
                    afpr_serve::parse_message(&bytes)
                        .map_err(|e| TestCaseError::fail(format!("unparseable reply: {e}")))?;
                prop_assert_eq!(resp.status, Status::Malformed);
            }
            Ok(None) => {}
            Err(e) => {
                return Err(TestCaseError::fail(format!("dirty disconnect: {e}")));
            }
        }
        assert_server_alive(addr)?;
    }

    /// Any `proto_version` other than the server's own is refused with
    /// a structured `400` naming both versions — router↔backend skew
    /// fails loudly at the first frame. The connection stays usable.
    fn mismatched_proto_version_gets_400(raw in 0u32..=u32::MAX) {
        // Remap the one accepted version onto 0 so every sampled value
        // is a mismatch (0 and ≥2 are both foreign to a v1 server).
        let version = if raw == 1 { 0 } else { raw };
        let addr = fuzz_server_addr();
        let mut s = raw_conn(addr);
        let json = format!(
            "{{\"op\":\"health\",\"id\":1,\"proto_version\":{version}}}"
        );
        send_raw_json(&mut s, &json);
        // The same gate holds for a binary frame carrying that version:
        // it decodes, so its 400 echoes the request id.
        let binary = patched(binary_matvec(2), 11, &version.to_le_bytes());
        send_raw(&mut s, &binary);
        for (enc, id) in [(Encoding::Json, 1), (Encoding::Binary, 2)] {
            let raw = read_raw(&mut s)?;
            prop_assert_eq!(Encoding::of(&raw), enc);
            let resp: Response = parse_message(&raw).map_err(TestCaseError::fail)?;
            prop_assert_eq!(resp.status, Status::Malformed);
            prop_assert_eq!(resp.code, 400);
            prop_assert_eq!(resp.id, id);
            prop_assert!(
                resp.error.as_deref().unwrap_or_default().contains("protocol version"),
                "error names the version mismatch: {:?}", resp.error
            );
        }
        assert_server_alive(addr)?;
    }

    /// Garbage `matvec_partial` shard bounds (random offsets, random
    /// slice lengths) are either served (when they happen to be
    /// tile-aligned and in range) or rejected with a structured `400`
    /// — never a panic, never a wedged server.
    fn random_partial_shards_never_panic(
        row_offset in 0u64..400,
        len in 0usize..300,
    ) {
        let addr = fuzz_server_addr();
        let mut probe = Client::connect(addr)
            .map_err(|e| TestCaseError::fail(format!("connect failed: {e}")))?;
        // Demo model: k = 256, row tiles of 64.
        let end = row_offset + len as u64;
        let valid = len > 0
            && row_offset < 256
            && row_offset.is_multiple_of(64)
            && end <= 256
            && (end == 256 || end.is_multiple_of(64));
        match probe.matvec_partial(row_offset, vec![0.5; len]) {
            Ok(partials) => {
                prop_assert!(valid, "invalid shard [{row_offset}, {end}) served");
                prop_assert_eq!(partials.len(), len.div_ceil(64));
                for p in &partials {
                    prop_assert_eq!(p.len(), 128, "full output width");
                }
            }
            Err(ClientError::Rejected(resp)) => {
                prop_assert!(!valid, "valid shard [{row_offset}, {end}) rejected");
                prop_assert_eq!(resp.status, Status::Malformed);
                prop_assert_eq!(resp.code, 400);
            }
            Err(other) => {
                return Err(TestCaseError::fail(format!("transport failure: {other}")));
            }
        }
        assert_server_alive(addr)?;
    }

    /// Regression: a well-formed matvec carrying an absurd
    /// `deadline_ms` (anything past the 24-hour cap, up to `u64::MAX`)
    /// must come back as a structured `400 malformed` — historically
    /// `Instant + Duration::from_millis(u64::MAX)` overflowed and
    /// panicked the connection worker. The server must stay alive.
    fn huge_deadline_is_rejected_as_malformed(
        excess in 0u64..=u64::MAX - MAX_DEADLINE_MS - 1,
    ) {
        let addr = fuzz_server_addr();
        let deadline_ms = MAX_DEADLINE_MS + 1 + excess;
        let mut client = Client::connect(addr)
            .map_err(|e| TestCaseError::fail(format!("connect failed: {e}")))?;
        match client.matvec_with_deadline(ServeModel::demo_input(256, 0), deadline_ms) {
            Err(ClientError::Rejected(resp)) => {
                prop_assert_eq!(resp.status, Status::Malformed);
                prop_assert_eq!(resp.code, 400);
            }
            other => {
                return Err(TestCaseError::fail(format!(
                    "deadline_ms {deadline_ms} should be rejected 400, got {other:?}"
                )));
            }
        }
        assert_server_alive(addr)?;
    }

    /// Hostile `infer` requests — garbage model names, garbage
    /// formats, wrong-length inputs — always get a structured `404`
    /// (unknown model) or `400` (everything else), never a panic. A
    /// fully valid request computes. Static validation runs before any
    /// model compiles, so garbage never costs a load.
    fn random_infer_requests_never_panic(
        model_pick in prop::sample::select(vec![
            "tiny-mlp", "tiny-resnet", "TINY-MLP", "resnet-152", "", "🦀", "tiny-mlp ",
        ]),
        format_pick in prop::sample::select(vec!["e2m5", "e3m4", "int8", "fp64", "", "E2M5"]),
        len in 0usize..40,
    ) {
        let addr = fuzz_server_addr();
        let mut client = Client::connect(addr)
            .map_err(|e| TestCaseError::fail(format!("connect failed: {e}")))?;
        let model_known = matches!(model_pick, "tiny-mlp" | "tiny-resnet");
        let format_known = matches!(format_pick, "e2m5" | "e3m4" | "int8");
        // Only exercise the *valid* load path for the cheap model; a
        // well-formed tiny-resnet request is sized to fail validation.
        let valid = model_pick == "tiny-mlp" && format_known && len == 8;
        match client.infer(model_pick, format_pick, vec![0.25; len]) {
            Ok(output) => {
                prop_assert!(valid, "invalid infer ({model_pick}, {format_pick}, {len}) served");
                prop_assert_eq!(output.len(), 4, "tiny-mlp has 4 classes");
            }
            Err(ClientError::Rejected(resp)) => {
                prop_assert!(!valid, "valid infer rejected: {:?}", resp.error);
                if model_known {
                    prop_assert_eq!(resp.status, Status::Malformed);
                    prop_assert_eq!(resp.code, 400);
                } else {
                    prop_assert_eq!(resp.status, Status::NotFound);
                    prop_assert_eq!(resp.code, 404);
                }
                prop_assert!(resp.error.is_some(), "rejection carries a reason");
            }
            Err(other) => {
                return Err(TestCaseError::fail(format!("transport failure: {other}")));
            }
        }
        assert_server_alive(addr)?;
    }

    /// Hostile `energy_budget_mj` / `allow_downshift` encodings never
    /// panic the server: unparseable types and non-positive or
    /// non-finite budgets get a structured `400`, a JSON `null` means
    /// "absent" (version-1 compat), and any parseable positive budget
    /// is either admitted (`200`) or refused with a structured
    /// `429 over_budget`. The connection keeps serving afterwards.
    fn hostile_energy_budget_never_panics(
        budget_json in prop::sample::select(vec![
            "null", "0", "-1", "-0.0", "1e-12", "1e6", "1e309", "-1e309",
            "\"cheap\"", "[]", "{}", "true",
        ]),
        downshift_json in prop::sample::select(vec![
            "null", "true", "false", "1", "\"yes\"", "[]",
        ]),
    ) {
        let addr = fuzz_server_addr();
        let mut s = raw_conn(addr);
        let input: Vec<String> = (0..256).map(|i| format!("{}.25", i % 2)).collect();
        let json = format!(
            "{{\"op\":\"matvec\",\"id\":77,\"input\":[{}],\
             \"energy_budget_mj\":{budget_json},\"allow_downshift\":{downshift_json}}}",
            input.join(","),
        );
        send_raw_json(&mut s, &json);
        let resp = read_response(&mut s)?;
        prop_assert!(
            matches!(resp.code, 200 | 400 | 429),
            "structured outcome only, got code {} ({:?})", resp.code, resp.error
        );
        if resp.code == 200 {
            prop_assert!(
                resp.energy_mj.is_some_and(|mj| mj.is_finite() && mj >= 0.0),
                "served requests report sane energy: {:?}", resp.energy_mj
            );
        } else {
            prop_assert!(resp.error.is_some(), "rejections carry a reason");
        }
        assert_server_alive(addr)?;
    }

    /// Hostile `layer_start`/`layer_end` ranges on `infer` are either
    /// served (valid prefix of the network) or structured `400`s —
    /// never a panic. Mid-network entry with a wrong-length activation
    /// is caught by the execution thread's boundary-shape check.
    fn random_infer_layer_ranges_never_panic(
        start in 0u64..8,
        end in 0u64..8,
    ) {
        let addr = fuzz_server_addr();
        let mut client = Client::connect(addr)
            .map_err(|e| TestCaseError::fail(format!("connect failed: {e}")))?;
        // tiny-mlp has 5 top-level layers; an 8-wide input is only a
        // valid activation at boundary 0, and empty ranges are
        // rejected (an `infer` that computes nothing is malformed).
        let valid = start == 0 && (1..=5).contains(&end);
        match client.infer_range("tiny-mlp", "e2m5", vec![0.5; 8], start, end) {
            Ok(_) => prop_assert!(valid, "invalid range [{start}, {end}) served"),
            Err(ClientError::Rejected(resp)) => {
                prop_assert!(!valid, "valid range [{start}, {end}) rejected: {:?}", resp.error);
                prop_assert_eq!(resp.status, Status::Malformed);
                prop_assert_eq!(resp.code, 400);
            }
            Err(other) => {
                return Err(TestCaseError::fail(format!("transport failure: {other}")));
            }
        }
        assert_server_alive(addr)?;
    }
}

/// Every named way a binary payload can lie — truncated arrays, counts
/// that overrun the frame, trailing bytes, unknown op and kind bytes,
/// control ops sent as binary, unknown field bits, invalid UTF-8 —
/// gets a binary `400` with `id` 0 and leaves the connection serving.
#[test]
fn malformed_binary_frames_get_binary_400() {
    let addr = fuzz_server_addr();
    let matvec = binary_matvec(5);
    let batch = Encoding::Binary
        .encode(&Request::forward_batch(6, vec![vec![0.5; 256]; 2]))
        .unwrap();
    let infer = Encoding::Binary
        .encode(&Request::infer(9, "tiny-mlp", "e2m5", vec![0.5; 8]))
        .unwrap();
    let model_at = infer
        .windows(8)
        .position(|w| w == b"tiny-mlp")
        .expect("model bytes present");
    let mut trailing = matvec.clone();
    trailing.extend_from_slice(&[0, 0, 0, 0]);
    let cases: Vec<(&str, Vec<u8>)> = vec![
        ("magic byte alone", vec![0]),
        ("header cut short", matvec[..10].to_vec()),
        ("array cut mid-float", matvec[..matvec.len() - 3].to_vec()),
        (
            "count overruns frame",
            patched(matvec.clone(), FIELDS_AT, &257u32.to_le_bytes()),
        ),
        (
            "count u32::MAX",
            patched(matvec.clone(), FIELDS_AT, &u32::MAX.to_le_bytes()),
        ),
        (
            "nested count u32::MAX",
            patched(batch.clone(), FIELDS_AT, &u32::MAX.to_le_bytes()),
        ),
        ("trailing bytes", trailing),
        ("unknown op byte", patched(matvec.clone(), 2, &[77])),
        ("response kind", patched(matvec.clone(), 1, &[1])),
        ("unknown kind", patched(matvec.clone(), 1, &[9])),
        (
            "health as binary",
            patched(matvec.clone(), 2, &[Op::Health.index() as u8]),
        ),
        (
            "metrics as binary",
            patched(matvec.clone(), 2, &[Op::Metrics.index() as u8]),
        ),
        (
            "shutdown as binary",
            patched(matvec.clone(), 2, &[Op::Shutdown.index() as u8]),
        ),
        (
            "register as binary",
            patched(matvec.clone(), 2, &[Op::Register.index() as u8]),
        ),
        (
            "unknown field bits",
            patched(matvec.clone(), PRESENCE_AT, &[0x02, 0x80]),
        ),
        (
            "invalid UTF-8 model",
            patched(infer, model_at, &[0xc3, 0x28]),
        ),
    ];
    for (what, payload) in cases {
        assert_binary_400_then_serves(addr, &payload).unwrap_or_else(|e| panic!("{what}: {e}"));
    }
}

/// NaN and ±Inf travel as raw bits in binary frames, so they reach
/// every data-plane op. Each gets an answer or a structured 4xx —
/// never a panic — and served answers carry finite, non-negative
/// energy. The server keeps serving.
#[test]
fn non_finite_payloads_on_every_data_plane_op_never_panic() {
    let addr = fuzz_server_addr();
    let mut client = Client::connect(addr).expect("connect");
    let id = 1000;
    for v in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
        let mut mixed = ServeModel::demo_input(256, 1);
        mixed[17] = v;
        let mut reqs = vec![
            Request::matvec(id, vec![v; 256]),
            Request::matvec(id, mixed.clone()),
            Request::forward_batch(id, vec![mixed.clone(), vec![v; 256]]),
            Request::matvec_partial(id, 64, vec![v; 64]),
            Request::matvec_partial(id, 0, mixed),
        ];
        for format in ["e2m5", "e3m4", "int8"] {
            reqs.push(Request::infer(id, "tiny-mlp", format, vec![v; 8]));
        }
        for req in reqs {
            let what = format!("{} {format:?} of {v}", req.op, format = req.format);
            let resp = client
                .call(&req)
                .unwrap_or_else(|e| panic!("{what}: transport failure {e}"));
            if resp.is_ok() {
                assert_sane_energy(&resp).unwrap_or_else(|e| panic!("{what}: {e}"));
            } else {
                assert!((400..500).contains(&resp.code), "{what}: {resp:?}");
            }
        }
    }
    assert_server_alive(addr).expect("server alive after non-finite payloads");
}

/// Unknown model names are `404 not_found` — distinct from `400` so
/// routers and retry layers can tell "will never succeed here" from
/// "bad request shape" — and the connection keeps serving.
#[test]
fn unknown_model_gets_404_and_connection_survives() {
    let addr = fuzz_server_addr();
    let mut client = Client::connect(addr).expect("connect");
    let err = client
        .infer("resnet-152", "e2m5", vec![0.5; 8])
        .expect_err("unknown model must be rejected");
    match err {
        ClientError::Rejected(resp) => {
            assert_eq!(resp.status, Status::NotFound);
            assert_eq!(resp.code, 404);
            assert!(
                resp.error
                    .as_deref()
                    .unwrap_or_default()
                    .contains("resnet-152"),
                "error names the model: {:?}",
                resp.error
            );
        }
        other => panic!("expected 404 rejection, got {other:?}"),
    }
    // The same connection still infers a registered model.
    let out = client
        .infer("tiny-mlp", "int8", vec![0.5; 8])
        .expect("server keeps serving after the hostile request");
    assert_eq!(out.len(), 4);
}

/// Extreme inputs (`f32::MAX`, denormals, huge negatives, NaN, ±Inf)
/// never panic the server in any format — INT8 calibration used to
/// panic the execution thread on an infinite absmax. Activations that
/// overflow come back as ±Inf: binary answers carry the raw bits that
/// JSON printed as `null`. Every answer is a normal one, and the
/// server keeps serving.
#[test]
fn extreme_infer_values_never_panic() {
    let addr = fuzz_server_addr();
    let mut client = Client::connect(addr).expect("connect");
    let hostile = [
        f32::MAX,
        f32::MIN,
        f32::MIN_POSITIVE,
        -0.0,
        1e-38,
        3e37,
        1e38,
        f32::NAN,
        f32::INFINITY,
        f32::NEG_INFINITY,
    ];
    for format in ["e2m5", "e3m4", "int8"] {
        for x in hostile {
            let resp = client
                .call(&Request::infer(1, "tiny-mlp", format, vec![x; 8]))
                .unwrap_or_else(|e| panic!("{format} input {x:e} broke the server: {e}"));
            assert!(resp.is_ok(), "{format} input {x:e}: {:?}", resp.error);
            assert_eq!(resp.output.as_ref().map(Vec::len), Some(4));
            assert_sane_energy(&resp).unwrap_or_else(|e| panic!("{format} input {x:e}: {e}"));
        }
        // The server is still healthy and still infers.
        let out = client
            .infer("tiny-mlp", format, vec![0.5; 8])
            .expect("server keeps serving after extreme inputs");
        assert_eq!(out.len(), 4);
    }
}

/// Old-frame compatibility pin: hand-written version-1 frames that
/// predate `proto_version` (and `row_offset`/`rows`/`partials`) must
/// keep parsing and serving exactly as before the fields existed. This
/// is the wire-compat contract routers rely on when fronting a mixed
/// fleet of backends.
#[test]
fn old_frames_without_proto_version_still_serve() {
    let addr = fuzz_server_addr();
    let mut s = raw_conn(addr);

    // A pre-versioning health frame: no proto_version field at all.
    send_raw_json(&mut s, "{\"op\":\"health\",\"id\":41}");
    let resp = read_response(&mut s).expect("health answered");
    assert_eq!(
        resp.status,
        Status::Ok,
        "old health frame: {:?}",
        resp.error
    );
    assert_eq!(resp.code, 200);
    let health = resp.health.expect("health payload");
    assert_eq!(health.input_dim, 256);
    assert_eq!(health.row_tile_rows, 64, "new servers advertise tiling");

    // A pre-versioning matvec frame, input assembled by hand.
    let input: Vec<String> = (0..256).map(|i| format!("{}.5", i % 3)).collect();
    let json = format!(
        "{{\"op\":\"matvec\",\"id\":42,\"input\":[{}]}}",
        input.join(",")
    );
    send_raw_json(&mut s, &json);
    let raw = read_raw(&mut s).expect("matvec answered");
    assert_eq!(raw[0], b'{', "a JSON request gets a JSON answer");
    let resp: Response = parse_message(&raw).expect("well-formed answer");
    assert_eq!(
        resp.status,
        Status::Ok,
        "old matvec frame: {:?}",
        resp.error
    );
    assert_eq!(resp.id, 42);
    assert_eq!(resp.output.expect("output").len(), 128);
    // New responses carry the version; old clients ignore unknown
    // fields, new ones read it.
    assert_eq!(resp.proto_version, afpr_serve::PROTOCOL_VERSION);
    // Version-1 compat for the energy fields: a frame that predates
    // `energy_budget_mj`/`allow_downshift` is admitted unconditionally
    // (no budget gate), and the server still meters it — old clients
    // simply ignore the extra `energy_mj` response field.
    let mj = resp.energy_mj.expect("new servers meter every request");
    assert!(mj.is_finite() && mj > 0.0, "metered energy is sane: {mj}");
}

/// The exact historical panic value: `deadline_ms = u64::MAX` gets a
/// structured 400 and the server keeps serving (a plain test so the
/// boundary is pinned even if proptest never samples it).
#[test]
fn deadline_u64_max_gets_400_and_server_survives() {
    let addr = fuzz_server_addr();
    let mut client = Client::connect(addr).expect("connect");
    let err = client
        .matvec_with_deadline(ServeModel::demo_input(256, 0), u64::MAX)
        .expect_err("u64::MAX deadline must be rejected");
    match err {
        ClientError::Rejected(resp) => {
            assert_eq!(resp.status, Status::Malformed);
            assert_eq!(resp.code, 400);
        }
        other => panic!("expected 400 rejection, got {other:?}"),
    }
    // A sane deadline on the same server still computes.
    let out = client
        .matvec_with_deadline(ServeModel::demo_input(256, 1), 5_000)
        .expect("server must keep serving after the hostile request");
    assert_eq!(out.len(), 128);
}
