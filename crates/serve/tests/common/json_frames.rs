//! Hand-written JSON text frames versus binary frames, shared by the
//! backend (`server_roundtrip.rs`) and router (`cluster_roundtrip.rs`)
//! suites and so by their `*_reactor.rs` reruns. The twins must carry
//! a registry (the `infer` case runs `tiny-mlp`).

use std::io::Write;
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use afpr_serve::{parse_message, read_frame, Client, Request, Response};

/// Sends hand-written JSON text frames for the four data-plane ops to
/// `json_addr`, and the same requests through `Client` (binary frames)
/// to its identically seeded twin at `binary_addr`. Each JSON request
/// gets a JSON answer whose outputs and `energy_mj` equal the binary
/// answer's bit for bit. (Twins, because a request's energy is the
/// difference of running totals, so it rounds differently on a server
/// with a different history.)
pub fn assert_match_binary(json_addr: SocketAddr, binary_addr: SocketAddr) {
    // Quarter steps print and parse exactly.
    let x: Vec<f32> = (0..256).map(|i| (i % 7) as f32 * 0.25 - 0.75).collect();
    let list = |v: &[f32]| v.iter().map(f32::to_string).collect::<Vec<_>>().join(",");
    let y: Vec<f32> = x.iter().rev().copied().collect();
    let cases = [
        (
            Request::matvec(1, x.clone()),
            format!(r#"{{"op":"matvec","id":1,"input":[{}]}}"#, list(&x)),
        ),
        (
            Request::forward_batch(2, vec![x.clone(), y.clone()]),
            format!(
                r#"{{"op":"forward_batch","id":2,"inputs":[[{}],[{}]]}}"#,
                list(&x),
                list(&y)
            ),
        ),
        (
            Request::matvec_partial(3, 64, x[64..192].to_vec()),
            format!(
                r#"{{"op":"matvec_partial","id":3,"row_offset":64,"input":[{}]}}"#,
                list(&x[64..192])
            ),
        ),
        (
            Request::infer(4, "tiny-mlp", "e3m4", x[..8].to_vec()),
            format!(
                r#"{{"op":"infer","id":4,"model":"tiny-mlp","format":"e3m4","input":[{}]}}"#,
                list(&x[..8])
            ),
        ),
    ];
    let bits = |r: &Response| {
        let rows = r.outputs.iter().chain(&r.partials).flatten();
        let floats: Vec<u32> = r
            .output
            .iter()
            .chain(rows)
            .flatten()
            .map(|f| f.to_bits())
            .collect();
        (floats, r.energy_mj.map(f64::to_bits))
    };
    let mut sock = TcpStream::connect(json_addr).expect("connect");
    sock.set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut client = Client::connect(binary_addr).expect("connect");
    for (req, json) in cases {
        sock.write_all(&(json.len() as u32).to_be_bytes()).unwrap();
        sock.write_all(json.as_bytes()).unwrap();
        let raw = read_frame(&mut sock, 1 << 20).unwrap().expect("answered");
        assert_eq!(
            raw[0], b'{',
            "{}: a JSON request gets a JSON answer",
            req.op
        );
        let from_json: Response = parse_message(&raw).unwrap();
        let from_binary = client.call(&req).expect("binary answered");
        assert!(from_json.is_ok(), "{}: {:?}", req.op, from_json.error);
        assert!(from_json.energy_mj.is_some(), "{} is metered", req.op);
        assert_eq!(bits(&from_json), bits(&from_binary), "{}", req.op);
        assert_eq!(from_json, from_binary, "{}", req.op);
    }
}
