//! Frame reassembly under arbitrary TCP segmentation, proptested
//! across both transports.
//!
//! Each case builds one inbound byte stream — a mix of valid compute
//! requests in JSON or binary, malformed JSON or truncated binary
//! payloads, non-UTF-8 frames, and optionally a hostile tail (truncated
//! frame or oversized length announcement) —
//! then delivers it to a blocking-transport server and a
//! reactor-transport server, split at proptest-chosen byte boundaries
//! across many writes. The two servers are seeded identically and see
//! identical request histories, so the invariant is strict:
//! **byte-identical response streams, and never a panic**, no matter
//! where the kernel (or we) cut the frames.
//!
//! Ops that embed timing-dependent fields (`health` queue depth,
//! `metrics`) are excluded — everything else the protocol can carry is
//! fair game.

#![cfg(target_os = "linux")]

use std::io::Write;
use std::net::TcpStream;
use std::sync::OnceLock;
use std::time::Duration;

use afpr_serve::{
    parse_message, read_frame, Encoding, FrameError, Request, Response, ServeModel, Server,
    ServerConfig, Transport,
};
use proptest::prelude::*;

const SEED: u64 = 7;
const K: usize = 256;
const UNIT: usize = 64;

fn server_with(transport: Transport) -> Server {
    let cfg = ServerConfig {
        transport,
        max_frame_bytes: 1 << 16,
        // Truncated-tail cases leave a frame half-assembled and wait
        // for the server to give up; keep that wait short.
        frame_assembly_timeout: Duration::from_secs(2),
        ..ServerConfig::default()
    };
    Server::start(cfg, ServeModel::demo(SEED)).expect("server starts")
}

fn blocking_server() -> &'static Server {
    static S: OnceLock<Server> = OnceLock::new();
    S.get_or_init(|| server_with(Transport::Blocking))
}

fn reactor_server() -> &'static Server {
    static S: OnceLock<Server> = OnceLock::new();
    S.get_or_init(|| server_with(Transport::Reactor))
}

/// One message in the generated stream, pre-encoded, with the number
/// of responses it must elicit.
#[derive(Debug, Clone)]
struct Message {
    wire: Vec<u8>,
    responses: usize,
    /// The server closes the connection after answering this message.
    closes: bool,
}

fn frame(payload: &[u8]) -> Vec<u8> {
    let mut wire = (payload.len() as u32).to_be_bytes().to_vec();
    wire.extend_from_slice(payload);
    wire
}

fn encode(req: &Request, enc: Encoding) -> Vec<u8> {
    frame(&enc.encode(req).unwrap())
}

/// splitmix64 step — stretches one proptest-drawn seed into the
/// per-message parameters without needing tuple strategies.
fn mix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Derives one message from a raw 64-bit seed: mostly valid compute
/// requests in `enc`, with undecodable payloads and non-UTF-8 frames
/// mixed in.
fn message_from_seed(seed: u64, enc: Encoding) -> Message {
    let mut s = seed;
    let kind = mix(&mut s) % 10;
    let id = mix(&mut s);
    match kind {
        0..=3 => {
            let x0 = ((mix(&mut s) % 2048) as f32 - 1024.0) / 1024.0;
            let input: Vec<f32> = (0..K).map(|j| x0 + (j as f32) * 0.01).collect();
            Message {
                wire: encode(&Request::matvec(id, input), enc),
                responses: 1,
                closes: false,
            }
        }
        4 | 5 => {
            let tile = (mix(&mut s) as usize) % (K / UNIT);
            let input: Vec<f32> = (0..UNIT)
                .map(|j| ((j + tile) as f32) * 0.05 - 1.0)
                .collect();
            Message {
                wire: encode(
                    &Request::matvec_partial(id, (tile * UNIT) as u64, input),
                    enc,
                ),
                responses: 1,
                closes: false,
            }
        }
        6 | 7 => {
            let n = 1 + (mix(&mut s) as usize) % 3;
            let x0 = ((mix(&mut s) % 128) as f32 - 64.0) / 64.0;
            let inputs: Vec<Vec<f32>> = (0..n)
                .map(|b| {
                    (0..K)
                        .map(|j| x0 - (b as f32) * 0.1 + (j as f32) * 0.003)
                        .collect()
                })
                .collect();
            Message {
                wire: encode(&Request::forward_batch(id, inputs), enc),
                responses: 1,
                closes: false,
            }
        }
        8 => {
            // Valid frame, hostile payload: both transports answer 400
            // (in the payload's encoding) and keep the connection
            // (framing is still in sync).
            let payload = match enc {
                Encoding::Json => format!("{{\"op\":\"matvec\",\"id\":{}", id % 100).into_bytes(),
                Encoding::Binary => {
                    let mut p = enc.encode(&Request::matvec(id, vec![0.5; K])).unwrap();
                    p.truncate(17 + (mix(&mut s) as usize) % (4 * K));
                    p
                }
            };
            Message {
                wire: frame(&payload),
                responses: 1,
                closes: false,
            }
        }
        _ => Message {
            wire: frame(&[0xff, 0xfe, 0xfd, 0x80]),
            responses: 1,
            closes: false,
        },
    }
}

/// Derives the optional hostile tail from a selector seed.
fn tail_from_seed(seed: u64) -> Option<Message> {
    let mut s = seed;
    match mix(&mut s) % 5 {
        0..=2 => None,
        3 => {
            // Truncated frame: announces more bytes than ever arrive,
            // but stays under the frame cap so the server must wait
            // (an over-cap announcement is rejected from the header
            // alone — that's the other tail case).
            let announced = 8 + (mix(&mut s) % 60_000) as u32;
            let sent = (mix(&mut s) as usize) % 16;
            let mut wire = announced.to_be_bytes().to_vec();
            wire.extend(std::iter::repeat_n(b'x', sent.min(announced as usize / 2)));
            Some(Message {
                wire,
                responses: 0,
                closes: true,
            })
        }
        _ => {
            // Oversized announcement past `max_frame_bytes`: one
            // structured 400, then the connection is cut.
            Some(Message {
                wire: u32::MAX.to_be_bytes().to_vec(),
                responses: 1,
                closes: true,
            })
        }
    }
}

/// Sends `bytes` split at the given boundaries, then reads exactly
/// `expected` response frames (as raw bytes) and observes whether the
/// server closes. Returns the raw response payloads in order.
fn exchange(
    addr: std::net::SocketAddr,
    chunks: &[Vec<u8>],
    expected: usize,
    expect_close: bool,
) -> Vec<Vec<u8>> {
    let mut sock = TcpStream::connect(addr).expect("connect");
    sock.set_nodelay(true).unwrap();
    sock.set_read_timeout(Some(Duration::from_secs(20)))
        .unwrap();
    for (i, chunk) in chunks.iter().enumerate() {
        if chunk.is_empty() {
            continue;
        }
        sock.write_all(chunk).expect("write");
        sock.flush().unwrap();
        // A short pause on a few boundaries forces real segmentation
        // (distinct TCP packets), not just vectored userspace writes.
        if i % 3 == 1 {
            std::thread::sleep(Duration::from_millis(1));
        }
    }
    let mut responses = Vec::with_capacity(expected);
    for _ in 0..expected {
        match read_frame(&mut sock, 1 << 20) {
            Ok(Some(payload)) => responses.push(payload),
            other => panic!("expected a response frame, got {other:?}"),
        }
    }
    if expect_close {
        // Half-sent or oversized tail: the server must cut the
        // connection (possibly after its final 400).
        match read_frame(&mut sock, 1 << 20) {
            Ok(None) => {}
            Err(FrameError::Io(_)) => {} // reset also counts as closed
            other => panic!("expected server-side close, got {other:?}"),
        }
    }
    responses
}

/// Normalizes the one timing-dependent response field: `energy_mj`
/// attribution for micro-batched runs is split across whichever jobs
/// the batcher happened to coalesce — outputs are invariant to that
/// partition, the energy split is not. Everything else must still
/// match bit for bit, so responses are re-encoded, in the encoding
/// they arrived in, with the field nulled rather than compared as raw
/// bytes.
fn strip_energy(payloads: &[Vec<u8>]) -> Vec<Vec<u8>> {
    payloads
        .iter()
        .map(|p| {
            let mut resp: Response = parse_message(p).expect("server answers are well-formed");
            resp.energy_mj = None;
            Encoding::of(p).encode(&resp).expect("response re-encodes")
        })
        .collect()
}

fn cut(bytes: &[u8], splits: &[u64]) -> Vec<Vec<u8>> {
    let mut points: Vec<usize> = splits
        .iter()
        .map(|&s| (s as usize) % bytes.len().max(1))
        .collect();
    points.sort_unstable();
    points.dedup();
    let mut chunks = Vec::with_capacity(points.len() + 1);
    let mut prev = 0;
    for p in points {
        chunks.push(bytes[prev..p].to_vec());
        prev = p;
    }
    chunks.push(bytes[prev..].to_vec());
    chunks
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The core invariant: identical inbound bytes — however segmented
    /// — yield byte-identical response streams from both transports.
    fn segmented_streams_get_byte_identical_responses(
        seeds in prop::collection::vec(0u64..u64::MAX, 1..=4),
        binary in prop::collection::vec(prop::sample::select(vec![false, true]), 4),
        tail_seed in 0u64..u64::MAX,
        splits in prop::collection::vec(0u64..u64::MAX, 0..12),
    ) {
        let mut bytes = Vec::new();
        let mut expected = 0usize;
        let mut encodings = Vec::new();
        for (&seed, &bin) in seeds.iter().zip(&binary) {
            let enc = if bin { Encoding::Binary } else { Encoding::Json };
            let msg = message_from_seed(seed, enc);
            bytes.extend_from_slice(&msg.wire);
            expected += msg.responses;
            encodings.push(Encoding::of(&msg.wire[4..]));
        }
        let mut expect_close = false;
        if let Some(t) = tail_from_seed(tail_seed) {
            bytes.extend_from_slice(&t.wire);
            expected += t.responses;
            expect_close = t.closes;
        }
        let chunks = cut(&bytes, &splits);

        // Both servers see the same global request history (the
        // proptest runner is sequential), so compute outputs — which
        // depend on each macro's RNG stream position — stay aligned.
        let from_blocking =
            exchange(blocking_server().local_addr(), &chunks, expected, expect_close);
        let from_reactor =
            exchange(reactor_server().local_addr(), &chunks, expected, expect_close);
        prop_assert_eq!(strip_energy(&from_blocking), strip_energy(&from_reactor));
        // Every generated message is answered in its payload's
        // encoding (the non-UTF-8 frames are JSON by their first byte).
        for (resp, enc) in from_blocking.iter().zip(&encodings) {
            prop_assert_eq!(Encoding::of(resp), *enc);
        }
    }
}
