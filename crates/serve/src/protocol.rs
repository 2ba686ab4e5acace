//! Wire protocol of the AFPR-CIM inference service.
//!
//! # Framing
//!
//! Every message — request or response — is one *frame*:
//!
//! ```text
//! +----------------------+------------------------+
//! | length: u32, BE      | payload: binary | JSON |
//! +----------------------+------------------------+
//! ```
//!
//! The 4-byte big-endian length counts payload bytes only. A peer that
//! closes its socket cleanly between frames produces a clean EOF
//! ([`read_frame`] returns `Ok(None)`); an EOF *inside* a frame is a
//! protocol error. Frames larger than the configured limit are
//! rejected without allocating.
//!
//! # Encodings
//!
//! The first payload byte tells the two [`Encoding`]s apart:
//!
//! - **Binary** — first byte `0x00`, which no JSON text can start
//!   with. Only the data-plane ops (`matvec`, `matvec_partial`,
//!   `forward_batch`, `infer`) and their answers have this form: a
//!   fixed little-endian header, then the present optional fields in
//!   declaration order. Every `f32`/`f64` travels as its raw bits, NaN
//!   and ±Inf included; arrays are a `u32` count then the elements,
//!   strings a `u32` byte length then UTF-8.
//!
//!   ```text
//!   0x00 | kind u8 (0 req, 1 resp) | op/status u8 | id u64
//!        | proto_version u32 | presence u16 | [code u16, resp only] | fields…
//!   ```
//! - **JSON** — one object. Every op has this form, and it is the only
//!   one for the control ops (`health`, `metrics`, `shutdown`,
//!   `register`, `deregister`), whose answers nest whole snapshots.
//!
//! [`encode_message`] picks binary for data-plane requests and JSON for
//! everything else; [`parse_message`] reads either. Servers and routers
//! answer each request in the encoding it arrived in
//! ([`Encoding::of`]), so hand-written JSON clients keep working.
//!
//! # Requests
//!
//! A request names its type in `op` — `"matvec"`, `"forward_batch"`,
//! `"infer"`, `"health"`, `"metrics"` or `"shutdown"` — plus
//! op-specific fields (see [`Request`]). Optional
//! `deadline_ms` gives the server a time budget measured from the
//! moment it reads the frame; requests whose budget has lapsed are
//! rejected before they touch the engine.
//!
//! # Responses
//!
//! Every response carries the request `id`, a [`Status`], and an
//! HTTP-flavored `code` (`200` ok, `400` malformed, `404` unknown
//! model, `503` overloaded / shutting down with `retry_after_ms`,
//! `504` deadline expired). Payload fields (`output`, `outputs`, `metrics`, …) are
//! op-specific and `null` when absent. Malformed *payloads* inside a
//! well-formed frame get a `400` response and the connection stays
//! usable — for a binary payload that is a binary `400` with `id` 0;
//! malformed *framing* (oversized or truncated frames) ends the
//! connection after a best-effort `400`.

use serde::de::DeserializeOwned;
use serde::{de, Deserialize, Deserializer, Serialize, Serializer, Value};
use std::io::{self, Read, Write};

use crate::health::HealthState;

/// Protocol (major) version spoken by this build. Carried in every
/// [`Request`]/[`Response`] as `proto_version` (serde-defaulted to 1
/// when absent, so version-1 peers that predate the field interoperate
/// unchanged) and in [`HealthInfo`]. Servers reject requests whose
/// `proto_version` differs from their own with `400 malformed` — a
/// router↔backend version skew fails loudly at the first frame instead
/// of corrupting results silently.
pub const PROTOCOL_VERSION: u32 = 1;

/// Serde plumbing for the `proto_version` field: serialize as a plain
/// integer, deserialize a *missing* field (`null` in the vendored
/// value model) as version 1 — frames written before the field existed
/// must keep parsing.
pub mod proto_version_wire {
    use serde::{de, Deserializer, Serialize, Serializer, Value};

    /// Serializes the version as a plain integer.
    ///
    /// # Errors
    ///
    /// Propagates serializer errors.
    pub fn serialize<S: Serializer>(v: &u32, s: S) -> Result<S::Ok, S::Error> {
        v.serialize(s)
    }

    /// Deserializes the version; a missing field means version 1.
    ///
    /// # Errors
    ///
    /// Rejects non-integer values.
    pub fn deserialize<'de, D: Deserializer<'de>>(d: D) -> Result<u32, D::Error> {
        match d.take_value()? {
            Value::Null => Ok(1),
            other => serde::de::from_value(other)
                .map_err(|e| <D::Error as de::Error>::custom(e.to_string())),
        }
    }
}

/// Serde plumbing for late-added numeric fields that default to zero
/// when absent (old peers omit them; zero reads as "not advertised").
pub mod u64_zero_wire {
    use serde::{de, Deserializer, Serialize, Serializer, Value};

    /// Serializes the value as a plain integer.
    ///
    /// # Errors
    ///
    /// Propagates serializer errors.
    pub fn serialize<S: Serializer>(v: &u64, s: S) -> Result<S::Ok, S::Error> {
        v.serialize(s)
    }

    /// Deserializes the value; a missing field means zero.
    ///
    /// # Errors
    ///
    /// Rejects non-integer values.
    pub fn deserialize<'de, D: Deserializer<'de>>(d: D) -> Result<u64, D::Error> {
        match d.take_value()? {
            Value::Null => Ok(0),
            other => serde::de::from_value(other)
                .map_err(|e| <D::Error as de::Error>::custom(e.to_string())),
        }
    }
}

/// Serde plumbing for late-added float gauges that default to zero
/// when absent (old peers omit them; zero reads as "not advertised").
pub mod f64_zero_wire {
    use serde::{de, Deserializer, Serialize, Serializer, Value};

    /// Serializes the value as a plain number.
    ///
    /// # Errors
    ///
    /// Propagates serializer errors.
    pub fn serialize<S: Serializer>(v: &f64, s: S) -> Result<S::Ok, S::Error> {
        v.serialize(s)
    }

    /// Deserializes the value; a missing field means zero.
    ///
    /// # Errors
    ///
    /// Rejects non-numeric values.
    pub fn deserialize<'de, D: Deserializer<'de>>(d: D) -> Result<f64, D::Error> {
        match d.take_value()? {
            Value::Null => Ok(0.0),
            other => serde::de::from_value(other)
                .map_err(|e| <D::Error as de::Error>::custom(e.to_string())),
        }
    }
}

/// Default cap on a single frame's payload size (16 MiB).
pub const DEFAULT_MAX_FRAME: usize = 16 << 20;

// ---------------------------------------------------------------------------
// Ops and statuses
// ---------------------------------------------------------------------------

/// Request type. Serialized as its snake_case wire name.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Op {
    /// Single matrix-vector product on the served layer.
    Matvec,
    /// A client-side batch of matvecs, answered as one response.
    ForwardBatch,
    /// Liveness / readiness probe; never touches the admission queue.
    Health,
    /// Returns a [`crate::ServeSnapshot`]; never touches the queue.
    Metrics,
    /// Asks the server to drain in-flight work and stop.
    Shutdown,
    /// Row-range shard of a matvec: the server multiplies only the row
    /// tiles covering `[row_offset, row_offset + input.len())` of the
    /// served layer and returns the **unsummed** per-row-tile partial
    /// sums (each full output width). The caller owns the reduction —
    /// concatenating shard partials in shard order and left-folding
    /// them reproduces the single-node `matvec` result bit-exactly
    /// (the fold order is identical to
    /// `afpr_xbar::PartialSumAdder::sum`).
    MatvecPartial,
    /// Full-network inference through the server's model registry:
    /// `model` names a registered network (`tiny-mlp`, `tiny-resnet`,
    /// `tiny-mobilenet`), `format` selects the macro numeric format
    /// (`e2m5`, `e3m4`, `int8`), and `input` is the flattened input
    /// tensor. Optional `layer_start`/`layer_end` restrict the pass to
    /// a contiguous top-level layer range — the pipeline-placement
    /// building block: streaming `[0, a)` into `[a, layers)` is
    /// bit-identical to the full pass on the same compiled macros.
    Infer,
    /// Membership control op, understood by cluster *routers* only:
    /// asks the router to admit the backend at `backend_addr` into the
    /// serving pool. The router health-probes the address and enforces
    /// the full registry handshake (protocol version, dims,
    /// `row_tile_rows`, model catalog + `registry_seed`) before the
    /// backend sees traffic; a mismatch is refused with `400`.
    /// Backends answer this op with `400 malformed` — registration is
    /// router-level.
    Register,
    /// Membership control op, understood by cluster *routers* only:
    /// removes the backend at `backend_addr` from the serving pool.
    /// In-flight work drains on the old placement; subsequent scatter
    /// rounds use a plan without the backend. Unknown addresses get
    /// `404`. Backends answer this op with `400 malformed`.
    Deregister,
}

impl Op {
    /// All ops, for iteration (metrics tables, request mixes).
    /// `MatvecPartial`, `Infer`, `Register` and `Deregister` are
    /// appended last so the indices of the earlier ops (and their
    /// per-op metric cells) stay stable.
    pub const ALL: [Op; 9] = [
        Op::Matvec,
        Op::ForwardBatch,
        Op::Health,
        Op::Metrics,
        Op::Shutdown,
        Op::MatvecPartial,
        Op::Infer,
        Op::Register,
        Op::Deregister,
    ];

    /// The snake_case name used on the wire.
    #[must_use]
    pub fn wire_name(self) -> &'static str {
        match self {
            Op::Matvec => "matvec",
            Op::ForwardBatch => "forward_batch",
            Op::Health => "health",
            Op::Metrics => "metrics",
            Op::Shutdown => "shutdown",
            Op::MatvecPartial => "matvec_partial",
            Op::Infer => "infer",
            Op::Register => "register",
            Op::Deregister => "deregister",
        }
    }

    /// Parses a wire name.
    #[must_use]
    pub fn from_wire(s: &str) -> Option<Self> {
        Op::ALL.into_iter().find(|op| op.wire_name() == s)
    }

    /// Index into [`Op::ALL`] (stable; used for per-op metric cells).
    #[must_use]
    pub fn index(self) -> usize {
        match self {
            Op::Matvec => 0,
            Op::ForwardBatch => 1,
            Op::Health => 2,
            Op::Metrics => 3,
            Op::Shutdown => 4,
            Op::MatvecPartial => 5,
            Op::Infer => 6,
            Op::Register => 7,
            Op::Deregister => 8,
        }
    }

    /// Whether the op carries tensors (`matvec`, `forward_batch`,
    /// `matvec_partial`, `infer`) and so has a binary encoding. The
    /// others are control ops and speak JSON only.
    #[must_use]
    pub fn is_data_plane(self) -> bool {
        matches!(
            self,
            Op::Matvec | Op::ForwardBatch | Op::MatvecPartial | Op::Infer
        )
    }
}

impl std::fmt::Display for Op {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.wire_name())
    }
}

// The vendored derive shim serializes unit enums as their Rust variant
// names; the wire protocol wants snake_case, so these two impls are
// manual.
impl Serialize for Op {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        serializer.serialize_value(Value::Str(self.wire_name().to_string()))
    }
}

impl Deserialize for Op {
    fn deserialize<'de, D: Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
        match d.take_value()? {
            Value::Str(s) => Op::from_wire(&s)
                .ok_or_else(|| <D::Error as de::Error>::custom(format!("unknown op `{s}`"))),
            other => Err(<D::Error as de::Error>::custom(de::type_error(
                "op string",
                &other,
            ))),
        }
    }
}

/// Response status. Serialized as its snake_case wire name; its binary
/// status byte is the declaration index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Status {
    /// Request served.
    Ok,
    /// Admission queue full — retry after `retry_after_ms`.
    Overloaded,
    /// The request's `deadline_ms` budget lapsed before execution.
    DeadlineExpired,
    /// Unparseable or invalid request.
    Malformed,
    /// Server is draining; no new work is admitted.
    ShuttingDown,
    /// The request names a model the server does not know (`infer`
    /// with an unregistered model name).
    NotFound,
    /// The request's estimated energy exceeds its `energy_budget_mj`
    /// and the client did not opt into a format downshift. The
    /// response's `error` text carries the estimate; re-submit with a
    /// larger budget, no budget, or `allow_downshift: true`.
    OverBudget,
}

impl Status {
    const ALL: [Status; 7] = [
        Status::Ok,
        Status::Overloaded,
        Status::DeadlineExpired,
        Status::Malformed,
        Status::ShuttingDown,
        Status::NotFound,
        Status::OverBudget,
    ];

    /// The snake_case name used on the wire.
    #[must_use]
    pub fn wire_name(self) -> &'static str {
        match self {
            Status::Ok => "ok",
            Status::Overloaded => "overloaded",
            Status::DeadlineExpired => "deadline_expired",
            Status::Malformed => "malformed",
            Status::ShuttingDown => "shutting_down",
            Status::NotFound => "not_found",
            Status::OverBudget => "over_budget",
        }
    }

    /// Parses a wire name.
    #[must_use]
    pub fn from_wire(s: &str) -> Option<Self> {
        Status::ALL.into_iter().find(|st| st.wire_name() == s)
    }

    /// The HTTP-flavored numeric code paired with this status.
    #[must_use]
    pub fn code(self) -> u16 {
        match self {
            Status::Ok => 200,
            Status::Malformed => 400,
            Status::NotFound => 404,
            Status::OverBudget => 429,
            Status::Overloaded | Status::ShuttingDown => 503,
            Status::DeadlineExpired => 504,
        }
    }
}

impl std::fmt::Display for Status {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.wire_name())
    }
}

impl Serialize for Status {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        serializer.serialize_value(Value::Str(self.wire_name().to_string()))
    }
}

impl Deserialize for Status {
    fn deserialize<'de, D: Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
        match d.take_value()? {
            Value::Str(s) => Status::from_wire(&s)
                .ok_or_else(|| <D::Error as de::Error>::custom(format!("unknown status `{s}`"))),
            other => Err(<D::Error as de::Error>::custom(de::type_error(
                "status string",
                &other,
            ))),
        }
    }
}

// ---------------------------------------------------------------------------
// Request / response payloads
// ---------------------------------------------------------------------------

/// A request frame payload.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Request {
    /// Request type.
    pub op: Op,
    /// Caller-chosen id, echoed in the response (pipelining aid).
    pub id: u64,
    /// Protocol version of the sender ([`PROTOCOL_VERSION`]). Absent
    /// in frames from version-1 peers that predate the field; parses
    /// as 1. Servers reject mismatches with `400 malformed`.
    #[serde(with = "proto_version_wire")]
    pub proto_version: u32,
    /// Optional time budget in milliseconds, measured from the moment
    /// the server reads the frame. Expired requests are rejected with
    /// [`Status::DeadlineExpired`] before touching the engine.
    pub deadline_ms: Option<u64>,
    /// `matvec`: the input vector (length must equal the layer's `k`).
    /// `matvec_partial`: the shard's slice of the input vector.
    pub input: Option<Vec<f32>>,
    /// `forward_batch`: the input vectors.
    pub inputs: Option<Vec<Vec<f32>>>,
    /// `matvec_partial`: first input row covered by this shard. Must
    /// be a multiple of the layer's row-tile height (see
    /// [`HealthInfo::row_tile_rows`]).
    pub row_offset: Option<u64>,
    /// `matvec_partial`: optional redundant row count; when present it
    /// must equal `input.len()` (cheap consistency check for routers
    /// that plan shards separately from payload assembly).
    pub rows: Option<u64>,
    /// `infer`: registered model name (`tiny-mlp`, `tiny-resnet`,
    /// `tiny-mobilenet`). Unknown names get `404 not_found`.
    pub model: Option<String>,
    /// `infer`: macro numeric format (`e2m5`, `e3m4`, `int8`).
    /// Defaults to `e2m5` when absent; unknown strings get `400`.
    pub format: Option<String>,
    /// `infer`: first top-level layer of the pass (inclusive).
    /// Defaults to 0. Used by pipeline routers to place a stage.
    pub layer_start: Option<u64>,
    /// `infer`: one past the last top-level layer of the pass.
    /// Defaults to the model's layer count.
    pub layer_end: Option<u64>,
    /// `register`/`deregister`: the backend's listening address
    /// (`host:port`) as the router should dial it. Absent on every
    /// other op (and on frames from peers that predate elastic
    /// membership).
    pub backend_addr: Option<String>,
    /// Optional energy budget in millijoules. When the server's cost
    /// model estimates the request above this budget, the request is
    /// rejected with [`Status::OverBudget`] (429) — or, when
    /// `allow_downshift` is set, executed in the INT8 baseline format
    /// with the chosen format echoed in the response. Must be finite
    /// and positive; hostile values get `400 malformed`. Absent on
    /// frames from peers that predate the power subsystem.
    pub energy_budget_mj: Option<f64>,
    /// `infer`: opt-in consent for the server to downshift an
    /// over-budget FP-format request to the INT8 baseline instead of
    /// rejecting it. Never assumed — a downshift only happens when
    /// this is explicitly `true`.
    pub allow_downshift: Option<bool>,
}

impl Request {
    /// A bare request with no payload or deadline.
    #[must_use]
    pub fn new(op: Op, id: u64) -> Self {
        Self {
            op,
            id,
            proto_version: PROTOCOL_VERSION,
            deadline_ms: None,
            input: None,
            inputs: None,
            row_offset: None,
            rows: None,
            model: None,
            format: None,
            layer_start: None,
            layer_end: None,
            backend_addr: None,
            energy_budget_mj: None,
            allow_downshift: None,
        }
    }

    /// A `matvec` request.
    #[must_use]
    pub fn matvec(id: u64, input: Vec<f32>) -> Self {
        Self {
            input: Some(input),
            ..Self::new(Op::Matvec, id)
        }
    }

    /// A `forward_batch` request.
    #[must_use]
    pub fn forward_batch(id: u64, inputs: Vec<Vec<f32>>) -> Self {
        Self {
            inputs: Some(inputs),
            ..Self::new(Op::ForwardBatch, id)
        }
    }

    /// A `matvec_partial` request for the shard starting at input row
    /// `row_offset` whose slice of the input vector is `input`.
    #[must_use]
    pub fn matvec_partial(id: u64, row_offset: u64, input: Vec<f32>) -> Self {
        Self {
            row_offset: Some(row_offset),
            rows: Some(input.len() as u64),
            input: Some(input),
            ..Self::new(Op::MatvecPartial, id)
        }
    }

    /// An `infer` request: run `model` end-to-end in `format` on the
    /// flattened `input` tensor.
    #[must_use]
    pub fn infer(
        id: u64,
        model: impl Into<String>,
        format: impl Into<String>,
        input: Vec<f32>,
    ) -> Self {
        Self {
            model: Some(model.into()),
            format: Some(format.into()),
            input: Some(input),
            ..Self::new(Op::Infer, id)
        }
    }

    /// A `register` request: ask a router to admit the backend
    /// listening at `backend_addr` into its serving pool.
    #[must_use]
    pub fn register(id: u64, backend_addr: impl Into<String>) -> Self {
        Self {
            backend_addr: Some(backend_addr.into()),
            ..Self::new(Op::Register, id)
        }
    }

    /// A `deregister` request: ask a router to remove the backend at
    /// `backend_addr` from its serving pool.
    #[must_use]
    pub fn deregister(id: u64, backend_addr: impl Into<String>) -> Self {
        Self {
            backend_addr: Some(backend_addr.into()),
            ..Self::new(Op::Deregister, id)
        }
    }

    /// Restricts an `infer` request to top-level layers
    /// `[start, end)` — the pipeline-stage form; `input` must then be
    /// the activation entering layer `start`.
    #[must_use]
    pub fn with_layer_range(mut self, start: u64, end: u64) -> Self {
        self.layer_start = Some(start);
        self.layer_end = Some(end);
        self
    }

    /// Sets the deadline budget.
    #[must_use]
    pub fn with_deadline_ms(mut self, ms: u64) -> Self {
        self.deadline_ms = Some(ms);
        self
    }

    /// Sets the energy budget in millijoules.
    #[must_use]
    pub fn with_energy_budget_mj(mut self, mj: f64) -> Self {
        self.energy_budget_mj = Some(mj);
        self
    }

    /// Opts into (or out of) automatic format downshift for
    /// over-budget `infer` requests.
    #[must_use]
    pub fn with_downshift(mut self, allow: bool) -> Self {
        self.allow_downshift = Some(allow);
        self
    }
}

/// Model shape and liveness info returned by `health`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HealthInfo {
    /// Protocol version ([`PROTOCOL_VERSION`]).
    pub protocol: u32,
    /// Served layer input dimension.
    pub input_dim: u64,
    /// Served layer output dimension.
    pub output_dim: u64,
    /// Items currently waiting in the admission queue.
    pub queue_depth: u64,
    /// Admission queue capacity.
    pub queue_capacity: u64,
    /// Whether the server is draining.
    pub shutting_down: bool,
    /// Current health state (`healthy`, `degraded`, `draining`).
    pub state: HealthState,
    /// Cumulative fault-evidence events the health machine has seen.
    pub fault_events: u64,
    /// Height (in input rows) of one row tile of the served layer —
    /// the alignment unit for `matvec_partial` shard boundaries. Zero
    /// when the server predates the field (or does not advertise it);
    /// routers must not shard against such a backend.
    #[serde(with = "u64_zero_wire")]
    pub row_tile_rows: u64,
    /// Model registry inventory: one entry per `(model, format)` pair
    /// with shape facts and live counters. `None` when the server has
    /// no registry attached (or predates the field); pipeline routers
    /// refuse to start against such a backend.
    pub models: Option<Vec<afpr_models::ModelEntrySnapshot>>,
    /// The registry's weight/programming seed. Equal seeds ⇒
    /// bit-identical compiled models, so pipeline routers require it
    /// to agree across all backends (the static inventory alone can't
    /// reveal diverging weights). `None` without a registry (or on
    /// pre-field frames).
    pub registry_seed: Option<u64>,
    /// Windowed average analog power of this server in milliwatts
    /// (energy accumulated since the previous health probe, over the
    /// probe interval). Zero when the server predates the field or has
    /// served nothing since the last probe. A live *gauge*, not an
    /// identity fact — deliberately excluded from the cluster
    /// fingerprint handshake.
    #[serde(with = "f64_zero_wire")]
    pub power_mw: f64,
}

/// A response frame payload.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Response {
    /// Echo of the request id (0 when the request was unparseable).
    pub id: u64,
    /// Outcome.
    pub status: Status,
    /// HTTP-flavored numeric code (`200`/`400`/`503`/`504`).
    pub code: u16,
    /// Protocol version of the responder ([`PROTOCOL_VERSION`]);
    /// parses as 1 when absent (version-1 peers predate the field).
    #[serde(with = "proto_version_wire")]
    pub proto_version: u32,
    /// `matvec` result.
    pub output: Option<Vec<f32>>,
    /// `forward_batch` results.
    pub outputs: Option<Vec<Vec<f32>>>,
    /// `matvec_partial` result: unsummed per-row-tile partial sums,
    /// each the full output width, in row-tile order.
    pub partials: Option<Vec<Vec<f32>>>,
    /// Suggested backoff before retrying (set on `503 overloaded`).
    pub retry_after_ms: Option<u64>,
    /// Human-readable error detail for non-`ok` statuses.
    pub error: Option<String>,
    /// `health` payload.
    pub health: Option<HealthInfo>,
    /// `metrics` / `shutdown` payload: full serving metrics snapshot.
    pub metrics: Option<crate::metrics::ServeSnapshot>,
    /// Energy attributed to executing this request, in millijoules
    /// (`matvec` / `forward_batch` / `matvec_partial` / `infer` only;
    /// absent from peers that predate the power subsystem).
    pub energy_mj: Option<f64>,
    /// `infer`: the macro numeric format the request actually ran in —
    /// equal to the requested format unless the server downshifted an
    /// over-budget request with the client's consent.
    pub format: Option<String>,
}

impl Response {
    /// A bare response with the given status (code derived).
    #[must_use]
    pub fn new(id: u64, status: Status) -> Self {
        Self {
            id,
            status,
            code: status.code(),
            proto_version: PROTOCOL_VERSION,
            output: None,
            outputs: None,
            partials: None,
            retry_after_ms: None,
            error: None,
            health: None,
            metrics: None,
            energy_mj: None,
            format: None,
        }
    }

    /// An `ok` response.
    #[must_use]
    pub fn ok(id: u64) -> Self {
        Self::new(id, Status::Ok)
    }

    /// An error response with detail text.
    #[must_use]
    pub fn error(id: u64, status: Status, detail: impl Into<String>) -> Self {
        Self {
            error: Some(detail.into()),
            ..Self::new(id, status)
        }
    }

    /// Whether the status is [`Status::Ok`].
    #[must_use]
    pub fn is_ok(&self) -> bool {
        self.status == Status::Ok
    }
}

// ---------------------------------------------------------------------------
// Framing
// ---------------------------------------------------------------------------

/// How many consecutive zero-progress read timeouts are tolerated
/// *inside* a frame before the peer is declared stalled. With the
/// server's default 20 ms read timeout this bounds a mid-frame stall
/// at ~10 s, so a half-sent frame can never pin a connection worker
/// forever.
pub const MID_FRAME_STALL_LIMIT: u32 = 500;

/// Framing-layer failure modes.
#[derive(Debug)]
pub enum FrameError {
    /// Underlying socket error. Read timeouts on an *idle* connection
    /// (zero bytes of the next frame consumed) surface here as
    /// `WouldBlock`/`TimedOut` — check [`FrameError::is_timeout`] and
    /// poll again.
    Io(io::Error),
    /// The peer closed the stream in the middle of a frame.
    TruncatedEof {
        /// Bytes read before EOF.
        got: usize,
        /// Bytes the frame announced.
        expected: usize,
    },
    /// The announced payload length exceeds the configured cap.
    TooLarge {
        /// Announced payload length.
        announced: usize,
        /// Configured cap.
        max: usize,
    },
    /// The peer stopped sending mid-frame for longer than
    /// [`MID_FRAME_STALL_LIMIT`] consecutive read timeouts.
    Stalled {
        /// Bytes of the frame received before the stall.
        got: usize,
    },
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Io(e) => write!(f, "frame i/o error: {e}"),
            FrameError::TruncatedEof { got, expected } => {
                write!(f, "eof inside frame: got {got} of {expected} bytes")
            }
            FrameError::TooLarge { announced, max } => {
                write!(f, "frame of {announced} bytes exceeds cap of {max}")
            }
            FrameError::Stalled { got } => {
                write!(f, "peer stalled mid-frame after {got} bytes")
            }
        }
    }
}

impl std::error::Error for FrameError {}

impl From<io::Error> for FrameError {
    fn from(e: io::Error) -> Self {
        FrameError::Io(e)
    }
}

impl FrameError {
    /// Whether this is a read timeout on an idle connection (no frame
    /// bytes consumed) — poll again rather than failing.
    #[must_use]
    pub fn is_timeout(&self) -> bool {
        matches!(self, FrameError::Io(e) if is_timeout_kind(e))
    }
}

/// Reads one length-prefixed frame.
///
/// Returns `Ok(None)` on clean EOF (peer closed between frames).
///
/// Timeout semantics (for sockets with a read timeout set): a timeout
/// with **zero** bytes of the frame consumed surfaces as
/// [`FrameError::Io`] with [`FrameError::is_timeout`] true — the
/// connection is merely idle; poll again. Once the first header byte
/// has arrived the read becomes *patient*: timeouts are retried until
/// either progress resumes or [`MID_FRAME_STALL_LIMIT`] consecutive
/// zero-progress timeouts elapse, which yields
/// [`FrameError::Stalled`]. This keeps framing state consistent across
/// poll loops — a frame is consumed either fully or not at all (modulo
/// a stalled/declared-dead peer).
///
/// # Errors
///
/// [`FrameError::TooLarge`] when the announced length exceeds `max`
/// (nothing beyond the header is consumed), [`FrameError::TruncatedEof`]
/// when the peer closes mid-frame, [`FrameError::Stalled`] when the
/// peer goes quiet mid-frame, [`FrameError::Io`] for socket errors and
/// idle timeouts.
pub fn read_frame<R: Read>(r: &mut R, max: usize) -> Result<Option<Vec<u8>>, FrameError> {
    read_frame_with_budget(r, max, None)
}

/// [`read_frame`] with a wall-clock cap on assembling one frame.
///
/// The stall-counter guard alone is not slowloris-proof: a hostile
/// client that trickles one byte just inside every
/// [`MID_FRAME_STALL_LIMIT`] window resets the counter forever and
/// pins a worker thread. With a `budget`, a clock starts at the first
/// byte of each frame (header included); if the frame has not fully
/// arrived when the budget lapses, the read fails with
/// [`FrameError::Stalled`] regardless of trickle progress. Idle
/// connections are unaffected — the clock only runs mid-frame.
///
/// # Errors
///
/// As [`read_frame`], plus [`FrameError::Stalled`] when `budget`
/// elapses mid-frame.
pub fn read_frame_with_budget<R: Read>(
    r: &mut R,
    max: usize,
    budget: Option<std::time::Duration>,
) -> Result<Option<Vec<u8>>, FrameError> {
    let mut assembly_deadline: Option<std::time::Instant> = None;
    let mut header = [0u8; 4];
    match read_exact_or_eof(r, &mut header, true, budget, &mut assembly_deadline)? {
        ReadOutcome::CleanEof => return Ok(None),
        ReadOutcome::Truncated(got) => return Err(FrameError::TruncatedEof { got, expected: 4 }),
        ReadOutcome::Full => {}
    }
    let len = u32::from_be_bytes(header) as usize;
    if len > max {
        return Err(FrameError::TooLarge {
            announced: len,
            max,
        });
    }
    let mut payload = vec![0u8; len];
    match read_exact_or_eof(r, &mut payload, false, budget, &mut assembly_deadline) {
        Ok(ReadOutcome::Full) => Ok(Some(payload)),
        Ok(ReadOutcome::CleanEof | ReadOutcome::Truncated(_)) => Err(FrameError::TruncatedEof {
            got: 0,
            expected: len,
        }),
        Err(FrameError::Stalled { got }) => Err(FrameError::Stalled { got: got + 4 }),
        Err(e) => Err(e),
    }
}

enum ReadOutcome {
    Full,
    CleanEof,
    Truncated(usize),
}

/// Returns whether the error is a read-timeout kind.
fn is_timeout_kind(e: &io::Error) -> bool {
    e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut
}

/// `read_exact` that distinguishes EOF-at-zero-bytes from
/// EOF-mid-buffer and implements the idle/patient timeout split:
/// `idle_ok` surfaces a zero-progress timeout immediately (header of
/// the *next* frame — the connection is just idle); otherwise timeouts
/// are retried until [`MID_FRAME_STALL_LIMIT`] pass without progress.
fn read_exact_or_eof<R: Read>(
    r: &mut R,
    buf: &mut [u8],
    idle_ok: bool,
    budget: Option<std::time::Duration>,
    assembly_deadline: &mut Option<std::time::Instant>,
) -> Result<ReadOutcome, FrameError> {
    let mut filled = 0usize;
    let mut stalls = 0u32;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) => {
                return Ok(if filled == 0 {
                    ReadOutcome::CleanEof
                } else {
                    ReadOutcome::Truncated(filled)
                });
            }
            Ok(n) => {
                filled += n;
                stalls = 0;
                // The frame-assembly clock starts at the first byte of
                // the frame and runs across header + payload.
                if assembly_deadline.is_none() {
                    *assembly_deadline = budget.map(|b| std::time::Instant::now() + b);
                }
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) if is_timeout_kind(&e) => {
                if idle_ok && filled == 0 && assembly_deadline.is_none() {
                    return Err(FrameError::Io(e));
                }
                if assembly_deadline.is_some_and(|d| std::time::Instant::now() >= d) {
                    return Err(FrameError::Stalled { got: filled });
                }
                stalls += 1;
                if stalls >= MID_FRAME_STALL_LIMIT {
                    return Err(FrameError::Stalled { got: filled });
                }
            }
            Err(e) => return Err(FrameError::Io(e)),
        }
    }
    Ok(ReadOutcome::Full)
}

/// Writes one length-prefixed frame.
///
/// # Errors
///
/// Propagates socket errors; fails with `InvalidInput` if the payload
/// exceeds `u32::MAX` bytes.
pub fn write_frame<W: Write>(w: &mut W, payload: &[u8]) -> io::Result<()> {
    let len = u32::try_from(payload.len())
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidInput, "frame exceeds u32::MAX"))?;
    w.write_all(&len.to_be_bytes())?;
    w.write_all(payload)?;
    w.flush()
}

/// Encodes a message in its default [`Encoding`] and writes it as one
/// frame.
///
/// # Errors
///
/// Propagates socket errors and [`encode_message`] failures.
pub fn write_message<W: Write, T: Message>(w: &mut W, msg: &T) -> io::Result<()> {
    write_frame(w, &encode_message(msg)?)
}

/// Encodes a message to the exact bytes `write_message` would frame:
/// binary for a data-plane [`Request`], JSON for everything else.
///
/// # Errors
///
/// See [`Encoding::encode`].
pub fn encode_message<T: Message>(msg: &T) -> io::Result<Vec<u8>> {
    msg.encoding().encode(msg)
}

/// Parses a frame payload as a message, in whichever [`Encoding`] it
/// arrived.
///
/// # Errors
///
/// Returns the parse error text: malformed JSON or non-UTF-8 text, or
/// a binary payload that is truncated, overruns the frame, has
/// trailing bytes, names an unknown or control op or an unknown status,
/// or carries invalid UTF-8.
pub fn parse_message<T: Message>(payload: &[u8]) -> Result<T, String> {
    match Encoding::of(payload) {
        Encoding::Binary => T::decode_binary(payload),
        Encoding::Json => {
            let text =
                std::str::from_utf8(payload).map_err(|e| format!("payload is not UTF-8: {e}"))?;
            serde_json::from_str(text).map_err(|e| e.to_string())
        }
    }
}

// ---------------------------------------------------------------------------
// Encodings
// ---------------------------------------------------------------------------

/// First payload byte of a binary frame. No JSON text starts with it.
pub const BINARY_MAGIC: u8 = 0x00;

/// Payload encoding of one frame (see the module docs for the layout).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Encoding {
    /// One JSON object: every op, and the only form of control ops.
    Json,
    /// Fixed little-endian layout with raw float bits: data-plane
    /// messages only.
    Binary,
}

impl Encoding {
    /// The encoding a received payload is in — the one its answer
    /// must use.
    #[must_use]
    pub fn of(payload: &[u8]) -> Self {
        if payload.first() == Some(&BINARY_MAGIC) {
            Encoding::Binary
        } else {
            Encoding::Json
        }
    }

    /// Encodes `msg` in this encoding. Both transports encode their
    /// answers here, which is what makes their responses byte-identical.
    ///
    /// # Errors
    ///
    /// `InvalidData` when the message has no binary form (a control op,
    /// a response nesting a snapshot, or more than `u32::MAX` bytes),
    /// or when JSON serialization fails.
    pub fn encode<T: Message>(self, msg: &T) -> io::Result<Vec<u8>> {
        let invalid = |e: String| io::Error::new(io::ErrorKind::InvalidData, e);
        match self {
            Encoding::Json => serde_json::to_string(msg)
                .map(String::into_bytes)
                .map_err(|e| invalid(e.to_string())),
            Encoding::Binary => msg
                .encode_binary()
                .ok_or_else(|| invalid("message has no binary form".to_string())),
        }
    }

    /// Encodes `msg` in this encoding and writes it as one frame.
    ///
    /// # Errors
    ///
    /// As [`Encoding::encode`], plus socket errors.
    pub fn write<W: Write, T: Message>(self, w: &mut W, msg: &T) -> io::Result<()> {
        write_frame(w, &self.encode(msg)?)
    }
}

mod sealed {
    pub trait Sealed {}
    impl Sealed for super::Request {}
    impl Sealed for super::Response {}
}

/// A wire message — [`Request`] or [`Response`]. Sealed: the binary
/// layout is defined for exactly these two types.
pub trait Message: sealed::Sealed + Serialize + DeserializeOwned {
    /// The encoding [`encode_message`] uses: binary for data-plane
    /// requests, JSON otherwise.
    fn encoding(&self) -> Encoding;

    /// The binary payload, or `None` when the message has no binary
    /// form.
    fn encode_binary(&self) -> Option<Vec<u8>>;

    /// Decodes a binary payload (first byte [`BINARY_MAGIC`]).
    ///
    /// # Errors
    ///
    /// Describes the first malformation found.
    fn decode_binary(payload: &[u8]) -> Result<Self, String>;
}

const KIND_REQUEST: u8 = 0;
const KIND_RESPONSE: u8 = 1;
/// Offset of the `u16` presence mask: magic, kind, tag, id, version.
const PRESENCE_AT: usize = 3 + 8 + 4;
/// Optional fields of each kind, in wire (declaration) order.
const REQUEST_FIELDS: u32 = 12;
const RESPONSE_FIELDS: u32 = 7;

impl Message for Request {
    fn encoding(&self) -> Encoding {
        if self.op.is_data_plane() {
            Encoding::Binary
        } else {
            Encoding::Json
        }
    }

    fn encode_binary(&self) -> Option<Vec<u8>> {
        if !self.op.is_data_plane() {
            return None;
        }
        let mut w = BinWriter::new(
            KIND_REQUEST,
            self.op.index() as u8,
            self.id,
            self.proto_version,
        );
        w.opt(self.deadline_ms.as_ref(), BinWriter::u64);
        w.opt(self.input.as_deref(), BinWriter::f32s);
        w.opt(self.inputs.as_deref(), BinWriter::rows);
        w.opt(self.row_offset.as_ref(), BinWriter::u64);
        w.opt(self.rows.as_ref(), BinWriter::u64);
        w.opt(self.model.as_deref(), BinWriter::string);
        w.opt(self.format.as_deref(), BinWriter::string);
        w.opt(self.layer_start.as_ref(), BinWriter::u64);
        w.opt(self.layer_end.as_ref(), BinWriter::u64);
        w.opt(self.backend_addr.as_deref(), BinWriter::string);
        w.opt(self.energy_budget_mj.as_ref(), BinWriter::f64);
        w.opt(self.allow_downshift.as_ref(), BinWriter::bool);
        w.finish()
    }

    fn decode_binary(payload: &[u8]) -> Result<Self, String> {
        let (mut r, tag, id, proto_version) =
            BinReader::open(payload, KIND_REQUEST, REQUEST_FIELDS)?;
        let op = Op::ALL
            .get(usize::from(tag))
            .copied()
            .filter(|op| op.is_data_plane())
            .ok_or_else(|| format!("binary frame carries op byte {tag}, not a data-plane op"))?;
        let req = Request {
            op,
            id,
            proto_version,
            deadline_ms: r.opt(BinReader::u64)?,
            input: r.opt(BinReader::f32s)?,
            inputs: r.opt(BinReader::rows)?,
            row_offset: r.opt(BinReader::u64)?,
            rows: r.opt(BinReader::u64)?,
            model: r.opt(BinReader::string)?,
            format: r.opt(BinReader::string)?,
            layer_start: r.opt(BinReader::u64)?,
            layer_end: r.opt(BinReader::u64)?,
            backend_addr: r.opt(BinReader::string)?,
            energy_budget_mj: r.opt(BinReader::f64)?,
            allow_downshift: r.opt(BinReader::bool)?,
        };
        r.finish()?;
        Ok(req)
    }
}

impl Message for Response {
    fn encoding(&self) -> Encoding {
        Encoding::Json
    }

    fn encode_binary(&self) -> Option<Vec<u8>> {
        if self.health.is_some() || self.metrics.is_some() {
            return None;
        }
        let mut w = BinWriter::new(
            KIND_RESPONSE,
            self.status as u8,
            self.id,
            self.proto_version,
        );
        w.fixed(&self.code.to_le_bytes());
        w.opt(self.output.as_deref(), BinWriter::f32s);
        w.opt(self.outputs.as_deref(), BinWriter::rows);
        w.opt(self.partials.as_deref(), BinWriter::rows);
        w.opt(self.retry_after_ms.as_ref(), BinWriter::u64);
        w.opt(self.error.as_deref(), BinWriter::string);
        w.opt(self.energy_mj.as_ref(), BinWriter::f64);
        w.opt(self.format.as_deref(), BinWriter::string);
        w.finish()
    }

    fn decode_binary(payload: &[u8]) -> Result<Self, String> {
        let (mut r, tag, id, proto_version) =
            BinReader::open(payload, KIND_RESPONSE, RESPONSE_FIELDS)?;
        let status = Status::ALL
            .get(usize::from(tag))
            .copied()
            .ok_or_else(|| format!("binary frame carries unknown status byte {tag}"))?;
        let resp = Response {
            id,
            status,
            code: u16::from_le_bytes(r.array()?),
            proto_version,
            output: r.opt(BinReader::f32s)?,
            outputs: r.opt(BinReader::rows)?,
            partials: r.opt(BinReader::rows)?,
            retry_after_ms: r.opt(BinReader::u64)?,
            error: r.opt(BinReader::string)?,
            health: None,
            metrics: None,
            energy_mj: r.opt(BinReader::f64)?,
            format: r.opt(BinReader::string)?,
        };
        r.finish()?;
        Ok(resp)
    }
}

/// Appends one binary payload: the header, then each optional field
/// that is present, recording it in the presence mask.
struct BinWriter {
    out: Vec<u8>,
    presence: u16,
    next_bit: u32,
}

impl BinWriter {
    /// Starts a payload with the header; the presence mask is filled
    /// in by `finish`.
    fn new(kind: u8, tag: u8, id: u64, proto_version: u32) -> Self {
        let mut out = Vec::with_capacity(64);
        out.extend_from_slice(&[BINARY_MAGIC, kind, tag]);
        out.extend_from_slice(&id.to_le_bytes());
        out.extend_from_slice(&proto_version.to_le_bytes());
        out.extend_from_slice(&[0, 0]);
        Self {
            out,
            presence: 0,
            next_bit: 0,
        }
    }

    fn fixed(&mut self, bytes: &[u8]) {
        self.out.extend_from_slice(bytes);
    }

    fn opt<T: ?Sized>(&mut self, value: Option<&T>, put: fn(&mut Self, &T)) {
        if let Some(v) = value {
            self.presence |= 1 << self.next_bit;
            put(self, v);
        }
        self.next_bit += 1;
    }

    /// A count or byte length. One that exceeds `u32::MAX` also makes
    /// the payload exceed it, which `finish` refuses.
    fn len(&mut self, n: usize) {
        self.fixed(&(n as u32).to_le_bytes());
    }

    fn u64(&mut self, v: &u64) {
        self.fixed(&v.to_le_bytes());
    }

    fn f64(&mut self, v: &f64) {
        self.fixed(&v.to_le_bytes());
    }

    fn bool(&mut self, v: &bool) {
        self.fixed(&[u8::from(*v)]);
    }

    fn f32s(&mut self, xs: &[f32]) {
        self.len(xs.len());
        self.out.reserve(4 * xs.len());
        for x in xs {
            self.fixed(&x.to_le_bytes());
        }
    }

    fn rows(&mut self, rows: &[Vec<f32>]) {
        self.len(rows.len());
        for row in rows {
            self.f32s(row);
        }
    }

    fn string(&mut self, s: &str) {
        self.len(s.len());
        self.fixed(s.as_bytes());
    }

    fn finish(mut self) -> Option<Vec<u8>> {
        self.out[PRESENCE_AT..PRESENCE_AT + 2].copy_from_slice(&self.presence.to_le_bytes());
        u32::try_from(self.out.len()).ok().map(|_| self.out)
    }
}

/// Reads one binary payload front to back. Every read is bounds-checked
/// against what is left of the frame, and every count is checked
/// against the bytes that could hold it before anything is allocated.
struct BinReader<'a> {
    rest: &'a [u8],
    presence: u16,
    next_bit: u32,
}

impl<'a> BinReader<'a> {
    /// Reads the header of a `kind` payload with `fields` optional
    /// fields; returns the reader positioned at the first field, plus
    /// the tag byte, id and proto version.
    fn open(payload: &'a [u8], kind: u8, fields: u32) -> Result<(Self, u8, u64, u32), String> {
        let mut r = Self {
            rest: payload,
            presence: 0,
            next_bit: 0,
        };
        let [magic, got_kind, tag] = r.array()?;
        if magic != BINARY_MAGIC || got_kind != kind {
            return Err(format!(
                "binary frame has kind byte {got_kind}, expected {kind}"
            ));
        }
        let id = u64::from_le_bytes(r.array()?);
        let version = u32::from_le_bytes(r.array()?);
        r.presence = u16::from_le_bytes(r.array()?);
        if r.presence >> fields != 0 {
            return Err(format!(
                "binary frame sets unknown field bits {:#06x}",
                r.presence
            ));
        }
        Ok((r, tag, id, version))
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], String> {
        if n > self.rest.len() {
            return Err(format!(
                "binary frame truncated: field needs {n} bytes, {} left",
                self.rest.len()
            ));
        }
        let (head, tail) = self.rest.split_at(n);
        self.rest = tail;
        Ok(head)
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], String> {
        Ok(self.take(N)?.try_into().expect("take returned N bytes"))
    }

    fn opt<T>(&mut self, read: fn(&mut Self) -> Result<T, String>) -> Result<Option<T>, String> {
        let present = self.presence >> self.next_bit & 1 == 1;
        self.next_bit += 1;
        if present {
            read(self).map(Some)
        } else {
            Ok(None)
        }
    }

    /// A count of elements at least `unit` bytes each, refused if the
    /// rest of the frame cannot hold that many.
    fn count(&mut self, unit: usize) -> Result<usize, String> {
        let n = u32::from_le_bytes(self.array()?) as usize;
        match n.checked_mul(unit) {
            Some(bytes) if bytes <= self.rest.len() => Ok(n),
            _ => Err(format!(
                "binary count {n} overruns the frame ({} bytes left)",
                self.rest.len()
            )),
        }
    }

    fn u64(&mut self) -> Result<u64, String> {
        self.array().map(u64::from_le_bytes)
    }

    fn f64(&mut self) -> Result<f64, String> {
        self.array().map(f64::from_le_bytes)
    }

    fn bool(&mut self) -> Result<bool, String> {
        match self.array::<1>()? {
            [0] => Ok(false),
            [1] => Ok(true),
            [b] => Err(format!("binary bool byte {b} is neither 0 nor 1")),
        }
    }

    fn f32s(&mut self) -> Result<Vec<f32>, String> {
        let n = self.count(4)?;
        let bytes = self.take(n * 4)?;
        Ok(bytes
            .chunks_exact(4)
            .map(|c| f32::from_le_bytes(c.try_into().expect("chunks of 4")))
            .collect())
    }

    fn rows(&mut self) -> Result<Vec<Vec<f32>>, String> {
        // Each row spends at least its own 4-byte count.
        let n = self.count(4)?;
        (0..n).map(|_| self.f32s()).collect()
    }

    fn string(&mut self) -> Result<String, String> {
        let n = self.count(1)?;
        std::str::from_utf8(self.take(n)?)
            .map(str::to_owned)
            .map_err(|e| format!("binary string is not UTF-8: {e}"))
    }

    fn finish(self) -> Result<(), String> {
        if self.rest.is_empty() {
            Ok(())
        } else {
            Err(format!(
                "binary frame has {} trailing bytes",
                self.rest.len()
            ))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_and_status_wire_names_round_trip() {
        for op in Op::ALL {
            assert_eq!(Op::from_wire(op.wire_name()), Some(op));
            assert_eq!(Op::ALL[op.index()], op);
            let json = serde_json::to_string(&op).unwrap();
            assert_eq!(json, format!("\"{}\"", op.wire_name()));
            let back: Op = serde_json::from_str(&json).unwrap();
            assert_eq!(back, op);
        }
        for st in Status::ALL {
            let json = serde_json::to_string(&st).unwrap();
            let back: Status = serde_json::from_str(&json).unwrap();
            assert_eq!(back, st);
        }
        assert!(
            Op::from_wire("Matvec").is_none(),
            "wire names are snake_case"
        );
    }

    #[test]
    fn status_codes_follow_http_convention() {
        assert_eq!(Status::Ok.code(), 200);
        assert_eq!(Status::Malformed.code(), 400);
        assert_eq!(Status::NotFound.code(), 404);
        assert_eq!(Status::Overloaded.code(), 503);
        assert_eq!(Status::ShuttingDown.code(), 503);
        assert_eq!(Status::DeadlineExpired.code(), 504);
    }

    #[test]
    fn request_round_trips_with_optional_fields_omitted() {
        let req = Request::matvec(7, vec![1.0, -2.5]).with_deadline_ms(30);
        let json = serde_json::to_string(&req).unwrap();
        assert!(json.contains("\"op\":\"matvec\""), "{json}");
        let back: Request = serde_json::from_str(&json).unwrap();
        assert_eq!(back, req);

        // Minimal hand-written request: missing optional fields parse
        // as None, and a missing proto_version reads as version 1 —
        // frames from peers that predate the field stay valid.
        let back: Request = serde_json::from_str("{\"op\":\"health\",\"id\":3}").unwrap();
        assert_eq!(back.op, Op::Health);
        assert_eq!(back.id, 3);
        assert_eq!(back.proto_version, 1, "old frames default to version 1");
        assert_eq!(back.deadline_ms, None);
        assert_eq!(back.input, None);
        assert_eq!(back.row_offset, None);
    }

    #[test]
    fn proto_version_defaults_and_round_trips() {
        let req = Request::matvec(1, vec![1.0]);
        assert_eq!(req.proto_version, PROTOCOL_VERSION);
        let json = serde_json::to_string(&req).unwrap();
        assert!(json.contains("\"proto_version\":1"), "{json}");
        let back: Request = serde_json::from_str(&json).unwrap();
        assert_eq!(back.proto_version, PROTOCOL_VERSION);

        // Explicit future version survives the round trip (the server,
        // not the parser, rejects it).
        let back: Request =
            serde_json::from_str("{\"op\":\"health\",\"id\":1,\"proto_version\":9}").unwrap();
        assert_eq!(back.proto_version, 9);

        // Responses carry the version too, defaulting the same way.
        let resp = Response::ok(1);
        assert_eq!(resp.proto_version, PROTOCOL_VERSION);
        let back: Response =
            serde_json::from_str("{\"id\":1,\"status\":\"ok\",\"code\":200}").unwrap();
        assert_eq!(back.proto_version, 1);

        // Non-integer versions are rejected, not defaulted.
        assert!(serde_json::from_str::<Request>(
            "{\"op\":\"health\",\"id\":1,\"proto_version\":\"two\"}"
        )
        .is_err());
    }

    #[test]
    fn matvec_partial_request_round_trips() {
        let req = Request::matvec_partial(11, 576, vec![0.5, -0.25, 8.0]);
        assert_eq!(req.op, Op::MatvecPartial);
        assert_eq!(req.row_offset, Some(576));
        assert_eq!(req.rows, Some(3));
        let json = serde_json::to_string(&req).unwrap();
        assert!(json.contains("\"op\":\"matvec_partial\""), "{json}");
        let back: Request = serde_json::from_str(&json).unwrap();
        assert_eq!(back, req);

        let mut resp = Response::ok(11);
        resp.partials = Some(vec![vec![1.0f32, -2.5e-20], vec![3.0, 4.0]]);
        let json = serde_json::to_string(&resp).unwrap();
        let back: Response = serde_json::from_str(&json).unwrap();
        let (a, b) = (
            resp.partials.as_ref().unwrap(),
            back.partials.as_ref().unwrap(),
        );
        assert_eq!(a.len(), b.len());
        for (pa, pb) in a.iter().zip(b) {
            for (x, y) in pa.iter().zip(pb) {
                assert_eq!(x.to_bits(), y.to_bits());
            }
        }
    }

    #[test]
    fn health_info_row_tile_rows_defaults_to_zero() {
        let json = "{\"protocol\":1,\"input_dim\":576,\"output_dim\":256,\
                    \"queue_depth\":0,\"queue_capacity\":64,\
                    \"shutting_down\":false,\"state\":\"healthy\",\
                    \"fault_events\":0}";
        let info: HealthInfo = serde_json::from_str(json).unwrap();
        assert_eq!(
            info.row_tile_rows, 0,
            "old servers that do not advertise a tile height read as 0"
        );
        assert_eq!(
            info.models, None,
            "old servers that predate the registry read as no inventory"
        );
    }

    #[test]
    fn infer_request_round_trips() {
        let req = Request::infer(21, "tiny-resnet", "e3m4", vec![0.5; 4]).with_layer_range(2, 5);
        assert_eq!(req.op, Op::Infer);
        let json = serde_json::to_string(&req).unwrap();
        assert!(json.contains("\"op\":\"infer\""), "{json}");
        assert!(json.contains("\"model\":\"tiny-resnet\""), "{json}");
        let back: Request = serde_json::from_str(&json).unwrap();
        assert_eq!(back, req);

        // Minimal infer: model only, everything else defaulted.
        let back: Request =
            serde_json::from_str("{\"op\":\"infer\",\"id\":2,\"model\":\"tiny-mlp\"}").unwrap();
        assert_eq!(back.model.as_deref(), Some("tiny-mlp"));
        assert_eq!(back.format, None);
        assert_eq!(back.layer_start, None);
        assert_eq!(back.layer_end, None);
    }

    #[test]
    fn register_and_deregister_round_trip() {
        let req = Request::register(31, "127.0.0.1:9000");
        assert_eq!(req.op, Op::Register);
        assert_eq!(req.backend_addr.as_deref(), Some("127.0.0.1:9000"));
        let json = serde_json::to_string(&req).unwrap();
        assert!(json.contains("\"op\":\"register\""), "{json}");
        let back: Request = serde_json::from_str(&json).unwrap();
        assert_eq!(back, req);

        let req = Request::deregister(32, "127.0.0.1:9000");
        assert_eq!(req.op, Op::Deregister);
        let json = serde_json::to_string(&req).unwrap();
        assert!(json.contains("\"op\":\"deregister\""), "{json}");
        let back: Request = serde_json::from_str(&json).unwrap();
        assert_eq!(back, req);

        // Frames that predate the field parse with no backend_addr.
        let back: Request = serde_json::from_str("{\"op\":\"health\",\"id\":3}").unwrap();
        assert_eq!(back.backend_addr, None);
    }

    #[test]
    fn response_round_trips_bit_exactly() {
        let mut resp = Response::ok(9);
        resp.output = Some(vec![0.1f32, -1.5e-30, 3.25]);
        let json = serde_json::to_string(&resp).unwrap();
        let back: Response = serde_json::from_str(&json).unwrap();
        for (a, b) in resp
            .output
            .as_ref()
            .unwrap()
            .iter()
            .zip(back.output.as_ref().unwrap())
        {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        assert_eq!(back.status, Status::Ok);
        assert_eq!(back.code, 200);
    }

    #[test]
    fn frame_round_trip_and_clean_eof() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        write_frame(&mut buf, b"").unwrap();
        let mut cur = std::io::Cursor::new(buf);
        assert_eq!(
            read_frame(&mut cur, 64).unwrap().as_deref(),
            Some(&b"hello"[..])
        );
        assert_eq!(read_frame(&mut cur, 64).unwrap().as_deref(), Some(&b""[..]));
        assert!(read_frame(&mut cur, 64).unwrap().is_none(), "clean EOF");
    }

    #[test]
    fn oversized_frame_is_rejected_without_reading_payload() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&u32::MAX.to_be_bytes());
        let mut cur = std::io::Cursor::new(buf);
        match read_frame(&mut cur, 1024) {
            Err(FrameError::TooLarge { announced, max }) => {
                assert_eq!(announced, u32::MAX as usize);
                assert_eq!(max, 1024);
            }
            other => panic!("expected TooLarge, got {other:?}"),
        }
    }

    #[test]
    fn truncated_frame_is_an_error() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&8u32.to_be_bytes());
        buf.extend_from_slice(b"abc"); // 3 of 8 payload bytes
        let mut cur = std::io::Cursor::new(buf);
        assert!(matches!(
            read_frame(&mut cur, 64),
            Err(FrameError::TruncatedEof { .. })
        ));

        // Truncated header.
        let mut cur = std::io::Cursor::new(vec![0u8, 0]);
        assert!(matches!(
            read_frame(&mut cur, 64),
            Err(FrameError::TruncatedEof {
                got: 2,
                expected: 4
            })
        ));
    }

    #[test]
    fn parse_message_reports_garbage() {
        assert!(parse_message::<Request>(b"{not json").is_err());
        assert!(parse_message::<Request>(&[0xff, 0xfe]).is_err());
        assert!(parse_message::<Request>(b"{\"op\":\"bogus\",\"id\":1}").is_err());
    }

    #[test]
    fn encode_message_matches_write_message_bytes() {
        let mut resp = Response::ok(5);
        resp.output = Some(vec![1.5f32, -2.0e-12]);
        let encoded = encode_message(&resp).unwrap();
        let mut framed = Vec::new();
        write_message(&mut framed, &resp).unwrap();
        assert_eq!(&framed[..4], (encoded.len() as u32).to_be_bytes());
        assert_eq!(&framed[4..], &encoded[..]);
    }

    #[test]
    fn default_encoding_is_binary_only_for_data_plane_requests() {
        for op in Op::ALL {
            let req = Request::new(op, 1);
            let bytes = encode_message(&req).unwrap();
            assert_eq!(Encoding::of(&bytes), req.encoding(), "{op}");
            if op.is_data_plane() {
                assert_eq!(bytes[0], BINARY_MAGIC, "{op}");
            } else {
                assert_eq!(bytes[0], b'{', "{op}");
                assert!(
                    Encoding::Binary.encode(&req).is_err(),
                    "{op} has no binary form"
                );
            }
        }
        // Responses default to JSON; snapshot-carrying ones have no
        // binary form.
        assert_eq!(encode_message(&Response::ok(1)).unwrap()[0], b'{');
        let mut resp = Response::ok(1);
        let runtime = std::sync::Arc::new(afpr_runtime::RuntimeMetrics::new());
        resp.metrics = Some(crate::metrics::ServeMetrics::new(runtime).snapshot());
        assert!(Encoding::Binary.encode(&resp).is_err());
    }

    #[test]
    fn binary_header_layout_is_pinned() {
        let req = Request::matvec(0x0102_0304_0506_0708, vec![1.0, f32::NAN]);
        let bytes = Encoding::Binary.encode(&req).unwrap();
        let mut want = vec![BINARY_MAGIC, KIND_REQUEST, Op::Matvec.index() as u8];
        want.extend_from_slice(&0x0102_0304_0506_0708u64.to_le_bytes());
        want.extend_from_slice(&PROTOCOL_VERSION.to_le_bytes());
        want.extend_from_slice(&0b10u16.to_le_bytes()); // `input` only
        want.extend_from_slice(&2u32.to_le_bytes());
        want.extend_from_slice(&1.0f32.to_le_bytes());
        want.extend_from_slice(&f32::NAN.to_le_bytes());
        assert_eq!(bytes, want);

        let resp = Response::error(9, Status::OverBudget, "x");
        let bytes = Encoding::Binary.encode(&resp).unwrap();
        assert_eq!(&bytes[..3], &[BINARY_MAGIC, KIND_RESPONSE, 6]);
        assert_eq!(
            &bytes[PRESENCE_AT + 2..PRESENCE_AT + 4],
            &429u16.to_le_bytes()
        );
        for (i, st) in Status::ALL.into_iter().enumerate() {
            assert_eq!(st as usize, i, "status byte is the ALL index");
        }
    }

    #[test]
    fn binary_carries_non_finite_floats_bit_exactly() {
        let odd = [
            f32::NAN,
            f32::from_bits(0x7fc0_1234),
            f32::from_bits(0xffa0_0001),
            f32::INFINITY,
            f32::NEG_INFINITY,
            -0.0,
            f32::from_bits(1),
            f32::MAX,
        ];
        let mut resp = Response::ok(3);
        resp.output = Some(odd.to_vec());
        resp.partials = Some(vec![odd.to_vec(), Vec::new()]);
        resp.energy_mj = Some(f64::NAN);
        let back: Response = parse_message(&Encoding::Binary.encode(&resp).unwrap()).unwrap();
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(back.output.as_ref().unwrap()), bits(&odd));
        assert_eq!(bits(&back.partials.as_ref().unwrap()[0]), bits(&odd));
        assert!(back.partials.as_ref().unwrap()[1].is_empty());
        assert_eq!(back.energy_mj.unwrap().to_bits(), f64::NAN.to_bits());
    }

    /// Every way a binary payload can lie is refused with an error —
    /// no panic, and no allocation beyond what the payload holds.
    #[test]
    fn hostile_binary_payloads_are_refused() {
        let mut req = Request::infer(5, "tiny-mlp", "int8", vec![0.5; 3]);
        req.inputs = Some(vec![vec![1.0; 2]; 2]);
        req.allow_downshift = Some(true);
        let good = Encoding::Binary.encode(&req).unwrap();
        assert_eq!(parse_message::<Request>(&good).unwrap(), req);

        // Every strict prefix is truncated somewhere.
        for cut in 0..good.len() {
            assert!(parse_message::<Request>(&good[..cut]).is_err(), "cut {cut}");
        }
        // Trailing bytes.
        let mut long = good.clone();
        long.push(0);
        assert!(parse_message::<Request>(&long)
            .unwrap_err()
            .contains("trailing"));

        // Field offsets in `good`: header (17), input count at 17.
        let input_count = PRESENCE_AT + 2;
        let patched = |at: usize, bytes: &[u8]| {
            let mut p = good.clone();
            p[at..at + bytes.len()].copy_from_slice(bytes);
            p
        };
        for count in [4u32, 1 << 20, u32::MAX] {
            let e = parse_message::<Request>(&patched(input_count, &count.to_le_bytes()));
            assert!(e.is_err(), "input count {count}");
        }
        // Nested count overrunning the frame.
        let rows_count = input_count + 4 + 3 * 4;
        let e = parse_message::<Request>(&patched(rows_count, &u32::MAX.to_le_bytes()));
        assert!(e.unwrap_err().contains("overruns"));
        // Unknown op byte, and a control op sent as binary.
        for op in [
            9u8,
            200,
            Op::Health.index() as u8,
            Op::Register.index() as u8,
        ] {
            let e = parse_message::<Request>(&patched(2, &[op])).unwrap_err();
            assert!(e.contains("op byte"), "{op}: {e}");
        }
        // Unknown presence bits.
        let e = parse_message::<Request>(&patched(PRESENCE_AT, &0xf000u16.to_le_bytes()));
        assert!(e.unwrap_err().contains("unknown field bits"));
        // Invalid UTF-8 inside `model` (its bytes follow its length).
        let model_at = good
            .windows(8)
            .position(|w| w == b"tiny-mlp")
            .expect("model bytes present");
        let e = parse_message::<Request>(&patched(model_at, &[0xff]));
        assert!(e.unwrap_err().contains("UTF-8"));
        // A bool byte other than 0/1 (the last byte of the payload).
        let e = parse_message::<Request>(&patched(good.len() - 1, &[2]));
        assert!(e.unwrap_err().contains("bool"));
        // A response where a request is expected, and vice versa.
        let resp = Encoding::Binary.encode(&Response::ok(1)).unwrap();
        assert!(parse_message::<Request>(&resp).is_err());
        assert!(parse_message::<Response>(&good).is_err());
        // Unknown status byte.
        let mut bad_status = resp.clone();
        bad_status[2] = 7;
        assert!(parse_message::<Response>(&bad_status)
            .unwrap_err()
            .contains("status byte"));
    }

    #[test]
    fn half_written_frame_fails_within_assembly_budget() {
        use std::io::Write as _;
        use std::net::{TcpListener, TcpStream};
        use std::time::{Duration, Instant};

        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut client = TcpStream::connect(addr).unwrap();
        let (server, _) = listener.accept().unwrap();
        server
            .set_read_timeout(Some(Duration::from_millis(5)))
            .unwrap();

        // Slowloris: announce a 64-byte payload, then trickle a byte
        // every ~30 ms — each arrival resets the stall counter, so the
        // counter alone would keep this reader pinned for minutes.
        let writer = std::thread::spawn(move || {
            client.write_all(&64u32.to_be_bytes()).unwrap();
            client.write_all(b"abc").unwrap(); // half-written frame
            loop {
                std::thread::sleep(Duration::from_millis(30));
                if client.write_all(b"x").is_err() {
                    return; // reader gave up and closed
                }
            }
        });

        let mut reader = std::io::BufReader::new(server);
        let t0 = Instant::now();
        let result = read_frame_with_budget(&mut reader, 64, Some(Duration::from_millis(150)));
        let elapsed = t0.elapsed();
        assert!(
            matches!(result, Err(FrameError::Stalled { .. })),
            "expected Stalled, got {result:?}"
        );
        assert!(
            elapsed < Duration::from_secs(2),
            "budget should cut the stall off quickly, took {elapsed:?}"
        );
        drop(reader);
        writer.join().unwrap();
    }

    /// Both encodings decode every data-plane message to an equal
    /// value. Floats are finite here because JSON cannot carry NaN or
    /// ±Inf; `binary_carries_non_finite_floats_bit_exactly` covers
    /// those.
    mod both_encodings {
        use super::super::*;
        use proptest::prelude::*;

        fn finite(bits: u32) -> f32 {
            let x = f32::from_bits(bits);
            if x.is_finite() {
                x
            } else {
                bits as f32
            }
        }

        fn rows(floats: &[f32], lens: &[usize]) -> Vec<Vec<f32>> {
            lens.iter()
                .map(|&n| floats.iter().copied().cycle().take(n).collect())
                .collect()
        }

        fn check<T: Message + PartialEq + std::fmt::Debug>(
            msg: &T,
        ) -> Result<(), proptest::test_runner::TestCaseError> {
            let json = Encoding::Json.encode(msg).unwrap();
            let binary = Encoding::Binary.encode(msg).unwrap();
            prop_assert_eq!(Encoding::of(&json), Encoding::Json);
            prop_assert_eq!(Encoding::of(&binary), Encoding::Binary);
            prop_assert_eq!(&parse_message::<T>(&json).unwrap(), msg);
            let back = parse_message::<T>(&binary).unwrap();
            prop_assert_eq!(&back, msg);
            prop_assert_eq!(Encoding::Binary.encode(&back).unwrap(), binary);
            Ok(())
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]

            fn data_plane_messages_decode_equal_from_both_encodings(
                tag in 0usize..7,
                mask in 0u32..1 << REQUEST_FIELDS,
                id in 0u64..=u64::MAX,
                bits in prop::collection::vec(0u32..=u32::MAX, 0..24),
                lens in prop::collection::vec(0usize..6, 0..4),
                text in prop::sample::select(vec!["", "tiny-mlp", "e3m4", "é🦀", "q\"b\\s\n\t"]),
                num in 0u64..=u64::MAX,
                real in -1e300f64..1e300,
            ) {
                let floats: Vec<f32> = bits.iter().map(|&b| finite(b)).collect();
                let has = |bit: u32| mask >> bit & 1 == 1;
                let data_plane = [Op::Matvec, Op::ForwardBatch, Op::MatvecPartial, Op::Infer];
                let req = Request {
                    deadline_ms: has(0).then_some(num),
                    input: has(1).then(|| floats.clone()),
                    inputs: has(2).then(|| rows(&floats, &lens)),
                    row_offset: has(3).then_some(num / 3),
                    rows: has(4).then_some(num / 5),
                    model: has(5).then(|| text.to_string()),
                    format: has(6).then(|| text.to_string()),
                    layer_start: has(7).then_some(num / 7),
                    layer_end: has(8).then_some(num / 11),
                    backend_addr: has(9).then(|| text.to_string()),
                    energy_budget_mj: has(10).then_some(real),
                    allow_downshift: has(11).then_some(num.is_multiple_of(2)),
                    ..Request::new(data_plane[tag % 4], id)
                };
                check(&req)?;

                let status = Status::ALL[tag];
                let resp = Response {
                    code: if num.is_multiple_of(4) { num as u16 } else { status.code() },
                    output: has(0).then(|| floats.clone()),
                    outputs: has(1).then(|| rows(&floats, &lens)),
                    partials: has(2).then(|| rows(&floats, &lens[lens.len() / 2..])),
                    retry_after_ms: has(3).then_some(num),
                    error: has(4).then(|| text.to_string()),
                    energy_mj: has(5).then_some(real),
                    format: has(6).then(|| text.to_string()),
                    ..Response::new(id, status)
                };
                check(&resp)?;
            }
        }
    }
}
