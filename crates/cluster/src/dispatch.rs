//! The router's per-request policy, written once and driven by both
//! transports.
//!
//! [`admit`] turns a decoded request into either an answer to send now
//! (control ops and rejections) or a [`Machine`]: **Single** forwards
//! to the least-outstanding live replica with failover, **Scatter**
//! runs sharded scatter rounds and the bit-exact reduction, and
//! **Pipeline** streams `infer` activations stage to stage. A machine
//! does no I/O and reads no clock. Its driver feeds it events, each
//! with the current instant, and the machine answers with the next
//! [`Step`]:
//!
//! ```text
//!  request ─▶ admit ─▶ Machine ── next ─────────────────▶ Send { shard, backend }
//!                        ▲                                 Wait
//!                        └── on_response / on_transport_fail ─▶ Done(response)
//! ```
//!
//! The blocking worker drives a machine with a synchronous loop over
//! its backend connections, the reactor from its pooled upstream
//! connections. A driver owns the sockets and attempt timeouts, the
//! dispatch accounting (`begin_dispatch`/`finish_dispatch`) and, when a
//! machine finishes with sub-calls still [owed](Machine::owed), dropping
//! their connections so a late response is never read as another
//! request's. Everything else — replica picks and tried lists,
//! ejection, retry hints, energy credits, partial-shape checks, the
//! shard-order reduction and every response text — lives here, so the
//! two transports answer byte-identically.

use std::sync::Arc;
use std::time::{Duration, Instant};

use afpr_runtime::RejectReason;
use afpr_serve::{Op, Request, Response, Status, MAX_DEADLINE_MS, PROTOCOL_VERSION};
use afpr_xbar::PartialSumAdder;

use crate::backend::BackendState;
use crate::plan::{PipelinePlan, ReplicatedShardPlan};
use crate::router::{handle_deregister, handle_register, Placement, RouterShared};

/// What [`admit`] makes of a request.
// A machine is moved once, into its driver; boxing it would allocate
// once per request on the replicated path.
#[allow(clippy::large_enum_variant)]
pub(crate) enum Admit {
    /// Answer now: a control op's reply or a rejection.
    Reply(Box<Response>),
    /// Drive this machine to its response.
    Run(Machine),
}

/// What a machine asks its driver to do next.
// A finished request hands its response over by value; boxing it would
// allocate once per request on the replicated path.
#[allow(clippy::large_enum_variant)]
#[derive(Debug)]
pub(crate) enum Step {
    /// Write [`Machine::sub_request`] for `shard` to `backend`, then
    /// ask [`Machine::next`] again.
    Send {
        shard: usize,
        backend: Arc<BackendState>,
    },
    /// Every sub-call is written; feed the next response or failure.
    Wait,
    /// The request is answered. Sub-calls still [owed](Machine::owed)
    /// are the driver's to abandon.
    Done(Response),
}

/// One admitted compute request in flight.
pub(crate) struct Machine {
    id: u64,
    deadline: Option<Instant>,
    kind: Kind,
}

enum Kind {
    /// Replicated forwarding with failover (replicated placement, and
    /// non-`infer` ops under pipeline placement).
    Single {
        req: Request,
        /// Slots already tried (and ejected) by this request; the pool
        /// can grow concurrently, so exclusion is a slot list, not a
        /// bitmap sized at entry.
        excluded: Vec<usize>,
        owed: bool,
    },
    /// Sharded scatter-gather, one round per input, strictly in input
    /// order: each backend then serves its shards in input order,
    /// which keeps every macro's RNG stream aligned with the
    /// single-node `forward_batch` path.
    Scatter {
        /// `matvec` answers its one output, `forward_batch` the batch.
        op: Op,
        inputs: Vec<Vec<f32>>,
        outputs: Vec<Vec<f32>>,
        /// The plan of the round in flight, captured at round start: a
        /// concurrent rebalance swaps the *next* round's plan, never
        /// this one's. `None` between rounds.
        plan: Option<Arc<ReplicatedShardPlan>>,
        /// Per shard of the round in flight, in shard order.
        shards: Vec<ShardRound>,
    },
    /// Staged `infer` under pipeline placement.
    Pipeline {
        model: String,
        format: String,
        plan: PipelinePlan,
        stage: usize,
        activation: Vec<f32>,
        owed: bool,
    },
}

/// One shard's progress through a scatter round.
#[derive(Default)]
struct ShardRound {
    /// Replicas already tried (and ejected) this round.
    tried: Vec<usize>,
    owed: bool,
    /// The shard's unsummed per-row-tile partials, once answered.
    gathered: Option<Vec<Vec<f32>>>,
}

/// The synchronous half of dispatch: the version gate, control ops,
/// draining, deadline parsing, placement routing and input validation.
/// `now` is when the request's frame was read. The one socket it can
/// touch is a `register`'s join probe, which the membership handler
/// in `router` runs.
pub(crate) fn admit(shared: &RouterShared, req: Request, now: Instant) -> Admit {
    if req.proto_version != PROTOCOL_VERSION {
        return reply(shared.reject_malformed(
            req.id,
            format!(
                "unsupported protocol version {} (router speaks {PROTOCOL_VERSION})",
                req.proto_version
            ),
        ));
    }
    match req.op {
        Op::Health => {
            let mut resp = Response::ok(req.id);
            resp.health = Some(shared.health_info());
            reply(resp)
        }
        Op::Metrics => {
            let mut resp = Response::ok(req.id);
            resp.metrics = Some(shared.metrics.snapshot());
            reply(resp)
        }
        Op::Shutdown => {
            shared.begin_shutdown();
            let mut resp = Response::ok(req.id);
            resp.metrics = Some(shared.metrics.snapshot());
            reply(resp)
        }
        Op::Register => reply(handle_register(shared, &req)),
        Op::Deregister => reply(handle_deregister(shared, &req)),
        Op::Matvec | Op::ForwardBatch | Op::MatvecPartial | Op::Infer => {
            match machine(shared, req, now) {
                Ok(machine) => Admit::Run(machine),
                Err(resp) => Admit::Reply(resp),
            }
        }
    }
}

fn reply(resp: Response) -> Admit {
    Admit::Reply(Box::new(resp))
}

/// Admits a compute op: a machine, or the rejection to send now.
fn machine(shared: &RouterShared, req: Request, now: Instant) -> Result<Machine, Box<Response>> {
    let id = req.id;
    if shared.is_shutting_down() {
        return Err(Box::new(Response::error(
            id,
            Status::ShuttingDown,
            "router is draining",
        )));
    }
    let deadline = parse_deadline(shared, &req, now)?;
    let malformed = |detail: String| Box::new(shared.reject_malformed(id, detail));
    let kind = match (shared.cfg.placement, req.op) {
        // Pipeline placement stages `infer`; every other compute op
        // still has the full layer on each backend.
        (Placement::Pipeline, Op::Infer) => staged(shared, req)?,
        (Placement::Replicated | Placement::Pipeline, _) => Kind::Single {
            req,
            excluded: Vec::new(),
            owed: false,
        },
        (Placement::Sharded, Op::Matvec) => {
            let Some(input) = req.input else {
                return Err(malformed("matvec requires `input`".into()));
            };
            if input.len() != shared.k {
                return Err(malformed(format!(
                    "input has length {}, served layer expects {}",
                    input.len(),
                    shared.k
                )));
            }
            scatter(Op::Matvec, vec![input])
        }
        (Placement::Sharded, Op::ForwardBatch) => {
            let Some(inputs) = req.inputs else {
                return Err(malformed("forward_batch requires `inputs`".into()));
            };
            // Like a single backend, reject the whole batch before any
            // of it is computed.
            if let Some((i, input)) = inputs.iter().enumerate().find(|(_, x)| x.len() != shared.k) {
                return Err(malformed(format!(
                    "input {i} has length {}, served layer expects {}",
                    input.len(),
                    shared.k
                )));
            }
            scatter(Op::ForwardBatch, inputs)
        }
        (Placement::Sharded, Op::MatvecPartial) => {
            return Err(malformed(
                "matvec_partial is a backend-level op; the sharded router owns shard planning"
                    .into(),
            ));
        }
        (Placement::Sharded, Op::Infer) => {
            return Err(malformed(
                "infer is not available in sharded placement; deploy the cluster with \
                 `pipeline` (staged layers) or `replicated` placement"
                    .into(),
            ));
        }
        _ => unreachable!("compute ops only"),
    };
    Ok(Machine { id, deadline, kind })
}

fn scatter(op: Op, inputs: Vec<Vec<f32>>) -> Kind {
    Kind::Scatter {
        op,
        inputs,
        outputs: Vec::new(),
        plan: None,
        shards: Vec::new(),
    }
}

/// Validates a pipelined `infer` against the startup catalog and splits
/// the model's top-level layers over the backends ([`PipelinePlan`]).
///
/// Bit-identity: stage boundaries are top-level layer boundaries, the
/// exact points where the single-node forward materializes an
/// activation tensor, and every backend compiled the same models from
/// the same seed — so the staged result equals a single-node `infer`
/// bit for bit.
fn staged(shared: &RouterShared, req: Request) -> Result<Kind, Box<Response>> {
    let id = req.id;
    let malformed = |detail: String| Box::new(shared.reject_malformed(id, detail));
    let Some(model) = req.model else {
        return Err(malformed("infer requires `model`".into()));
    };
    let Some(input) = req.input else {
        return Err(malformed("infer requires `input`".into()));
    };
    if req.layer_start.is_some() || req.layer_end.is_some() {
        return Err(malformed(
            "layer_start/layer_end are stage-level fields; the pipeline router owns \
             layer planning"
                .into(),
        ));
    }
    let Some(entry) = shared.catalog.iter().find(|m| m.model == model) else {
        // Unknown model: a 404, not a malformed request — routers and
        // retry layers treat it as non-retryable.
        let mut names: Vec<&str> = shared.catalog.iter().map(|m| m.model.as_str()).collect();
        names.dedup();
        return Err(Box::new(Response::error(
            id,
            Status::NotFound,
            format!("unknown model {model:?} (registered: {})", names.join(", ")),
        )));
    };
    let format = req.format.unwrap_or_else(|| "e2m5".to_string());
    if !shared
        .catalog
        .iter()
        .any(|m| m.model == model && m.format == format)
    {
        return Err(malformed(format!(
            "unknown format {format:?} (expected e2m5, e3m4 or int8)"
        )));
    }
    if input.len() as u64 != entry.input_len {
        return Err(malformed(format!(
            "input has length {}, model {model} expects {}",
            input.len(),
            entry.input_len
        )));
    }
    let plan = PipelinePlan::compute(entry.layers as usize, shared.pool.len())
        .map_err(|e| malformed(format!("model {model}: {e}")))?;
    Ok(Kind::Pipeline {
        model,
        format,
        plan,
        stage: 0,
        activation: input,
        owed: false,
    })
}

impl Machine {
    /// The next thing to do. The first call starts the machine; after
    /// a [`Step::Send`] the following call yields the next send, or
    /// [`Step::Wait`] once every owed sub-call is written.
    pub(crate) fn next(&mut self, shared: &RouterShared, now: Instant) -> Step {
        let (id, deadline) = (self.id, self.deadline);
        match &mut self.kind {
            Kind::Single { excluded, owed, .. } => {
                if *owed {
                    return Step::Wait;
                }
                if let Some(resp) = deadline_expired(shared, id, deadline, now) {
                    return Step::Done(resp);
                }
                match shared.pool.pick_replica(excluded) {
                    Some(backend) => {
                        *owed = true;
                        Step::Send { shard: 0, backend }
                    }
                    None if excluded.is_empty() => Step::Done(unavailable(
                        shared,
                        id,
                        "no live replica available; retry shortly",
                    )),
                    None => Step::Done(unavailable(
                        shared,
                        id,
                        "every replica failed this request; retry shortly",
                    )),
                }
            }
            Kind::Scatter {
                op,
                inputs,
                outputs,
                plan,
                shards,
            } => loop {
                let Some(round) = plan.as_deref() else {
                    if outputs.len() == inputs.len() {
                        let mut resp = Response::ok(id);
                        if *op == Op::Matvec {
                            resp.output = outputs.pop();
                        } else {
                            resp.outputs = Some(std::mem::take(outputs));
                        }
                        return Step::Done(resp);
                    }
                    let Some(next) = shared.current_view().plan.clone() else {
                        return Step::Done(unavailable(
                            shared,
                            id,
                            "no eligible backend for sharded placement; retry shortly",
                        ));
                    };
                    *shards = next.shards.iter().map(|_| ShardRound::default()).collect();
                    *plan = Some(next);
                    continue;
                };
                // Dispatch in shard order: the least-outstanding
                // untried live replica of each shard not yet owed.
                if let Some(si) = shards.iter().position(|s| !s.owed && s.gathered.is_none()) {
                    if let Some(resp) = deadline_expired(shared, id, deadline, now) {
                        return Step::Done(resp);
                    }
                    let shard = &mut shards[si];
                    return match shared
                        .pool
                        .pick_among(&round.shards[si].replicas, &shard.tried)
                    {
                        Some(backend) => {
                            shard.owed = true;
                            Step::Send { shard: si, backend }
                        }
                        // Every replica of the shard is dead: no
                        // failover target until the prober (or a
                        // register) brings one back.
                        None => Step::Done(unavailable(
                            shared,
                            id,
                            format!("shard {si} has no live replica; retry shortly"),
                        )),
                    };
                }
                if shards.iter().any(|s| s.owed) {
                    return Step::Wait;
                }
                // Reduce: concatenating the unsummed partials in shard
                // order rebuilds the single-node row-tile sequence, and
                // `sum_into` is its left fold — bit-identical to
                // `AfprAccelerator::matvec`, whatever the arrival order.
                let parts: Vec<&[f32]> = shards
                    .iter()
                    .flat_map(|s| s.gathered.as_deref().expect("every shard gathered"))
                    .map(Vec::as_slice)
                    .collect();
                let mut output = Vec::with_capacity(shared.n);
                PartialSumAdder::new().sum_into(&parts, &mut output);
                outputs.push(output);
                *plan = None;
            },
            Kind::Pipeline {
                model,
                plan,
                stage,
                activation,
                owed,
                ..
            } => {
                if *owed {
                    return Step::Wait;
                }
                match plan.stages.get(*stage) {
                    Some(s) => {
                        *owed = true;
                        Step::Send {
                            shard: 0,
                            backend: shared.pool.get(s.backend),
                        }
                    }
                    None => {
                        shared.metrics.record_infer(model);
                        let mut resp = Response::ok(id);
                        resp.output = Some(std::mem::take(activation));
                        Step::Done(resp)
                    }
                }
            }
        }
    }

    /// The sub-call for `shard` was answered by the backend at `slot`.
    pub(crate) fn on_response(
        &mut self,
        shared: &RouterShared,
        shard: usize,
        slot: usize,
        resp: Response,
        now: Instant,
    ) -> Step {
        if resp.status == Status::Overloaded {
            if let Some(ms) = resp.retry_after_ms {
                shared.pool.get(slot).note_retry_after(ms);
            }
        }
        let id = self.id;
        match &mut self.kind {
            Kind::Single { req, owed, .. } => {
                *owed = false;
                if let Some(mj) = resp.energy_mj {
                    shared.metrics.record_energy_mj(
                        resp.format.as_deref(),
                        req.model.as_deref(),
                        mj,
                    );
                }
                return Step::Done(resp);
            }
            Kind::Scatter { plan, shards, .. } => {
                shards[shard].owed = false;
                if resp.status != Status::Ok {
                    return Step::Done(forward_rejection(shared, id, "shard", shard, slot, &resp));
                }
                // Each shard meters its own slice of the matvec; the
                // router ledger sums them per scatter round.
                if let Some(mj) = resp.energy_mj {
                    shared.metrics.record_energy_mj(None, None, mj);
                }
                let tiles = plan.as_ref().expect("a round is in flight").shards[shard].tiles;
                match resp.partials {
                    Some(p) if p.len() == tiles && p.iter().all(|t| t.len() == shared.n) => {
                        shards[shard].gathered = Some(p);
                    }
                    other => {
                        let what = if other.is_none() { "no" } else { "malformed" };
                        return Step::Done(Response::error(
                            id,
                            Status::Overloaded,
                            format!("shard {shard} returned {what} partials"),
                        ));
                    }
                }
            }
            Kind::Pipeline {
                plan,
                stage,
                activation,
                owed,
                ..
            } => {
                *owed = false;
                let backend = plan.stages[*stage].backend;
                if resp.status != Status::Ok {
                    return Step::Done(forward_rejection(
                        shared, id, "stage", backend, slot, &resp,
                    ));
                }
                let Some(output) = resp.output else {
                    return Step::Done(Response::error(
                        id,
                        Status::Overloaded,
                        format!("stage {backend} returned no activation"),
                    ));
                };
                *activation = output;
                *stage += 1;
            }
        }
        self.next(shared, now)
    }

    /// The sub-call for `shard` to the backend at `slot` failed in
    /// transport (connect, write, read, attempt timeout).
    pub(crate) fn on_transport_fail(
        &mut self,
        shared: &RouterShared,
        shard: usize,
        slot: usize,
        now: Instant,
    ) -> Step {
        // Eject the backend; the prober revives it when it answers
        // health (and the fingerprint handshake) again.
        let backend = shared.pool.get(slot);
        if backend.mark_dead() {
            shared.rebalance();
        }
        shared.metrics.serve().record_protocol_error();
        match &mut self.kind {
            Kind::Single { excluded, owed, .. } => {
                excluded.push(slot);
                *owed = false;
            }
            // A sibling replica holds the identical rows, so failing
            // the shard over cannot change a bit of the reduction.
            Kind::Scatter { shards, .. } => {
                shards[shard].tried.push(slot);
                shards[shard].owed = false;
            }
            // A dead stage cannot be failed over: no other backend is
            // assigned its layer range.
            Kind::Pipeline {
                plan, stage, owed, ..
            } => {
                *owed = false;
                let detail = format!(
                    "pipeline stage {} ({}) unavailable",
                    plan.stages[*stage].backend, backend.addr
                );
                return Step::Done(unavailable(shared, self.id, detail));
            }
        }
        self.next(shared, now)
    }

    /// The sub-request for `shard`, built when it is written so that it
    /// forwards only the deadline budget left at `now`, and the
    /// attempt's timeout. `shard` must be one the machine last asked
    /// to send.
    pub(crate) fn sub_request(
        &mut self,
        shared: &RouterShared,
        shard: usize,
        now: Instant,
    ) -> (Request, Duration) {
        let mut sub = match &mut self.kind {
            Kind::Single { req, .. } => req.clone(),
            Kind::Scatter {
                inputs,
                outputs,
                plan,
                ..
            } => {
                let s = &plan.as_ref().expect("a round is in flight").shards[shard];
                let input = &inputs[outputs.len()];
                Request::matvec_partial(
                    self.id,
                    s.row_offset as u64,
                    input[s.row_offset..s.row_end()].to_vec(),
                )
            }
            // Stages never resend, so the activation moves into the
            // sub-request.
            Kind::Pipeline {
                model,
                format,
                plan,
                stage,
                activation,
                ..
            } => {
                let s = &plan.stages[*stage];
                Request::infer(
                    self.id,
                    model.as_str(),
                    format.as_str(),
                    std::mem::take(activation),
                )
                .with_layer_range(s.start as u64, s.end as u64)
            }
        };
        sub.deadline_ms = remaining_ms(self.deadline, now);
        (sub, self.attempt_timeout(shared, now))
    }

    /// How long a sub-call may wait at `now`: the remaining deadline
    /// budget plus a small grace, so the backend's own `504` wins the
    /// race, capped by the configured dispatch timeout.
    pub(crate) fn attempt_timeout(&self, shared: &RouterShared, now: Instant) -> Duration {
        const MIN: Duration = Duration::from_millis(10);
        const GRACE: Duration = Duration::from_millis(250);
        let cap = shared.cfg.dispatch_timeout;
        match self.deadline {
            Some(d) => (d.saturating_duration_since(now) + GRACE).min(cap),
            None => cap,
        }
        .max(MIN)
    }

    /// Shards whose sub-call is written (or queued) and not yet
    /// answered. When a machine finishes early these are the driver's
    /// to abandon.
    pub(crate) fn owed(&self) -> impl Iterator<Item = usize> + '_ {
        let (one, shards): (bool, &[ShardRound]) = match &self.kind {
            Kind::Single { owed, .. } | Kind::Pipeline { owed, .. } => (*owed, &[]),
            Kind::Scatter { shards, .. } => (false, shards),
        };
        one.then_some(0).into_iter().chain(
            shards
                .iter()
                .enumerate()
                .filter(|(_, s)| s.owed)
                .map(|(i, _)| i),
        )
    }
}

/// Mirrors the backend's deadline hardening: `checked_add` + the 24 h
/// cap, plus an immediate `504` for already-expired budgets.
fn parse_deadline(
    shared: &RouterShared,
    req: &Request,
    now: Instant,
) -> Result<Option<Instant>, Box<Response>> {
    let Some(ms) = req.deadline_ms else {
        return Ok(None);
    };
    let deadline = match now.checked_add(Duration::from_millis(ms)) {
        Some(d) if ms <= MAX_DEADLINE_MS => d,
        _ => {
            return Err(Box::new(shared.reject_malformed(
                req.id,
                format!("deadline_ms {ms} exceeds the maximum of {MAX_DEADLINE_MS} ms"),
            )));
        }
    };
    if now >= deadline {
        record_expiry(shared);
        return Err(Box::new(Response::error(
            req.id,
            Status::DeadlineExpired,
            "deadline expired before dispatch",
        )));
    }
    Ok(Some(deadline))
}

/// A `504` once the caller's budget has lapsed between attempts.
fn deadline_expired(
    shared: &RouterShared,
    id: u64,
    deadline: Option<Instant>,
    now: Instant,
) -> Option<Response> {
    if deadline.is_none_or(|d| now < d) {
        return None;
    }
    record_expiry(shared);
    Some(Response::error(
        id,
        Status::DeadlineExpired,
        "deadline expired during failover",
    ))
}

fn record_expiry(shared: &RouterShared) {
    shared
        .metrics
        .serve()
        .runtime()
        .record_rejection(RejectReason::DeadlineExpired);
}

/// Remaining budget in milliseconds to forward downstream.
fn remaining_ms(deadline: Option<Instant>, now: Instant) -> Option<u64> {
    deadline
        .map(|d| u64::try_from(d.saturating_duration_since(now).as_millis()).unwrap_or(u64::MAX))
}

/// A router-synthesized `503` with the pool's retry hint.
fn unavailable(shared: &RouterShared, id: u64, detail: impl Into<String>) -> Response {
    let mut resp = Response::error(id, Status::Overloaded, detail);
    resp.retry_after_ms = Some(shared.retry_hint());
    resp
}

/// A sub-call's structured rejection (`503` overloaded, `504`
/// expired, …) passed upstream with the shard or stage named: the
/// backend is alive and answering, so there is no failover.
fn forward_rejection(
    shared: &RouterShared,
    id: u64,
    what: &str,
    n: usize,
    slot: usize,
    resp: &Response,
) -> Response {
    let mut out = Response::error(
        id,
        resp.status,
        format!(
            "{what} {n} ({}): {}",
            shared.pool.get(slot).addr,
            resp.error.as_deref().unwrap_or("rejected")
        ),
    );
    out.retry_after_ms = resp.retry_after_ms;
    out
}

#[cfg(test)]
mod tests {
    use afpr_models::ModelEntrySnapshot;

    use super::*;
    use crate::backend::{BackendPool, SeedPin};
    use crate::router::{ClusterConfig, StartupFacts};

    /// Three row tiles of two rows each.
    const K: usize = 6;
    const UNIT: usize = 2;
    const N: usize = 3;

    /// A router over backends that nothing ever dials: the core does
    /// no I/O, so there is no listener, prober or socket.
    fn router(placement: Placement, backends: usize, replicas: usize) -> RouterShared {
        let addrs: Vec<String> = (0..backends)
            .map(|i| format!("backend-{i}.invalid:7000"))
            .collect();
        let mut cfg = ClusterConfig::new("127.0.0.1:0", &addrs, placement);
        cfg.replicas = replicas;
        let catalog = vec![ModelEntrySnapshot {
            model: "tiny-test".into(),
            format: "e2m5".into(),
            layers: 3,
            input_len: 4,
            output_len: 2,
            resident: false,
            loads: 0,
            evictions: 0,
            infers: 0,
            macros: 0,
            weight_bytes: 0,
        }];
        let facts = StartupFacts {
            k: K,
            n: N,
            unit: UNIT,
            catalog,
            catalog_seed: Some(1),
            common_seed: SeedPin::Seed(1),
        };
        let shared = RouterShared::new(cfg, BackendPool::new(&addrs), facts, None);
        shared.rebalance();
        shared
    }

    /// Where a test's virtual time starts: the core never reads the
    /// clock, so every later instant is this plus an offset.
    fn origin() -> Instant {
        Instant::now()
    }

    fn run(shared: &RouterShared, req: Request, now: Instant) -> Machine {
        match admit(shared, req, now) {
            Admit::Run(machine) => machine,
            Admit::Reply(resp) => panic!("answered at admission: {resp:?}"),
        }
    }

    /// `(shard, slot)` of a send.
    fn send(step: Step) -> (usize, usize) {
        match step {
            Step::Send { shard, backend } => (shard, backend.index),
            other => panic!("expected a send, got {other:?}"),
        }
    }

    fn done(step: Step) -> Response {
        match step {
            Step::Done(resp) => resp,
            other => panic!("expected a response, got {other:?}"),
        }
    }

    fn partials(tiles: &[&[f32]]) -> Response {
        let mut resp = Response::ok(1);
        resp.partials = Some(tiles.iter().map(|t| t.to_vec()).collect());
        resp
    }

    /// One tile per shard, chosen so the f32 fold is order-sensitive.
    const TILES: [[f32; N]; 3] = [[1e8, 1.0, 0.1], [1.0, 1e8, 0.2], [-1e8, -1e8, 0.3]];

    fn fold(order: [usize; 3]) -> Vec<u32> {
        let parts: Vec<&[f32]> = order.iter().map(|&s| &TILES[s][..]).collect();
        let mut out = Vec::new();
        PartialSumAdder::new().sum_into(&parts, &mut out);
        out.iter().map(|x| x.to_bits()).collect()
    }

    fn bits(resp: &Response) -> Vec<u32> {
        let output = resp.output.as_ref().expect("matvec output");
        output.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn replicated_failover_excludes_the_failed_slot_then_503s() {
        let shared = router(Placement::Replicated, 2, 1);
        let now = origin();
        let mut m = run(&shared, Request::matvec(7, vec![0.5; K]), now);
        assert_eq!(send(m.next(&shared, now)), (0, 0));
        let (fwd, _) = m.sub_request(&shared, 0, now);
        assert_eq!(fwd, Request::matvec(7, vec![0.5; K]), "forwarded unchanged");
        assert!(matches!(m.next(&shared, now), Step::Wait));
        assert_eq!(m.owed().collect::<Vec<_>>(), [0]);

        assert_eq!(send(m.on_transport_fail(&shared, 0, 0, now)), (0, 1));
        assert!(!shared.pool.get(0).is_alive(), "slot 0 ejected");
        let resp = done(m.on_transport_fail(&shared, 0, 1, now));
        assert_eq!(resp.status, Status::Overloaded);
        assert_eq!(
            resp.error.as_deref(),
            Some("every replica failed this request; retry shortly")
        );
        assert_eq!(resp.retry_after_ms, Some(shared.cfg.retry_after_ms));
        assert_eq!(m.owed().count(), 0);
    }

    #[test]
    fn scatter_reduces_in_shard_order_whatever_the_arrival_order() {
        let expected = fold([0, 1, 2]);
        assert_ne!(expected, fold([2, 1, 0]), "the fixture is order-sensitive");
        let shared = router(Placement::Sharded, 3, 1);
        let orders = [
            [0, 1, 2],
            [0, 2, 1],
            [1, 0, 2],
            [1, 2, 0],
            [2, 0, 1],
            [2, 1, 0],
        ];
        for order in orders {
            let now = origin();
            let mut m = run(&shared, Request::matvec(3, vec![1.0; K]), now);
            for s in 0..3 {
                assert_eq!(send(m.next(&shared, now)), (s, s));
                let (sub, _) = m.sub_request(&shared, s, now);
                assert_eq!(sub.row_offset, Some((s * UNIT) as u64));
            }
            assert!(matches!(m.next(&shared, now), Step::Wait));
            let (last, first) = order.split_last().expect("three shards");
            for &s in first {
                let step = m.on_response(&shared, s, s, partials(&[&TILES[s]]), now);
                assert!(matches!(step, Step::Wait), "order {order:?}");
            }
            let resp = done(m.on_response(&shared, *last, *last, partials(&[&TILES[*last]]), now));
            assert_eq!(bits(&resp), expected, "order {order:?}");
        }
    }

    #[test]
    fn scatter_fails_a_shard_over_to_its_sibling_with_the_same_bits() {
        // Six slots at R = 2: shard s is held by slots s and s + 3.
        let shared = router(Placement::Sharded, 6, 2);
        let epoch = shared.current_view().epoch;
        let now = origin();
        let mut m = run(&shared, Request::matvec(4, vec![1.0; K]), now);
        for s in 0..3 {
            assert_eq!(send(m.next(&shared, now)), (s, s));
        }
        assert_eq!(send(m.on_transport_fail(&shared, 1, 1, now)), (1, 4));
        assert!(matches!(m.next(&shared, now), Step::Wait));
        // The ejection re-planned the pool, but the round in flight
        // finishes on the plan it started with.
        assert!(shared.current_view().epoch > epoch);
        assert!(matches!(
            m.on_response(&shared, 2, 2, partials(&[&TILES[2]]), now),
            Step::Wait
        ));
        assert!(matches!(
            m.on_response(&shared, 1, 4, partials(&[&TILES[1]]), now),
            Step::Wait
        ));
        let resp = done(m.on_response(&shared, 0, 0, partials(&[&TILES[0]]), now));
        assert_eq!(bits(&resp), fold([0, 1, 2]));
    }

    #[test]
    fn failover_past_the_deadline_answers_504_without_sleeping() {
        let shared = router(Placement::Replicated, 2, 1);
        let t0 = origin();
        let req = Request::matvec(9, vec![0.5; K]).with_deadline_ms(50);
        let mut m = run(&shared, req, t0);
        assert_eq!(send(m.next(&shared, t0)), (0, 0));
        let (fwd, _) = m.sub_request(&shared, 0, t0 + Duration::from_millis(20));
        assert_eq!(fwd.deadline_ms, Some(30), "forwards only the budget left");
        let resp = done(m.on_transport_fail(&shared, 0, 0, t0 + Duration::from_millis(60)));
        assert_eq!(resp.status, Status::DeadlineExpired);
        assert_eq!(resp.code, 504);
        assert_eq!(
            resp.error.as_deref(),
            Some("deadline expired during failover")
        );
    }

    #[test]
    fn malformed_partials_503_naming_the_shard_and_leave_the_rest_owed() {
        let shared = router(Placement::Sharded, 3, 1);
        let now = origin();
        let start = |shared: &RouterShared| {
            let mut m = run(shared, Request::matvec(5, vec![1.0; K]), now);
            for s in 0..3 {
                assert_eq!(send(m.next(shared, now)), (s, s));
            }
            m
        };
        let cases: [(usize, Response, &str); 3] = [
            (
                1,
                partials(&[&TILES[1], &TILES[1]]),
                "shard 1 returned malformed partials",
            ),
            (
                0,
                partials(&[&TILES[0][..N - 1]]),
                "shard 0 returned malformed partials",
            ),
            (2, Response::ok(1), "shard 2 returned no partials"),
        ];
        for (shard, bad, text) in cases {
            let mut m = start(&shared);
            let resp = done(m.on_response(&shared, shard, shard, bad, now));
            assert_eq!(resp.status, Status::Overloaded);
            assert_eq!(resp.error.as_deref(), Some(text));
            let still: Vec<usize> = (0..3).filter(|&s| s != shard).collect();
            assert_eq!(m.owed().collect::<Vec<_>>(), still);
        }
    }

    #[test]
    fn dead_pipeline_stage_503s_without_failover() {
        let shared = router(Placement::Pipeline, 3, 1);
        let now = origin();
        let req = Request::infer(6, "tiny-test", "e2m5", vec![1.0; 4]);
        let mut m = run(&shared, req, now);

        assert_eq!(send(m.next(&shared, now)), (0, 0));
        let (sub, _) = m.sub_request(&shared, 0, now);
        assert_eq!(sub.input.as_deref(), Some(&[1.0; 4][..]));
        assert_eq!((sub.layer_start, sub.layer_end), (Some(0), Some(1)));

        let mut out = Response::ok(6);
        out.output = Some(vec![2.0; 5]);
        assert_eq!(send(m.on_response(&shared, 0, 0, out, now)), (0, 1));
        let (sub, _) = m.sub_request(&shared, 0, now);
        assert_eq!(
            sub.input.as_deref(),
            Some(&[2.0; 5][..]),
            "stage 0's output"
        );
        assert_eq!((sub.layer_start, sub.layer_end), (Some(1), Some(2)));

        let resp = done(m.on_transport_fail(&shared, 0, 1, now));
        assert_eq!(resp.status, Status::Overloaded);
        assert_eq!(
            resp.error.as_deref(),
            Some("pipeline stage 1 (backend-1.invalid:7000) unavailable")
        );
        assert!(resp.retry_after_ms.is_some(), "carries a retry hint");
        assert!(!shared.pool.get(1).is_alive(), "the stage was ejected");
        assert_eq!(m.owed().count(), 0);
    }
}
