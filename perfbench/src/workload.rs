//! The serving workloads: deployment, golden reference and load.
//!
//! Everything a workload needs before its first timed request — golden
//! outputs and modeled energy from an in-process twin, backends, the
//! router, warm-up — happens in [`setup`], off the clock. The timed
//! [`open_loop`] only sends, receives and compares.

use std::io::{self, BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::{mpsc, Arc};
use std::thread;
use std::time::{Duration, Instant};

use afpr_cluster::{ClusterConfig, Placement, Router};
use afpr_core::{AfprAccelerator, LayerHandle};
use afpr_models::{format_wire_name, ModelKind, ModelRegistry, RegistryConfig};
use afpr_nn::tensor::Tensor;
use afpr_power::EnergyPoint;
use afpr_serve::{
    parse_message, read_frame, write_message, Client, ClientError, Request, Response, ServeModel,
    Server, ServerConfig, DEFAULT_MAX_FRAME,
};
use afpr_xbar::spec::{MacroMode, MacroSpec};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::trace::SpanBuf;

/// Weight and macro-programming seed of every served model. The model
/// identity is fixed; `--seed` only picks inputs and key sequences.
pub const MODEL_SEED: u64 = 2024;

/// Arrival rate of both workloads, requests per second: about a fifth
/// of `light-router`'s closed-loop saturation through the router and
/// under half of `mlp-churn`'s over one connection on a 2-vCPU host, so
/// slow phases of a shared host do not push either into queueing.
pub const OPEN_LOOP_RATE: f64 = 500.0;

/// Distinct inputs per key in the request pools.
const MLP_POOL: usize = 64;
const LIGHT_POOL: usize = 256;

/// `mlp-churn`'s keys and their count in every 8-request cycle (a
/// seeded shuffle of this deck): the three formats of tiny-mlp against
/// a registry of [`MLP_CAPACITY`] models, so the cold formats keep
/// compiling and evicting each other.
const MLP_MIX: [(ModelKind, MacroMode, usize); 3] = [
    (ModelKind::TinyMlp, MacroMode::FpE2M5, 5),
    (ModelKind::TinyMlp, MacroMode::FpE3M4, 2),
    (ModelKind::TinyMlp, MacroMode::Int8, 1),
];

/// Models `mlp-churn`'s backend registry holds.
const MLP_CAPACITY: usize = 2;

/// Relative tolerance on modeled energy: the server reports the delta
/// of running totals, so only the last bits may differ from the twin.
const ENERGY_RTOL: f64 = 1e-6;

/// A named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Wire-bound: the 64→32 light layer through a replicated router.
    LightRouter,
    /// Registry churn: tiny-mlp's three formats over one connection
    /// against a 2-model registry.
    MlpChurn,
}

impl Workload {
    /// The CLI name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::LightRouter => "light-router",
            Workload::MlpChurn => "mlp-churn",
        }
    }

    /// Parses a CLI name.
    pub fn parse(s: &str) -> Option<Self> {
        [Self::LightRouter, Self::MlpChurn]
            .into_iter()
            .find(|w| w.name() == s)
    }

    /// Client connections the load uses.
    pub fn connections(self) -> usize {
        match self {
            Workload::LightRouter => 2,
            Workload::MlpChurn => 1,
        }
    }
}

/// What one request asks for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Key {
    /// `Op::Infer` of a registry model in a format.
    Infer(ModelKind, MacroMode),
    /// `Op::Matvec` on the light layer.
    LightMatvec,
}

/// One request a connection sends: a key and an input of its pool.
#[derive(Debug, Clone, Copy)]
pub struct Job {
    /// Index into [`Reference::keys`].
    pub key: usize,
    /// Index into the key's input pool.
    pub input: usize,
}

/// The expected answer to one (key, input) pair.
#[derive(Debug, Clone)]
pub struct Golden {
    /// Output the server must return, bit for bit.
    pub output: Vec<f32>,
    /// Modeled energy of the request, mJ.
    pub energy_mj: f64,
}

/// Inputs and golden answers of a workload, built off the clock.
#[derive(Debug)]
pub struct Reference {
    /// The keys the workload sends.
    pub keys: Vec<Key>,
    /// Request share of each key (sums to 1).
    pub shares: Vec<f64>,
    /// `inputs[k][i]`: pool input `i` of key `k`.
    pub inputs: Vec<Vec<Vec<f32>>>,
    /// `golden[k][i]`: the answer to `inputs[k][i]`.
    pub golden: Vec<Vec<Golden>>,
}

impl Reference {
    /// The wire request for `job`.
    pub fn request(&self, id: u64, job: Job) -> Request {
        let input = self.inputs[job.key][job.input].clone();
        match self.keys[job.key] {
            Key::Infer(kind, mode) => {
                Request::infer(id, kind.wire_name(), format_wire_name(mode), input)
            }
            Key::LightMatvec => Request::matvec(id, input),
        }
    }
}

/// The in-process twin the golden answers come from, kept for the
/// traced run's in-process probes.
pub enum Twin {
    /// A registry holding every key the workload uses.
    Registry(ModelRegistry),
    /// The light layer's accelerator.
    Light(Box<AfprAccelerator>, LayerHandle),
}

/// A deployed workload, ready for its first timed request.
pub struct Bench {
    /// Which workload.
    pub workload: Workload,
    /// `--seed`.
    pub seed: u64,
    /// Inputs and golden answers.
    pub reference: Arc<Reference>,
    /// The in-process twin.
    pub twin: Twin,
    /// In-process backends.
    pub backends: Vec<Server>,
    /// The router in front of them, if the workload has one.
    pub router: Option<Router>,
}

impl Bench {
    /// Where the load goes: the router when there is one.
    pub fn target(&self) -> SocketAddr {
        self.router
            .as_ref()
            .map_or_else(|| self.backends[0].local_addr(), Router::local_addr)
    }

    /// Stops the router, then every backend, joining their threads.
    pub fn shutdown(self) {
        if let Some(r) = self.router {
            let _ = r.shutdown();
        }
        for b in self.backends {
            let _ = b.shutdown();
        }
    }
}

/// The single-macro 64→32 E2M5 layer that `bench/src/bin/cluster.rs`
/// uses for its wire-bound posture.
pub fn light_model(seed: u64) -> ServeModel {
    const K: usize = 64;
    const N: usize = 32;
    let base = MacroSpec::small(K, N, MacroMode::FpE2M5);
    let mut accel = AfprAccelerator::with_spec(base, seed);
    let handle = accel.map_matrix(&light_weights());
    let calib: Vec<f32> = (0..K).map(|k| ((k as f32) * 0.13).sin()).collect();
    accel.calibrate_layer(handle, std::slice::from_ref(&calib));
    ServeModel::new(accel, handle)
}

/// The light layer's `[64, 32]` weight matrix.
pub fn light_weights() -> Tensor {
    const N: usize = 32;
    Tensor::from_fn(&[64, N], |i| {
        (((i[0] * N + i[1]) * 7 % 23) as f32 - 11.0) / 22.0
    })
}

/// Seeded pool of `n` inputs of length `len`, uniform in `[-1, 1)`.
fn input_pool(rng: &mut StdRng, len: usize, n: usize) -> Vec<Vec<f32>> {
    (0..n)
        .map(|_| (0..len).map(|_| rng.gen_range(-1.0f32..1.0)).collect())
        .collect()
}

/// Cumulative energy of a registry, as a metering point.
pub fn registry_energy(reg: &ModelRegistry) -> EnergyPoint {
    let e = reg.energy();
    EnergyPoint::new(e.breakdown, e.adder, e.conversions)
}

/// Cumulative energy of an accelerator, as a metering point.
pub fn accel_energy(accel: &AfprAccelerator) -> EnergyPoint {
    let s = accel.stats();
    EnergyPoint::new(s.energy, accel.adder_energy(), s.conversions)
}

fn start_backend(model: ServeModel) -> io::Result<Server> {
    Server::start(ServerConfig::default(), model)
}

/// Deploys `workload`: golden answers, backends, router and warm-up.
///
/// # Errors
///
/// Any failure to start a tier or to get a warm-up answer.
pub fn setup(workload: Workload, seed: u64) -> io::Result<Bench> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed_b0a7);
    let (keys, shares, inputs) = match workload {
        Workload::LightRouter => {
            let pool = input_pool(&mut rng, 64, LIGHT_POOL);
            (vec![Key::LightMatvec], vec![1.0], vec![pool])
        }
        Workload::MlpChurn => {
            // Every key is tiny-mlp, so the three share one input pool.
            let pool = input_pool(&mut rng, ModelKind::TinyMlp.input_len(), MLP_POOL);
            let total: usize = MLP_MIX.iter().map(|m| m.2).sum();
            (
                MLP_MIX.iter().map(|&(k, m, _)| Key::Infer(k, m)).collect(),
                MLP_MIX.iter().map(|m| m.2 as f64 / total as f64).collect(),
                vec![pool; MLP_MIX.len()],
            )
        }
    };

    let (twin, golden) = golden_answers(workload, &keys, &inputs);
    let reference = Arc::new(Reference {
        keys,
        shares,
        inputs,
        golden,
    });

    let (backends, router) = match workload {
        Workload::MlpChurn => {
            let registry = ModelRegistry::new(RegistryConfig::new(MLP_CAPACITY, MODEL_SEED));
            let model = ServeModel::demo(MODEL_SEED).with_registry(Arc::new(registry));
            (vec![start_backend(model)?], None)
        }
        Workload::LightRouter => {
            let backends = vec![
                start_backend(light_model(MODEL_SEED))?,
                start_backend(light_model(MODEL_SEED))?,
            ];
            let addrs: Vec<String> = backends
                .iter()
                .map(|b| b.local_addr().to_string())
                .collect();
            let router = Router::start(ClusterConfig::new(
                "127.0.0.1:0",
                &addrs,
                Placement::Replicated,
            ))?;
            (backends, Some(router))
        }
    };
    let bench = Bench {
        workload,
        seed,
        reference,
        twin,
        backends,
        router,
    };
    warm_up(&bench)?;
    Ok(bench)
}

/// Computes every golden answer on an in-process twin built from the
/// same model seed as the backends.
fn golden_answers(
    workload: Workload,
    keys: &[Key],
    inputs: &[Vec<Vec<f32>>],
) -> (Twin, Vec<Vec<Golden>>) {
    match workload {
        Workload::LightRouter => {
            let (mut accel, handle) = light_model(MODEL_SEED).into_parts();
            let golden = inputs[0]
                .iter()
                .map(|x| {
                    let before = accel_energy(&accel);
                    let output = accel.matvec(handle, x);
                    let energy_mj = accel_energy(&accel).delta(&before).total_mj();
                    Golden { output, energy_mj }
                })
                .collect();
            (Twin::Light(Box::new(accel), handle), vec![golden])
        }
        Workload::MlpChurn => {
            let reg = ModelRegistry::new(RegistryConfig::new(keys.len(), MODEL_SEED));
            let golden = keys
                .iter()
                .zip(inputs)
                .map(|(key, pool)| {
                    let Key::Infer(kind, mode) = *key else {
                        unreachable!("registry workloads send infer keys")
                    };
                    pool.iter()
                        .map(|x| {
                            let before = registry_energy(&reg);
                            let output = reg
                                .infer(kind.wire_name(), format_wire_name(mode), x)
                                .expect("golden infer");
                            let energy_mj = registry_energy(&reg).delta(&before).total_mj();
                            Golden { output, energy_mj }
                        })
                        .collect()
                })
                .collect();
            (Twin::Registry(reg), golden)
        }
    }
}

/// Warm-up requests of the hot key: enough to open the router's
/// upstream connections and settle the sockets.
const WARM_REQUESTS: usize = 200;

/// Warm-up traffic: loads the served models and opens every
/// connection pool before the clock starts.
fn warm_up(bench: &Bench) -> io::Result<()> {
    let reference = &bench.reference;
    let pool = reference.inputs[0].len();
    let hot = (0..WARM_REQUESTS).map(|i| Job {
        key: 0,
        input: i % pool,
    });
    let order: Vec<Job> = match bench.workload {
        Workload::LightRouter => hot.collect(),
        // Coldest key first, so the hot keys start resident.
        Workload::MlpChurn => (0..reference.keys.len())
            .rev()
            .map(|key| Job { key, input: 0 })
            .chain(hot)
            .collect(),
    };
    let mut client = Client::connect(bench.target()).map_err(to_io)?;
    for job in order {
        let id = client.next_id();
        let resp = client.call(&reference.request(id, job)).map_err(to_io)?;
        if !resp.is_ok() {
            return Err(io::Error::other(format!(
                "warm-up request failed: {:?}",
                resp.error
            )));
        }
    }
    Ok(())
}

fn to_io(e: ClientError) -> io::Error {
    io::Error::other(e.to_string())
}

/// The generator's request sequence, from the seed.
pub fn sequence(bench: &Bench) -> Box<dyn FnMut() -> Job + Send> {
    let mut rng = StdRng::seed_from_u64(bench.seed ^ 0x9e37_79b9_7f4a_7c15);
    let pool = bench.reference.inputs[0].len();
    match bench.workload {
        Workload::LightRouter => Box::new(move || Job {
            key: 0,
            input: rng.gen_range(0..pool),
        }),
        Workload::MlpChurn => {
            let deck: Vec<usize> = MLP_MIX
                .iter()
                .enumerate()
                .flat_map(|(k, m)| std::iter::repeat_n(k, m.2))
                .collect();
            let mut cycle: Vec<usize> = Vec::new();
            Box::new(move || {
                if cycle.is_empty() {
                    cycle = deck.clone();
                    for i in (1..cycle.len()).rev() {
                        cycle.swap(i, rng.gen_range(0..=i));
                    }
                }
                Job {
                    key: cycle.pop().expect("refilled above"),
                    input: rng.gen_range(0..pool),
                }
            })
        }
    }
}

/// Raw results of one timed window.
#[derive(Debug, Default)]
pub struct Window {
    /// Seconds from the first send to the last answer.
    pub elapsed_s: f64,
    /// Latency of every request from its due time, ms.
    pub latency_ms: Vec<f64>,
    /// Generator lag per request, ms: send time minus due time.
    pub lag_ms: Vec<f64>,

    /// Requests sent.
    pub attempted: u64,
    /// Answers that matched the golden bits and energy.
    pub correct: u64,
    /// Requests that got no answer (I/O or framing errors).
    pub transport_errors: u64,
    /// Answers with a non-2xx status.
    pub non_ok: u64,
    /// Answers whose bits or energy disagreed with the golden ones.
    pub mismatches: u64,
    /// Reported energy summed over the 2xx answers, mJ.
    pub energy_mj: f64,
    /// Golden energy of the same requests, mJ.
    pub golden_energy_mj: f64,
    /// 2xx answers that carried `energy_mj`.
    pub metered: u64,
    /// Spans of every request (traced windows only).
    pub spans: Option<SpanBuf>,
}

impl Window {
    /// Requests that failed in any way.
    pub fn failed(&self) -> u64 {
        self.transport_errors + self.non_ok + self.mismatches
    }

    /// Adds another window's counts, samples and spans to this one.
    pub fn merge(&mut self, other: Window) {
        self.latency_ms.extend(other.latency_ms);
        self.lag_ms.extend(other.lag_ms);
        self.attempted += other.attempted;
        self.correct += other.correct;
        self.transport_errors += other.transport_errors;
        self.non_ok += other.non_ok;
        self.mismatches += other.mismatches;
        self.energy_mj += other.energy_mj;
        self.golden_energy_mj += other.golden_energy_mj;
        self.metered += other.metered;
        match (&mut self.spans, other.spans) {
            (Some(mine), Some(theirs)) => mine.absorb(theirs),
            (None, theirs) => self.spans = theirs,
            _ => {}
        }
    }

    /// Judges one answer against the golden one.
    fn judge(&mut self, reference: &Reference, job: Job, resp: Result<Response, String>) {
        self.attempted += 1;
        let resp = match resp {
            Err(_) => {
                self.transport_errors += 1;
                return;
            }
            Ok(r) if !r.is_ok() => {
                self.non_ok += 1;
                return;
            }
            Ok(r) => r,
        };
        let golden = &reference.golden[job.key][job.input];
        let bits = resp.output.as_deref().is_some_and(|o| {
            o.len() == golden.output.len()
                && o.iter()
                    .zip(&golden.output)
                    .all(|(a, b)| a.to_bits() == b.to_bits())
        });
        // Micro-batched matvecs share one run's energy by sample count,
        // so only their ledger total is comparable; infers run alone
        // and are checked one by one.
        let energy = resp.energy_mj;
        let per_request = matches!(reference.keys[job.key], Key::Infer(..));
        let energy_ok = !per_request || energy.is_some_and(|e| close(e, golden.energy_mj));
        if let Some(e) = energy {
            self.energy_mj += e;
            self.golden_energy_mj += golden.energy_mj;
            self.metered += 1;
        }
        if bits && energy_ok {
            self.correct += 1;
        } else {
            self.mismatches += 1;
        }
    }

    /// Ledger check over the whole window: reported energy must equal
    /// the golden total. A disagreement counts as one mismatch.
    fn check_ledger(&mut self) {
        if !close(self.energy_mj, self.golden_energy_mj) {
            self.mismatches += 1;
        }
    }
}

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= ENERGY_RTOL * b.abs().max(f64::MIN_POSITIVE)
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// A request on the wire, waiting for its answer.
struct Pending {
    job: Job,
    due: Instant,
    sent: Instant,
    write_failed: bool,
}

/// Open loop: one generator thread sends at [`OPEN_LOOP_RATE`] per
/// second, round robin over the workload's connections, for `seconds`;
/// one receiver per connection reads the answers in order. Latency
/// counts from each request's due time, so queueing behind a stall is
/// not hidden.
pub fn open_loop(bench: &Bench, seconds: f64, tracer: Option<&SpanBuf>) -> Window {
    let target = bench.target();
    let mut writers = Vec::new();
    let mut receivers = Vec::new();
    let mut failed_connects = 0u64;
    for _ in 0..bench.workload.connections() {
        let conn = TcpStream::connect(target).and_then(|s| {
            s.set_nodelay(true)?;
            s.set_read_timeout(Some(Duration::from_secs(30)))?;
            let w = s.try_clone()?;
            Ok((s, w))
        });
        let Ok((read_half, write_half)) = conn else {
            failed_connects += 1;
            continue;
        };
        let (tx, rx) = mpsc::channel::<Pending>();
        let reference = Arc::clone(&bench.reference);
        let mut spans = tracer.map(SpanBuf::sibling);
        receivers.push(thread::spawn(move || {
            let mut reader = BufReader::new(read_half);
            let mut w = Window::default();
            let mut broken = false;
            let mut last = None;
            for p in rx {
                let resp = if broken || p.write_failed {
                    Err("not sent".to_string())
                } else {
                    read_frame(&mut reader, DEFAULT_MAX_FRAME)
                        .map_err(|e| e.to_string())
                        .and_then(|f| f.ok_or_else(|| "connection closed".to_string()))
                        .and_then(|payload| parse_message::<Response>(&payload))
                };
                let t = Instant::now();
                broken |= resp.is_err();
                w.latency_ms.push(ms(t - p.due));
                w.lag_ms.push(ms(p.sent.saturating_duration_since(p.due)));
                last = Some(t);
                if let Some(buf) = spans.as_mut() {
                    let trace = buf.next_id();
                    let id = buf.record(trace, None, "loadgen.request", p.due, t);
                    buf.record(trace, Some(id), "loadgen.send_lag", p.due, p.sent);
                }
                w.judge(&reference, p.job, resp);
            }
            w.spans = spans;
            (w, last)
        }));
        writers.push((BufWriter::new(write_half), tx));
    }

    let mut total = Window {
        attempted: failed_connects,
        transport_errors: failed_connects,
        ..Window::default()
    };
    let start = Instant::now();
    if !writers.is_empty() {
        let period = Duration::from_secs_f64(1.0 / OPEN_LOOP_RATE);
        let deadline = start + Duration::from_secs_f64(seconds);
        let mut next = sequence(bench);
        let mut i: u32 = 0;
        loop {
            let due = start + period * i;
            if due >= deadline {
                break;
            }
            let now = Instant::now();
            if due > now {
                thread::sleep(due - now);
            }
            let job = next();
            let conn = i as usize % writers.len();
            let (writer, tx) = &mut writers[conn];
            let req = bench.reference.request(u64::from(i) + 1, job);
            let write_failed = write_message(writer, &req)
                .and_then(|()| writer.flush())
                .is_err();
            let _ = tx.send(Pending {
                job,
                due,
                sent: Instant::now(),
                write_failed,
            });
            i += 1;
        }
    }
    // Closing the channels lets each receiver finish once it has read
    // the answers to everything already sent.
    drop(writers);
    let mut end = start;
    for r in receivers {
        let (w, last) = r.join().expect("receiver thread");
        if let Some(t) = last {
            end = end.max(t);
        }
        total.merge(w);
    }
    total.elapsed_s = (end - start).as_secs_f64();
    total.check_ledger();
    total
}

/// Modeled TFLOPS/W of tiny-resnet at E2M5: the network's useful
/// operations (2 per FP32 MAC) over the modeled energy of one
/// inference, on a fresh registry and a fixed input.
pub fn resnet_tflops_per_w() -> f64 {
    let kind = ModelKind::TinyResnet;
    let reg = ModelRegistry::new(RegistryConfig::new(1, MODEL_SEED));
    let x: Vec<f32> = (0..kind.input_len())
        .map(|i| (i as f32 * 0.37).sin())
        .collect();
    let _ = reg.infer(kind.wire_name(), "e2m5", &x);
    let before = registry_energy(&reg);
    let _ = reg.infer(kind.wire_name(), "e2m5", &x);
    let joules = registry_energy(&reg).delta(&before).total_j();
    let ops = 2.0 * kind.build(MODEL_SEED).macs(kind.input_shape()) as f64;
    ops / joules / 1e12
}
