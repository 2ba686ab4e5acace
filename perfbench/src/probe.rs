//! Per-layer probes of the traced run.
//!
//! Each probe times public calls of one layer on the tile shapes and
//! inputs its workload uses, from outside the program: the circuit and
//! crossbar calls on the first full tile of the workload's layer, the
//! tiled accelerator on the whole layer, the registry in process, and
//! the wire directly and through a router. Every timed repetition is a
//! span, parented on its layer's probe span.

use std::hint::black_box;
use std::time::{Duration, Instant};

use afpr_circuit::units::{Amps, Seconds, Volts};
use afpr_circuit::{FpAdc, FpDac};
use afpr_cluster::{ClusterConfig, Placement, Router};
use afpr_core::{tile_matrix, AfprAccelerator};
use afpr_models::{format_wire_name, ModelKind, ModelRegistry, RegistryConfig};
use afpr_nn::layers::Linear;
use afpr_nn::tensor::Tensor;
use afpr_serve::{Client, Op};
use afpr_xbar::spec::{MacroMode, MacroSpec};
use afpr_xbar::{CimMacro, FpActQuantizer, SignedActivation};

use crate::trace::SpanBuf;
use crate::workload::{light_weights, Bench, Key, Twin, Workload, MODEL_SEED};

/// Macro geometry of every served model (`CompiledModel::MACRO_ROWS` ×
/// `MACRO_COLS`, and the light layer).
const ROWS: usize = 64;
const COLS: usize = 32;

/// The paper's macro throughput, GOPS (PAPER.md: 1474.56 GOPS at
/// 74.1 mW).
const PAPER_GOPS: f64 = 1474.56;

/// Wall time each timed probe repeats for, and its repetition cap (so
/// microsecond-sized probes do not flood the trace).
const BUDGET: Duration = Duration::from_millis(150);
const MAX_REPS: usize = 500;

/// Samples per batched probe call. Both workloads send one sample per
/// request, and at their rate the micro-batcher mostly runs each alone
/// (`runtime.batch_mean` reports how often it does not).
const BATCH: usize = 1;

/// Requests each path of the wire probe sends.
const WIRE_ROUNDS: usize = 300;

/// The compute a workload's probes run: one layer's weights and the
/// input vectors its tiles see.
pub struct Shape {
    /// `[K, N]` layer weights.
    pub weights: Tensor,
    /// K-long input vectors.
    pub patches: Vec<Vec<f32>>,
    /// Numeric formats the workload runs, with their request share.
    pub modes: Vec<(MacroMode, f64)>,
}

/// The probe shape of `bench`'s workload: `mlp-churn` uses tiny-mlp's
/// hidden 16→16 layer on the activations of its inputs, and
/// `light-router` the light layer on its request inputs.
pub fn shape(bench: &Bench) -> Shape {
    let reference = &bench.reference;
    let mut modes: Vec<(MacroMode, f64)> = Vec::new();
    for (key, share) in reference.keys.iter().zip(&reference.shares) {
        let mode = match *key {
            Key::Infer(_, mode) => mode,
            Key::LightMatvec => MacroMode::FpE2M5,
        };
        match modes.iter_mut().find(|(m, _)| *m == mode) {
            Some((_, s)) => *s += share,
            None => modes.push((mode, *share)),
        }
    }
    match bench.workload {
        Workload::LightRouter => Shape {
            weights: light_weights(),
            patches: reference.inputs[0].iter().take(64).cloned().collect(),
            modes,
        },
        Workload::MlpChurn => {
            let model = ModelKind::TinyMlp.build(MODEL_SEED);
            let hidden = model.layers()[2]
                .as_any()
                .downcast_ref::<Linear>()
                .expect("tiny-mlp layer 2 is the hidden linear");
            let patches = reference.inputs[0]
                .iter()
                .map(|x| {
                    let mut act = Tensor::new(&[x.len()], x.clone());
                    for layer in &model.layers()[..2] {
                        act = layer.forward(&act);
                    }
                    act.data().to_vec()
                })
                .collect();
            Shape {
                weights: hidden.as_matrix(),
                patches,
                modes,
            }
        }
    }
}

/// Repeats `f` for [`BUDGET`] (at least three times, at most
/// [`MAX_REPS`]), one span per repetition; returns (median seconds per
/// repetition, repetitions).
fn timed(
    buf: &mut SpanBuf,
    trace: u64,
    parent: u64,
    name: &str,
    mut f: impl FnMut(),
) -> (f64, usize) {
    let mut reps = Vec::new();
    let begin = Instant::now();
    while reps.len() < 3 || (begin.elapsed() < BUDGET && reps.len() < MAX_REPS) {
        let t0 = Instant::now();
        f();
        let t1 = Instant::now();
        buf.record(trace, Some(parent), name, t0, t1);
        reps.push((t1 - t0).as_secs_f64());
    }
    (crate::stats::median(&reps), reps.len())
}

/// Runs `f` on a fresh thread and waits for it. In-process compute is
/// timed there, as the server's execution thread runs it, rather than
/// on the main thread whose heap set-up has already churned.
fn on_worker<T: Send>(f: impl FnOnce() -> T + Send) -> T {
    std::thread::scope(|s| s.spawn(f).join().expect("probe worker"))
}

/// Circuit and crossbar numbers of one format's first full tile.
#[derive(Debug, Default, Clone, Copy)]
pub struct TileNumbers {
    /// `FpAdc::convert`, ns per conversion.
    pub adc_ns: f64,
    /// Mean `FpAdcResult::adjustments` per conversion.
    pub adjustments: f64,
    /// `FpDac::convert`, ns per code.
    pub dac_ns: f64,
    /// Warm `Crossbar::mac_currents_batch`, ns per cell and drive.
    pub mac_ns_per_cell: f64,
    /// `Crossbar::array_energy_batch`, ns per cell and drive.
    pub energy_ns_per_cell: f64,
    /// Snapshot rebuild on the first read after `set_age`, µs per array.
    pub kernel_build_us: f64,
    /// `CimMacro::matvec_batch`, µs per sample.
    pub macro_us: f64,
    /// `macro_us` minus the four parts above, µs per sample.
    pub unexplained_us: f64,
    /// Host seconds over modeled `MacroStats::busy_time`.
    pub slowdown_x: f64,
}

impl TileNumbers {
    fn weighted(parts: &[(TileNumbers, f64)]) -> TileNumbers {
        let total: f64 = parts.iter().map(|p| p.1).sum();
        let mut out = TileNumbers::default();
        for (t, w) in parts {
            let w = w / total;
            out.adc_ns += w * t.adc_ns;
            out.adjustments += w * t.adjustments;
            out.dac_ns += w * t.dac_ns;
            out.mac_ns_per_cell += w * t.mac_ns_per_cell;
            out.energy_ns_per_cell += w * t.energy_ns_per_cell;
            out.kernel_build_us += w * t.kernel_build_us;
            out.macro_us += w * t.macro_us;
            out.unexplained_us += w * t.unexplained_us;
            out.slowdown_x += w * t.slowdown_x;
        }
        out
    }
}

/// The tile probes over every FP format of the shape, weighted by
/// request share (INT8 tiles have neither FP-DAC nor FP-ADC).
pub fn tiles(shape: &Shape, buf: &mut SpanBuf) -> TileNumbers {
    let parts: Vec<(TileNumbers, f64)> = shape
        .modes
        .iter()
        .filter(|(m, _)| m.fp_format().is_some())
        .map(|&(mode, share)| (tile(shape, mode, buf), share))
        .collect();
    TileNumbers::weighted(&parts)
}

/// Circuit and crossbar probes on one FP format's first full tile.
fn tile(shape: &Shape, mode: MacroMode, buf: &mut SpanBuf) -> TileNumbers {
    let tiled = tile_matrix(&shape.weights, ROWS, COLS);
    let t = &tiled.tiles[0];
    let spec = MacroSpec {
        rows: t.rows(),
        cols: t.cols(),
        ..MacroSpec::small(ROWS, COLS, mode)
    };
    let format = spec.fp_dac.format;
    let mut mac = CimMacro::with_seed(spec.clone(), MODEL_SEED);
    mac.program_weights(&t.weights);
    let xs: Vec<Vec<f32>> = shape
        .patches
        .iter()
        .map(|p| p[t.row_start..t.row_end].to_vec())
        .collect();
    let acts: Vec<Vec<SignedActivation>> = xs
        .iter()
        .map(|x| FpActQuantizer::calibrate(x, format).quantize_slice(x))
        .collect();
    mac.calibrate_range(&acts);
    mac.warm_kernel();
    let samples = xs.len() as f64;
    let trace = buf.next_id();
    let name = format!("xbar.tile_{}", format_wire_name(mode));

    buf.span(trace, None, &name, |buf, root| {
        // The macro as the workload calls it.
        let busy0 = mac.stats().busy_time.seconds();
        let (macro_s, reps) = timed(buf, trace, root, "xbar.macro_matvec_batch", || {
            for b in xs.chunks(BATCH) {
                black_box(mac.matvec_batch(b));
            }
        });
        let busy_per_rep = (mac.stats().busy_time.seconds() - busy0) / reps as f64;

        // DAC: every nonzero code of every sample.
        let dac = FpDac::new(spec.fp_dac);
        let codes: Vec<_> = acts.iter().flatten().filter_map(|a| a.code).collect();
        let (dac_s, _) = timed(buf, trace, root, "circuit.fp_dac_convert", || {
            for c in &codes {
                black_box(dac.convert(*c));
            }
        });

        // Drive slabs, as the macro builds them: one per sign phase.
        let mut drives: Vec<(usize, f64, Vec<Volts>)> = Vec::new();
        for (s, a) in acts.iter().enumerate() {
            for (negative, sign) in [(false, 1.0), (true, -1.0)] {
                let phase: Vec<Option<_>> = a
                    .iter()
                    .map(|x| if x.negative == negative { x.code } else { None })
                    .collect();
                if phase.iter().any(Option::is_some) {
                    let v = phase
                        .iter()
                        .map(|c| c.map_or(Volts::ZERO, |c| dac.convert(c)))
                        .collect();
                    drives.push((s, sign, v));
                }
            }
        }
        let slabs: Vec<Vec<Vec<Volts>>> = drives
            .chunks(2 * BATCH)
            .map(|c| c.iter().map(|d| d.2.clone()).collect())
            .collect();
        let (pos, neg) = mac.arrays();
        let cells = 2.0 * drives.len() as f64 * (spec.rows * spec.cols) as f64;
        let (mac_s, _) = timed(buf, trace, root, "xbar.mac_currents_batch", || {
            for slab in &slabs {
                black_box(pos.mac_currents_batch(slab));
                black_box(neg.mac_currents_batch(slab));
            }
        });
        let t_int = spec.fp_adc.t_integrate;
        let (energy_s, _) = timed(buf, trace, root, "xbar.array_energy_batch", || {
            for slab in &slabs {
                black_box(pos.array_energy_batch(slab, t_int));
                black_box(neg.array_energy_batch(slab, t_int));
            }
        });

        // ADC: the column currents those drives produce.
        let mut net = vec![vec![0.0f64; spec.cols]; acts.len()];
        for (slab, chunk) in slabs.iter().zip(drives.chunks(2 * BATCH)) {
            let ip = pos.mac_currents_batch(slab);
            let im = neg.mac_currents_batch(slab);
            for (k, (s, sign, _)) in chunk.iter().enumerate() {
                for (col, n) in net[*s].iter_mut().enumerate() {
                    *n += sign * (ip[k][col].amps() - im[k][col].amps());
                }
            }
        }
        let divider = mac.current_divider();
        let currents: Vec<Amps> = net
            .iter()
            .flatten()
            .map(|i| Amps::new(i.abs() / divider))
            .collect();
        let adc = FpAdc::new(spec.fp_adc);
        let adjustments: u64 = currents
            .iter()
            .map(|&i| u64::from(adc.convert(i).adjustments))
            .sum();
        let (adc_s, _) = timed(buf, trace, root, "circuit.fp_adc_convert", || {
            for &i in &currents {
                black_box(adc.convert(i));
            }
        });

        // Cold snapshot rebuild after aging, per array.
        let mut aged = mac.clone();
        let mut build = Vec::new();
        let begin = Instant::now();
        while build.len() < 3 || (begin.elapsed() < BUDGET && build.len() < MAX_REPS) {
            aged.set_age(Seconds::new(3600.0 * (build.len() + 1) as f64));
            let t0 = Instant::now();
            aged.warm_kernel();
            let t1 = Instant::now();
            buf.record(trace, Some(root), "xbar.kernel_build", t0, t1);
            build.push((t1 - t0).as_secs_f64() / 2.0);
        }

        let per_sample_us = |s: f64| s / samples * 1e6;
        TileNumbers {
            adc_ns: adc_s / currents.len() as f64 * 1e9,
            adjustments: adjustments as f64 / currents.len() as f64,
            dac_ns: dac_s / codes.len().max(1) as f64 * 1e9,
            mac_ns_per_cell: mac_s / cells * 1e9,
            energy_ns_per_cell: energy_s / cells * 1e9,
            kernel_build_us: crate::stats::median(&build) * 1e6,
            macro_us: per_sample_us(macro_s),
            unexplained_us: per_sample_us(macro_s - (mac_s + energy_s + adc_s + dac_s)),
            slowdown_x: macro_s / busy_per_rep,
        }
    })
}

/// `AfprAccelerator::matvec_batch` on the whole layer: (µs per sample,
/// host time over the paper's GOPS for the same operations), weighted
/// by request share over every format.
pub fn core(shape: &Shape, buf: &mut SpanBuf) -> (f64, f64) {
    let total: f64 = shape.modes.iter().map(|m| m.1).sum();
    let mut layer_us = 0.0;
    let mut slowdown = 0.0;
    let trace = buf.next_id();
    buf.span(trace, None, "core.layer", |buf, root| {
        for &(mode, share) in &shape.modes {
            let mut accel =
                AfprAccelerator::with_spec(MacroSpec::small(ROWS, COLS, mode), MODEL_SEED);
            let h = accel.map_matrix(&shape.weights);
            accel.calibrate_layer(h, &shape.patches);
            accel.warm_kernel();
            let ops0 = accel.stats().ops;
            let name = format!("core.matvec_batch_{}", format_wire_name(mode));
            let (s, reps) = timed(buf, trace, root, &name, || {
                for b in shape.patches.chunks(BATCH) {
                    black_box(accel.matvec_batch(h, b));
                }
            });
            let ops = (accel.stats().ops - ops0) as f64 / reps as f64;
            let w = share / total;
            layer_us += w * s / shape.patches.len() as f64 * 1e6;
            slowdown += w * s / (ops / (PAPER_GOPS * 1e9));
        }
    });
    (layer_us, slowdown)
}

/// In-process registry numbers.
#[derive(Debug, Default, Clone, Copy)]
pub struct ModelNumbers {
    /// `ModelRegistry::infer`, ms, request-weighted over keys.
    pub infer_ms: f64,
    /// Cold `ModelRegistry::get_or_load`, ms, mean over keys.
    pub compile_ms: f64,
}

/// Registry probes over the workload's keys. `light-router` never
/// reaches the registry; its figures are tiny-mlp at E2M5, the
/// registry's lightest key.
pub fn models(bench: &Bench, buf: &mut SpanBuf) -> ModelNumbers {
    let reference = &bench.reference;
    let mlp = ModelKind::TinyMlp;
    let light_input: Vec<f32> = (0..mlp.input_len())
        .map(|i| (i as f32 * 0.37).sin())
        .collect();
    let keys: Vec<(ModelKind, MacroMode, f64, Vec<f32>)> = match &bench.twin {
        Twin::Registry(_) => reference
            .keys
            .iter()
            .zip(&reference.shares)
            .zip(&reference.inputs)
            .filter_map(|((key, share), pool)| match *key {
                Key::Infer(kind, mode) => Some((kind, mode, *share, pool[0].clone())),
                Key::LightMatvec => None,
            })
            .collect(),
        Twin::Light(..) => vec![(mlp, MacroMode::FpE2M5, 1.0, light_input)],
    };
    let trace = buf.next_id();
    buf.span(trace, None, "models.probe", |buf, root| {
        let mut side = buf.sibling();
        let (numbers, side) = on_worker(|| {
            let cold = ModelRegistry::new(RegistryConfig::new(keys.len(), MODEL_SEED));
            let mut compile = Vec::new();
            for (kind, mode, _, _) in &keys {
                let t0 = Instant::now();
                black_box(cold.get_or_load(*kind, *mode));
                let t1 = Instant::now();
                side.record(trace, Some(root), "models.get_or_load", t0, t1);
                compile.push((t1 - t0).as_secs_f64() * 1e3);
            }
            let warm = match &bench.twin {
                Twin::Registry(reg) => reg,
                Twin::Light(..) => &cold,
            };
            let mut infer_ms = 0.0;
            for (kind, mode, share, x) in &keys {
                let mut reps = Vec::new();
                for _ in 0..3 {
                    let t0 = Instant::now();
                    black_box(
                        warm.infer(kind.wire_name(), format_wire_name(*mode), x)
                            .expect("probe infer"),
                    );
                    let t1 = Instant::now();
                    side.record(trace, Some(root), "models.infer", t0, t1);
                    reps.push((t1 - t0).as_secs_f64() * 1e3);
                }
                infer_ms += share * crate::stats::median(&reps);
            }
            let numbers = ModelNumbers {
                infer_ms,
                compile_ms: compile.iter().sum::<f64>() / compile.len() as f64,
            };
            (numbers, side)
        });
        buf.absorb(side);
        numbers
    })
}

/// Wire numbers: the workload's first key straight to a backend and
/// through a router, interleaved, on an idle deployment.
#[derive(Debug, Default, Clone, Copy)]
pub struct WireNumbers {
    /// Median `Client::call` RTT straight to a backend, µs.
    pub rtt_direct_us: f64,
    /// Median in-process compute of the same request, µs.
    pub compute_us: f64,
    /// Median over rounds of the RTT through the router minus the
    /// direct RTT of the same round.
    pub hop_us: f64,
    /// The router's `dispatch_latency` p50, µs.
    pub dispatch_p50_us: f64,
}

/// Measures [`WireNumbers`]. Workloads without a router get a
/// replicated one in front of their backend for the probe.
pub fn wire(bench: &mut Bench, buf: &mut SpanBuf) -> std::io::Result<WireNumbers> {
    let backend = bench.backends[0].local_addr();
    let own_router = match &bench.router {
        Some(_) => None,
        None => Some(Router::start(ClusterConfig::new(
            "127.0.0.1:0",
            &[backend.to_string()],
            Placement::Replicated,
        ))?),
    };
    let router_addr = bench
        .router
        .as_ref()
        .or(own_router.as_ref())
        .map(Router::local_addr)
        .expect("a router exists");
    let reference = std::sync::Arc::clone(&bench.reference);
    let job = crate::workload::Job { key: 0, input: 0 };
    let io = |e: afpr_serve::ClientError| std::io::Error::other(e.to_string());
    let mut direct = Client::connect(backend).map_err(io)?;
    let mut routed = Client::connect(router_addr).map_err(io)?;
    let trace = buf.next_id();
    let numbers = buf.span(trace, None, "serve.probe", |buf, root| {
        let mut d = Vec::new();
        let mut r = Vec::new();
        for round in 0..WIRE_ROUNDS {
            // Alternate which path goes first, so neither always runs
            // right after the other.
            let mut legs = [
                (&mut direct, &mut d, "serve.rtt_direct"),
                (&mut routed, &mut r, "cluster.rtt_router"),
            ];
            if round % 2 == 1 {
                legs.reverse();
            }
            for (client, out, name) in legs {
                let id = client.next_id();
                let req = reference.request(id, job);
                let t0 = Instant::now();
                let resp = client.call(&req).map_err(io)?;
                let t1 = Instant::now();
                if !resp.is_ok() {
                    return Err(std::io::Error::other("probe request failed"));
                }
                buf.record(trace, Some(root), name, t0, t1);
                out.push((t1 - t0).as_secs_f64() * 1e6);
            }
        }
        let x = &reference.inputs[job.key][job.input];
        let twin = &mut bench.twin;
        let mut side = buf.sibling();
        let (c, side) = on_worker(|| {
            let mut c = Vec::new();
            for _ in 0..20 {
                let t0 = Instant::now();
                match twin {
                    Twin::Registry(reg) => {
                        let Key::Infer(kind, mode) = reference.keys[job.key] else {
                            unreachable!("registry twins serve infer keys")
                        };
                        black_box(
                            reg.infer(kind.wire_name(), format_wire_name(mode), x)
                                .expect("twin infer"),
                        );
                    }
                    Twin::Light(accel, h) => {
                        black_box(accel.matvec(*h, x));
                    }
                }
                let t1 = Instant::now();
                side.record(trace, Some(root), "core.compute_in_process", t0, t1);
                c.push((t1 - t0).as_secs_f64() * 1e6);
            }
            (c, side)
        });
        buf.absorb(side);
        let hops: Vec<f64> = r.iter().zip(&d).map(|(r, d)| r - d).collect();
        let rtt_direct_us = crate::stats::median(&d);
        Ok(WireNumbers {
            rtt_direct_us,
            compute_us: crate::stats::median(&c),
            hop_us: crate::stats::median(&hops),
            dispatch_p50_us: 0.0,
        })
    });
    drop(direct);
    drop(routed);
    let mut numbers = numbers?;
    let snap = match own_router {
        Some(router) => router.shutdown(),
        None => bench
            .router
            .as_ref()
            .expect("checked above")
            .cluster_snapshot(),
    };
    numbers.dispatch_p50_us = snap.dispatch_latency.p50_ns as f64 / 1e3;
    Ok(numbers)
}

/// Serving-tier counters read through the `metrics` op.
#[derive(Debug, Default, Clone, Copy)]
pub struct ServerNumbers {
    /// `items_enqueued ÷ batches_flushed`, summed over backends.
    pub batch_mean: f64,
    /// Highest `queue_depth_hwm` of any backend.
    pub queue_hwm: f64,
    /// Mean over backends of the `job_latency` p50, µs.
    pub job_p50_us: f64,
    /// Mean over backends of the workload op's `per_op` p50, µs.
    pub op_p50_us: f64,
    /// Rejections plus protocol errors, backends and router.
    pub rejected: f64,
}

/// Reads every backend's (and the router's) `metrics` op.
pub fn server(bench: &Bench) -> std::io::Result<ServerNumbers> {
    let io = |e: afpr_serve::ClientError| std::io::Error::other(e.to_string());
    let op = match bench.reference.keys[0] {
        Key::Infer(..) => Op::Infer,
        Key::LightMatvec => Op::Matvec,
    };
    let mut snaps = Vec::new();
    for b in &bench.backends {
        snaps.push(
            Client::connect(b.local_addr())
                .map_err(io)?
                .metrics()
                .map_err(io)?,
        );
    }
    let n = snaps.len() as f64;
    let (mut items, mut batches) = (0u64, 0u64);
    let mut out = ServerNumbers::default();
    for s in &snaps {
        items += s.runtime.items_enqueued;
        batches += s.runtime.batches_flushed;
        out.queue_hwm = out.queue_hwm.max(s.runtime.queue_depth_hwm as f64);
        out.job_p50_us += s.runtime.job_latency.p50_ns as f64 / 1e3 / n;
        out.op_p50_us += s.op(op).map_or(0.0, |o| o.latency.p50_ns as f64) / 1e3 / n;
        out.rejected += (s.runtime.rejections.total() + s.protocol_errors) as f64;
    }
    out.batch_mean = items as f64 / batches.max(1) as f64;
    if let Some(r) = &bench.router {
        let s = Client::connect(r.local_addr())
            .map_err(io)?
            .metrics()
            .map_err(io)?;
        out.rejected += (s.runtime.rejections.total() + s.protocol_errors) as f64;
    }
    Ok(out)
}
