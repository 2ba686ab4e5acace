//! Conductance-kernel benchmark: measures what the cache-blocked
//! snapshot kernel and the batched GEMM path buy over the per-cell
//! uncached read path, end to end.
//!
//! Five sections, all seeded and bit-checked:
//!
//! 1. **Kernel microbench** — the paper's 576×256 array with realistic
//!    drift (ν = 0.005) at a nonzero age, so the uncached path pays a
//!    `powf` per cell per read. Reports uncached, cold-cache
//!    (invalidate + rebuild every read) and warm-cache matvec rates,
//!    and asserts the cached output is **bit-identical** to the
//!    uncached reference.
//! 2. **Batch sweep** — `Crossbar::mac_currents_batch` over
//!    B ∈ {1, 4, 16, 64}: per-B matvec throughput as one blocked
//!    conductance pass amortizes over the batch (`--batch B` restricts
//!    the sweep to a single point).
//! 3. **Accelerator matvec** — the demo 256→128 tiled layer through
//!    `AfprAccelerator::matvec` with warm kernels.
//! 4. **Parallel forward** — the same layer through the runtime
//!    engine (`matvec_parallel/s`), bit-checked against sequential.
//! 5. **Serve path** — an in-process server + client round-trip
//!    (`req/s`), i.e. the kernel speedup as a client would see it.
//!
//! Two performance-regression floors are enforced: `cold ≥ 0.95 ×
//! uncached` and `parallel ≥ serial`, each on reps interleaved with
//! their baseline. Full runs fail hard on a violation; `--quick` runs
//! only warn (quick timings are too noisy to gate on).
//!
//! Writes the results as JSON (default `BENCH_matvec.json`).
//!
//! Usage: `cargo run --release --bin kernel [--quick] [--seed S] [--batch B] [--out PATH]`

use std::hint::black_box;
use std::time::Instant;

use afpr_circuit::units::{Seconds, Volts};
use afpr_core::accelerator::{AfprAccelerator, LayerHandle};
use afpr_device::DeviceConfig;
use afpr_nn::tensor::Tensor;
use afpr_runtime::Engine;
use afpr_serve::{Client, ServeModel, Server, ServerConfig};
use afpr_xbar::crossbar::Crossbar;
use afpr_xbar::spec::{MacroMode, MacroSpec};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::Serialize;

const K: usize = 256;
const N: usize = 128;

#[derive(Serialize)]
struct KernelSection {
    rows: usize,
    cols: usize,
    age_seconds: f64,
    drift_nu: f64,
    bit_identical: bool,
    uncached_matvec_per_s: f64,
    cold_matvec_per_s: f64,
    warm_matvec_per_s: f64,
    warm_speedup_vs_uncached: f64,
}

#[derive(Serialize)]
struct BatchPoint {
    batch: usize,
    matvec_per_s: f64,
    speedup_vs_b1: f64,
}

#[derive(Serialize)]
struct BatchSection {
    rows: usize,
    cols: usize,
    bit_identical: bool,
    points: Vec<BatchPoint>,
}

#[derive(Serialize)]
struct AccelSection {
    layer: String,
    matvec_per_s: f64,
    matvec_parallel_per_s: f64,
    parallel_threads: usize,
    bit_identical: bool,
    /// Modeled analog + digital energy per matvec (EnergyModel ledger
    /// delta across the timed loop ÷ matvecs), in joules.
    joules_per_matvec: f64,
    /// `joules_per_matvec × matvec_per_s`, in mW — comparable to the
    /// paper's 74.1 mW operating point.
    modeled_power_mw: f64,
}

#[derive(Serialize)]
struct ServeSection {
    requests: usize,
    req_per_s: f64,
}

#[derive(Serialize)]
struct Report {
    bench: &'static str,
    seed: u64,
    quick: bool,
    kernel_576x256: KernelSection,
    batch_sweep: BatchSection,
    accelerator_demo: AccelSection,
    serve: ServeSection,
}

/// Enforces a performance-regression floor: hard failure in full runs,
/// a printed warning in `--quick` (quick timings are too noisy to gate
/// on).
fn enforce_floor(quick: bool, ok: bool, what: &str) {
    if ok {
        println!("floor ok          : {what}");
    } else if quick {
        println!("WARNING (quick)   : floor violated: {what}");
    } else {
        panic!("perf floor violated: {what}");
    }
}

fn flag_present(args: &[String], name: &str) -> bool {
    args.iter().any(|a| a == name)
}

fn flag_value<T: std::str::FromStr>(args: &[String], name: &str) -> Option<T> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse::<T>().ok())
}

/// Rate in ops/s for `reps` repetitions taking `secs` seconds.
fn rate(reps: usize, secs: f64) -> f64 {
    reps as f64 / secs.max(1e-12)
}

/// Section 1: the 576×256 crossbar kernel with drift active.
fn kernel_microbench(seed: u64, quick: bool) -> KernelSection {
    let rows = 576;
    let cols = 256;
    // Realistic device (drift ν = 0.005) aged ~5 weeks: the uncached
    // path evaluates one power-law drift factor per cell per read.
    let mut xb = Crossbar::new(rows, cols, DeviceConfig::realistic(32));
    let mut rng = StdRng::seed_from_u64(seed);
    let levels: Vec<u32> = (0..rows * cols).map(|_| rng.gen_range(0..32)).collect();
    xb.program_levels(&levels, &mut rng);
    let age = Seconds::new(3.0e6);
    xb.set_age(age);
    let v: Vec<Volts> = (0..rows)
        .map(|r| Volts::new(0.02 + 0.001 * (r % 64) as f64))
        .collect();

    // Bit-identity gate: the cached kernel must reproduce the uncached
    // per-cell path exactly, bit for bit. This is the determinism
    // contract CI relies on; a mismatch is a hard failure.
    let cached = xb.mac_currents(&v);
    let reference = xb.mac_currents_uncached(&v);
    assert_eq!(cached.len(), reference.len());
    for (c, (a, b)) in cached.iter().zip(&reference).enumerate() {
        assert_eq!(
            a.amps().to_bits(),
            b.amps().to_bits(),
            "cached kernel diverged from uncached reference at column {c}"
        );
    }
    println!("bit-identity      : cached == uncached over {cols} columns ✓");

    let (reps_slow, reps_warm) = if quick { (4, 60) } else { (24, 600) };

    // Uncached vs cold cache, interleaved rep-by-rep: the floor below
    // gates on their *ratio*, and two back-to-back loops would let
    // frequency or load drift between them masquerade as a regression.
    // Cold means "snapshot invalid, the read pays the full fused
    // rebuild" — `set_age` to the same value still bumps the
    // generation (invalidation is conservative by design) and stays
    // off the clock so only the rebuild-on-read is timed.
    let mut uncached_t = 0.0f64;
    let mut cold_t = 0.0f64;
    for _ in 0..reps_slow {
        let t0 = Instant::now();
        black_box(xb.mac_currents_uncached(&v));
        uncached_t += t0.elapsed().as_secs_f64();

        xb.set_age(age);
        let t0 = Instant::now();
        black_box(xb.mac_currents(&v));
        cold_t += t0.elapsed().as_secs_f64();
    }
    let uncached_s = rate(reps_slow, uncached_t);
    let cold_s = rate(reps_slow, cold_t);

    // Warm cache: snapshot built once, every read reuses it.
    xb.set_age(age); // start from a cold cache…
    black_box(xb.mac_currents(&v)); // …build exactly once
    let builds_before = xb.kernel_builds();
    let t0 = Instant::now();
    for _ in 0..reps_warm {
        black_box(xb.mac_currents(&v));
    }
    let warm_s = rate(reps_warm, t0.elapsed().as_secs_f64());
    assert_eq!(
        xb.kernel_builds(),
        builds_before,
        "warm loop must not rebuild the snapshot"
    );

    let speedup = warm_s / uncached_s;
    println!("uncached          : {uncached_s:>10.1} matvec/s (576×256, drift active)");
    println!("cold cache        : {cold_s:>10.1} matvec/s (rebuild every read)");
    println!("warm cache        : {warm_s:>10.1} matvec/s  speedup ×{speedup:.2} vs uncached");
    enforce_floor(
        quick,
        cold_s >= 0.95 * uncached_s,
        &format!(
            "cold ≥ 0.95× uncached (cold {cold_s:.1}/s, uncached {uncached_s:.1}/s, ratio {:.3})",
            cold_s / uncached_s
        ),
    );

    KernelSection {
        rows,
        cols,
        age_seconds: age.seconds(),
        drift_nu: 0.005,
        bit_identical: true,
        uncached_matvec_per_s: uncached_s,
        cold_matvec_per_s: cold_s,
        warm_matvec_per_s: warm_s,
        warm_speedup_vs_uncached: speedup,
    }
}

/// Section 2: batched-GEMM sweep on the 576×256 crossbar — one blocked
/// conductance pass amortized over B drive vectors.
fn batch_sweep(seed: u64, quick: bool, only: Option<usize>) -> BatchSection {
    let rows = 576;
    let cols = 256;
    let mut xb = Crossbar::new(rows, cols, DeviceConfig::realistic(32));
    let mut rng = StdRng::seed_from_u64(seed ^ 0xB47C);
    let levels: Vec<u32> = (0..rows * cols).map(|_| rng.gen_range(0..32)).collect();
    xb.program_levels(&levels, &mut rng);
    xb.set_age(Seconds::new(3.0e6));
    let mk_v = |s: usize| -> Vec<Volts> {
        (0..rows)
            .map(|r| Volts::new(0.02 + 0.001 * ((r + 7 * s) % 64) as f64))
            .collect()
    };
    // Warm the blocked snapshot once; the sweep measures pure GEMM.
    black_box(xb.mac_currents(&mk_v(0)));

    let sweep: Vec<usize> = only.map_or_else(|| vec![1, 4, 16, 64], |b| vec![b.max(1)]);
    let target_samples = if quick { 240 } else { 2400 };
    let mut bit_identical = true;
    let mut points = Vec::with_capacity(sweep.len());
    let mut b1_per_s = None;
    for &b in &sweep {
        let vs: Vec<Vec<Volts>> = (0..b).map(mk_v).collect();
        // Bit-identity gate per B: the batched slab must equal B
        // sequential blocked matvecs exactly.
        let got = xb.mac_currents_batch(&vs);
        for (s, v) in vs.iter().enumerate() {
            let want = xb.mac_currents(v);
            for (a, w) in got[s].iter().zip(&want) {
                bit_identical &= a.amps().to_bits() == w.amps().to_bits();
            }
        }
        let reps = (target_samples / b).max(1);
        let t0 = Instant::now();
        for _ in 0..reps {
            black_box(xb.mac_currents_batch(&vs));
        }
        let per_s = rate(reps * b, t0.elapsed().as_secs_f64());
        let base = *b1_per_s.get_or_insert(per_s);
        let speedup = per_s / base;
        println!("batch B={b:<4}      : {per_s:>10.1} matvec/s  ×{speedup:.2} vs B=1");
        points.push(BatchPoint {
            batch: b,
            matvec_per_s: per_s,
            speedup_vs_b1: speedup,
        });
    }
    assert!(
        bit_identical,
        "batched GEMM diverged from the per-sample blocked path"
    );
    BatchSection {
        rows,
        cols,
        bit_identical,
        points,
    }
}

fn tiled_accel(seed: u64) -> (AfprAccelerator, LayerHandle) {
    let base = MacroSpec::small(64, 32, MacroMode::FpE2M5);
    let mut accel = AfprAccelerator::with_spec(base, seed);
    let w = Tensor::from_fn(&[K, N], |i| {
        (((i[0] * N + i[1]) * 7 % 23) as f32 - 11.0) / 22.0
    });
    let handle = accel.map_matrix(&w);
    let x: Vec<f32> = (0..K).map(|k| ((k as f32) * 0.13).sin()).collect();
    accel.calibrate_layer(handle, std::slice::from_ref(&x));
    accel.warm_kernel();
    (accel, handle)
}

/// Sections 2 + 3: demo tiled layer, sequential and parallel.
fn accel_bench(seed: u64, quick: bool) -> AccelSection {
    let reps = if quick { 8 } else { 64 };
    let xs: Vec<Vec<f32>> = (0..8).map(|s| ServeModel::demo_input(K, s)).collect();

    let (mut accel, handle) = tiled_accel(seed);
    let (mut par_accel, par_handle) = tiled_accel(seed);
    let engine = Engine::with_threads(4);
    let energy_before = accel.stats().energy.total().joules() + accel.adder_energy().joules();

    // Serial vs parallel, interleaved rep by rep as in the kernel
    // section: the floor gates on the median per-rep speed ratio, so a
    // load or frequency phase that covers one loop but not the other
    // (e.g. right after another bench) cannot pass for a regression.
    let mut golden = Vec::new();
    let mut outputs = Vec::new();
    let (mut seq_t, mut par_t) = (0.0f64, 0.0f64);
    let mut ratios = Vec::with_capacity(reps);
    for _ in 0..reps {
        let t0 = Instant::now();
        for x in &xs {
            golden.push(accel.matvec(handle, x));
        }
        let seq = t0.elapsed().as_secs_f64();
        let t0 = Instant::now();
        outputs.extend(par_accel.forward_batch(par_handle, &xs, &engine));
        let par = t0.elapsed().as_secs_f64();
        seq_t += seq;
        par_t += par;
        ratios.push(seq / par.max(1e-12));
    }
    let seq_s = rate(reps * xs.len(), seq_t);
    let par_s = rate(reps * xs.len(), par_t);
    ratios.sort_by(f64::total_cmp);
    let median_ratio = (ratios[(reps - 1) / 2] + ratios[reps / 2]) / 2.0;
    let energy_after = accel.stats().energy.total().joules() + accel.adder_energy().joules();
    let j_per_matvec = (energy_after - energy_before) / (reps * xs.len()) as f64;
    // Modeled power if the analog tier ran back-to-back at the measured
    // simulation rate (mJ/matvec × matvec/s = mW).
    let modeled_mw = j_per_matvec * 1e3 * seq_s;

    let identical = outputs.len() == golden.len()
        && outputs
            .iter()
            .zip(&golden)
            .all(|(a, b)| a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits()));
    assert!(identical, "parallel forward diverged from sequential");

    println!(
        "matvec (warm)     : {seq_s:>10.1} matvec/s ({} tiles/input)",
        accel.macro_count()
    );
    println!("matvec_parallel   : {par_s:>10.1} matvec/s (4 threads, bit-identical)");
    println!(
        "energy            : {:>10.3} µJ/matvec  ({modeled_mw:.1} mW at the measured rate)",
        j_per_matvec * 1e6
    );
    enforce_floor(
        quick,
        median_ratio >= 1.0,
        &format!(
            "parallel ≥ serial at accelerator_demo size (parallel {par_s:.1}/s, serial {seq_s:.1}/s, median per-rep ratio {median_ratio:.3} over {reps} interleaved reps)"
        ),
    );

    AccelSection {
        layer: format!("{K}x{N} over 64x32 tiles"),
        matvec_per_s: seq_s,
        matvec_parallel_per_s: par_s,
        parallel_threads: 4,
        bit_identical: identical,
        joules_per_matvec: j_per_matvec,
        modeled_power_mw: modeled_mw,
    }
}

/// Section 4: in-process server round-trips.
fn serve_bench(seed: u64, quick: bool) -> ServeSection {
    let n_reqs = if quick { 50 } else { 500 };
    let server =
        Server::start(ServerConfig::default(), ServeModel::demo(seed)).expect("server starts");
    let mut client = Client::connect(server.local_addr()).expect("client connects");
    // One warmup round-trip so connection setup is off the clock.
    black_box(client.matvec(ServeModel::demo_input(K, 0)).expect("warmup"));
    let t0 = Instant::now();
    for id in 0..n_reqs {
        let out = client
            .matvec(ServeModel::demo_input(K, id))
            .expect("request served");
        black_box(out);
    }
    let req_s = rate(n_reqs, t0.elapsed().as_secs_f64());
    let _ = server.shutdown();
    println!("serve round-trip  : {req_s:>10.1} req/s (single client)");
    ServeSection {
        requests: n_reqs,
        req_per_s: req_s,
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = flag_present(&args, "--quick");
    let seed = flag_value::<u64>(&args, "--seed").unwrap_or(2024);
    let batch = flag_value::<usize>(&args, "--batch");
    let out = flag_value::<String>(&args, "--out").unwrap_or_else(|| "BENCH_matvec.json".into());

    println!(
        "conductance-kernel benchmark (seed {seed}, {})\n",
        if quick { "quick" } else { "full" }
    );
    let kernel = kernel_microbench(seed, quick);
    let sweep = batch_sweep(seed, quick, batch);
    let accel = accel_bench(seed, quick);
    let serve = serve_bench(seed, quick);

    let report = Report {
        bench: "matvec",
        seed,
        quick,
        kernel_576x256: kernel,
        batch_sweep: sweep,
        accelerator_demo: accel,
        serve,
    };
    let pretty = serde_json::to_string_pretty(&report).expect("serialize");
    std::fs::write(&out, format!("{pretty}\n")).expect("write report");
    println!("\nwrote {out}");
}
