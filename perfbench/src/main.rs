//! Repository benchmark for the AFPR-CIM serving stack.
//!
//! Drives the system from outside — `afpr-serve`'s `Client`, `Server`
//! and `ServeModel`, `afpr-cluster`'s `Router`, `afpr-models`'
//! `ModelRegistry` — on one of two workloads, and checks every answer
//! bit for bit (and its modeled energy) against an in-process twin
//! computed during set-up.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload mlp-churn --seed 1 --seconds 50 --trace 0
//! ```
//!
//! `--trace 0` prints the end-to-end metrics; `--trace 1` runs the same
//! workload and seed untraced and traced, then times each layer's
//! public calls, prints the per-layer metrics and writes every span to
//! `perfbench/out/trace-<workload>-seed<seed>.json`. Metric names and
//! units are the ones `BENCHMARK.json` in the working directory
//! declares. The last line of standard output is always the JSON
//! result.

mod probe;
mod stats;
mod trace;
mod workload;

use std::io;
use std::process::ExitCode;
use std::time::Instant;

use afpr_cluster::ClusterConfig;
use afpr_models::RegistrySnapshot;
use afpr_serve::{Client, ServerConfig};
use serde::{Deserialize, Value};

use trace::SpanBuf;
use workload::{Bench, Window, Workload};

/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPEATS: usize = 5;

/// The paper's efficiency at its design point, TFLOPS/W.
const PAPER_TFLOPS_PER_W: f64 = 19.89;

/// What the compute layers should move: on both workloads compute is
/// about 25 µs of a request of about 1 ms.
const COMPUTE: &str = "latency_p50_ms, by compute's ~3 % share of it";
const BOTH: &str = "mlp-churn, light-router";

/// For every per-layer metric: the end-to-end metric it should move,
/// the workloads it should move it on, and where it should stay flat.
/// Every trace report carries this map, with the unit and direction
/// `BENCHMARK.json` declares.
const LAYER_MAP: [(&str, &str, &str, &str); 30] = [
    ("circuit.fp_adc_ns", COMPUTE, BOTH, ""),
    (
        "circuit.fp_adc_adjustments",
        "latency_tail_ms",
        "mlp-churn (E3M4 share)",
        "light-router",
    ),
    ("circuit.fp_dac_ns", COMPUTE, BOTH, ""),
    ("xbar.mac_ns_per_cell", COMPUTE, BOTH, ""),
    ("xbar.array_energy_ns_per_cell", COMPUTE, BOTH, ""),
    (
        "xbar.kernel_build_us",
        "latency_tail_ms, setup_s",
        "mlp-churn",
        "light-router",
    ),
    ("xbar.macro_us", COMPUTE, BOTH, ""),
    ("xbar.macro_unexplained_us", COMPUTE, BOTH, ""),
    ("xbar.slowdown_x", COMPUTE, BOTH, ""),
    ("core.layer_us", COMPUTE, BOTH, ""),
    ("core.slowdown_x", COMPUTE, BOTH, ""),
    (
        "runtime.batch_mean",
        "latency_p50_ms",
        "light-router",
        "mlp-churn",
    ),
    (
        "runtime.queue_hwm",
        "latency_tail_ms, failed",
        "light-router",
        "mlp-churn",
    ),
    (
        "runtime.job_p50_us",
        "latency_p50_ms",
        "any that runs engine jobs",
        "mlp-churn, light-router (0: no engine jobs)",
    ),
    ("models.infer_ms", COMPUTE, "mlp-churn", "light-router"),
    (
        "models.compile_ms",
        "latency_tail_ms, setup_s",
        "mlp-churn",
        "light-router",
    ),
    (
        "models.hit_ratio",
        "latency_tail_ms",
        "mlp-churn",
        "light-router",
    ),
    (
        "models.loads",
        "latency_tail_ms, peak_rss_mb",
        "mlp-churn",
        "light-router",
    ),
    (
        "models.evictions",
        "latency_tail_ms, peak_rss_mb",
        "mlp-churn",
        "light-router",
    ),
    ("serve.rtt_direct_us", "latency_p50_ms", BOTH, ""),
    ("serve.overhead_us", "latency_p50_ms", BOTH, ""),
    ("serve.op_p50_us", "latency_p50_ms", BOTH, ""),
    ("serve.rejected", "failed", BOTH, ""),
    (
        "cluster.hop_us",
        "latency_p50_ms",
        "light-router",
        "mlp-churn (probe router only)",
    ),
    (
        "cluster.dispatch_p50_us",
        "latency_p50_ms",
        "light-router",
        "mlp-churn (probe router only)",
    ),
    ("loadgen.lag_p99_ms", "validity of the open loop", BOTH, ""),
    (
        "loadgen.trace_overhead",
        "validity of the traced run",
        BOTH,
        "",
    ),
    (
        "latency.p50_ms",
        "latency_p50_ms (untraced half of the traced run)",
        BOTH,
        "",
    ),
    ("latency.explained_ms", "latency_p50_ms", BOTH, ""),
    ("latency.unexplained_ms", "latency_p50_ms", BOTH, ""),
];

/// A metric as `BENCHMARK.json` declares it.
#[derive(Debug, Deserialize)]
struct Declared {
    name: String,
    unit: String,
    better: String,
}

/// The metric lists of `BENCHMARK.json`.
#[derive(Debug, Deserialize)]
struct Declarations {
    end_to_end: Vec<Declared>,
    per_layer: Vec<Declared>,
}

/// Reads the metric declarations from `BENCHMARK.json` in the working
/// directory, the one place metric names, units and directions are
/// written down.
fn declarations() -> io::Result<Declarations> {
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| io::Error::other(format!("BENCHMARK.json: {e}")))?;
    serde_json::from_str(&text).map_err(|e| io::Error::other(format!("BENCHMARK.json: {e}")))
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let value = |name: &str| -> Result<&str, String> {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1))
            .map(String::as_str)
            .ok_or_else(|| format!("missing {name}"))
    };
    let name = value("--workload")?;
    let workload = Workload::parse(name).ok_or_else(|| format!("unknown workload {name:?}"))?;
    let seed = value("--seed")?
        .parse()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = value("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds.is_finite()) {
        return Err("--seconds must be positive".into());
    }
    let trace = match value("--trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// The host a report was measured on.
fn host_fingerprint() -> Vec<(String, Value)> {
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    let target_cpu = std::fs::read_to_string(".cargo/config.toml")
        .ok()
        .and_then(|s| {
            let at = s.find("target-cpu=")? + "target-cpu=".len();
            Some(
                s[at..]
                    .chars()
                    .take_while(|c| !matches!(c, '"' | '\'' | ' ' | ']' | '\n'))
                    .collect::<String>(),
            )
        })
        .unwrap_or_else(|| "default".into());
    let rustc = std::process::Command::new("rustc")
        .arg("-V")
        .output()
        .ok()
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    vec![
        ("nproc".into(), Value::U64(nproc as u64)),
        ("target_cpu".into(), Value::Str(target_cpu)),
        ("avx2".into(), Value::Bool(cfg!(target_feature = "avx2"))),
        ("profile".into(), Value::Str(profile.into())),
        ("rustc".into(), Value::Str(rustc)),
        (
            "serve_transport".into(),
            Value::Str(format!("{:?}", ServerConfig::default().transport).to_lowercase()),
        ),
        (
            "cluster_transport".into(),
            Value::Str(format!("{:?}", ClusterConfig::default().transport).to_lowercase()),
        ),
    ]
}

/// One `# key=value …` line of a fingerprint-style list.
fn describe(pairs: &[(String, Value)]) -> String {
    pairs
        .iter()
        .map(|(k, v)| match v {
            Value::Str(s) => format!("{k}={s:?}"),
            Value::Bool(b) => format!("{k}={b}"),
            Value::U64(n) => format!("{k}={n}"),
            Value::I64(n) => format!("{k}={n}"),
            Value::F64(x) => format!("{k}={x:.4}"),
            _ => format!("{k}=…"),
        })
        .collect::<Vec<_>>()
        .join(" ")
}

/// The result line: exactly `correct`, `attempted`, `failed` and
/// `metrics`, the last holding every `declared` metric in declared
/// order, with its declared unit.
///
/// # Errors
///
/// A declared metric the run did not measure, or a measured one that
/// is not declared.
fn result_line(w: &Window, declared: &[Declared], values: &[(&str, f64)]) -> io::Result<String> {
    if let Some((name, _)) = values
        .iter()
        .find(|(n, _)| !declared.iter().any(|d| d.name == *n))
    {
        return Err(io::Error::other(format!(
            "{name} is measured but not declared in BENCHMARK.json"
        )));
    }
    let mut finite = true;
    let mut body = Vec::with_capacity(declared.len());
    for d in declared {
        let value = values
            .iter()
            .find(|(n, _)| *n == d.name)
            .map(|v| v.1)
            .ok_or_else(|| {
                io::Error::other(format!(
                    "BENCHMARK.json declares {}, which this run does not measure",
                    d.name
                ))
            })?;
        finite &= value.is_finite();
        let v = if value.is_finite() { value } else { 0.0 };
        body.push(format!(
            "{:?}: {{\"value\": {v}, \"unit\": {:?}}}",
            d.name, d.unit
        ));
    }
    let correct = w.failed() == 0 && w.attempted > 0 && finite;
    Ok(format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        w.attempted,
        w.failed(),
        body.join(", ")
    ))
}

fn sorted(v: &[f64]) -> Vec<f64> {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// Counts and whole-window percentiles of a window, for the
/// human-readable lines.
fn window_summary(w: &Window) -> Vec<(String, Value)> {
    let lat = sorted(&w.latency_ms);
    let tail = stats::tail(&lat);
    vec![
        ("attempted".into(), Value::U64(w.attempted)),
        ("correct".into(), Value::U64(w.correct)),
        ("transport_errors".into(), Value::U64(w.transport_errors)),
        ("non_2xx".into(), Value::U64(w.non_ok)),
        ("mismatches".into(), Value::U64(w.mismatches)),
        (
            "error_rate".into(),
            Value::F64(w.failed() as f64 / w.attempted.max(1) as f64),
        ),
        ("tail_percentile".into(), Value::F64(tail.pct)),
        ("tail_samples_beyond".into(), Value::U64(tail.beyond as u64)),
        (
            "window_p50_ms".into(),
            Value::F64(stats::percentile(&lat, 50.0)),
        ),
        (
            "window_p90_ms".into(),
            Value::F64(stats::percentile(&lat, 90.0)),
        ),
        (
            "window_p99_ms".into(),
            Value::F64(stats::percentile(&lat, 99.0)),
        ),
        (
            "window_p999_ms".into(),
            Value::F64(stats::percentile(&lat, 99.9)),
        ),
        ("window_s".into(), Value::F64(w.elapsed_s)),
    ]
}

fn end_to_end(w: &Window, setup_s: f64) -> Vec<(&'static str, f64)> {
    let lat = sorted(&w.latency_ms);
    let metered = w.metered.max(1) as f64;
    vec![
        ("setup_s", setup_s),
        ("ok_per_s", w.correct as f64 / w.elapsed_s),
        ("latency_p50_ms", stats::percentile(&lat, 50.0)),
        ("latency_tail_ms", stats::tail(&lat).value),
        ("modeled_uj_per_req", w.energy_mj / metered * 1e3),
        ("peak_rss_mb", stats::peak_rss_mb()),
    ]
}

/// Registry counters of the first backend, through the `metrics` op.
fn registry_snapshot(bench: &Bench) -> Option<RegistrySnapshot> {
    Client::connect(bench.backends[0].local_addr())
        .ok()?
        .metrics()
        .ok()?
        .registry
}

/// `(hit_ratio, loads, evictions)` between two registry snapshots;
/// workloads without a registry never miss.
fn registry_delta(
    before: Option<&RegistrySnapshot>,
    after: Option<&RegistrySnapshot>,
) -> (f64, f64, f64) {
    let (Some(b), Some(a)) = (before, after) else {
        return (1.0, 0.0, 0.0);
    };
    let infers = |s: &RegistrySnapshot| s.models.iter().map(|m| m.infers).sum::<u64>();
    let served = (infers(a) - infers(b)).max(1) as f64;
    let loads = (a.loads - b.loads) as f64;
    (
        1.0 - loads / served,
        loads,
        (a.evictions - b.evictions) as f64,
    )
}

fn untraced(args: &Args, declared: &Declarations) -> io::Result<()> {
    let mut setups = Vec::with_capacity(SETUP_REPEATS);
    let mut bench: Option<Bench> = None;
    for _ in 0..SETUP_REPEATS {
        if let Some(previous) = bench.take() {
            previous.shutdown();
        }
        let t0 = Instant::now();
        bench = Some(workload::setup(args.workload, args.seed)?);
        setups.push(t0.elapsed().as_secs_f64());
    }
    let bench = bench.expect("at least one set-up");
    let window = workload::open_loop(&bench, args.seconds, None);
    let metrics = end_to_end(&window, stats::median(&setups));
    bench.shutdown();
    println!("# window {}", describe(&window_summary(&window)));
    print_efficiency();
    println!("{}", result_line(&window, &declared.end_to_end, &metrics)?);
    Ok(())
}

fn traced(args: &Args, declared: &Declarations) -> io::Result<()> {
    let mut bench = workload::setup(args.workload, args.seed)?;
    let half = args.seconds / 2.0;
    let reg_before = registry_snapshot(&bench);
    let plain = workload::open_loop(&bench, half, None);
    let reg_after = registry_snapshot(&bench);
    let tracer = SpanBuf::new();
    let mut traced = workload::open_loop(&bench, half, Some(&tracer));
    let mut spans = tracer;
    if let Some(s) = traced.spans.take() {
        spans.absorb(s);
    }

    let srv = probe::server(&bench)?;
    let shape = probe::shape(&bench);
    let tiles = probe::tiles(&shape, &mut spans);
    let (layer_us, core_slowdown) = probe::core(&shape, &mut spans);
    let models = probe::models(&bench, &mut spans);
    let wire = probe::wire(&mut bench, &mut spans)?;
    let (hit_ratio, loads, evictions) = registry_delta(reg_before.as_ref(), reg_after.as_ref());
    bench.shutdown();

    let plain_p50 = stats::percentile(&sorted(&plain.latency_ms), 50.0);
    let traced_p50 = stats::percentile(&sorted(&traced.latency_ms), 50.0);
    // The compute in a request's path, and the router hop if one is in
    // that path.
    let (compute_ms, hop_in_path_ms) = match args.workload {
        Workload::LightRouter => (wire.compute_us / 1e3, wire.hop_us / 1e3),
        Workload::MlpChurn => (models.infer_ms, 0.0),
    };
    let overhead_us = wire.rtt_direct_us - wire.compute_us;
    let explained_ms = compute_ms + overhead_us / 1e3 + hop_in_path_ms;
    let values = [
        ("circuit.fp_adc_ns", tiles.adc_ns),
        ("circuit.fp_adc_adjustments", tiles.adjustments),
        ("circuit.fp_dac_ns", tiles.dac_ns),
        ("xbar.mac_ns_per_cell", tiles.mac_ns_per_cell),
        ("xbar.array_energy_ns_per_cell", tiles.energy_ns_per_cell),
        ("xbar.kernel_build_us", tiles.kernel_build_us),
        ("xbar.macro_us", tiles.macro_us),
        ("xbar.macro_unexplained_us", tiles.unexplained_us),
        ("xbar.slowdown_x", tiles.slowdown_x),
        ("core.layer_us", layer_us),
        ("core.slowdown_x", core_slowdown),
        ("runtime.batch_mean", srv.batch_mean),
        ("runtime.queue_hwm", srv.queue_hwm),
        ("runtime.job_p50_us", srv.job_p50_us),
        ("models.infer_ms", models.infer_ms),
        ("models.compile_ms", models.compile_ms),
        ("models.hit_ratio", hit_ratio),
        ("models.loads", loads),
        ("models.evictions", evictions),
        ("serve.rtt_direct_us", wire.rtt_direct_us),
        ("serve.overhead_us", overhead_us),
        ("serve.op_p50_us", srv.op_p50_us),
        ("serve.rejected", srv.rejected),
        ("cluster.hop_us", wire.hop_us),
        ("cluster.dispatch_p50_us", wire.dispatch_p50_us),
        (
            "loadgen.lag_p99_ms",
            stats::percentile(&sorted(&plain.lag_ms), 99.0),
        ),
        ("loadgen.trace_overhead", traced_p50 / plain_p50 - 1.0),
        ("latency.p50_ms", plain_p50),
        ("latency.explained_ms", explained_ms),
        ("latency.unexplained_ms", plain_p50 - explained_ms),
    ];

    println!(
        "# latency p50 {plain_p50:.3} ms: layers explain {explained_ms:.3} ms \
         (compute {compute_ms:.3} + serve overhead {:.3} + router hop {hop_in_path_ms:.3}), \
         unexplained {:.3} ms",
        overhead_us / 1e3,
        plain_p50 - explained_ms
    );
    let plain_summary = window_summary(&plain);
    let traced_summary = window_summary(&traced);
    println!("# untraced half {}", describe(&plain_summary));
    println!("# traced half {}", describe(&traced_summary));
    let mut both = plain;
    both.merge(traced);
    let line = result_line(&both, &declared.per_layer, &values)?;

    // `result_line` has checked that the declared metrics are the
    // measured ones.
    let layer_map = declared
        .per_layer
        .iter()
        .map(|d| {
            let &(_, moves, on, flat) = LAYER_MAP
                .iter()
                .find(|row| row.0 == d.name)
                .expect("every measured per-layer metric has a layer-map row");
            Value::Map(vec![
                ("metric".into(), Value::Str(d.name.clone())),
                ("unit".into(), Value::Str(d.unit.clone())),
                ("better".into(), Value::Str(d.better.clone())),
                ("should_move".into(), Value::Str(moves.into())),
                ("on_workloads".into(), Value::Str(on.into())),
                ("flat_on".into(), Value::Str(flat.into())),
            ])
        })
        .collect();
    let metric_values = values
        .iter()
        .map(|&(name, v)| (name.to_string(), Value::F64(v)))
        .collect();
    let path = format!(
        "perfbench/out/trace-{}-seed{}.json",
        args.workload.name(),
        args.seed
    );
    let report = Value::Map(vec![
        ("workload".into(), Value::Str(args.workload.name().into())),
        ("seed".into(), Value::U64(args.seed)),
        ("host".into(), Value::Map(host_fingerprint())),
        ("untraced_half".into(), Value::Map(plain_summary)),
        ("traced_half".into(), Value::Map(traced_summary)),
        ("metrics".into(), Value::Map(metric_values)),
        ("layer_map".into(), Value::Seq(layer_map)),
    ]);
    trace::write_report(std::path::Path::new(&path), &spans, report)?;
    println!("# trace {path} ({} spans)", spans.len());
    print_efficiency();
    println!("{line}");
    Ok(())
}

/// Prints the modeled efficiency of tiny-resnet at E2M5 next to the
/// paper's figure (the model's reference error; reported, not gated).
fn print_efficiency() {
    let t = workload::resnet_tflops_per_w();
    println!(
        "# modeled tiny-resnet@e2m5 efficiency {t:.3} TFLOPS/W vs paper {PAPER_TFLOPS_PER_W} \
         ({:+.1}% reference error)",
        (t / PAPER_TFLOPS_PER_W - 1.0) * 100.0
    );
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <mlp-churn|light-router> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    println!(
        "# host {} workload={} seed={}",
        describe(&host_fingerprint()),
        args.workload.name(),
        args.seed
    );
    let run = declarations().and_then(|declared| {
        if args.trace {
            traced(&args, &declared)
        } else {
            untraced(&args, &declared)
        }
    });
    match run {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
