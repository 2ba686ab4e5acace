//! Criterion benches of the runtime layer: sequential vs parallel
//! tiled matvec, and micro-batched layer execution.
//!
//! The workload is a 16-tile layer of small macros (4×4 grid of
//! 64×32 tiles), which is the regime the worker pool targets: enough
//! independent tile jobs to occupy several cores, with the behavioral
//! macro model (DAC → array → FP-ADC per tile) dominating the job
//! dispatch overhead.

use afpr_core::accelerator::{AfprAccelerator, LayerHandle};
use afpr_nn::tensor::Tensor;
use afpr_runtime::Engine;
use afpr_xbar::spec::{MacroMode, MacroSpec};
use criterion::{black_box, criterion_group, criterion_main, Criterion};

const K: usize = 256; // 4 row tiles of 64
const N: usize = 128; // 4 col tiles of 32

fn tiled_accel(seed: u64) -> (AfprAccelerator, LayerHandle, Vec<f32>) {
    let base = MacroSpec::small(64, 32, MacroMode::FpE2M5);
    let mut accel = AfprAccelerator::with_spec(base, seed);
    let w = Tensor::from_fn(&[K, N], |i| {
        (((i[0] * N + i[1]) * 7 % 23) as f32 - 11.0) / 22.0
    });
    let handle = accel.map_matrix(&w);
    let x: Vec<f32> = (0..K).map(|k| ((k as f32) * 0.13).sin()).collect();
    accel.calibrate_layer(handle, std::slice::from_ref(&x));
    (accel, handle, x)
}

fn bench_runtime(c: &mut Criterion) {
    let mut group = c.benchmark_group("runtime_throughput");
    group.sample_size(10);

    let (mut accel, handle, x) = tiled_accel(7);
    group.bench_function("matvec_seq_16tiles", |b| {
        b.iter(|| accel.matvec(handle, black_box(&x)))
    });

    for threads in [2usize, 4, 8] {
        let engine = Engine::with_threads(threads);
        let (mut accel, handle, x) = tiled_accel(7);
        group.bench_function(format!("matvec_par_16tiles_t{threads}"), |b| {
            b.iter(|| accel.forward_batch(handle, black_box(std::slice::from_ref(&x)), &engine))
        });
    }

    // Micro-batch of 8 inputs: per-sample loop vs one batched dispatch.
    let batch: Vec<Vec<f32>> = (0..8)
        .map(|s| {
            (0..K)
                .map(|k| (((k + 31 * s) as f32) * 0.13).sin())
                .collect()
        })
        .collect();
    let (mut accel, handle, _) = tiled_accel(7);
    group.bench_function("batch8_seq_loop", |b| {
        b.iter(|| {
            batch
                .iter()
                .map(|x| accel.matvec(handle, black_box(x)))
                .collect::<Vec<_>>()
        })
    });
    let engine = Engine::with_threads(4);
    let (mut accel, handle, _) = tiled_accel(7);
    group.bench_function("batch8_forward_batch_t4", |b| {
        b.iter(|| accel.forward_batch(handle, black_box(&batch), &engine))
    });

    group.finish();
}

criterion_group!(benches, bench_runtime);
criterion_main!(benches);
