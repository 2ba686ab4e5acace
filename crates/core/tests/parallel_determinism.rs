//! The runtime determinism contract: for a fixed seed, parallel tiled
//! execution is **bit-identical** to sequential execution — outputs,
//! energy and statistics — for any worker count.
//!
//! This is the property that makes the worker pool safe to use in
//! experiments: enabling parallelism can never change a paper artefact.

use afpr_core::accelerator::AfprAccelerator;
use afpr_nn::tensor::Tensor;
use afpr_runtime::Engine;
use afpr_xbar::spec::{MacroMode, MacroSpec};
use rand::rngs::StdRng;
use rand::SeedableRng;

const SEEDS: [u64; 3] = [1, 42, 2024];
const THREADS: [usize; 2] = [2, 4];

/// A multi-tile layer: 3 row tiles × 3 col tiles of 8×3 macros.
fn tiled_accel(seed: u64) -> (AfprAccelerator, afpr_core::accelerator::LayerHandle) {
    let base = MacroSpec::small(8, 3, MacroMode::FpE2M5);
    let mut accel = AfprAccelerator::with_spec(base, seed);
    let w = Tensor::from_fn(&[20, 7], |i| {
        (((i[0] * 7 + i[1]) * 5 % 17) as f32 - 8.0) / 16.0
    });
    let handle = accel.map_matrix(&w);
    let x: Vec<f32> = (0..20).map(|k| ((k as f32) * 0.23).cos()).collect();
    accel.calibrate_layer(handle, std::slice::from_ref(&x));
    (accel, handle)
}

fn inputs(count: usize) -> Vec<Vec<f32>> {
    (0..count)
        .map(|s| {
            (0..20)
                .map(|k| (((k + 13 * s) as f32) * 0.23).cos())
                .collect()
        })
        .collect()
}

fn assert_bits_eq(a: &[Vec<f32>], b: &[Vec<f32>], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: length mismatch");
    for (i, (ya, yb)) in a.iter().zip(b).enumerate() {
        assert_eq!(ya.len(), yb.len(), "{what}: output {i} length mismatch");
        for (j, (va, vb)) in ya.iter().zip(yb).enumerate() {
            assert_eq!(
                va.to_bits(),
                vb.to_bits(),
                "{what}: output {i}[{j}] differs: {va} vs {vb}"
            );
        }
    }
}

#[test]
fn engine_batch_of_one_is_bit_identical_across_seeds_and_thread_counts() {
    for seed in SEEDS {
        // Sequential golden run: several calls so RNG streams advance.
        let (mut seq, h) = tiled_accel(seed);
        let xs = inputs(5);
        let golden: Vec<Vec<f32>> = xs.iter().map(|x| seq.matvec(h, x)).collect();
        let golden_stats = seq.stats();
        let golden_adder = seq.adder_energy();

        for threads in THREADS {
            let engine = Engine::with_threads(threads);
            let (mut par, h) = tiled_accel(seed);
            let got: Vec<Vec<f32>> = xs
                .iter()
                .flat_map(|x| par.forward_batch(h, std::slice::from_ref(x), &engine))
                .collect();
            assert_bits_eq(&golden, &got, &format!("seed {seed}, {threads} threads"));

            let stats = par.stats();
            assert_eq!(stats.conversions, golden_stats.conversions);
            assert_eq!(stats.ops, golden_stats.ops);
            assert_eq!(stats.saturations, golden_stats.saturations);
            assert_eq!(stats.underflows, golden_stats.underflows);
            assert_eq!(
                stats.total_energy().joules().to_bits(),
                golden_stats.total_energy().joules().to_bits(),
                "macro energy must be bit-identical"
            );
            assert_eq!(
                par.adder_energy().joules().to_bits(),
                golden_adder.joules().to_bits(),
                "adder energy must be bit-identical"
            );
        }
    }
}

#[test]
fn forward_batch_matches_per_sample_loop() {
    for seed in SEEDS {
        let xs = inputs(6);
        let (mut seq, h) = tiled_accel(seed);
        let golden: Vec<Vec<f32>> = xs.iter().map(|x| seq.matvec(h, x)).collect();

        for threads in THREADS {
            let engine = Engine::with_threads(threads);
            let (mut par, h) = tiled_accel(seed);
            let got = par.forward_batch(h, &xs, &engine);
            assert_bits_eq(
                &golden,
                &got,
                &format!("batch, seed {seed}, {threads} threads"),
            );
            assert_eq!(par.stats().conversions, seq.stats().conversions);
            assert_eq!(
                par.adder_energy().joules().to_bits(),
                seq.adder_energy().joules().to_bits()
            );
        }
    }
}

/// The batched-GEMM bit-identity contract under the full damage model:
/// stuck-cell faults, retention drift, and a scrub pass that repairs by
/// spare-column remapping — across every macro mode. `forward_batch`
/// (any thread count) and the engine-free `matvec_batch` must both
/// equal B sequential `matvec` calls bitwise.
#[test]
fn batched_gemm_bit_identical_under_faults_age_and_remap() {
    for mode in [MacroMode::FpE2M5, MacroMode::FpE3M4, MacroMode::Int8] {
        // Every twin replays the identical damage history from the
        // same chaos seed, so their arrays are bit-equal going in.
        let make = || {
            let mut base = MacroSpec::small(8, 3, mode).with_spare_cols(2);
            base.device.drift_nu = 0.01;
            let mut accel = AfprAccelerator::with_spec(base, 11);
            let w = Tensor::from_fn(&[20, 7], |i| {
                (((i[0] * 7 + i[1]) * 5 % 17) as f32 - 8.0) / 16.0
            });
            let h = accel.map_matrix(&w);
            let x: Vec<f32> = (0..20).map(|k| ((k as f32) * 0.23).cos()).collect();
            accel.calibrate_layer(h, std::slice::from_ref(&x));
            let mut chaos = StdRng::seed_from_u64(99);
            let faulted = accel.inject_faults(&afpr_device::YieldModel::new(0.04, 0.5), &mut chaos);
            accel.advance_age(afpr_circuit::units::Seconds::new(2.0e6));
            let report = accel.scrub(&afpr_xbar::GuardConfig::default(), &mut chaos);
            (accel, h, faulted, report.repaired)
        };

        let xs = inputs(6);
        let (mut seq, h, faulted, repaired) = make();
        assert!(faulted > 0, "{mode:?}: damage model must fault cells");
        assert!(
            repaired > 0,
            "{mode:?}: scrub must remap at least one column"
        );
        let golden: Vec<Vec<f32>> = xs.iter().map(|x| seq.matvec(h, x)).collect();

        let (mut inline, hi, ..) = make();
        let got = inline.matvec_batch(hi, &xs);
        assert_bits_eq(&golden, &got, &format!("{mode:?} inline matvec_batch"));

        for threads in THREADS {
            let engine = Engine::with_threads(threads);
            let (mut par, hp, ..) = make();
            let got = par.forward_batch(hp, &xs, &engine);
            assert_bits_eq(
                &golden,
                &got,
                &format!("{mode:?} forward_batch, {threads} threads"),
            );
            assert_eq!(par.stats().conversions, seq.stats().conversions);
            assert_eq!(
                par.stats().total_energy().joules().to_bits(),
                seq.stats().total_energy().joules().to_bits(),
                "{mode:?}: macro energy must be bit-identical"
            );
        }
    }
}

#[test]
fn interleaving_parallel_and_sequential_calls_stays_deterministic() {
    let (mut a, ha) = tiled_accel(7);
    let (mut b, hb) = tiled_accel(7);
    let engine = Engine::with_threads(3);
    let xs = inputs(4);
    // a: seq, par, seq, par — b: all sequential.
    let ya: Vec<Vec<f32>> = xs
        .iter()
        .enumerate()
        .map(|(i, x)| {
            if i % 2 == 0 {
                a.matvec(ha, x)
            } else {
                a.forward_batch(ha, std::slice::from_ref(x), &engine)
                    .pop()
                    .expect("a batch of one gives one output")
            }
        })
        .collect();
    let yb: Vec<Vec<f32>> = xs.iter().map(|x| b.matvec(hb, x)).collect();
    assert_bits_eq(&yb, &ya, "interleaved");
}
