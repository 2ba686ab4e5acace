//! Heap allocations per warm call on the compute hot path, counted by
//! this binary's own global allocator.
//!
//! A warm `CimMacro::matvec` allocates only the `Vec` it returns, and a
//! warm `CimMacro::matvec_batch` of `B` samples only its `B` rows and
//! the list that holds them; the engine-free accelerator calls do the
//! same at any tiling. The counter counts only the thread that turned
//! it on, so other tests and the harness cannot perturb a count. A
//! change that adds an allocation to the hot path fails here.

use afpr::core::AfprAccelerator;
use afpr::nn::tensor::Tensor;
use afpr::xbar::cim_macro::CimMacro;
use afpr::xbar::quant::FpActQuantizer;
use afpr::xbar::spec::{MacroMode, MacroSpec};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn note_allocation() {
    // `try_with`: the allocator also runs while thread-locals are torn
    // down.
    if COUNTING.try_with(Cell::get).unwrap_or(false) {
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
    }
}

// SAFETY: every call forwards to the system allocator unchanged; the
// bookkeeping touches only const-initialized thread-locals, which never
// allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_allocation();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_allocation();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_allocation();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Heap allocations `f` makes on this thread.
fn allocations<T>(f: impl FnOnce() -> T) -> (u64, T) {
    ALLOCATIONS.with(|n| n.set(0));
    COUNTING.with(|c| c.set(true));
    let out = f();
    COUNTING.with(|c| c.set(false));
    (ALLOCATIONS.with(Cell::get), out)
}

const ROWS: usize = 64;
const COLS: usize = 32;
const MODES: [MacroMode; 3] = [MacroMode::FpE2M5, MacroMode::FpE3M4, MacroMode::Int8];

/// Mixed-sign, all-positive and all-zero samples: two, one and no live
/// sign phases.
fn samples(len: usize, batch: usize) -> Vec<Vec<f32>> {
    (0..batch)
        .map(|s| {
            (0..len)
                .map(|r| match s % 3 {
                    0 => (r as f32 * 0.31 + s as f32 * 0.7).sin(),
                    1 => 0.1 + (r % 13) as f32 * 0.05,
                    _ => 0.0,
                })
                .collect()
        })
        .collect()
}

fn weights(k: usize, n: usize) -> Tensor {
    Tensor::from_fn(&[k, n], |i| {
        (((i[0] * n + i[1]) * 7 % 13) as f32 - 6.0) / 12.0
    })
}

/// An ideal, programmed, calibrated and warmed 64×32 macro.
fn tile(mode: MacroMode, xs: &[Vec<f32>]) -> CimMacro {
    let mut mac = CimMacro::with_seed(MacroSpec::small(ROWS, COLS, mode), 11);
    mac.program_weights(weights(ROWS, COLS).data());
    if let Some(format) = mode.fp_format() {
        let acts: Vec<_> = xs
            .iter()
            .map(|x| FpActQuantizer::calibrate(x, format).quantize_slice(x))
            .collect();
        mac.calibrate_range(&acts);
    }
    mac.warm_kernel();
    mac
}

#[test]
fn warm_compute_calls_allocate_only_their_outputs() {
    const BATCH: usize = 4;
    for mode in MODES {
        let xs = samples(ROWS, BATCH);
        let mut mac = tile(mode, &xs);
        // Warm: the scratch arena grows to the largest batch once.
        let _ = mac.matvec_batch(&xs);
        for (s, x) in xs.iter().enumerate() {
            let (n, y) = allocations(|| mac.matvec(x));
            assert_eq!(y.len(), COLS);
            assert_eq!(n, 1, "{mode:?}: CimMacro::matvec, sample {s}");
        }
        for b in 1..=BATCH {
            let (n, ys) = allocations(|| mac.matvec_batch(&xs[..b]));
            assert_eq!(ys.len(), b);
            assert_eq!(n, b as u64 + 1, "{mode:?}: CimMacro::matvec_batch of {b}");
        }

        // One tile, then 2×2 tiles (the last row and column tiles
        // short).
        for (k, n_out, tiles) in [(ROWS, COLS, 1), (ROWS + 36, COLS + 18, 4)] {
            let xs = samples(k, BATCH);
            let mut accel = AfprAccelerator::with_spec(MacroSpec::small(ROWS, COLS, mode), 5);
            let h = accel.map_matrix(&weights(k, n_out));
            accel.calibrate_layer(h, &xs);
            accel.warm_kernel();
            assert_eq!(accel.macro_count(), tiles);
            let _ = accel.matvec_batch(h, &xs);
            for (s, x) in xs.iter().enumerate() {
                let (n, y) = allocations(|| accel.matvec(h, x));
                assert_eq!(y.len(), n_out);
                assert_eq!(
                    n, 1,
                    "{mode:?}: AfprAccelerator::matvec, {tiles} tiles, sample {s}"
                );
            }
            let (n, ys) = allocations(|| accel.matvec_batch(h, &xs));
            assert_eq!(ys.len(), BATCH);
            assert_eq!(
                n,
                BATCH as u64 + 1,
                "{mode:?}: AfprAccelerator::matvec_batch, {tiles} tiles"
            );
        }
    }
}
