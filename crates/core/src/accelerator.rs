//! The AFPR-CIM accelerator: a pool of CIM macros plus the inter-core
//! routing adder, executing tiled matrix-vector products.

use crate::mapping::{tile_matrix, Tile, TiledMatrix};
use afpr_circuit::units::Joules;
use afpr_nn::tensor::Tensor;
use afpr_num::FpFormat;
use afpr_runtime::Engine;
use afpr_xbar::cim_macro::CimMacro;
use afpr_xbar::metrics::MacroStats;
use afpr_xbar::quant::FpActQuantizer;
use afpr_xbar::spec::{MacroMode, MacroSpec};
use afpr_xbar::PartialSumAdder;
use std::ops::Range;

/// Opaque handle to a mapped layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LayerHandle(usize);

#[derive(Clone)]
struct MappedLayer {
    tiled: TiledMatrix,
    /// One macro per tile, `(row_tile, col_tile)` row-major.
    macros: Vec<CimMacro>,
}

/// The multi-macro AFPR-CIM accelerator.
///
/// # Example
///
/// ```
/// use afpr_core::accelerator::AfprAccelerator;
/// use afpr_nn::tensor::Tensor;
/// use afpr_xbar::spec::MacroMode;
///
/// let mut accel = AfprAccelerator::new(MacroMode::FpE2M5, 7);
/// let w = Tensor::from_fn(&[8, 3], |i| (i[0] as f32 - 4.0) * 0.1);
/// let layer = accel.map_matrix(&w);
/// let y = accel.matvec(layer, &vec![0.5f32; 8]);
/// assert_eq!(y.len(), 3);
/// ```
///
/// A clone is an independent accelerator with the same cells, mismatch
/// samples, RNG states, calibrated ranges and counters; it shares the
/// warm conductance snapshots, so it builds no kernel.
#[derive(Clone)]
pub struct AfprAccelerator {
    base: MacroSpec,
    seed: u64,
    layers: Vec<MappedLayer>,
    adder: PartialSumAdder,
}

impl AfprAccelerator {
    /// Builds an accelerator of paper-spec macros in the given mode.
    #[must_use]
    pub fn new(mode: MacroMode, seed: u64) -> Self {
        Self::with_spec(MacroSpec::paper(mode), seed)
    }

    /// Builds an accelerator with a custom base macro spec (e.g. with
    /// realistic non-idealities).
    #[must_use]
    pub fn with_spec(base: MacroSpec, seed: u64) -> Self {
        Self {
            base,
            seed,
            layers: Vec::new(),
            adder: PartialSumAdder::new(),
        }
    }

    /// The operating mode.
    #[must_use]
    pub fn mode(&self) -> MacroMode {
        self.base.mode
    }

    /// Input/output dimensions `(k, n)` of a mapped layer.
    ///
    /// A serving front door uses this to validate request vector
    /// lengths *before* execution (wrong-length inputs become protocol
    /// errors instead of panics).
    ///
    /// # Panics
    ///
    /// Panics if the handle is stale.
    #[must_use]
    pub fn layer_dims(&self, handle: LayerHandle) -> (usize, usize) {
        let layer = &self.layers[handle.0];
        (layer.tiled.k, layer.tiled.n)
    }

    /// Maps a `[K, N]` weight matrix onto macros (tiling as needed) and
    /// programs the arrays. Returns the layer handle.
    ///
    /// # Panics
    ///
    /// Panics if the matrix is not 2-D.
    pub fn map_matrix(&mut self, w: &Tensor) -> LayerHandle {
        let tiled = tile_matrix(w, self.base.rows, self.base.cols);
        let mut macros = Vec::with_capacity(tiled.tiles.len());
        for tile in &tiled.tiles {
            let spec = MacroSpec {
                rows: tile.rows(),
                cols: tile.cols(),
                ..self.base.clone()
            };
            self.seed = self.seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut mac = CimMacro::with_seed(spec, self.seed);
            mac.program_weights(&tile.weights);
            macros.push(mac);
        }
        self.layers.push(MappedLayer { tiled, macros });
        LayerHandle(self.layers.len() - 1)
    }

    /// Calibrates every tile's ADC range from sample input vectors
    /// (full-`K` activations; tiles see their row slice).
    ///
    /// # Panics
    ///
    /// Panics if the handle is stale or a sample has the wrong length.
    pub fn calibrate_layer(&mut self, handle: LayerHandle, samples: &[Vec<f32>]) {
        if self.base.mode == MacroMode::Int8 {
            // INT8 macros keep the weight-statistics auto-range set at
            // programming time (their fixed-range ADC is the point of
            // that baseline).
            return;
        }
        let layer = &mut self.layers[handle.0];
        let format = layer.macros[0].spec().fp_dac.format;
        for (t, mac) in layer.macros.iter_mut().enumerate() {
            let tile = &layer.tiled.tiles[t];
            let quantized: Vec<_> = samples
                .iter()
                .map(|x| {
                    assert_eq!(x.len(), layer.tiled.k, "sample length must equal K");
                    let slice = &x[tile.row_start..tile.row_end];
                    quantizer_for(slice, format).quantize_slice(slice)
                })
                .collect();
            mac.calibrate_range(&quantized);
        }
    }

    /// Executes a tiled matrix-vector product: a batch of one through
    /// the reduction [`matvec_batch`](Self::matvec_batch) runs. Warm
    /// and engine-free, the returned `Vec` is its only heap allocation.
    ///
    /// # Panics
    ///
    /// Panics if the handle is stale or `x.len() != K`.
    pub fn matvec(&mut self, handle: LayerHandle, x: &[f32]) -> Vec<f32> {
        let mut y = Vec::new();
        self.reduce(handle, &[x], None, std::slice::from_mut(&mut y));
        y
    }

    /// Height of a full row tile of a mapped layer, i.e. the input-row
    /// granularity at which [`matvec_partial`](Self::matvec_partial)
    /// ranges must align (the last tile of a layer may be shorter).
    ///
    /// A sharded serving tier advertises this so a router can compute
    /// tile-aligned shard boundaries without knowing the macro spec.
    ///
    /// # Panics
    ///
    /// Panics if the handle is stale.
    #[must_use]
    pub fn row_tile_rows(&self, handle: LayerHandle) -> usize {
        // Tiling is uniform (`tile_matrix` slices at multiples of
        // `base.rows`), so the first tile's height is the unit.
        let layer = &self.layers[handle.0];
        layer.tiled.tiles[0].rows()
    }

    /// Number of row tiles (partial-sum depth) of a mapped layer.
    ///
    /// # Panics
    ///
    /// Panics if the handle is stale.
    #[must_use]
    pub fn row_tiles(&self, handle: LayerHandle) -> usize {
        self.layers[handle.0].tiled.row_tiles
    }

    /// Row-range partial matvec: runs only the row tiles covered by
    /// `[row_offset, row_offset + x.len())` and returns **one full-width
    /// (`n`-long) partial vector per covered row tile**, in row-tile
    /// order.
    ///
    /// This is the backend half of a sharded scatter-gather: a router
    /// splits the input dimension into contiguous tile-aligned ranges,
    /// each backend computes its tiles' partials with this method, and
    /// the router concatenates the per-tile partials in shard order and
    /// reduces them with [`PartialSumAdder::sum_into`] — the same
    /// left fold over row tiles that [`matvec`](Self::matvec) runs, so
    /// the distributed result is **bit-identical** to the single-node
    /// one. No partial-sum additions happen here; the reducer owns that
    /// energy.
    ///
    /// Each covered macro advances its RNG stream exactly once, the
    /// same as one `matvec` call does — which is why a shard that only
    /// ever serves its own row range stays stream-aligned with a
    /// single-node twin serving full requests.
    ///
    /// # Panics
    ///
    /// Panics if the handle is stale, `x` is empty, `row_offset` is not
    /// a row-tile boundary, or `row_offset + x.len()` is neither a
    /// row-tile boundary nor `K`. (A serving front door validates these
    /// first and answers `400` instead.)
    pub fn matvec_partial(
        &mut self,
        handle: LayerHandle,
        row_offset: usize,
        x: &[f32],
    ) -> Vec<Vec<f32>> {
        let tiled = &self.layers[handle.0].tiled;
        let unit = tiled.tiles[0].rows().max(1);
        let end = row_offset + x.len();
        assert!(!x.is_empty(), "partial input must be non-empty");
        assert!(
            row_offset.is_multiple_of(unit) && row_offset < tiled.k,
            "row_offset {row_offset} is not a row-tile boundary"
        );
        assert!(
            end == tiled.k || (end.is_multiple_of(unit) && end < tiled.k),
            "row range end {end} is not a row-tile boundary"
        );
        let row_tiles = row_offset / unit..end.div_ceil(unit);
        let mut partials = vec![vec![0.0f32; tiled.n]; row_tiles.len()];
        run_tiles(
            &mut self.layers[handle.0],
            row_tiles,
            &[x],
            None,
            |_, row_tile, cols, y| partials[row_tile][cols].copy_from_slice(y),
        );
        partials
    }

    /// Batched tiled matrix-vector products, engine-free: every tile's
    /// macro runs the whole batch through [`CimMacro::matvec_batch`],
    /// and each sample's row-tile partials are reduced by the
    /// inter-core routing adder.
    ///
    /// Bit-identical to calling [`matvec`](Self::matvec) once per
    /// sample, in order: each macro consumes its RNG stream in sample
    /// order, and the adder sees the same per-column addition sequence.
    ///
    /// # Panics
    ///
    /// Panics if the handle is stale or any `xs[i].len() != K`.
    pub fn matvec_batch(&mut self, handle: LayerHandle, xs: &[Vec<f32>]) -> Vec<Vec<f32>> {
        let mut ys = vec![Vec::new(); xs.len()];
        self.reduce(handle, xs, None, &mut ys);
        ys
    }

    /// [`matvec_batch`](Self::matvec_batch) with tile-level parallelism:
    /// tiles run as jobs on `engine`'s worker pool (~2 per worker via
    /// [`Engine::execute_chunked`]), each job carrying its tiles' macros
    /// and the whole batch. With one worker or a single tile the tiles
    /// run inline. Records the executed tiles and MACs in the engine's
    /// metrics.
    ///
    /// **Determinism:** bit-identical to calling
    /// [`matvec`](Self::matvec) once per sample in order, for any
    /// worker or chunk count — each macro owns its RNG and consumes it
    /// in sample order, and the float reduction order is unchanged.
    ///
    /// # Panics
    ///
    /// Panics if the handle is stale or any `xs[i].len() != K`.
    pub fn forward_batch(
        &mut self,
        handle: LayerHandle,
        xs: &[Vec<f32>],
        engine: &Engine,
    ) -> Vec<Vec<f32>> {
        let mut ys = vec![Vec::new(); xs.len()];
        self.reduce(handle, xs, Some(engine), &mut ys);
        let layer = &self.layers[handle.0];
        let b = xs.len();
        engine.metrics().record_tiles(
            (layer.macros.len() * b) as u64,
            (layer.tiled.k * layer.tiled.n * b) as u64,
        );
        ys
    }

    /// The one reduction: runs every row tile of a layer over the batch
    /// and folds each sample's row-tile partials, in row-tile order,
    /// into `outs[s]` with [`PartialSumAdder::accumulate`]: the per
    /// column fold and the addition count of
    /// [`PartialSumAdder::sum_into`] on the full-width partials.
    fn reduce<X: AsRef<[f32]>>(
        &mut self,
        handle: LayerHandle,
        xs: &[X],
        engine: Option<&Engine>,
        outs: &mut [Vec<f32>],
    ) {
        let layer = &mut self.layers[handle.0];
        let (k, n, row_tiles) = (layer.tiled.k, layer.tiled.n, layer.tiled.row_tiles);
        for x in xs {
            assert_eq!(x.as_ref().len(), k, "input length must equal K");
        }
        for y in outs.iter_mut() {
            y.clear();
            y.resize(n, 0.0);
        }
        let adder = &mut self.adder;
        run_tiles(layer, 0..row_tiles, xs, engine, |s, row_tile, cols, y| {
            let acc = &mut outs[s][cols];
            if row_tile == 0 {
                acc.copy_from_slice(y);
            } else {
                adder.accumulate(acc, y);
            }
        });
    }

    /// Aggregated statistics over every macro.
    #[must_use]
    pub fn stats(&self) -> MacroStats {
        let mut total = MacroStats::default();
        for layer in &self.layers {
            for mac in &layer.macros {
                let s = mac.stats();
                total.conversions += s.conversions;
                total.ops += s.ops;
                total.saturations += s.saturations;
                total.underflows += s.underflows;
                total.energy += s.energy;
                total.busy_time += s.busy_time;
            }
        }
        total
    }

    /// Energy spent in the inter-core routing adder.
    #[must_use]
    pub fn adder_energy(&self) -> Joules {
        self.adder.energy()
    }

    /// Number of macros allocated.
    #[must_use]
    pub fn macro_count(&self) -> usize {
        self.layers.iter().map(|l| l.macros.len()).sum()
    }

    /// Forces every macro's conductance-snapshot kernel to build now
    /// (idempotent when warm). Serving front ends call this once after
    /// mapping/calibration so the first request does not pay the
    /// per-array snapshot rebuild; after chaos events the next matvec
    /// rebuilds lazily on its own.
    pub fn warm_kernel(&self) {
        for layer in &self.layers {
            for mac in &layer.macros {
                mac.warm_kernel();
            }
        }
    }

    /// Sum of every macro array's kernel generation — a cheap
    /// monotone fingerprint of conductance-affecting mutations
    /// (programming, chaos faults, scrub repairs, drift ticks).
    /// Metrics and tests use the delta between polls to confirm
    /// invalidation actually reached the arrays.
    #[must_use]
    pub fn kernel_generation(&self) -> u64 {
        self.layers
            .iter()
            .flat_map(|l| &l.macros)
            .map(|m| {
                let (p, n) = m.kernel_generations();
                p + n
            })
            .sum()
    }

    /// Total conductance-snapshot kernel builds across every macro
    /// array (positive + negative). Monotone; the model registry uses
    /// the delta to prove that re-loading an evicted model really
    /// re-warms its kernels rather than reusing stale state.
    #[must_use]
    pub fn kernel_builds(&self) -> u64 {
        self.layers
            .iter()
            .flat_map(|l| &l.macros)
            .map(|m| {
                let (p, n) = m.arrays();
                p.kernel_builds() + n.kernel_builds()
            })
            .sum()
    }

    /// Resets the statistics of every macro.
    pub fn reset_stats(&mut self) {
        for layer in &mut self.layers {
            for mac in &mut layer.macros {
                mac.reset_stats();
            }
        }
    }

    /// Injects stuck-at faults into every macro's differential arrays,
    /// sampled from `yield_model` with the caller's (chaos) RNG.
    /// Returns the total number of cells faulted.
    ///
    /// The macros' compute RNG streams are untouched, so injection at
    /// `fault_rate == 0` leaves the accelerator bit-identical.
    pub fn inject_faults<R: rand::Rng + ?Sized>(
        &mut self,
        yield_model: &afpr_device::YieldModel,
        rng: &mut R,
    ) -> u64 {
        let mut n = 0;
        for layer in &mut self.layers {
            for mac in &mut layer.macros {
                n += mac.inject_chaos_faults(yield_model, rng);
            }
        }
        n
    }

    /// Advances retention age on every macro by `delta` seconds.
    ///
    /// Invalidates every array's conductance-snapshot kernel (drift
    /// changes effective conductances); the next read rebuilds.
    pub fn advance_age(&mut self, delta: afpr_circuit::units::Seconds) {
        for layer in &mut self.layers {
            for mac in &mut layer.macros {
                mac.advance_age(delta);
            }
        }
    }

    /// One scrub pass (golden-checksum detection + spare-column
    /// repair) over every macro; reports are merged.
    pub fn scrub<R: rand::Rng + ?Sized>(
        &mut self,
        guard: &afpr_xbar::GuardConfig,
        rng: &mut R,
    ) -> afpr_xbar::ScrubReport {
        let mut total = afpr_xbar::ScrubReport::default();
        for layer in &mut self.layers {
            for mac in &mut layer.macros {
                total.merge(&mac.scrub(guard, rng));
            }
        }
        total
    }
}

/// The one tile executor: runs the macros of row tiles `row_tiles` of
/// `layer` over a batch whose samples start at the first of those
/// tiles' input rows, and calls `emit(sample, row tile − first row
/// tile, output columns, output)` once per tile and sample, tiles in
/// `(row tile, column tile)` order. Engine-free, every macro reads its
/// row slice of each sample in place through
/// [`CimMacro::matvec_batch_with`]; with an engine of more than one
/// worker and more than one tile, tiles run as pool jobs on copies of
/// their slices.
fn run_tiles<X: AsRef<[f32]>>(
    layer: &mut MappedLayer,
    row_tiles: Range<usize>,
    xs: &[X],
    engine: Option<&Engine>,
    mut emit: impl FnMut(usize, usize, Range<usize>, &[f32]),
) {
    let tiled = &layer.tiled;
    let tiles = row_tiles.start * tiled.col_tiles..row_tiles.end * tiled.col_tiles;
    let offset = tiled.tiles[tiles.start].row_start;
    let rows = |tile: &Tile| tile.row_start - offset..tile.row_end - offset;
    let row_tile = |t: usize| t / tiled.col_tiles - row_tiles.start;
    match engine {
        Some(engine) if tiles.len() > 1 && engine.threads() > 1 => {
            // Macros move into the jobs and back, in tile order.
            let jobs: Vec<(CimMacro, Vec<Vec<f32>>)> = layer
                .macros
                .drain(tiles.clone())
                .zip(&tiled.tiles[tiles.clone()])
                .map(|(mac, tile)| {
                    let inputs = xs.iter().map(|x| x.as_ref()[rows(tile)].to_vec());
                    (mac, inputs.collect())
                })
                .collect();
            let done = engine.execute_chunked(jobs, |(mut mac, inputs)| {
                let ys = mac.matvec_batch(&inputs);
                (mac, ys)
            });
            let (macros, outs): (Vec<CimMacro>, Vec<_>) = done.into_iter().unzip();
            layer.macros.splice(tiles.start..tiles.start, macros);
            for (t, ys) in tiles.zip(outs) {
                let tile = &tiled.tiles[t];
                for (s, y) in ys.iter().enumerate() {
                    emit(s, row_tile(t), tile.col_start..tile.col_end, y);
                }
            }
        }
        _ => {
            for t in tiles {
                let tile = &tiled.tiles[t];
                let inputs = xs.iter().map(|x| &x.as_ref()[rows(tile)]);
                layer.macros[t].matvec_batch_with(inputs, |s, y| {
                    emit(s, row_tile(t), tile.col_start..tile.col_end, y);
                });
            }
        }
    }
}

fn quantizer_for(slice: &[f32], format: FpFormat) -> FpActQuantizer {
    FpActQuantizer::calibrate(slice, format)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(k: usize, n: usize) -> Tensor {
        Tensor::from_fn(&[k, n], |i| {
            (((i[0] * n + i[1]) * 7 % 13) as f32 - 6.0) / 12.0
        })
    }

    fn reference(w: &Tensor, x: &[f32]) -> Vec<f32> {
        let [k, n]: [usize; 2] = w.shape().try_into().unwrap();
        let mut out = vec![0.0f32; n];
        for (r, xr) in x.iter().enumerate().take(k) {
            for (c, acc) in out.iter_mut().enumerate() {
                *acc += xr * w.get(&[r, c]);
            }
        }
        out
    }

    #[test]
    fn single_tile_matvec() {
        let mut accel = AfprAccelerator::new(MacroMode::FpE2M5, 3);
        let w = ramp(16, 4);
        let h = accel.map_matrix(&w);
        let x: Vec<f32> = (0..16).map(|k| ((k as f32) * 0.4).sin()).collect();
        accel.calibrate_layer(h, std::slice::from_ref(&x));
        let y = accel.matvec(h, &x);
        let want = reference(&w, &x);
        for c in 0..4 {
            assert!(
                (y[c] - want[c]).abs() < 0.12 * want[c].abs().max(1.0) + 0.15,
                "col {c}: got {} want {}",
                y[c],
                want[c]
            );
        }
        assert_eq!(accel.macro_count(), 1);
    }

    #[test]
    fn partial_sum_tiling_matches_untiled_reference() {
        // Force tiling with a small base spec.
        let base = MacroSpec::small(8, 3, MacroMode::FpE2M5);
        let mut accel = AfprAccelerator::with_spec(base, 5);
        let w = ramp(20, 7); // 3 row tiles × 3 col tiles
        let h = accel.map_matrix(&w);
        assert_eq!(accel.macro_count(), 9);
        let x: Vec<f32> = (0..20).map(|k| ((k as f32) * 0.23).cos()).collect();
        accel.calibrate_layer(h, std::slice::from_ref(&x));
        let y = accel.matvec(h, &x);
        let want = reference(&w, &x);
        for c in 0..7 {
            // Tiled partials add more readout noise; generous budget.
            assert!(
                (y[c] - want[c]).abs() < 0.2 * want[c].abs().max(1.0) + 0.3,
                "col {c}: got {} want {}",
                y[c],
                want[c]
            );
        }
        assert!(accel.adder_energy().joules() > 0.0);
    }

    #[test]
    fn stats_aggregate_across_macros() {
        let base = MacroSpec::small(8, 4, MacroMode::FpE2M5);
        let mut accel = AfprAccelerator::with_spec(base, 1);
        let w = ramp(16, 4); // 2 row tiles
        let h = accel.map_matrix(&w);
        let x = vec![0.3f32; 16];
        let _ = accel.matvec(h, &x);
        let stats = accel.stats();
        assert_eq!(stats.conversions, 2); // one per row-tile macro
        assert!(stats.total_energy().joules() > 0.0);
        accel.reset_stats();
        assert_eq!(accel.stats().conversions, 0);
    }

    #[test]
    fn warm_kernel_is_transparent_and_generation_tracks_chaos() {
        let mk = || {
            let base = MacroSpec::small(8, 3, MacroMode::FpE2M5);
            let mut accel = AfprAccelerator::with_spec(base, 5);
            let h = accel.map_matrix(&ramp(20, 7));
            (accel, h)
        };
        let x: Vec<f32> = (0..20).map(|k| ((k as f32) * 0.23).cos()).collect();
        let (mut cold, hc) = mk();
        let (mut warm, hw) = mk();
        warm.warm_kernel();
        assert_eq!(cold.matvec(hc, &x), warm.matvec(hw, &x));

        let g0 = warm.kernel_generation();
        warm.advance_age(afpr_circuit::units::Seconds::new(100.0));
        assert!(
            warm.kernel_generation() > g0,
            "age advance must bump kernel generations"
        );
    }

    #[test]
    fn sharded_partial_reduction_is_bit_identical_to_matvec() {
        // 20 input rows over 8-row tiles → 3 row tiles (last short).
        let mk = || {
            let base = MacroSpec::small(8, 3, MacroMode::FpE2M5);
            let mut accel = AfprAccelerator::with_spec(base, 42);
            let h = accel.map_matrix(&ramp(20, 7));
            (accel, h)
        };
        let x: Vec<f32> = (0..20).map(|k| ((k as f32) * 0.31).cos()).collect();

        let (mut single, hs) = mk();
        assert_eq!(single.row_tile_rows(hs), 8);
        assert_eq!(single.row_tiles(hs), 3);

        // Shard split at the tile boundary after rt 0: shard A covers
        // rows 0..8 (1 tile), shard B rows 8..20 (2 tiles, last short).
        let (mut shard_a, ha) = mk();
        let (mut shard_b, hb) = mk();
        for trial in 0..3 {
            let xt: Vec<f32> = x.iter().map(|v| v * (trial as f32 + 1.0)).collect();
            let want = single.matvec(hs, &xt);
            let pa = shard_a.matvec_partial(ha, 0, &xt[..8]);
            let pb = shard_b.matvec_partial(hb, 8, &xt[8..]);
            assert_eq!((pa.len(), pb.len()), (1, 2));
            let parts: Vec<&[f32]> = pa.iter().chain(pb.iter()).map(Vec::as_slice).collect();
            let mut adder = PartialSumAdder::new();
            let mut got = Vec::new();
            adder.sum_into(&parts, &mut got);
            assert_eq!(got.len(), want.len());
            for (c, (g, w)) in got.iter().zip(&want).enumerate() {
                assert_eq!(
                    g.to_bits(),
                    w.to_bits(),
                    "trial {trial} col {c}: sharded {g} != single-node {w}"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "row-tile boundary")]
    fn misaligned_partial_range_panics() {
        let base = MacroSpec::small(8, 3, MacroMode::FpE2M5);
        let mut accel = AfprAccelerator::with_spec(base, 5);
        let h = accel.map_matrix(&ramp(20, 7));
        let _ = accel.matvec_partial(h, 3, &[0.0; 5]);
    }

    #[test]
    #[should_panic(expected = "input length")]
    fn wrong_input_length_panics() {
        let mut accel = AfprAccelerator::new(MacroMode::FpE2M5, 0);
        let h = accel.map_matrix(&ramp(8, 2));
        let _ = accel.matvec(h, &[0.0; 9]);
    }
}
