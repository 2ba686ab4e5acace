//! The RRAM crossbar array: Ohm's law × Kirchhoff's current law.

use crate::ir_drop::IrDropModel;
use crate::kernel::ConductanceKernel;
use afpr_circuit::units::{Amps, Joules, Seconds, Volts};
use afpr_device::{DeviceConfig, DriftModel, FaultKind, MlcAllocator, RramCell, YieldModel};
use rand::Rng;
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Lazily-built snapshot of every cell's *effective* conductance
/// (drift, faults, spare-column redirects and IR drop folded in),
/// held in the cache-blocked column-panel layout of
/// [`ConductanceKernel`].
///
/// This is the matvec kernel's working set: [`Crossbar::mac_currents`]
/// and friends read multiply-accumulate terms straight out of this
/// structure instead of re-evaluating the drift exponential, fault
/// branches and allocator lookups per cell on every operation, and
/// [`Crossbar::mac_currents_batch`] amortizes one pass over it across
/// a whole micro-batch of input vectors.
///
/// **Bit-identity contract:** every entry is produced by exactly the
/// same call sequence as the historical per-cell read path
/// (`RramCell::conductance_after` then
/// [`IrDropModel::effective_conductance`]), and every kernel method
/// preserves the per-column row-order accumulation of that path, so
/// any computation routed through the snapshot is bit-identical to the
/// uncached reference implementations
/// ([`Crossbar::mac_currents_uncached`]).
pub type ConductanceSnapshot = Arc<ConductanceKernel>;

/// Interior-mutable cache slot guarding the conductance snapshot plus
/// the generation counter that invalidates it.
///
/// Excluded from equality and serialization: the snapshot is a pure
/// function of the crossbar's other fields and is rebuilt on demand
/// after deserialization or mutation.
#[derive(Debug, Default)]
struct KernelCache {
    /// Monotone mutation counter. Bumped by every operation that can
    /// change an effective conductance: programming, fault injection,
    /// column remaps, age changes and IR-drop model swaps.
    generation: u64,
    /// `(generation, snapshot)` the cache was last built at; stale when
    /// the stored generation no longer matches.
    slot: Mutex<Option<(u64, ConductanceSnapshot)>>,
    /// How many times the snapshot has been (re)built — observability
    /// for tests and benchmarks (a warm loop must not rebuild).
    builds: AtomicU64,
}

impl Clone for KernelCache {
    fn clone(&self) -> Self {
        // The snapshot is a pure function of the cloned state, so the
        // clone may carry it (same generation, same cells).
        let slot = self
            .slot
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .clone();
        Self {
            generation: self.generation,
            slot: Mutex::new(slot),
            builds: AtomicU64::new(self.builds.load(Ordering::Relaxed)),
        }
    }
}

impl PartialEq for KernelCache {
    fn eq(&self, _: &Self) -> bool {
        // Cache state never participates in crossbar equality: two
        // crossbars with identical cells are equal regardless of their
        // mutation history or cache warmth.
        true
    }
}

/// A `rows × cols` crossbar of multi-level RRAM cells.
///
/// Inputs drive word lines with voltages; each source line's current is
/// the dot product `I_j = Σ_i V_i · G_ij` (paper Eq. 1, with the source
/// line clamped to the integrator's virtual ground).
///
/// # Example
///
/// ```
/// use afpr_circuit::units::Volts;
/// use afpr_device::DeviceConfig;
/// use afpr_xbar::crossbar::Crossbar;
/// use rand::SeedableRng;
///
/// let cfg = DeviceConfig::ideal(32);
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let mut xb = Crossbar::new(2, 1, cfg);
/// xb.program_levels(&[31, 31], &mut rng);
/// let i = xb.column_current(0, &[Volts::new(0.1), Volts::new(0.2)]);
/// // (0.1 + 0.2) V × 20 µS = 6 µA
/// assert!((i.amps() - 6e-6).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Crossbar {
    rows: usize,
    cols: usize,
    cells: Vec<RramCell>, // row-major
    device: DeviceConfig,
    allocator: MlcAllocator,
    /// Retention age in seconds (0 = freshly programmed).
    age: f64,
    /// Wire IR-drop model (ideal by default).
    ir_drop: IrDropModel,
    /// Spare columns for remap-based repair (column-major: spare `s`,
    /// row `r` at `s * rows + r`). Empty unless built with
    /// [`Crossbar::with_spares`].
    spare_cells: Vec<RramCell>,
    /// Number of spare columns reserved at construction.
    spare_cols: usize,
    /// Spare columns consumed by [`Crossbar::remap_column`].
    spares_used: usize,
    /// `col_redirect[c] = Some(s)` when logical column `c` reads from
    /// spare column `s` instead of its original source line.
    col_redirect: Vec<Option<usize>>,
    /// Golden per-column checksums captured at programming time
    /// (fault-free, age-0), used by scrub detection.
    golden: Option<Vec<f64>>,
    /// Conductance-snapshot kernel cache (see [`ConductanceSnapshot`]).
    /// Skipped on the wire: a deserialized crossbar starts cold at
    /// generation 0 and rebuilds lazily.
    #[serde(skip)]
    kernel: KernelCache,
}

impl Crossbar {
    /// Builds a crossbar of fresh (minimum-conductance) cells.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    #[must_use]
    pub fn new(rows: usize, cols: usize, device: DeviceConfig) -> Self {
        Self::with_spares(rows, cols, 0, device)
    }

    /// Builds a crossbar with `spare_cols` extra source lines reserved
    /// for fault repair. Spares start fresh and take no part in MAC
    /// operations until a logical column is remapped onto one.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    #[must_use]
    pub fn with_spares(rows: usize, cols: usize, spare_cols: usize, device: DeviceConfig) -> Self {
        assert!(rows > 0 && cols > 0, "crossbar dimensions must be non-zero");
        let allocator = MlcAllocator::new(&device);
        let cells = vec![RramCell::fresh(&device); rows * cols];
        let spare_cells = vec![RramCell::fresh(&device); rows * spare_cols];
        Self {
            rows,
            cols,
            cells,
            device,
            allocator,
            age: 0.0,
            ir_drop: IrDropModel::ideal(),
            spare_cells,
            spare_cols,
            spares_used: 0,
            col_redirect: vec![None; cols],
            golden: None,
            kernel: KernelCache::default(),
        }
    }

    // ------------------------------------------------------------------
    // Conductance-snapshot kernel
    // ------------------------------------------------------------------

    /// Current kernel generation: a monotone counter bumped by every
    /// mutation that can change an effective conductance
    /// ([`Crossbar::program_levels`], [`Crossbar::set_fault`],
    /// [`Crossbar::inject_faults`], [`Crossbar::remap_column`],
    /// [`Crossbar::set_age`], [`Crossbar::set_ir_drop`]). The cached
    /// snapshot is valid exactly while the generation it was built at
    /// still matches.
    #[must_use]
    pub fn generation(&self) -> u64 {
        self.kernel.generation
    }

    /// How many times the conductance snapshot has been (re)built.
    /// Warm read paths must not grow this; tests and benches use it to
    /// verify cache reuse.
    #[must_use]
    pub fn kernel_builds(&self) -> u64 {
        self.kernel.builds.load(Ordering::Relaxed)
    }

    /// Marks every cached effective conductance stale. Called by all
    /// mutating operations; conservative (a no-op mutation still
    /// invalidates, which costs one rebuild, never correctness).
    fn invalidate_kernel(&mut self) {
        self.kernel.generation = self.kernel.generation.wrapping_add(1);
    }

    /// The effective-conductance snapshot for the current generation,
    /// building it if the cache is cold or stale.
    ///
    /// Cheap when warm: one mutex lock plus an [`Arc`] clone. The
    /// returned snapshot is immutable and remains valid even if the
    /// crossbar is mutated afterwards (readers holding it simply see
    /// the pre-mutation state they started from).
    #[must_use]
    pub fn conductance_snapshot(&self) -> ConductanceSnapshot {
        let mut slot = self
            .kernel
            .slot
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        if let Some((generation, snap)) = slot.as_mut() {
            if *generation == self.kernel.generation {
                return Arc::clone(snap);
            }
            // Stale but uniquely held: rebuild in place, reusing the
            // ~MB allocation instead of paying a fresh allocation and
            // its page faults on every invalidate → read cycle (the
            // cold path the bench floors gate on). Dimensions never
            // change after construction, but guard anyway.
            if let Some(kernel) = Arc::get_mut(snap) {
                if kernel.rows() == self.rows && kernel.cols() == self.cols {
                    kernel.rebuild(self.snapshot_g_eff());
                    *generation = self.kernel.generation;
                    self.kernel.builds.fetch_add(1, Ordering::Relaxed);
                    return Arc::clone(snap);
                }
            }
        }
        let snap: ConductanceSnapshot = Arc::new(self.build_snapshot());
        *slot = Some((self.kernel.generation, Arc::clone(&snap)));
        self.kernel.builds.fetch_add(1, Ordering::Relaxed);
        snap
    }

    /// Builds the blocked effective-conductance kernel in **one fused
    /// pass**: each cell's drift/fault/IR-drop evaluation is written
    /// straight into the column-panel layout (no intermediate
    /// row-major buffer), with the *same per-cell call sequence and
    /// float-op order* as the uncached read path, so snapshot-routed
    /// results are bit-identical.
    fn build_snapshot(&self) -> ConductanceKernel {
        ConductanceKernel::build(self.rows, self.cols, self.snapshot_g_eff())
    }

    /// Per-cell effective-conductance evaluator for snapshot builds,
    /// with the drift `powf` **hoisted**: the power-law decay factor
    /// depends only on `(ν, t0, age)` — never on the cell — so it is
    /// computed once per build instead of once per cell. Per cell this
    /// is the same `g0 * factor` multiply `RramCell::conductance_after`
    /// performs, so snapshot values stay bit-identical to the uncached
    /// oracle (which deliberately keeps the historical per-cell
    /// evaluation); the crate's proptests pin the equivalence.
    fn snapshot_g_eff(&self) -> impl FnMut(usize, usize) -> f64 + '_ {
        let decay =
            DriftModel::new(self.device.drift_nu, self.device.drift_t0).decay_factor(self.age);
        move |r, c| {
            let cell = if self.spares_used == 0 {
                // No redirect branch on the hot build path (same
                // per-cell ops as the redirected lookup below).
                &self.cells[r * self.cols + c]
            } else {
                self.cell(r, c)
            };
            let g0 = cell.effective_conductance(&self.device);
            let g = match decay {
                Some(k) => g0 * k,
                None => g0,
            };
            self.ir_drop.effective_conductance(g, c, r)
        }
    }

    /// The active cell backing logical position `(r, c)` — the original
    /// source line, or its spare after a remap.
    fn cell(&self, r: usize, c: usize) -> &RramCell {
        match self.col_redirect[c] {
            Some(s) => &self.spare_cells[s * self.rows + r],
            None => &self.cells[r * self.cols + c],
        }
    }

    /// Mutable access to the active cell backing `(r, c)`.
    fn cell_mut(&mut self, r: usize, c: usize) -> &mut RramCell {
        match self.col_redirect[c] {
            Some(s) => &mut self.spare_cells[s * self.rows + r],
            None => &mut self.cells[r * self.cols + c],
        }
    }

    /// Number of word lines.
    #[must_use]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of source lines.
    #[must_use]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// The device configuration.
    #[must_use]
    pub fn device(&self) -> &DeviceConfig {
        &self.device
    }

    /// Programs every cell to an MLC level (row-major order) through the
    /// write-verify loop.
    ///
    /// # Panics
    ///
    /// Panics if `levels.len() != rows × cols` or a level is out of
    /// range.
    pub fn program_levels<R: Rng + ?Sized>(&mut self, levels: &[u32], rng: &mut R) {
        assert_eq!(
            levels.len(),
            self.cells.len(),
            "level count must match cell count"
        );
        for (cell, &level) in self.cells.iter_mut().zip(levels) {
            cell.program_level(level, &self.allocator, &self.device, rng);
        }
        self.age = 0.0;
        // A full redeploy reclaims every spare and re-baselines the
        // golden checksums against the freshly programmed array.
        self.col_redirect = vec![None; self.cols];
        self.spares_used = 0;
        self.invalidate_kernel();
        self.capture_golden();
    }

    /// Injects stuck-at faults sampled from a yield model. Returns the
    /// number of cells faulted.
    ///
    /// Faults land on the *active* cell of each sampled position, so a
    /// remapped column's spare can itself go bad later.
    pub fn inject_faults<R: Rng + ?Sized>(
        &mut self,
        yield_model: &YieldModel,
        rng: &mut R,
    ) -> usize {
        let faults = yield_model.sample_array(self.rows, self.cols, rng);
        let n = faults.len();
        for (r, c, fault) in faults {
            self.cell_mut(r, c).set_fault(Some(fault));
        }
        if n > 0 {
            self.invalidate_kernel();
        }
        n
    }

    /// Injects a single fault at a position (for targeted tests).
    ///
    /// # Panics
    ///
    /// Panics if the position is out of bounds.
    pub fn set_fault(&mut self, row: usize, col: usize, fault: Option<FaultKind>) {
        assert!(
            row < self.rows && col < self.cols,
            "fault position out of bounds"
        );
        self.cell_mut(row, col).set_fault(fault);
        self.invalidate_kernel();
    }

    /// Ages the array (retention drift applies on subsequent reads).
    pub fn set_age(&mut self, elapsed: Seconds) {
        self.age = elapsed.seconds();
        self.invalidate_kernel();
    }

    /// Current retention age in seconds.
    #[must_use]
    pub fn age_seconds(&self) -> f64 {
        self.age
    }

    /// Enables (or disables, with [`IrDropModel::ideal`]) the
    /// first-order wire IR-drop model.
    pub fn set_ir_drop(&mut self, model: IrDropModel) {
        self.ir_drop = model;
        self.invalidate_kernel();
    }

    /// The active IR-drop model.
    #[must_use]
    pub fn ir_drop(&self) -> IrDropModel {
        self.ir_drop
    }

    /// Effective conductance of one cell (faults and drift applied).
    ///
    /// This is the uncached per-cell reference computation; the bulk
    /// read paths go through [`Crossbar::conductance_snapshot`], whose
    /// entries are bit-identical to this by construction.
    ///
    /// # Panics
    ///
    /// Panics if the position is out of bounds.
    #[must_use]
    pub fn conductance(&self, row: usize, col: usize) -> f64 {
        assert!(row < self.rows && col < self.cols, "position out of bounds");
        let g = self
            .cell(row, col)
            .conductance_after(&self.device, self.age);
        // Word-line distance = column index from the row driver;
        // source-line distance = row index from the sense node. A
        // remapped column keeps its logical electrical position (the
        // spare lines sit adjacent in the array).
        self.ir_drop.effective_conductance(g, col, row)
    }

    /// Source-line current for one column (Kirchhoff sum, noise-free).
    ///
    /// # Panics
    ///
    /// Panics if `v_inputs.len() != rows` or `col` is out of bounds.
    #[must_use]
    pub fn column_current(&self, col: usize, v_inputs: &[Volts]) -> Amps {
        assert_eq!(v_inputs.len(), self.rows, "need one voltage per row");
        assert!(col < self.cols, "column out of bounds");
        let snap = self.conductance_snapshot();
        let mut i = 0.0;
        for (r, v) in v_inputs.iter().enumerate() {
            i += v.volts() * snap.at(r, col);
        }
        Amps::new(i)
    }

    /// All source-line currents at once (one macro operation): a batch
    /// of one through [`ConductanceKernel::mac_batch_into`], so
    /// bit-identical to [`Crossbar::mac_currents_uncached`] by the
    /// snapshot's construction contract.
    ///
    /// # Panics
    ///
    /// Panics if `v_inputs.len() != rows`.
    #[must_use]
    pub fn mac_currents(&self, v_inputs: &[Volts]) -> Vec<Amps> {
        assert_eq!(v_inputs.len(), self.rows, "need one voltage per row");
        let mut out = vec![0.0f64; self.cols];
        self.conductance_snapshot()
            .mac_batch_into(v_inputs, &mut out);
        out.into_iter().map(Amps::new).collect()
    }

    /// Batched MAC: all source-line currents for a micro-batch of
    /// input vectors in **one pass over the conductance matrix**
    /// ([`ConductanceKernel::mac_batch`]), instead of one pass per
    /// vector.
    ///
    /// Noise-free and deterministic: per sample **bit-identical** to a
    /// standalone [`Crossbar::mac_currents`] call (each `(sample,
    /// column)` pair owns its accumulator; per-column row order is
    /// unchanged). Callers modeling read noise
    /// (`device.read_noise_sigma != 0`) must fall back to per-sample
    /// [`Crossbar::mac_currents_noisy`] so RNG streams stay in
    /// per-sample order.
    ///
    /// # Panics
    ///
    /// Panics if any sample's length differs from `rows`.
    #[must_use]
    pub fn mac_currents_batch(&self, v_batch: &[Vec<Volts>]) -> Vec<Vec<Amps>> {
        for v in v_batch {
            assert_eq!(v.len(), self.rows, "need one voltage per row");
        }
        self.conductance_snapshot()
            .mac_batch(v_batch)
            .into_iter()
            .map(|cols| cols.into_iter().map(Amps::new).collect())
            .collect()
    }

    /// Reference implementation of [`Crossbar::mac_currents`] that
    /// re-evaluates every cell's drift/fault/IR-drop state per call
    /// (the historical path, kept as the determinism oracle and the
    /// cold-path baseline for kernel benchmarks).
    ///
    /// # Panics
    ///
    /// Panics if `v_inputs.len() != rows`.
    #[must_use]
    pub fn mac_currents_uncached(&self, v_inputs: &[Volts]) -> Vec<Amps> {
        assert_eq!(v_inputs.len(), self.rows, "need one voltage per row");
        let mut out = vec![0.0f64; self.cols];
        for (r, v) in v_inputs.iter().enumerate() {
            let v = v.volts();
            if v == 0.0 {
                continue;
            }
            if self.spares_used == 0 {
                // Fast path: contiguous row slice, no redirect branch.
                // Identical float-op order to the redirected path, so
                // results are bit-identical either way (pinned by the
                // crate's proptests).
                let row_cells = &self.cells[r * self.cols..(r + 1) * self.cols];
                for (c, (acc, cell)) in out.iter_mut().zip(row_cells).enumerate() {
                    let g = cell.conductance_after(&self.device, self.age);
                    *acc += v * self.ir_drop.effective_conductance(g, c, r);
                }
            } else {
                for (c, acc) in out.iter_mut().enumerate() {
                    let g = self.cell(r, c).conductance_after(&self.device, self.age);
                    *acc += v * self.ir_drop.effective_conductance(g, c, r);
                }
            }
        }
        out.into_iter().map(Amps::new).collect()
    }

    /// Same as [`Crossbar::mac_currents`] but with per-cell read noise.
    ///
    /// The deterministic base current comes from the conductance
    /// snapshot; only the read-noise sampling touches the RNG, in the
    /// same `(row, col)` order as before, so noise streams are
    /// unchanged.
    ///
    /// At `read_noise_sigma == 0` the sampling is the identity *and
    /// draws nothing*, so the call routes through the blocked
    /// deterministic kernel — bit-identical results, untouched RNG,
    /// and the full lane-accumulator speed on the ideal-device specs
    /// every benchmark and serving config uses.
    pub fn mac_currents_noisy<R: Rng + ?Sized>(
        &self,
        v_inputs: &[Volts],
        rng: &mut R,
    ) -> Vec<Amps> {
        assert_eq!(v_inputs.len(), self.rows, "need one voltage per row");
        if self.device.read_noise_sigma == 0.0 {
            return self.mac_currents(v_inputs);
        }
        let variation = afpr_device::VariationModel::new(
            self.device.program_sigma,
            self.device.read_noise_sigma,
        );
        let snap = self.conductance_snapshot();
        let mut out = vec![0.0f64; self.cols];
        for (r, v) in v_inputs.iter().enumerate() {
            if v.volts() == 0.0 {
                continue;
            }
            for (c, acc) in out.iter_mut().enumerate() {
                // Drift and IR drop first (deterministic state), then
                // the stochastic read noise on the resulting current.
                let i = v.volts() * snap.at(r, c);
                *acc += variation.sample_read(i, rng);
            }
        }
        out.into_iter().map(Amps::new).collect()
    }

    /// Energy dissipated in the array during one integration window:
    /// `Σ_i V_i² · Σ_j G_ij · T` (the source line sits at virtual
    /// ground), over the snapshot's row sums
    /// ([`ConductanceKernel::power`]).
    ///
    /// # Panics
    ///
    /// Panics if `v_inputs.len() != rows`.
    #[must_use]
    pub fn array_energy(&self, v_inputs: &[Volts], t_integrate: Seconds) -> Joules {
        assert_eq!(v_inputs.len(), self.rows, "need one voltage per row");
        Joules::new(self.conductance_snapshot().power(v_inputs) * t_integrate.seconds())
    }

    /// Integration-window energies for a micro-batch of drive vectors,
    /// each sample's the same as [`Crossbar::array_energy`] gives.
    ///
    /// # Panics
    ///
    /// Panics if any sample's length differs from `rows`.
    #[must_use]
    pub fn array_energy_batch(&self, v_batch: &[Vec<Volts>], t_integrate: Seconds) -> Vec<Joules> {
        for v in v_batch {
            assert_eq!(v.len(), self.rows, "need one voltage per row");
        }
        self.conductance_snapshot()
            .power_batch(v_batch)
            .into_iter()
            .map(|p| Joules::new(p * t_integrate.seconds()))
            .collect()
    }

    /// One-time weight-deployment energy of the last programming pass
    /// (summed write-verify pulses over all cells, plus any spare
    /// columns programmed by repair remaps).
    #[must_use]
    pub fn programming_energy(&self, model: &afpr_device::ProgramEnergyModel) -> Joules {
        Joules::new(
            self.cells
                .iter()
                .chain(self.spare_cells.iter().filter(|c| c.program_iters() > 0))
                .map(|c| model.cell_energy(c.program_iters()))
                .sum(),
        )
    }

    /// Fraction of cells programmed to level 0 (the paper's weight
    /// sparsity, extracted from the network and deployed in the array).
    #[must_use]
    pub fn sparsity(&self) -> f64 {
        let zeros = self
            .cells
            .iter()
            .filter(|c| self.allocator.nearest_level(c.conductance()) == 0)
            .count();
        zeros as f64 / self.cells.len() as f64
    }

    // ------------------------------------------------------------------
    // Resilience: golden checksums, fault detection, spare-column repair
    // ------------------------------------------------------------------

    /// Spare columns reserved at construction.
    #[must_use]
    pub fn spare_cols(&self) -> usize {
        self.spare_cols
    }

    /// Spare columns already consumed by remaps.
    #[must_use]
    pub fn spares_used(&self) -> usize {
        self.spares_used
    }

    /// Spare columns still available for repair.
    #[must_use]
    pub fn spares_available(&self) -> usize {
        self.spare_cols - self.spares_used
    }

    /// Whether the logical column reads from a spare.
    ///
    /// # Panics
    ///
    /// Panics if `col` is out of bounds.
    #[must_use]
    pub fn is_remapped(&self, col: usize) -> bool {
        self.col_redirect[col].is_some()
    }

    /// The captured golden per-column checksums, if any.
    #[must_use]
    pub fn golden_checksums(&self) -> Option<&[f64]> {
        self.golden.as_deref()
    }

    /// Live checksum of one column: `Σ_r G_eff(r, c)` with faults,
    /// drift, and IR drop applied (noise-free read).
    ///
    /// # Panics
    ///
    /// Panics if `col` is out of bounds.
    #[must_use]
    pub fn column_checksum(&self, col: usize) -> f64 {
        assert!(col < self.cols, "column out of bounds");
        self.conductance_snapshot().column_sum(col)
    }

    /// Column checksum with per-cell read noise, for re-read majority
    /// voting under a noisy readout model.
    pub fn column_checksum_noisy<R: Rng + ?Sized>(&self, col: usize, rng: &mut R) -> f64 {
        assert!(col < self.cols, "column out of bounds");
        let variation = afpr_device::VariationModel::new(
            self.device.program_sigma,
            self.device.read_noise_sigma,
        );
        let snap = self.conductance_snapshot();
        (0..self.rows)
            .map(|r| variation.sample_read(snap.at(r, col), rng))
            .sum()
    }

    /// Reference (age-0) checksum of one column via the same
    /// measurement path as [`Crossbar::column_checksum`], so IR drop
    /// cancels in golden comparisons.
    ///
    /// Deliberately bypasses the conductance-snapshot kernel: the
    /// snapshot is built at the *current* age, while golden baselines
    /// are defined at age 0.
    fn column_checksum_ref(&self, col: usize) -> f64 {
        (0..self.rows)
            .map(|r| {
                let g = self.cell(r, col).conductance_after(&self.device, 0.0);
                self.ir_drop.effective_conductance(g, col, r)
            })
            .sum()
    }

    /// (Re)captures the golden per-column checksums from the current
    /// cell state at age 0. Called automatically at the end of
    /// [`Crossbar::program_levels`]; call manually only after targeted
    /// cell surgery in tests.
    pub fn capture_golden(&mut self) {
        self.golden = Some(
            (0..self.cols)
                .map(|c| self.column_checksum_ref(c))
                .collect(),
        );
    }

    /// Estimates the uniform drift factor between the golden capture
    /// and now as the median of per-column checksum ratios. Robust to a
    /// minority of faulted columns by construction.
    fn drift_estimate(&self, golden: &[f64], live: &[f64]) -> f64 {
        let floor = self.device.g_max * 1e-9;
        let mut ratios: Vec<f64> = golden
            .iter()
            .zip(live)
            .filter(|(g, _)| g.abs() > floor)
            .map(|(g, l)| l / g)
            .collect();
        if ratios.is_empty() {
            return 1.0;
        }
        ratios.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
        ratios[ratios.len() / 2]
    }

    /// Detects columns whose live checksum deviates from the
    /// drift-normalized golden value by more than
    /// `threshold × g_max` (one `threshold`-fraction of a full-scale
    /// cell). Power-law retention drift multiplies every cell by the
    /// same factor, so the median checksum ratio divides it out
    /// exactly; any surviving deviation is a fault signature.
    ///
    /// Returns the flagged logical column indices (sorted). Empty if no
    /// golden baseline has been captured.
    #[must_use]
    pub fn detect_faulty_columns(&self, threshold: f64) -> Vec<usize> {
        let Some(golden) = self.golden.as_deref() else {
            return Vec::new();
        };
        let live: Vec<f64> = (0..self.cols).map(|c| self.column_checksum(c)).collect();
        let drift = self.drift_estimate(golden, &live);
        let tol = threshold.max(0.0) * self.device.g_max;
        (0..self.cols)
            .filter(|&c| (live[c] - golden[c] * drift).abs() > tol)
            .collect()
    }

    /// Noise-robust detection: re-reads every column `votes` times with
    /// read noise and flags columns failing the golden comparison in a
    /// strict majority of the re-reads.
    pub fn detect_faulty_columns_voted<R: Rng + ?Sized>(
        &self,
        threshold: f64,
        votes: usize,
        rng: &mut R,
    ) -> Vec<usize> {
        let Some(golden) = self.golden.as_deref() else {
            return Vec::new();
        };
        let votes = votes.max(1);
        let tol = threshold.max(0.0) * self.device.g_max;
        let mut tallies = vec![0usize; self.cols];
        for _ in 0..votes {
            let live: Vec<f64> = (0..self.cols)
                .map(|c| self.column_checksum_noisy(c, rng))
                .collect();
            let drift = self.drift_estimate(golden, &live);
            for (c, tally) in tallies.iter_mut().enumerate() {
                if (live[c] - golden[c] * drift).abs() > tol {
                    *tally += 1;
                }
            }
        }
        (0..self.cols).filter(|&c| tallies[c] * 2 > votes).collect()
    }

    /// Repairs a logical column by reprogramming its intended weights
    /// (per-cell programming targets, which faults do not clear) into
    /// the next spare column and redirecting reads there. The golden
    /// checksum for the column is re-captured from the spare.
    ///
    /// Returns the spare index used, or [`OutOfSpares`] when every
    /// spare has been consumed.
    ///
    /// # Panics
    ///
    /// Panics if `col` is out of bounds.
    pub fn remap_column<R: Rng + ?Sized>(
        &mut self,
        col: usize,
        rng: &mut R,
    ) -> Result<usize, OutOfSpares> {
        assert!(col < self.cols, "column out of bounds");
        if self.spares_used >= self.spare_cols {
            return Err(OutOfSpares {
                spare_cols: self.spare_cols,
            });
        }
        let targets: Vec<f64> = (0..self.rows)
            .map(|r| self.cell(r, col).target_conductance())
            .collect();
        let s = self.spares_used;
        for (r, &target) in targets.iter().enumerate() {
            self.spare_cells[s * self.rows + r].program_target(target, &self.device, rng);
        }
        self.col_redirect[col] = Some(s);
        self.spares_used += 1;
        self.invalidate_kernel();
        let fresh = self.column_checksum_ref(col);
        if let Some(golden) = &mut self.golden {
            golden[col] = fresh;
        }
        Ok(s)
    }
}

/// Repair failed: every spare column is already in use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OutOfSpares {
    /// Total spare columns the array was built with.
    pub spare_cols: usize,
}

impl std::fmt::Display for OutOfSpares {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "all {} spare column(s) already consumed",
            self.spare_cols
        )
    }
}

impl std::error::Error for OutOfSpares {}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup(rows: usize, cols: usize) -> (Crossbar, StdRng) {
        (
            Crossbar::new(rows, cols, DeviceConfig::ideal(32)),
            StdRng::seed_from_u64(7),
        )
    }

    #[test]
    fn kirchhoff_sum_over_rows() {
        let (mut xb, mut rng) = setup(3, 2);
        // col 0 levels: 31, 0, 31 ; col 1 levels: 0, 31, 0
        xb.program_levels(&[31, 0, 0, 31, 31, 0], &mut rng);
        let v = vec![Volts::new(0.1); 3];
        let i = xb.mac_currents(&v);
        assert!((i[0].amps() - 2.0 * 0.1 * 20e-6).abs() < 1e-15);
        assert!((i[1].amps() - 0.1 * 20e-6).abs() < 1e-15);
    }

    #[test]
    fn superposition_holds() {
        let (mut xb, mut rng) = setup(4, 3);
        let levels: Vec<u32> = (0..12).map(|k| (k * 7) % 32).collect();
        xb.program_levels(&levels, &mut rng);
        let va = vec![Volts::new(0.1), Volts::ZERO, Volts::new(0.3), Volts::ZERO];
        let vb = vec![Volts::ZERO, Volts::new(0.2), Volts::ZERO, Volts::new(0.15)];
        let vsum: Vec<Volts> = va.iter().zip(&vb).map(|(a, b)| *a + *b).collect();
        let ia = xb.mac_currents(&va);
        let ib = xb.mac_currents(&vb);
        let isum = xb.mac_currents(&vsum);
        for c in 0..3 {
            assert!((isum[c].amps() - ia[c].amps() - ib[c].amps()).abs() < 1e-18);
        }
    }

    #[test]
    fn column_current_matches_mac_currents() {
        let (mut xb, mut rng) = setup(5, 4);
        let levels: Vec<u32> = (0..20).map(|k| (k * 3) % 32).collect();
        xb.program_levels(&levels, &mut rng);
        let v: Vec<Volts> = (0..5)
            .map(|k| Volts::new(0.05 * f64::from(k as u8)))
            .collect();
        let all = xb.mac_currents(&v);
        for (c, expected) in all.iter().enumerate() {
            assert_eq!(xb.column_current(c, &v).amps(), expected.amps());
        }
    }

    #[test]
    fn stuck_faults_change_current() {
        let (mut xb, mut rng) = setup(2, 1);
        xb.program_levels(&[16, 16], &mut rng);
        let v = vec![Volts::new(0.1); 2];
        let nominal = xb.column_current(0, &v).amps();
        xb.set_fault(0, 0, Some(FaultKind::StuckLrs));
        assert!(xb.column_current(0, &v).amps() > nominal);
        xb.set_fault(0, 0, Some(FaultKind::StuckHrs));
        assert!(xb.column_current(0, &v).amps() < nominal);
    }

    #[test]
    fn drift_reduces_currents() {
        let mut dev = DeviceConfig::ideal(32);
        dev.drift_nu = 0.02;
        let mut xb = Crossbar::new(2, 2, dev);
        let mut rng = StdRng::seed_from_u64(3);
        xb.program_levels(&[31, 31, 31, 31], &mut rng);
        let v = vec![Volts::new(0.1); 2];
        let fresh = xb.column_current(0, &v).amps();
        xb.set_age(Seconds::new(1e6));
        assert!(xb.column_current(0, &v).amps() < fresh);
    }

    #[test]
    fn array_energy_scales_with_activity() {
        let (mut xb, mut rng) = setup(4, 4);
        xb.program_levels(&[16; 16], &mut rng);
        let t = Seconds::from_nano(100.0);
        let dense: Vec<Volts> = vec![Volts::new(0.2); 4];
        let sparse: Vec<Volts> = vec![Volts::new(0.2), Volts::ZERO, Volts::ZERO, Volts::ZERO];
        let ed = xb.array_energy(&dense, t).joules();
        let es = xb.array_energy(&sparse, t).joules();
        assert!((ed / es - 4.0).abs() < 1e-9);
    }

    #[test]
    fn sparsity_counts_zero_levels() {
        let (mut xb, mut rng) = setup(2, 2);
        xb.program_levels(&[0, 31, 0, 0], &mut rng);
        assert!((xb.sparsity() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn read_noise_is_zero_mean() {
        let mut dev = DeviceConfig::ideal(32);
        dev.read_noise_sigma = 0.02;
        let mut xb = Crossbar::new(8, 1, dev);
        let mut rng = StdRng::seed_from_u64(11);
        xb.program_levels(&[20; 8], &mut rng);
        let v = vec![Volts::new(0.1); 8];
        let clean = xb.mac_currents(&v)[0].amps();
        let mean: f64 = (0..800)
            .map(|_| xb.mac_currents_noisy(&v, &mut rng)[0].amps())
            .sum::<f64>()
            / 800.0;
        assert!((mean / clean - 1.0).abs() < 0.01);
    }

    #[test]
    #[should_panic(expected = "one voltage per row")]
    fn wrong_input_length_panics() {
        let (xb, _) = setup(3, 2);
        let _ = xb.mac_currents(&[Volts::ZERO; 2]);
    }

    #[test]
    fn golden_captured_at_programming() {
        let (mut xb, mut rng) = setup(4, 3);
        assert!(xb.golden_checksums().is_none());
        xb.program_levels(&[16; 12], &mut rng);
        let golden = xb.golden_checksums().expect("captured").to_vec();
        assert_eq!(golden.len(), 3);
        for (c, g) in golden.iter().enumerate() {
            assert!((g - xb.column_checksum(c)).abs() < 1e-18);
        }
    }

    #[test]
    fn detection_flags_stuck_column_and_nothing_else() {
        let (mut xb, mut rng) = setup(8, 4);
        let levels: Vec<u32> = (0..32).map(|k| (k * 5) % 32).collect();
        xb.program_levels(&levels, &mut rng);
        assert!(xb.detect_faulty_columns(0.02).is_empty());
        xb.set_fault(3, 1, Some(FaultKind::StuckLrs));
        assert_eq!(xb.detect_faulty_columns(0.02), vec![1]);
    }

    #[test]
    fn detection_is_drift_invariant() {
        let mut dev = DeviceConfig::ideal(32);
        dev.drift_nu = 0.02;
        let mut xb = Crossbar::new(6, 4, dev);
        let mut rng = StdRng::seed_from_u64(5);
        let levels: Vec<u32> = (0..24).map(|k| (k * 7) % 32).collect();
        xb.program_levels(&levels, &mut rng);
        xb.set_age(Seconds::new(1e6));
        // Uniform drift shrinks every checksum, but the median-ratio
        // normalization divides it out: no false positives.
        assert!(xb.detect_faulty_columns(0.02).is_empty());
        xb.set_fault(0, 2, Some(FaultKind::StuckLrs));
        assert_eq!(xb.detect_faulty_columns(0.02), vec![2]);
    }

    #[test]
    fn remap_restores_column_current_and_detection_clears() {
        let mut xb = Crossbar::with_spares(6, 3, 2, DeviceConfig::ideal(32));
        let mut rng = StdRng::seed_from_u64(9);
        let levels: Vec<u32> = (0..18).map(|k| (k * 11) % 32).collect();
        xb.program_levels(&levels, &mut rng);
        let v: Vec<Volts> = (0..6).map(|k| Volts::new(0.02 * (k + 1) as f64)).collect();
        let healthy = xb.column_current(1, &v).amps();

        xb.set_fault(2, 1, Some(FaultKind::StuckHrs));
        assert_ne!(xb.column_current(1, &v).amps(), healthy);
        assert_eq!(xb.detect_faulty_columns(0.02), vec![1]);

        let spare = xb.remap_column(1, &mut rng).expect("spares available");
        assert_eq!(spare, 0);
        assert!(xb.is_remapped(1));
        assert_eq!(xb.spares_available(), 1);
        // Ideal devices reprogram exactly, so the repaired column reads
        // back the intended weights bit-exactly.
        assert_eq!(xb.column_current(1, &v).amps(), healthy);
        assert!(xb.detect_faulty_columns(0.02).is_empty());
    }

    #[test]
    fn remap_without_spares_errors() {
        let (mut xb, mut rng) = setup(3, 2);
        xb.program_levels(&[8; 6], &mut rng);
        let err = xb.remap_column(0, &mut rng).expect_err("no spares");
        assert_eq!(err.spare_cols, 0);
        assert!(err.to_string().contains("spare"));
    }

    #[test]
    fn voted_detection_survives_read_noise() {
        let mut dev = DeviceConfig::ideal(32);
        dev.read_noise_sigma = 0.005;
        let mut xb = Crossbar::new(8, 4, dev);
        let mut rng = StdRng::seed_from_u64(17);
        xb.program_levels(&[24; 32], &mut rng);
        xb.set_fault(1, 3, Some(FaultKind::StuckHrs));
        let flagged = xb.detect_faulty_columns_voted(0.1, 5, &mut rng);
        assert_eq!(flagged, vec![3]);
    }

    #[test]
    fn snapshot_matches_per_cell_reference() {
        let mut dev = DeviceConfig::realistic(32);
        dev.drift_nu = 0.02;
        let mut xb = Crossbar::with_spares(6, 4, 2, dev);
        let mut rng = StdRng::seed_from_u64(21);
        let levels: Vec<u32> = (0..24).map(|k| (k * 5) % 32).collect();
        xb.program_levels(&levels, &mut rng);
        xb.set_age(Seconds::new(3.6e3));
        xb.set_fault(1, 2, Some(FaultKind::StuckHrs));
        xb.remap_column(2, &mut rng).expect("spare available");
        let snap = xb.conductance_snapshot();
        for r in 0..6 {
            for c in 0..4 {
                assert_eq!(
                    snap.at(r, c).to_bits(),
                    xb.conductance(r, c).to_bits(),
                    "snapshot diverged at ({r}, {c})"
                );
            }
        }
    }

    #[test]
    fn cached_mac_is_bit_identical_to_uncached() {
        let mut dev = DeviceConfig::realistic(32);
        dev.drift_nu = 0.015;
        let mut xb = Crossbar::with_spares(8, 5, 1, dev);
        let mut rng = StdRng::seed_from_u64(33);
        let levels: Vec<u32> = (0..40).map(|k| (k * 7) % 32).collect();
        xb.program_levels(&levels, &mut rng);
        xb.set_age(Seconds::new(1e5));
        xb.set_fault(3, 1, Some(FaultKind::StuckLrs));
        xb.remap_column(1, &mut rng).expect("spare available");
        let v: Vec<Volts> = (0..8).map(|r| Volts::new(0.01 * (r + 1) as f64)).collect();
        let cached = xb.mac_currents(&v);
        let uncached = xb.mac_currents_uncached(&v);
        for (c, (a, b)) in cached.iter().zip(&uncached).enumerate() {
            assert_eq!(a.amps().to_bits(), b.amps().to_bits(), "col {c}");
        }
    }

    #[test]
    fn generation_bumps_on_every_mutation() {
        let mut xb = Crossbar::with_spares(3, 2, 1, DeviceConfig::ideal(32));
        let mut rng = StdRng::seed_from_u64(4);
        let g0 = xb.generation();
        xb.program_levels(&[8; 6], &mut rng);
        let g1 = xb.generation();
        assert!(g1 > g0, "program_levels must invalidate");
        xb.set_fault(0, 0, Some(FaultKind::StuckLrs));
        let g2 = xb.generation();
        assert!(g2 > g1, "set_fault must invalidate");
        xb.set_age(Seconds::new(10.0));
        let g3 = xb.generation();
        assert!(g3 > g2, "set_age must invalidate");
        xb.set_ir_drop(IrDropModel::typical_65nm());
        let g4 = xb.generation();
        assert!(g4 > g3, "set_ir_drop must invalidate");
        xb.remap_column(0, &mut rng).expect("one spare");
        assert!(xb.generation() > g4, "remap_column must invalidate");
    }

    #[test]
    fn every_mutator_invalidates_and_regenerates_the_blocked_snapshot() {
        // The invalidation audit for the blocked layout: every mutator
        // that can change an effective conductance must bump the
        // generation AND force exactly one rebuild whose result
        // matches the uncached per-cell oracle bitwise.
        type Mutator = (&'static str, fn(&mut Crossbar, &mut StdRng));
        let mutators: [Mutator; 6] = [
            ("program_levels", |xb, rng| {
                let levels: Vec<u32> = (0..xb.rows() * xb.cols())
                    .map(|k| (k as u32 * 3) % 32)
                    .collect();
                xb.program_levels(&levels, rng);
            }),
            ("set_fault", |xb, _| {
                xb.set_fault(1, 2, Some(FaultKind::StuckLrs));
            }),
            ("inject_faults", |xb, rng| {
                // Certain-fault yield model so n > 0 and the
                // conditional invalidation branch actually fires.
                let n = xb.inject_faults(&YieldModel::new(0.5, 0.5), rng);
                assert!(n > 0, "yield model must fault at least one cell");
            }),
            ("set_age", |xb, _| xb.set_age(Seconds::new(5.0e5))),
            ("set_ir_drop", |xb, _| {
                xb.set_ir_drop(IrDropModel::typical_65nm());
            }),
            ("remap_column", |xb, rng| {
                xb.remap_column(2, rng).expect("spare available");
            }),
        ];
        let mut dev = DeviceConfig::ideal(32);
        dev.drift_nu = 0.01;
        let mut xb = Crossbar::with_spares(6, 5, 2, dev);
        let mut rng = StdRng::seed_from_u64(77);
        let levels: Vec<u32> = (0..30).map(|k| (k * 7) % 32).collect();
        xb.program_levels(&levels, &mut rng);
        let v: Vec<Volts> = (0..6).map(|r| Volts::new(0.01 * (r + 1) as f64)).collect();
        for (name, mutate) in mutators {
            // Warm the cache, then mutate: the stale snapshot must not
            // survive the mutation.
            let _ = xb.mac_currents(&v);
            let (gen_before, builds_before) = (xb.generation(), xb.kernel_builds());
            mutate(&mut xb, &mut rng);
            assert!(
                xb.generation() > gen_before,
                "{name} must bump the generation"
            );
            let after = xb.mac_currents(&v);
            assert_eq!(
                xb.kernel_builds(),
                builds_before + 1,
                "{name} must force exactly one rebuild"
            );
            let oracle = xb.mac_currents_uncached(&v);
            for (c, (a, b)) in after.iter().zip(&oracle).enumerate() {
                assert_eq!(
                    a.amps().to_bits(),
                    b.amps().to_bits(),
                    "{name}: rebuilt snapshot diverged from oracle at col {c}"
                );
            }
        }
    }

    #[test]
    fn batched_mac_and_energy_match_per_sample_calls_bitwise() {
        let mut dev = DeviceConfig::realistic(32);
        dev.drift_nu = 0.01;
        let mut xb = Crossbar::with_spares(9, 7, 1, dev);
        let mut rng = StdRng::seed_from_u64(55);
        let levels: Vec<u32> = (0..63).map(|k| (k * 11) % 32).collect();
        xb.program_levels(&levels, &mut rng);
        xb.set_age(Seconds::new(2.0e4));
        xb.set_fault(4, 3, Some(FaultKind::StuckHrs));
        xb.remap_column(3, &mut rng).expect("spare available");
        let batch: Vec<Vec<Volts>> = (0..5)
            .map(|s| {
                (0..9)
                    .map(|r| {
                        if (r + s) % 3 == 0 {
                            Volts::ZERO
                        } else {
                            Volts::new(0.005 * ((r * 7 + s * 13) % 9 + 1) as f64)
                        }
                    })
                    .collect()
            })
            .collect();
        let t = Seconds::from_nano(100.0);
        let got = xb.mac_currents_batch(&batch);
        let energies = xb.array_energy_batch(&batch, t);
        for (s, v) in batch.iter().enumerate() {
            let want = xb.mac_currents(v);
            for (c, (a, b)) in got[s].iter().zip(&want).enumerate() {
                assert_eq!(a.amps().to_bits(), b.amps().to_bits(), "sample {s} col {c}");
            }
            assert_eq!(
                energies[s].joules().to_bits(),
                xb.array_energy(v, t).joules().to_bits(),
                "sample {s} energy"
            );
        }
    }

    #[test]
    fn warm_reads_reuse_the_snapshot() {
        let (mut xb, mut rng) = setup(4, 3);
        xb.program_levels(&[16; 12], &mut rng);
        let v = vec![Volts::new(0.1); 4];
        assert_eq!(xb.kernel_builds(), 0, "cache starts cold");
        let first = xb.mac_currents(&v);
        assert_eq!(xb.kernel_builds(), 1, "first read builds");
        for _ in 0..10 {
            let again = xb.mac_currents(&v);
            assert_eq!(again, first);
            let _ = xb.column_current(0, &v);
            let _ = xb.column_checksum(1);
        }
        assert_eq!(xb.kernel_builds(), 1, "warm reads must not rebuild");
        xb.set_age(Seconds::new(1.0));
        let _ = xb.mac_currents(&v);
        assert_eq!(xb.kernel_builds(), 2, "mutation forces one rebuild");
    }

    #[test]
    fn clone_carries_cache_and_serde_resets_it() {
        let (mut xb, mut rng) = setup(3, 3);
        xb.program_levels(&[9; 9], &mut rng);
        let v = vec![Volts::new(0.05); 3];
        let want = xb.mac_currents(&v);
        let clone = xb.clone();
        assert_eq!(clone.generation(), xb.generation());
        assert_eq!(clone.mac_currents(&v), want);
        assert_eq!(clone.kernel_builds(), 1, "clone carries the snapshot");
        let json = serde_json::to_string(&xb).expect("serializes");
        let back: Crossbar = serde_json::from_str(&json).expect("parses");
        assert_eq!(back, xb, "cache state never affects equality");
        assert_eq!(back.generation(), 0, "deserialized crossbar is cold");
        assert_eq!(back.mac_currents(&v), want, "rebuild is bit-identical");
    }

    #[test]
    fn reprogramming_reclaims_spares() {
        let mut xb = Crossbar::with_spares(3, 2, 1, DeviceConfig::ideal(32));
        let mut rng = StdRng::seed_from_u64(2);
        xb.program_levels(&[4; 6], &mut rng);
        xb.set_fault(0, 0, Some(FaultKind::StuckLrs));
        xb.remap_column(0, &mut rng).expect("one spare");
        assert_eq!(xb.spares_available(), 0);
        xb.program_levels(&[5; 6], &mut rng);
        assert_eq!(xb.spares_available(), 1);
        assert!(!xb.is_remapped(0));
    }
}
