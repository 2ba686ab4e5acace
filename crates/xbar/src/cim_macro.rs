//! The AFPR-CIM macro: 576 FP-DACs → 576×256 RRAM array → 256 FP-ADCs.
//!
//! One *phase* is one physical integration window: unsigned activation
//! codes drive the word lines through the DACs and column currents
//! develop per Kirchhoff (paper Fig. 1). Signed arithmetic uses the
//! standard analog-CIM differential scheme:
//!
//! * weights are differential — each logical column is a
//!   positive/negative cell pair sharing the word line, and the
//!   integrator accumulates `I⁺ − I⁻`;
//! * activation signs are handled by phase chopping — positive inputs
//!   drive one integration window, negative inputs a second window with
//!   the integrator polarity swapped.
//!
//! The net integrated charge is the *signed* MAC; a single FP-ADC
//! readout (magnitude + polarity comparator) converts it. This keeps
//! the per-column result inside the ADC's 16:1 adaptive window, which
//! is the regime the paper designs for.
//!
//! ## Scaling between digital values and physics
//!
//! * DAC: `V_i = v_unit · a_i` where `a_i = 1.M × 2^E` (or 0).
//! * Cell: `G_ij = g_lsb · w_ij` with `w_ij ∈ [0, L−1]` MLC levels.
//! * Column: `I_j = v_unit · g_lsb · Σ a_i w_ij`.
//! * A programmable current mirror divides the source-line current by
//!   [`CimMacro::current_divider`] before the integrator, placing the
//!   expected MAC distribution inside the ADC window (real macros
//!   provide the same freedom through reference scaling). One ADC unit
//!   therefore corresponds to
//!   `(C_int/T_S) · divider / (v_unit · g_lsb)` digital MAC units.
//!
//! MAC results outside the window saturate or read out as zero ("not
//! read out"), both counted in [`MacroStats`] — exactly the circuit
//! non-linearities the paper feeds into its network-accuracy
//! simulation (§IV-D).
//!
//! ## One compute path
//!
//! [`CimMacro::matvec_batch_with`] is the only code that drives the
//! arrays and the ADCs for compute, as one DAC → array → ADC pipeline:
//! per sample, quantize and build one DAC drive row per live sign
//! phase; one blocked conductance pass per polarity array over the
//! whole batch's drive slab ([`ConductanceKernel::mac_batch_into`]);
//! then one ADC readout per column and one energy/latency account per
//! sample. [`CimMacro::matvec`] is a batch of one and
//! [`CimMacro::matvec_batch`] collects every sample's output. With
//! runtime read noise (`read_noise_sigma != 0`) the array stage runs
//! one sample at a time through [`Crossbar::mac_currents_noisy`], so
//! every RNG stream keeps the per-sample draw order.
//!
//! Each array's conductance snapshot is taken once per batch. Every
//! intermediate lives in a scratch arena the macro keeps across calls:
//! the quantized activations, the drive slab, the per-sample records,
//! the per-array currents and powers, the net column currents and the
//! output row handed to the caller. The FP-ADC readout takes its
//! allocation-free decision path ([`FpAdc::convert_noisy`]). So a warm
//! [`CimMacro::matvec`] allocates only the `Vec` it returns, and a
//! warm [`CimMacro::matvec_batch`] of `B` samples only its `B` rows and
//! the list that holds them.
//!
//! [`ConductanceKernel::mac_batch_into`]: crate::kernel::ConductanceKernel::mac_batch_into

use crate::crossbar::Crossbar;
use crate::mapping::{map_weights, MappedWeights};
use crate::metrics::MacroStats;
use crate::quant::{FpActQuantizer, IntActQuantizer, SignedActivation};
use crate::spec::{MacroMode, MacroSpec};
use afpr_circuit::energy::AdcSpec;
use afpr_circuit::fp_adc::FpAdc;
use afpr_circuit::fp_dac::FpDac;
use afpr_circuit::int_adc::IntAdc;
use afpr_circuit::int_dac::IntDac;
use afpr_circuit::units::{Amps, Joules, Volts};
use afpr_circuit::{EnergyModel, Pga};
use afpr_num::HwFpCode;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::ops::Range;

/// One sample's share of a batch in [`CimMacro::matvec_batch_with`].
#[derive(Debug, Clone)]
struct Sample {
    /// Its drive rows in the batch's drive slab, at most one per sign
    /// phase.
    drives: Range<usize>,
    /// The integrator sign of each drive row.
    signs: [f64; 2],
    /// Activation quantizer scale.
    a_scale: f32,
    /// Rows driven with a non-zero code.
    active_rows: usize,
}

/// The buffers one [`CimMacro::matvec_batch_with`] call works in, kept
/// by the macro so a warm call allocates none of them (see the module
/// docs).
#[derive(Debug, Clone, Default)]
struct Scratch {
    /// Quantized FP activations of the sample being driven.
    fp_acts: Vec<SignedActivation>,
    /// Quantized INT activations `(negative, magnitude)` of the sample
    /// being driven.
    int_acts: Vec<(bool, u32)>,
    /// The batch's drive slab: `rows` voltages per drive row,
    /// sample-major.
    drives: Vec<Volts>,
    /// One record per sample.
    samples: Vec<Sample>,
    /// Column currents of the positive and negative arrays, amps,
    /// `cols` per drive row.
    i_pos: Vec<f64>,
    i_neg: Vec<f64>,
    /// Power of the positive and negative arrays, watts, one per drive
    /// row.
    p_pos: Vec<f64>,
    p_neg: Vec<f64>,
    /// Net signed column currents of the sample being read out, amps.
    net: Vec<f64>,
    /// Output row of the sample being read out.
    y: Vec<f32>,
}

/// One AFPR-CIM macro instance.
///
/// # Example
///
/// ```
/// use afpr_xbar::cim_macro::CimMacro;
/// use afpr_xbar::spec::{MacroMode, MacroSpec};
///
/// let mut mac = CimMacro::new(MacroSpec::small(8, 4, MacroMode::FpE2M5));
/// let weights: Vec<f32> = (0..32).map(|k| (k as f32 - 16.0) / 16.0).collect();
/// mac.program_weights(&weights);
/// let y = mac.matvec(&vec![0.5f32; 8]);
/// assert_eq!(y.len(), 4);
/// ```
#[derive(Debug, Clone)]
pub struct CimMacro {
    spec: MacroSpec,
    pos: Crossbar,
    neg: Crossbar,
    fp_dac: FpDac,
    row_pgas: Vec<Pga>,
    fp_adcs: Vec<FpAdc>,
    int_dac: IntDac,
    int_adc: IntAdc,
    energy_model: EnergyModel,
    mapped: Option<MappedWeights>,
    current_divider: f64,
    stats: MacroStats,
    rng: StdRng,
    scratch: Scratch,
}

impl CimMacro {
    /// Builds a macro with seed 0 for all stochastic components.
    #[must_use]
    pub fn new(spec: MacroSpec) -> Self {
        Self::with_seed(spec, 0)
    }

    /// Builds a macro; all mismatch sampling and runtime noise derive
    /// deterministically from `seed`.
    #[must_use]
    pub fn with_seed(spec: MacroSpec, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let pos = Crossbar::with_spares(spec.rows, spec.cols, spec.spare_cols, spec.device.clone());
        let neg = Crossbar::with_spares(spec.rows, spec.cols, spec.spare_cols, spec.device.clone());
        let fp_dac = FpDac::with_sampled_mismatch(spec.fp_dac, &mut rng);
        let exp_levels = spec.fp_dac.format.exponent_levels();
        let row_pgas = (0..spec.rows)
            .map(|_| {
                Pga::binary_with_mismatch(exp_levels, spec.fp_dac.pga_mismatch_sigma, &mut rng)
            })
            .collect();
        let fp_adcs = (0..spec.cols)
            .map(|_| FpAdc::with_sampled_mismatch(spec.fp_adc, &mut rng))
            .collect();
        let int_dac = IntDac::new(spec.int_dac_bits, spec.int_dac_full_scale);
        let int_adc = IntAdc::new(spec.int_adc);
        Self {
            spec,
            pos,
            neg,
            fp_dac,
            row_pgas,
            fp_adcs,
            int_dac,
            int_adc,
            energy_model: EnergyModel::paper_65nm(),
            mapped: None,
            current_divider: 1.0,
            stats: MacroStats::default(),
            rng,
            scratch: Scratch::default(),
        }
    }

    /// The macro configuration.
    #[must_use]
    pub fn spec(&self) -> &MacroSpec {
        &self.spec
    }

    /// Running statistics (conversions, energy, saturations…).
    #[must_use]
    pub fn stats(&self) -> &MacroStats {
        &self.stats
    }

    /// Resets the statistics counters.
    pub fn reset_stats(&mut self) {
        self.stats.reset();
    }

    /// The current-mirror division ratio between the source line and
    /// the ADC input.
    #[must_use]
    pub fn current_divider(&self) -> f64 {
        self.current_divider
    }

    /// Sets the current-mirror ratio explicitly.
    ///
    /// # Panics
    ///
    /// Panics if `divider` is not positive and finite.
    pub fn set_current_divider(&mut self, divider: f64) {
        assert!(
            divider > 0.0 && divider.is_finite(),
            "divider must be positive"
        );
        self.current_divider = divider;
    }

    /// Enables the wire IR-drop model on both differential arrays.
    pub fn set_ir_drop(&mut self, model: crate::ir_drop::IrDropModel) {
        self.pos.set_ir_drop(model);
        self.neg.set_ir_drop(model);
    }

    /// Ages both arrays (retention drift applies to subsequent reads).
    pub fn set_age(&mut self, elapsed: afpr_circuit::units::Seconds) {
        self.pos.set_age(elapsed);
        self.neg.set_age(elapsed);
    }

    /// Shared read access to the differential arrays (positive,
    /// negative), for inspection by resilience tooling and tests.
    #[must_use]
    pub fn arrays(&self) -> (&Crossbar, &Crossbar) {
        (&self.pos, &self.neg)
    }

    /// Forces both differential arrays' conductance-snapshot kernels
    /// to build now (idempotent when already warm), so the first
    /// matvec after programming / fault injection / aging does not pay
    /// the rebuild latency. Servers call this before admitting
    /// traffic.
    pub fn warm_kernel(&self) {
        let _ = self.pos.conductance_snapshot();
        let _ = self.neg.conductance_snapshot();
    }

    /// Combined kernel generation of the differential arrays
    /// (positive, negative). Any mutation that can change an effective
    /// conductance — programming, chaos fault injection, scrub
    /// repairs, age advances — bumps the affected array's counter and
    /// invalidates its snapshot.
    #[must_use]
    pub fn kernel_generations(&self) -> (u64, u64) {
        (self.pos.generation(), self.neg.generation())
    }

    /// Injects stuck-at faults into **both** differential arrays,
    /// sampled from `yield_model` with the caller-supplied RNG.
    /// Returns the number of cells faulted.
    ///
    /// The macro's own RNG is deliberately *not* used: live chaos
    /// injection must not perturb the compute noise streams, so that a
    /// `fault_rate == 0` chaos configuration stays bit-identical to no
    /// chaos at all.
    pub fn inject_chaos_faults<R: rand::Rng + ?Sized>(
        &mut self,
        yield_model: &afpr_device::YieldModel,
        rng: &mut R,
    ) -> u64 {
        let n = self.pos.inject_faults(yield_model, rng) + self.neg.inject_faults(yield_model, rng);
        n as u64
    }

    /// Advances retention age on both arrays by `delta` seconds
    /// (relative to the current age, which [`Crossbar::set_age`] sets
    /// absolutely).
    pub fn advance_age(&mut self, delta: afpr_circuit::units::Seconds) {
        let age = self.pos.age_seconds() + delta.seconds();
        self.set_age(afpr_circuit::units::Seconds::new(age));
    }

    /// One scrub pass over both differential arrays: golden-checksum
    /// detection (majority-voted when `guard.votes > 1`), then repair
    /// by spare-column remapping while spares remain.
    ///
    /// `rng` drives noisy re-reads and spare reprogramming and must be
    /// a chaos/maintenance stream, not the macro compute stream.
    pub fn scrub<R: rand::Rng + ?Sized>(
        &mut self,
        guard: &crate::chaos::GuardConfig,
        rng: &mut R,
    ) -> crate::chaos::ScrubReport {
        let mut report = crate::chaos::ScrubReport::default();
        for array in [&mut self.pos, &mut self.neg] {
            let flagged = if guard.votes > 1 {
                array.detect_faulty_columns_voted(guard.threshold, guard.votes, rng)
            } else {
                array.detect_faulty_columns(guard.threshold)
            };
            for col in flagged {
                report.flagged += 1;
                if guard.repair && array.remap_column(col, rng).is_ok() {
                    report.repaired += 1;
                } else {
                    report.unrepaired += 1;
                }
            }
        }
        report
    }

    /// Programs a signed weight matrix (`rows × cols`, row-major) into
    /// the differential arrays through write-verify, and auto-places
    /// the ADC range: the current divider is set so the ADC full scale
    /// covers ≈3 standard deviations of the MAC distribution under a
    /// random-activation assumption. Use
    /// [`CimMacro::calibrate_range`] afterwards for data-driven
    /// placement, or [`CimMacro::set_current_divider`] for manual
    /// control.
    ///
    /// # Panics
    ///
    /// Panics if `weights.len() != rows × cols`.
    pub fn program_weights(&mut self, weights: &[f32]) -> &MappedWeights {
        let mapped = map_weights(
            weights,
            self.spec.rows,
            self.spec.cols,
            self.spec.device.levels,
        );
        self.pos.program_levels(&mapped.pos_levels, &mut self.rng);
        self.neg.program_levels(&mapped.neg_levels, &mut self.rng);

        // Range placement: σ_col = a_rms · sqrt(Σ_r w², worst column).
        let a_rms = self.activation_rms_assumption();
        let mut worst = 0.0f64;
        for c in 0..mapped.cols {
            let sum_sq: f64 = (0..mapped.rows)
                .map(|r| {
                    let w = f64::from(mapped.signed_level(r, c));
                    w * w
                })
                .sum();
            worst = worst.max(sum_sq);
        }
        let sigma = a_rms * worst.sqrt();
        if sigma > 0.0 {
            let target = 3.0 * sigma;
            let base_full_scale = self.digital_full_scale_at_divider(1.0);
            self.current_divider = (target / base_full_scale).max(f64::MIN_POSITIVE);
        } else {
            self.current_divider = 1.0;
        }
        self.mapped = Some(mapped);
        self.mapped.as_ref().expect("just set")
    }

    /// Data-driven range calibration: runs exact digital references for
    /// the sample inputs and places the ADC full scale at the largest
    /// observed |MAC| (with 10 % headroom).
    ///
    /// # Panics
    ///
    /// Panics if weights are not programmed or a sample has the wrong
    /// length.
    pub fn calibrate_range(&mut self, samples: &[Vec<SignedActivation>]) {
        let mut peak = 0.0f64;
        for acts in samples {
            for v in self.digital_reference_fp(acts) {
                peak = peak.max(v.abs());
            }
        }
        if peak > 0.0 {
            let base_full_scale = self.digital_full_scale_at_divider(1.0);
            self.current_divider = (1.1 * peak / base_full_scale).max(f64::MIN_POSITIVE);
        }
    }

    /// One-time weight-deployment energy (write-verify pulses over
    /// both differential arrays, typical-RRAM pulse parameters).
    #[must_use]
    pub fn programming_energy(&self) -> Joules {
        let model = afpr_device::ProgramEnergyModel::typical_rram();
        self.pos.programming_energy(&model) + self.neg.programming_energy(&model)
    }

    /// The programmed weight mapping.
    ///
    /// # Panics
    ///
    /// Panics if no weights have been programmed yet.
    #[must_use]
    pub fn mapped_weights(&self) -> &MappedWeights {
        self.mapped
            .as_ref()
            .expect("weights must be programmed first")
    }

    /// How many digital MAC units one ADC output unit represents.
    #[must_use]
    pub fn digital_units_per_adc_unit(&self) -> f64 {
        self.digital_units_at_divider(self.current_divider)
    }

    /// The largest |digital MAC| a column can read out before the ADC
    /// saturates.
    #[must_use]
    pub fn digital_full_scale(&self) -> f64 {
        self.digital_full_scale_at_divider(self.current_divider)
    }

    /// The smallest non-zero |digital MAC| that still reads out
    /// (below it: "the result is not read out").
    #[must_use]
    pub fn digital_min_readable(&self) -> f64 {
        match self.spec.mode {
            MacroMode::FpE2M5 | MacroMode::FpE3M4 => self.digital_units_per_adc_unit(),
            // The INT ADC reads down to half an LSB.
            MacroMode::Int8 => self.digital_units_per_adc_unit() / 2.0,
        }
    }

    fn activation_rms_assumption(&self) -> f64 {
        match self.spec.mode {
            MacroMode::FpE2M5 | MacroMode::FpE3M4 => self.spec.fp_adc.format.max_value() / 3.0,
            MacroMode::Int8 => f64::from((1u32 << self.spec.int_dac_bits) - 1) / 3.0,
        }
    }

    fn digital_units_at_divider(&self, divider: f64) -> f64 {
        let g_lsb = self.spec.device.level_step();
        match self.spec.mode {
            MacroMode::FpE2M5 | MacroMode::FpE3M4 => {
                self.fp_adcs[0].min_current().amps() * divider
                    / (self.spec.fp_dac.v_unit.volts() * g_lsb)
            }
            MacroMode::Int8 => {
                let v_per_code = self.spec.int_dac_full_scale.volts()
                    / f64::from(1u32 << self.spec.int_dac_bits);
                self.int_adc.lsb_current().amps() * divider / (v_per_code * g_lsb)
            }
        }
    }

    fn digital_full_scale_at_divider(&self, divider: f64) -> f64 {
        match self.spec.mode {
            MacroMode::FpE2M5 | MacroMode::FpE3M4 => {
                self.spec.fp_adc.format.max_value() * self.digital_units_at_divider(divider)
            }
            MacroMode::Int8 => {
                let codes = f64::from(1u32 << self.spec.int_adc.bits) - 1.0;
                codes * self.digital_units_at_divider(divider)
            }
        }
    }

    /// FP-DAC drive of row `r` for one code: shared mantissa ladder,
    /// per-row PGA.
    fn fp_voltage(&self, r: usize, c: HwFpCode) -> Volts {
        Volts::new(self.row_pgas[r].apply(c.exp(), self.fp_dac.mantissa_voltage(c.man()).volts()))
    }

    /// DAC stage for one sample: quantizes `x` in the macro's format
    /// and appends one drive row per live sign phase to the scratch
    /// drive slab, positive phase first. An FP phase is live when one
    /// of its rows carries a code, an INT phase when it drives a
    /// non-zero voltage.
    fn drive_rows(&self, x: &[f32], s: &mut Scratch) -> Sample {
        assert_eq!(x.len(), self.spec.rows, "need one activation per row");
        let rows = self.spec.rows;
        let first = s.drives.len() / rows;
        let mut signs = [0.0; 2];
        let mut live = 0;
        let (a_scale, active_rows) = match self.spec.mode {
            MacroMode::FpE2M5 | MacroMode::FpE3M4 => {
                let q = FpActQuantizer::calibrate(x, self.spec.fp_dac.format);
                s.fp_acts.clear();
                s.fp_acts.extend(x.iter().map(|&v| q.quantize(v)));
                for (negative, sign) in [(false, 1.0), (true, -1.0)] {
                    if s.fp_acts
                        .iter()
                        .any(|a| a.negative == negative && a.code.is_some())
                    {
                        let drive = s.fp_acts.iter().enumerate().map(|(r, a)| match a.code {
                            Some(c) if a.negative == negative => self.fp_voltage(r, c),
                            _ => Volts::ZERO,
                        });
                        s.drives.extend(drive);
                        signs[live] = sign;
                        live += 1;
                    }
                }
                (
                    q.scale,
                    s.fp_acts.iter().filter(|a| a.code.is_some()).count(),
                )
            }
            MacroMode::Int8 => {
                let q = IntActQuantizer::calibrate(x);
                s.int_acts.clear();
                s.int_acts.extend(x.iter().map(|&v| q.quantize(v)));
                for (negative, sign) in [(false, 1.0), (true, -1.0)] {
                    let start = s.drives.len();
                    s.drives.extend(s.int_acts.iter().map(|&(neg, m)| {
                        if neg == negative {
                            self.int_dac.convert(m)
                        } else {
                            Volts::ZERO
                        }
                    }));
                    if s.drives[start..].iter().any(|v| v.volts() != 0.0) {
                        signs[live] = sign;
                        live += 1;
                    } else {
                        s.drives.truncate(start);
                    }
                }
                let active_rows = s.int_acts.iter().filter(|&&(_, m)| m > 0).count();
                (q.inner().scale(), active_rows)
            }
        };
        Sample {
            drives: first..first + live,
            signs,
            a_scale,
            active_rows,
        }
    }

    /// ADC stage: one readout of one column's divided net current, in
    /// ADC units, counting saturations and underflows.
    fn read_column(&mut self, col: usize, i: Amps) -> f64 {
        if self.spec.mode == MacroMode::Int8 {
            let r = self.int_adc.convert(i);
            self.stats.saturations += u64::from(r.overflow);
            f64::from(r.code)
        } else {
            let r = self.fp_adcs[col].convert_noisy(i, &mut self.rng);
            self.stats.saturations += u64::from(r.overflow);
            self.stats.underflows += u64::from(r.underflow);
            r.value()
        }
    }

    fn account(&mut self, adc_spec: AdcSpec, active_rows: usize, array: Joules, phases: u32) {
        let mut breakdown = self.energy_model.macro_conversion_energy(
            &adc_spec,
            self.spec.cols,
            active_rows,
            Some(array),
        );
        // Extra integration phases repeat the DAC drive cost.
        if phases > 1 {
            breakdown.dac = breakdown.dac * f64::from(phases);
        }
        self.stats.energy += breakdown;
        self.stats.conversions += 1;
        self.stats.ops += self.spec.ops_per_conversion();
        self.stats.busy_time += self.spec.mode.conversion_time()
            + adc_spec.t_integrate * f64::from(phases.saturating_sub(1));
    }

    /// End-to-end real-valued matrix-vector product: a batch of one
    /// through [`CimMacro::matvec_batch_with`]. Warm, the returned `Vec`
    /// is its only heap allocation.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != rows` or weights are not programmed.
    pub fn matvec(&mut self, x: &[f32]) -> Vec<f32> {
        let mut out = Vec::new();
        self.matvec_batch_with([x], |_, y| out = y.to_vec());
        out
    }

    /// Signed real-valued matrix-vector products for a batch of
    /// inputs, one output row per sample: the rows
    /// [`CimMacro::matvec_batch_with`] hands out, collected.
    ///
    /// # Panics
    ///
    /// Panics if a sample length differs from `rows` or weights are not
    /// programmed.
    pub fn matvec_batch(&mut self, xs: &[Vec<f32>]) -> Vec<Vec<f32>> {
        let mut out = Vec::with_capacity(xs.len());
        self.matvec_batch_with(xs.iter().map(Vec::as_slice), |_, y| out.push(y.to_vec()));
        out
    }

    /// The macro's one compute path (see the module docs): runs every
    /// sample of `xs` and calls `emit(sample index, output row)` once
    /// per sample, in sample order. The row lives in the macro's
    /// scratch arena and is overwritten by the next sample, so `emit`
    /// copies what it keeps.
    ///
    /// Per sample, an activation quantizer is calibrated on the input
    /// and the input drives up to two sign phases. The differential
    /// integrator accumulates `I⁺ − I⁻` with the phase sign, each
    /// column reads out once, and the digital result is rescaled to
    /// real units. Energy, busy time and readout counts are accounted
    /// per sample, in sample order, so a batch is bit-identical to the
    /// same samples sent one at a time.
    ///
    /// # Panics
    ///
    /// Panics if a sample length differs from `rows` or weights are not
    /// programmed.
    pub fn matvec_batch_with<'x>(
        &mut self,
        xs: impl IntoIterator<Item = &'x [f32]>,
        mut emit: impl FnMut(usize, &[f32]),
    ) {
        // The arena leaves `self` for the call, so the DAC and ADC
        // stages can borrow the macro while filling it.
        let mut s = std::mem::take(&mut self.scratch);
        s.drives.clear();
        s.samples.clear();
        for x in xs {
            let sample = self.drive_rows(x, &mut s);
            s.samples.push(sample);
        }
        let w_scale = self.mapped_weights().scale;
        let adc_spec = match self.spec.mode {
            MacroMode::FpE2M5 | MacroMode::FpE3M4 => AdcSpec::fp(&self.spec.fp_adc),
            MacroMode::Int8 => AdcSpec::int(&self.spec.int_adc),
        };
        let units = self.digital_units_per_adc_unit();
        let divider = self.current_divider;
        let (rows, cols) = (self.spec.rows, self.spec.cols);
        let t_int = adc_spec.t_integrate.seconds();
        let noisy = self.spec.device.read_noise_sigma != 0.0;
        let group = if noisy { 1 } else { s.samples.len().max(1) };

        let drive_rows = s.drives.len() / rows;
        s.i_pos.resize(drive_rows * cols, 0.0);
        s.i_neg.resize(drive_rows * cols, 0.0);
        s.p_pos.resize(drive_rows, 0.0);
        s.p_neg.resize(drive_rows, 0.0);
        let (pos, neg) = (
            self.pos.conductance_snapshot(),
            self.neg.conductance_snapshot(),
        );

        let mut index = 0;
        for chunk in s.samples.chunks(group) {
            let first = chunk[0].drives.start;
            let last = chunk[chunk.len() - 1].drives.end;
            let slab = &s.drives[first * rows..last * rows];
            let (i_pos, i_neg) = (
                &mut s.i_pos[first * cols..last * cols],
                &mut s.i_neg[first * cols..last * cols],
            );
            if noisy {
                for ((v, ip), im) in slab
                    .chunks_exact(rows)
                    .zip(i_pos.chunks_exact_mut(cols))
                    .zip(i_neg.chunks_exact_mut(cols))
                {
                    let p = self.pos.mac_currents_noisy(v, &mut self.rng);
                    let m = self.neg.mac_currents_noisy(v, &mut self.rng);
                    for (dst, src) in ip.iter_mut().zip(&p).chain(im.iter_mut().zip(&m)) {
                        *dst = src.amps();
                    }
                }
            } else {
                pos.mac_batch_into(slab, i_pos);
                neg.mac_batch_into(slab, i_neg);
            }
            pos.power_batch_into(slab, &mut s.p_pos[first..last]);
            neg.power_batch_into(slab, &mut s.p_neg[first..last]);
            for sample in chunk {
                s.net.clear();
                s.net.resize(cols, 0.0); // amps, signed
                let mut array_energy = Joules::ZERO;
                for (k, sign) in sample.drives.clone().zip(sample.signs) {
                    let ip = &s.i_pos[k * cols..(k + 1) * cols];
                    let im = &s.i_neg[k * cols..(k + 1) * cols];
                    for (n, (p, m)) in s.net.iter_mut().zip(ip.iter().zip(im)) {
                        *n += sign * (p - m);
                    }
                    array_energy +=
                        Joules::new(s.p_pos[k] * t_int) + Joules::new(s.p_neg[k] * t_int);
                }
                s.y.clear();
                for (col, i_net) in s.net.iter().enumerate() {
                    let level = self.read_column(col, Amps::new(i_net.abs() / divider));
                    s.y.push((level * units * i_net.signum()) as f32 * sample.a_scale * w_scale);
                }
                let phases = u32::try_from(sample.drives.len()).expect("at most two phases");
                self.account(adc_spec, sample.active_rows, array_energy, phases.max(1));
                emit(index, &s.y);
                index += 1;
            }
        }
        self.scratch = s;
    }

    /// The exact digital reference MAC (`Σ a_i w_ij` from the quantized
    /// codes, no analog effects) — what an error-free macro would read
    /// out before rescaling to real units.
    ///
    /// # Panics
    ///
    /// Panics if weights are not programmed or lengths mismatch.
    #[must_use]
    pub fn digital_reference_fp(&self, activations: &[SignedActivation]) -> Vec<f64> {
        assert_eq!(
            activations.len(),
            self.spec.rows,
            "need one activation per row"
        );
        let mapped = self.mapped_weights();
        let mut out = vec![0.0f64; self.spec.cols];
        for (r, a) in activations.iter().enumerate() {
            let av = a.value();
            if av == 0.0 {
                continue;
            }
            for (c, o) in out.iter_mut().enumerate() {
                *o += av * f64::from(mapped.signed_level(r, c));
            }
        }
        out
    }
}

#[cfg(test)]
mod reference {
    //! The sequential per-sample FP and INT MACs that the one compute
    //! path replaced, kept verbatim as its bit-identity oracle.

    use super::*;

    impl CimMacro {
        /// Sequential [`CimMacro::matvec`]: quantize, one MAC, rescale.
        pub(super) fn matvec_reference(&mut self, x: &[f32]) -> Vec<f32> {
            let (digital, a_scale) = match self.spec.mode {
                MacroMode::FpE2M5 | MacroMode::FpE3M4 => {
                    let q = FpActQuantizer::calibrate(x, self.spec.fp_dac.format);
                    (self.matvec_digital_fp(&q.quantize_slice(x)), q.scale)
                }
                MacroMode::Int8 => {
                    let q = IntActQuantizer::calibrate(x);
                    let acts: Vec<(bool, u32)> = x.iter().map(|&v| q.quantize(v)).collect();
                    (self.matvec_digital_int(&acts), q.inner().scale())
                }
            };
            let w_scale = self.mapped_weights().scale;
            digital
                .into_iter()
                .map(|d| d as f32 * a_scale * w_scale)
                .collect()
        }

        /// DAC stage for one FP drive vector: shared mantissa ladder,
        /// per-row PGA.
        fn fp_voltages(&self, drive: &[Option<HwFpCode>]) -> Vec<Volts> {
            drive
                .iter()
                .enumerate()
                .map(|(r, code)| match code {
                    Some(c) => Volts::new(
                        self.row_pgas[r]
                            .apply(c.exp(), self.fp_dac.mantissa_voltage(c.man()).volts()),
                    ),
                    None => Volts::ZERO,
                })
                .collect()
        }

        /// Signed FP matrix-vector product in *digital* units
        /// (`Σ a_i w_ij`): differential charge accumulation over up to two
        /// input-sign phases, one magnitude readout per column.
        ///
        /// # Panics
        ///
        /// Panics if the macro is in INT8 mode, lengths mismatch, or
        /// weights are not programmed.
        pub fn matvec_digital_fp(&mut self, activations: &[SignedActivation]) -> Vec<f64> {
            assert!(
                self.spec.mode.fp_format().is_some(),
                "matvec_digital_fp needs an FP mode"
            );
            assert_eq!(
                activations.len(),
                self.spec.rows,
                "need one activation per row"
            );
            assert!(self.mapped.is_some(), "weights must be programmed first");

            let pos_drive: Vec<Option<HwFpCode>> = activations
                .iter()
                .map(|a| if a.negative { None } else { a.code })
                .collect();
            let neg_drive: Vec<Option<HwFpCode>> = activations
                .iter()
                .map(|a| if a.negative { a.code } else { None })
                .collect();

            let mut net = vec![0.0f64; self.spec.cols]; // amps, signed
            let mut array_energy = Joules::ZERO;
            let mut phases = 0u32;
            for (drive, sign) in [(&pos_drive, 1.0f64), (&neg_drive, -1.0f64)] {
                if drive.iter().all(Option::is_none) {
                    continue;
                }
                phases += 1;
                let voltages = self.fp_voltages(drive);
                // Differential pair shares the word line: one DAC drive
                // feeds both polarities; integrator accumulates I⁺ − I⁻
                // with the phase sign.
                let ip = self.pos.mac_currents_noisy(&voltages, &mut self.rng);
                let i_neg = self.neg.mac_currents_noisy(&voltages, &mut self.rng);
                for (n, (p, m)) in net.iter_mut().zip(ip.iter().zip(&i_neg)) {
                    *n += sign * (p.amps() - m.amps());
                }
                array_energy += self
                    .pos
                    .array_energy(&voltages, self.spec.fp_adc.t_integrate)
                    + self
                        .neg
                        .array_energy(&voltages, self.spec.fp_adc.t_integrate);
            }

            let units = self.digital_units_per_adc_unit();
            let divider = self.current_divider;
            let mut out = Vec::with_capacity(self.spec.cols);
            for (col, i_net) in net.iter().enumerate() {
                let magnitude = Amps::new(i_net.abs() / divider);
                let r = self.fp_adcs[col].convert_noisy(magnitude, &mut self.rng);
                if r.overflow {
                    self.stats.saturations += 1;
                }
                if r.underflow {
                    self.stats.underflows += 1;
                }
                out.push(r.value() * units * i_net.signum());
            }

            let active_rows = activations.iter().filter(|a| a.code.is_some()).count();
            self.account(
                AdcSpec::fp(&self.spec.fp_adc),
                active_rows,
                array_energy,
                phases.max(1),
            );
            out
        }

        /// Signed INT8 matrix-vector product in digital units (activation
        /// magnitudes `0..=255` with sign flags).
        ///
        /// # Panics
        ///
        /// Panics if the macro is not in INT8 mode or preconditions fail.
        pub fn matvec_digital_int(&mut self, activations: &[(bool, u32)]) -> Vec<f64> {
            assert_eq!(
                self.spec.mode,
                MacroMode::Int8,
                "matvec_digital_int needs INT8 mode"
            );
            assert_eq!(
                activations.len(),
                self.spec.rows,
                "need one activation per row"
            );
            assert!(self.mapped.is_some(), "weights must be programmed first");

            let mut net = vec![0.0f64; self.spec.cols];
            let mut array_energy = Joules::ZERO;
            let mut phases = 0u32;
            for (want_neg, sign) in [(false, 1.0f64), (true, -1.0f64)] {
                let voltages: Vec<Volts> = activations
                    .iter()
                    .map(|&(neg, m)| {
                        if neg == want_neg {
                            self.int_dac.convert(m)
                        } else {
                            Volts::ZERO
                        }
                    })
                    .collect();
                if voltages.iter().all(|v| v.volts() == 0.0) {
                    continue;
                }
                phases += 1;
                let ip = self.pos.mac_currents_noisy(&voltages, &mut self.rng);
                let i_neg = self.neg.mac_currents_noisy(&voltages, &mut self.rng);
                for (n, (p, m)) in net.iter_mut().zip(ip.iter().zip(&i_neg)) {
                    *n += sign * (p.amps() - m.amps());
                }
                array_energy += self
                    .pos
                    .array_energy(&voltages, self.spec.int_adc.t_integrate)
                    + self
                        .neg
                        .array_energy(&voltages, self.spec.int_adc.t_integrate);
            }

            let units = self.digital_units_per_adc_unit();
            let divider = self.current_divider;
            let mut out = Vec::with_capacity(self.spec.cols);
            for i_net in &net {
                let magnitude = Amps::new(i_net.abs() / divider);
                let r = self.int_adc.convert(magnitude);
                if r.overflow {
                    self.stats.saturations += 1;
                }
                out.push(f64::from(r.code) * units * i_net.signum());
            }

            let active_rows = activations.iter().filter(|&&(_, m)| m > 0).count();
            self.account(
                AdcSpec::int(&self.spec.int_adc),
                active_rows,
                array_energy,
                phases.max(1),
            );
            out
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use afpr_num::FpFormat;

    fn small_fp(rows: usize, cols: usize) -> CimMacro {
        CimMacro::with_seed(MacroSpec::small(rows, cols, MacroMode::FpE2M5), 42)
    }

    fn ramp_weights(rows: usize, cols: usize) -> Vec<f32> {
        (0..rows * cols)
            .map(|k| ((k * 13) % 17) as f32 / 17.0 - 0.4)
            .collect()
    }

    #[test]
    fn digital_units_scaling_e2m5() {
        let mac = small_fp(4, 2);
        // (1.05 µA) / (0.1 V × 0.645 µS) ≈ 16.28 at divider 1.
        let u = mac.digital_units_per_adc_unit();
        assert!((u - 16.275).abs() < 0.01, "u={u}");
    }

    #[test]
    fn auto_range_covers_typical_macs() {
        let mut mac = small_fp(32, 4);
        mac.program_weights(&ramp_weights(32, 4));
        // After auto-ranging, full scale ≈ 3σ of the assumed MAC
        // distribution: well above one max product, below the absolute
        // worst case.
        let fs = mac.digital_full_scale();
        assert!(fs > 15.75 * 31.0, "full scale {fs} too small");
        assert!(fs < 32.0 * 15.75 * 31.0, "full scale {fs} absurdly large");
    }

    #[test]
    fn ideal_matvec_matches_digital_reference() {
        let mut mac = small_fp(16, 4);
        mac.program_weights(&ramp_weights(16, 4));
        let x: Vec<f32> = (0..16)
            .map(|k| (1.0 + ((k * 2) % 32) as f32 / 32.0) * if k % 3 == 0 { -1.0 } else { 1.0 })
            .collect();
        // The codes `matvec` drives: its quantizer calibrates on `x`.
        let q = FpActQuantizer::calibrate(&x, FpFormat::E2M5);
        let acts = q.quantize_slice(&x);
        mac.calibrate_range(std::slice::from_ref(&acts));
        let reference = mac.digital_reference_fp(&acts);
        let to_digital = f64::from(q.scale) * f64::from(mac.mapped_weights().scale);
        let measured: Vec<f64> = mac
            .matvec(&x)
            .iter()
            .map(|&y| f64::from(y) / to_digital)
            .collect();
        for (c, (m, r)) in measured.iter().zip(&reference).enumerate() {
            if r.abs() < mac.digital_min_readable() {
                assert_eq!(*m, 0.0, "col {c} should flush to zero");
                continue;
            }
            // One mantissa LSB of the landing binade, in digital units.
            let binade = (r.abs() / mac.digital_units_per_adc_unit())
                .log2()
                .floor()
                .max(0.0);
            let tol = mac.digital_units_per_adc_unit() * 2.0f64.powf(binade) / 32.0 + 1e-9;
            assert!(
                (m - r).abs() <= tol,
                "col {c}: measured {m} reference {r} tol {tol}"
            );
        }
    }

    #[test]
    fn signed_matvec_close_to_float() {
        let mut mac = small_fp(32, 4);
        let w = ramp_weights(32, 4);
        mac.program_weights(&w);
        let x: Vec<f32> = (0..32).map(|k| ((k as f32) * 0.37).sin()).collect();
        // Data-driven range placement, as a PTQ flow would do.
        let q = FpActQuantizer::calibrate(&x, FpFormat::E2M5);
        mac.calibrate_range(&[q.quantize_slice(&x)]);
        let y = mac.matvec(&x);
        let mut want = [0.0f32; 4];
        for r in 0..32 {
            for c in 0..4 {
                want[c] += x[r] * w[r * 4 + c];
            }
        }
        for c in 0..4 {
            // Error budget: activation quant (~3 %), weight quant
            // (~3 %), one FP readout (~3 % of full scale).
            let tol = 0.1 * want[c].abs().max(1.0) + 0.35;
            assert!(
                (y[c] - want[c]).abs() < tol,
                "col {c}: got {} want {}",
                y[c],
                want[c]
            );
        }
    }

    #[test]
    fn readout_is_one_conversion_per_matvec() {
        let mut mac = small_fp(8, 2);
        mac.program_weights(&ramp_weights(8, 2));
        let x: Vec<f32> = (0..8).map(|k| (k as f32 - 4.0) / 4.0).collect();
        let _ = mac.matvec(&x);
        // Differential accumulation: mixed-sign input costs 2
        // integration phases but a single readout.
        assert_eq!(mac.stats().conversions, 1);
        // Busy time: conversion + one extra integration window.
        assert!((mac.stats().busy_time.seconds() - (200e-9 + 100e-9)).abs() < 1e-15);
    }

    #[test]
    fn positive_only_input_single_phase() {
        let mut mac = small_fp(8, 2);
        mac.program_weights(&ramp_weights(8, 2));
        let _ = mac.matvec(&[0.5f32; 8]);
        assert_eq!(mac.stats().conversions, 1);
        assert!((mac.stats().busy_time.seconds() - 200e-9).abs() < 1e-15);
    }

    #[test]
    fn int8_mode_matvec() {
        let mut mac = CimMacro::with_seed(MacroSpec::small(16, 3, MacroMode::Int8), 7);
        let w = ramp_weights(16, 3);
        mac.program_weights(&w);
        let x: Vec<f32> = (0..16).map(|k| ((k as f32) * 0.21).cos() * 0.8).collect();
        let y = mac.matvec(&x);
        let mut want = [0.0f32; 3];
        for r in 0..16 {
            for c in 0..3 {
                want[c] += x[r] * w[r * 3 + c];
            }
        }
        for c in 0..3 {
            let tol = 0.1 * want[c].abs().max(1.0) + 0.4;
            assert!(
                (y[c] - want[c]).abs() < tol,
                "col {c}: got {} want {}",
                y[c],
                want[c]
            );
        }
    }

    #[test]
    fn saturation_counted_when_range_too_small() {
        let mut mac = small_fp(64, 2);
        mac.program_weights(&vec![1.0f32; 128]);
        // Force an undersized range.
        mac.set_current_divider(1.0);
        let _ = mac.matvec(&vec![1.0f32; 64]);
        assert!(mac.stats().saturations > 0);
    }

    #[test]
    fn underflow_counted_for_tiny_macs() {
        let mut mac = small_fp(4, 2);
        let mut w = vec![0.0f32; 8];
        w[0] = 1.0; // column 0 sees a real MAC
        w[1] = 0.02; // column 1's MAC is ~2 % of column 0's
        mac.program_weights(&w);
        // Wide range (placed for column 0) makes column 1 underflow.
        let _ = mac.matvec(&[1.0, 0.0, 0.0, 0.0]);
        assert!(mac.stats().underflows > 0);
    }

    #[test]
    fn seeded_macros_are_reproducible() {
        let run = || {
            let mut mac = CimMacro::with_seed(
                MacroSpec {
                    rows: 16,
                    cols: 4,
                    ..MacroSpec::paper_realistic(MacroMode::FpE2M5)
                },
                9,
            );
            mac.program_weights(&ramp_weights(16, 4));
            let x: Vec<f32> = (0..16).map(|k| (k as f32 * 0.3).sin()).collect();
            mac.matvec(&x)
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn stats_reset() {
        let mut mac = small_fp(4, 2);
        mac.program_weights(&ramp_weights(4, 2));
        let _ = mac.matvec(&[0.3, -0.2, 0.1, 0.4]);
        assert!(mac.stats().conversions > 0);
        mac.reset_stats();
        assert_eq!(mac.stats().conversions, 0);
    }

    #[test]
    #[should_panic(expected = "programmed")]
    fn matvec_before_programming_panics() {
        let mut mac = small_fp(4, 2);
        let _ = mac.matvec(&[0.1; 4]);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_divider_rejected() {
        let mut mac = small_fp(4, 2);
        mac.set_current_divider(0.0);
    }

    #[test]
    fn kernel_invalidates_on_age_and_chaos() {
        let mut mac = small_fp(8, 4);
        mac.program_weights(&ramp_weights(8, 4));
        mac.warm_kernel();
        let g0 = mac.kernel_generations();
        mac.advance_age(afpr_circuit::units::Seconds::new(50.0));
        let g1 = mac.kernel_generations();
        assert!(g1.0 > g0.0 && g1.1 > g0.1, "advance_age must invalidate");
        let mut rng = StdRng::seed_from_u64(5);
        let n = mac.inject_chaos_faults(&afpr_device::YieldModel::new(0.5, 0.5), &mut rng);
        assert!(n > 0);
        let g2 = mac.kernel_generations();
        assert!(
            g2.0 > g1.0 || g2.1 > g1.1,
            "fault injection must invalidate"
        );
    }

    #[test]
    fn warm_kernel_does_not_change_results() {
        let run = |warm: bool| {
            let mut mac = small_fp(16, 4);
            mac.program_weights(&ramp_weights(16, 4));
            if warm {
                mac.warm_kernel();
            }
            let x: Vec<f32> = (0..16).map(|k| (k as f32 * 0.29).sin()).collect();
            mac.matvec(&x)
        };
        assert_eq!(run(true), run(false));
    }

    #[test]
    fn batched_matvec_is_bit_identical_to_sequential() {
        // Clone-twin: run the batched GEMM on one macro and the
        // per-sample loop on its clone (same RNG state, same arrays)
        // — outputs AND stats must agree exactly.
        for mode in [MacroMode::FpE2M5, MacroMode::FpE3M4, MacroMode::Int8] {
            let mut spec = MacroSpec::small(16, 5, mode);
            spec.device.drift_nu = 0.01;
            let mut mac = CimMacro::with_seed(spec, 42);
            mac.program_weights(&ramp_weights(16, 5));
            mac.set_age(afpr_circuit::units::Seconds::new(1.0e5));
            let mut twin = mac.clone();
            let xs: Vec<Vec<f32>> = (0..7)
                .map(|s| {
                    (0..16)
                        .map(|r| (r as f32 * 0.31 + s as f32 * 0.7).sin() * 0.8)
                        .collect()
                })
                .collect();
            let batched = mac.matvec_batch(&xs);
            let sequential: Vec<Vec<f32>> = xs.iter().map(|x| twin.matvec(x)).collect();
            for (s, (b, q)) in batched.iter().zip(&sequential).enumerate() {
                for (c, (bv, qv)) in b.iter().zip(q).enumerate() {
                    assert_eq!(
                        bv.to_bits(),
                        qv.to_bits(),
                        "{mode:?} sample {s} col {c}: batched {bv} sequential {qv}"
                    );
                }
            }
            assert_eq!(
                mac.stats().conversions,
                twin.stats().conversions,
                "{mode:?}"
            );
            assert_eq!(
                mac.stats().energy.total().joules().to_bits(),
                twin.stats().energy.total().joules().to_bits(),
                "{mode:?} energy accounting diverged"
            );
        }
    }

    #[test]
    fn noisy_batch_falls_back_to_sequential_rng_order() {
        // Realistic device spec: read noise forces the per-sample
        // fallback, which must still be bit-identical to the loop.
        let spec = MacroSpec {
            rows: 12,
            cols: 3,
            ..MacroSpec::paper_realistic(MacroMode::FpE2M5)
        };
        assert!(spec.device.read_noise_sigma != 0.0, "spec must be noisy");
        let mut mac = CimMacro::with_seed(spec, 9);
        mac.program_weights(&ramp_weights(12, 3));
        let mut twin = mac.clone();
        let xs: Vec<Vec<f32>> = (0..4)
            .map(|s| (0..12).map(|r| ((r + s) as f32 * 0.4).cos()).collect())
            .collect();
        let batched = mac.matvec_batch(&xs);
        let sequential: Vec<Vec<f32>> = xs.iter().map(|x| twin.matvec(x)).collect();
        assert_eq!(batched, sequential);
    }

    #[test]
    fn one_path_is_bit_identical_to_the_sequential_reference() {
        for mode in [MacroMode::FpE2M5, MacroMode::FpE3M4, MacroMode::Int8] {
            let mut drifted = MacroSpec::small(16, 5, mode).with_spare_cols(1);
            drifted.device.drift_nu = 0.01;
            let noisy = MacroSpec {
                rows: 16,
                cols: 5,
                ..MacroSpec::paper_realistic(mode)
            };
            let specs = [
                ("ideal", MacroSpec::small(16, 5, mode)),
                ("drift + remap", drifted),
                ("read noise", noisy),
            ];
            for (name, spec) in specs {
                let mut mac = CimMacro::with_seed(spec, 42);
                mac.program_weights(&ramp_weights(16, 5));
                if name == "drift + remap" {
                    mac.set_age(afpr_circuit::units::Seconds::new(1.0e5));
                    let mut rng = StdRng::seed_from_u64(3);
                    mac.pos.remap_column(2, &mut rng).expect("one spare");
                }
                let mut twin = mac.clone();
                // Batches run back to back on one clone pair, so a
                // diverged RNG stream shows up in the next batch.
                for batch in [1, 2, 7] {
                    // Mixed-sign, all-positive and all-zero samples:
                    // two, one and no live sign phases.
                    let xs: Vec<Vec<f32>> = (0..batch)
                        .map(|s| {
                            (0..16)
                                .map(|r| match s % 3 {
                                    0 => (r as f32 * 0.31 + s as f32 * 0.7).sin(),
                                    1 => 0.1 + r as f32 * 0.05,
                                    _ => 0.0,
                                })
                                .collect()
                        })
                        .collect();
                    let got = mac.matvec_batch(&xs);
                    let want: Vec<Vec<f32>> = xs.iter().map(|x| twin.matvec_reference(x)).collect();
                    let bits = |ys: &[Vec<f32>]| -> Vec<u32> {
                        ys.iter().flatten().map(|v| v.to_bits()).collect()
                    };
                    let what = format!("{mode:?} {name} batch {batch}");
                    assert_eq!(bits(&got), bits(&want), "{what}: outputs");
                    // `Debug` prints every float exactly, so equal text
                    // is every stats and energy field equal bit for bit.
                    assert_eq!(
                        format!("{:?}", mac.stats()),
                        format!("{:?}", twin.stats()),
                        "{what}: stats"
                    );
                }
            }
        }
    }

    #[test]
    fn drift_reduces_macro_outputs() {
        // Regression: the noisy MAC path must apply retention drift
        // (it once used the age-unaware single-cell read).
        let mut spec = MacroSpec::small(8, 2, MacroMode::FpE2M5);
        spec.device.drift_nu = 0.01;
        let mut mac = CimMacro::with_seed(spec, 1);
        let w: Vec<f32> = (0..16).map(|k| (k as f32 - 8.0) / 8.0).collect();
        mac.program_weights(&w);
        let x = vec![0.5f32; 8];
        let fresh = mac.matvec(&x);
        mac.set_age(afpr_circuit::units::Seconds::new(3.15e7));
        let aged = mac.matvec(&x);
        // One year at ν = 0.01 scales conductance by ~0.84.
        let col = fresh
            .iter()
            .zip(&aged)
            .find(|(f, _)| f.abs() > 0.1)
            .expect("at least one readable column");
        let ratio = col.1 / col.0;
        assert!((ratio - 0.84).abs() < 0.05, "ratio {ratio}");
    }

    #[test]
    fn ir_drop_reduces_macro_outputs() {
        let mut mac = small_fp(32, 2);
        let w = vec![0.8f32; 64];
        mac.program_weights(&w);
        // Place the range well above the all-positive worst case so
        // neither reading saturates (saturation would mask the drop).
        mac.set_current_divider(mac.current_divider() * 8.0);
        let x = vec![0.5f32; 32];
        let ideal = mac.matvec(&x);
        mac.set_ir_drop(crate::ir_drop::IrDropModel::new(100.0));
        let dropped = mac.matvec(&x);
        assert!(
            dropped[0] < ideal[0],
            "IR drop must reduce the column output ({} vs {})",
            dropped[0],
            ideal[0]
        );
    }
}
