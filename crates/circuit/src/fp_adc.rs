//! The dynamic-range-adaptive floating-point ADC (paper §III-B).
//!
//! One conversion has three phases:
//!
//! 1. **Reset** — `V_O` is cleared to `V_r` (plus the CDS residual).
//! 2. **Adaptive integration** (`T_S` = 100 ns) — the MAC current
//!    integrates onto the capacitor bank; each time `V_O` reaches
//!    `V_th` a DFF fires, the next capacitor is connected and charge
//!    sharing drops `V_O` to `(V_r + V_th)/2`. The number of
//!    adjustments is the exponent.
//! 3. **Single slope** — the held residue `V_M ∈ [1, 2)` V is counted
//!    into the mantissa code.
//!
//! Because the input current is sample-held (constant) during a
//! conversion, every segment of `V_O(t)` is linear and the transient is
//! solved *exactly* by event stepping — no fixed-timestep error.
//!
//! ## Decision path and recording path
//!
//! One event-stepping routine serves two callers, with one float-op
//! sequence:
//!
//! * the **decision path**, [`FpAdc::convert`] and
//!   [`FpAdc::convert_noisy`], which every macro readout takes. It
//!   keeps the capacitor bank's connected count as a local over the
//!   ADC's template bank, records nothing and allocates nothing, and
//!   returns only the code and its flags ([`FpAdcResult`]);
//! * the **recording path**, [`FpAdc::transient`] and
//!   [`FpAdc::transient_noisy`], which also keeps the `V_O(t)`
//!   breakpoints and the adjustment instants ([`FpAdcTransient`]) for
//!   the Fig. 5a reproduction and the transient example.
//!
//! Recording is an optional argument of the shared routine, so both
//! paths make the same decisions bit for bit; a test sweeps them
//! against each other across both formats, mismatch, non-ideal
//! integrators and comparator noise.
//!
//! A current whose integrator slope `I/C` overflows to infinity (for
//! example `+∞`, or `1e300` A on an ideal integrator) drives `V_O` to
//! the supply rail at once: every range adjusts in the same instant and
//! the code saturates with `overflow` set. Stepping such a transient
//! would compute `∞·0 = NaN`.

use crate::capbank::CapBank;
use crate::comparator::Comparator;
use crate::integrator::Integrator;
use crate::single_slope::SingleSlope;
use crate::units::{Amps, Farads, Seconds, Volts};
use crate::waveform::Waveform;
use afpr_num::{FpFormat, HwFpCode};
use rand::Rng;
use rand_distr::{Distribution, Normal};
use serde::{Deserialize, Serialize};

/// Configuration of one FP-ADC column slice.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FpAdcConfig {
    /// Output code format (number of ranges = `2^E`, counts = `2^M`).
    pub format: FpFormat,
    /// Unit integration capacitor `C_int` (105 fF reproduces Fig. 5a).
    pub c_int: Farads,
    /// Clamp/reset voltage `V_r`.
    pub v_reset: Volts,
    /// Adaptive threshold `V_th`.
    pub v_threshold: Volts,
    /// Analog supply rail (integrator output clamps here on overflow).
    pub v_supply: Volts,
    /// Integration window `T_S`.
    pub t_integrate: Seconds,
    /// Reset interval before integration starts (waveform realism only).
    pub t_reset: Seconds,
    /// Single-slope counter clock period.
    pub t_clock: Seconds,
    /// Op-amp model.
    pub integrator: Integrator,
    /// Comparator model.
    pub comparator: Comparator,
    /// Per-segment relative capacitor mismatch sigma (0 = ideal).
    pub cap_mismatch_sigma: f64,
}

impl FpAdcConfig {
    /// The paper's E2M5 operating point: `C_int` = 105 fF, `V_r` = 0,
    /// `V_th` = 2 V, `T_S` = 100 ns, 320 MHz counter clock
    /// (32 counts in 100 ns ⇒ 200 ns total conversion).
    #[must_use]
    pub fn e2m5_paper() -> Self {
        Self::paper_for(FpFormat::E2M5)
    }

    /// The paper's E3M4 comparison point: same clock, 16 counts ⇒
    /// 50 ns slope ⇒ 150 ns total conversion.
    #[must_use]
    pub fn e3m4_paper() -> Self {
        Self::paper_for(FpFormat::E3M4)
    }

    /// Paper operating point generalized to any format (same `C_int`,
    /// thresholds and counter clock).
    #[must_use]
    pub fn paper_for(format: FpFormat) -> Self {
        Self {
            format,
            c_int: Farads::from_femto(105.0),
            v_reset: Volts::ZERO,
            v_threshold: Volts::new(2.0),
            v_supply: Volts::new(2.5),
            t_integrate: Seconds::from_nano(100.0),
            t_reset: Seconds::from_nano(5.0),
            t_clock: Seconds::from_nano(3.125),
            integrator: Integrator::ideal(),
            comparator: Comparator::ideal(),
            cap_mismatch_sigma: 0.0,
        }
    }

    /// Total conversion time: reset + integration + slope.
    #[must_use]
    pub fn t_conversion(&self) -> Seconds {
        self.t_reset + self.t_integrate + self.t_slope()
    }

    /// Duration of the single-slope phase
    /// (`2^M` counts at the counter clock).
    #[must_use]
    pub fn t_slope(&self) -> Seconds {
        self.t_clock * f64::from(self.format.mantissa_levels())
    }

    /// The post-share level `(V_r + V_th)/2` — the bottom of the
    /// mantissa window.
    #[must_use]
    pub fn v_mid(&self) -> Volts {
        (self.v_reset + self.v_threshold) / 2.0
    }
}

impl Default for FpAdcConfig {
    fn default() -> Self {
        Self::e2m5_paper()
    }
}

/// Result of one FP-ADC conversion.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FpAdcResult {
    /// The readout code, or `None` when the result never reached the
    /// mantissa window ("the result is not read out").
    pub code: Option<HwFpCode>,
    /// The held voltage `V_M` at the sample instant.
    pub v_sample: Volts,
    /// Number of range adjustments performed (the exponent).
    pub adjustments: u32,
    /// True if the input exceeded the top range (code saturated).
    pub overflow: bool,
    /// True if the input never reached the mantissa window.
    pub underflow: bool,
}

impl FpAdcResult {
    /// The decoded magnitude (`1.M × 2^E`), or 0 for underflow.
    #[must_use]
    pub fn value(&self) -> f64 {
        self.code.map_or(0.0, HwFpCode::value)
    }
}

/// One conversion with its transient recorded: what the recording path
/// ([`FpAdc::transient`]) returns.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FpAdcTransient {
    /// The conversion result, the same as the decision path's for the
    /// same input and noise draws.
    pub result: FpAdcResult,
    /// The `V_O(t)` waveform (Fig. 5a trace), including the reset phase.
    pub waveform: Waveform,
    /// Times (from the conversion start) of each range adjustment.
    pub adjustment_times: Vec<Seconds>,
}

/// The recording path's sink, filled by [`FpAdc::run`] when present.
#[derive(Debug, Default)]
struct Recording {
    waveform: Waveform,
    adjustment_times: Vec<Seconds>,
}

/// Appends one `V_O(t)` breakpoint when recording.
fn point(rec: &mut Option<&mut Recording>, t: Seconds, v: Volts) {
    if let Some(r) = rec {
        r.waveform.push(t, v);
    }
}

/// Notes one range adjustment at `t` when recording.
fn adjusted(rec: &mut Option<&mut Recording>, t: Seconds) {
    if let Some(r) = rec {
        r.adjustment_times.push(t);
    }
}

/// A dynamic-range-adaptive FP-ADC column slice.
///
/// # Example
///
/// Reproducing the paper's Fig. 5(a): a constant 5.38 µA MAC current
/// adapts twice and reads out `10·01001`:
///
/// ```
/// use afpr_circuit::fp_adc::{FpAdc, FpAdcConfig};
/// use afpr_circuit::units::Amps;
///
/// let adc = FpAdc::new(FpAdcConfig::e2m5_paper());
/// let r = adc.convert(Amps::from_micro(5.38));
/// let code = r.code.expect("in range");
/// assert_eq!(r.adjustments, 2);
/// assert_eq!(code.to_bit_string(), "10·01001");
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FpAdc {
    config: FpAdcConfig,
    bank_template: CapBank,
}

impl FpAdc {
    /// Builds an ADC with ideal (mismatch-free) capacitors.
    #[must_use]
    pub fn new(config: FpAdcConfig) -> Self {
        let bank_template = CapBank::binary(config.c_int, config.format.exponent_levels());
        Self {
            config,
            bank_template,
        }
    }

    /// Builds an ADC whose capacitor segments carry Gaussian mismatch
    /// sampled once (per physical ADC instance) from
    /// [`FpAdcConfig::cap_mismatch_sigma`].
    pub fn with_sampled_mismatch<R: Rng + ?Sized>(config: FpAdcConfig, rng: &mut R) -> Self {
        let ranges = config.format.exponent_levels();
        let ideal = CapBank::binary(config.c_int, ranges);
        if config.cap_mismatch_sigma <= 0.0 {
            return Self {
                config,
                bank_template: ideal,
            };
        }
        let normal = Normal::new(0.0, config.cap_mismatch_sigma).expect("sigma non-negative");
        let caps: Vec<Farads> = (0..ranges)
            .map(|k| {
                let base = if k == 0 {
                    1.0
                } else {
                    f64::from(1u32 << (k - 1))
                };
                Farads::new(config.c_int.farads() * base)
            })
            .collect();
        let mismatch: Vec<f64> = caps.iter().map(|_| normal.sample(rng)).collect();
        Self {
            config,
            bank_template: CapBank::with_mismatch(&caps, &mismatch),
        }
    }

    /// The configuration.
    #[must_use]
    pub fn config(&self) -> &FpAdcConfig {
        &self.config
    }

    /// Converts a (sample-held, non-negative) MAC current. Noise-free;
    /// use [`FpAdc::convert_noisy`] to include comparator noise. The
    /// decision path: records nothing and allocates nothing.
    #[must_use]
    pub fn convert(&self, i_mac: Amps) -> FpAdcResult {
        self.run(i_mac, &mut NoNoise, None)
    }

    /// Converts with comparator noise sampled from `rng`.
    pub fn convert_noisy<R: Rng + ?Sized>(&self, i_mac: Amps, rng: &mut R) -> FpAdcResult {
        self.run_noisy(i_mac, rng, None)
    }

    /// [`FpAdc::convert`] with the transient recorded: the same result,
    /// plus the `V_O(t)` waveform and the adjustment instants
    /// (Fig. 5a).
    #[must_use]
    pub fn transient(&self, i_mac: Amps) -> FpAdcTransient {
        let mut rec = Recording::default();
        let result = self.run(i_mac, &mut NoNoise, Some(&mut rec));
        rec.into_transient(result)
    }

    /// [`FpAdc::convert_noisy`] with the transient recorded. Draws the
    /// same noise samples from `rng` as `convert_noisy`.
    pub fn transient_noisy<R: Rng + ?Sized>(&self, i_mac: Amps, rng: &mut R) -> FpAdcTransient {
        let mut rec = Recording::default();
        let result = self.run_noisy(i_mac, rng, Some(&mut rec));
        rec.into_transient(result)
    }

    fn run_noisy<R: Rng + ?Sized>(
        &self,
        i_mac: Amps,
        rng: &mut R,
        rec: Option<&mut Recording>,
    ) -> FpAdcResult {
        let sigma = self.config.comparator.noise_sigma.volts();
        if sigma <= 0.0 {
            return self.run(i_mac, &mut NoNoise, rec);
        }
        let normal = Normal::new(0.0, sigma).expect("sigma non-negative");
        let mut source = RngNoise { normal, rng };
        self.run(i_mac, &mut source, rec)
    }

    /// Inverse of the conversion (paper Eq. 5):
    /// `I_MAC = (C_int / T_S) · (1.M) · 2^E`.
    #[must_use]
    pub fn decode_current(&self, code: HwFpCode) -> Amps {
        Amps::new(self.config.c_int.farads() / self.config.t_integrate.seconds() * code.value())
    }

    /// Largest current that converts without saturating.
    #[must_use]
    pub fn full_scale_current(&self) -> Amps {
        Amps::new(
            self.config.c_int.farads() / self.config.t_integrate.seconds()
                * self.config.format.max_value(),
        )
    }

    /// Smallest current that still reads out (reaches `V_mid` by `T_S`).
    #[must_use]
    pub fn min_current(&self) -> Amps {
        Amps::new(self.config.c_int.farads() / self.config.t_integrate.seconds())
    }

    /// The one event-stepping conversion (see the module docs). With
    /// `rec` it also records the transient; the float ops and the
    /// noise draws are the same either way.
    fn run(
        &self,
        i_mac: Amps,
        noise: &mut dyn NoiseSource,
        mut rec: Option<&mut Recording>,
    ) -> FpAdcResult {
        let cfg = &self.config;
        let bank = &self.bank_template;
        let mut connected = 1;
        let mut c_total = bank.total_of(connected);

        // Reset phase: V_O held at V_r (+ CDS residual offset).
        let v0 = cfg.v_reset + cfg.integrator.offset;
        point(&mut rec, Seconds::ZERO, v0);
        point(&mut rec, cfg.t_reset, v0);

        let mut t = Seconds::ZERO; // time within the integration window
        let mut v = v0;
        let mut overflow = false;

        if i_mac.amps() > 0.0 && !cfg.integrator.slope(i_mac, c_total).is_finite() {
            // I/C overflowed: V_O reaches the rail at once, every range
            // adjusts in that instant and the code saturates.
            overflow = true;
            connected = bank.segments();
            for _ in 1..connected {
                adjusted(&mut rec, cfg.t_reset);
            }
            v = cfg.v_supply;
            point(&mut rec, cfg.t_reset, v);
            t = cfg.t_integrate;
            point(&mut rec, cfg.t_reset + t, v);
        } else if i_mac.amps() > 0.0 {
            loop {
                let v_th_event =
                    cfg.comparator.effective_threshold(cfg.v_threshold) + noise.sample();
                let crossing = cfg.integrator.time_to_reach(v, v_th_event, i_mac, c_total);
                match crossing {
                    Some(dt)
                        if (t + dt + cfg.comparator.delay).seconds()
                            <= cfg.t_integrate.seconds() =>
                    {
                        // Integrate up to the comparator's output edge
                        // (the crossing plus the decision delay).
                        let step = dt + cfg.comparator.delay;
                        v = cfg.integrator.integrate(v, i_mac, c_total, step);
                        t += step;
                        point(&mut rec, cfg.t_reset + t, v);
                        match bank.share_from(connected, v, cfg.v_reset) {
                            Some(shared) => {
                                v = shared;
                                connected += 1;
                                c_total = bank.total_of(connected);
                                adjusted(&mut rec, cfg.t_reset + t);
                                point(&mut rec, cfg.t_reset + t, v);
                            }
                            None => {
                                // No range left: keep integrating, clamp at
                                // the supply rail.
                                overflow = true;
                                let rest = cfg.t_integrate - t;
                                v = cfg
                                    .integrator
                                    .integrate(v, i_mac, c_total, rest)
                                    .min(cfg.v_supply);
                                t = cfg.t_integrate;
                                point(&mut rec, cfg.t_reset + t, v);
                                break;
                            }
                        }
                    }
                    _ => {
                        // No further crossing inside the window.
                        let rest = cfg.t_integrate - t;
                        v = cfg
                            .integrator
                            .integrate(v, i_mac, c_total, rest)
                            .min(cfg.v_supply);
                        t = cfg.t_integrate;
                        point(&mut rec, cfg.t_reset + t, v);
                        break;
                    }
                }
            }
        } else {
            point(&mut rec, cfg.t_reset + cfg.t_integrate, v);
            t = cfg.t_integrate;
        }
        debug_assert_eq!(t.seconds(), cfg.t_integrate.seconds());

        let v_sample = v;
        let adjustments = (connected - 1) as u32;
        let (code, underflow) = if overflow {
            (Some(HwFpCode::saturated(cfg.format)), false)
        } else if v_sample.volts() < cfg.v_mid().volts() - 1e-12 {
            // The 1e-12 guard keeps an input of exactly the minimum
            // current (which lands on V_mid up to float rounding) from
            // being misclassified as underflow.
            (None, true)
        } else {
            let slope = SingleSlope::new(
                cfg.v_threshold,
                cfg.v_mid(),
                cfg.format.mantissa_levels(),
                cfg.t_slope(),
            );
            let man = slope.convert(v_sample);
            (
                Some(HwFpCode::new(cfg.format, adjustments, man).expect("fields in range")),
                false,
            )
        };

        // Record the held value through the slope phase for plotting.
        point(
            &mut rec,
            cfg.t_reset + cfg.t_integrate + cfg.t_slope(),
            v_sample,
        );

        FpAdcResult {
            code,
            v_sample,
            adjustments,
            overflow,
            underflow,
        }
    }
}

impl Recording {
    fn into_transient(self, result: FpAdcResult) -> FpAdcTransient {
        FpAdcTransient {
            result,
            waveform: self.waveform,
            adjustment_times: self.adjustment_times,
        }
    }
}

trait NoiseSource {
    fn sample(&mut self) -> Volts;
}

struct NoNoise;

impl NoiseSource for NoNoise {
    fn sample(&mut self) -> Volts {
        Volts::ZERO
    }
}

struct RngNoise<'a, R: Rng + ?Sized> {
    normal: Normal<f64>,
    rng: &'a mut R,
}

impl<R: Rng + ?Sized> NoiseSource for RngNoise<'_, R> {
    fn sample(&mut self) -> Volts {
        Volts::new(self.normal.sample(self.rng))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn adc() -> FpAdc {
        FpAdc::new(FpAdcConfig::e2m5_paper())
    }

    #[test]
    fn fig5a_constant_5p38ua() {
        let r = adc().convert(Amps::from_micro(5.38));
        assert_eq!(r.adjustments, 2);
        assert!(!r.overflow && !r.underflow);
        // Theoretical residue: 1.281 V (paper reports 1.271 V simulated,
        // 1.28 V theoretical).
        assert!(
            (r.v_sample.volts() - 1.281).abs() < 5e-3,
            "v={}",
            r.v_sample
        );
        let code = r.code.unwrap();
        assert_eq!(code.exp(), 0b10);
        assert_eq!(code.man(), 0b01001);
        assert_eq!(code.to_bits(), 0b1001001);
    }

    #[test]
    fn fig5a_adjustment_times() {
        // Crossings at 39.03 ns and 78.06 ns after integration start
        // (plus the 5 ns reset).
        let r = adc().transient(Amps::from_micro(5.38));
        assert_eq!(r.adjustment_times.len(), 2);
        let t1 = r.adjustment_times[0].seconds() * 1e9;
        let t2 = r.adjustment_times[1].seconds() * 1e9;
        assert!((t1 - 44.03).abs() < 0.1, "t1={t1}");
        assert!((t2 - 83.06).abs() < 0.1, "t2={t2}");
    }

    #[test]
    fn underflow_below_min_current() {
        let a = adc();
        let r = a.convert(Amps::from_micro(0.9)); // < 1.05 µA minimum
        assert!(r.underflow);
        assert!(r.code.is_none());
        assert_eq!(r.value(), 0.0);
        let r = a.convert(Amps::ZERO);
        assert!(r.underflow);
    }

    #[test]
    fn overflow_saturates() {
        let a = adc();
        let above = Amps::new(a.full_scale_current().amps() * 1.5);
        let t = a.transient(above);
        let r = &t.result;
        assert!(r.overflow);
        assert_eq!(r.code.unwrap(), HwFpCode::saturated(FpFormat::E2M5));
        // Output clamped at the supply.
        assert!(t.waveform.max_voltage().volts() <= 2.5 + 1e-12);
    }

    #[test]
    fn decode_round_trip_within_half_lsb() {
        let a = adc();
        for i in 0..400 {
            let i_mac = Amps::new(
                a.min_current().amps()
                    + (a.full_scale_current().amps() - a.min_current().amps()) * f64::from(i)
                        / 400.0,
            );
            let r = a.convert(i_mac);
            let code = r.code.expect("in range");
            let back = a.decode_current(code);
            // Half mantissa LSB at the selected exponent; the clamped
            // top code of a binade (residue just below V_th with no
            // time left to adapt) is allowed a full LSB.
            let lsb = a.min_current().amps() * 2.0f64.powi(code.exp() as i32) / 32.0;
            let tol = if code.man() == 31 { lsb } else { lsb / 2.0 };
            assert!(
                (back.amps() - i_mac.amps()).abs() <= tol + 1e-12,
                "i={} back={}",
                i_mac,
                back
            );
        }
    }

    #[test]
    fn exponent_matches_binade() {
        let a = adc();
        let unit = a.min_current().amps();
        for (mult, exp) in [(1.2, 0), (2.5, 1), (5.0, 2), (10.0, 3)] {
            let r = a.convert(Amps::new(unit * mult));
            assert_eq!(r.adjustments, exp, "mult={mult}");
        }
    }

    #[test]
    fn adjustments_drop_to_one_volt() {
        let r = adc().transient(Amps::from_micro(5.38));
        // After each adjustment the waveform steps down to ~1 V.
        for t in &r.adjustment_times {
            let v = r.waveform.sample_at(*t);
            assert!((v.volts() - 1.0).abs() < 1e-9, "v={v}");
        }
    }

    #[test]
    fn e3m4_has_eight_ranges() {
        let a = FpAdc::new(FpAdcConfig::e3m4_paper());
        // A current large enough for 7 adjustments.
        let unit = a.min_current().amps();
        let r = a.convert(Amps::new(unit * 130.0));
        assert_eq!(r.adjustments, 7);
        assert!(!r.overflow);
        // Conversion time: 5 + 100 + 16*3.125 = 155 ns.
        assert!((a.config().t_conversion().seconds() - 155e-9).abs() < 1e-12);
    }

    #[test]
    fn conversion_time_e2m5_is_205ns() {
        // 5 ns reset + 100 ns integrate + 100 ns slope.
        let c = FpAdcConfig::e2m5_paper();
        assert!((c.t_conversion().seconds() - 205e-9).abs() < 1e-15);
    }

    #[test]
    fn comparator_offset_biases_exponent_boundary() {
        // With a large negative offset the threshold is effectively
        // higher, so a borderline current adapts fewer times.
        let mut cfg = FpAdcConfig::e2m5_paper();
        cfg.comparator.offset = Volts::from_milli(-100.0);
        let biased = FpAdc::new(cfg);
        let ideal = adc();
        let unit = ideal.min_current().amps();
        // Just above the 1-adjustment boundary (2 units).
        let i = Amps::new(unit * 2.02);
        assert_eq!(ideal.convert(i).adjustments, 1);
        assert_eq!(biased.convert(i).adjustments, 0);
    }

    #[test]
    fn noisy_conversion_is_reproducible_per_seed() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut cfg = FpAdcConfig::e2m5_paper();
        cfg.comparator.noise_sigma = Volts::from_milli(5.0);
        let a = FpAdc::new(cfg);
        let i = Amps::from_micro(4.2);
        let r1 = a.convert_noisy(i, &mut StdRng::seed_from_u64(3));
        let r2 = a.convert_noisy(i, &mut StdRng::seed_from_u64(3));
        assert_eq!(r1.code, r2.code);
    }

    #[test]
    fn cap_mismatch_perturbs_but_stays_close() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut cfg = FpAdcConfig::e2m5_paper();
        cfg.cap_mismatch_sigma = 0.01;
        let mut rng = StdRng::seed_from_u64(8);
        let a = FpAdc::with_sampled_mismatch(cfg, &mut rng);
        let ideal = adc();
        let i = Amps::from_micro(5.38);
        let rm = a.convert(i);
        let ri = ideal.convert(i);
        assert_eq!(rm.adjustments, ri.adjustments);
        // Code may differ by at most a couple of mantissa LSBs at 1 % sigma.
        let d = (rm.value() - ri.value()).abs();
        assert!(d <= 4.0 * 4.0 / 32.0, "delta={d}");
    }

    #[test]
    fn charge_is_continuous_across_adjustments() {
        // Paper: "although the voltage is changing abruptly, the current
        // is still continuous" — equivalently Q_total = ∫I dt. At the
        // sample instant, C_total·(V−V_r) must equal I·T_S.
        let a = adc();
        let i = Amps::from_micro(5.38);
        let r = a.convert(i);
        let c_total = 105e-15 * 2.0f64.powi(r.adjustments as i32);
        let q = c_total * r.v_sample.volts();
        let expected = i.amps() * 100e-9;
        assert!((q - expected).abs() / expected < 1e-9);
    }
}
