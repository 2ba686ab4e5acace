//! Activation quantizers at the macro's digital interface.
//!
//! The macro's DACs are unsigned: an FP activation is split into a sign
//! (handled by two-phase input at the macro level) and an unsigned
//! hardware code. Unlike the software [`afpr_num::Minifloat`] formats,
//! the hardware FP-DAC has no subnormal taps — magnitudes below half
//! the smallest ladder output flush to zero (switches open).

use afpr_num::{FpFormat, HwFpCode, Int8Quantizer};
use serde::{Deserialize, Serialize};

/// A signed hardware activation: sign + unsigned code (or zero).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct SignedActivation {
    /// True for negative values.
    pub negative: bool,
    /// The magnitude code; `None` encodes zero (flushed).
    pub code: Option<HwFpCode>,
}

impl SignedActivation {
    /// The zero activation.
    pub const ZERO: Self = Self {
        negative: false,
        code: None,
    };

    /// Signed digital magnitude (`±1.M × 2^E`, or 0).
    #[must_use]
    pub fn value(&self) -> f64 {
        let mag = self.code.map_or(0.0, HwFpCode::value);
        if self.negative {
            -mag
        } else {
            mag
        }
    }
}

/// Per-tensor FP activation quantizer for the macro interface.
///
/// # Example
///
/// ```
/// use afpr_num::FpFormat;
/// use afpr_xbar::quant::FpActQuantizer;
///
/// let q = FpActQuantizer::calibrate(&[0.5, -3.0, 1.5], FpFormat::E2M5);
/// let a = q.quantize(-3.0);
/// assert!(a.negative);
/// assert!((q.dequantize(a) - (-3.0)).abs() < 0.1);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FpActQuantizer {
    /// Real units per digital unit (a code value of `1.0` represents
    /// `scale` in real terms).
    pub scale: f32,
    /// Hardware code format.
    pub format: FpFormat,
}

impl FpActQuantizer {
    /// Calibrates the scale so the largest |activation| maps to the
    /// top code.
    #[must_use]
    pub fn calibrate(samples: &[f32], format: FpFormat) -> Self {
        let absmax = afpr_num::stats::abs_max(samples);
        let scale = if absmax > 0.0 {
            absmax / format.max_value() as f32
        } else {
            1.0
        };
        Self { scale, format }
    }

    /// Builds a quantizer from an explicit scale.
    ///
    /// # Panics
    ///
    /// Panics if `scale` is not positive.
    #[must_use]
    pub fn with_scale(scale: f32, format: FpFormat) -> Self {
        assert!(scale > 0.0, "scale must be positive");
        Self { scale, format }
    }

    /// Quantizes a real activation to a signed hardware code.
    ///
    /// Magnitudes below half the smallest code flush to zero (the DAC
    /// has no subnormal taps).
    #[must_use]
    pub fn quantize(&self, x: f32) -> SignedActivation {
        let negative = x < 0.0;
        let mag = f64::from(x.abs() / self.scale);
        if mag < 0.5 {
            return SignedActivation::ZERO;
        }
        let code = self.format.encode(mag.max(1.0));
        SignedActivation { negative, code }
    }

    /// Reconstructs the real value of a signed code.
    #[must_use]
    pub fn dequantize(&self, a: SignedActivation) -> f32 {
        (a.value() as f32) * self.scale
    }

    /// Quantizes a slice.
    #[must_use]
    pub fn quantize_slice(&self, xs: &[f32]) -> Vec<SignedActivation> {
        xs.iter().map(|&x| self.quantize(x)).collect()
    }
}

/// Per-tensor INT8 activation quantizer for the macro interface
/// (magnitude + sign, to drive the unsigned INT DAC).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct IntActQuantizer {
    inner: Int8Quantizer,
}

impl IntActQuantizer {
    /// Calibrates a symmetric INT8 quantizer over the samples.
    ///
    /// Falls back to unit scale for an all-zero calibration set. An
    /// infinite absmax (an input or activation that overflowed)
    /// saturates to `f32::MAX`, so hostile samples clip instead of
    /// panicking; NaN samples are ignored.
    #[must_use]
    pub fn calibrate(samples: &[f32]) -> Self {
        let absmax = afpr_num::stats::abs_max(samples).clamp(f32::MIN_POSITIVE, f32::MAX);
        Self {
            inner: Int8Quantizer::symmetric_for_absmax(absmax).expect("absmax positive"),
        }
    }

    /// The inner symmetric quantizer.
    #[must_use]
    pub fn inner(&self) -> &Int8Quantizer {
        &self.inner
    }

    /// Quantizes to `(negative, magnitude_code ∈ [0, 127])`.
    #[must_use]
    pub fn quantize(&self, x: f32) -> (bool, u32) {
        let q = self.inner.quantize(x);
        (q < 0, q.unsigned_abs().into())
    }

    /// Reconstructs a real value from sign + magnitude.
    #[must_use]
    pub fn dequantize(&self, negative: bool, magnitude: u32) -> f32 {
        let signed = if negative {
            -(magnitude as i32)
        } else {
            magnitude as i32
        };
        self.inner.dequantize(signed.clamp(-128, 127) as i8)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fp_quantizer_round_trip_error() {
        let samples: Vec<f32> = (-100..100).map(|k| k as f32 / 13.0).collect();
        let q = FpActQuantizer::calibrate(&samples, FpFormat::E2M5);
        for &x in &samples {
            let a = q.quantize(x);
            let back = q.dequantize(a);
            // Relative error within one mantissa step, or flushed to 0.
            if a.code.is_some() {
                assert!(
                    (back - x).abs() <= x.abs() / 32.0 + q.scale,
                    "x={x} back={back}"
                );
            } else {
                assert!(x.abs() < q.scale, "x={x} flushed");
            }
        }
    }

    #[test]
    fn fp_zero_and_flush() {
        let q = FpActQuantizer::with_scale(0.1, FpFormat::E2M5);
        assert_eq!(q.quantize(0.0), SignedActivation::ZERO);
        assert_eq!(q.quantize(0.04), SignedActivation::ZERO); // < scale/2
        let a = q.quantize(0.06); // >= scale/2 -> rounds up to code 1.0
        assert!(a.code.is_some());
        assert!((q.dequantize(a) - 0.1).abs() < 1e-6);
    }

    #[test]
    fn fp_sign_preserved() {
        let q = FpActQuantizer::with_scale(0.1, FpFormat::E2M5);
        let a = q.quantize(-0.5);
        assert!(a.negative);
        assert!(q.dequantize(a) < 0.0);
        assert!((a.value() + 5.0).abs() < 0.2);
    }

    #[test]
    fn fp_top_of_range_saturates() {
        let q = FpActQuantizer::calibrate(&[4.0, -4.0], FpFormat::E2M5);
        let a = q.quantize(100.0);
        assert!((q.dequantize(a) - 4.0).abs() < 1e-5);
    }

    #[test]
    fn int_quantizer_magnitude_split() {
        let q = IntActQuantizer::calibrate(&[2.54, -2.54]);
        let (neg, mag) = q.quantize(-1.0);
        assert!(neg);
        assert_eq!(mag, 50);
        assert!((q.dequantize(neg, mag) + 1.0).abs() < 0.02);
        let (neg, mag) = q.quantize(0.0);
        assert!(!neg);
        assert_eq!(mag, 0);
    }

    #[test]
    fn all_zero_calibration_is_safe() {
        let q = FpActQuantizer::calibrate(&[0.0; 4], FpFormat::E2M5);
        assert_eq!(q.quantize(0.0), SignedActivation::ZERO);
        let _ = IntActQuantizer::calibrate(&[0.0; 4]);
    }

    #[test]
    fn int_calibration_saturates_non_finite_samples() {
        let q = IntActQuantizer::calibrate(&[f32::INFINITY, 1.0, f32::NAN]);
        assert_eq!(q, IntActQuantizer::calibrate(&[f32::MAX]));
        assert_eq!(q.quantize(f32::INFINITY), (false, 127));
        assert_eq!(q.quantize(f32::NEG_INFINITY).1, 127);
        // Finite absmax: the scale is exactly what it always was.
        let q = IntActQuantizer::calibrate(&[3.0e37, -2.0]);
        assert_eq!(q.inner().scale(), 3.0e37 / 127.0);
    }
}
