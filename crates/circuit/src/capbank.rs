//! The adaptive integration-capacitor bank (paper §III-B, Eq. 2–3).
//!
//! The FP-ADC grows its integration capacitance at runtime: starting
//! from `C₁ = C_int`, each range adjustment `k` connects an additional
//! capacitor `C_{k+1}` sized so the *total* doubles — `C, C, 2C, 4C, …`
//! — which makes the charge-sharing drop land exactly at
//! `(V_r + V_th)/2` every time (Eq. 2–3) and gives the binary exponent
//! relationship of Eq. 5.

use crate::units::{Farads, Volts};
use serde::{Deserialize, Serialize};

/// The bank of integration capacitors with its connection state.
///
/// # Example
///
/// ```
/// use afpr_circuit::capbank::CapBank;
/// use afpr_circuit::units::{Farads, Volts};
///
/// let mut bank = CapBank::binary(Farads::from_femto(105.0), 4);
/// assert!((bank.total().farads() - 105e-15).abs() < 1e-27);
/// let v = bank.share_charge(Volts::new(2.0), Volts::ZERO).unwrap();
/// assert_eq!(v.volts(), 1.0); // (C·2V + C·0V) / 2C
/// assert!((bank.total().farads() - 210e-15).abs() < 1e-27);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CapBank {
    /// Individual capacitor values, in connection order.
    caps: Vec<f64>,
    /// How many capacitors are currently connected (≥ 1).
    connected: usize,
}

impl CapBank {
    /// Builds the binary bank of the paper: segment sizes
    /// `C, C, 2C, 4C, …` so that the total after `k` adjustments is
    /// `2^k · C`. `ranges` is the number of exponent levels (e.g. 4 for
    /// E2M5, 8 for E3M4), i.e. `ranges − 1` adjustments are possible.
    ///
    /// # Panics
    ///
    /// Panics if `ranges == 0` or `c_int` is not positive.
    #[must_use]
    pub fn binary(c_int: Farads, ranges: u32) -> Self {
        assert!(ranges >= 1, "need at least one range");
        assert!(c_int.farads() > 0.0, "C_int must be positive");
        let mut caps = vec![c_int.farads()];
        for k in 1..ranges {
            // Total after k segments must be 2^k · C  ->  increment 2^(k-1) · C.
            caps.push(c_int.farads() * f64::from(1u32 << (k - 1)));
        }
        Self { caps, connected: 1 }
    }

    /// Builds a bank with explicit segment values and optional
    /// per-segment relative mismatch (`mismatch[i]` multiplies segment
    /// `i` by `1 + mismatch[i]`).
    ///
    /// # Panics
    ///
    /// Panics if `caps` is empty, any value is non-positive, or the
    /// mismatch slice length differs from `caps`.
    #[must_use]
    pub fn with_mismatch(caps: &[Farads], mismatch: &[f64]) -> Self {
        assert!(!caps.is_empty(), "need at least one capacitor");
        assert_eq!(
            caps.len(),
            mismatch.len(),
            "mismatch length must match caps"
        );
        let caps: Vec<f64> = caps
            .iter()
            .zip(mismatch)
            .map(|(c, m)| {
                let v = c.farads() * (1.0 + m);
                assert!(v > 0.0, "capacitor value must stay positive");
                v
            })
            .collect();
        Self { caps, connected: 1 }
    }

    /// Number of capacitor segments in the bank.
    #[must_use]
    pub fn segments(&self) -> usize {
        self.caps.len()
    }

    /// Number of currently connected segments.
    #[must_use]
    pub fn connected(&self) -> usize {
        self.connected
    }

    /// Number of adjustments performed so far (`connected − 1`).
    #[must_use]
    pub fn adjustments(&self) -> u32 {
        (self.connected - 1) as u32
    }

    /// Whether another adjustment is possible.
    #[must_use]
    pub fn can_adjust(&self) -> bool {
        self.connected < self.caps.len()
    }

    /// Total connected capacitance.
    #[must_use]
    pub fn total(&self) -> Farads {
        self.total_of(self.connected)
    }

    /// Total capacitance of the first `connected` segments, summed in
    /// segment order (what [`CapBank::total`] reports at that state).
    ///
    /// # Panics
    ///
    /// Panics if `connected` exceeds [`CapBank::segments`].
    #[must_use]
    pub fn total_of(&self, connected: usize) -> Farads {
        Farads::new(self.caps[..connected].iter().sum())
    }

    /// Performs one range adjustment: connects the next segment
    /// (precharged to `v_reset`) and shares charge with the currently
    /// connected total at voltage `v_now`. Returns the post-share
    /// voltage (Eq. 2–3), or `None` if no segment is left.
    pub fn share_charge(&mut self, v_now: Volts, v_reset: Volts) -> Option<Volts> {
        let v = self.share_from(self.connected, v_now, v_reset)?;
        self.connected += 1;
        Some(v)
    }

    /// The post-share voltage of one range adjustment made with the
    /// first `connected` segments at `v_now` (Eq. 2–3), without
    /// changing the bank; `None` if no segment is left. The
    /// FP-ADC's decision path keeps the connected count as local state
    /// and calls this instead of mutating a cloned bank.
    #[must_use]
    pub fn share_from(&self, connected: usize, v_now: Volts, v_reset: Volts) -> Option<Volts> {
        if connected >= self.caps.len() {
            return None;
        }
        let c_old = self.total_of(connected).farads();
        let c_new = self.caps[connected];
        let v = (c_old * v_now.volts() + c_new * v_reset.volts()) / (c_old + c_new);
        Some(Volts::new(v))
    }

    /// Resets the bank to a single connected segment.
    pub fn reset(&mut self) {
        self.connected = 1;
    }

    /// Total capacitance if all segments were connected.
    #[must_use]
    pub fn total_all(&self) -> Farads {
        Farads::new(self.caps.iter().sum())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn c(f: f64) -> Farads {
        Farads::from_femto(f)
    }

    #[test]
    fn binary_bank_doubles_total() {
        let mut bank = CapBank::binary(c(105.0), 4);
        assert_eq!(bank.segments(), 4);
        let mut expected = 105e-15;
        for _ in 0..3 {
            assert!((bank.total().farads() - expected).abs() < 1e-25);
            bank.share_charge(Volts::new(2.0), Volts::ZERO);
            expected *= 2.0;
        }
        assert!((bank.total().farads() - 840e-15).abs() < 1e-25);
        assert!(!bank.can_adjust());
        assert!(bank.share_charge(Volts::new(2.0), Volts::ZERO).is_none());
    }

    #[test]
    fn share_lands_at_midpoint_every_time() {
        // Paper Eq. 2-3: with the binary sizing and V_r = 0, every
        // adjustment drops V_th = 2 V to exactly 1 V.
        let mut bank = CapBank::binary(c(105.0), 8);
        for _ in 0..7 {
            let v = bank.share_charge(Volts::new(2.0), Volts::ZERO).unwrap();
            assert!((v.volts() - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn share_conserves_charge() {
        let mut bank = CapBank::binary(c(105.0), 4);
        let q_before = bank.total().farads() * 2.0; // at 2 V, extra cap at 0 V
        let v = bank.share_charge(Volts::new(2.0), Volts::ZERO).unwrap();
        let q_after = bank.total().farads() * v.volts();
        assert!((q_before - q_after).abs() < 1e-27);
    }

    #[test]
    fn nonzero_reset_voltage_follows_eq2() {
        // Eq. 2: V_r1 = C1/(C1+C2)·V_th + C2/(C1+C2)·V_r
        let mut bank = CapBank::binary(c(100.0), 2);
        let v = bank.share_charge(Volts::new(2.0), Volts::new(0.5)).unwrap();
        assert!((v.volts() - 1.25).abs() < 1e-12);
    }

    #[test]
    fn mismatch_shifts_share_voltage() {
        let caps = [c(100.0), c(100.0)];
        let mut ideal = CapBank::with_mismatch(&caps, &[0.0, 0.0]);
        let mut skewed = CapBank::with_mismatch(&caps, &[0.0, 0.05]);
        let vi = ideal.share_charge(Volts::new(2.0), Volts::ZERO).unwrap();
        let vs = skewed.share_charge(Volts::new(2.0), Volts::ZERO).unwrap();
        assert!(vs < vi, "larger second cap pulls the shared node lower");
    }

    #[test]
    fn reset_restores_first_segment() {
        let mut bank = CapBank::binary(c(105.0), 4);
        bank.share_charge(Volts::new(2.0), Volts::ZERO);
        bank.share_charge(Volts::new(2.0), Volts::ZERO);
        assert_eq!(bank.adjustments(), 2);
        bank.reset();
        assert_eq!(bank.adjustments(), 0);
        assert!((bank.total().farads() - 105e-15).abs() < 1e-27);
    }

    #[test]
    fn total_all_for_e3m4_is_128c() {
        let bank = CapBank::binary(c(105.0), 8);
        assert!((bank.total_all().farads() - 128.0 * 105e-15).abs() < 1e-24);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_cint_panics() {
        let _ = CapBank::binary(Farads::ZERO, 4);
    }
}
