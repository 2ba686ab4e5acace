//! Inter-core partial-sum accumulation (paper §III-D).
//!
//! "When the weight matrix exceeds 576, the result of the MAC operation
//! in the CIM column is a partial sum. We utilize the inter-core
//! routing adder to perform the summation of the partial."

use afpr_circuit::units::Joules;
use serde::{Deserialize, Serialize};

/// Energy of one digital partial-sum addition (per element), 65 nm
/// FP16-adder class.
pub const ENERGY_PER_ADD: Joules = Joules::new(0.4e-12);

/// The inter-core routing adder: sums per-column partial results from
/// several macros.
///
/// # Example
///
/// ```
/// use afpr_xbar::PartialSumAdder;
///
/// let mut adder = PartialSumAdder::new();
/// let total = adder.sum(&[vec![1.0, 2.0], vec![10.0, 20.0]]);
/// assert_eq!(total, vec![11.0, 22.0]);
/// assert!(adder.energy().joules() > 0.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct PartialSumAdder {
    adds: u64,
}

impl PartialSumAdder {
    /// A fresh adder with zeroed counters.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Sums partial results element-wise.
    ///
    /// Returns the summed vector; an empty input yields an empty
    /// vector. Routed through [`PartialSumAdder::sum_into`], so both
    /// entry points share one accumulation order and one energy
    /// account.
    ///
    /// # Panics
    ///
    /// Panics if the parts have unequal lengths.
    pub fn sum(&mut self, parts: &[Vec<f32>]) -> Vec<f32> {
        let refs: Vec<&[f32]> = parts.iter().map(Vec::as_slice).collect();
        let mut out = Vec::new();
        self.sum_into(&refs, &mut out);
        out
    }

    /// Non-allocating element-wise sum: accumulates `parts` (borrowed
    /// slices — callers holding shard results need not clone them into
    /// owned `Vec`s) into `out`, which is cleared and reused.
    ///
    /// The accumulation order is the fixed left fold `((p₀+p₁)+p₂)+…`
    /// in slice order — identical to [`PartialSumAdder::sum`], which is
    /// what makes distributed scatter-gather reductions bit-compatible
    /// with the in-process tiled path. Energy/adds accounting is the
    /// same as `sum` on the same parts: `(parts.len()−1) · n` scalar
    /// additions; a single part is an identity copy and free.
    ///
    /// # Panics
    ///
    /// Panics if the parts have unequal lengths.
    pub fn sum_into(&mut self, parts: &[&[f32]], out: &mut Vec<f32>) {
        out.clear();
        let Some(first) = parts.first() else {
            return;
        };
        out.extend_from_slice(first);
        for part in &parts[1..] {
            self.accumulate(out, part);
        }
    }

    /// One step of the left fold: `acc[i] += part[i]` for every
    /// element, accounted as `part.len()` scalar additions. Folding
    /// `p₁, p₂, …` onto a copy of `p₀` this way gives the same bits and
    /// the same energy as [`PartialSumAdder::sum_into`] on the same
    /// parts, also when each part is added one column range at a time.
    ///
    /// # Panics
    ///
    /// Panics if `acc` and `part` have unequal lengths.
    pub fn accumulate(&mut self, acc: &mut [f32], part: &[f32]) {
        assert_eq!(part.len(), acc.len(), "partial sums must have equal length");
        for (a, p) in acc.iter_mut().zip(part) {
            *a += *p;
        }
        self.adds += part.len() as u64;
    }

    /// Number of scalar additions performed so far.
    #[must_use]
    pub fn adds(&self) -> u64 {
        self.adds
    }

    /// Energy spent on additions so far.
    #[must_use]
    pub fn energy(&self) -> Joules {
        Joules::new(ENERGY_PER_ADD.joules() * self.adds as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sums_elementwise() {
        let mut adder = PartialSumAdder::new();
        let out = adder.sum(&[vec![1.0, 2.0], vec![10.0, 20.0], vec![100.0, 200.0]]);
        assert_eq!(out, vec![111.0, 222.0]);
        assert_eq!(adder.adds(), 4);
    }

    #[test]
    fn single_part_is_identity_and_free() {
        let mut adder = PartialSumAdder::new();
        let out = adder.sum(&[vec![3.0, 4.0]]);
        assert_eq!(out, vec![3.0, 4.0]);
        assert_eq!(adder.adds(), 0);
        assert_eq!(adder.energy().joules(), 0.0);
    }

    #[test]
    fn empty_input() {
        let mut adder = PartialSumAdder::new();
        assert!(adder.sum(&[]).is_empty());
    }

    #[test]
    fn energy_tracks_adds() {
        let mut adder = PartialSumAdder::new();
        adder.sum(&[vec![0.0; 8], vec![0.0; 8]]);
        assert!((adder.energy().joules() - 8.0 * 0.4e-12).abs() < 1e-24);
    }

    #[test]
    #[should_panic(expected = "equal length")]
    fn mismatched_lengths_panic() {
        let mut adder = PartialSumAdder::new();
        let _ = adder.sum(&[vec![1.0], vec![1.0, 2.0]]);
    }

    #[test]
    fn sum_into_is_bit_identical_to_sum_with_same_accounting() {
        // Awkward magnitudes so any reordering of the f32 fold would
        // change result bits.
        let parts: Vec<Vec<f32>> = (0..5)
            .map(|i| {
                (0..7)
                    .map(|j| ((i * 7 + j) as f32 * 0.37).sin() * 10f32.powi(i - 2))
                    .collect()
            })
            .collect();
        let mut a = PartialSumAdder::new();
        let mut b = PartialSumAdder::new();
        let via_sum = a.sum(&parts);
        let refs: Vec<&[f32]> = parts.iter().map(Vec::as_slice).collect();
        let mut via_sum_into = vec![999.0f32; 3]; // stale content must be cleared
        b.sum_into(&refs, &mut via_sum_into);
        assert_eq!(via_sum.len(), via_sum_into.len());
        for (x, y) in via_sum.iter().zip(&via_sum_into) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
        assert_eq!(a.adds(), b.adds(), "identical adds accounting");
        assert_eq!(a.adds(), 4 * 7);
        assert_eq!(a.energy().joules(), b.energy().joules());
    }

    #[test]
    fn sum_into_reuses_buffer_and_handles_empty_and_single() {
        let mut adder = PartialSumAdder::new();
        let mut out = vec![1.0f32, 2.0];
        adder.sum_into(&[], &mut out);
        assert!(out.is_empty(), "empty parts clear the buffer");
        adder.sum_into(&[&[3.0, 4.0][..]], &mut out);
        assert_eq!(out, vec![3.0, 4.0]);
        assert_eq!(adder.adds(), 0, "single part is free");
    }
}
