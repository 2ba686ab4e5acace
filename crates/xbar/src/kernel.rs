//! The cache-blocked effective-conductance kernel.
//!
//! [`ConductanceKernel`] is the matvec hot path's working set: every
//! cell's *effective* conductance (drift, faults, spare-column
//! redirects and IR drop folded in), laid out **column-panel-major**
//! instead of row-major:
//!
//! ```text
//! data[p · rows · PANEL  +  r · PANEL  +  j]   =   G_eff(r, p · PANEL + j)
//! ```
//!
//! A panel is [`PANEL`] = 32 adjacent columns — four [`LANES`] = 8-wide
//! f64 lane groups. The layout buys two things the old row-major flat
//! snapshot could not:
//!
//! * **Register accumulation.** [`ConductanceKernel::mac_batch`]
//!   walks one panel at a time with a `[f64; PANEL]` accumulator per
//!   input vector that lives in vector registers for the whole row
//!   sweep (eight 4-wide or four 8-wide hardware accumulators —
//!   independent dependency chains the autovectorizer can schedule),
//!   instead of a load/add/store against the output vector for every
//!   `(row, column)` pair.
//! * **Batch amortization.** It streams each panel row — one cache
//!   line of conductances — exactly once per *batch* of input vectors,
//!   so a micro-batch of B matvecs pays one pass over the conductance
//!   matrix instead of B. A single vector is a batch of one.
//!
//! # Bit-identity contract
//!
//! **MAC.** Per output column, every method accumulates
//! `Σ_r v[r] · G_eff(r, c)` in **strictly increasing row order with the
//! `v[r] == 0` skip**, the exact float-op sequence of the historical
//! row-major loop and of the uncached oracle
//! (`Crossbar::mac_currents_uncached`). Lanes are *independent
//! columns*, so vectorizing across them reorders nothing within any
//! column's sum; the batch kernel gives every `(sample, column)` pair
//! its own accumulator, so interleaving samples reorders nothing
//! either. The proptests in `crates/xbar/tests/proptests.rs` pin all
//! three equivalences (cached == uncached, blocked == row reference,
//! batched == sequential) bitwise.
//!
//! **Array power.** The kernel keeps one conductance sum per row,
//! `S_r = Σ_c G_eff(r, c)`, added over the logical columns in
//! increasing order when the kernel is (re)built, so it is invalidated
//! with the conductances it sums. The power of a drive vector is
//! `Σ_r V_r² · S_r`, in increasing `r` with the `V_r² == 0` skip: one
//! multiply-add per row instead of one per cell. A batch is bitwise the
//! same as its samples sent one at a time. This regroups the
//! historical `(r, c)`-order cell sum `Σ_r Σ_c V_r² · G_eff(r, c)`, so
//! the two agree to rounding, not bitwise; a proptest bounds the gap at
//! 1e-12 relative under drift, stuck faults, spare remaps and IR drop.
//!
//! The padding lanes of a partial last panel hold `0.0`, their
//! accumulator lanes are never copied out, and the row sums leave them
//! out, so padding cannot leak into results.

use afpr_circuit::units::Volts;

/// Width of one hardware accumulator lane group (f64 elements).
pub const LANES: usize = 8;

/// Columns per panel: four lane groups, sized so the per-panel
/// accumulator state fits the vector register file while giving the
/// out-of-order core independent add chains to overlap.
pub const PANEL: usize = 4 * LANES;

/// One panel sweep for one input vector:
/// `acc[j] = Σ_r v[r] · panel[r · PANEL + j]`, rows in increasing
/// order with the `v[r] == 0` skip, accumulated in a register-resident
/// `[f64; PANEL]`.
///
/// This is **the** inner loop of the MAC: `#[inline(never)]` pins one
/// vectorized instantiation, so per-column float-op order is the same
/// for every sample of every batch, which the bit-identity contract
/// relies on.
#[inline(never)]
fn sweep_panel(panel: &[f64], v: &[Volts]) -> [f64; PANEL] {
    let mut acc = [0.0f64; PANEL];
    for (g, vr) in panel.chunks_exact(PANEL).zip(v) {
        let vr = vr.volts();
        if vr == 0.0 {
            continue;
        }
        for (a, gi) in acc.iter_mut().zip(g) {
            *a += vr * gi;
        }
    }
    acc
}

/// Column-panel-major effective-conductance matrix (see module docs).
///
/// Immutable once built; `Crossbar` wraps it in an `Arc` and rebuilds
/// on mutation (generation-counter invalidation).
#[derive(Debug, Clone, PartialEq)]
pub struct ConductanceKernel {
    rows: usize,
    cols: usize,
    panels: usize,
    /// `panels × rows × PANEL` entries, zero-padded in the last panel.
    data: Vec<f64>,
    /// `S_r = Σ_c G_eff(r, c)` per row, logical columns in increasing
    /// order (the array-power sum, see the module docs).
    row_sums: Vec<f64>,
}

impl ConductanceKernel {
    /// Builds the kernel in **one fused pass**: `g_eff(r, c)` is called
    /// exactly once per logical cell, in row-major `(r, c)` order (the
    /// same per-cell call order as the uncached read path), and its
    /// value is written straight into the blocked layout — no
    /// intermediate row-major buffer, no re-layout pass.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    #[must_use]
    pub fn build(rows: usize, cols: usize, g_eff: impl FnMut(usize, usize) -> f64) -> Self {
        assert!(rows > 0 && cols > 0, "kernel dimensions must be non-zero");
        let panels = cols.div_ceil(PANEL);
        let mut this = Self {
            rows,
            cols,
            panels,
            data: vec![0.0f64; panels * rows * PANEL],
            row_sums: vec![0.0f64; rows],
        };
        this.rebuild(g_eff);
        this
    }

    /// Rebuilds the kernel **in place** from a fresh `g_eff`, reusing
    /// the existing allocation: same dimensions, same layout, and the
    /// same row-major per-cell call order as [`build`](Self::build).
    /// Every logical cell and row sum is overwritten and padding lanes
    /// are already zero, so the result is indistinguishable from a
    /// fresh build — without paying an allocation (and its page faults)
    /// per rebuild on the cold invalidate-every-read path.
    pub fn rebuild(&mut self, mut g_eff: impl FnMut(usize, usize) -> f64) {
        let stride = self.rows * PANEL;
        for (r, row_sum) in self.row_sums.iter_mut().enumerate() {
            // Panel-sliced row sweep: columns still visited in
            // increasing order (`c = c0 + j`), but indexing is one
            // slice per panel row instead of a div/mod + bounds check
            // per cell, and stores are sequential within the slice.
            let mut sum = 0.0f64;
            for p in 0..self.panels {
                let c0 = p * PANEL;
                let n = PANEL.min(self.cols - c0);
                let base = p * stride + r * PANEL;
                for (j, slot) in self.data[base..base + n].iter_mut().enumerate() {
                    *slot = g_eff(r, c0 + j);
                    sum += *slot;
                }
            }
            *row_sum = sum;
        }
    }

    /// Number of word lines (rows).
    #[must_use]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of logical columns (padding excluded).
    #[must_use]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of column panels (including a partial last panel).
    #[must_use]
    pub fn panels(&self) -> usize {
        self.panels
    }

    /// Effective conductance of logical cell `(r, c)`.
    ///
    /// # Panics
    ///
    /// Panics if the position is out of bounds.
    #[inline]
    #[must_use]
    pub fn at(&self, r: usize, c: usize) -> f64 {
        assert!(r < self.rows && c < self.cols, "position out of bounds");
        self.data[(c / PANEL) * self.rows * PANEL + r * PANEL + (c % PANEL)]
    }

    /// Batched GEMM: one panel-blocked pass over the conductance
    /// matrix computes `outs[s][c] = Σ_r vs[s][r] · G_eff(r, c)` for
    /// every sample `s`: the sweep of
    /// [`mac_batch_into`](Self::mac_batch_into), with one output `Vec`
    /// per sample.
    ///
    /// # Panics
    ///
    /// Panics if any `vs[s].len() != rows`.
    #[must_use]
    pub fn mac_batch(&self, vs: &[Vec<Volts>]) -> Vec<Vec<f64>> {
        for v in vs {
            assert_eq!(v.len(), self.rows, "need one input per row");
        }
        let mut outs = vec![vec![0.0f64; self.cols]; vs.len()];
        self.sweep(vs.iter().map(Vec::as_slice), |s, c0, acc| {
            outs[s][c0..c0 + acc.len()].copy_from_slice(acc);
        });
        outs
    }

    /// Batched GEMM into a caller slice: for a sample-major drive slab
    /// of `B` rows of `rows` voltages, writes
    /// `outs[s · cols + c] = Σ_r slab[s · rows + r] · G_eff(r, c)`.
    ///
    /// Panels are the outer loop and samples the middle loop, so one
    /// panel (`rows × PANEL` f64 — cache-resident) is swept by the
    /// whole batch back-to-back: the conductance matrix crosses the
    /// last-level cache once per *batch* instead of once per sample,
    /// while each sample's `[f64; PANEL]` accumulator stays in vector
    /// registers. Every `(sample, column)` pair accumulates in the
    /// row order of the row-major reference loop, so batched results
    /// are **bit-identical** to B batches of one.
    ///
    /// # Panics
    ///
    /// Panics if `slab.len()` is not a multiple of `rows` or `outs` is
    /// not `cols` per slab row.
    pub fn mac_batch_into(&self, slab: &[Volts], outs: &mut [f64]) {
        let batch = self.slab_rows(slab);
        assert_eq!(outs.len(), batch * self.cols, "need one output per column");
        let cols = self.cols;
        self.sweep(slab.chunks_exact(self.rows), |s, c0, acc| {
            let at = s * cols + c0;
            outs[at..at + acc.len()].copy_from_slice(acc);
        });
    }

    /// The MAC's panel loop: for each panel, sweeps every sample and
    /// hands `emit(sample, first column, logical lanes)` the result.
    fn sweep<'a, I>(&self, samples: I, mut emit: impl FnMut(usize, usize, &[f64]))
    where
        I: Iterator<Item = &'a [Volts]> + Clone,
    {
        let stride = self.rows * PANEL;
        for p in 0..self.panels {
            let panel = &self.data[p * stride..(p + 1) * stride];
            let c0 = p * PANEL;
            let n = PANEL.min(self.cols - c0);
            for (s, v) in samples.clone().enumerate() {
                let acc = sweep_panel(panel, v);
                emit(s, c0, &acc[..n]);
            }
        }
    }

    /// Rows of a sample-major drive slab.
    fn slab_rows(&self, slab: &[Volts]) -> usize {
        assert!(
            slab.len().is_multiple_of(self.rows),
            "need one input per row"
        );
        slab.len() / self.rows
    }

    /// Array power under one drive vector, `Σ_r V_r² · S_r` over the
    /// row sums, in increasing row order with the `V_r² == 0` skip
    /// (see the module docs).
    ///
    /// # Panics
    ///
    /// Panics if `v.len() != rows`.
    #[must_use]
    pub fn power(&self, v: &[Volts]) -> f64 {
        assert_eq!(v.len(), self.rows, "need one input per row");
        let mut total = 0.0f64;
        for (vr, s) in v.iter().zip(&self.row_sums) {
            let wr = vr.volts() * vr.volts();
            if wr == 0.0 {
                continue;
            }
            total += wr * s;
        }
        total
    }

    /// Array power under each drive vector, one per sample
    /// ([`power`](Self::power) each).
    ///
    /// # Panics
    ///
    /// Panics if any `vs[s].len() != rows`.
    #[must_use]
    pub fn power_batch(&self, vs: &[Vec<Volts>]) -> Vec<f64> {
        vs.iter().map(|v| self.power(v)).collect()
    }

    /// [`power_batch`](Self::power_batch) into a caller slice, for a
    /// sample-major drive slab: `outs[s]` is the power of slab row `s`.
    ///
    /// # Panics
    ///
    /// Panics if `slab.len()` is not a multiple of `rows` or `outs` is
    /// not one per slab row.
    pub fn power_batch_into(&self, slab: &[Volts], outs: &mut [f64]) {
        let batch = self.slab_rows(slab);
        assert_eq!(outs.len(), batch, "need one output per drive row");
        for (v, out) in slab.chunks_exact(self.rows).zip(outs) {
            *out = self.power(v);
        }
    }

    /// Sum of one column's effective conductances, accumulated in
    /// increasing row order (the checksum measurement path).
    ///
    /// # Panics
    ///
    /// Panics if `col` is out of bounds.
    #[must_use]
    pub fn column_sum(&self, col: usize) -> f64 {
        assert!(col < self.cols, "column out of bounds");
        let stride = self.rows * PANEL;
        let base = (col / PANEL) * stride + col % PANEL;
        (0..self.rows).map(|r| self.data[base + r * PANEL]).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic pseudo-conductance pattern.
    fn g(r: usize, c: usize) -> f64 {
        ((r * 31 + c * 7) % 97) as f64 * 1e-6 + 1e-9
    }

    /// The historical row-major reference MAC.
    fn reference_mac(cols: usize, v: &[Volts]) -> Vec<f64> {
        let mut out = vec![0.0f64; cols];
        for (r, vr) in v.iter().enumerate() {
            let vr = vr.volts();
            if vr == 0.0 {
                continue;
            }
            for (c, acc) in out.iter_mut().enumerate() {
                *acc += vr * g(r, c);
            }
        }
        out
    }

    fn input(rows: usize, salt: usize) -> Vec<Volts> {
        (0..rows)
            .map(|r| {
                Volts::new(if (r + salt).is_multiple_of(5) {
                    0.0 // exercise the zero-row skip
                } else {
                    0.01 * ((r * 13 + salt * 29) % 11) as f64 - 0.03
                })
            })
            .collect()
    }

    #[test]
    fn at_matches_builder_values() {
        // Cols straddle a panel boundary (and leave padding).
        let k = ConductanceKernel::build(5, PANEL + 3, g);
        for r in 0..5 {
            for c in 0..PANEL + 3 {
                assert_eq!(k.at(r, c).to_bits(), g(r, c).to_bits());
            }
        }
        assert_eq!(k.panels(), 2);
    }

    #[test]
    fn mac_is_bit_identical_to_row_major_reference() {
        for (rows, cols) in [
            (1, 1),
            (7, 3),
            (16, PANEL),
            (33, PANEL + 5),
            (64, 3 * PANEL),
        ] {
            let k = ConductanceKernel::build(rows, cols, g);
            let v = input(rows, cols);
            let out = &k.mac_batch(std::slice::from_ref(&v))[0];
            let want = reference_mac(cols, &v);
            for c in 0..cols {
                assert_eq!(out[c].to_bits(), want[c].to_bits(), "{rows}x{cols} col {c}");
            }
        }
    }

    #[test]
    fn batch_is_bit_identical_to_sequential_macs() {
        let (rows, cols) = (19, PANEL + 9);
        let k = ConductanceKernel::build(rows, cols, g);
        for b in [0usize, 1, 2, 5, 16] {
            let vs: Vec<Vec<Volts>> = (0..b).map(|s| input(rows, s)).collect();
            let got = k.mac_batch(&vs);
            assert_eq!(got.len(), b);
            for (s, v) in vs.iter().enumerate() {
                let want = &k.mac_batch(std::slice::from_ref(v))[0];
                for c in 0..cols {
                    assert_eq!(
                        got[s][c].to_bits(),
                        want[c].to_bits(),
                        "batch {b} sample {s} col {c}"
                    );
                }
            }
        }
    }

    #[test]
    fn rebuild_in_place_matches_fresh_build() {
        let mut k = ConductanceKernel::build(6, PANEL + 2, g);
        let g2 = |r: usize, c: usize| g(r, c) * 2.0 + 3e-9;
        k.rebuild(g2);
        assert_eq!(k, ConductanceKernel::build(6, PANEL + 2, g2));
    }

    #[test]
    fn power_matches_scalar_reference_bitwise() {
        // The row-sum order: `Σ_r V_r² · S_r`, `S_r` summed over the
        // logical columns in increasing order.
        let (rows, cols) = (11, PANEL * 2 + 1);
        let k = ConductanceKernel::build(rows, cols, g);
        let v = input(rows, 3);
        let mut want = 0.0f64;
        for (r, vr) in v.iter().enumerate() {
            let wr = vr.volts() * vr.volts();
            if wr == 0.0 {
                continue;
            }
            let mut s_r = 0.0f64;
            for c in 0..cols {
                s_r += g(r, c);
            }
            want += wr * s_r;
        }
        let one = k.power_batch(std::slice::from_ref(&v));
        assert_eq!(one[0].to_bits(), want.to_bits());
        // A larger batch: per sample bit-identical to batches of one.
        let vs: Vec<Vec<Volts>> = (0..4).map(|s| input(rows, s)).collect();
        let batch = k.power_batch(&vs);
        for (s, v) in vs.iter().enumerate() {
            assert_eq!(
                batch[s].to_bits(),
                k.power_batch(std::slice::from_ref(v))[0].to_bits(),
                "sample {s}"
            );
        }
    }

    #[test]
    fn into_forms_match_the_allocating_forms_bitwise() {
        let (rows, cols) = (13, PANEL + 7);
        let k = ConductanceKernel::build(rows, cols, g);
        let vs: Vec<Vec<Volts>> = (0..3).map(|s| input(rows, s)).collect();
        let slab: Vec<Volts> = vs.concat();
        let mut macs = vec![f64::NAN; vs.len() * cols];
        let mut powers = vec![f64::NAN; vs.len()];
        k.mac_batch_into(&slab, &mut macs);
        k.power_batch_into(&slab, &mut powers);
        let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&macs), bits(&k.mac_batch(&vs).concat()));
        assert_eq!(bits(&powers), bits(&k.power_batch(&vs)));
    }

    #[test]
    fn column_sum_is_row_ordered() {
        let (rows, cols) = (9, PANEL + 2);
        let k = ConductanceKernel::build(rows, cols, g);
        for c in [0, 1, PANEL - 1, PANEL, cols - 1] {
            let want: f64 = (0..rows).map(|r| g(r, c)).sum();
            assert_eq!(k.column_sum(c).to_bits(), want.to_bits(), "col {c}");
        }
    }

    #[test]
    fn padding_lanes_never_leak() {
        // cols = 1: 31 padding lanes in the only panel. A negative
        // input would poison results through padding if it leaked.
        let k = ConductanceKernel::build(4, 1, g);
        let v: Vec<Volts> = [-0.5, 0.25, -1.0, 2.0].map(Volts::new).to_vec();
        let out = &k.mac_batch(std::slice::from_ref(&v))[0];
        assert_eq!(out[0].to_bits(), reference_mac(1, &v)[0].to_bits());
        assert_eq!(k.power_batch(std::slice::from_ref(&v))[0].to_bits(), {
            let mut p = 0.0f64;
            for (r, vr) in v.iter().enumerate() {
                p += vr.volts() * vr.volts() * g(r, 0);
            }
            p.to_bits()
        });
    }

    #[test]
    #[should_panic(expected = "one input per row")]
    fn wrong_input_length_panics() {
        let k = ConductanceKernel::build(4, 2, g);
        let _ = k.mac_batch(&[vec![Volts::ZERO; 3]]);
    }
}
