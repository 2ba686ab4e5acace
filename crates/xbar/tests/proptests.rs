//! Property-based tests for the crossbar and macro.

use afpr_circuit::units::{Seconds, Volts};
use afpr_device::{DeviceConfig, FaultKind};
use afpr_num::FpFormat;
use afpr_xbar::cim_macro::CimMacro;
use afpr_xbar::crossbar::Crossbar;
use afpr_xbar::ir_drop::IrDropModel;
use afpr_xbar::mapping::map_weights;
use afpr_xbar::quant::FpActQuantizer;
use afpr_xbar::spec::{MacroMode, MacroSpec};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn weight_vec(n: usize) -> impl Strategy<Value = Vec<f32>> {
    prop::collection::vec(-1.0f32..1.0, n..=n)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Crossbar currents are linear in the input voltage scale.
    #[test]
    fn crossbar_scaling(levels in prop::collection::vec(0u32..32, 12), k in 0.1f64..3.0) {
        let mut xb = Crossbar::new(4, 3, DeviceConfig::ideal(32));
        let mut rng = StdRng::seed_from_u64(1);
        xb.program_levels(&levels, &mut rng);
        let v1: Vec<Volts> = (0..4).map(|r| Volts::new(0.05 * (r + 1) as f64)).collect();
        let vk: Vec<Volts> = v1.iter().map(|v| *v * k).collect();
        let i1 = xb.mac_currents(&v1);
        let ik = xb.mac_currents(&vk);
        for c in 0..3 {
            prop_assert!((ik[c].amps() - k * i1[c].amps()).abs() < 1e-15);
        }
    }

    /// Array energy is non-negative and zero only for zero drive.
    #[test]
    fn array_energy_nonnegative(levels in prop::collection::vec(1u32..32, 6), v in 0.0f64..1.0) {
        let mut xb = Crossbar::new(2, 3, DeviceConfig::ideal(32));
        let mut rng = StdRng::seed_from_u64(2);
        xb.program_levels(&levels, &mut rng);
        let vs = vec![Volts::new(v); 2];
        let e = xb.array_energy(&vs, Seconds::from_nano(100.0)).joules();
        if v == 0.0 {
            prop_assert_eq!(e, 0.0);
        } else {
            prop_assert!(e > 0.0);
        }
    }

    /// Weight mapping round-trips within half a quantization step.
    #[test]
    fn mapping_error_bound(w in weight_vec(24)) {
        let m = map_weights(&w, 6, 4, 32);
        for (i, &orig) in w.iter().enumerate() {
            let back = m.dequantized(i / 4, i % 4);
            prop_assert!((back - orig).abs() <= m.scale / 2.0 + 1e-6);
        }
    }

    /// End-to-end macro matvec tracks the float reference within the
    /// combined quantization budget when the range is calibrated on the
    /// same input.
    #[test]
    fn macro_matvec_tracks_reference(w in weight_vec(32), seed in 0u64..32) {
        let rows = 8;
        let cols = 4;
        let mut mac = CimMacro::with_seed(MacroSpec::small(rows, cols, MacroMode::FpE2M5), seed);
        mac.program_weights(&w);
        let x: Vec<f32> = (0..rows).map(|k| ((k as f32) + seed as f32 * 0.1).sin()).collect();
        let q = FpActQuantizer::calibrate(&x, FpFormat::E2M5);
        mac.calibrate_range(&[q.quantize_slice(&x)]);
        let y = mac.matvec(&x);
        let mut want = vec![0.0f32; cols];
        for r in 0..rows {
            for c in 0..cols {
                want[c] += x[r] * w[r * cols + c];
            }
        }
        // Full-scale-relative budget: range calibrated at 1.1× the peak
        // |MAC|, so the worst readout error is ~1 binade LSB plus the
        // activation/weight quantization error.
        let fs: f32 = want.iter().fold(0.0f32, |m, v| m.max(v.abs())).max(0.1);
        for c in 0..cols {
            prop_assert!(
                (y[c] - want[c]).abs() < 0.15 * fs + 0.1,
                "col {}: got {} want {} (fs {})", c, y[c], want[c], fs
            );
        }
    }

    /// Remapping one column onto a spare switches `mac_currents` from
    /// the contiguous fast path (`spares_used == 0`) to the redirected
    /// path — the **untouched** columns must read bit-identically
    /// across that switch, and the cached kernel must stay bit-equal
    /// to the uncached reference on both sides of it.
    #[test]
    fn remap_keeps_untouched_columns_bit_identical(
        levels in prop::collection::vec(0u32..32, 48),
        victim in 0usize..6,
        seed in 0u64..1024,
    ) {
        let rows = 8;
        let cols = 6;
        let mut xb = Crossbar::with_spares(rows, cols, 2, DeviceConfig::realistic(32));
        let mut rng = StdRng::seed_from_u64(seed);
        xb.program_levels(&levels, &mut rng);
        let v: Vec<Volts> = (0..rows).map(|r| Volts::new(0.02 * (r + 1) as f64)).collect();

        // Fast path: no spares in use, cached == uncached bitwise.
        prop_assert_eq!(xb.spares_used(), 0);
        let before = xb.mac_currents(&v);
        let before_ref = xb.mac_currents_uncached(&v);
        for c in 0..cols {
            prop_assert_eq!(before[c].amps().to_bits(), before_ref[c].amps().to_bits());
        }

        // Redirect the victim column onto a spare.
        let gen0 = xb.generation();
        xb.remap_column(victim, &mut rng).expect("spares available");
        prop_assert!(xb.is_remapped(victim));
        prop_assert!(xb.generation() != gen0, "remap must invalidate the kernel");

        // Redirected path: cached == uncached bitwise, and every
        // column other than the victim is bit-identical to before.
        let after = xb.mac_currents(&v);
        let after_ref = xb.mac_currents_uncached(&v);
        for c in 0..cols {
            prop_assert_eq!(after[c].amps().to_bits(), after_ref[c].amps().to_bits());
            if c != victim {
                prop_assert_eq!(
                    after[c].amps().to_bits(),
                    before[c].amps().to_bits(),
                    "untouched column {} changed across remap", c
                );
            }
        }
    }

    /// The conductance-snapshot kernel is bit-identical to the
    /// per-cell uncached path under stuck-cell faults and nonzero
    /// drift age — exactly the regime where the cache saves the most
    /// work (a `powf` per cell per read).
    #[test]
    fn cached_kernel_bit_identical_under_faults_and_age(
        levels in prop::collection::vec(0u32..32, 48),
        // Each code encodes (row, col, kind) as r*12 + c*2 + lrs.
        fault_codes in prop::collection::vec(0u32..96, 0..6),
        age_s in 1.0f64..1.0e7,
        seed in 0u64..1024,
    ) {
        let rows = 8;
        let cols = 6;
        let mut dev = DeviceConfig::realistic(32);
        dev.drift_nu = 0.02;
        let mut xb = Crossbar::new(rows, cols, dev);
        let mut rng = StdRng::seed_from_u64(seed);
        xb.program_levels(&levels, &mut rng);
        for &code in &fault_codes {
            let (r, c, lrs) = ((code / 12) as usize, ((code / 2) % 6) as usize, code % 2);
            let kind = if lrs == 1 { FaultKind::StuckLrs } else { FaultKind::StuckHrs };
            xb.set_fault(r, c, Some(kind));
        }
        xb.set_age(Seconds::new(age_s));

        // Snapshot entries match the per-cell accessor bitwise…
        let snap = xb.conductance_snapshot();
        for r in 0..rows {
            for c in 0..cols {
                prop_assert_eq!(
                    snap.at(r, c).to_bits(),
                    xb.conductance(r, c).to_bits(),
                    "snapshot diverges at ({}, {})", r, c
                );
            }
        }
        // …and the cached MAC is bit-identical to the uncached one,
        // warm reads included (same snapshot reused).
        let v: Vec<Volts> = (0..rows).map(|r| Volts::new(0.01 + 0.03 * r as f64)).collect();
        let cached = xb.mac_currents(&v);
        let warm = xb.mac_currents(&v);
        let reference = xb.mac_currents_uncached(&v);
        for c in 0..cols {
            prop_assert_eq!(cached[c].amps().to_bits(), reference[c].amps().to_bits());
            prop_assert_eq!(warm[c].amps().to_bits(), reference[c].amps().to_bits());
        }
        prop_assert_eq!(xb.kernel_builds(), 1, "warm read must not rebuild");
    }

    /// Batched GEMM bit-identity at the crossbar level: one blocked
    /// pass over B drive vectors equals B sequential `mac_currents`
    /// calls bitwise — and both equal the uncached per-cell oracle —
    /// under stuck faults, drift age, and a spare-column remap.
    #[test]
    fn batched_mac_bit_identical_under_faults_age_and_remap(
        levels in prop::collection::vec(0u32..32, 48),
        fault_codes in prop::collection::vec(0u32..96, 0..6),
        age_s in 1.0f64..1.0e7,
        victim in 0usize..6,
        seed in 0u64..1024,
        batch in 2usize..6,
    ) {
        let rows = 8;
        let cols = 6;
        let mut dev = DeviceConfig::realistic(32);
        dev.drift_nu = 0.02;
        let mut xb = Crossbar::with_spares(rows, cols, 2, dev);
        let mut rng = StdRng::seed_from_u64(seed);
        xb.program_levels(&levels, &mut rng);
        for &code in &fault_codes {
            let (r, c, lrs) = ((code / 12) as usize, ((code / 2) % 6) as usize, code % 2);
            let kind = if lrs == 1 { FaultKind::StuckLrs } else { FaultKind::StuckHrs };
            xb.set_fault(r, c, Some(kind));
        }
        xb.set_age(Seconds::new(age_s));
        xb.remap_column(victim, &mut rng).expect("spares available");

        let vs: Vec<Vec<Volts>> = (0..batch)
            .map(|s| {
                (0..rows)
                    .map(|r| {
                        if (r + s) % 4 == 0 {
                            Volts::ZERO
                        } else {
                            Volts::new(0.01 + 0.02 * ((r * 5 + s * 3) % 7) as f64)
                        }
                    })
                    .collect()
            })
            .collect();
        let got = xb.mac_currents_batch(&vs);
        for (s, v) in vs.iter().enumerate() {
            let want = xb.mac_currents(v);
            let oracle = xb.mac_currents_uncached(v);
            for c in 0..cols {
                prop_assert_eq!(
                    got[s][c].amps().to_bits(),
                    want[c].amps().to_bits(),
                    "batch sample {} col {} diverges from sequential", s, c
                );
                prop_assert_eq!(
                    want[c].amps().to_bits(),
                    oracle[c].amps().to_bits(),
                    "cached sample {} col {} diverges from oracle", s, c
                );
            }
        }
    }

    /// The array energy regroups the cell sum into per-row conductance
    /// sums, `Σ_r V_r² · S_r`. It stays within 1e-12 relative of the
    /// historical `(r, c)`-order sum `Σ_r Σ_c V_r² · G(r, c)` over the
    /// uncached per-cell conductances, under drift, stuck faults, a
    /// spare remap and IR drop, and a batch is bitwise the same as its
    /// samples one at a time. 40 columns leave a padded last panel.
    #[test]
    fn row_sum_energy_tracks_cell_order_sum(
        levels in prop::collection::vec(0u32..32, 24 * 40),
        fault_codes in prop::collection::vec(0u32..1920, 0..12),
        age_s in 1.0f64..1.0e7,
        victim in 0usize..40,
        r_wire in 0.0f64..5.0,
        seed in 0u64..1024,
        scale in 0.05f64..0.5,
    ) {
        let (rows, cols) = (24, 40);
        let mut dev = DeviceConfig::realistic(32);
        dev.drift_nu = 0.02;
        let mut xb = Crossbar::with_spares(rows, cols, 1, dev);
        let mut rng = StdRng::seed_from_u64(seed);
        xb.program_levels(&levels, &mut rng);
        for &code in &fault_codes {
            let (cell, lrs) = ((code / 2) as usize, code % 2);
            let kind = if lrs == 1 { FaultKind::StuckLrs } else { FaultKind::StuckHrs };
            xb.set_fault(cell / cols, cell % cols, Some(kind));
        }
        xb.set_age(Seconds::new(age_s));
        xb.remap_column(victim, &mut rng).expect("a spare is available");
        xb.set_ir_drop(IrDropModel::new(r_wire));

        let t = Seconds::from_nano(100.0);
        let vs: Vec<Vec<Volts>> = (0..3)
            .map(|s| {
                (0..rows)
                    .map(|r| match (r + s) % 5 {
                        0 => Volts::ZERO,
                        1 => Volts::new(-scale * (r + 1) as f64 / rows as f64),
                        _ => Volts::new(scale * ((r * 7 + s * 3) % 11) as f64 / 11.0),
                    })
                    .collect()
            })
            .collect();
        let batch = xb.array_energy_batch(&vs, t);
        for (s, v) in vs.iter().enumerate() {
            let mut cell_order = 0.0f64;
            for (r, vr) in v.iter().enumerate() {
                let wr = vr.volts() * vr.volts();
                if wr == 0.0 {
                    continue;
                }
                for c in 0..cols {
                    cell_order += wr * xb.conductance(r, c);
                }
            }
            let want = cell_order * t.seconds();
            let got = xb.array_energy(v, t).joules();
            prop_assert_eq!(got.to_bits(), batch[s].joules().to_bits(), "sample {}", s);
            prop_assert!(
                (got - want).abs() <= 1e-12 * want.abs(),
                "sample {}: row sums {} vs cell order {}", s, got, want
            );
        }
    }

    /// Macro-level batched GEMM bit-identity across all three modes:
    /// `matvec_batch` on a macro equals per-sample `matvec` on a
    /// clone-twin (same RNG state, same arrays) bitwise.
    #[test]
    fn macro_batched_matvec_bit_identical(
        w in weight_vec(32),
        seed in 0u64..256,
        mode_idx in 0usize..3,
    ) {
        let mode = [MacroMode::FpE2M5, MacroMode::FpE3M4, MacroMode::Int8][mode_idx];
        let mut spec = MacroSpec::small(8, 4, mode);
        spec.device.drift_nu = 0.01;
        let mut mac = CimMacro::with_seed(spec, seed);
        mac.program_weights(&w);
        mac.set_age(Seconds::new(1.0e5));
        let mut twin = mac.clone();
        let xs: Vec<Vec<f32>> = (0..4)
            .map(|s| {
                (0..8)
                    .map(|r| (r as f32 * 0.4 + seed as f32 * 0.05 + s as f32 * 0.7).sin())
                    .collect()
            })
            .collect();
        let batched = mac.matvec_batch(&xs);
        let sequential: Vec<Vec<f32>> = xs.iter().map(|x| twin.matvec(x)).collect();
        for (s, (b, q)) in batched.iter().zip(&sequential).enumerate() {
            for (c, (bv, qv)) in b.iter().zip(q).enumerate() {
                prop_assert_eq!(
                    bv.to_bits(),
                    qv.to_bits(),
                    "{:?} sample {} col {}: batched {} sequential {}", mode, s, c, bv, qv
                );
            }
        }
    }

    /// Digital reference is exactly linear in activations.
    #[test]
    fn digital_reference_linearity(w in weight_vec(16)) {
        let mut mac = CimMacro::new(MacroSpec::small(4, 4, MacroMode::FpE2M5));
        mac.program_weights(&w);
        let q = FpActQuantizer::with_scale(0.1, FpFormat::E2M5);
        let a = q.quantize_slice(&[1.0, 0.0, 0.0, 0.0]);
        let b = q.quantize_slice(&[0.0, 1.0, 0.0, 0.0]);
        let ab = q.quantize_slice(&[1.0, 1.0, 0.0, 0.0]);
        let ra = mac.digital_reference_fp(&a);
        let rb = mac.digital_reference_fp(&b);
        let rab = mac.digital_reference_fp(&ab);
        for c in 0..4 {
            prop_assert!((rab[c] - ra[c] - rb[c]).abs() < 1e-9);
        }
    }
}
