//! Ablation: macro accuracy under circuit/device non-idealities —
//! IR drop, retention drift, capacitor mismatch, device variation.
//! Extends the paper's evaluation (which reports the ideal-device
//! macro) using the non-ideality models the substrates provide.
//!
//! Run with: `cargo run --release -p afpr-bench --bin ablation_nonidealities`

use afpr_circuit::units::Seconds;
use afpr_core::report::format_table;
use afpr_num::FpFormat;
use afpr_xbar::cim_macro::CimMacro;
use afpr_xbar::ir_drop::IrDropModel;
use afpr_xbar::quant::FpActQuantizer;
use afpr_xbar::spec::{MacroMode, MacroSpec};

const ROWS: usize = 96;
const COLS: usize = 16;

fn weights() -> Vec<f32> {
    (0..ROWS * COLS)
        .map(|k| ((k * 17 % 37) as f32 - 18.0) / 36.0)
        .collect()
}

fn inputs() -> Vec<f32> {
    (0..ROWS).map(|k| ((k as f32) * 0.23).sin()).collect()
}

fn rms_error(mac: &mut CimMacro) -> f64 {
    let w = weights();
    let x = inputs();
    let q = FpActQuantizer::calibrate(&x, FpFormat::E2M5);
    mac.calibrate_range(&[q.quantize_slice(&x)]);
    let y = mac.matvec(&x);
    let mut sum = 0.0f64;
    let mut scale = 0.0f64;
    for c in 0..COLS {
        let mut want = 0.0f32;
        for r in 0..ROWS {
            want += x[r] * w[r * COLS + c];
        }
        sum += f64::from((y[c] - want) * (y[c] - want));
        scale += f64::from(want * want);
    }
    (sum / scale).sqrt()
}

fn fresh(spec: MacroSpec) -> CimMacro {
    let mut mac = CimMacro::with_seed(spec, 42);
    mac.program_weights(&weights());
    mac
}

fn main() {
    let base = MacroSpec::small(ROWS, COLS, MacroMode::FpE2M5);
    let mut rows = vec![vec![
        "condition".to_string(),
        "relative RMS error".to_string(),
    ]];
    let mut add = |label: &str, err: f64| {
        rows.push(vec![label.to_string(), format!("{err:.4}")]);
    };

    add(
        "ideal macro (ADC quantization only)",
        rms_error(&mut fresh(base.clone())),
    );

    // IR drop sweep.
    for r_wire in [0.5, 1.0, 4.0] {
        let mut mac = fresh(base.clone());
        mac.set_ir_drop(IrDropModel::new(r_wire));
        add(&format!("IR drop, {r_wire} Ω/cell"), rms_error(&mut mac));
    }

    // Retention drift sweep (program once, read later).
    for (label, secs) in [("1 hour", 3.6e3), ("1 month", 2.6e6), ("1 year", 3.15e7)] {
        let mut spec = base.clone();
        spec.device.drift_nu = 0.01;
        let mut mac = fresh(spec);
        mac.set_age(Seconds::new(secs));
        add(&format!("drift ν=0.01, {label}"), rms_error(&mut mac));
    }

    // Capacitor-bank mismatch.
    for sigma in [0.002, 0.01] {
        let mut spec = base.clone();
        spec.fp_adc.cap_mismatch_sigma = sigma;
        add(
            &format!("cap mismatch σ={sigma}"),
            rms_error(&mut fresh(spec)),
        );
    }

    // Device programming variation.
    for sigma in [0.03, 0.10] {
        let mut spec = base.clone();
        spec.device = spec.device.with_program_sigma(sigma);
        add(
            &format!("programming σ={sigma}"),
            rms_error(&mut fresh(spec)),
        );
    }

    // Everything at once (the realistic corner).
    let mut spec = MacroSpec {
        rows: ROWS,
        cols: COLS,
        ..MacroSpec::paper_realistic(MacroMode::FpE2M5)
    };
    spec.device.drift_nu = 0.01;
    let mut mac = fresh(spec);
    mac.set_ir_drop(IrDropModel::typical_65nm());
    mac.set_age(Seconds::new(3.6e3));
    add("realistic corner (all of the above)", rms_error(&mut mac));

    println!("{}", format_table(&rows));
}
