//! Reproduces the paper's Fig. 5(a) transient and renders the V_O(t)
//! waveform as ASCII art: the integrator ramps toward V_th = 2 V,
//! charge sharing drops it back to 1 V at each range adjustment, and
//! the held residue is digitized by the single slope.
//!
//! Run with: `cargo run --example fp_adc_transient`

use afpr::circuit::fp_adc::{FpAdc, FpAdcConfig};
use afpr::circuit::units::{Amps, Seconds};

fn main() {
    let adc = FpAdc::new(FpAdcConfig::e2m5_paper());

    for i_ua in [1.5, 2.6, 5.38, 12.0] {
        let transient = adc.transient(Amps::from_micro(i_ua));
        let r = &transient.result;
        println!("I_MAC = {i_ua} µA");
        render(&transient.waveform);
        match r.code {
            Some(code) => println!(
                "  -> {} adjustments, V_M = {:.3} V, code {} (value {:.4})\n",
                r.adjustments,
                r.v_sample.volts(),
                code.to_bit_string(),
                code.value()
            ),
            None => println!("  -> below the minimum range: not read out\n"),
        }
    }
}

/// Tiny ASCII oscilloscope: 24 rows × 72 columns over the first 120 ns.
fn render(w: &afpr::circuit::Waveform) {
    const ROWS: usize = 12;
    const COLS: usize = 72;
    let t_max = 120e-9;
    let v_max = 2.2;
    let mut grid = vec![vec![' '; COLS]; ROWS];
    for (col, t) in (0..COLS).map(|c| (c, t_max * c as f64 / (COLS - 1) as f64)) {
        let v = w.sample_at(Seconds::new(t)).volts();
        let row = ((1.0 - (v / v_max).clamp(0.0, 1.0)) * (ROWS - 1) as f64).round() as usize;
        grid[row][col] = '*';
    }
    for (i, row) in grid.iter().enumerate() {
        let label = v_max * (1.0 - i as f64 / (ROWS - 1) as f64);
        println!("  {label:>4.1} V |{}", row.iter().collect::<String>());
    }
    println!("         +{}", "-".repeat(COLS));
    println!("          0 ns{:>width$}", "120 ns", width = COLS - 4);
}
