//! The FP-ADC's decision path (`convert`, `convert_noisy`) against its
//! recording path (`transient`, `transient_noisy`): every result field
//! agrees bit for bit over a sweep of currents that covers the edge
//! cases, for both formats and for ideal and non-ideal parts. Also pins
//! the saturation of currents whose integrator slope overflows.

use afpr_circuit::fp_adc::{FpAdc, FpAdcConfig, FpAdcResult};
use afpr_circuit::units::{Amps, Volts};
use afpr_circuit::{Comparator, Integrator};
use afpr_num::{FpFormat, HwFpCode};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The currents every configuration converts.
fn sweep(adc: &FpAdc) -> Vec<f64> {
    let unit = adc.min_current().amps();
    let full = adc.full_scale_current().amps();
    let mut currents = vec![
        0.0,
        -0.0,
        -1e-6,
        -full,
        f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::MIN_POSITIVE,
        f64::MIN_POSITIVE / 2.0, // subnormal
        f64::from_bits(1),       // smallest subnormal
        0.5 * unit,              // underflow
        full,
        full.next_up(),
        full.next_down(),
        2.0 * full, // overflow
        16.5,       // 10⁶ × full scale: a finite slope that saturates
        1e300,      // I/C overflows to +∞
        f64::MAX,
    ];
    // The analytic exponent boundaries and their f64 neighbours.
    for k in 0..=adc.config().format.exponent_levels() {
        let edge = unit * f64::from(1u32 << k);
        currents.extend([edge, edge.next_up(), edge.next_down()]);
    }
    // A log sweep from well below the window to well above it.
    currents.extend((0..600).map(|j| unit * 10f64.powf(-1.0 + 4.0 * f64::from(j) / 599.0)));
    currents
}

fn assert_same(decided: &FpAdcResult, recorded: &FpAdcResult, what: &str) {
    assert_eq!(decided.code, recorded.code, "{what}: code");
    assert_eq!(
        decided.v_sample.volts().to_bits(),
        recorded.v_sample.volts().to_bits(),
        "{what}: v_sample"
    );
    assert_eq!(
        decided.adjustments, recorded.adjustments,
        "{what}: adjustments"
    );
    assert_eq!(decided.overflow, recorded.overflow, "{what}: overflow");
    assert_eq!(decided.underflow, recorded.underflow, "{what}: underflow");
    assert_eq!(
        decided.value().to_bits(),
        recorded.value().to_bits(),
        "{what}: value"
    );
}

/// Every configuration of the sweep: both formats, ideal and
/// mismatched capacitors, ideal and realistic integrator/comparator.
fn adcs() -> Vec<(String, FpAdc)> {
    let mut out = Vec::new();
    for base in [FpAdcConfig::e2m5_paper(), FpAdcConfig::e3m4_paper()] {
        let mut realistic = base;
        realistic.integrator = Integrator::realistic();
        realistic.comparator = Comparator::realistic();
        for (name, mut cfg) in [("ideal", base), ("realistic", realistic)] {
            out.push((format!("{:?} {name}", base.format), FpAdc::new(cfg)));
            cfg.cap_mismatch_sigma = 0.02;
            let mismatched = FpAdc::with_sampled_mismatch(cfg, &mut StdRng::seed_from_u64(17));
            out.push((format!("{:?} {name} + mismatch", base.format), mismatched));
        }
    }
    out
}

#[test]
fn decision_path_matches_recording_path() {
    for (name, adc) in adcs() {
        for i in sweep(&adc) {
            let what = format!("{name} at {i:e} A");
            let t = adc.transient(Amps::new(i));
            assert_same(&adc.convert(Amps::new(i)), &t.result, &what);
            assert_eq!(
                t.adjustment_times.len(),
                t.result.adjustments as usize,
                "{what}: one recorded instant per adjustment"
            );
        }
    }
}

#[test]
fn noisy_decision_path_matches_recording_path_under_one_seed() {
    for (name, adc) in adcs() {
        let mut cfg = *adc.config();
        cfg.comparator.noise_sigma = Volts::from_milli(5.0);
        let noisy = FpAdc::new(cfg);
        // One stream per path: a different number of noise draws on
        // either side would desynchronize every later conversion.
        let mut decide_rng = StdRng::seed_from_u64(99);
        let mut record_rng = StdRng::seed_from_u64(99);
        for i in sweep(&noisy) {
            let decided = noisy.convert_noisy(Amps::new(i), &mut decide_rng);
            let recorded = noisy.transient_noisy(Amps::new(i), &mut record_rng);
            assert_same(
                &decided,
                &recorded.result,
                &format!("{name} noisy at {i:e} A"),
            );
        }
    }
}

#[test]
fn slope_overflow_saturates() {
    for format in [FpFormat::E2M5, FpFormat::E3M4] {
        let adc = FpAdc::new(FpAdcConfig::paper_for(format));
        for i in [16.5, 1e300, f64::MAX, f64::INFINITY] {
            let r = adc.convert(Amps::new(i));
            assert!(r.overflow, "{format:?} at {i:e} A must flag overflow");
            assert!(!r.underflow);
            assert_eq!(
                r.code,
                Some(HwFpCode::saturated(format)),
                "{format:?} at {i:e} A"
            );
            assert_eq!(r.adjustments, format.exponent_levels() - 1);
            assert_eq!(r.v_sample.volts(), adc.config().v_supply.volts());
        }
        // NaN still reads as underflow.
        let r = adc.convert(Amps::new(f64::NAN));
        assert!(r.underflow && !r.overflow && r.code.is_none());
    }
}
