//! The experiment implementations, one per paper artefact.

use afpr_circuit::fp_adc::{FpAdc, FpAdcConfig};
use afpr_circuit::fp_dac::{FpDac, FpDacConfig};
use afpr_circuit::units::Amps;
use afpr_core::perf;
use afpr_core::power;
use afpr_core::report::{format_table, ExperimentRecord};
use afpr_nn::accuracy::top1_accuracy;
use afpr_nn::data::synthetic_images_with_boundaries;
use afpr_nn::init::InitSpec;
use afpr_nn::models::{tiny_mobilenet, tiny_resnet};
use afpr_nn::quant::{NumFormat, QuantizedModel};
use afpr_nn::Sequential;
use afpr_num::{FpFormat, HwFpCode};
use afpr_runtime::{Engine, EngineConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// FIG5A — FP-ADC transient of a constant 5.38 µA MAC current:
/// two range adjustments, residue ≈ 1.28 V, digital output `1001001`
/// (paper Fig. 5a).
///
/// Returns the record and the `V_O(t)` waveform as CSV.
#[must_use]
pub fn fig5a() -> (ExperimentRecord, String) {
    let adc = FpAdc::new(FpAdcConfig::e2m5_paper());
    let transient = adc.transient(Amps::from_micro(5.38));
    let r = &transient.result;
    let code = r.code.expect("5.38 µA is in range");
    let record = ExperimentRecord::new(
        "FIG5A",
        "FP-ADC transient: constant 5.38 µA, T_S = 100 ns, C_int = 105 fF",
    )
    .with(
        "range adjustments (exponent)",
        Some(2.0),
        f64::from(r.adjustments),
        "count",
    )
    .with(
        "residue V_M at sample instant",
        Some(1.28),
        r.v_sample.volts(),
        "V (paper: 1.271 simulated / 1.28 theoretical)",
    )
    .with(
        "mantissa code",
        Some(9.0),
        f64::from(code.man()),
        "(01001b)",
    )
    .with(
        "digital output word",
        Some(f64::from(0b100_1001u32)),
        f64::from(code.to_bits()),
        "(1001001b)",
    )
    .with(
        "first adjustment instant",
        None,
        transient.adjustment_times[0].seconds() * 1e9,
        "ns (5 ns reset + 39.0 ns)",
    )
    .with(
        "decoded current (Eq. 5)",
        Some(5.38),
        adc.decode_current(code).amps() * 1e6,
        "µA",
    );
    (record, transient.waveform.to_csv())
}

/// FIG5B — FP-DAC linearity: cell current over all 128 input codes for
/// example conductances 20/18/15/12 µS, grouped by exponent
/// (paper Fig. 5b). The measured quantity is the worst-case integral
/// nonlinearity of `I_cell` vs the digital code value within each
/// exponent group (ideal hardware: 0).
///
/// Returns the record and a CSV of `(code, exponent, g_uS, i_uA)`.
#[must_use]
pub fn fig5b() -> (ExperimentRecord, String) {
    let dac = FpDac::new(FpDacConfig::e2m5_paper());
    let conductances_us = [20.0f64, 18.0, 15.0, 12.0];
    let mut csv = String::from("code,exponent,g_uS,i_uA\n");
    let mut worst_inl = 0.0f64;
    for &g_us in &conductances_us {
        let g = g_us * 1e-6;
        for exp in 0..4u32 {
            // Within one exponent group the current must be linear in
            // the mantissa code; fit I = a·value + b over the group and
            // take the worst residual relative to full scale.
            let points: Vec<(f64, f64)> = (0..32u32)
                .map(|man| {
                    let code = HwFpCode::new(FpFormat::E2M5, exp, man).expect("in range");
                    let v = dac.convert(code);
                    let i = v.volts() * g;
                    csv.push_str(&format!(
                        "{},{},{},{:.6}\n",
                        code.to_bits(),
                        exp,
                        g_us,
                        i * 1e6
                    ));
                    (code.value(), i)
                })
                .collect();
            worst_inl = worst_inl.max(max_relative_residual(&points));
        }
    }
    let record = ExperimentRecord::new(
        "FIG5B",
        "FP-DAC linearity: 128 input codes × {20,18,15,12} µS cells, grouped by exponent",
    )
    .with(
        "worst-case group INL (ideal DAC)",
        Some(0.0),
        worst_inl * 100.0,
        "% of full scale",
    )
    .with("codes exercised", Some(128.0), 128.0, "count")
    .with("conductance examples", Some(4.0), 4.0, "cells");
    (record, csv)
}

fn max_relative_residual(points: &[(f64, f64)]) -> f64 {
    let n = points.len() as f64;
    let (sx, sy): (f64, f64) = points
        .iter()
        .fold((0.0, 0.0), |a, p| (a.0 + p.0, a.1 + p.1));
    let (mx, my) = (sx / n, sy / n);
    let sxx: f64 = points.iter().map(|p| (p.0 - mx) * (p.0 - mx)).sum();
    let sxy: f64 = points.iter().map(|p| (p.0 - mx) * (p.1 - my)).sum();
    let slope = if sxx > 0.0 { sxy / sxx } else { 0.0 };
    let b = my - slope * mx;
    let full_scale = points
        .iter()
        .map(|p| p.1.abs())
        .fold(0.0, f64::max)
        .max(f64::MIN_POSITIVE);
    points
        .iter()
        .map(|p| ((slope * p.0 + b) - p.1).abs() / full_scale)
        .fold(0.0, f64::max)
}

/// FIG6A — module power breakdown for E2M5 / E3M4 / INT (paper
/// Fig. 6a), with the −56.4 % ADC claim derived.
#[must_use]
pub fn fig6a() -> (ExperimentRecord, String) {
    let reports = power::fig6a_breakdowns();
    let claims = power::fig6_claims();
    let mut rows = vec![vec![
        "design".to_string(),
        "ADC nJ".to_string(),
        "DAC nJ".to_string(),
        "array nJ".to_string(),
        "digital nJ".to_string(),
        "total nJ".to_string(),
    ]];
    for r in &reports {
        rows.push(vec![
            r.label.clone(),
            format!("{:.3}", r.breakdown.adc.joules() * 1e9),
            format!("{:.3}", r.breakdown.dac.joules() * 1e9),
            format!("{:.3}", r.breakdown.array.joules() * 1e9),
            format!("{:.3}", r.breakdown.digital.joules() * 1e9),
            format!("{:.3}", r.total_nj),
        ]);
    }
    let record = ExperimentRecord::new(
        "FIG6A",
        "module power breakdown per conversion (all arrays active, 0 % sparsity)",
    )
    .with(
        "ADC energy reduction vs INT",
        Some(56.4),
        claims.adc_reduction_pct,
        "%",
    )
    .with(
        "INT conversion time ratio",
        Some(2.5),
        claims.int_time_ratio,
        "×",
    )
    .with("E2M5 total energy", Some(14.828), reports[0].total_nj, "nJ")
    .with("E3M4 total energy", Some(20.886), reports[1].total_nj, "nJ")
    .with("INT total energy", Some(27.716), reports[2].total_nj, "nJ");
    (record, format_table(&rows))
}

/// FIG6B — total power comparison (paper Fig. 6b), with the −46.5 %
/// E2M5-vs-INT8 claim derived.
#[must_use]
pub fn fig6b() -> (ExperimentRecord, String) {
    let reports = power::fig6a_breakdowns();
    let claims = power::fig6_claims();
    let mut rows = vec![vec![
        "design".to_string(),
        "t_conv ns".to_string(),
        "power @own rate mW".to_string(),
        "power @iso-throughput mW".to_string(),
    ]];
    for r in &reports {
        rows.push(vec![
            r.label.clone(),
            format!("{:.0}", r.t_conversion_ns),
            format!("{:.2}", r.power_own_rate_mw),
            format!("{:.2}", r.power_iso_throughput_mw),
        ]);
    }
    let record = ExperimentRecord::new("FIG6B", "total power: E2M5 vs E3M4 vs INT8")
        .with(
            "E2M5 power reduction vs INT8",
            Some(46.5),
            claims.total_reduction_pct,
            "%",
        )
        .with(
            "E2M5 power at own rate",
            Some(74.14),
            reports[0].power_own_rate_mw,
            "mW",
        )
        .with(
            "INT8 power at iso-throughput",
            None,
            reports[2].power_iso_throughput_mw,
            "mW",
        );
    (record, format_table(&rows))
}

/// Configuration of the FIG6C accuracy study.
#[derive(Debug, Clone, Copy)]
pub struct Fig6cConfig {
    /// Evaluation set size.
    pub eval_samples: usize,
    /// Calibration set size.
    pub calib_samples: usize,
    /// Input spatial size (`[3, size, size]`).
    pub image_size: usize,
    /// Pixel noise of the synthetic dataset (smaller ⇒ larger teacher
    /// margins ⇒ less quantization sensitivity).
    pub noise: f32,
    /// RNG seed.
    pub seed: u64,
    /// Independent model/dataset trials to average over (the paper's
    /// 50k-image test set plays the same variance-reduction role).
    pub trials: usize,
}

impl Default for Fig6cConfig {
    fn default() -> Self {
        Self {
            eval_samples: 160,
            calib_samples: 24,
            image_size: 16,
            noise: 0.6,
            seed: 2024,
            trials: 5,
        }
    }
}

impl Fig6cConfig {
    /// A reduced configuration for fast (debug-build) test runs.
    #[must_use]
    pub fn quick() -> Self {
        Self {
            eval_samples: 24,
            calib_samples: 8,
            image_size: 8,
            trials: 2,
            ..Self::default()
        }
    }
}

/// Per-model, per-format accuracy outcome of the FIG6C study.
#[derive(Debug, Clone)]
pub struct Fig6cOutcome {
    /// Model name.
    pub model: &'static str,
    /// Top-1 accuracy per format, in [`NumFormat::ALL_QUANTIZED`]
    /// order restricted to (INT8, E2M5, E3M4) plus FP32 first.
    pub fp32: f64,
    /// INT8 top-1.
    pub int8: f64,
    /// E2M5 top-1.
    pub e2m5: f64,
    /// E3M4 top-1.
    pub e3m4: f64,
}

/// FIG6C — PTQ Top-1 accuracy of Tiny-ResNet and Tiny-MobileNet under
/// INT8 / E3M4 / E2M5, relative to the FP32 teacher (paper Fig. 6c).
///
/// The paper reports absolute ImageNet accuracies; with the synthetic
/// teacher-labelled dataset the FP32 accuracy is 100 % by construction
/// and the quantized accuracies measure degradation directly. The
/// *shape* to reproduce: E2M5 ≥ INT8 and E2M5 ≥ E3M4 on both models.
#[must_use]
pub fn fig6c(cfg: Fig6cConfig) -> (ExperimentRecord, String, Vec<Fig6cOutcome>) {
    let shape = [3usize, cfg.image_size, cfg.image_size];
    let spec = InitSpec::heavy_tailed();

    // Trials are fully independent (each has its own seed-derived
    // model and dataset), so fan them out on the runtime worker pool.
    let engine = Engine::new(EngineConfig::default());
    let mut outcomes = Vec::new();
    for (name, kind) in [("Tiny-ResNet", 0u8), ("Tiny-MobileNet", 1u8)] {
        let trials = cfg.trials.max(1);
        let seeds: Vec<u64> = (0..trials)
            .map(|t| cfg.seed.wrapping_add(101 * t as u64))
            .collect();
        let results = engine.execute(seeds, move |trial_seed| {
            fig6c_trial(name, kind, trial_seed, &cfg, spec, &shape)
        });
        let n = trials as f64;
        let mut sums = [0.0f64; 4]; // fp32, int8, e2m5, e3m4
        for r in &results {
            for (acc, v) in sums.iter_mut().zip(r) {
                *acc += v;
            }
        }
        outcomes.push(Fig6cOutcome {
            model: name,
            fp32: sums[0] / n,
            int8: sums[1] / n,
            e2m5: sums[2] / n,
            e3m4: sums[3] / n,
        });
    }

    let mut rows = vec![vec![
        "model".to_string(),
        "FP32 %".to_string(),
        "INT8 %".to_string(),
        "E3M4 %".to_string(),
        "E2M5 %".to_string(),
    ]];
    let mut record = ExperimentRecord::new(
        "FIG6C",
        "PTQ Top-1 vs FP32 teacher: INT8 / E3M4 / E2M5 on Tiny-ResNet & Tiny-MobileNet",
    );
    for o in &outcomes {
        rows.push(vec![
            o.model.to_string(),
            format!("{:.1}", o.fp32 * 100.0),
            format!("{:.1}", o.int8 * 100.0),
            format!("{:.1}", o.e3m4 * 100.0),
            format!("{:.1}", o.e2m5 * 100.0),
        ]);
        record = record
            .with(
                &format!("{} E2M5 − INT8", o.model),
                None,
                (o.e2m5 - o.int8) * 100.0,
                "pp (paper: > 0)",
            )
            .with(
                &format!("{} E2M5 − E3M4", o.model),
                None,
                (o.e2m5 - o.e3m4) * 100.0,
                "pp (paper: > 0)",
            );
    }
    (record, format_table(&rows), outcomes)
}

/// Recenters class logits by a fixed shift. Random (untrained) teacher
/// networks have arbitrary class priors — often one class dominates
/// everywhere, leaving no decision boundaries to probe. Subtracting the
/// pool-mean logits (as a final layer shared by the FP32 teacher and
/// every quantized variant) restores the balanced priors a trained
/// network would have.
struct BiasShift {
    shift: Vec<f32>,
}

impl afpr_nn::layers::Layer for BiasShift {
    fn forward(&self, x: &afpr_nn::Tensor) -> afpr_nn::Tensor {
        let data: Vec<f32> = x
            .data()
            .iter()
            .zip(&self.shift)
            .map(|(v, s)| v + s)
            .collect();
        afpr_nn::Tensor::new(x.shape(), data)
    }

    fn name(&self) -> &'static str {
        "bias_shift"
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

/// Bisects the blend `(1−λ)a + λb` on the teacher's argmax until the
/// teacher's top-1 margin at the blend drops below `margin_target`,
/// returning an input near (but not degenerately on) the decision
/// boundary. The first-accept rule leaves margins spread over roughly
/// `[margin_target/4, margin_target]`, the band in which the formats'
/// differing logit errors translate into differing Top-1.
fn refine_boundary(
    teacher: &Sequential,
    a: &afpr_nn::Tensor,
    b: &afpr_nn::Tensor,
    margin_target: f32,
) -> afpr_nn::Tensor {
    let blend = |lambda: f32| -> afpr_nn::Tensor {
        let mut img = a.clone();
        for (va, vb) in img.data_mut().iter_mut().zip(b.data()) {
            *va = (1.0 - lambda) * *va + lambda * *vb;
        }
        img
    };
    let margin_of = |img: &afpr_nn::Tensor| -> f32 {
        let mut lg = teacher.forward(img).into_data();
        lg.sort_by(f32::total_cmp);
        lg[lg.len() - 1] - lg[lg.len() - 2]
    };
    let class_a = teacher.forward(a).argmax();
    let (mut lo, mut hi) = (0.0f32, 1.0f32);
    let mut best = blend(0.5);
    for _ in 0..8 {
        let mid = 0.5 * (lo + hi);
        let img = blend(mid);
        if margin_of(&img) <= margin_target {
            return img;
        }
        if teacher.forward(&img).argmax() == class_a {
            lo = mid;
        } else {
            hi = mid;
        }
        best = img;
    }
    best
}

/// One independent FIG6C trial: builds the seed-derived model and
/// dataset, selects/refines the boundary evaluation set, and returns
/// `[fp32, int8, e2m5, e3m4]` Top-1 accuracies.
fn fig6c_trial(
    name: &str,
    kind: u8,
    trial_seed: u64,
    cfg: &Fig6cConfig,
    spec: InitSpec,
    shape: &[usize; 3],
) -> [f64; 4] {
    // Rebuilding a model from the same per-name seed yields
    // identical weights, so each format quantizes the same network.
    let build_raw = |seed: u64| -> Sequential {
        let mut r = rng_clone(seed, name);
        if kind == 0 {
            tiny_resnet(10, spec, &mut r)
        } else {
            tiny_mobilenet(10, spec, &mut r)
        }
    };
    // Compute the prior-centering shift on a probe set (see
    // `BiasShift`), then bake it into every build.
    let probe = build_raw(trial_seed);
    let probe_pool = synthetic_images_with_boundaries(
        96,
        shape.as_slice(),
        10,
        cfg.noise,
        0.5,
        &mut rng_clone(trial_seed ^ 0x5EED, name),
    );
    let mut mean = [0.0f32; 10];
    for img in &probe_pool.images {
        for (m, l) in mean.iter_mut().zip(probe.forward(img).data()) {
            *m += l / probe_pool.len() as f32;
        }
    }
    let shift: Vec<f32> = mean.iter().map(|m| -m).collect();
    let build = |seed: u64| -> Sequential {
        let mut m = build_raw(seed);
        m.push_boxed(Box::new(BiasShift {
            shift: shift.clone(),
        }));
        m
    };
    let base = build(trial_seed);
    // Build a candidate pool (plain + boundary-blended samples),
    // teacher-label it, and keep the half of the evaluation set
    // with the smallest teacher margins: PTQ accuracy is decided at
    // the decision boundary, and a pool of only easy samples would
    // measure nothing.
    let pool_size = 3 * (cfg.eval_samples + cfg.calib_samples);
    let mut pool = synthetic_images_with_boundaries(
        pool_size,
        shape.as_slice(),
        10,
        cfg.noise,
        0.5,
        &mut rng_clone(trial_seed ^ 0xDA7A, name),
    );
    pool.relabel_with_teacher(&base);
    let mut order: Vec<usize> = (0..pool.len()).collect();
    let margins: Vec<f32> = pool
        .images
        .iter()
        .map(|img| {
            let mut logits = base.forward(img).into_data();
            logits.sort_by(f32::total_cmp);
            logits[9] - logits[8]
        })
        .collect();
    order.sort_by(|&a, &b| margins[a].total_cmp(&margins[b]));
    let hard = cfg.eval_samples / 2;
    // Half the evaluation set: bisection-refined boundary samples.
    // Blending two differently-labelled samples and bisecting on the
    // teacher's argmax yields inputs with arbitrarily small teacher
    // margins, independent of the (random) model's logit scale —
    // the regime where format quantization error decides Top-1.
    let mut images = Vec::with_capacity(cfg.eval_samples);
    let mut labels = Vec::with_capacity(cfg.eval_samples);
    // Target band: a fraction of the teacher's median natural
    // margin, self-scaling the stress test to the model's logit
    // range.
    let margin_target = {
        let mut sorted = margins.clone();
        sorted.sort_by(f32::total_cmp);
        0.8 * sorted[sorted.len() / 2]
    };
    let mut pair = 0usize;
    while images.len() < hard && pair + 1 < pool.len() {
        let a = pair;
        let b = pool.len() - 1 - pair;
        pair += 1;
        if pool.labels[a] == pool.labels[b] {
            continue;
        }
        let refined = refine_boundary(&base, &pool.images[a], &pool.images[b], margin_target);
        let label = base.forward(&refined).argmax();
        images.push(refined);
        labels.push(label);
    }
    // The other half: the pool's lowest-margin natural samples.
    for &i in order.iter().take(cfg.eval_samples - images.len()) {
        images.push(pool.images[i].clone());
        labels.push(pool.labels[i]);
    }
    let data = afpr_nn::Dataset {
        images,
        labels,
        classes: pool.classes,
    };
    // Calibration must cover the evaluated input distribution —
    // including near-boundary samples — or every format clips
    // out-of-range activations identically and the comparison is
    // meaningless. Spread calibration samples over the margin
    // spectrum and include refined boundary inputs.
    let stride = (order.len() / cfg.calib_samples.max(1)).max(1);
    let mut calib: Vec<_> = order
        .iter()
        .step_by(stride)
        .take(cfg.calib_samples)
        .map(|&i| pool.images[i].clone())
        .collect();
    calib.extend(data.images.iter().take(cfg.calib_samples / 2).cloned());

    let eval = |fmt: NumFormat| -> f64 {
        let q = QuantizedModel::calibrate(build(trial_seed), fmt, fmt, &calib);
        top1_accuracy(&mut |x| q.forward(x), &data)
    };
    [
        top1_accuracy(&mut |x| base.forward(x), &data),
        eval(NumFormat::Int8),
        eval(NumFormat::E2M5),
        eval(NumFormat::E3M4),
    ]
}

fn rng_clone(seed: u64, tag: &str) -> StdRng {
    let mut h = seed;
    for b in tag.bytes() {
        h = h.wrapping_mul(0x100_0000_01B3).wrapping_add(u64::from(b));
    }
    StdRng::seed_from_u64(h)
}

/// TAB1 — the macro comparison table, with the headline ratios derived
/// from the baseline component models.
#[must_use]
pub fn table1() -> (ExperimentRecord, String) {
    let table = perf::comparison_table();
    let ratios = perf::headline_ratios();
    let mut rows = vec![vec![
        "design".to_string(),
        "arch".to_string(),
        "memory".to_string(),
        "size".to_string(),
        "node nm".to_string(),
        "ADC".to_string(),
        "precision".to_string(),
        "latency µs".to_string(),
        "GOPS".to_string(),
        "TOPS/W".to_string(),
    ]];
    for r in &table {
        rows.push(vec![
            r.tag.clone(),
            r.architecture.clone(),
            r.memory.clone(),
            r.size.clone(),
            r.technology_nm.to_string(),
            r.adc.clone(),
            r.precision.clone(),
            r.latency_us.map_or("-".to_string(), |l| format!("{l:.2}")),
            format!("{:.1}", r.throughput_gops),
            format!("{:.2}", r.efficiency_tops_w),
        ]);
    }
    let afpr = &table[0];
    let record = ExperimentRecord::new("TAB1", "CIM macro comparison (Table I)")
        .with(
            "AFPR E2M5 latency",
            Some(0.2),
            afpr.latency_us.expect("computed"),
            "µs",
        )
        .with(
            "AFPR E2M5 throughput",
            Some(1474.56),
            afpr.throughput_gops,
            "GOPS",
        )
        .with(
            "AFPR E2M5 efficiency",
            Some(19.89),
            afpr.efficiency_tops_w,
            "TFLOPS/W",
        )
        .with(
            "AFPR E3M4 throughput",
            Some(1966.08),
            table[1].throughput_gops,
            "GOPS",
        )
        .with(
            "AFPR E3M4 efficiency",
            Some(14.12),
            table[1].efficiency_tops_w,
            "TFLOPS/W",
        )
        .with(
            "efficiency vs FP8 accelerator",
            Some(4.135),
            ratios.vs_fp8_accelerator,
            "×",
        )
        .with(
            "efficiency vs digital FP-CIM",
            Some(5.376),
            ratios.vs_digital_fp_cim,
            "×",
        )
        .with(
            "efficiency vs analog INT8-CIM",
            Some(2.841),
            ratios.vs_analog_int8_cim,
            "×",
        )
        .with(
            "throughput vs analog INT8-CIM",
            Some(5.382),
            ratios.throughput_vs_analog_int8,
            "×",
        );
    (record, format_table(&rows))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig5a_reproduces_paper_code() {
        let (record, csv) = fig5a();
        let adjustments = &record.measurements[0];
        assert_eq!(adjustments.measured, 2.0);
        let word = &record.measurements[3];
        assert_eq!(word.measured, f64::from(0b100_1001u32));
        assert!(csv.lines().count() > 4);
    }

    #[test]
    fn fig5b_ideal_dac_is_linear() {
        let (record, csv) = fig5b();
        let inl = &record.measurements[0];
        assert!(inl.measured < 0.1, "INL {} %", inl.measured);
        // 4 conductances × 128 codes + header.
        assert_eq!(csv.lines().count(), 4 * 128 + 1);
    }

    #[test]
    fn fig6a_claims_within_tolerance() {
        let (record, _) = fig6a();
        for m in &record.measurements {
            if let Some(dev) = m.deviation() {
                assert!(dev.abs() < 0.02, "{}: {:+.2} %", m.name, dev * 100.0);
            }
        }
    }

    #[test]
    fn fig6b_claims_within_tolerance() {
        let (record, _) = fig6b();
        for m in &record.measurements {
            if let Some(dev) = m.deviation() {
                assert!(dev.abs() < 0.02, "{}: {:+.2} %", m.name, dev * 100.0);
            }
        }
    }

    #[test]
    fn table1_within_tolerance() {
        let (record, text) = table1();
        for m in &record.measurements {
            let dev = m.deviation().expect("all TAB1 rows have paper values");
            assert!(dev.abs() < 0.03, "{}: {:+.2} %", m.name, dev * 100.0);
        }
        assert!(text.contains("Nature'22"));
    }
}
