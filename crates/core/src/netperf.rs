//! Network-level performance model: end-to-end latency, energy and
//! efficiency of a whole network mapped onto AFPR-CIM macros.
//!
//! The paper evaluates the macro in isolation (Table I); its §III-D
//! mapping rules nevertheless determine how a full network executes:
//! each convolution runs one macro conversion per output position (all
//! column tiles in parallel, row tiles summed by the routing adder),
//! and fully-connected layers run a single conversion. This module
//! rolls those rules up into a per-layer and per-network report.

use crate::mapping::tile_matrix;
use crate::sim::{reference, Plan, Step};
use afpr_circuit::energy::AdcSpec;
use afpr_circuit::units::{Joules, Seconds};
use afpr_circuit::EnergyModel;
use afpr_nn::model::Sequential;
use afpr_nn::tensor::Tensor;
use afpr_xbar::spec::{MacroMode, MacroSpec};
use serde::{Deserialize, Serialize};

/// Performance of one mapped compute layer.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LayerPerf {
    /// Layer kind (`"conv2d"` / `"linear"`).
    pub kind: String,
    /// Weight-matrix shape mapped to the crossbars, `(K, N)`.
    pub matrix: (usize, usize),
    /// Macros allocated (row tiles × column tiles).
    pub macros_used: usize,
    /// Macro conversions per inference (output positions × row tiles).
    pub conversions: u64,
    /// MAC operations per inference.
    pub macs: u64,
    /// Layer latency per inference (sequential positions, tiles in
    /// parallel).
    pub latency: Seconds,
    /// Layer energy per inference.
    pub energy: Joules,
    /// Fraction of the allocated crossbar cells holding weights.
    pub utilization: f64,
}

/// Whole-network performance report.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NetworkPerfReport {
    /// The macro mode assumed.
    pub mode_label: String,
    /// Per-layer breakdown, in execution order.
    pub layers: Vec<LayerPerf>,
    /// End-to-end latency per inference.
    pub total_latency: Seconds,
    /// Total macro energy per inference.
    pub total_energy: Joules,
    /// Total MACs per inference (compute layers only).
    pub total_macs: u64,
}

impl NetworkPerfReport {
    /// Effective throughput in GOPS (2 ops per MAC over the latency).
    #[must_use]
    pub fn effective_gops(&self) -> f64 {
        2.0 * self.total_macs as f64 / self.total_latency.seconds() / 1e9
    }

    /// Effective energy efficiency in TOPS/W.
    #[must_use]
    pub fn effective_tops_per_watt(&self) -> f64 {
        2.0 * self.total_macs as f64 / self.total_energy.joules() / 1e12
    }

    /// Total macros the network occupies (weights are resident, so
    /// macros are not shared between layers).
    #[must_use]
    pub fn total_macros(&self) -> usize {
        self.layers.iter().map(|l| l.macros_used).sum()
    }
}

/// Builds the performance report for a network in the given mode.
///
/// # Example
///
/// ```
/// use afpr_core::netperf::network_perf;
/// use afpr_nn::init::InitSpec;
/// use afpr_nn::models::tiny_mlp;
/// use afpr_xbar::spec::MacroMode;
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(0);
/// let model = tiny_mlp(16, 24, 4, InitSpec::gaussian(), &mut rng);
/// let report = network_perf(&model, MacroMode::FpE2M5, &[16]);
/// assert_eq!(report.layers.len(), 3);
/// assert!(report.effective_gops() > 0.0);
/// ```
///
/// # Panics
///
/// Panics if the model's forward pass fails on the input shape.
#[must_use]
pub fn network_perf(
    model: &Sequential,
    mode: MacroMode,
    input_shape: &[usize],
) -> NetworkPerfReport {
    let spec = MacroSpec::paper(mode);
    let energy_model = EnergyModel::paper_65nm();
    let adc_spec = match mode {
        MacroMode::FpE2M5 | MacroMode::FpE3M4 => AdcSpec::fp(&spec.fp_adc),
        MacroMode::Int8 => AdcSpec::int(&afpr_circuit::int_adc::IntAdcConfig::paper_matched()),
    };
    let t_conv = mode.conversion_time();

    let mut layers = Vec::new();
    let x = Tensor::zeros(input_shape);
    Plan::new(model).run(0, model.len(), &x, &mut |step, input| {
        let (kind, m, positions) = match *step {
            Step::Conv { conv, .. } => {
                let oh = conv.out_size(input.shape()[1]);
                let ow = conv.out_size(input.shape()[2]);
                ("conv2d", conv.as_matrix(), (oh * ow) as u64)
            }
            Step::Linear { lin, .. } => ("linear", lin.as_matrix(), 1),
            _ => return reference(step, input),
        };
        let (k, n) = (m.shape()[0], m.shape()[1]);
        let tiled = tile_matrix(&Tensor::zeros(&[k, n]), spec.rows, spec.cols);
        let conversions = positions * tiled.row_tiles as u64;
        // Per-conversion energy of each tile, sized to its geometry.
        let mut tile_energy = 0.0;
        for tile in &tiled.tiles {
            tile_energy += energy_model
                .macro_conversion_energy(&adc_spec, tile.cols(), tile.rows(), None)
                .total()
                .joules();
        }
        let cells_used = (k * n) as f64;
        let cells_allocated = (tiled.tiles.len() * spec.rows * spec.cols) as f64;
        layers.push(LayerPerf {
            kind: kind.to_string(),
            matrix: (k, n),
            macros_used: tiled.tiles.len(),
            conversions,
            macs: (k * n) as u64 * positions,
            latency: t_conv * positions as f64,
            energy: Joules::new(tile_energy * positions as f64),
            utilization: cells_used / cells_allocated,
        });
        reference(step, input)
    });

    let total_latency = layers.iter().map(|l| l.latency).sum();
    let total_energy = layers.iter().map(|l| l.energy).sum();
    let total_macs = layers.iter().map(|l| l.macs).sum();
    NetworkPerfReport {
        mode_label: mode.label().to_string(),
        layers,
        total_latency,
        total_energy,
        total_macs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use afpr_nn::init::InitSpec;
    use afpr_nn::layers::Linear;
    use afpr_nn::models::{tiny_mlp, tiny_resnet};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn mlp_report_counts_three_linears() {
        let mut rng = StdRng::seed_from_u64(0);
        let m = tiny_mlp(32, 48, 10, InitSpec::gaussian(), &mut rng);
        let r = network_perf(&m, MacroMode::FpE2M5, &[32]);
        assert_eq!(r.layers.len(), 3);
        assert!(r.layers.iter().all(|l| l.kind == "linear"));
        // Every layer fits one macro; one conversion each.
        assert_eq!(r.total_macros(), 3);
        assert!((r.total_latency.seconds() - 3.0 * 200e-9).abs() < 1e-15);
    }

    #[test]
    fn resnet_report_matches_model_macs() {
        let mut rng = StdRng::seed_from_u64(1);
        let m = tiny_resnet(10, InitSpec::gaussian(), &mut rng);
        let r = network_perf(&m, MacroMode::FpE2M5, &[3, 16, 16]);
        // 8 convs + 1 linear.
        assert_eq!(r.layers.len(), 9);
        assert_eq!(r.total_macs, m.macs(&[3, 16, 16]));
        assert!(r.total_latency.seconds() > 0.0);
        assert!(r.effective_tops_per_watt() > 0.0);
    }

    #[test]
    fn small_layers_underutilize_the_macro() {
        let mut rng = StdRng::seed_from_u64(2);
        let m = tiny_mlp(16, 16, 4, InitSpec::gaussian(), &mut rng);
        let r = network_perf(&m, MacroMode::FpE2M5, &[16]);
        for l in &r.layers {
            assert!(l.utilization < 0.01, "{:?}", l.matrix);
        }
    }

    #[test]
    fn e3m4_mode_is_faster_on_any_network() {
        let mut rng = StdRng::seed_from_u64(3);
        let m = tiny_resnet(10, InitSpec::gaussian(), &mut rng);
        let e2m5 = network_perf(&m, MacroMode::FpE2M5, &[3, 16, 16]);
        let e3m4 = network_perf(&m, MacroMode::FpE3M4, &[3, 16, 16]);
        assert!(e3m4.total_latency.seconds() < e2m5.total_latency.seconds());
    }

    #[test]
    fn e2m5_wins_efficiency_at_full_utilization() {
        // The Table I comparison assumes a fully-utilized macro; at low
        // utilization the static power share grows and E3M4's shorter
        // conversion can win instead — a genuine model insight worth
        // pinning in both directions.
        let full = Sequential::new().push(Linear::new(Tensor::zeros(&[256, 576]), vec![0.0; 256]));
        let e2m5 = network_perf(&full, MacroMode::FpE2M5, &[576]);
        let e3m4 = network_perf(&full, MacroMode::FpE3M4, &[576]);
        assert!(e2m5.effective_tops_per_watt() > e3m4.effective_tops_per_watt());
        assert!((e2m5.effective_tops_per_watt() - 19.89).abs() < 0.1);

        // Tiny layer: static share dominates, E3M4's shorter
        // conversion makes it the more efficient mode.
        let tiny = Sequential::new().push(Linear::new(Tensor::zeros(&[8, 16]), vec![0.0; 8]));
        let e2m5 = network_perf(&tiny, MacroMode::FpE2M5, &[16]);
        let e3m4 = network_perf(&tiny, MacroMode::FpE3M4, &[16]);
        assert!(e3m4.effective_tops_per_watt() > e2m5.effective_tops_per_watt());
    }

    #[test]
    fn tall_layers_tile_and_add_conversions() {
        // A 1152-input linear layer: 2 row tiles -> 2 conversions.
        let w = Tensor::zeros(&[10, 1152]);
        let m = Sequential::new().push(Linear::new(w, vec![0.0; 10]));
        let r = network_perf(&m, MacroMode::FpE2M5, &[1152]);
        assert_eq!(r.layers[0].macros_used, 2);
        assert_eq!(r.layers[0].conversions, 2);
    }
}
