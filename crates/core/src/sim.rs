//! The macro-model network simulator (paper §IV-D): runs a neural
//! network with its convolution / fully-connected layers executed on
//! the behavioral CIM macros, so every circuit non-linearity (ADC
//! quantization, range saturation/underflow, device variation, DAC
//! mismatch) flows into the network's accuracy.
//!
//! The layer tree is walked by downcast in one place, [`Plan::new`],
//! which flattens it into a list of [`Step`]s: compute layers
//! ([`Conv2d`]/[`Linear`]) become tile steps that run on macros;
//! everything else (pooling, activations, depthwise convolutions) runs
//! on the digital processing unit, as it would in the real system;
//! residual blocks become `Fork`/`Shortcut`/`Join` steps around their
//! branches. Compiling, calibration, the forward pass and the
//! network performance model all run that one list.

use crate::accelerator::{AfprAccelerator, LayerHandle};
use crate::dpu::Dpu;
use crate::resilience::{ChaosConfig, ChaosController, ChaosStats};
use afpr_nn::layers::{Conv2d, Layer, Linear};
use afpr_nn::model::{ResidualBlock, Sequential};
use afpr_nn::tensor::Tensor;
use afpr_xbar::spec::{MacroMode, MacroSpec};

/// One step of a [`Plan`]. A step's index in the plan is its id.
pub(crate) enum Step<'m> {
    /// A convolution on macros; `tile` indexes the layer handles in
    /// plan order.
    Conv { tile: usize, conv: &'m Conv2d },
    /// A fully-connected layer on macros.
    Linear { tile: usize, lin: &'m Linear },
    /// A layer the DPU runs (activation, pooling, flatten…).
    Dpu(&'m dyn Layer),
    /// Residual block entry: keep the block input.
    Fork,
    /// Main branch done: keep its output and restart from the block
    /// input (an identity shortcut has no steps of its own).
    Shortcut,
    /// Residual add of the main and shortcut outputs, then ReLU.
    Join,
}

/// A model's layer tree flattened into execution order.
pub(crate) struct Plan<'m> {
    /// The steps, in execution order.
    pub(crate) steps: Vec<Step<'m>>,
    /// `starts[i]` is the first step of top-level layer `i`;
    /// `starts[model.len()]` is `steps.len()`.
    starts: Vec<usize>,
    /// Number of tile steps.
    tiles: usize,
}

impl<'m> Plan<'m> {
    /// The one downcast walk of the layer tree.
    pub(crate) fn new(model: &'m Sequential) -> Self {
        let mut plan = Plan {
            steps: Vec::with_capacity(model.len()),
            starts: Vec::with_capacity(model.len() + 1),
            tiles: 0,
        };
        for layer in model.layers() {
            plan.starts.push(plan.steps.len());
            plan.push(layer.as_ref());
        }
        plan.starts.push(plan.steps.len());
        plan
    }

    fn push(&mut self, layer: &'m dyn Layer) {
        let any = layer.as_any();
        if let Some(conv) = any.downcast_ref::<Conv2d>() {
            self.steps.push(Step::Conv {
                tile: self.tiles,
                conv,
            });
            self.tiles += 1;
        } else if let Some(lin) = any.downcast_ref::<Linear>() {
            self.steps.push(Step::Linear {
                tile: self.tiles,
                lin,
            });
            self.tiles += 1;
        } else if let Some(seq) = any.downcast_ref::<Sequential>() {
            self.push_all(seq);
        } else if let Some(block) = any.downcast_ref::<ResidualBlock>() {
            self.steps.push(Step::Fork);
            self.push_all(block.main());
            self.steps.push(Step::Shortcut);
            if let Some(shortcut) = block.shortcut() {
                self.push_all(shortcut);
            }
            self.steps.push(Step::Join);
        } else {
            self.steps.push(Step::Dpu(layer));
        }
    }

    fn push_all(&mut self, seq: &'m Sequential) {
        for layer in seq.layers() {
            self.push(layer.as_ref());
        }
    }

    /// Runs the steps of top-level layers `[start, end)` on `x`. The
    /// residual structure runs here; `exec` runs every tile and DPU
    /// step, and the ReLU of each `Join` on the residual sum.
    pub(crate) fn run(
        &self,
        start: usize,
        end: usize,
        x: &Tensor,
        exec: &mut dyn FnMut(&Step<'m>, Tensor) -> Tensor,
    ) -> Tensor {
        let mut cur = x.clone();
        let mut stack = Vec::new();
        for step in &self.steps[self.starts[start]..self.starts[end]] {
            cur = match step {
                Step::Fork => {
                    stack.push(cur.clone());
                    cur
                }
                Step::Shortcut => {
                    let input = stack.pop().expect("a fork precedes its shortcut");
                    stack.push(cur);
                    input
                }
                Step::Join => {
                    let main = stack.pop().expect("a fork precedes its join");
                    exec(step, main.add(&cur))
                }
                _ => exec(step, cur),
            };
        }
        cur
    }
}

/// The FP32 meaning of a tile, DPU or `Join` step: what calibration
/// and the performance model propagate between layers.
pub(crate) fn reference(step: &Step<'_>, x: Tensor) -> Tensor {
    match *step {
        Step::Conv { conv, .. } => conv.forward(&x),
        Step::Linear { lin, .. } => lin.forward(&x),
        Step::Dpu(layer) => layer.forward(&x),
        Step::Join => x.map(|v| v.max(0.0)),
        Step::Fork | Step::Shortcut => unreachable!("structure steps run in Plan::run"),
    }
}

/// A model compiled onto CIM macros.
///
/// # Example
///
/// ```
/// use afpr_core::sim::MacroModelSim;
/// use afpr_nn::init::InitSpec;
/// use afpr_nn::models::tiny_mlp;
/// use afpr_nn::tensor::Tensor;
/// use afpr_xbar::spec::MacroMode;
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(0);
/// let model = tiny_mlp(8, 16, 4, InitSpec::gaussian(), &mut rng);
/// let mut sim = MacroModelSim::compile(&model, MacroMode::FpE2M5, 1);
/// let x = Tensor::new(&[8], vec![0.25; 8]);
/// sim.calibrate(&model, std::slice::from_ref(&x));
/// let y = sim.forward(&model, &x);
/// assert_eq!(y.shape(), &[4]);
/// ```
///
/// Cloning copies the accelerator (see [`AfprAccelerator`]), the DPU
/// counters and any attached chaos controller, RNG included.
#[derive(Clone)]
pub struct MacroModelSim {
    accel: AfprAccelerator,
    /// One handle per tile step, in plan order.
    handles: Vec<LayerHandle>,
    dpu: Dpu,
    /// Live fault environment: when set, every forward pass ticks the
    /// controller (injection / drift / scrub) before executing.
    chaos: Option<ChaosController>,
}

impl MacroModelSim {
    /// Maps every Conv2d/Linear layer of `model` onto macros.
    #[must_use]
    pub fn compile(model: &Sequential, mode: MacroMode, seed: u64) -> Self {
        Self::compile_with_spec(model, MacroSpec::paper(mode), seed)
    }

    /// Maps with a custom base macro spec (e.g. realistic
    /// non-idealities).
    #[must_use]
    pub fn compile_with_spec(model: &Sequential, spec: MacroSpec, seed: u64) -> Self {
        let mut accel = AfprAccelerator::with_spec(spec, seed);
        let handles = Plan::new(model)
            .steps
            .iter()
            .filter_map(|step| match *step {
                Step::Conv { conv, .. } => Some(accel.map_matrix(&conv.as_matrix())),
                Step::Linear { lin, .. } => Some(accel.map_matrix(&lin.as_matrix())),
                _ => None,
            })
            .collect();
        // Build every array's conductance-snapshot kernel up front so
        // the first forward pass is as fast as the steady state (the
        // snapshot is a pure function of the freshly programmed cells;
        // warming changes no result bits).
        accel.warm_kernel();
        Self {
            accel,
            handles,
            dpu: Dpu::new(),
            chaos: None,
        }
    }

    /// Attaches a live fault environment: every [`forward`](Self::forward)
    /// call first ticks the chaos controller (fault injection, drift
    /// stepping, scrub/repair per the config's cadences).
    ///
    /// Chaos draws only from its own seeded RNG; with a zero fault
    /// rate and zero drift step the sim stays bit-identical to one
    /// without chaos attached.
    #[must_use]
    pub fn with_chaos(mut self, cfg: ChaosConfig) -> Self {
        self.chaos = Some(ChaosController::new(cfg));
        self
    }

    /// Detaches the chaos controller, returning it if one was set.
    pub fn take_chaos(&mut self) -> Option<ChaosController> {
        self.chaos.take()
    }

    /// Cumulative chaos accounting, if a controller is attached.
    #[must_use]
    pub fn chaos_stats(&self) -> Option<&ChaosStats> {
        self.chaos.as_ref().map(ChaosController::stats)
    }

    /// Ticks the attached chaos controller once (no-op without one).
    /// Called automatically at the start of every forward pass; exposed
    /// for harnesses that drive the accelerator directly.
    pub fn chaos_tick(&mut self) -> Option<afpr_xbar::ScrubReport> {
        match &mut self.chaos {
            Some(ctl) => ctl.tick(&mut self.accel),
            None => None,
        }
    }

    /// The underlying accelerator (stats, energy…).
    #[must_use]
    pub fn accelerator(&self) -> &AfprAccelerator {
        &self.accel
    }

    /// The digital processing unit counters.
    #[must_use]
    pub fn dpu(&self) -> &Dpu {
        &self.dpu
    }

    /// The plan of `model`, checked against the compiled handles.
    fn plan<'m>(&self, model: &'m Sequential) -> Plan<'m> {
        let plan = Plan::new(model);
        assert_eq!(plan.tiles, self.handles.len(), "traversal mismatch");
        plan
    }

    /// Calibrates every mapped layer's ADC range by propagating the
    /// calibration samples through the FP32 model and handing each
    /// compute layer its observed inputs.
    ///
    /// # Panics
    ///
    /// Panics if `model` is not the model this sim was compiled from
    /// (traversal mismatch).
    pub fn calibrate(&mut self, model: &Sequential, samples: &[Tensor]) {
        let plan = self.plan(model);
        let mut layer_inputs: Vec<Vec<Vec<f32>>> = vec![Vec::new(); self.handles.len()];
        for sample in samples {
            plan.run(0, model.len(), sample, &mut |step, x| {
                match *step {
                    Step::Conv { tile, conv } => {
                        let cols = conv.im2col(&x);
                        let [k, positions]: [usize; 2] = cols.shape().try_into().expect("2-D");
                        // Sample a handful of patch columns for range
                        // calibration.
                        for p in (0..positions).step_by((positions / 4).max(1)) {
                            layer_inputs[tile].push((0..k).map(|r| cols.get(&[r, p])).collect());
                        }
                    }
                    Step::Linear { tile, .. } => layer_inputs[tile].push(x.data().to_vec()),
                    _ => {}
                }
                reference(step, x)
            });
        }
        for (handle, inputs) in self.handles.iter().zip(&layer_inputs) {
            self.accel.calibrate_layer(*handle, inputs);
        }
    }

    /// Hardware-in-the-loop forward pass.
    ///
    /// # Panics
    ///
    /// Panics if `model` is not the model this sim was compiled from.
    pub fn forward(&mut self, model: &Sequential, x: &Tensor) -> Tensor {
        self.forward_layers(model, x, 0, model.len())
    }

    /// Hardware-in-the-loop forward over the top-level layer range
    /// `[start, end)` — the pipeline-parallel building block: running
    /// `forward_layers(x, 0, a)` and feeding the result into
    /// `forward_layers(·, a, model.len())` is bit-identical to
    /// [`forward`](Self::forward), because the read path draws no
    /// randomness and the activation tensor is materialized between
    /// top-level layers either way.
    ///
    /// # Panics
    ///
    /// Panics if `model` is not the model this sim was compiled from,
    /// or if `start > end` or `end > model.len()`.
    pub fn forward_layers(
        &mut self,
        model: &Sequential,
        x: &Tensor,
        start: usize,
        end: usize,
    ) -> Tensor {
        assert!(start <= end && end <= model.len(), "bad layer range");
        let _ = self.chaos_tick();
        let plan = self.plan(model);
        let (accel, handles, dpu) = (&mut self.accel, &self.handles, &mut self.dpu);
        plan.run(start, end, x, &mut |step, mut x| match *step {
            Step::Conv { tile, conv } => {
                let cols = conv.im2col(&x);
                let [k, positions]: [usize; 2] = cols.shape().try_into().expect("2-D");
                let (oh, ow) = (conv.out_size(x.shape()[1]), conv.out_size(x.shape()[2]));
                let mut out = Tensor::zeros(&[conv.weight().shape()[0], oh, ow]);
                let patches: Vec<Vec<f32>> = (0..positions)
                    .map(|p| (0..k).map(|r| cols.get(&[r, p])).collect())
                    .collect();
                let ys = accel.matvec_batch(handles[tile], &patches);
                for (p, mut y) in ys.into_iter().enumerate() {
                    dpu.add_bias(&mut y, conv.bias());
                    for (o, v) in y.iter().enumerate() {
                        out.data_mut()[o * oh * ow + p] = *v;
                    }
                }
                out
            }
            Step::Linear { tile, lin } => {
                let mut y = accel.matvec(handles[tile], x.data());
                dpu.add_bias(&mut y, lin.bias());
                Tensor::new(&[y.len()], y)
            }
            // Activation / pooling / normalization run on the DPU
            // (paper §III-A: "performed by an activation or pooling
            // operation through an intermediate digital processing
            // unit"); account one DPU op per produced element.
            Step::Dpu(layer) => {
                let out = layer.forward(&x);
                dpu.count_passthrough(out.len());
                out
            }
            Step::Join => {
                dpu.relu(x.data_mut());
                x
            }
            Step::Fork | Step::Shortcut => unreachable!("structure steps run in Plan::run"),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use afpr_nn::init::InitSpec;
    use afpr_nn::layers::{Conv2d, Flatten, GlobalAvgPool, Relu};
    use afpr_nn::models::tiny_mlp;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn mlp_on_macros_tracks_fp32() {
        let mut rng = StdRng::seed_from_u64(4);
        let model = tiny_mlp(8, 12, 4, InitSpec::gaussian(), &mut rng);
        let samples: Vec<Tensor> = (0..4)
            .map(|s| Tensor::from_fn(&[8], |i| ((i[0] + s) as f32 * 0.63).sin()))
            .collect();
        let mut sim = MacroModelSim::compile(&model, MacroMode::FpE2M5, 11);
        sim.calibrate(&model, &samples);
        for x in &samples {
            let hw = sim.forward(&model, x);
            let sw = model.forward(x);
            for (h, s) in hw.data().iter().zip(sw.data()) {
                assert!((h - s).abs() < 0.3 * s.abs().max(1.0), "hw {h} sw {s}");
            }
        }
    }

    #[test]
    fn conv_net_on_macros_runs_and_accounts() {
        let mut rng = StdRng::seed_from_u64(5);
        let w = Tensor::new(
            &[4, 2, 3, 3],
            afpr_nn::init::he_weights(72, 18, InitSpec::gaussian(), &mut rng),
        );
        let model = Sequential::new()
            .push(Conv2d::new(w, vec![0.0; 4], 1, 1))
            .push(Relu)
            .push(GlobalAvgPool)
            .push(Flatten);
        let x = Tensor::from_fn(&[2, 6, 6], |i| ((i[1] * 6 + i[2]) as f32 * 0.21).sin());
        let mut sim = MacroModelSim::compile(&model, MacroMode::FpE2M5, 3);
        sim.calibrate(&model, std::slice::from_ref(&x));
        let hw = sim.forward(&model, &x);
        let sw = model.forward(&x);
        assert_eq!(hw.shape(), sw.shape());
        for (h, s) in hw.data().iter().zip(sw.data()) {
            assert!((h - s).abs() < 0.3 * s.abs().max(0.5), "hw {h} sw {s}");
        }
        // 36 output positions, one macro conversion each.
        assert_eq!(sim.accelerator().stats().conversions, 36);
        assert!(sim.dpu().ops() > 0);
    }

    #[test]
    fn forward_layers_split_is_bit_identical() {
        let mut rng = StdRng::seed_from_u64(17);
        let model = afpr_nn::models::tiny_resnet(3, InitSpec::gaussian(), &mut rng);
        let x = Tensor::from_fn(&[3, 16, 16], |i| {
            ((i[0] + 2 * i[1] + i[2]) as f32 * 0.11).cos()
        });
        let mut sim = MacroModelSim::compile(&model, MacroMode::FpE2M5, 21);
        sim.calibrate(&model, std::slice::from_ref(&x));
        let full = sim.forward(&model, &x);
        for split in 1..model.len() {
            let mid = sim.forward_layers(&model, &x, 0, split);
            let out = sim.forward_layers(&model, &mid, split, model.len());
            assert_eq!(out.shape(), full.shape());
            for (a, b) in out.data().iter().zip(full.data()) {
                assert_eq!(a.to_bits(), b.to_bits(), "split at {split}");
            }
        }
    }

    #[test]
    fn residual_models_traverse_consistently() {
        let mut rng = StdRng::seed_from_u64(6);
        let model = afpr_nn::models::tiny_resnet(3, InitSpec::gaussian(), &mut rng);
        let x = Tensor::from_fn(&[3, 16, 16], |i| ((i[0] + i[1] + i[2]) as f32 * 0.13).sin());
        let mut sim = MacroModelSim::compile(&model, MacroMode::FpE2M5, 9);
        // 8 convs (stem + 2+2+2 block mains + 1 projection shortcut)
        // + 1 linear head = 9 compute layers.
        assert_eq!(sim.handles.len(), 9);
        sim.calibrate(&model, std::slice::from_ref(&x));
        let y = sim.forward(&model, &x);
        assert_eq!(y.shape(), &[3]);
    }
}
