//! A named network compiled onto CIM macros, ready to serve.

use std::sync::Arc;

use afpr_circuit::energy::MacroEnergyBreakdown;
use afpr_circuit::units::Joules;
use afpr_core::sim::MacroModelSim;
use afpr_nn::model::Sequential;
use afpr_nn::tensor::Tensor;
use afpr_xbar::spec::MacroSpec;
use serde::{Deserialize, Serialize};

use crate::spec::{format_wire_name, ModelSpec};

/// Why an inference request was refused. Maps onto the wire tier's
/// structured errors: [`InferError::UnknownModel`] is a 404, everything
/// else a 400 — never a panic, whatever the input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InferError {
    /// The model name is not in the zoo.
    UnknownModel(String),
    /// The format string is not `e2m5`/`e3m4`/`int8`.
    UnknownFormat(String),
    /// The input length does not match the layer range's expected
    /// activation length (`expected`, `got`).
    BadInput {
        /// Flat activation length the range expects.
        expected: usize,
        /// Flat length the request supplied.
        got: usize,
    },
    /// The layer range is empty or out of bounds (`start`, `end`,
    /// `layers`).
    BadLayerRange {
        /// Requested range start (inclusive).
        start: usize,
        /// Requested range end (exclusive).
        end: usize,
        /// Number of top-level layers in the model.
        layers: usize,
    },
}

impl std::fmt::Display for InferError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            InferError::UnknownModel(m) => write!(f, "unknown model {m:?}"),
            InferError::UnknownFormat(s) => write!(f, "unknown format {s:?}"),
            InferError::BadInput { expected, got } => {
                write!(f, "input length {got} != expected {expected}")
            }
            InferError::BadLayerRange { start, end, layers } => {
                write!(
                    f,
                    "layer range [{start}, {end}) invalid for {layers} layers"
                )
            }
        }
    }
}

impl std::error::Error for InferError {}

/// Static + live facts about one registry entry, serializable for
/// `HealthInfo` / metrics snapshots. Static fields (shape, layers,
/// footprint estimates) are filled even for never-loaded models so
/// clients and routers can validate and plan without forcing a load.
#[derive(Debug, Clone, Serialize, Deserialize, PartialEq)]
pub struct ModelEntrySnapshot {
    /// Model wire name (`tiny-resnet`…).
    pub model: String,
    /// Format wire name (`e2m5`…).
    pub format: String,
    /// Top-level layer count (pipeline stage-boundary granularity).
    pub layers: u64,
    /// Flat input length of a full-network inference.
    pub input_len: u64,
    /// Flat output length (class count).
    pub output_len: u64,
    /// Whether the compiled model is currently resident.
    pub resident: bool,
    /// Times this entry was loaded (first load + re-loads after
    /// eviction), whether compiled or copied from its template.
    pub loads: u64,
    /// Times this entry was LRU-evicted.
    pub evictions: u64,
    /// Full and partial (`layer_start`/`layer_end`) inferences served.
    pub infers: u64,
    /// CIM macros the compiled model occupies (0 until first load).
    pub macros: u64,
    /// FP32 weight footprint in bytes (0 until first load).
    pub weight_bytes: u64,
}

/// Cumulative analog + digital energy attributable to one compiled
/// model (or, summed, to a whole registry): the per-module analog
/// breakdown across its macros, the digital adder-tree energy, and the
/// ADC conversion count.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ModelEnergy {
    /// Per-module analog breakdown (ADC / DAC / array / digital).
    pub breakdown: MacroEnergyBreakdown,
    /// Digital adder-tree energy.
    pub adder: Joules,
    /// ADC conversions performed.
    pub conversions: u64,
}

impl std::ops::AddAssign for ModelEnergy {
    fn add_assign(&mut self, rhs: Self) {
        self.breakdown += rhs.breakdown;
        self.adder = Joules::new(self.adder.joules() + rhs.adder.joules());
        self.conversions += rhs.conversions;
    }
}

/// One network compiled onto CIM macros: the FP32 reference
/// [`Sequential`], its [`MacroModelSim`], and the activation shape at
/// every top-level layer boundary (for streaming validation).
///
/// A clone is an independent model: it shares the immutable FP32
/// network and the warm conductance snapshots, and copies everything
/// serving mutates (macro RNG states, counters, scratch). A clone of a
/// never-served model therefore serves bit-identically to a fresh
/// [`load`](Self::load) of the same spec, and builds no kernel.
#[derive(Clone)]
pub struct CompiledModel {
    spec: ModelSpec,
    model: Arc<Sequential>,
    sim: MacroModelSim,
    /// `boundary_shapes[i]` is the activation shape *entering*
    /// top-level layer `i`; the final entry is the output shape
    /// (`len() == layers + 1`).
    boundary_shapes: Vec<Vec<usize>>,
    weight_bytes: u64,
}

impl CompiledModel {
    /// Macro rows/cols used for every served model: small enough that a
    /// multi-model registry stays fast in tests, large enough that the
    /// zoo's widest layer tiles in a handful of macros.
    pub const MACRO_ROWS: usize = 64;
    /// See [`Self::MACRO_ROWS`].
    pub const MACRO_COLS: usize = 32;

    /// Builds the FP32 network from the spec's seed, compiles it onto
    /// macros in the spec's numeric format, calibrates ADC ranges with
    /// deterministic probe samples, and warms every conductance kernel
    /// so the first inference runs at steady-state speed.
    #[must_use]
    pub fn load(spec: ModelSpec) -> Self {
        let mut model = spec.kind.build(spec.seed);
        let mut params = 0u64;
        afpr_nn::layers::Layer::for_each_weight(&mut model, &mut |w| {
            params += w.len() as u64;
        });
        let macro_spec = MacroSpec::small(Self::MACRO_ROWS, Self::MACRO_COLS, spec.mode);
        let mut sim = MacroModelSim::compile_with_spec(&model, macro_spec, spec.seed);
        let samples: Vec<Tensor> = (0..3)
            .map(|s| {
                Tensor::from_fn(spec.kind.input_shape(), |idx| {
                    let flat: usize = idx.iter().sum();
                    ((flat + 3 * s) as f32 * 0.37).sin()
                })
            })
            .collect();
        sim.calibrate(&model, &samples);
        // Record the activation shape at every top-level boundary via
        // one FP32 zero pass (shapes are input-value independent).
        let mut boundary_shapes = Vec::with_capacity(model.len() + 1);
        let mut cur = Tensor::zeros(spec.kind.input_shape());
        boundary_shapes.push(cur.shape().to_vec());
        for layer in model.layers() {
            cur = layer.forward(&cur);
            boundary_shapes.push(cur.shape().to_vec());
        }
        Self {
            spec,
            model: Arc::new(model),
            sim,
            boundary_shapes,
            weight_bytes: params * 4,
        }
    }

    /// The identity this model was compiled from.
    #[must_use]
    pub fn spec(&self) -> ModelSpec {
        self.spec
    }

    /// Number of top-level layers.
    #[must_use]
    pub fn layers(&self) -> usize {
        self.model.len()
    }

    /// Flat activation length entering top-level layer `start`
    /// (`start == layers` gives the output length).
    ///
    /// # Panics
    ///
    /// Panics if `start > layers`.
    #[must_use]
    pub fn activation_len(&self, start: usize) -> usize {
        self.boundary_shapes[start].iter().product()
    }

    /// Activation shape entering top-level layer `start`.
    ///
    /// # Panics
    ///
    /// Panics if `start > layers`.
    #[must_use]
    pub fn activation_shape(&self, start: usize) -> &[usize] {
        &self.boundary_shapes[start]
    }

    /// CIM macros this model occupies.
    #[must_use]
    pub fn macro_count(&self) -> usize {
        self.sim.accelerator().macro_count()
    }

    /// FP32 weight footprint in bytes (weights + biases).
    #[must_use]
    pub fn weight_bytes(&self) -> u64 {
        self.weight_bytes
    }

    /// Cumulative energy this compiled model has spent serving
    /// inferences (zero right after load: warming is a pure read).
    #[must_use]
    pub fn energy(&self) -> ModelEnergy {
        let accel = self.sim.accelerator();
        let stats = accel.stats();
        ModelEnergy {
            breakdown: stats.energy,
            adder: accel.adder_energy(),
            conversions: stats.conversions,
        }
    }

    /// Cumulative conductance-kernel builds across the model's macros
    /// (≥ 2 per macro after [`load`](Self::load), since warming builds
    /// both differential arrays). A clone starts at its source's
    /// count.
    #[must_use]
    pub fn kernel_builds(&self) -> u64 {
        self.sim.accelerator().kernel_builds()
    }

    /// Full forward pass on macros.
    ///
    /// # Errors
    ///
    /// [`InferError::BadInput`] when `input.len()` is not the model's
    /// input length.
    pub fn infer(&mut self, input: &[f32]) -> Result<Vec<f32>, InferError> {
        self.infer_range(input, 0, self.layers())
    }

    /// Forward pass over top-level layers `[start, end)` — the
    /// pipeline-stage primitive. Bit-identical composition: streaming
    /// `[0, a)` into `[a, layers)` equals the full pass on the same
    /// compiled macros (see the crate docs' determinism contract).
    ///
    /// # Errors
    ///
    /// [`InferError::BadLayerRange`] for an empty/out-of-bounds range,
    /// [`InferError::BadInput`] when `input.len()` is not the
    /// activation length entering layer `start`.
    pub fn infer_range(
        &mut self,
        input: &[f32],
        start: usize,
        end: usize,
    ) -> Result<Vec<f32>, InferError> {
        let layers = self.layers();
        if start >= end || end > layers {
            return Err(InferError::BadLayerRange { start, end, layers });
        }
        let expected = self.activation_len(start);
        if input.len() != expected {
            return Err(InferError::BadInput {
                expected,
                got: input.len(),
            });
        }
        let shape = self.boundary_shapes[start].clone();
        let x = Tensor::new(&shape, input.to_vec());
        let y = self.sim.forward_layers(&self.model, &x, start, end);
        Ok(y.data().to_vec())
    }

    /// A snapshot of the static + footprint facts (live counters are
    /// the registry's responsibility).
    #[must_use]
    pub fn entry_snapshot(&self) -> ModelEntrySnapshot {
        ModelEntrySnapshot {
            model: self.spec.kind.wire_name().to_string(),
            format: format_wire_name(self.spec.mode).to_string(),
            layers: self.layers() as u64,
            input_len: self.spec.kind.input_len() as u64,
            output_len: self.spec.kind.classes() as u64,
            resident: true,
            loads: 0,
            evictions: 0,
            infers: 0,
            macros: self.macro_count() as u64,
            weight_bytes: self.weight_bytes(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{ModelKind, ALL_FORMATS};

    fn probe(len: usize) -> Vec<f32> {
        (0..len).map(|i| ((i as f32) * 0.29).sin()).collect()
    }

    #[test]
    fn load_infer_and_shapes_for_every_kind_and_format() {
        for kind in ModelKind::ALL {
            let spec = ModelSpec::new(kind, ALL_FORMATS[0], 5);
            let mut m = CompiledModel::load(spec);
            assert_eq!(m.layers(), kind.layers());
            assert_eq!(m.activation_len(0), kind.input_len());
            assert_eq!(m.activation_len(m.layers()), kind.classes());
            assert!(m.macro_count() > 0);
            assert!(m.weight_bytes() > 0);
            let y = m.infer(&probe(kind.input_len())).unwrap();
            assert_eq!(y.len(), kind.classes());
        }
    }

    #[test]
    fn same_spec_is_bit_identical_formats_differ() {
        let x = probe(ModelKind::TinyMlp.input_len());
        let mut outs = Vec::new();
        for mode in ALL_FORMATS {
            let spec = ModelSpec::new(ModelKind::TinyMlp, mode, 9);
            let ya = CompiledModel::load(spec).infer(&x).unwrap();
            let yb = CompiledModel::load(spec).infer(&x).unwrap();
            for (a, b) in ya.iter().zip(&yb) {
                assert_eq!(a.to_bits(), b.to_bits(), "same spec ⇒ same bits");
            }
            outs.push(ya);
        }
        assert!(
            outs[0] != outs[1] || outs[0] != outs[2],
            "different ADC formats should quantize differently"
        );
    }

    #[test]
    fn range_streaming_matches_full_pass() {
        let spec = ModelSpec::new(ModelKind::TinyMlp, ALL_FORMATS[1], 3);
        let mut m = CompiledModel::load(spec);
        let x = probe(m.activation_len(0));
        let full = m.infer(&x).unwrap();
        for split in 1..m.layers() {
            let mid = m.infer_range(&x, 0, split).unwrap();
            assert_eq!(mid.len(), m.activation_len(split));
            let out = m.infer_range(&mid, split, m.layers()).unwrap();
            for (a, b) in out.iter().zip(&full) {
                assert_eq!(a.to_bits(), b.to_bits(), "split at {split}");
            }
        }
    }

    #[test]
    fn hostile_inputs_error_never_panic() {
        let spec = ModelSpec::new(ModelKind::TinyMlp, ALL_FORMATS[0], 1);
        let mut m = CompiledModel::load(spec);
        assert!(matches!(
            m.infer(&[]),
            Err(InferError::BadInput {
                expected: 8,
                got: 0
            })
        ));
        assert!(matches!(
            m.infer(&probe(9)),
            Err(InferError::BadInput {
                expected: 8,
                got: 9
            })
        ));
        let n = m.layers();
        assert!(matches!(
            m.infer_range(&probe(8), 2, 2),
            Err(InferError::BadLayerRange { .. })
        ));
        assert!(matches!(
            m.infer_range(&probe(8), 0, n + 1),
            Err(InferError::BadLayerRange { .. })
        ));
        assert!(matches!(
            m.infer_range(&probe(8), 3, 1),
            Err(InferError::BadLayerRange { .. })
        ));
    }
}
