//! The capacity-bounded, thread-safe model registry.
//!
//! Keys are `(model, format)` pairs; the key universe is static
//! ([`ModelKind::ALL`] × [`crate::spec::ALL_FORMATS`]), so the registry
//! pre-creates one entry per pair and statistics survive eviction.
//!
//! Loads and templates: a compile is a pure function of the key and
//! the registry seed, so a key is compiled at most twice. Its first
//! load compiles. Its first re-load after an eviction compiles again
//! and keeps a never-served clone of the result as the key's
//! *template*; every later load clones the template, which copies the
//! programmed cells, RNG states and calibrated ranges and shares the
//! warm conductance snapshots. A registry whose working set fits its
//! capacity never re-loads, so it keeps no template.
//!
//! Locking protocol (deadlock-free by construction):
//! 1. the `inner` mutex guards only registry *state* and is never held
//!    across a compile, a template copy or an inference;
//! 2. each resident model sits behind its own mutex, locked only after
//!    `inner` is released; templates have no mutex, as nothing mutates
//!    them;
//! 3. loads in progress are marked `Loading` and announced on a condvar
//!    so concurrent users of the same key wait instead of loading
//!    twice — and never observe a half-compiled model.

use std::sync::Arc;

use parking_lot::{Condvar, Mutex};
use serde::{Deserialize, Serialize};

use crate::compiled::{CompiledModel, InferError, ModelEnergy, ModelEntrySnapshot};
use crate::spec::{format_from_wire, format_wire_name, ModelKind, ModelSpec, ALL_FORMATS};

/// Registry tuning.
#[derive(Debug, Clone, Copy)]
pub struct RegistryConfig {
    /// Maximum number of resident compiled models; loading one more
    /// LRU-evicts the coldest. Clamped to ≥ 1. Each key re-loaded after
    /// an eviction also keeps one never-served template (see the
    /// [module docs](self)), so a registry that churns holds up to
    /// `capacity` serving models plus one template per churned key.
    pub capacity: usize,
    /// Weight/macro-programming seed shared by every model the
    /// registry compiles — two registries with equal seeds hold
    /// bit-identical models (the pipeline tier's foundation).
    pub seed: u64,
}

impl Default for RegistryConfig {
    fn default() -> Self {
        Self {
            capacity: 4,
            seed: 2024,
        }
    }
}

impl RegistryConfig {
    /// Config with an explicit capacity and seed.
    #[must_use]
    pub fn new(capacity: usize, seed: u64) -> Self {
        Self { capacity, seed }
    }
}

/// Wire-compat module: deserializes a missing (`null`) field as `0`,
/// so snapshots emitted before the field existed still parse.
mod u64_zero {
    use serde::{de, Deserializer, Serialize, Serializer, Value};

    pub fn serialize<S: Serializer>(v: &u64, s: S) -> Result<S::Ok, S::Error> {
        v.serialize(s)
    }

    pub fn deserialize<'de, D: Deserializer<'de>>(d: D) -> Result<u64, D::Error> {
        match d.take_value()? {
            Value::Null => Ok(0),
            other => serde::de::from_value(other)
                .map_err(|e| <D::Error as de::Error>::custom(e.to_string())),
        }
    }
}

/// Serializable registry state for `ServeMetrics` / `HealthInfo`.
#[derive(Debug, Clone, Serialize, Deserialize, PartialEq)]
pub struct RegistrySnapshot {
    /// Resident-model capacity.
    pub capacity: u64,
    /// Currently resident models.
    pub resident: u64,
    /// Total loads (first loads + re-loads after eviction).
    pub loads: u64,
    /// Loads that ran the compiler: each key's first load and first
    /// re-load. `loads - compiles` loads were copied from a template.
    /// Absent in older snapshots, where it reads as 0.
    #[serde(with = "u64_zero")]
    pub compiles: u64,
    /// Total LRU evictions.
    pub evictions: u64,
    /// Total conductance-kernel builds performed by loads (monotone;
    /// grows on every compile, proving kernels are re-warmed; a
    /// template copy carries warm kernels and builds none).
    pub kernel_builds: u64,
    /// One entry per `(model, format)` pair, including never-loaded
    /// ones (static shape facts are always filled).
    pub models: Vec<ModelEntrySnapshot>,
}

enum Slot {
    Unloaded,
    Loading,
    Ready(Arc<Mutex<CompiledModel>>),
}

struct Entry {
    kind: ModelKind,
    mode: afpr_xbar::spec::MacroMode,
    slot: Slot,
    /// Never-served clone of the key's first re-load; later loads copy
    /// it. Never handed out and never mutated.
    template: Option<Arc<CompiledModel>>,
    loads: u64,
    evictions: u64,
    infers: u64,
    /// Footprint facts, filled on first load and kept after eviction.
    macros: u64,
    weight_bytes: u64,
}

struct Inner {
    entries: Vec<Entry>,
    /// Indexes of resident (`Ready`) entries, least-recently-used
    /// first.
    lru: Vec<usize>,
    loads: u64,
    compiles: u64,
    evictions: u64,
    kernel_builds: u64,
}

/// The thread-safe model registry. See the [module docs](self) for the
/// locking protocol.
pub struct ModelRegistry {
    cfg: RegistryConfig,
    inner: Mutex<Inner>,
    cond: Condvar,
    /// Energy accrued by models that have since been LRU-evicted,
    /// captured at eviction time so [`ModelRegistry::energy`] stays
    /// monotone across evictions and re-loads. Its own lock (never
    /// nested with `inner` or a model mutex) keeps the locking
    /// protocol above intact.
    retired: Mutex<ModelEnergy>,
}

impl std::fmt::Debug for ModelRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.inner.lock();
        f.debug_struct("ModelRegistry")
            .field("capacity", &self.cfg.capacity)
            .field("resident", &inner.lru.len())
            .field("loads", &inner.loads)
            .field("evictions", &inner.evictions)
            .finish_non_exhaustive()
    }
}

impl ModelRegistry {
    /// An empty registry; models compile lazily on first use.
    #[must_use]
    pub fn new(cfg: RegistryConfig) -> Self {
        let entries = ModelKind::ALL
            .into_iter()
            .flat_map(|kind| {
                ALL_FORMATS.into_iter().map(move |mode| Entry {
                    kind,
                    mode,
                    slot: Slot::Unloaded,
                    template: None,
                    loads: 0,
                    evictions: 0,
                    infers: 0,
                    macros: 0,
                    weight_bytes: 0,
                })
            })
            .collect();
        Self {
            cfg,
            inner: Mutex::new(Inner {
                entries,
                lru: Vec::new(),
                loads: 0,
                compiles: 0,
                evictions: 0,
                kernel_builds: 0,
            }),
            cond: Condvar::new(),
            retired: Mutex::new(ModelEnergy::default()),
        }
    }

    /// The registry's configuration.
    #[must_use]
    pub fn config(&self) -> RegistryConfig {
        self.cfg
    }

    fn index_of(kind: ModelKind, mode: afpr_xbar::spec::MacroMode) -> usize {
        let k = ModelKind::ALL
            .iter()
            .position(|x| *x == kind)
            .expect("kind");
        let m = ALL_FORMATS.iter().position(|x| *x == mode).expect("mode");
        k * ALL_FORMATS.len() + m
    }

    /// Returns the resident compiled model for `(kind, mode)`, loading
    /// (and possibly LRU-evicting another model) if needed. Concurrent
    /// callers for the same key block until the single in-flight load
    /// finishes — a model is observable only fully compiled,
    /// calibrated, and kernel-warmed. A load compiles, or copies the
    /// key's template (see the [module docs](self)).
    pub fn get_or_load(
        &self,
        kind: ModelKind,
        mode: afpr_xbar::spec::MacroMode,
    ) -> Arc<Mutex<CompiledModel>> {
        let idx = Self::index_of(kind, mode);
        let mut inner = self.inner.lock();
        let (template, reload) = loop {
            let e = &inner.entries[idx];
            match &e.slot {
                Slot::Ready(model) => {
                    let model = Arc::clone(model);
                    // Touch: move to most-recently-used position.
                    inner.lru.retain(|&i| i != idx);
                    inner.lru.push(idx);
                    return model;
                }
                Slot::Loading => self.cond.wait(&mut inner),
                Slot::Unloaded => {
                    let found = (e.template.clone(), e.loads > 0);
                    inner.entries[idx].slot = Slot::Loading;
                    break found;
                }
            }
        };
        drop(inner);

        // Compile or copy outside the registry lock (other keys stay
        // usable). A copy's kernel-build count starts at its
        // template's, so only the builds it performs are credited.
        let compile = template.is_none();
        let base_builds = template.as_ref().map_or(0, |t| t.kernel_builds());
        let loaded = match &template {
            Some(template) => CompiledModel::clone(template),
            None => CompiledModel::load(ModelSpec::new(kind, mode, self.cfg.seed)),
        };
        let builds = loaded.kernel_builds() - base_builds;
        // The first re-load keeps a clone taken before this instance
        // serves anything.
        let new_template = (compile && reload).then(|| Arc::new(loaded.clone()));
        let macros = loaded.macro_count() as u64;
        let weight_bytes = loaded.weight_bytes();
        let model = Arc::new(Mutex::new(loaded));

        let mut inner = self.inner.lock();
        {
            let e = &mut inner.entries[idx];
            e.slot = Slot::Ready(Arc::clone(&model));
            if let Some(template) = new_template {
                e.template = Some(template);
            }
            e.loads += 1;
            e.macros = macros;
            e.weight_bytes = weight_bytes;
        }
        inner.loads += 1;
        inner.compiles += u64::from(compile);
        inner.kernel_builds += builds;
        inner.lru.push(idx);
        let capacity = self.cfg.capacity.max(1);
        let mut victims = Vec::new();
        while inner.lru.len() > capacity {
            // The front is the coldest and cannot be `idx` (just
            // pushed to the back with len > capacity ≥ 1).
            let victim = inner.lru.remove(0);
            if let Slot::Ready(m) =
                std::mem::replace(&mut inner.entries[victim].slot, Slot::Unloaded)
            {
                victims.push(m);
            }
            inner.entries[victim].evictions += 1;
            inner.evictions += 1;
            // In-flight inferences on the victim keep their Arc alive;
            // the macros free once the last holder drops it.
        }
        drop(inner);
        self.cond.notify_all();
        // Fold each victim's accrued energy into the retired
        // accumulator (model locks taken with `inner` released, per
        // the locking protocol). An inference still in flight on a
        // victim's Arc finishes first — its joules after this capture
        // are the only ones a registry total can miss.
        for victim in victims {
            let e = victim.lock().energy();
            *self.retired.lock() += e;
        }
        model
    }

    /// Cumulative energy across every model this registry has ever
    /// compiled: live counters of the resident models plus the retired
    /// accumulator capturing evicted ones. Monotone across evictions
    /// and re-loads.
    #[must_use]
    pub fn energy(&self) -> ModelEnergy {
        let inner = self.inner.lock();
        let resident: Vec<_> = inner
            .entries
            .iter()
            .filter_map(|e| match &e.slot {
                Slot::Ready(m) => Some(Arc::clone(m)),
                Slot::Loading | Slot::Unloaded => None,
            })
            .collect();
        drop(inner);
        let mut total = *self.retired.lock();
        for model in resident {
            total += model.lock().energy();
        }
        total
    }

    /// Full forward pass by wire names. See
    /// [`infer_range`](Self::infer_range).
    ///
    /// # Errors
    ///
    /// [`InferError::UnknownModel`] / [`InferError::UnknownFormat`] for
    /// unrecognized names, [`InferError::BadInput`] for a wrong-length
    /// input.
    pub fn infer(&self, model: &str, format: &str, input: &[f32]) -> Result<Vec<f32>, InferError> {
        self.infer_range(model, format, input, None, None)
    }

    /// Forward pass over top-level layers `[start, end)` (defaulting
    /// to the whole network) by wire names. Every failure is a
    /// structured [`InferError`] — hostile names, lengths and ranges
    /// never panic and never force a model load when the static checks
    /// already fail.
    ///
    /// # Errors
    ///
    /// [`InferError`] as described on each variant.
    pub fn infer_range(
        &self,
        model: &str,
        format: &str,
        input: &[f32],
        start: Option<usize>,
        end: Option<usize>,
    ) -> Result<Vec<f32>, InferError> {
        let kind =
            ModelKind::from_wire(model).ok_or_else(|| InferError::UnknownModel(model.into()))?;
        let mode =
            format_from_wire(format).ok_or_else(|| InferError::UnknownFormat(format.into()))?;
        let layers = kind.layers();
        let start = start.unwrap_or(0);
        let end = end.unwrap_or(layers);
        if start >= end || end > layers {
            return Err(InferError::BadLayerRange { start, end, layers });
        }
        // Static full-input check before paying for a load; ranges
        // starting mid-network validate against the compiled model's
        // boundary shapes below.
        if start == 0 && input.len() != kind.input_len() {
            return Err(InferError::BadInput {
                expected: kind.input_len(),
                got: input.len(),
            });
        }
        let compiled = self.get_or_load(kind, mode);
        let mut guard = compiled.lock();
        let out = guard.infer_range(input, start, end)?;
        drop(guard);
        self.inner.lock().entries[Self::index_of(kind, mode)].infers += 1;
        Ok(out)
    }

    /// Flat input length expected by `model`, if the name is known
    /// (loadgen uses this to size request payloads).
    #[must_use]
    pub fn input_len(model: &str) -> Option<usize> {
        ModelKind::from_wire(model).map(ModelKind::input_len)
    }

    /// The weight/programming seed every model in this registry
    /// compiles from. Two registries with equal seeds hold
    /// bit-identical models — pipeline routers compare this across
    /// backends at startup.
    #[must_use]
    pub fn seed(&self) -> u64 {
        self.cfg.seed
    }

    /// A serializable snapshot: totals plus one entry per
    /// `(model, format)` pair.
    #[must_use]
    pub fn snapshot(&self) -> RegistrySnapshot {
        let inner = self.inner.lock();
        let models = inner
            .entries
            .iter()
            .map(|e| ModelEntrySnapshot {
                model: e.kind.wire_name().to_string(),
                format: format_wire_name(e.mode).to_string(),
                layers: e.kind.layers() as u64,
                input_len: e.kind.input_len() as u64,
                output_len: e.kind.classes() as u64,
                resident: matches!(e.slot, Slot::Ready(_)),
                loads: e.loads,
                evictions: e.evictions,
                infers: e.infers,
                macros: e.macros,
                weight_bytes: e.weight_bytes,
            })
            .collect();
        RegistrySnapshot {
            capacity: self.cfg.capacity.max(1) as u64,
            resident: inner.lru.len() as u64,
            loads: inner.loads,
            compiles: inner.compiles,
            evictions: inner.evictions,
            kernel_builds: inner.kernel_builds,
            models,
        }
    }

    /// Wire names of currently resident models, least-recently-used
    /// first (tests pin eviction order through this).
    #[must_use]
    pub fn resident_keys(&self) -> Vec<String> {
        let inner = self.inner.lock();
        inner
            .lru
            .iter()
            .map(|&i| {
                let e = &inner.entries[i];
                format!("{}@{}", e.kind.wire_name(), format_wire_name(e.mode))
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use afpr_xbar::spec::MacroMode;

    #[test]
    fn unknown_names_are_structured_errors() {
        let reg = ModelRegistry::new(RegistryConfig::new(2, 1));
        assert!(matches!(
            reg.infer("resnet50", "e2m5", &[0.0; 8]),
            Err(InferError::UnknownModel(_))
        ));
        assert!(matches!(
            reg.infer("tiny-mlp", "fp64", &[0.0; 8]),
            Err(InferError::UnknownFormat(_))
        ));
        assert!(matches!(
            reg.infer("tiny-mlp", "e2m5", &[0.0; 7]),
            Err(InferError::BadInput { .. })
        ));
        // None of the above should have forced a compile.
        assert_eq!(reg.snapshot().loads, 0);
    }

    #[test]
    fn snapshot_covers_the_whole_zoo_statically() {
        let reg = ModelRegistry::new(RegistryConfig::default());
        let snap = reg.snapshot();
        assert_eq!(snap.models.len(), ModelKind::ALL.len() * ALL_FORMATS.len());
        for m in &snap.models {
            assert!(m.layers > 0 && m.input_len > 0 && m.output_len > 0);
            assert!(!m.resident);
        }
    }

    #[test]
    fn infer_loads_lazily_and_counts() {
        let reg = ModelRegistry::new(RegistryConfig::new(2, 7));
        let x: Vec<f32> = (0..8).map(|i| i as f32 * 0.1).collect();
        let y = reg.infer("tiny-mlp", "int8", &x).unwrap();
        assert_eq!(y.len(), 4);
        let _ = reg.infer("tiny-mlp", "int8", &x).unwrap();
        let snap = reg.snapshot();
        assert_eq!(snap.loads, 1);
        assert_eq!(snap.resident, 1);
        assert!(snap.kernel_builds > 0);
        let entry = snap
            .models
            .iter()
            .find(|m| m.model == "tiny-mlp" && m.format == "int8")
            .unwrap();
        assert_eq!(entry.infers, 2);
        assert!(entry.resident);
        assert!(entry.macros > 0 && entry.weight_bytes > 0);
    }

    #[test]
    fn partial_range_through_wire_names() {
        let reg = ModelRegistry::new(RegistryConfig::new(1, 3));
        let x: Vec<f32> = (0..8).map(|i| (i as f32 * 0.23).sin()).collect();
        let full = reg.infer("tiny-mlp", "e2m5", &x).unwrap();
        let layers = ModelKind::TinyMlp.layers();
        let mid = reg
            .infer_range("tiny-mlp", "e2m5", &x, Some(0), Some(2))
            .unwrap();
        let out = reg
            .infer_range("tiny-mlp", "e2m5", &mid, Some(2), Some(layers))
            .unwrap();
        for (a, b) in out.iter().zip(&full) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        assert!(matches!(
            reg.infer_range("tiny-mlp", "e2m5", &x, Some(3), Some(2)),
            Err(InferError::BadLayerRange { .. })
        ));
        assert!(matches!(
            reg.infer_range("tiny-mlp", "e2m5", &x, Some(0), Some(99)),
            Err(InferError::BadLayerRange { .. })
        ));
    }

    #[test]
    fn snapshots_without_compiles_read_as_zero() {
        let reg = ModelRegistry::new(RegistryConfig::new(1, 1));
        let _ = reg.get_or_load(ModelKind::TinyMlp, MacroMode::Int8);
        let snap = reg.snapshot();
        assert_eq!(snap.compiles, 1);
        let json = serde_json::to_string(&snap).unwrap();
        let old = json.replace("\"compiles\":1,", "");
        assert_ne!(old, json, "the field was serialized");
        let parsed: RegistrySnapshot = serde_json::from_str(&old).unwrap();
        assert_eq!(
            parsed,
            RegistrySnapshot {
                compiles: 0,
                ..snap
            }
        );
    }

    #[test]
    fn lru_eviction_is_oldest_first_and_touch_refreshes() {
        let reg = ModelRegistry::new(RegistryConfig::new(2, 1));
        let _ = reg.get_or_load(ModelKind::TinyMlp, MacroMode::FpE2M5);
        let _ = reg.get_or_load(ModelKind::TinyMlp, MacroMode::FpE3M4);
        // Touch the older entry so the newer one becomes the victim.
        let _ = reg.get_or_load(ModelKind::TinyMlp, MacroMode::FpE2M5);
        let _ = reg.get_or_load(ModelKind::TinyMlp, MacroMode::Int8);
        assert_eq!(
            reg.resident_keys(),
            vec!["tiny-mlp@e2m5".to_string(), "tiny-mlp@int8".to_string()]
        );
        let snap = reg.snapshot();
        assert_eq!(snap.evictions, 1);
        let evicted = snap
            .models
            .iter()
            .find(|m| m.model == "tiny-mlp" && m.format == "e3m4")
            .unwrap();
        assert!(!evicted.resident);
        assert_eq!(evicted.evictions, 1);
    }
}
