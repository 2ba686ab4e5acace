//! Registry lifecycle: LRU eviction order, kernel re-warm on re-load,
//! and concurrent load/infer safety (no deadlock, never a
//! half-compiled model).

use afpr_models::{ModelKind, ModelRegistry, RegistryConfig, ALL_FORMATS};
use afpr_xbar::spec::MacroMode;

fn probe(len: usize) -> Vec<f32> {
    (0..len).map(|i| ((i as f32) * 0.31).sin()).collect()
}

#[test]
fn eviction_follows_lru_order_across_the_zoo() {
    let reg = ModelRegistry::new(RegistryConfig::new(2, 11));
    let _ = reg.get_or_load(ModelKind::TinyMlp, MacroMode::FpE2M5);
    let _ = reg.get_or_load(ModelKind::TinyMlp, MacroMode::FpE3M4);
    let _ = reg.get_or_load(ModelKind::TinyMlp, MacroMode::Int8);
    // Capacity 2: the first load is the LRU victim.
    assert_eq!(
        reg.resident_keys(),
        vec!["tiny-mlp@e3m4".to_string(), "tiny-mlp@int8".to_string()]
    );
    // Inference touches refresh recency: use e3m4, then load a fourth
    // model — int8 (now coldest) must be the victim.
    let x = probe(ModelKind::TinyMlp.input_len());
    let _ = reg.infer("tiny-mlp", "e3m4", &x).unwrap();
    let _ = reg.get_or_load(ModelKind::TinyMlp, MacroMode::FpE2M5);
    assert_eq!(
        reg.resident_keys(),
        vec!["tiny-mlp@e3m4".to_string(), "tiny-mlp@e2m5".to_string()]
    );
    let snap = reg.snapshot();
    assert_eq!(snap.evictions, 2);
    assert_eq!(snap.resident, 2);
    assert_eq!(snap.loads, 4);
}

#[test]
fn reload_after_evict_rewarms_kernels_and_recounts() {
    let reg = ModelRegistry::new(RegistryConfig::new(1, 5));
    let x = probe(ModelKind::TinyMlp.input_len());
    let first = reg.infer("tiny-mlp", "e2m5", &x).unwrap();
    let builds_after_first = reg.snapshot().kernel_builds;
    assert!(builds_after_first > 0, "load must warm kernels");

    // Evict tiny-mlp@e2m5 by loading a different format into the
    // single slot, then come back to it.
    let _ = reg.infer("tiny-mlp", "int8", &x).unwrap();
    assert_eq!(reg.resident_keys(), vec!["tiny-mlp@int8".to_string()]);

    let again = reg.infer("tiny-mlp", "e2m5", &x).unwrap();
    let snap = reg.snapshot();
    assert!(
        snap.kernel_builds > builds_after_first,
        "re-load must re-warm conductance kernels ({} -> {})",
        builds_after_first,
        snap.kernel_builds
    );
    let entry = snap
        .models
        .iter()
        .find(|m| m.model == "tiny-mlp" && m.format == "e2m5")
        .unwrap();
    assert_eq!(entry.loads, 2);
    assert_eq!(entry.evictions, 1);
    assert_eq!(entry.infers, 2);
    // Determinism across evict/re-load: same seed, same bits.
    for (a, b) in first.iter().zip(&again) {
        assert_eq!(a.to_bits(), b.to_bits());
    }
}

#[test]
fn concurrent_load_and_infer_is_safe() {
    // Capacity 1 with three formats hammered from 6 threads forces
    // constant evict/re-load churn; every inference must still return
    // a full-network, correct-length output (never a half-compiled
    // model) and nothing may deadlock.
    let reg = ModelRegistry::new(RegistryConfig::new(1, 2));
    let x = probe(ModelKind::TinyMlp.input_len());
    std::thread::scope(|s| {
        for t in 0..6 {
            let reg = &reg;
            let x = &x;
            s.spawn(move || {
                for i in 0..8 {
                    let format = afpr_models::format_wire_name(ALL_FORMATS[(t + i) % 3]);
                    let y = reg.infer("tiny-mlp", format, x).unwrap();
                    assert_eq!(y.len(), ModelKind::TinyMlp.classes());
                }
            });
        }
    });
    let snap = reg.snapshot();
    assert_eq!(snap.resident, 1);
    let total_infers: u64 = snap.models.iter().map(|m| m.infers).sum();
    assert_eq!(total_infers, 48);
    // Single-flight loading: loads can exceed 3 (evict churn) but a
    // load happened for every eviction plus the resident one.
    assert_eq!(snap.loads, snap.evictions + 1);
    // Each key compiles at most twice (first load, first re-load);
    // every later load copies its template.
    assert!(snap.compiles <= 6, "{} compiles", snap.compiles);
}

#[test]
fn concurrent_same_key_single_flight() {
    // Many threads racing on ONE cold key: single-flight means they
    // all get the same compiled model and exactly one load happens.
    let reg = ModelRegistry::new(RegistryConfig::new(2, 9));
    let x = probe(ModelKind::TinyMlp.input_len());
    let outs: Vec<Vec<f32>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let reg = &reg;
                let x = &x;
                s.spawn(move || reg.infer("tiny-mlp", "e3m4", x).unwrap())
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    for o in &outs[1..] {
        for (a, b) in o.iter().zip(&outs[0]) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }
    let snap = reg.snapshot();
    assert_eq!(snap.loads, 1, "single-flight: one compile for 8 racers");
    assert_eq!(snap.evictions, 0);
}
