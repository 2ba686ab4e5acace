//! A load copied from a never-served template serves exactly what a
//! fresh compile serves: the copy-equals-compile oracle for every zoo
//! model and format, and a churning registry that copies held
//! bit-identical to one that never evicts.

use afpr_models::{
    format_wire_name, CompiledModel, ModelEnergy, ModelKind, ModelRegistry, ModelSpec,
    RegistryConfig, ALL_FORMATS,
};
use afpr_xbar::spec::MacroMode;

fn probes(len: usize) -> Vec<Vec<f32>> {
    (0..3)
        .map(|s| {
            (0..len)
                .map(|i| ((i + 5 * s) as f32 * 0.31).sin())
                .collect()
        })
        .collect()
}

fn serve(model: &mut CompiledModel, inputs: &[Vec<f32>]) -> Vec<Vec<u32>> {
    inputs
        .iter()
        .map(|x| {
            let y = model.infer(x).expect("valid input");
            y.iter().map(|v| v.to_bits()).collect()
        })
        .collect()
}

fn joules(e: ModelEnergy) -> f64 {
    e.breakdown.total().joules() + e.adder.joules()
}

/// Serves the same inputs on a copy of a template and on a fresh
/// compile of the same spec.
fn copy_serves_like_compile(kind: ModelKind, mode: MacroMode) {
    let inputs = probes(kind.input_len());
    let spec = ModelSpec::new(kind, mode, 13);
    let template = CompiledModel::load(spec);
    let mut copy = template.clone();
    let mut fresh = CompiledModel::load(spec);
    let what = format!("{}@{}", kind.wire_name(), format_wire_name(mode));

    let served = serve(&mut copy, &inputs);
    assert_eq!(served, serve(&mut fresh, &inputs), "{what}: outputs");
    assert_eq!(copy.energy(), fresh.energy(), "{what}: energy");
    assert!(joules(copy.energy()) > 0.0, "{what}: the copy metered");
    assert_eq!(
        copy.kernel_builds(),
        template.kernel_builds(),
        "{what}: the copy built a kernel"
    );

    assert_eq!(
        template.energy(),
        ModelEnergy::default(),
        "{what}: template"
    );
    let mut second = template.clone();
    assert_eq!(serve(&mut second, &inputs), served, "{what}: second copy");
}

#[test]
fn a_template_copy_serves_like_a_fresh_compile() {
    // One thread per model and format: the compiles dominate.
    std::thread::scope(|s| {
        for kind in ModelKind::ALL {
            for mode in ALL_FORMATS {
                s.spawn(move || copy_serves_like_compile(kind, mode));
            }
        }
    });
}

#[test]
fn a_churning_registry_serves_like_one_that_never_evicts() {
    let churn = ModelRegistry::new(RegistryConfig::new(1, 21));
    let roomy = ModelRegistry::new(RegistryConfig::new(3, 21));
    let inputs = probes(ModelKind::TinyMlp.input_len());
    let mut builds_after_compiles = None;
    for round in 0..4 {
        for (f, mode) in ALL_FORMATS.into_iter().enumerate() {
            let format = format_wire_name(mode);
            let x = &inputs[(round + f) % inputs.len()];
            let mut outs = Vec::new();
            let mut deltas = Vec::new();
            for reg in [&churn, &roomy] {
                let before = joules(reg.energy());
                outs.push(reg.infer("tiny-mlp", format, x).expect("valid input"));
                deltas.push(joules(reg.energy()) - before);
            }
            let at = format!("round {round}, {format}");
            let bits = |y: &[f32]| y.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&outs[0]), bits(&outs[1]), "{at}: outputs");
            let (a, b) = (deltas[0], deltas[1]);
            assert!(b > 0.0, "{at}: the request metered");
            assert!((a - b).abs() <= 1e-9 * b, "{at}: energy {a} vs {b}");
        }
        if round == 1 {
            // Every key has had its first load and its first re-load.
            builds_after_compiles = Some(churn.snapshot().kernel_builds);
        }
    }
    let snap = churn.snapshot();
    assert_eq!(snap.loads, 12);
    assert_eq!(snap.compiles, 6);
    assert_eq!(snap.evictions, 11);
    assert_eq!(
        Some(snap.kernel_builds),
        builds_after_compiles,
        "template copies build no kernel"
    );
    let roomy = roomy.snapshot();
    assert_eq!((roomy.loads, roomy.compiles, roomy.evictions), (3, 3, 0));
}
