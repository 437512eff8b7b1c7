//! Zoo-wide contracts of the static memory planner and arena executor:
//!
//! * **Bit-identity** — for every zoo model and every batch-bucket rung up
//!   to 8, `Session::run` over the planned arena produces byte-for-byte the
//!   same output as the same executor over the degenerate no-reuse plan
//!   (`Network::no_reuse_session`: one buffer per slot, no view-moves), run
//!   after run. The no-reuse plan itself passes the static plan check
//!   (`ORV015`–`ORV022`) — the constructor refuses it otherwise.
//! * **Footprint** — the arena capacity actually resident after real runs
//!   never exceeds the static [`orpheus::MemoryPlan`] prediction, and the
//!   plan itself never exceeds what a no-reuse executor would hold.

use orpheus::{Engine, Personality};
use orpheus_models::{build_model_with_input, ModelKind};
use orpheus_tensor::Tensor;

/// Every in-tree model, at its smallest legal input (keeps debug-mode
/// runtime tolerable while still covering every layer kind in the zoo).
const ZOO: [ModelKind; 7] = [
    ModelKind::TinyCnn,
    ModelKind::LeNet5,
    ModelKind::Wrn40_2,
    ModelKind::MobileNetV1,
    ModelKind::ResNet18,
    ModelKind::ResNet50,
    ModelKind::InceptionV3,
];

fn load(model: ModelKind) -> (orpheus::Network, Tensor) {
    let hw = model.min_input_hw();
    let engine = Engine::builder()
        .personality(Personality::Orpheus)
        .threads(1)
        .build()
        .unwrap();
    let network = engine.load(build_model_with_input(model, hw, hw)).unwrap();
    let dims = [1, model.input_dims()[1], hw, hw];
    let input = Tensor::from_fn(&dims, |i| ((i * 31 % 97) as f32 / 97.0) - 0.5);
    (network, input)
}

#[test]
fn arena_executor_is_bit_identical_to_no_reuse_plan_across_zoo_and_rungs() {
    for model in ZOO {
        let network = load_batched(model, 8);
        assert_eq!(network.batch_buckets(), vec![1, 2, 4, 8], "{model}");
        let mut oracle = network
            .no_reuse_session()
            .unwrap_or_else(|e| panic!("{model}: no-reuse plan rejected: {e}"));
        let mut session = network.session();
        let hw = model.min_input_hw();
        let ch = model.input_dims()[1];
        // Climb the ladder, then drop back to the base rung so its recycled
        // (dirty) arena is proven run after run too.
        for batch in [1, 2, 4, 8, 1] {
            let input = Tensor::from_fn(&[batch, ch, hw, hw], |i| {
                (((i * 31 + batch) % 97) as f32 / 97.0) - 0.5
            });
            let expected = oracle.run(&input).unwrap();
            let got = session.run(&input).unwrap();
            assert_eq!(got.dims(), expected.dims(), "{model}: dims diverged");
            assert_eq!(
                got.as_slice(),
                expected.as_slice(),
                "{model} batch {batch}: arena output differs from the no-reuse plan"
            );
        }
    }
}

#[test]
fn runtime_arena_never_exceeds_static_prediction() {
    for model in ZOO {
        let (network, input) = load(model);
        let plan = network.memory_plan();
        let predicted = plan.arena_bytes();
        assert!(predicted > 0, "{model}: empty memory plan");
        // The plan must never be worse than a no-reuse executor.
        assert!(
            predicted <= plan.total_slot_bytes(),
            "{model}: arena {predicted} B exceeds no-reuse footprint {} B",
            plan.total_slot_bytes()
        );
        let mut session = network.session();
        for _ in 0..2 {
            session.run(&input).unwrap();
        }
        let measured = session.measured_arena_bytes();
        assert!(
            measured <= predicted,
            "{model}: resident arena {measured} B exceeds static prediction {predicted} B"
        );
    }
}

/// Loads `model` with a batch ladder up to `max_batch`.
fn load_batched(model: ModelKind, max_batch: usize) -> orpheus::Network {
    let hw = model.min_input_hw();
    Engine::builder()
        .personality(Personality::Orpheus)
        .threads(1)
        .max_batch(max_batch)
        .build()
        .unwrap()
        .load(build_model_with_input(model, hw, hw))
        .unwrap()
}

/// Tail-padding correctness across the zoo: for every model and every batch
/// size up to the max bucket (including between-rung sizes that run
/// padded), the batched output rows are bit-identical to per-input
/// `Session::run` results.
#[test]
fn batched_outputs_bit_identical_to_per_input_runs_across_zoo() {
    for model in ZOO {
        let batched = load_batched(model, 4);
        assert_eq!(batched.batch_buckets(), vec![1, 2, 4], "{model}");
        let (reference, _) = load(model);
        let mut ref_session = reference.session();
        let mut session = batched.session();
        let hw = model.min_input_hw();
        let ch = model.input_dims()[1];
        let per_input = ch * hw * hw;
        for n in 1..=3usize {
            let input = Tensor::from_fn(&[n, ch, hw, hw], |i| {
                (((i * 37 + n) % 101) as f32 / 101.0) - 0.5
            });
            let got = session.run(&input).unwrap().clone();
            assert_eq!(got.dims()[0], n, "{model}: batch {n} output batch");
            let per_output = got.len() / n;
            for row in 0..n {
                let single =
                    Tensor::from_fn(&[1, ch, hw, hw], |i| input.as_slice()[row * per_input + i]);
                let want = ref_session.run(&single).unwrap();
                assert_eq!(
                    &got.as_slice()[row * per_output..(row + 1) * per_output],
                    want.as_slice(),
                    "{model}: batch {n} row {row} diverges from a per-input run"
                );
            }
        }
    }
}

/// The `measured <= static` pin must hold for *every* bucket, not just the
/// base one: after running each bucket's exact batch, the resident arena of
/// that bucket never exceeds its own static prediction.
#[test]
fn runtime_arena_never_exceeds_static_prediction_in_any_bucket() {
    for model in [
        ModelKind::TinyCnn,
        ModelKind::LeNet5,
        ModelKind::MobileNetV1,
    ] {
        let network = load_batched(model, 4);
        let hw = model.min_input_hw();
        let ch = model.input_dims()[1];
        let plans: Vec<(usize, usize)> = network
            .bucket_memory_plans()
            .iter()
            .map(|(batch, plan)| (*batch, plan.arena_bytes()))
            .collect();
        assert_eq!(plans.len(), 3, "{model}: expected buckets 1, 2, 4");
        let mut session = network.session();
        for (batch, predicted) in plans {
            let input = Tensor::from_fn(&[batch, ch, hw, hw], |i| ((i % 23) as f32) * 0.04);
            for _ in 0..2 {
                session.run(&input).unwrap();
            }
            let measured = session.measured_arena_bytes();
            assert!(
                measured <= predicted,
                "{model} bucket {batch}: resident arena {measured} B exceeds \
                 static prediction {predicted} B"
            );
            assert!(predicted > 0, "{model} bucket {batch}: empty plan");
        }
    }
}

/// The planner's output is deterministic, so the arena each rung needs is
/// pinned byte for byte: the five Figure-2 models at the CLI's quick-scale
/// inputs, rungs 1/2/4. A planner or lowering change that grows (or shrinks)
/// an arena has to change this table, in the same diff.
#[test]
fn figure2_arena_bytes_are_pinned_per_rung() {
    const PINS: [(ModelKind, usize, [usize; 3]); 5] = [
        (ModelKind::Wrn40_2, 32, [393_216, 786_432, 1_572_864]),
        (ModelKind::MobileNetV1, 64, [393_216, 786_432, 1_572_864]),
        (ModelKind::ResNet18, 64, [393_216, 786_432, 1_572_864]),
        (ModelKind::InceptionV3, 75, [613_376, 1_226_752, 2_453_504]),
        (ModelKind::ResNet50, 64, [786_432, 1_572_864, 3_145_728]),
    ];
    for (model, hw, arena_bytes) in PINS {
        let network = Engine::builder()
            .threads(1)
            .max_batch(4)
            .build()
            .unwrap()
            .load(build_model_with_input(model, hw, hw))
            .unwrap();
        let planned: Vec<(usize, usize)> = network
            .plan_summary()
            .batch_buckets
            .iter()
            .map(|bucket| (bucket.batch, bucket.arena_bytes))
            .collect();
        let pinned: Vec<(usize, usize)> = [1, 2, 4].into_iter().zip(arena_bytes).collect();
        assert_eq!(
            planned, pinned,
            "{model} at {hw}x{hw}: (batch, arena bytes)"
        );
    }
}

/// `lint --max-batch` and the engine plan the same bucket ladder with the
/// same shared planner: rung for rung, the engine's per-bucket arena (which
/// additionally aliases views) never exceeds the lint prediction, and the
/// lint prediction never exceeds the no-reuse footprint.
#[test]
fn lint_bucket_arenas_agree_with_engine_bucket_plans() {
    for model in [ModelKind::TinyCnn, ModelKind::LeNet5] {
        let network = load_batched(model, 4);
        let hw = model.min_input_hw();
        let lint = orpheus_verify::lint_with_batch(&build_model_with_input(model, hw, hw), 4);
        let lint_batches: Vec<usize> = lint.bucket_arenas.iter().map(|(b, _)| *b).collect();
        assert_eq!(
            lint_batches,
            network.batch_buckets(),
            "{model}: lint and engine must plan the same ladder"
        );
        for ((batch, engine_plan), (_, lint_arena)) in network
            .bucket_memory_plans()
            .iter()
            .zip(&lint.bucket_arenas)
        {
            assert!(
                engine_plan.arena_bytes() <= lint_arena.arena_bytes,
                "{model} bucket {batch}: engine arena {} B exceeds lint prediction {} B",
                engine_plan.arena_bytes(),
                lint_arena.arena_bytes
            );
            assert!(engine_plan.arena_bytes() > 0, "{model} bucket {batch}");
        }
    }
}

#[test]
fn describe_reports_the_memory_plan() {
    let (network, _) = load(ModelKind::TinyCnn);
    let text = network.describe();
    assert!(
        text.contains("memory plan:"),
        "describe() must surface the plan summary:\n{text}"
    );
    let plan = network.memory_plan();
    assert!(text.contains(&format!("{} buffer(s)", plan.num_buffers())));
}
