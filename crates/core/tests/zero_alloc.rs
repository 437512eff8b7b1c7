//! Counting-allocator proof of the arena executor's core promise: after
//! warm-up, steady-state [`orpheus::Session::run`] performs **zero** heap
//! allocations. Activations live in the planned arena, kernel scratch in the
//! thread-local scratch pool, and nothing else should touch the allocator.
//!
//! The counter is per-thread (single-thread engine ⇒ all work on the test
//! thread), so the tests cannot pollute each other even when the harness
//! runs them in parallel.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use orpheus::{Engine, Network, Personality};
use orpheus_graph::{AttrValue, Attributes, Graph, Node, OpKind, ValueInfo};
use orpheus_models::{build_model_with_input, ModelKind};
use orpheus_tensor::Tensor;

thread_local! {
    static THREAD_ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn thread_allocs() -> u64 {
    THREAD_ALLOCS.with(|c| c.get())
}

struct CountingAlloc;

fn bump() {
    // `try_with` so allocations during thread teardown never panic.
    let _ = THREAD_ALLOCS.try_with(|c| c.set(c.get() + 1));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

fn assert_model_steady_state_zero_alloc(model: ModelKind) {
    let hw = model.min_input_hw();
    let engine = Engine::builder()
        .personality(Personality::Orpheus)
        .threads(1)
        .build()
        .unwrap();
    let network = engine.load(build_model_with_input(model, hw, hw)).unwrap();
    assert_steady_state_zero_alloc(&network);
}

fn assert_steady_state_zero_alloc(network: &Network) {
    let model = network.name();
    let input = Tensor::from_fn(network.input_dims(), |i| ((i % 17) as f32) * 0.05 - 0.4);

    let mut session = network.session();
    // Warm-up: first runs populate the arena and the TLS kernel scratch
    // pool (and any lazily-selected implementation state).
    for _ in 0..3 {
        session.run(&input).unwrap();
    }

    let before = thread_allocs();
    for _ in 0..5 {
        let out = session.run(&input).unwrap();
        assert!(!out.as_slice().is_empty());
    }
    let after = thread_allocs();
    assert_eq!(
        after - before,
        0,
        "{model}: steady-state session runs must not allocate \
         ({} allocation(s) over 5 runs)",
        after - before
    );
}

#[test]
fn tiny_cnn_steady_state_is_allocation_free() {
    assert_model_steady_state_zero_alloc(ModelKind::TinyCnn);
}

#[test]
fn lenet5_steady_state_is_allocation_free() {
    assert_model_steady_state_zero_alloc(ModelKind::LeNet5);
}

/// The one zoo model with depthwise layers: their padded-plane scratch comes
/// from the TLS pool and their tap-offset table lives on the stack.
#[test]
fn mobilenetv1_steady_state_is_allocation_free() {
    assert_model_steady_state_zero_alloc(ModelKind::MobileNetV1);
}

/// The rest of the Figure-2 zoo: residual adds (WRN, ResNets), bottlenecks
/// (ResNet-50), and Inception's concat branches, asymmetric kernels and
/// average pools.
#[test]
fn figure2_zoo_steady_state_is_allocation_free() {
    for model in [
        ModelKind::Wrn40_2,
        ModelKind::ResNet18,
        ModelKind::ResNet50,
        ModelKind::InceptionV3,
    ] {
        assert_model_steady_state_zero_alloc(model);
    }
}

/// `Pad` and `ReduceMean` are absent from the simplified zoo (`pad-fold`
/// absorbs the former, exporters' `GlobalAveragePool` replaces the latter),
/// so this graph — loaded with simplification off so the `Pad` survives —
/// is what keeps them on the no-allocation contract: with `run_into` the
/// trait's only execution method, no layer can allocate its result.
#[test]
fn pad_and_reduce_mean_steady_state_is_allocation_free() {
    let mut g = Graph::new("pad-conv-mean");
    g.add_input(ValueInfo::new("x", &[1, 3, 8, 8]));
    g.add_initializer(
        "w",
        Tensor::from_fn(&[8, 3, 3, 3], |i| ((i % 11) as f32 - 5.0) * 0.05),
    );
    g.add_node(
        Node::new("pad", OpKind::Pad, &["x"], &["xp"]).with_attrs(
            Attributes::new()
                .with("pads", AttrValue::Ints(vec![0, 0, 1, 1, 0, 0, 1, 1]))
                .with("value", AttrValue::Float(0.0)),
        ),
    );
    g.add_node(
        Node::new("conv", OpKind::Conv, &["xp", "w"], &["c"]).with_attrs(
            Attributes::new()
                .with("kernel_shape", AttrValue::Ints(vec![3, 3]))
                .with("pads", AttrValue::Ints(vec![0, 0, 0, 0])),
        ),
    );
    g.add_node(
        Node::new("mean", OpKind::ReduceMean, &["c"], &["y"]).with_attrs(
            Attributes::new()
                .with("axes", AttrValue::Ints(vec![2, 3]))
                .with("keepdims", AttrValue::Int(1)),
        ),
    );
    g.add_output("y");
    let network = Engine::builder()
        .threads(1)
        .simplification(false)
        .build()
        .unwrap()
        .load(g)
        .unwrap();
    let description = network.describe();
    assert!(
        description.contains("Pad") && description.contains("ReduceMean"),
        "both layers must survive lowering:\n{description}"
    );
    assert_steady_state_zero_alloc(&network);
}

/// The zero-alloc contract holds *per batch bucket*: once a bucket's arena
/// has been grown and warmed, exact-batch runs in that bucket never touch
/// the allocator — including after switching between buckets.
#[test]
fn every_batch_bucket_is_allocation_free_at_steady_state() {
    let model = ModelKind::TinyCnn;
    let hw = model.min_input_hw();
    let engine = Engine::builder()
        .personality(Personality::Orpheus)
        .threads(1)
        .max_batch(4)
        .build()
        .unwrap();
    let network = engine.load(build_model_with_input(model, hw, hw)).unwrap();
    assert_eq!(network.batch_buckets(), vec![1, 2, 4]);
    let ch = model.input_dims()[1];

    let mut session = network.session();
    let inputs: Vec<Tensor> = network
        .batch_buckets()
        .into_iter()
        .map(|n| Tensor::from_fn(&[n, ch, hw, hw], |i| ((i % 19) as f32) * 0.03 - 0.3))
        .collect();

    // Warm every bucket (arena growth, TLS scratch, implementation state),
    // twice over so bucket *switches* are warmed too.
    for _ in 0..2 {
        for input in &inputs {
            for _ in 0..3 {
                session.run(input).unwrap();
            }
        }
    }

    for input in &inputs {
        // Settle into this bucket before measuring (the switch itself only
        // resets — but keep the measured window pure single-bucket).
        session.run(input).unwrap();
        let before = thread_allocs();
        for _ in 0..5 {
            let out = session.run(input).unwrap();
            assert!(!out.as_slice().is_empty());
        }
        let after = thread_allocs();
        assert_eq!(
            after - before,
            0,
            "bucket {}: steady-state runs must not allocate \
             ({} allocation(s) over 5 runs)",
            input.dims()[0],
            after - before
        );
    }
}
