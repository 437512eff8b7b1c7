//! Engine-level property tests: the whole pipeline (graph → ONNX round trip
//! → simplification → lowering → execution) must agree with the raw operator
//! library on randomly drawn layer configurations, under every personality.

use orpheus::{Engine, Personality};
use orpheus_graph::{AttrValue, Attributes, Graph, Node, OpKind, ValueInfo};
use orpheus_ops::conv::{Conv2d, Conv2dParams, ConvAlgorithm};
use orpheus_tensor::{allclose, Tensor};
use orpheus_threads::ThreadPool;
use proptest::prelude::*;

fn pseudo(n: usize, seed: u64) -> Vec<f32> {
    (0..n)
        .map(|i| {
            let x = (i as u64 ^ seed).wrapping_mul(0x9e3779b97f4a7c15);
            ((x >> 34) as f32 / (1u64 << 30) as f32) - 1.0
        })
        .collect()
}

/// Builds a single-conv graph with the given geometry.
fn conv_graph(params: &Conv2dParams, h: usize, w: usize, seed: u64) -> (Graph, Tensor, Tensor) {
    let weight = Tensor::from_vec(
        pseudo(params.weight_dims().iter().product(), seed ^ 0xaa),
        &params.weight_dims(),
    )
    .expect("weight dims");
    let input = Tensor::from_vec(
        pseudo(params.in_channels * h * w, seed),
        &[1, params.in_channels, h, w],
    )
    .expect("input dims");
    let mut g = Graph::new("prop");
    g.add_input(ValueInfo::new("x", &[1, params.in_channels, h, w]));
    g.add_initializer("w", weight.clone());
    g.add_node(
        Node::new("conv", OpKind::Conv, &["x", "w"], &["y"]).with_attrs(
            Attributes::new()
                .with(
                    "kernel_shape",
                    AttrValue::Ints(vec![params.kernel_h as i64, params.kernel_w as i64]),
                )
                .with(
                    "strides",
                    AttrValue::Ints(vec![params.stride_h as i64, params.stride_w as i64]),
                )
                .with(
                    "pads",
                    AttrValue::Ints(vec![
                        params.pad_h as i64,
                        params.pad_w as i64,
                        params.pad_h as i64,
                        params.pad_w as i64,
                    ]),
                )
                .with("group", AttrValue::Int(params.groups as i64)),
        ),
    );
    g.add_output("y");
    (g, input, weight)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// A random convolution executed through every personality's full
    /// pipeline (including ONNX round trip) matches the reference operator.
    #[test]
    fn pipeline_matches_reference_conv(
        ci in 1usize..5, co in 1usize..9,
        k in 1usize..4, s in 1usize..3, pad in 0usize..2,
        h in 4usize..9, seed in any::<u64>(),
        depthwise in any::<bool>(),
    ) {
        prop_assume!(h + 2 * pad >= k);
        let params = if depthwise {
            Conv2dParams::depthwise(ci.max(2), k)
                .with_stride(s, s)
                .with_padding(pad, pad)
        } else {
            Conv2dParams::square(ci, co, k)
                .with_stride(s, s)
                .with_padding(pad, pad)
        };
        let (graph, input, weight) = conv_graph(&params, h, h, seed);
        let conv = Conv2d::new(params, weight, None, ConvAlgorithm::Direct).expect("reference conv");
        let mut reference = Tensor::zeros(&conv.output_dims(input.dims()).expect("rank-4 input"));
        conv.run_into(&input, &mut reference, &ThreadPool::single())
            .expect("reference runs");

        let onnx = orpheus_onnx::export_model(&graph).expect("export");
        for personality in [
            Personality::Orpheus,
            Personality::TvmSim,
            Personality::PytorchSim,
            Personality::DarknetSim,
        ] {
            let engine = Engine::builder().personality(personality).threads(1).build().expect("engine");
            let network = engine.load_onnx(&onnx).expect("load");
            let got = network.run(&input).expect("run");
            let want = reference.reshaped(got.dims()).expect("same element count");
            let r = allclose(&got, &want, 1e-3, 1e-4);
            prop_assert!(r.ok, "{personality} disagrees: {r:?}");
        }
    }

    /// Auto-tune and heuristic policies are semantically identical to the
    /// fixed default on random geometry.
    #[test]
    fn policies_agree_semantically(
        ci in 1usize..4, co in 1usize..8, k in 1usize..4,
        h in 4usize..8, seed in any::<u64>(),
    ) {
        prop_assume!(h >= k);
        let params = Conv2dParams::square(ci, co, k);
        let (graph, input, _) = conv_graph(&params, h, h, seed);
        let reference = Engine::builder().threads(1).build()
            .expect("engine")
            .load(graph.clone())
            .expect("load")
            .run(&input)
            .expect("run");
        for policy in [
            orpheus::SelectionPolicy::Heuristic,
            orpheus::SelectionPolicy::AutoTune { trials: 1 },
        ] {
            let got = Engine::builder()
                .threads(1)
                .policy(policy)
                .build()
                .expect("engine")
                .load(graph.clone())
                .expect("load")
                .run(&input)
                .expect("run");
            let r = allclose(&got, &reference, 1e-3, 1e-4);
            prop_assert!(r.ok, "{policy:?} disagrees: {r:?}");
        }
    }
}
