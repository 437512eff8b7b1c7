//! Lowering: graph nodes → executable layer plan.
//!
//! Lowering walks the (optionally simplified) graph in topological order,
//! resolves each node's weights from the initializers, asks the
//! [`SelectionPolicy`](crate::SelectionPolicy) for an implementation, and
//! emits one plan step per node. Value names become dense slot indices and
//! a per-slot last-use table drives the executor's early tensor reclamation.

use std::collections::HashMap;
use std::sync::Arc;

use orpheus_gemm::GemmKernel;
use orpheus_graph::{infer_shapes, infer_shapes_with_batch, Graph, Node, OpKind};
use orpheus_ops::activation::Activation;
use orpheus_ops::conv::{Conv2dParams, ConvAlgorithm};
use orpheus_ops::pool::{Pool2dParams, PoolMode};
use orpheus_tensor::Tensor;

use crate::engine::{Engine, VendorBackend};
use crate::error::EngineError;
use crate::layer::Layer;
use crate::layers::native::{
    ActivationLayer, AddLayer, BatchNormLayer, ConcatLayer, ConvLayer, DenseLayer, FlattenLayer,
    GlobalPoolLayer, IdentityLayer, MulLayer, PadLayer, PoolLayer, ReduceMeanLayer, ReshapeLayer,
    SoftmaxLayer,
};
use crate::layers::third_party::{VclConvLayer, VnnlConvLayer};
use crate::plan::plan_memory;
use crate::selection::{supported_or_fallback, SelectionPolicy};

/// One executable step: a layer plus its slot wiring.
pub(crate) struct PlanStep {
    pub layer: Box<dyn Layer>,
    pub inputs: Vec<usize>,
    pub output: usize,
    /// Whether the layer is a pure view (Flatten/Reshape/Identity): the
    /// output is the input's storage with different dims, so the memory
    /// planner may alias the two slots and the executor may move the buffer
    /// instead of copying. Fault-injection wrapping clears this flag.
    pub viewable: bool,
}

impl std::fmt::Debug for PlanStep {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} <- {:?} ({})",
            self.output,
            self.inputs,
            self.layer.name()
        )
    }
}

/// Per-batch-bucket shapes and memory: the symbolic leading dim made
/// concrete at one batch size.
#[derive(Debug)]
pub(crate) struct BucketPlan {
    /// Absolute batch size this bucket serves.
    pub batch: usize,
    /// Inferred dims of each slot's value at this batch.
    pub slot_dims: Vec<Vec<usize>>,
    /// Static buffer-reuse plan for this bucket.
    pub memory: crate::plan::MemoryPlan,
}

/// A lowered, executable network plan.
#[derive(Debug)]
pub(crate) struct Plan {
    /// Shared so the no-reuse twin (`Plan::without_reuse`) runs the very
    /// same layer objects over a different memory plan.
    pub steps: Arc<[PlanStep]>,
    pub num_slots: usize,
    pub input_slot: usize,
    pub input_dims: Vec<usize>,
    pub output_slot: usize,
    /// For each slot, the index of the last step reading it
    /// (`usize::MAX` = never read / graph output).
    pub last_use: Vec<usize>,
    /// One entry per batch bucket, ascending by batch. Never empty:
    /// `buckets[0]` is the model's declared (base) batch; further entries
    /// double up to the engine's `max_batch`.
    pub buckets: Vec<BucketPlan>,
    /// The GEMM ISA this plan's kernels execute on, resolved at lowering:
    /// `"avx512+fma"`, `"avx2+fma"` or `"scalar"` from runtime dispatch,
    /// `"scalar (forced)"` when the engine pinned the scalar tier on a
    /// SIMD-capable host.
    pub gemm_isa: &'static str,
}

impl Plan {
    /// The batch ladder (ascending absolute batch sizes).
    pub fn bucket_batches(&self) -> Vec<usize> {
        self.buckets.iter().map(|b| b.batch).collect()
    }

    /// The largest batch any bucket serves.
    pub fn max_bucket_batch(&self) -> usize {
        self.buckets[self.buckets.len() - 1].batch
    }

    /// The one dims-mismatch error every run surface shares
    /// ([`Session::run`](crate::Session::run) and its batch/into variants,
    /// [`Network::run`](crate::Network::run)): lists every accepted input
    /// shape and the planned batch buckets, not just the base shape.
    pub fn dims_error(&self, dims: &[usize]) -> EngineError {
        let base = &self.input_dims;
        let buckets = self.bucket_batches();
        let max = self.max_bucket_batch();
        let mut accepted = String::from("[N");
        for d in base.iter().skip(1) {
            accepted.push_str(&format!(", {d}"));
        }
        accepted.push(']');
        EngineError::Execution(format!(
            "input dims {dims:?} do not match model input {base:?}: accepted \
             input shapes are {accepted} for batch N in 1..={max} (planned \
             batch buckets {buckets:?}; batches between buckets run padded \
             into the next bucket)"
        ))
    }
}

/// The power-of-two batch ladder from `base` up to `max`: `base` doubling
/// while below `max`, with `max` itself as the final rung (so a max of 6
/// over base 1 yields `[1, 2, 4, 6]`). A `max` at or below `base` yields
/// just `[base]`.
pub(crate) fn batch_buckets(base: usize, max: usize) -> Vec<usize> {
    // Shared with the lint report so `lint --max-batch` and the engine
    // plan the identical ladder.
    orpheus_verify::batch_buckets(base, max)
}

/// Lowers a validated graph into a plan under the engine's configuration:
/// one step per node, fault-injection wrapping, then one liveness-planned
/// `MemoryPlan` per batch bucket over the final step list.
pub(crate) fn lower(engine: &Engine, graph: &Graph) -> Result<Plan, EngineError> {
    graph.validate()?;
    let shapes = infer_shapes(graph)?;

    if graph.inputs().len() != 1 {
        return Err(EngineError::Config(format!(
            "expected exactly one graph input, found {}",
            graph.inputs().len()
        )));
    }
    if graph.outputs().len() != 1 {
        return Err(EngineError::Config(format!(
            "expected exactly one graph output, found {}",
            graph.outputs().len()
        )));
    }

    // Assign a dense slot to every activation value (not initializers).
    let mut slot_of: HashMap<String, usize> = HashMap::new();
    let mut slot_names: Vec<String> = Vec::new();
    let mut intern = |name: &str, slot_of: &mut HashMap<String, usize>| -> usize {
        if let Some(&s) = slot_of.get(name) {
            return s;
        }
        let s = slot_names.len();
        slot_names.push(name.to_string());
        slot_of.insert(name.to_string(), s);
        s
    };

    let input_name = graph.inputs()[0].name.clone();
    let input_slot = intern(&input_name, &mut slot_of);
    let input_dims = graph.inputs()[0].dims.clone();

    let order = graph.topo_order()?;
    let mut steps = Vec::with_capacity(order.len());
    for idx in order {
        let node = &graph.nodes()[idx];
        let layer = build_layer(engine, graph, node, &shapes)?;
        let inputs: Vec<usize> = activation_inputs(graph, node)
            .iter()
            .map(|name| intern(name, &mut slot_of))
            .collect();
        let output = intern(&node.outputs[0], &mut slot_of);
        let viewable = matches!(
            node.op,
            OpKind::Flatten | OpKind::Reshape | OpKind::Identity | OpKind::Dropout
        );
        steps.push(PlanStep {
            layer,
            inputs,
            output,
            viewable,
        });
    }
    // Wrap before planning: a wrapped view clears `viewable`, and aliasing
    // decisions must match what actually runs.
    let steps = engine.inject_faults(steps);

    let output_name = &graph.outputs()[0];
    let output_slot = *slot_of
        .get(output_name.as_str())
        .ok_or_else(|| EngineError::Config(format!("output {output_name:?} was never produced")))?;

    // Liveness: last step index that reads each slot.
    let num_slots = slot_names.len();
    let mut last_use = vec![usize::MAX; num_slots];
    for (step_idx, step) in steps.iter().enumerate() {
        for &input in &step.inputs {
            last_use[input] = step_idx;
        }
    }
    last_use[output_slot] = usize::MAX; // keep the output alive

    // Per-slot dims from shape inference (input dims come from the graph).
    let slot_dims: Vec<Vec<usize>> = slot_names
        .iter()
        .map(|name| {
            shapes
                .get(name)
                .cloned()
                .unwrap_or_else(|| input_dims.clone())
        })
        .collect();

    // Batch buckets: re-infer the whole graph at each rung of the ladder so
    // every bucket gets exact per-slot dims, and insist each slot scales
    // linearly in the leading dim — anything else means the model pins its
    // batch internally and cannot be served above it.
    let base_batch = input_dims.first().copied().unwrap_or(1);
    let ladder = batch_buckets(base_batch, engine.max_batch());
    if ladder.len() > 1 && engine.vendor_backend().is_some() {
        return Err(EngineError::Config(
            "vendor backends pin their scratch to the load-time batch; \
             max_batch > 1 requires the native backend"
                .into(),
        ));
    }
    let mut buckets: Vec<BucketPlan> = Vec::with_capacity(ladder.len());
    for &batch in &ladder {
        let dims = if batch == base_batch {
            slot_dims.clone()
        } else {
            let batched = infer_shapes_with_batch(graph, batch).map_err(|e| {
                EngineError::Config(format!("model cannot serve batch {batch}: {e}"))
            })?;
            let mut batched_input = input_dims.clone();
            if let Some(lead) = batched_input.first_mut() {
                *lead = batch;
            }
            let dims: Vec<Vec<usize>> = slot_names
                .iter()
                .map(|name| {
                    batched
                        .get(name)
                        .cloned()
                        .unwrap_or_else(|| batched_input.clone())
                })
                .collect();
            for (slot, (bucket_dims, base_dims)) in dims.iter().zip(&slot_dims).enumerate() {
                let tails_match = bucket_dims.len() == base_dims.len()
                    && bucket_dims.get(1..) == base_dims.get(1..);
                let lead_scales = bucket_dims.first().copied().unwrap_or(1) * base_batch
                    == base_dims.first().copied().unwrap_or(1) * batch;
                if !tails_match || !lead_scales {
                    return Err(EngineError::Config(format!(
                        "value {:?} does not scale linearly with batch: \
                         {bucket_dims:?} at batch {batch} vs {base_dims:?} at batch {base_batch}",
                        slot_names[slot]
                    )));
                }
            }
            dims
        };
        buckets.push(BucketPlan {
            batch,
            memory: plan_memory(&steps, &last_use, &dims),
            slot_dims: dims,
        });
    }

    Ok(Plan {
        steps: steps.into(),
        num_slots,
        input_slot,
        input_dims,
        output_slot,
        last_use,
        buckets,
        gemm_isa: if engine.forces_scalar() && orpheus_gemm::simd_available() {
            "scalar (forced)"
        } else {
            orpheus_gemm::dispatch_name()
        },
    })
}

/// The node inputs that are activations (i.e. not initializers).
fn activation_inputs<'a>(graph: &'a Graph, node: &'a Node) -> Vec<&'a str> {
    node.inputs
        .iter()
        .filter(|name| !name.is_empty() && graph.initializer(name).is_none())
        .map(String::as_str)
        .collect()
}

/// Looks up a required initializer.
fn initializer<'a>(graph: &'a Graph, node: &Node, idx: usize) -> Result<&'a Tensor, EngineError> {
    let name = node.inputs.get(idx).ok_or_else(|| EngineError::Lowering {
        node: node.name.clone(),
        reason: format!("missing input #{idx}"),
    })?;
    graph
        .initializer(name)
        .ok_or_else(|| EngineError::Lowering {
            node: node.name.clone(),
            reason: format!("input {name:?} must be a constant initializer"),
        })
}

/// Optional initializer (e.g. conv bias).
fn optional_initializer<'a>(graph: &'a Graph, node: &Node, idx: usize) -> Option<&'a Tensor> {
    node.inputs
        .get(idx)
        .filter(|n| !n.is_empty())
        .and_then(|n| graph.initializer(n))
}

/// Parses the `fused_activation` attributes the fusion pass writes.
fn fused_activation(node: &Node) -> Option<Activation> {
    match node.attrs.str_opt("fused_activation")? {
        "relu" => Some(Activation::Relu),
        "clip" => Some(Activation::Clip {
            lo: node.attrs.float_or("fused_clip_lo", f32::NEG_INFINITY),
            hi: node.attrs.float_or("fused_clip_hi", f32::INFINITY),
        }),
        "leaky_relu" => Some(Activation::LeakyRelu {
            alpha: node.attrs.float_or("fused_alpha", 0.01),
        }),
        "sigmoid" => Some(Activation::Sigmoid),
        "tanh" => Some(Activation::Tanh),
        _ => None,
    }
}

/// Input spatial size of a node's first activation input.
fn input_hw(
    node: &Node,
    shapes: &HashMap<String, Vec<usize>>,
) -> Result<(usize, usize), EngineError> {
    let name = node.inputs.first().ok_or_else(|| EngineError::Lowering {
        node: node.name.clone(),
        reason: "node has no inputs".into(),
    })?;
    let dims = shapes.get(name).ok_or_else(|| EngineError::Lowering {
        node: node.name.clone(),
        reason: format!("no inferred shape for {name:?}"),
    })?;
    if dims.len() != 4 {
        return Err(EngineError::Lowering {
            node: node.name.clone(),
            reason: format!("expected rank-4 input, got {dims:?}"),
        });
    }
    Ok((dims[2], dims[3]))
}

fn build_layer(
    engine: &Engine,
    graph: &Graph,
    node: &Node,
    shapes: &HashMap<String, Vec<usize>>,
) -> Result<Box<dyn Layer>, EngineError> {
    let err = |reason: String| EngineError::Lowering {
        node: node.name.clone(),
        reason,
    };
    Ok(match &node.op {
        OpKind::Conv => {
            let weight = initializer(graph, node, 1)?.clone();
            let bias = optional_initializer(graph, node, 2).cloned();
            let params = conv_params_from(node, &weight)?;
            let (h, w) = input_hw(node, shapes)?;
            // Third-party routing: vendor backends claim plain convolutions;
            // the shim applies bias and fused activation as an epilogue.
            if let Some(vendor) = engine.vendor_backend() {
                if params.groups == 1 && params.dilation_h == 1 && params.dilation_w == 1 {
                    let in_dims = shapes
                        .get(&node.inputs[0])
                        .cloned()
                        .unwrap_or_else(|| vec![1, params.in_channels, h, w]);
                    let dims4 = [in_dims[0], in_dims[1], in_dims[2], in_dims[3]];
                    let act = fused_activation(node);
                    return Ok(match vendor {
                        VendorBackend::Vnnl => Box::new(VnnlConvLayer::new(
                            &node.name,
                            params,
                            &weight,
                            bias,
                            act,
                            (h, w),
                        )?),
                        VendorBackend::Vcl => Box::new(VclConvLayer::new(
                            &node.name, params, &weight, bias, act, dims4,
                        )?),
                    });
                }
            }
            let algorithm = {
                let mut select_span = orpheus_observe::span(node.name.as_str(), "selection");
                select_span.attr("h", h);
                select_span.attr("w", w);
                let algorithm = choose_conv_algorithm(engine, &params, h, w);
                if orpheus_observe::enabled() {
                    select_span.attr("algo", algorithm.to_string());
                    orpheus_observe::counter_add(&format!("selection.algo.{algorithm}"), 1);
                }
                algorithm
            };
            Box::new(ConvLayer::new(
                &node.name,
                params,
                weight,
                bias,
                algorithm,
                fused_activation(node),
                (h, w),
            )?)
        }
        OpKind::Gemm => {
            let weight = initializer(graph, node, 1)?.clone();
            let bias = optional_initializer(graph, node, 2).cloned();
            if node.attrs.int_or("transB", 1) != 1 {
                return Err(err("only transB=1 Gemm supported".into()));
            }
            Box::new(DenseLayer::new(
                &node.name,
                weight,
                bias,
                force_scalar_kernel(engine, engine.personality().dense_kernel()),
                fused_activation(node),
            )?)
        }
        OpKind::BatchNormalization => {
            let scale = initializer(graph, node, 1)?;
            let shift = initializer(graph, node, 2)?;
            let mean = initializer(graph, node, 3)?;
            let var = initializer(graph, node, 4)?;
            let eps = node.attrs.float_or("epsilon", 1e-5);
            Box::new(BatchNormLayer::new(
                &node.name, scale, shift, mean, var, eps,
            )?)
        }
        OpKind::Relu => Box::new(ActivationLayer::new(&node.name, Activation::Relu)),
        OpKind::LeakyRelu => Box::new(ActivationLayer::new(
            &node.name,
            Activation::LeakyRelu {
                alpha: node.attrs.float_or("alpha", 0.01),
            },
        )),
        OpKind::Clip => Box::new(ActivationLayer::new(
            &node.name,
            Activation::Clip {
                lo: node.attrs.float_or("min", f32::NEG_INFINITY),
                hi: node.attrs.float_or("max", f32::INFINITY),
            },
        )),
        OpKind::Sigmoid => Box::new(ActivationLayer::new(&node.name, Activation::Sigmoid)),
        OpKind::Tanh => Box::new(ActivationLayer::new(&node.name, Activation::Tanh)),
        OpKind::MaxPool | OpKind::AveragePool => {
            let kernel = node.attrs.ints_or("kernel_shape", &[1, 1]);
            let strides = node.attrs.ints_or("strides", &kernel);
            let pads = node.attrs.ints_or("pads", &[0, 0, 0, 0]);
            let (pt, pl) = (
                pads.first().copied().unwrap_or(0),
                pads.get(1).copied().unwrap_or(0),
            );
            let mode = if node.op == OpKind::MaxPool {
                PoolMode::Max
            } else {
                PoolMode::Average {
                    count_include_pad: node.attrs.int_or("count_include_pad", 0) != 0,
                }
            };
            let params = Pool2dParams {
                mode,
                kernel_h: kernel[0],
                kernel_w: kernel[1],
                stride_h: strides[0],
                stride_w: strides[1],
                pad_h: pt,
                pad_w: pl,
            };
            Box::new(PoolLayer::new(&node.name, params))
        }
        OpKind::GlobalAveragePool => Box::new(GlobalPoolLayer::new(&node.name)),
        OpKind::Add => {
            if activation_inputs(graph, node).len() != 2 {
                return Err(err("Add with constant operands is not supported".into()));
            }
            Box::new(AddLayer::new(&node.name, fused_activation(node)))
        }
        OpKind::Mul => {
            if activation_inputs(graph, node).len() != 2 {
                return Err(err("Mul with constant operands is not supported".into()));
            }
            Box::new(MulLayer::new(&node.name))
        }
        OpKind::Concat => {
            if node.attrs.int_or("axis", 1) != 1 {
                return Err(err("only channel-axis Concat is supported".into()));
            }
            Box::new(ConcatLayer::new(&node.name, node.inputs.len()))
        }
        OpKind::Softmax => Box::new(SoftmaxLayer::new(&node.name)),
        OpKind::Pad => {
            let pads = node.attrs.ints_or("pads", &[]);
            if !pads.len().is_multiple_of(2) {
                return Err(err(format!(
                    "Pad expects 2*rank pad values, got {}",
                    pads.len()
                )));
            }
            let rank = pads.len() / 2;
            Box::new(PadLayer::new(
                &node.name,
                pads[..rank].to_vec(),
                pads[rank..].to_vec(),
                node.attrs.float_or("value", 0.0),
            ))
        }
        OpKind::ReduceMean => Box::new(ReduceMeanLayer::new(
            &node.name,
            node.attrs.ints_or("axes", &[]),
            node.attrs.int_or("keepdims", 1) != 0,
            shapes
                .get(&node.inputs[0])
                .map(Vec::len)
                .ok_or_else(|| err("no inferred input shape for ReduceMean".into()))?,
        )),
        OpKind::Flatten => Box::new(FlattenLayer::new(&node.name)),
        OpKind::Reshape => Box::new(ReshapeLayer::new(&node.name)),
        OpKind::Identity | OpKind::Dropout => Box::new(IdentityLayer::new(&node.name)),
        OpKind::Custom(op) => {
            return Err(err(format!(
                "custom op {op:?} has no registered implementation; \
                 wrap a vendor backend (see orpheus::layers::third_party)"
            )))
        }
    })
}

/// Builds conv params from node attributes + weight dims.
fn conv_params_from(node: &Node, weight: &Tensor) -> Result<Conv2dParams, EngineError> {
    let err = |reason: String| EngineError::Lowering {
        node: node.name.clone(),
        reason,
    };
    let wd = weight.dims();
    if wd.len() != 4 {
        return Err(err(format!("conv weight must be rank 4, got {wd:?}")));
    }
    let groups = node.attrs.int_or("group", 1).max(1) as usize;
    let kernel = node.attrs.ints_or("kernel_shape", &[wd[2], wd[3]]);
    let strides = node.attrs.ints_or("strides", &[1, 1]);
    let dilations = node.attrs.ints_or("dilations", &[1, 1]);
    let pads = node.attrs.ints_or("pads", &[0, 0, 0, 0]);
    let (pt, pl, pb, pr) = match pads.len() {
        4 => (pads[0], pads[1], pads[2], pads[3]),
        2 => (pads[0], pads[1], pads[0], pads[1]),
        _ => (0, 0, 0, 0),
    };
    if pt != pb || pl != pr {
        return Err(err(format!(
            "asymmetric padding [{pt},{pl},{pb},{pr}] is not supported"
        )));
    }
    Ok(Conv2dParams {
        in_channels: wd[1] * groups,
        out_channels: wd[0],
        kernel_h: kernel[0],
        kernel_w: kernel[1],
        stride_h: strides[0],
        stride_w: strides[1],
        pad_h: pt,
        pad_w: pl,
        dilation_h: dilations[0],
        dilation_w: dilations[1],
        groups,
    })
}

/// Applies the engine's policy plus the personality's depthwise behaviour.
fn choose_conv_algorithm(
    engine: &Engine,
    params: &Conv2dParams,
    h: usize,
    w: usize,
) -> ConvAlgorithm {
    let chosen = match engine.policy() {
        SelectionPolicy::Fixed(algo) => {
            let dedicated = ConvAlgorithm::DepthwiseDirect;
            if dedicated.supports(params) && !engine.personality().depthwise_uses_generic_path() {
                // Efficient frameworks route depthwise to the dedicated
                // kernel regardless of their main conv algorithm.
                dedicated
            } else {
                supported_or_fallback(algo, params)
            }
        }
        policy => policy.select(params, h, w, engine.pool()),
    };
    match chosen {
        ConvAlgorithm::Im2colGemm(k) => ConvAlgorithm::Im2colGemm(force_scalar_kernel(engine, k)),
        ConvAlgorithm::Im2colGemmEager(k) => {
            ConvAlgorithm::Im2colGemmEager(force_scalar_kernel(engine, k))
        }
        other => other,
    }
}

/// Substitutes the pinned-scalar twin for the runtime-dispatched `Packed`
/// tier when the engine forces scalar execution (the differential lane and
/// `ORPHEUS_FORCE_SCALAR` hosts). Other tiers are already scalar.
fn force_scalar_kernel(engine: &Engine, kernel: GemmKernel) -> GemmKernel {
    if engine.forces_scalar() && kernel == GemmKernel::Packed {
        GemmKernel::PackedScalar
    } else {
        kernel
    }
}
