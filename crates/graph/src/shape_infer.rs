//! Static shape inference over the graph.
//!
//! Orpheus executes with static shapes, but the leading (batch) dimension is
//! *symbolic*: [`infer_shapes`] infers at the graph's declared batch, and
//! [`infer_shapes_with_batch`] re-infers the whole graph with the leading dim
//! of every graph input overridden. The lowering and memory planner in the
//! core crate call the latter once per batch bucket, so a single load serves
//! a ladder of batch sizes.

use std::collections::HashMap;

use crate::error::GraphError;
use crate::graph::{Graph, Node, OpKind};

/// Infers the shape of every value in the graph.
///
/// Returns a map from value name to dims. Custom ops propagate their first
/// input's shape (a reasonable default for the element-wise third-party ops
/// backends register).
///
/// # Errors
///
/// Returns [`GraphError::ShapeInference`] when an operator's inputs are
/// inconsistent, or [`GraphError::Cycle`] for cyclic graphs.
pub fn infer_shapes(graph: &Graph) -> Result<HashMap<String, Vec<usize>>, GraphError> {
    infer_shapes_inner(graph, None)
}

/// Infers every value shape with the leading (batch) dimension of each graph
/// input overridden to `batch`.
///
/// This is the symbolic-N entry point: the graph's declared input dims fix
/// the per-image tail, and the batch extent is substituted before inference
/// runs, so downstream ops (conv, pooling, gemm, concat, …) all see the
/// requested batch. Models whose graphs pin the batch internally (e.g. a
/// `Reshape` whose static spec hard-codes the declared batch) fail inference
/// at any other batch — a clean "this model is not batchable" signal.
///
/// # Errors
///
/// Same failure modes as [`infer_shapes`], plus a [`GraphError::ShapeInference`]
/// when `batch` is 0 or a graph input has rank 0 (no leading dim to rebind).
pub fn infer_shapes_with_batch(
    graph: &Graph,
    batch: usize,
) -> Result<HashMap<String, Vec<usize>>, GraphError> {
    if batch == 0 {
        return Err(GraphError::ShapeInference {
            node: "<inputs>".into(),
            reason: "batch size must be at least 1".into(),
        });
    }
    infer_shapes_inner(graph, Some(batch))
}

fn infer_shapes_inner(
    graph: &Graph,
    batch: Option<usize>,
) -> Result<HashMap<String, Vec<usize>>, GraphError> {
    let mut shapes: HashMap<String, Vec<usize>> = HashMap::new();
    for info in graph.inputs() {
        let mut dims = info.dims.clone();
        if let Some(n) = batch {
            match dims.first_mut() {
                Some(lead) => *lead = n,
                None => {
                    return Err(GraphError::ShapeInference {
                        node: info.name.clone(),
                        reason: "rank-0 input has no batch dimension".into(),
                    });
                }
            }
        }
        shapes.insert(info.name.clone(), dims);
    }
    for (name, tensor) in graph.initializers() {
        shapes.insert(name.clone(), tensor.dims().to_vec());
    }
    for idx in graph.topo_order()? {
        let node = &graph.nodes()[idx];
        infer_node(graph, node, &mut shapes)?;
    }
    Ok(shapes)
}

fn err(node: &Node, reason: impl Into<String>) -> GraphError {
    GraphError::ShapeInference {
        node: node.name.clone(),
        reason: reason.into(),
    }
}

fn input_shape<'a>(
    node: &Node,
    shapes: &'a HashMap<String, Vec<usize>>,
    idx: usize,
) -> Result<&'a [usize], GraphError> {
    let name = node
        .inputs
        .get(idx)
        .filter(|n| !n.is_empty())
        .ok_or_else(|| err(node, format!("missing input #{idx}")))?;
    shapes
        .get(name)
        .map(Vec::as_slice)
        .ok_or_else(|| err(node, format!("unknown shape for input {name:?}")))
}

/// Output extent of one spatial convolution/pooling dimension.
///
/// All arithmetic is checked: attribute values come straight from untrusted
/// model bytes, so a huge kernel, pad, or dilation must surface as a shape
/// error rather than overflow.
fn spatial_out(
    input: usize,
    kernel: usize,
    stride: usize,
    pad_total: usize,
    dilation: usize,
) -> Result<usize, String> {
    if kernel == 0 {
        return Err("kernel extent is 0".into());
    }
    let effective = dilation
        .checked_mul(kernel - 1)
        .and_then(|v| v.checked_add(1))
        .ok_or_else(|| format!("dilated kernel overflows: dilation {dilation} kernel {kernel}"))?;
    let padded = input
        .checked_add(pad_total)
        .ok_or_else(|| format!("padded extent overflows: input {input} pads {pad_total}"))?;
    Ok(padded.saturating_sub(effective) / stride.max(1) + 1)
}

/// Product of dims, or `None` on overflow.
fn checked_product<'a>(dims: impl IntoIterator<Item = &'a usize>) -> Option<usize> {
    dims.into_iter()
        .try_fold(1usize, |acc, &d| acc.checked_mul(d))
}

/// Reads a 2-element spatial attribute (kernel/strides/dilations), rejecting
/// lists of any other length so indexing can never panic.
fn spatial_pair(node: &Node, name: &str, default: [usize; 2]) -> Result<[usize; 2], GraphError> {
    let v = node.attrs.ints_or(name, &default);
    match v.as_slice() {
        [h, w] => Ok([*h, *w]),
        other => Err(err(
            node,
            format!("{name} expects 2 values, got {}", other.len()),
        )),
    }
}

fn infer_node(
    graph: &Graph,
    node: &Node,
    shapes: &mut HashMap<String, Vec<usize>>,
) -> Result<(), GraphError> {
    let out_shape: Vec<usize> = match &node.op {
        OpKind::Conv => {
            let x = input_shape(node, shapes, 0)?;
            let w = input_shape(node, shapes, 1)?;
            if x.len() != 4 || w.len() != 4 {
                return Err(err(node, "Conv expects rank-4 input and weight"));
            }
            let kernel = spatial_pair(node, "kernel_shape", [w[2], w[3]])?;
            let strides = spatial_pair(node, "strides", [1, 1])?;
            let pads = node.attrs.ints_or("pads", &[0, 0, 0, 0]);
            let dilations = spatial_pair(node, "dilations", [1, 1])?;
            let (pt, pl, pb, pr) = pads_4(&pads);
            let pad_h = pt
                .checked_add(pb)
                .ok_or_else(|| err(node, "pads overflow"))?;
            let pad_w = pl
                .checked_add(pr)
                .ok_or_else(|| err(node, "pads overflow"))?;
            vec![
                x[0],
                w[0],
                spatial_out(x[2], kernel[0], strides[0], pad_h, dilations[0])
                    .map_err(|m| err(node, m))?,
                spatial_out(x[3], kernel[1], strides[1], pad_w, dilations[1])
                    .map_err(|m| err(node, m))?,
            ]
        }
        OpKind::MaxPool | OpKind::AveragePool => {
            let x = input_shape(node, shapes, 0)?;
            if x.len() != 4 {
                return Err(err(node, "pooling expects rank-4 input"));
            }
            let kernel = spatial_pair(node, "kernel_shape", [1, 1])?;
            let strides = spatial_pair(node, "strides", kernel)?;
            let pads = node.attrs.ints_or("pads", &[0, 0, 0, 0]);
            let (pt, pl, pb, pr) = pads_4(&pads);
            let pad_h = pt
                .checked_add(pb)
                .ok_or_else(|| err(node, "pads overflow"))?;
            let pad_w = pl
                .checked_add(pr)
                .ok_or_else(|| err(node, "pads overflow"))?;
            vec![
                x[0],
                x[1],
                spatial_out(x[2], kernel[0], strides[0], pad_h, 1).map_err(|m| err(node, m))?,
                spatial_out(x[3], kernel[1], strides[1], pad_w, 1).map_err(|m| err(node, m))?,
            ]
        }
        OpKind::GlobalAveragePool => {
            let x = input_shape(node, shapes, 0)?;
            if x.len() != 4 {
                return Err(err(node, "GlobalAveragePool expects rank-4 input"));
            }
            vec![x[0], x[1], 1, 1]
        }
        OpKind::Gemm => {
            let x = input_shape(node, shapes, 0)?;
            let w = input_shape(node, shapes, 1)?;
            if w.len() != 2 {
                return Err(err(node, "Gemm expects rank-2 weight"));
            }
            if node.attrs.int_or("transB", 1) != 1 {
                return Err(err(node, "only transB=1 Gemm is supported"));
            }
            let batch = x.first().copied().unwrap_or(1);
            let features = checked_product(x.iter().skip(1))
                .ok_or_else(|| err(node, "Gemm feature count overflows"))?;
            if features != w[1] {
                return Err(err(
                    node,
                    format!("Gemm features {features} != weight in-dim {}", w[1]),
                ));
            }
            vec![batch, w[0]]
        }
        OpKind::Add | OpKind::Mul => {
            let a = input_shape(node, shapes, 0)?.to_vec();
            let b = input_shape(node, shapes, 1)?;
            if a != b {
                return Err(err(
                    node,
                    format!("element-wise shape mismatch {a:?} vs {b:?}"),
                ));
            }
            a
        }
        OpKind::Concat => {
            let axis = node.attrs.int_or("axis", 1).max(0) as usize;
            let first = input_shape(node, shapes, 0)?.to_vec();
            if axis >= first.len() {
                return Err(err(node, format!("concat axis {axis} out of range")));
            }
            let mut total = 0;
            for i in 0..node.inputs.len() {
                let s = input_shape(node, shapes, i)?;
                if s.len() != first.len() {
                    return Err(err(node, "concat rank mismatch"));
                }
                for (d, (&sa, &sf)) in s.iter().zip(&first).enumerate() {
                    if d != axis && sa != sf {
                        return Err(err(node, "concat non-axis dims must match"));
                    }
                }
                total = s[axis]
                    .checked_add(total)
                    .ok_or_else(|| err(node, "concat extent overflows"))?;
            }
            let mut out = first;
            out[axis] = total;
            out
        }
        OpKind::Pad => {
            let x = input_shape(node, shapes, 0)?;
            let pads = node.attrs.ints_or("pads", &[]);
            if pads.len() != 2 * x.len() {
                return Err(err(
                    node,
                    format!("Pad expects {} pad values, got {}", 2 * x.len(), pads.len()),
                ));
            }
            x.iter()
                .enumerate()
                .map(|(d, &extent)| {
                    extent
                        .checked_add(pads[d])
                        .and_then(|v| v.checked_add(pads[x.len() + d]))
                        .ok_or_else(|| err(node, "padded extent overflows"))
                })
                .collect::<Result<_, _>>()?
        }
        OpKind::ReduceMean => {
            let x = input_shape(node, shapes, 0)?;
            // ONNX's absent-axes rule: reduce every dimension.
            let mut axes = node.attrs.ints_or("axes", &[]);
            if axes.is_empty() {
                axes = (0..x.len()).collect();
            }
            let keepdims = node.attrs.int_or("keepdims", 1) != 0;
            for &a in &axes {
                if a >= x.len() {
                    return Err(err(node, format!("ReduceMean axis {a} out of range")));
                }
            }
            let mut out = Vec::new();
            for (d, &extent) in x.iter().enumerate() {
                if axes.contains(&d) {
                    if keepdims {
                        out.push(1);
                    }
                } else {
                    out.push(extent);
                }
            }
            out
        }
        OpKind::Flatten => {
            let x = input_shape(node, shapes, 0)?;
            let axis = node.attrs.int_or("axis", 1).max(0) as usize;
            let axis = axis.min(x.len());
            let lead = checked_product(&x[..axis])
                .ok_or_else(|| err(node, "Flatten lead extent overflows"))?;
            let trail = checked_product(&x[axis..])
                .ok_or_else(|| err(node, "Flatten trail extent overflows"))?;
            vec![lead.max(1), trail.max(1)]
        }
        OpKind::Reshape => {
            let x = input_shape(node, shapes, 0)?;
            let total = checked_product(x.iter())
                .ok_or_else(|| err(node, "Reshape input extent overflows"))?;
            let spec = node
                .attrs
                .get("shape")
                .and_then(|v| match v {
                    crate::attributes::AttrValue::Ints(is) => Some(is.clone()),
                    _ => None,
                })
                .ok_or_else(|| err(node, "Reshape requires a static `shape` attribute"))?;
            resolve_reshape(&spec, total).map_err(|m| err(node, m))?
        }
        OpKind::BatchNormalization
        | OpKind::Relu
        | OpKind::LeakyRelu
        | OpKind::Clip
        | OpKind::Sigmoid
        | OpKind::Tanh
        | OpKind::Softmax
        | OpKind::Identity
        | OpKind::Dropout => input_shape(node, shapes, 0)?.to_vec(),
        OpKind::Custom(_) => input_shape(node, shapes, 0)?.to_vec(),
    };
    // All modeled ops have one (primary) output; extra outputs (e.g.
    // Dropout's mask) are not shape-tracked.
    let out = node
        .outputs
        .first()
        .ok_or_else(|| err(node, "node has no outputs"))?;
    shapes.insert(out.clone(), out_shape);
    let _ = graph;
    Ok(())
}

/// ONNX pads `[t, l, b, r]`; tolerate 2-element `[h, w]` shorthand.
fn pads_4(pads: &[usize]) -> (usize, usize, usize, usize) {
    match pads.len() {
        4 => (pads[0], pads[1], pads[2], pads[3]),
        2 => (pads[0], pads[1], pads[0], pads[1]),
        _ => (0, 0, 0, 0),
    }
}

/// Resolves an ONNX reshape spec (`0` = copy input dim, `-1` = infer).
fn resolve_reshape(spec: &[i64], total: usize) -> Result<Vec<usize>, String> {
    let mut out: Vec<usize> = Vec::with_capacity(spec.len());
    let mut infer_at: Option<usize> = None;
    for (i, &d) in spec.iter().enumerate() {
        match d {
            -1 => {
                if infer_at.is_some() {
                    return Err("multiple -1 dims in reshape".into());
                }
                infer_at = Some(i);
                out.push(1);
            }
            d if d >= 0 => out.push(d as usize),
            _ => return Err(format!("invalid reshape dim {d}")),
        }
    }
    let known = checked_product(out.iter()).ok_or("reshape spec overflows")?;
    if let Some(i) = infer_at {
        if known == 0 || !total.is_multiple_of(known) {
            return Err(format!("cannot infer reshape dim: {total} / {known}"));
        }
        out[i] = total / known;
    } else if known != total {
        return Err(format!("reshape element mismatch: {known} != {total}"));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attributes::{AttrValue, Attributes};
    use crate::graph::{Node, ValueInfo};
    use orpheus_tensor::Tensor;

    fn conv_attrs(k: usize, s: usize, p: usize) -> Attributes {
        Attributes::new()
            .with("kernel_shape", AttrValue::Ints(vec![k as i64, k as i64]))
            .with("strides", AttrValue::Ints(vec![s as i64, s as i64]))
            .with(
                "pads",
                AttrValue::Ints(vec![p as i64, p as i64, p as i64, p as i64]),
            )
    }

    #[test]
    fn conv_shape_resnet_stem() {
        let mut g = Graph::new("t");
        g.add_input(ValueInfo::new("x", &[1, 3, 224, 224]));
        g.add_initializer("w", Tensor::zeros(&[64, 3, 7, 7]));
        g.add_node(
            Node::new("c", OpKind::Conv, &["x", "w"], &["y"]).with_attrs(conv_attrs(7, 2, 3)),
        );
        g.add_output("y");
        let shapes = infer_shapes(&g).unwrap();
        assert_eq!(shapes["y"], vec![1, 64, 112, 112]);
    }

    #[test]
    fn pool_defaults_stride_to_kernel() {
        let mut g = Graph::new("t");
        g.add_input(ValueInfo::new("x", &[1, 8, 8, 8]));
        g.add_node(
            Node::new("p", OpKind::MaxPool, &["x"], &["y"])
                .with_attrs(Attributes::new().with("kernel_shape", AttrValue::Ints(vec![2, 2]))),
        );
        g.add_output("y");
        assert_eq!(infer_shapes(&g).unwrap()["y"], vec![1, 8, 4, 4]);
    }

    #[test]
    fn global_pool_and_gemm_chain() {
        let mut g = Graph::new("t");
        g.add_input(ValueInfo::new("x", &[1, 512, 7, 7]));
        g.add_initializer("w", Tensor::zeros(&[1000, 512]));
        g.add_node(Node::new("g", OpKind::GlobalAveragePool, &["x"], &["p"]));
        g.add_node(Node::new("f", OpKind::Flatten, &["p"], &["flat"]));
        g.add_node(Node::new("fc", OpKind::Gemm, &["flat", "w"], &["y"]));
        g.add_output("y");
        let shapes = infer_shapes(&g).unwrap();
        assert_eq!(shapes["p"], vec![1, 512, 1, 1]);
        assert_eq!(shapes["flat"], vec![1, 512]);
        assert_eq!(shapes["y"], vec![1, 1000]);
    }

    #[test]
    fn gemm_rejects_feature_mismatch() {
        let mut g = Graph::new("t");
        g.add_input(ValueInfo::new("x", &[1, 100]));
        g.add_initializer("w", Tensor::zeros(&[10, 99]));
        g.add_node(Node::new("fc", OpKind::Gemm, &["x", "w"], &["y"]));
        g.add_output("y");
        assert!(matches!(
            infer_shapes(&g),
            Err(GraphError::ShapeInference { .. })
        ));
    }

    #[test]
    fn concat_sums_channel_axis() {
        let mut g = Graph::new("t");
        g.add_input(ValueInfo::new("a", &[1, 3, 5, 5]));
        g.add_input(ValueInfo::new("b", &[1, 7, 5, 5]));
        g.add_node(
            Node::new("c", OpKind::Concat, &["a", "b"], &["y"])
                .with_attrs(Attributes::new().with("axis", AttrValue::Int(1))),
        );
        g.add_output("y");
        assert_eq!(infer_shapes(&g).unwrap()["y"], vec![1, 10, 5, 5]);
    }

    #[test]
    fn concat_rejects_spatial_mismatch() {
        let mut g = Graph::new("t");
        g.add_input(ValueInfo::new("a", &[1, 3, 5, 5]));
        g.add_input(ValueInfo::new("b", &[1, 7, 6, 5]));
        g.add_node(Node::new("c", OpKind::Concat, &["a", "b"], &["y"]));
        g.add_output("y");
        assert!(infer_shapes(&g).is_err());
    }

    #[test]
    fn add_requires_same_shape() {
        let mut g = Graph::new("t");
        g.add_input(ValueInfo::new("a", &[1, 3]));
        g.add_input(ValueInfo::new("b", &[1, 4]));
        g.add_node(Node::new("s", OpKind::Add, &["a", "b"], &["y"]));
        g.add_output("y");
        assert!(infer_shapes(&g).is_err());
    }

    #[test]
    fn reshape_resolves_zero_and_minus_one() {
        assert_eq!(resolve_reshape(&[2, -1], 10).unwrap(), vec![2, 5]);
        assert_eq!(resolve_reshape(&[10], 10).unwrap(), vec![10]);
        assert!(resolve_reshape(&[-1, -1], 10).is_err());
        assert!(resolve_reshape(&[3], 10).is_err());
    }

    #[test]
    fn conv_with_huge_attrs_errors_instead_of_overflowing() {
        // Attribute values come from untrusted bytes; i64::MAX clamps to a
        // huge usize in `ints_or` and used to overflow the spatial math.
        let huge = i64::MAX;
        for (name, values) in [
            ("pads", vec![huge, huge, huge, huge]),
            ("kernel_shape", vec![0, 0]),
            ("kernel_shape", vec![3]), // wrong arity must not panic on index
        ] {
            let mut g = Graph::new("t");
            g.add_input(ValueInfo::new("x", &[1, 1, 8, 8]));
            g.add_initializer("w", Tensor::zeros(&[1, 1, 3, 3]));
            g.add_node(
                Node::new("c", OpKind::Conv, &["x", "w"], &["y"])
                    .with_attrs(Attributes::new().with(name, AttrValue::Ints(values))),
            );
            g.add_output("y");
            assert!(
                matches!(infer_shapes(&g), Err(GraphError::ShapeInference { .. })),
                "attr {name} must yield a shape error"
            );
        }
    }

    #[test]
    fn pad_with_huge_pads_errors() {
        let mut g = Graph::new("t");
        g.add_input(ValueInfo::new("x", &[1, 1, 4, 4]));
        g.add_node(
            Node::new("p", OpKind::Pad, &["x"], &["y"])
                .with_attrs(Attributes::new().with("pads", AttrValue::Ints(vec![i64::MAX; 8]))),
        );
        g.add_output("y");
        assert!(matches!(
            infer_shapes(&g),
            Err(GraphError::ShapeInference { .. })
        ));
    }

    #[test]
    fn reshape_overflow_spec_errors() {
        let big = i64::MAX;
        assert!(resolve_reshape(&[big, big], 10).is_err());
    }

    #[test]
    fn batched_inference_scales_the_leading_dim_through_the_graph() {
        let mut g = Graph::new("t");
        g.add_input(ValueInfo::new("x", &[1, 512, 7, 7]));
        g.add_initializer("w", Tensor::zeros(&[1000, 512]));
        g.add_node(Node::new("g", OpKind::GlobalAveragePool, &["x"], &["p"]));
        g.add_node(Node::new("f", OpKind::Flatten, &["p"], &["flat"]));
        g.add_node(Node::new("fc", OpKind::Gemm, &["flat", "w"], &["y"]));
        g.add_output("y");
        let shapes = infer_shapes_with_batch(&g, 4).unwrap();
        assert_eq!(shapes["x"], vec![4, 512, 7, 7]);
        assert_eq!(shapes["p"], vec![4, 512, 1, 1]);
        assert_eq!(shapes["flat"], vec![4, 512]);
        assert_eq!(shapes["y"], vec![4, 1000]);
    }

    #[test]
    fn batched_inference_at_declared_batch_matches_unbatched() {
        let mut g = Graph::new("t");
        g.add_input(ValueInfo::new("x", &[1, 3, 8, 8]));
        g.add_initializer("w", Tensor::zeros(&[4, 3, 3, 3]));
        g.add_node(
            Node::new("c", OpKind::Conv, &["x", "w"], &["y"]).with_attrs(conv_attrs(3, 1, 1)),
        );
        g.add_output("y");
        assert_eq!(
            infer_shapes(&g).unwrap(),
            infer_shapes_with_batch(&g, 1).unwrap()
        );
    }

    #[test]
    fn batch_zero_is_rejected() {
        let mut g = Graph::new("t");
        g.add_input(ValueInfo::new("x", &[1, 3]));
        g.add_node(Node::new("r", OpKind::Relu, &["x"], &["y"]));
        g.add_output("y");
        assert!(matches!(
            infer_shapes_with_batch(&g, 0),
            Err(GraphError::ShapeInference { .. })
        ));
    }

    #[test]
    fn batch_pinning_reshape_fails_cleanly_at_other_batches() {
        // A static reshape spec that hard-codes the declared batch makes the
        // model unbatchable: element counts stop matching at batch 2.
        let mut g = Graph::new("t");
        g.add_input(ValueInfo::new("x", &[1, 6]));
        g.add_node(
            Node::new("r", OpKind::Reshape, &["x"], &["y"])
                .with_attrs(Attributes::new().with("shape", AttrValue::Ints(vec![1, 2, 3]))),
        );
        g.add_output("y");
        assert!(infer_shapes(&g).is_ok());
        assert!(matches!(
            infer_shapes_with_batch(&g, 2),
            Err(GraphError::ShapeInference { .. })
        ));
    }

    #[test]
    fn elementwise_ops_preserve_shape() {
        let mut g = Graph::new("t");
        g.add_input(ValueInfo::new("x", &[2, 3, 4, 4]));
        g.add_node(Node::new("r", OpKind::Relu, &["x"], &["a"]));
        g.add_node(Node::new("s", OpKind::Sigmoid, &["a"], &["b"]));
        g.add_node(Node::new("d", OpKind::Dropout, &["b"], &["c"]));
        g.add_output("c");
        let shapes = infer_shapes(&g).unwrap();
        assert_eq!(shapes["c"], vec![2, 3, 4, 4]);
    }

    #[test]
    fn reduce_mean_without_axes_reduces_every_dimension() {
        let mut g = Graph::new("t");
        g.add_input(ValueInfo::new("x", &[2, 3, 4, 4]));
        g.add_node(Node::new("m", OpKind::ReduceMean, &["x"], &["kept"]));
        g.add_node(
            Node::new("n", OpKind::ReduceMean, &["x"], &["dropped"])
                .with_attrs(Attributes::new().with("keepdims", AttrValue::Int(0))),
        );
        g.add_output("kept");
        g.add_output("dropped");
        let shapes = infer_shapes(&g).unwrap();
        assert_eq!(shapes["kept"], vec![1, 1, 1, 1]);
        assert_eq!(shapes["dropped"], Vec::<usize>::new());
    }
}
