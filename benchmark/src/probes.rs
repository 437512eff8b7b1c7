//! The per-layer metrics of the traced pass.
//!
//! A layer is one of this repo's crates. Each metric times the crate's
//! public call from here, under a span named `<crate>.<call>`, and reports
//! the p50 of the repetitions (or an exact count). The model is always the
//! workload's own, so a layer metric and the workload's end-to-end metrics
//! describe the same network.

use std::collections::HashMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

use orpheus::{Engine, Network};
use orpheus_gemm::{
    gemm, gemm_flops, gemm_prepacked_a, im2col, GemmKernel, Im2colParams, PackedWeights,
};
use orpheus_graph::passes::PassManager;
use orpheus_graph::{infer_shapes, Graph, Node, OpKind};
use orpheus_models::{build_model, ModelKind};
use orpheus_onnx::{export_model, import_model};
use orpheus_ops::activation::Activation;
use orpheus_ops::conv::{Conv2d, Conv2dParams, ConvAlgorithm};
use orpheus_ops::dense::{Dense, DenseAlgorithm};
use orpheus_serve::{BoundedQueue, Server};
use orpheus_tensor::{SmallRng, Tensor};
use orpheus_threads::ThreadPool;
use orpheus_verify::verify_graph;

use crate::oracle::Oracle;
use crate::report::{quoted, Metric};
use crate::stats::{ns_to_ms, ns_to_us, percentile_of};
use crate::trace::Recorder;
use crate::workloads::{
    burst_sizes, cold_op, engine, model_graph, serve_config, serve_ops, warm_server, Workload,
    BURST_DECK, BURST_PERIOD, SERVE_MAX_BATCH,
};
use crate::{alloc_count, Res};

/// What the probes hand back: metrics in `BENCHMARK.json` order is the
/// caller's job; here they are grouped by layer.
#[derive(Debug, Default)]
pub struct Probed {
    pub metrics: Vec<Metric>,
    pub header: Vec<(String, String)>,
    /// JSON array of per-layer rows (name, geometry, implementation, p50 µs,
    /// flops, computed bytes, GFLOP/s).
    pub layer_table: String,
    pub attempted: u64,
    pub failed: u64,
}

impl Probed {
    fn push(&mut self, name: &str, value: f64, unit: &str, n: usize) {
        self.metrics.push(Metric::new(name, value, unit, n));
    }
}

/// Times `reps` calls of `f`, each on a fresh value from `prep` (made
/// outside the timing), under a span; returns the p50 in nanoseconds and
/// the last result.
fn time_with<P, T>(
    rec: &mut Recorder,
    span_name: &str,
    reps: usize,
    mut prep: impl FnMut() -> P,
    mut f: impl FnMut(P) -> Res<T>,
) -> Res<(u64, T)> {
    let mut samples = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps.max(1) {
        let input = prep();
        drop(last.take());
        let span = rec.begin(span_name);
        let t0 = Instant::now();
        let result = f(input);
        let t1 = Instant::now();
        rec.end(span);
        samples.push(t1.duration_since(t0).as_nanos() as u64);
        last = Some(result?);
    }
    Ok((
        percentile_of(&mut samples, 50.0),
        last.expect("at least one repetition ran"),
    ))
}

fn time(
    rec: &mut Recorder,
    span_name: &str,
    reps: usize,
    mut f: impl FnMut() -> Res<()>,
) -> Res<u64> {
    Ok(time_with(rec, span_name, reps, || (), |()| f())?.0)
}

fn random_vec(len: usize, seed: u64) -> Vec<f32> {
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..len).map(|_| rng.gen_range(-1.0, 1.0)).collect()
}

/// Header field: what the packed GEMM reaches on a cache-resident 256³
/// problem — the peak the conv rows are a share of.
fn peak_gflops() -> f64 {
    const N: usize = 256;
    let (a, b) = (random_vec(N * N, 1), random_vec(N * N, 2));
    let mut c = vec![0.0f32; N * N];
    let best = (0..40)
        .map(|_| {
            let t0 = Instant::now();
            gemm(GemmKernel::Packed, N, N, N, &a, N, &b, N, &mut c, N, 0.0);
            black_box(&mut c);
            t0.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min);
    gemm_flops(N, N, N) as f64 / best / 1e9
}

/// Header field: bytes copied per second by a 64 MiB `copy_from_slice`.
fn copy_gbps() -> f64 {
    const BYTES: usize = 64 << 20;
    let src = vec![1u8; BYTES];
    let mut dst = vec![0u8; BYTES];
    let best = (0..6)
        .map(|_| {
            let t0 = Instant::now();
            dst.copy_from_slice(black_box(&src));
            black_box(&mut dst);
            t0.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min);
    BYTES as f64 / best / 1e9
}

fn conv_params(node: &Node, weight: &Tensor) -> Conv2dParams {
    let wd = weight.dims();
    let groups = node.attrs.int_or("group", 1).max(1) as usize;
    let kernel = node.attrs.ints_or("kernel_shape", &[wd[2], wd[3]]);
    let strides = node.attrs.ints_or("strides", &[1, 1]);
    let dilations = node.attrs.ints_or("dilations", &[1, 1]);
    let pads = node.attrs.ints_or("pads", &[0, 0, 0, 0]);
    Conv2dParams {
        in_channels: wd[1] * groups,
        out_channels: wd[0],
        kernel_h: kernel[0],
        kernel_w: kernel[1],
        stride_h: strides[0],
        stride_w: strides[1],
        pad_h: pads[0],
        pad_w: pads[1],
        dilation_h: dilations[0],
        dilation_w: dilations[1],
        groups,
    }
}

/// The activation the simplifier fused into a conv or dense node.
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

/// The algorithm the engine's lowering picks for this conv: the selection
/// policy's choice, except that every personality but the two eager ones
/// sends depthwise convs to the dedicated kernel first.
fn replay_algorithm(engine: &Engine, params: &Conv2dParams, h: usize, w: usize) -> ConvAlgorithm {
    if params.is_depthwise() && !engine.personality().depthwise_uses_generic_path() {
        return ConvAlgorithm::DepthwiseDirect;
    }
    engine.policy().select(params, h, w, engine.pool())
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ConvClass {
    Im2col,
    Pointwise,
    Depthwise,
    Other,
}

fn classify(params: &Conv2dParams, algorithm: ConvAlgorithm) -> ConvClass {
    let pointwise = params.kernel_h == 1
        && params.kernel_w == 1
        && params.stride_h == 1
        && params.stride_w == 1
        && params.pad_h == 0
        && params.pad_w == 0;
    match algorithm {
        ConvAlgorithm::DepthwiseDirect => ConvClass::Depthwise,
        ConvAlgorithm::Im2colGemm(_) if pointwise => ConvClass::Pointwise,
        ConvAlgorithm::Im2colGemm(_) => ConvClass::Im2col,
        _ => ConvClass::Other,
    }
}

/// Sums of the standalone replay, in nanoseconds unless named otherwise.
#[derive(Debug, Default)]
struct Replay {
    class_ns: [u64; 4],
    dense_ns: u64,
    conv_flops: u64,
    prepare_ns: u64,
    mismatch: u64,
    gemm_ns: u64,
    gemm_flops: u64,
    im2col_ns: u64,
    pack_a_ns: u64,
    rows: Vec<String>,
}

fn layer_row(
    name: &str,
    geometry: &str,
    implementation: &str,
    p50_ns: u64,
    flops: u64,
    bytes: usize,
) -> String {
    format!(
        "{{\"name\": {}, \"geometry\": {}, \"implementation\": {}, \"p50_us\": {}, \
         \"flops\": {flops}, \"computed_bytes\": {bytes}, \"gflops\": {}}}",
        quoted(name),
        quoted(geometry),
        quoted(implementation),
        ns_to_us(p50_ns),
        flops as f64 / p50_ns.max(1) as f64
    )
}

/// Standalone replay of every conv and dense node of the simplified graph:
/// the `ops` layer without the executor, and the `gemm` layer without `ops`.
fn replay(
    engine: &Engine,
    network: &Network,
    graph: &Graph,
    reps: usize,
    rec: &mut Recorder,
) -> Res<Replay> {
    let shapes = infer_shapes(graph)?;
    let planned: HashMap<String, String> = network
        .plan_summary()
        .layers
        .into_iter()
        .map(|l| (l.name, l.implementation))
        .collect();
    let pool = ThreadPool::single();
    let mut out = Replay::default();
    let initializer = |name: Option<&String>| name.and_then(|n| graph.initializer(n)).cloned();
    for index in graph.topo_order()? {
        let node = &graph.nodes()[index];
        let in_dims = shapes
            .get(&node.inputs[0])
            .ok_or_else(|| format!("no inferred shape for input of {}", node.name))?;
        let out_dims = &shapes[&node.outputs[0]];
        let input = Tensor::from_vec(random_vec(in_dims.iter().product(), index as u64), in_dims)?;
        let mut output = Tensor::zeros(out_dims);
        let weight = initializer(node.inputs.get(1));
        let bias = initializer(node.inputs.get(2).filter(|n| !n.is_empty()));
        match (&node.op, weight) {
            (OpKind::Conv, Some(weight)) => {
                let params = conv_params(node, &weight);
                let (h, w) = (in_dims[2], in_dims[3]);
                let algorithm = replay_algorithm(engine, &params, h, w);
                if planned.get(&node.name) != Some(&algorithm.to_string()) {
                    out.mismatch += 1;
                }
                let (prepare_ns, conv) = time_with(
                    rec,
                    "ops.conv2d_new",
                    reps.min(5),
                    || (weight.clone(), bias.clone()),
                    |(weight, bias)| Ok(Conv2d::new(params, weight, bias, algorithm)?),
                )?;
                let conv = match fused_activation(node) {
                    Some(activation) => conv.with_activation(activation),
                    None => conv,
                };
                let class = classify(&params, algorithm);
                let span = format!("ops.conv_run_into.{class:?}").to_lowercase();
                let p50 = time(rec, &span, reps, || {
                    conv.run_into(&input, &mut output, &pool)?;
                    Ok(())
                })?;
                let flops = params.flops(h, w);
                out.class_ns[class as usize] += p50;
                out.conv_flops += flops;
                out.prepare_ns += prepare_ns;
                out.rows.push(layer_row(
                    &node.name,
                    &format!(
                        "{}x{}x{} -> {} k{}x{} s{} g{}",
                        params.in_channels,
                        h,
                        w,
                        params.out_channels,
                        params.kernel_h,
                        params.kernel_w,
                        params.stride_h,
                        params.groups
                    ),
                    &algorithm.to_string(),
                    p50,
                    flops,
                    (input.len() + weight.len() + output.len()) * 4,
                ));
                if matches!(class, ConvClass::Im2col | ConvClass::Pointwise) {
                    replay_gemm(&params, &weight, &input, class, reps, rec, &mut out)?;
                }
            }
            (OpKind::Gemm, Some(weight)) => {
                let kernel = engine.personality().dense_kernel();
                let dense = Dense::new(weight.clone(), bias, DenseAlgorithm::Gemm(kernel))?;
                let dense = match fused_activation(node) {
                    Some(activation) => dense.with_activation(activation),
                    None => dense,
                };
                let p50 = time(rec, "ops.dense_run_into", reps, || {
                    dense.run_into(&input, &mut output, &pool)?;
                    Ok(())
                })?;
                let flops = 2 * weight.len() as u64;
                out.dense_ns += p50;
                out.rows.push(layer_row(
                    &node.name,
                    &format!("{} -> {}", dense.in_features(), dense.out_features()),
                    "gemm",
                    p50,
                    flops,
                    (input.len() + weight.len() + output.len()) * 4,
                ));
            }
            _ => {}
        }
    }
    Ok(out)
}

/// The GEMM (and, for a non-pointwise conv, the im2col) this conv lowers
/// to, timed on their own through `orpheus_gemm`'s public functions. Every
/// group has the same shape, so one group is timed and multiplied.
fn replay_gemm(
    params: &Conv2dParams,
    weight: &Tensor,
    input: &Tensor,
    class: ConvClass,
    reps: usize,
    rec: &mut Recorder,
    out: &mut Replay,
) -> Res<()> {
    let groups = params.groups;
    let (ih, iw) = (input.dims()[2], input.dims()[3]);
    let cig = params.in_channels / groups;
    let m = params.out_channels / groups;
    let lowering = Im2colParams {
        channels: cig,
        height: ih,
        width: iw,
        kernel_h: params.kernel_h,
        kernel_w: params.kernel_w,
        stride_h: params.stride_h,
        stride_w: params.stride_w,
        pad_h: params.pad_h,
        pad_w: params.pad_w,
        dilation_h: params.dilation_h,
        dilation_w: params.dilation_w,
    };
    let (k, n) = (lowering.matrix_rows(), lowering.matrix_cols());
    let group_weights = &weight.as_slice()[..m * k];
    let (pack_ns, packed) = time_with(
        rec,
        "gemm.pack_a",
        reps.min(5),
        || (),
        |()| Ok(PackedWeights::pack_a(group_weights, m, k, k)),
    )?;
    let group_input = &input.as_slice()[..cig * ih * iw];
    let mut columns = vec![0.0f32; k * n];
    if class == ConvClass::Im2col {
        out.im2col_ns += groups as u64
            * time(rec, "gemm.im2col", reps, || {
                im2col(&lowering, group_input, &mut columns);
                Ok(())
            })?;
    } else {
        columns.copy_from_slice(group_input);
    }
    let mut c = vec![0.0f32; m * n];
    out.gemm_ns += groups as u64
        * time(rec, "gemm.gemm_prepacked_a", reps, || {
            gemm_prepacked_a(GemmKernel::Packed, &packed, n, &columns, n, &mut c, n, 0.0);
            black_box(&mut c);
            Ok(())
        })?;
    out.gemm_flops += groups as u64 * gemm_flops(m, n, k);
    out.pack_a_ns += groups as u64 * pack_ns;
    Ok(())
}

fn ratio(numerator: f64, denominator: f64) -> f64 {
    if denominator > 0.0 {
        numerator / denominator
    } else {
        0.0
    }
}

/// Runs every probe on the workload's model. `reps` is the repetition
/// count of a timed call (30 in a full run); calls that take over 100 ms
/// get a third of it.
pub fn run(
    w: &Workload,
    inputs: &[Tensor],
    oracle: &Oracle,
    seed: u64,
    reps: usize,
    rec: &mut Recorder,
) -> Res<Probed> {
    let mut probe = Probe {
        w,
        inputs,
        reps,
        rec,
        out: Probed::default(),
    };
    let peak = probe.header();
    let model = probe.load_path()?;
    let run_ns = probe.run_path(&model)?;
    let network8 = probe.batch_rungs(&model, run_ns)?;
    probe.replay(&model, run_ns, peak)?;
    probe.serve(&network8, oracle, seed, run_ns)?;
    probe.observe(&model.network)?;
    Ok(probe.out)
}

/// The workload's model at each stage of the load path.
struct Model {
    imported: Graph,
    simplified: Graph,
    /// The workload's own engine configuration.
    engine: Engine,
    network: Network,
}

struct Probe<'a> {
    w: &'a Workload,
    inputs: &'a [Tensor],
    reps: usize,
    rec: &'a mut Recorder,
    out: Probed,
}

impl Probe<'_> {
    /// Header fields; returns the machine's measured peak GFLOP/s.
    fn header(&mut self) -> f64 {
        let peak = peak_gflops();
        self.out.header = vec![
            ("machine.peak_gflops".into(), peak.to_string()),
            ("machine.copy_gbps".into(), copy_gbps().to_string()),
            ("gemm_isa".into(), quoted(orpheus_gemm::dispatch_name())),
            (
                "nproc".into(),
                std::thread::available_parallelism()
                    .map_or(0, usize::from)
                    .to_string(),
            ),
        ];
        peak
    }

    /// onnx, graph, verify and the load side of core: the cold-start path,
    /// one public call at a time.
    fn load_path(&mut self) -> Res<Model> {
        let (w, inputs, reps) = (self.w, self.inputs, self.reps);
        let (rec, out) = (&mut *self.rec, &mut self.out);
        let bytes = export_model(&model_graph(w))?;
        let (import_ns, imported) = time_with(
            rec,
            "onnx.import_model",
            reps,
            || (),
            |()| Ok(import_model(&bytes)?),
        )?;
        out.push("onnx.import_ms", ns_to_ms(import_ns), "ms", reps);
        out.push(
            "onnx.import_mb_s",
            bytes.len() as f64 / 1e6 / (import_ns as f64 / 1e9),
            "MB/s",
            reps,
        );
        let (simplify_ns, (simplified, rounds)) = time_with(
            rec,
            "graph.run_to_fixpoint",
            reps,
            || imported.clone(),
            |mut graph| {
                let rounds = PassManager::standard().run_to_fixpoint(&mut graph)?;
                Ok((graph, rounds))
            },
        )?;
        out.push("graph.simplify_ms", ns_to_ms(simplify_ns), "ms", reps);
        out.push("graph.simplify_rounds", rounds as f64, "count", 1);
        out.push("graph.nodes_in", imported.nodes().len() as f64, "count", 1);
        out.push(
            "graph.nodes_out",
            simplified.nodes().len() as f64,
            "count",
            1,
        );
        let verify_ns = time(rec, "verify.verify_graph", reps, || {
            black_box(verify_graph(&simplified));
            Ok(())
        })?;
        out.push("verify.graph_ms", ns_to_ms(verify_ns), "ms", reps);

        let engine = engine(w.max_batch())?;
        let (load_ns, network) = time_with(
            rec,
            "core.engine_load",
            reps,
            || imported.clone(),
            |graph| Ok(engine.load(graph)?),
        )?;
        out.push("core.load_ms", ns_to_ms(load_ns), "ms", reps);
        let lowering_only = Engine::builder()
            .threads(1)
            .max_batch(w.max_batch())
            .simplification(false)
            .build()?;
        let (lower_ns, _) = time_with(
            rec,
            "core.engine_load.presimplified",
            reps,
            || simplified.clone(),
            |graph| Ok(lowering_only.load(graph)?),
        )?;
        out.push("core.lower_ms", ns_to_ms(lower_ns), "ms", reps);
        let (session_ns, _) = time_with(
            rec,
            "core.session_new",
            reps,
            || (),
            |()| Ok(network.session()),
        )?;
        out.push("core.session_new_ms", ns_to_ms(session_ns), "ms", reps);
        let (first_ns, _) = time_with(
            rec,
            "core.first_run",
            reps,
            || network.session(),
            |mut session| {
                session.run(&inputs[0])?;
                Ok(session)
            },
        )?;
        out.push("core.first_run_ms", ns_to_ms(first_ns), "ms", reps);
        let plan_check_ns = time(rec, "verify.check_plan", reps, || {
            black_box(network.check_plan());
            Ok(())
        })?;
        out.push("verify.plan_check_ms", ns_to_ms(plan_check_ns), "ms", reps);
        let cold_ns = time(rec, "bench.cold_op", reps, || {
            cold_op(&bytes, &inputs[0], &mut Recorder::new(false))?;
            Ok(())
        })?;
        out.push(
            "verify.plan_check_share",
            ratio(plan_check_ns as f64, cold_ns as f64),
            "ratio",
            reps,
        );
        Ok(Model {
            imported,
            simplified,
            engine,
            network,
        })
    }

    /// The run side of core at batch 1; returns the steady run's p50.
    fn run_path(&mut self, model: &Model) -> Res<u64> {
        let (inputs, reps) = (self.inputs, self.reps);
        let (rec, out) = (&mut *self.rec, &mut self.out);
        let mut session = model.network.session();
        let steady = reps * 3;
        let mut index = 0;
        let run_ns = time(rec, "core.session_run", steady, || {
            index += 1;
            session.run(&inputs[index % inputs.len()])?;
            Ok(())
        })?;
        out.push("core.run_p50_ms", ns_to_ms(run_ns), "ms", steady);
        let before = alloc_count();
        for _ in 0..reps {
            session.run(&inputs[0])?;
        }
        out.push(
            "core.steady_allocs_per_run",
            (alloc_count() - before) as f64 / reps as f64,
            "count",
            reps,
        );
        let summary = model.network.plan_summary();
        out.push(
            "core.arena_planned_bytes",
            summary.batch_buckets[0].arena_bytes as f64,
            "bytes",
            1,
        );
        out.push(
            "core.arena_measured_bytes",
            session.measured_arena_bytes() as f64,
            "bytes",
            1,
        );
        out.push("core.layers", summary.layers.len() as f64, "count", 1);
        out.push("core.flops", summary.flops as f64, "count", 1);
        out.header.push(("model".into(), quoted(&summary.model)));

        // TinyCNN: a run so small that what is left is the executor's fixed
        // cost per run.
        let tiny = model.engine.load(build_model(ModelKind::TinyCnn))?;
        let tiny_input = Tensor::ones(tiny.input_dims());
        let mut tiny_session = tiny.session();
        let tiny_ns = time(rec, "core.session_run.tiny", reps * 50, || {
            tiny_session.run(&tiny_input)?;
            Ok(())
        })?;
        out.push("core.run_tiny_us", ns_to_us(tiny_ns), "us", reps * 50);
        Ok(run_ns)
    }

    /// `Session::run_batch` at each rung of the full batch ladder; returns
    /// the ladder's network for the server probe.
    fn batch_rungs(&mut self, model: &Model, run_ns: u64) -> Res<Arc<Network>> {
        let (inputs, reps) = (self.inputs, self.reps);
        let (rec, out) = (&mut *self.rec, &mut self.out);
        let network8 = Arc::new(engine(SERVE_MAX_BATCH)?.load(model.imported.clone())?);
        out.push(
            "core.arena_planned_b8_bytes",
            network8
                .plan_summary()
                .batch_buckets
                .last()
                .map_or(0, |b| b.arena_bytes) as f64,
            "bytes",
            1,
        );
        let mut session = network8.session();
        let batch: Vec<Tensor> = (0..SERVE_MAX_BATCH)
            .map(|i| inputs[i % inputs.len()].clone())
            .collect();
        let singles: Vec<Tensor> = batch
            .iter()
            .map(|input| Ok(session.run(input)?.clone()))
            .collect::<Res<_>>()?;
        for rung in [2usize, 4, 8] {
            let slow = run_ns * rung as u64 > 100_000_000;
            let rung_reps = if slow { reps.div_ceil(3) } else { reps };
            let (ns, outputs) = time_with(
                rec,
                &format!("core.run_batch.b{rung}"),
                rung_reps,
                || (),
                |()| Ok(session.run_batch(&batch[..rung])?),
            )?;
            // Batched outputs must equal the per-input runs, bit for bit.
            out.attempted += rung as u64;
            out.failed += outputs
                .iter()
                .zip(&singles)
                .filter(|(batched, single)| batched.as_slice() != single.as_slice())
                .count() as u64;
            out.push(
                &format!("core.run_b{rung}_ms"),
                ns_to_ms(ns),
                "ms",
                rung_reps,
            );
            if rung > 2 {
                out.push(
                    &format!("core.batch_ratio_b{rung}"),
                    ratio(ns as f64, run_ns as f64),
                    "ratio",
                    1,
                );
            }
        }
        Ok(network8)
    }

    /// ops and gemm: the standalone replay of the simplified graph.
    fn replay(&mut self, model: &Model, run_ns: u64, peak: f64) -> Res<()> {
        let reps = self.reps;
        let replayed = replay(
            &model.engine,
            &model.network,
            &model.simplified,
            reps,
            self.rec,
        )?;
        let out = &mut self.out;
        let conv_ns: u64 = replayed.class_ns.iter().sum();
        for (class, name) in [
            (ConvClass::Im2col, "ops.conv_im2col_ms"),
            (ConvClass::Pointwise, "ops.conv_pointwise_ms"),
            (ConvClass::Depthwise, "ops.conv_depthwise_ms"),
            (ConvClass::Other, "ops.conv_other_ms"),
        ] {
            out.push(
                name,
                ns_to_ms(replayed.class_ns[class as usize]),
                "ms",
                reps,
            );
        }
        out.push("ops.dense_ms", ns_to_ms(replayed.dense_ns), "ms", reps);
        // What the whole run spends outside convs and dense layers: pools,
        // adds, activations and the executor itself.
        let rest_ms = ns_to_ms(run_ns) - ns_to_ms(conv_ns) - ns_to_ms(replayed.dense_ns);
        out.push("ops.rest_ms", rest_ms, "ms", 1);
        let conv_gflops = ratio(replayed.conv_flops as f64, conv_ns as f64);
        out.push("ops.conv_gflops", conv_gflops, "GFLOP/s", 1);
        out.push("ops.conv_pct_of_peak", 100.0 * conv_gflops / peak, "%", 1);
        out.push(
            "ops.conv_prepare_ms",
            ns_to_ms(replayed.prepare_ns),
            "ms",
            reps.min(5),
        );
        out.push("ops.replay_mismatch", replayed.mismatch as f64, "count", 1);
        out.push(
            "gemm.model_gflops",
            ratio(replayed.gemm_flops as f64, replayed.gemm_ns as f64),
            "GFLOP/s",
            reps,
        );
        out.push("gemm.im2col_ms", ns_to_ms(replayed.im2col_ns), "ms", reps);
        out.push(
            "gemm.im2col_share",
            ratio(
                replayed.im2col_ns as f64,
                replayed.class_ns[ConvClass::Im2col as usize] as f64,
            ),
            "ratio",
            1,
        );
        out.push(
            "gemm.pack_a_ms",
            ns_to_ms(replayed.pack_a_ns),
            "ms",
            reps.min(5),
        );
        let mut rows = replayed.rows;
        rows.push(layer_row(
            "(rest)",
            "pools, adds, activations, executor",
            "-",
            (rest_ms.max(0.0) * 1e6) as u64,
            0,
            0,
        ));
        out.layer_table = format!("[\n  {}\n]", rows.join(",\n  "));
        Ok(())
    }

    /// serve: the workload's burst schedule against a server on this model.
    fn serve(
        &mut self,
        network: &Arc<Network>,
        oracle: &Oracle,
        seed: u64,
        run_ns: u64,
    ) -> Res<()> {
        let (inputs, reps) = (self.inputs, self.reps);
        let (rec, out) = (&mut *self.rec, &mut self.out);
        let span = rec.begin("serve.start");
        let server = Server::start(Arc::clone(network), serve_config());
        rec.end(span);
        warm_server(&server, inputs, 1)?;
        // Five decks in a full run: 30 bursts, so one late burst is not the p95.
        let bursts = reps.div_ceil(BURST_DECK.len()).min(5) * BURST_DECK.len();
        // The workload's own period where a burst of eight fits in it; a
        // slower model gets a longer one, so the probe never measures its
        // own backlog.
        let period = BURST_PERIOD.max(Duration::from_nanos(run_ns * 10));
        let measured = serve_ops(
            &server,
            inputs,
            oracle,
            &burst_sizes(seed, bursts),
            period,
            Duration::ZERO,
            rec,
        )?;
        out.attempted += measured.attempted;
        out.failed += measured.failed;
        let mut stages = measured.serve.expect("the serve loop fills its stages");
        let n = stages.queue_wait_ns.len();
        if n == 0 {
            return Err("no served request succeeded".into());
        }
        let p = |samples: &mut Vec<u64>, pct: f64| ns_to_us(percentile_of(samples, pct));
        out.push(
            "serve.queue_wait_p50_us",
            p(&mut stages.queue_wait_ns, 50.0),
            "us",
            n,
        );
        out.push(
            "serve.queue_wait_p95_us",
            p(&mut stages.queue_wait_ns, 95.0),
            "us",
            n,
        );
        out.push(
            "serve.service_p50_us",
            p(&mut stages.service_ns, 50.0),
            "us",
            n,
        );
        out.push(
            "serve.submit_us",
            p(&mut stages.submit_ns, 50.0),
            "us",
            stages.submit_ns.len(),
        );
        out.push(
            "serve.sched_lag_p95_us",
            p(&mut stages.lag_ns, 95.0),
            "us",
            stages.lag_ns.len(),
        );
        let stats = stages.stats;
        out.push(
            "serve.batch_occupancy_mean",
            ratio(stats.batched_requests as f64, stats.batches as f64),
            "req/run",
            stats.batches as usize,
        );
        out.push(
            "serve.batched_share",
            ratio(stats.batched_requests as f64, stats.completed() as f64),
            "ratio",
            stats.completed() as usize,
        );
        // A lone request on an idle server against a direct session run,
        // taken in turns: what the queue, the linger and the reply channel
        // cost.
        let mut session = network.session();
        let (mut direct, mut lone) = (Vec::with_capacity(reps), Vec::with_capacity(reps));
        for i in 0..reps {
            let input = &inputs[i % inputs.len()];
            let t0 = Instant::now();
            session.run(input)?;
            direct.push(t0.elapsed().as_nanos() as u64);
            let request = input.clone();
            let span = rec.begin("serve.infer");
            let t0 = Instant::now();
            server.infer(request)?;
            lone.push(t0.elapsed().as_nanos() as u64);
            rec.end(span);
        }
        out.push(
            "serve.unloaded_overhead_us",
            p(&mut lone, 50.0) - p(&mut direct, 50.0),
            "us",
            reps,
        );
        let queue = BoundedQueue::new(64);
        const QUEUE_OPS: u64 = 1000;
        let queue_ns = time(rec, "serve.queue_push_pop_x1000", reps, || {
            for i in 0..QUEUE_OPS {
                queue.try_push(i).map_err(|_| "queue refused a push")?;
                black_box(queue.pop());
            }
            Ok(())
        })?;
        out.push(
            "serve.queue_op_ns",
            queue_ns as f64 / QUEUE_OPS as f64,
            "ns",
            reps,
        );
        out.push(
            "serve.shed",
            (stats.shed_overload + stats.shed_deadline + stats.shed_shutdown) as f64,
            "count",
            1,
        );
        out.push("serve.faulted", stats.faulted as f64, "count", 1);
        out.push(
            "serve.reference_routed",
            stats.completed_reference as f64,
            "count",
            1,
        );
        let span = rec.begin("serve.shutdown");
        let drain = server.shutdown();
        rec.end(span);
        out.push(
            "serve.drain_clean",
            f64::from(u8::from(drain.clean)),
            "bool",
            1,
        );
        Ok(())
    }

    /// observe: what the engine's own recorder costs a run, in interleaved
    /// rounds so drift hits both arms alike.
    fn observe(&mut self, network: &Network) -> Res<()> {
        let mut session = network.session();
        let (mut off, mut on) = (Vec::new(), Vec::new());
        let mut spans = 0;
        let per_round = self.reps.div_ceil(3);
        for _ in 0..5 {
            for (enabled, samples) in [(false, &mut off), (true, &mut on)] {
                if enabled {
                    orpheus_observe::enable();
                }
                for _ in 0..per_round {
                    let t0 = Instant::now();
                    session.run(&self.inputs[0])?;
                    samples.push(t0.elapsed().as_nanos() as u64);
                }
                orpheus_observe::disable();
                spans += orpheus_observe::take_trace().len();
                orpheus_observe::reset();
            }
        }
        let (off_ns, on_ns) = (percentile_of(&mut off, 50.0), percentile_of(&mut on, 50.0));
        self.out.push(
            "observe.recorder_overhead_pct",
            100.0 * (on_ns as f64 - off_ns as f64) / off_ns as f64,
            "%",
            on.len(),
        );
        self.out.push(
            "observe.spans_per_run",
            spans as f64 / on.len() as f64,
            "count",
            on.len(),
        );
        Ok(())
    }
}
