//! Read-only, render-ready execution-plan summaries.
//!
//! [`PlanSummary`] is the supported way for tools (the CLI, the serving
//! layer) to inspect what a load produced — which implementation each layer
//! selected, the batch ladder with its per-bucket arena sizes, and the GEMM
//! ISA the plan executes on — without reaching into plan internals. Obtain
//! one from [`Session::plan_summary`](crate::Session::plan_summary) or
//! [`Network::plan_summary`](crate::Network::plan_summary).

use crate::lower::Plan;

/// One executable layer of the plan.
#[derive(Debug, Clone)]
pub struct LayerSummary {
    /// Layer (graph node) name.
    pub name: String,
    /// Operator kind (e.g. `Conv2d`).
    pub op: String,
    /// The implementation selection resolved at load (e.g.
    /// `im2col-gemm(packed)`).
    pub implementation: String,
    /// FLOPs per inference at the base batch (0 for non-compute ops).
    pub flops: u64,
}

/// One rung of the batch ladder with its planned arena footprint.
#[derive(Debug, Clone, Copy)]
pub struct BucketSummary {
    /// Absolute batch size this bucket serves.
    pub batch: usize,
    /// Planned activation-arena size in bytes.
    pub arena_bytes: usize,
    /// Number of physical buffers the arena holds.
    pub buffers: usize,
}

/// A read-only description of a loaded network's execution plan.
///
/// Everything here is resolved at `Engine::load` and immutable afterwards;
/// building a summary allocates but never touches session state, so it is
/// safe to call from serving threads next to live sessions.
#[derive(Debug, Clone)]
pub struct PlanSummary {
    /// Model name.
    pub model: String,
    /// Expected input dims at the base batch.
    pub input_dims: Vec<usize>,
    /// Executable layers in plan order.
    pub layers: Vec<LayerSummary>,
    /// The batch ladder, ascending.
    pub batch_buckets: Vec<BucketSummary>,
    /// Total FLOPs per base-batch inference.
    pub flops: u64,
    /// The GEMM ISA runtime dispatch selected for this plan (`"scalar"`,
    /// `"scalar (forced)"`, `"avx2+fma"` or `"avx512+fma"`).
    pub gemm_isa: &'static str,
}

impl PlanSummary {
    pub(crate) fn from_plan(model: &str, plan: &Plan) -> PlanSummary {
        let layers = plan
            .steps
            .iter()
            .map(|step| LayerSummary {
                name: step.layer.name().to_string(),
                op: step.layer.op_name().to_string(),
                implementation: step.layer.implementation(),
                flops: step.layer.flops(),
            })
            .collect();
        let batch_buckets = plan
            .buckets
            .iter()
            .map(|bucket| BucketSummary {
                batch: bucket.batch,
                arena_bytes: bucket.memory.arena_bytes(),
                buffers: bucket.memory.num_buffers(),
            })
            .collect();
        PlanSummary {
            model: model.to_string(),
            input_dims: plan.input_dims.clone(),
            layers,
            batch_buckets,
            flops: plan.steps.iter().map(|s| s.layer.flops()).sum(),
            gemm_isa: plan.gemm_isa,
        }
    }

    /// The largest batch the plan serves.
    pub fn max_batch(&self) -> usize {
        self.batch_buckets.last().map(|b| b.batch).unwrap_or(1)
    }
}
