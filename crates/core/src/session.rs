//! Reusable inference sessions over the static memory plan.
//!
//! A [`Session`] owns every buffer an inference needs — the planned
//! activation arena, the per-slot shape cache, and a handle to the engine's
//! thread pool — so repeated `run` calls recycle the same storage instead of
//! allocating. After the first call warms the arena (and the thread-local
//! kernel scratch pool), steady-state single-thread inference performs zero
//! activation heap allocations: tensors are assembled from recycled `Vec`s
//! via [`Tensor::from_parts`] and dismantled back into the arena with
//! [`Tensor::into_parts`] when liveness says their value is dead.
//!
//! [`Network::run`](crate::Network::run) is a thin wrapper that creates a
//! throwaway session; batch workloads should hold one session (or use
//! [`Network::run_batch`](crate::Network::run_batch)) to amortise the arena.

use std::sync::Arc;
use std::time::Instant;

use orpheus_observe as observe;
use orpheus_tensor::{Shape, Tensor};
use orpheus_threads::ThreadPool;

use crate::error::EngineError;
use crate::layer::Layer;
use crate::lower::Plan;
use crate::plan::{elems, MemoryPlan};
use crate::profile::LayerTiming;

/// Steps with at most this many inputs borrow their input refs from a stack
/// array; wider fan-in (absent from the model zoo) falls back to a `Vec`.
const MAX_FAN_IN: usize = 16;

/// Per-batch-bucket session storage: the arena, shape cache, and slot sizes
/// for one rung of the plan's batch ladder.
#[derive(Debug)]
struct BucketState {
    /// Free storage per planned buffer; empty `Vec` while lent to a slot.
    arena: Vec<Vec<f32>>,
    /// Per-slot `Shape` cache, round-tripped through
    /// `Tensor::from_parts`/`into_parts` so shapes are built exactly once.
    shapes: Vec<Option<Shape>>,
    /// Element count of each slot's value at this bucket's batch.
    slot_elems: Vec<usize>,
}

impl BucketState {
    /// Takes the planned buffer for `slot` out of the arena, zeroed to the
    /// slot's element count, together with its cached shape (`dims`).
    fn materialize(&mut self, slot: usize, buffer: usize, dims: &[usize]) -> (Shape, Vec<f32>) {
        let mut data = std::mem::take(&mut self.arena[buffer]);
        data.clear();
        data.resize(self.slot_elems[slot], 0.0);
        let shape = self.shapes[slot]
            .take()
            // Only reachable when a prior failed run lost a shape to an
            // error path; rebuilding allocates, steady state never does.
            .unwrap_or_else(|| Shape::new(dims));
        (shape, data)
    }
}

/// A reusable, preallocated execution context for one [`Network`].
///
/// Not `Sync`: one session serves one inference at a time. Create several
/// sessions from the same network to run concurrently — they share the plan
/// (immutable) and thread pool but own private arenas.
///
/// When the network was loaded with `max_batch > 1`, one session serves
/// every batch bucket: `run` picks the smallest bucket covering the input's
/// leading dim, zero-pads the tail of a between-rung batch, and slices the
/// padded rows back off the output. Each bucket keeps its own arena, so
/// steady-state runs at any single bucket stay allocation-free.
///
/// [`Network`]: crate::Network
#[derive(Debug)]
pub struct Session {
    plan: Arc<Plan>,
    pool: ThreadPool,
    model: String,
    /// Current tensor per slot (`None` = value dead, storage in the arena).
    slots: Vec<Option<Tensor>>,
    /// One storage state per batch bucket (`plan.buckets` order).
    states: Vec<BucketState>,
    /// Index of the bucket the slots/arena currently belong to.
    active: usize,
    /// Output scratch for padded (between-rung) runs; holds the sliced
    /// tensor so `run` can hand out a reference, recycled run to run.
    padded_output: Option<Tensor>,
    /// Per-step reference implementations; populated only for sessions
    /// created via [`Network::reference_session`](crate::Network::reference_session),
    /// where a `Some` entry replaces the step's selected layer. Empty for
    /// ordinary sessions, so the happy path pays nothing.
    reference: Vec<Option<Box<dyn Layer>>>,
    /// Placeholder for the input-ref stack array.
    empty: Tensor,
}

impl Session {
    pub(crate) fn new(
        plan: Arc<Plan>,
        pool: ThreadPool,
        model: String,
        prefer_reference: bool,
    ) -> Session {
        let states: Vec<BucketState> = plan
            .buckets
            .iter()
            .enumerate()
            .map(|(idx, bucket)| {
                let (dims, mp) = (&bucket.slot_dims, &bucket.memory);
                // The base bucket preallocates its planned capacity; larger
                // buckets start empty and grow to plan on first use, so an
                // 8-bucket session does not hold eight resident arenas for
                // traffic that may never batch.
                let arena: Vec<Vec<f32>> = if idx == 0 {
                    mp.buffer_elems
                        .iter()
                        .map(|&elems| Vec::with_capacity(elems))
                        .collect()
                } else {
                    mp.buffer_elems.iter().map(|_| Vec::new()).collect()
                };
                let shapes: Vec<Option<Shape>> = dims.iter().map(|d| Some(Shape::new(d))).collect();
                let slot_elems: Vec<usize> = dims.iter().map(|d| elems(d)).collect();
                BucketState {
                    arena,
                    shapes,
                    slot_elems,
                }
            })
            .collect();
        if observe::enabled() {
            let mp = &plan.buckets[0].memory;
            observe::gauge_set("session.arena.bytes", mp.arena_bytes() as f64);
            observe::gauge_set("session.arena.buffers", mp.num_buffers() as f64);
            observe::gauge_set("session.arena.reuse_ratio", mp.reuse_ratio());
        }
        let reference: Vec<Option<Box<dyn Layer>>> = if prefer_reference {
            plan.steps
                .iter()
                .map(|step| step.layer.reference_fallback())
                .collect()
        } else {
            Vec::new()
        };
        Session {
            slots: (0..plan.num_slots).map(|_| None).collect(),
            states,
            active: 0,
            padded_output: None,
            reference,
            empty: Tensor::zeros(&[0]),
            plan,
            pool,
            model,
        }
    }

    /// Whether this session prefers reference implementations (created via
    /// [`Network::reference_session`](crate::Network::reference_session)).
    pub fn prefers_reference(&self) -> bool {
        !self.reference.is_empty()
    }

    /// The planned arena size in bytes of the active bucket (what `run`
    /// keeps resident for the batch sizes it is currently serving).
    pub fn arena_bytes(&self) -> usize {
        self.memory_plan().arena_bytes()
    }

    /// The expected input dims at the base batch. Inputs with any leading
    /// dim up to [`Session::max_batch`] (same tail dims) are also accepted.
    pub fn input_dims(&self) -> &[usize] {
        &self.plan.input_dims
    }

    /// The batch sizes this session serves from its plan, ascending.
    pub fn batch_buckets(&self) -> Vec<usize> {
        self.plan.bucket_batches()
    }

    /// A read-only, render-ready description of the execution plan this
    /// session runs: per-layer implementation selections, the batch ladder
    /// with planned arena sizes, and the GEMM ISA — the supported way for
    /// tools to inspect a load instead of reaching into plan internals.
    pub fn plan_summary(&self) -> crate::PlanSummary {
        crate::PlanSummary::from_plan(&self.model, &self.plan)
    }

    /// The largest batch size `run` accepts.
    pub fn max_batch(&self) -> usize {
        self.plan.max_bucket_batch()
    }

    /// The arena capacity actually resident in the active bucket, in bytes.
    ///
    /// Returns every live value (including the last output) to the arena
    /// first, so the sum covers all planned buffers. Tests use this to pin
    /// the runtime footprint to the static [`MemoryPlan`] prediction,
    /// bucket by bucket (run a batch first to make its bucket active).
    pub fn measured_arena_bytes(&mut self) -> usize {
        self.reset();
        self.states[self.active]
            .arena
            .iter()
            .map(Vec::capacity)
            .sum::<usize>()
            * std::mem::size_of::<f32>()
    }

    fn memory_plan(&self) -> &MemoryPlan {
        &self.plan.buckets[self.active].memory
    }

    /// Re-arms the session after a fault without replanning: every live
    /// slot's storage returns to the active bucket's arena and its shape to
    /// the cache.
    ///
    /// `run` calls this on entry, so ordinary error recovery is automatic.
    /// Call it explicitly after catching a panic that unwound through `run`
    /// (e.g. a serving worker isolating a poisoned request): a panic can
    /// strand slots mid-step and drop an in-flight buffer, and `reset`
    /// restores the session's invariants so the next `run` proceeds —
    /// re-growing at most the one lost buffer, never recomputing the plan.
    pub fn reset(&mut self) {
        let plan = Arc::clone(&self.plan);
        let mp = &plan.buckets[self.active].memory;
        let state = &mut self.states[self.active];
        for slot in 0..plan.num_slots {
            if let Some(t) = self.slots[slot].take() {
                let (shape, data) = t.into_parts();
                state.shapes[slot] = Some(shape);
                state.arena[mp.buffer_of[slot]] = data;
            }
        }
    }

    /// Makes bucket `idx` the active one, returning any live storage to the
    /// previously active bucket's arena first. No-op when already active.
    fn switch_bucket(&mut self, idx: usize) {
        if idx != self.active {
            self.reset();
            self.active = idx;
            self.provision_active_arena();
        }
    }

    /// Grows the active bucket's arena buffers to their planned capacities.
    ///
    /// Lazily-created buckets start with empty buffers; letting `resize`
    /// grow them would over-allocate (amortized doubling) whenever a shared
    /// buffer serves a small slot before a large one. `reserve_exact` pins
    /// resident capacity to the static plan, keeping `measured <= planned`
    /// in every bucket. No-op (and allocation-free) once provisioned.
    fn provision_active_arena(&mut self) {
        let mp = &self.plan.buckets[self.active].memory;
        let state = &mut self.states[self.active];
        for (data, &elems) in state.arena.iter_mut().zip(&mp.buffer_elems) {
            if data.capacity() < elems {
                data.reserve_exact(elems - data.len());
            }
        }
    }

    /// Picks the smallest bucket covering `dims`' leading extent.
    ///
    /// Returns `(bucket index, requested batch)`; the requested batch is
    /// below the bucket's batch for between-rung inputs, which run padded.
    /// The steady-state path allocates nothing — the error branch builds its
    /// message only after a mismatch.
    fn select_bucket(&self, dims: &[usize]) -> Result<(usize, usize), EngineError> {
        let base = &self.plan.input_dims;
        let tails_match = dims.len() == base.len() && dims.get(1..) == base.get(1..);
        let batch = dims.first().copied().unwrap_or(0);
        if tails_match && batch >= 1 {
            if let Some(idx) = self
                .plan
                .buckets
                .iter()
                .position(|bucket| bucket.batch >= batch)
            {
                return Ok((idx, batch));
            }
        }
        Err(self.dims_error(dims))
    }

    /// The actionable dims-mismatch error, shared with every other run
    /// surface (see [`Plan::dims_error`]): lists every accepted input shape
    /// and the planned batch buckets, not just the base shape.
    fn dims_error(&self, dims: &[usize]) -> EngineError {
        self.plan.dims_error(dims)
    }

    /// Runs one inference, returning a reference to the output tensor.
    ///
    /// The input's leading (batch) dim may be any value from 1 up to
    /// [`Session::max_batch`]: the session activates the smallest covering
    /// batch bucket, zero-pads the tail when the batch falls between
    /// buckets, and slices the padded rows back off the output.
    ///
    /// The output stays valid (and its buffer stays out of the arena) until
    /// the next `run` on this session; clone it to keep it longer.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::Execution`] if the input dims match no batch
    /// bucket of the loaded model (the message lists every accepted shape),
    /// or if a layer fails and has no reference fallback.
    pub fn run(&mut self, input: &Tensor) -> Result<&Tensor, EngineError> {
        self.run_with(input, None)
    }

    /// [`Session::run`], additionally pushing one [`LayerTiming`] per plan
    /// step into `timings` when given (the `Network::run_profiled` sink).
    pub(crate) fn run_with(
        &mut self,
        input: &Tensor,
        timings: Option<&mut Vec<LayerTiming>>,
    ) -> Result<&Tensor, EngineError> {
        let (bucket, batch) = match self.select_bucket(input.dims()) {
            Ok(sel) => sel,
            Err(e) => {
                observe::flight_record("session", "run.error", format!("{}: {e}", self.model));
                return Err(e);
            }
        };
        self.switch_bucket(bucket);
        if let Err(e) = self.run_inner(input, timings) {
            // Error paths are cold: stamp the flight recorder so a post-hoc
            // dump explains what the session was doing when it failed.
            observe::flight_record("session", "run.error", format!("{}: {e}", self.model));
            return Err(e);
        }
        let bucket_batch = self.plan.buckets[bucket].batch;
        if batch == bucket_batch {
            return self.slots[self.plan.output_slot]
                .as_ref()
                .ok_or_else(|| EngineError::Execution("output slot empty after run".into()));
        }
        self.slice_padded_output(batch, bucket_batch)
    }

    /// Runs one inference, copying the output into a caller-owned buffer and
    /// returning the output dims.
    ///
    /// This completes the session run surface (`run` / `run_batch` /
    /// `run_into`) for callers that own their output storage — a serving
    /// loop can reuse one `Vec` across requests and stay allocation-free
    /// once it has grown to the largest output. `out` is cleared first;
    /// accepted inputs and the error taxonomy are exactly [`Session::run`]'s.
    ///
    /// # Errors
    ///
    /// See [`Session::run`]. On error `out` is left cleared.
    pub fn run_into(
        &mut self,
        input: &Tensor,
        out: &mut Vec<f32>,
    ) -> Result<Vec<usize>, EngineError> {
        out.clear();
        let output = self.run(input)?;
        let dims = output.dims().to_vec();
        out.extend_from_slice(output.as_slice());
        Ok(dims)
    }

    /// Slices the first `batch` of `bucket_batch` served rows off the
    /// (padded) output into the session's scratch output tensor.
    fn slice_padded_output(
        &mut self,
        batch: usize,
        bucket_batch: usize,
    ) -> Result<&Tensor, EngineError> {
        // Recycle the previous padded output's storage before borrowing the
        // output slot.
        let mut data = match self.padded_output.take() {
            Some(t) => t.into_parts().1,
            None => Vec::new(),
        };
        let full = self.slots[self.plan.output_slot]
            .as_ref()
            .ok_or_else(|| EngineError::Execution("output slot empty after run".into()))?;
        let lead = full.dims().first().copied().unwrap_or(1);
        if !(lead * batch).is_multiple_of(bucket_batch) {
            return Err(EngineError::Execution(format!(
                "cannot slice batch {batch} rows from output dims {:?} served \
                 at bucket batch {bucket_batch}",
                full.dims()
            )));
        }
        let keep = full.len() / bucket_batch * batch;
        let mut dims = full.dims().to_vec();
        dims[0] = lead * batch / bucket_batch;
        data.clear();
        data.extend_from_slice(&full.as_slice()[..keep]);
        let sliced =
            Tensor::from_vec(data, &dims).map_err(|e| EngineError::Execution(e.to_string()))?;
        self.padded_output = Some(sliced);
        Ok(self
            .padded_output
            .as_ref()
            .expect("padded output was just stored"))
    }

    /// Renders the process-wide flight recorder's recent events — loads,
    /// faults, fallback rescues, run errors — as human-readable lines.
    ///
    /// The recorder is always armed (see [`orpheus_observe::flight_record`]),
    /// so this works even when tracing was never enabled; call it after a
    /// failed [`Session::run`] for post-mortem context.
    pub fn dump_flight_recorder(&self) -> String {
        observe::flight_render(&observe::flight_snapshot())
    }

    /// Runs every input through the session in order, cloning each output.
    ///
    /// When the plan has batch buckets above the base batch and the inputs
    /// are homogeneous base-batch tensors, consecutive inputs are coalesced
    /// into bucketed runs (stack → one padded run → scatter) instead of the
    /// serial input-at-a-time loop. An empty input slice yields an empty
    /// output vec.
    ///
    /// # Errors
    ///
    /// See [`Session::run`]; the first failing input aborts the batch, and
    /// the error names that input's index (`input #i: ...`). Outputs
    /// computed for earlier inputs are dropped with the abort.
    pub fn run_batch(&mut self, inputs: &[Tensor]) -> Result<Vec<Tensor>, EngineError> {
        if inputs.is_empty() {
            return Ok(Vec::new());
        }
        let base_dims = self.plan.input_dims.clone();
        let base_batch = base_dims.first().copied().unwrap_or(1);
        let per_chunk = (self.plan.max_bucket_batch() / base_batch.max(1)).max(1);
        let homogeneous = inputs.iter().all(|t| t.dims() == base_dims.as_slice());
        let mut outputs = Vec::with_capacity(inputs.len());
        if !homogeneous || per_chunk == 1 {
            for (index, input) in inputs.iter().enumerate() {
                let out = self
                    .run(input)
                    .map_err(|e| indexed_input_error(index, &e))?
                    .clone();
                outputs.push(out);
            }
            return Ok(outputs);
        }
        let out_dims = self.plan.buckets[0].slot_dims[self.plan.output_slot].clone();
        let per_input: usize = base_dims.iter().product::<usize>().max(1);
        let mut start = 0;
        for chunk in inputs.chunks(per_chunk) {
            if chunk.len() == 1 {
                let out = self
                    .run(&chunk[0])
                    .map_err(|e| indexed_input_error(start, &e))?
                    .clone();
                outputs.push(out);
            } else {
                let mut data = Vec::with_capacity(chunk.len() * per_input);
                for input in chunk {
                    data.extend_from_slice(input.as_slice());
                }
                let mut dims = base_dims.clone();
                dims[0] = base_batch * chunk.len();
                let stacked = Tensor::from_vec(data, &dims)
                    .map_err(|e| EngineError::Execution(e.to_string()))?;
                match self.run(&stacked) {
                    Ok(full) => {
                        let per_output = full.len() / chunk.len();
                        let served = full.as_slice();
                        for j in 0..chunk.len() {
                            let row = &served[j * per_output..(j + 1) * per_output];
                            let out = Tensor::from_vec(row.to_vec(), &out_dims)
                                .map_err(|e| EngineError::Execution(e.to_string()))?;
                            outputs.push(out);
                        }
                    }
                    Err(_) => {
                        // The batched run cannot say which input poisoned
                        // it; re-run the chunk serially so the failing index
                        // is identified and healthy inputs still complete.
                        for (j, input) in chunk.iter().enumerate() {
                            let out = self
                                .run(input)
                                .map_err(|e| indexed_input_error(start + j, &e))?
                                .clone();
                            outputs.push(out);
                        }
                    }
                }
            }
            start += chunk.len();
        }
        Ok(outputs)
    }

    /// The one loop in the workspace that executes plan steps.
    fn run_inner(
        &mut self,
        input: &Tensor,
        mut timings: Option<&mut Vec<LayerTiming>>,
    ) -> Result<(), EngineError> {
        let plan = Arc::clone(&self.plan);
        let bucket = &plan.buckets[self.active];
        let mp = &bucket.memory;
        let mut run_span = observe::span("run", "session");
        run_span.attr("model", self.model.as_str());
        let start = Instant::now();
        self.reset();

        // Materialize the input into its planned buffer; a between-rung
        // batch fills only its own rows and the tail is zero-padded to the
        // bucket's extent (batch rows are independent in every modeled op,
        // so padded rows cannot bleed into real ones).
        {
            let slot = plan.input_slot;
            let state = &mut self.states[self.active];
            let mut data = std::mem::take(&mut state.arena[mp.buffer_of[slot]]);
            data.clear();
            data.extend_from_slice(input.as_slice());
            if data.len() < state.slot_elems[slot] {
                data.resize(state.slot_elems[slot], 0.0);
            }
            let shape = state.shapes[slot]
                .take()
                .unwrap_or_else(|| Shape::new(&bucket.slot_dims[slot]));
            self.slots[slot] = Some(
                Tensor::from_parts(shape, data)
                    .map_err(|e| EngineError::Execution(e.to_string()))?,
            );
        }

        for (step_idx, step) in plan.steps.iter().enumerate() {
            // Reference-preferring sessions (the circuit breaker's degraded
            // path) swap in the prebuilt reference twin.
            let layer: &dyn Layer = self
                .reference
                .get(step_idx)
                .and_then(|l| l.as_deref())
                .unwrap_or(step.layer.as_ref());
            let layer_start = timings.as_ref().map(|_| Instant::now());
            if mp.view_move[step_idx] {
                // Pure view over a dying value: move the buffer, skip the
                // layer entirely.
                let src = self.slots[step.inputs[0]].take().ok_or_else(|| {
                    EngineError::Execution(format!(
                        "layer {:?} reads slot {} before it is produced",
                        step.layer.name(),
                        step.inputs[0]
                    ))
                })?;
                let (shape_in, data) = src.into_parts();
                let state = &mut self.states[self.active];
                state.shapes[step.inputs[0]] = Some(shape_in);
                let shape_out = state.shapes[step.output]
                    .take()
                    .unwrap_or_else(|| Shape::new(&bucket.slot_dims[step.output]));
                self.slots[step.output] = Some(
                    Tensor::from_parts(shape_out, data)
                        .map_err(|e| EngineError::Execution(e.to_string()))?,
                );
            } else {
                let (shape, data) = self.states[self.active].materialize(
                    step.output,
                    mp.buffer_of[step.output],
                    &bucket.slot_dims[step.output],
                );
                let mut out = Tensor::from_parts(shape, data)
                    .map_err(|e| EngineError::Execution(e.to_string()))?;
                let mut stack: [&Tensor; MAX_FAN_IN] = [&self.empty; MAX_FAN_IN];
                let mut heap: Vec<&Tensor> = Vec::new();
                let inputs: &[&Tensor] = if step.inputs.len() <= MAX_FAN_IN {
                    for (i, &slot) in step.inputs.iter().enumerate() {
                        stack[i] = self.slots[slot].as_ref().ok_or_else(|| {
                            EngineError::Execution(format!(
                                "layer {:?} reads slot {slot} before it is produced",
                                step.layer.name()
                            ))
                        })?;
                    }
                    &stack[..step.inputs.len()]
                } else {
                    for &slot in &step.inputs {
                        heap.push(self.slots[slot].as_ref().ok_or_else(|| {
                            EngineError::Execution(format!(
                                "layer {:?} reads slot {slot} before it is produced",
                                step.layer.name()
                            ))
                        })?);
                    }
                    &heap
                };
                let mut layer_span = observe::span(layer.name(), "layer");
                // `implementation()` builds a String; skip the attrs entirely
                // when the recorder is off so steady state stays alloc-free.
                if observe::enabled() {
                    layer_span.attr("op", layer.op_name());
                    layer_span.attr("implementation", layer.implementation());
                    layer_span.attr("flops", layer.flops());
                }
                if let Err(primary) = layer.run_into(inputs, &mut out, &self.pool) {
                    // Graceful degradation: retry once on the reference
                    // implementation (into a re-zeroed buffer), surfacing the
                    // original error if even that cannot run. This path only
                    // runs on a fault, so the flight-recorder stamp does not
                    // touch the zero-alloc steady state.
                    let Some(fallback) = layer.reference_fallback() else {
                        observe::flight_record(
                            "selection",
                            "fault.unrecoverable",
                            format!("{}: {primary}", layer.name()),
                        );
                        return Err(primary);
                    };
                    out.as_mut_slice().fill(0.0);
                    if fallback.run_into(inputs, &mut out, &self.pool).is_err() {
                        observe::flight_record(
                            "selection",
                            "fallback.failed",
                            format!("{}: {primary}", layer.name()),
                        );
                        return Err(primary);
                    }
                    layer_span.attr("fallback", fallback.implementation());
                    observe::counter_add("selection.fallback", 1);
                    observe::flight_record(
                        "selection",
                        "fallback",
                        format!(
                            "{}: rescued by {} after: {primary}",
                            layer.name(),
                            fallback.implementation()
                        ),
                    );
                }
                self.slots[step.output] = Some(out);
            }

            // Liveness-driven recycling: every slot last read by this step
            // hands its storage back to the arena.
            for &slot in &mp.reclaim_at[step_idx] {
                if let Some(t) = self.slots[slot].take() {
                    let (shape, data) = t.into_parts();
                    let state = &mut self.states[self.active];
                    state.shapes[slot] = Some(shape);
                    state.arena[mp.buffer_of[slot]] = data;
                }
            }
            if let (Some(sink), Some(layer_start)) = (timings.as_deref_mut(), layer_start) {
                sink.push(LayerTiming {
                    name: layer.name().to_string(),
                    op: layer.op_name().to_string(),
                    implementation: layer.implementation(),
                    duration: layer_start.elapsed(),
                    flops: layer.flops(),
                });
            }
        }

        observe::histogram_record("run.latency_us", start.elapsed().as_micros() as u64);
        drop(run_span);
        Ok(())
    }
}

/// Wraps a per-input failure with the input's position in the batch, so a
/// `run_batch` caller knows exactly which input aborted it.
fn indexed_input_error(index: usize, e: &EngineError) -> EngineError {
    EngineError::Execution(format!("input #{index}: {e}"))
}

#[cfg(test)]
mod tests {
    use crate::engine::Engine;
    use orpheus_models::{build_model, ModelKind};
    use orpheus_tensor::Tensor;

    fn tiny_network() -> crate::Network {
        Engine::builder()
            .build()
            .unwrap()
            .load(build_model(ModelKind::TinyCnn))
            .unwrap()
    }

    #[test]
    fn planned_session_matches_no_reuse_session_at_every_rung() {
        // Same executor, same layers; only the memory plan differs, so any
        // divergence is an arena-reuse or view-aliasing bug.
        let network = batched_network(4);
        let mut planned = network.session();
        let mut oracle = network.no_reuse_session().unwrap();
        assert!(oracle.arena_bytes() > planned.arena_bytes());
        for n in network.batch_buckets() {
            let input = batch_input(n, n * 17);
            for _ in 0..3 {
                let want = oracle.run(&input).unwrap();
                let got = planned.run(&input).unwrap();
                assert_eq!(got.dims(), want.dims());
                assert_eq!(got.as_slice(), want.as_slice(), "bit-identity broken");
            }
        }
    }

    #[test]
    fn session_rejects_wrong_dims_and_recovers() {
        let network = tiny_network();
        let mut session = network.session();
        assert!(session.run(&Tensor::ones(&[1, 3, 9, 9])).is_err());
        // The session stays usable after a rejected input.
        let out = session.run(&Tensor::ones(&[1, 3, 8, 8])).unwrap();
        assert_eq!(out.dims(), &[1, 4]);
    }

    #[test]
    fn run_batch_matches_individual_runs() {
        let network = tiny_network();
        let inputs: Vec<Tensor> = (0..3)
            .map(|k| Tensor::from_fn(&[1, 3, 8, 8], |i| ((i + k) % 7) as f32 * 0.2))
            .collect();
        let batch = network.run_batch(&inputs).unwrap();
        assert_eq!(batch.len(), 3);
        for (input, got) in inputs.iter().zip(&batch) {
            let want = network.run(input).unwrap();
            assert_eq!(got.as_slice(), want.as_slice());
        }
    }

    #[test]
    fn arena_is_bounded_by_plan() {
        let network = tiny_network();
        let session = network.session();
        assert!(session.arena_bytes() > 0);
        assert_eq!(session.arena_bytes(), network.memory_plan().arena_bytes());
    }

    fn batched_network(max_batch: usize) -> crate::Network {
        Engine::builder()
            .max_batch(max_batch)
            .build()
            .unwrap()
            .load(build_model(ModelKind::TinyCnn))
            .unwrap()
    }

    fn batch_input(n: usize, seed: usize) -> Tensor {
        Tensor::from_fn(&[n, 3, 8, 8], move |i| ((i * 5 + seed) % 13) as f32 * 0.1)
    }

    #[test]
    fn default_max_batch_keeps_a_single_bucket() {
        let network = tiny_network();
        assert_eq!(network.batch_buckets(), vec![1]);
        assert_eq!(network.max_batch(), 1);
    }

    #[test]
    fn bucket_ladder_doubles_and_caps_at_max() {
        assert_eq!(batched_network(6).batch_buckets(), vec![1, 2, 4, 6]);
        assert_eq!(batched_network(8).batch_buckets(), vec![1, 2, 4, 8]);
        assert_eq!(batched_network(1).batch_buckets(), vec![1]);
    }

    #[test]
    fn bucketed_outputs_bit_identical_to_per_input_runs() {
        let network = batched_network(4);
        let mut session = network.session();
        let reference = tiny_network();
        let mut ref_session = reference.session();
        for n in 1..=4usize {
            let input = batch_input(n, n * 31);
            let got = session.run(&input).unwrap().clone();
            assert_eq!(got.dims()[0], n, "output batch must match input batch");
            let per_output = got.len() / n;
            for row in 0..n {
                let single =
                    Tensor::from_fn(&[1, 3, 8, 8], |i| input.as_slice()[row * 3 * 8 * 8 + i]);
                let want = ref_session.run(&single).unwrap();
                assert_eq!(
                    &got.as_slice()[row * per_output..(row + 1) * per_output],
                    want.as_slice(),
                    "batch {n} row {row} diverges from a per-input run"
                );
            }
        }
    }

    #[test]
    fn batch_above_max_bucket_lists_accepted_shapes() {
        let network = batched_network(4);
        let mut session = network.session();
        let err = session.run(&batch_input(5, 0)).unwrap_err().to_string();
        assert!(err.contains("[1, 2, 4]"), "buckets missing from: {err}");
        assert!(err.contains("1..=4"), "accepted range missing from: {err}");
        // The session stays usable after the rejection.
        assert!(session.run(&batch_input(2, 1)).is_ok());
    }

    #[test]
    fn wrong_tail_dims_error_lists_buckets() {
        let network = batched_network(4);
        let mut session = network.session();
        let err = session
            .run(&Tensor::ones(&[1, 3, 9, 9]))
            .unwrap_err()
            .to_string();
        assert!(err.contains("do not match"), "{err}");
        assert!(
            err.contains("[N, 3, 8, 8]"),
            "accepted shape missing: {err}"
        );
    }

    #[test]
    fn empty_run_batch_returns_empty() {
        let network = batched_network(4);
        let mut session = network.session();
        assert_eq!(session.run_batch(&[]).unwrap().len(), 0);
    }

    #[test]
    fn run_batch_coalesces_into_buckets_and_matches_serial() {
        let network = batched_network(4);
        let inputs: Vec<Tensor> = (0..5).map(|k| batch_input(1, k * 7)).collect();
        let mut session = network.session();
        let batched = session.run_batch(&inputs).unwrap();
        assert_eq!(batched.len(), 5);
        let reference = tiny_network();
        let mut ref_session = reference.session();
        for (input, got) in inputs.iter().zip(&batched) {
            let want = ref_session.run(input).unwrap();
            assert_eq!(got.dims(), want.dims());
            assert_eq!(got.as_slice(), want.as_slice(), "coalesced run diverges");
        }
    }

    #[test]
    fn run_batch_error_names_the_failing_input() {
        let network = batched_network(4);
        let mut session = network.session();
        let inputs = vec![
            batch_input(1, 0),
            Tensor::ones(&[1, 3, 9, 9]), // wrong tail dims
            batch_input(1, 1),
        ];
        let err = session.run_batch(&inputs).unwrap_err().to_string();
        assert!(err.contains("input #1"), "failing index missing: {err}");
    }

    #[test]
    fn padded_run_then_exact_run_reuses_the_session() {
        let network = batched_network(4);
        let mut session = network.session();
        // batch 3 pads into bucket 4; the next exact batch-4 run must not
        // see any residue from the padding.
        let padded = session.run(&batch_input(3, 5)).unwrap().clone();
        assert_eq!(padded.dims()[0], 3);
        let exact = session.run(&batch_input(4, 9)).unwrap();
        assert_eq!(exact.dims()[0], 4);
    }
}
